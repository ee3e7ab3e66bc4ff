//! The API gateway: authenticate → authorize → rate-limit → audit.
//!
//! §II-B: "The platform exposes secure APIs for all its capabilities. The
//! API management system first authenticates the user requesting the APIs,
//! and once successfully authenticated, it consults the Privacy Management
//! system and allows API access accordingly."

use hc_common::clock::{SimClock, SimInstant};
use hc_common::id::{EnvId, OrgId, UserId};
use hc_common::intern::Interner;
use std::collections::HashMap;
use std::sync::Arc;

use crate::identity::{AuthError, AuthToken, TokenService};
use crate::model::Permission;
use crate::rbac::RbacEngine;

/// Why an API request was denied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Denial {
    /// Token invalid or expired.
    Authentication(AuthError),
    /// RBAC refused the permission.
    Authorization {
        /// The permission that was required.
        required: Permission,
    },
    /// The caller exceeded its request budget.
    RateLimited,
}

impl std::fmt::Display for Denial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Denial::Authentication(e) => write!(f, "authentication failed: {e}"),
            Denial::Authorization { required } => {
                write!(f, "missing permission {required:?}")
            }
            Denial::RateLimited => f.write_str("rate limit exceeded"),
        }
    }
}

impl std::error::Error for Denial {}

/// An audit record for one API decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessRecord {
    /// The caller (unknown for failed authentication).
    pub user: Option<UserId>,
    /// The API operation name.
    pub operation: String,
    /// The permission the operation required — the observed-use signal the
    /// posture scanner compares against granted role permissions.
    pub permission: Permission,
    /// Whether it was allowed.
    pub allowed: bool,
    /// When.
    pub at: SimInstant,
}

/// The part of an [`AccessRecord`] that repeats from call to call: who
/// asked for which operation and permission, and the verdict. The gateway
/// stores each distinct call once.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Call {
    user: Option<UserId>,
    operation: String,
    permission: Permission,
    allowed: bool,
}

/// One stored decision: 16 bytes, and no retained allocation once its
/// call has been seen.
#[derive(Debug)]
struct Decision {
    call: Arc<Call>,
    at: SimInstant,
}

/// A token-bucket rate limiter per user.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_refill: SimInstant,
}

/// The API gateway.
#[derive(Debug)]
pub struct ApiGateway {
    clock: SimClock,
    rate_per_sec: f64,
    burst: f64,
    buckets: HashMap<UserId, Bucket>,
    calls: Interner<Call>,
    audit: Vec<Decision>,
}

impl ApiGateway {
    /// Creates a gateway with the given steady rate and burst capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` or `burst` are not positive.
    pub fn new(clock: SimClock, rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0 && burst > 0.0, "rates must be positive");
        ApiGateway {
            clock,
            rate_per_sec,
            burst,
            buckets: HashMap::new(),
            calls: Interner::default(),
            audit: Vec::new(),
        }
    }

    fn take_token(&mut self, user: UserId) -> bool {
        let now = self.clock.now();
        let bucket = self.buckets.entry(user).or_insert(Bucket {
            tokens: self.burst,
            last_refill: now,
        });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate_per_sec).min(self.burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Appends one decision to the audit log.
    fn log(
        &mut self,
        user: Option<UserId>,
        operation: &str,
        permission: Permission,
        allowed: bool,
        at: SimInstant,
    ) {
        let call = Call {
            user,
            operation: operation.to_owned(),
            permission,
            allowed,
        };
        let call = self.calls.intern(&call, |c| Arc::new(c.clone()));
        self.audit.push(Decision { call, at });
    }

    /// Authorizes one API call end to end.
    ///
    /// # Errors
    ///
    /// Returns the first [`Denial`] encountered (authentication, then
    /// rate limit, then authorization), and records the decision in the
    /// audit log either way.
    #[allow(clippy::too_many_arguments)] // mirrors the request's full context
    pub fn authorize(
        &mut self,
        tokens: &TokenService,
        rbac: &RbacEngine,
        token: &AuthToken,
        org: OrgId,
        env: EnvId,
        required: Permission,
        operation: &str,
    ) -> Result<UserId, Denial> {
        let now = self.clock.now();
        let user = match tokens.verify(token) {
            Ok(u) => u,
            Err(e) => {
                self.log(None, operation, required, false, now);
                return Err(Denial::Authentication(e));
            }
        };
        if !self.take_token(user) {
            self.log(Some(user), operation, required, false, now);
            return Err(Denial::RateLimited);
        }
        if !rbac.check(user, org, env, required) {
            self.log(Some(user), operation, required, false, now);
            return Err(Denial::Authorization { required });
        }
        self.log(Some(user), operation, required, true, now);
        Ok(user)
    }

    /// The audit log of every decision, oldest first.
    pub fn audit_log(&self) -> Vec<AccessRecord> {
        self.audit
            .iter()
            .map(|d| AccessRecord {
                user: d.call.user,
                operation: d.call.operation.clone(),
                permission: d.call.permission,
                allowed: d.call.allowed,
                at: d.at,
            })
            .collect()
    }

    /// How many decisions the audit log holds.
    pub fn audit_len(&self) -> usize {
        self.audit.len()
    }

    /// How many logged decisions were denials.
    pub fn denial_count(&self) -> usize {
        self.audit.iter().filter(|d| !d.call.allowed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::LocalDirectory;
    use crate::model::{Action, ResourceKind};
    use hc_common::clock::SimDuration;

    struct World {
        gateway: ApiGateway,
        tokens: TokenService,
        rbac: RbacEngine,
        token: AuthToken,
        org: OrgId,
        env: EnvId,
        clock: SimClock,
    }

    fn world() -> World {
        let clock = SimClock::new();
        let mut rng = hc_common::rng::seeded(40);
        let mut rbac = RbacEngine::new();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "t");
        let user = rbac.add_user(&mut rng, tenant, "alice").unwrap();
        rbac.assign(user, org, env, "clinician").unwrap();
        let tokens = TokenService::new([3u8; 32], clock.clone());
        let mut dir = LocalDirectory::new();
        dir.enroll("alice", b"pw", user);
        let token = tokens.login(&dir, "alice", b"pw").unwrap();
        World {
            gateway: ApiGateway::new(clock.clone(), 10.0, 3.0),
            tokens,
            rbac,
            token,
            org,
            env,
            clock,
        }
    }

    fn read_phi() -> Permission {
        Permission::new(ResourceKind::PatientData, Action::Read)
    }

    #[test]
    fn authorized_call_allowed() {
        let mut w = world();
        let result = w.gateway.authorize(
            &w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "get-record",
        );
        assert!(result.is_ok());
        assert!(w.gateway.audit_log()[0].allowed);
    }

    #[test]
    fn missing_permission_denied_and_audited() {
        let mut w = world();
        let admin_perm = Permission::new(ResourceKind::Key, Action::Admin);
        let result = w.gateway.authorize(
            &w.tokens, &w.rbac, &w.token, w.org, w.env, admin_perm, "rotate-key",
        );
        assert!(matches!(result, Err(Denial::Authorization { .. })));
        let log = w.gateway.audit_log();
        let last = log.last().unwrap();
        assert!(!last.allowed);
        assert_eq!(last.operation, "rotate-key");
    }

    #[test]
    fn forged_token_denied() {
        let mut w = world();
        let mut forged = w.token.clone();
        forged.user = UserId::from_raw(666);
        let result = w.gateway.authorize(
            &w.tokens, &w.rbac, &forged, w.org, w.env, read_phi(), "get-record",
        );
        assert!(matches!(result, Err(Denial::Authentication(_))));
        assert_eq!(w.gateway.audit_log()[0].user, None);
    }

    #[test]
    fn burst_exhaustion_rate_limits() {
        let mut w = world();
        for _ in 0..3 {
            w.gateway
                .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "op")
                .unwrap();
        }
        let result = w
            .gateway
            .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "op");
        assert_eq!(result.unwrap_err(), Denial::RateLimited);
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut w = world();
        for _ in 0..3 {
            w.gateway
                .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "op")
                .unwrap();
        }
        w.clock.advance(SimDuration::from_millis(200)); // 10/s → 2 tokens
        assert!(w
            .gateway
            .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "op")
            .is_ok());
    }

    #[test]
    fn audit_log_grows_per_decision() {
        let mut w = world();
        let _ = w
            .gateway
            .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), "a");
        let _ = w.gateway.authorize(
            &w.tokens,
            &w.rbac,
            &w.token,
            w.org,
            w.env,
            Permission::new(ResourceKind::Key, Action::Admin),
            "b",
        );
        assert_eq!(w.gateway.audit_log().len(), 2);
        assert_eq!(w.gateway.audit_len(), 2);
        assert_eq!(w.gateway.denial_count(), 1);
    }

    #[test]
    fn audit_log_returns_every_field_of_each_decision() {
        let mut w = world();
        let at = w.clock.now();
        for op in ["get-record", "get-record", "list"] {
            w.gateway
                .authorize(&w.tokens, &w.rbac, &w.token, w.org, w.env, read_phi(), op)
                .unwrap();
        }
        let user = Some(w.token.user);
        let record = |operation: &str| AccessRecord {
            user,
            operation: operation.to_owned(),
            permission: read_phi(),
            allowed: true,
            at,
        };
        assert_eq!(
            w.gateway.audit_log(),
            vec![record("get-record"), record("get-record"), record("list")]
        );
        assert_eq!(std::mem::size_of::<Decision>(), 16);
    }
}
