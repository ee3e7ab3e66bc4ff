//! Fuzzes the FHIR bundle decoder, the first parser every device upload
//! reaches after the envelope is opened (§II-B ingestion validate stage).
//!
//! Inputs are random bytes plus mutations of valid EMR-bundle JSON:
//! truncation, byte flips, dropped and duplicated object members, and a
//! spliced 10k-deep nest. The decoder must return (never panic or
//! overflow its stack), and whatever it accepts must re-encode to bytes
//! that decode back to the same bundle. Every generated bundle must
//! round-trip exactly. The schedule is seeded (override with
//! `HC_SOAK_SEED`).

use hc_crypto::aead::Sealed;
use hc_fhir::bundle::Bundle;
use hc_kb::emr::{EmrCohort, EmrConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn soak_seed() -> u64 {
    std::env::var("HC_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF022)
}

fn cases() -> usize {
    if cfg!(debug_assertions) {
        1_500
    } else {
        50_000
    }
}

fn cohort_bundles(n: usize, seed: u64) -> Vec<Bundle> {
    let config = EmrConfig {
        n_patients: n,
        ..EmrConfig::default()
    };
    let cohort = EmrCohort::generate(config, seed);
    (0..n).map(|i| cohort.patient_bundle(i)).collect()
}

/// Decodes `input`; if it is accepted, checks that it round-trips.
fn check(input: &[u8]) {
    if let Ok(bundle) = Bundle::from_bytes(input) {
        let again = Bundle::from_bytes(&bundle.to_bytes()).expect("re-encoded bundle decodes");
        assert_eq!(again, bundle);
    }
}

/// Byte ranges of every object member (`"key":value`, without the comma
/// that separates it from its neighbours).
fn member_spans(json: &[u8]) -> Vec<(usize, usize)> {
    // One frame per open container: is it an object, and where does its
    // currently open member start.
    let mut stack: Vec<(bool, Option<usize>)> = Vec::new();
    let mut spans = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in json.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => {
                in_string = true;
                if let Some((true, open @ None)) = stack.last_mut() {
                    *open = Some(i);
                }
            }
            b'{' | b'[' => stack.push((b == b'{', None)),
            b',' | b'}' | b']' => {
                if let Some((_, open)) = stack.last_mut() {
                    if let Some(start) = open.take() {
                        spans.push((start, i));
                    }
                }
                if b != b',' {
                    stack.pop();
                }
            }
            _ => {}
        }
    }
    spans
}

fn deep_nest(depth: usize) -> Vec<u8> {
    let mut nest = vec![b'['; depth];
    nest.extend(std::iter::repeat_n(b']', depth));
    nest
}

/// One mutation of a valid bundle encoding.
fn mutate(rng: &mut StdRng, valid: &[u8], spans: &[(usize, usize)]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let (start, end) = spans[rng.gen_range(0..spans.len())];
    match rng.gen_range(0..6u32) {
        0 => bytes.truncate(rng.gen_range(0..bytes.len())),
        1 => {
            for _ in 0..rng.gen_range(1..8usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen();
            }
        }
        2 => {
            // Drop a member with the comma on one side of it.
            let (start, end) = if bytes[end] == b',' {
                (start, end + 1)
            } else if bytes[start - 1] == b',' {
                (start - 1, end)
            } else {
                (start, end)
            };
            bytes.drain(start..end);
        }
        3 => {
            let copy: Vec<u8> = bytes[start..end].to_vec();
            bytes.splice(end..end, std::iter::once(b',').chain(copy));
        }
        4 => {
            // An unknown member holding a deep nest, which the decoder
            // must skip.
            let mut member = b"\"deep\":".to_vec();
            member.extend(deep_nest(10_000));
            member.push(b',');
            bytes.splice(start..start, member);
        }
        _ => {
            let at = rng.gen_range(0..bytes.len());
            bytes.splice(at..at, deep_nest(10_000));
        }
    }
    bytes
}

fn random_bytes(rng: &mut StdRng) -> Vec<u8> {
    const JSONISH: &[u8] = b"{}[]\",:0123456789-.eE truefalsnl\\";
    let len = rng.gen_range(0..256usize);
    if rng.gen_bool(0.5) {
        (0..len).map(|_| rng.gen()).collect()
    } else {
        (0..len)
            .map(|_| JSONISH[rng.gen_range(0..JSONISH.len())])
            .collect()
    }
}

#[test]
fn every_generated_bundle_round_trips() {
    for bundle in cohort_bundles(200, soak_seed()) {
        let bytes = bundle.to_bytes();
        assert_eq!(Bundle::from_bytes(&bytes).unwrap(), bundle);
    }
}

#[test]
fn mutated_and_random_inputs_never_panic() {
    let seed = soak_seed();
    let valid: Vec<Vec<u8>> = cohort_bundles(24, seed)
        .iter()
        .map(Bundle::to_bytes)
        .collect();
    let spans: Vec<Vec<(usize, usize)>> = valid.iter().map(|v| member_spans(v)).collect();
    assert!(spans.iter().all(|s| s.len() > 10), "bundles have members");
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases() {
        let input = if rng.gen_bool(0.2) {
            random_bytes(&mut rng)
        } else {
            let i = rng.gen_range(0..valid.len());
            mutate(&mut rng, &valid[i], &spans[i])
        };
        check(&input);
    }
}

#[test]
fn duplicated_members_keep_their_last_value() {
    let bundle = cohort_bundles(1, soak_seed()).remove(0);
    let valid = bundle.to_bytes();
    let spans = member_spans(&valid);
    // Spans start at a key: the first right after the bundle's `{`.
    assert_eq!(valid[spans[0].0 - 1], b'{');
    for &(start, end) in &spans {
        let mut duplicated = valid.clone();
        duplicated.splice(end..end, std::iter::once(b',').chain(valid[start..end].to_vec()));
        // The repeated key's last value equals its first.
        assert_eq!(Bundle::from_bytes(&duplicated).unwrap(), bundle);
    }
}

/// Runs `decode` over `input` on a thread with the default 2 MiB stack.
fn decodes_to_err_on_default_stack(input: String, decode: fn(&str) -> bool) -> bool {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || decode(&input))
        .expect("spawn decoder thread")
        .join()
        .expect("decoder returned")
}

#[test]
fn million_deep_nesting_is_an_error_not_a_stack_overflow() {
    const DEPTH: usize = 1_000_000;
    let arrays = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let objects = format!("{}null{}", "{\"a\":".repeat(DEPTH), "}".repeat(DEPTH));
    let inputs = [
        arrays.clone(),
        objects.clone(),
        // Nested where the decoder skips an unknown member ...
        format!("{{\"entries\":[],\"kind\":\"Transaction\",\"x\":{arrays}}}"),
        // ... and where it scans an entry for its `resourceType` tag.
        format!("{{\"entries\":[{{\"resourceType\":\"Patient\",\"x\":{objects}}}],\"kind\":\"Transaction\"}}"),
        format!("{{\"ciphertext\":\"00\",\"x\":{objects}}}"),
    ];
    for input in inputs {
        let bundle_err: fn(&str) -> bool = |s| Bundle::from_bytes(s.as_bytes()).is_err();
        let sealed_err: fn(&str) -> bool = |s| serde_json::from_str::<Sealed>(s).is_err();
        assert!(decodes_to_err_on_default_stack(input.clone(), bundle_err));
        assert!(decodes_to_err_on_default_stack(input, sealed_err));
    }
}
