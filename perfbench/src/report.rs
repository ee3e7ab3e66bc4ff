//! Metric catalogue and the result line.

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("client.self_us", "us"),
    ("access.self_us", "us"),
    ("ingest.self_us", "us"),
    ("crypto.self_us", "us"),
    ("fhir.self_us", "us"),
    ("privacy.self_us", "us"),
    ("storage.self_us", "us"),
    ("ledger.self_us", "us"),
    ("cache.self_us", "us"),
    ("resilience.self_us", "us"),
    ("core.self_us", "us"),
    ("telemetry.self_us", "us"),
    ("unattributed_us", "us"),
    ("trace.op_mean_us", "us"),
    ("trace.op_median_us", "us"),
    ("trace.reconcile_error_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("client.seal_upload_us", "us"),
    ("ingest.queue_wait_us", "us"),
    ("ingest.drain_us_per_upload", "us"),
    ("ingest.stage.decrypt_us", "us"),
    ("ingest.stage.validate_us", "us"),
    ("ingest.stage.scan_us", "us"),
    ("ingest.stage.deid_us", "us"),
    ("ingest.stage.consent_us", "us"),
    ("ingest.stage.store_us", "us"),
    ("ingest.stage.anchor_us", "us"),
    ("ingest.commit_share", "ratio"),
    ("crypto.kms_seal_us", "us"),
    ("crypto.kms_open_us", "us"),
    ("crypto.envelope_encode_us", "us"),
    ("crypto.envelope_decode_us", "us"),
    ("fhir.encode_us", "us"),
    ("fhir.decode_us", "us"),
    ("fhir.validate_us", "us"),
    ("privacy.deidentify_us", "us"),
    ("storage.put_us", "us"),
    ("storage.get_us", "us"),
    ("storage.wal_bytes_per_upload", "bytes"),
    ("storage.stored_bytes_per_input_byte", "ratio"),
    ("access.authorize_us", "us"),
    ("access.denials", "count"),
    ("ledger.record_us", "us"),
    ("ledger.events_per_op", "count"),
    ("ledger.blocks_per_op", "count"),
    ("ledger.consensus_msgs_per_op", "count"),
    ("ledger.history_us", "us"),
    ("ledger.txs_scanned_per_query", "count"),
    ("ledger.history_hit_ratio", "ratio"),
    ("cache.local_hit_ratio", "ratio"),
    ("cache.fleet_hit_ratio", "ratio"),
    ("cache.sharded_get_ns", "ns"),
    ("resilience.admitted_ratio", "ratio"),
    ("resilience.shed_overload", "count"),
    ("resilience.shed_deadline", "count"),
    ("serving.request_ns", "ns"),
    ("serving.drain_us", "us"),
    ("serving.slo_goodput_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans_per_op", "count"),
    ("failed_ratio", "ratio"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named whole-run checks; a failure marks the run incorrect.
    pub checks: Vec<(String, bool)>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Sets a metric (the last value set wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_owned(), value)),
        }
    }

    /// Reads a metric back (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Records a named check; a check made more than once passes only
    /// if it passed every time.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 &= ok,
            None => self.checks.push((name.to_owned(), ok)),
        }
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: exactly the catalogue's metrics, in order.
    pub fn json_line(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && catalogue.iter().all(|(n, _)| self.get(n).is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
    }

    #[test]
    fn map_describes_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/map.json");
        let map = std::fs::read_to_string(path).expect("perfbench/map.json");
        // Metric entries are the only named objects after "metrics".
        let tail = &map[map.find("\"metrics\"").expect("metrics section")..];
        let mapped: Vec<String> = tail
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect();
        let all: Vec<String> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| (*n).to_owned())
            .collect();
        assert_eq!(mapped, all);
    }

    #[test]
    fn result_line_counts_failures() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.set("setup_s", 0.5);
        assert!(!r.correct());
        let line = r.json_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
