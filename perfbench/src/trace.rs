//! Benchmark-side spans and per-layer self-time attribution.
//!
//! The traced run records one span tree per operation: a root span for
//! the whole operation, a span around every public call the benchmark
//! makes into a layer, and *replay* spans — children placed inside an
//! opaque call whose duration comes from re-running one layer's public
//! function on the operation's own record. A span's self time is its
//! duration minus the part of its interval that its children cover;
//! the root's self time is the part of the operation no layer span
//! covers (`unattributed`). Self times are folded per operation as the
//! operation ends, and the spans of the first few operations are kept
//! for export.

use std::io::Write;
use std::time::Instant;

/// The platform layers spans are attributed to (repository modules).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Client,
    Access,
    Ingest,
    Crypto,
    Fhir,
    Privacy,
    Storage,
    Ledger,
    Cache,
    Resilience,
    Core,
    Telemetry,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Client,
        Layer::Access,
        Layer::Ingest,
        Layer::Crypto,
        Layer::Fhir,
        Layer::Privacy,
        Layer::Storage,
        Layer::Ledger,
        Layer::Cache,
        Layer::Resilience,
        Layer::Core,
        Layer::Telemetry,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Access => "access",
            Layer::Ingest => "ingest",
            Layer::Crypto => "crypto",
            Layer::Fhir => "fhir",
            Layer::Privacy => "privacy",
            Layer::Storage => "storage",
            Layer::Ledger => "ledger",
            Layer::Cache => "cache",
            Layer::Resilience => "resilience",
            Layer::Core => "core",
            Layer::Telemetry => "telemetry",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0)
    }
}

/// Index of the unattributed slot in [`Folded::self_ns`].
const UNATTRIBUTED: usize = Layer::ALL.len();

/// Span id, unique within a run.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub name: &'static str,
    /// `None` for an operation's root span.
    pub layer: Option<Layer>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration measured by replaying the layer's function, not by
    /// timing the call itself.
    pub replay: bool,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span in one operation's tree, in input order:
/// duration minus the union of its direct children's intervals clipped
/// to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|span| {
            let mut covered: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut cursor = span.start_ns;
            for (s, e) in covered {
                let s = s.max(cursor);
                if e > s {
                    union += e - s;
                    cursor = e;
                }
            }
            span.duration().saturating_sub(union)
        })
        .collect()
}

/// Attribution folded over every closed operation: running sums, and
/// each operation's total for the median.
#[derive(Clone, Debug, Default)]
pub struct Folded {
    /// Root span duration of each operation.
    pub totals_ns: Vec<u64>,
    /// Summed self time per layer (in [`Layer::ALL`] order), then
    /// unattributed.
    pub self_ns: [u64; UNATTRIBUTED + 1],
    /// Summed spans per layer.
    pub spans: [u64; UNATTRIBUTED],
}

/// Records span trees operation by operation.
pub struct Tracer {
    epoch: Instant,
    next_id: SpanId,
    op: u64,
    current: Vec<Span>,
    keep_ops: u64,
    kept: Vec<Span>,
    folded: Folded,
}

impl Tracer {
    /// A tracer that keeps the full span trees of the first `keep_ops`
    /// operations for export.
    pub fn new(keep_ops: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 0,
            op: 0,
            current: Vec::new(),
            keep_ops,
            kept: Vec::new(),
            folded: Folded::default(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit bounds; returns its id.
    pub fn span(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: Option<Layer>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(parent, name, layer, start_ns, end_ns, false)
    }

    /// Records replayed durations as consecutive children of `parent`,
    /// starting at `start_ns`.
    pub fn replays(&mut self, parent: SpanId, start_ns: u64, parts: &[(&'static str, Layer, u64)]) {
        let mut at = start_ns;
        for &(name, layer, ns) in parts {
            self.push(Some(parent), name, Some(layer), at, at + ns, true);
            at += ns;
        }
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: Option<Layer>,
        start_ns: u64,
        end_ns: u64,
        replay: bool,
    ) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.current.push(Span {
            id,
            parent,
            op: self.op,
            name,
            layer,
            start_ns,
            end_ns,
            replay,
        });
        id
    }

    /// Closes the current operation: folds its self times and keeps or
    /// drops its spans.
    pub fn end_op(&mut self) {
        let selfs = self_times(&self.current);
        let f = &mut self.folded;
        let mut total = 0;
        for (span, &ns) in self.current.iter().zip(&selfs) {
            match span.layer {
                Some(layer) => {
                    f.self_ns[layer.index()] += ns;
                    f.spans[layer.index()] += 1;
                }
                None => {
                    f.self_ns[UNATTRIBUTED] += ns;
                    total += span.duration();
                }
            }
        }
        f.totals_ns.push(total);
        if self.op < self.keep_ops {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
        self.op += 1;
    }

    /// Everything folded so far.
    pub fn folded(&self) -> &Folded {
        &self.folded
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
                s.op,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.name,
                s.layer.map_or("op", Layer::name),
                s.start_ns,
                s.end_ns,
                s.replay
            )?;
        }
        out.flush()
    }
}

/// Per-layer attribution summary over a traced run.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Operations folded.
    pub ops: usize,
    /// Mean self time per operation, per layer (µs).
    pub layer_self_us: Vec<(Layer, f64)>,
    /// Mean spans per operation, per layer.
    pub layer_spans: Vec<(Layer, f64)>,
    /// Mean root self time per operation (µs).
    pub unattributed_us: f64,
    /// Mean and median operation time (µs).
    pub op_mean_us: f64,
    pub op_median_us: f64,
    /// `(Σ layer self + unattributed − mean op) / mean op × 100`.
    pub reconcile_error_pct: f64,
}

impl Attribution {
    /// Summarises folded operations.
    pub fn of(f: &Folded) -> Self {
        let n = f.totals_ns.len().max(1) as f64;
        let layer_self_us: Vec<(Layer, f64)> = Layer::ALL
            .iter()
            .map(|&l| (l, f.self_ns[l.index()] as f64 / n / 1e3))
            .collect();
        let layer_spans = Layer::ALL
            .iter()
            .map(|&l| (l, f.spans[l.index()] as f64 / n))
            .collect();
        let unattributed_us = f.self_ns[UNATTRIBUTED] as f64 / n / 1e3;
        let op_mean_us = f.totals_ns.iter().sum::<u64>() as f64 / n / 1e3;
        let mut totals: Vec<f64> = f.totals_ns.iter().map(|&t| t as f64 / 1e3).collect();
        let op_median_us = crate::stats::median(&mut totals);
        let attributed: f64 = layer_self_us.iter().map(|(_, v)| v).sum::<f64>() + unattributed_us;
        let reconcile_error_pct = if op_mean_us > 0.0 {
            (attributed - op_mean_us) / op_mean_us * 100.0
        } else {
            0.0
        };
        Attribution {
            ops: f.totals_ns.len(),
            layer_self_us,
            layer_spans,
            unattributed_us,
            op_mean_us,
            op_median_us,
            reconcile_error_pct,
        }
    }

    /// Self time of one layer (µs per operation).
    #[cfg(test)]
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.layer_self_us
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: Option<Layer>, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            layer,
            start_ns: s,
            end_ns: e,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children a [10,40) and b [30,60) overlap by 10,
        // so they cover 50 and the root keeps 50. a has a grandchild
        // [15,25) (a keeps 20); b has a child that spills past b's end,
        // clipped to [50,60) (b keeps 20, the grandchild keeps its 20).
        let spans = vec![
            span(0, None, None, 0, 100),
            span(1, Some(0), Some(Layer::Access), 10, 40),
            span(2, Some(0), Some(Layer::Ingest), 30, 60),
            span(3, Some(1), Some(Layer::Crypto), 15, 25),
            span(4, Some(2), Some(Layer::Storage), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 20]);
    }

    #[test]
    fn folded_layers_plus_unattributed_reconcile() {
        let mut t = Tracer::new(1);
        let root = t.span(None, "op", None, 0, 1_000);
        let call = t.span(Some(root), "call", Some(Layer::Ingest), 100, 900);
        t.replays(
            call,
            100,
            &[("a", Layer::Crypto, 300), ("b", Layer::Storage, 200)],
        );
        t.span(Some(root), "auth", Some(Layer::Access), 900, 950);
        t.end_op();
        let a = Attribution::of(t.folded());
        assert_eq!(a.ops, 1);
        assert!((a.self_us(Layer::Crypto) - 0.3).abs() < 1e-9);
        assert!((a.self_us(Layer::Storage) - 0.2).abs() < 1e-9);
        assert!((a.self_us(Layer::Ingest) - 0.3).abs() < 1e-9);
        assert!((a.self_us(Layer::Access) - 0.05).abs() < 1e-9);
        assert!((a.unattributed_us - 0.15).abs() < 1e-9);
        assert!(a.reconcile_error_pct.abs() < 1e-9);
        assert_eq!(t.kept.len(), 5);
    }

    #[test]
    fn replays_that_overrun_their_call_show_as_reconcile_error() {
        let mut t = Tracer::new(0);
        let root = t.span(None, "op", None, 0, 100);
        let call = t.span(Some(root), "call", Some(Layer::Core), 0, 100);
        t.replays(call, 0, &[("scan", Layer::Ledger, 150)]);
        t.end_op();
        let a = Attribution::of(t.folded());
        assert!((a.reconcile_error_pct - 50.0).abs() < 1e-9);
        assert!(t.kept.is_empty());
    }
}
