//! Wall-clock benchmark of the platform: four closed-loop workloads
//! (`ingest`, `read`, `audit`, `serve`) against the real code, with a
//! separate traced run that splits each operation into per-layer self
//! times.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|read|audit|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each metric means and which workload
//! it should move on.

mod audit;
mod ingest;
mod inputs;
mod read;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod zipf;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::{Inputs, Workload};
use report::{Report, END_TO_END, PER_LAYER};
use trace::Attribution;

/// Set-ups per untraced run; `setup_s` is their median. The read
/// workload's set-up ingests 2,000 bundles, so it repeats fewer times.
const SETUP_REPS: usize = 5;
const READ_SETUP_REPS: usize = 3;
/// Largest tolerated |reconcile error| of a traced run, in percent.
pub const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// How long a measured loop runs: at least `seconds` of wall time and
/// at least `min_ops` operations (enough samples for the p99).
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    /// Whether the loop started at `start` should run another operation.
    pub fn more(&self, start: Instant, ops: usize) -> bool {
        ops < self.min_ops || start.elapsed().as_secs_f64() < self.seconds
    }

    /// A round-splitting recorder for an untraced loop.
    pub fn recorder(&self) -> stats::Recorder {
        stats::Recorder::start(self.seconds, self.min_ops)
    }
}

/// Where a traced run writes its kept spans (relative to the checkout).
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("perfbench/out/spans-{workload}.jsonl"))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from searching above the working directory.
    let here = std::env::current_dir().unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Host, toolchain, revision, seed and input digest of one run.
fn stamp(args: &Args, inputs: &Inputs, gen_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"git_rev\": \"{}\", \"input_digest\": \"{}\", \"input_gen_s\": {gen_s:.3}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        inputs.digest,
    )
}

/// Runs `setup` `reps` times, keeping the last result; returns it with
/// the median set-up time.
fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up"),
        stats::median(&mut times),
    )
}

fn end_to_end(m: &stats::Measured, setup_s: f64, report: &mut Report) {
    report.set("setup_s", setup_s);
    report.set("ops_per_s", m.ops_per_s());
    report.set("latency_p50_us", m.p50_us());
    report.set("latency_p99_us", m.p99_us());
    report.set("peak_rss_mb", stats::peak_rss_mb());
    let per_round: Vec<String> = m
        .rounds
        .iter()
        .map(|r| format!("{:.1}", r.ops as f64 / r.seconds))
        .collect();
    println!(
        "{} ops in {:.2}s; ops/s per round: {}; {} latency samples (p99 needs {})",
        m.ops,
        m.wall_s,
        per_round.join(" "),
        m.samples(),
        stats::P99_MIN_SAMPLES
    );
    report.check(
        "enough samples for the p99",
        m.samples() >= stats::P99_MIN_SAMPLES as u64,
    );
}

/// A set-up workload, ready to measure.
enum Rig {
    Ingest(ingest::Rig),
    Read(read::Rig),
    Audit(audit::Rig),
    Serve(serve::Rig),
}

/// Boots the platform (telemetry on or off) and runs the workload's
/// preload or warm-up; `None` when the preload does not store every
/// upload.
fn setup(workload: Workload, telemetry: bool, inputs: &Inputs) -> Option<Rig> {
    match workload {
        Workload::Ingest => Some(Rig::Ingest(ingest::setup(telemetry, inputs.bundles.len()))),
        Workload::Read => read::setup(telemetry, inputs).map(Rig::Read),
        Workload::Audit => audit::setup(telemetry, inputs).map(Rig::Audit),
        Workload::Serve => Some(Rig::Serve(serve::setup(telemetry, inputs))),
    }
}

/// Runs one untraced measured loop.
fn measure(rig: Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> stats::Measured {
    match rig {
        Rig::Ingest(rig) => {
            ingest::measure(rig, inputs, budget, ingest::ROUND_BURSTS, None, report)
        }
        Rig::Read(rig) => read::measure(&rig, inputs, budget, report),
        Rig::Audit(rig) => audit::measure(&rig, inputs, budget, report),
        Rig::Serve(mut rig) => serve::measure(&mut rig, inputs, budget, report),
    }
}

const SETUP_FAILED: &str = "set-up stores every preloaded upload";

/// The untraced run: end-to-end metrics on the program as shipped.
fn untraced(args: &Args, inputs: &Inputs, report: &mut Report) {
    let budget = Budget {
        seconds: args.seconds,
        min_ops: stats::P99_MIN_SAMPLES,
    };
    let reps = if args.workload == Workload::Read {
        READ_SETUP_REPS
    } else {
        SETUP_REPS
    };
    match repeated_setup(reps, || setup(args.workload, true, inputs)) {
        (Some(rig), setup_s) => {
            let m = measure(rig, inputs, &budget, report);
            end_to_end(&m, setup_s, report);
        }
        (None, _) => report.check(SETUP_FAILED, false),
    }
}

/// Operations per second of one fresh, untraced loop, with telemetry on
/// or off.
fn throughput(
    args: &Args,
    inputs: &Inputs,
    telemetry: bool,
    budget: &Budget,
    report: &mut Report,
) -> f64 {
    match setup(args.workload, telemetry, inputs) {
        Some(rig) => measure(rig, inputs, budget, report).ops_per_s(),
        None => {
            report.check(SETUP_FAILED, false);
            0.0
        }
    }
}

/// The traced run: per-layer attribution, then telemetry overhead as the
/// throughput ratio of two fresh untraced loops, telemetry off vs on.
fn traced(args: &Args, inputs: &Inputs, report: &mut Report) {
    let budget = Budget {
        seconds: args.seconds,
        min_ops: stats::P99_MIN_SAMPLES,
    };
    let attribution = match args.workload {
        Workload::Ingest => {
            // One traced round, as many bursts as an untraced round.
            let rig = ingest::setup(true, inputs.bundles.len());
            Some(ingest::traced(
                &rig,
                &inputs.bundles,
                &inputs.order,
                ingest::ROUND_BURSTS,
                ingest::WORKERS,
                report,
            ))
        }
        Workload::Read => {
            // The read set-up ingests the study: trace it as ingest bursts.
            let (rig, preload) = read::setup_traced(inputs, report);
            let ok = print_attribution(
                "read set-up: preload through the ingest pipeline",
                INGEST_OP,
                &preload,
            );
            report.check(RECONCILES, ok);
            rig.map(|rig| read::traced(&rig, inputs, &budget, report))
        }
        Workload::Audit => {
            audit::setup(true, inputs).map(|rig| audit::traced(&rig, inputs, &budget, report))
        }
        Workload::Serve => Some(serve::traced(
            &mut serve::setup(true, inputs),
            inputs,
            &budget,
            report,
        )),
    };
    let Some(a) = attribution else {
        report.check(SETUP_FAILED, false);
        return;
    };
    report_attribution(args.workload, &a, report);

    let half = Budget {
        seconds: args.seconds / 2.0,
        ..budget
    };
    let on = throughput(args, inputs, true, &half, report);
    let off = throughput(args, inputs, false, &half, report);
    report.set("telemetry.overhead_pct", (off / on - 1.0) * 100.0);
    println!("telemetry overhead: {on:.1} ops/s instrumented vs {off:.1} ops/s bare");
}

const INGEST_OP: &str = "a burst of 16 uploads";
const RECONCILES: &str = "per-layer self times reconcile with the traced operation";

/// Prints one attribution table; returns whether it reconciles.
fn print_attribution(title: &str, op: &str, a: &Attribution) -> bool {
    println!();
    println!(
        "per-layer attribution, {title} ({} traced operations; one operation = {op})",
        a.ops
    );
    println!(
        "{:<14} {:>14} {:>10} {:>8}",
        "layer", "self us/op", "spans/op", "share"
    );
    for (&(layer, us), &(_, n)) in a.layer_self_us.iter().zip(&a.layer_spans) {
        if n > 0.0 {
            println!(
                "{:<14} {:>14.3} {:>10.2} {:>7.1}%",
                layer.name(),
                us,
                n,
                us / a.op_mean_us * 100.0
            );
        }
    }
    println!(
        "{:<14} {:>14.3} {:>10} {:>7.1}%",
        "unattributed",
        a.unattributed_us,
        "",
        a.unattributed_us / a.op_mean_us * 100.0
    );
    let sum: f64 = a.layer_self_us.iter().map(|(_, v)| v).sum::<f64>() + a.unattributed_us;
    println!("{:<14} {:>14.3}", "sum", sum);
    println!(
        "{:<14} {:>14.3}   (median {:.3})",
        "traced op mean", a.op_mean_us, a.op_median_us
    );
    let ok = a.reconcile_error_pct.abs() <= RECONCILE_TOLERANCE_PCT;
    println!(
        "reconcile: {:+.2}% (tolerance ±{RECONCILE_TOLERANCE_PCT}%): {}",
        a.reconcile_error_pct,
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

/// Prints the workload's attribution and reports it as metrics.
fn report_attribution(workload: Workload, a: &Attribution, report: &mut Report) {
    let op = match workload {
        Workload::Ingest => INGEST_OP,
        Workload::Read => "one authorize + export_full",
        Workload::Audit => "one audit_record",
        Workload::Serve => "one tick: 10 requests + drain",
    };
    let ok = print_attribution(&format!("workload `{}`", workload.name()), op, a);
    let mut spans = 1.0;
    for (&(layer, us), &(_, n)) in a.layer_self_us.iter().zip(&a.layer_spans) {
        report.set(&format!("{}.self_us", layer.name()), us);
        spans += n;
    }
    report.set("unattributed_us", a.unattributed_us);
    report.set("trace.op_mean_us", a.op_mean_us);
    report.set("trace.op_median_us", a.op_median_us);
    report.set("trace.reconcile_error_pct", a.reconcile_error_pct);
    report.set("trace.ops", a.ops as f64);
    report.set("trace.spans_per_op", spans);
    report.check(RECONCILES, ok);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ingest|read|audit|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let inputs = inputs::generate(args.workload, args.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    println!("{}", stamp(&args, &inputs, gen_s));

    let mut report = Report::default();
    let steal_before = stats::cpu_steal();
    if args.trace {
        traced(&args, &inputs, &mut report);
    } else {
        untraced(&args, &inputs, &mut report);
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal()) {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0
        );
    }
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for (name, ok) in &report.checks {
        println!("check {:<60} {}", name, if *ok { "ok" } else { "FAIL" });
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        println!("{:<40} {:>16.4} {}", name, report.get(name), unit);
    }
    if !args.trace {
        // Workload-specific outcomes; in the catalogue of the traced run.
        for name in [
            "failed_ratio",
            "storage.stored_bytes_per_input_byte",
            "serving.slo_goodput_ratio",
        ] {
            if name == "failed_ratio" || report.get(name) != 0.0 {
                println!("{:<40} {:>16.4} ratio", name, report.get(name));
            }
        }
    }
    println!("{}", report.json_line(catalogue));
    ExitCode::SUCCESS
}
