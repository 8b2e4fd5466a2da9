//! perfbench — end-to-end and per-layer benchmark of archline.
//!
//! ```text
//! perfbench --workload <repro_all|serve_mixed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics from spans recorded
//! around calls into each layer, and the spans are written to
//! `perfbench/out/spans-<workload>.jsonl`. See `perfbench/README.md`.

mod mix;
mod repro_all;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use stats::median;
use trace::Tracer;

/// Each workload with the fixed percentile it reports as
/// `latency_us_tail`: of [`PERCENTILES`], the highest with at least ten
/// samples beyond it in a run that repeats within a tenth across runs,
/// also on a host losing CPU time to its neighbours (see README.md).
const WORKLOADS: [(&str, u32); 2] = [("repro_all", 80), ("serve_mixed", 80)];

/// Per-layer metrics with their units, in output order. A workload that
/// never calls a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("repro.sweep_s", "s"),
    ("repro.artifacts_s", "s"),
    ("repro.scorecard_passed", "count"),
    ("microbench.suite_s", "s"),
    ("machine.measure_calls", "count"),
    ("machine.simulate_s", "s"),
    ("powermon.record_s", "s"),
    ("powermon.samples", "count"),
    ("fit.fit_s", "s"),
    ("fit.rejected_runs", "count"),
    ("par.busy_share", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.window_us_p50", "us"),
    ("serve.kernel_us_p50", "us"),
    ("serve.burst_window_us_p50", "us"),
    ("serve.batch_occupancy", "requests"),
    ("serve.window_holds_per_kq", "count"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("core.eval_ceiling_qps", "ops/s"),
    ("protocol.parse_us_p50", "us"),
    ("protocol.render_us_p50", "us"),
    ("tcp.pipelined_us_p50", "us"),
    ("tcp.ping_rtt_us_p50", "us"),
    ("tcp.bytes_per_query", "B"),
    ("trace.overhead_pct", "%"),
    ("repro.self_s", "s"),
    ("microbench.self_s", "s"),
    ("machine.self_s", "s"),
    ("powermon.self_s", "s"),
    ("fit.self_s", "s"),
    ("par.self_s", "s"),
    ("serve.self_s", "s"),
    ("core.self_s", "s"),
    ("protocol.self_s", "s"),
    ("tcp.self_s", "s"),
];

/// Latency percentiles every run prints, in percent; `latency_us_p50`
/// and `latency_us_tail` are two of them.
pub const PERCENTILES: [u32; 6] = [50, 75, 80, 90, 95, 99];

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency samples of the measured phase.
    pub samples: usize,
    /// The latency at each of [`PERCENTILES`], microseconds, as the
    /// workload estimates them.
    pub percentiles_us: Vec<f64>,
    pub throughput: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Per-layer metrics the workload measured.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    fn latency_at(&self, pct: u32) -> f64 {
        let i = PERCENTILES.iter().position(|&p| p == pct);
        i.map_or(f64::NAN, |i| self.percentiles_us[i])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only `repro_all`'s start-up in this process and print
    /// it (see `repro_all::startup_probe`).
    startup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0x41,
        seconds: 10.0,
        trace: false,
        startup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" | "--startup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.startup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if args.startup_probe && args.workload != "repro_all" {
        return Err("--startup-probe is for repro_all only".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The CPU's brand string from CPUID, without reading any file.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
                .flat_map(|leaf| {
                    let r = __cpuid(leaf);
                    [r.eax, r.ebx, r.ecx, r.edx]
                        .into_iter()
                        .flat_map(u32::to_le_bytes)
                })
                .collect();
            return String::from_utf8_lossy(&bytes)
                .trim_matches(['\0', ' '])
                .to_string();
        }
    }
    "unknown".to_string()
}

/// The commit checked out in the working directory, if it is a git
/// checkout; the search does not leave the working directory.
fn git_rev() -> String {
    let here_is_checkout = Path::new(".git").exists();
    here_is_checkout
        .then(archline_obs::git_revision)
        .flatten()
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::from(s)).expect("a string always serializes")
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    archline_par::set_num_threads(nproc)?;
    if args.startup_probe {
        return repro_all::startup_probe(args.seed, started);
    }
    let tracer = Tracer::new(args.trace);
    let host = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\
         \"par_threads\":{},\"serve_shards\":{nproc},\"clients\":{nproc},\"git_rev\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        archline_par::num_threads(),
        json_str(&git_rev()),
    );
    println!("host {host}");

    let report = match args.workload.as_str() {
        "repro_all" => repro_all::run(args.seed, args.seconds, &tracer),
        _ => serve::run(args.seed, args.seconds, nproc, &tracer),
    }?;

    let tail_pct = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or(0, |(_, p)| *p);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let answered = report.attempted - report.failed;
    let e2e = [
        ("setup_s", median(&report.setup_s), "s"),
        ("throughput", report.throughput, "ops/s"),
        ("latency_us_p50", report.latency_at(50), "us"),
        ("latency_us_tail", report.latency_at(tail_pct), "us"),
        (
            "success_rate",
            answered as f64 / report.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    println!(
        "latency samples {} · tail is p{tail_pct} · set-ups {}",
        report.samples,
        report.setup_s.len()
    );
    let table: Vec<String> = PERCENTILES
        .iter()
        .zip(&report.percentiles_us)
        .map(|(p, v)| format!("p{p} {v:.1}"))
        .collect();
    println!("latency_us percentiles: {}", table.join(" · "));
    if args.trace {
        let self_s = tracer.self_time_by_layer();
        for (name, unit) in PER_LAYER {
            let measured = report
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            let layer_self = name
                .strip_suffix(".self_s")
                .map(|l| self_s.get(l).copied().unwrap_or(0.0));
            metrics.push((
                name.to_string(),
                measured.or(layer_self).unwrap_or(0.0),
                unit,
            ));
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/spans-{}.jsonl", args.workload));
        tracer
            .write_jsonl(&path, &format!("{{\"host\":{host}}}"), 50_000)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    } else {
        metrics.extend(e2e.iter().map(|&(n, v, u)| (n.to_string(), v, u)));
        for (name, v) in &report.layers {
            println!("{name} = {v}");
        }
    }
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    if let Some(f) = &report.first_failure {
        println!("first failure: {f}");
    }
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} measured {v}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    match parse_args().and_then(|a| run(&a, started)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
