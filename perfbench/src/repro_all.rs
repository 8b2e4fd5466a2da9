//! The `repro_all` workload: what `repro all` costs a user. One caller in
//! a closed loop; each op builds a fresh `AnalysisContext` and runs all
//! 15 artifacts against it.
//!
//! The traced run also replays the pipeline's layers from here — the
//! per-platform suite and fit under `parallel_map`, and one platform's
//! DRAM grid through the simulator and PowerMon — so each layer is timed
//! around its own public call, and checks the replay against the op.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::Command;
use std::time::{Duration, Instant};

use archline_core::power::sample_intensities;
use archline_fit::{try_fit_platform, FitOptions};
use archline_machine::{spec_for, Engine, SpecPlan};
use archline_microbench::{run_suite, SweepConfig};
use archline_par::{num_threads, parallel_map};
use archline_platforms::Precision;
use archline_powermon::PowerMon2;
use archline_repro::{
    platforms_by_peak_efficiency, run_artifact, scorecard, AnalysisContext, ARTIFACTS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{blocked_quantile, blocked_rate, drop_pct, median};
use crate::trace::{SpanId, Tracer};
use crate::{Report, PERCENTILES};

/// Fresh processes whose start-up is timed; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per throughput block.
const BLOCK: usize = 5;
/// Ops per latency window: each percentile is the median over windows of
/// this many consecutive ops of the window's percentile, as the serve
/// workload takes them over time windows, so a stretch of a few seconds
/// in which the host runs a neighbour's load moves a minority of them.
const WINDOW: usize = 10;

/// One op: fresh context, all artifacts. Returns the concatenated artifact
/// JSON, or why the op failed.
fn op(
    cfg: &SweepConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
    trace: u64,
) -> Result<(String, AnalysisContext), String> {
    let ctx = AnalysisContext::new(*cfg);
    tracer.time("repro.sweep", parent, trace, || ctx.analyses().len());
    let artifacts = tracer.time(
        "repro.artifacts",
        parent,
        trace,
        || -> Result<String, String> {
            let mut json = String::new();
            for name in ARTIFACTS {
                let (_, j) = run_artifact(name, &ctx, false).map_err(|e| format!("{name}: {e}"))?;
                json.push_str(&j);
            }
            Ok(json)
        },
    )?;
    if !ctx.failures().is_empty() {
        return Err(format!("degraded platforms: {:?}", ctx.failures()));
    }
    Ok((artifacts, ctx))
}

fn digest(json: &str) -> u64 {
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    h.finish()
}

fn config(seed: u64) -> SweepConfig {
    SweepConfig {
        base_seed: seed,
        ..SweepConfig::default()
    }
}

/// The start-up a user of `repro all` waits through, in this fresh
/// process: from `main` to the end of the first op, which also starts the
/// `par` executor. Prints it and the digest of the op's artifact JSON.
pub fn startup_probe(seed: u64, started: Instant) -> Result<(), String> {
    let (json, _) = op(&config(seed), &Tracer::new(false), None, 0)?;
    println!(
        "startup_s {} {:016x}",
        started.elapsed().as_secs_f64(),
        digest(&json)
    );
    Ok(())
}

/// Runs [`startup_probe`] in a child process of this program and checks
/// its op gave `reference`.
fn time_startup(seed: u64, reference: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", "repro_all", "--seed", &seed])
        .args(["--startup-probe", "1"])
        .output()
        .map_err(|e| format!("start-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let fields: Vec<&str> = line.split(' ').collect();
    match fields[..] {
        ["startup_s", secs, hash] if out.status.success() => {
            if hash != format!("{:016x}", digest(reference)) {
                return Err("start-up probe's op differs from the run's first op".into());
            }
            secs.parse()
                .map_err(|e| format!("start-up probe printed {line}: {e}"))
        }
        _ => Err(format!(
            "start-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn machine_runs() -> u64 {
    archline_obs::metrics::snapshot()
        .counter("machine.runs")
        .unwrap_or(0)
}

/// Replays the op's measure-and-fit layers from outside the pipeline and
/// checks they give what the op's context holds.
fn replay(
    cfg: &SweepConfig,
    ctx: &AnalysisContext,
    tracer: &Tracer,
    trace: u64,
) -> Result<(f64, u64), String> {
    let root = tracer.open("repro.replay", None, trace);
    let platforms = platforms_by_peak_efficiency();
    let engine = Engine::default();
    let map = tracer.open("par.map", Some(root), trace);
    let t_map = Instant::now();
    let fits = parallel_map(&platforms, |p| {
        let t = Instant::now();
        let task = tracer.open("par.task", Some(map), trace);
        let spec = spec_for(p, Precision::Single);
        let suite = tracer.time("microbench.suite", Some(task), trace, || {
            run_suite(&spec, cfg, &engine)
        });
        let fit = tracer.time("fit.fit", Some(task), trace, || {
            try_fit_platform(&suite.dram, &FitOptions::default())
        });
        tracer.close(task);
        (fit, t.elapsed().as_secs_f64())
    });
    let wall = t_map.elapsed().as_secs_f64();
    tracer.close(map);
    let busy: f64 = fits.iter().map(|(_, b)| b).sum();
    for ((fit, _), a) in fits.iter().zip(ctx.analyses()) {
        if fit.as_ref().ok() != Some(&a.fit) {
            return Err(format!(
                "replayed fit of {} differs from the pipeline's",
                a.platform.name
            ));
        }
    }

    // One platform's DRAM grid, run by run, with the seeds run_suite uses.
    let a = &ctx.analyses()[0];
    let spec = &a.spec;
    let plan = SpecPlan::new(spec);
    let device = PowerMon2::for_rails(
        &spec.rail_split,
        1.4 * (spec.const_power + spec.usable_power),
    );
    let hz = device.effective_channel_hz();
    let grid = tracer.open("machine.grid", Some(root), trace);
    let mut samples = 0u64;
    for (seq, &i) in sample_intensities(cfg.intensity_lo, cfg.intensity_hi, cfg.points)
        .iter()
        .enumerate()
    {
        let w = spec.intensity_workload(i, cfg.target_secs);
        let mut rng = StdRng::seed_from_u64(cfg.base_seed.wrapping_add(seq as u64));
        let exec = tracer.time("machine.simulate", Some(grid), trace, || {
            engine.run_planned(&plan, &w, &mut rng)
        });
        let m = tracer.time("powermon.record", Some(grid), trace, || {
            device.record(
                &spec.rail_split,
                |t| exec.profile.power_at(t),
                exec.duration,
                &mut rng,
            )
        });
        // Computed, not counted: what PowerMon2::record takes per run.
        samples += ((exec.duration * hz).floor() as u64).max(1) * device.channel_count() as u64;
        if a.suite.dram.runs.get(seq).map(|r| r.energy.to_bits()) != Some(m.energy().to_bits()) {
            return Err(format!(
                "replayed run {seq} of {} differs from the pipeline's",
                a.platform.name
            ));
        }
    }
    tracer.close(grid);
    tracer.close(root);
    Ok((busy / (wall * num_threads() as f64), samples))
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    let cfg = config(seed);
    let off = Tracer::new(false);
    // The first op, untimed, gives the reference every later op must
    // reproduce byte for byte, and every start-up probe by digest.
    let (reference, _) = op(&cfg, &off, None, 0)?;
    let setup_s = (0..SETUPS)
        .map(|_| time_startup(seed, &reference))
        .collect::<Result<Vec<f64>, String>>()?;

    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let mut last_ctx = None;
    let mut check = |report: &mut Report, out: Result<(String, AnalysisContext), String>| {
        report.attempted += 1;
        let err = match out {
            Ok((json, ctx)) => {
                last_ctx = Some(ctx);
                (json != reference)
                    .then(|| "artifact JSON differs from the run's first op".to_string())
            }
            Err(e) => Some(e),
        };
        if let Some(e) = err {
            report.failed += 1;
            report.first_failure.get_or_insert(e);
        }
    };

    // A traced run measures untraced ops first, for the tracing overhead,
    // then traced ops, each followed by its untimed replay.
    let measured = Duration::from_secs_f64(if tracer.on() { seconds / 2.0 } else { seconds });
    let mut durations = Vec::new();
    let t_phase = Instant::now();
    while t_phase.elapsed() < measured {
        let t0 = Instant::now();
        let out = op(&cfg, &off, None, 0);
        durations.push(t0.elapsed().as_secs_f64());
        check(&mut report, out);
    }
    report.throughput = blocked_rate(&durations, BLOCK);
    report.samples = durations.len();
    report.percentiles_us = PERCENTILES
        .iter()
        .map(|&p| 1e6 * blocked_quantile(&durations, WINDOW, f64::from(p) / 100.0))
        .collect();

    if tracer.on() {
        let (mut traced, mut calls, mut rejected, mut busy, mut samples) =
            (vec![], vec![], vec![], vec![], 0);
        let t_phase = Instant::now();
        let mut trace = 0;
        while t_phase.elapsed() < measured {
            trace += 1;
            let runs0 = machine_runs();
            let span = tracer.open("repro.op", None, trace);
            let t0 = Instant::now();
            let out = op(&cfg, tracer, Some(span), trace);
            traced.push(t0.elapsed().as_secs_f64());
            tracer.close(span);
            calls.push((machine_runs() - runs0) as f64);
            if let Ok((_, ctx)) = &out {
                rejected.push(
                    ctx.analyses()
                        .iter()
                        .map(|a| a.fit.capped_diag.rejected_runs as f64)
                        .sum(),
                );
                let (share, n) = replay(&cfg, ctx, tracer, trace)?;
                busy.push(share);
                samples = n;
            }
            check(&mut report, out);
        }
        let traced_rate = blocked_rate(&traced, BLOCK);
        let per_op = |name| median(&tracer.sums_per_trace(name));
        report.layers = vec![
            ("repro.sweep_s", median(&tracer.durations("repro.sweep"))),
            (
                "repro.artifacts_s",
                median(&tracer.durations("repro.artifacts")),
            ),
            ("microbench.suite_s", per_op("microbench.suite")),
            ("machine.measure_calls", median(&calls)),
            ("machine.simulate_s", per_op("machine.simulate")),
            ("powermon.record_s", per_op("powermon.record")),
            ("powermon.samples", samples as f64),
            ("fit.fit_s", per_op("fit.fit")),
            ("fit.rejected_runs", median(&rejected)),
            ("par.busy_share", median(&busy)),
            (
                "trace.overhead_pct",
                drop_pct(report.throughput, traced_rate),
            ),
        ];
    }
    // Reported as a count, not checked: the K-S claim passes or not
    // depending on the seed.
    if let Some(ctx) = last_ctx {
        report.layers.push((
            "repro.scorecard_passed",
            scorecard::compute_with(&ctx).passed() as f64,
        ));
    }
    Ok(report)
}
