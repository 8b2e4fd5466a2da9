//! The `serve_mixed` workload drives an in-process [`ServeHandle`]; its
//! traced run adds a leg on a server behind `serve_tcp` on loopback. Both
//! are closed loops: each client sends a burst, waits for every answer,
//! checks them, then sends the next burst.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use archline_serve::protocol::parse_line;
use archline_serve::{
    tcp::serve_tcp, Phases, Response, ServeConfig, ServeHandle, ServeStats, Server, TraceId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mix::{self, Mix, Template};
use crate::stats::{drop_pct, median, windowed_quantile, windowed_rate};
use crate::trace::Tracer;
use crate::{Report, PERCENTILES};

/// Distinct requests per run; ops draw from these uniformly.
const POOL: usize = 512;
/// Set-ups per run; `setup_s` is their median. A set-up is cheap (a
/// server start, and for TCP a listener and one ping), so many keep the
/// median steady.
const SETUPS: usize = 51;
/// Time windows per measured phase: throughput and latency percentiles
/// are medians over windows, so a transient regime (a neighbour's load
/// on the host, a stretch where both clients' bursts line up) moves at
/// most a minority of them.
const WINDOWS: usize = 20;

#[derive(Clone, Copy)]
enum Front {
    /// `ServeHandle::submit`, 16 requests per burst.
    InProcess,
    /// NDJSON over loopback TCP, 8 lines per burst in one write.
    Tcp,
}

impl Front {
    fn depth(self) -> usize {
        match self {
            Front::InProcess => 16,
            Front::Tcp => 8,
        }
    }
    fn mix(self) -> Mix {
        match self {
            Front::InProcess => Mix::Mixed,
            Front::Tcp => Mix::SweepHeavy,
        }
    }
}

struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Listener {
    fn start(handle: ServeHandle) -> Result<Listener, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || serve_tcp(listener, handle, false, stop2));
        let l = Listener { addr, stop, thread };
        // Ready means a connection is accepted and answered: one ping.
        let mut conn = Conn::open(addr)?;
        conn.ping()?;
        Ok(l)
    }

    fn stop(self) -> Result<(), String> {
        // ordering: Release — pairs with the accept loop's Acquire load.
        self.stop.store(true, Ordering::Release);
        // The accept loop checks the flag when a connection arrives.
        let _ = TcpStream::connect(self.addr);
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("accept loop: {e}")),
            Err(_) => Err("accept loop panicked".to_string()),
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn ping(&mut self) -> Result<(), String> {
        self.writer
            .write_all(b"{\"op\":\"ping\"}\n")
            .map_err(|e| format!("write: {e}"))?;
        self.read_line()?;
        if self.line.contains("\"pong\"") {
            Ok(())
        } else {
            Err(format!("ping answered {}", self.line.trim_end()))
        }
    }
}

/// What a set-up starts: the server, and for TCP its listener.
struct Env {
    front: Front,
    server: Server,
    listener: Option<Listener>,
}

impl Env {
    /// Starts the server and returns once it is ready: in-process, once it
    /// has answered `first` with the reference's bits; over TCP, once its
    /// listener has answered a ping.
    fn set_up(front: Front, shards: usize, first: &Template) -> Result<Env, String> {
        let server = Server::start(ServeConfig {
            shards,
            ..ServeConfig::default()
        })?;
        let ready = match front {
            Front::InProcess => {
                let resp = server.handle().submit(first.req.clone()).wait();
                match &resp.result {
                    Ok(r) if mix::same_bits(r, &first.reference) => Ok(None),
                    other => Err(format!("first request {}: {other:?}", first.req.id)),
                }
            }
            Front::Tcp => Listener::start(server.handle()).map(Some),
        };
        match ready {
            Ok(listener) => Ok(Env {
                front,
                server,
                listener,
            }),
            Err(e) => {
                server.shutdown();
                Err(e)
            }
        }
    }

    fn tear_down(self) -> Result<(), String> {
        if let Some(l) = self.listener {
            l.stop()?;
        }
        self.server.shutdown();
        Ok(())
    }
}

/// What one measured phase saw, summed over its clients.
#[derive(Default)]
struct Load {
    lat_us: Vec<f64>,
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Phase breakdowns of a traced phase's answers, in burst order.
    phases: Vec<Phases>,
    bytes: u64,
}

impl Load {
    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Adds this load's operations and failures to `report`.
    fn count_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        if report.first_failure.is_none() {
            report.first_failure.clone_from(&self.first_failure);
        }
    }

    fn merge(&mut self, o: Load) {
        self.lat_us.extend(o.lat_us);
        self.done_s.extend(o.done_s);
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
        self.phases.extend(o.phases);
        self.bytes += o.bytes;
    }
}

fn client_rng(seed: u64, phase: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ (phase << 32) ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

fn in_process_client(
    handle: &ServeHandle,
    pool: &[Template],
    mut rng: StdRng,
    start: Instant,
    dur: Duration,
    tracer: &Tracer,
) -> Load {
    let depth = Front::InProcess.depth();
    let mut load = Load::default();
    let mut sent = Vec::with_capacity(depth);
    let mut answered = Vec::with_capacity(depth);
    while start.elapsed() < dur {
        let burst = tracer.open("serve.burst", None, 0);
        for _ in 0..depth {
            let t = &pool[rng.gen_range(0..pool.len())];
            let req = t.req.clone();
            let t0 = Instant::now();
            let ticket = handle.submit(req);
            sent.push((t, t0, Instant::now(), ticket));
        }
        for (t, t0, t1, ticket) in sent.drain(..) {
            let resp = ticket.wait();
            answered.push((t, t0, t1, resp, Instant::now()));
        }
        tracer.close(burst);
        // Checked once the whole burst is answered, outside every latency.
        for (t, t0, t1, resp, t2) in answered.drain(..) {
            load.lat_us.push((t2 - t0).as_secs_f64() * 1e6);
            load.done_s.push((t2 - start).as_secs_f64());
            load.check(match &resp.result {
                Ok(r) if mix::same_bits(r, &t.reference) => Ok(()),
                Ok(_) => Err(format!(
                    "request {} answered with other bits than the reference",
                    t.req.id
                )),
                Err(e) => Err(format!("request {}: {e}", t.req.id)),
            });
            if tracer.on() {
                tracer.record(
                    "serve.submit",
                    Some(burst),
                    resp.trace.map_or(0, |TraceId(x)| x),
                    t0,
                    t1,
                );
                load.phases.push(resp.phases.unwrap_or_default());
            }
        }
    }
    load
}

fn tcp_client(
    addr: SocketAddr,
    pool: &[Template],
    mut rng: StdRng,
    start: Instant,
    dur: Duration,
    tracer: &Tracer,
) -> Result<Load, String> {
    let depth = Front::Tcp.depth();
    let mut conn = Conn::open(addr)?;
    let mut load = Load::default();
    let mut text = String::new();
    let mut sent = Vec::with_capacity(depth);
    let mut answered: Vec<(String, Instant)> = Vec::with_capacity(depth);
    while start.elapsed() < dur {
        let burst = tracer.open("tcp.burst", None, 0);
        // The whole burst in one write, so every line is sent at t0.
        text.clear();
        for _ in 0..depth {
            let t = &pool[rng.gen_range(0..pool.len())];
            text.push_str(&t.line);
            text.push('\n');
            sent.push(t);
        }
        let t0 = Instant::now();
        conn.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        tracer.record("tcp.write", Some(burst), 0, t0, Instant::now());
        load.bytes += text.len() as u64;
        for _ in 0..depth {
            conn.read_line()?;
            answered.push((std::mem::take(&mut conn.line), Instant::now()));
        }
        tracer.close(burst);
        for (t, (line, t2)) in sent.drain(..).zip(answered.drain(..)) {
            load.bytes += line.len() as u64;
            load.lat_us.push((t2 - t0).as_secs_f64() * 1e6);
            load.done_s.push((t2 - start).as_secs_f64());
            let line = line.trim_end();
            load.check(match mix::result_field(line) {
                Some(text) if text == t.reference_text => Ok(()),
                Some(_) => Err(format!(
                    "request {} answered with other bytes than the reference",
                    t.req.id
                )),
                None => Err(format!("request {}: {line}", t.req.id)),
            });
            if tracer.on() {
                let field = |k| mix::phase_us(line, k).unwrap_or(0);
                load.phases.push(Phases {
                    queue_us: field("queue"),
                    window_us: field("window"),
                    kernel_us: field("kernel"),
                    total_us: field("total"),
                });
            }
        }
    }
    Ok(load)
}

/// Runs `clients` closed-loop clients for `dur`, drawing from `pool`.
fn drive(
    env: &Env,
    pool: &[Template],
    clients: usize,
    seed: u64,
    phase: u64,
    dur: Duration,
    tracer: &Tracer,
) -> Result<Load, String> {
    let handle = env.server.handle();
    let start = Instant::now();
    let loads: Vec<Result<Load, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let rng = client_rng(seed, phase, c);
                let handle = &handle;
                let addr = env.listener.as_ref().map(|l| l.addr);
                s.spawn(move || match (env.front, addr) {
                    (Front::Tcp, Some(addr)) => tcp_client(addr, pool, rng, start, dur, tracer),
                    _ => Ok(in_process_client(handle, pool, rng, start, dur, tracer)),
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut total = Load::default();
    for l in loads {
        total.merge(l?);
    }
    Ok(total)
}

/// The per-engine counters a phase moves.
#[derive(Clone, Copy)]
struct Counts {
    batches: u64,
    batched: u64,
    holds: u64,
    completed: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    failed: u64,
}

impl Counts {
    fn read(s: &ServeStats) -> Counts {
        // ordering: Relaxed — read after the phase's clients joined, so
        // every counted request has been answered.
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            batches: l(&s.batches),
            batched: l(&s.batched_requests),
            holds: l(&s.window_holds),
            completed: l(&s.completed),
            hits: l(&s.plan_cache_hits),
            misses: l(&s.plan_cache_misses),
            shed: l(&s.shed),
            failed: l(&s.failed),
        }
    }

    fn since(self, b: Counts) -> Counts {
        Counts {
            batches: self.batches - b.batches,
            batched: self.batched - b.batched,
            holds: self.holds - b.holds,
            completed: self.completed - b.completed,
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            shed: self.shed - b.shed,
            failed: self.failed - b.failed,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn run(seed: u64, seconds: f64, nproc: usize, tracer: &Tracer) -> Result<Report, String> {
    let front = Front::InProcess;
    // The requests and their reference answers are the benchmark's own
    // work, made once and outside the timed set-ups.
    let pool = mix::generate(front.mix(), seed, POOL)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            Env::tear_down(old)?;
        }
        let t0 = Instant::now();
        env = Some(Env::set_up(front, nproc, &pool[0])?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let env = env.expect("SETUPS > 0");

    // A traced run measures the same load untraced first, for the
    // tracing overhead, then traced, then the TCP leg.
    let measured = if tracer.on() { seconds / 2.0 } else { seconds };
    let dur = Duration::from_secs_f64(measured);
    let off = Tracer::new(false);
    let main = drive(&env, &pool, nproc, seed, 0, dur, &off)?;
    let mut report = Report {
        setup_s,
        samples: main.lat_us.len(),
        throughput: windowed_rate(&main.done_s, measured, WINDOWS),
        percentiles_us: PERCENTILES
            .iter()
            .map(|&p| {
                let q = f64::from(p) / 100.0;
                windowed_quantile(&main.lat_us, &main.done_s, measured, WINDOWS, q)
            })
            .collect(),
        ..Report::default()
    };
    main.count_into(&mut report);
    if tracer.on() {
        let before = Counts::read(env.server.handle().stats());
        let traced = drive(&env, &pool, nproc, seed, 1, dur, tracer)?;
        let c = Counts::read(env.server.handle().stats()).since(before);
        traced.count_into(&mut report);
        let traced_rate = windowed_rate(&traced.done_s, measured, WINDOWS);
        // A pipelining client waits for its whole burst, so the longest
        // hold among a burst's answers is the one its latency shows.
        let burst_windows: Vec<f64> = traced
            .phases
            .chunks(front.depth())
            .map(|b| b.iter().map(|p| p.window_us).max().unwrap_or(0) as f64)
            .collect();
        let phase = |f: fn(&Phases) -> u64| {
            median(
                &traced
                    .phases
                    .iter()
                    .map(|p| f(p) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        report.layers = vec![
            (
                "serve.submit_us_p50",
                1e6 * median(&tracer.durations("serve.submit")),
            ),
            ("serve.queue_us_p50", phase(|p| p.queue_us)),
            ("serve.window_us_p50", phase(|p| p.window_us)),
            ("serve.kernel_us_p50", phase(|p| p.kernel_us)),
            ("serve.burst_window_us_p50", median(&burst_windows)),
            ("serve.batch_occupancy", ratio(c.batched, c.batches)),
            (
                "serve.window_holds_per_kq",
                1000.0 * ratio(c.holds, c.completed),
            ),
            (
                "serve.plan_cache_hit_rate",
                ratio(c.hits, c.hits + c.misses),
            ),
            ("serve.shed", c.shed as f64),
            ("serve.failed", c.failed as f64),
            (
                "trace.overhead_pct",
                drop_pct(report.throughput, traced_rate),
            ),
            (
                "core.eval_ceiling_qps",
                eval_ceiling(&pool, seed, seconds, tracer),
            ),
        ];
        tcp_leg(seed, measured / 2.0, nproc, tracer, &mut report)?;
    }
    env.tear_down()?;
    Ok(report)
}

/// The traced run's TCP leg: a server of its own behind `serve_tcp` on
/// loopback, nproc connections each pipelining bursts of 8 sweep-heavy
/// NDJSON lines (~70% sweeps of 256–2048 points) in one write, for
/// `seconds`. Its answers are checked like the in-process ones. It gives
/// the protocol and transport layers, and the pipelined answers' latency
/// next to the round trip of a bare ping: the server never sets
/// `TCP_NODELAY`, so its answers are paced by the client's ACKs.
fn tcp_leg(
    seed: u64,
    seconds: f64,
    nproc: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let front = Front::Tcp;
    let pool = mix::generate(front.mix(), seed, POOL)?;
    let env = Env::set_up(front, nproc, &pool[0])?;
    let dur = Duration::from_secs_f64(seconds);
    let load = drive(&env, &pool, nproc, seed, 4, dur, tracer)?;
    load.count_into(report);
    let answered = load.attempted - load.failed;
    report.layers.push((
        "tcp.pipelined_us_p50",
        windowed_quantile(&load.lat_us, &load.done_s, seconds, WINDOWS, 0.5),
    ));
    report
        .layers
        .push(("tcp.bytes_per_query", ratio(load.bytes, answered)));
    let addr = env.listener.as_ref().map(|l| l.addr);
    let addr = addr.ok_or("the TCP leg has no listener")?;
    report
        .layers
        .extend(protocol_and_transport(&pool, addr, seed, tracer)?);
    env.tear_down()
}

/// The workload's mix evaluated straight through the core kernels on one
/// thread: the ceiling for the engine's throughput on it.
fn eval_ceiling(pool: &[Template], seed: u64, seconds: f64, tracer: &Tracer) -> f64 {
    let mut rng = client_rng(seed, 2, 0);
    let budget = Duration::from_secs_f64((seconds * 0.1).clamp(0.1, 1.0));
    let span = tracer.open("core.ceiling", None, 0);
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..64 {
            std::hint::black_box(pool[rng.gen_range(0..pool.len())].evaluate());
        }
        n += 64;
    }
    let qps = n as f64 / t0.elapsed().as_secs_f64();
    tracer.close(span);
    qps
}

/// Request parsing and response rendering on the workload's own lines,
/// and the ping round trip: the wire without the engine.
fn protocol_and_transport(
    pool: &[Template],
    addr: SocketAddr,
    seed: u64,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    const CALLS: usize = 2000;
    let mut rng = client_rng(seed, 3, 0);
    for _ in 0..CALLS {
        let t = &pool[rng.gen_range(0..pool.len())];
        let parsed = tracer.time("protocol.parse", None, 0, || parse_line(&t.line));
        parsed.map_err(|e| format!("parse_line: {e}"))?;
        let mut resp =
            Response::new(t.req.id, Ok(t.reference.clone())).with_trace(Some(TraceId(1)));
        resp.phases = Some(Phases::default());
        std::hint::black_box(tracer.time("protocol.render", None, 0, || resp.to_json_line()));
    }
    let mut conn = Conn::open(addr)?;
    for _ in 0..CALLS {
        tracer.time("tcp.ping", None, 0, || conn.ping())?;
    }
    let p50 = |name| 1e6 * median(&tracer.durations(name));
    Ok(vec![
        ("protocol.parse_us_p50", p50("protocol.parse")),
        ("protocol.render_us_p50", p50("protocol.render")),
        ("tcp.ping_rtt_us_p50", p50("tcp.ping")),
    ])
}
