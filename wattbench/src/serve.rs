//! `serve-mixed`: the live `routed` daemon under an open-loop client.
//!
//! The daemon (`wattroute_bench::daemon::serve`) replays the nine-cluster
//! trace with a paced tick writer while one connection sends `route?` at a
//! fixed rate and a second sends `stats` and `metrics` beside it. `stats`
//! rebuilds the engine report over the whole load series, which grows with
//! uptime, under the same lock `route?` and the tick writer take: this is
//! the workload that measures the lock, the wire and the growth of live
//! state.
//!
//! The load generator is one process with two threads and two persistent
//! connections: a sender that writes every request at its due time, and a
//! reader that waits on both sockets and timestamps each reply. Latency is
//! measured from the due time, so a stall also counts against the requests
//! queued behind it, and the sender's own lateness is reported.
//!
//! Timeline: a warm-up, then cycles of a fixed-rate segment (`route?` at
//! [`ROUTE_RATE`]) followed by a saturation segment (`route?` closed-loop
//! with [`WINDOW`] requests outstanding), then, in the traced run only, a
//! rate ladder. `stats` and `metrics` run open-loop at [`SIDE_RATE`] each
//! throughout. Each cycle yields one latency median and one saturated
//! rate; the run reports the median over cycles, so a transient stall on
//! the host moves one cycle, not the result. The trace is sized so the
//! writer ticks until the end.

use crate::measure::{median, peak_rss_mb, quantile, Outcome, SetupTimes};
use crate::setup_layer_metrics;
use crate::timed::{RoutingSink, TimedPolicy};
use crate::trace::Tracer;
use crate::{engine_probe, hierarchy_probe, montecarlo_probe, price_conscious, routing_metrics};
use crate::{RunArgs, OUT_DIR, SETUP_REPEATS};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wattroute::json::JsonValue;
use wattroute::prelude::*;
use wattroute_bench::daemon::{serve, DaemonOptions, DEFAULT_MAX_CONNECTIONS};

/// Wall-clock pause per 5-minute step of the tick writer.
const STEP_WAIT: Duration = Duration::from_millis(2);
/// `route?` requests per second in the fixed-rate phase.
const ROUTE_RATE: f64 = 2000.0;
/// `stats` requests per second, and as many `metrics`.
const SIDE_RATE: f64 = 50.0;
/// Outstanding `route?` requests in the saturation phase.
const WINDOW: usize = 8;
/// Warm-up before the fixed-rate phase, seconds.
const WARMUP_S: f64 = 0.5;
/// Target length of one fixed-rate + saturation cycle, seconds.
const CYCLE_S: f64 = 2.5;
/// Share of a cycle spent at the fixed rate.
const FIXED_SHARE: f64 = 0.75;
/// Traced-run rate ladder, requests per second.
const LADDER: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
/// Seconds per ladder rung.
const RUNG_S: f64 = 0.8;
/// Latency limit a ladder rung's `route?` p99 must meet, ms.
const LIMIT_MS: f64 = 10.0;
/// Slack after the last phase before the trace may end, seconds.
const TRACE_MARGIN_S: f64 = 1.0;
/// Load length of a daemon probe on another workload's deployment, seconds.
const PROBE_S: f64 = 1.0;
/// `route?` rate of a daemon probe: low enough that a daemon serving a
/// 1000-site deployment keeps up.
const PROBE_ROUTE_RATE: f64 = 200.0;
/// How long the reader waits for outstanding replies after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Route,
    Stats,
    Metrics,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Fixed(usize),
    Saturate(usize),
    Rung(usize),
}

/// A request on the wire, waiting for its reply.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    verb: Verb,
    phase: Phase,
    due: Instant,
    sent: Instant,
}

/// A request and its reply.
#[derive(Debug, Clone, Copy)]
struct Sample {
    request: Pending,
    done: Instant,
    ok: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.request.due).as_secs_f64() * 1e3
    }
}

/// One persistent connection: the writing half and its FIFO of requests
/// awaiting replies (the daemon answers each connection in order).
struct Conn {
    writer: Mutex<UnixStream>,
    pending: Mutex<VecDeque<Pending>>,
    replied: Condvar,
}

impl Conn {
    fn send(&self, line: &[u8], request: Pending) -> std::io::Result<()> {
        self.pending.lock().expect("pending queue poisoned").push_back(request);
        self.writer.lock().expect("writer poisoned").write_all(line)
    }

    fn outstanding(&self) -> usize {
        self.pending.lock().expect("pending queue poisoned").len()
    }
}

/// The phase schedule, as offsets from the start of the load.
struct Schedule {
    phases: Vec<(Phase, f64, f64)>,
    cycles: usize,
    /// Open-loop `route?` rate outside the ladder, requests per second.
    route_rate: f64,
}

impl Schedule {
    fn new(seconds: f64, traced: bool) -> Self {
        let cycles = ((seconds / CYCLE_S).round() as usize).max(1);
        let cycle_s = seconds / cycles as f64;
        let mut phases = vec![(Phase::Warmup, 0.0, WARMUP_S)];
        for k in 0..cycles {
            let start = WARMUP_S + k as f64 * cycle_s;
            let switch = start + FIXED_SHARE * cycle_s;
            phases.push((Phase::Fixed(k), start, switch));
            phases.push((Phase::Saturate(k), switch, start + cycle_s));
        }
        if traced {
            for rung in 0..LADDER.len() {
                let start = WARMUP_S + seconds + rung as f64 * RUNG_S;
                phases.push((Phase::Rung(rung), start, start + RUNG_S));
            }
        }
        Self { phases, cycles, route_rate: ROUTE_RATE }
    }

    /// Trace hours the tick writer needs to keep ticking until the load
    /// has ended.
    fn trace_hours(&self) -> u64 {
        ((self.end() + TRACE_MARGIN_S) / STEP_WAIT.as_secs_f64() / 12.0).ceil() as u64
    }

    fn end(&self) -> f64 {
        self.phases.last().expect("at least one phase").2
    }

    fn at(&self, offset: f64) -> Option<Phase> {
        self.phases.iter().find(|(_, s, e)| offset >= *s && offset < *e).map(|p| p.0)
    }

    fn window(&self, phase: Phase) -> (f64, f64) {
        self.phases.iter().find(|p| p.0 == phase).map(|p| (p.1, p.2)).expect("phase scheduled")
    }
}

/// The nine-cluster scenario over `hours` from the daemon's start date.
pub(crate) fn build_scenario(seed: u64, hours: u64) -> (Scenario, HourRange) {
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(hours));
    (Scenario::custom_window(seed, range), range)
}

fn connect(path: &Path) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serve `scenario` from a daemon on its own thread while driving
/// `schedule` against it; the daemon's policy is timed into `sink` when one
/// is given. Checks every reply and the flushed final report, and returns
/// what the reader saw.
fn session(
    out: &mut Outcome,
    scenario: &Scenario,
    schedule: &Schedule,
    seed: u64,
    sink: Option<&RoutingSink>,
) -> Load {
    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    let socket = PathBuf::from(OUT_DIR).join(format!("routed-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let options = DaemonOptions {
        socket_path: socket.clone(),
        step_wait: STEP_WAIT,
        // The daemon flushes its report and exits when the trace ends; the
        // trace outlasts the load because every step waits at least
        // STEP_WAIT.
        linger: false,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    };
    let (load, report) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            let mut policy: Box<dyn RoutingPolicy> = match sink {
                Some(sink) => Box::new(TimedPolicy::new(price_conscious(), sink)),
                None => price_conscious(),
            };
            serve(scenario, policy.as_mut(), &options)
        });
        let (load, sent) = drive(&socket, scenario, schedule, seed);
        let report = daemon.join().expect("daemon thread panicked");
        (load, report.map_err(|e| e.to_string()).and_then(|r| sent.map(|()| r)))
    });

    for s in &load.samples {
        out.check(s.ok, "daemon reply is \"ok\": true");
    }
    out.count(
        load.saturated.iter().sum(),
        load.saturated_failed,
        "saturation replies are \"ok\": true",
    );
    match report {
        Ok(report) => {
            let batch = scenario.execute(price_conscious().as_mut(), RunOptions::new());
            out.check(report == batch, "daemon final report equals Scenario::execute");
        }
        Err(e) => out.check(false, &format!("daemon run: {e}")),
    }
    load
}

/// `route?` latencies, ms, of the samples whose phase passes `keep`.
fn route_ms(samples: &[Sample], keep: impl Fn(Phase) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.request.verb == Verb::Route && keep(s.request.phase))
        .map(Sample::latency_ms)
        .collect()
}

/// The daemon layer's metrics from one session.
fn daemon_metrics(out: &mut Outcome, load: &Load) {
    let Load { samples, lags, .. } = load;
    let us = |xs: &[f64], q: f64| if xs.is_empty() { 0.0 } else { quantile(xs, q) * 1e3 };
    let fixed = route_ms(samples, |p| matches!(p, Phase::Fixed(_)));
    out.set("daemon.route_us_p50", us(&fixed, 0.5));
    out.set("daemon.route_us_p99", us(&fixed, 0.99));
    for (verb, p50, p99) in [
        (Verb::Stats, "daemon.stats_us_p50", "daemon.stats_us_p99"),
        (Verb::Metrics, "daemon.metrics_us_p50", "daemon.metrics_us_p99"),
    ] {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|s| s.request.verb == verb && s.request.phase != Phase::Warmup)
            .map(Sample::latency_ms)
            .collect();
        out.set(p50, us(&xs, 0.5));
        out.set(p99, us(&xs, 0.99));
    }
    let late: Vec<f64> = samples
        .iter()
        .filter(|s| s.request.phase != Phase::Warmup)
        .map(|s| s.request.sent.duration_since(s.request.due).as_secs_f64() * 1e3)
        .collect();
    out.set("daemon.gen_late_ms_p99", if late.is_empty() { 0.0 } else { quantile(&late, 0.99) });
    out.set("daemon.tick_lag_steps", lags.iter().copied().fold(0.0, f64::max));
    out.set("daemon.ladder_max_rps", ladder_max(samples));
}

/// Run the workload, filling `out`.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let schedule = Schedule::new(args.seconds, args.traced);
    let hours = schedule.trace_hours();
    // Half the set-ups before the load and half after, so their median
    // spans the run.
    let mut setups = SetupTimes::default();
    let (scenario, range) = setups.time(|| build_scenario(args.seed, hours));
    while setups.fewer_than(SETUP_REPEATS / 2) {
        setups.time(|| build_scenario(args.seed, hours));
    }
    let sink = RoutingSink::default();
    let load = session(out, &scenario, &schedule, args.seed, args.traced.then_some(&sink));
    while setups.fewer_than(SETUP_REPEATS) {
        setups.time(|| build_scenario(args.seed, hours));
    }

    let cycle_p50: Vec<f64> = (0..schedule.cycles)
        .map(|k| route_ms(&load.samples, |p| p == Phase::Fixed(k)))
        .filter(|xs| !xs.is_empty())
        .map(|xs| quantile(&xs, 0.5))
        .collect();
    let cycle_rate: Vec<f64> = load
        .saturated
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let (start, end) = schedule.window(Phase::Saturate(k));
            n as f64 / (end - start)
        })
        .collect();
    if cycle_p50.is_empty() {
        out.check(false, "fixed-rate segments have samples");
        return;
    }
    let saturated = median(&cycle_rate);
    if !args.traced {
        out.set("setup_s", setups.median());
        out.set("throughput", saturated);
        out.set("latency_p50_ms", median(&cycle_p50));
        out.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    out.set("traced.throughput", saturated);
    routing_metrics(out, &sink.take(), 1.0);
    daemon_metrics(out, &load);
    let tracer = Arc::new(Tracer::default());
    record_spans(&tracer, &load.samples, &schedule);
    engine_probe(out, &scenario, range, &tracer);
    hierarchy_probe(out, &scenario, &tracer);
    montecarlo_probe(out, &scenario, args);
    setup_layer_metrics(out, args.seed, range);
    crate::write_trace(&tracer, "serve-mixed", args.seed);
}

/// The daemon layer probed on another workload's deployment: a short
/// session of [`PROBE_S`] seconds (one cycle at [`PROBE_ROUTE_RATE`], no
/// ladder) serving `make_scenario(hours)`. Its tails rest on few samples.
pub(crate) fn probe(out: &mut Outcome, seed: u64, make_scenario: impl FnOnce(u64) -> Scenario) {
    let schedule = Schedule { route_rate: PROBE_ROUTE_RATE, ..Schedule::new(PROBE_S, false) };
    let scenario = make_scenario(schedule.trace_hours());
    let load = session(out, &scenario, &schedule, seed, None);
    daemon_metrics(out, &load);
}

/// The highest ladder rung whose `route?` p99 meets [`LIMIT_MS`] without a
/// growing backlog (the last quarter's median latency at most twice the
/// first quarter's plus 1 ms); 0 when the first rung already fails.
fn ladder_max(samples: &[Sample]) -> f64 {
    let mut best = 0.0;
    for (rung, rate) in LADDER.iter().enumerate() {
        let mut xs: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.request.verb == Verb::Route && s.request.phase == Phase::Rung(rung))
            .collect();
        xs.sort_by_key(|s| s.request.due);
        let lat: Vec<f64> = xs.iter().map(|s| s.latency_ms()).collect();
        if lat.len() < 8 || xs.iter().any(|s| !s.ok) {
            break;
        }
        let quarter = lat.len() / 4;
        let (first, last) =
            (quantile(&lat[..quarter], 0.5), quantile(&lat[lat.len() - quarter..], 0.5));
        let p99 = quantile(&lat, 0.99);
        eprintln!(
            "wattbench: rung {rate} req/s: p99 {p99:.3} ms, median first/last quarter {first:.3}/{last:.3} ms"
        );
        if p99 > LIMIT_MS || last > 2.0 * first + 1.0 {
            break;
        }
        best = *rate;
    }
    best
}

/// One span per phase, and under it one span per request, from its due
/// time to its reply, carrying the request id.
fn record_spans(tracer: &Tracer, samples: &[Sample], schedule: &Schedule) {
    let Some(origin) = samples.iter().map(|s| s.request.due).min() else { return };
    let at = |offset: f64| origin + Duration::from_secs_f64(offset);
    let ids: Vec<(Phase, usize)> = schedule
        .phases
        .iter()
        .map(|&(phase, s, e)| (phase, tracer.record("serve.phase", at(s), at(e), None, None)))
        .collect();
    for s in samples {
        let parent = ids.iter().find(|(p, _)| *p == s.request.phase).map(|(_, id)| *id);
        let name = match s.request.verb {
            Verb::Route => "daemon.route",
            Verb::Stats => "daemon.stats",
            Verb::Metrics => "daemon.metrics",
        };
        tracer.record(name, s.request.due, s.done, parent, Some(s.request.id));
    }
}

/// What the reader saw. Saturation replies are counted per cycle, not
/// kept: they are many, and closed-loop requests have no due time.
#[derive(Debug, Default)]
struct Load {
    /// Every open-loop request and its reply.
    samples: Vec<Sample>,
    /// The tick writer's lag behind its pace, in steps, at each `stats`.
    lags: Vec<f64>,
    /// Replies per saturation segment.
    saturated: Vec<u64>,
    /// Saturation replies that were not `ok` or never came.
    saturated_failed: u64,
}

impl Load {
    fn record(&mut self, sample: Sample) {
        match sample.request.phase {
            Phase::Saturate(k) => {
                self.saturated[k] += 1;
                self.saturated_failed += u64::from(!sample.ok);
            }
            _ => self.samples.push(sample),
        }
    }
}

/// Drive the schedule against the daemon at `socket`. Returns what the
/// reader saw and whether the connections held up.
fn drive(
    socket: &Path,
    scenario: &Scenario,
    schedule: &Schedule,
    seed: u64,
) -> (Load, Result<(), String>) {
    let open = || -> std::io::Result<(Conn, UnixStream)> {
        let stream = connect(socket)?;
        let reader = stream.try_clone()?;
        Ok((
            Conn {
                writer: Mutex::new(stream),
                pending: Mutex::new(VecDeque::new()),
                replied: Condvar::new(),
            },
            reader,
        ))
    };
    let ((route, route_rx), (side, side_rx)) = match open().and_then(|a| Ok((a, open()?))) {
        Ok(conns) => conns,
        Err(e) => return (Load::default(), Err(format!("connect: {e}"))),
    };
    let done = AtomicBool::new(false);
    let (load, sent) = std::thread::scope(|scope| {
        let reader = scope
            .spawn(|| read_replies([(&route, route_rx), (&side, side_rx)], schedule.cycles, &done));
        let sent = send_schedule(&route, &side, scenario, schedule, seed);
        done.store(true, Ordering::SeqCst);
        (reader.join().expect("reader thread panicked"), sent)
    });
    (load, sent.map_err(|e| format!("send: {e}")))
}

/// The sender: writes each request at its due time on its connection.
fn send_schedule(
    route: &Conn,
    side: &Conn,
    scenario: &Scenario,
    schedule: &Schedule,
    seed: u64,
) -> std::io::Result<()> {
    let states = &scenario.trace.states;
    let route_lines: Vec<Vec<u8>> = states
        .iter()
        .map(|s| {
            format!("{{\"cmd\":\"route?\",\"state\":\"{}\"}}\n", s.abbreviation()).into_bytes()
        })
        .collect();
    let side_lines: [(Verb, &[u8]); 2] =
        [(Verb::Stats, b"{\"cmd\":\"stats\"}\n"), (Verb::Metrics, b"{\"cmd\":\"metrics\"}\n")];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(schedule.end());
    let side_every = Duration::from_secs_f64(1.0 / (2.0 * SIDE_RATE));
    let (mut route_next, mut side_next) = (start, start);
    let (mut id, mut side_turn) = (0u64, 0usize);
    let mut state_idx = (seed as usize) % states.len();
    loop {
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        let phase = schedule.at(now.duration_since(start).as_secs_f64()).expect("inside schedule");
        while side_next <= now {
            let (verb, line) = side_lines[side_turn % 2];
            side.send(line, Pending { id, verb, phase, due: side_next, sent: Instant::now() })?;
            id += 1;
            side_turn += 1;
            side_next += side_every;
        }
        let mut send_route = |due: Instant| -> std::io::Result<()> {
            let line = &route_lines[state_idx];
            state_idx = (state_idx + 1) % states.len();
            route
                .send(line, Pending { id, verb: Verb::Route, phase, due, sent: Instant::now() })?;
            id += 1;
            Ok(())
        };
        let saturating = matches!(phase, Phase::Saturate(_));
        let wake = if saturating {
            // Closed loop: keep WINDOW requests outstanding, due when sent.
            while route.outstanding() < WINDOW {
                send_route(Instant::now())?;
            }
            route_next = now;
            side_next
        } else {
            let rate = match phase {
                Phase::Rung(r) => LADDER[r],
                _ => schedule.route_rate,
            };
            if route_next < now.checked_sub(Duration::from_millis(100)).unwrap_or(now) {
                // Entering an open-loop phase after the closed loop.
                route_next = now;
            }
            while route_next <= now {
                send_route(route_next)?;
                route_next += Duration::from_secs_f64(1.0 / rate);
            }
            route_next.min(side_next)
        };
        let wait = wake.saturating_duration_since(Instant::now());
        if saturating {
            let pending = route.pending.lock().expect("pending queue poisoned");
            let _ = route.replied.wait_timeout_while(pending, wait, |p| p.len() >= WINDOW);
        } else {
            std::thread::sleep(wait);
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// The reader: waits on both connections, timestamps each reply line and
/// pairs it with the oldest request outstanding on that connection.
fn read_replies(conns: [(&Conn, UnixStream); 2], cycles: usize, done: &AtomicBool) -> Load {
    let mut load = Load { saturated: vec![0; cycles], ..Load::default() };
    let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|(_, s)| PollFd { fd: s.as_raw_fd(), events: POLLIN, revents: 0 })
        .collect();
    let mut drain_deadline = None;
    loop {
        let idle = conns.iter().all(|(c, _)| c.outstanding() == 0);
        if done.load(Ordering::SeqCst) {
            if idle {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
            if Instant::now() >= deadline {
                // Unanswered requests count as failed (timed out).
                for (conn, _) in &conns {
                    for request in conn.pending.lock().expect("pending queue poisoned").drain(..) {
                        load.record(Sample { request, done: deadline, ok: false });
                    }
                }
                break;
            }
        }
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd structs laid out as the C ABI expects, and
        // each fd belongs to a stream kept open for the whole call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, 20) };
        if ready <= 0 {
            continue;
        }
        for (i, fd) in fds.iter_mut().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            fd.revents = 0;
            let n = match (&conns[i].1).read(&mut chunk) {
                Ok(0) | Err(_) => {
                    // The daemon closed the connection: nothing more comes.
                    fd.fd = -1;
                    continue;
                }
                Ok(n) => n,
            };
            let now = Instant::now();
            bufs[i].extend_from_slice(&chunk[..n]);
            let conn = conns[i].0;
            // Pair every complete line, then drop them from the buffer at
            // once (draining line by line would shift the rest each time).
            let mut start = 0;
            while let Some(len) = bufs[i][start..].iter().position(|&b| b == b'\n') {
                let line = &bufs[i][start..start + len];
                start += len + 1;
                let request = conn.pending.lock().expect("pending queue poisoned").pop_front();
                conn.replied.notify_one();
                let Some(request) = request else { continue };
                let reply = std::str::from_utf8(line).ok().and_then(|l| JsonValue::parse(l).ok());
                let field = |key: &str| reply.as_ref().and_then(|r| r.get(key));
                let ok = field("ok").and_then(JsonValue::as_bool) == Some(true);
                if request.verb == Verb::Stats {
                    let number = |key: &str| field(key).and_then(JsonValue::as_f64);
                    if let (Some(steps), Some(uptime)) = (number("steps"), number("uptime_secs")) {
                        load.lags.push(uptime / STEP_WAIT.as_secs_f64() - steps);
                    }
                }
                load.record(Sample { request, done: now, ok });
            }
            bufs[i].drain(..start);
        }
    }
    load
}
