//! Multi-process cluster serving: a worker fleet under a supervising
//! router.
//!
//! [`Cluster::start`] spawns `workers` copies of the *current
//! executable* re-entered through the [`WORKER_SENTINEL`] argv flag —
//! so every binary that links this crate (`websyn-cluster`,
//! `websyn-serve`) can become a worker without a separate worker
//! binary. Each worker owns a full [`crate::Engine`]
//! (its own matcher and result cache) and serves the stock HTTP/1.1
//! protocol on an ephemeral port; the parent learns the port from a
//! single `READY <addr>` line on the worker's stdout.
//!
//! Worker lifecycle is tied to two pipes:
//!
//! - **stdout** carries exactly the `READY` line (diagnostics go to
//!   stderr, inherited from the parent);
//! - **stdin** is the stop channel *and* the orphan guard: a worker
//!   blocks reading stdin and exits cleanly on EOF, so dropping the
//!   pipe stops it gracefully — and a crashed parent stops the fleet
//!   the same way, leaving no orphan processes behind.
//!
//! A monitor thread probes every worker's `/stats` endpoint each
//! `probe_interval` and reaps exited processes. A dead or wedged
//! worker is drained from the ring and rescheduled with exponential
//! backoff (so a crash-looping dictionary cannot spin the supervisor),
//! and republished once its replacement reports ready.
//! [`Cluster::rolling_restart`] rebuilds the fleet one worker at a
//! time — drain, wait out in-flight requests, stop, respawn, republish
//! — which with replication ≥ 2 (or the router's fallback scan) keeps
//! every query answerable throughout: the zero-downtime dictionary
//! rollout the Engine's swap story promises, extended across
//! processes.

use crate::router::{Ring, Router, RouterConfig};
use crate::{Engine, EngineConfig, Server, ServerConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use websyn_common::EntityId;
use websyn_core::{DictHandle, EntityMatcher, FuzzyConfig};

/// The argv flag that re-enters a binary as a cluster worker. Binaries
/// that can host workers call [`run_worker_if_flagged`] first thing in
/// `main`.
pub const WORKER_SENTINEL: &str = "--cluster-worker";

/// The built-in demo dictionary: the paper's running examples. Served
/// whenever no `--dict` artifact is given.
pub fn demo_matcher() -> EntityMatcher {
    EntityMatcher::from_pairs(vec![
        (
            "Indiana Jones and the Kingdom of the Crystal Skull",
            EntityId::new(0),
        ),
        ("indy 4", EntityId::new(0)),
        ("indiana jones 4", EntityId::new(0)),
        ("madagascar 2", EntityId::new(1)),
        ("madagascar escape 2 africa", EntityId::new(1)),
        ("canon eos 350d", EntityId::new(2)),
        ("digital rebel xt", EntityId::new(2)),
        ("350d", EntityId::new(2)),
    ])
    .with_fuzzy(FuzzyConfig::default())
}

/// Default capacity of the serving-path window cache (resolved fuzzy
/// windows, cross-batch — see
/// [`EntityMatcher::with_window_cache`]). Entries are a short string
/// plus a few words, so this is a couple of MB at worst.
const WINDOW_CACHE_CAPACITY: usize = 65_536;

/// Loads a dictionary lifecycle handle: an [`EntityMatcher::to_tsv`]
/// artifact when a path is given, the demo dictionary otherwise, as
/// the base of a fresh [`DictHandle`] lineage — ready for live delta
/// updates. Fuzzy-enabled matchers get a cross-batch window cache
/// attached, so recurring query fragments skip fuzzy re-verification
/// across batches.
pub fn load_dict(dict: Option<&str>) -> Result<DictHandle, String> {
    let matcher = match dict {
        None => demo_matcher(),
        Some(path) => {
            let tsv =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            EntityMatcher::from_tsv(&tsv).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
    };
    let matcher = if matcher.fuzzy_config().is_some() {
        matcher.with_window_cache(WINDOW_CACHE_CAPACITY)
    } else {
        matcher
    };
    Ok(DictHandle::new(matcher))
}

/// If the process was invoked with [`WORKER_SENTINEL`], runs the
/// worker to completion and returns its exit code; otherwise returns
/// `None` and `main` proceeds normally.
pub fn run_worker_if_flagged() -> Option<ExitCode> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some(WORKER_SENTINEL) {
        return None;
    }
    Some(worker_main(&args[2..]))
}

/// The worker process body: build an engine, serve HTTP on an
/// ephemeral port, report `READY <addr>` on stdout, and serve until
/// stdin reaches EOF (the parent dropped the stop pipe — or died).
pub fn worker_main(args: &[String]) -> ExitCode {
    let mut dict: Option<String> = None;
    let mut server = ServerConfig::default();
    let mut engine_config = EngineConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--dict" => it
                .next()
                .map(|path| dict = Some(path.clone()))
                .ok_or_else(|| "missing value for --dict".to_string()),
            other => match parse_tuning_flag(
                other,
                || it.next().cloned(),
                &mut server,
                &mut engine_config,
            ) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("unknown worker flag {other:?}")),
                Err(msg) => Err(msg),
            },
        };
        if let Err(msg) = parsed {
            eprintln!("cluster worker: {msg}");
            return ExitCode::FAILURE;
        }
    }
    let dict_handle = match load_dict(dict.as_deref()) {
        Ok(h) => h,
        Err(msg) => {
            eprintln!("cluster worker: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let engine = Arc::new(
        Engine::builder_with_dict(dict_handle)
            .config(engine_config)
            .build(),
    );
    let handle = match Server::start(engine, "127.0.0.1:0", server) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cluster worker: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The handshake: exactly one line on stdout, then stdout is quiet.
    println!("READY {}", handle.addr());
    let _ = io::stdout().flush();
    // Block until the parent drops our stdin (graceful stop) or dies
    // (EOF all the same). Any actual input is ignored.
    let mut sink = [0u8; 64];
    let mut stdin = io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
    ExitCode::SUCCESS
}

/// Applies one per-worker tuning flag (`--workers`, `--queue-depth`,
/// `--cache-capacity`, `--cache-shards`, `--slow-threshold-us`,
/// `--slow-sample-every`), taking its value from `value`. Returns
/// `Ok(false)` when `flag` is not one of them. `websyn-serve` and the
/// cluster worker both parse their tuning through this, and
/// [`tuning_args`] forwards the same set; out-of-range values are
/// clamped where they are used ([`Server::start`],
/// [`crate::EngineBuilder::build`]).
///
/// # Errors
/// A missing or non-numeric value.
pub fn parse_tuning_flag(
    flag: &str,
    mut value: impl FnMut() -> Option<String>,
    server: &mut ServerConfig,
    engine: &mut EngineConfig,
) -> Result<bool, String> {
    let mut value = || value().ok_or_else(|| format!("missing value for {flag}"));
    match flag {
        "--workers" => server.workers = parse(&value()?)?,
        "--queue-depth" => server.queue_depth = parse(&value()?)?,
        "--cache-capacity" => engine.cache_capacity = parse(&value()?)?,
        "--cache-shards" => engine.cache_shards = parse(&value()?)?,
        "--slow-threshold-us" => server.slow_threshold = Duration::from_micros(parse(&value()?)?),
        "--slow-sample-every" => server.slow_sample_every = parse(&value()?)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The tuning flags that reproduce `server` and `engine` in a worker
/// process — the inverse of [`parse_tuning_flag`], forwarded through
/// [`ClusterConfig::worker_args`].
pub fn tuning_args(server: &ServerConfig, engine: &EngineConfig) -> Vec<String> {
    [
        ("--workers", server.workers.to_string()),
        ("--queue-depth", server.queue_depth.to_string()),
        ("--cache-capacity", engine.cache_capacity.to_string()),
        ("--cache-shards", engine.cache_shards.to_string()),
        (
            "--slow-threshold-us",
            server.slow_threshold.as_micros().to_string(),
        ),
        ("--slow-sample-every", server.slow_sample_every.to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect()
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// Cluster topology and supervision tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fleet size (clamped ≥ 1).
    pub workers: usize,
    /// Hot-shard replication factor (clamped to `1..=workers`).
    pub replication: usize,
    /// Dictionary TSV handed to every worker (`None` = demo
    /// dictionary).
    pub dict: Option<String>,
    /// Extra flags forwarded verbatim to each worker process
    /// (`--workers`, `--cache-capacity`, …; see [`tuning_args`]).
    pub worker_args: Vec<String>,
    /// Executable to spawn workers from. `None` re-execs the current
    /// binary — right for the serving binaries; integration tests
    /// (whose current executable is the test harness) point this at a
    /// sentinel-aware binary instead.
    pub worker_exe: Option<std::path::PathBuf>,
    /// How long a spawned worker may take to report `READY`.
    pub ready_timeout: Duration,
    /// Health-probe cadence of the fleet monitor.
    pub probe_interval: Duration,
    /// First restart delay after a worker failure; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Restart delay ceiling.
    pub backoff_max: Duration,
    /// Router tuning.
    pub router: RouterConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            replication: 2,
            dict: None,
            worker_args: Vec::new(),
            worker_exe: None,
            ready_timeout: Duration::from_secs(10),
            probe_interval: Duration::from_millis(100),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            router: RouterConfig::default(),
        }
    }
}

/// The restart delay after `failures` consecutive failures:
/// `base · 2^(failures-1)`, capped at `max`.
fn backoff_delay(failures: u32, base: Duration, max: Duration) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << exp).min(max)
}

/// A live worker process: the child, its stop pipe, its serving
/// address, and the monitor's consecutive-probe-failure count.
struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    probe_failures: u32,
}

/// Supervision state of one fleet slot.
enum SlotState {
    Running(WorkerProc),
    /// Waiting out a restart delay after `failures` consecutive
    /// failures.
    Backoff {
        until: Instant,
        failures: u32,
    },
}

/// Spawns one worker process serving `dict` (`None` = demo
/// dictionary) and waits for its `READY` handshake. The dictionary is
/// a parameter — not read from `config` — because a rolling restart
/// can move the fleet onto a new artifact, and every later respawn
/// (including the monitor's crash recovery) must load that artifact,
/// not the one the cluster started with.
fn spawn_worker(config: &ClusterConfig, dict: Option<&str>) -> io::Result<WorkerProc> {
    let exe = match &config.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()?,
    };
    let mut cmd = Command::new(exe);
    cmd.arg(WORKER_SENTINEL);
    if let Some(dict) = dict {
        cmd.args(["--dict", dict]);
    }
    cmd.args(&config.worker_args);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
    // The handshake read happens on a side thread so a wedged worker
    // costs `ready_timeout`, not forever.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = match rx.recv_timeout(config.ready_timeout) {
        Ok(line) => line,
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("worker did not report READY in time"));
        }
    };
    let addr = line
        .trim()
        .strip_prefix("READY ")
        .and_then(|a| a.parse().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::other(format!("bad worker handshake {line:?}")));
    };
    Ok(WorkerProc {
        child,
        stdin,
        addr,
        probe_failures: 0,
    })
}

/// Stops a worker: drop the stop pipe, give it `grace` to exit, then
/// kill. Always reaps the child.
fn stop_worker(mut proc: WorkerProc, grace: Duration) {
    drop(proc.stdin.take());
    let deadline = Instant::now() + grace;
    loop {
        match proc.child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => break,
        }
    }
    let _ = proc.child.kill();
    let _ = proc.child.wait();
}

/// `GET /stats` against one worker; `Ok` means the worker answered a
/// well-formed 200 within the timeout.
fn probe(addr: SocketAddr, timeout: Duration) -> io::Result<()> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let (status, _) = crate::http::read_response(&mut BufReader::new(conn))?;
    if status == 200 {
        Ok(())
    } else {
        Err(io::Error::other(format!("probe status {status}")))
    }
}

/// A running cluster: router + worker fleet + monitor.
/// [`Cluster::shutdown`] (or drop) stops everything and reaps every
/// child process.
pub struct Cluster {
    config: ClusterConfig,
    /// The dictionary artifact every (re)spawned worker loads.
    /// Starts as `config.dict`; a rolling restart onto a new artifact
    /// updates it, so the monitor's crash recovery stays on the new
    /// artifact too. Shared with the monitor thread.
    dict: Arc<Mutex<Option<String>>>,
    ring: Arc<Ring>,
    slots: Arc<Vec<Mutex<SlotState>>>,
    router: Option<Router>,
    monitor: Option<JoinHandle<()>>,
    stop_monitor: Arc<AtomicBool>,
    restarts: Arc<AtomicU64>,
}

impl Cluster {
    /// Spawns the fleet, waits for every worker's handshake, starts
    /// the router on `addr`, and starts the fleet monitor.
    pub fn start(addr: &str, config: ClusterConfig) -> io::Result<Cluster> {
        let n = config.workers.max(1);
        let ring = Arc::new(Ring::new(n, config.replication));
        let dict = Arc::new(Mutex::new(config.dict.clone()));
        let mut slots = Vec::with_capacity(n);
        for slot in 0..n {
            let proc = spawn_worker(&config, config.dict.as_deref())?;
            ring.publish(slot, proc.addr);
            slots.push(Mutex::new(SlotState::Running(proc)));
        }
        let slots = Arc::new(slots);
        let router = Router::start(addr, Arc::clone(&ring), config.router)?;
        let stop_monitor = Arc::new(AtomicBool::new(false));
        let restarts = Arc::new(AtomicU64::new(0));
        let monitor = {
            let ring = Arc::clone(&ring);
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop_monitor);
            let restarts = Arc::clone(&restarts);
            let config = config.clone();
            let dict = Arc::clone(&dict);
            std::thread::spawn(move || {
                monitor_loop(&ring, &slots, &stop, &restarts, &config, &dict)
            })
        };
        Ok(Cluster {
            config,
            dict,
            ring,
            slots,
            router: Some(router),
            monitor: Some(monitor),
            stop_monitor,
            restarts,
        })
    }

    /// The router's client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router live").addr()
    }

    /// The routing table (for tests and diagnostics).
    pub fn ring(&self) -> &Arc<Ring> {
        &self.ring
    }

    /// Fleet size.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Workers currently live in the ring.
    pub fn healthy_workers(&self) -> usize {
        self.ring.up_count()
    }

    /// Total automatic restarts performed by the monitor.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Kills worker `slot` without ceremony — SIGKILL, no drain, ring
    /// untouched. This is the chaos hook: the router discovers the
    /// death through request failures (and fails over), the monitor
    /// discovers it through `try_wait` (and restarts with backoff) —
    /// the exact path a real worker crash takes.
    pub fn kill_worker(&self, slot: usize) {
        let mut state = self.slots[slot].lock().expect("slot poisoned");
        if let SlotState::Running(proc) = &mut *state {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
    }

    /// Blocks until at least `n` workers are live, or `timeout`
    /// elapses. Returns whether the fleet got there.
    pub fn wait_healthy(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.ring.up_count() >= n {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.ring.up_count() >= n
    }

    /// Rebuilds the fleet one worker at a time with zero downtime:
    /// drain the slot from the ring, wait out its in-flight requests,
    /// stop the old process, spawn and handshake a replacement, then
    /// republish. With replication ≥ 2 (or the router's fallback scan)
    /// every query keeps a live worker throughout. Returns the number
    /// of workers swapped.
    pub fn rolling_restart(&self) -> io::Result<usize> {
        let dict = self.dict.lock().expect("dict artifact poisoned").clone();
        self.roll(dict.as_deref())
    }

    /// [`Cluster::rolling_restart`] onto a *different* dictionary
    /// artifact (`None` = the demo dictionary): the whole-fleet
    /// deployment step for a newly compiled artifact. Every
    /// replacement worker loads `dict`, and the override sticks — the
    /// monitor's automatic crash recovery respawns with the new
    /// artifact from here on, never regressing to the old one.
    pub fn rolling_restart_with_dict(&self, dict: Option<String>) -> io::Result<usize> {
        *self.dict.lock().expect("dict artifact poisoned") = dict.clone();
        self.roll(dict.as_deref())
    }

    fn roll(&self, dict: Option<&str>) -> io::Result<usize> {
        let mut swapped = 0;
        for slot in 0..self.slots.len() {
            // Holding the slot lock keeps the monitor (which only
            // try_locks) out of the whole drain→stop→spawn→publish
            // sequence.
            let mut state = self.slots[slot].lock().expect("slot poisoned");
            self.ring.take_down(slot);
            let drain_deadline = Instant::now() + Duration::from_secs(2);
            while self.ring.in_flight(slot) > 0 && Instant::now() < drain_deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if let SlotState::Running(proc) = std::mem::replace(&mut *state, placeholder_backoff())
            {
                stop_worker(proc, Duration::from_secs(2));
            }
            let proc = spawn_worker(&self.config, dict)?;
            self.ring.publish(slot, proc.addr);
            *state = SlotState::Running(proc);
            swapped += 1;
        }
        Ok(swapped)
    }

    /// Stops the monitor, the router, and every worker; reaps all
    /// children. Returns once everything is down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop_monitor.store(true, Ordering::SeqCst);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for (slot, state) in self.slots.iter().enumerate() {
            self.ring.take_down(slot);
            let mut state = state.lock().expect("slot poisoned");
            if let SlotState::Running(proc) = std::mem::replace(&mut *state, placeholder_backoff())
            {
                stop_worker(proc, Duration::from_secs(2));
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A `SlotState` to park in a slot while the real state is being
/// replaced (`std::mem::replace` needs *something* there).
fn placeholder_backoff() -> SlotState {
    SlotState::Backoff {
        until: Instant::now(),
        failures: 0,
    }
}

/// The fleet monitor: probe, reap, back off, restart, republish.
fn monitor_loop(
    ring: &Ring,
    slots: &[Mutex<SlotState>],
    stop: &AtomicBool,
    restarts: &AtomicU64,
    config: &ClusterConfig,
    dict: &Mutex<Option<String>>,
) {
    // A worker is declared unhealthy after this many consecutive
    // failed probes — one flaky probe under load must not cost a
    // restart.
    const PROBE_STRIKES: u32 = 3;
    while !stop.load(Ordering::SeqCst) {
        for (index, slot) in slots.iter().enumerate() {
            // The rolling restart holds slot locks across its whole
            // swap sequence; skipping a contended slot keeps the
            // monitor from ever stalling behind it.
            let Ok(mut state) = slot.try_lock() else {
                continue;
            };
            match &mut *state {
                SlotState::Running(proc) => {
                    let dead = matches!(proc.child.try_wait(), Ok(Some(_)) | Err(_));
                    if dead {
                        ring.take_down(index);
                        *state = SlotState::Backoff {
                            until: Instant::now()
                                + backoff_delay(1, config.backoff_base, config.backoff_max),
                            failures: 1,
                        };
                        continue;
                    }
                    match probe(proc.addr, config.router.upstream_timeout) {
                        Ok(()) => {
                            proc.probe_failures = 0;
                            // Self-healing: a slot the router drained
                            // after transient request failures is
                            // republished once it probes healthy.
                            if ring.addr_of(index).is_none() {
                                ring.publish(index, proc.addr);
                            }
                        }
                        Err(_) => {
                            proc.probe_failures += 1;
                            if proc.probe_failures >= PROBE_STRIKES {
                                ring.take_down(index);
                                if let SlotState::Running(proc) =
                                    std::mem::replace(&mut *state, placeholder_backoff())
                                {
                                    stop_worker(proc, Duration::from_millis(200));
                                }
                                *state = SlotState::Backoff {
                                    until: Instant::now()
                                        + backoff_delay(1, config.backoff_base, config.backoff_max),
                                    failures: 1,
                                };
                            }
                        }
                    }
                }
                SlotState::Backoff { until, failures } => {
                    if Instant::now() < *until {
                        continue;
                    }
                    let failures = *failures;
                    let artifact = dict.lock().expect("dict artifact poisoned").clone();
                    match spawn_worker(config, artifact.as_deref()) {
                        Ok(proc) => {
                            ring.publish(index, proc.addr);
                            *state = SlotState::Running(proc);
                            restarts.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            let failures = failures + 1;
                            *state = SlotState::Backoff {
                                until: Instant::now()
                                    + backoff_delay(
                                        failures,
                                        config.backoff_base,
                                        config.backoff_max,
                                    ),
                                failures,
                            };
                        }
                    }
                }
            }
        }
        std::thread::sleep(config.probe_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_caps_at_max() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(2);
        assert_eq!(backoff_delay(1, base, max), Duration::from_millis(50));
        assert_eq!(backoff_delay(2, base, max), Duration::from_millis(100));
        assert_eq!(backoff_delay(3, base, max), Duration::from_millis(200));
        assert_eq!(backoff_delay(6, base, max), Duration::from_millis(1600));
        assert_eq!(backoff_delay(7, base, max), max);
        assert_eq!(backoff_delay(u32::MAX, base, max), max);
    }

    #[test]
    fn demo_dictionary_round_trips_through_tsv() {
        // Workers receive dictionaries as TSV artifacts; the demo
        // matcher must survive the round trip (it seeds the smoke
        // test's oracle).
        let tsv = demo_matcher().to_tsv();
        let back = EntityMatcher::from_tsv(&tsv).expect("parse");
        assert_eq!(back.len(), demo_matcher().len());
        assert!(back.fuzzy_config().is_some(), "fuzzy flag survives");
    }

    #[test]
    fn worker_flag_parser_rejects_unknown_flags() {
        // worker_main must fail fast (exit non-zero) on a bad flag
        // rather than serve with silently-dropped configuration.
        let code = worker_main(&["--frobnicate".to_string()]);
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::FAILURE));
    }

    #[test]
    fn tuning_flags_round_trip_through_the_forwarding_list() {
        // What `websyn-serve --cluster` forwards, a worker parses back
        // to the same configuration.
        let server = ServerConfig::builder()
            .workers(3)
            .queue_depth(17)
            .slow_threshold(Duration::from_micros(250))
            .slow_sample_every(9)
            .build();
        let engine = EngineConfig {
            cache_shards: 5,
            cache_capacity: 99,
        };
        let (mut parsed_server, mut parsed_engine) =
            (ServerConfig::default(), EngineConfig::default());
        let mut it = tuning_args(&server, &engine).into_iter();
        while let Some(flag) = it.next() {
            let known =
                parse_tuning_flag(&flag, || it.next(), &mut parsed_server, &mut parsed_engine);
            assert_eq!(known, Ok(true), "{flag}");
        }
        assert_eq!((parsed_server, parsed_engine), (server, engine));
        // Not a tuning flag; a tuning flag without a value or a number.
        let (s, e) = (&mut parsed_server, &mut parsed_engine);
        assert_eq!(parse_tuning_flag("--dict", || None, s, e), Ok(false));
        assert_eq!(
            parse_tuning_flag("--batch-window-us", || Some("0".into()), s, e),
            Ok(false),
            "the batch window is gone"
        );
        assert!(parse_tuning_flag("--workers", || None, s, e).is_err());
        assert!(parse_tuning_flag("--workers", || Some("x".into()), s, e).is_err());
    }
}
