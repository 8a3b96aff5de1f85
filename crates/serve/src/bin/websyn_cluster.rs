//! `websyn-cluster` — the cluster serving binary.
//!
//! Runs a [`websyn_serve::Router`] over a fleet of worker processes
//! ([`websyn_serve::Cluster`]), each a re-exec of this binary serving
//! the HTTP/1.1 protocol with its own engine:
//!
//! ```sh
//! websyn-cluster --addr 127.0.0.1:8080 --workers 4 --dict dictionary.tsv
//! curl 'http://127.0.0.1:8080/match?q=indy+4+near+san+fran'
//! curl 'http://127.0.0.1:8080/stats'
//! ```
//!
//! `--smoke` runs the CI self-test instead of serving: start a
//! two-worker fleet, verify responses through the router, SIGKILL a
//! worker and require that every in-flight and subsequent request
//! still succeeds (failover), wait for the monitor to restart the
//! victim, roll the whole fleet with zero downtime, fan a dictionary
//! delta out to every worker through `POST /admin/dict/delta` and
//! require the new surface to resolve with no restart, roll the fleet
//! onto a new dictionary artifact, and exit 0 only if all of it held.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use websyn_serve::cluster::{run_worker_if_flagged, Cluster, ClusterConfig};
use websyn_serve::http::{percent_encode, read_response};

const USAGE: &str =
    "usage: websyn-cluster [--addr A] [--workers N] [--replication N] [--dict F.tsv] [--smoke]";

struct Args {
    addr: String,
    workers: usize,
    replication: usize,
    dict: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8080".to_string(),
        workers: 2,
        replication: 2,
        dict: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad number for --workers".to_string())?
            }
            "--replication" => {
                args.replication = value("--replication")?
                    .parse()
                    .map_err(|_| "bad number for --replication".to_string())?
            }
            "--dict" => args.dict = Some(value("--dict")?),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if let Some(code) = run_worker_if_flagged() {
        return code;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return match smoke() {
            Ok(()) => {
                println!(
                    "websyn-cluster: smoke ok (failover + restart + rolling + delta + artifact roll)"
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("websyn-cluster: SMOKE FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let config = ClusterConfig {
        workers: args.workers,
        replication: args.replication,
        dict: args.dict,
        ..ClusterConfig::default()
    };
    let cluster = match Cluster::start(args.addr.as_str(), config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("websyn-cluster: cannot start on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "websyn-cluster: routing on {} over {} workers (replication {})",
        cluster.addr(),
        cluster.workers(),
        args.replication
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One keep-alive GET against the router.
fn get(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
) -> Result<(u16, String), String> {
    write!(conn, "GET {target} HTTP/1.1\r\n\r\n").map_err(|e| format!("send: {e}"))?;
    read_response(reader).map_err(|e| format!("recv: {e}"))
}

fn ask(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    query: &str,
) -> Result<(u16, String), String> {
    get(conn, reader, &format!("/match?q={}", percent_encode(query)))
}

/// The CI self-test: failover on a worker kill, supervised restart,
/// and a zero-downtime rolling rebuild — all against the demo
/// dictionary, all through one client connection to the router.
fn smoke() -> Result<(), String> {
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            workers: 2,
            replication: 2,
            probe_interval: Duration::from_millis(25),
            ..ClusterConfig::default()
        },
    )
    .map_err(|e| format!("start: {e}"))?;

    let conn = TcpStream::connect(cluster.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut conn = conn;

    // Correctness through the router, exact and fuzzy.
    let exact = ask(&mut conn, &mut reader, "Indy 4 near San Fran")?;
    let want =
        "{\"spans\":[{\"start\":0,\"end\":2,\"entity\":0,\"distance\":0,\"surface\":\"indy 4\"}]}";
    if exact != (200, want.to_string()) {
        return Err(format!("exact: unexpected response {exact:?}"));
    }
    let fuzzy = ask(&mut conn, &mut reader, "cheapest cannon eos 350d deals")?;
    if fuzzy.0 != 200 || !fuzzy.1.contains("\"surface\":\"canon eos 350d\"") {
        return Err(format!("fuzzy: unexpected response {fuzzy:?}"));
    }

    // Kill a worker cold. Every request must keep succeeding: the
    // router fails over, the monitor restarts the victim.
    cluster.kill_worker(0);
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut served_during_outage = 0u32;
    while Instant::now() < deadline {
        for (i, q) in ["indy 4", "madagascar 2", "350d", "digital rebel xt"]
            .iter()
            .enumerate()
        {
            let (status, body) = ask(&mut conn, &mut reader, q)?;
            if status != 200 || !body.contains("\"entity\":") {
                return Err(format!("during outage, {q:?} ({i}): {status} {body:?}"));
            }
            served_during_outage += 1;
        }
        if cluster.healthy_workers() == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if !cluster.wait_healthy(2, Duration::from_secs(15)) {
        return Err("killed worker was not restarted in time".to_string());
    }
    if cluster.restarts() == 0 {
        return Err("monitor recorded no restart".to_string());
    }
    if served_during_outage == 0 {
        return Err("no requests were served during the outage window".to_string());
    }

    // Roll the fleet; the service must answer before, during being
    // implicit (rolling_restart drains one worker at a time), after.
    cluster
        .rolling_restart()
        .map_err(|e| format!("rolling restart: {e}"))?;
    let after = ask(&mut conn, &mut reader, "indy 4")?;
    if after.0 != 200 {
        return Err(format!("after rolling restart: {after:?}"));
    }

    // Aggregated stats report the full fleet: summed totals, then the
    // per-worker breakdown.
    let (status, stats) = get(&mut conn, &mut reader, "/stats")?;
    if status != 200 || !stats.contains("\"workers\":2") {
        return Err(format!("stats: unexpected response {status} {stats:?}"));
    }
    if !stats.contains("\"per_worker\":[{\"worker\":0,") || !stats.contains("\"uptime_seconds\":") {
        return Err(format!("stats: missing per-worker breakdown in {stats:?}"));
    }

    // The merged Prometheus exposition carries every worker's series
    // under its own label, plus the router's own counters.
    let (status, metrics) = get(&mut conn, &mut reader, "/metrics")?;
    if status != 200
        || !metrics.contains("worker=\"0\"")
        || !metrics.contains("worker=\"1\"")
        || !metrics.contains("websyn_rejects_total{worker=\"router\",class=\"busy\"}")
        || !metrics.contains("websyn_cluster_workers_up 2")
    {
        return Err(format!("metrics: malformed fleet exposition {metrics:?}"));
    }
    let (status, slow) = get(&mut conn, &mut reader, "/debug/slow")?;
    if status != 200 || !slow.starts_with("{\"workers\":[{\"worker\":0,\"slow\":{") {
        return Err(format!("slow: malformed fleet trace {slow:?}"));
    }

    // Live dictionary update fanned out to the whole fleet: the router
    // POSTs the delta to every live worker, so the new surface
    // resolves no matter which worker the query hashes to — and no
    // worker restarts.
    let restarts_before_delta = cluster.restarts();
    let before = ask(&mut conn, &mut reader, "starwars kid dance")?;
    if before != (200, "{\"spans\":[]}".to_string()) {
        return Err(format!("pre-delta: unexpected response {before:?}"));
    }
    let delta = "starwars kid\t901\n";
    write!(
        conn,
        "POST /admin/dict/delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n{delta}",
        delta.len()
    )
    .map_err(|e| format!("send delta: {e}"))?;
    let (status, ack) = read_response(&mut reader).map_err(|e| format!("recv delta ack: {e}"))?;
    if status != 200 || !ack.contains("\"ok\":true") || !ack.contains("\"applied_workers\":2") {
        return Err(format!("delta: unexpected fleet ack {status} {ack:?}"));
    }
    let after = ask(&mut conn, &mut reader, "starwars kid dance")?;
    if after.0 != 200 || !after.1.contains("\"entity\":901") {
        return Err(format!("post-delta: unexpected response {after:?}"));
    }
    if cluster.restarts() != restarts_before_delta {
        return Err("delta application restarted a worker".to_string());
    }
    // Aggregated stats sum the fleet's lifecycle counters: one delta
    // segment and one upsert per worker.
    let (_, stats) = get(&mut conn, &mut reader, "/stats")?;
    if !stats.contains("\"segments\":2") || !stats.contains("\"delta_upserts\":2") {
        return Err(format!("delta stats: lifecycle missing in {stats:?}"));
    }

    // Roll the fleet onto a *new artifact*: every replacement worker
    // loads it, with zero downtime. In-memory deltas do not survive the
    // roll — durable changes ride artifacts.
    let artifact = std::env::temp_dir().join(format!(
        "websyn-cluster-smoke-dict-{}.tsv",
        std::process::id()
    ));
    let mut tsv = websyn_serve::cluster::demo_matcher().to_tsv();
    tsv.push_str("rolled surface\t902\n");
    std::fs::write(&artifact, &tsv).map_err(|e| format!("write artifact: {e}"))?;
    cluster
        .rolling_restart_with_dict(Some(artifact.display().to_string()))
        .map_err(|e| format!("rolling restart with dict: {e}"))?;
    let rolled = ask(&mut conn, &mut reader, "rolled surface")?;
    if rolled.0 != 200 || !rolled.1.contains("\"entity\":902") {
        return Err(format!("after artifact roll: {rolled:?}"));
    }
    let gone = ask(&mut conn, &mut reader, "starwars kid dance")?;
    if gone != (200, "{\"spans\":[]}".to_string()) {
        return Err(format!(
            "pre-roll delta unexpectedly survived the roll: {gone:?}"
        ));
    }

    cluster.shutdown();
    let _ = std::fs::remove_file(&artifact);
    Ok(())
}
