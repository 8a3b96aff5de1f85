//! `websyn-serve` — the serving binary.
//!
//! Serves an entity dictionary over the std-only HTTP/1.1 front end of
//! [`websyn_serve::http`]:
//!
//! ```sh
//! websyn-serve --addr 127.0.0.1:8080 --dict dictionary.tsv
//! curl 'http://127.0.0.1:8080/match?q=indy+4+near+san+fran'
//! ```
//!
//! `--proto http` is accepted for compatibility and changes nothing;
//! HTTP is the only protocol.
//!
//! `--dict` loads an `EntityMatcher::to_tsv` artifact (the `#!fuzzy`
//! header re-enables approximate matching); without it a small built-in
//! demo dictionary is served, with fuzzy matching on.
//!
//! `--smoke` runs the CI self-test instead of serving: start on an
//! ephemeral port, round-trip exact, fuzzy, pipelined, admin and
//! observability requests against a live socket, shut down cleanly,
//! and exit 0 only if every response matched.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use websyn_core::DictHandle;
use websyn_serve::cluster::{
    load_dict, parse_tuning_flag, run_worker_if_flagged, tuning_args, Cluster, ClusterConfig,
};
use websyn_serve::{http, Engine, EngineConfig, Server, ServerConfig};

const USAGE: &str = "usage: websyn-serve [--proto http] [--addr A] [--dict F.tsv] \
                     [--cluster N] [--replication N] \
                     [--workers N] [--queue-depth N] \
                     [--cache-capacity N] [--cache-shards N] \
                     [--slow-threshold-us N] [--slow-sample-every N] [--smoke]";

/// Parsed command line.
struct Args {
    addr: String,
    dict: Option<String>,
    smoke: bool,
    /// `--cluster N`: serve through a router over N worker processes
    /// instead of one in-process server (HTTP only).
    cluster: usize,
    replication: usize,
    server: ServerConfig,
    engine: EngineConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        dict: None,
        smoke: false,
        cluster: 0,
        replication: 2,
        server: ServerConfig::default(),
        engine: EngineConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--dict" => args.dict = Some(value("--dict")?),
            "--smoke" => args.smoke = true,
            "--proto" => match value("--proto")?.as_str() {
                "http" => {}
                "line" => {
                    return Err(
                        "the line protocol was removed; websyn-serve speaks HTTP only \
                                (drop --proto, or pass --proto http)"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown protocol {other:?} (http)")),
            },
            "--cluster" => args.cluster = parse(&value("--cluster")?)?,
            "--replication" => args.replication = parse(&value("--replication")?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                if !parse_tuning_flag(other, || it.next(), &mut args.server, &mut args.engine)? {
                    return Err(format!("unknown flag {other:?} (try --help)"));
                }
            }
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn main() -> ExitCode {
    // Re-entered as a cluster worker? Serve and exit — the rest of the
    // command line belongs to the worker.
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
    let dict = match load_dict(args.dict.as_deref()) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("websyn-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    {
        let matcher = dict.matcher();
        eprintln!(
            "websyn-serve: {} surfaces, fuzzy {}",
            matcher.len(),
            if matcher.fuzzy_config().is_some() {
                "on"
            } else {
                "off"
            }
        );
    }

    if args.smoke {
        return match smoke(engine(&dict, args.engine), args.server) {
            Ok(()) => {
                println!("websyn-serve: smoke ok (http)");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("websyn-serve: SMOKE FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    if args.cluster > 0 {
        // Cluster mode: a router over worker processes, each re-execing
        // this binary with the worker sentinel. The tuning flags travel
        // to the workers; the router itself holds no engine.
        let config = ClusterConfig {
            workers: args.cluster,
            replication: args.replication,
            dict: args.dict.clone(),
            worker_args: tuning_args(&args.server, &args.engine),
            ..ClusterConfig::default()
        };
        let cluster = match Cluster::start(args.addr.as_str(), config) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("websyn-serve: cannot start cluster on {}: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "websyn-serve: routing on {} over {} workers (replication {})",
            cluster.addr(),
            cluster.workers(),
            args.replication
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let server = match Server::start(engine(&dict, args.engine), args.addr.as_str(), args.server) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("websyn-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("websyn-serve: listening on {} (http)", server.addr());
    // Serve until the process is killed; all work happens on the
    // accept/worker threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn engine(dict: &DictHandle, config: EngineConfig) -> Arc<Engine> {
    // The handle is shared, not copied: deltas applied through the
    // admin surface are visible to every engine built from it.
    Arc::new(
        Engine::builder_with_dict(dict.clone())
            .config(config)
            .build(),
    )
}

/// One scripted client session against a live ephemeral-port server,
/// as keep-alive GETs on one connection: exact hit, fuzzy hit, miss, a
/// pipelined burst, a cache hit, `/stats`, `/metrics`, `/debug/slow`,
/// error statuses and a live dictionary delta, then a clean shutdown.
/// Any mismatch is an error.
fn smoke(engine: Arc<Engine>, config: ServerConfig) -> Result<(), String> {
    let io_err = |e: std::io::Error| format!("io error: {e}");
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", config).map_err(io_err)?;
    let addr = server.addr();
    {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        let mut conn = stream;
        fn get(
            conn: &mut TcpStream,
            reader: &mut BufReader<TcpStream>,
            target: &str,
        ) -> Result<(u16, String), String> {
            let io_err = |e: std::io::Error| format!("io error: {e}");
            write!(conn, "GET {target} HTTP/1.1\r\n\r\n").map_err(io_err)?;
            http::read_response(reader).map_err(io_err)
        }
        let ask = |conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, query: &str| {
            get(
                conn,
                reader,
                &format!("/match?q={}", http::percent_encode(query)),
            )
        };

        let exact = ask(&mut conn, &mut reader, "Indy 4 near San Fran")?;
        let want = "{\"spans\":[{\"start\":0,\"end\":2,\"entity\":0,\"distance\":0,\"surface\":\"indy 4\"}]}";
        if exact != (200, want.to_string()) {
            return Err(format!("http exact: unexpected response {exact:?}"));
        }
        let fuzzy = ask(&mut conn, &mut reader, "cheapest cannon eos 350d deals")?;
        if fuzzy.0 != 200
            || !fuzzy
                .1
                .contains("\"distance\":1,\"surface\":\"canon eos 350d\"")
        {
            return Err(format!("http fuzzy: unexpected response {fuzzy:?}"));
        }
        let miss = ask(&mut conn, &mut reader, "nothing matches this")?;
        if miss != (200, "{\"spans\":[]}".to_string()) {
            return Err(format!("http miss: unexpected response {miss:?}"));
        }

        // Pipelined burst on the keep-alive connection: all requests
        // first, then all responses, in request order.
        let burst = ["indy 4", "350d", "madagascar 2", "indy 4"];
        for q in burst {
            write!(
                conn,
                "GET /match?q={} HTTP/1.1\r\n\r\n",
                http::percent_encode(q)
            )
            .map_err(io_err)?;
        }
        for (i, q) in burst.iter().enumerate() {
            let (status, body) = http::read_response(&mut reader).map_err(io_err)?;
            if status != 200 || !body.contains("\"entity\":") {
                return Err(format!("http pipelined {i} ({q}): got {status} {body:?}"));
            }
        }
        // Sequential repeat of an already-answered query: its earlier
        // response has been received, so its cache insert has landed
        // and this one must hit deterministically (the duplicates
        // inside the burst may race across workers and both miss).
        let hits = engine.cache_stats().hits;
        let repeat = ask(&mut conn, &mut reader, "350d")?;
        if repeat.0 != 200 || !repeat.1.contains("\"surface\":\"350d\"") {
            return Err(format!("http repeat: unexpected response {repeat:?}"));
        }
        if engine.cache_stats().hits != hits + 1 {
            return Err("http repeat: no cache hit recorded".to_string());
        }

        let (status, stats) = get(&mut conn, &mut reader, "/stats")?;
        if status != 200 || !stats.starts_with("{\"hits\":") {
            return Err(format!(
                "http stats: unexpected response {status} {stats:?}"
            ));
        }
        if !stats.contains("\"uptime_seconds\":") {
            return Err(format!("http stats: missing uptime_seconds in {stats:?}"));
        }
        // The observability endpoints must be live and well-formed:
        // traffic has flowed, so the stage histograms carry samples.
        let (status, metrics) = get(&mut conn, &mut reader, "/metrics")?;
        if status != 200
            || !metrics.contains("# TYPE websyn_stage_duration_us histogram")
            || !metrics.contains("websyn_uptime_seconds")
            || !metrics.contains("websyn_stage_duration_us_count{stage=\"segment\"}")
            || !metrics.contains("websyn_rejects_total{class=\"busy\"}")
        {
            return Err(format!("http metrics: malformed exposition {metrics:?}"));
        }
        let (status, slow) = get(&mut conn, &mut reader, "/debug/slow")?;
        if status != 200
            || !slow.starts_with("{\"threshold_us\":")
            || !slow.contains("\"entries\":[")
        {
            return Err(format!("http slow: malformed trace {slow:?}"));
        }
        let unknown = get(&mut conn, &mut reader, "/frobnicate")?;
        if unknown != (404, "{\"error\":\"not-found\"}".to_string()) {
            return Err(format!("http 404: unexpected response {unknown:?}"));
        }
        let bad = get(&mut conn, &mut reader, "/match")?;
        if bad.0 != 400 {
            return Err(format!("http 400: unexpected response {bad:?}"));
        }
        // Live dictionary update through the admin endpoint: POST the
        // delta, then resolve the new surface on the same connection —
        // applied before the 200 was written, no restart.
        let before = ask(&mut conn, &mut reader, "starwars kid dance")?;
        if before != (200, "{\"spans\":[]}".to_string()) {
            return Err(format!("http pre-delta: unexpected response {before:?}"));
        }
        let delta = "starwars kid\t901\n";
        write!(
            conn,
            "POST /admin/dict/delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n{delta}",
            delta.len()
        )
        .map_err(io_err)?;
        let (status, ack) = http::read_response(&mut reader).map_err(io_err)?;
        if status != 200 || !ack.starts_with("{\"applied\":1,\"segments\":") {
            return Err(format!("http dict: unexpected ack {status} {ack:?}"));
        }
        let after = ask(&mut conn, &mut reader, "starwars kid dance")?;
        if after.0 != 200 || !after.1.contains("\"entity\":901") {
            return Err(format!("http post-delta: unexpected response {after:?}"));
        }
        // The stats body and the metrics exposition both report the
        // lifecycle position.
        let (_, stats) = get(&mut conn, &mut reader, "/stats")?;
        if !stats.contains("\"segments\":1,\"delta_upserts\":1") {
            return Err(format!("http dict stats: lifecycle missing in {stats:?}"));
        }
        let (_, metrics) = get(&mut conn, &mut reader, "/metrics")?;
        if !metrics.contains("websyn_dict_segments 1")
            || !metrics.contains("websyn_deltas_applied_total 1")
        {
            return Err(format!(
                "http dict metrics: lifecycle missing in {metrics:?}"
            ));
        }
    }
    server.shutdown();
    Ok(())
}
