//! Cluster `/stats` aggregation over live HTTP roundtrips: a router in
//! front of two in-process workers must answer `/stats` with the
//! *sum* of each worker's counters — including the matcher-level
//! window-cache counters introduced alongside the cross-batch window
//! cache — and fuzzy traffic through the routed path must actually
//! move those counters.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use websyn::serve::cluster::load_dict;
use websyn::serve::http::{percent_encode, read_response};
use websyn::serve::{Engine, Ring, Router, RouterConfig, Server, ServerConfig, ServerHandle};

/// One `GET` on a fresh connection (Connection: close), returning
/// (status, body).
fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(conn);
    read_response(&mut reader).expect("response")
}

/// Reads one unsigned field out of the fixed-grammar stats JSON.
fn stats_field(body: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let at = body
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} missing from {body}"));
    body[at + pattern.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("digits")
}

fn worker() -> ServerHandle {
    let dict = load_dict(None).expect("demo dictionary");
    assert!(
        dict.matcher().window_cache().is_some(),
        "serving-path matchers carry a window cache"
    );
    let engine = Arc::new(Engine::builder_with_dict(dict).build());
    Server::start(engine, "127.0.0.1:0", ServerConfig::default()).expect("worker")
}

#[test]
fn router_stats_sum_worker_window_cache_counters() {
    let workers = [worker(), worker()];
    let ring = Arc::new(Ring::new(workers.len(), 1));
    for (slot, w) in workers.iter().enumerate() {
        ring.publish(slot, w.addr());
    }
    let router =
        Router::start("127.0.0.1:0", Arc::clone(&ring), RouterConfig::default()).expect("router");

    // Fuzzy traffic through the routed path: distinct typo'd queries
    // (so the engines' result caches cannot absorb them) that resolve
    // against the demo dictionary.
    for (query, surface) in [
        ("canon eso 350d price", "canon eos 350d"),
        ("cheap canon eos 350dd", "canon eos 350d"),
        ("indianna jones 4 trailer", "indiana jones 4"),
        ("madagasacr 2 dvd", "madagascar 2"),
        ("watch madagascar 2 online", "madagascar 2"),
        ("digital rebl xt review", "digital rebel xt"),
    ] {
        let (status, body) = get(
            router.addr(),
            &format!("/match?q={}", percent_encode(query)),
        );
        assert_eq!(status, 200, "{query}: {body}");
        assert!(body.contains(surface), "{query} → {body}");
    }

    // The routed /stats must be the field-wise sum of the workers'.
    let mut want_hits = 0u64;
    let mut want_misses = 0u64;
    let mut want_window_hits = 0u64;
    let mut want_window_misses = 0u64;
    for w in &workers {
        let (status, body) = get(w.addr(), "/stats");
        assert_eq!(status, 200);
        want_hits += stats_field(&body, "hits");
        want_misses += stats_field(&body, "misses");
        want_window_hits += stats_field(&body, "window_hits");
        want_window_misses += stats_field(&body, "window_misses");
    }
    let (status, body) = get(router.addr(), "/stats");
    assert_eq!(status, 200);
    assert_eq!(stats_field(&body, "workers"), workers.len() as u64);
    assert_eq!(stats_field(&body, "hits"), want_hits, "{body}");
    assert_eq!(stats_field(&body, "misses"), want_misses, "{body}");
    assert_eq!(
        stats_field(&body, "window_hits"),
        want_window_hits,
        "{body}"
    );
    assert_eq!(
        stats_field(&body, "window_misses"),
        want_window_misses,
        "{body}"
    );
    // Fuzzy resolutions really flowed through the window cache: every
    // query above carried at least one fuzzy window.
    assert!(want_window_misses > 0, "no window-cache traffic recorded");

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}
