//! Live-socket tests of the result-cache hit path: hits are answered on
//! the connection thread without entering the miss queue, a pipelined
//! mix of hits and misses comes back in request order and byte-equal to
//! direct segmentation (across a live dictionary delta), and every read
//! is counted exactly once in `hits`/`misses`.

mod common;

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use websyn_common::EntityId;
use websyn_core::{EntityMatcher, FuzzyConfig};
use websyn_serve::http::{percent_encode, read_response, spans_json};
use websyn_serve::{Engine, Server, ServerConfig, ServerHandle};

fn matcher() -> EntityMatcher {
    EntityMatcher::from_pairs(vec![
        ("indy 4", EntityId::new(0)),
        ("indiana jones 4", EntityId::new(0)),
        ("madagascar 2", EntityId::new(1)),
        ("canon eos 350d", EntityId::new(2)),
    ])
    .with_fuzzy(FuzzyConfig::default())
}

fn start(config: ServerConfig) -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(
        Engine::builder(Arc::new(matcher()))
            .cache_shards(4)
            .cache_capacity(256)
            .build(),
    );
    let server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind ephemeral port");
    (engine, server)
}

/// One pipelining HTTP client.
struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Self {
        let conn = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        Self { conn, reader }
    }

    /// The request bytes for one read.
    fn query(q: &str) -> String {
        format!("GET /match?q={} HTTP/1.1\r\n\r\n", percent_encode(q))
    }

    /// The request bytes for one dictionary delta (TSV rows).
    fn delta(tsv: &str) -> String {
        format!(
            "POST /admin/dict/delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n{tsv}",
            tsv.len()
        )
    }

    fn send(&mut self, bytes: &str) {
        self.conn.write_all(bytes.as_bytes()).expect("send");
    }

    /// The JSON body of the next response, which must be a 200.
    fn recv(&mut self) -> String {
        let (status, body) = read_response(&mut self.reader).expect("response");
        assert_eq!(status, 200, "{body}");
        body
    }
}

#[test]
fn hits_are_answered_while_the_worker_is_busy_with_misses() {
    // One worker, kept busy for at least half a second by a pipeline of
    // expensive misses on A: a miss waits its turn, a hit must not.
    let (engine, server) = start(ServerConfig::builder().workers(1).build());
    let m = engine.matcher();
    let warm = "Indy 4 tonight";
    engine.resolve(warm);
    let load = common::busy_queries(&m, Duration::from_millis(500));

    let mut a = Client::connect(&server);
    a.send(&load.iter().map(|q| Client::query(q)).collect::<String>());
    let a_answered = Arc::new(AtomicUsize::new(0));
    let a_reader = {
        let (n, a_answered) = (load.len(), Arc::clone(&a_answered));
        std::thread::spawn(move || {
            (0..n)
                .map(|_| {
                    let body = a.recv();
                    a_answered.fetch_add(1, Ordering::SeqCst);
                    body
                })
                .collect::<Vec<String>>()
        })
    };
    // Wait until every read on A has been probed (the warm-up was the
    // first miss) and queued for the one worker.
    while engine.cache_stats().misses < 1 + load.len() as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut b = Client::connect(&server);
    b.send(&Client::query(warm));
    assert_eq!(b.recv(), spans_json(&m.segment(warm)));
    // Had B's hit queued behind A's misses, at most A's last one could
    // still be in flight here.
    let pending = load.len() - a_answered.load(Ordering::SeqCst);
    assert!(
        pending >= 2,
        "the hit on B waited behind A's misses: only {pending} of {} still pending",
        load.len()
    );
    let bodies = a_reader.join().unwrap();
    for (q, body) in load.iter().zip(&bodies) {
        assert_eq!(*body, spans_json(&m.segment(q)));
    }
    server.shutdown();
}

/// The read mix: hits warmed before the connection opens, misses, and
/// repeats of both; the delta adds `starwars kid` and tombstones
/// `madagascar 2`, so cached entries for both must stop being served.
const POOL: [&str; 10] = [
    "indy 4 near san fran",
    "madagascar 2 showtimes",
    "cheapest cannon eos 350d deals",
    "watch indiana jones 4 and madagascar 2",
    "starwars kid video",
    "starwrs kid remix",
    "nothing to see here",
    "",
    "INDY-4!",
    "canon eos 350d vs indy 4",
];
const DELTA: &str = "starwars kid\t9\nmadagascar 2\t-\n";

#[test]
fn pipelined_hits_and_misses_stay_ordered_and_exact() {
    let (engine, server) = start(ServerConfig::default());
    for q in &POOL[..4] {
        engine.resolve(q);
    }
    let reads: Vec<&str> = (0..120).map(|i| POOL[(i * 7) % POOL.len()]).collect();
    let mut client = Client::connect(&server);

    // Revision 0: the whole mix in one write.
    let before = engine.matcher();
    let burst: String = reads.iter().map(|q| Client::query(q)).collect();
    client.send(&burst);
    for (i, q) in reads.iter().enumerate() {
        assert_eq!(
            client.recv(),
            spans_json(&before.segment(q)),
            "rev 0 read {i} {q:?}"
        );
    }

    // The delta, then the same mix, pipelined in one write: the reader
    // applies the delta before it parses the reads behind it, so they
    // all resolve at revision 1 — hits included.
    let mut burst = Client::delta(DELTA);
    burst.extend(reads.iter().map(|q| Client::query(q)));
    client.send(&burst);
    let ack = client.recv();
    assert!(ack.starts_with("{\"applied\":2,"), "{ack:?}");
    let after = engine.matcher();
    assert_ne!(
        before.segment("madagascar 2 showtimes"),
        after.segment("madagascar 2 showtimes")
    );
    for (i, q) in reads.iter().enumerate() {
        assert_eq!(
            client.recv(),
            spans_json(&after.segment(q)),
            "rev 1 read {i} {q:?}"
        );
    }
    let stats = engine.cache_stats();
    assert!(stats.hits > 0 && stats.promotions > 0, "{stats:?}");
    server.shutdown();
}

/// The integer value of `"field":N` in a flat JSON object.
fn json_u64(json: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {json}"))
        + tag.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

#[test]
fn every_read_is_counted_exactly_once() {
    let (engine, server) = start(ServerConfig::default());
    let mut client = Client::connect(&server);
    let stats = |client: &mut Client| {
        client.send("GET /stats HTTP/1.1\r\n\r\n");
        let body = client.recv();
        (json_u64(&body, "hits"), json_u64(&body, "misses"))
    };
    // One at a time: the first read of each distinct query misses,
    // every later one hits — normalization variants included.
    let reads = [
        "indy 4",
        "INDY 4",
        "madagascar 2",
        "indy 4",
        "nothing",
        "madagascar 2",
        "Nothing!",
    ];
    for q in reads {
        client.send(&Client::query(q));
        assert_eq!(client.recv(), spans_json(&engine.matcher().segment(q)));
    }
    assert_eq!(stats(&mut client), (4, 3));
    // A pipelined burst: whether a repeat hits or misses depends on
    // timing, but each read is probed — and counted — once.
    let burst: String = (0..200)
        .map(|i| Client::query(&format!("canon eos 350d listing {}", i % 50)))
        .collect();
    client.send(&burst);
    for _ in 0..200 {
        client.recv();
    }
    let (hits, misses) = stats(&mut client);
    assert_eq!(hits + misses, 207);
    assert!(misses >= 3 + 50, "{misses}");
    server.shutdown();
}
