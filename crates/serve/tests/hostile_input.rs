//! Hostile input at the two parsers a client can reach — the HTTP
//! request parser and the dictionary-delta TSV — at the connection
//! layer's line accumulation, and at the response reader the cluster
//! router points at its upstreams.
//!
//! - Arbitrary bytes fed as request lines never panic the parser, and a
//!   request it answers without closing leaves framing intact: the next
//!   well-formed request on the same parser parses as itself. Whatever
//!   loses framing must end in a closing reject.
//! - Arbitrary bytes as a delta body never panic the TSV parser, and a
//!   body that fails to parse applies nothing.
//! - A pipelined request stream written in random chunk sizes, cut
//!   inside a multibyte UTF-8 query and stalled past the read timeout,
//!   gets byte-identical responses to the same stream written at once.
//! - Arbitrary bytes as an upstream response, split at arbitrary read
//!   boundaries, never panic `read_response`, never make it allocate
//!   past its caps (or in proportion to a length the bytes only
//!   claim), and give the same result however they are split.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use websyn_common::EntityId;
use websyn_core::{DictDelta, EntityMatcher, FuzzyConfig};
use websyn_serve::http::{
    read_response, spans_json, MAX_RESPONSE_BODY_BYTES, MAX_RESPONSE_LINE_BYTES,
};
use websyn_serve::{Engine, HttpProtocol, Protocol, Request, Server, ServerConfig};

/// Records the largest single allocation each thread makes, so a test
/// can bound what one call allocated.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// `note` only touches a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// The largest single allocation the calling thread makes in `f`.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A reader that hands out its bytes in pieces of the given sizes
/// (cycling), the way a socket returns whatever has arrived.
struct Pieces<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    next: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// `read_response` over `data` split into `sizes` pieces behind a
/// `buffer`-byte `BufReader`, errors reduced to their kind.
fn read_split(
    data: &[u8],
    sizes: &[usize],
    buffer: usize,
) -> Result<(u16, String), std::io::ErrorKind> {
    let pieces = Pieces {
        data,
        sizes,
        next: 0,
    };
    read_response(&mut BufReader::with_capacity(buffer, pieces)).map_err(|e| e.kind())
}

/// Lines an upstream response is made of, including lengths past the
/// body cap and past any allocation.
const RESPONSE_LINES: [&str; 14] = [
    "HTTP/1.1 200 OK\r\n",
    "HTTP/1.0 503 Service Unavailable\r\n",
    "HTTP/2 200 OK\r\n",
    "Content-Length: 5\r\n",
    "content-length: 0\r\n",
    "Content-Length: 67108864\r\n",
    "Content-Length: 67108865\r\n",
    "Content-Length: 99999999999\r\n",
    "Content-Length: 18446744073709551616\r\n",
    "Content-Length: -1\r\n",
    "Content-Type: application/json\r\n",
    "\r\n",
    "\n",
    "{\"spans\":[]}",
];

fn matcher() -> EntityMatcher {
    EntityMatcher::from_pairs(vec![
        ("indy 4", EntityId::new(0)),
        ("madagascar 2", EntityId::new(1)),
        ("canon eos 350d", EntityId::new(2)),
    ])
    .with_fuzzy(FuzzyConfig::default())
}

/// Lines a request parser meets in practice, so random sequences reach
/// the header, body and error states and not only the request line.
const HTTP_LINES: [&str; 18] = [
    "GET /match?q=indy+4 HTTP/1.1",
    "GET /match?q=caf%C3%A9 HTTP/1.0",
    "GET /stats HTTP/1.1",
    "GET /nope HTTP/1.1",
    "DELETE /match?q=a HTTP/1.1",
    "POST /admin/dict/delta HTTP/1.1",
    "POST /match?q=a HTTP/1.1",
    "Content-Length: 7",
    "Content-Length: 0",
    "Content-Length: 99999999999",
    "Content-Length: zz",
    "Transfer-Encoding: chunked",
    "Connection: close",
    "Connection: keep-alive",
    "Host: example",
    "indy\t42",
    "",
    "\r",
];

/// One parser line: a plausible HTTP line, or raw bytes (never `\n` —
/// the connection layer splits on it).
fn line((pick, bytes): &(usize, Vec<u8>)) -> Vec<u8> {
    match HTTP_LINES.get(*pick) {
        Some(l) => l.as_bytes().to_vec(),
        None => bytes.iter().copied().filter(|&b| b != b'\n').collect(),
    }
}

/// Whether a parser that has just answered a request is back at a
/// request boundary: a well-formed request must parse as itself.
fn frames_next_request(lines: &[Vec<u8>]) -> bool {
    let mut parser = HttpProtocol.parser();
    for l in lines {
        let _ = parser.on_line(l);
    }
    parser.on_line(b"GET /stats HTTP/1.1").is_none()
        && parser.on_line(b"") == Some(Request::Stats { close: false })
}

fn closes(request: &Request) -> bool {
    match *request {
        Request::Query { close, .. }
        | Request::Stats { close }
        | Request::Metrics { close }
        | Request::DebugSlow { close }
        | Request::DictDelta { close, .. }
        | Request::Reject { close, .. } => close,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_parser_survives_arbitrary_lines(
        picks in collection::vec(
            (0usize..HTTP_LINES.len() * 2, collection::vec(0u8..=255, 0..40)),
            1..16,
        ),
    ) {
        let lines: Vec<Vec<u8>> = picks.iter().map(line).collect();
        let mut parser = HttpProtocol.parser();
        for (i, l) in lines.iter().enumerate() {
            let Some(request) = parser.on_line(l) else { continue };
            if closes(&request) {
                // The connection ends here; nothing after it is read.
                break;
            }
            prop_assert!(
                frames_next_request(&lines[..=i]),
                "{:?} answered keep-alive but lost framing after {:?}",
                request,
                lines[..=i].iter().map(|l| String::from_utf8_lossy(l)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn delta_tsv_parse_failures_apply_nothing(
        rows in collection::vec(
            (0usize..8, collection::vec(0u8..=255, 0..24)),
            0..8,
        ),
    ) {
        const ROWS: [&str; 5] = ["starwars kid\t9", "indy 4\t-", "a\tb\tc", "\t7", "# comment"];
        let body: Vec<u8> = rows
            .iter()
            .flat_map(|(pick, bytes)| {
                let mut row = ROWS.get(*pick).map_or_else(|| bytes.clone(), |r| r.as_bytes().to_vec());
                row.push(b'\n');
                row
            })
            .collect();
        let tsv = String::from_utf8_lossy(&body);
        let parsed = DictDelta::parse_tsv(&tsv);
        let engine = Engine::builder(Arc::new(matcher())).build();
        let before = (engine.dict_stats(), engine.dict().view().lineage(), engine.resolve("indy 4"));
        match engine.apply_delta_tsv(&tsv) {
            Ok((applied, _)) => prop_assert_eq!(Some(applied), parsed.map(|d| d.len()).ok()),
            Err(_) => {
                prop_assert!(parsed.is_err());
                let after = (engine.dict_stats(), engine.dict().view().lineage(), engine.resolve("indy 4"));
                prop_assert_eq!(after, before);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn response_reader_is_bounded_and_split_invariant(
        picks in collection::vec(
            (0usize..RESPONSE_LINES.len() * 2, collection::vec(0u8..=255, 0..24)),
            0..12,
        ),
        sizes in collection::vec(1usize..64, 1..8),
        buffer in 1usize..64,
    ) {
        let data: Vec<u8> = picks
            .iter()
            .flat_map(|(pick, bytes)| match RESPONSE_LINES.get(*pick) {
                Some(l) => l.as_bytes().to_vec(),
                None => bytes.clone(),
            })
            .collect();
        let (whole, largest) = largest_allocation(|| read_split(&data, &[data.len().max(1)], 8192));
        // Whatever a length header claims, the reader allocates for the
        // bytes it was given, its buffer and a little slack.
        prop_assert!(largest <= MAX_RESPONSE_BODY_BYTES, "{}", largest);
        prop_assert!(largest <= 2 * data.len() + 8192 + 64, "{} for {} bytes", largest, data.len());
        let split = read_split(&data, &sizes, buffer);
        prop_assert_eq!(&split, &whole, "{:?}", String::from_utf8_lossy(&data));
    }
}

#[test]
fn response_reader_rejects_oversized_lines_and_bodies() {
    let long_line = format!("HTTP/1.1 200 OK {}", "x".repeat(MAX_RESPONSE_LINE_BYTES));
    let (result, largest) = largest_allocation(|| read_split(long_line.as_bytes(), &[4096], 8192));
    assert_eq!(result, Err(std::io::ErrorKind::InvalidData));
    assert!(largest <= 2 * MAX_RESPONSE_LINE_BYTES, "{largest}");
    let long_header = format!(
        "HTTP/1.1 200 OK\r\nX: {}\r\n\r\n",
        "y".repeat(MAX_RESPONSE_LINE_BYTES)
    );
    assert_eq!(
        read_split(long_header.as_bytes(), &[4096], 8192),
        Err(std::io::ErrorKind::InvalidData)
    );
    let over = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
        MAX_RESPONSE_BODY_BYTES + 1
    );
    assert_eq!(
        read_split(over.as_bytes(), &[4096], 8192),
        Err(std::io::ErrorKind::InvalidData)
    );
    // A length at the cap with a short body is a short read, paid for
    // by the bytes that came, not by the length announced.
    let short = format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_RESPONSE_BODY_BYTES}\r\n\r\nabc");
    let (result, largest) = largest_allocation(|| read_split(short.as_bytes(), &[4096], 8192));
    assert_eq!(result, Err(std::io::ErrorKind::UnexpectedEof));
    assert!(largest < 1 << 16, "{largest}");
    // The cap counts the newline: a header line of exactly the cap
    // reads, one byte more does not.
    let at_cap = |extra: usize| {
        let value = "z".repeat(MAX_RESPONSE_LINE_BYTES - "X: \r\n".len() + extra);
        let response = format!("HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX: {value}\r\n\r\nabc");
        read_split(response.as_bytes(), &[4096], 8192)
    };
    assert_eq!(at_cap(0), Ok((200, "abc".to_string())));
    assert_eq!(at_cap(1), Err(std::io::ErrorKind::InvalidData));
}

/// A small deterministic generator for chunk sizes and stalls.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Writes `stream` on a fresh connection, cut at `cuts` (ascending byte
/// offsets), stalling `stall` after each cut, and reads to EOF.
fn exchange(addr: std::net::SocketAddr, stream: &[u8], cuts: &[(usize, Duration)]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut from = 0;
    for &(cut, stall) in cuts.iter().chain([(stream.len(), Duration::ZERO)].iter()) {
        conn.write_all(&stream[from..cut]).expect("send");
        conn.flush().expect("flush");
        std::thread::sleep(stall);
        from = cut;
    }
    let mut out = Vec::new();
    conn.read_to_end(&mut out).expect("read to EOF");
    out
}

#[test]
fn chunked_stream_gets_the_same_bytes_as_the_whole_stream() {
    let engine = Arc::new(Engine::builder(Arc::new(matcher())).build());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    // Raw (unescaped) UTF-8 in the request target is passed through by
    // the parser, so a read boundary can fall inside a query character.
    let queries = [
        "café indy 4 tickets",
        "madagascar 2 über alles",
        "cannon eos 350d",
        "nothing here",
    ];
    let mut stream = String::new();
    for q in queries {
        let target = q.replace(' ', "+");
        stream.push_str(&format!("GET /match?q={target} HTTP/1.1\r\n\r\n"));
    }
    stream.push_str("GET /nope HTTP/1.1\r\n\r\n");
    stream.push_str("GET /match?q=indy+4 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let stream = stream.into_bytes();

    let whole = exchange(server.addr(), &stream, &[]);
    let mut reader = whole.as_slice();
    for q in queries {
        assert_eq!(
            read_response(&mut reader).expect("response"),
            (200, spans_json(&engine.matcher().segment(q))),
            "{q:?}"
        );
    }
    assert_eq!(read_response(&mut reader).expect("404").0, 404);
    assert_eq!(read_response(&mut reader).expect("last").0, 200);
    assert!(reader.is_empty(), "nothing after the close-marked response");

    // Inside the two-byte 'é' of the first query.
    let split = stream
        .windows(2)
        .position(|w| w == "é".as_bytes())
        .expect("é")
        + 1;
    for seed in 1..=4u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut cuts = Vec::new();
        let mut at = 0;
        loop {
            at += 1 + rng.below(23) as usize;
            if at >= stream.len() {
                break;
            }
            // Every cut flushes a short write; now and then one stalls
            // past the server's 25ms read timeout.
            let stall = if rng.below(8) == 0 { 40 } else { 1 };
            cuts.push((at, Duration::from_millis(stall)));
        }
        cuts.retain(|&(cut, _)| cut != split);
        cuts.push((split, Duration::from_millis(40)));
        cuts.sort_unstable_by_key(|&(cut, _)| cut);
        assert_eq!(
            exchange(server.addr(), &stream, &cuts),
            whole,
            "seed {seed}: chunked stream answered differently"
        );
    }
    server.shutdown();
}
