//! Std-only HTTP/1.1 front end: the wire format and its [`Protocol`]
//! implementation.
//!
//! The server speaks a format every standard load-testing and routing
//! tool understands (`curl`, `oha`, `wrk`, reverse proxies):
//!
//! ```text
//! GET /match?q=<percent-encoded query>   → 200, JSON span response
//! GET /stats                             → 200, JSON cache statistics
//! GET /metrics                           → 200, Prometheus text exposition
//! GET /debug/slow                        → 200, JSON slow-query trace
//! POST /admin/dict/delta                 → 200, JSON delta acknowledgement
//! ```
//!
//! `POST /admin/dict/delta` is the live-update control plane: the
//! request body is a `Content-Length`-framed dictionary delta TSV
//! ([`websyn_core::DictDelta::parse_tsv`] — `surface TAB entity`
//! upserts, `surface TAB -` tombstones, newline-separated), applied to
//! the serving dictionary *before* the 200 is written — no restart, no
//! base recompile. Bodies should be newline-terminated; a final
//! unterminated row is accepted only when `Content-Length` ends
//! exactly at it. An unparseable delta answers `400` and applies
//! nothing.
//!
//! The 200 response body for `/match` is
//!
//! ```json
//! {"spans":[{"start":0,"end":2,"entity":7,"distance":0,"surface":"indy 4"}]}
//! ```
//!
//! with `start`/`end` token indices into the *normalized* query,
//! `entity` the raw entity id, `distance` the verified edit distance
//! (0 = exact) and `surface` the dictionary surface the mention
//! resolved to. The whole response is rendered once, on the cache miss
//! that filled the entry ([`crate::Rendered`]), so a hit writes it
//! verbatim.
//!
//! Error mapping (see [`Reject`]):
//!
//! | condition | status |
//! |---|---|
//! | queue full (backpressure) | `503` |
//! | shutting down | `503` |
//! | request line over the cap | `431` |
//! | unparseable request | `400` |
//! | unknown endpoint | `404` |
//! | unsupported method | `405` |
//!
//! Supported: persistent connections (HTTP/1.1 keep-alive is the
//! default; `Connection: close` and HTTP/1.0 close after the
//! response), pipelined GETs (responses are re-sequenced into request
//! order by the connection writer), percent-decoding (`%xx` and
//! `+` for space) of the `q` parameter — which may sit at any position
//! in the `&`-separated query string (`/match?verbose=1&q=a`); a
//! duplicated `q` is ambiguous and answered `400`, as is any broken
//! percent escape. Deliberately out of scope:
//! request bodies anywhere but `POST /admin/dict/delta` (a GET with
//! `Content-Length`/`Transfer-Encoding` is answered `400` and the
//! connection dropped, since the body would desynchronize request
//! framing), chunked encoding, TLS, and multiplexed HTTP/2 — the
//! serving stack stays std-only.
//!
//! Responses do not emit a `Connection` header: for HTTP/1.1 the
//! absence means keep-alive, and a close-marked exchange is terminated
//! by actually closing the socket after the response is flushed —
//! `Content-Length` keeps the body unambiguous either way.

use crate::cache::CacheStats;
use crate::protocol::{Protocol, Reject, Request, RequestParser};
use std::io::{self, BufRead, Read};
use std::sync::Arc;
use websyn_core::{DictStats, MatchSpan, WindowCacheStats};

/// Renders a complete HTTP/1.1 response: status line, headers, body.
/// Every websyn response is `Content-Length`-framed JSON — except the
/// Prometheus `/metrics` exposition, which goes through
/// [`response_with_type`] to carry `text/plain`.
pub fn response(status: u16, reason: &str, body: &str) -> String {
    response_with_type(status, reason, "application/json", body)
}

/// [`response`] with an explicit `Content-Type` — the general
/// constructor behind every response the protocol writes.
pub fn response_with_type(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Escapes `s` into `out` as JSON string contents (without the
/// surrounding quotes). Dictionary surfaces are normalized (lowercase
/// word characters and single spaces) so the escapes never fire for
/// them, but the renderer stays correct for any input.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serializes a segmentation result as the `/match` JSON body — the
/// only span serializer in the stack, so cached and uncached responses
/// are byte-identical by construction.
pub fn spans_json(spans: &[MatchSpan]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"start\":{},\"end\":{},\"entity\":{},\"distance\":{},\"surface\":\"",
            s.start,
            s.end,
            s.entity.raw(),
            s.distance
        );
        json_escape_into(&mut out, s.surface());
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Serializes cache statistics as the `/stats` JSON body. `window` carries the
/// matcher's cross-batch window-cache counters
/// ([`websyn_core::EntityMatcher::with_window_cache`]); the fields are
/// always present (zero when no cache is attached) so the router's
/// fixed-grammar aggregation never special-cases their absence.
pub fn stats_json(
    stats: &CacheStats,
    swaps: u64,
    window: Option<WindowCacheStats>,
    dict: DictStats,
    uptime_seconds: u64,
) -> String {
    let window = window.unwrap_or_default();
    format!(
        "{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4},\"entries\":{},\"evictions\":{},\"swaps\":{},\"window_hits\":{},\"window_misses\":{},\"segments\":{},\"delta_upserts\":{},\"delta_tombstones\":{},\"epoch\":{},\"compactions\":{},\"uptime_seconds\":{}}}",
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.entries,
        stats.evictions,
        swaps,
        window.hits,
        window.misses,
        dict.segments,
        dict.delta_upserts,
        dict.delta_tombstones,
        dict.epoch,
        dict.compactions,
        uptime_seconds,
    )
}

/// Serializes a dictionary-delta acknowledgement as the
/// `POST /admin/dict/delta` 200 body: how many ops the delta carried,
/// plus where the applied delta left the dictionary lifecycle.
pub fn dict_delta_json(applied: usize, dict: &DictStats) -> String {
    format!(
        "{{\"applied\":{},\"segments\":{},\"delta_upserts\":{},\"delta_tombstones\":{},\"epoch\":{},\"revision\":{},\"compactions\":{}}}",
        applied,
        dict.segments,
        dict.delta_upserts,
        dict.delta_tombstones,
        dict.epoch,
        dict.revision,
        dict.compactions,
    )
}

/// Percent-decodes a query-string component: `+` is space, `%xx` is a
/// byte, anything else passes through. Returns `None` on any broken
/// escape — a truncated escape at the end of the string (`a%2`), a
/// lone trailing `%`, or non-hex escape digits (`%zz`) — and the
/// caller maps `None` to a `400`: a broken escape never panics and
/// never passes through as literal text. Decoded bytes are interpreted
/// as UTF-8, lossily.
pub fn percent_decode(s: &str) -> Option<String> {
    let raw = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = raw.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Some(String::from_utf8_lossy(&out).into_owned())
}

/// Percent-encodes a string for use as a query-string value: unreserved
/// characters (RFC 3986) pass through, space becomes `+`, everything
/// else becomes `%XX`. The client-side inverse of [`percent_decode`] —
/// used by the smoke test, the conformance tests and the load
/// generator to put arbitrary queries on a request line.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => {
                use std::fmt::Write;
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// Longest status or header line [`read_response`] accepts, newline
/// included. Every line this crate writes is a few dozen bytes.
pub const MAX_RESPONSE_LINE_BYTES: usize = 64 << 10;

/// Largest body [`read_response`] accepts: far above the largest
/// response this crate produces, a fleet-wide `/metrics` page.
pub const MAX_RESPONSE_BODY_BYTES: usize = 64 << 20;

/// Reads one `Content-Length`-framed HTTP response off `reader` and
/// returns `(status, body)` — a minimal std-only client, enough to
/// drive this crate's own server and the cluster router's upstream
/// side (every websyn response is `Content-Length`-framed). Accepts
/// both `HTTP/1.1` and `HTTP/1.0` status lines — an upstream honoring
/// a 1.0 request downgrades its response version, and rejecting it
/// would make the proxy path version-fragile. Fails on any other
/// version, a malformed status line, a missing/broken
/// `Content-Length`, or a short read.
///
/// The peer is not trusted: a line longer than
/// [`MAX_RESPONSE_LINE_BYTES`] or a `Content-Length` above
/// [`MAX_RESPONSE_BODY_BYTES`] fails with `InvalidData`, and the body
/// buffer grows with the bytes that actually arrive, not with the
/// length the peer announced.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, String)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if read_capped_line(reader, &mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        read_capped_line(reader, &mut line)?;
        let header = line.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| bad("bad length"))?);
            }
        }
    }
    let length = content_length.ok_or_else(|| bad("missing content-length"))?;
    if length > MAX_RESPONSE_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = Vec::new();
    reader.by_ref().take(length as u64).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| bad("non-utf8 body"))
}

/// `read_line`, failing with `InvalidData` once a line reaches
/// [`MAX_RESPONSE_LINE_BYTES`] without a newline.
fn read_capped_line<R: BufRead>(reader: &mut R, line: &mut String) -> io::Result<usize> {
    let n = reader
        .by_ref()
        .take(MAX_RESPONSE_LINE_BYTES as u64)
        .read_line(line)?;
    if n == MAX_RESPONSE_LINE_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response line too long",
        ));
    }
    Ok(n)
}

/// Upper bound on header lines per request head — far above anything a
/// real client sends, low enough that a drip-feed of headers cannot
/// hold a request open forever.
const MAX_HEADER_LINES: usize = 100;

/// Upper bound on a `POST /admin/dict/delta` body. Deltas are
/// incremental by design — a payload near this size should be a new
/// base artifact rolled via the cluster instead; beyond it the request
/// is answered `431` and the connection dropped (the body is unread).
const MAX_DELTA_BODY_BYTES: usize = 4 << 20;

/// The one endpoint that accepts a request body.
const DELTA_PATH: &str = "/admin/dict/delta";

/// The HTTP/1.1 transport: the [`Protocol`] implementation that frames
/// requests, plus the renderers of every response the server writes
/// besides `/match` (which [`crate::Engine`] renders once per cache
/// fill). See the module docs for the endpoint map and error mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpProtocol;

impl Protocol for HttpProtocol {
    fn parser(&self) -> Box<dyn RequestParser> {
        Box::new(HttpParser::default())
    }
}

impl HttpProtocol {
    /// Renders a semantic reject as a complete response.
    pub(crate) fn render_reject(&self, reject: Reject) -> Arc<str> {
        let (status, reason, error) = match reject {
            Reject::Busy => (503, "Service Unavailable", "busy"),
            Reject::Shutdown => (503, "Service Unavailable", "shutting-down"),
            Reject::TooLarge => (431, "Request Header Fields Too Large", "line-too-long"),
            Reject::Malformed => (400, "Bad Request", "malformed"),
            Reject::NotFound => (404, "Not Found", "not-found"),
            Reject::Method => (405, "Method Not Allowed", "method-not-allowed"),
        };
        Arc::from(response(status, reason, &format!("{{\"error\":\"{error}\"}}")).as_str())
    }

    /// Renders the `/stats` response; see [`stats_json`] for the
    /// arguments.
    pub(crate) fn render_stats(
        &self,
        stats: &CacheStats,
        swaps: u64,
        window: Option<WindowCacheStats>,
        dict: DictStats,
        uptime_seconds: u64,
    ) -> Arc<str> {
        Arc::from(
            response(
                200,
                "OK",
                &stats_json(stats, swaps, window, dict, uptime_seconds),
            )
            .as_str(),
        )
    }

    /// Renders the acknowledgement of an applied dictionary delta:
    /// `applied` is the op count of the delta, `dict` the post-apply
    /// lifecycle counters.
    pub(crate) fn render_dict_delta(&self, applied: usize, dict: &DictStats) -> Arc<str> {
        Arc::from(response(200, "OK", &dict_delta_json(applied, dict)).as_str())
    }

    /// Wraps an assembled Prometheus text exposition as the `/metrics`
    /// response.
    pub(crate) fn render_metrics(&self, body: &str) -> Arc<str> {
        // Prometheus text exposition, not JSON.
        Arc::from(response_with_type(200, "OK", "text/plain; version=0.0.4", body).as_str())
    }

    /// Wraps the slow-query trace JSON as the `/debug/slow` response.
    pub(crate) fn render_slow(&self, body: &str) -> Arc<str> {
        Arc::from(response(200, "OK", body).as_str())
    }
}

/// What the parser knows about the request head accumulated so far.
#[derive(Default)]
struct HttpParser {
    /// The parsed request line (`None` until one arrives; leading
    /// blank lines are tolerated per RFC 9112 §2.2).
    target: Option<String>,
    /// Headers seen so far.
    header_lines: usize,
    /// Close after responding (HTTP/1.0 default, or
    /// `Connection: close`).
    close: bool,
    /// A reject decided mid-head (bad method, a body announced);
    /// still answered only once the head ends, so framing holds.
    bad: Option<Reject>,
    /// A reject that also loses framing — answered immediately.
    fatal: bool,
    /// The request is `POST /admin/dict/delta`: the one shape allowed
    /// to announce a body.
    delta_post: bool,
    /// The announced `Content-Length` of a delta post.
    content_length: usize,
    /// Body bytes still owed once the head has ended; `> 0` means the
    /// parser is in body mode and lines are body rows, not headers.
    body_remaining: usize,
    /// Accumulated body rows (newlines restored between them).
    body: String,
}

impl HttpParser {
    fn reset(&mut self) -> Option<Request> {
        let close = self.close;
        let bad = self.bad;
        let target = self.target.take();
        *self = Self::default();
        if let Some(reject) = bad {
            return Some(Request::Reject {
                reject,
                // A body we will not read desynchronizes framing, so
                // `bad` rejects close; pure method/endpoint errors
                // kept framing and honor keep-alive.
                close: close || reject == Reject::Malformed || reject == Reject::TooLarge,
            });
        }
        Some(route(&target?, close))
    }

    fn fatal(&mut self) -> Option<Request> {
        self.fatal = true;
        Some(Request::Reject {
            reject: Reject::Malformed,
            close: true,
        })
    }
}

/// Extracts the raw (still percent-encoded) `q` value from an
/// `&`-separated query string. `q` may sit at any position among other
/// parameters (`verbose=1&q=a&trace=0`); unknown keys are ignored.
/// Returns `None` — a malformed request — when `q` is absent, has no
/// `=` (a bare `q` key carries no value to decode), or appears more
/// than once: with duplicates there is no principled winner, and
/// silently picking one would make `?q=a&q=b` resolve differently from
/// what at least one of the two senders meant, so the policy is an
/// explicit `400`.
fn query_param(query_string: &str) -> Option<&str> {
    let mut q = None;
    for pair in query_string.split('&') {
        if let Some((key, value)) = pair.split_once('=') {
            if key == "q" && q.replace(value).is_some() {
                return None; // duplicate q: ambiguous, reject
            }
        } else if pair == "q" {
            return None; // bare `q` with no `=`: no value to decode
        }
    }
    q
}

/// Maps a request target onto the endpoint table.
fn route(target: &str, close: bool) -> Request {
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/match" => {
            let q = query_string.and_then(query_param).map(percent_decode);
            match q {
                Some(Some(query)) => Request::Query { query, close },
                // `q` missing/duplicated or with a broken escape: a
                // client error, but framing is intact — keep the
                // connection.
                _ => Request::Reject {
                    reject: Reject::Malformed,
                    close,
                },
            }
        }
        "/stats" => Request::Stats { close },
        "/metrics" => Request::Metrics { close },
        "/debug/slow" => Request::DebugSlow { close },
        // The delta endpoint is POST-only (it mutates the dictionary);
        // a GET that reaches routing used the wrong method.
        DELTA_PATH => Request::Reject {
            reject: Reject::Method,
            close,
        },
        _ => Request::Reject {
            reject: Reject::NotFound,
            close,
        },
    }
}

impl RequestParser for HttpParser {
    fn on_line(&mut self, raw: &[u8]) -> Option<Request> {
        if self.fatal {
            // Framing is gone; the connection is being torn down.
            return None;
        }

        if self.body_remaining > 0 {
            // Body mode: `raw` is a delta row, counted against
            // Content-Length with the newline the connection layer
            // stripped (`+ 1`).
            let consumed = raw.len() + 1;
            if consumed < self.body_remaining {
                self.body.push_str(&String::from_utf8_lossy(raw));
                self.body.push('\n');
                self.body_remaining -= consumed;
                return None;
            }
            // Complete: either the newline lands exactly on the
            // announced length, or the length ends at the row itself —
            // a final unterminated row (e.g. `curl --data` without a
            // trailing newline, or a body flushed at EOF).
            if consumed == self.body_remaining || raw.len() == self.body_remaining {
                self.body.push_str(&String::from_utf8_lossy(raw));
                if consumed == self.body_remaining {
                    self.body.push('\n');
                }
                let body = std::mem::take(&mut self.body);
                let close = self.close;
                *self = Self::default();
                return Some(Request::DictDelta { body, close });
            }
            // The announced length ends mid-row: whatever follows
            // cannot be re-framed as a request line.
            return self.fatal();
        }

        let line = String::from_utf8_lossy(raw);
        let line = line.trim_end_matches('\r');

        if self.target.is_none() && self.bad.is_none() {
            // Awaiting the request line; tolerate leading blank lines.
            if line.is_empty() {
                return None;
            }
            let mut parts = line.split(' ');
            let (method, target, version) = (parts.next(), parts.next(), parts.next());
            let (Some(method), Some(target), Some(version), None) =
                (method, target, version, parts.next())
            else {
                return self.fatal();
            };
            self.close = match version {
                "HTTP/1.1" => false,
                "HTTP/1.0" => true,
                _ => return self.fatal(),
            };
            if !target.starts_with('/') {
                return self.fatal();
            }
            match method {
                "GET" => {}
                // The delta endpoint is the one POST target; its body
                // is Content-Length framed, so framing holds.
                "POST" if target == DELTA_PATH => self.delta_post = true,
                _ => self.bad = Some(Reject::Method),
            }
            self.target = Some(target.to_string());
            return None;
        }

        if line.is_empty() {
            // End of head: the request is complete — except a clean
            // delta post, which still owes its body.
            if self.delta_post && self.bad.is_none() {
                if self.content_length == 0 {
                    let close = self.close;
                    *self = Self::default();
                    return Some(Request::DictDelta {
                        body: String::new(),
                        close,
                    });
                }
                self.body_remaining = self.content_length;
                return None;
            }
            return self.reset();
        }

        // A header line.
        self.header_lines += 1;
        if self.header_lines > MAX_HEADER_LINES {
            return self.fatal();
        }
        let Some((name, value)) = line.split_once(':') else {
            return self.fatal();
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                for token in value.split(',') {
                    match token.trim().to_ascii_lowercase().as_str() {
                        "close" => self.close = true,
                        "keep-alive" => self.close = false,
                        _ => {}
                    }
                }
            }
            // A delta post's body is read against Content-Length; an
            // unparseable or oversized length cannot be skipped past,
            // so those lose framing.
            "content-length" if self.delta_post => match value.parse::<usize>() {
                Ok(n) if n <= MAX_DELTA_BODY_BYTES => self.content_length = n,
                Ok(_) => self.bad = Some(Reject::TooLarge),
                Err(_) => return self.fatal(),
            },
            // Any announced body would desynchronize GET framing: we
            // would parse body bytes as the next request line. Refuse.
            "content-length" if value != "0" => self.bad = Some(Reject::Malformed),
            "transfer-encoding" => self.bad = Some(Reject::Malformed),
            _ => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websyn_common::EntityId;
    use websyn_core::{EntityMatcher, FuzzyConfig};

    fn feed(parser: &mut Box<dyn RequestParser>, lines: &[&str]) -> Vec<Request> {
        lines
            .iter()
            .filter_map(|l| parser.on_line(l.as_bytes()))
            .collect()
    }

    #[test]
    fn get_match_parses_and_percent_decodes() {
        let mut p = HttpProtocol.parser();
        let got = feed(
            &mut p,
            &["GET /match?q=indy%204+near+sf HTTP/1.1", "Host: x", ""],
        );
        assert_eq!(
            got,
            vec![Request::Query {
                query: "indy 4 near sf".to_string(),
                close: false,
            }]
        );
        // Keep-alive: the same parser frames the next request.
        let got = feed(&mut p, &["GET /stats HTTP/1.1", ""]);
        assert_eq!(got, vec![Request::Stats { close: false }]);
    }

    #[test]
    fn connection_close_and_http10_mark_the_request() {
        let mut p = HttpProtocol.parser();
        let got = feed(
            &mut p,
            &["GET /match?q=a HTTP/1.1", "Connection: close", ""],
        );
        assert_eq!(
            got,
            vec![Request::Query {
                query: "a".to_string(),
                close: true,
            }]
        );
        let mut p = HttpProtocol.parser();
        let got = feed(&mut p, &["GET /match?q=a HTTP/1.0", ""]);
        assert_eq!(
            got,
            vec![Request::Query {
                query: "a".to_string(),
                close: true,
            }]
        );
        // HTTP/1.0 with explicit keep-alive stays open.
        let mut p = HttpProtocol.parser();
        let got = feed(
            &mut p,
            &["GET /match?q=a HTTP/1.0", "Connection: Keep-Alive", ""],
        );
        assert_eq!(
            got,
            vec![Request::Query {
                query: "a".to_string(),
                close: false,
            }]
        );
    }

    #[test]
    fn errors_map_to_the_right_rejects() {
        // Unknown endpoint: 404, connection survives.
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(&mut p, &["GET /nope HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::NotFound,
                close: false,
            }]
        );
        // Bad method: 405 after the head completes.
        assert_eq!(
            feed(&mut p, &["DELETE /match?q=a HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::Method,
                close: false,
            }]
        );
        // Missing q / broken escape: 400, framing intact.
        assert_eq!(
            feed(&mut p, &["GET /match HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: false,
            }]
        );
        assert_eq!(
            feed(&mut p, &["GET /match?q=bad%zz HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: false,
            }]
        );
        // Garbage request line: fatal, close, and the parser goes
        // silent (framing is unrecoverable).
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(&mut p, &["this is not http"]),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: true,
            }]
        );
        assert_eq!(p.on_line(b"GET /match?q=a HTTP/1.1"), None);
        // A request announcing a body: 400 + close (framing would
        // desynchronize on the unread body).
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(
                &mut p,
                &["POST /match?q=a HTTP/1.1", "Content-Length: 5", ""],
            ),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: true,
            }]
        );
    }

    #[test]
    fn post_delta_frames_a_content_length_body() {
        // Two rows, newline-terminated: Content-Length covers the
        // bytes exactly.
        let mut p = HttpProtocol.parser();
        let body = "indy five\t7\nold name\t-\n";
        let head = format!("Content-Length: {}", body.len());
        let got = feed(
            &mut p,
            &[
                "POST /admin/dict/delta HTTP/1.1",
                &head,
                "",
                "indy five\t7",
                "old name\t-",
            ],
        );
        assert_eq!(
            got,
            vec![Request::DictDelta {
                body: body.to_string(),
                close: false,
            }]
        );
        // Keep-alive: the same parser frames the next request.
        let got = feed(&mut p, &["GET /stats HTTP/1.1", ""]);
        assert_eq!(got, vec![Request::Stats { close: false }]);
    }

    #[test]
    fn post_delta_accepts_a_final_unterminated_row() {
        // Content-Length ends exactly at the row (no trailing \n) —
        // the `curl --data` shape.
        let mut p = HttpProtocol.parser();
        let got = feed(
            &mut p,
            &[
                "POST /admin/dict/delta HTTP/1.1",
                "Content-Length: 7",
                "",
                "indy\t42",
            ],
        );
        assert_eq!(
            got,
            vec![Request::DictDelta {
                body: "indy\t42".to_string(),
                close: false,
            }]
        );
        // Keep-alive holds: the consumed newline was the terminator of
        // the unterminated row, so the next request frames cleanly.
        assert_eq!(
            feed(&mut p, &["GET /stats HTTP/1.1", ""]),
            vec![Request::Stats { close: false }]
        );
    }

    #[test]
    fn post_delta_edge_cases_keep_or_lose_framing_correctly() {
        // Empty delta (Content-Length absent or 0): answered at the
        // blank line with an empty body.
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(&mut p, &["POST /admin/dict/delta HTTP/1.1", ""]),
            vec![Request::DictDelta {
                body: String::new(),
                close: false,
            }]
        );
        // GET on the delta endpoint: wrong method, keep-alive holds.
        assert_eq!(
            feed(&mut p, &["GET /admin/dict/delta HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::Method,
                close: false,
            }]
        );
        // POST anywhere else is still an unsupported method.
        assert_eq!(
            feed(&mut p, &["POST /stats HTTP/1.1", ""]),
            vec![Request::Reject {
                reject: Reject::Method,
                close: false,
            }]
        );
        // A length that ends mid-row loses framing: fatal 400 + close,
        // and the parser goes silent.
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(
                &mut p,
                &[
                    "POST /admin/dict/delta HTTP/1.1",
                    "Content-Length: 3",
                    "",
                    "a\tlonger than three",
                ],
            ),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: true,
            }]
        );
        assert_eq!(p.on_line(b"GET /stats HTTP/1.1"), None);
        // An oversized announced body is refused without reading it.
        let mut p = HttpProtocol.parser();
        let huge = format!("Content-Length: {}", MAX_DELTA_BODY_BYTES + 1);
        assert_eq!(
            feed(&mut p, &["POST /admin/dict/delta HTTP/1.1", &huge, ""]),
            vec![Request::Reject {
                reject: Reject::TooLarge,
                close: true,
            }]
        );
        // A non-numeric length cannot be skipped past: fatal.
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(
                &mut p,
                &["POST /admin/dict/delta HTTP/1.1", "Content-Length: zz"],
            ),
            vec![Request::Reject {
                reject: Reject::Malformed,
                close: true,
            }]
        );
    }

    #[test]
    fn percent_decode_handles_escapes_plus_and_errors() {
        assert_eq!(percent_decode("indy%204"), Some("indy 4".to_string()));
        assert_eq!(percent_decode("a+b"), Some("a b".to_string()));
        assert_eq!(percent_decode("%2B"), Some("+".to_string()));
        assert_eq!(percent_decode("caf%C3%A9"), Some("café".to_string()));
        assert_eq!(percent_decode("plain"), Some("plain".to_string()));
        // Broken escapes in every position map to None (→ 400), never
        // a panic or a silent literal pass-through.
        assert_eq!(percent_decode("bad%2"), None, "truncated escape at end");
        assert_eq!(percent_decode("bad%zz"), None, "non-hex escape");
        assert_eq!(percent_decode("%z2"), None, "non-hex first digit");
        assert_eq!(percent_decode("%"), None, "lone %");
        assert_eq!(percent_decode("a%"), None, "trailing %");
        assert_eq!(percent_decode("%%20"), None, "% escaping itself");
        assert_eq!(percent_decode("a%2%30"), None, "truncated mid-string");
        // Invalid UTF-8 after decoding is lossy, not an error.
        assert_eq!(percent_decode("%FF"), Some("\u{fffd}".to_string()));
    }

    #[test]
    fn query_param_accepts_q_anywhere_and_rejects_ambiguity() {
        // q at any position among &-separated parameters.
        assert_eq!(query_param("q=a"), Some("a"));
        assert_eq!(query_param("verbose=1&q=a"), Some("a"));
        assert_eq!(query_param("q=a&verbose=1"), Some("a"));
        assert_eq!(query_param("x=1&q=a&y=2"), Some("a"));
        assert_eq!(query_param("q="), Some(""), "empty value is a value");
        // Keys that merely start with q are not q.
        assert_eq!(query_param("qq=a"), None);
        assert_eq!(query_param("quiet=1"), None);
        // Missing, bare, or duplicated q is ambiguous → malformed.
        assert_eq!(query_param(""), None);
        assert_eq!(query_param("verbose=1"), None);
        assert_eq!(query_param("q"), None, "bare q has no value");
        assert_eq!(query_param("q&verbose=1"), None);
        assert_eq!(query_param("q=a&q=b"), None, "duplicate q");
        assert_eq!(query_param("q=a&q=a"), None, "even identical dupes");
    }

    #[test]
    fn route_extracts_q_from_any_position() {
        for target in [
            "/match?q=indy+4",
            "/match?verbose=1&q=indy+4",
            "/match?q=indy+4&verbose=1",
            "/match?a=b&q=indy+4&c=d",
        ] {
            assert_eq!(
                route(target, false),
                Request::Query {
                    query: "indy 4".to_string(),
                    close: false,
                },
                "{target}"
            );
        }
        for target in [
            "/match?q=a&q=b",       // duplicate q
            "/match?q",             // bare q
            "/match?qq=a",          // no q at all
            "/match?verbose=1",     // no q at all
            "/match?q=a&q=%zz",     // duplicate beats even a broken dupe
            "/match?verbose=1&q=%", // broken escape in a later position
        ] {
            assert_eq!(
                route(target, false),
                Request::Reject {
                    reject: Reject::Malformed,
                    close: false,
                },
                "{target}"
            );
        }
    }

    #[test]
    fn spans_json_renders_every_span_field() {
        assert_eq!(spans_json(&[]), "{\"spans\":[]}");
        let m = EntityMatcher::from_pairs(vec![
            ("indy 4", EntityId::new(7)),
            ("madagascar 2", EntityId::new(1)),
        ])
        .with_fuzzy(FuzzyConfig::default());
        let spans = m.segment("indy 4 and madagascar 2");
        assert_eq!(
            spans_json(&spans),
            "{\"spans\":[\
             {\"start\":0,\"end\":2,\"entity\":7,\"distance\":0,\"surface\":\"indy 4\"},\
             {\"start\":3,\"end\":5,\"entity\":1,\"distance\":0,\"surface\":\"madagascar 2\"}\
             ]}"
        );
        let fuzzy = m.segment("madagasacr 2");
        assert_eq!(
            spans_json(&fuzzy),
            "{\"spans\":[{\"start\":0,\"end\":2,\"entity\":1,\"distance\":1,\"surface\":\"madagascar 2\"}]}"
        );
    }

    #[test]
    fn percent_encode_round_trips_through_decode() {
        for s in ["indy 4", "caf\u{e9}+50%", "a&b=c", "~plain-text_1.2", ""] {
            assert_eq!(percent_decode(&percent_encode(s)).as_deref(), Some(s));
        }
        // Reserved characters never survive un-escaped.
        assert_eq!(percent_encode("a&b=c d+e"), "a%26b%3Dc+d%2Be");
    }

    #[test]
    fn read_response_parses_a_framed_response() {
        let raw = response(503, "Service Unavailable", "{\"error\":\"busy\"}");
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (status, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, "{\"error\":\"busy\"}");
        // Two back-to-back responses frame cleanly (pipelining).
        let two = [response(200, "OK", "{}"), response(404, "Not Found", "[]")].concat();
        let mut reader = std::io::BufReader::new(two.as_bytes());
        assert_eq!(read_response(&mut reader).unwrap(), (200, "{}".to_string()));
        assert_eq!(read_response(&mut reader).unwrap(), (404, "[]".to_string()));
    }

    #[test]
    fn read_response_accepts_http10_status_lines() {
        // The router reuses this client path; an HTTP/1.0 upstream
        // response must parse just like 1.1.
        let raw = "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        assert_eq!(read_response(&mut reader).unwrap(), (200, "{}".to_string()));
    }

    #[test]
    fn read_response_rejects_malformed_status_lines() {
        for raw in [
            "HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n", // unsupported version
            "HTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", // typo'd protocol
            "HTTP/1.1\r\nContent-Length: 0\r\n\r\n",      // no status code
            "HTTP/1.1 abc Bad\r\nContent-Length: 0\r\n\r\n", // non-numeric status
            "HTTP/1.1 99999 Big\r\nContent-Length: 0\r\n\r\n", // status > u16
            "totally not http\r\n\r\n",
        ] {
            let mut reader = std::io::BufReader::new(raw.as_bytes());
            let err = read_response(&mut reader).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
        // Missing Content-Length is InvalidData; empty input is EOF.
        let mut reader = std::io::BufReader::new("HTTP/1.1 200 OK\r\n\r\n".as_bytes());
        assert_eq!(
            read_response(&mut reader).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut reader = std::io::BufReader::new("".as_bytes());
        assert_eq!(
            read_response(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn response_head_is_content_length_framed() {
        let r = response(200, "OK", "{\"spans\":[]}");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 12\r\n"));
        assert!(r.ends_with("\r\n\r\n{\"spans\":[]}"));
    }

    #[test]
    fn reject_renders_carry_the_right_status() {
        let proto = HttpProtocol;
        for (reject, status) in [
            (Reject::Busy, "503"),
            (Reject::Shutdown, "503"),
            (Reject::TooLarge, "431"),
            (Reject::Malformed, "400"),
            (Reject::NotFound, "404"),
            (Reject::Method, "405"),
        ] {
            let r = proto.render_reject(reject);
            assert!(
                r.starts_with(&format!("HTTP/1.1 {status} ")),
                "{reject:?} → {r}"
            );
        }
        let dict = DictStats {
            segments: 2,
            delta_upserts: 5,
            delta_tombstones: 1,
            epoch: 3,
            compactions: 4,
            ..DictStats::default()
        };
        let stats = proto.render_stats(&CacheStats::default(), 2, None, dict, 5);
        assert!(stats.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(stats.contains("\"swaps\":2"));
        assert!(stats.ends_with(
            "\"window_hits\":0,\"window_misses\":0,\"segments\":2,\"delta_upserts\":5,\
             \"delta_tombstones\":1,\"epoch\":3,\"compactions\":4,\"uptime_seconds\":5}"
        ));
    }

    #[test]
    fn dict_delta_render_reports_the_lifecycle_position() {
        let dict = DictStats {
            segments: 3,
            delta_upserts: 7,
            delta_tombstones: 2,
            epoch: 1,
            revision: 9,
            compactions: 0,
            ..DictStats::default()
        };
        let ack = HttpProtocol.render_dict_delta(4, &dict);
        assert!(ack.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(ack.ends_with(
            "{\"applied\":4,\"segments\":3,\"delta_upserts\":7,\"delta_tombstones\":2,\
             \"epoch\":1,\"revision\":9,\"compactions\":0}"
        ));
    }

    #[test]
    fn metrics_and_slow_render_with_their_content_types() {
        let proto = HttpProtocol;
        let metrics =
            proto.render_metrics("# TYPE websyn_uptime_seconds gauge\nwebsyn_uptime_seconds 3\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(metrics.ends_with("websyn_uptime_seconds 3\n"));
        let slow = proto.render_slow("{\"entries\":[]}");
        assert!(slow.contains("Content-Type: application/json\r\n"));
        assert!(slow.ends_with("{\"entries\":[]}"));
    }

    #[test]
    fn metrics_and_debug_endpoints_route() {
        let mut p = HttpProtocol.parser();
        assert_eq!(
            feed(&mut p, &["GET /metrics HTTP/1.1", ""]),
            vec![Request::Metrics { close: false }]
        );
        assert_eq!(
            feed(
                &mut p,
                &["GET /debug/slow HTTP/1.1", "Connection: close", ""]
            ),
            vec![Request::DebugSlow { close: true }]
        );
        // Nearby paths are still unknown endpoints.
        assert_eq!(
            route("/debug/slower", false),
            Request::Reject {
                reject: Reject::NotFound,
                close: false,
            }
        );
    }

    #[test]
    fn json_escaping_guards_hostile_surfaces() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }
}
