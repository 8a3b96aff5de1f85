//! The request vocabulary and the framing boundary: how requests are
//! framed off the socket into semantic [`Request`]s.
//!
//! The connection layer of [`Server`](crate::Server) owns the
//! byte-level line accumulation, timeouts and size caps. Everything
//! that turns those lines into requests sits behind the [`Protocol`]
//! trait: a per-connection [`RequestParser`] emits a [`Request`] once
//! one is fully framed, and semantic rejects ([`Reject`]) name why a
//! request cannot be served. The one implementation is
//! [`HttpProtocol`](crate::HttpProtocol) ([`crate::http`]), which also
//! renders every response.

/// A semantic request, decoded from the wire by a [`RequestParser`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Resolve `query` through the engine and write the result
    /// (`GET /match?q=`).
    Query {
        /// The raw, percent-decoded query text.
        query: String,
        /// Close the connection once the response has been written
        /// (`Connection: close`, or HTTP/1.0).
        close: bool,
    },
    /// Report cache statistics (`GET /stats`), answered at receipt
    /// time without entering the queue.
    Stats {
        /// Close the connection after the response.
        close: bool,
    },
    /// Report the Prometheus metrics exposition (`GET /metrics`),
    /// answered at receipt time without entering the queue.
    Metrics {
        /// Close the connection after the response.
        close: bool,
    },
    /// Report the slow-query trace (`GET /debug/slow`), answered at
    /// receipt time.
    DebugSlow {
        /// Close the connection after the response.
        close: bool,
    },
    /// Apply a dictionary delta (`POST /admin/dict/delta`), answered
    /// at receipt time: the body is the delta TSV
    /// ([`websyn_core::DictDelta::parse_tsv`] — `surface\tentity`
    /// upserts, `surface\t-` tombstones), applied live to the serving
    /// dictionary without a restart or base recompile.
    DictDelta {
        /// The delta TSV, exactly as it reaches the parser.
        body: String,
        /// Close the connection after the response.
        close: bool,
    },
    /// Answer with an error response.
    Reject {
        /// Why the request was rejected.
        reject: Reject,
        /// Close the connection after the response — mandatory when
        /// framing has been lost (the stream cannot be re-synchronized).
        close: bool,
    },
}

/// Why a request could not be served. The connection layer produces
/// `Busy`, `Shutdown` and `TooLarge` itself, parsers produce the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The request queue is full — explicit backpressure (`503`).
    Busy,
    /// The server is shutting down (`503`).
    Shutdown,
    /// A request or header line exceeded the configured size cap; the
    /// connection is dropped after the reject (`431`).
    TooLarge,
    /// The request could not be parsed (`400`).
    Malformed,
    /// The request named an unknown endpoint (`404`).
    NotFound,
    /// The method is not supported (`405`).
    Method,
}

/// The framing side of a transport. Shared across connections
/// ([`Send`] + [`Sync`]); per-connection parse state lives in the
/// [`RequestParser`] it hands out.
pub trait Protocol: Send + Sync + 'static {
    /// Fresh parser state for one connection.
    fn parser(&self) -> Box<dyn RequestParser>;
}

/// Per-connection request framing: the connection layer feeds complete
/// lines (terminator stripped, raw bytes — decoding is the parser's
/// business) and gets a [`Request`] back whenever one is fully framed.
pub trait RequestParser: Send {
    /// Consumes one line. `raw` carries no trailing `\n` (a trailing
    /// `\r` is the parser's to strip). Returns a request once one is
    /// complete.
    fn on_line(&mut self, raw: &[u8]) -> Option<Request>;
}
