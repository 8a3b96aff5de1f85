//! Fuzzy matching of Web queries to structured data — the downstream
//! application that motivates the whole paper (its opening example:
//! "Indy 4 near San Fran" resolving to showtimes for the right movie).
//!
//! The matcher compiles canonical strings plus mined synonyms into a
//! token-ID dictionary ([`crate::dict::CompiledDict`]), then segments
//! incoming queries with greedy longest-match so entity mentions are
//! found even when embedded in longer queries. The exact path is
//! allocation-free per window: the query is tokenized to ids once, and
//! each window probe is an integer-slice binary search — no `join`, no
//! string hashing. With [`FuzzyConfig`] attached
//! ([`EntityMatcher::with_fuzzy`]) every window that misses the exact
//! dictionary falls back to the [`crate::fuzzy`] candidate pipeline
//! (token-run signature / char n-gram generation + bounded
//! edit-distance verification, plus the optional abbreviation source),
//! so unmined misspellings still resolve — but only after
//! the window passes the compiled dictionary's reachability screen
//! ([`CompiledDict::can_reach`]), which skips provably hopeless
//! windows without any generation work.
//! [`EntityMatcher::match_batch`] shards a query batch across scoped
//! threads for serving-path throughput while keeping output order
//! (and content) deterministic.

use crate::data::MiningContext;
use crate::dict::CompiledDict;
use crate::fuzzy::{FuzzyConfig, FuzzyDictionary, FuzzyMatch, PrefixContext};
use crate::miner::MiningResult;
use crate::segment::{FootprintLog, OverlayState};
use crate::window_cache::{Resolution, Verdict, WindowCache};
use std::sync::Arc;
use websyn_common::{EntityId, SurfaceId};
use websyn_text::{normalize, normalized, PrefixHit};

/// Reusable per-shard segmentation state: a window-text → fuzzy
/// resolution memo.
///
/// Fuzzy window resolution is a pure function of the window text (for a
/// fixed dictionary and config), and real batches are Zipfian — the
/// same mentions recur across a batch. Threading one scratch through a
/// run of [`EntityMatcher::resolve`] calls
/// ([`SegmentRequest::scratch`]) makes every duplicate window verify
/// once: the first miss pays for candidate generation and
/// edit-distance verification, every later occurrence is one hash
/// lookup. [`EntityMatcher::match_batch`] keeps one scratch per shard
/// thread, so memoization never crosses (or serializes) shards.
///
/// A scratch is tied to the matcher it was used with: reusing it
/// against a different dictionary or fuzzy config returns stale
/// resolutions. Call [`MatchScratch::clear`] (or drop it) when the
/// matcher changes.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// window text → fuzzy resolution (`None` = verified miss), the
    /// same verdicts the [`WindowCache`] holds. Only windows that miss
    /// the exact dictionary land here. Keys are raw query windows — on
    /// a serving path that is untrusted input, so this is std's
    /// randomly seeded SipHash map, not `FxHashMap` (which
    /// `websyn_common::hash` forbids for untrusted input).
    memo: std::collections::HashMap<String, Resolution>,
}

impl MatchScratch {
    /// An empty scratch (no allocation until the first fuzzy window).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized window resolutions.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Forgets all memoized resolutions. Required before reusing the
    /// scratch with a different matcher.
    pub fn clear(&mut self) {
        self.memo.clear();
    }
}

/// One matched entity mention inside a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSpan {
    /// Index of the first matched token.
    pub start: usize,
    /// One past the last matched token.
    pub end: usize,
    /// The entity it resolves to.
    pub entity: EntityId,
    /// Edit distance between the query window and the surface
    /// (0 = exact match).
    pub distance: usize,
    /// Shared handle on the surface string (see [`MatchSpan::surface`]).
    surface: Arc<str>,
}

impl MatchSpan {
    /// The dictionary surface the mention resolved to (normalized).
    /// For exact matches this equals the query window verbatim. The
    /// string is shared with the dictionary — reading it costs nothing
    /// beyond the pointer chase.
    pub fn surface(&self) -> &str {
        &self.surface
    }
}

/// One segmentation request: the query text, whether it is already
/// normalized, and an optional cross-query [`MatchScratch`] — what
/// [`EntityMatcher::resolve`] segments.
///
/// A request names its two axes, (raw | normalized) × (no scratch |
/// scratch), so call sites compose them instead of picking one of four
/// methods; [`EntityMatcher::segment`] is the raw, scratch-free
/// shorthand. A future axis (say, a span limit) extends the request,
/// not the method count.
///
/// # Examples
///
/// ```
/// use websyn_common::EntityId;
/// use websyn_core::{EntityMatcher, MatchScratch, SegmentRequest};
///
/// let m = EntityMatcher::from_pairs(vec![("indy 4", EntityId::new(7))]);
///
/// // Raw query, one-shot:
/// let spans = m.resolve(SegmentRequest::raw("Indy 4 near san fran"));
/// assert_eq!(spans[0].entity, EntityId::new(7));
///
/// // Pre-normalized query with a batch scratch (the serving path):
/// let mut scratch = MatchScratch::new();
/// let spans = m.resolve(SegmentRequest::normalized("indy 4").scratch(&mut scratch));
/// assert_eq!(spans.len(), 1);
/// ```
#[derive(Debug)]
pub struct SegmentRequest<'q, 's> {
    query: &'q str,
    /// Caller guarantees `query` is canonical ([`websyn_text::normalize()`]
    /// output) — skips the normalization pass.
    pre_normalized: bool,
    scratch: Option<&'s mut MatchScratch>,
}

impl<'q, 's> SegmentRequest<'q, 's> {
    /// A request over raw query text: normalization runs first.
    pub fn raw(query: &'q str) -> Self {
        Self {
            query,
            pre_normalized: false,
            scratch: None,
        }
    }

    /// A request over text the caller guarantees is already canonical
    /// (the output of [`websyn_text::normalize()`]) — the serving-path
    /// constructor: a result cache keyed by normalized query normalizes
    /// once, probes the cache, and on a miss hands the *same* string
    /// here without a second normalization pass. Canonical form is
    /// asserted in debug builds.
    pub fn normalized(query: &'q str) -> Self {
        Self {
            query,
            pre_normalized: true,
            scratch: None,
        }
    }

    /// Attaches a cross-query [`MatchScratch`], so duplicate fuzzy
    /// windows across a run of requests verify once. The memo is a
    /// pure-function cache: output is byte-identical with or without it.
    pub fn scratch(mut self, scratch: &'s mut MatchScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }
}

/// A compiled surface → entity dictionary with a query segmenter.
#[derive(Debug, Clone, Default)]
pub struct EntityMatcher {
    /// The compiled token-ID dictionary, shared with the fuzzy side.
    dict: Arc<CompiledDict>,
    /// Distinct surfaces dropped because they mapped to multiple
    /// entities.
    ambiguous_dropped: usize,
    /// Approximate-lookup side, present once
    /// [`EntityMatcher::with_fuzzy`] has compiled it.
    fuzzy: Option<FuzzyDictionary>,
    /// Cross-batch window-resolution cache, attached via
    /// [`EntityMatcher::with_window_cache`]. Shared by every shard of
    /// every [`EntityMatcher::match_batch`] call (and by clones of this
    /// matcher), so first-sight fuzzy verification for a recurring
    /// window is paid once per process, not once per shard per batch.
    window_cache: Option<Arc<WindowCache>>,
    /// Live delta overlay (`crate::segment`): when present, every
    /// probe consults the base dictionary *and* the overlay's small
    /// compiled dictionary in lock-step, with overridden/tombstoned
    /// base surfaces masked out — resolution is byte-identical to a
    /// monolithic recompile of the merged surface set. Attached only
    /// by [`crate::segment::SegmentedDict`]; plain matchers pay one
    /// `Option` check.
    overlay: Option<Arc<OverlayState>>,
    /// The dictionary position this matcher serves: window-cache
    /// entries are stamped with its lineage and revision, and an older
    /// revision's entry is promoted through its footprints. A
    /// [`crate::SegmentedDict`] hands every serving matcher its view's
    /// log; any other matcher gets the empty log of a lineage of its
    /// own whenever its content is compiled.
    log: Arc<FootprintLog>,
}

impl EntityMatcher {
    /// Builds a matcher from raw `(surface, entity)` pairs. Surfaces
    /// are normalized; a surface claimed by two entities is dropped
    /// entirely (an ambiguous surface cannot resolve a query).
    pub fn from_pairs<S: AsRef<str>>(pairs: impl IntoIterator<Item = (S, EntityId)>) -> Self {
        // Every normalized surface goes into one arena; sorting the rows
        // by (surface, entity) puts each surface's claims in one run,
        // already in surface-id order, and a run whose first and last
        // entity differ is ambiguous.
        let mut text = String::new();
        let mut rows: Vec<(u32, u32, EntityId)> = Vec::new();
        let offset = |at: usize| u32::try_from(at).expect("dictionary text overflow");
        for (raw, entity) in pairs {
            let surface = normalized(raw.as_ref());
            if surface.is_empty() {
                continue;
            }
            let start = offset(text.len());
            text.push_str(&surface);
            rows.push((start, offset(text.len()), entity));
        }
        let surface = |&(a, b, _): &(u32, u32, EntityId)| &text[a as usize..b as usize];
        rows.sort_unstable_by(|x, y| surface(x).cmp(surface(y)).then(x.2.cmp(&y.2)));
        // Keep each unambiguous run's first row, in place.
        let (mut kept, mut ambiguous_dropped) = (0, 0);
        let mut start = 0;
        while start < rows.len() {
            let run = surface(&rows[start]);
            let end = start
                + rows[start..]
                    .iter()
                    .take_while(|r| surface(r) == run)
                    .count();
            if rows[start].2 == rows[end - 1].2 {
                rows[kept] = rows[start];
                kept += 1;
            } else {
                ambiguous_dropped += 1;
            }
            start = end;
        }
        rows.truncate(kept);
        let dict = CompiledDict::from_sorted(rows.iter().map(|r| (surface(r), r.2)));
        Self {
            dict: Arc::new(dict),
            ambiguous_dropped,
            fuzzy: None,
            window_cache: None,
            overlay: None,
            log: Arc::default(),
        }
    }

    /// Builds a matcher from a mining result: every entity's canonical
    /// string plus every mined synonym.
    pub fn from_mining(result: &MiningResult, ctx: &MiningContext) -> Self {
        let canonical = ctx
            .u_set
            .iter()
            .enumerate()
            .map(|(i, u)| (u.clone(), EntityId::from_usize(i)));
        let mined = result
            .per_entity
            .iter()
            .flat_map(|es| es.synonyms.iter().map(move |s| (s.text.clone(), es.entity)));
        Self::from_pairs(canonical.chain(mined))
    }

    /// Compiles the fuzzy side of the dictionary (the candidate-source
    /// chain of [`crate::fuzzy`] over the already-compiled surfaces)
    /// and returns the matcher with approximate lookup enabled. Exact
    /// surfaces still resolve first; see [`crate::fuzzy`] for the
    /// resolution rules. The matcher starts a lineage of its own, so
    /// no window verdict cached by the matcher it was built from (or by
    /// another config over the same surfaces) is served to it.
    pub fn with_fuzzy(mut self, config: FuzzyConfig) -> Self {
        self.fuzzy = Some(FuzzyDictionary::from_dict(Arc::clone(&self.dict), config));
        self.log = Arc::default();
        self
    }

    /// The fuzzy config, when fuzzy lookup is enabled.
    pub fn fuzzy_config(&self) -> Option<&FuzzyConfig> {
        self.fuzzy.as_ref().map(|f| f.config())
    }

    /// The compiled fuzzy side, when enabled (`crate::segment` runs
    /// footprint proposal probes against it).
    pub(crate) fn fuzzy_dict(&self) -> Option<&FuzzyDictionary> {
        self.fuzzy.as_ref()
    }

    /// Sets the position this matcher serves —
    /// [`crate::segment::SegmentedDict`] only; `log` must describe this
    /// matcher's dictionary state.
    pub(crate) fn with_log(mut self, log: Arc<FootprintLog>) -> Self {
        self.log = log;
        self
    }

    /// The position this matcher serves.
    pub(crate) fn log(&self) -> &Arc<FootprintLog> {
        &self.log
    }

    /// Attaches a live delta overlay — [`crate::segment::SegmentedDict`]
    /// only; the overlay must have been built against *this* matcher's
    /// dictionary and fuzzy config.
    pub(crate) fn with_overlay(mut self, overlay: Arc<OverlayState>) -> Self {
        self.overlay = Some(overlay);
        self
    }

    /// The attached delta overlay, if any.
    pub(crate) fn overlay(&self) -> Option<&OverlayState> {
        self.overlay.as_deref()
    }

    /// Attaches a fresh cross-batch [`WindowCache`] holding roughly
    /// `capacity` resolved windows. Unlike the per-shard
    /// [`MatchScratch`] memo (batch-scoped, shared-nothing), the window
    /// cache persists across batches and is shared by every shard
    /// thread — the first batch pays first-sight fuzzy verification,
    /// later batches (and later shards) reuse it. Pure-function cache:
    /// spans are byte-identical with or without it (pinned by the
    /// cache-on ≡ cache-off proptests). No-op for exact-only matchers
    /// until [`EntityMatcher::with_fuzzy`] runs.
    pub fn with_window_cache(self, capacity: usize) -> Self {
        self.with_shared_window_cache(Arc::new(WindowCache::new(capacity)))
    }

    /// Attaches an existing [`WindowCache`] — how a rebuild-and-swap
    /// deployment carries one cache across matchers (entries are
    /// stamped with the lineage and revision of the matcher that
    /// resolved them, so another dictionary's windows are invisible).
    pub fn with_shared_window_cache(mut self, cache: Arc<WindowCache>) -> Self {
        self.window_cache = Some(cache);
        self
    }

    /// The attached window cache, if any (stats, sharing).
    pub fn window_cache(&self) -> Option<&Arc<WindowCache>> {
        self.window_cache.as_ref()
    }

    /// The compiled dictionary (token vocabulary, surface table,
    /// entities).
    pub fn dict(&self) -> &CompiledDict {
        &self.dict
    }

    /// The compiled dictionary as a shared handle. [`CompiledDict`] is
    /// immutable, so deployments update it by *rebuild and swap*:
    /// compile a new matcher off-line, then atomically replace the old
    /// `Arc` (and invalidate any result cache keyed on it). Pointer
    /// identity of this handle is the cheap "is this still the same
    /// dictionary?" test — see `websyn_serve::Engine`.
    pub fn shared_dict(&self) -> Arc<CompiledDict> {
        Arc::clone(&self.dict)
    }

    /// Heap bytes of the dictionary this matcher serves — the compiled
    /// surfaces, every candidate index and, when attached, the delta
    /// overlay — summed from buffer capacities. Caches are not counted.
    pub fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes()
            + self.fuzzy.as_ref().map_or(0, FuzzyDictionary::heap_bytes)
            + self.overlay.as_ref().map_or(0, |ov| ov.heap_bytes())
    }

    /// Number of distinct *live* surfaces: the base dictionary, minus
    /// surfaces shadowed by a delta overlay, plus overlay upserts.
    pub fn len(&self) -> usize {
        match &self.overlay {
            Some(ov) => ov.live_len(self.dict.len()),
            None => self.dict.len(),
        }
    }

    /// Whether the dictionary has no live surface.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct surfaces dropped as ambiguous: each surface
    /// claimed by two or more entities counts exactly once, no matter
    /// how many claims arrived.
    pub fn ambiguous_dropped(&self) -> usize {
        self.ambiguous_dropped
    }

    /// Exact whole-query match after normalization (overlay-aware:
    /// overlay upserts win, tombstoned base surfaces miss).
    pub fn lookup(&self, query: &str) -> Option<EntityId> {
        let normalized = normalized(query);
        if let Some(ov) = &self.overlay {
            let odict = ov.matcher.dict();
            if let Some(sid) = odict.get_str(&normalized) {
                return Some(odict.entity(sid));
            }
            return self
                .dict
                .get_str(&normalized)
                .filter(|sid| !ov.shadowed(sid.raw()))
                .map(|sid| self.dict.entity(sid));
        }
        self.dict
            .get_str(&normalized)
            .map(|sid| self.dict.entity(sid))
    }

    /// Whole-query match with the fuzzy fallback: exact first, then
    /// approximate resolution when fuzzy lookup is enabled. Exact hits
    /// report distance 0.
    pub fn lookup_fuzzy(&self, query: &str) -> Option<FuzzyMatch> {
        let normalized = normalized(query);
        if let Some(ov) = self.overlay.clone() {
            return self.lookup_fuzzy_merged(&ov, &normalized);
        }
        if let Some(sid) = self.dict.get_str(&normalized) {
            return Some(self.exact_match(sid));
        }
        self.fuzzy.as_ref()?.resolve(&normalized)
    }

    /// [`EntityMatcher::lookup_fuzzy`] over base + overlay: the merged
    /// exact probe, then the lock-step merged candidate chains.
    fn lookup_fuzzy_merged(&self, ov: &OverlayState, normalized: &str) -> Option<FuzzyMatch> {
        let odict = ov.matcher.dict();
        if let Some(sid) = odict.get_str(normalized) {
            return Some(FuzzyMatch::new(
                sid,
                odict.entity(sid),
                0,
                odict.surface_arc(sid),
            ));
        }
        if let Some(sid) = self
            .dict
            .get_str(normalized)
            .filter(|sid| !ov.shadowed(sid.raw()))
        {
            return Some(self.exact_match(sid));
        }
        let bf = self.fuzzy.as_ref()?;
        let of = ov.matcher.fuzzy.as_ref()?;
        let (mut bounds, mut ids) = (Vec::new(), Vec::new());
        let (mut obounds, mut oids) = (Vec::new(), Vec::new());
        self.dict.map_query(normalized, &mut bounds, &mut ids);
        odict.map_query(normalized, &mut obounds, &mut oids);
        if ids.is_empty() {
            return None;
        }
        let chars = normalized.chars().count();
        let budget = bf.config().max_distance_for(chars);
        let breach = self.dict.can_reach(&ids, chars, budget);
        let oreach = odict.can_reach(&oids, chars, budget);
        let (side, sid, distance) = crate::fuzzy::resolve_merged_window(
            bf,
            of,
            |sid| ov.shadowed(sid),
            |tok| ov.dead_token(tok),
            normalized,
            &ids,
            &oids,
            budget,
            breach.edit_reachable || oreach.edit_reachable,
        )?;
        let dict = if side { odict } else { &*self.dict };
        Some(FuzzyMatch::new(
            sid,
            dict.entity(sid),
            distance,
            dict.surface_arc(sid),
        ))
    }

    /// A distance-0 [`FuzzyMatch`] for an exact dictionary hit.
    fn exact_match(&self, sid: SurfaceId) -> FuzzyMatch {
        FuzzyMatch::new(sid, self.dict.entity(sid), 0, self.dict.surface_arc(sid))
    }

    /// Serializes the dictionary as deterministic TSV
    /// (`surface \t entity-id\n`, sorted by surface) — the deployment
    /// artifact a serving layer would load. When fuzzy lookup is
    /// enabled, a `#!fuzzy` header line carries the [`FuzzyConfig`], so
    /// [`EntityMatcher::from_tsv`] rebuilds the approximate side too
    /// (the derived indexes themselves are recompiled, not stored).
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.dict.len() * 24 + 80);
        if let Some(config) = self.fuzzy_config() {
            out.push_str(&format!(
                "#!fuzzy\tgram_size={}\tmin_len_one_edit={}\tmin_len_two_edits={}\tmax_distance={}\ttranspositions={}\tabbrev={}\ttoken_signature={}\n",
                config.gram_size,
                config.min_len_one_edit,
                config.min_len_two_edits,
                config.max_distance,
                config.transpositions,
                config.abbrev,
                config.token_signature,
            ));
        }
        match &self.overlay {
            // Surface ids are lexicographic, so id order is sorted
            // order.
            None => {
                for (_, surface, entity) in self.dict.iter() {
                    out.push_str(surface);
                    out.push('\t');
                    out.push_str(&entity.raw().to_string());
                    out.push('\n');
                }
            }
            // Merged view: live base surfaces plus overlay upserts,
            // re-sorted so the artifact stays deterministic and
            // byte-identical to a compacted recompile's.
            Some(ov) => {
                let odict = ov.matcher.dict();
                let mut rows: Vec<(&str, EntityId)> = self
                    .dict
                    .iter()
                    .filter(|(sid, _, _)| !ov.shadowed(sid.raw()))
                    .map(|(_, s, e)| (s, e))
                    .chain(odict.iter().map(|(_, s, e)| (s, e)))
                    .collect();
                rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
                for (surface, entity) in rows {
                    out.push_str(surface);
                    out.push('\t');
                    out.push_str(&entity.raw().to_string());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Loads a dictionary produced by [`EntityMatcher::to_tsv`],
    /// recompiling the fuzzy side if the artifact carries a `#!fuzzy`
    /// header. To serve it with live deltas and compaction, wrap it:
    /// `DictHandle::new(EntityMatcher::from_tsv(tsv)?)`.
    ///
    /// # Errors
    /// Returns a codec error on malformed rows (missing tab,
    /// non-numeric id, embedded tab in surface) or a malformed fuzzy
    /// header, including one that turns on the removed phonetic source
    /// (`phonetic=true`).
    pub fn from_tsv(tsv: &str) -> websyn_common::Result<Self> {
        let mut pairs = Vec::new();
        let mut fuzzy: Option<FuzzyConfig> = None;
        for (lineno, line) in tsv.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("#!fuzzy") {
                fuzzy = Some(parse_fuzzy_header(header, lineno + 1)?);
                continue;
            }
            let (surface, id) = line.rsplit_once('\t').ok_or_else(|| {
                websyn_common::Error::codec(format!("line {}: missing tab", lineno + 1))
            })?;
            if surface.contains('\t') {
                return Err(websyn_common::Error::codec(format!(
                    "line {}: embedded tab in surface",
                    lineno + 1
                )));
            }
            let id: u32 = id.parse().map_err(|e| {
                websyn_common::Error::codec(format!("line {}: bad entity id: {e}", lineno + 1))
            })?;
            pairs.push((surface, EntityId::new(id)));
        }
        let matcher = Self::from_pairs(pairs);
        Ok(match fuzzy {
            Some(config) => matcher.with_fuzzy(config),
            None => matcher,
        })
    }

    /// Segments a free-form query into entity mentions with greedy
    /// longest-match, left to right. Unmatched tokens are skipped.
    ///
    /// Within each window the compiled dictionary is probed first (an
    /// allocation-free token-id comparison); when fuzzy lookup is
    /// enabled ([`EntityMatcher::with_fuzzy`]) a window that misses
    /// exactly is resolved approximately before the window shrinks, so
    /// a typo inside a long mention does not fragment it. The fuzzy
    /// probe slices the window's text straight out of the normalized
    /// query — tokens are single-spaced after normalization, so no
    /// `join` is ever needed.
    ///
    /// # Examples
    ///
    /// ```
    /// use websyn_core::EntityMatcher;
    /// use websyn_common::EntityId;
    ///
    /// let m = EntityMatcher::from_pairs(vec![
    ///     ("indy 4", EntityId::new(7)),
    /// ]);
    /// let spans = m.segment("Indy 4 near san fran");
    /// assert_eq!(spans.len(), 1);
    /// assert_eq!(spans[0].entity, EntityId::new(7));
    /// assert_eq!(spans[0].surface(), "indy 4");
    /// assert_eq!(spans[0].distance, 0);
    /// ```
    pub fn segment(&self, query: &str) -> Vec<MatchSpan> {
        // No scratch: a single query rarely repeats a window, so the
        // memo would be pure insert overhead here.
        self.resolve(SegmentRequest::raw(query))
    }

    /// Segments a query described by a [`SegmentRequest`] — the one
    /// segmentation entry point ([`EntityMatcher::segment`] is its raw,
    /// scratch-free shorthand).
    ///
    /// For a fixed matcher the result is a pure function of the query
    /// text: normalization state and scratch attachment change only the
    /// work done, never the spans produced.
    pub fn resolve(&self, request: SegmentRequest<'_, '_>) -> Vec<MatchSpan> {
        if request.pre_normalized {
            debug_assert_eq!(
                normalize(request.query),
                request.query,
                "SegmentRequest::normalized requires canonical input"
            );
            self.segment_inner(request.query, request.scratch)
        } else {
            self.segment_inner(&normalized(request.query), request.scratch)
        }
    }

    /// The segmenter core over a normalized query. `scratch` carries
    /// the cross-query window memo when the caller is running a batch;
    /// `None` skips memoization entirely (single-query entry points).
    fn segment_inner(
        &self,
        normalized: &str,
        mut scratch: Option<&mut MatchScratch>,
    ) -> Vec<MatchSpan> {
        if let Some(ov) = self.overlay.clone() {
            return self.segment_merged(&ov, normalized, scratch);
        }
        // Per-query scratch (token byte ranges + token ids + token char
        // ranges) lives in thread-local buffers: segment allocates only
        // the normalized string (and not even that when the query is
        // already canonical) plus the output spans.
        thread_local! {
            static SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
            static CHAR_BOUNDS: std::cell::RefCell<Vec<(u32, u32)>> =
                const { std::cell::RefCell::new(Vec::new()) };
            static PREFIX_HITS: std::cell::RefCell<Vec<PrefixHit>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            self.dict.map_query(normalized, bounds, ids);
            let n = ids.len();
            let mut spans = Vec::new();
            let mut i = 0;
            match &self.fuzzy {
                // Exact-only: one probe-table descent per position
                // finds the longest match there.
                None => {
                    while i < n {
                        let longest = self.dict.max_tokens().min(n - i);
                        match self.dict.longest_match(&ids[i..], longest) {
                            Some((window, sid)) => {
                                spans.push(verdict_in(&self.dict, sid, 0).into_span(i, window));
                                i += window;
                            }
                            None => i += 1,
                        }
                    }
                }
                // Fuzzy: per position, one exact descent bounds the
                // fuzzy work — only windows *longer* than the longest
                // exact match need approximate resolution (a fuzzy hit
                // on a longer window beats the exact hit; at the exact
                // length and below, the old per-length walk would have
                // stopped at the exact hit anyway). Each candidate
                // window is screened by the compiled dictionary's
                // reachability tables before any candidate generation,
                // and resolutions go through the memo/cache ladder of
                // `resolve_window` — duplicate windows pay for
                // generation and verification once.
                Some(fuzzy) => CHAR_BOUNDS.with_borrow_mut(|char_bounds| {
                    PREFIX_HITS.with_borrow_mut(|prefix_hits| {
                        token_char_bounds(normalized, bounds, char_bounds);
                        let prune = fuzzy.all_verifying();
                        while i < n {
                            let longest = self.dict.max_tokens().min(n - i);
                            let exact = self.dict.longest_match(&ids[i..], longest);
                            let exact_w = exact.map_or(0, |(w, _)| w);
                            let mut fuzzy_hit = None;
                            // One candidate probe pass at this position
                            // serves every window below: prefix-capable
                            // sources collect hits over the *longest*
                            // window once (lazily, inside the first actual
                            // resolution) and re-filter per window, instead
                            // of re-probing the index per window.
                            let mut prefix_ctx = if fuzzy.has_prefix_source() && longest > exact_w {
                                let max_chars =
                                    (char_bounds[i + longest - 1].1 - char_bounds[i].0) as usize;
                                let max_text = &normalized
                                    [bounds[i].0 as usize..bounds[i + longest - 1].1 as usize];
                                Some(PrefixContext::new(
                                    max_text,
                                    fuzzy.config().max_distance_for(max_chars),
                                    &mut *prefix_hits,
                                ))
                            } else {
                                None
                            };
                            for window in (exact_w + 1..=longest).rev() {
                                let window_ids = &ids[i..i + window];
                                let chars =
                                    (char_bounds[i + window - 1].1 - char_bounds[i].0) as usize;
                                let budget = fuzzy.config().max_distance_for(chars);
                                if prune && budget == 0 {
                                    // Shorter windows only get shorter:
                                    // every remaining budget is 0 too, and
                                    // with a fully-verifying chain nothing
                                    // below can resolve.
                                    break;
                                }
                                let reach = self.dict.can_reach(window_ids, chars, budget);
                                if prune && !reach.edit_reachable {
                                    crate::telemetry::WINDOWS_PRUNED.incr();
                                    continue;
                                }
                                // A window with no vocabulary token that no
                                // applicable source can propose for
                                // (anchor-keyed chain, no space-damage
                                // anchor at this shape): skip without memo.
                                if !reach.has_vocab_token
                                    && !fuzzy.may_resolve_unanchored(window, budget)
                                {
                                    continue;
                                }
                                let window_text = &normalized
                                    [bounds[i].0 as usize..bounds[i + window - 1].1 as usize];
                                let resolved = self.resolve_window(
                                    window_text,
                                    scratch.as_deref_mut(),
                                    || {
                                        fuzzy
                                            .resolve_pruned_prefix(
                                                window_text,
                                                window_ids,
                                                chars,
                                                budget,
                                                reach.edit_reachable,
                                                prefix_ctx.as_mut(),
                                            )
                                            .map(Verdict::from)
                                    },
                                );
                                if let Some(verdict) = resolved {
                                    fuzzy_hit = Some((window, verdict));
                                    break;
                                }
                            }
                            let hit = fuzzy_hit.or_else(|| {
                                exact.map(|(w, sid)| (w, verdict_in(&self.dict, sid, 0)))
                            });
                            match hit {
                                Some((window, verdict)) => {
                                    spans.push(verdict.into_span(i, window));
                                    i += window;
                                }
                                None => i += 1,
                            }
                        }
                    })
                }),
            }
            spans
        })
    }

    /// Resolves one fuzzy window through the ladder both segmentation
    /// paths share: the caller's batch memo (lock-free), then the
    /// shared window cache at this matcher's stamp (one shard lock),
    /// then `full` — candidate generation and verification — whose
    /// verdict is recorded in both. A cached verdict from an older
    /// revision of this matcher's lineage is promoted when every
    /// footprint committed since clears the window. A window-cache hit
    /// is deliberately NOT copied into the memo: re-probing the cache
    /// costs one short lock + hash, while the copy would pay a String
    /// allocation per window per shard — measurably slower on warm
    /// batches.
    fn resolve_window(
        &self,
        window: &str,
        scratch: Option<&mut MatchScratch>,
        full: impl FnOnce() -> Resolution,
    ) -> Resolution {
        crate::telemetry::WINDOWS_RESOLVED.incr();
        if let Some(cached) = scratch.as_deref().and_then(|s| s.memo.get(window)) {
            crate::telemetry::LADDER_MEMO_HITS.incr();
            return cached.clone();
        }
        let stamp = self.log.stamp();
        if let Some(cache) = self.window_cache.as_deref() {
            let probe = cache.get(window, stamp, |key, revision| {
                self.log.window_unchanged_since(revision, key)
            });
            if let Some(cached) = probe {
                crate::telemetry::LADDER_CACHE_HITS.incr();
                return cached;
            }
        }
        crate::telemetry::LADDER_FULL_RESOLVES.incr();
        let resolved = full();
        if let Some(scratch) = scratch {
            scratch.memo.insert(window.to_string(), resolved.clone());
        }
        if let Some(cache) = self.window_cache.as_deref() {
            cache.insert(window, stamp, resolved.clone());
        }
        resolved
    }

    /// The longest exact match at a position of the *merged* view:
    /// the base descent masked by the overlay's shadow set, against
    /// the overlay's own descent; the longer window wins. An
    /// equal-length tie is impossible (both segments exact-matching
    /// the same window text would mean the same surface string lives
    /// in both, but a delta'd surface always shadows its base copy) —
    /// the overlay is preferred if it ever arises.
    fn merged_exact(
        &self,
        ov: &OverlayState,
        ids: &[u32],
        oids: &[u32],
        longest: usize,
    ) -> Option<(usize, bool, SurfaceId)> {
        if longest == 0 {
            return None;
        }
        let base = self
            .dict
            .longest_match_where(ids, longest, |sid| !ov.shadowed(sid));
        let over = ov.matcher.dict().longest_match(oids, longest);
        match (base, over) {
            (Some((bw, bs)), Some((ow, os))) => {
                debug_assert_ne!(bw, ow, "live surface duplicated across segments");
                if ow >= bw {
                    Some((ow, true, os))
                } else {
                    Some((bw, false, bs))
                }
            }
            (Some((bw, bs)), None) => Some((bw, false, bs)),
            (None, Some((ow, os))) => Some((ow, true, os)),
            (None, None) => None,
        }
    }

    /// [`EntityMatcher::segment_inner`] over base + delta overlay:
    /// the same greedy longest-match walk, with every probe running
    /// both segments in lock-step so output is byte-identical to a
    /// monolithic recompile of the merged surface set — pinned by the
    /// `segmented_dict` proptests.
    ///
    /// Differences from the monolithic walk, all equivalence-preserving:
    /// the window bound is the merged view's `live_max_tokens`; the
    /// reachability screen is the union of both segments' screens
    /// (pruning is results-invariant, and the union is conservative
    /// over the merged surface set); and fuzzy windows resolve through
    /// [`crate::fuzzy::resolve_merged_window`]. Windows go through the
    /// same memo/cache ladder as the plain walk: a verdict names its
    /// surface by string, so one won by an overlay surface is cached
    /// like any other and outlives both later commits that miss it and
    /// the compaction that folds the overlay in.
    /// Prefix-collected candidate probing is skipped on this path
    /// (plain per-window proposal — same results, somewhat slower;
    /// compaction restores the fast path).
    fn segment_merged(
        &self,
        ov: &OverlayState,
        normalized: &str,
        mut scratch: Option<&mut MatchScratch>,
    ) -> Vec<MatchSpan> {
        thread_local! {
            static SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
            static OVER_SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
            static CHAR_BOUNDS: std::cell::RefCell<Vec<(u32, u32)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            OVER_SCRATCH.with_borrow_mut(|(obounds, oids)| {
                let odict = ov.matcher.dict();
                let side_dict = |overlay: bool| if overlay { odict } else { &*self.dict };
                self.dict.map_query(normalized, bounds, ids);
                odict.map_query(normalized, obounds, oids);
                debug_assert_eq!(bounds, obounds, "tokenization is vocabulary-independent");
                let n = ids.len();
                let mut spans = Vec::new();
                let mut i = 0;
                let (bf, of) = match (&self.fuzzy, &ov.matcher.fuzzy) {
                    (Some(bf), Some(of)) => (bf, of),
                    // Exact-only dictionary: one merged descent per
                    // position.
                    _ => {
                        while i < n {
                            let longest = ov.live_max_tokens.min(n - i);
                            match self.merged_exact(ov, &ids[i..], &oids[i..], longest) {
                                Some((window, side, sid)) => {
                                    spans.push(
                                        verdict_in(side_dict(side), sid, 0).into_span(i, window),
                                    );
                                    i += window;
                                }
                                None => i += 1,
                            }
                        }
                        return spans;
                    }
                };
                CHAR_BOUNDS.with_borrow_mut(|char_bounds| {
                    token_char_bounds(normalized, bounds, char_bounds);
                    let prune = bf.all_verifying();
                    while i < n {
                        let longest = ov.live_max_tokens.min(n - i);
                        let exact = self.merged_exact(ov, &ids[i..], &oids[i..], longest);
                        let exact_w = exact.map_or(0, |(w, _, _)| w);
                        let mut fuzzy_hit = None;
                        for window in (exact_w + 1..=longest).rev() {
                            let window_ids = &ids[i..i + window];
                            let over_ids = &oids[i..i + window];
                            let chars = (char_bounds[i + window - 1].1 - char_bounds[i].0) as usize;
                            let budget = bf.config().max_distance_for(chars);
                            if prune && budget == 0 {
                                break;
                            }
                            let breach = self.dict.can_reach(window_ids, chars, budget);
                            let oreach = odict.can_reach(over_ids, chars, budget);
                            let edit_reachable = breach.edit_reachable || oreach.edit_reachable;
                            if prune && !edit_reachable {
                                crate::telemetry::WINDOWS_PRUNED.incr();
                                continue;
                            }
                            if !(breach.has_vocab_token
                                || oreach.has_vocab_token
                                || bf.may_resolve_unanchored(window, budget))
                            {
                                continue;
                            }
                            let window_text = &normalized
                                [bounds[i].0 as usize..bounds[i + window - 1].1 as usize];
                            let resolved =
                                self.resolve_window(window_text, scratch.as_deref_mut(), || {
                                    crate::fuzzy::resolve_merged_window(
                                        bf,
                                        of,
                                        |sid| ov.shadowed(sid),
                                        |tok| ov.dead_token(tok),
                                        window_text,
                                        window_ids,
                                        over_ids,
                                        budget,
                                        edit_reachable,
                                    )
                                    .map(|(side, sid, d)| verdict_in(side_dict(side), sid, d))
                                });
                            if let Some(verdict) = resolved {
                                fuzzy_hit = Some((window, verdict));
                                break;
                            }
                        }
                        let hit = fuzzy_hit.or_else(|| {
                            exact.map(|(w, side, sid)| (w, verdict_in(side_dict(side), sid, 0)))
                        });
                        match hit {
                            Some((window, verdict)) => {
                                spans.push(verdict.into_span(i, window));
                                i += window;
                            }
                            None => i += 1,
                        }
                    }
                    spans
                })
            })
        })
    }

    /// Minimum queries a shard must receive before `match_batch` will
    /// spawn a thread for it. Scoped spawn+join costs ~20–25µs per
    /// thread on this class of hardware while a warm-cache query costs
    /// ~2µs, so a shard needs dozens of queries just to pay for its own
    /// thread; below this chunk size extra shards *slow the batch
    /// down* (the "inverted shard scaling" once visible in
    /// `BENCH_matcher.json`). Callers can still ask for any shard
    /// count — the clamp only refuses to oversplit small batches.
    const MIN_SHARD_CHUNK: usize = 64;

    /// Segments a batch of queries on up to `shards` scoped threads.
    ///
    /// The batch is split into contiguous chunks, one thread per chunk,
    /// and results are reassembled in input order — so for any shard
    /// count the output is identical (byte for byte) to mapping
    /// [`EntityMatcher::segment`] over the batch sequentially. Each
    /// shard carries its own [`MatchScratch`], so duplicate fuzzy
    /// windows within a shard's chunk verify once (shared-nothing
    /// except the optional [`WindowCache`], which memoizes resolved
    /// windows across shards and batches). The effective shard count is
    /// clamped so every thread gets at least
    /// `MIN_SHARD_CHUNK` queries — spawning threads for
    /// smaller chunks costs more than the work they carry.
    pub fn match_batch<S: AsRef<str> + Sync>(
        &self,
        queries: &[S],
        shards: usize,
    ) -> Vec<Vec<MatchSpan>> {
        let shards = shards
            .max(1)
            .min((queries.len() / Self::MIN_SHARD_CHUNK).max(1));
        if shards == 1 {
            let mut scratch = MatchScratch::new();
            return queries
                .iter()
                .map(|q| self.resolve(SegmentRequest::raw(q.as_ref()).scratch(&mut scratch)))
                .collect();
        }
        let chunk_size = queries.len().div_ceil(shards);
        let mut out = Vec::with_capacity(queries.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut scratch = MatchScratch::new();
                        chunk
                            .iter()
                            .map(|q| {
                                self.resolve(SegmentRequest::raw(q.as_ref()).scratch(&mut scratch))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("matcher shard panicked"));
            }
        });
        out
    }
}

/// The verdict naming surface `sid` of `dict` (the base or a delta
/// overlay's dictionary) at `distance`.
fn verdict_in(dict: &CompiledDict, sid: SurfaceId, distance: usize) -> Verdict {
    Verdict {
        surface: dict.surface_arc(sid),
        entity: dict.entity(sid),
        distance,
    }
}

impl Verdict {
    /// The span of a mention that starts at token `start`, `window`
    /// tokens long, and resolved to this verdict.
    fn into_span(self, start: usize, window: usize) -> MatchSpan {
        MatchSpan {
            start,
            end: start + window,
            entity: self.entity,
            distance: self.distance,
            surface: self.surface,
        }
    }
}

/// Char-position ranges of the tokens whose byte ranges are `bounds`,
/// filled into `out` (cleared first). Normalized text is almost always
/// ASCII, where char positions equal byte positions and the copy is
/// free; otherwise one pass over the chars recovers the mapping. The
/// segmenter uses these to compute window char lengths (edit budgets
/// are char-level) without an O(len) count per window.
fn token_char_bounds(normalized: &str, bounds: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    if normalized.is_ascii() {
        out.extend_from_slice(bounds);
        return;
    }
    let mut chars = 0u32;
    let mut byte = 0usize;
    let mut iter = normalized.chars();
    for &(a, b) in bounds {
        while byte < a as usize {
            byte += iter.next().expect("bounds within string").len_utf8();
            chars += 1;
        }
        let start = chars;
        while byte < b as usize {
            byte += iter.next().expect("bounds within string").len_utf8();
            chars += 1;
        }
        out.push((start, chars));
    }
}

/// Parses the `#!fuzzy` header tail: tab-separated `key=value` pairs
/// over [`FuzzyConfig`] fields, starting from the default config.
fn parse_fuzzy_header(header: &str, lineno: usize) -> websyn_common::Result<FuzzyConfig> {
    let bad =
        |what: &str| websyn_common::Error::codec(format!("line {lineno}: fuzzy header: {what}"));
    let mut config = FuzzyConfig::default();
    for field in header.split('\t').filter(|f| !f.is_empty()) {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad(&format!("missing '=' in {field:?}")))?;
        let parse_usize = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| bad(&format!("bad number {v:?}")))
        };
        let parse_bool = |v: &str| match v {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(bad(&format!("bad bool {v:?}"))),
        };
        match key {
            "gram_size" => config.gram_size = parse_usize(value)?,
            "min_len_one_edit" => config.min_len_one_edit = parse_usize(value)?,
            "min_len_two_edits" => config.min_len_two_edits = parse_usize(value)?,
            "max_distance" => config.max_distance = parse_usize(value)?,
            "transpositions" => config.transpositions = parse_bool(value)?,
            // Artifacts written while the phonetic source existed carry
            // its switch; they load as long as it was off.
            "phonetic" => {
                if parse_bool(value)? {
                    return Err(bad(
                        "phonetic=true: the phonetic candidate source was removed",
                    ));
                }
            }
            "abbrev" => config.abbrev = parse_bool(value)?,
            "token_signature" => config.token_signature = parse_bool(value)?,
            _ => return Err(bad(&format!("unknown key {key:?}"))),
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher() -> EntityMatcher {
        EntityMatcher::from_pairs(vec![
            (
                "Indiana Jones and the Kingdom of the Crystal Skull",
                EntityId::new(0),
            ),
            ("indy 4", EntityId::new(0)),
            ("indiana jones 4", EntityId::new(0)),
            ("madagascar 2", EntityId::new(1)),
            ("canon eos 350d", EntityId::new(2)),
            ("350d", EntityId::new(2)),
        ])
    }

    fn fuzzy_matcher() -> EntityMatcher {
        matcher().with_fuzzy(FuzzyConfig::default())
    }

    #[test]
    fn window_cache_serves_repeat_windows() {
        let m = fuzzy_matcher().with_window_cache(1024);
        let first = m.segment("canon eso 350d price");
        let after_first = m.window_cache().unwrap().stats();
        assert!(after_first.misses > 0, "{after_first:?}");
        assert!(after_first.entries > 0, "{after_first:?}");
        // Same query again: every fuzzy window the first run resolved
        // is now answered from the cache, spans unchanged.
        let second = m.segment("canon eso 350d price");
        let after_second = m.window_cache().unwrap().stats();
        assert!(after_second.hits > after_first.hits, "{after_second:?}");
        assert_eq!(first, second);
        assert_eq!(first[0].surface(), "canon eos 350d");
        // A clone shares the cache and the log, so its probes hit too.
        // A recompile of the same surfaces starts a lineage of its own
        // and misses.
        let clone = m.clone();
        clone.segment("canon eso 350d price");
        let after_clone = clone.window_cache().unwrap().stats();
        assert!(after_clone.hits > after_second.hits, "{after_clone:?}");
        assert_eq!(after_clone.misses, after_second.misses, "{after_clone:?}");
        let recompiled =
            fuzzy_matcher().with_shared_window_cache(Arc::clone(m.window_cache().unwrap()));
        assert_eq!(recompiled.segment("canon eso 350d price"), first);
        let after_recompile = m.window_cache().unwrap().stats();
        assert!(
            after_recompile.misses > after_clone.misses,
            "{after_recompile:?}"
        );
    }

    #[test]
    fn exact_lookup_normalizes() {
        let m = matcher();
        assert_eq!(m.lookup("INDY 4"), Some(EntityId::new(0)));
        assert_eq!(m.lookup("Indy-4"), Some(EntityId::new(0)));
        assert_eq!(m.lookup("350D"), Some(EntityId::new(2)));
        assert_eq!(m.lookup("unknown movie"), None);
    }

    #[test]
    fn segments_the_papers_example() {
        let m = matcher();
        let spans = m.segment("indy 4 near san fran");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end, 2);
        assert_eq!(spans[0].entity, EntityId::new(0));
    }

    #[test]
    fn greedy_longest_match_wins() {
        // "indiana jones 4" must match as one 3-token surface, not fall
        // back to shorter fragments.
        let m = matcher();
        let spans = m.segment("showtimes indiana jones 4 tonight");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].surface(), "indiana jones 4");
    }

    #[test]
    fn multiple_entities_in_one_query() {
        let m = matcher();
        let spans = m.segment("compare canon eos 350d with madagascar 2");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].entity, EntityId::new(2));
        assert_eq!(spans[1].entity, EntityId::new(1));
        assert!(spans[0].end <= spans[1].start);
    }

    #[test]
    fn span_surfaces_resolve_through_the_dict() {
        let m = fuzzy_matcher();
        let spans = m.segment("compare cannon eos 350d with madagascar 2");
        assert_eq!(spans.len(), 2);
        for span in &spans {
            let sid = m
                .dict()
                .get_str(span.surface())
                .expect("a dictionary surface");
            assert_eq!(m.dict().entity(sid), span.entity);
        }
    }

    #[test]
    fn ambiguous_surfaces_dropped() {
        let m = EntityMatcher::from_pairs(vec![
            ("shared name", EntityId::new(0)),
            ("shared name", EntityId::new(1)),
            ("unique", EntityId::new(0)),
        ]);
        assert_eq!(m.lookup("shared name"), None);
        assert_eq!(m.lookup("unique"), Some(EntityId::new(0)));
        // One surface was dropped, so the count is one — however many
        // entities claimed it.
        assert_eq!(m.ambiguous_dropped(), 1);
        // Re-adding after the ban does not resurrect, and repeated
        // claims do not inflate the count.
        let m2 = EntityMatcher::from_pairs(vec![
            ("x", EntityId::new(0)),
            ("x", EntityId::new(1)),
            ("x", EntityId::new(0)),
            ("x", EntityId::new(2)),
        ]);
        assert_eq!(m2.lookup("x"), None);
        assert_eq!(m2.ambiguous_dropped(), 1);
    }

    #[test]
    fn duplicate_same_entity_is_fine() {
        let m =
            EntityMatcher::from_pairs(vec![("same", EntityId::new(3)), ("same", EntityId::new(3))]);
        assert_eq!(m.lookup("same"), Some(EntityId::new(3)));
        assert_eq!(m.ambiguous_dropped(), 0);
    }

    #[test]
    fn empty_matcher_and_query() {
        let m = EntityMatcher::from_pairs(Vec::<(&str, EntityId)>::new());
        assert!(m.is_empty());
        assert!(m.segment("anything at all").is_empty());
        let m2 = matcher();
        assert!(m2.segment("").is_empty());
        assert!(m2.segment("???").is_empty());
    }

    #[test]
    fn tsv_roundtrip() {
        let m = matcher();
        let tsv = m.to_tsv();
        let restored = EntityMatcher::from_tsv(&tsv).unwrap();
        assert_eq!(restored.len(), m.len());
        assert_eq!(restored.lookup("indy 4"), m.lookup("indy 4"));
        assert_eq!(restored.lookup("350d"), m.lookup("350d"));
        // No fuzzy side, no header.
        assert!(restored.fuzzy_config().is_none());
        // Deterministic output: re-serializing is byte-identical.
        assert_eq!(restored.to_tsv(), tsv);
        // Sorted by surface.
        let lines: Vec<&str> = tsv.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn tsv_roundtrip_preserves_fuzzy_config() {
        let config = FuzzyConfig {
            gram_size: 3,
            max_distance: 1,
            abbrev: true,
            ..FuzzyConfig::default()
        };
        let m = matcher().with_fuzzy(config.clone());
        let tsv = m.to_tsv();
        assert!(tsv.starts_with("#!fuzzy\t"), "{tsv:?}");
        let restored = EntityMatcher::from_tsv(&tsv).unwrap();
        assert_eq!(restored.fuzzy_config(), Some(&config));
        // Fuzzy lookups survive the round-trip.
        let hit = restored.lookup_fuzzy("cannon eos 350d").expect("fuzzy hit");
        assert_eq!(hit.entity, EntityId::new(2));
        assert_eq!(hit.distance, 1);
        // And the round-trip is a fixed point.
        assert_eq!(restored.to_tsv(), tsv);
    }

    #[test]
    fn tsv_rejects_malformed_rows() {
        assert!(EntityMatcher::from_tsv("no tab here").is_err());
        assert!(EntityMatcher::from_tsv("surface\tnot-a-number").is_err());
        assert!(EntityMatcher::from_tsv("a\tb\t3").is_err(), "embedded tab");
        // Malformed fuzzy headers are rejected too.
        assert!(EntityMatcher::from_tsv("#!fuzzy\tgram_size=x\n").is_err());
        assert!(EntityMatcher::from_tsv("#!fuzzy\tnot_a_key=1\n").is_err());
        assert!(EntityMatcher::from_tsv("#!fuzzy\ttranspositions=maybe\n").is_err());
        // Artifacts from before the phonetic source was removed load
        // when it was off, and name it when it was on.
        let old = EntityMatcher::from_tsv("#!fuzzy\tphonetic=false\tabbrev=true\nindy 4\t0\n")
            .expect("phonetic=false still loads");
        assert_eq!(
            old.fuzzy_config(),
            Some(&FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            })
        );
        let err = EntityMatcher::from_tsv("#!fuzzy\tphonetic=true\n").unwrap_err();
        assert!(err.to_string().contains("phonetic"), "{err}");
        // Empty input is a valid (empty) dictionary.
        let empty = EntityMatcher::from_tsv("").unwrap();
        assert!(empty.is_empty());
        // Blank lines are skipped.
        let ok = EntityMatcher::from_tsv("alpha\t1\n\nbeta\t2\n").unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn no_overlapping_spans() {
        let m = matcher();
        let spans = m.segment("indy 4 indy 4 madagascar 2");
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert_eq!(spans.len(), 3);
    }

    #[test]
    fn fuzzy_lookup_resolves_typos_exact_misses() {
        let m = fuzzy_matcher();
        assert_eq!(m.lookup("cannon eos 350d"), None);
        let hit = m.lookup_fuzzy("cannon eos 350d").expect("fuzzy hit");
        assert_eq!(hit.entity, EntityId::new(2));
        assert_eq!(hit.surface(), "canon eos 350d");
        assert_eq!(hit.distance, 1);
        // Exact surfaces still resolve exactly (distance 0).
        let exact = m.lookup_fuzzy("INDY 4").expect("exact hit");
        assert_eq!(exact.entity, EntityId::new(0));
        assert_eq!(exact.distance, 0);
    }

    #[test]
    fn fuzzy_disabled_is_exact_only() {
        let m = matcher();
        assert!(m.fuzzy_config().is_none());
        assert!(m.lookup_fuzzy("cannon eos 350d").is_none());
        // ("350d" alone would exact-match, so misspell every token.)
        assert!(m.segment("cannon eos 350dd best price").is_empty());
    }

    #[test]
    fn fuzzy_segment_recovers_misspelled_mention() {
        let m = fuzzy_matcher();
        let spans = m.segment("cheapest cannon eos 350d deals");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entity, EntityId::new(2));
        assert_eq!(spans[0].surface(), "canon eos 350d");
        assert_eq!(spans[0].distance, 1);
        assert_eq!((spans[0].start, spans[0].end), (1, 4));
    }

    #[test]
    fn fuzzy_segment_prefers_exact_window() {
        // An exact hit in a window must win over any fuzzy resolution
        // of the same window.
        let m = fuzzy_matcher();
        let spans = m.segment("watch madagascar 2 online");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].distance, 0);
        assert_eq!(spans[0].surface(), "madagascar 2");
    }

    #[test]
    fn match_batch_is_order_preserving() {
        let m = fuzzy_matcher();
        let queries: Vec<String> = vec![
            "indy 4 near san fran".into(),
            "cheapest cannon eos 350d deals".into(),
            "no entities here".into(),
            "madagascar 2 showtimes".into(),
            "watch indiana jones 4 online".into(),
        ];
        let sequential: Vec<Vec<MatchSpan>> = queries.iter().map(|q| m.segment(q)).collect();
        for shards in [1usize, 2, 3, 8, 64] {
            let batched = m.match_batch(&queries, shards);
            assert_eq!(batched, sequential, "shards={shards}");
        }
        // Empty batch, any shard count.
        assert!(m.match_batch(&Vec::<String>::new(), 4).is_empty());
    }

    #[test]
    fn normalized_request_matches_segment() {
        let m = fuzzy_matcher();
        for q in [
            "Indy 4 near San Fran!",
            "cheapest CANNON eos 350d deals",
            "no entities here",
            "",
        ] {
            let normalized = normalize(q);
            let request = SegmentRequest::normalized(&normalized);
            assert_eq!(m.segment(q), m.resolve(request), "{q:?}");
        }
    }

    #[test]
    fn shared_scratch_is_invisible_and_memoizes() {
        let m = fuzzy_matcher();
        let queries = [
            "cheapest cannon eos 350d deals",
            "cannon eos 350d refurbished",
            "cannon eos 350d near me",
        ];
        let mut scratch = MatchScratch::new();
        let with_scratch: Vec<_> = queries
            .iter()
            .map(|q| m.resolve(SegmentRequest::raw(q).scratch(&mut scratch)))
            .collect();
        let fresh: Vec<_> = queries.iter().map(|q| m.segment(q)).collect();
        assert_eq!(with_scratch, fresh);
        // The repeated misspelled mention (and its sub-windows) were
        // memoized on first sight.
        assert!(!scratch.is_empty());
        let after_first_pass = scratch.len();
        let again: Vec<_> = queries
            .iter()
            .map(|q| m.resolve(SegmentRequest::raw(q).scratch(&mut scratch)))
            .collect();
        assert_eq!(again, fresh);
        assert_eq!(
            scratch.len(),
            after_first_pass,
            "second pass must not re-resolve any window"
        );
        scratch.clear();
        assert!(scratch.is_empty());
    }

    #[test]
    fn shared_dict_is_the_same_allocation() {
        let m = matcher();
        assert!(Arc::ptr_eq(&m.shared_dict(), &m.shared_dict()));
        let clone = m.clone();
        assert!(Arc::ptr_eq(&m.shared_dict(), &clone.shared_dict()));
    }

    #[test]
    fn abbrev_enabled_segmenter_resolves_acronyms() {
        let m = EntityMatcher::from_pairs(vec![("lord of the rings", EntityId::new(9))])
            .with_fuzzy(FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            });
        let spans = m.segment("watch lotr online");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entity, EntityId::new(9));
        assert_eq!(spans[0].surface(), "lord of the rings");
        assert_eq!(spans[0].distance, 0);
    }
}
