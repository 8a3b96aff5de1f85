//! Counted memory gate for the serving dictionary: a counting global
//! allocator tallies what `EntityMatcher::from_tsv` keeps alive for the
//! synthetic product dictionary with the default `#!fuzzy` header.
//!
//! - **Bytes per surface.** The hash-map layout (one `Arc<str>` per
//!   surface, one `Box<str>` key per interned token, one key and one
//!   `Vec` per posted token run, and a `Vec` per n-gram) retained
//!   587–590 heap bytes per surface at 20,000 surfaces over two
//!   measurements. The flat layout must retain at most half of 587.
//! - **Blocks.** That layout kept about 7 live heap blocks per surface
//!   (140,562 at 20,000 surfaces). The flat layout keeps a fixed set of
//!   arrays whatever the dictionary's size.
//! - **`heap_bytes`.** The figure the server publishes as
//!   `websyn_dict_heap_bytes` agrees with the allocator's tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use websyn::common::EntityId;
use websyn::core::{EntityMatcher, FuzzyConfig};

/// Counts live heap bytes and blocks across the whole process.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping only touches atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Retained heap of the hash-map layout at 20,000 surfaces, per
/// surface (the lower of its two measured figures).
const HASH_MAP_BYTES_PER_SURFACE: usize = 587;

/// Live blocks a compiled fuzzy dictionary may keep, at any size.
const MAX_BLOCKS: isize = 64;

/// The artifact the server loads: the default `#!fuzzy` header, then
/// `surface TAB entity` rows.
fn tsv(n: usize) -> String {
    let header = EntityMatcher::from_pairs(vec![("a", EntityId::new(0))])
        .with_fuzzy(FuzzyConfig::default())
        .to_tsv();
    let mut out: String = header
        .lines()
        .filter(|l| l.starts_with("#!fuzzy"))
        .map(|l| format!("{l}\n"))
        .collect();
    for (surface, entity) in websyn_bench::synth_product_dictionary(n) {
        out.push_str(&format!("{surface}\t{}\n", entity.raw()));
    }
    out
}

/// What loading `n` surfaces leaves alive: (bytes, blocks,
/// `heap_bytes()`).
fn retained(n: usize) -> (usize, isize, usize) {
    let tsv = tsv(n);
    let (bytes, blocks) = (
        LIVE_BYTES.load(Ordering::SeqCst),
        LIVE_BLOCKS.load(Ordering::SeqCst),
    );
    let matcher = EntityMatcher::from_tsv(&tsv).expect("valid artifact");
    let kept = (
        (LIVE_BYTES.load(Ordering::SeqCst) - bytes) as usize,
        LIVE_BLOCKS.load(Ordering::SeqCst) - blocks,
        matcher.heap_bytes(),
    );
    assert_eq!(matcher.len(), n);
    assert!(matcher.fuzzy_config().is_some());
    kept
}

/// One test, so nothing else in this binary allocates while it counts.
#[test]
fn flat_dictionary_keeps_half_the_bytes_in_a_fixed_set_of_blocks() {
    let n = 20_000;
    let (bytes, blocks, reported) = retained(n);
    assert!(
        bytes / n <= HASH_MAP_BYTES_PER_SURFACE / 2,
        "{} retained bytes per surface, above half of {HASH_MAP_BYTES_PER_SURFACE}",
        bytes / n
    );
    assert!(blocks <= MAX_BLOCKS, "{blocks} live blocks");
    let (_, small_blocks, _) = retained(n / 10);
    assert_eq!(
        small_blocks, blocks,
        "block count grows with the dictionary"
    );
    let gap = reported.abs_diff(bytes) as f64 / bytes as f64;
    assert!(
        gap <= 0.05,
        "heap_bytes() reports {reported}, the allocator counted {bytes}"
    );
}
