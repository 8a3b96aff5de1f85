//! The character-count ("bag") lower bound on edit distance.
//!
//! Every insertion or deletion changes the count of one character by
//! one; a substitution moves one count down and another up; an adjacent
//! transposition moves none. So for strings `q` and `s` with character
//! multisets `Q` and `S`, both the Levenshtein and the OSA
//! (Damerau) distance are at least
//!
//! `max(Σ max(0, Q[c] − S[c]), Σ max(0, S[c] − Q[c]))`
//!
//! (Bartolini, Ciaccia & Patella, "String matching with metric trees
//! using an approximate distance", SPIRE 2002). The fuzzy resolver
//! uses it to reject a candidate surface without loading its string.
//!
//! [`CharBag`] keeps the counts in 38 four-bit lanes: one per `a`–`z`,
//! one per `0`–`9`, one for space and one for every other char. Counts
//! saturate at 7. Merging chars into one lane and saturating only
//! weaken the bound, so it stays a lower bound on both distances for
//! any text. Chars are counted, not bytes: `é` → `e` is one edit, and
//! counting UTF-8 bytes would move the "other" lane by two.
//!
//! The lanes pack into three `u64`s, and both sums are computed with
//! SWAR arithmetic: a handful of integer operations per word, no loop
//! over lanes.

/// Number of lanes: 26 letters, 10 digits, space, everything else.
const LANES: usize = 38;
/// Lanes per `u64` word (four bits each).
const LANES_PER_WORD: usize = 16;
/// Counts stop growing here: 7 leaves each lane's high bit free, which
/// the SWAR subtraction uses as its borrow guard.
const SATURATION: u64 = 7;
/// The high bit of every four-bit lane.
const HIGH: u64 = 0x8888_8888_8888_8888;
/// The low nibble of every byte.
const LOW_NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;
/// The low byte of every 16-bit lane.
const LOW_BYTES: u64 = 0x00FF_00FF_00FF_00FF;

/// Saturated per-lane character counts of one string.
///
/// # Examples
///
/// ```
/// use websyn_text::{damerau_levenshtein, CharBag};
///
/// let q = CharBag::of("canon eos");
/// let s = CharBag::of("nikon d80");
/// // The bound never exceeds the distance it stands in for.
/// assert!(q.bound(&s) <= damerau_levenshtein("canon eos", "nikon d80"));
/// // A transposition moves no count.
/// assert_eq!(CharBag::of("cnaon").bound(&CharBag::of("canon")), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CharBag([u64; 3]);

/// The lane a char is counted in.
fn lane(c: char) -> usize {
    match c {
        'a'..='z' => c as usize - 'a' as usize,
        '0'..='9' => 26 + (c as usize - '0' as usize),
        ' ' => 36,
        _ => LANES - 1,
    }
}

impl CharBag {
    /// Counts the chars of `s`.
    pub fn of(s: &str) -> Self {
        let mut words = [0u64; 3];
        for c in s.chars() {
            let l = lane(c);
            let shift = (l % LANES_PER_WORD) * 4;
            let word = &mut words[l / LANES_PER_WORD];
            if (*word >> shift) & 0xF < SATURATION {
                *word += 1 << shift;
            }
        }
        Self(words)
    }

    /// `Σ max(0, self[c] − other[c])`: how many of this string's chars
    /// (lane by lane, saturated) the other string cannot match. Each of
    /// them costs an edit, so this alone is a lower bound on the
    /// distance. It only grows as `other` loses chars: a prefix of
    /// `other` is never closer than `other` itself.
    pub fn excess(&self, other: &CharBag) -> usize {
        let mut bytes = 0u64;
        for (&a, &b) in self.0.iter().zip(&other.0) {
            // Per lane `8 + a − b` lies in [1, 15], so no borrow
            // crosses a lane, and the lane's high bit is set iff a ≥ b.
            let t = (a | HIGH) - b;
            let keep = ((t & HIGH) >> 3) * 7;
            let lanes = t & keep;
            // Four-bit lanes (each ≤ 7) to byte sums (each ≤ 14); three
            // words add up to ≤ 42 per byte.
            bytes += (lanes & LOW_NIBBLES) + ((lanes >> 4) & LOW_NIBBLES);
        }
        // Bytes to 16-bit sums (≤ 84 each), then one multiply adds the
        // four of them into the top 16 bits (≤ 336).
        let halves = (bytes & LOW_BYTES) + ((bytes >> 8) & LOW_BYTES);
        (halves.wrapping_mul(0x0001_0001_0001_0001) >> 48) as usize
    }

    /// The lower bound on the Levenshtein and OSA distance between the
    /// two strings: the larger of the two [`CharBag::excess`] sums.
    pub fn bound(&self, other: &CharBag) -> usize {
        self.excess(other).max(other.excess(self))
    }
}

// The lane layout must fit the three words.
const _: () = assert!(LANES <= 3 * LANES_PER_WORD);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{damerau_levenshtein, levenshtein};

    /// Lane-by-lane reference of [`CharBag::excess`].
    fn excess_ref(a: &CharBag, b: &CharBag) -> usize {
        (0..LANES)
            .map(|l| {
                let get =
                    |bag: &CharBag| (bag.0[l / LANES_PER_WORD] >> ((l % LANES_PER_WORD) * 4)) & 0xF;
                get(a).saturating_sub(get(b)) as usize
            })
            .sum()
    }

    #[test]
    fn counts_chars_not_bytes() {
        // One substitution; counting the two UTF-8 bytes of "é" would
        // report 2 and break soundness.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(CharBag::of("café").bound(&CharBag::of("cafe")), 1);
        assert_eq!(CharBag::of("東京").bound(&CharBag::of("東")), 1);
    }

    #[test]
    fn counts_saturate_at_seven() {
        let long = CharBag::of(&"a".repeat(20));
        assert_eq!(long, CharBag::of(&"a".repeat(7)));
        assert_eq!(long.excess(&CharBag::of("")), 7);
    }

    #[test]
    fn lanes_cover_letters_digits_space_and_other() {
        let bag = CharBag::of("az09 .Q");
        assert_eq!(excess_ref(&bag, &CharBag::default()), 7);
        // Uppercase and punctuation share the "other" lane.
        assert_eq!(CharBag::of("Q").bound(&CharBag::of(".")), 0);
        assert_eq!(CharBag::of("a").bound(&CharBag::of("b")), 1);
    }

    #[test]
    fn swar_sum_matches_the_lane_by_lane_reference() {
        // Every lane at saturation on one side, empty on the other: the
        // largest sums the byte folds must carry.
        let all: String = ('a'..='z')
            .chain('0'..='9')
            .chain([' ', '#'])
            .flat_map(|c| std::iter::repeat_n(c, 9))
            .collect();
        let full = CharBag::of(&all);
        assert_eq!(full.excess(&CharBag::default()), LANES * 7);
        assert_eq!(CharBag::default().excess(&full), 0);
        for (a, b) in [
            ("canon eos 350d", "cannon eos 350"),
            ("indiana jones 4", "indy 4"),
            ("zzzz 9999 ##", "aaaa 0000 !!"),
        ] {
            let (a, b) = (CharBag::of(a), CharBag::of(b));
            assert_eq!(a.excess(&b), excess_ref(&a, &b));
            assert_eq!(b.excess(&a), excess_ref(&b, &a));
        }
    }

    #[test]
    fn bound_is_tight_for_pure_insertions() {
        assert_eq!(CharBag::of("canon").bound(&CharBag::of("cannon")), 1);
        assert_eq!(
            CharBag::of("canon eos").bound(&CharBag::of("canon eos 350d")),
            damerau_levenshtein("canon eos", "canon eos 350d")
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::distance::{damerau_levenshtein, levenshtein};
    use proptest::prelude::*;

    /// Letters, digits, space, uppercase, punctuation, multi-byte
    /// Latin, CJK and emoji: every lane, and chars whose UTF-8 form is
    /// two to four bytes.
    const ALPHABET: &str = "[a-eA-C0-3 .,éß東😀]{0,14}";

    /// Every char-boundary prefix of `s`, the empty one included.
    fn prefixes(s: &str) -> impl Iterator<Item = &str> {
        s.char_indices()
            .map(|(i, _)| &s[..i])
            .chain(std::iter::once(s))
    }

    fn check(a: &str, b: &str) {
        let (qa, qb) = (CharBag::of(a), CharBag::of(b));
        let bound = qa.bound(&qb);
        assert!(bound <= levenshtein(a, b), "{a:?} {b:?}: {bound}");
        assert!(bound <= damerau_levenshtein(a, b), "{a:?} {b:?}: {bound}");
        // The prefix property the per-position generator relies on:
        // what `b` has beyond the whole of `a` lower-bounds its
        // distance to every prefix of `a`.
        let beyond = qb.excess(&qa);
        for p in prefixes(a) {
            assert!(
                beyond <= CharBag::of(p).bound(&qb),
                "{p:?} of {a:?} vs {b:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bound_never_exceeds_either_distance(a in ALPHABET, b in ALPHABET) {
            check(&a, &b);
        }

        /// A damaged copy of `a`: the régime the fuzzy resolver meets,
        /// where the distance is small and a loose bound shows.
        #[test]
        fn bound_holds_on_near_neighbours(
            a in ALPHABET,
            edit in "[a-c é東😀]{0,2}",
            at in 0usize..16,
        ) {
            let chars: Vec<char> = a.chars().collect();
            let at = at.min(chars.len());
            let mut b: String = chars[..at].iter().collect();
            b.push_str(&edit);
            b.extend(chars[(at + 1).min(chars.len())..].iter());
            check(&a, &b);
        }

        /// Runs longer than the saturation point, on both sides.
        #[test]
        fn bound_holds_past_saturation(a in "[ab é]{0,24}", b in "[ab é]{0,24}") {
            check(&a, &b);
        }
    }
}
