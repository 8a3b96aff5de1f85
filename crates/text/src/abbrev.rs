//! Systematic abbreviation transforms.
//!
//! Given a canonical (normalized, tokenized) entity name, this module
//! enumerates the *mechanical* alternative surfaces users type:
//! acronyms ("lord of the rings" → "lotr"), leading-article drops,
//! stopword drops, subtitle truncations, sequel-numeral respellings
//! ("2" ↔ "ii" ↔ "two") and head+number contractions ("madagascar
//! escape 2 africa" → "madagascar 2").
//!
//! The synthetic alias universe builds on these transforms, and the
//! test-suite uses them to check that mined synonyms recover exactly the
//! surfaces the generator planted. Semantic nicknames with no string
//! overlap ("digital rebel xt" for "canon eos 350d") are *not*
//! derivable mechanically — the synth crate plants those separately,
//! which is precisely the paper's point about substring methods being
//! "hopeless for the rest".

use crate::normalize::is_stopword;
use crate::numerals::{arabic_to_roman, arabic_to_words, roman_to_arabic, words_to_arabic};

/// The transform that produced a variant. Carried through the synth
/// world so experiments can report per-transform recall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbbrevKind {
    /// First letters of content words: "lord of the rings" → "lotr".
    Acronym,
    /// Leading article removed: "the dark knight" → "dark knight".
    DropLeadingArticle,
    /// All stopwords removed: "lord of the rings" → "lord rings".
    DropStopwords,
    /// Trailing tokens truncated to a prefix: "madagascar escape 2
    /// africa" → "madagascar escape".
    Truncate,
    /// A numeral token respelled (arabic/roman/words).
    NumeralRespell,
    /// Head word + sequel numeral: "madagascar escape 2 africa" →
    /// "madagascar 2".
    HeadNumber,
    /// Last token alone (model-number style): "canon eos 350d" → "350d".
    TailToken,
}

impl AbbrevKind {
    /// All kinds, for exhaustive reporting.
    pub const ALL: [AbbrevKind; 7] = [
        AbbrevKind::Acronym,
        AbbrevKind::DropLeadingArticle,
        AbbrevKind::DropStopwords,
        AbbrevKind::Truncate,
        AbbrevKind::NumeralRespell,
        AbbrevKind::HeadNumber,
        AbbrevKind::TailToken,
    ];

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AbbrevKind::Acronym => "acronym",
            AbbrevKind::DropLeadingArticle => "drop-leading-article",
            AbbrevKind::DropStopwords => "drop-stopwords",
            AbbrevKind::Truncate => "truncate",
            AbbrevKind::NumeralRespell => "numeral-respell",
            AbbrevKind::HeadNumber => "head-number",
            AbbrevKind::TailToken => "tail-token",
        }
    }
}

/// A generated variant surface with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Variant {
    /// The transform that produced this surface.
    pub kind: AbbrevKind,
    /// The variant text (normalized form).
    pub text: String,
}

/// Enumerates mechanical variants of a canonical token sequence.
///
/// Variants equal to the input surface are suppressed, as are
/// duplicates (first producer wins). Order is deterministic.
///
/// # Examples
///
/// ```
/// use websyn_text::abbrev::{variants, AbbrevKind};
///
/// let v = variants(&["lord", "of", "the", "rings"]);
/// assert!(v.iter().any(|x| x.kind == AbbrevKind::Acronym && x.text == "lotr"));
/// assert!(v.iter().any(|x| x.kind == AbbrevKind::DropStopwords && x.text == "lord rings"));
/// ```
pub fn variants(tokens: &[&str]) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    let original = tokens.join(" ");
    let mut push = |kind: AbbrevKind, text: String| {
        if !text.is_empty() && text != original && !out.iter().any(|v| v.text == text) {
            out.push(Variant { kind, text });
        }
    };

    // Acronym: initials of ALL tokens (real acronyms keep stopword
    // initials: "lord of the rings" → "lotr"), at least 3 tokens, all
    // alphabetic (digit-initial words like "350d" make no acronym).
    let content: Vec<&str> = tokens.iter().copied().filter(|t| !is_stopword(t)).collect();
    if tokens.len() >= 3
        && tokens
            .iter()
            .all(|t| t.chars().next().is_some_and(|c| c.is_alphabetic()))
    {
        let acronym: String = tokens.iter().filter_map(|t| t.chars().next()).collect();
        push(AbbrevKind::Acronym, acronym);
    }

    // Drop a leading article.
    if tokens.len() >= 2 && matches!(tokens[0], "the" | "a" | "an") {
        push(AbbrevKind::DropLeadingArticle, tokens[1..].join(" "));
    }

    // Drop all stopwords (only if it actually removes something and
    // leaves at least one token).
    if !content.is_empty() && content.len() < tokens.len() {
        push(AbbrevKind::DropStopwords, content.join(" "));
    }

    // Truncations: prefixes of length 2 .. len-1 over content-bearing
    // boundaries; emit the two most plausible (longest and shortest ≥2)
    // to keep the variant set realistic rather than exhaustive.
    if tokens.len() >= 3 {
        push(AbbrevKind::Truncate, tokens[..tokens.len() - 1].join(" "));
        if tokens.len() >= 4 {
            push(AbbrevKind::Truncate, tokens[..2].join(" "));
        }
    }

    // Numeral respelling: every token that parses as a number in any
    // spelling produces the other spellings in place.
    for (i, tok) in tokens.iter().enumerate() {
        for alt in numeral_respellings(tok) {
            let mut toks: Vec<&str> = tokens.to_vec();
            toks[i] = alt.as_str();
            push(AbbrevKind::NumeralRespell, toks.join(" "));
        }
    }

    // Head + number: first token plus the (unique) numeral token.
    if tokens.len() >= 3 {
        let numerals: Vec<&str> = tokens[1..]
            .iter()
            .copied()
            .filter(|t| parse_any_numeral(t).is_some())
            .collect();
        if numerals.len() == 1 && !is_stopword(tokens[0]) && parse_any_numeral(tokens[0]).is_none()
        {
            push(
                AbbrevKind::HeadNumber,
                format!("{} {}", tokens[0], numerals[0]),
            );
        }
    }

    // Tail token (model-number style): last token alone, if it carries a
    // digit (e.g. "350d"), which is how people shorten product names.
    if tokens.len() >= 2 {
        let last = tokens[tokens.len() - 1];
        if last.chars().any(|c| c.is_ascii_digit()) && last.len() >= 3 {
            push(AbbrevKind::TailToken, last.to_string());
        }
    }

    out
}

/// Parses a token as a number in any supported spelling.
fn parse_any_numeral(tok: &str) -> Option<u32> {
    if let Ok(n) = tok.parse::<u32>() {
        return Some(n);
    }
    if let Some(n) = roman_to_arabic(tok) {
        return Some(n);
    }
    words_to_arabic(tok)
}

/// The alternative spellings of a numeral token (excluding itself).
///
/// Single-letter roman numerals ("i", "x") are only treated as numerals
/// when parsing *from* arabic/words, not from the bare letter — "i"
/// and "x" are too ambiguous in running text.
fn numeral_respellings(tok: &str) -> Vec<String> {
    let mut out = Vec::new();
    let n = if let Ok(n) = tok.parse::<u32>() {
        Some(n)
    } else if tok.len() >= 2 && roman_to_arabic(tok).is_some() {
        roman_to_arabic(tok)
    } else if words_to_arabic(tok).is_some() && tok.len() >= 3 {
        words_to_arabic(tok)
    } else {
        None
    };
    let Some(n) = n else {
        return out;
    };
    // Keep the sequel-plausible range small: respell 1..=20 only.
    if !(1..=20).contains(&n) {
        return out;
    }
    let arabic = n.to_string();
    if arabic != tok {
        out.push(arabic);
    }
    if let Some(r) = arabic_to_roman(n) {
        let r = r.to_ascii_lowercase();
        if r != tok && r.len() >= 2 {
            out.push(r);
        }
    }
    if let Some(w) = arabic_to_words(n) {
        if w != tok {
            out.push(w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[&str]) -> Vec<String> {
        variants(tokens).into_iter().map(|v| v.text).collect()
    }

    #[test]
    fn acronym_from_content_words() {
        let v = variants(&["lord", "of", "the", "rings"]);
        assert!(v
            .iter()
            .any(|x| x.kind == AbbrevKind::Acronym && x.text == "lotr"));
    }

    #[test]
    fn acronym_needs_three_content_words() {
        let v = variants(&["dark", "knight"]);
        assert!(!v.iter().any(|x| x.kind == AbbrevKind::Acronym));
    }

    #[test]
    fn leading_article_dropped() {
        let t = texts(&["the", "dark", "knight"]);
        assert!(t.contains(&"dark knight".to_string()));
    }

    #[test]
    fn stopwords_dropped() {
        let v = variants(&["lord", "of", "the", "rings"]);
        assert!(v
            .iter()
            .any(|x| x.kind == AbbrevKind::DropStopwords && x.text == "lord rings"));
    }

    #[test]
    fn truncation_produces_prefixes() {
        let t = texts(&["madagascar", "escape", "2", "africa"]);
        assert!(t.contains(&"madagascar escape 2".to_string()));
        assert!(t.contains(&"madagascar escape".to_string()));
    }

    #[test]
    fn numeral_respellings_all_directions() {
        // arabic → roman/words
        let t = texts(&["indiana", "jones", "4"]);
        assert!(t.contains(&"indiana jones iv".to_string()), "{t:?}");
        assert!(t.contains(&"indiana jones four".to_string()));
        // roman → arabic/words
        let t = texts(&["rocky", "iv"]);
        assert!(t.contains(&"rocky 4".to_string()));
        assert!(t.contains(&"rocky four".to_string()));
        // words → arabic/roman
        let t = texts(&["ocean", "eleven"]);
        assert!(t.contains(&"ocean 11".to_string()));
    }

    #[test]
    fn single_letter_roman_not_respelled() {
        // "i" in "mission impossible i" could be a pronoun; we respell
        // only len>=2 roman tokens.
        let t = texts(&["mission", "i"]);
        assert!(!t.contains(&"mission 1".to_string()));
    }

    #[test]
    fn head_number_contraction() {
        let v = variants(&["madagascar", "escape", "2", "africa"]);
        assert!(v
            .iter()
            .any(|x| x.kind == AbbrevKind::HeadNumber && x.text == "madagascar 2"));
    }

    #[test]
    fn head_number_requires_unique_numeral() {
        // Two numerals → ambiguous → no head-number variant.
        let v = variants(&["2", "fast", "2", "furious"]);
        assert!(!v.iter().any(|x| x.kind == AbbrevKind::HeadNumber));
    }

    #[test]
    fn tail_model_number() {
        let v = variants(&["canon", "eos", "350d"]);
        assert!(v
            .iter()
            .any(|x| x.kind == AbbrevKind::TailToken && x.text == "350d"));
        // Pure word tail is not a model number.
        let v = variants(&["dark", "knight"]);
        assert!(!v.iter().any(|x| x.kind == AbbrevKind::TailToken));
    }

    #[test]
    fn no_duplicates_or_identity() {
        let tokens = ["the", "lord", "of", "the", "rings"];
        let v = variants(&tokens);
        let original = tokens.join(" ");
        let mut seen = std::collections::HashSet::new();
        for x in &v {
            assert_ne!(x.text, original);
            assert!(seen.insert(x.text.clone()), "dup {x:?}");
        }
    }

    #[test]
    fn empty_and_single_token_inputs() {
        assert!(variants(&[]).is_empty());
        assert!(variants(&["madagascar"]).is_empty());
    }

    #[test]
    fn deterministic_order() {
        let a = variants(&["indiana", "jones", "4"]);
        let b = variants(&["indiana", "jones", "4"]);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            AbbrevKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), AbbrevKind::ALL.len());
    }
}
