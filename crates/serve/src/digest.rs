//! Content addressing for HDL processor models.
//!
//! The artifact cache keys on *what the model says*, not how it is
//! formatted: the source is normalized (line endings, indentation, blank
//! lines, interior whitespace runs) before hashing, so re-serialized or
//! re-indented copies of one model hit the same cache entry.  Comments
//! are kept — the HDL grammar has none, so stripping would guess.

/// A content digest of a normalized HDL model.
pub type ModelKey = u64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Digests `hdl` under whitespace normalization (FNV-1a over the
/// normalized bytes; a separator byte between lines keeps
/// concatenation-ambiguous inputs apart).
///
/// The digest names a model; it does not prove identity.  FNV-1a is
/// invertible byte by byte, so a different model can be made to answer
/// the same key; the target cache compares the model text on a hit.
pub fn model_key(hdl: &str) -> ModelKey {
    let mut h = FNV_OFFSET;
    for_each_normalized_byte(hdl, |b| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    });
    h
}

/// Are `a` and `b` the same model under [`model_key`]'s normalization?
pub(crate) fn same_model(a: &str, b: &str) -> bool {
    let normalized = |hdl: &str| {
        let mut bytes = Vec::with_capacity(hdl.len());
        for_each_normalized_byte(hdl, |b| bytes.push(b));
        bytes
    };
    a == b || normalized(a) == normalized(b)
}

/// Feeds `eat` the bytes [`model_key`] digests: each non-blank line
/// trimmed, its runs of spaces and tabs collapsed to one space, and
/// ended by a newline.
fn for_each_normalized_byte(hdl: &str, mut eat: impl FnMut(u8)) {
    for line in hdl.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut pending_space = false;
        for b in line.bytes() {
            if b == b' ' || b == b'\t' {
                pending_space = true;
            } else {
                if pending_space {
                    eat(b' ');
                    pending_space = false;
                }
                eat(b);
            }
        }
        eat(b'\n');
    }
}

/// Renders a key the way the wire protocol and logs show it.
pub fn render_key(key: ModelKey) -> String {
    format!("{key:016x}")
}

/// Parses a key rendered by [`render_key`].
pub fn parse_key(s: &str) -> Option<ModelKey> {
    (s.len() == 16).then(|| ModelKey::from_str_radix(s, 16).ok())?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_does_not_change_the_key() {
        let a = "processor p {\n  reg ac[16];\n}\n";
        let b = "\r\n processor   p {\r\n\treg ac[16];\n\n }";
        assert_eq!(model_key(a), model_key(b));
    }

    #[test]
    fn content_changes_the_key() {
        let a = "processor p { reg ac[16]; }";
        let b = "processor p { reg ac[8]; }";
        assert_ne!(model_key(a), model_key(b));
        // Joining two lines is a different model than keeping them apart.
        assert_ne!(model_key("ab\ncd"), model_key("abcd"));
    }

    #[test]
    fn same_model_follows_the_key_normalization() {
        let a = "processor p {\n  reg ac[16];\n}\n";
        assert!(same_model(a, "\r\n processor   p {\r\n\treg ac[16];\n\n }"));
        assert!(!same_model(a, "processor p { reg ac[8]; }"));
        assert!(!same_model("ab\ncd", "abcd"));
    }

    #[test]
    fn keys_render_and_parse() {
        let k = model_key("processor p {}");
        assert_eq!(parse_key(&render_key(k)), Some(k));
        assert_eq!(parse_key("xyz"), None);
        assert_eq!(parse_key(""), None);
    }
}
