//! The text memo: the canonical `.bench` text of every inline netlist
//! the key step has read, keyed by the submitted bytes. A netlist
//! submitted again — the same text under another flow, overhead or
//! name — skips the reader and the canonical sort: its key step is one
//! SHA-256 over the raw bytes and a lookup here.
//!
//! The daemon remembers a text only once it is known to build: after
//! its canonical netlist was built (a result-cache miss) or after its
//! key answered a hit. A text that fails to read or to build is never
//! kept, so it fails the same way every time it is sent.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use crate::hash::Sha256;
use crate::job::InputFormat;
use crate::lru::Lru;

/// The canonical bytes the daemon's memo keeps: twice the default
/// request-line cap (16 MiB), so the largest text a client may send
/// fits. The largest suite circuit's canonical text (plasma) is
/// 0.32 MiB, and all twelve together are 1.0 MiB.
pub(crate) const TEXT_MEMO_BYTES: u64 = 32 << 20;

/// Canonical texts by [`TextMemo::digest`], least recently used first
/// out, each entry weighed by its text's bytes. Shared by every
/// reactor.
pub(crate) struct TextMemo {
    texts: Mutex<Texts>,
    cap: u64,
}

struct Texts {
    by_digest: Lru<Arc<str>>,
    /// Each distinct canonical text once: the statement orders of one
    /// circuit read to one text, and their entries share it.
    distinct: HashSet<Arc<str>>,
}

impl TextMemo {
    /// An empty memo whose entries weigh at most `cap` canonical bytes.
    pub(crate) fn new(cap: u64) -> TextMemo {
        TextMemo {
            texts: Mutex::new(Texts {
                by_digest: Lru::new(cap),
                distinct: HashSet::new(),
            }),
            cap,
        }
    }

    /// The memo key of `text` read as `format`: SHA-256 (hex) over the
    /// format's tag and the raw bytes. The display name is not part of
    /// it; the cache key hashes that. Opens a `digest` span.
    pub(crate) fn digest(format: InputFormat, text: &str) -> String {
        let _digest = retime_trace::span("digest");
        let tag: &[u8] = match format {
            InputFormat::Bench => b"bench\n",
            InputFormat::Edif => b"edif\n",
        };
        Sha256::new()
            .update(tag)
            .update(text.as_bytes())
            .finish_hex()
    }

    /// The canonical text remembered under `digest`, now the most
    /// recently used.
    pub(crate) fn get(&self, digest: &str) -> Option<Arc<str>> {
        let mut texts = self.texts.lock().expect("memo lock");
        texts.by_digest.get(digest).cloned()
    }

    /// Remembers `canonical` under `digest`, then forgets the least
    /// recently used entries until their weights fit the cap, and the
    /// texts no entry holds any more. A text larger than the whole cap
    /// is not kept, and evicts nothing.
    pub(crate) fn insert(&self, digest: &str, canonical: &str) {
        let weight = canonical.len() as u64;
        if weight > self.cap {
            return;
        }
        let mut texts = self.texts.lock().expect("memo lock");
        let Texts {
            by_digest,
            distinct,
        } = &mut *texts;
        let text = match distinct.get(canonical) {
            Some(text) => Arc::clone(text),
            None => {
                let text: Arc<str> = Arc::from(canonical);
                distinct.insert(Arc::clone(&text));
                text
            }
        };
        by_digest.insert(digest, text, weight);
        while by_digest.pop_over_cap().is_some() {}
        distinct.retain(|text| Arc::strong_count(text) > 1);
    }

    /// Canonical bytes resident: each distinct text once.
    pub(crate) fn bytes(&self) -> u64 {
        let texts = self.texts.lock().expect("memo lock");
        texts.distinct.iter().map(|text| text.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_texts_by_bytes() {
        let memo = TextMemo::new(10);
        memo.insert("a", "aaaa");
        memo.insert("b", "bbbb");
        assert_eq!(
            memo.get("a").as_deref(),
            Some("aaaa"),
            "a is now most recent"
        );
        // c fills the cap; d tips it over, and b, the least recently
        // used, goes.
        memo.insert("c", "cc");
        assert_eq!(memo.bytes(), 10);
        memo.insert("d", "d");
        assert_eq!(memo.get("b"), None);
        assert_eq!(memo.bytes(), 7);
        for (key, text) in [("a", "aaaa"), ("c", "cc"), ("d", "d")] {
            assert_eq!(memo.get(key).as_deref(), Some(text), "{key}");
        }
        // Re-remembering a text re-weighs it.
        memo.insert("a", "a");
        assert_eq!(memo.bytes(), 4);
    }

    #[test]
    fn entries_with_one_canonical_text_share_it() {
        let memo = TextMemo::new(12);
        memo.insert("order 1", "text");
        memo.insert("order 2", "text");
        assert_eq!(memo.bytes(), 4, "one text resident");
        let (one, two) = (memo.get("order 1").unwrap(), memo.get("order 2").unwrap());
        assert!(Arc::ptr_eq(&one, &two));
        drop((one, two));
        // Each entry still weighs its text against the cap: a third
        // order evicts the least recently used, and the text stays while
        // an entry holds it.
        memo.insert("order 3", "text");
        memo.insert("other", "xy");
        assert_eq!(memo.get("order 1"), None);
        assert_eq!(memo.bytes(), 6);
        memo.insert("big", "0123456789");
        assert_eq!((memo.get("order 2"), memo.get("order 3")), (None, None));
        assert_eq!(memo.bytes(), 12, "the shared text went with its last entry");
    }

    #[test]
    fn never_keeps_a_text_larger_than_the_cap() {
        let memo = TextMemo::new(8);
        memo.insert("small", "12345678");
        memo.insert("big", "123456789");
        assert_eq!(memo.get("big"), None);
        // The oversized text evicted nothing to make room.
        assert_eq!(memo.get("small").as_deref(), Some("12345678"));
        assert_eq!(memo.bytes(), 8);
    }

    #[test]
    fn the_digest_keys_the_format_and_the_bytes() {
        let text = "INPUT(a)\n";
        let bench = TextMemo::digest(InputFormat::Bench, text);
        assert_eq!(bench, TextMemo::digest(InputFormat::Bench, text));
        assert_ne!(bench, TextMemo::digest(InputFormat::Edif, text));
        assert_ne!(bench, TextMemo::digest(InputFormat::Bench, "INPUT(a) \n"));
        assert_eq!(bench, crate::hash::sha256_hex(b"bench\nINPUT(a)\n"));
    }
}
