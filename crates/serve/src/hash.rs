//! SHA-256 (FIPS 180-4), implemented from the specification — the
//! content-addressed cache needs a collision-resistant digest and the
//! workspace takes no crypto crate.
//!
//! Two compression paths give the same digest: on an `x86_64` CPU with
//! the SHA extensions (plus SSSE3 and SSE4.1) the block function runs on
//! the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions, detected
//! once per process; everywhere else it runs the portable code.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256: feed the message in any number of pieces with
/// [`Sha256::update`], then [`Sha256::finish`]. The digest depends only
/// on the concatenated bytes, never on how they were split, so a key can
/// stream its preamble and its text without first copying them into one
/// buffer.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    /// Bytes of a partial block not yet compressed.
    block: [u8; 64],
    filled: usize,
    /// Total message length in bytes.
    len: u64,
    engine: Engine,
}

/// Which block function a hasher compresses with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The FIPS 180-4 rounds in plain Rust.
    Portable,
    /// The x86 SHA extensions.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Engine {
    /// The fastest engine this CPU runs (`std` caches the CPU feature
    /// probe, so it runs once per process).
    fn detect() -> Engine {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return Engine::ShaNi;
        }
        Engine::Portable
    }

    /// Compresses every whole 64-byte block of `data` into `h`; `data`'s
    /// length is a multiple of 64.
    fn compress_blocks(self, h: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        match self {
            Engine::Portable => {
                for block in data.chunks_exact(64) {
                    compress(h, block.try_into().expect("64-byte block"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only chosen after `shani::available`.
            Engine::ShaNi => unsafe { shani::compress_blocks(h, data) },
        }
    }
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message.
    pub fn new() -> Sha256 {
        Sha256::with_engine(Engine::detect())
    }

    fn with_engine(engine: Engine) -> Sha256 {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            block: [0; 64],
            filled: 0,
            len: 0,
            engine,
        }
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Sha256 {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return self;
            }
            self.engine.compress_blocks(&mut self.h, &self.block);
            self.filled = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        self.engine.compress_blocks(&mut self.h, blocks);
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
        self
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> [u8; 32] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        let mut h = self.h;
        let mut tail = [0u8; 128];
        tail[..self.filled].copy_from_slice(&self.block[..self.filled]);
        tail[self.filled] = 0x80;
        let end = if self.filled < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        self.engine.compress_blocks(&mut h, &tail[..end]);
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// [`Sha256::finish`] in lower hex.
    pub fn finish_hex(&self) -> String {
        hex(&self.finish())
    }
}

/// One SHA-256 compression round of `block` into the state `h`.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().unwrap());
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for t in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// The block function on the x86 SHA extensions. The state is kept as
/// the two `ABEF`/`CDGH` halves `sha256rnds2` works on; each call of it
/// runs two rounds, so a block is 32 calls with the message schedule
/// carried four words at a time by `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU has every instruction [`compress_blocks`] uses.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds on the message words `w` (`w[t] + K[t]` lane by lane).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        // SAFETY: `K` holds 64 words and `i < 16`.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Compresses every whole 64-byte block of `data` into `h`.
    ///
    /// # Safety
    /// The CPU must support SHA, SSSE3 and SSE4.1 ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(h: &mut [u32; 8], data: &[u8]) {
        // Byte order of each 32-bit lane, big-endian message words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let state = h.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `h` is 32 bytes, two unaligned 16-byte lanes.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(state), _mm_loadu_si128(state.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in data.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: the block is 64 bytes, four unaligned 16-byte lanes.
            let mut w = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            for wi in &mut w {
                *wi = _mm_shuffle_epi8(*wi, bswap);
            }
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            for i in 4..16 {
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    ),
                    w[3],
                );
                rounds4(&mut abef, &mut cdgh, next, i);
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: as for the loads.
        unsafe {
            _mm_storeu_si128(state, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(state.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    Sha256::new().update(data).finish()
}

fn hex(digest: &[u8; 32]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(64);
    for &b in digest {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Lower-hex SHA-256 digest of `data`.
pub fn sha256_hex(data: &[u8]) -> String {
    hex(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine this CPU runs; the intrinsic one is reported as
    /// skipped where the CPU lacks the SHA extensions.
    fn engines() -> Vec<Engine> {
        let mut engines = vec![Engine::Portable];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            engines.push(Engine::ShaNi);
        }
        if engines.len() == 1 {
            eprintln!("skipped: no SHA-256 instructions on this CPU, portable path only");
        }
        engines
    }

    fn digest_hex(engine: Engine, data: &[u8]) -> String {
        hex(&Sha256::with_engine(engine).update(data).finish())
    }

    #[test]
    fn fips_vectors() {
        for engine in engines() {
            for (data, want) in [
                (
                    &b""[..],
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                ),
                (
                    b"abc",
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                ),
                (
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                ),
            ] {
                assert_eq!(digest_hex(engine, data), want, "{engine:?}");
            }
        }
    }

    /// Any split of the message into pieces gives the one-shot digest,
    /// across the 55/56/64-byte padding edges.
    #[test]
    fn streamed_pieces_match_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for engine in engines() {
            for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 300] {
                let whole = Sha256::with_engine(engine).update(&data[..len]).finish();
                for split in [0, 1, 3, 55, 64, 100] {
                    let split = split.min(len);
                    let mut h = Sha256::with_engine(engine);
                    h.update(&data[..split]);
                    for piece in data[split..len].chunks(13) {
                        h.update(piece);
                    }
                    assert_eq!(h.finish(), whole, "{engine:?}: len {len}, split {split}");
                }
            }
        }
    }

    /// Every engine gives the portable digest on every length 0–300 and
    /// on a multi-block message, fed whole and in 13-byte pieces.
    #[test]
    fn engines_agree_with_the_portable_path() {
        let short: Vec<u8> = (0..300u32).map(|i| (i * 31 + 17) as u8).collect();
        let long: Vec<u8> = (0..10_007u32).map(|i| (i ^ (i >> 5)) as u8).collect();
        let messages = (0..=short.len())
            .map(|len| &short[..len])
            .chain([&long[..]]);
        for data in messages {
            let want = Sha256::with_engine(Engine::Portable).update(data).finish();
            for engine in engines() {
                let mut pieces = Sha256::with_engine(engine);
                for piece in data.chunks(13) {
                    pieces.update(piece);
                }
                let whole = Sha256::with_engine(engine).update(data).finish();
                assert_eq!(whole, want, "{engine:?}: len {}", data.len());
                assert_eq!(
                    pieces.finish(),
                    want,
                    "{engine:?}: len {} in pieces",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn multi_block_message() {
        // One million 'a's, the classic long-message vector.
        let data = vec![b'a'; 1_000_000];
        for engine in engines() {
            assert_eq!(
                digest_hex(engine, &data),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{engine:?}"
            );
        }
        // The public entry point uses the detected engine.
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
