//! FIPS 180-4 SHA-256, one-shot and incremental.
//!
//! The compression function runs on the x86-64 SHA extensions when the
//! CPU has them, detected once at run time, and on portable code
//! otherwise. Both produce identical output; the portable kernel stays as
//! the reference the tests and `bench_crypto_json` compare against.

use std::fmt;
use std::sync::OnceLock;

/// A 256-bit hash value.
///
/// Used throughout the workspace for block hashes, header chains and
/// transaction identifiers.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::{sha256, Hash256};
///
/// let h: Hash256 = sha256(b"abc");
/// assert_eq!(
///     h.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// assert_eq!(Hash256::from_hex(&h.to_hex()).unwrap(), h);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as the "previous hash" of genesis blocks.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the lowercase hex encoding of the hash.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Hash256(arr))
    }

    /// Views the hash as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}..)", &self.to_hex()[..16])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::{sha256, Digest};
///
/// let mut d = Digest::new();
/// d.update(b"hello ");
/// d.update(b"world");
/// assert_eq!(d.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Digest {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    kernel: Kernel,
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Digest")
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a fresh hasher on the fastest kernel this CPU runs.
    pub fn new() -> Digest {
        Digest::with_kernel(Kernel::selected())
    }

    fn with_kernel(kernel: Kernel) -> Digest {
        Digest {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
            kernel,
        }
    }

    /// Absorbs `data` into the hash state.
    // lint:allow(panic): `take ≤ 64 - buffered` keeps every range inside the 64-byte buffer, and the tail of `as_chunks::<64>` is shorter than 64 bytes
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        // Every whole block goes to the kernel in one call.
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    // lint:allow(panic): `update` leaves `buffered < 64`, so the 0x80 byte and the zero fill after it stay inside the 64-byte buffer
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, then the 8-byte
        // big-endian bit length, written into the buffer in place.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it takes one more block.
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel
            .compress(&mut self.state, std::slice::from_ref(&self.buffer));
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        Hash256(out)
    }
}

/// A SHA-256 compression kernel: folds whole 64-byte blocks into the
/// chaining state. The kernels compute the same function and differ only
/// in the instructions they use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// The portable FIPS 180-4 rounds of [`compress`]: runs on any CPU and
    /// is the reference the hardware kernel is tested against.
    Portable,
    /// The x86-64 SHA extensions; the token proves the CPU has them.
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Cpu),
}

impl Kernel {
    /// The fastest kernel the running CPU supports, chosen once per process.
    fn selected() -> Kernel {
        static SELECTED: OnceLock<Kernel> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if let Some(cpu) = shani::Cpu::detect() {
                return Kernel::ShaNi(cpu);
            }
            Kernel::Portable
        })
    }

    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Portable => blocks.iter().for_each(|block| compress(state, block)),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(cpu) => cpu.compress(state, blocks),
        }
    }
}

/// Name of the compression kernel [`Digest`] runs on this CPU: `"sha-ni"`
/// when the CPU has the x86-64 SHA extensions, `"portable"` otherwise.
pub fn kernel_name() -> &'static str {
    match Kernel::selected() {
        Kernel::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Kernel::ShaNi(_) => "sha-ni",
    }
}

// lint:allow(panic): schedule indices are `< 64` over `[u32; 64]`; `chunks_exact(4)` yields exact 4-byte chunks
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression kernel on the x86-64 SHA extensions (SHA-NI).
///
/// `sha256rnds2` runs two rounds per instruction on the state held as the
/// lane groups ABEF and CDGH; `sha256msg1` and `sha256msg2` extend the
/// message schedule four words at a time. This is the instruction
/// sequence Intel publishes for the extensions. The intrinsics themselves
/// are safe inside a `#[target_feature]` function; `unsafe` is needed
/// only for the unaligned vector loads and stores and for entering that
/// function, which is sound only on a CPU that has the features.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Proof that the running CPU executes SHA, SSSE3 and SSE4.1
    /// instructions. The private field lets only [`Cpu::detect`] make one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Cpu(());

    impl Cpu {
        pub(super) fn detect() -> Option<Cpu> {
            let has_all = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            has_all.then_some(Cpu(()))
        }

        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: a `Cpu` exists only after `detect` saw the CPU report
            // every feature `compress_blocks` is compiled for.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    // SAFETY: callers must run on a CPU with sha, ssse3 and sse4.1. The
    // only caller, `Cpu::compress`, holds a `Cpu`, which proves it.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Message words are big-endian: reverse the bytes of each lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let (round_keys, _) = K.as_chunks::<4>();
        let [dcba, hgfe] = load_state(state);
        // Regroup the words as ABEF and CDGH, the layout sha256rnds2 uses.
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let [w0, w1, w2, w3] = load_block(block);
            let mut w0 = _mm_shuffle_epi8(w0, bswap);
            let mut w1 = _mm_shuffle_epi8(w1, bswap);
            let mut w2 = _mm_shuffle_epi8(w2, bswap);
            let mut w3 = _mm_shuffle_epi8(w3, bswap);
            // Four rounds per step; `w0` holds the step's message words.
            for keys in round_keys {
                let wk = _mm_add_epi32(w0, load_words(keys));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                // The next four schedule words from the last sixteen (the
                // last three steps compute words no round uses).
                let w4 = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                    w3,
                );
                (w0, w1, w2, w3) = (w1, w2, w3, w4);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        // Back to the word order of `state`.
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        store_state(
            state,
            _mm_blend_epi16(feba, dchg, 0xf0),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }

    #[inline(always)]
    fn load_block(block: &[u8; 64]) -> [__m128i; 4] {
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: four unaligned 16-byte loads read exactly the 64 bytes
        // of `block`.
        unsafe {
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        }
    }

    #[inline(always)]
    fn load_words(words: &[u32; 4]) -> __m128i {
        // SAFETY: one unaligned 16-byte load reads exactly `words`.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    #[inline(always)]
    fn load_state(state: &[u32; 8]) -> [__m128i; 2] {
        let p = state.as_ptr().cast::<__m128i>();
        // SAFETY: two unaligned 16-byte loads read exactly the 32 bytes
        // of `state`.
        unsafe { [_mm_loadu_si128(p), _mm_loadu_si128(p.add(1))] }
    }

    #[inline(always)]
    fn store_state(state: &mut [u32; 8], abcd: __m128i, efgh: __m128i) {
        let p = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: two unaligned 16-byte stores write exactly the 32 bytes
        // of `state`, which the `&mut` borrow holds exclusively.
        unsafe {
            _mm_storeu_si128(p, abcd);
            _mm_storeu_si128(p.add(1), efgh);
        }
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::sha256;
///
/// let empty = sha256(b"");
/// assert_eq!(
///     empty.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut d = Digest::new();
    d.update(data);
    d.finalize()
}

/// SHA-256 over the concatenation of several byte strings, without
/// materializing the concatenation.
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    let mut d = Digest::new();
    for p in parts {
        d.update(p);
    }
    d.finalize()
}

/// SHA-256 of `data` on the portable kernel, whatever the CPU: the
/// reference the hardware kernel is tested and benchmarked against.
pub fn sha256_reference(data: &[u8]) -> Hash256 {
    let mut d = Digest::with_kernel(Kernel::Portable);
    d.update(data);
    d.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_simnet::rng::check_property;

    /// Every kernel this CPU runs: the portable one, and SHA-NI if present.
    fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        all.extend(shani::Cpu::detect().map(Kernel::ShaNi));
        all
    }

    /// NIST FIPS 180-4 / common test vectors, through each kernel.
    #[test]
    fn nist_vectors() {
        let cases: [(&[u8], &str); 5] = [
            (
                b"",
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
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for kernel in kernels() {
            for (input, expected) in cases {
                let mut d = Digest::with_kernel(kernel);
                d.update(input);
                assert_eq!(d.finalize().to_hex(), expected, "{kernel:?}");
            }
        }
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), expected);
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for kernel in kernels() {
            let mut d = Digest::with_kernel(kernel);
            for _ in 0..1000 {
                d.update(&chunk);
            }
            assert_eq!(
                d.finalize().to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn dispatched_digest_matches_portable_reference() {
        check_property("dispatched_digest_matches_portable_reference", 256, |rng| {
            let mut data = vec![0u8; rng.next_range(4097) as usize];
            rng.fill_bytes(&mut data);
            let mut d = Digest::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (part, tail) = rest.split_at(rng.next_range(rest.len() as u64 + 1) as usize);
                d.update(part);
                rest = tail;
            }
            assert_eq!(d.finalize(), sha256_reference(&data), "len {}", data.len());
        });
    }

    /// A CPU with the SHA extensions must get the SHA-NI kernel: a silent
    /// fallback to the portable one fails here.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn sha_ni_selected_when_cpu_has_it() {
        let expected = if is_x86_feature_detected!("sha") {
            "sha-ni"
        } else {
            "portable"
        };
        assert_eq!(kernel_name(), expected);
    }

    #[test]
    fn incremental_matches_oneshot_across_boundaries() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split1 in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            for split2 in [split1, split1 + 1, 250, 299] {
                if split2 < split1 || split2 > data.len() {
                    continue;
                }
                let mut d = Digest::new();
                d.update(&data[..split1]);
                d.update(&data[split1..split2]);
                d.update(&data[split2..]);
                assert_eq!(d.finalize(), reference, "splits {split1}/{split2}");
            }
        }
    }

    #[test]
    fn concat_matches_oneshot() {
        let a = b"block header";
        let b = b" and payload";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    #[test]
    fn hash256_hex_roundtrip_and_display() {
        let h = sha256(b"roundtrip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(format!("{h}"), h.to_hex());
        assert!(format!("{h:?}").starts_with("Hash256("));
        assert!(Hash256::from_hex("zz").is_none());
        assert!(Hash256::from_hex("ab").is_none());
        assert!(Hash256::ZERO.is_zero());
        assert!(!h.is_zero());
    }
}
