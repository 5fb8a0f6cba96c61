//! MD5 content signatures (RFC 1321), implemented in-tree.
//!
//! The paper proposes sharing cached entries between users by mapping
//! `(document, user)` pairs to a *content signature* ("e.g., MD5 hash") and
//! signatures to the actual bytes. The staged transform pipeline
//! ([`crate::plan`]) additionally derives per-stage signatures from these
//! digests, which is why the module lives in `core` rather than the cache
//! crate (which re-exports it). MD5 is long broken for security but remains
//! exactly what the paper specifies for content equality, and an in-tree
//! implementation keeps the workspace free of crypto dependencies.

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub [u8; 16]);

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl Signature {
    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut out = [0u8; 32];
        for (i, b) in self.0.iter().enumerate() {
            out[i * 2] = HEX_DIGITS[(b >> 4) as usize];
            out[i * 2 + 1] = HEX_DIGITS[(b & 0x0f) as usize];
        }
        String::from_utf8(out.to_vec()).expect("hex digits are ASCII")
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Computes the MD5 digest of `data` in one shot.
pub fn md5(data: &[u8]) -> Signature {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

/// Incremental MD5 context.
///
/// # Examples
///
/// ```
/// use placeless_core::digest::{md5, Md5};
///
/// let mut ctx = Md5::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// assert_eq!(ctx.finalize(), md5(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

/// Binary integer parts of `abs(sin(i+1)) * 2^32`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks compress straight from the input, without a copy.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the digest.
    pub fn finalize(self) -> Signature {
        let bit_len = self.length_bytes.wrapping_mul(8);
        let mut state = self.state;
        // Padding: 0x80, zeros, then the bit length in the last 8 bytes.
        // It spills into a second block when fewer than 9 bytes are free.
        let mut block = [0u8; 64];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x80;
        if self.buffered >= 56 {
            compress(&mut state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut state, &block);
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Signature(out)
    }
}

// One step of each round: `a = b + ((a + (m + k) + f(b, c, d)) <<< s)`.
// `m + k` and `a` do not depend on the previous step, so only `f` and the
// last two operations sit on the dependency chain through `b`.

#[inline(always)]
fn step_f(a: u32, b: u32, c: u32, d: u32, mk: u32, s: u32) -> u32 {
    // F = (b & c) | (!b & d), as a bit select.
    let f = d ^ (b & (c ^ d));
    b.wrapping_add(a.wrapping_add(mk).wrapping_add(f).rotate_left(s))
}

#[inline(always)]
fn step_g(a: u32, b: u32, c: u32, d: u32, mk: u32, s: u32) -> u32 {
    // G = (b & d) | (c & !d); the halves share no bits, so `|` is `+`
    // and the `c & !d` half is added before `b` is ready.
    let early = a.wrapping_add(mk).wrapping_add(c & !d);
    b.wrapping_add(early.wrapping_add(b & d).rotate_left(s))
}

#[inline(always)]
fn step_h(a: u32, b: u32, c: u32, d: u32, mk: u32, s: u32) -> u32 {
    b.wrapping_add(a.wrapping_add(mk).wrapping_add(b ^ c ^ d).rotate_left(s))
}

#[inline(always)]
fn step_i(a: u32, b: u32, c: u32, d: u32, mk: u32, s: u32) -> u32 {
    b.wrapping_add(a.wrapping_add(mk).wrapping_add(c ^ (b | !d)).rotate_left(s))
}

/// The MD5 compression function over one 64-byte block, fully unrolled:
/// every message index, round constant and shift is a literal.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d] = *state;

    a = step_f(a, b, c, d, m[0].wrapping_add(K[0]), 7);
    d = step_f(d, a, b, c, m[1].wrapping_add(K[1]), 12);
    c = step_f(c, d, a, b, m[2].wrapping_add(K[2]), 17);
    b = step_f(b, c, d, a, m[3].wrapping_add(K[3]), 22);
    a = step_f(a, b, c, d, m[4].wrapping_add(K[4]), 7);
    d = step_f(d, a, b, c, m[5].wrapping_add(K[5]), 12);
    c = step_f(c, d, a, b, m[6].wrapping_add(K[6]), 17);
    b = step_f(b, c, d, a, m[7].wrapping_add(K[7]), 22);
    a = step_f(a, b, c, d, m[8].wrapping_add(K[8]), 7);
    d = step_f(d, a, b, c, m[9].wrapping_add(K[9]), 12);
    c = step_f(c, d, a, b, m[10].wrapping_add(K[10]), 17);
    b = step_f(b, c, d, a, m[11].wrapping_add(K[11]), 22);
    a = step_f(a, b, c, d, m[12].wrapping_add(K[12]), 7);
    d = step_f(d, a, b, c, m[13].wrapping_add(K[13]), 12);
    c = step_f(c, d, a, b, m[14].wrapping_add(K[14]), 17);
    b = step_f(b, c, d, a, m[15].wrapping_add(K[15]), 22);

    a = step_g(a, b, c, d, m[1].wrapping_add(K[16]), 5);
    d = step_g(d, a, b, c, m[6].wrapping_add(K[17]), 9);
    c = step_g(c, d, a, b, m[11].wrapping_add(K[18]), 14);
    b = step_g(b, c, d, a, m[0].wrapping_add(K[19]), 20);
    a = step_g(a, b, c, d, m[5].wrapping_add(K[20]), 5);
    d = step_g(d, a, b, c, m[10].wrapping_add(K[21]), 9);
    c = step_g(c, d, a, b, m[15].wrapping_add(K[22]), 14);
    b = step_g(b, c, d, a, m[4].wrapping_add(K[23]), 20);
    a = step_g(a, b, c, d, m[9].wrapping_add(K[24]), 5);
    d = step_g(d, a, b, c, m[14].wrapping_add(K[25]), 9);
    c = step_g(c, d, a, b, m[3].wrapping_add(K[26]), 14);
    b = step_g(b, c, d, a, m[8].wrapping_add(K[27]), 20);
    a = step_g(a, b, c, d, m[13].wrapping_add(K[28]), 5);
    d = step_g(d, a, b, c, m[2].wrapping_add(K[29]), 9);
    c = step_g(c, d, a, b, m[7].wrapping_add(K[30]), 14);
    b = step_g(b, c, d, a, m[12].wrapping_add(K[31]), 20);

    a = step_h(a, b, c, d, m[5].wrapping_add(K[32]), 4);
    d = step_h(d, a, b, c, m[8].wrapping_add(K[33]), 11);
    c = step_h(c, d, a, b, m[11].wrapping_add(K[34]), 16);
    b = step_h(b, c, d, a, m[14].wrapping_add(K[35]), 23);
    a = step_h(a, b, c, d, m[1].wrapping_add(K[36]), 4);
    d = step_h(d, a, b, c, m[4].wrapping_add(K[37]), 11);
    c = step_h(c, d, a, b, m[7].wrapping_add(K[38]), 16);
    b = step_h(b, c, d, a, m[10].wrapping_add(K[39]), 23);
    a = step_h(a, b, c, d, m[13].wrapping_add(K[40]), 4);
    d = step_h(d, a, b, c, m[0].wrapping_add(K[41]), 11);
    c = step_h(c, d, a, b, m[3].wrapping_add(K[42]), 16);
    b = step_h(b, c, d, a, m[6].wrapping_add(K[43]), 23);
    a = step_h(a, b, c, d, m[9].wrapping_add(K[44]), 4);
    d = step_h(d, a, b, c, m[12].wrapping_add(K[45]), 11);
    c = step_h(c, d, a, b, m[15].wrapping_add(K[46]), 16);
    b = step_h(b, c, d, a, m[2].wrapping_add(K[47]), 23);

    a = step_i(a, b, c, d, m[0].wrapping_add(K[48]), 6);
    d = step_i(d, a, b, c, m[7].wrapping_add(K[49]), 10);
    c = step_i(c, d, a, b, m[14].wrapping_add(K[50]), 15);
    b = step_i(b, c, d, a, m[5].wrapping_add(K[51]), 21);
    a = step_i(a, b, c, d, m[12].wrapping_add(K[52]), 6);
    d = step_i(d, a, b, c, m[3].wrapping_add(K[53]), 10);
    c = step_i(c, d, a, b, m[10].wrapping_add(K[54]), 15);
    b = step_i(b, c, d, a, m[1].wrapping_add(K[55]), 21);
    a = step_i(a, b, c, d, m[8].wrapping_add(K[56]), 6);
    d = step_i(d, a, b, c, m[15].wrapping_add(K[57]), 10);
    c = step_i(c, d, a, b, m[6].wrapping_add(K[58]), 15);
    b = step_i(b, c, d, a, m[13].wrapping_add(K[59]), 21);
    a = step_i(a, b, c, d, m[4].wrapping_add(K[60]), 6);
    d = step_i(d, a, b, c, m[11].wrapping_add(K[61]), 10);
    c = step_i(c, d, a, b, m[2].wrapping_add(K[62]), 15);
    b = step_i(b, c, d, a, m[9].wrapping_add(K[63]), 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(md5(input).to_hex(), expected, "input: {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = md5(&data);
        for chunk in [1usize, 3, 63, 64, 65, 100, 999] {
            let mut ctx = Md5::new();
            for piece in data.chunks(chunk) {
                ctx.update(piece);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(md5(b"abc").to_string(), "900150983cd24fb0d6963f7d28e17f72");
    }

    #[test]
    fn different_content_different_signature() {
        assert_ne!(md5(b"hello"), md5(b"hello!"));
        assert_eq!(md5(b"same"), md5(b"same"));
    }

    /// Deterministic test bytes: the top byte of a xorshift32 stream
    /// seeded with `0x9E3779B9`.
    fn pattern(len: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Digests of [`pattern`] pinned with coreutils `md5sum`, at every
    /// padding edge: the length fits the first block, exactly fills the
    /// 56 bytes before the length field, or spills into a second block.
    #[test]
    fn block_boundary_lengths() {
        let pinned: [(usize, &str); 13] = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (1, "f09564c9ca56850d4cd6b3319e541aee"),
            (55, "54e46d5bf9fbae6958f09689d17ed026"),
            (56, "3e9f3553aaedbeb2089f4d626a5973ba"),
            (57, "20d13b1ca84665549383e8a9c2ac1cde"),
            (63, "8dc6dd76808b456106e4c3e8976d564f"),
            (64, "013f7db2cc063fa89a6b056bfe1e190a"),
            (65, "04786bf93a241d1f94368b51c6a65a82"),
            (119, "932ef61722524c9ea31a18465b0af514"),
            (120, "aa99473ce91ffe85b26d852e0b188aa4"),
            (128, "1e057d5c873768e3a776e938ce054b52"),
            (1000, "7454adeb68c909d9df1633453f946bba"),
            (65536, "62ac471347406056a8de2085c1b7dd30"),
        ];
        for (len, expected) in pinned {
            let data = pattern(len);
            assert_eq!(md5(&data).to_hex(), expected, "len {len}");
            assert_eq!(
                reference::md5(&data).to_hex(),
                expected,
                "oracle, len {len}"
            );
            let mut ctx = Md5::new();
            for byte in &data {
                ctx.update(std::slice::from_ref(byte));
            }
            assert_eq!(ctx.finalize().to_hex(), expected, "bytewise, len {len}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Any split of any input digests the same as the one-shot call
        /// and as the rolled reference loop.
        #[test]
        fn incremental_oneshot_and_reference_agree(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097),
            cut_a in 0usize..4097,
            cut_b in 0usize..4097,
        ) {
            let lo = cut_a % (data.len() + 1);
            let hi = lo + cut_b % (data.len() - lo + 1);
            let mut ctx = Md5::new();
            ctx.update(&data[..lo]);
            ctx.update(&data[lo..hi]);
            ctx.update(&data[hi..]);
            let oneshot = md5(&data);
            proptest::prop_assert_eq!(ctx.finalize(), oneshot);
            proptest::prop_assert_eq!(reference::md5(&data), oneshot);
        }
    }

    /// The straightforward rolled MD5 loop (RFC 1321 section 3.4, one
    /// step per iteration), kept as the oracle for the unrolled kernel.
    mod reference {
        use super::super::{Signature, K};

        /// Per-step shift amounts.
        const S: [u32; 64] = [
            7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
            5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
        ];

        pub(super) fn md5(data: &[u8]) -> Signature {
            let mut message = data.to_vec();
            message.push(0x80);
            while message.len() % 64 != 56 {
                message.push(0);
            }
            let bit_len = (data.len() as u64).wrapping_mul(8);
            message.extend_from_slice(&bit_len.to_le_bytes());
            let mut state = [0x67452301u32, 0xefcdab89, 0x98badcfe, 0x10325476];
            for block in message.chunks_exact(64) {
                compress(&mut state, block);
            }
            let mut out = [0u8; 16];
            for (i, word) in state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
            Signature(out)
        }

        fn compress(state: &mut [u32; 4], block: &[u8]) {
            let mut m = [0u32; 16];
            for (i, word) in m.iter_mut().enumerate() {
                *word = u32::from_le_bytes([
                    block[i * 4],
                    block[i * 4 + 1],
                    block[i * 4 + 2],
                    block[i * 4 + 3],
                ]);
            }
            let [mut a, mut b, mut c, mut d] = *state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f)
                        .wrapping_add(K[i])
                        .wrapping_add(m[g])
                        .rotate_left(S[i]),
                );
                a = tmp;
            }
            state[0] = state[0].wrapping_add(a);
            state[1] = state[1].wrapping_add(b);
            state[2] = state[2].wrapping_add(c);
            state[3] = state[3].wrapping_add(d);
        }
    }
}
