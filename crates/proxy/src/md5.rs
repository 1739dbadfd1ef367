//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper's proxy attaches digital signatures so that injected checks
//! are "inseparable from applications" between the server and clients,
//! citing RFC 1321. MD5 is badly broken as a cryptographic hash today; it
//! is reproduced here because it is what the paper's infrastructure used,
//! and the reproduction needs only tamper-evidence between cooperating
//! components, not collision resistance against adversaries.

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

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

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Streaming MD5: feed input in any number of [`Md5::update`] calls,
/// then [`Md5::finalize`]. Only a partial block (at most 63 bytes) is
/// ever buffered; whole blocks are compressed straight from the
/// caller's slice, so hashing never copies its input.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// A fresh digest state.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            compress(&mut self.state, &block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads, compresses the final block(s) and returns the digest.
    pub fn finalize(mut self) -> [u8; 16] {
        // Padding: 0x80, zeros, then the 64-bit little-endian bit length.
        let bit_len = self.len.wrapping_mul(8);
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Enough zeros that the length field starts at 56 mod 64.
        let zeros = (64 + 55 - self.buf_len) % 64;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_le_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 16];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// One MD5 step: `b + ((a + f + k + m) <<< s)`.
#[inline(always)]
fn step(a: u32, b: u32, f: u32, m: u32, k: u32, s: u32) -> u32 {
    b.wrapping_add(
        f.wrapping_add(a)
            .wrapping_add(k)
            .wrapping_add(m)
            .rotate_left(s),
    )
}

/// One MD5 compression over a 64-byte block. Each of the four rounds
/// is its own loop, so no step branches on which round it is in.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..16 {
        let t = step(a, b, (b & c) | (!b & d), m[i], K[i], S[i]);
        (a, d, c, b) = (d, c, b, t);
    }
    for i in 16..32 {
        let t = step(a, b, (d & b) | (!d & c), m[(5 * i + 1) % 16], K[i], S[i]);
        (a, d, c, b) = (d, c, b, t);
    }
    for i in 32..48 {
        let t = step(a, b, b ^ c ^ d, m[(3 * i + 5) % 16], K[i], S[i]);
        (a, d, c, b) = (d, c, b, t);
    }
    for i in 48..64 {
        let t = step(a, b, c ^ (b | !d), m[(7 * i) % 16], K[i], S[i]);
        (a, d, c, b) = (d, c, b, t);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// Renders a digest as lowercase hex.
pub fn hex(digest: &[u8; 16]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_vectors() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&md5(input.as_bytes())), expected, "md5({input:?})");
        }
    }

    #[test]
    fn multi_block_inputs() {
        // Exactly one padding block boundary (55/56/64 byte edges).
        for len in [55usize, 56, 63, 64, 65, 128] {
            let data = vec![0xAB; len];
            let d1 = md5(&data);
            let d2 = md5(&data);
            assert_eq!(d1, d2);
            let mut tweaked = data.clone();
            tweaked[len / 2] ^= 1;
            assert_ne!(md5(&tweaked), d1, "len {len}");
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..=200u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=200 {
            let input = &data[..len];
            let expected = md5(input);
            for chunk in [1usize, 3, 7, 55, 63, 64, 65, 128] {
                let mut h = Md5::new();
                for piece in input.chunks(chunk) {
                    h.update(piece);
                }
                assert_eq!(h.finalize(), expected, "len {len}, chunk {chunk}");
            }
            // Uneven cut points, including empty updates.
            let mut h = Md5::new();
            let (a, rest) = input.split_at(len / 3);
            let (b, c) = rest.split_at(rest.len() / 2);
            for piece in [a, &[][..], b, c, &[][..]] {
                h.update(piece);
            }
            assert_eq!(h.finalize(), expected, "len {len}, thirds");
        }
    }
}
