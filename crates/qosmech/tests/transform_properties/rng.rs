//! SplitMix64 and the seeded input shapes of the property tests.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// `len` bytes in which a chunk repeats `pattern` with probability
/// `redundancy` and is 8 random bytes otherwise — the shape of
/// `maqs_bench::payload`, re-derived here so `qosmech` does not depend
/// on a benchmark crate.
pub fn mixed(rng: &mut SplitMix64, len: usize, redundancy: f64, pattern: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + pattern.len().max(8));
    while out.len() < len {
        if rng.unit() < redundancy {
            out.extend_from_slice(pattern);
        } else {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
    }
    out.truncate(len);
    out
}

/// A valid frame damaged the ways a hostile or broken peer would: cut
/// short, bits flipped, or replaced by noise (with or without `magic`).
pub fn damaged(rng: &mut SplitMix64, valid: &[u8], magic: &[u8]) -> Vec<u8> {
    let mut frame = valid.to_vec();
    match rng.below(4) {
        0 => frame.truncate(rng.below(frame.len() + 1)),
        1 => {
            for _ in 0..=rng.below(4) {
                let at = rng.below(frame.len());
                frame[at] ^= 1 << rng.below(8);
            }
        }
        2 => {
            let len = rng.below(64);
            frame = rng.bytes(len);
        }
        _ => {
            frame = magic.to_vec();
            let len = rng.below(64);
            frame.extend_from_slice(&rng.bytes(len));
        }
    }
    frame
}
