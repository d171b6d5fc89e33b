//! The seeded input shapes of the property tests, drawn from the
//! workspace's one generator.

pub use netsim::rng::SplitMix64;

pub fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    rng.fill(&mut out);
    out
}

/// `len` bytes in which a chunk repeats `pattern` with probability
/// `redundancy` and is 8 random bytes otherwise — the shape of
/// `maqs_bench::payload`, re-derived here so `qosmech` does not depend
/// on a benchmark crate.
pub fn mixed(rng: &mut SplitMix64, len: usize, redundancy: f64, pattern: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + pattern.len().max(8));
    while out.len() < len {
        if rng.chance(redundancy) {
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
            frame = bytes(rng, len);
        }
        _ => {
            frame = magic.to_vec();
            let len = rng.below(64);
            frame.extend_from_slice(&bytes(rng, len));
        }
    }
    frame
}
