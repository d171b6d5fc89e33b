//! The workspace's one seeded generator.
//!
//! Everything in MAQS-RS that is "random" is random *per seed*: link
//! jitter and loss, the load balancer's random strategy, scripted wire
//! faults, redial jitter, benchmark payloads and every property test.
//! They all draw from [`SplitMix64`], so "deterministic per seed" means
//! the same stream in every build, with or without crates.io.

/// SplitMix64 (Steele, Lea & Flood 2014): one `u64` of state, one add
/// and three xor-shift-multiplies per output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed.wrapping_add(GAMMA))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A count or index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0): empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A quantity in `0..=hi`.
    pub fn below_inclusive(&mut self, hi: u64) -> u64 {
        match hi.checked_add(1) {
            Some(span) => self.next_u64() % span,
            None => self.next_u64(),
        }
    }

    /// `true` with probability `p` (53 bits of resolution; `p <= 0` is
    /// never, `p >= 1` is always).
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Overwrite `dest` with random bytes, eight per draw.
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// Run `property` on `n` generators seeded `seed`, `seed + 1`, … — the
/// loop every seeded property test in the workspace is written as. A
/// panicking case names its seed and index on stderr, and
/// `cases(seed + index, 1, …)` replays it alone.
pub fn cases(seed: u64, n: usize, mut property: impl FnMut(&mut SplitMix64)) {
    struct Report(u64, usize);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed: seed {} case {}", self.0, self.1);
            }
        }
    }
    for case in 0..n {
        let _report = Report(seed, case);
        property(&mut SplitMix64::new(seed.wrapping_add(case as u64)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Taken from the stand-in `rand` crate's seeded generator (seed 1),
    /// which every golden file and benchmark number up to PR 21 was
    /// produced with: seeded netsim runs replay bit-identically across
    /// the switch.
    #[test]
    fn stream_and_draw_mapping_match_the_retired_stand_in() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                0xBEEB_8DA1_658E_EC67,
                0xF893_A2EE_FB32_555E,
                0x71C1_8690_EE42_C90B,
                0x71BB_54D8_D101_B5B9
            ]
        );
        // gen_range(0..=5_000_000), gen_bool(0.3), gen_range(0..7), fill_bytes.
        let mut rng = SplitMix64::new(9);
        assert_eq!(rng.below_inclusive(5_000_000), 2_395_453);
        assert!(rng.chance(0.3));
        assert_eq!(rng.below(7), 0);
        let mut bytes = [0u8; 11];
        rng.fill(&mut bytes);
        assert_eq!(bytes, [161, 135, 88, 47, 120, 179, 54, 67, 254, 107, 142]);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.below(3) < 3);
            assert!(rng.below_inclusive(2) <= 2);
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
        assert_eq!(rng.below_inclusive(0), 0);
        let _ = rng.below_inclusive(u64::MAX);
    }

    #[test]
    fn cases_are_independent_and_replayable() {
        let mut firsts = Vec::new();
        cases(40, 3, |rng| firsts.push(rng.next_u64()));
        cases(41, 1, |rng| assert_eq!(rng.next_u64(), firsts[1]));
        firsts.dedup();
        assert_eq!(firsts.len(), 3);
    }
}
