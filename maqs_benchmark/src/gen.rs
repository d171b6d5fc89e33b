//! Seeded inputs. Everything the generator feeds the program — key
//! order, payload bytes, burst sizes — is a pure function of `--seed`,
//! computed here with a local PRNG so it does not change with the
//! `rand` implementation the product crates were built against.

/// Object keys every workload spreads its calls over.
pub const KEYS: usize = 32;
/// Length of the precomputed key sequence a client cycles through.
pub const KEY_SEQ_LEN: usize = 4096;
/// Payload size of the bulk workload.
pub const BULK_LEN: usize = 16 * 1024;
/// Distinct bulk payloads per seed (calls cycle through them).
pub const BULK_VARIANTS: usize = 4;
/// Open-loop burst size bounds (inclusive) and the resulting mean.
pub const BURST_MIN: u32 = 8;
pub const BURST_MAX: u32 = 24;

/// SplitMix64: tiny, well-mixed, and stable across toolchains.
#[derive(Debug, Clone)]
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

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the tiny `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The key sequence of one client: concatenated Fisher–Yates shuffles of
/// `0..KEYS`, so every key is called equally often (key-affinity routing
/// sees a balanced load) but in an order that depends on the seed.
pub fn key_order(seed: u64, client: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (0xC11E_0000 + client as u64));
    let mut out = Vec::with_capacity(KEY_SEQ_LEN);
    let mut perm: Vec<usize> = (0..KEYS).collect();
    while out.len() < KEY_SEQ_LEN {
        for i in (1..KEYS).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend_from_slice(&perm);
    }
    out.truncate(KEY_SEQ_LEN);
    out
}

/// Synthetic payload with tunable compressibility: `redundancy` is the
/// fraction of chunks that repeat a fixed pattern (the shape of
/// `maqs_bench::payload`, re-derived on the local PRNG).
pub fn payload(len: usize, redundancy: f64, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0x9A71_0AD0);
    let pattern = b"MAQS-frame-metadata;codec=sim;";
    let mut out = Vec::with_capacity(len + pattern.len());
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

/// The bulk workload's payload set for `seed`.
pub fn bulk_payloads(seed: u64) -> Vec<Vec<u8>> {
    (0..BULK_VARIANTS as u64).map(|v| payload(BULK_LEN, 0.9, seed.wrapping_mul(31) + v)).collect()
}

/// Burst sizes of the open loop, one per 1 ms tick, uniform in
/// `BURST_MIN..=BURST_MAX` (mean 16).
pub fn burst_schedule(seed: u64, ticks: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ 0xB0A5_7000);
    let span = u64::from(BURST_MAX - BURST_MIN + 1);
    (0..ticks).map(|_| BURST_MIN + rng.below(span) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(key_order(7, 0), key_order(7, 0));
        assert_eq!(bulk_payloads(7), bulk_payloads(7));
        assert_eq!(burst_schedule(7, 3000), burst_schedule(7, 3000));
    }

    #[test]
    fn different_seed_or_client_differs() {
        assert_ne!(key_order(7, 0), key_order(8, 0));
        assert_ne!(key_order(7, 0), key_order(7, 1));
        assert_ne!(bulk_payloads(7), bulk_payloads(8));
        assert_ne!(burst_schedule(7, 3000), burst_schedule(8, 3000));
    }

    #[test]
    fn key_order_is_balanced() {
        let order = key_order(3, 1);
        assert_eq!(order.len(), KEY_SEQ_LEN);
        let mut counts = [0usize; KEYS];
        for k in order {
            counts[k] += 1;
        }
        assert!(counts.iter().all(|&c| c == KEY_SEQ_LEN / KEYS));
    }

    #[test]
    fn payload_shape() {
        let p = payload(BULK_LEN, 0.9, 1);
        assert_eq!(p.len(), BULK_LEN);
        let dense = qosmech::compress::codec::compress(&p).len();
        let noisy = qosmech::compress::codec::compress(&payload(BULK_LEN, 0.05, 1)).len();
        assert!(dense < noisy && dense < BULK_LEN / 2, "dense {dense} noisy {noisy}");
        assert_eq!(bulk_payloads(1).len(), BULK_VARIANTS);
    }

    #[test]
    fn bursts_within_bounds_and_mean_16() {
        let b = burst_schedule(5, 10_000);
        assert!(b.iter().all(|&n| (BURST_MIN..=BURST_MAX).contains(&n)));
        let mean = b.iter().map(|&n| f64::from(n)).sum::<f64>() / b.len() as f64;
        assert!((mean - 16.0).abs() < 0.3, "{mean}");
    }
}
