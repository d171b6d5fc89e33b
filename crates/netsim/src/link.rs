//! Link models: latency, bandwidth, jitter and loss.

use crate::rng::SplitMix64;
use crate::time::{VirtualDuration, VirtualInstant};

/// Characteristics of a directed link between two nodes.
///
/// The transit time of a message of `n` bytes sent at virtual time `t` is
///
/// ```text
/// start    = max(t, link_busy_until)          // serialization queue
/// ser_time = n * 8 / bandwidth_bps            // 0 if unlimited
/// jitter   ~ U(0, jitter)                     // seeded, deterministic
/// deliver  = start + ser_time + latency + jitter
/// ```
///
/// and the link stays busy until `start + ser_time` (store-and-forward,
/// single-lane). Loss is Bernoulli per message.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// One-way propagation delay.
    pub latency: VirtualDuration,
    /// Link capacity in bits per second; `None` means unlimited.
    pub bandwidth_bps: Option<u64>,
    /// Maximum uniform extra delay added per message.
    pub jitter: VirtualDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
}

impl Default for LinkModel {
    /// A perfect link: zero latency, unlimited bandwidth, lossless.
    fn default() -> LinkModel {
        LinkModel {
            latency: VirtualDuration::ZERO,
            bandwidth_bps: None,
            jitter: VirtualDuration::ZERO,
            loss: 0.0,
        }
    }
}

impl LinkModel {
    /// A perfect link (alias for [`Default`]).
    pub fn perfect() -> LinkModel {
        LinkModel::default()
    }

    /// A typical LAN: 100 µs latency, 1 Gbit/s, no loss.
    pub fn lan() -> LinkModel {
        LinkModel {
            latency: VirtualDuration::from_micros(100),
            bandwidth_bps: Some(1_000_000_000),
            jitter: VirtualDuration::from_micros(10),
            loss: 0.0,
        }
    }

    /// A wide-area link: 20 ms latency, 10 Mbit/s.
    pub fn wan() -> LinkModel {
        LinkModel {
            latency: VirtualDuration::from_millis(20),
            bandwidth_bps: Some(10_000_000),
            jitter: VirtualDuration::from_millis(2),
            loss: 0.0,
        }
    }

    /// A constrained modem-class channel, the paper's "channels with small
    /// bandwidth" scenario: 100 ms latency, configurable kbit/s.
    pub fn narrowband(kbit_per_s: u64) -> LinkModel {
        LinkModel {
            latency: VirtualDuration::from_millis(100),
            bandwidth_bps: Some(kbit_per_s * 1000),
            jitter: VirtualDuration::ZERO,
            loss: 0.0,
        }
    }

    /// Builder-style: replace the latency.
    pub fn with_latency(mut self, latency: VirtualDuration) -> LinkModel {
        self.latency = latency;
        self
    }

    /// Builder-style: replace the bandwidth (bits per second).
    pub fn with_bandwidth_bps(mut self, bps: u64) -> LinkModel {
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Builder-style: replace the loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> LinkModel {
        assert!((0.0..=1.0).contains(&loss), "loss probability must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Builder-style: replace the jitter bound.
    pub fn with_jitter(mut self, jitter: VirtualDuration) -> LinkModel {
        self.jitter = jitter;
        self
    }

    /// Time to clock `bytes` onto the wire at this link's bandwidth.
    pub fn serialization_time(&self, bytes: usize) -> VirtualDuration {
        match self.bandwidth_bps {
            None => VirtualDuration::ZERO,
            Some(0) => VirtualDuration::from_secs(u64::MAX / 2),
            Some(bps) => {
                let bits = bytes as u128 * 8;
                let nanos = bits * 1_000_000_000 / bps as u128;
                VirtualDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// Compute the delivery time of a message and the new link-busy horizon.
    ///
    /// Returns `(deliver_vt, busy_until)`.
    pub fn schedule(
        &self,
        send_vt: VirtualInstant,
        busy_until: VirtualInstant,
        bytes: usize,
        rng: &mut SplitMix64,
    ) -> (VirtualInstant, VirtualInstant) {
        let start = send_vt.max(busy_until);
        let ser = self.serialization_time(bytes);
        let new_busy = start + ser;
        let jitter = if self.jitter.as_nanos() == 0 {
            VirtualDuration::ZERO
        } else {
            VirtualDuration::from_nanos(rng.below_inclusive(self.jitter.as_nanos()))
        };
        (new_busy + self.latency + jitter, new_busy)
    }

    /// Sample whether a message on this link is lost.
    pub fn sample_loss(&self, rng: &mut SplitMix64) -> bool {
        self.loss > 0.0 && rng.chance(self.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_scales_with_size() {
        let l = LinkModel::perfect().with_bandwidth_bps(8_000); // 1000 B/s
        assert_eq!(l.serialization_time(1000), VirtualDuration::from_secs(1));
        assert_eq!(l.serialization_time(500), VirtualDuration::from_millis(500));
        assert_eq!(LinkModel::perfect().serialization_time(1 << 20), VirtualDuration::ZERO);
    }

    #[test]
    fn schedule_respects_busy_link() {
        let l = LinkModel::perfect()
            .with_bandwidth_bps(8_000)
            .with_latency(VirtualDuration::from_millis(10));
        let mut rng = SplitMix64::new(1);
        // First message: 1000 bytes = 1 s serialization.
        let (d1, busy1) = l.schedule(VirtualInstant::ZERO, VirtualInstant::ZERO, 1000, &mut rng);
        assert_eq!(busy1, VirtualInstant(1_000_000_000));
        assert_eq!(d1, VirtualInstant(1_010_000_000));
        // Second message sent at t=0 queues behind the first.
        let (d2, busy2) = l.schedule(VirtualInstant::ZERO, busy1, 1000, &mut rng);
        assert_eq!(busy2, VirtualInstant(2_000_000_000));
        assert_eq!(d2, VirtualInstant(2_010_000_000));
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let l = LinkModel::perfect().with_jitter(VirtualDuration::from_millis(5));
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            let (da, _) = l.schedule(VirtualInstant::ZERO, VirtualInstant::ZERO, 10, &mut a);
            let (db, _) = l.schedule(VirtualInstant::ZERO, VirtualInstant::ZERO, 10, &mut b);
            assert_eq!(da, db);
            assert!(da.as_nanos() <= 5_000_000);
        }
    }

    #[test]
    fn loss_sampling_matches_probability_roughly() {
        let l = LinkModel::perfect().with_loss(0.3);
        let mut rng = SplitMix64::new(7);
        let lost = (0..10_000).filter(|_| l.sample_loss(&mut rng)).count();
        assert!((2_700..3_300).contains(&lost), "lost={lost}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_out_of_range_panics() {
        let _ = LinkModel::perfect().with_loss(1.5);
    }

    #[test]
    fn presets_are_sane() {
        assert!(LinkModel::lan().latency < LinkModel::wan().latency);
        let nb = LinkModel::narrowband(64);
        assert_eq!(nb.bandwidth_bps, Some(64_000));
    }
}
