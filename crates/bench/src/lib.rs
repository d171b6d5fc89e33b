//! Shared helpers for the MAQS-RS benchmark harness.
//!
//! Every bench target regenerates one experiment of `EXPERIMENTS.md`:
//! it first prints the experiment's summary table (deterministic,
//! virtual-time or count based results), then runs Criterion timing
//! groups for the latency-shaped rows.

#![forbid(unsafe_code)]

use orb::{Any, OrbError, Servant};

/// A servant answering `echo` with its argument — the standard workload
/// object of the microbenchmarks.
pub struct Echo;

impl Servant for Echo {
    fn interface_id(&self) -> &str {
        "IDL:Echo:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

/// Print an experiment header in a uniform format.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Print one table row: a label plus value columns.
pub fn row(label: &str, cols: &[String]) {
    println!("  {label:<34} {}", cols.join("  "));
}

/// Synthetic payload with tunable compressibility: `redundancy` in
/// `[0, 1]` is the fraction of repeated content.
pub fn payload(len: usize, redundancy: f64, seed: u64) -> Vec<u8> {
    let mut rng = netsim::rng::SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len);
    let pattern = b"MAQS-frame-metadata;codec=sim;";
    while out.len() < len {
        if rng.chance(redundancy) {
            out.extend_from_slice(pattern);
        } else {
            for _ in 0..8 {
                out.push(rng.next_u64() as u8);
            }
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_len_and_determinism() {
        let a = payload(1000, 0.5, 7);
        let b = payload(1000, 0.5, 7);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        assert_ne!(a, payload(1000, 0.5, 8));
    }

    #[test]
    fn redundant_payload_compresses_better() {
        let dense = payload(8192, 0.95, 1);
        let noisy = payload(8192, 0.05, 1);
        let c_dense = qosmech::compress::codec::compress(&dense).len();
        let c_noisy = qosmech::compress::codec::compress(&noisy).len();
        assert!(c_dense < c_noisy);
    }
}
