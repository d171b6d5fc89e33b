//! Seeded properties of the two bulk transforms, the `MLZ1` codec and
//! the `MENC` cipher.
//!
//! They sit in a test binary of their own because they are CPU-bound,
//! and the crate's unit tests include wall-clock-sensitive
//! load-balancing scenarios that would share its threads.

mod cipher;
mod codec;
mod reference;
mod rng;

/// The encoder's search window: the largest distance it emits.
const WINDOW: usize = 4096;
/// The shortest and longest copy one match token expresses.
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
