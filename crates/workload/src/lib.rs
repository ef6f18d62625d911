//! `ariesim-workload` — dependency-free key-choice generators for
//! benchmark clients: a seeded [`Rng`] and a YCSB-style zipfian sampler
//! ([`Zipf`]). `benchmark/` is the caller; it builds its operation streams
//! from these so a seed names the same keys on every engine version.

pub mod rng;
pub mod zipf;

pub use rng::Rng;
pub use zipf::Zipf;
