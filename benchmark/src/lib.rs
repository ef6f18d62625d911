//! The repository's benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.

pub mod gen;
pub mod host;
pub mod ladder;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod summary;
pub mod trace;
pub mod workdir;
