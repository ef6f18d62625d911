//! The fixed shape of the benchmark: table size, the four workloads and
//! their frozen operation counts.
//!
//! Nothing here is tunable from the command line except the client count
//! (which may only go down to fit the host): a number measured on one commit
//! is comparable with the same number on another only if both ran the same
//! operations.

/// Rows loaded by set-up. 15-byte key + 100-byte payload ≈ 2.3 MB of user
/// data, ≈ 4 MiB in 8 KiB pages (heap + index). Kept at 20 000 because
/// `HeapManager::insert` walks the heap page chain: a 100 000-row load was
/// measured at 195 s. `setup_s` is where a fix to that will show.
pub const ROWS: u32 = 20_000;
pub const PAYLOAD_LEN: usize = 100;
/// Set-up loads through a large pool so the chain walk at least hits memory.
pub const LOAD_FRAMES: usize = 4096;
/// Rows per load transaction.
pub const LOAD_BATCH: u32 = 256;
/// Base keys covered by one `scan_range`.
pub const SCAN_KEYS: u32 = 20;
/// Inserts of the transaction left in flight at the crash.
pub const LOSER_INSERTS: u32 = 200;
/// `--seconds` at which a run executes exactly the counts frozen here; any
/// other value scales every count in proportion. `BENCHMARK.json` fixes it.
pub const REFERENCE_SECONDS: f64 = 10.0;
/// An untraced repetition runs the same operations at least this many times
/// (rounds), each on a freshly set-up database, seconds apart, so that every
/// timing is sampled at several moments and the least disturbed can be kept.
pub const ROUNDS: usize = 3;
/// While the least and the second-least disturbed executions still disagree
/// (see [`AGREEMENT`]) a repetition adds rounds, up to this many …
pub const MOST_ROUNDS: usize = 8;
/// … but starts none once it has lasted this many times `--seconds`. Three
/// rounds on the quiet host take one to two times `--seconds`.
pub const EXTEND_FOR: f64 = 3.0;
/// A repetition that finds the host in a slow spell (`host.rs`) sleeps this
/// many times `--seconds` before each further round …
pub const WAIT_STEP: f64 = 1.5;
/// … until it has lasted this many times `--seconds`. The driver allows a
/// run 180 s; a round in a slow spell takes up to 30 s.
pub const WAIT_UNTIL: f64 = 10.0;
/// Two timings agree when the worse is within this factor of the better.
/// Executions of a slice on the quiet host differ by 1–5%.
pub const AGREEMENT: f64 = 1.08;
/// Each round's operations are issued in this many slices; timings keep
/// each slice's quickest execution among the rounds (`Untraced::timings`).
pub const SEGMENTS: usize = 12;
/// The op probe issues this many operations of each kind per round: a
/// hundred per slice, enough for a slice's median, and over a thousand per
/// round, which a p99 needs, on every workload.
pub const PROBE_OPS_PER_KIND: usize = 1200;
/// The traced phase runs this share of a round's operations: its spans
/// (four per operation) stay in memory and are written out as JSONL.
pub const TRACED_SHARE: f64 = 0.5;
/// Pool size of the layer ladder's database (the data fits).
pub const LADDER_FRAMES: usize = 2048;
/// Pool size of the ladder's miss rung (the data does not fit).
pub const LADDER_MISS_FRAMES: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipfian with this theta over a scrambled rank → key mapping.
    Zipfian(f64),
}

/// Operation mix as integer weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub read: u32,
    pub scan: u32,
    pub insert: u32,
    pub update: u32,
    pub delete: u32,
}

impl Mix {
    pub fn total(&self) -> u32 {
        self.read + self.scan + self.insert + self.update + self.delete
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Most clients this workload uses; the run uses `min(nproc, this)`.
    pub clients: usize,
    /// Buffer-pool frames (8 KiB each) the measured engine opens with.
    pub frames: usize,
    pub dist: KeyDist,
    pub mix: Mix,
    /// Operations each client issues per round at `REFERENCE_SECONDS`.
    /// Calibrated once on the 2-core reference host so that three rounds'
    /// timed phases together last about ten seconds (the write workloads are
    /// capped instead, see [`WRITE_MIX`]), then frozen: a run executes a
    /// fixed operation count, not a fixed time, so counts are comparable
    /// across commits.
    pub ops_per_client: usize,
}

/// The write workloads' operation counts are capped by the engine, not by
/// the clock. With this mix 15% of operations are net row growth, and growth
/// must stay near 12 000 rows: past about 14 000 the index root (132 leaf
/// pointers after the load) fills and the tree grows to three levels, which
/// `smo.rs::post_separator` gets wrong — after `root_grow` it looks for the
/// split leaf's pointer in the wrong half of the old root about every other
/// time, fails the insert with `CorruptPage: no cell points at P…` and leaves
/// the tree corrupt (seen on 7 of 8 runs at 90 000 operations per client).
/// Around 12 000 inserted rows ten to twenty leaves still split, so splits and
/// their logging are exercised, and the root (room for about 88 more
/// pointers) keeps most of its free space.
/// Raise these counts, in a change to the benchmark alone, once that is fixed.
const WRITE_MIX: Mix = Mix {
    read: 40,
    scan: 0,
    insert: 25,
    update: 25,
    delete: 10,
};

/// Why each workload exists is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        clients: 2,
        frames: 2048,
        dist: KeyDist::Zipfian(0.99),
        mix: Mix {
            read: 90,
            scan: 10,
            insert: 0,
            update: 0,
            delete: 0,
        },
        ops_per_client: 70_000,
    },
    Workload {
        name: "write_mixed",
        clients: 2,
        frames: 2048,
        dist: KeyDist::Zipfian(0.99),
        mix: WRITE_MIX,
        ops_per_client: 40_000,
    },
    Workload {
        name: "cold_uniform",
        clients: 2,
        frames: 64,
        dist: KeyDist::Uniform,
        mix: Mix {
            read: 90,
            scan: 0,
            insert: 0,
            update: 10,
            delete: 0,
        },
        ops_per_client: 100_000,
    },
    Workload {
        name: "crash_restart",
        clients: 1,
        frames: 2048,
        dist: KeyDist::Zipfian(0.99),
        mix: WRITE_MIX,
        ops_per_client: 80_000,
    },
];

/// The probe's mix: every kind equally often.
pub const PROBE_MIX: Mix = Mix {
    read: 1,
    scan: 1,
    insert: 1,
    update: 1,
    delete: 1,
};

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `count` scaled by `scale`, at least one.
pub fn op_count(count: f64, scale: f64) -> usize {
    ((count * scale).round() as usize).max(1)
}
