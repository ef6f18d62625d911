//! `dumplog` — pretty-print or summarize an ariesim write-ahead log.
//!
//! ```sh
//! cargo run -p ariesim-bench --bin dumplog -- /path/to/dbdir/wal [--from LSN]
//! cargo run -p ariesim-bench --bin dumplog -- /path/to/dbdir/wal --summary
//! cargo run -p ariesim-bench --bin dumplog -- /path/to/dbdir/wal --summary --json
//! ```
//!
//! Decodes every record's envelope and, for index and heap records, the
//! resource-manager body, showing the backward chains (`prev`), CLR
//! redirections (`undo_next`) and nested-top-action boundaries at a glance —
//! the tool you want when studying Figures 9/10 shapes in a real log.
//!
//! `--summary` prints aggregate shape instead of individual records: counts
//! by record kind and resource manager, total body bytes, how many
//! transactions have CLR (UndoNxtLSN) chains, and the nested-top-action
//! count (dummy CLRs). `--json` renders the same summary as one JSON object.

use ariesim_btree::body::IndexBody;
use ariesim_common::stats::new_stats;
use ariesim_common::Lsn;
use ariesim_record::body::HeapBody;
use ariesim_wal::{CheckpointData, LogManager, LogOptions, LogRecord, RecordKind, RmId};

fn describe_body(rec: &LogRecord) -> String {
    match rec.rm {
        RmId::Index => match IndexBody::decode(&rec.body) {
            Ok(b) => match b {
                IndexBody::InsertKey { key, .. } => format!("InsertKey {key:?}"),
                IndexBody::DeleteKey { key, .. } => format!("DeleteKey {key:?}"),
                IndexBody::PageFormat { level, cells, .. } => {
                    format!("PageFormat level={level} cells={}", cells.len())
                }
                IndexBody::SplitShrink { removed, new_next, .. } => {
                    format!("SplitShrink moved={} new_next={new_next}", removed.len())
                }
                IndexBody::ChainNext { old, new } => format!("ChainNext {old}→{new}"),
                IndexBody::ChainPrev { old, new } => format!("ChainPrev {old}→{new}"),
                IndexBody::AddSeparator { slot, sep, new_child, .. } => {
                    format!("AddSeparator slot={slot} sep={sep:?} child={new_child}")
                }
                IndexBody::RemoveSeparator { slot, child, .. } => {
                    format!("RemoveSeparator slot={slot} child={child}")
                }
                IndexBody::FreePage { level, .. } => format!("FreePage level={level}"),
                IndexBody::RootReplace { new_level, child, .. } => {
                    format!("RootReplace new_level={new_level} child={child}")
                }
                IndexBody::RootCollapse { .. } => "RootCollapse".to_string(),
                IndexBody::PageRestore { free, cells, .. } => {
                    format!("PageRestore free={free} cells={}", cells.len())
                }
            },
            Err(_) => "<index body undecodable>".into(),
        },
        RmId::Heap => match HeapBody::decode(&rec.body) {
            Ok(b) => match b {
                HeapBody::Insert { slot, data, .. } => {
                    format!("HeapInsert slot={} len={}", slot.0, data.len())
                }
                HeapBody::Delete { slot, data, .. } => {
                    format!("HeapDelete slot={} len={}", slot.0, data.len())
                }
                HeapBody::Update {
                    slot,
                    head,
                    tail,
                    old,
                    new,
                    ..
                } => format!(
                    "HeapUpdate slot={} head={head} tail={tail} old_len={} new_len={}",
                    slot.0,
                    old.len(),
                    new.len()
                ),
                HeapBody::Format { table } => format!("HeapFormat {table}"),
                HeapBody::ChainNext { old, new } => format!("HeapChainNext {old}→{new}"),
                HeapBody::Noop => "Noop".into(),
            },
            Err(_) => "<heap body undecodable>".into(),
        },
        RmId::Space => "SpaceMap bit".into(),
        RmId::Txn => match rec.kind {
            RecordKind::CkptEnd => match CheckpointData::decode(rec.lsn, &rec.body) {
                Ok(d) => format!(
                    "CheckpointData dpt={} txns={} max_txn={}",
                    d.dpt.len(),
                    d.txns.len(),
                    d.max_txn_id
                ),
                Err(_) => "<ckpt body undecodable>".into(),
            },
            _ => String::new(),
        },
    }
}

/// Aggregate shape of a log, as printed by `--summary`.
#[derive(Default)]
struct Summary {
    records: u64,
    body_bytes: u64,
    by_kind: std::collections::BTreeMap<String, u64>,
    by_rm: std::collections::BTreeMap<String, u64>,
    clrs: u64,
    dummy_clrs: u64,
    txns_with_clr_chain: std::collections::BTreeSet<u64>,
    first_lsn: Option<u64>,
    last_lsn: u64,
}

impl Summary {
    fn note(&mut self, rec: &LogRecord) {
        self.records += 1;
        self.body_bytes += rec.body.len() as u64;
        *self.by_kind.entry(format!("{:?}", rec.kind)).or_default() += 1;
        *self.by_rm.entry(format!("{:?}", rec.rm)).or_default() += 1;
        match rec.kind {
            RecordKind::Clr => {
                self.clrs += 1;
                self.txns_with_clr_chain.insert(rec.txn.0);
            }
            RecordKind::DummyClr => {
                self.dummy_clrs += 1;
                self.txns_with_clr_chain.insert(rec.txn.0);
            }
            _ => {}
        }
        self.first_lsn.get_or_insert(rec.lsn.0);
        self.last_lsn = rec.lsn.0;
    }

    fn print_text(&self) {
        println!("records:            {}", self.records);
        println!("body bytes:         {}", self.body_bytes);
        println!(
            "lsn range:          {}..={}",
            self.first_lsn.unwrap_or(0),
            self.last_lsn
        );
        println!("by kind:");
        for (k, n) in &self.by_kind {
            println!("  {k:<12} {n:>8}");
        }
        println!("by resource manager:");
        for (k, n) in &self.by_rm {
            println!("  {k:<12} {n:>8}");
        }
        println!("clrs:               {}", self.clrs);
        println!(
            "nested top actions: {} (dummy CLRs)",
            self.dummy_clrs
        );
        println!(
            "undo chains:        {} transaction(s) with UndoNxtLSN chains",
            self.txns_with_clr_chain.len()
        );
    }

    fn print_json(&self) {
        use ariesim_obs::json::Object;
        let map_json = |m: &std::collections::BTreeMap<String, u64>| {
            let mut o = Object::new();
            for (k, n) in m {
                o.field_u64(k, *n);
            }
            o.finish()
        };
        let mut root = Object::new();
        root.field_u64("records", self.records);
        root.field_u64("body_bytes", self.body_bytes);
        root.field_u64("first_lsn", self.first_lsn.unwrap_or(0));
        root.field_u64("last_lsn", self.last_lsn);
        root.field_raw("by_kind", &map_json(&self.by_kind));
        root.field_raw("by_rm", &map_json(&self.by_rm));
        root.field_u64("clrs", self.clrs);
        root.field_u64("nested_top_actions", self.dummy_clrs);
        root.field_u64("undo_chains", self.txns_with_clr_chain.len() as u64);
        println!("{}", root.finish());
    }
}

fn main() {
    let mut path = None;
    let mut from = Lsn::NULL;
    let mut summary = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--from" => {
                if let Some(v) = args.next().and_then(|s| s.parse::<u64>().ok()) {
                    from = Lsn(v);
                }
            }
            "--summary" => summary = true,
            "--json" => json = true,
            _ if path.is_none() => path = Some(a),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: dumplog <wal-file> [--from LSN] [--summary [--json]]");
        std::process::exit(2);
    };
    // LogManager::open creates missing files; a dump tool must not.
    if !std::path::Path::new(&path).is_file() {
        eprintln!("cannot open {path}: no such file");
        std::process::exit(1);
    }
    let log = match LogManager::open(
        std::path::Path::new(&path),
        LogOptions::default(),
        new_stats(),
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        }
    };
    if summary || json {
        let mut s = Summary::default();
        for rec in log.scan(from) {
            match rec {
                Ok(r) => s.note(&r),
                Err(e) => {
                    eprintln!("-- log ends with undecodable record: {e}");
                    break;
                }
            }
        }
        if json {
            s.print_json();
        } else {
            s.print_text();
        }
        return;
    }
    println!(
        "{:>10}  {:>6}  {:<9} {:<6} {:>8}  {:>10}  BODY",
        "LSN", "TXN", "KIND", "RM", "PAGE", "PREV/UNXT"
    );
    let mut count = 0u64;
    for rec in log.scan(from) {
        let rec = match rec {
            Ok(r) => r,
            Err(e) => {
                eprintln!("-- log ends with undecodable record: {e}");
                break;
            }
        };
        let link = match rec.kind {
            RecordKind::Clr | RecordKind::DummyClr => format!("↷{}", rec.undo_next_lsn.0),
            _ => format!("↑{}", rec.prev_lsn.0),
        };
        println!(
            "{:>10}  {:>6}  {:<9} {:<6} {:>8}  {:>10}  {}",
            rec.lsn.0,
            rec.txn.0,
            format!("{:?}", rec.kind),
            format!("{:?}", rec.rm),
            format!("{}", rec.page),
            link,
            describe_body(&rec),
        );
        count += 1;
    }
    eprintln!("-- {count} records");
}
