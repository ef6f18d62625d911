//! The atomics-ordering census: every atomic memory-ordering argument in the
//! engine crates, the model checker and the latch shim says why it is
//! strong enough, with `// ordering: <why>` on its line or in the comment
//! block directly above. A bare `Relaxed` on a value another thread reads
//! in order is the bug class the model checker exists for; the written
//! reason is what a code review checks against the protocol. Lines in a file's
//! trailing `#[cfg(test)] mod` are exempt.

use std::fs;
use std::path::Path;

/// The engine crates, the model checker and the latch shim.
const DIRS: &[&str] = &[
    "common", "storage", "wal", "btree", "record", "txn", "recovery", "lock", "repl", "model",
];

#[test]
fn every_atomic_ordering_is_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut sites, mut bare) = (0, Vec::new());
    let mut todo: Vec<_> = DIRS
        .iter()
        .map(|c| root.join("crates").join(c).join("src"))
        .collect();
    todo.push(root.join("shims/parking_lot/src"));
    while let Some(path) = todo.pop() {
        if path.is_dir() {
            todo.extend(fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let test_mod =
            |w: &[&str]| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod ");
        let end = lines.windows(2).position(test_mod).unwrap_or(lines.len());
        for (i, line) in lines[..end].iter().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            let orderings = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
            if !orderings
                .iter()
                .any(|o| code.contains(&format!("Ordering::{o}")))
            {
                continue;
            }
            sites += 1;
            let above = lines[..i].iter().rev();
            let mut comments = above.take_while(|l| l.trim_start().starts_with("//"));
            if !line.contains("// ordering:") && !comments.any(|l| l.contains("ordering:")) {
                bare.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        bare.is_empty(),
        "atomic orderings with no `// ordering:` reason:\n{}",
        bare.join("\n")
    );
    // A scanner that stopped seeing the atomics would pass vacuously.
    assert!(sites >= 42, "only {sites} atomic-ordering sites found");
}
