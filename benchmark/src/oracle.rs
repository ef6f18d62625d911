//! What must be in the table after a crash and restart.
//!
//! Each client records its own acknowledged commits; nothing is shared
//! during the run. After restart the table must hold: every base row, with
//! the payload of the last update some client committed for it (with several
//! clients the engine's commit order decides which client's last update
//! won, so any client's last is accepted; with one client the check is
//! exact); every inserted row not since deleted, with its payload; and
//! nothing else — deleted rows and the in-flight loser's rows are absent.

use crate::gen::{base_key, inserted_key, payload, Op, OpKind, LOADER};
use crate::spec::ROWS;
use std::collections::{HashMap, HashSet};

/// One client's acknowledged writes.
pub struct ClientOracle {
    client: u8,
    /// Update number of this client's last committed update per base key.
    last_update: HashMap<u32, u32>,
    /// Own committed inserts not since deleted, as (base, seq).
    live_inserts: HashSet<(u32, u32)>,
}

impl ClientOracle {
    pub fn new(client: u8) -> ClientOracle {
        ClientOracle {
            client,
            last_update: HashMap::new(),
            live_inserts: HashSet::new(),
        }
    }

    pub fn client(&self) -> u8 {
        self.client
    }

    /// Record that `op`'s transaction committed.
    pub fn committed(&mut self, op: &Op) {
        match op.kind {
            OpKind::Read | OpKind::Scan => {}
            OpKind::Update => {
                self.last_update.insert(op.base, op.seq);
            }
            OpKind::Insert => {
                self.live_inserts.insert((op.base, op.seq));
            }
            OpKind::Delete => {
                self.live_inserts.remove(&(op.base, op.seq));
            }
        }
    }

    /// Withhold one committed insert, to show the check notices.
    #[cfg(test)]
    pub fn forget_an_insert(&mut self) -> bool {
        let one = self.live_inserts.iter().next().copied();
        one.is_some_and(|k| self.live_inserts.remove(&k))
    }
}

/// Compare the table's `rows` (key → payload) with what the clients
/// committed. Returns one line per violation; empty means the table is
/// exactly what was acknowledged (so the row counts agree too).
pub fn check(rows: &HashMap<Vec<u8>, Vec<u8>>, clients: &[ClientOracle]) -> Vec<String> {
    // key → payloads it may hold.
    let mut want: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    for idx in 0..ROWS {
        let mut allowed: Vec<Vec<u8>> = clients
            .iter()
            .filter_map(|c| c.last_update.get(&idx).map(|&seq| payload(c.client, seq)))
            .collect();
        if allowed.is_empty() {
            allowed.push(payload(LOADER, idx));
        }
        want.insert(base_key(idx), allowed);
    }
    for c in clients {
        for &(base, seq) in &c.live_inserts {
            want.insert(
                inserted_key(base, c.client, seq),
                vec![payload(c.client, seq)],
            );
        }
    }

    let show = |b: &[u8]| String::from_utf8_lossy(&b[..b.len().min(32)]).into_owned();
    let mut violations = Vec::new();
    for (key, allowed) in &want {
        match rows.get(key) {
            None => violations.push(format!("committed row {} is missing", show(key))),
            Some(p) if !allowed.contains(p) => violations.push(format!(
                "row {} holds {}, not a last committed payload",
                show(key),
                show(p)
            )),
            Some(_) => {}
        }
    }
    // Deleted rows, rolled-back rows and the loser's rows must be gone.
    for key in rows.keys().filter(|k| !want.contains_key(*k)) {
        violations.push(format!(
            "row {} was never committed or was deleted",
            show(key)
        ));
    }
    violations.sort();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> HashMap<Vec<u8>, Vec<u8>> {
        (0..ROWS)
            .map(|i| (base_key(i), payload(LOADER, i)))
            .collect()
    }

    fn op(kind: OpKind, base: u32, seq: u32) -> Op {
        Op { kind, base, seq }
    }

    #[test]
    fn accepts_exactly_what_was_committed() {
        let mut rows = loaded();
        let mut a = ClientOracle::new(0);
        let mut b = ClientOracle::new(1);
        a.committed(&op(OpKind::Update, 5, 1));
        b.committed(&op(OpKind::Update, 5, 1));
        a.committed(&op(OpKind::Insert, 9, 1));
        a.committed(&op(OpKind::Insert, 9, 2));
        a.committed(&op(OpKind::Delete, 9, 1));
        rows.insert(base_key(5), payload(1, 1)); // either client's last is fine
        rows.insert(inserted_key(9, 0, 2), payload(0, 2));
        assert_eq!(check(&rows, &[a, b]), Vec::<String>::new());
    }

    #[test]
    fn flags_stale_payload_lost_insert_and_surviving_delete() {
        let mut a = ClientOracle::new(0);
        a.committed(&op(OpKind::Update, 5, 1));
        a.committed(&op(OpKind::Update, 5, 2));
        a.committed(&op(OpKind::Insert, 9, 1));
        a.committed(&op(OpKind::Insert, 9, 2));
        a.committed(&op(OpKind::Delete, 9, 2));

        let mut rows = loaded();
        rows.insert(base_key(5), payload(0, 1)); // an older version survived
        rows.insert(inserted_key(9, 0, 2), payload(0, 2)); // deleted row is back
        let v = check(&rows, &[a]);
        let has = |what: &str, key: Vec<u8>| {
            let key = String::from_utf8(key).unwrap();
            v.iter().any(|l| l.contains(what) && l.contains(&key))
        };
        assert!(has("not a last committed payload", base_key(5)), "{v:?}");
        assert!(has("is missing", inserted_key(9, 0, 1)), "{v:?}");
        assert!(has("was deleted", inserted_key(9, 0, 2)), "{v:?}");
        assert_eq!(v.len(), 3, "{v:?}");

        let mut rows = loaded();
        rows.remove(&base_key(0));
        assert_eq!(check(&rows, &[ClientOracle::new(0)]).len(), 1);
    }
}
