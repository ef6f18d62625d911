//! Seeded, replayable operation streams.
//!
//! `--seed` fully determines every client's operations before the engine is
//! opened: the engine sees only generated inputs, and a deadlock victim is
//! retried with the same operation, so the stream never depends on timing.

use crate::spec::{KeyDist, Mix, PAYLOAD_LEN, ROWS};
use ariesim_workload::{Rng, Zipf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Read = 0,
    Scan = 1,
    Insert = 2,
    Update = 3,
    Delete = 4,
}

pub const KINDS: [OpKind; 5] = [
    OpKind::Read,
    OpKind::Scan,
    OpKind::Insert,
    OpKind::Update,
    OpKind::Delete,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        ["read", "scan", "insert", "update", "delete"][self as usize]
    }
}

/// One single-operation transaction.
///
/// * `Read`, `Scan`: `base` is the (start) base-key index; `seq` is unused.
/// * `Update`: `base` is the base-key index, `seq` the client's update
///   number, which names the new payload.
/// * `Insert`: a new key between base key `base` and its successor; `seq` is
///   the client's insert number and names both key suffix and payload.
/// * `Delete`: removes this client's own earlier insert (`base`, `seq`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub base: u32,
    pub seq: u32,
}

/// Client id of the rows set-up loads; real clients count from 0.
pub const LOADER: u8 = 255;
/// Client id of the transaction left in flight at the crash.
pub const LOSER: u8 = 254;

/// The 15-byte key of base row `idx`.
pub fn base_key(idx: u32) -> Vec<u8> {
    format!("key{idx:012}").into_bytes()
}

/// Key of an inserted row: the base key plus a suffix, so it sorts after
/// base key `base` and before `base + 1` — inserts land across the tree, not
/// at its right edge.
pub fn inserted_key(base: u32, client: u8, seq: u32) -> Vec<u8> {
    format!("key{base:012}+{client:03}{seq:08}").into_bytes()
}

/// The payload version (`client`, `seq`) writes.
pub fn payload(client: u8, seq: u32) -> Vec<u8> {
    let mut p = format!("c{client:03}s{seq:010}-").into_bytes();
    p.resize(PAYLOAD_LEN, b'x');
    p
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rank (or any counter) → base-key index. Multiplying by a unit modulo `ROWS` is a
/// bijection that scatters the hot zipfian ranks over the key space, as
/// YCSB's hashing does, so the hot keys do not share one leaf.
pub fn scramble(rank: u64) -> u32 {
    const UNIT: u64 = 7919; // prime, coprime to ROWS = 2^5 · 5^4
    (rank * UNIT % u64::from(ROWS)) as u32
}

/// The operations client `client` issues: a pure function of its arguments.
pub fn client_ops(dist: KeyDist, mix: Mix, seed: u64, client: u8, count: usize) -> Vec<Op> {
    // `Rng::new` forces the low seed bit, so adjacent seeds would collide;
    // mix first.
    let mut rng = Rng::new(splitmix(seed ^ splitmix(u64::from(client))));
    let zipf = match dist {
        KeyDist::Zipfian(theta) => Some(Zipf::new(u64::from(ROWS), theta)),
        KeyDist::Uniform => None,
    };
    let pick = |rng: &mut Rng| match &zipf {
        Some(z) => scramble(z.sample(rng)),
        None => rng.below(u64::from(ROWS)) as u32,
    };
    let mut live: Vec<(u32, u32)> = Vec::new(); // own inserts not yet deleted
    let (mut inserts, mut updates) = (0u32, 0u32);
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = rng.below(u64::from(mix.total())) as u32;
        let mut kind = if roll < mix.read {
            OpKind::Read
        } else if roll < mix.read + mix.scan {
            OpKind::Scan
        } else if roll < mix.read + mix.scan + mix.insert {
            OpKind::Insert
        } else if roll < mix.read + mix.scan + mix.insert + mix.update {
            OpKind::Update
        } else {
            OpKind::Delete
        };
        if kind == OpKind::Delete && live.is_empty() {
            kind = OpKind::Insert; // nothing of our own to delete yet
        }
        let op = match kind {
            OpKind::Read | OpKind::Scan => Op {
                kind,
                base: pick(&mut rng),
                seq: 0,
            },
            OpKind::Update => {
                updates += 1;
                Op {
                    kind,
                    base: pick(&mut rng),
                    seq: updates,
                }
            }
            OpKind::Insert => {
                inserts += 1;
                // Uniform, whatever the read distribution: splits and
                // next-key locks should land across the whole tree.
                let base = rng.below(u64::from(ROWS)) as u32;
                live.push((base, inserts));
                Op {
                    kind,
                    base,
                    seq: inserts,
                }
            }
            OpKind::Delete => {
                let i = rng.below(live.len() as u64) as usize;
                let (base, seq) = live.swap_remove(i);
                Op { kind, base, seq }
            }
        };
        ops.push(op);
    }
    ops
}

/// Byte image of a stream, for replay checks.
pub fn encode(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 9);
    for op in ops {
        out.push(op.kind as u8);
        out.extend_from_slice(&op.base.to_le_bytes());
        out.extend_from_slice(&op.seq.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        for w in &WORKLOADS {
            let a = client_ops(w.dist, w.mix, 42, 1, 5000);
            let b = client_ops(w.dist, w.mix, 42, 1, 5000);
            assert_eq!(encode(&a), encode(&b), "{}", w.name);
        }
    }

    #[test]
    fn seed_and_client_change_the_stream() {
        let w = &WORKLOADS[1];
        let a = encode(&client_ops(w.dist, w.mix, 2, 0, 2000));
        // Adjacent seeds differ only in the bit `Rng::new` forces.
        assert_ne!(a, encode(&client_ops(w.dist, w.mix, 3, 0, 2000)));
        assert_ne!(a, encode(&client_ops(w.dist, w.mix, 2, 1, 2000)));
    }

    #[test]
    fn deletes_target_own_live_inserts_exactly_once() {
        let w = &WORKLOADS[1];
        let mut live = HashSet::new();
        for op in client_ops(w.dist, w.mix, 7, 0, 20_000) {
            assert!(op.base < ROWS);
            match op.kind {
                OpKind::Insert => assert!(live.insert((op.base, op.seq))),
                OpKind::Delete => assert!(live.remove(&(op.base, op.seq))),
                _ => {}
            }
        }
    }

    #[test]
    fn scramble_is_a_bijection() {
        let seen: HashSet<u32> = (0..u64::from(ROWS)).map(scramble).collect();
        assert_eq!(seen.len(), ROWS as usize);
    }

    #[test]
    fn inserted_keys_sort_between_their_base_and_the_next() {
        let k = inserted_key(41, 1, 9);
        assert!(base_key(41) < k && k < base_key(42));
        assert_eq!(base_key(7).len(), 15);
        assert_eq!(payload(3, 5).len(), PAYLOAD_LEN);
        assert_ne!(payload(3, 5), payload(3, 6));
    }
}
