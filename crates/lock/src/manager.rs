//! The lock manager proper.
//!
//! The lock table is split into `SHARDS` (8) shards, each a mutex over its own
//! slab of lock heads, its name → slot map and its transactions' holder
//! lists, and each on its own cache lines, so that two transactions locking
//! names in different shards write no line in common. A record or page name
//! goes to the shard of its page id, so a scan's keys on one heap page share
//! one, and an EOF name to its index's; a key-value name goes by its keyed
//! hash (std's `RandomState`: it carries user key bytes), which is also the
//! code the shard's map probes with, so no name is hashed twice. A name has
//! a head exactly while someone holds it or waits for it.
//!
//! Each transaction keeps a recycled list of the slots it holds grants on
//! per shard, and a word of the directory records the set of shards it
//! holds grants in, so [`LockManager::release_all`] locks only those shards.
//! A request that is granted, or denied conditionally, takes one shard
//! mutex and nothing else. A request that must wait drops its shard and
//! locks every shard in index order: deadlock detection reads the whole
//! table. Grant policy:
//!
//! * a **new** request is granted iff its mode is compatible with every lock
//!   granted to *other* transactions and no one is already queued (strict
//!   FIFO, which prevents starvation of X requests behind reader streams);
//! * a **conversion** (the requester already holds the name) is granted iff
//!   the target mode `sup(held, requested)` is compatible with every *other*
//!   granted lock; conversions wait at the front of the queue, ahead of new
//!   requests, as in System R;
//! * an **instant-duration** grant is never recorded: the requester only
//!   learns the lock was grantable at that instant (paper Figure 2 — the
//!   insert's next-key lock); every recorded grant is commit-duration;
//! * a **conditional** request that cannot be granted immediately returns
//!   [`Error::WouldBlock`] without queueing (paper §2.2: never wait for a
//!   lock while holding latches).
//!
//! Deadlock detection runs at enqueue time: a waits-for graph is built from
//! the lock table (waiter → incompatible holder, waiter → incompatible
//! earlier waiter) and if the new waiter closes a cycle it is chosen as the
//! victim and receives [`Error::Deadlock`]. Because rolling-back transactions
//! never request locks (paper §4), victims can always be safely rolled back.

use crate::mode::{LockDuration, LockMode};
use crate::name::LockName;
use ariesim_common::msync::{AtomicU32, AtomicU64};
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, Result, TxnId};
use ariesim_obs::monitor::{Class, Held};
use ariesim_obs::{ObsHandle, SpanKind};
use parking_lot::{Mutex, MutexGuard, Parker};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an unconditional wait may take before the manager declares the
/// system wedged. This is a test-harness backstop, not part of the protocol:
/// the deadlock detector should make it unreachable.
const WAIT_WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shards of the lock table. At most 8, so that a transaction's set of
/// shards fits the low byte of its directory word.
const SHARDS: usize = 8;

/// Words in the shard directory. Transactions whose ids are equal modulo
/// this share a word; the later one spills (see [`LockManager::note_shard`]).
const DIR_WORDS: usize = 64;

/// A name with the code the table hashes it by, computed once per request.
#[derive(Clone, PartialEq, Eq)]
struct Key {
    code: u64,
    name: LockName,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.code);
    }
}

/// The hasher of the shard maps: one multiply-xorshift round per `u64`
/// (splitmix64's finaliser). A [`Key`] hashes as its code and a [`TxnId`]
/// as its number; neither needs a keyed hash, because a key-value name's
/// code already is one.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let x = self.0 ^ x;
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

type MixState = BuildHasherDefault<Mix>;

#[derive(Debug)]
struct Granted {
    txn: TxnId,
    mode: LockMode,
}

struct Waiter {
    txn: TxnId,
    mode: LockMode,
    duration: LockDuration,
    /// Conversion of an existing grant (takes queue priority).
    convert: bool,
    /// The waiting thread's parker, unparked by the grant.
    parker: Arc<Parker>,
}

struct Head {
    /// The name this head is for; stale while the slot is free.
    key: Key,
    granted: Vec<Granted>,
    queue: VecDeque<Waiter>,
}

impl Head {
    fn find_granted(&self, txn: TxnId) -> Option<usize> {
        self.granted.iter().position(|g| g.txn == txn)
    }
}

/// Whether `mode` is compatible with every lock in `granted` held by a
/// transaction other than `txn`.
fn compatible(granted: &[Granted], txn: TxnId, mode: LockMode) -> bool {
    granted
        .iter()
        .all(|g| g.txn == txn || mode.compatible_with(g.mode))
}

/// The head slots each transaction holds a recorded grant on, in one shard.
#[derive(Default)]
struct Holders {
    lists: HashMap<TxnId, Vec<u32>, MixState>,
    /// Emptied lists, reused so that a transaction's first grant allocates
    /// nothing.
    spare: Vec<Vec<u32>>,
}

impl Holders {
    /// Record `txn`'s grant on `slot`; true when it is `txn`'s first in the
    /// shard.
    fn add(&mut self, txn: TxnId, slot: u32) -> bool {
        match self.lists.entry(txn) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(slot);
                false
            }
            Entry::Vacant(e) => {
                let mut list = self.spare.pop().unwrap_or_default();
                list.push(slot);
                e.insert(list);
                true
            }
        }
    }

    fn recycle(&mut self, mut list: Vec<u32>) {
        list.clear();
        self.spare.push(list);
    }
}

/// One shard's part of the lock table.
#[derive(Default)]
struct Table {
    /// Name → slot of its head in `heads`.
    slots: HashMap<Key, u32, MixState>,
    heads: Vec<Head>,
    /// Slots of `heads` no name maps to: no grant, no waiter.
    free: Vec<u32>,
    holders: Holders,
    /// Transactions with grants here that their directory word does not
    /// record (see [`LockManager::note_shard`]).
    spilled: Vec<TxnId>,
}

/// A shard: its mutex alone on its cache lines (128 bytes, for the
/// adjacent-line prefetcher).
#[repr(align(128))]
#[derive(Default)]
struct Shard(Mutex<Table>);

/// A directory word alone on its cache lines: the transaction whose id
/// selects it, above the bit mask of the shards it holds grants in; 0 when
/// free.
#[repr(align(128))]
#[derive(Default)]
struct DirWord(AtomicU64);

/// The directory word's owner field for `txn`: its id plus one (so that no
/// owner reads as a free word), shifted above the mask. Ids stay below 2^56
/// for as long as the engine can run.
fn owner(txn: TxnId) -> u64 {
    txn.0.wrapping_add(1) << SHARDS
}

const MASK: u64 = (1 << SHARDS) - 1;

/// What one attempt to grant found.
enum Attempt {
    Granted,
    /// Not grantable now: wait on the head at `slot`, as a conversion if
    /// `convert`.
    Blocked {
        slot: u32,
        convert: bool,
    },
}

/// The lock manager. Thread-safe; one per database.
pub struct LockManager {
    shards: [Shard; SHARDS],
    /// Each live transaction's set of shards, at its id modulo
    /// [`DIR_WORDS`].
    dir: Box<[DirWord]>,
    /// Live (transaction, shard) pairs recorded in a shard's `spilled` list
    /// instead of the directory. While any is, `release_all` sweeps every
    /// shard.
    spills: AtomicU32,
    /// The keyed hasher of key-value names.
    keyed: RandomState,
    stats: StatsHandle,
    obs: ObsHandle,
}

/// One shard's guard, carrying its latch-monitor report (class
/// [`Class::LockTable`]).
struct ShardGuard<'a>(MutexGuard<'a, Table>, #[allow(dead_code)] Held);

impl std::ops::Deref for ShardGuard<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        &self.0
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        &mut self.0
    }
}

/// Every shard, locked in index order by the wait path. The sweep reports
/// to the monitor as one [`Class::LockTable`] acquisition: it is the one
/// place a thread holds two lock-table mutexes, and the index order keeps
/// two sweeps from deadlocking.
struct AllShards<'a>([MutexGuard<'a, Table>; SHARDS], #[allow(dead_code)] Held);

impl LockManager {
    pub fn new(stats: StatsHandle, obs: ObsHandle) -> LockManager {
        LockManager {
            shards: Default::default(),
            dir: (0..DIR_WORDS).map(|_| DirWord::default()).collect(),
            spills: AtomicU32::new(0),
            keyed: RandomState::new(),
            stats,
            obs,
        }
    }

    /// The observability handle the manager reports to.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    fn lock_shard(&self, shard: usize, site: &'static str) -> ShardGuard<'_> {
        let held = self.obs.monitor.acquired(Class::LockTable, site, true);
        ShardGuard(self.shards[shard].0.lock(), held)
    }

    fn lock_all(&self) -> AllShards<'_> {
        let held = self
            .obs
            .monitor
            .acquired(Class::LockTable, "lock::manager::wait", true);
        AllShards(std::array::from_fn(|s| self.shards[s].0.lock()), held)
    }

    /// `name`'s shard and its [`Key`].
    fn key(&self, name: LockName) -> (usize, Key) {
        let (shard, code) = match &name {
            LockName::Record(rid) => (
                rid.page.0 as usize,
                u64::from(rid.page.0) << 16 | u64::from(rid.slot.0),
            ),
            LockName::Page(page) => (page.0 as usize, 1 << 63 | u64::from(page.0)),
            LockName::Eof(index) => (index.0 as usize, 1 << 62 | u64::from(index.0)),
            LockName::KeyValue(..) => {
                let code = self.keyed.hash_one(&name);
                ((code >> 32) as usize, code)
            }
        };
        (shard % SHARDS, Key { code, name })
    }

    /// Request `name` in `mode` for `duration` on behalf of `txn`.
    ///
    /// `conditional` requests never wait: they return
    /// [`Error::WouldBlock`] if not immediately grantable. Unconditional
    /// requests wait (FIFO) and may fail with [`Error::Deadlock`].
    pub fn request(
        &self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
        conditional: bool,
    ) -> Result<()> {
        if !conditional {
            // §2.2: a request that may wait holds no tree or page latch,
            // whether or not it waits.
            self.obs.monitor.on_unconditional_lock_request();
        }
        let (s, key) = self.key(name);
        let key = {
            let mut table = self.lock_shard(s, "lock::manager::request");
            let slot = match self.attempt(s, &mut table, key, txn, mode, duration) {
                Attempt::Granted => return Ok(()),
                Attempt::Blocked { slot, .. } => slot,
            };
            if conditional {
                self.stats.lock_conditional_denials.bump();
                return Err(Error::WouldBlock);
            }
            // Only the wait path clones the name.
            table.heads[slot as usize].key.clone()
        };
        // Deadlock detection reads every shard: drop this one and lock them
        // all in index order, then try again, since the shard may have
        // changed in between.
        let parker = Parker::current();
        {
            let mut all = self.lock_all();
            let table = &mut *all.0[s];
            let (slot, convert) = match self.attempt(s, table, key.clone(), txn, mode, duration) {
                Attempt::Granted => return Ok(()),
                Attempt::Blocked { slot, convert } => (slot, convert),
            };
            let waiter = Waiter {
                txn,
                mode,
                duration,
                convert,
                parker: parker.clone(),
            };
            self.enqueue(&mut all, s, slot as usize, waiter)?;
        }
        // Wait outside the table's mutexes, until the request has left its
        // queue: a queued request leaves it only by being granted, so a
        // leftover token or a spurious return costs one more look.
        let wait_span = self.obs.span(SpanKind::LockWait, txn.0, 0);
        self.stats.lock_waits.bump();
        let deadline = Instant::now() + WAIT_WEDGE_TIMEOUT;
        while self.queued(s, &key, txn) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Internal(format!(
                    "lock wait wedged: {txn} waiting for {:?} in {mode:?}",
                    key.name
                )));
            }
            parker.park_timeout(left);
        }
        drop(wait_span);
        self.note_grant(&key.name, duration);
        Ok(())
    }

    /// Whether `txn` still has a request queued on `key` in shard `s`.
    fn queued(&self, s: usize, key: &Key, txn: TxnId) -> bool {
        let table = self.lock_shard(s, "lock::manager::queued");
        let slot = table.slots.get(key);
        slot.is_some_and(|&i| table.heads[i as usize].queue.iter().any(|w| w.txn == txn))
    }

    /// Grant `txn`'s request on `key` in shard `s` if the policy allows it
    /// now, with one probe of the name map. A grant on a name nobody holds
    /// or waits for always succeeds; an instant one leaves no head.
    fn attempt(
        &self,
        s: usize,
        table: &mut Table,
        key: Key,
        txn: TxnId,
        mode: LockMode,
        duration: LockDuration,
    ) -> Attempt {
        let slot = match table.slots.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                if duration == LockDuration::Instant {
                    self.note_grant(&e.key().name, duration);
                    return Attempt::Granted;
                }
                let key = e.key().clone();
                let slot = match table.free.pop() {
                    Some(slot) => {
                        table.heads[slot as usize].key = key;
                        slot
                    }
                    None => {
                        table.heads.push(Head {
                            key,
                            granted: Vec::new(),
                            queue: VecDeque::new(),
                        });
                        (table.heads.len() - 1) as u32
                    }
                };
                *e.insert(slot)
            }
        };
        let head = &mut table.heads[slot as usize];
        let convert = match head.find_granted(txn) {
            Some(gi) => {
                let held = head.granted[gi].mode;
                let target = held.sup(mode);
                // Already covered, or a conversion no other grant stands in
                // the way of: convert in place.
                if target == held || compatible(&head.granted, txn, target) {
                    head.granted[gi].mode = target;
                    self.note_grant(&head.key.name, duration);
                    return Attempt::Granted;
                }
                true
            }
            None => {
                if head.queue.is_empty() && compatible(&head.granted, txn, mode) {
                    // An instant lock evaporates on grant: it is never
                    // recorded.
                    if duration != LockDuration::Instant {
                        head.granted.push(Granted { txn, mode });
                        if table.holders.add(txn, slot) {
                            self.note_shard(table, s, txn);
                        }
                    }
                    self.note_grant(&table.heads[slot as usize].key.name, duration);
                    return Attempt::Granted;
                }
                false
            }
        };
        Attempt::Blocked { slot, convert }
    }

    /// `txn` got its first grant in shard `s`, whose mutex the caller holds
    /// as `table`: record the shard in `txn`'s directory word. When another
    /// live transaction owns that word, record `txn` in the shard's spilled
    /// list instead; `release_all` then sweeps every shard until the spill
    /// is released.
    fn note_shard(&self, table: &mut Table, s: usize, txn: TxnId) {
        let word = &self.dir[txn.0 as usize % DIR_WORDS].0;
        let me = owner(txn);
        let bit = 1 << s;
        // ordering: a word is read for its own value only. Its owner's bits are set by the thread driving that transaction, or by a releaser granting it a waited-for lock under the shard mutex the waiter then takes to see the grant; either way before the owner's `release_all` reads them
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            if cur & !MASK == me {
                // ordering: as above
                word.fetch_or(bit, Ordering::Relaxed);
                return;
            }
            if cur != 0 {
                break;
            }
            // ordering: as above
            match word.compare_exchange(0, me | bit, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
        table.spilled.push(txn);
        // ordering: counts spills for `release_all`; a transaction's own spill precedes its `release_all` as its bits do (above)
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the grant (duration and lock-name kind) in the stats counters.
    fn note_grant(&self, name: &LockName, duration: LockDuration) {
        self.stats.locks_acquired.bump();
        match duration {
            LockDuration::Instant => self.stats.locks_instant.bump(),
            LockDuration::Commit => self.stats.locks_commit.bump(),
        }
        match name {
            LockName::Record(_) | LockName::Page(_) => self.stats.locks_record.bump(),
            LockName::KeyValue(..) => self.stats.locks_keyvalue.bump(),
            LockName::Eof(_) => self.stats.locks_eof.bump(),
        }
    }

    /// Queue `waiter` on the head at `slot` of shard `s`, or fail with
    /// `Error::Deadlock` if its edges would close a waits-for cycle through
    /// its transaction.
    fn enqueue(
        &self,
        all: &mut AllShards<'_>,
        s: usize,
        slot: usize,
        waiter: Waiter,
    ) -> Result<()> {
        let txn = waiter.txn;
        let queue = &mut all.0[s].heads[slot].queue;
        // Conversions go ahead of new requests but behind existing
        // conversions (FIFO among converters).
        let pos = if waiter.convert {
            queue.iter().take_while(|w| w.convert).count()
        } else {
            queue.len()
        };
        queue.insert(pos, waiter);
        if Self::would_deadlock(all, txn) {
            // Remove the waiter we just added and fail the request.
            all.0[s].heads[slot].queue.remove(pos);
            self.stats.deadlocks.bump();
            return Err(Error::Deadlock { txn });
        }
        Ok(())
    }

    /// Build the waits-for graph and test whether `start` is on a cycle.
    ///
    /// Edges: each waiter waits for (a) every *other* holder whose granted
    /// mode is incompatible with the waiter's target mode, and (b) every
    /// earlier waiter in the same queue whose mode is incompatible (strict
    /// FIFO means only incompatible predecessors can stall it indefinitely;
    /// compatible predecessors resolve transitively through their own edges).
    fn would_deadlock(all: &AllShards<'_>, start: TxnId) -> bool {
        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for head in all.0.iter().flat_map(|t| t.heads.iter()) {
            for (i, w) in head.queue.iter().enumerate() {
                let target = if w.convert {
                    head.granted
                        .iter()
                        .find(|g| g.txn == w.txn)
                        .map(|g| g.mode.sup(w.mode))
                        .unwrap_or(w.mode)
                } else {
                    w.mode
                };
                let out = edges.entry(w.txn).or_default();
                for g in &head.granted {
                    if g.txn != w.txn && !target.compatible_with(g.mode) {
                        out.push(g.txn);
                    }
                }
                for v in head.queue.iter().take(i) {
                    if v.txn != w.txn && !target.compatible_with(v.mode) {
                        out.push(v.txn);
                    }
                }
            }
        }
        // DFS from `start` looking for a path back to `start`.
        let mut stack: Vec<TxnId> = edges.get(&start).cloned().unwrap_or_default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = edges.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// Re-examine the head at `slot` of shard `s` after its granted set
    /// changed, waking every waiter that can now be granted, and drop the
    /// head if it is left with no grant and no waiter.
    fn grant_waiters(&self, table: &mut Table, s: usize, slot: usize) {
        let mut new_holders: Vec<TxnId> = Vec::new();
        let Head {
            key,
            granted,
            queue,
        } = &mut table.heads[slot];
        let mut blocked_regular = false;
        queue.retain(|w| {
            let held = granted
                .iter()
                .position(|g| g.txn == w.txn)
                .filter(|_| w.convert);
            let target = held.map_or(w.mode, |gi| granted[gi].mode.sup(w.mode));
            // A conversion passes blocked new requests; one whose grant
            // vanished (rollback released it) is treated as new.
            let grantable =
                (held.is_some() || !blocked_regular) && compatible(granted, w.txn, target);
            if !grantable {
                blocked_regular |= !w.convert;
                return true;
            }
            if w.duration != LockDuration::Instant {
                match held {
                    Some(gi) => granted[gi].mode = target,
                    None => {
                        granted.push(Granted {
                            txn: w.txn,
                            mode: target,
                        });
                        new_holders.push(w.txn);
                    }
                }
            }
            w.parker.unpark();
            false
        });
        if granted.is_empty() && queue.is_empty() {
            table.slots.remove(key);
            table.free.push(slot as u32);
        }
        for txn in new_holders {
            if table.holders.add(txn, slot as u32) {
                self.note_shard(table, s, txn);
            }
        }
    }

    /// Release every lock held by `txn` (commit or rollback completion),
    /// locking only the shards it holds grants in.
    pub fn release_all(&self, txn: TxnId) {
        let word = &self.dir[txn.0 as usize % DIR_WORDS].0;
        // ordering: `txn`'s bits were set before this call (see `note_shard`)
        let cur = word.load(Ordering::Relaxed);
        let mut shards = 0;
        if cur & !MASK == owner(txn) {
            shards = cur & MASK;
            // ordering: as above; the cleared word is free for the next transaction mapped to it
            word.store(0, Ordering::Relaxed);
        }
        // ordering: see `note_shard`
        if self.spills.load(Ordering::Relaxed) != 0 {
            shards = MASK;
        }
        for s in 0..SHARDS {
            if shards & 1 << s != 0 {
                let mut table = self.lock_shard(s, "lock::manager::release_all");
                self.release_in(&mut table, s, txn);
            }
        }
    }

    /// Release `txn`'s grants in shard `s`.
    fn release_in(&self, table: &mut Table, s: usize, txn: TxnId) {
        if let Some(i) = table.spilled.iter().position(|&t| t == txn) {
            table.spilled.swap_remove(i);
            // ordering: see `note_shard`
            self.spills.fetch_sub(1, Ordering::Relaxed);
        }
        let Some(slots) = table.holders.lists.remove(&txn) else {
            return;
        };
        for &slot in &slots {
            let head = &mut table.heads[slot as usize];
            if let Some(gi) = head.find_granted(txn) {
                head.granted.swap_remove(gi);
            }
            self.grant_waiters(table, s, slot as usize);
        }
        table.holders.recycle(slots);
    }

    /// The mode of `txn`'s grant on `name`, if any.
    pub fn holds(&self, txn: TxnId, name: &LockName) -> Option<LockMode> {
        let (s, key) = self.key(name.clone());
        let table = self.lock_shard(s, "lock::manager::holds");
        let &slot = table.slots.get(&key)?;
        table.heads[slot as usize]
            .granted
            .iter()
            .find(|g| g.txn == txn)
            .map(|g| g.mode)
    }

    /// Duration of `txn`'s grant on `name`, if any: a recorded grant is
    /// always commit-duration. For assertions.
    pub fn holds_duration(&self, txn: TxnId, name: &LockName) -> Option<LockDuration> {
        self.holds(txn, name).map(|_| LockDuration::Commit)
    }

    /// Number of recorded grants held by `txn`. For assertions.
    pub fn held_count(&self, txn: TxnId) -> usize {
        (0..SHARDS)
            .map(|s| {
                let table = self.lock_shard(s, "lock::manager::held_count");
                table.holders.lists.get(&txn).map_or(0, Vec::len)
            })
            .sum()
    }

    /// True if the table is empty: no name has a head, no transaction a
    /// holder list or a spill, and every directory word is free. For
    /// assertions, once every transaction has released.
    pub fn is_empty(&self) -> bool {
        // ordering: read after every transaction's `release_all` returned
        let dir_free = self.dir.iter().all(|w| w.0.load(Ordering::Relaxed) == 0);
        // ordering: as above
        let no_spill = self.spills.load(Ordering::Relaxed) == 0;
        dir_free
            && no_spill
            && (0..SHARDS).all(|s| {
                let t = self.lock_shard(s, "lock::manager::is_empty");
                let no_holder = t.holders.lists.is_empty() && t.spilled.is_empty();
                no_holder && t.slots.is_empty() && t.free.len() == t.heads.len()
            })
    }

    /// True if any transaction is queued anywhere. For assertions.
    pub fn has_waiters(&self) -> bool {
        (0..SHARDS).any(|s| {
            let table = self.lock_shard(s, "lock::manager::has_waiters");
            table.heads.iter().any(|h| !h.queue.is_empty())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::stats::new_stats;
    use ariesim_common::{IndexId, PageId, Rid};
    use std::sync::atomic::AtomicBool;

    fn lm() -> LockManager {
        LockManager::new(new_stats(), ariesim_obs::Obs::disabled())
    }

    fn rec(n: u16) -> LockName {
        LockName::Record(Rid::new(PageId(1), n))
    }

    use LockDuration::*;
    use LockMode::*;

    #[test]
    fn grant_and_reentrant_grant() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(S));
        assert_eq!(m.held_count(TxnId(1)), 1);
    }

    #[test]
    fn shared_locks_coexist() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(S));
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(S));
    }

    #[test]
    fn conditional_conflict_returns_wouldblock() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let e = m.request(TxnId(2), rec(0), S, Commit, true).unwrap_err();
        assert!(matches!(e, Error::WouldBlock));
        assert!(!m.has_waiters(), "conditional request must not queue");
    }

    #[test]
    fn self_conversion_upgrades_in_place() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(X));
        // IX + S = SIX
        m.request(TxnId(1), rec(1), IX, Commit, false).unwrap();
        m.request(TxnId(1), rec(1), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(1)), Some(SIX));
    }

    #[test]
    fn instant_lock_leaves_no_trace() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Instant, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), None);
        // Another txn can take it right away.
        m.request(TxnId(2), rec(0), X, Commit, true).unwrap();
    }

    /// The table holds nothing but what is held or awaited: instant grants
    /// on names nobody holds create no head, and once every transaction
    /// has released, no shard keeps a head, a holder list or a spill, and
    /// no directory word stays claimed — also when two live transactions
    /// share a directory word and one of them spills.
    #[test]
    fn released_table_holds_no_heads() {
        let m = lm();
        for n in 0..1000 {
            m.request(TxnId(1), rec(n), X, Instant, false).unwrap();
        }
        assert!(m.is_empty(), "instant grants left heads behind");
        let page = |p: u32| LockName::Record(Rid::new(PageId(p), 0));
        let crowded = TxnId(2 + DIR_WORDS as u64);
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(1), IX, Commit, false).unwrap();
        m.request(TxnId(2), rec(1), S, Commit, false).unwrap();
        for p in 0..SHARDS as u32 {
            m.request(TxnId(3), page(p + 10), X, Commit, false).unwrap();
            m.request(crowded, page(p + 100), X, Commit, false).unwrap();
        }
        assert_eq!(
            m.held_count(crowded),
            SHARDS,
            "the spilled holder is counted"
        );
        assert_eq!(m.spills.load(Ordering::Relaxed), SHARDS as u32);
        m.release_all(TxnId(3));
        m.release_all(TxnId(1));
        m.release_all(TxnId(2));
        assert_eq!(
            m.held_count(crowded),
            SHARDS,
            "another's release kept the spill"
        );
        m.release_all(crowded);
        assert!(
            m.is_empty(),
            "released locks left heads, lists or words behind"
        );
    }

    #[test]
    fn instant_conflicts_like_any_lock() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let e = m.request(TxnId(2), rec(0), X, Instant, true).unwrap_err();
        assert!(matches!(e, Error::WouldBlock));
    }

    #[test]
    fn release_wakes_waiter() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let granted = Arc::new(AtomicBool::new(false));
        let h = {
            let m = m.clone();
            let granted = granted.clone();
            std::thread::spawn(move || {
                m.request(TxnId(2), rec(0), X, Commit, false).unwrap();
                granted.store(true, Ordering::SeqCst);
            })
        };
        // Give the waiter time to queue.
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        assert!(!granted.load(Ordering::SeqCst));
        m.release_all(TxnId(1));
        h.join().unwrap();
        assert!(granted.load(Ordering::SeqCst));
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(X));
    }

    /// A waiter whose parker holds a leftover token (say, from a group
    /// commit it stopped waiting for) must not take that token for its
    /// grant: the request returns only after the holder releases.
    #[test]
    fn stale_token_does_not_end_a_wait() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let granted = Arc::new(AtomicBool::new(false));
        let h = {
            let (m, granted) = (m.clone(), granted.clone());
            std::thread::spawn(move || {
                Parker::current().unpark();
                m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
                granted.store(true, Ordering::SeqCst);
            })
        };
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !granted.load(Ordering::SeqCst),
            "the leftover token ended the wait before the holder released"
        );
        m.release_all(TxnId(1));
        h.join().unwrap();
        assert!(granted.load(Ordering::SeqCst));
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(S));
    }

    #[test]
    fn release_all_releases_everything() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(TxnId(1), rec(1), S, Commit, false).unwrap();
        m.request(TxnId(1), LockName::Eof(IndexId(1)), S, Commit, false)
            .unwrap();
        assert_eq!(m.held_count(TxnId(1)), 3);
        m.release_all(TxnId(1));
        assert_eq!(m.held_count(TxnId(1)), 0);
        m.request(TxnId(2), rec(0), X, Commit, true).unwrap();
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(TxnId(2), rec(1), X, Commit, false).unwrap();
        // T2 waits for rec(0).
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.request(TxnId(2), rec(0), X, Commit, false));
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        // T1 requesting rec(1) closes the cycle: T1 must be the victim.
        let e = m.request(TxnId(1), rec(1), X, Commit, false).unwrap_err();
        assert!(matches!(e, Error::Deadlock { txn: TxnId(1) }), "{e:?}");
        // Unblock T2.
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn conversion_deadlock_detected() {
        // Both hold S, both try to convert to X: classic conversion deadlock.
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.request(TxnId(2), rec(0), X, Commit, false));
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        let e = m.request(TxnId(1), rec(0), X, Commit, false).unwrap_err();
        assert!(matches!(e, Error::Deadlock { txn: TxnId(1) }));
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(X));
    }

    #[test]
    fn fifo_prevents_starvation_writer_between_readers() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        // Writer queues.
        let mw = m.clone();
        let writer = std::thread::spawn(move || {
            mw.request(TxnId(2), rec(0), X, Commit, false).unwrap();
            // Hold briefly, then release.
            mw.release_all(TxnId(2));
        });
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        // A late reader must queue behind the writer, not jump it.
        let mr = m.clone();
        let reader = std::thread::spawn(move || {
            mr.request(TxnId(3), rec(0), S, Commit, false).unwrap();
            mr.release_all(TxnId(3));
        });
        // Give the reader time to either (incorrectly) grab the lock or queue.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            m.holds(TxnId(3), &rec(0)),
            None,
            "late reader must wait behind queued writer"
        );
        m.release_all(TxnId(1));
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn duration_never_weakens() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        // Re-request with the weaker duration: the grant stays.
        m.request(TxnId(1), rec(0), S, Instant, false).unwrap();
        assert_eq!(m.holds_duration(TxnId(1), &rec(0)), Some(Commit));
    }

    #[test]
    fn stress_many_threads_no_lost_wakeups() {
        let m = Arc::new(lm());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let txn = TxnId(1 + t * 1000 + i);
                        loop {
                            match m.request(txn, rec(0), X, Commit, false) {
                                Ok(()) => break,
                                Err(Error::Deadlock { .. }) => continue,
                                Err(e) => panic!("{e}"),
                            }
                        }
                        counter.fetch_add(1, Ordering::SeqCst);
                        m.release_all(txn);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 400);
        assert!(!m.has_waiters());
    }

    #[test]
    fn stats_classify_names_and_durations() {
        let stats = new_stats();
        let m = LockManager::new(stats.clone(), ariesim_obs::Obs::disabled());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(
            TxnId(1),
            LockName::key_value(IndexId(1), b"k".to_vec()),
            S,
            Commit,
            false,
        )
        .unwrap();
        m.request(TxnId(1), LockName::Eof(IndexId(1)), S, Instant, false)
            .unwrap();
        let s = stats.snapshot();
        assert_eq!(s.locks_acquired, 3);
        assert_eq!(s.locks_record, 1);
        assert_eq!(s.locks_keyvalue, 1);
        assert_eq!(s.locks_eof, 1);
        assert_eq!(s.locks_instant, 1);
        assert_eq!(s.locks_commit, 2);
    }

    /// A record name goes to its page's shard, so the keys a scan locks on
    /// one heap page share a shard; consecutive pages spread over all.
    #[test]
    fn record_names_shard_by_page() {
        let m = lm();
        let shard = |p: u32, slot: u16| m.key(LockName::Record(Rid::new(PageId(p), slot))).0;
        assert!((0..200).all(|slot| shard(7, slot) == shard(7, 0)));
        let spread: HashSet<usize> = (0..SHARDS as u32).map(|p| shard(p, 0)).collect();
        assert_eq!(spread.len(), SHARDS);
        assert_eq!(m.key(LockName::Page(PageId(7))).0, shard(7, 3));
    }

    /// Two lock-table mutexes held at once are an order violation, except
    /// in the wait path's sweep, which takes every shard in index order and
    /// reports once.
    #[test]
    fn a_second_shard_mutex_is_flagged_outside_the_sweep() {
        let m = lm();
        let violations = |m: &LockManager| m.obs.monitor.snapshot().latch_order_violations;
        drop(m.lock_all());
        assert_eq!(violations(&m), 0, "the sweep alone");
        {
            let _a = m.lock_shard(0, "test::first");
            let _b = m.lock_shard(1, "test::second");
        }
        assert_eq!(violations(&m), 1, "two shards held");
        // A wait exercises the sweep for real: still no new violation.
        let m = Arc::new(m);
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.request(TxnId(2), rec(0), S, Commit, false));
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(
            violations(&m),
            1,
            "the wait path's sweep is one acquisition"
        );
    }
}
