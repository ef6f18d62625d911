//! Model-aware atomics: drop-in wrappers over `std::sync::atomic` whose
//! every operation is a schedule point for the deterministic model checker
//! (`crates/model`).
//!
//! The engine's lock-free protocol words — the buffer pool's per-frame pin
//! count and owner word, the WAL's durable-LSN mirror, the lock table's
//! shard directory and spill count — are the state whose
//! interleavings the checker must control, so those fields use these
//! wrappers. Plain relaxed statistics counters deliberately do **not**:
//! every facade operation is a scheduling decision, and instrumenting
//! no-protocol counters would multiply the schedule space without adding
//! any checkable behavior.
//!
//! On ordinary threads (no model run) each operation costs one
//! thread-local flag read on top of the underlying atomic — the same
//! disarmed-fast-path design as `crash_point!`.

use parking_lot::sched::{self, OpKind};
use std::sync::atomic::Ordering;

macro_rules! model_atomic {
    ($name:ident, $inner:ty, $prim:ty) => {
        /// Model-checkable atomic; see the module docs.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            pub const fn new(v: $prim) -> Self {
                Self {
                    inner: <$inner>::new(v),
                }
            }

            #[inline]
            fn point(&self, kind: OpKind) {
                sched::acquire_point(kind, self as *const Self as usize);
            }

            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                self.point(OpKind::AtomicLoad);
                self.inner.load(order)
            }

            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                self.point(OpKind::AtomicStore);
                self.inner.store(v, order)
            }

            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                self.point(OpKind::AtomicRmw);
                self.inner.swap(v, order)
            }

            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                self.point(OpKind::AtomicRmw);
                self.inner.fetch_add(v, order)
            }

            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                self.point(OpKind::AtomicRmw);
                self.inner.fetch_sub(v, order)
            }

            #[inline]
            pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                self.point(OpKind::AtomicRmw);
                self.inner.fetch_or(v, order)
            }

            #[inline]
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                self.point(OpKind::AtomicRmw);
                self.inner.fetch_max(v, order)
            }

            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.point(OpKind::AtomicRmw);
                self.inner.compare_exchange(current, new, success, failure)
            }

            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            #[inline]
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

model_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

/// Explicit schedule point; see [`yield_point!`](crate::yield_point).
/// `site` (a `file:line` literal) doubles as the point's identity.
#[inline]
pub fn yield_now(site: &'static str) {
    sched::acquire_point(OpKind::Yield, site.as_ptr() as usize);
}

/// Insert an explicit schedule point into model-checked code: under a model
/// run the controller may preempt here; everywhere else it is one
/// thread-local flag read. Use it to expose an interleaving window the
/// sync-op instrumentation alone would not (e.g. between two plain reads a
/// harness wants to split).
#[macro_export]
macro_rules! yield_point {
    () => {
        $crate::msync::yield_now(concat!(file!(), ":", line!()))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_atomics_behave_like_std() {
        let a = AtomicU32::new(5);
        assert_eq!(a.load(Ordering::Acquire), 5);
        a.store(7, Ordering::Release);
        assert_eq!(a.fetch_add(1, Ordering::AcqRel), 7);
        assert_eq!(a.fetch_sub(2, Ordering::AcqRel), 8);
        assert_eq!(a.swap(42, Ordering::AcqRel), 6);
        assert_eq!(
            a.compare_exchange(42, 43, Ordering::AcqRel, Ordering::Acquire),
            Ok(42)
        );
        let b = AtomicU64::new(1);
        assert_eq!(b.fetch_max(9, Ordering::AcqRel), 1);
        assert_eq!(b.fetch_or(6, Ordering::AcqRel), 9);
        assert_eq!(b.into_inner(), 15);
    }

    #[test]
    fn yield_point_is_a_noop_when_disarmed() {
        yield_point!();
    }
}
