//! Fixture for the atomics-ordering census.
use std::sync::atomic::{AtomicU32, Ordering};

pub fn annotated_same_line(c: &AtomicU32) -> u32 {
    c.load(Ordering::Acquire) // ordering: pairs with the Release in annotated_above
}

pub fn annotated_above(c: &AtomicU32) {
    // ordering: publishes the payload written before this store
    c.store(1, Ordering::Release);
}

pub fn bare_relaxed(c: &AtomicU32) -> u32 {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn bare_acq_rel(c: &AtomicU32) -> u32 {
    c.swap(2, Ordering::AcqRel)
}

pub fn not_atomic(a: u32, b: u32) -> bool {
    a.cmp(&b) == std::cmp::Ordering::Less
}

pub fn after_a_test_probe(c: &AtomicU32) -> u32 {
    #[cfg(test)]
    eprintln!("probe");
    c.load(Ordering::Relaxed) // ordering: advisory; an inline cfg(test) statement does not end the census
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_module_sites_are_exempt() {
        assert_eq!(AtomicU32::new(0).load(Ordering::SeqCst), 0);
        assert_eq!(bare_relaxed(&AtomicU32::new(0)), 0);
    }
}
