//! Lock modes, the compatibility matrix, the conversion lattice, and
//! durations — per \[Gray78\], as the paper assumes (§1.2).

/// Lock mode. `IX` is the commit lock the ARIES/KVL baseline's insert takes
/// on the key *value* it inserts \[Moha90a\]: inserters of one value coexist,
/// readers of it wait. `SIX` is where a transaction's `S` and `IX` grants on
/// one name meet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum LockMode {
    IX,
    S,
    SIX,
    X,
}

impl LockMode {
    /// Gray's compatibility matrix: may a lock in `self` be granted while
    /// another transaction holds `held`?
    pub fn compatible_with(self, held: LockMode) -> bool {
        use LockMode::*;
        match (self, held) {
            (IX, IX) | (S, S) => true,
            (IX, _) | (S, _) | (SIX, _) | (X, _) => false,
        }
    }

    /// Least upper bound in the conversion lattice: the mode a holder of
    /// `self` must convert to in order to also cover `other`.
    pub fn sup(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            (X, _) | (_, X) => X,
            (IX, IX) => IX,
            (S, S) => S,
            (IX, S) | (S, IX) | (SIX, _) | (_, SIX) => SIX,
        }
    }

    /// Does holding `self` make a request for `want` a no-op?
    /// True iff `sup(self, want) == self`.
    pub fn covers(self, want: LockMode) -> bool {
        self.sup(want) == self
    }
}

/// How long a granted lock is retained (paper §1.2, Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockDuration {
    /// Released as soon as it is granted: the requester only learns that the
    /// lock *was grantable at that moment*. ARIES/IM's insert uses an instant
    /// X next-key lock (Figure 2) because the inserted key itself becomes the
    /// tripping point afterwards (§2.6).
    Instant,
    /// Held until the transaction commits or finishes rollback. Deletes hold
    /// their next-key X lock for commit duration (Figure 2, §2.6).
    Commit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    const ALL: [LockMode; 4] = [IX, S, SIX, X];

    #[test]
    fn compatibility_matrix_matches_gray() {
        // (requested, held) -> compatible
        let expect = [
            // IX   S      SIX    X       <- held
            (IX, [true, false, false, false]),
            (S, [false, true, false, false]),
            (SIX, [false, false, false, false]),
            (X, [false, false, false, false]),
        ];
        for (req, row) in expect {
            for (held, want) in ALL.iter().zip(row) {
                assert_eq!(
                    req.compatible_with(*held),
                    want,
                    "compat({req:?}, {held:?})"
                );
            }
        }
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.compatible_with(b), b.compatible_with(a), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn sup_is_commutative_idempotent_and_monotone() {
        for a in ALL {
            assert_eq!(a.sup(a), a);
            for b in ALL {
                assert_eq!(a.sup(b), b.sup(a));
                let s = a.sup(b);
                // sup covers both inputs
                assert!(s.covers(a) && s.covers(b), "sup({a:?},{b:?})={s:?}");
            }
        }
    }

    #[test]
    fn sup_specific_values() {
        assert_eq!(IX.sup(S), SIX);
        assert_eq!(S.sup(IX), SIX);
        assert_eq!(IX.sup(X), X);
        assert_eq!(SIX.sup(IX), SIX);
        assert_eq!(S.sup(X), X);
    }

    #[test]
    fn covers_examples() {
        assert!(X.covers(S));
        assert!(SIX.covers(S) && SIX.covers(IX));
        assert!(!S.covers(X));
        assert!(!IX.covers(S));
    }

    #[test]
    fn duration_ordering_instant_weakest() {
        assert!(LockDuration::Instant < LockDuration::Commit);
    }
}
