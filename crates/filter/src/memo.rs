//! [`ScoreMemo`]: the one score memo every [`crate::ScoreDb`] shares.
//!
//! Classification needs `f(w)` (Eq. 2) plus `ln f(w)` / `ln(1 − f(w))`
//! (Eq. 3–4) per probe token, and all of them depend on the *global*
//! class totals `NS`/`NH`, so any train/untrain invalidates every
//! memoized score. Instead of clearing a table on each mutation
//! (O(vocabulary), ruinous for RONI's inner loop), each entry carries
//! the **stamp** it was computed at, and a reader passes the stamp its
//! counts are valid for:
//!
//! * [`crate::TokenDb`] stamps with its mutation generation;
//! * `sb-serve`'s `StackView` stamps with 1 + Σ layer generations;
//! * [`crate::OverlayScratch`] stamps with its claim epochs.
//!
//! An entry whose stamp equals the reader's is valid; anything else is
//! recomputed and published, value first, stamp last (`Release`), so a
//! concurrent reader either sees a complete entry or computes its own
//! identical copy — scores are pure functions of (counts, options), so
//! racing fills are benign. Stale entries die by stamp mismatch, not by
//! erasure: invalidation is O(1) for the owner. Stamp 0 means "never
//! filled"; every owner's stamps start at 1.
//!
//! `f` and the `ln` pair carry separate stamps: δ(E) selection needs `f`
//! for *every* probe token, but Fisher combining needs the `ln`s only for
//! the ≤ `max_discriminators` survivors — most tokens sit in the excluded
//! band and must never pay the two `ln` calls.
//!
//! Capacity is fixed between [`ScoreMemo::ensure_capacity`] calls
//! (growing a `Vec` is not lock-free); ids beyond it are computed
//! directly and never stored, so capacity is purely a performance knob.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::db::ln_pair;
use sb_intern::TokenId;

/// One memo entry: `f` and the `ln` pair, each behind its own stamp.
#[derive(Default)]
struct Entry {
    f_stamp: AtomicU64,
    f: AtomicU64,
    lns_stamp: AtomicU64,
    ln_f: AtomicU64,
    ln_1mf: AtomicU64,
}

/// Dense, lock-free, stamp-validated score memo indexed by [`TokenId`]
/// (see module docs).
#[derive(Default)]
pub struct ScoreMemo {
    entries: Vec<Entry>,
}

impl std::fmt::Debug for ScoreMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScoreMemo({} entries)", self.entries.len())
    }
}

impl ScoreMemo {
    /// An empty memo (every lookup computes until capacity is added).
    pub fn new() -> Self {
        Self::default()
    }

    /// A memo covering ids `0..capacity`, every entry unfilled.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut memo = Self::new();
        memo.ensure_capacity(capacity);
        memo
    }

    /// Number of ids the memo can hold.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Grow to cover ids `0..capacity` (never shrinks). Requires `&mut`:
    /// owners serialize growth behind their write path, while readers
    /// only ever hold `&ScoreMemo`.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.entries.len() < capacity {
            self.entries.resize_with(capacity, Entry::default);
        }
    }

    /// `f(w)` of `id` valid at `stamp`: the memoized value when the entry
    /// carries `stamp`, otherwise `compute()`, published under `stamp`.
    #[inline]
    pub fn f(&self, id: TokenId, stamp: u64, compute: impl FnOnce() -> f64) -> f64 {
        match self.entries.get(id.index()) {
            Some(e) => read_or_fill(&e.f_stamp, [&e.f], stamp, || [compute()])[0],
            None => compute(),
        }
    }

    /// The `(ln f, ln(1 − f))` pair of `id` valid at `stamp`, for a
    /// token whose `f` is already known from [`ScoreMemo::f`].
    #[inline]
    pub fn lns(&self, id: TokenId, stamp: u64, f: f64) -> (f64, f64) {
        match self.entries.get(id.index()) {
            Some(e) => {
                let [ln_f, ln_1mf] =
                    read_or_fill(&e.lns_stamp, [&e.ln_f, &e.ln_1mf], stamp, || {
                        let (ln_f, ln_1mf) = ln_pair(f);
                        [ln_f, ln_1mf]
                    });
                (ln_f, ln_1mf)
            }
            None => ln_pair(f),
        }
    }
}

/// The stamp check / fill / publish sequence: values valid at `stamp`
/// are read back; otherwise `compute`'s values are stored `Relaxed` and
/// published by a `Release` store of the stamp, which the `Acquire`
/// load pairs with.
#[inline]
fn read_or_fill<const N: usize>(
    stamp_cell: &AtomicU64,
    values: [&AtomicU64; N],
    stamp: u64,
    compute: impl FnOnce() -> [f64; N],
) -> [f64; N] {
    if stamp_cell.load(Ordering::Acquire) == stamp {
        return values.map(|v| f64::from_bits(v.load(Ordering::Relaxed)));
    }
    let fresh = compute();
    for (cell, x) in values.iter().zip(fresh) {
        cell.store(x.to_bits(), Ordering::Relaxed);
    }
    stamp_cell.store(stamp, Ordering::Release);
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn fills_once_per_stamp_and_refills_on_a_new_stamp() {
        let memo = ScoreMemo::with_capacity(4);
        let calls = Cell::new(0);
        let f_at = |stamp, value: f64| {
            memo.f(TokenId(2), stamp, || {
                calls.set(calls.get() + 1);
                value
            })
        };
        assert_eq!(f_at(1, 0.25), 0.25);
        assert_eq!(f_at(1, 0.75), 0.25, "same stamp must serve the entry");
        assert_eq!(f_at(2, 0.75), 0.75, "a new stamp must recompute");
        assert_eq!(calls.get(), 2);
        assert_eq!(memo.lns(TokenId(2), 2, 0.75), ln_pair(0.75));
        assert_eq!(memo.lns(TokenId(2), 2, 0.5), ln_pair(0.75));
        assert_eq!(memo.lns(TokenId(2), 3, 0.5), ln_pair(0.5));
    }

    #[test]
    fn ids_beyond_capacity_are_computed_never_stored() {
        let mut memo = ScoreMemo::with_capacity(1);
        assert_eq!(memo.f(TokenId(5), 1, || 0.25), 0.25);
        assert_eq!(memo.f(TokenId(5), 1, || 0.75), 0.75);
        assert_eq!(memo.lns(TokenId(5), 1, 0.75), ln_pair(0.75));
        memo.ensure_capacity(6);
        memo.ensure_capacity(2);
        assert_eq!(memo.capacity(), 6, "capacity never shrinks");
        assert_eq!(memo.f(TokenId(5), 1, || 0.5), 0.5);
        assert_eq!(memo.f(TokenId(5), 1, || 0.75), 0.5);
    }
}
