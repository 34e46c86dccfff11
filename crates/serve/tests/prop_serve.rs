//! Property tests for the serving layer's bit-identity contract.
//!
//! Two halves (mirroring the crate docs): `pack → mmap-load → score`
//! equals scoring the source `TokenDb`, and a 2-deep overlay stack
//! (org patch over base under tenant delta) equals one `TokenDb` that
//! trained the same mail sequentially. Plus fail-closed corruption:
//! any byte flip or truncation of an image is a typed error, never a
//! panic, never a silently different model. And the one memo contract
//! every `ScoreDb` shares, checked table-driven across all four
//! implementations (this is the one test crate that sees them all).

use proptest::prelude::*;
use sb_email::Label;
use sb_filter::classify::score_token_ids;
use sb_filter::score::token_score_from_counts;
use sb_filter::{
    image, ln_pair, CandidateDelta, FilterOptions, OverlayScratch, ScoreDb, ScoreMemo, TokenDb,
};
use sb_intern::{Interner, TokenId};
use sb_serve::{ImageBytes, MmapDb, OverlayLayer, ServeError, StackView, TenantId, TenantRegistry};
use std::sync::Arc;

/// Small alphabet keeps token collisions (shared counts) likely.
fn token() -> impl Strategy<Value = String> {
    "[a-e]{3,5}"
}

fn token_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(token(), 0..8).prop_map(|s| s.into_iter().collect())
}

fn mail() -> impl Strategy<Value = Vec<(Vec<String>, bool)>> {
    proptest::collection::vec((token_set(), any::<bool>()), 0..8)
}

fn label(is_spam: bool) -> Label {
    if is_spam {
        Label::Spam
    } else {
        Label::Ham
    }
}

fn train_all(db: &mut TokenDb, mail: &[(Vec<String>, bool)]) {
    for (set, is_spam) in mail {
        db.train(set, label(*is_spam));
    }
}

fn intern(interner: &Interner, set: &[String]) -> Vec<TokenId> {
    interner.intern_set(set)
}

/// The memo contract, checked on one view: every `f` and `ln` pair it
/// serves has the bits of the unmemoized formula over the view's own
/// counts view, on the first (filling) read and on a repeat read. Run
/// after a mutation, a stale memo entry would fail the comparison.
fn check_memo_contract(
    view: &dyn ScoreDb,
    probe: &[TokenId],
    opts: &FilterOptions,
) -> Result<(), TestCaseError> {
    let (n_spam, n_ham) = view.class_totals();
    for &id in probe {
        let want = token_score_from_counts(n_spam, n_ham, view.counts_by_id(id), opts);
        let (want_ln_f, want_ln_1mf) = ln_pair(want);
        for read in ["fill", "repeat"] {
            let f = view.score_f(id, opts);
            prop_assert_eq!(f.to_bits(), want.to_bits(), "{} read of f", read);
            let (ln_f, ln_1mf) = view.score_lns(id, f);
            prop_assert_eq!(
                (ln_f.to_bits(), ln_1mf.to_bits()),
                (want_ln_f.to_bits(), want_ln_1mf.to_bits()),
                "{} read of the ln pair",
                read
            );
        }
    }
    Ok(())
}

/// One row of the memo table: a `ScoreDb` implementation, memoized or
/// not.
#[derive(Debug, Clone, Copy)]
enum Row {
    TokenDb,
    MmapDb,
    Stack { memo: bool },
    Overlay { scratch: bool },
}

const ROWS: [Row; 6] = [
    Row::TokenDb,
    Row::MmapDb,
    Row::Stack { memo: false },
    Row::Stack { memo: true },
    Row::Overlay { scratch: false },
    Row::Overlay { scratch: true },
];

/// The mail and probes one memo-table case runs every row on.
struct MemoCase {
    base: Vec<(Vec<String>, bool)>,
    layer: Vec<(Vec<String>, bool)>,
    /// Each candidate's own tokens, plus a mask of the probe tokens it
    /// also contains (bit `i % 8` for probe token `i`).
    candidates: Vec<(Vec<String>, u8)>,
    candidate_label: Label,
    multiplicity: u32,
    probe: Vec<String>,
    /// Memo capacity in halves of the interner length (0 = no entries,
    /// 1 = half the ids score unmemoized, 2 = every id memoized).
    capacity_halves: usize,
}

impl MemoCase {
    /// Check `row` before and after each mutation its type supports:
    /// training the db or the tenant layer (every probe token gains a
    /// count, so every memoized score moves), and laying a new candidate
    /// over a reused overlay scratch.
    fn check(&self, row: Row) -> Result<(), TestCaseError> {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut db = TokenDb::with_interner(interner.clone());
        train_all(&mut db, &self.base);
        let probe = intern(&interner, &self.probe);
        let capacity = |interner: &Interner| interner.len() * self.capacity_halves / 2;
        match row {
            Row::TokenDb => {
                check_memo_contract(&db, &probe, &opts)?;
                db.train_ids(&probe, Label::Spam);
                check_memo_contract(&db, &probe, &opts)
            }
            Row::MmapDb => {
                let served = MmapDb::from_bytes(ImageBytes::Owned(image::pack(&db)), opts)
                    .map_err(|e| TestCaseError::Fail(e.to_string()))?;
                let probe = intern(served.interner(), &self.probe);
                check_memo_contract(&served, &probe, &opts)
            }
            Row::Stack { memo } => {
                let mut layer = OverlayLayer::new();
                for (set, is_spam) in &self.layer {
                    layer.train_ids(&intern(&interner, set), label(*is_spam));
                }
                let score_memo = ScoreMemo::with_capacity(capacity(&interner));
                for _ in 0..2 {
                    let layers = [&layer];
                    let view = if memo {
                        StackView::with_memo(&db, &layers, &score_memo)
                    } else {
                        StackView::new(&db, &layers)
                    };
                    check_memo_contract(&view, &probe, &opts)?;
                    layer.train_ids(&probe, Label::Spam);
                }
                Ok(())
            }
            Row::Overlay { scratch } => {
                let mut overlay_scratch = OverlayScratch::new();
                let candidates: Vec<Vec<TokenId>> = self
                    .candidates
                    .iter()
                    .map(|(own, mask)| {
                        let mut set = own.clone();
                        for (i, token) in self.probe.iter().enumerate() {
                            if mask >> (i % 8) & 1 == 1 {
                                set.push(token.clone());
                            }
                        }
                        intern(&interner, &set)
                    })
                    .collect();
                overlay_scratch.ensure_capacity(capacity(&interner));
                for (k, candidate) in candidates.iter().enumerate() {
                    if k + 1 == candidates.len() {
                        db.train_ids(&probe, Label::Spam);
                    }
                    let delta =
                        CandidateDelta::new(candidate, self.candidate_label, self.multiplicity);
                    if scratch {
                        let view = delta.over_with(&db, &mut overlay_scratch);
                        check_memo_contract(&view, &probe, &opts)?;
                    } else {
                        check_memo_contract(&delta.over(&db), &probe, &opts)?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Write `bytes` to a unique temp file, run `f`, clean up.
fn with_temp_image<R>(tag: &str, bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
    let path = std::env::temp_dir().join(format!(
        "sb-prop-serve-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let r = f(&path);
    std::fs::remove_file(&path).ok();
    r
}

proptest! {
    /// Every `ScoreDb` — `TokenDb`, `MmapDb`, `StackView` with and
    /// without a memo, `OverlayDb` with and without a scratch — serves
    /// the exact unmemoized scores through the shared `ScoreMemo`, on
    /// repeat reads and across every mutation, whatever the memo's
    /// capacity.
    #[test]
    fn every_score_db_serves_exact_fresh_scores_through_its_memo(
        base in mail(),
        layer in mail(),
        candidates in proptest::collection::vec((token_set(), any::<u8>()), 2..4),
        candidate_spam in any::<bool>(),
        multiplicity in 0u32..3,
        probe in token_set(),
        capacity_halves in 0usize..3,
    ) {
        let case = MemoCase {
            base,
            layer,
            candidates,
            candidate_label: label(candidate_spam),
            multiplicity,
            probe,
            capacity_halves,
        };
        for row in ROWS {
            case.check(row)?;
        }
    }

    /// pack → mmap-load → score is bit-identical to the source TokenDb,
    /// across interners (the image rebuilds its own dense interner).
    #[test]
    fn pack_mmap_load_score_bit_identity(
        base in mail(),
        probes in proptest::collection::vec(token_set(), 1..6),
    ) {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        train_all(&mut db, &base);
        let img = image::pack(&db);
        let served = with_temp_image("identity", &img, |path| {
            MmapDb::open(path, opts)
        }).unwrap();
        prop_assert_eq!(served.n_tokens(), db.n_tokens());
        for probe in &probes {
            let want = score_token_ids(&intern(db.interner(), probe), &db, &opts);
            let got = score_token_ids(&intern(served.interner(), probe), &served, &opts);
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
    }

    /// Any single-byte flip or truncation fails closed with a typed
    /// error — no panic, and never a quietly different model.
    #[test]
    fn corrupted_images_yield_typed_errors(
        base in mail(),
        seed in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        train_all(&mut db, &base);
        let img = image::pack(&db);
        let corrupted = if truncate {
            // Drop at least one byte (an empty file is also covered).
            img[..(seed as usize) % img.len()].to_vec()
        } else {
            let mut c = img.clone();
            let i = (seed as usize) % c.len();
            c[i] ^= 1 + (seed >> 32) as u8 % 255;
            c
        };
        let res = with_temp_image("corrupt", &corrupted, |path| {
            MmapDb::open(path, opts)
        });
        match res {
            Err(ServeError::Image(_)) => {}
            Err(other) => prop_assert!(false, "expected ImageError, got {other}"),
            Ok(_) => prop_assert!(false, "corrupted image parsed successfully"),
        }
    }

    /// A 2-deep overlay stack (frozen org patch + mutable tenant delta)
    /// over a shared base serves verdicts bit-identical to a standalone
    /// TokenDb — with its own interner — that trained base mail, then
    /// org mail, then the tenant's mail, sequentially. Repeat classify
    /// exercises the memo; its bits must not move either.
    #[test]
    fn two_deep_stack_equals_sequential_training(
        base in mail(),
        org in proptest::collection::vec(token_set(), 0..4),
        tenants in proptest::collection::vec(mail(), 1..3),
        probes in proptest::collection::vec(token_set(), 1..5),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let mut org_patch = OverlayLayer::new();
        for set in &org {
            org_patch.train_ids(&intern(&interner, set), Label::Ham);
        }
        let registry =
            TenantRegistry::with_org_patch(Arc::new(shared), org_patch, opts);
        for (t, mail) in tenants.iter().enumerate() {
            let id = TenantId(t as u32);
            registry.add_tenant(id).unwrap();
            for (set, is_spam) in mail {
                registry.train(id, &intern(&interner, set), label(*is_spam)).unwrap();
            }
        }
        for (t, mail) in tenants.iter().enumerate() {
            let mut standalone = TokenDb::new();
            train_all(&mut standalone, &base);
            for set in &org {
                standalone.train(set, Label::Ham);
            }
            train_all(&mut standalone, mail);
            for probe in &probes {
                let want =
                    score_token_ids(&intern(standalone.interner(), probe), &standalone, &opts);
                let ids = intern(&interner, probe);
                let cold = registry.classify_ids(TenantId(t as u32), &ids).unwrap();
                let warm = registry.classify_ids(TenantId(t as u32), &ids).unwrap();
                prop_assert_eq!(cold.score.to_bits(), want.score.to_bits());
                prop_assert_eq!(cold.verdict, want.verdict);
                prop_assert_eq!(warm.score.to_bits(), want.score.to_bits());
                prop_assert_eq!(warm.verdict, want.verdict);
            }
        }
    }

    /// Tenant untrain is exact: training a message into a delta and
    /// untraining it restores every probe verdict bit.
    #[test]
    fn tenant_untrain_restores_verdict_bits(
        base in mail(),
        extra in token_set(),
        extra_spam in any::<bool>(),
        probes in proptest::collection::vec(token_set(), 1..5),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let registry = TenantRegistry::new(Arc::new(shared), opts);
        let id = TenantId(7);
        registry.add_tenant(id).unwrap();
        let probe_ids: Vec<Vec<TokenId>> =
            probes.iter().map(|p| intern(&interner, p)).collect();
        let before: Vec<_> = probe_ids
            .iter()
            .map(|ids| registry.classify_ids(id, ids).unwrap())
            .collect();
        let extra_ids = intern(&interner, &extra);
        registry.train(id, &extra_ids, label(extra_spam)).unwrap();
        registry.untrain(id, &extra_ids, label(extra_spam)).unwrap();
        for (ids, want) in probe_ids.iter().zip(&before) {
            let got = registry.classify_ids(id, ids).unwrap();
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
        // A second identical untrain must fail typed (never trained).
        if !extra_ids.is_empty() {
            prop_assert!(matches!(
                registry.untrain(id, &extra_ids, label(extra_spam)),
                Err(ServeError::Underflow { tenant: 7 })
            ));
        }
    }
}
