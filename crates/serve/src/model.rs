//! [`MmapDb`]: a read-only [`ScoreDb`] served straight from packed image
//! bytes.
//!
//! Where [`sb_filter::TokenDb`] owns a dense `Vec<TokenCounts>`, an
//! `MmapDb` *is* the image: every count lookup is two little-endian
//! `u32` reads at `HEADER_LEN + 8·id` into the (usually mapped) bytes.
//! The only materialized state is the serving [`Interner`] — built once
//! at load by interning the arena strings in row order, so that
//! **image row `i` ⇔ `TokenId(i)`** and ids can index the counts array
//! directly.
//!
//! An `MmapDb` keeps no score memo of its own: serving always scores it
//! through a tenant [`crate::StackView`], whose memo covers the base's
//! tokens too, so a per-row memo here would be allocated at every open
//! and never read. Scored directly, it computes each score from the
//! mapped counts.

use crate::mmap::ImageBytes;
use crate::ServeError;
use sb_filter::image::{ImageView, HEADER_LEN};
use sb_filter::{FilterOptions, ScoreDb, TokenCounts};
use sb_intern::{Interner, TokenId};
use std::path::Path;

/// A packed model image served in place (see module docs).
pub struct MmapDb {
    bytes: ImageBytes,
    interner: Interner,
    opts: FilterOptions,
    n_spam: u32,
    n_ham: u32,
    n_tokens: usize,
}

impl std::fmt::Debug for MmapDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapDb")
            .field("bytes", &self.bytes)
            .field("n_spam", &self.n_spam)
            .field("n_ham", &self.n_ham)
            .field("n_tokens", &self.n_tokens)
            .finish()
    }
}

impl MmapDb {
    /// Map (or read) and validate a packed image file, building the
    /// serving interner.
    pub fn open(path: &Path, opts: FilterOptions) -> Result<Self, ServeError> {
        Self::from_bytes(ImageBytes::load(path)?, opts)
    }

    /// Serve an already-loaded image. Validates the full image
    /// ([`ImageView::parse`]) and interns the arena in row order on a
    /// **fresh** interner, establishing `row i ⇔ TokenId(i)`.
    pub fn from_bytes(bytes: ImageBytes, opts: FilterOptions) -> Result<Self, ServeError> {
        let view = ImageView::parse(&bytes)?;
        let interner = Interner::new();
        for i in 0..view.n_tokens() {
            let id = interner.intern(view.token(i));
            // A fresh interner hands out sequential ids and parse
            // guarantees strictly sorted (hence unique) rows, so this
            // only fires if one of those invariants breaks.
            if id.index() != i {
                return Err(ServeError::InternMismatch { row: i });
            }
        }
        let n_tokens = view.n_tokens();
        let (n_spam, n_ham) = (view.n_spam(), view.n_ham());
        Ok(Self {
            bytes,
            interner,
            opts,
            n_spam,
            n_ham,
            n_tokens,
        })
    }

    /// The serving interner (`TokenId(i)` ⇔ image row `i`; tokens unseen
    /// by the base intern onward from `n_tokens`).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The options the model was opened to be served under.
    pub fn options(&self) -> &FilterOptions {
        &self.opts
    }

    /// `NS`: spam messages in the packed model.
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// `NH`: ham messages in the packed model.
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Distinct tokens in the packed model.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Whether the image is served by a live mapping (vs. the owned
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }
}

impl ScoreDb for MmapDb {
    fn interner(&self) -> &Interner {
        MmapDb::interner(self)
    }

    /// Counts for a token id: an offset read into the image. Ids at or
    /// beyond `n_tokens` (interned after load, or from another source)
    /// are unseen — zero counts, like `TokenDb`.
    #[inline]
    fn counts_by_id(&self, id: TokenId) -> TokenCounts {
        let i = id.index();
        if i >= self.n_tokens {
            return TokenCounts::default();
        }
        // In bounds: parse proved HEADER_LEN + 8·n_tokens <= len.
        let bytes = self.bytes.as_slice();
        let read_u32 = |at: usize| {
            bytes
                .get(at..at + 4)
                .and_then(|b| <[u8; 4]>::try_from(b).ok())
                .map_or(0, u32::from_le_bytes)
        };
        let off = HEADER_LEN + 8 * i;
        TokenCounts {
            spam: read_u32(off),
            ham: read_u32(off + 4),
        }
    }

    #[inline]
    fn class_totals(&self) -> (u32, u32) {
        (self.n_spam, self.n_ham)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;
    use sb_filter::classify::score_token_ids;
    use sb_filter::image::pack;
    use sb_filter::score::token_score_from_counts;
    use sb_filter::TokenDb;

    fn trained_db() -> TokenDb {
        let interner = Interner::new();
        let mut db = TokenDb::with_interner(interner);
        db.train(
            &["cheap".into(), "pills".into(), "now".into()],
            Label::Spam,
        );
        db.train(&["cheap".into(), "meeting".into()], Label::Ham);
        db.train(&["agenda".into(), "meeting".into()], Label::Ham);
        db
    }

    fn mmap_from(db: &TokenDb, opts: FilterOptions) -> MmapDb {
        MmapDb::from_bytes(ImageBytes::Owned(pack(db)), opts).unwrap()
    }

    #[test]
    fn counts_match_source_by_string() {
        let db = trained_db();
        let m = mmap_from(&db, FilterOptions::default());
        assert_eq!(m.n_spam(), db.n_spam());
        assert_eq!(m.n_ham(), db.n_ham());
        assert_eq!(m.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            let id = m.interner().get(&tok).unwrap();
            assert_eq!(m.counts_by_id(id), c, "token {tok:?}");
        }
    }

    #[test]
    fn scores_are_bit_identical_to_source() {
        let opts = FilterOptions::default();
        let db = trained_db();
        let m = mmap_from(&db, opts);
        let probe = ["cheap", "pills", "meeting", "unseen-token"];
        // Resolve each interner's own ids for the same strings.
        let db_ids: Vec<TokenId> = probe.iter().map(|t| db.interner().intern(t)).collect();
        let m_ids: Vec<TokenId> = probe.iter().map(|t| m.interner().intern(t)).collect();
        let want = score_token_ids(&db_ids, &db, &opts);
        let got = score_token_ids(&m_ids, &m, &opts);
        assert_eq!(got.score.to_bits(), want.score.to_bits());
        assert_eq!(got.verdict, want.verdict);
        assert_eq!(got.n_clues, want.n_clues);
    }

    /// Serving memoizes an image's scores through a tenant stack's
    /// [`ScoreMemo`](sb_filter::ScoreMemo); memoized reads (cold and
    /// repeated) equal the formula on the image's counts.
    #[test]
    fn cached_and_uncached_scores_agree() {
        let opts = FilterOptions::default();
        let db = trained_db();
        let m = mmap_from(&db, opts);
        let memo = sb_filter::ScoreMemo::with_capacity(m.interner().len());
        let layers: [&crate::OverlayLayer; 0] = [];
        let cached = crate::StackView::with_memo(&m, &layers, &memo);
        for (tok, _) in db.iter() {
            let id = m.interner().get(&tok).unwrap();
            let cold = token_score_from_counts(m.n_spam(), m.n_ham(), m.counts_by_id(id), &opts);
            assert_eq!(m.score_f(id, &opts).to_bits(), cold.to_bits());
            assert_eq!(cached.score_f(id, &opts).to_bits(), cold.to_bits());
            // Second read comes from the memo.
            assert_eq!(cached.score_f(id, &opts).to_bits(), cold.to_bits());
        }
    }

    #[test]
    fn ids_beyond_image_are_unseen() {
        let db = trained_db();
        let opts = FilterOptions::default();
        let m = mmap_from(&db, opts);
        let fresh = m.interner().intern("brand-new-token");
        assert_eq!(m.counts_by_id(fresh), TokenCounts::default());
        assert_eq!(m.score_f(fresh, &opts), opts.unknown_word_prob);
    }

    #[test]
    fn corrupt_bytes_surface_typed_errors() {
        let mut img = pack(&trained_db());
        let mid = img.len() / 2;
        img[mid] ^= 0x10;
        match MmapDb::from_bytes(ImageBytes::Owned(img), FilterOptions::default()) {
            Err(ServeError::Image(_)) => {}
            other => panic!("expected ServeError::Image, got {other:?}"),
        }
    }

    #[test]
    fn open_maps_a_real_file() {
        let db = trained_db();
        let path = std::env::temp_dir().join(format!("sb-serve-model-{}.img", std::process::id()));
        std::fs::write(&path, pack(&db)).unwrap();
        let m = MmapDb::open(&path, FilterOptions::default()).unwrap();
        assert_eq!(m.n_tokens(), db.n_tokens());
        drop(m);
        std::fs::remove_file(path).ok();
    }
}
