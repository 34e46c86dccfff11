//! `roni-screen`: RONI screening of pre-interned candidate batches.

use crate::setup::{Outcome, RunCtx};
use crate::trace::{Tracer, REQUEST};
use sb_core::{DictionaryAttack, DictionaryKind, RoniConfig, RoniDefense};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_filter::FilterOptions;
use sb_intern::{Interner, TokenId};
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;
use std::sync::Arc;
use std::time::Instant;

/// Clean pool the RONI trials sample from.
pub const POOL: usize = 1_000;
/// Ordinary (half ham, half spam) candidates per batch.
pub const ORDINARY: usize = 64;
/// Distinct batches, screened in turn.
pub const BATCHES: usize = 4;

/// `roni-screen`: `RoniDefense::screen_ids` over batches of ordinary mail
/// plus the seven `DictionaryKind::roni_variants()`. Every dictionary
/// candidate must be rejected, and a batch screened again must get the
/// same verdicts.
pub fn roni_screen(ctx: &mut RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = std::mem::replace(&mut ctx.tracer, Tracer::new(false));
    let seed = ctx.seed;
    let (corpus, roni) = out.set_up(&mut tr, |c, tr| {
        let corpus = c.step(tr, "corpus.generate", || {
            TrecCorpus::generate(&CorpusConfig::with_size(POOL, 0.5), seed)
        });
        let roni = c.step(tr, "core.roni.new", || {
            RoniDefense::new(
                RoniConfig::default(),
                corpus.dataset(),
                FilterOptions::default(),
                &mut Xoshiro256pp::new(seed),
            )
        });
        Ok::<_, String>((corpus, roni))
    })?;

    // Inputs, interned where RONI's own pool is: the global interner.
    let tokenizer = Tokenizer::new();
    let global = Interner::global();
    let dictionaries: Vec<Arc<Vec<TokenId>>> = DictionaryKind::roni_variants()
        .iter()
        .map(|&kind| {
            let attack = DictionaryAttack::new(kind);
            Arc::new(global.intern_set(&tokenizer.token_set(attack.prototype())))
        })
        .collect();
    let batches: Vec<Vec<Arc<Vec<TokenId>>>> = (0..BATCHES)
        .map(|b| {
            let mut batch: Vec<Arc<Vec<TokenId>>> = (0..ORDINARY)
                .map(|i| {
                    let k = (b * ORDINARY + i) as u64;
                    let email = if i % 2 == 0 {
                        corpus.fresh_ham(k)
                    } else {
                        corpus.fresh_spam(k)
                    };
                    Arc::new(global.intern_set(&tokenizer.token_set(&email)))
                })
                .collect();
            batch.extend(dictionaries.iter().cloned());
            batch
        })
        .collect();
    let tokens: usize = batches.iter().flatten().map(|c| c.len()).sum();
    let per_batch = ORDINARY + dictionaries.len();

    let mut first: Vec<Option<Vec<usize>>> = vec![None; BATCHES];
    let (mut rejected_dict, mut rejected_ord) = (0u64, 0u64);
    drop(corpus);
    let start = out.begin_measuring()?;
    let mut n = 0u64;
    while n < BATCHES as u64 || !ctx.done(start) {
        let b = (n % BATCHES as u64) as usize;
        out.meter.start(b);
        let c0 = Instant::now();
        tr.begin(REQUEST, n);
        let (_, rejected) = tr.span("core.roni.screen_ids", n, || roni.screen_ids(&batches[b]));
        tr.end();
        out.meter.call(c0.elapsed());
        out.meter.stop(per_batch as u64);
        out.tally.attempted += per_batch as u64;
        let dict = rejected.iter().filter(|&&i| i >= ORDINARY).count();
        rejected_dict += dict as u64;
        rejected_ord += (rejected.len() - dict) as u64;
        out.tally.check_failures += (dictionaries.len() - dict) as u64;
        match &first[b] {
            None => first[b] = Some(rejected),
            Some(want) => {
                let differ = want
                    .iter()
                    .filter(|i| !rejected.contains(i))
                    .chain(rejected.iter().filter(|i| !want.contains(i)))
                    .count();
                out.tally.check_failures += differ as u64;
            }
        }
        n += 1;
    }
    ctx.tracer = tr;

    out.work = out.tally.attempted;
    let dict_base = n * dictionaries.len() as u64;
    let ord_base = n * ORDINARY as u64;
    out.layer
        .push("core.roni.screen_ids.candidates", out.work as f64, "count");
    out.layer.push(
        "core.roni.screen_ids.tokens_per_candidate",
        tokens as f64 / (BATCHES * per_batch) as f64,
        "tokens",
    );
    out.layer.push(
        "core.roni.rejected_dictionary",
        rejected_dict as f64 / dict_base as f64,
        "ratio",
    );
    out.layer.push(
        "core.roni.rejected_ordinary",
        rejected_ord as f64 / ord_base as f64,
        "ratio",
    );
    let p50 = out.latency_p50_us();
    let tail = out.meter.calls.tail();
    out.named
        .push("roni_candidates_per_s", out.throughput(), "cand/s");
    out.named.push("batch_p50_ms", p50 / 1e3, "ms");
    out.named
        .push("batch_tail_ms", tail.map_or(0.0, |t| t.value / 1e3), "ms");
    out.named
        .push("batch_tail_pct", tail.map_or(0.0, |t| t.pct), "pct");
    out.named
        .push("batch_tail_n", tail.map_or(0, |t| t.n) as f64, "count");
    out.named
        .push("rejected_dictionary", rejected_dict as f64, "count");
    out.named
        .push("dictionary_candidates", dict_base as f64, "count");
    out.named
        .push("rejected_ordinary", rejected_ord as f64, "count");
    out.named
        .push("ordinary_candidates", ord_base as f64, "count");
    Ok(out)
}
