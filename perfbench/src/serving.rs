//! The two serving workloads: `wire-to-verdict` and `tenant-feedback`.
//!
//! Both serve a packed, mmapped image of a 10k-message base model through
//! 8 tenants, each a 2-layer stack (a frozen org patch under a private
//! delta) — the shape `repro serve-bench` builds. Every verdict is checked
//! bit for bit against a standalone `TokenDb` trained in order on the
//! base, the org patch and the tenant's own mail.

use crate::setup::{Outcome, RunCtx, SetupClock};
use crate::trace::{Tracer, REQUEST};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::{parse_email, render_email, Label};
use sb_filter::image::{self, fnv1a64};
use sb_filter::{score_token_ids, FilterOptions, ImageView, Scored, TokenDb, Verdict};
use sb_intern::TokenId;
use sb_serve::{MmapDb, OverlayLayer, ServeError, TenantId, TenantRegistry};
use sb_tokenizer::Tokenizer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages trained into the shared base.
pub const BASE_MESSAGES: usize = 10_000;
/// Tenants served over the image.
pub const TENANTS: usize = 8;
/// Ham messages in the frozen org patch.
pub const ORG_MESSAGES: u64 = 32;
/// Messages trained into each tenant's private delta: the first of its
/// stored messages.
pub const TENANT_MESSAGES: usize = 40;
/// Messages each tenant has stored; `tenant-feedback` re-scores them all.
/// Enough that their mean size hardly changes from seed to seed.
pub const STORED: usize = 256;
/// Fresh messages per wire-to-verdict epoch.
pub const PROBES: usize = 3_000;
/// Feedback rounds per tenant in one tenant-feedback epoch (even, so the
/// epoch's trains and untrains cancel).
pub const ROUNDS: usize = 16;

/// Messages per timed chunk (see `setup::Meter`): a few milliseconds of
/// work, and `PROBES` is a whole number of chunks.
const CHUNK: usize = 50;
/// Operations per tenant-feedback chunk: one tenant's turn, its stored
/// set re-scored and one write (a few milliseconds of work).
const FEEDBACK_CHUNK: usize = STORED + 1;

/// Fresh-mail counter offsets, disjoint per use.
const TENANT_K0: u64 = 1_000_000;
const PROBE_K0: u64 = 2_000_000;

/// A verdict reduced to what the bit-identity check compares.
type Bits = (u64, Verdict);

fn bits(s: &Scored) -> Bits {
    (s.score.to_bits(), s.verdict)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The packed image on disk, removed when dropped.
struct ImageFile(PathBuf);

impl Drop for ImageFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What the serving stack is built from: the packed base and the mail
/// layered over it, as token sets.
struct Served {
    image: ImageFile,
    org: Vec<Vec<String>>,
    /// Each tenant's stored mail; the first `TENANT_MESSAGES` are trained
    /// into its delta.
    tenants: Vec<Vec<(Vec<String>, Label)>>,
}

/// The served inputs plus what only the harness needs: the corpus that
/// makes fresh mail and the trained base the standalone twins start from.
struct Base {
    corpus: TrecCorpus,
    db: TokenDb,
    served: Served,
}

fn build_base(
    ctx: &RunCtx,
    clock: &mut SetupClock,
    tr: &mut Tracer,
    name: &str,
    stored: usize,
) -> Result<Base, String> {
    let tokenizer = Tokenizer::new();
    let corpus = clock.step(tr, "corpus.generate", || {
        TrecCorpus::generate(&CorpusConfig::with_size(BASE_MESSAGES, 0.5), ctx.seed)
    });
    let db = clock.step(tr, "filter.train_base", || {
        let mut db = TokenDb::new();
        for m in corpus.emails() {
            db.train(&tokenizer.token_set(&m.email), m.label);
        }
        db
    });
    let bytes = clock.step(tr, "filter.image.pack", || image::pack(&db));
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = ctx
        .out_dir
        .join(format!("{name}-{}.img", std::process::id()));
    std::fs::write(&path, &bytes).map_err(|e| format!("write image: {e}"))?;
    let image = ImageFile(path);
    let org = (0..ORG_MESSAGES)
        .map(|k| tokenizer.token_set(&corpus.fresh_ham(k)))
        .collect();
    // Each tenant gets a third spam, rotated per tenant, so the stacks
    // (and so the verdicts) differ between tenants.
    let tenants = (0..TENANTS as u64)
        .map(|t| {
            (0..stored as u64)
                .map(|j| {
                    let k = TENANT_K0 + t * STORED as u64 + j;
                    if (j + t) % 3 == 0 {
                        (tokenizer.token_set(&corpus.fresh_spam(k)), Label::Spam)
                    } else {
                        (tokenizer.token_set(&corpus.fresh_ham(k)), Label::Ham)
                    }
                })
                .collect()
        })
        .collect();
    Ok(Base {
        corpus,
        db,
        served: Served {
            image,
            org,
            tenants,
        },
    })
}

/// Open the image and stack the org patch and every tenant's delta on
/// it; returns the registry and how long `MmapDb::open` took.
fn open_registry(
    served: &Served,
    tr: &mut Tracer,
    req: u64,
) -> Result<(TenantRegistry<MmapDb>, Duration), ServeError> {
    let opts = FilterOptions::default();
    let t0 = Instant::now();
    let db = tr.span("serve.open", req, || MmapDb::open(&served.image.0, opts))?;
    let open = t0.elapsed();
    let interner = db.interner().clone();
    let mut patch = OverlayLayer::new();
    for toks in &served.org {
        patch.train_ids(&interner.intern_set(toks), Label::Ham);
    }
    let registry = TenantRegistry::with_org_patch(Arc::new(db), patch, opts);
    for (t, mail) in served.tenants.iter().enumerate() {
        let id = TenantId(t as u32);
        registry.add_tenant(id)?;
        for (toks, label) in &mail[..TENANT_MESSAGES] {
            registry.train(id, &interner.intern_set(toks), *label)?;
        }
    }
    Ok((registry, open))
}

/// Build base and registry as one set-up, with `stored` messages per
/// tenant (at least `TENANT_MESSAGES`).
fn serving_setup(
    ctx: &RunCtx,
    clock: &mut SetupClock,
    tr: &mut Tracer,
    name: &str,
    stored: usize,
) -> Result<(Base, TenantRegistry<MmapDb>), String> {
    let base = build_base(ctx, clock, tr, name, stored)?;
    let (registry, open) = open_registry(&base.served, tr, 0).map_err(|e| e.to_string())?;
    clock.record("serve.open", ms(open));
    Ok((base, registry))
}

/// One standalone `TokenDb` per tenant: base, then org patch, then the
/// tenant's mail, trained in order.
fn standalone_dbs(base: &Base) -> Vec<TokenDb> {
    base.served
        .tenants
        .iter()
        .map(|mail| {
            let mut db = base.db.clone();
            for toks in &base.served.org {
                db.train(toks, Label::Ham);
            }
            for (toks, label) in &mail[..TENANT_MESSAGES] {
                db.train(toks, *label);
            }
            db
        })
        .collect()
}

/// Time the two halves of image validation on the file's bytes:
/// the checksum alone, then the full parse (checksum included).
fn probe_image(path: &Path, tr: &mut Tracer, req: u64) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read image: {e}"))?;
    std::hint::black_box(tr.span("filter.image.checksum", req, || fnv1a64(&bytes)));
    tr.span("filter.image.parse", req, || {
        ImageView::parse(&bytes).map(|_| ())
    })
    .map_err(|e| e.to_string())
}

/// `wire-to-verdict`: fresh RFC822 mail → `parse_email` →
/// `Tokenizer::token_set` → `Interner::intern_set` →
/// `TenantRegistry::classify_ids`, round-robin over the tenants.
///
/// Each epoch re-opens the image (a serving restart), so every epoch
/// starts from the same interner and meets the same fresh vocabulary.
pub fn wire_to_verdict(ctx: &mut RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = std::mem::replace(&mut ctx.tracer, Tracer::new(false));
    let (base, registry) = out.set_up(&mut tr, |c, tr| {
        serving_setup(ctx, c, tr, "wire-to-verdict", TENANT_MESSAGES)
    })?;
    let tokenizer = Tokenizer::new();
    let opts = FilterOptions::default();

    // Inputs: half ham, half spam, each tenant seeing both.
    let raw: Vec<String> = (0..PROBES)
        .map(|i| {
            let k = PROBE_K0 + i as u64;
            let email = if (i / TENANTS).is_multiple_of(2) {
                base.corpus.fresh_ham(k)
            } else {
                base.corpus.fresh_spam(k)
            };
            render_email(&email)
        })
        .collect();
    let expected: Vec<Bits> = {
        let dbs = standalone_dbs(&base);
        raw.iter()
            .enumerate()
            .map(|(i, r)| {
                let db = &dbs[i % TENANTS];
                let ids = db
                    .interner()
                    .intern_set(&tokenizer.token_set(&parse_email(r)));
                bits(&score_token_ids(&ids, db, &opts))
            })
            .collect()
    };
    let Base { corpus, db, served } = base;
    drop((corpus, db));

    let mut opens: Vec<f64> = Vec::new();
    let mut got: Vec<Option<Bits>> = vec![None; PROBES];
    let (mut tokens, mut new_ids) = (0u64, 0u64);
    let mut registry = Some(registry);
    let start = out.begin_measuring()?;
    let mut epoch = 0u64;
    while epoch == 0 || !ctx.done(start) {
        let registry = match registry.take() {
            Some(r) => r,
            None => {
                // A restart starts from a trimmed heap, as a new serving
                // process would, so the peak holds one registry.
                crate::mem::trim_heap();
                if tr.enabled() {
                    probe_image(&served.image.0, &mut tr, epoch)?;
                }
                let (r, open) =
                    open_registry(&served, &mut tr, epoch).map_err(|e| e.to_string())?;
                opens.push(ms(open));
                r
            }
        };
        let interner = registry.interner().clone();
        let len0 = interner.len();
        for (i, r) in raw.iter().enumerate() {
            if i % CHUNK == 0 {
                if i > 0 {
                    out.meter.stop_per_call();
                }
                out.meter.start(i / CHUNK);
            }
            let req = epoch * PROBES as u64 + i as u64;
            let c0 = Instant::now();
            tr.begin(REQUEST, req);
            let email = tr.span("email.parse", req, || parse_email(r));
            let toks = tr.span("tokenizer.token_set", req, || tokenizer.token_set(&email));
            let ids = tr.span("intern.intern_set", req, || interner.intern_set(&toks));
            let tenant = TenantId((i % TENANTS) as u32);
            let res = tr.span("serve.classify_ids", req, || {
                registry.classify_ids(tenant, &ids)
            });
            tokens += toks.len() as u64;
            drop((email, toks, ids));
            tr.end();
            out.meter.call(c0.elapsed());
            got[i] = res.ok().map(|s| bits(&s));
        }
        out.meter.stop_per_call();
        new_ids += (interner.len() - len0) as u64;
        if tr.enabled() {
            // The first classify per tenant follows its delta's training.
            out.classify_after_write
                .extend((0..PROBES).map(|i| i < TENANTS));
        }
        audit(&mut out, &got, &expected);
        epoch += 1;
    }
    ctx.tracer = tr;

    let msgs = out.tally.attempted;
    out.work = msgs;
    let lookups = tokens.max(1) as f64;
    out.layer.push(
        "tokenizer.token_set.tokens_per_msg",
        tokens as f64 / msgs.max(1) as f64,
        "tokens",
    );
    out.layer.push("intern.new_ids", new_ids as f64, "count");
    out.layer
        .push("intern.hit_ratio", 1.0 - new_ids as f64 / lookups, "ratio");
    let open_all: Vec<f64> = out.setup.steps["serve.open"]
        .iter()
        .chain(&opens)
        .copied()
        .collect();
    let p50 = out.latency_p50_us();
    let tail = out.meter.calls.tail();
    out.named.push("msgs_per_s", out.throughput(), "msg/s");
    out.named.push("verdict_p50_us", p50, "us");
    out.named
        .push("verdict_p99_us", tail.map_or(0.0, |t| t.value), "us");
    out.named
        .push("verdict_tail_pct", tail.map_or(0.0, |t| t.pct), "pct");
    out.named
        .push("verdict_tail_n", tail.map_or(0, |t| t.n) as f64, "count");
    out.named
        .push("model_open_ms", crate::stats::median(&open_all), "ms");
    out.named.push(
        "intern_new_ids_per_msg",
        new_ids as f64 / msgs.max(1) as f64,
        "count",
    );
    out.named.push("epochs", epoch as f64, "count");
    Ok(out)
}

/// Count each result against its expected bits: a missing result is a
/// typed error, a differing one a check failure.
fn audit(out: &mut Outcome, got: &[Option<Bits>], expected: &[Bits]) {
    for (g, e) in got.iter().zip(expected) {
        out.tally.attempted += 1;
        match g {
            None => out.tally.errors += 1,
            Some(g) if g != e => out.tally.check_failures += 1,
            Some(_) => {}
        }
    }
}

/// One tenant-feedback operation: tenant, stored-message index.
#[derive(Debug, Clone, Copy)]
enum Op {
    Classify(usize, usize),
    Train(usize, usize, Label),
    Untrain(usize, usize, Label),
}

/// One epoch's operations. Tenants take turns; each turn re-scores the
/// tenant's whole stored working set, then either reports one stored
/// message as spam (`train`) or takes that report back (`untrain`).
/// `ROUNDS` is even, so an epoch leaves every stack as it found it and
/// every epoch repeats the same verdicts.
fn feedback_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for r in 0..ROUNDS {
        for t in 0..TENANTS {
            ops.extend((0..STORED).map(|j| Op::Classify(t, j)));
            let j = (r / 2 * 7 + t) % STORED;
            ops.push(if r % 2 == 0 {
                Op::Train(t, j, Label::Spam)
            } else {
                Op::Untrain(t, j, Label::Spam)
            });
        }
    }
    ops
}

/// `tenant-feedback`: the tenants' stored, already interned mail is
/// re-scored between feedback `train` and correcting `untrain` calls.
pub fn tenant_feedback(ctx: &mut RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = std::mem::replace(&mut ctx.tracer, Tracer::new(false));
    let (base, registry) = out.set_up(&mut tr, |c, tr| {
        serving_setup(ctx, c, tr, "tenant-feedback", STORED)
    })?;
    let opts = FilterOptions::default();
    if tr.enabled() {
        for k in 0..5 {
            probe_image(&base.served.image.0, &mut tr, k)?;
        }
    }

    // Inputs: each stored message interned for the serving stack and for
    // its standalone twin.
    let serve_ids: Vec<Vec<Vec<TokenId>>> = base
        .served
        .tenants
        .iter()
        .map(|mail| {
            mail.iter()
                .map(|(toks, _)| registry.interner().intern_set(toks))
                .collect()
        })
        .collect();
    let mut dbs = standalone_dbs(&base);
    let solo_ids: Vec<Vec<Vec<TokenId>>> = base
        .served
        .tenants
        .iter()
        .map(|mail| {
            mail.iter()
                .map(|(toks, _)| base.db.interner().intern_set(toks))
                .collect()
        })
        .collect();
    let ops = feedback_ops();
    let mut expected: Vec<Bits> = Vec::new();
    for op in &ops {
        match *op {
            Op::Classify(t, j) => {
                expected.push(bits(&score_token_ids(&solo_ids[t][j], &dbs[t], &opts)))
            }
            Op::Train(t, j, l) => dbs[t].train_ids(&solo_ids[t][j], l),
            Op::Untrain(t, j, l) => dbs[t]
                .untrain_ids(&solo_ids[t][j], l)
                .map_err(|e| format!("standalone untrain: {e}"))?,
        }
    }
    // The registry keeps the image mapped; the rest is the harness's.
    let image = base.served.image;
    drop((
        dbs,
        solo_ids,
        base.corpus,
        base.db,
        base.served.org,
        base.served.tenants,
    ));

    let mut got: Vec<Option<Bits>> = vec![None; expected.len()];
    let mut dirty = [true; TENANTS];
    let start = out.begin_measuring()?;
    let mut epoch = 0u64;
    while epoch == 0 || !ctx.done(start) {
        let mut k = 0usize;
        let mut write_errors = 0u64;
        for (n, op) in ops.iter().enumerate() {
            if n % FEEDBACK_CHUNK == 0 {
                if n > 0 {
                    out.meter.stop_per_call();
                }
                out.meter.start(n / FEEDBACK_CHUNK);
            }
            let req = epoch * ops.len() as u64 + n as u64;
            let c0 = Instant::now();
            tr.begin(REQUEST, req);
            match *op {
                Op::Classify(t, j) => {
                    let res = tr.span("serve.classify_ids", req, || {
                        registry.classify_ids(TenantId(t as u32), &serve_ids[t][j])
                    });
                    got[k] = res.ok().map(|s| bits(&s));
                    k += 1;
                    if tr.enabled() {
                        out.classify_after_write.push(dirty[t]);
                    }
                    dirty[t] = false;
                }
                Op::Train(t, j, l) => {
                    let res = tr.span("serve.train", req, || {
                        registry.train(TenantId(t as u32), &serve_ids[t][j], l)
                    });
                    write_errors += u64::from(res.is_err());
                    dirty[t] = true;
                }
                Op::Untrain(t, j, l) => {
                    let res = tr.span("serve.untrain", req, || {
                        registry.untrain(TenantId(t as u32), &serve_ids[t][j], l)
                    });
                    write_errors += u64::from(res.is_err());
                    dirty[t] = true;
                }
            }
            tr.end();
            out.meter.call(c0.elapsed());
        }
        out.meter.stop_per_call();
        audit(&mut out, &got, &expected);
        let writes = (ops.len() - expected.len()) as u64;
        out.tally.attempted += writes;
        out.tally.errors += write_errors;
        epoch += 1;
    }
    ctx.tracer = tr;
    drop(image);

    out.work = out.tally.attempted;
    let p50 = out.latency_p50_us();
    let tail = out.meter.calls.tail();
    out.named
        .push("feedback_ops_per_s", out.throughput(), "op/s");
    out.named.push("feedback_p50_us", p50, "us");
    out.named
        .push("feedback_p99_us", tail.map_or(0.0, |t| t.value), "us");
    out.named
        .push("feedback_tail_pct", tail.map_or(0.0, |t| t.pct), "pct");
    out.named
        .push("feedback_tail_n", tail.map_or(0, |t| t.n) as f64, "count");
    out.named.push("epochs", epoch as f64, "count");
    Ok(out)
}
