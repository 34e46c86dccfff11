//! `org-week`: the organization simulator stepped a week at a time.

use crate::setup::{Outcome, RunCtx};
use crate::trace::{Tracer, REQUEST};
use sb_experiments::rig::{org_scale_source, Tier};
use sb_experiments::ScenarioSpec;
use sb_mailflow::{MailOrg, OrgConfig};
use std::time::Instant;

/// The rig's lite `org-scale` scenario (40 users, 160 ham + 160 spam a
/// day, a usenet-2000 dictionary campaign, weekly retraining over 14
/// days, no defense), re-seeded.
pub fn org_spec(seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::parse(&org_scale_source(Tier::Lite)).map_err(|e| e.to_string())?;
    spec.seed = seed;
    Ok(spec)
}

/// The organization configuration for `spec` with `shards` shards.
pub fn org_config(spec: &ScenarioSpec, shards: usize) -> Result<OrgConfig, String> {
    spec.org_config_with_shards(shards)
        .map_err(|e| e.to_string())
}

fn new_org(spec: &ScenarioSpec, shards: usize) -> Result<MailOrg, String> {
    MailOrg::try_new(org_config(spec, shards)?).map_err(|e| e.to_string())
}

/// `org-week`: `MailOrg::step_week` over fresh organizations until the
/// measuring phase ends. After each organization's last week,
/// delivered + failed + bounced + deferred must equal what was offered.
pub fn org_week(ctx: &mut RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = std::mem::replace(&mut ctx.tracer, Tracer::new(false));
    let shards = ctx.threads;
    let spec = org_spec(ctx.seed)?;
    let weeks_per_org = u64::from(spec.days.div_ceil(spec.retrain_every));
    let org = out.set_up(&mut tr, |c, tr| {
        let cfg = c.step(tr, "mailflow.config", || org_config(&spec, shards))?;
        c.step(tr, "mailflow.try_new", || MailOrg::try_new(cfg))
            .map_err(|e| e.to_string())
    })?;

    let (mut offered, mut accepted, mut bounced, mut deferred) = (0u64, 0u64, 0u64, 0u64);
    let mut org = Some(org);
    let mut week = 0u64;
    let start = out.begin_measuring()?;
    while week == 0 || !ctx.done(start) {
        let mut org = match org.take() {
            Some(o) => o,
            None => new_org(&spec, shards)?,
        };
        let mut org_offered = 0u64;
        for w in 0..weeks_per_org {
            out.meter.start(w as usize);
            let c0 = Instant::now();
            tr.begin(REQUEST, week);
            let step = tr.span("mailflow.step_week", week, || {
                org.step_week().map(|w| {
                    (
                        w.offered as u64,
                        w.accepted as u64,
                        w.bounced as u64,
                        w.deferred as u64,
                    )
                })
            });
            tr.end();
            out.meter.call(c0.elapsed());
            let (o, a, b, d) = step.ok_or("organization ran out of weeks early")?;
            out.meter.stop(o);
            org_offered += o;
            accepted += a;
            bounced += b;
            deferred += d;
            week += 1;
        }
        let report = org.into_report();
        let accounted = (report.total_delivered
            + report.total_failed
            + report.total_bounced
            + report.total_deferred) as u64;
        offered += org_offered;
        out.tally.attempted += org_offered;
        out.tally.check_failures += accounted.abs_diff(org_offered);
    }
    ctx.tracer = tr;

    out.work = offered;
    out.layer.push("mailflow.offered", offered as f64, "count");
    out.layer
        .push("mailflow.accepted", accepted as f64, "count");
    out.layer.push("mailflow.bounced", bounced as f64, "count");
    out.layer
        .push("mailflow.deferred", deferred as f64, "count");
    out.named.push("org_msgs_per_s", out.throughput(), "msg/s");
    out.named
        .push("week_p50_ms", out.latency_p50_us() / 1e3, "ms");
    out.named.push("weeks", week as f64, "count");
    Ok(out)
}
