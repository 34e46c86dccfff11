//! Wire-to-verdict benchmark for the spam-filter workspace.
//!
//! Four workloads, each driven by one caller thread in a closed loop:
//! `wire-to-verdict`, `tenant-feedback`, `roni-screen` and `org-week`
//! (see `perfbench/README.md`). An untraced run reports the end-to-end
//! metrics; a traced run records a span around every call the benchmark
//! makes into a layer and reports the per-layer ledger.

pub mod ledger;
pub mod mem;
pub mod org;
pub mod report;
pub mod roni;
pub mod serving;
pub mod setup;
pub mod stats;
pub mod trace;

/// Workload names, in the order they are documented.
pub const WORKLOADS: [&str; 4] = [
    "wire-to-verdict",
    "tenant-feedback",
    "roni-screen",
    "org-week",
];

/// Run one workload by name.
pub fn run_workload(name: &str, ctx: &mut setup::RunCtx) -> Result<setup::Outcome, String> {
    match name {
        "wire-to-verdict" => serving::wire_to_verdict(ctx),
        "tenant-feedback" => serving::tenant_feedback(ctx),
        "roni-screen" => roni::roni_screen(ctx),
        "org-week" => org::org_week(ctx),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
