//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload in this process and prints its metrics; the last
//! line of standard output is the JSON result. With `--trace 1` the
//! untraced twin runs first as a child process (same seed and length),
//! then this process runs the workload traced and reports the per-layer
//! ledger, writing the span file and self-time table under
//! `perfbench/out/`. Exits non-zero when an output check fails.

use perfbench::ledger::{end_to_end, per_layer, self_time_table};
use perfbench::report::{metric_from_comments, result_line, Metrics};
use perfbench::setup::RunCtx;
use perfbench::trace::{span_file, Tracer};
use perfbench::{run_workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Worker threads the program may use, capped by the host's CPUs. Fixed
/// rather than automatic so runs stay comparable. One: on a shared 2-vCPU
/// VM, `roni-screen` with two workers spread 0.22 (interquartile range
/// over median of `throughput_per_s`, five seeds) against 0.07 (four
/// seeds) with one.
const THREAD_PIN: usize = 1;

/// Where images, span files and ledgers are written, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_revision() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev;
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run the untraced twin and return its standard output.
fn untraced_twin(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("untraced run failed ({})", output.status));
    }
    Ok(stdout.into_owned())
}

fn write_trace_files(workload: &str, tracer: &Tracer, ledger: &str) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let spans = dir.join(format!("spans-{workload}.tsv"));
    std::fs::write(&spans, span_file(tracer.spans()))
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    let table = dir.join(format!("ledger-{workload}.txt"));
    std::fs::write(&table, ledger).map_err(|e| format!("write {}: {e}", table.display()))
}

fn comment(text: &str) -> String {
    text.lines().map(|l| format!("# {l}\n")).collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREAD_PIN.min(nproc);
    // Read once by the program's worker pools; set before any of them.
    std::env::set_var("SB_THREADS", threads.to_string());
    let twin = if args.trace {
        Some(untraced_twin(args)?)
    } else {
        None
    };
    let mut ctx = RunCtx {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        out_dir: PathBuf::from(OUT_DIR),
        threads,
    };
    let out = run_workload(&args.workload, &mut ctx)?;

    println!(
        "# perfbench {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads\": {threads}, \"git\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );
    let mut named = out.named.clone();
    named.push("mean_throughput_per_s", out.meter.mean_rate(), "op/s");
    named.push("failed_ratio", out.tally.failed_ratio(), "fraction");
    named.push("attempted", out.tally.attempted as f64, "count");
    print!("{}", comment(&named.table()));
    let metrics: Metrics = match twin {
        None => end_to_end(&out),
        Some(stdout) => {
            let line = stdout.lines().last().unwrap_or_default();
            let throughput = metric_from_comments(&stdout, "mean_throughput_per_s")
                .ok_or("untraced run reported no mean_throughput_per_s")?;
            let m = per_layer(&out, ctx.tracer.spans(), throughput);
            let table = self_time_table(&m);
            write_trace_files(&args.workload, &ctx.tracer, &table)?;
            print!("{}", comment(&table));
            print!("{}", comment(&format!("untraced: {line}")));
            m
        }
    };
    print!("{}", comment(&metrics.table()));
    println!("{}", result_line(&out.tally, &metrics));
    Ok(out.tally.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
