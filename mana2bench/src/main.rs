//! `mana2bench`: the end-to-end checkpointing benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path mana2bench/Cargo.toml -- \
//!     --workload md_ckpt|cr_cycle --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs iterations of the chosen workload for at least `S` seconds against
//! the built-in default configuration and checks every result against a
//! native run. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! times calls into each layer from outside and prints per-layer metrics.
//! The last stdout line is one JSON object; see `README.md` beside this
//! package for every metric.

#![forbid(unsafe_code)]

mod layers;
mod report;
mod stats;
mod timed;
mod work;

use report::Metrics;
use std::time::{Duration, Instant};
use work::{Inputs, Iteration, Spec};

/// Hard ceiling on one invocation's measuring, well inside the 180 s a
/// run may take.
const MAX_MEASURE: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark measures the built-in default: refuse any environment
/// override the program or its test harnesses read.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MANA2_") || k.starts_with("CHAOS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the built-in default configuration",
            set.join(", ")
        ))
    }
}

/// The resolved configuration, printed beside every result.
fn config_line(spec: &Spec) -> String {
    let cfg = work::mana_config(std::path::Path::new("."), false);
    format!(
        "config: workload={} ranks={} drain={} store={} tpc={:?} engine=coop run_tokens={}",
        spec.name,
        spec.ranks,
        cfg.drain.name(),
        cfg.store.mode.name(),
        cfg.tpc,
        work::RUN_TOKENS
    )
}

/// Tally of attempted operations and failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn count(&mut self, it: &Iteration) {
        let rounds: u64 = it
            .mana_legs()
            .filter_map(|l| l.mana.as_ref())
            .map(|m| (m.rounds.len() + m.aborted) as u64)
            .sum();
        let aborted: u64 = it
            .mana_legs()
            .filter_map(|l| l.mana.as_ref())
            .map(|m| m.aborted as u64)
            .sum();
        // Three legs, the checkpoint rounds, and the restart's oracle check.
        self.attempted += 3 + rounds + 1;
        self.failed += aborted + it.mismatches.len() as u64;
        self.errors.extend(it.mismatches.iter().cloned());
        if aborted > 0 {
            self.errors
                .push(format!("{aborted} checkpoint round(s) aborted"));
        }
    }

    fn error(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(e);
    }
}

fn run(args: &Args, spec: &Spec) -> Result<(Metrics, Tally), String> {
    let dir = work::work_dir(spec.name);
    let slabs = work::slabs(spec, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    // One untimed iteration first, oracle-checked like the rest: thread
    // stacks, allocator arenas and the store directory are cold on the
    // first pass, and one cold sample skews a median of ~20.
    let warm = Inputs::derive(spec, args.seed, 0);
    match work::iteration(spec, &warm, &slabs, &dir, 0, false) {
        Ok(it) => tally.count(&it),
        Err(e) => tally.error(e),
    }
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    // Traced runs pair every traced iteration with an untraced one on the
    // same inputs: the pair's gap is the tracing overhead.
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut i = 0u64;
    // Measure for the budget, and on until the pooled checkpoint stalls
    // support their p99.
    let stalls = |iters: &[Iteration]| -> usize {
        iters
            .iter()
            .flat_map(|it| [&it.ckpt, &it.restart])
            .map(|l| l.logs.iter().map(|r| r.stalls.len()).sum::<usize>())
            .sum()
    };
    while tally.failed == 0
        && (start.elapsed() < budget || stalls(&iters) < stats::TAIL_SAMPLES)
        && start.elapsed() < MAX_MEASURE
    {
        let inp = Inputs::derive(spec, args.seed, i);
        let mut step = |trace: bool| -> bool {
            match work::iteration(spec, &inp, &slabs, &dir, i, trace) {
                Ok(it) => {
                    tally.count(&it);
                    let ok = it.mismatches.is_empty();
                    if trace || !args.trace {
                        iters.push(it);
                    } else {
                        untraced.push(it);
                    }
                    ok
                }
                Err(e) => {
                    tally.error(e);
                    false
                }
            }
        };
        if args.trace && !step(false) {
            break;
        }
        if !step(args.trace) {
            break;
        }
        i += 1;
    }
    let metrics = if tally.failed > 0 {
        Ok(Metrics::default())
    } else if args.trace {
        layers::per_layer(spec, &iters, &untraced, &dir)
    } else {
        report::end_to_end(spec, &iters)
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok((metrics?, tally))
}

fn main() {
    let args = match parse_args().and_then(|a| check_env().map(|_| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mana2bench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = work::spec(&args.workload) else {
        eprintln!(
            "mana2bench: unknown workload {:?} (expected one of {})",
            args.workload,
            work::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    println!("{}", config_line(&spec));
    let (metrics, tally) = match run(&args, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mana2bench: {e}");
            std::process::exit(1);
        }
    };
    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    let correct = tally.failed == 0;
    println!(
        "failed_frac = {} ratio ({} of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    metrics.print();
    println!(
        "{}",
        metrics.json(correct, tally.attempted.max(1), tally.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
