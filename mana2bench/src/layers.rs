//! Per-layer metrics of a traced run.
//!
//! Spans come from [`crate::timed::TimedFace`] (workload calls into
//! `mpisim` natively and into the MANA wrappers otherwise) and from the
//! leg boundaries around `ManaRuntime::run_*`. After the run, the store,
//! codec and chunker are timed directly on the run's own committed
//! generation. Numbers read from the program's report structs are marked
//! "program-reported" in their note.

use crate::report::Metrics;
use crate::stats::TAIL_SAMPLES;
use crate::timed::{Kind, RankLog};
use crate::work::{self, Iteration, Leg, Spec};
use splitproc::{chunk, crc32, store, CkptImage};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics of the original metric list that this run cannot time from
/// outside the program, with the reason.
const UNMEASURED: [(&str, &str); 1] = [(
    "core.coll.bcast_us_p50",
    "no workload broadcasts; core.coll.allreduce_us covers the collective layer",
)];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Durations (µs) of the calls `pick` selects, excluding checkpoint
/// stalls (a stalled call measures the checkpoint, not the call).
fn call_us<'a>(legs: impl Iterator<Item = &'a Leg>, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
    let mut out = Vec::new();
    for log in legs.flat_map(|l| &l.logs) {
        for s in log.spans.iter().filter(|s| pick(s.kind)) {
            if !log.stalls.iter().any(|st| st.start == s.start) {
                out.push(us(s.end - s.start));
            }
        }
    }
    out
}

/// Self-check: a rank's spans, recorded in call order on the rank's own
/// thread, are disjoint and lie inside its app time.
fn check_spans(log: &RankLog) -> Result<(), String> {
    let mut covered = Duration::ZERO;
    let mut prev_end = log.entry;
    for s in &log.spans {
        if s.start < prev_end || s.end < s.start {
            return Err(format!("overlapping span {:?}", s.kind));
        }
        covered += s.end - s.start;
        prev_end = s.end;
    }
    if prev_end > log.exit || covered > log.exit - log.entry {
        return Err("spans cover more than the rank's app time".into());
    }
    Ok(())
}

/// Program-reported per-rank-step rate of a counter over the measured legs.
fn per_rank_step(
    spec: &Spec,
    iters: &[Iteration],
    f: impl Fn(&mana_core::ManaStats) -> u64,
) -> Vec<f64> {
    let denom = (spec.ranks as u64 * spec.md.steps) as f64;
    iters
        .iter()
        .map(|it| {
            let total: u64 = it
                .mana_legs()
                .filter_map(|l| l.mana.as_ref())
                .flat_map(|m| &m.rank_stats)
                .map(&f)
                .sum();
            total as f64 / denom
        })
        .collect()
}

/// Throughput in MB/s of `f` over `bufs`: passes until `budget`, median.
fn mb_per_s(bufs: &[Vec<u8>], budget: Duration, f: impl Fn(&[u8])) -> Vec<f64> {
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for b in bufs {
            f(b);
        }
        rates.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    rates
}

/// Time the store, codec and chunk layers on the newest committed
/// generation under `root`.
fn splitproc_probe(spec: &Spec, root: &Path, m: &mut Metrics) -> Result<(), String> {
    let err = |e: store::StoreError| e.to_string();
    let mut select_ms = Vec::new();
    let mut selected = None;
    for _ in 0..9 {
        let t = Instant::now();
        let s = store::select_generation(root, Some(spec.ranks)).map_err(err)?;
        select_ms.push(t.elapsed().as_secs_f64() * 1e3);
        selected = Some(s);
    }
    let dir = selected.expect("selected at least once").dir;
    m.median("splitproc.store.select_generation_ms", &select_ms, "ms")?;

    let mut images: Vec<CkptImage> = Vec::with_capacity(spec.ranks);
    let mut load_us = Vec::new();
    for i in 0..TAIL_SAMPLES.max(spec.ranks) {
        let t = Instant::now();
        let img = store::load_image(&dir, i % spec.ranks).map_err(err)?;
        load_us.push(us(t.elapsed()));
        if images.len() < spec.ranks {
            images.push(img);
        }
    }
    m.median("splitproc.store.load_image_us_p50", &load_us, "us")?;
    m.pct("splitproc.store.load_image_us_p99", &load_us, 99.0, "us")?;

    let scratch = root.with_file_name("rewrite");
    let cfg = work::mana_config(root, false).store;
    let mut write_us = Vec::new();
    for i in 0..TAIL_SAMPLES {
        let t = Instant::now();
        store::write_image(&scratch, &images[i % images.len()], &cfg, None).map_err(err)?;
        write_us.push(us(t.elapsed()));
    }
    m.median("splitproc.store.write_image_us_p50", &write_us, "us")?;
    m.pct("splitproc.store.write_image_us_p99", &write_us, 99.0, "us")?;
    let _ = std::fs::remove_dir_all(&scratch);

    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut bufs = Vec::with_capacity(images.len());
    for img in &images {
        let t = Instant::now();
        let b = black_box(img.to_bytes());
        encode_us.push(us(t.elapsed()));
        let t = Instant::now();
        black_box(CkptImage::from_bytes(&b).map_err(|e| e.to_string())?);
        decode_us.push(us(t.elapsed()));
        bufs.push(b);
    }
    let budget = Duration::from_millis(200);
    let crc = mb_per_s(&bufs, budget, |b| {
        black_box(crc32(black_box(b)));
    });
    m.median("splitproc.codec.crc32_mb_per_s", &crc, "MB/s")?;
    m.median("splitproc.codec.image_encode_us_p50", &encode_us, "us")?;
    m.median("splitproc.codec.image_decode_us_p50", &decode_us, "us")?;
    let split = mb_per_s(&bufs, budget, |b| {
        black_box(chunk::split(black_box(b), cfg.chunk));
    });
    m.median("splitproc.chunk.split_mb_per_s", &split, "MB/s")?;
    let sha = mb_per_s(&bufs, budget, |b| {
        black_box(chunk::chunk_id(black_box(b)));
    });
    m.median("splitproc.chunk.sha256_mb_per_s", &sha, "MB/s")?;
    Ok(())
}

/// The per-layer metrics of a traced run. `traced[i]` and `untraced[i]`
/// ran on the same inputs.
pub fn per_layer(
    spec: &Spec,
    traced: &[Iteration],
    untraced: &[Iteration],
    root: &Path,
) -> Result<Metrics, String> {
    let mut checked = 0usize;
    for it in traced {
        for leg in std::iter::once(&it.native).chain(it.mana_legs()) {
            for (r, log) in leg.logs.iter().enumerate() {
                check_spans(log).map_err(|e| format!("trace self-check, rank {r}: {e}"))?;
                checked += 1;
            }
        }
    }
    println!("trace self-check: ok ({checked} rank-legs: spans disjoint, inside app time)");
    for (name, why) in UNMEASURED {
        println!("not timed from outside: {name}: {why}");
    }

    let mut m = Metrics::default();
    let natives = || traced.iter().map(|it| &it.native);
    let manas = || traced.iter().flat_map(Iteration::mana_legs);
    let facts = || manas().filter_map(|l| l.mana.as_ref());

    let p2p = call_us(natives(), Kind::is_p2p_post);
    m.median("mpisim.p2p_call_us_p50", &p2p, "us")?;
    m.pct("mpisim.p2p_call_us_p99", &p2p, 99.0, "us")?;
    let allreduce = call_us(natives(), |k| k == Kind::Allreduce);
    m.median("mpisim.allreduce_us_p50", &allreduce, "us")?;
    m.pct("mpisim.allreduce_us_p99", &allreduce, 99.0, "us")?;
    let spawn: Vec<f64> = natives().map(Leg::setup).collect();
    m.median("mpisim.spawn_s", &spawn, "s")?;

    let p2p = call_us(manas(), Kind::is_p2p_post);
    m.median("core.wrapper.p2p_call_us_p50", &p2p, "us")?;
    m.pct("core.wrapper.p2p_call_us_p99", &p2p, 99.0, "us")?;
    let calls = per_rank_step(spec, traced, |s| s.wrapper_calls);
    m.median("core.wrapper.calls_per_step", &calls, "calls")?;
    m.program_reported();

    let allreduce = call_us(manas(), |k| k == Kind::Allreduce);
    m.median("core.coll.allreduce_us_p50", &allreduce, "us")?;
    m.pct("core.coll.allreduce_us_p99", &allreduce, 99.0, "us")?;
    let emu = per_rank_step(spec, traced, |s| s.emu_collectives);
    m.median("core.coll.emu_per_step", &emu, "calls")?;
    m.program_reported();

    let rounds: Vec<&mana_core::CkptRoundStats> = facts().flat_map(|f| &f.rounds).collect();
    let n_rounds = rounds.len().max(1) as f64;
    let quiesce: Vec<f64> = rounds
        .iter()
        .map(|r| r.quiesce.as_secs_f64() * 1e3)
        .collect();
    m.median("core.coordinator.quiesce_ms_p50", &quiesce, "ms")?;
    m.program_reported();
    let msgs: Vec<f64> = rounds.iter().map(|r| r.coord_msgs as f64).collect();
    m.median("core.coordinator.msgs_per_round", &msgs, "msgs")?;
    m.program_reported();

    let stats = || facts().flat_map(|f| &f.rank_stats);
    let drained: u64 = stats().map(|s| s.drained_msgs).sum();
    m.push(
        "core.drain.msgs_per_round",
        drained as f64 / n_rounds,
        "msgs",
        "program-reported ManaStats, mean".into(),
    );
    let drained: u64 = stats().map(|s| s.drained_bytes).sum();
    m.push(
        "core.drain.bytes_per_round",
        drained as f64 / n_rounds,
        "B",
        "program-reported ManaStats, mean".into(),
    );
    let sweeps: u64 = stats()
        .flat_map(|s| &s.drain_sweeps_by_round)
        .map(|(_, n)| n)
        .sum();
    m.push(
        "core.drain.sweeps_per_round",
        sweeps as f64 / n_rounds / spec.ranks as f64,
        "sweeps",
        "program-reported ManaStats, mean per rank".into(),
    );

    let teardown: Vec<f64> = manas().map(Leg::teardown).collect();
    m.median("core.runtime.teardown_s", &teardown, "s")?;

    let write: Vec<f64> = rounds.iter().map(|r| r.write.as_secs_f64() * 1e3).collect();
    m.median("splitproc.store.write_leg_ms_p50", &write, "ms")?;
    m.program_reported();
    let fsyncs: u64 = facts().map(|f| f.fsyncs).sum();
    m.push(
        "splitproc.store.fsyncs_per_round",
        fsyncs as f64 / n_rounds,
        "fsyncs",
        "program-reported metrics, mean".into(),
    );
    splitproc_probe(spec, &root.join("cr"), &mut m)?;

    let overhead: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| 1.0 - u.measured_wall() / t.measured_wall())
        .collect();
    m.median("obs.trace_overhead_frac", &overhead, "ratio")?;
    Ok(m)
}
