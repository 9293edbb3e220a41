//! The workloads and the legs they are made of.
//!
//! Every iteration of a workload runs the same application three ways on
//! identical seeded inputs:
//!
//! * a **native** leg on bare `mpisim` (the correctness oracle and the
//!   denominator of `overhead_x`);
//! * a **checkpoint** leg under MANA that ends in checkpoint-and-exit at a
//!   seeded step;
//! * a **restart** leg that rebuilds every rank from that checkpoint and
//!   runs to the end, taking resume-mode checkpoints on a seeded plan.
//!
//! The measured MANA path is the checkpoint leg plus the restart leg.

use crate::timed::{RankLog, TimedFace};
use mana_core::{AppOutcome, CkptRoundStats, ManaConfig, ManaRuntime, ManaStats, RunReport};
use mpisim::{CoopCfg, EngineKind, World, WorldCfg};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use workloads::gromacs::GromacsConfig;
use workloads::{gromacs, ManaFace, MpiFace, NativeFace, WlError, WlResult};

/// Run tokens of the coop engine: at most this many ranks run at once.
pub const RUN_TOKENS: usize = 2;

/// Upper-half key of the benchmark's seeded per-rank state slab.
const SLAB_KEY: &str = "bench_slab";

/// A workload's fixed shape; only the seeded inputs vary between runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// World size.
    pub ranks: usize,
    /// The GROMACS-like halo-exchange MD kernel the workload runs.
    pub md: GromacsConfig,
    /// Bytes of seeded state each rank keeps in its upper half.
    pub slab_bytes: usize,
    /// Checkpoint-and-exit lands after step `exit_step ± exit_jitter`.
    pub exit_step: u64,
    /// Half-width of the exit-step jitter.
    pub exit_jitter: u64,
    /// Restart-leg resume checkpoints every `every ± every/4` steps.
    pub resume_every: Option<u64>,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["md_ckpt", "cr_cycle"];

/// The shape of workload `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let md = |atoms: usize, steps: u64| GromacsConfig {
        atoms_per_rank: atoms,
        steps,
        compute_per_step: 2_000,
        energy_interval: 5,
        halo: 16,
        ckpt_at_step: None,
        ckpt_round: 0,
    };
    Some(match name {
        "md_ckpt" => Spec {
            name: "md_ckpt",
            ranks: 64,
            md: md(512, 400),
            slab_bytes: 64 * 1024,
            exit_step: 20,
            exit_jitter: 4,
            resume_every: Some(20),
        },
        "cr_cycle" => Spec {
            name: "cr_cycle",
            ranks: 256,
            md: md(512, 40),
            slab_bytes: 64 * 1024,
            exit_step: 20,
            exit_jitter: 5,
            resume_every: None,
        },
        _ => return None,
    })
}

/// splitmix64: the benchmark's only source of seeded inputs.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[base - half, base + half]`.
    pub fn jitter(&mut self, base: u64, half: u64) -> u64 {
        base - half + self.next() % (2 * half + 1)
    }
}

/// One iteration's seeded inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Coop run-queue seed.
    pub sched_seed: u64,
    /// Step after which the checkpoint leg checkpoints and exits.
    pub exit_step: u64,
    /// Steps after which the restart leg requests resume checkpoints.
    pub resume_plan: Vec<u64>,
}

impl Inputs {
    /// Inputs of iteration `iter` of `spec` under `seed`.
    pub fn derive(spec: &Spec, seed: u64, iter: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ iter.wrapping_mul(0xa076_1d64_78bd_642f));
        let sched_seed = rng.next();
        let exit_step = rng.jitter(spec.exit_step, spec.exit_jitter);
        let steps = spec.md.steps;
        let mut resume_plan = Vec::new();
        if let Some(every) = spec.resume_every {
            // Stop short of the end so no request reaches a finished world.
            let mut s = exit_step;
            loop {
                s += rng.jitter(every, every / 4);
                if s + every / 2 >= steps {
                    break;
                }
                resume_plan.push(s);
            }
        }
        Inputs {
            sched_seed,
            exit_step,
            resume_plan,
        }
    }
}

/// Each rank's seeded state slab (the same for every iteration of a run).
pub fn slabs(spec: &Spec, seed: u64) -> Vec<Vec<u8>> {
    (0..spec.ranks)
        .map(|r| {
            let mut rng = Rng::new(seed.rotate_left(17) ^ (r as u64 + 1));
            let mut v = Vec::with_capacity(spec.slab_bytes + 8);
            while v.len() < spec.slab_bytes {
                v.extend_from_slice(&rng.next().to_le_bytes());
            }
            v.truncate(spec.slab_bytes);
            v
        })
        .collect()
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one rank's application run produced: the kernel's result, bit
/// for bit, and a digest of its state slab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Kernel result fields as raw bits.
    pub result: Vec<u64>,
    /// FNV-1a of the state slab at the end.
    pub slab: u64,
}

/// The application: park the seeded slab in upper-half memory, run the
/// kernel (resuming from saved state after a restart), digest both.
fn app<M: MpiFace>(m: &mut M, md: &GromacsConfig, slab: &[u8]) -> WlResult<Digest> {
    if m.load(SLAB_KEY).is_none() {
        m.save(SLAB_KEY, slab.to_vec());
    }
    let r = gromacs::run(m, md)?;
    let result = vec![r.energy.to_bits(), r.checksum, r.steps_done];
    let slab = m
        .load(SLAB_KEY)
        .ok_or_else(|| WlError::State("state slab lost".into()))?;
    Ok(Digest {
        result,
        slab: fnv(&slab),
    })
}

/// How a MANA leg starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegKind {
    /// Fresh run ending in checkpoint-and-exit.
    Checkpoint,
    /// Restart from the newest committed generation, run to the end.
    Restart,
}

/// Program-reported facts about one MANA leg.
#[derive(Debug)]
pub struct ManaFacts {
    /// Committed rounds.
    pub rounds: Vec<CkptRoundStats>,
    /// Rounds that aborted instead of committing.
    pub aborted: usize,
    /// Per-rank MANA statistics.
    pub rank_stats: Vec<ManaStats>,
    /// fsync calls the store issued.
    pub fsyncs: u64,
}

/// One leg: a world run from `run_*` call to return.
#[derive(Debug)]
pub struct Leg {
    /// Just before the world was created.
    pub t0: Instant,
    /// Just after the run returned.
    pub returned: Instant,
    /// Per-rank wrapper records, in rank order.
    pub logs: Vec<RankLog>,
    /// Finished results, or `None` for a checkpoint-and-exit leg.
    pub digests: Option<Vec<Digest>>,
    /// `None` for the native leg.
    pub mana: Option<ManaFacts>,
}

impl Leg {
    /// Whole-leg wall time, seconds.
    pub fn wall(&self) -> f64 {
        (self.returned - self.t0).as_secs_f64()
    }

    /// `run_*` call until the last rank entered application code, seconds.
    pub fn setup(&self) -> f64 {
        let last = self.logs.iter().map(|l| l.entry).max().expect("ranks");
        (last - self.t0).as_secs_f64()
    }

    /// Last rank leaving application code until the run returned, seconds.
    pub fn teardown(&self) -> f64 {
        let last = self.logs.iter().map(|l| l.exit).max().expect("ranks");
        (self.returned - last).as_secs_f64()
    }
}

/// Where ranks deposit their wrapper records: a checkpoint-and-exit rank
/// never returns a value, so the record cannot ride the return path.
struct Sink(Vec<Mutex<Option<RankLog>>>);

impl Sink {
    fn new(n: usize) -> Sink {
        Sink((0..n).map(|_| Mutex::new(None)).collect())
    }

    fn put(&self, rank: usize, log: RankLog) {
        *self.0[rank].lock().expect("sink lock poisoned") = Some(log);
    }

    fn take(self) -> Result<Vec<RankLog>, String> {
        self.0
            .into_iter()
            .enumerate()
            .map(|(r, m)| {
                m.into_inner()
                    .expect("sink lock poisoned")
                    .ok_or_else(|| format!("rank {r} left no record"))
            })
            .collect()
    }
}

fn engine(sched_seed: u64) -> EngineKind {
    EngineKind::Coop(CoopCfg {
        workers: RUN_TOKENS,
        sched_seed,
    })
}

/// The configuration every MANA leg runs: the built-in default, with only
/// the store root and the exit-after-checkpoint mode set per leg.
pub fn mana_config(dir: &Path, exit_after_ckpt: bool) -> ManaConfig {
    ManaConfig {
        ckpt_dir: dir.to_path_buf(),
        exit_after_ckpt,
        ..ManaConfig::default()
    }
}

/// Run the application natively.
pub fn native_leg(
    spec: &Spec,
    inp: &Inputs,
    slabs: &[Vec<u8>],
    trace: bool,
) -> Result<Leg, String> {
    let sink = Sink::new(spec.ranks);
    let t0 = Instant::now();
    let world = World::new(
        spec.ranks,
        WorldCfg {
            engine: engine(inp.sched_seed),
            ..WorldCfg::default()
        },
    );
    let out = world
        .launch(|p| {
            let rank = p.rank();
            let mut f = TimedFace::new(NativeFace::new(p), trace, 0, &[]);
            let r = app(&mut f, &spec.md, &slabs[rank]);
            sink.put(rank, f.finish());
            r.map_err(|e| format!("rank {rank}: {e}"))
        })
        .map_err(|e| format!("native world: {e}"))?;
    let returned = Instant::now();
    let digests = out.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Leg {
        t0,
        returned,
        logs: sink.take()?,
        digests: Some(digests),
        mana: None,
    })
}

/// Run one MANA leg against the store under `dir`.
pub fn mana_leg(
    spec: &Spec,
    inp: &Inputs,
    slabs: &[Vec<u8>],
    dir: &Path,
    kind: LegKind,
    trace: bool,
) -> Result<Leg, String> {
    let (exit, step0, plan): (bool, u64, &[u64]) = match kind {
        LegKind::Checkpoint => (true, 0, std::slice::from_ref(&inp.exit_step)),
        LegKind::Restart => (false, inp.exit_step, &inp.resume_plan),
    };
    let rt =
        ManaRuntime::new(spec.ranks, mana_config(dir, exit)).with_engine(engine(inp.sched_seed));
    let sink = Sink::new(spec.ranks);
    let body = |m: &mut mana_core::Mana<'_>| {
        let rank = m.rank();
        let mut f = TimedFace::new(ManaFace::new(m), trace, step0, plan);
        let r = app(&mut f, &spec.md, &slabs[rank]);
        sink.put(rank, f.finish());
        r.map_err(WlError::into_mana)
    };
    let t0 = Instant::now();
    let report: RunReport<Digest> = match kind {
        LegKind::Restart => rt.run_restart(body),
        LegKind::Checkpoint => rt.run_fresh(body),
    }
    .map_err(|e| format!("{kind:?} leg: {e}"))?;
    let returned = Instant::now();
    if let Some(v) = report.coord.invariant_violations.first() {
        return Err(format!("{kind:?} leg: invariant violated: {v}"));
    }
    let digests = match kind {
        LegKind::Checkpoint if report.all_checkpointed() => None,
        LegKind::Checkpoint => return Err("checkpoint leg: not every rank checkpointed".into()),
        LegKind::Restart => {
            let v: Option<Vec<Digest>> = report
                .outcomes
                .iter()
                .cloned()
                .map(AppOutcome::finished)
                .collect();
            Some(v.ok_or_else(|| format!("{kind:?} leg: a rank did not finish"))?)
        }
    };
    let fsyncs = report
        .metrics
        .as_ref()
        .and_then(|s| s.value("mana2_store_fsyncs_total"))
        .unwrap_or(0);
    Ok(Leg {
        t0,
        returned,
        logs: sink.take()?,
        digests,
        mana: Some(ManaFacts {
            rounds: report.coord.rounds,
            aborted: report.coord.aborted_rounds.len(),
            rank_stats: report.rank_stats,
            fsyncs,
        }),
    })
}

/// One iteration's legs, in the order they ran.
#[derive(Debug)]
pub struct Iteration {
    /// Native oracle leg.
    pub native: Leg,
    /// Checkpoint-and-exit leg.
    pub ckpt: Leg,
    /// Restart leg.
    pub restart: Leg,
    /// Oracle mismatches found.
    pub mismatches: Vec<String>,
}

impl Iteration {
    /// The MANA legs, in the order they ran.
    pub fn mana_legs(&self) -> impl Iterator<Item = &Leg> {
        [&self.ckpt, &self.restart].into_iter()
    }

    /// Wall time of the measured MANA path, seconds.
    pub fn measured_wall(&self) -> f64 {
        self.ckpt.wall() + self.restart.wall()
    }
}

/// Run iteration `iter`: native and measured MANA path in alternating
/// order, then the oracle checks.
pub fn iteration(
    spec: &Spec,
    inp: &Inputs,
    slabs: &[Vec<u8>],
    dir: &Path,
    iter: u64,
    trace: bool,
) -> Result<Iteration, String> {
    let _ = std::fs::remove_dir_all(dir);
    let native_first = iter.is_multiple_of(2);
    let mut native = None;
    if native_first {
        native = Some(native_leg(spec, inp, slabs, trace)?);
    }
    let cr_dir = dir.join("cr");
    let ckpt = mana_leg(spec, inp, slabs, &cr_dir, LegKind::Checkpoint, trace)?;
    let restart = mana_leg(spec, inp, slabs, &cr_dir, LegKind::Restart, trace)?;
    let native = match native {
        Some(n) => n,
        None => native_leg(spec, inp, slabs, trace)?,
    };
    let mut mismatches = Vec::new();
    let want = native.digests.as_ref().expect("native legs finish");
    for (r, d) in want.iter().enumerate() {
        if d.slab != fnv(&slabs[r]) {
            mismatches.push(format!("native rank {r}: state slab changed"));
        }
    }
    let got = restart.digests.as_ref().expect("restart legs finish");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            mismatches.push(format!("restart rank {r}: {g:?} != native {w:?}"));
        }
    }
    Ok(Iteration {
        native,
        ckpt,
        restart,
        mismatches,
    })
}

/// Scratch root for one run's stores, inside the working directory.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}_{}", std::process::id()))
}
