//! The centralized checkpoint coordinator (DMTCP-coordinator analog).
//!
//! The coordinator raises checkpoint *intent*, waits until every rank has
//! parked at a safe point (collecting each rank's in-collective status and
//! globally-unique communicator ID, §III-K), releases the drain, gathers
//! per-rank image sizes, and resumes or kills the job. It also carries the
//! side-channel traffic of the *legacy* drain algorithm (global totals,
//! §III-B baseline) so the ablation bench can measure how chatty it is.
//!
//! MANA-2.0's lesson §III-M — "additional communication by MANA should be
//! minimized … use MPI calls instead of the centralized coordinator" — is
//! visible in the message counters: with `DrainMode::Alltoall`, the
//! coordinator exchanges exactly 4 messages per rank per checkpoint
//! (Ready, Go, Done, Resume), while `DrainMode::Coordinator` adds rounds
//! of count reports.
//!
//! The protocol is the pure [`RoundMachine`]; this module is its thread
//! shell, one receive → `step` → perform loop over the channels, intent
//! flag, clock, store and instrumentation.

mod machine;

pub use machine::{Action, CoordError, CoordPhase, RoundMachine};

use crate::config::{debug_enabled, ManaConfig};
use crate::error::ManaError;
use mpisim::{ParkerRef, UnparkerRef, World};
use obs::metrics as met;
use splitproc::store;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rank → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RankMsg {
    /// Any rank may ask for a checkpoint (`dmtcp_command -c` analog).
    RequestCkpt,
    /// Parked at a safe point; reports whether the rank was inside a
    /// MANA-level collective and, if so, its globally-unique gid (§III-K).
    Ready {
        /// Reporting rank.
        rank: usize,
        /// gid of the collective the rank is parked inside, if any.
        in_collective: Option<u64>,
    },
    /// Legacy-drain round report: this rank's total sent/received bytes.
    DrainReport {
        /// Reporting rank.
        rank: usize,
        /// Total user bytes sent.
        sent: u64,
        /// Total user bytes received (including drained).
        recvd: u64,
    },
    /// Topological-sort drain (arXiv 2408.02218): this rank's per-peer
    /// sent/received rows, sent once per round; the coordinator answers
    /// with a [`CoordMsg::DrainSchedule`].
    DrainRows {
        /// Reporting rank.
        rank: usize,
        /// Bytes sent to each peer (world-rank indexed).
        sent: Vec<u64>,
        /// Bytes received from each peer (world-rank indexed).
        recvd: Vec<u64>,
    },
    /// Image durably written.
    CkptDone {
        /// Reporting rank.
        rank: usize,
        /// Bytes of the written rank file (flat image or chunked recipe),
        /// as recorded in the generation manifest.
        image_bytes: u64,
        /// CRC32 of the written rank file, as recorded in the manifest.
        image_crc: u32,
        /// Logical image payload bytes, the same under flat and chunked
        /// stores — what the round report sums.
        logical_bytes: u64,
    },
    /// Image write failed (even after bounded retries). The round cannot
    /// commit; the coordinator aborts the generation.
    CkptFailed {
        /// Reporting rank.
        rank: usize,
        /// What went wrong.
        reason: String,
    },
    /// The application wants to finish; the rank blocks until the
    /// coordinator acknowledges, so a concurrent round cannot lose it.
    Finishing {
        /// Reporting rank.
        rank: usize,
    },
}

/// Coordinator → rank messages (per-rank channels).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CoordMsg {
    /// All ranks parked; run the drain and write images.
    Go {
        /// Checkpoint round number.
        round: u64,
    },
    /// Legacy-drain verdict for the round just reported.
    DrainVerdict {
        /// True when global sent == received.
        balanced: bool,
    },
    /// Topological-sort drain schedule, answering [`RankMsg::DrainRows`].
    DrainSchedule {
        /// Exact bytes each peer sent this rank: it drains until its
        /// received counters meet this column.
        expected: Vec<u64>,
        /// This rank's position in the topological order.
        order: u32,
        /// Edges in the dependency graph (global, for observability).
        edges: u64,
        /// Whether the planner had to break a cycle.
        cyclic: bool,
    },
    /// Images written everywhere; continue executing.
    Resume,
    /// Images written everywhere; exit (checkpoint-and-kill).
    Exit,
    /// The round did not commit: every rank discards its partial image
    /// state and resumes; prior committed generations are untouched.
    AbortRound {
        /// The round that failed to commit.
        round: u64,
    },
    /// Acknowledge a `Finishing` rank: it may leave.
    FinishAck,
}

/// Statistics of one completed checkpoint round.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptRoundStats {
    /// Round number (0-based).
    pub round: u64,
    /// Wall time from intent to all-parked.
    pub quiesce: Duration,
    /// Wall time from Go to all images written.
    pub write: Duration,
    /// Sum of image sizes across ranks.
    pub total_image_bytes: u64,
    /// Distinct in-collective gids reported at park time.
    pub gids_in_flight: Vec<u64>,
    /// Coordinator messages exchanged during this round.
    pub coord_msgs: u64,
}

/// Handle held by each rank.
pub struct CoordHandle {
    rank: usize,
    intent: Arc<AtomicBool>,
    round: Arc<AtomicU64>,
    to_coord: Sender<RankMsg>,
    from_coord: Receiver<CoordMsg>,
    /// Fault plan delaying rank→coordinator messages; `sent_msgs` numbers
    /// them for it, and `rec`/`meter` record its firings.
    fault: Option<Arc<mpisim::FaultPlan>>,
    sent_msgs: AtomicU64,
    rec: Option<obs::Recorder>,
    meter: Option<met::Meter>,
    /// The rank's engine parker: every blocking point on the control
    /// channel (receive waits, injected stalls) parks through the engine
    /// — under the coop engine this releases the run token so other ranks
    /// make progress during a quiesce.
    parker: ParkerRef,
}

impl CoordHandle {
    /// Is checkpoint intent raised? (The hot-path check in every wrapper.)
    #[inline]
    pub fn intent(&self) -> bool {
        self.intent.load(Ordering::Acquire)
    }

    /// Current checkpoint round number.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Acquire)
    }

    /// My rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Block this rank for `d` of wall time without holding its run token:
    /// parks on the engine parker in a deadline loop (early wakes from
    /// banked unparks just re-park). Used for injected stalls
    /// (coordinator-channel delay, ready-stall) so fault injection cannot
    /// wedge the coop engine's worker pool.
    pub fn stall(&self, d: Duration) {
        let deadline = Instant::now() + d;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            self.parker.park(deadline - now);
        }
    }

    /// Send a message to the coordinator. Under a fault plan, a seeded
    /// subset of messages is delayed first — modelling a slow control
    /// network between a rank and the DMTCP-style coordinator, which
    /// widens the window between a rank parking and the coordinator
    /// noticing.
    pub fn send(&self, msg: RankMsg) -> crate::error::Result<()> {
        let next = || self.sent_msgs.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = (self.fault.as_ref()).and_then(|fp| fp.coord_delay(self.rank, next())) {
            if let Some(m) = &self.meter {
                m.add(met::FAULTS_FIRED, 1);
            }
            if let Some(r) = &self.rec {
                let fault = obs::FaultKind::CoordDelay;
                r.event(obs::NO_ROUND, obs::EventKind::FaultFired { fault });
            }
            self.stall(d);
        }
        self.to_coord
            .send(msg)
            .map_err(|_| ManaError::CoordinatorGone)
    }

    /// Blocking receive of the next coordinator message. The wait is
    /// event-driven: the coordinator unparks the rank after every message
    /// it sends, and the 50 ms cap is only a safety net.
    pub fn recv(&self) -> crate::error::Result<CoordMsg> {
        loop {
            match self.from_coord.try_recv() {
                Ok(m) => return Ok(m),
                Err(TryRecvError::Empty) => self.parker.park(Duration::from_millis(50)),
                Err(TryRecvError::Disconnected) => return Err(ManaError::CoordinatorGone),
            }
        }
    }

    /// Ask for a checkpoint.
    pub fn request_checkpoint(&self) -> crate::error::Result<()> {
        self.send(RankMsg::RequestCkpt)
    }
}

#[cfg(test)]
impl CoordHandle {
    /// A handle wired to bare channels, for rank-side protocol tests: the
    /// test reads what the rank sends and plays the coordinator's replies.
    pub(crate) fn bare(
        rank: usize,
        parker: ParkerRef,
    ) -> (Self, Receiver<RankMsg>, Sender<CoordMsg>) {
        let (to_coord, from_rank) = mpsc::channel();
        let (to_rank, from_coord) = mpsc::channel();
        let handle = CoordHandle {
            rank,
            intent: Arc::default(),
            round: Arc::default(),
            to_coord,
            from_coord,
            fault: None,
            sent_msgs: AtomicU64::new(0),
            rec: None,
            meter: None,
            parker,
        };
        (handle, from_rank, to_rank)
    }
}

/// External trigger for checkpoints (held by the driving test/benchmark).
#[derive(Clone)]
pub struct CkptTrigger {
    tx: Sender<RankMsg>,
}

impl CkptTrigger {
    /// Request a checkpoint round.
    pub fn checkpoint(&self) {
        let _ = self.tx.send(RankMsg::RequestCkpt);
    }
}

/// One checkpoint round that failed to commit and was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortedRound {
    /// The round that was aborted.
    pub round: u64,
    /// Per-rank failure reasons (usually one; coordinator-side manifest
    /// write failures are recorded under `usize::MAX`).
    pub failures: Vec<(usize, String)>,
}

/// Coordinator outcome after all ranks finished.
#[derive(Debug, Clone, Default)]
pub struct CoordReport {
    /// One entry per completed (committed) checkpoint round.
    pub rounds: Vec<CkptRoundStats>,
    /// Rounds that ended in `AbortRound` instead of committing.
    pub aborted_rounds: Vec<AbortedRound>,
    /// Checkpoint requests ignored because ranks had already finished.
    pub skipped_requests: u64,
    /// Commit-time invariant violations, one entry per failing round. A
    /// non-empty list means a checkpoint committed over a broken global
    /// state (e.g. user traffic still in flight after the drain); the
    /// runtime converts it into an error.
    pub invariant_violations: Vec<String>,
}

/// An in-round wait longer than this ends the coordinator with
/// [`CoordError::RoundTimeout`]. Waits outside a round never time out.
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);

/// Spawn the coordinator thread for `world`, configured from `cfg` (exit
/// mode, fault plan, store, trace sink, metrics). A restarted world passes
/// `first_round = restored_round + 1` so round numbers — and generation
/// directories — keep advancing across restarts. Every commit checks that
/// no user traffic is in flight.
///
/// Returns per-rank handles, the external trigger, and a join handle whose
/// result is the coordinator's report or the error that stopped it.
pub fn spawn_coordinator(
    cfg: &ManaConfig,
    world: &World,
    first_round: u64,
) -> (
    Vec<CoordHandle>,
    CkptTrigger,
    JoinHandle<Result<CoordReport, CoordError>>,
) {
    let (to_coord, from_ranks) = mpsc::channel();
    let intent = Arc::new(AtomicBool::new(false));
    let round = Arc::new(AtomicU64::new(first_round));
    let (handles, ports) = (world.unparkers().into_iter().enumerate())
        .map(|(rank, waker)| {
            let (tx, rx) = mpsc::channel();
            let handle = CoordHandle {
                rank,
                intent: intent.clone(),
                round: round.clone(),
                to_coord: to_coord.clone(),
                from_coord: rx,
                fault: cfg.fault.clone(),
                sent_msgs: AtomicU64::new(0),
                rec: cfg.trace.as_ref().map(|s| s.recorder(rank as i32)),
                meter: cfg.metrics.as_ref().map(|m| m.meter(rank as i32)),
                parker: world.parker(rank),
            };
            (handle, RankPort { tx, waker })
        })
        .unzip();
    let intro = world.introspect();
    let check = Box::new(move |round| match intro.user_in_flight() {
        (0, 0) => Ok(()),
        (msgs, bytes) => Err(format!(
            "round {round} committed with user traffic in flight: \
             {msgs} message(s) / {bytes} byte(s)"
        )),
    });
    let machine = RoundMachine::new(world.size(), cfg.exit_after_ckpt, first_round);
    let shell = Shell::new(cfg.clone(), ports, intent, round, check);
    let join = std::thread::Builder::new()
        .name("mana-coordinator".into())
        .spawn(move || shell.run(machine, from_ranks, ROUND_TIMEOUT))
        .expect("spawn coordinator");
    (handles, CkptTrigger { tx: to_coord }, join)
}

/// The coordinator's outbound port to one rank. Every send unparks the
/// rank, so one parked in [`CoordHandle::recv`] wakes promptly.
struct RankPort {
    tx: Sender<CoordMsg>,
    waker: UnparkerRef,
}

impl RankPort {
    fn send(&self, msg: CoordMsg) {
        let _ = self.tx.send(msg);
        self.waker.unpark();
    }
}

/// Commit-time global invariant check: given the round, describe the
/// violation if the committed global state is inconsistent.
type CommitCheck = Box<dyn Fn(u64) -> Result<(), String> + Send>;

const PHASES: usize = CoordPhase::Abort as usize + 1;

/// The coordinator's one instrumentation point: the coordinator-ring
/// trace span and the latency histogram of each phase.
fn instruments(phase: CoordPhase) -> (Option<obs::Phase>, Option<met::MetricId>) {
    match phase {
        CoordPhase::Round => (None, Some(met::ROUND_LATENCY_NS)),
        CoordPhase::Quiesce => (Some(obs::Phase::Intent), Some(met::ROUND_QUIESCE_NS)),
        CoordPhase::Write => (Some(obs::Phase::ImageWrite), Some(met::ROUND_WRITE_NS)),
        CoordPhase::FanIn => (None, Some(met::COORD_FANIN_NS)),
        CoordPhase::DrainPlan => (Some(obs::Phase::DrainPlan), None),
        CoordPhase::Commit => (Some(obs::Phase::Commit), Some(met::ROUND_COMMIT_NS)),
        CoordPhase::Abort => (Some(obs::Phase::AbortRound), None),
    }
}

/// The I/O half of the coordinator: performs the [`RoundMachine`]'s
/// actions against the channels, the shared intent flag, the clock, the
/// store and the instrumentation, and records what happened.
struct Shell {
    cfg: ManaConfig,
    ports: Vec<RankPort>,
    intent: Arc<AtomicBool>,
    round: Arc<AtomicU64>,
    check: CommitCheck,
    rec: Option<obs::Recorder>,
    meter: Option<met::Meter>,
    /// Per [`CoordPhase`]: when it last began and how long it last took.
    clock: [(Option<Instant>, Duration); PHASES],
    report: CoordReport,
}

impl Shell {
    fn new(
        cfg: ManaConfig,
        ports: Vec<RankPort>,
        intent: Arc<AtomicBool>,
        round: Arc<AtomicU64>,
        check: CommitCheck,
    ) -> Self {
        Shell {
            rec: cfg.trace.as_ref().map(|s| s.recorder(obs::COORD_ACTOR)),
            meter: cfg.metrics.as_ref().map(|m| m.meter(obs::COORD_ACTOR)),
            cfg,
            ports,
            intent,
            round,
            check,
            clock: [(None, Duration::ZERO); PHASES],
            report: CoordReport::default(),
        }
    }

    /// Receive → step → perform until every rank has finished. A wait
    /// inside a round that outlasts `deadline` is a
    /// [`CoordError::RoundTimeout`]; an idle wait has no deadline.
    fn run(
        mut self,
        mut machine: RoundMachine,
        rx: Receiver<RankMsg>,
        deadline: Duration,
    ) -> Result<CoordReport, CoordError> {
        'run: loop {
            let got = if machine.in_round() {
                rx.recv_timeout(deadline)
            } else {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            let msg = match got {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => return Err(machine.timeout()),
                // Every sender is gone: the ranks ended (or failed)
                // without a goodbye, so nobody is left to coordinate.
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let mut todo = VecDeque::from(machine.step(msg)?);
            while let Some(action) = todo.pop_front() {
                match action {
                    Action::Commit(manifest) => {
                        let outcome = self.commit(&manifest);
                        todo.extend(machine.committed(outcome));
                    }
                    Action::Finish => break 'run,
                    other => self.perform(other),
                }
            }
        }
        self.report.skipped_requests = machine.skipped_requests();
        Ok(self.report)
    }

    fn perform(&mut self, action: Action) {
        match action {
            Action::RaiseIntent => {
                if debug_enabled() {
                    let round = self.round.load(Ordering::Acquire);
                    eprintln!("mana2: coordinator starting round {round}");
                }
                self.intent.store(true, Ordering::Release);
                // Kick every rank: one parked between wrapper calls would
                // otherwise notice the intent only when its park times out.
                self.ports.iter().for_each(|p| p.waker.unpark());
            }
            Action::DropIntent { next_round } => {
                self.intent.store(false, Ordering::Release);
                self.round.store(next_round, Ordering::Release);
            }
            Action::Send(rank, msg) => self.ports[rank].send(msg),
            Action::Broadcast(msg) => self.ports.iter().for_each(|p| p.send(msg.clone())),
            Action::Begin(round, phase) => {
                if let (Some(r), (Some(span), _)) = (&self.rec, instruments(phase)) {
                    r.begin(round as i64, span);
                }
                self.clock[phase as usize].0 = Some(Instant::now());
            }
            Action::End(round, phase) => {
                let (began, took) = &mut self.clock[phase as usize];
                *took = began.take().map_or(Duration::ZERO, |t| t.elapsed());
                let (span, hist) = instruments(phase);
                if let (Some(r), Some(span)) = (&self.rec, span) {
                    r.end(round as i64, span);
                }
                if let (Some(m), Some(hist)) = (&self.meter, hist) {
                    m.observe(hist, took.as_nanos() as u64);
                }
            }
            Action::Count(id, delta) => self.count(id, delta),
            Action::Abort(aborted) => {
                let _ = store::abort_generation(&self.cfg.ckpt_dir, aborted.round);
                if debug_enabled() {
                    let AbortedRound { round, failures } = &aborted;
                    eprintln!("mana2: coordinator aborted round {round}: {failures:?}");
                }
                self.report.aborted_rounds.push(aborted);
            }
            Action::Record(mut stats) => {
                stats.quiesce = self.clock[CoordPhase::Quiesce as usize].1;
                stats.write = self.clock[CoordPhase::Write as usize].1;
                self.report.rounds.push(stats);
            }
            Action::Gc => self.gc(),
            a @ (Action::Commit(_) | Action::Finish) => unreachable!("run() performs {a:?}"),
        }
    }

    fn count(&self, id: met::MetricId, delta: u64) {
        if let Some(m) = &self.meter {
            m.add(id, delta);
        }
    }

    /// Durably write the manifest; only once it landed, run the invariant
    /// check — the one instant the quiesced global state is observable.
    fn commit(&mut self, manifest: &store::Manifest) -> Result<(), String> {
        let (root, round) = (&self.cfg.ckpt_dir, manifest.round);
        store::commit_generation(root, manifest, &self.cfg.store).map_err(|e| e.to_string())?;
        if let Err(v) = (self.check)(round) {
            self.report
                .invariant_violations
                .push(format!("round {round}: {v}"));
        }
        Ok(())
    }

    /// Sweep generations beyond the retention window, then the chunks only
    /// they referenced. Best-effort: GC failure must not fail the job.
    /// Generations pinned by an open restart-journal epoch survive, so
    /// their chunks stay referenced; and no image write can run
    /// concurrently, because the next round needs this thread to raise
    /// intent first.
    fn gc(&self) {
        let root = &self.cfg.ckpt_dir;
        if let Ok(collected) = store::gc_generations(root, self.cfg.retain_generations) {
            self.count(met::STORE_GC_GENERATIONS, collected.len() as u64);
        }
        if self.cfg.store.mode == splitproc::StoreMode::Chunked {
            if let Ok(swept) = store::gc_chunks(root) {
                self.count(met::STORE_GC_CHUNKS, swept.removed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `msgs` to the machine, answering every commit with `commit`.
    fn drive(m: &mut RoundMachine, msgs: Vec<RankMsg>, commit: Result<(), String>) -> Vec<Action> {
        let mut out = Vec::new();
        for msg in msgs {
            for a in m.step(msg).expect("legal message") {
                if matches!(a, Action::Commit(_)) {
                    out.push(a);
                    out.extend(m.committed(commit.clone()));
                } else {
                    out.push(a);
                }
            }
        }
        out
    }

    fn ready(n: usize) -> Vec<RankMsg> {
        (0..n)
            .map(|rank| RankMsg::Ready {
                rank,
                in_collective: (rank % 2 == 0).then_some(42),
            })
            .collect()
    }

    fn done(n: usize, bytes: u64) -> Vec<RankMsg> {
        (0..n)
            .map(|rank| RankMsg::CkptDone {
                rank,
                image_bytes: bytes,
                image_crc: 0,
                logical_bytes: bytes,
            })
            .collect()
    }

    fn finishing(n: usize) -> Vec<RankMsg> {
        (0..n).map(|rank| RankMsg::Finishing { rank }).collect()
    }

    fn broadcasts(actions: &[Action]) -> Vec<CoordMsg> {
        (actions.iter())
            .filter_map(|a| match a {
                Action::Broadcast(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    fn records(actions: &[Action]) -> Vec<CkptRoundStats> {
        (actions.iter())
            .filter_map(|a| match a {
                Action::Record(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    fn aborts(actions: &[Action]) -> Vec<AbortedRound> {
        (actions.iter())
            .filter_map(|a| match a {
                Action::Abort(ab) => Some(ab.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn finishing_without_checkpoints() {
        let mut m = RoundMachine::new(3, false, 0);
        let out = drive(&mut m, finishing(3), Ok(()));
        let acks = (0..3).map(|r| Action::Send(r, CoordMsg::FinishAck));
        assert_eq!(out, acks.chain([Action::Finish]).collect::<Vec<_>>());
    }

    #[test]
    fn one_full_round_resume() {
        let n = 4;
        let mut m = RoundMachine::new(n, false, 0);
        let out = drive(&mut m, vec![RankMsg::RequestCkpt], Ok(()));
        assert_eq!(out.last(), Some(&Action::RaiseIntent));
        assert!(m.in_round());
        let out = drive(&mut m, ready(n), Ok(()));
        assert_eq!(broadcasts(&out), vec![CoordMsg::Go { round: 0 }]);
        let out = drive(&mut m, done(n, 100), Ok(()));
        // Intent drops (and the round counter advances) before Resume.
        let drop_at = out
            .iter()
            .position(|a| *a == Action::DropIntent { next_round: 1 });
        let resume_at = out
            .iter()
            .position(|a| *a == Action::Broadcast(CoordMsg::Resume));
        assert!(drop_at.unwrap() < resume_at.unwrap());
        assert!(out.contains(&Action::Gc));
        let stats = records(&out);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].total_image_bytes, 400);
        assert_eq!(stats[0].gids_in_flight, vec![42]);
        // Ready, Go, Done and Resume: four messages per rank.
        assert_eq!(stats[0].coord_msgs, 4 * n as u64);
        assert!(!m.in_round());
        let out = drive(&mut m, finishing(n), Ok(()));
        assert_eq!(out.last(), Some(&Action::Finish));
    }

    #[test]
    fn commit_asks_for_the_manifest_of_every_rank() {
        let mut m = RoundMachine::new(2, false, 7);
        let msgs = [vec![RankMsg::RequestCkpt], ready(2), done(2, 9)].concat();
        let out = drive(&mut m, msgs, Ok(()));
        let manifest = out.iter().find_map(|a| match a {
            Action::Commit(man) => Some(man.clone()),
            _ => None,
        });
        let manifest = manifest.expect("commit requested");
        assert_eq!((manifest.round, manifest.world_size), (7, 2));
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[1].rank, 1);
    }

    #[test]
    fn exit_after_ckpt_sends_exit_and_skips_later_requests() {
        let mut m = RoundMachine::new(2, true, 0);
        let msgs = [vec![RankMsg::RequestCkpt], ready(2), done(2, 10)].concat();
        let out = drive(&mut m, msgs, Ok(()));
        assert_eq!(broadcasts(&out).last(), Some(&CoordMsg::Exit));
        assert!(drive(&mut m, vec![RankMsg::RequestCkpt], Ok(())).is_empty());
        assert_eq!(m.skipped_requests(), 1);
        // Exiting ranks still announce Finishing so the coordinator can
        // wind down.
        let out = drive(&mut m, finishing(2), Ok(()));
        assert_eq!(out.last(), Some(&Action::Finish));
    }

    #[test]
    fn finishing_during_quiesce_counts_as_ready() {
        let mut m = RoundMachine::new(2, false, 0);
        let msgs = vec![
            RankMsg::RequestCkpt,
            RankMsg::Finishing { rank: 0 },
            RankMsg::Ready {
                rank: 1,
                in_collective: None,
            },
        ];
        let out = drive(&mut m, msgs, Ok(()));
        assert_eq!(broadcasts(&out), vec![CoordMsg::Go { round: 0 }]);
    }

    #[test]
    fn concurrent_requests_coalesce_into_the_running_round() {
        let mut m = RoundMachine::new(1, false, 0);
        let msgs = vec![RankMsg::RequestCkpt, RankMsg::RequestCkpt];
        let out = drive(&mut m, msgs, Ok(()));
        assert_eq!(out.iter().filter(|a| **a == Action::RaiseIntent).count(), 1);
        assert_eq!(m.skipped_requests(), 1);
    }

    #[test]
    fn legacy_drain_rounds_answered() {
        let mut m = RoundMachine::new(2, false, 0);
        drive(
            &mut m,
            [vec![RankMsg::RequestCkpt], ready(2)].concat(),
            Ok(()),
        );
        let report = |rank, sent, recvd| RankMsg::DrainReport { rank, sent, recvd };
        // Exchange 1: unbalanced (rank 0 sent 10, nobody received).
        let out = drive(&mut m, vec![report(0, 10, 0), report(1, 0, 0)], Ok(()));
        assert_eq!(
            broadcasts(&out),
            vec![CoordMsg::DrainVerdict { balanced: false }]
        );
        // Exchange 2: balanced.
        let out = drive(&mut m, vec![report(0, 10, 0), report(1, 0, 10)], Ok(()));
        assert_eq!(
            broadcasts(&out),
            vec![CoordMsg::DrainVerdict { balanced: true }]
        );
        let stats = records(&drive(&mut m, done(2, 1), Ok(())));
        // 2 reports + 2 verdicts per exchange on top of the base four per
        // rank.
        assert_eq!(stats[0].coord_msgs, 4 * 2 + 2 * (2 + 2));
    }

    #[test]
    fn toposort_rows_answered_with_exact_columns() {
        let n = 2;
        let mut m = RoundMachine::new(n, false, 0);
        drive(
            &mut m,
            [vec![RankMsg::RequestCkpt], ready(n)].concat(),
            Ok(()),
        );
        let rows = |rank, sent| RankMsg::DrainRows {
            rank,
            sent,
            recvd: vec![0, 0],
        };
        let out = drive(
            &mut m,
            vec![rows(0, vec![0, 10]), rows(1, vec![0, 0])],
            Ok(()),
        );
        let sends: Vec<usize> = (out.iter())
            .filter_map(|a| match a {
                Action::Send(r, CoordMsg::DrainSchedule { .. }) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![0, 1]);
        assert!(out.contains(&Action::Begin(0, CoordPhase::DrainPlan)));
        assert!(out.contains(&Action::Count(met::DRAIN_TOPO_EDGES, 1)));
        let stats = records(&drive(&mut m, done(n, 1), Ok(())));
        // Topo drain costs exactly 2 extra messages per rank.
        assert_eq!(stats[0].coord_msgs, 6 * n as u64);
    }

    #[test]
    fn ckpt_failed_aborts_round_even_in_exit_mode() {
        let n = 3;
        // A failed round must NOT exit: the job resumes and may
        // checkpoint again later.
        let mut m = RoundMachine::new(n, true, 0);
        let mut msgs = [vec![RankMsg::RequestCkpt], ready(n), done(n, 10)].concat();
        msgs[n + 2] = RankMsg::CkptFailed {
            rank: 1,
            reason: "injected storage write error".into(),
        };
        let out = drive(&mut m, msgs, Ok(()));
        assert!(!out.iter().any(|a| matches!(a, Action::Commit(_))));
        assert_eq!(
            broadcasts(&out).last(),
            Some(&CoordMsg::AbortRound { round: 0 })
        );
        assert!(out.contains(&Action::DropIntent { next_round: 1 }));
        let ab = aborts(&out);
        assert_eq!((ab[0].round, ab[0].failures[0].0), (0, 1));
        assert!(records(&out).is_empty());
        // The job goes on: the next request starts round 1.
        let out = drive(&mut m, vec![RankMsg::RequestCkpt], Ok(()));
        assert!(out.contains(&Action::Begin(1, CoordPhase::Quiesce)));
    }

    #[test]
    fn manifest_failure_aborts_round() {
        let mut m = RoundMachine::new(2, false, 0);
        let msgs = [vec![RankMsg::RequestCkpt], ready(2), done(2, 1)].concat();
        let out = drive(&mut m, msgs, Err("disk full".into()));
        assert_eq!(
            broadcasts(&out).last(),
            Some(&CoordMsg::AbortRound { round: 0 })
        );
        let ab = aborts(&out);
        assert_eq!(ab[0].failures[0].0, usize::MAX);
        assert!(ab[0].failures[0].1.contains("disk full"));
    }

    #[test]
    fn request_after_finish_is_skipped() {
        let mut m = RoundMachine::new(2, false, 0);
        drive(&mut m, vec![RankMsg::Finishing { rank: 0 }], Ok(()));
        assert!(drive(&mut m, vec![RankMsg::RequestCkpt], Ok(())).is_empty());
        assert_eq!(m.skipped_requests(), 1);
    }

    #[test]
    fn protocol_breaches_are_typed_errors() {
        let mut m = RoundMachine::new(2, false, 0);
        let stray = m.step(done(1, 1).remove(0));
        assert!(matches!(stray, Err(CoordError::Stray(_))), "{stray:?}");

        let mut m = RoundMachine::new(2, false, 0);
        drive(&mut m, vec![RankMsg::RequestCkpt], Ok(()));
        drive(&mut m, ready(1), Ok(()));
        let twice = m.step(ready(1).remove(0));
        assert!(matches!(twice, Err(CoordError::Protocol(s)) if s.starts_with("round 0")));

        let mut m = RoundMachine::new(2, false, 0);
        drive(
            &mut m,
            [vec![RankMsg::RequestCkpt], ready(2)].concat(),
            Ok(()),
        );
        drive(&mut m, done(1, 1), Ok(()));
        let dup = m.step(done(1, 1).remove(0));
        assert_eq!(dup, Err(CoordError::DuplicateDone { round: 0, rank: 0 }));
        let early = m.step(RankMsg::Finishing { rank: 1 });
        assert!(matches!(early, Err(CoordError::Protocol(_))));
        let alien = m.step(RankMsg::CkptFailed {
            rank: 9,
            reason: String::new(),
        });
        assert!(matches!(alien, Err(CoordError::Protocol(_))));
    }

    #[test]
    fn timeout_names_the_missing_ranks() {
        let mut m = RoundMachine::new(3, false, 4);
        drive(&mut m, vec![RankMsg::RequestCkpt], Ok(()));
        drive(&mut m, vec![ready(3).remove(2)], Ok(()));
        let want = |phase, missing_ranks| CoordError::RoundTimeout {
            round: 4,
            phase,
            missing_ranks,
        };
        assert_eq!(m.timeout(), want("quiesce", vec![0, 1]));
        drive(&mut m, ready(2), Ok(()));
        drive(&mut m, vec![done(2, 1).remove(1)], Ok(()));
        assert_eq!(m.timeout(), want("write", vec![0, 2]));
    }

    /// A shell on its own thread for `n` ranks, storing into `dir`: the
    /// coordinator's inbox, each rank's receiver, and the join handle.
    #[allow(clippy::type_complexity)]
    fn bare_shell(
        n: usize,
        dir: &std::path::Path,
        deadline: Duration,
        check: CommitCheck,
    ) -> (
        Sender<RankMsg>,
        Vec<Receiver<CoordMsg>>,
        JoinHandle<Result<CoordReport, CoordError>>,
    ) {
        let (tx, rx) = mpsc::channel();
        let world = World::new(n, mpisim::WorldCfg::default());
        let (ports, rxs): (Vec<_>, Vec<_>) = (world.unparkers().into_iter())
            .map(|waker| {
                let (tx, rx) = mpsc::channel();
                (RankPort { tx, waker }, rx)
            })
            .unzip();
        let cfg = ManaConfig {
            ckpt_dir: dir.to_path_buf(),
            ..ManaConfig::default()
        };
        let shell = Shell::new(cfg, ports, Arc::default(), Arc::default(), check);
        let machine = RoundMachine::new(n, false, 0);
        let join = std::thread::spawn(move || shell.run(machine, rx, deadline));
        (tx, rxs, join)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mana2_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Run one full round and the goodbye through a bare shell.
    fn full_round(tx: &Sender<RankMsg>, rxs: &[Receiver<CoordMsg>], images: &[(u64, u32)]) {
        tx.send(RankMsg::RequestCkpt).unwrap();
        for msg in ready(rxs.len()) {
            tx.send(msg).unwrap();
        }
        for (rank, rx) in rxs.iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), CoordMsg::Go { round: 0 });
            let (bytes, crc) = images[rank];
            tx.send(RankMsg::CkptDone {
                rank,
                image_bytes: bytes,
                image_crc: crc,
                logical_bytes: bytes,
            })
            .unwrap();
        }
        for (rank, rx) in rxs.iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), CoordMsg::Resume);
            tx.send(RankMsg::Finishing { rank }).unwrap();
            assert_eq!(rx.recv().unwrap(), CoordMsg::FinishAck);
        }
    }

    #[test]
    fn idle_gap_longer_than_the_round_deadline_is_not_a_timeout() {
        let deadline = Duration::from_millis(20);
        let dir = scratch("coord_idle_gap");
        let (tx, rxs, join) = bare_shell(2, &dir, deadline, Box::new(|_| Ok(())));
        // Silence well past the deadline outside any round: the old loop
        // quit here and lost every later Finishing.
        std::thread::sleep(deadline * 5);
        full_round(&tx, &rxs, &[(1, 0), (1, 0)]);
        let report = join.join().unwrap().expect("coordinator ran to completion");
        assert_eq!(report.rounds.len(), 1);
        assert!(report.rounds[0].quiesce > Duration::ZERO);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn withheld_ready_is_a_round_timeout_naming_the_rank() {
        let dir = scratch("coord_timeout");
        let deadline = Duration::from_millis(20);
        let (tx, _rxs, join) = bare_shell(3, &dir, deadline, Box::new(|_| Ok(())));
        tx.send(RankMsg::RequestCkpt).unwrap();
        for rank in [0, 2] {
            tx.send(ready(3).remove(rank)).unwrap();
        }
        let err = join.join().unwrap().expect_err("rank 1 never got ready");
        assert_eq!(
            err,
            CoordError::RoundTimeout {
                round: 0,
                phase: "quiesce",
                missing_ranks: vec![1],
            }
        );
    }

    #[test]
    fn commit_writes_manifest_and_records_check_failures() {
        let n = 2;
        let root = scratch("coord_store");
        // Pre-write the images the ranks claim, so the manifest the
        // coordinator commits validates against real files.
        let images: Vec<(u64, u32)> = (0..n)
            .map(|rank| {
                let img = splitproc::CkptImage {
                    rank,
                    world_size: n,
                    round: 0,
                    upper: vec![7; 32],
                    meta: vec![1; 8],
                };
                let cfg = store::StoreConfig::default();
                let out = store::write_image(&root, &img, &cfg, None).unwrap();
                (out.bytes as u64, out.crc)
            })
            .collect();
        let check = Box::new(|round| Err(format!("synthetic in {round}")));
        let (tx, rxs, join) = bare_shell(n, &root, ROUND_TIMEOUT, check);
        full_round(&tx, &rxs, &images);
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.invariant_violations, vec!["round 0: synthetic in 0"]);
        // The generation is now committed and selectable.
        let sel = store::select_generation(&root, Some(n)).unwrap();
        assert_eq!(sel.round, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
