//! The coordinator's pure round machine.
//!
//! [`RoundMachine`] is the §III-M checkpoint-round protocol with no I/O:
//! no threads, channels, clocks, environment or filesystem. It consumes
//! one [`RankMsg`] at a time, plus the outcome of a manifest commit it
//! asked for, and answers with the [`Action`]s the shell must perform.
//!
//! States: `Idle` → `Quiesce` (intent raised, collecting `Ready`) →
//! `Write` (`Go` sent, answering drain side traffic, collecting
//! `Done`/`Failed`) → `Committing` → `Idle`. Invariants, checked
//! exhaustively at small sizes by `tests/round_machine.rs`:
//!
//! * a round commits iff every rank reported `Done` and the manifest
//!   landed; otherwise it aborts;
//! * intent drops before any `Resume`/`Exit`/`AbortRound`, so a resumed
//!   rank can never send a stray `Ready`;
//! * round numbers only grow; each rank gets one verdict per round;
//! * a message the protocol does not allow is a typed [`CoordError`].

use super::{AbortedRound, CkptRoundStats, CoordMsg, RankMsg};
use crate::drain_strategy::{topo_schedules, totals_balanced};
use obs::metrics as met;
use splitproc::store::{Manifest, ManifestEntry};
use std::fmt;
use std::time::Duration;

/// A timed stretch of a round, opened and closed by [`Action::Begin`] /
/// [`Action::End`]. The shell turns each into its trace span and its
/// latency histogram sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordPhase {
    /// Intent raised to the verdict of a committed round.
    Round,
    /// Intent raised to every rank `Ready`.
    Quiesce,
    /// `Go` to the last `Done`/`Failed`: every rank's drain plus write.
    Write,
    /// First to last `Done`/`Failed` of the round.
    FanIn,
    /// Topological drain planning over the collected rows.
    DrainPlan,
    /// Manifest commit through the verdict fan-out.
    Commit,
    /// Scrapping a round that cannot commit.
    Abort,
}

/// One thing the shell must do. [`RoundMachine`] emits them in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Raise checkpoint intent and kick every rank.
    RaiseIntent,
    /// Drop intent and advance the shared round counter to `next_round`.
    DropIntent {
        /// The round the next intent will run.
        next_round: u64,
    },
    /// Send one message to one rank.
    Send(usize, CoordMsg),
    /// Send the same message to every rank.
    Broadcast(CoordMsg),
    /// Open a phase of the given round.
    Begin(u64, CoordPhase),
    /// Close a phase of the given round.
    End(u64, CoordPhase),
    /// Add to a coordinator counter.
    Count(met::MetricId, u64),
    /// Durably commit this manifest, run the commit-time invariant check,
    /// and feed the outcome back through [`RoundMachine::committed`].
    Commit(Manifest),
    /// Scrap the round's partial generation and record the abort.
    Abort(AbortedRound),
    /// Record a committed round; the shell, which owns the clock, fills
    /// in `quiesce` and `write`.
    Record(CkptRoundStats),
    /// Collect generations (and chunks) beyond the retention window.
    Gc,
    /// Every rank finished: the coordinator is done.
    Finish,
}

/// A coordinator failure. Each one ends the coordinator thread and
/// surfaces as `RuntimeError::Coordinator`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// A rank sent a message its protocol does not allow at this point.
    Protocol(String),
    /// A round message arrived while no round was running.
    Stray(String),
    /// A rank reported `Done`/`Failed` twice in one round.
    DuplicateDone {
        /// The round in progress.
        round: u64,
        /// The rank that reported twice.
        rank: usize,
    },
    /// An in-round wait ran past its deadline.
    RoundTimeout {
        /// The round in progress.
        round: u64,
        /// The stage that stalled (`quiesce` or `write`).
        phase: &'static str,
        /// Ranks whose report never arrived.
        missing_ranks: Vec<usize>,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            CoordError::Stray(msg) => write!(f, "stray message outside a round: {msg}"),
            CoordError::DuplicateDone { round, rank } => {
                write!(f, "rank {rank} reported twice in round {round}")
            }
            CoordError::RoundTimeout {
                round,
                phase,
                missing_ranks: m,
            } => {
                write!(
                    f,
                    "round {round} timed out in {phase} waiting for ranks {m:?}"
                )
            }
        }
    }
}

impl std::error::Error for CoordError {}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum Stage {
    #[default]
    Idle,
    Quiesce,
    Write,
    Committing,
}

/// A rank's image report: `Done` (manifest entry, logical bytes) or
/// `Failed` (reason).
type Report = Result<(ManifestEntry, u64), String>;

/// The checkpoint-round protocol as a pure state machine (see the module
/// docs for its states and invariants).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RoundMachine {
    n: usize,
    exit_after_ckpt: bool,
    /// The round running now, or the next one to run.
    round: u64,
    stage: Stage,
    /// Ranks that said goodbye outside a round.
    finished: Vec<bool>,
    /// A committed exit round ended the job; later requests are skipped.
    exited: bool,
    skipped_requests: u64,
    // Per-round state, reset when intent is raised.
    ready: Vec<bool>,
    gids: Vec<u64>,
    msgs: u64,
    /// This exchange's drain side traffic (`DrainReport`/`DrainRows`).
    side: Vec<Option<RankMsg>>,
    reports: Vec<Option<Report>>,
}

impl RoundMachine {
    /// A machine for `n` ranks whose first round is `first_round`.
    pub fn new(n: usize, exit_after_ckpt: bool, first_round: u64) -> Self {
        let (finished, round) = (vec![false; n], first_round);
        RoundMachine {
            n,
            exit_after_ckpt,
            round,
            finished,
            ..Default::default()
        }
    }

    /// Is a round waiting on ranks? Only such waits have a deadline.
    pub fn in_round(&self) -> bool {
        matches!(self.stage, Stage::Quiesce | Stage::Write)
    }

    /// Checkpoint requests ignored or coalesced so far.
    pub fn skipped_requests(&self) -> u64 {
        self.skipped_requests
    }

    /// The error for an in-round wait that ran past its deadline.
    pub fn timeout(&self) -> CoordError {
        let (phase, waiting): (_, Vec<bool>) = match self.stage {
            Stage::Quiesce => ("quiesce", self.ready.iter().map(|r| !r).collect()),
            _ => ("write", self.reports.iter().map(Option::is_none).collect()),
        };
        let missing_ranks = (0..self.n).filter(|&r| waiting[r]).collect();
        CoordError::RoundTimeout {
            round: self.round,
            phase,
            missing_ranks,
        }
    }

    /// Consume one rank message.
    pub fn step(&mut self, msg: RankMsg) -> Result<Vec<Action>, CoordError> {
        let mut out = Vec::new();
        match (self.stage, msg) {
            (stage, RankMsg::RequestCkpt) => {
                if stage == Stage::Idle && !self.exited && !self.finished.contains(&true) {
                    self.start_round(&mut out);
                } else {
                    // Coalesced into the running round, or too late.
                    self.skipped_requests += 1;
                }
            }
            (Stage::Idle, RankMsg::Finishing { rank }) if !self.finished[self.rank(rank)?] => {
                self.finished[rank] = true;
                out.push(Action::Send(rank, CoordMsg::FinishAck));
                if !self.finished.contains(&false) {
                    out.push(Action::Finish);
                }
            }
            (
                Stage::Quiesce,
                RankMsg::Ready {
                    rank,
                    in_collective: gid,
                },
            ) if !self.ready[self.rank(rank)?] => {
                if let Some(gid) = gid.filter(|g| !self.gids.contains(g)) {
                    self.gids.push(gid);
                }
                self.ready(rank, &mut out);
            }
            // A rank announcing Finishing is at a safe point: count it
            // Ready. Its finalize loop handles the Go it gets instead of
            // FinishAck and re-announces Finishing after the round.
            (Stage::Quiesce, RankMsg::Finishing { rank }) if !self.ready[self.rank(rank)?] => {
                self.ready(rank, &mut out);
            }
            (
                Stage::Write,
                m @ (RankMsg::DrainReport { rank, .. } | RankMsg::DrainRows { rank, .. }),
            ) if self.side[self.rank(rank)?].is_none() => {
                self.side[rank] = Some(m);
                self.msgs += 1;
                if !self.side.contains(&None) {
                    self.answer_drain(&mut out)?;
                }
            }
            (
                Stage::Write,
                RankMsg::CkptDone {
                    rank,
                    image_bytes,
                    image_crc,
                    logical_bytes,
                },
            ) => {
                let (bytes, crc) = (image_bytes, image_crc);
                let entry = ManifestEntry {
                    rank: rank as u64,
                    bytes,
                    crc,
                };
                self.report(rank, Ok((entry, logical_bytes)), &mut out)?;
            }
            (Stage::Write, RankMsg::CkptFailed { rank, reason }) => {
                self.report(rank, Err(reason), &mut out)?;
            }
            (Stage::Idle, msg) => return Err(CoordError::Stray(format!("{msg:?}"))),
            (stage, msg) => return Err(self.violation(format!("{msg:?} during {stage:?}"))),
        }
        Ok(out)
    }

    /// Feed back the outcome of the last [`Action::Commit`]: `Err` carries
    /// the manifest-write failure, which aborts the round.
    pub fn committed(&mut self, manifest: Result<(), String>) -> Vec<Action> {
        assert_eq!(self.stage, Stage::Committing, "no commit outstanding");
        let round = self.round;
        let mut out = Vec::new();
        if let Err(e) = manifest {
            out.push(Action::End(round, CoordPhase::Commit));
            let failure = (usize::MAX, format!("manifest write failed: {e}"));
            self.abort(vec![failure], &mut out);
            return out;
        }
        // Intent drops before the verdict: the channel receive
        // synchronizes-with the send, so a resumed rank reads intent ==
        // false and cannot emit a stray Ready.
        self.finish_round(&mut out);
        let verdict = if self.exit_after_ckpt {
            CoordMsg::Exit
        } else {
            CoordMsg::Resume
        };
        self.broadcast(&mut out, verdict);
        self.exited = self.exit_after_ckpt;
        let stats = CkptRoundStats {
            round,
            quiesce: Duration::ZERO,
            write: Duration::ZERO,
            total_image_bytes: self.reports.iter().flatten().flatten().map(|d| d.1).sum(),
            gids_in_flight: std::mem::take(&mut self.gids),
            coord_msgs: self.msgs,
        };
        out.extend([
            Action::End(round, CoordPhase::Commit),
            Action::End(round, CoordPhase::Round),
            Action::Count(met::ROUNDS_COMMITTED, 1),
            Action::Record(stats),
            Action::Gc,
        ]);
        out
    }

    /// A rank index the machine can trust, or a protocol violation.
    fn rank(&self, rank: usize) -> Result<usize, CoordError> {
        if rank < self.n {
            return Ok(rank);
        }
        Err(self.violation(format!("rank {rank} in a {}-rank world", self.n)))
    }

    fn violation(&self, msg: String) -> CoordError {
        CoordError::Protocol(format!("round {}: {msg}", self.round))
    }

    fn broadcast(&mut self, out: &mut Vec<Action>, msg: CoordMsg) {
        self.msgs += self.n as u64;
        out.push(Action::Broadcast(msg));
    }

    fn start_round(&mut self, out: &mut Vec<Action>) {
        let n = self.n;
        (self.stage, self.msgs) = (Stage::Quiesce, 0);
        (self.ready, self.side, self.reports) = (vec![false; n], vec![None; n], vec![None; n]);
        self.gids.clear();
        out.extend([
            Action::Begin(self.round, CoordPhase::Round),
            Action::Begin(self.round, CoordPhase::Quiesce),
            Action::RaiseIntent,
        ]);
    }

    fn ready(&mut self, rank: usize, out: &mut Vec<Action>) {
        self.ready[rank] = true;
        self.msgs += 1;
        if !self.ready.contains(&false) {
            self.stage = Stage::Write;
            out.push(Action::End(self.round, CoordPhase::Quiesce));
            out.push(Action::Begin(self.round, CoordPhase::Write));
            self.broadcast(out, CoordMsg::Go { round: self.round });
        }
    }

    /// Every rank sent its drain side traffic: run the drain's coordinator
    /// half (see [`crate::drain_strategy`]) and answer.
    fn answer_drain(&mut self, out: &mut Vec<Action>) -> Result<(), CoordError> {
        let (mut totals, mut sent, mut recvd) = (Vec::new(), Vec::new(), Vec::new());
        for msg in self.side.iter_mut().flat_map(Option::take) {
            match msg {
                RankMsg::DrainReport { sent, recvd, .. } => totals.push((sent, recvd)),
                RankMsg::DrainRows {
                    sent: s, recvd: r, ..
                } => {
                    sent.push(s);
                    recvd.push(r);
                }
                other => unreachable!("not drain traffic: {other:?}"),
            }
        }
        if totals.len() == self.n {
            let balanced = totals_balanced(totals.iter());
            self.broadcast(out, CoordMsg::DrainVerdict { balanced });
            return Ok(());
        } else if sent.len() != self.n {
            return Err(self.violation("ranks mixed drain protocols".into()));
        }
        let (plan, schedules) = topo_schedules(&sent, &recvd);
        out.extend([
            Action::Begin(self.round, CoordPhase::DrainPlan),
            Action::Count(met::DRAIN_TOPO_PLANS, 1),
            Action::Count(met::DRAIN_TOPO_EDGES, plan.edges),
            Action::Count(met::DRAIN_TOPO_CYCLES, plan.cyclic.into()),
        ]);
        self.msgs += self.n as u64;
        out.extend(
            schedules
                .into_iter()
                .enumerate()
                .map(|(r, m)| Action::Send(r, m)),
        );
        out.push(Action::End(self.round, CoordPhase::DrainPlan));
        Ok(())
    }

    fn report(
        &mut self,
        rank: usize,
        report: Report,
        out: &mut Vec<Action>,
    ) -> Result<(), CoordError> {
        let round = self.round;
        if self.reports[self.rank(rank)?].is_some() {
            return Err(CoordError::DuplicateDone { round, rank });
        }
        if self.reports.iter().all(Option::is_none) {
            out.push(Action::Begin(round, CoordPhase::FanIn));
        }
        self.reports[rank] = Some(report);
        self.msgs += 1;
        if self.reports.contains(&None) {
            return Ok(());
        }
        out.push(Action::End(round, CoordPhase::FanIn));
        out.push(Action::End(round, CoordPhase::Write));
        // Commit point: every rank drained and reported, none resumed.
        // The round commits only if all of them wrote durably.
        let failures: Vec<(usize, String)> = (self.reports.iter().enumerate())
            .filter_map(|(r, rep)| Some((r, rep.clone()?.err()?)))
            .collect();
        if !failures.is_empty() {
            self.abort(failures, out);
            return Ok(());
        }
        self.stage = Stage::Committing;
        let entries = (self.reports.iter().flatten().flatten())
            .map(|d| d.0)
            .collect();
        let world_size = self.n as u64;
        out.push(Action::Begin(round, CoordPhase::Commit));
        out.push(Action::Commit(Manifest {
            round,
            world_size,
            entries,
        }));
        Ok(())
    }

    /// Scrap the round: every rank discards and resumes. Prior committed
    /// generations are untouched — round N's failure never costs N−1.
    fn abort(&mut self, failures: Vec<(usize, String)>, out: &mut Vec<Action>) {
        let round = self.round;
        out.push(Action::Begin(round, CoordPhase::Abort));
        out.push(Action::Abort(AbortedRound { round, failures }));
        self.finish_round(out);
        out.extend([
            Action::Broadcast(CoordMsg::AbortRound { round }),
            Action::End(round, CoordPhase::Abort),
            Action::Count(met::ROUNDS_ABORTED, 1),
        ]);
    }

    fn finish_round(&mut self, out: &mut Vec<Action>) {
        (self.round, self.stage) = (self.round + 1, Stage::Idle);
        out.push(Action::DropIntent {
            next_round: self.round,
        });
    }
}
