//! Exhaustive check of the coordinator's round machine.
//!
//! A model world — `n` ranks following the rank half of the protocol,
//! one FIFO inbox to the coordinator and one FIFO per rank back — is
//! explored over every delivery order, for n ∈ {1, 2, 3} ranks, up to two
//! checkpoint requests (so two rounds, or one round plus a coalesced
//! request), every drain's side traffic, and both exit modes. Every rank
//! may fail its image write and every manifest commit may fail. Visited
//! states are deduplicated by hash.
//!
//! Checked in every reachable state:
//! * a round commits iff every rank reported `Done` and the commit
//!   succeeded (otherwise it aborts);
//! * intent drops before any `Resume`/`Exit`/`AbortRound`;
//! * round numbers are monotone;
//! * each rank gets exactly one verdict per round;
//! * the machine never returns an error or panics, and every terminal
//!   state has all ranks gone and the coordinator finished.
//!
//! Run alone: `cargo test -p mana-core --test round_machine -- --nocapture`.

use mana_core::coordinator::{Action, CoordMsg, RankMsg, RoundMachine};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Drain {
    /// No coordinator side traffic.
    Alltoall,
    /// Legacy totals exchanges until balanced.
    Totals,
    /// One rows → schedule exchange.
    Topo,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stage {
    /// Running the application.
    Run,
    /// Sent `Ready`; waiting for `Go`.
    AwaitGo,
    /// Sent totals exchange `k`; waiting for its verdict.
    Totals(u8),
    /// Sent rows; waiting for the schedule.
    AwaitSchedule,
    /// Drained; about to report `Done` or `Failed`.
    Write,
    /// Reported; waiting for the round's verdict.
    AwaitVerdict,
    /// Sent `Finishing`; waiting for `FinishAck` (or a `Go`).
    AwaitAck,
    /// Left.
    Gone,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Rank {
    stage: Stage,
    /// In finalize: after a round, say goodbye again instead of running.
    finishing: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    m: RoundMachine,
    ranks: Vec<Rank>,
    inbox: VecDeque<RankMsg>,
    outbox: Vec<VecDeque<CoordMsg>>,
    intent: bool,
    /// `RequestCkpt`s still to send.
    requests: u8,
    /// This round's reports as sent (`true` = `Done`); cleared per rank
    /// when it takes its verdict.
    reported: Vec<Option<bool>>,
    /// Outcome fed back for this round's manifest commit.
    commit_ok: Option<bool>,
    /// Round of the latest `Go`.
    go_round: Option<u64>,
    finished: bool,
}

struct Model {
    n: usize,
    drain: Drain,
}

impl Model {
    fn start(&self, exit_after_ckpt: bool) -> World {
        let n = self.n;
        World {
            m: RoundMachine::new(n, exit_after_ckpt, 0),
            ranks: vec![
                Rank {
                    stage: Stage::Run,
                    finishing: false,
                };
                n
            ],
            inbox: VecDeque::new(),
            outbox: vec![VecDeque::new(); n],
            intent: false,
            requests: 2,
            reported: vec![None; n],
            commit_ok: None,
            go_round: None,
            finished: false,
        }
    }

    /// Every successor of `w`.
    fn successors(&self, w: &World) -> Vec<World> {
        let mut next = Vec::new();
        if let Some(msg) = w.inbox.front() {
            let mut s = w.clone();
            s.inbox.pop_front();
            let actions = (s.m.step(msg.clone()))
                .unwrap_or_else(|e| panic!("machine rejected {msg:?}: {e}\nin {w:?}"));
            self.apply(s, actions.into(), &mut next);
        }
        for r in 0..self.n {
            self.rank_moves(w, r, &mut next);
        }
        next
    }

    /// Perform the coordinator's actions on `w`, checking the invariants;
    /// a manifest commit forks into its success and failure.
    fn apply(&self, mut w: World, mut todo: VecDeque<Action>, out: &mut Vec<World>) {
        while let Some(a) = todo.pop_front() {
            match a {
                Action::RaiseIntent => {
                    assert!(!w.intent, "intent raised twice");
                    w.intent = true;
                    w.commit_ok = None;
                }
                Action::DropIntent { next_round } => {
                    assert!(w.intent, "intent dropped while not raised");
                    assert_eq!(Some(next_round), w.go_round.map(|r| r + 1));
                    w.intent = false;
                }
                Action::Send(r, msg) => w.outbox[r].push_back(msg),
                Action::Broadcast(msg) => {
                    self.check_broadcast(&mut w, &msg);
                    for q in &mut w.outbox {
                        q.push_back(msg.clone());
                    }
                }
                Action::Commit(manifest) => {
                    assert!(
                        w.reported.iter().all(|r| *r == Some(true)),
                        "commit asked without every rank Done"
                    );
                    assert_eq!(manifest.entries.len(), self.n);
                    for ok in [true, false] {
                        let mut s = w.clone();
                        s.commit_ok = Some(ok);
                        let outcome = if ok { Ok(()) } else { Err("injected".into()) };
                        let mut rest: VecDeque<Action> = s.m.committed(outcome).into();
                        rest.extend(todo.iter().cloned());
                        self.apply(s, rest, out);
                    }
                    return;
                }
                Action::Record(stats) => assert_eq!(Some(stats.round), w.go_round),
                Action::Abort(ab) => assert_eq!(Some(ab.round), w.go_round),
                Action::Finish => {
                    assert!(!w.finished);
                    w.finished = true;
                }
                Action::Begin(..) | Action::End(..) | Action::Count(..) | Action::Gc => {}
            }
        }
        out.push(w);
    }

    fn check_broadcast(&self, w: &mut World, msg: &CoordMsg) {
        let every_rank_reported = w.reported.iter().all(Option::is_some);
        let all_done = w.reported.iter().all(|r| *r == Some(true));
        match msg {
            CoordMsg::Go { round } => {
                assert!(w.intent, "Go without intent");
                if let Some(prev) = w.go_round {
                    assert!(*round > prev, "round {round} after {prev}");
                }
                w.go_round = Some(*round);
            }
            CoordMsg::Resume | CoordMsg::Exit => {
                assert!(!w.intent, "verdict sent before intent dropped");
                assert!(
                    every_rank_reported && all_done,
                    "committed without all Done"
                );
                assert_eq!(w.commit_ok, Some(true), "committed without a commit");
            }
            CoordMsg::AbortRound { round } => {
                assert!(!w.intent, "abort sent before intent dropped");
                assert!(every_rank_reported, "aborted before every rank reported");
                assert!(
                    !all_done || w.commit_ok == Some(false),
                    "aborted a round that should commit"
                );
                assert_eq!(Some(*round), w.go_round);
            }
            CoordMsg::DrainVerdict { .. } => {}
            other => panic!("unexpected broadcast {other:?}"),
        }
    }

    /// Rank `r`'s possible moves in `w`.
    fn rank_moves(&self, w: &World, r: usize, out: &mut Vec<World>) {
        let rank = &w.ranks[r];
        let send = |mut s: World, msg: RankMsg, stage: Stage| {
            s.inbox.push_back(msg);
            s.ranks[r].stage = stage;
            s
        };
        match rank.stage {
            Stage::Run => {
                if w.intent {
                    let ready = RankMsg::Ready {
                        rank: r,
                        in_collective: (r == 0).then_some(7),
                    };
                    out.push(send(w.clone(), ready, Stage::AwaitGo));
                }
                let mut s = send(w.clone(), RankMsg::Finishing { rank: r }, Stage::AwaitAck);
                s.ranks[r].finishing = true;
                out.push(s);
                if w.requests > 0 {
                    let mut s = send(w.clone(), RankMsg::RequestCkpt, Stage::Run);
                    s.requests -= 1;
                    out.push(s);
                }
            }
            Stage::Write => {
                let done = RankMsg::CkptDone {
                    rank: r,
                    image_bytes: 1,
                    image_crc: 0,
                    logical_bytes: 1,
                };
                let failed = RankMsg::CkptFailed {
                    rank: r,
                    reason: "injected".into(),
                };
                for (msg, ok) in [(done, true), (failed, false)] {
                    let mut s = send(w.clone(), msg, Stage::AwaitVerdict);
                    s.reported[r] = Some(ok);
                    out.push(s);
                }
            }
            Stage::Gone => {}
            _ => {
                if let Some(msg) = w.outbox[r].front() {
                    let mut s = w.clone();
                    s.outbox[r].pop_front();
                    self.receive(&mut s, r, msg.clone());
                    out.push(s);
                }
            }
        }
    }

    /// Rank `r` takes `msg` from its queue: the rank half of the protocol.
    fn receive(&self, w: &mut World, r: usize, msg: CoordMsg) {
        let n = self.n;
        let send = |w: &mut World, m: RankMsg| w.inbox.push_back(m);
        let stage = w.ranks[r].stage;
        w.ranks[r].stage = match (stage, msg) {
            (Stage::AwaitGo | Stage::AwaitAck, CoordMsg::Go { .. }) => match self.drain {
                Drain::Alltoall => Stage::Write,
                Drain::Totals => {
                    send(w, totals(r, 0));
                    Stage::Totals(0)
                }
                Drain::Topo => {
                    let mut sent = vec![0; n];
                    sent[(r + 1) % n] += 1;
                    let recvd = vec![0; n];
                    send(
                        w,
                        RankMsg::DrainRows {
                            rank: r,
                            sent,
                            recvd,
                        },
                    );
                    Stage::AwaitSchedule
                }
            },
            (Stage::AwaitAck, CoordMsg::FinishAck) => Stage::Gone,
            (Stage::Totals(k), CoordMsg::DrainVerdict { balanced }) => {
                // Exchange 0 reports nothing received yet; exchange 1
                // balances.
                assert_eq!(balanced, k == 1, "wrong verdict for exchange {k}");
                if balanced {
                    Stage::Write
                } else {
                    send(w, totals(r, k + 1));
                    Stage::Totals(k + 1)
                }
            }
            (Stage::AwaitSchedule, CoordMsg::DrainSchedule { expected, .. }) => {
                assert_eq!(expected[(r + n - 1) % n], 1, "wrong expected column");
                Stage::Write
            }
            (Stage::AwaitVerdict, verdict) => {
                let exit = match verdict {
                    CoordMsg::Resume | CoordMsg::AbortRound { .. } => false,
                    CoordMsg::Exit => true,
                    other => panic!("rank {r} expected a verdict, got {other:?}"),
                };
                w.reported[r] = None;
                if exit || w.ranks[r].finishing {
                    w.ranks[r].finishing = true;
                    send(w, RankMsg::Finishing { rank: r });
                    Stage::AwaitAck
                } else {
                    Stage::Run
                }
            }
            (stage, other) => panic!("rank {r} in {stage:?} got {other:?}"),
        };
    }

    /// Depth-first search over every reachable state; returns the number
    /// of distinct states.
    fn explore(&self, exit_after_ckpt: bool) -> usize {
        let start = self.start(exit_after_ckpt);
        let mut seen = HashSet::from([fingerprint(&start)]);
        let mut stack = vec![start];
        while let Some(w) = stack.pop() {
            let next = self.successors(&w);
            if next.is_empty() {
                assert!(
                    w.finished && w.ranks.iter().all(|r| r.stage == Stage::Gone),
                    "stuck state: {w:?}"
                );
                assert!(w.outbox.iter().all(VecDeque::is_empty), "unread replies");
            }
            for s in next {
                if seen.insert(fingerprint(&s)) {
                    stack.push(s);
                }
            }
        }
        seen.len()
    }
}

fn totals(rank: usize, exchange: u8) -> RankMsg {
    RankMsg::DrainReport {
        rank,
        sent: 1,
        recvd: u64::from(exchange > 0),
    }
}

fn fingerprint(w: &World) -> u64 {
    let mut h = DefaultHasher::new();
    w.hash(&mut h);
    h.finish()
}

#[test]
fn every_delivery_order_keeps_the_round_invariants() {
    let t = std::time::Instant::now();
    let mut total = 0;
    for n in 1..=3 {
        for drain in [Drain::Alltoall, Drain::Totals, Drain::Topo] {
            for exit in [false, true] {
                let states = Model { n, drain }.explore(exit);
                println!("n={n} drain={drain:?} exit_after_ckpt={exit}: {states} states");
                total += states;
            }
        }
    }
    println!("explored {total} distinct states in {:?}", t.elapsed());
}
