//! Pluggable quiesce protocols for the checkpoint window.
//!
//! The checkpoint drain pulls every in-flight message out of the network
//! before an image is written (paper §III-B). It is a [`DrainStrategy`]
//! with three implementations:
//!
//! * [`AlltoallDrain`] — MANA-2.0's protocol: one `MPI_Alltoall` of
//!   per-pair sent-byte rows, then purely local sweeps until the deficits
//!   reach zero.
//! * [`CoordinatorDrain`] — the original MANA baseline: global totals
//!   round-tripped through the centralized coordinator until they balance.
//! * [`TopoSortDrain`] — the 2024 follow-up (arXiv 2408.02218): each rank
//!   ships its sent/received rows to the coordinator once and gets back
//!   its exact expected-bytes column. Two coordinator messages per rank
//!   instead of the alltoall's O(n²) fabric traffic, and no collective,
//!   so no pre-collective 2PC barrier either.
//!
//! Strategy selection is [`crate::config::ManaConfig::drain`], overridable
//! with `MANA2_DRAIN=alltoall|toposort|coordinator`. The coordinator half
//! of each coordinator-mediated protocol lives here too, as a plain
//! function ([`totals_balanced`], [`topo_schedules`]).

use crate::config::{DrainMode, TpcMode};
use crate::coordinator::{CoordMsg, RankMsg};
use crate::error::{ManaError, Result};
use crate::ids::{VComm, VCOMM_WORLD};
use crate::mana::Mana;
use obs::metrics as met;
use obs::{EventKind, Phase};

/// A checkpoint-window quiesce protocol. `quiesce` runs after `Go` and
/// must return only when this rank's share of the network is empty (every
/// in-flight message addressed to it captured); `pre_collective` is the
/// strategy's hook in front of every blocking collective, where the
/// alltoall-family protocols place their `TpcMode::Original` barrier.
pub trait DrainStrategy: Sync {
    /// Stable short name (metrics/artifact label).
    fn name(&self) -> &'static str;

    /// Drain the network for this rank (called with every rank parked).
    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()>;

    /// Hook before every blocking collective. The default honors the
    /// configured two-phase-commit mode: `TpcMode::Original` prepends the
    /// interruptible barrier, `Hybrid` does nothing.
    fn pre_collective(&self, m: &mut Mana<'_>, vc: VComm) -> Result<()> {
        if m.cfg.tpc == TpcMode::Original {
            m.tpc_barrier(vc)?;
        }
        Ok(())
    }
}

/// Resolve the configured [`DrainMode`] to its strategy implementation.
pub fn strategy_for(mode: DrainMode) -> &'static dyn DrainStrategy {
    match mode {
        DrainMode::Alltoall => &AlltoallDrain,
        DrainMode::Coordinator => &CoordinatorDrain,
        DrainMode::TopoSort => &TopoSortDrain,
    }
}

/// The per-strategy quiesce-latency histogram and completed-quiesce
/// counter.
pub(crate) fn strategy_metrics(mode: DrainMode) -> (met::MetricId, met::MetricId) {
    match mode {
        DrainMode::Alltoall => (met::DRAIN_ALLTOALL_QUIESCE_NS, met::DRAIN_ROUNDS_ALLTOALL),
        DrainMode::Coordinator => (
            met::DRAIN_COORDINATOR_QUIESCE_NS,
            met::DRAIN_ROUNDS_COORDINATOR,
        ),
        DrainMode::TopoSort => (met::DRAIN_TOPOSORT_QUIESCE_NS, met::DRAIN_ROUNDS_TOPOSORT),
    }
}

/// Sweep until every per-peer deficit against `expected` reaches zero.
/// Shared by every strategy that knows its exact expected column.
fn sweep_until_settled(m: &mut Mana<'_>, expected: &[u64]) -> Result<()> {
    let mut sweep = 0u32;
    while m.p2p.deficits(expected).iter().any(|&d| d != 0) {
        sweep += 1;
        sweep_once(m, expected, sweep)?;
    }
    Ok(())
}

/// One traced, timed drain sweep (`u64::MAX` entries in `expected` sweep
/// everything receivable from that peer).
fn sweep_once(m: &mut Mana<'_>, expected: &[u64], sweep: u32) -> Result<()> {
    let round = m.round as i64 - 1;
    m.stats.drain_sweeps += 1;
    m.m_add(met::DRAIN_SWEEPS, 1);
    if let Some(r) = &m.rec {
        r.begin(round, Phase::Drain { sweep });
    }
    let t = std::time::Instant::now();
    let progress = m.drain_sweep(expected)?;
    m.m_observe(met::DRAIN_SWEEP_NS, t.elapsed().as_nanos() as u64);
    if let Some(r) = &m.rec {
        r.end(round, Phase::Drain { sweep });
    }
    if !progress {
        // Nothing receivable this instant: the bytes are in transit
        // between another rank's send and our mailbox. Park briefly.
        m.lh.sched_park(m.cfg.poll_interval)?;
    }
    Ok(())
}

/// MANA-2.0 drain: one alltoall of sent rows, then purely local work.
pub struct AlltoallDrain;

impl DrainStrategy for AlltoallDrain {
    fn name(&self) -> &'static str {
        "alltoall"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        let world_real = m.real_comm(VCOMM_WORLD)?;
        let sent_row = m.p2p.sent_row().to_vec();
        if let Some(r) = &m.rec {
            r.begin(round, Phase::DrainExchange);
        }
        let expected = m.lh.call(|p| p.alltoall_u64(world_real, &sent_row))?;
        if let Some(r) = &m.rec {
            r.end(round, Phase::DrainExchange);
        }
        sweep_until_settled(m, &expected)
    }
}

/// Original MANA drain: totals through the coordinator, iterated until
/// global sent equals global received.
pub struct CoordinatorDrain;

impl DrainStrategy for CoordinatorDrain {
    fn name(&self) -> &'static str {
        "coordinator"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        let mut sweep = 0u32;
        loop {
            let (sent, recvd) = m.p2p.totals();
            if let Some(r) = &m.rec {
                r.begin(round, Phase::DrainExchange);
            }
            m.coord.send(RankMsg::DrainReport {
                rank: m.rank(),
                sent,
                recvd,
            })?;
            let verdict = m.coord.recv()?;
            if let Some(r) = &m.rec {
                r.end(round, Phase::DrainExchange);
            }
            match verdict {
                CoordMsg::DrainVerdict { balanced: true } => return Ok(()),
                CoordMsg::DrainVerdict { balanced: false } => {
                    // No per-pair information: sweep everything receivable.
                    sweep += 1;
                    sweep_once(m, &vec![u64::MAX; m.world_size()], sweep)?;
                }
                other => return Err(ManaError::unexpected(other, "DrainVerdict")),
            }
        }
    }
}

/// Coordinator half of [`CoordinatorDrain`]: the legacy verdict is
/// "balanced" once global sent bytes equal global received bytes over one
/// complete set of per-rank `(sent, recvd)` totals.
pub(crate) fn totals_balanced<'a>(totals: impl Iterator<Item = &'a (u64, u64)>) -> bool {
    let (sent, recvd) = totals.fold((0u64, 0u64), |(s, r), t| (s + t.0, r + t.1));
    sent == recvd
}

/// Topological-sort drain (arXiv 2408.02218): one rows→schedule round
/// trip through the coordinator, then the same local deficit sweeps as
/// the alltoall protocol against the exact expected column.
pub struct TopoSortDrain;

impl DrainStrategy for TopoSortDrain {
    fn name(&self) -> &'static str {
        "toposort"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        if let Some(r) = &m.rec {
            r.begin(round, Phase::DrainExchange);
        }
        m.coord.send(RankMsg::DrainRows {
            rank: m.rank(),
            sent: m.p2p.sent_row().to_vec(),
            recvd: m.p2p.recvd_row().to_vec(),
        })?;
        let (expected, order, edges, cyclic) = match m.coord.recv()? {
            CoordMsg::DrainSchedule {
                expected,
                order,
                edges,
                cyclic,
            } => (expected, order, edges, cyclic),
            other => return Err(ManaError::unexpected(other, "DrainSchedule")),
        };
        if let Some(r) = &m.rec {
            r.end(round, Phase::DrainExchange);
            r.event(
                round,
                EventKind::DrainSchedule {
                    order,
                    edges,
                    cyclic,
                },
            );
        }
        sweep_until_settled(m, &expected)
    }

    /// Never a barrier, even under `TpcMode::Original`: the topo-sort
    /// quiesce runs no collective, so a phase-1 barrier has nothing to
    /// synchronize.
    fn pre_collective(&self, _m: &mut Mana<'_>, _vc: VComm) -> Result<()> {
        Ok(())
    }
}

/// A topological plan over the in-flight send→receive dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoPlan {
    /// `order[r]` is rank `r`'s position in the topological order.
    pub order: Vec<u32>,
    /// Number of edges in the dependency graph.
    pub edges: u64,
    /// True when mutual in-flight traffic formed a cycle that the planner
    /// broke (smallest rank first); the expected columns stay exact.
    pub cyclic: bool,
}

/// Order ranks topologically by in-flight traffic (arXiv 2408.02218).
///
/// `sent[i][j]` / `recvd[j][i]` are the rows every rank shipped in its
/// [`RankMsg::DrainRows`]; bytes in flight from `i` to `j` are
/// `sent[i][j] − recvd[j][i]`, and each positive entry is an edge `i → j`
/// ("`i`'s traffic must land before `j` is quiet"). Kahn's algorithm with
/// deterministic smallest-rank-first selection; a cycle (mutual in-flight
/// traffic) is broken by releasing the smallest remaining rank.
pub fn topo_order(sent: &[Vec<u64>], recvd: &[Vec<u64>]) -> TopoPlan {
    let n = sent.len();
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = 0u64;
    let bytes = |rows: &[Vec<u64>], a: usize, b: usize| rows[a].get(b).copied().unwrap_or(0);
    for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
        if i != j && bytes(sent, i, j) > bytes(recvd, j, i) {
            out[i].push(j);
            indeg[j] += 1;
            edges += 1;
        }
    }
    let (mut order, mut placed, mut cyclic) = (vec![0u32; n], vec![false; n], false);
    for pos in 0..n {
        let free = (0..n).find(|&r| !placed[r] && indeg[r] == 0);
        cyclic |= free.is_none();
        let next = free
            .or_else(|| (0..n).find(|&r| !placed[r]))
            .expect("unplaced rank");
        placed[next] = true;
        order[next] = pos as u32;
        for &j in &out[next] {
            indeg[j] = indeg[j].saturating_sub(1);
        }
    }
    TopoPlan {
        order,
        edges,
        cyclic,
    }
}

/// Coordinator half of [`TopoSortDrain`]: plan over every rank's rows and
/// answer rank `j` with column `j` of the sent matrix — exactly the bytes
/// each peer sent it — plus its place in the order.
pub(crate) fn topo_schedules(sent: &[Vec<u64>], recvd: &[Vec<u64>]) -> (TopoPlan, Vec<CoordMsg>) {
    let plan = topo_order(sent, recvd);
    let msgs = (0..sent.len())
        .map(|j| CoordMsg::DrainSchedule {
            expected: sent
                .iter()
                .map(|row| row.get(j).copied().unwrap_or(0))
                .collect(),
            order: plan.order[j],
            edges: plan.edges,
            cyclic: plan.cyclic,
        })
        .collect();
    (plan, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_match_modes() {
        for mode in [
            DrainMode::Alltoall,
            DrainMode::Coordinator,
            DrainMode::TopoSort,
        ] {
            assert_eq!(strategy_for(mode).name(), mode.name());
        }
    }

    #[test]
    fn per_strategy_metrics_are_distinct() {
        let modes = [
            DrainMode::Alltoall,
            DrainMode::Coordinator,
            DrainMode::TopoSort,
        ];
        for a in modes {
            for b in modes {
                if a != b {
                    let (qa, ra) = strategy_metrics(a);
                    let (qb, rb) = strategy_metrics(b);
                    assert!(qa != qb && ra != rb && qa != ra);
                }
            }
        }
    }

    #[test]
    fn totals_balance_only_when_sums_match() {
        assert!(!totals_balanced([(10, 0), (0, 0)].iter()));
        assert!(totals_balanced([(10, 0), (0, 10)].iter()));
    }

    #[test]
    fn topo_order_respects_one_way_traffic() {
        // 0 → 1 → 2 in flight: the order must place 0 before 1 before 2.
        let sent = vec![vec![0, 10, 0], vec![0, 0, 5], vec![0, 0, 0]];
        let recvd = vec![vec![0; 3]; 3];
        let plan = topo_order(&sent, &recvd);
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.edges, 2);
        assert!(!plan.cyclic);
    }

    #[test]
    fn topo_order_ignores_settled_traffic() {
        // Everything sent was already received: no edges, identity order.
        let sent = vec![vec![0, 8], vec![3, 0]];
        let recvd = vec![vec![0, 3], vec![8, 0]];
        let plan = topo_order(&sent, &recvd);
        assert_eq!(plan.edges, 0);
        assert!(!plan.cyclic);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn topo_order_breaks_cycles_deterministically() {
        // Mutual in-flight traffic 0 ⇄ 1: a cycle, broken smallest-first.
        let sent = vec![vec![0, 4], vec![4, 0]];
        let recvd = vec![vec![0; 2]; 2];
        let plan = topo_order(&sent, &recvd);
        assert!(plan.cyclic);
        assert_eq!(plan.edges, 2);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn topo_schedules_hand_each_rank_its_exact_column() {
        // Rank 0 has 10 bytes in flight to rank 1; nothing else.
        let (plan, msgs) = topo_schedules(&[vec![0, 10], vec![0, 0]], &[vec![0, 0], vec![0, 0]]);
        assert_eq!(plan.edges, 1);
        let expect = |expected: Vec<u64>, order| CoordMsg::DrainSchedule {
            expected,
            order,
            edges: 1,
            cyclic: false,
        };
        assert_eq!(msgs, vec![expect(vec![0, 0], 0), expect(vec![10, 0], 1)]);
    }
}
