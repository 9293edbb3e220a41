//! `TimedFace`: times workload calls from outside the program.
//!
//! The wrapper sits between a workload kernel and either backend
//! ([`workloads::ManaFace`] or [`workloads::NativeFace`]) and changes
//! nothing the kernel sees. It always records the rank's app entry and
//! exit and every *checkpoint stall*: the call during which the rank's
//! checkpoint round advanced, or which returned the checkpoint-exit
//! signal. With tracing on it also keeps one span per call, by kind.
//!
//! Rank 0 additionally carries the checkpoint plan: before the step
//! commit that ends step `s`, it requests a checkpoint when `s` is in the
//! plan — the same request an operator's `dmtcp_command -c` would make.

use mana_core::ManaError;
use mpisim::ReduceOp;
use std::time::Instant;
use workloads::{CommH, MpiFace, ReqH, WlError, WlResult};

/// What a call was, for per-layer attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Non-blocking send post.
    Isend,
    /// Non-blocking receive post.
    Irecv,
    /// Blocking send, receive, wait or barrier: waits on a peer.
    Blocking,
    /// `MPI_Allreduce`.
    Allreduce,
    /// Any other collective (bcast, alltoall, gather, split).
    OtherColl,
    /// Simulated compute.
    Compute,
    /// Step boundary.
    StepCommit,
    /// Checkpoint request (rank 0 only).
    RequestCkpt,
    /// Communicator queries.
    Query,
}

impl Kind {
    /// Point-to-point posts: they never wait on a peer, so their duration
    /// is the call's own cost in the layer below, which is what a wrapper
    /// change moves.
    pub fn is_p2p_post(self) -> bool {
        matches!(self, Kind::Isend | Kind::Irecv)
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call kind.
    pub kind: Kind,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
}

/// A call during which the rank's checkpoint round advanced (or that
/// returned the checkpoint-exit signal): the stall the application saw.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// The rank's completed-round counter before the call.
    pub round: u64,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
}

/// Everything one rank's wrapper recorded in one leg.
#[derive(Debug, Clone)]
pub struct RankLog {
    /// When the rank entered application code.
    pub entry: Instant,
    /// When the rank left application code.
    pub exit: Instant,
    /// Checkpoint stalls.
    pub stalls: Vec<Stall>,
    /// Per-call spans (empty unless tracing).
    pub spans: Vec<Span>,
}

/// [`MpiFace`] wrapper that times calls into `F`.
pub struct TimedFace<F> {
    inner: F,
    trace: bool,
    /// Steps completed so far in the application's life (restart legs
    /// start from the checkpointed step).
    step: u64,
    /// Ascending steps after which to request a checkpoint (rank 0 only).
    plan: Vec<u64>,
    log: RankLog,
}

impl<F: MpiFace> TimedFace<F> {
    /// Wrap `inner`; the rank enters application code now.
    pub fn new(inner: F, trace: bool, step: u64, plan: &[u64]) -> Self {
        let now = Instant::now();
        let plan = if inner.rank() == 0 {
            plan.iter().copied().filter(|&s| s > step).collect()
        } else {
            Vec::new()
        };
        TimedFace {
            inner,
            trace,
            step,
            plan,
            log: RankLog {
                entry: now,
                exit: now,
                stalls: Vec::new(),
                spans: Vec::new(),
            },
        }
    }

    /// The rank leaves application code now; hand back its record.
    pub fn finish(mut self) -> RankLog {
        self.log.exit = Instant::now();
        self.log
    }

    fn timed<T>(&mut self, kind: Kind, f: impl FnOnce(&mut F) -> WlResult<T>) -> WlResult<T> {
        let round = self.inner.round();
        let start = Instant::now();
        let res = f(&mut self.inner);
        let end = Instant::now();
        let exited = matches!(res, Err(WlError::Mana(ManaError::CkptExit)));
        if exited || self.inner.round() != round {
            self.log.stalls.push(Stall { round, start, end });
        }
        if self.trace {
            self.log.spans.push(Span { kind, start, end });
        }
        res
    }
}

impl<F: MpiFace> MpiFace for TimedFace<F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn comm_rank(&mut self, c: CommH) -> WlResult<usize> {
        self.timed(Kind::Query, |f| f.comm_rank(c))
    }
    fn comm_size(&mut self, c: CommH) -> WlResult<usize> {
        self.timed(Kind::Query, |f| f.comm_size(c))
    }
    fn send(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<()> {
        self.timed(Kind::Blocking, |f| f.send(c, dst, tag, data))
    }
    fn isend(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<ReqH> {
        self.timed(Kind::Isend, |f| f.isend(c, dst, tag, data))
    }
    fn irecv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<ReqH> {
        self.timed(Kind::Irecv, |f| f.irecv(c, src, tag))
    }
    fn recv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<Vec<u8>> {
        self.timed(Kind::Blocking, |f| f.recv(c, src, tag))
    }
    fn wait(&mut self, req: ReqH) -> WlResult<Vec<u8>> {
        self.timed(Kind::Blocking, |f| f.wait(req))
    }
    fn barrier(&mut self, c: CommH) -> WlResult<()> {
        self.timed(Kind::Blocking, |f| f.barrier(c))
    }
    fn allreduce_f64(&mut self, c: CommH, op: ReduceOp, data: &[f64]) -> WlResult<Vec<f64>> {
        self.timed(Kind::Allreduce, |f| f.allreduce_f64(c, op, data))
    }
    fn allreduce_u64(&mut self, c: CommH, op: ReduceOp, data: &[u64]) -> WlResult<Vec<u64>> {
        self.timed(Kind::Allreduce, |f| f.allreduce_u64(c, op, data))
    }
    fn bcast(&mut self, c: CommH, root: usize, data: &mut Vec<u8>) -> WlResult<()> {
        self.timed(Kind::OtherColl, |f| f.bcast(c, root, data))
    }
    fn alltoall(&mut self, c: CommH, chunks: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>> {
        self.timed(Kind::OtherColl, |f| f.alltoall(c, chunks))
    }
    fn gather(&mut self, c: CommH, root: usize, data: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>> {
        self.timed(Kind::OtherColl, |f| f.gather(c, root, data))
    }
    fn split(&mut self, c: CommH, color: i32, key: i32) -> WlResult<Option<CommH>> {
        self.timed(Kind::OtherColl, |f| f.split(c, color, key))
    }
    fn compute(&mut self, units: u64) -> WlResult<()> {
        self.timed(Kind::Compute, |f| f.compute(units))
    }
    fn save(&mut self, key: &str, bytes: Vec<u8>) {
        self.inner.save(key, bytes)
    }
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.load(key)
    }
    fn step_commit(&mut self) -> WlResult<()> {
        self.step += 1;
        if self.plan.first() == Some(&self.step) {
            self.plan.remove(0);
            self.timed(Kind::RequestCkpt, |f| f.request_checkpoint())?;
        }
        self.timed(Kind::StepCommit, |f| f.step_commit())
    }
    fn request_checkpoint(&mut self) -> WlResult<()> {
        self.timed(Kind::RequestCkpt, |f| f.request_checkpoint())
    }
    fn round(&self) -> u64 {
        self.inner.round()
    }
}
