//! The [`Universe`] owns the shared state backing one "MPI job" and runs one
//! thread per rank.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use psdns_chaos::ChaosEngine;
use psdns_sync::channel::{unbounded, Receiver, Sender};
use psdns_sync::Mutex;

use crate::comm::Communicator;

/// A type-erased point-to-point message.
pub(crate) struct Packet {
    /// Communicator context id (each split gets a fresh one).
    pub ctx: u64,
    /// User or collective tag.
    pub tag: u64,
    /// Job-unique message id; used to discard chaos-injected duplicates.
    pub uid: u64,
    /// True when this message was duplicated by the chaos layer (both the
    /// original and the copy carry the flag; the second arrival is dropped).
    pub dup: bool,
    /// ABFT sidecar: one checksum per payload block, computed by the
    /// sender *before* any in-transit corruption can occur. `None` on
    /// unchecksummed traffic (point-to-point, non-ABFT collectives).
    pub crcs: Option<Vec<u64>>,
    /// The payload behind `Any`: a `Vec<T>`, or on checksummed traffic an
    /// `Arc<Vec<T>>` shared with the retransmission store.
    pub payload: Box<dyn Any + Send>,
}

/// Shared state of the job: a full matrix of channels plus per-destination
/// pending queues for out-of-order tag matching, and (optionally) the chaos
/// fault-injection state.
pub(crate) struct Shared {
    pub size: usize,
    /// `tx[src][dst]` — sender side of the (src → dst) channel.
    pub tx: Vec<Vec<Sender<Packet>>>,
    /// `rx[dst][src]` — receiver side, guarded so `Communicator` can be used
    /// from helper threads of the same rank if needed.
    pub rx: Vec<Vec<Mutex<Receiver<Packet>>>>,
    /// Messages received but not yet matched, per (dst, src).
    pub pending: Vec<Vec<Mutex<VecDeque<Packet>>>>,
    /// Fault-injection engine for this job; `None` outside chaos runs, in
    /// which case every hook below is a branch-on-None no-op.
    pub chaos: Option<ChaosEngine>,
    /// `held[src][dst]` — one stashed packet per edge, used by the reorder
    /// fault: a held packet is released *after* the next send on its edge.
    pub held: Vec<Vec<Mutex<Option<Packet>>>>,
    /// Per-destination uids of duplicate-flagged packets already ingested.
    pub dup_seen: Vec<Mutex<HashSet<u64>>>,
    /// Job-unique message id source.
    pub next_uid: AtomicU64,
    /// Set when any rank died; pollers convert this into a typed error
    /// instead of waiting forever for a message that will never come.
    failed: AtomicBool,
    /// First failure wins: (rank, panic message, collective epoch if known).
    failure: Mutex<Option<(usize, String, Option<u64>)>>,
    /// Resilient mode ([`Universe::run_resilient`]): rank death marks the
    /// victim *departed* instead of failing the whole job, so survivors can
    /// agree, shrink and continue.
    pub resilient: bool,
    /// Per-rank collective-epoch counters, bumped once per collective call
    /// (see [`Communicator::next_coll_tag`]). Doubles as the rank's logical
    /// heartbeat: a rank whose counter stops advancing while peers' grow is
    /// the one the failure detector points at. Wall-clock heartbeats would
    /// break seed-determinism; logical ones do not.
    pub coll_epoch: Vec<AtomicU64>,
    /// Ranks that died, with the collective epoch at death and the panic
    /// message — the ground truth the survivors' agreement round converges
    /// on.
    departed: Mutex<BTreeMap<usize, Departed>>,
    /// Revoked communicator contexts (ULFM `MPI_Comm_revoke` analogue):
    /// ordinary receives on a revoked ctx fail with `RankFailed` so ranks
    /// stuck in an abandoned collective learn about a failure they cannot
    /// observe directly (e.g. a non-root rank waiting on a root that bailed
    /// out of a rooted barrier).
    revoked: Mutex<HashSet<u64>>,
    /// Retransmission store for ABFT collectives: the sender's clean payload
    /// (an `Arc<Vec<T>>` behind `Any`, shared with the in-flight packet
    /// until a fault forces a copy), keyed by `(ctx, tag, gsrc, gdst)`.
    /// Each collective draws a unique tag, so the key identifies one
    /// message. The receiver removes the entry once the checksums verify;
    /// a mismatch pulls the payload again from here (the bounded "resend").
    /// A receiver that gives up on an exchange drops the entries it never
    /// claimed and leaves an [`Abandoned`] tombstone for each sender that
    /// has not posted yet, so a late send retains nothing. Revoking a
    /// context drops all of its entries, and sends on a revoked context
    /// retain nothing.
    pub retx: Mutex<RetxStore>,
}

/// Key: `(ctx, tag, gsrc, gdst)`; value: the sender's clean payload, or an
/// [`Abandoned`] tombstone.
pub type RetxStore = HashMap<(u64, u64, usize, usize), Box<dyn Any + Send>>;

/// Retransmission-store tombstone: the receiver abandoned this message's
/// exchange before the sender posted it. The sender's post consumes the
/// tombstone instead of retaining its payload; a sender that never posts
/// (it died) leaves the tombstone until its context is revoked.
pub(crate) struct Abandoned;

/// Death record of one rank.
#[derive(Clone, Debug)]
pub(crate) struct Departed {
    pub epoch: u64,
    #[allow(dead_code)]
    pub message: String,
}

impl Shared {
    fn new(size: usize, chaos: Option<ChaosEngine>, resilient: bool) -> Arc<Self> {
        let mut tx: Vec<Vec<Sender<Packet>>> = (0..size).map(|_| Vec::new()).collect();
        let mut rx: Vec<Vec<Mutex<Receiver<Packet>>>> = (0..size).map(|_| Vec::new()).collect();
        // Channel (src, dst): sender stored under src, receiver under dst.
        let mut receivers: Vec<Vec<Option<Mutex<Receiver<Packet>>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for src in 0..size {
            for row in receivers.iter_mut() {
                let (s, r) = unbounded();
                tx[src].push(s);
                row[src] = Some(Mutex::new(r));
            }
        }
        for (dst, row) in receivers.into_iter().enumerate() {
            rx[dst] = row.into_iter().map(|o| o.expect("channel built")).collect();
        }
        let pending = (0..size)
            .map(|_| (0..size).map(|_| Mutex::new(VecDeque::new())).collect())
            .collect();
        let held = (0..size)
            .map(|_| (0..size).map(|_| Mutex::new(None)).collect())
            .collect();
        let dup_seen = (0..size).map(|_| Mutex::new(HashSet::new())).collect();
        Arc::new(Self {
            size,
            tx,
            rx,
            pending,
            chaos,
            held,
            dup_seen,
            next_uid: AtomicU64::new(1),
            failed: AtomicBool::new(false),
            failure: Mutex::new(None),
            resilient,
            coll_epoch: (0..size).map(|_| AtomicU64::new(0)).collect(),
            departed: Mutex::new(BTreeMap::new()),
            revoked: Mutex::new(HashSet::new()),
            retx: Mutex::new(HashMap::new()),
        })
    }

    pub(crate) fn job_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    pub(crate) fn fail(&self, rank: usize, message: String) {
        self.fail_at(rank, message, None);
    }

    pub(crate) fn fail_at(&self, rank: usize, message: String, epoch: Option<u64>) {
        {
            let mut f = self.failure.lock();
            if f.is_none() {
                *f = Some((rank, message, epoch));
            }
        }
        self.failed.store(true, Ordering::Release);
    }

    fn take_failure(&self) -> Option<(usize, String, Option<u64>)> {
        self.failure.lock().take()
    }

    /// Record a rank's death without failing the job (resilient mode).
    /// First record per rank wins; pollers waiting on this rank bail out
    /// with a typed [`crate::CommError::RankFailed`].
    pub(crate) fn mark_departed(&self, rank: usize, epoch: u64, message: String) {
        self.departed
            .lock()
            .entry(rank)
            .or_insert(Departed { epoch, message });
    }

    /// The epoch at which `rank` died, if it has.
    pub(crate) fn departed_epoch(&self, rank: usize) -> Option<u64> {
        self.departed.lock().get(&rank).map(|d| d.epoch)
    }

    /// Mark a communicator context revoked. Its collectives are abandoned,
    /// so payloads retained for their retransmission are dropped too.
    pub(crate) fn revoke_ctx(&self, ctx: u64) {
        self.revoked.lock().insert(ctx);
        self.retx.lock().retain(|k, _| k.0 != ctx);
    }

    /// True when `ctx` has been revoked.
    pub(crate) fn ctx_revoked(&self, ctx: u64) -> bool {
        self.revoked.lock().contains(&ctx)
    }

    /// The lowest-ranked dead rank, as `(global rank, epoch)`, if any.
    pub(crate) fn first_departed(&self) -> Option<(usize, u64)> {
        self.departed
            .lock()
            .iter()
            .next()
            .map(|(&r, d)| (r, d.epoch))
    }

    /// Snapshot of every dead rank as `(global rank, epoch)`, sorted.
    pub(crate) fn departed_snapshot(&self) -> Vec<(usize, u64)> {
        self.departed
            .lock()
            .iter()
            .map(|(&r, d)| (r, d.epoch))
            .collect()
    }

    /// Duplicate filter applied to every packet pulled off a channel or the
    /// held-packet stash. Returns `None` when the packet is a chaos duplicate
    /// that was already delivered.
    pub(crate) fn ingest(&self, gdst: usize, pkt: Packet) -> Option<Packet> {
        if pkt.dup && !self.dup_seen[gdst].lock().insert(pkt.uid) {
            return None;
        }
        Some(pkt)
    }

    /// Release a reorder-held packet on edge (gsrc → gdst) straight into the
    /// pending queue. Called by receivers before blocking, so a held packet
    /// whose edge sees no further sends is never lost.
    pub(crate) fn flush_held(&self, gsrc: usize, gdst: usize) {
        if self.chaos.is_none() {
            return;
        }
        let pkt = self.held[gsrc][gdst].lock().take();
        if let Some(pkt) = pkt {
            if let Some(pkt) = self.ingest(gdst, pkt) {
                self.pending[gdst][gsrc].lock().push_back(pkt);
            }
        }
    }
}

/// A chaos job ended because a rank died (injected crash or genuine panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniverseError {
    /// Global rank that failed first.
    pub rank: usize,
    /// Its panic message.
    pub message: String,
    /// The collective epoch (per-rank collective call count) the crash
    /// interrupted, when the death happened at a collective boundary —
    /// `FaultPlan::at(k)` crash injection dies at epoch `k`, so tests can
    /// assert recovery resumed from the right step.
    pub epoch: Option<u64>,
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.epoch {
            Some(e) => write!(
                f,
                "rank {} failed at collective epoch {e}: {}",
                self.rank, self.message
            ),
            None => write!(f, "rank {} failed: {}", self.rank, self.message),
        }
    }
}

impl std::error::Error for UniverseError {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Entry point: spawn `size` ranks, run `f` on each, return the results in
/// rank order. Panics in any rank propagate (the whole job aborts), like an
/// MPI error with `MPI_ERRORS_ARE_FATAL`.
pub struct Universe;

impl Universe {
    pub fn run<F, R>(size: usize, f: F) -> Vec<R>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        match Self::run_inner(size, None, false, f) {
            Ok(v) => v.into_iter().map(|r| r.expect("rank result")).collect(),
            Err(e) => panic!("rank panicked: {e}"),
        }
    }

    /// Like [`Universe::run`], but with a fault-injection engine threaded
    /// through the whole job, and rank death (injected crash or genuine
    /// panic) surfaced as a typed [`UniverseError`] instead of a panic.
    /// Surviving ranks notice the failure through their recv polling loops
    /// (typed `CommError::PeerFailed`) rather than hanging.
    pub fn run_chaos<F, R>(size: usize, chaos: ChaosEngine, f: F) -> Result<Vec<R>, UniverseError>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(size, Some(chaos), false, f)
            .map(|v| v.into_iter().map(|r| r.expect("rank result")).collect())
    }

    /// ULFM-style resilient job: a rank that dies (injected crash or
    /// genuine panic) is marked *departed* instead of failing the job.
    /// Survivors observe the death as a typed
    /// [`crate::CommError::RankFailed`] from their pending receives, can
    /// [`Communicator::agree_on_failures`] and
    /// [`Communicator::shrink`], and keep running; the dead rank's slot in
    /// the result vector is `None`. `Err` is reserved for job-fatal
    /// aborts (e.g. a collective-verification mismatch).
    pub fn run_resilient<F, R>(
        size: usize,
        chaos: ChaosEngine,
        f: F,
    ) -> Result<Vec<Option<R>>, UniverseError>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        Self::run_inner(size, Some(chaos), true, f)
    }

    fn run_inner<F, R>(
        size: usize,
        chaos: Option<ChaosEngine>,
        resilient: bool,
        f: F,
    ) -> Result<Vec<Option<R>>, UniverseError>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        assert!(size > 0, "universe must have at least one rank");
        let shared = Shared::new(size, chaos, resilient);
        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, slot) in results.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                handles.push(scope.spawn(move || {
                    let comm = Communicator::world(Arc::clone(&shared), rank);
                    match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                        Ok(r) => *slot = Some(r),
                        Err(payload) => {
                            let msg = panic_message(payload);
                            if shared.resilient {
                                // Survivable: record the death (idempotent —
                                // an injected crash already did) so peers'
                                // receives turn into typed RankFailed.
                                let epoch = shared.coll_epoch[rank].load(Ordering::Relaxed);
                                shared.mark_departed(rank, epoch, msg);
                            } else {
                                shared.fail(rank, msg);
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("rank thread join");
            }
        });
        if let Some((rank, message, epoch)) = shared.take_failure() {
            return Err(UniverseError {
                rank,
                message,
                epoch,
            });
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn rank_panic_aborts_the_job() {
        let _ = Universe::run(3, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure in rank 1");
            }
            comm.rank()
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_universe_rejected() {
        let _ = Universe::run(0, |_| 0);
    }

    #[test]
    fn run_chaos_reports_first_failure() {
        let out = Universe::run_chaos(2, ChaosEngine::disabled(), |comm| {
            if comm.rank() == 0 {
                panic!("boom in rank 0");
            }
            comm.rank()
        });
        let err = out.expect_err("job must fail");
        assert_eq!(err.rank, 0);
        assert!(err.message.contains("boom"), "got: {}", err.message);
    }

    #[test]
    fn resilient_rank_death_leaves_none_slot() {
        let out = Universe::run_resilient(3, ChaosEngine::disabled(), |comm| {
            if comm.rank() == 2 {
                panic!("genuine failure in rank 2");
            }
            comm.rank() * 3
        })
        .expect("resilient job does not abort");
        assert_eq!(out, vec![Some(0), Some(3), None]);
    }

    #[test]
    fn run_chaos_happy_path_matches_run() {
        let out = Universe::run_chaos(3, ChaosEngine::disabled(), |comm| comm.rank() * 2)
            .expect("no faults injected");
        assert_eq!(out, vec![0, 2, 4]);
    }
}
