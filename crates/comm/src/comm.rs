//! The [`Communicator`]: ranks, point-to-point messaging with tag matching,
//! and communicator splitting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psdns_chaos::FaultKind;
use psdns_sync::channel::RecvTimeoutError;

use crate::universe::{Abandoned, Packet, Shared};

/// Errors surfaced by the messaging layer. Most misuse (wrong buffer sizes,
/// rank out of range) panics like an MPI abort; these are the recoverable
/// cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A message with the right (ctx, tag) arrived with an unexpected
    /// element type.
    TypeMismatch { src: usize, tag: u64 },
    /// A deadline-aware receive gave up: the message from `src` did not
    /// arrive within the watchdog window (hung exchange, stalled peer).
    Timeout {
        src: usize,
        tag: u64,
        waited_ms: u64,
    },
    /// The peer rank died (injected crash or genuine panic) while we were
    /// waiting for its message.
    PeerFailed { src: usize },
    /// A specific rank died in a resilient job ([`crate::Universe::
    /// run_resilient`]): `rank` is the *global* rank and `epoch` the
    /// per-rank collective call count at which it went down. Unlike
    /// [`CommError::PeerFailed`], the job is still alive — survivors can
    /// [`Communicator::agree_on_failures`], [`Communicator::shrink`] and
    /// continue (the ULFM revoke/shrink/agree shape).
    RankFailed { rank: usize, epoch: u64 },
    /// An ABFT-checksummed payload from `rank` failed verification in
    /// `block` (of [`crate::AbftData`]-element blocks) and every bounded
    /// retransmission under the [`crate::RetryPolicy`] failed too — the
    /// silent-data-corruption analogue of an unrecoverable network error.
    /// Single flips never reach here: the first clean resend heals them.
    Corrupted { rank: usize, block: usize },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::TypeMismatch { src, tag } => {
                write!(f, "type mismatch in message from rank {src} tag {tag}")
            }
            CommError::Timeout {
                src,
                tag,
                waited_ms,
            } => write!(
                f,
                "timed out after {waited_ms} ms waiting for message from rank {src} tag {tag}"
            ),
            CommError::PeerFailed { src } => {
                write!(f, "peer rank {src} failed while a receive was outstanding")
            }
            CommError::RankFailed { rank, epoch } => {
                write!(f, "rank {rank} failed at collective epoch {epoch}")
            }
            CommError::Corrupted { rank, block } => write!(
                f,
                "payload from rank {rank} corrupted in block {block}: checksum mismatch persisted through retransmission"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Base tag for internal collective sequencing; user tags must be below it.
pub(crate) const COLL_TAG_BASE: u64 = 1 << 32;

/// Tag namespace of the failure-agreement protocol
/// ([`Communicator::agree_on_failures`]); disjoint from user, collective and
/// verifier tags.
pub(crate) const AGREE_TAG_BASE: u64 = 1 << 34;

/// Tag namespace for runtime-internal system messages (diskless buddy
/// checkpoint replication); disjoint from everything else.
pub(crate) const SYSTEM_TAG_BASE: u64 = 1 << 35;

/// Rounds of the agreement exchange. Chaos-injected crashes fire only at
/// collective boundaries and agreement is pure point-to-point, so membership
/// is fixed while a round runs; two rounds make every discovery (including a
/// rank that died *entering* agreement) symmetric across survivors.
const AGREE_ROUNDS: u64 = 2;

/// Poll period of deadline-aware / failure-aware receive loops. Fault-free
/// jobs (no chaos engine, no deadline) never poll — they block on the
/// channel exactly as before.
const RECV_POLL: Duration = Duration::from_millis(2);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The adaptive a2a watchdog is the shared [`psdns_chaos::AdaptiveWatchdog`]
/// (one watchdog-floor policy serves the comm *and* device layers); this
/// re-export keeps the historical `psdns_comm::AdaptiveWatchdog` path alive.
pub use psdns_chaos::AdaptiveWatchdog;

/// An MPI-style communicator: a set of ranks that can exchange point-to-point
/// messages and participate in collectives. Cheap to clone (all state is
/// behind `Arc`s / atomics shared among the clones of *this rank's* handle).
pub struct Communicator {
    pub(crate) shared: Arc<Shared>,
    /// Context id separating message namespaces of different communicators.
    pub(crate) ctx: u64,
    /// This rank within the communicator.
    pub(crate) rank: usize,
    /// Global (universe) rank for each communicator rank.
    pub(crate) members: Arc<Vec<usize>>,
    /// Collective sequence number; kept in lockstep across ranks because
    /// collectives must be called in the same order by every rank.
    pub(crate) coll_seq: Arc<AtomicU64>,
    /// Sequence number for `split` calls, part of child ctx derivation.
    pub(crate) split_seq: Arc<AtomicU64>,
    /// Sequence number for `agree_on_failures` calls; survivors call agree
    /// in lockstep, so this stays identical across ranks and keeps the
    /// agreement tag space collision-free across repeated recoveries.
    pub(crate) agree_seq: Arc<AtomicU64>,
    /// Optional per-rank trace handle; all-to-alls record spans and byte
    /// counters on it when attached.
    pub(crate) tracer: Option<psdns_trace::Tracer>,
    /// Watchdog deadline applied by [`crate::Request::wait_watchdog`]; `None`
    /// means wait forever (the pre-chaos behavior).
    pub(crate) a2a_deadline: Option<Duration>,
    /// Adaptive watchdog; when set it takes precedence over the fixed
    /// `a2a_deadline`, with the fixed value acting only through the floor
    /// passed at construction.
    pub(crate) a2a_adaptive: Option<AdaptiveWatchdog>,
    /// Optional collective-matching verifier; when attached, every primitive
    /// collective is preceded by a cross-rank fingerprint check.
    pub(crate) verifier: Option<crate::verify::VerifierState>,
    /// Optional global-ordering recorder (bound to this rank's *global*
    /// rank); collectives and request waits log [`psdns_analyze::RankOp`]s
    /// for the cross-rank deadlock analyzer.
    pub(crate) recorder: Option<psdns_analyze::RankRecorder>,
    /// ABFT checksumming of collective payloads (see
    /// [`Communicator::set_abft_checksums`]). Off by default — the healthy
    /// path pays nothing unless integrity is armed.
    pub(crate) abft: bool,
}

impl Communicator {
    pub(crate) fn world(shared: Arc<Shared>, rank: usize) -> Self {
        let size = shared.size;
        Self {
            shared,
            ctx: 0,
            rank,
            members: Arc::new((0..size).collect()),
            coll_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            tracer: None,
            a2a_deadline: None,
            a2a_adaptive: None,
            verifier: None,
            recorder: None,
            abft: false,
        }
    }

    /// Arm (or disarm) ABFT checksums on this rank's collectives: every
    /// `alltoall`/`allgather`-family payload then carries a per-block
    /// checksum sidecar, verified on receipt. A mismatch triggers a bounded
    /// retransmission of the sender's retained clean payload under the
    /// chaos [`crate::RetryPolicy`]; exhaustion surfaces as a typed
    /// [`CommError::Corrupted`]. Arm it on *every* rank of the
    /// communicator (like any collective contract); clones, splits and
    /// shrinks inherit the setting.
    pub fn set_abft_checksums(&mut self, on: bool) {
        self.abft = on;
    }

    /// True when ABFT collective checksums are armed on this handle.
    pub fn abft_checksums(&self) -> bool {
        self.abft
    }

    /// Attach a [`psdns_analyze::GlobalRecorder`]: this rank's collectives
    /// (posts) and request waits (with their deadline bit) are logged under
    /// its global rank for [`psdns_analyze::analyze_global`]. Clones,
    /// [`Communicator::split`] children and [`Communicator::shrink`]
    /// survivors inherit the recorder — the global rank never changes.
    pub fn set_global_recorder(&mut self, hub: &psdns_analyze::GlobalRecorder) {
        self.recorder = Some(hub.rank(self.members[self.rank]));
    }

    /// The attached global-ordering recorder, if any.
    pub fn global_recorder(&self) -> Option<&psdns_analyze::RankRecorder> {
        self.recorder.as_ref()
    }

    /// Log a collective post (global ranks, fingerprint identity) for the
    /// cross-rank analyzer. `tag` is the value [`Self::next_coll_tag`]
    /// returned for this collective.
    pub(crate) fn record_post(
        &self,
        kind: psdns_analyze::CollectiveKind,
        tag: u64,
        blocking: bool,
    ) {
        if let Some(rec) = &self.recorder {
            rec.post(self.ctx, tag - COLL_TAG_BASE, kind, &self.members, blocking);
        }
    }

    /// Log the completion wait of a nonblocking collective; `deadline` says
    /// whether a watchdog bounds it (the unbounded form is what the
    /// analyzer's `UnboundedWait` lint flags).
    pub(crate) fn record_wait(&self, tag: u64, deadline: bool) {
        if let Some(rec) = &self.recorder {
            rec.wait_collective(self.ctx, tag - COLL_TAG_BASE, deadline);
        }
    }

    /// Attach a tracer; subsequent `alltoall`/`ialltoall`/`wait` calls on this
    /// handle (and its clones) record [`psdns_trace::SpanKind::A2aPost`] /
    /// [`psdns_trace::SpanKind::A2aWait`] spans plus network byte counters,
    /// attributed to this communicator's rank.
    pub fn set_tracer(&mut self, tracer: &psdns_trace::Tracer) {
        self.tracer = Some(tracer.for_rank(self.rank));
    }

    /// The attached per-rank tracer, if any.
    pub fn tracer(&self) -> Option<&psdns_trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Configure the all-to-all watchdog: [`crate::Request::wait_watchdog`]
    /// converts an exchange that has not completed within `deadline` into a
    /// typed [`CommError::Timeout`] instead of blocking forever.
    pub fn set_a2a_watchdog(&mut self, deadline: Option<Duration>) {
        self.a2a_deadline = deadline;
    }

    /// The configured all-to-all watchdog deadline, if any.
    pub fn a2a_watchdog(&self) -> Option<Duration> {
        self.a2a_deadline
    }

    /// Enable the adaptive a2a watchdog: the deadline becomes `max(floor,
    /// factor × p99)` over a rolling window of observed exchange latencies
    /// (see [`AdaptiveWatchdog`]). Takes precedence over the fixed watchdog
    /// in [`crate::Request::wait_watchdog`]; the fixed deadline is a natural
    /// choice of `floor`.
    pub fn set_adaptive_a2a_watchdog(&mut self, floor: Duration, factor: u32) {
        self.a2a_adaptive = Some(AdaptiveWatchdog::new(floor, factor));
    }

    /// The adaptive watchdog, if enabled.
    pub fn adaptive_a2a_watchdog(&self) -> Option<&AdaptiveWatchdog> {
        self.a2a_adaptive.as_ref()
    }

    /// True when this job runs under [`crate::Universe::run_resilient`]:
    /// rank death is survivable and surfaces as
    /// [`CommError::RankFailed`] rather than tearing the job down.
    pub fn resilient(&self) -> bool {
        self.shared.resilient
    }

    /// Failure-detector read: every rank known dead, as sorted
    /// `(global rank, collective epoch at death)` pairs. This is each
    /// rank's *local view*; run [`Communicator::agree_on_failures`] before
    /// acting on it so all survivors shrink over the same set.
    pub fn departed(&self) -> Vec<(usize, u64)> {
        self.shared.departed_snapshot()
    }

    /// Logical heartbeat of a global rank: its collective-epoch counter.
    /// A rank whose heartbeat stops advancing while its peers' grow is
    /// stalled or dead. Logical (not wall-clock) so chaos runs stay
    /// seed-deterministic.
    pub fn heartbeat(&self, grank: usize) -> u64 {
        self.shared.coll_epoch[grank].load(Ordering::Relaxed)
    }

    /// The fault-injection engine of this job, when running under
    /// [`crate::Universe::run_chaos`].
    pub fn chaos(&self) -> Option<&psdns_chaos::ChaosEngine> {
        self.shared.chaos.as_ref()
    }

    /// Rank of the caller within this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global (universe) rank of a communicator rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    pub(crate) fn next_coll_tag(&self) -> u64 {
        let grank = self.members[self.rank];
        // The collective-epoch counter advances exactly once per collective
        // call, in lockstep with the chaos crash counter below — so
        // `FaultPlan::at(k)` means "die at collective epoch k" and the
        // reported epoch identifies which collective the crash interrupted.
        let epoch = self.shared.coll_epoch[grank].fetch_add(1, Ordering::Relaxed);
        if let Some(ch) = &self.shared.chaos {
            if ch.rank_crash(grank) {
                let msg =
                    format!("chaos: injected crash on rank {grank} at collective epoch {epoch}");
                if self.shared.resilient {
                    // Survivable death: record it *before* panicking so
                    // peers' receives turn into typed RankFailed promptly.
                    self.shared.mark_departed(grank, epoch, msg.clone());
                } else {
                    // Mark the job failed before dying so peers blocked in
                    // polling receives bail out promptly with PeerFailed.
                    self.shared.fail_at(grank, msg.clone(), Some(epoch));
                }
                panic!("{msg}");
            }
        }
        COLL_TAG_BASE + self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Send `data` to `dst` with `tag`. Buffered and non-blocking in the MPI
    /// `MPI_Bsend` sense: always returns immediately.
    pub fn send<T: Clone + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(tag < COLL_TAG_BASE, "user tags must be < 2^32");
        self.send_raw(dst, tag, data);
    }

    pub(crate) fn send_raw<T: Clone + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send_packet(dst, tag, data, None);
    }

    /// Checksummed collective send: computes the ABFT sidecar, retains the
    /// clean payload for retransmission, then exposes the in-flight payload
    /// to seeded bit-flip injection (site `flip:{gsrc}->{gdst}`). The flip
    /// happens strictly *after* the sidecar is computed, so any transit
    /// corruption is detectable on receipt.
    ///
    /// The packet and the retransmission store share one `Arc`'d buffer;
    /// only a flip that actually fires copies it (`Arc::make_mut`), so the
    /// healthy path retains without copying.
    pub(crate) fn send_coll<T: crate::AbftData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        if !self.abft {
            return self.send_raw(dst, tag, data);
        }
        assert!(dst < self.size(), "destination rank {dst} out of range");
        let gdst = self.members[dst];
        let gsrc = self.members[self.rank];
        let crcs = crate::abft::block_checksums(&data);
        let mut data = Arc::new(data);
        {
            // Nobody will claim a copy of a message whose receiver already
            // gave up on the exchange (its tombstone is here) or whose
            // context is revoked. Checking under the store's lock orders
            // this against both the receiver's tombstone and the revoke's
            // purge.
            let key = (self.ctx, tag, gsrc, gdst);
            let mut retx = self.shared.retx.lock();
            let abandoned = retx.get(&key).is_some_and(|e| e.is::<Abandoned>());
            if abandoned {
                retx.remove(&key);
            } else if !self.shared.ctx_revoked(self.ctx) {
                retx.insert(key, Box::new(Arc::clone(&data)));
            }
        }
        if let Some(ch) = &self.shared.chaos {
            let site = format!("flip:{gsrc}->{gdst}");
            if let Some(k) = ch.check_seq(gsrc, &site, FaultKind::BitFlip) {
                let draw = ch.draw(&site, FaultKind::BitFlip, k);
                crate::abft::flip_payload_bit(Arc::make_mut(&mut data).as_mut_slice(), draw);
            }
        }
        self.send_packet(dst, tag, data, Some(crcs));
    }

    /// Post one packet carrying `payload` (a `Vec<T>`, or an `Arc<Vec<T>>`
    /// on checksummed traffic) through the chaos transport.
    fn send_packet<P: Clone + Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        data: P,
        crcs: Option<Vec<u64>>,
    ) {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        let gdst = self.members[dst];
        let gsrc = self.members[self.rank];
        let Some(ch) = self.shared.chaos.clone() else {
            // Fault-free fast path: identical to the pre-chaos runtime.
            let pkt = Packet {
                ctx: self.ctx,
                tag,
                uid: 0,
                dup: false,
                crcs,
                payload: Box::new(data),
            };
            self.push_packet(gsrc, gdst, pkt);
            return;
        };
        let site = format!("msg:{gsrc}->{gdst}");
        // Drop fault: each transmission attempt may be lost; retry with
        // jittered exponential backoff up to the policy bound. If every
        // attempt is lost the message is genuinely gone — the receiver's
        // watchdog turns that into a typed Timeout.
        let policy = ch.retry();
        let salt = psdns_chaos::site_salt(&site);
        let mut lost = true;
        for attempt in 0..=policy.max_retries {
            if !ch.check(gsrc, &site, FaultKind::Drop) {
                lost = false;
                break;
            }
            if attempt < policy.max_retries {
                std::thread::sleep(policy.backoff_for(attempt, salt));
            }
        }
        if lost {
            return;
        }
        if ch.check(gsrc, &site, FaultKind::Delay) {
            std::thread::sleep(ch.delay_duration());
        }
        let dup = ch.check(gsrc, &site, FaultKind::Duplicate);
        let uid = self.shared.next_uid.fetch_add(1, Ordering::Relaxed);
        let copy = dup.then(|| Packet {
            ctx: self.ctx,
            tag,
            uid,
            dup,
            crcs: crcs.clone(),
            payload: Box::new(data.clone()),
        });
        let pkt = Packet {
            ctx: self.ctx,
            tag,
            uid,
            dup,
            crcs,
            payload: Box::new(data),
        };
        if ch.check(gsrc, &site, FaultKind::Reorder) {
            // Stash this packet; it is released *after* the next send on
            // this edge (or rescued by the receiver before it blocks), so
            // two consecutive messages genuinely swap arrival order.
            let prev = self.shared.held[gsrc][gdst].lock().replace(pkt);
            if let Some(p) = prev {
                self.push_packet(gsrc, gdst, p);
            }
        } else {
            self.push_packet(gsrc, gdst, pkt);
            let held = self.shared.held[gsrc][gdst].lock().take();
            if let Some(p) = held {
                self.push_packet(gsrc, gdst, p);
            }
        }
        if let Some(p) = copy {
            self.push_packet(gsrc, gdst, p);
        }
    }

    fn push_packet(&self, gsrc: usize, gdst: usize, pkt: Packet) {
        // The receiver ends of all channels live in `Shared`, which outlives
        // every rank thread, so a send can only fail if the whole job is
        // being torn down — at which point nobody observes the loss.
        let _ = self.shared.tx[gsrc][gdst].send(pkt);
    }

    /// Blocking receive of a message from `src` with `tag`. FIFO order is
    /// preserved per (src, ctx, tag).
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        assert!(tag < COLL_TAG_BASE, "user tags must be < 2^32");
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        match self.recv_match_deadline(src, tag, None) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Receive with an optional absolute deadline. With `deadline == None`
    /// and no chaos engine this blocks exactly like the pre-chaos runtime;
    /// otherwise it polls so it can notice deadline expiry, peer death, and
    /// reorder-held packets.
    pub(crate) fn recv_match_deadline<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError> {
        downcast(self.recv_match_packet(src, tag, deadline)?, src, tag)
    }

    /// Like [`Self::recv_match_deadline`] but returns the matched packet
    /// itself, ABFT sidecar and untyped payload included.
    fn recv_match_packet(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Packet, CommError> {
        assert!(src < self.size(), "source rank {src} out of range");
        let gsrc = self.members[src];
        let gme = self.members[self.rank];
        let start = Instant::now();
        let polled = self.shared.chaos.is_some() || deadline.is_some();
        loop {
            self.shared.flush_held(gsrc, gme);
            // Scan messages that arrived earlier but did not match then.
            {
                let mut pend = self.shared.pending[gme][gsrc].lock();
                if let Some(pos) = pend.iter().position(|p| p.ctx == self.ctx && p.tag == tag) {
                    let pkt = pend.remove(pos).expect("position valid");
                    return Ok(pkt);
                }
            }
            // Pull from the channel (blocking or polling).
            let got = {
                let rx = self.shared.rx[gme][gsrc].lock();
                if polled {
                    let mut wait = RECV_POLL;
                    if let Some(d) = deadline {
                        let now = Instant::now();
                        if now >= d {
                            return Err(CommError::Timeout {
                                src,
                                tag,
                                waited_ms: start.elapsed().as_millis() as u64,
                            });
                        }
                        wait = wait.min(d - now);
                    }
                    match rx.recv_timeout(wait) {
                        Ok(p) => Some(p),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::PeerFailed { src })
                        }
                    }
                } else {
                    match rx.recv() {
                        Ok(p) => Some(p),
                        Err(_) => return Err(CommError::PeerFailed { src }),
                    }
                }
            };
            match got {
                Some(pkt) => {
                    if let Some(pkt) = self.shared.ingest(gme, pkt) {
                        if pkt.ctx == self.ctx && pkt.tag == tag {
                            return Ok(pkt);
                        }
                        self.shared.pending[gme][gsrc].lock().push_back(pkt);
                    }
                }
                None => {
                    if self.shared.job_failed() {
                        return Err(CommError::PeerFailed { src });
                    }
                    // Revocation check (ULFM revoke semantics): once a
                    // survivor revoked this communicator, ordinary traffic
                    // on it fails so ranks stuck in an abandoned collective
                    // escape and can join the agreement. Agreement/system
                    // tags are exempt — they must keep working on a revoked
                    // communicator, exactly like ULFM's agree/shrink.
                    if tag < AGREE_TAG_BASE && self.shared.ctx_revoked(self.ctx) {
                        if let Some((rank, epoch)) = self.shared.first_departed() {
                            return Err(CommError::RankFailed { rank, epoch });
                        }
                    }
                    if let Some(epoch) = self.shared.departed_epoch(gsrc) {
                        // The peer is dead, but messages it sent before
                        // dying are still valid: drain the channel fully
                        // into pending, then do one final match. Only when
                        // nothing matches is the message truly never coming.
                        loop {
                            let pkt = {
                                let rx = self.shared.rx[gme][gsrc].lock();
                                match rx.try_recv() {
                                    Ok(p) => p,
                                    Err(_) => break,
                                }
                            };
                            if let Some(pkt) = self.shared.ingest(gme, pkt) {
                                self.shared.pending[gme][gsrc].lock().push_back(pkt);
                            }
                        }
                        self.shared.flush_held(gsrc, gme);
                        let mut pend = self.shared.pending[gme][gsrc].lock();
                        if let Some(pos) =
                            pend.iter().position(|p| p.ctx == self.ctx && p.tag == tag)
                        {
                            let pkt = pend.remove(pos).expect("position valid");
                            drop(pend);
                            return Ok(pkt);
                        }
                        return Err(CommError::RankFailed { rank: gsrc, epoch });
                    }
                }
            }
        }
    }

    /// Verified collective receive: blocks like [`Self::recv_raw`], then
    /// checks the ABFT sidecar (when present) and heals corruption by
    /// bounded retransmission. Panics on unrecoverable errors, like
    /// `recv_raw` — the typed path is [`Self::recv_coll_deadline`].
    pub(crate) fn recv_coll<T: crate::AbftData>(&self, src: usize, tag: u64) -> Vec<T> {
        match self.recv_coll_deadline(src, tag, None) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Verified collective receive with an optional deadline. On a checksum
    /// mismatch the receiver pulls the sender's retained clean payload from
    /// the retransmission store — itself exposed to seeded bit-flip
    /// injection at site `retx:{gsrc}->{gme}`, so a persistently corrupt
    /// link stays representable — up to `RetryPolicy::max_retries` times;
    /// exhaustion yields a typed [`CommError::Corrupted`]. A caller that
    /// gives up on the exchange after an error calls
    /// [`Self::abandon_coll`].
    pub(crate) fn recv_coll_deadline<T: crate::AbftData>(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError> {
        let mut pkt = self.recv_match_packet(src, tag, deadline)?;
        let Some(crcs) = pkt.crcs.take() else {
            return downcast(pkt, src, tag);
        };
        let mut data = *pkt
            .payload
            .downcast::<Arc<Vec<T>>>()
            .map_err(|_| CommError::TypeMismatch { src, tag })?;
        let gsrc = self.members[src];
        let gme = self.members[self.rank];
        let key = (self.ctx, tag, gsrc, gme);
        let policy = self
            .shared
            .chaos
            .as_ref()
            .map(|c| c.retry())
            .unwrap_or_default();
        let mut attempt = 0u32;
        loop {
            let Some(block) = crate::abft::first_corrupt_block(&data, &crcs) else {
                // Drop the store's reference first: on the healthy path the
                // packet's is then the only one left, so ownership moves out
                // without a copy.
                self.shared.retx.lock().remove(&key);
                return Ok(Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()));
            };
            if let Some(t) = &self.tracer {
                t.incr_faults();
            }
            if attempt >= policy.max_retries {
                return Err(CommError::Corrupted { rank: src, block });
            }
            // "Retransmit": resend the sender's whole clean payload. A
            // missing or mistyped entry means the store itself was damaged
            // — treat it as unrecoverable corruption.
            data = {
                let retx = self.shared.retx.lock();
                let Some(clean) = retx.get(&key).and_then(|b| b.downcast_ref::<Arc<Vec<T>>>())
                else {
                    return Err(CommError::Corrupted { rank: src, block });
                };
                Arc::clone(clean)
            };
            if let Some(ch) = &self.shared.chaos {
                let site = format!("retx:{gsrc}->{gme}");
                if let Some(k) = ch.check_seq(gme, &site, FaultKind::BitFlip) {
                    let draw = ch.draw(&site, FaultKind::BitFlip, k);
                    crate::abft::flip_payload_bit(Arc::make_mut(&mut data).as_mut_slice(), draw);
                }
            }
            attempt += 1;
        }
    }

    /// Give up on checksummed exchange `tag` for sources `first..` (the
    /// ones a failed fan-in never claimed). Nobody would claim what those
    /// senders retained for this rank, so it is dropped; a sender that has
    /// not posted yet finds an [`Abandoned`] tombstone instead and retains
    /// nothing. A revoked context needs no tombstones, since its sends
    /// retain nothing.
    pub(crate) fn abandon_coll(&self, tag: u64, first: usize) {
        if !self.abft {
            return;
        }
        let gme = self.members[self.rank];
        let mut retx = self.shared.retx.lock();
        let revoked = self.shared.ctx_revoked(self.ctx);
        for &gsrc in &self.members[first..] {
            let key = (self.ctx, tag, gsrc, gme);
            if retx.remove(&key).is_none() && !revoked {
                retx.insert(key, Box::new(Abandoned));
            }
        }
    }

    /// Non-blocking probe: returns a matching message if one has already
    /// arrived from `src` with `tag`, without blocking.
    pub fn try_recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Option<Vec<T>> {
        assert!(src < self.size());
        let gsrc = self.members[src];
        let gme = self.members[self.rank];
        self.shared.flush_held(gsrc, gme);
        {
            let mut pend = self.shared.pending[gme][gsrc].lock();
            if let Some(pos) = pend.iter().position(|p| p.ctx == self.ctx && p.tag == tag) {
                let pkt = pend.remove(pos).expect("position valid");
                return downcast(pkt, src, tag).ok();
            }
        }
        loop {
            let pkt = {
                let rx = self.shared.rx[gme][gsrc].lock();
                match rx.try_recv() {
                    Ok(p) => p,
                    Err(_) => return None,
                }
            };
            let Some(pkt) = self.shared.ingest(gme, pkt) else {
                continue;
            };
            if pkt.ctx == self.ctx && pkt.tag == tag {
                return downcast(pkt, src, tag).ok();
            }
            self.shared.pending[gme][gsrc].lock().push_back(pkt);
        }
    }

    /// Combined send+receive, deadlock-free for pairwise exchanges.
    pub fn sendrecv<T: Clone + Send + 'static>(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        data: &[T],
    ) -> Vec<T> {
        self.send(dst, tag, data.to_vec());
        self.recv(src, tag)
    }

    /// Revoke this communicator, the analogue of ULFM's `MPI_Comm_revoke`:
    /// once any rank has detected a failure, ordinary receives on this
    /// communicator return [`CommError::RankFailed`] on every rank instead
    /// of blocking — necessary because rooted collectives (barrier, bcast)
    /// hide a non-root death from the other non-root ranks, which would
    /// otherwise wait forever on a root that already abandoned the
    /// collective. Agreement and system traffic keeps working on a revoked
    /// communicator. Called implicitly by
    /// [`Communicator::agree_on_failures`].
    pub fn revoke(&self) {
        self.shared.revoke_ctx(self.ctx);
    }

    /// Deterministic agreement on the failed-rank set, the analogue of
    /// ULFM's `MPI_Comm_agree`: every survivor returns the *same* sorted
    /// `(global rank, epoch-at-death)` list, so the subsequent
    /// [`Communicator::shrink`] is purely local and still produces
    /// identical communicators on every survivor.
    ///
    /// Protocol: [`AGREE_ROUNDS`] rounds of complete view exchange among
    /// the ranks each survivor currently believes alive. Views only grow
    /// (deaths are monotone), a dead peer's silence itself surfaces as
    /// [`CommError::RankFailed`] and merges into the view, and because
    /// chaos crashes fire only at collective boundaries (agreement is pure
    /// point-to-point) membership cannot change mid-protocol — two rounds
    /// make every view identical. A peer that is alive but unresponsive
    /// past `per_peer_deadline` yields a typed [`CommError::Timeout`];
    /// agreement never hangs.
    ///
    /// Survivors must call this collectively (same call count on each),
    /// like any collective.
    pub fn agree_on_failures(
        &self,
        per_peer_deadline: Duration,
    ) -> Result<Vec<(usize, u64)>, CommError> {
        // Revoke first (see [`Communicator::revoke`]): peers still stuck in
        // an abandoned collective on this communicator fail over to the
        // agreement instead of waiting on a rank that already bailed out.
        self.revoke();
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = &self.recorder {
            // Agreement is deadline-bounded point-to-point (it never hangs),
            // so it enters the global log as an annotation, not a wait.
            rec.note(&format!("agree_on_failures: seq {seq}"));
        }
        let gme = self.members[self.rank];
        let mut view: std::collections::BTreeMap<u64, u64> = self
            .shared
            .departed_snapshot()
            .into_iter()
            .map(|(r, e)| (r as u64, e))
            .collect();
        for round in 0..AGREE_ROUNDS {
            let tag = AGREE_TAG_BASE + seq * AGREE_ROUNDS + round;
            let alive: Vec<usize> = (0..self.size())
                .filter(|&r| !view.contains_key(&(self.members[r] as u64)))
                .collect();
            let payload: Vec<(u64, u64)> = view.iter().map(|(&r, &e)| (r, e)).collect();
            for &r in &alive {
                if self.members[r] != gme {
                    self.send_raw(r, tag, payload.clone());
                }
            }
            for &r in &alive {
                if self.members[r] == gme {
                    continue;
                }
                let deadline = Instant::now() + per_peer_deadline;
                match self.recv_match_deadline::<(u64, u64)>(r, tag, Some(deadline)) {
                    Ok(peer_view) => view.extend(peer_view),
                    Err(CommError::RankFailed { rank, epoch }) => {
                        // Discovered during the exchange itself; shared
                        // ground truth makes this symmetric across
                        // survivors.
                        view.insert(rank as u64, epoch);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(view.into_iter().map(|(r, e)| (r as usize, e)).collect())
    }

    /// Build the surviving communicator after agreement, the analogue of
    /// ULFM's `MPI_Comm_shrink`: drop `failed` ranks, re-rank survivors in
    /// ascending global-rank order, and derive a fresh context id from the
    /// agreed failure set. The fresh ctx isolates stale messages of the
    /// abandoned pre-failure communicator and gives collectives (and the
    /// attached [`crate::CollectiveVerifier`], if any) a clean namespace
    /// and fresh sequence counters — the "new epoch" of the recovery.
    ///
    /// Purely local: every survivor feeding in the same agreed list (see
    /// [`Communicator::agree_on_failures`]) builds an identical
    /// communicator without further messaging.
    pub fn shrink(&self, failed: &[(usize, u64)]) -> Communicator {
        let gme = self.members[self.rank];
        assert!(
            failed.iter().all(|&(r, _)| r != gme),
            "a failed rank cannot shrink"
        );
        let dead: std::collections::HashSet<usize> = failed.iter().map(|&(r, _)| r).collect();
        let members: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|r| !dead.contains(r))
            .collect();
        assert!(!members.is_empty(), "no survivors to shrink onto");
        let my_local = members
            .iter()
            .position(|&r| r == gme)
            .expect("survivor present in shrunken membership");
        // Chain the ctx through the agreed failure set: identical on every
        // survivor, distinct from the parent and from any earlier shrink.
        let mut ctx = splitmix64(self.ctx ^ 0x5348_5249_4E4B_4544); // "SHRINKED"
        for &(r, e) in failed {
            ctx = splitmix64(ctx ^ (r as u64) ^ e.rotate_left(17));
        }
        if let Some(rec) = &self.recorder {
            rec.note(&format!(
                "shrink: dropped {failed:?}, survivors {members:?}, new ctx {ctx:#x}"
            ));
        }
        Communicator {
            shared: Arc::clone(&self.shared),
            ctx,
            rank: my_local,
            members: Arc::new(members),
            coll_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            tracer: self.tracer.as_ref().map(|t| t.for_rank(my_local)),
            a2a_deadline: self.a2a_deadline,
            // Latencies observed on the old topology do not transfer.
            a2a_adaptive: self.a2a_adaptive.as_ref().map(|w| w.fresh()),
            verifier: self
                .verifier
                .as_ref()
                .map(|s| crate::verify::VerifierState::new(s.v.clone())),
            recorder: self.recorder.clone(),
            abft: self.abft,
        }
    }

    /// Send on the runtime-internal system tag namespace (buddy checkpoint
    /// replication). System messages never collide with user, collective,
    /// verifier or agreement traffic.
    pub fn send_system<T: Clone + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(tag < COLL_TAG_BASE, "system tags must be < 2^32");
        self.send_raw(dst, SYSTEM_TAG_BASE + tag, data);
    }

    /// Receive a system message; failure-aware — a dead sender surfaces as
    /// [`CommError::RankFailed`] (after draining anything it sent before
    /// dying) instead of blocking forever.
    pub fn recv_system<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, CommError> {
        assert!(tag < COLL_TAG_BASE, "system tags must be < 2^32");
        self.recv_match_deadline(src, SYSTEM_TAG_BASE + tag, None)
    }

    /// Partition this communicator into sub-communicators: ranks passing the
    /// same `color` end up together, ordered by `(key, parent rank)`.
    /// Equivalent to `MPI_Comm_split`.
    pub fn split(&self, color: usize, key: usize) -> Communicator {
        let seq = self.split_seq.fetch_add(1, Ordering::Relaxed);
        // Everyone learns everyone's (color, key).
        let mine = vec![(color, key, self.rank)];
        let all: Vec<(usize, usize, usize)> = self.allgather(&mine);
        let mut group: Vec<(usize, usize, usize)> =
            all.into_iter().filter(|&(c, _, _)| c == color).collect();
        group.sort_by_key(|&(_, k, r)| (k, r));
        let members: Vec<usize> = group.iter().map(|&(_, _, r)| self.members[r]).collect();
        let my_local = group
            .iter()
            .position(|&(_, _, r)| r == self.rank)
            .expect("caller must be in its own color group");
        // Deterministic child ctx: identical for all members, distinct across
        // (parent ctx, split call, color).
        let ctx = splitmix64(
            self.ctx
                ^ seq.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ (color as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        Communicator {
            shared: Arc::clone(&self.shared),
            ctx,
            rank: my_local,
            members: Arc::new(members),
            coll_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            // Re-attribute to the child rank so sub-communicator traffic
            // still lands on the right per-rank counters.
            tracer: self.tracer.as_ref().map(|t| t.for_rank(my_local)),
            a2a_deadline: self.a2a_deadline,
            a2a_adaptive: self.a2a_adaptive.as_ref().map(|w| w.fresh()),
            // Children inherit the verifier but count their own rounds.
            verifier: self
                .verifier
                .as_ref()
                .map(|s| crate::verify::VerifierState::new(s.v.clone())),
            recorder: self.recorder.clone(),
            abft: self.abft,
        }
    }
}

fn downcast<T: Send + 'static>(pkt: Packet, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
    pkt.payload
        .downcast::<Vec<T>>()
        .map(|b| *b)
        .map_err(|_| CommError::TypeMismatch { src, tag })
}

#[cfg(test)]
mod tests {
    use super::AdaptiveWatchdog;
    use crate::{CommError, Universe};
    use psdns_chaos::{ChaosConfig, ChaosEngine, FaultPlan};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn adaptive_watchdog_floor_and_p99() {
        let wd = AdaptiveWatchdog::new(Duration::from_millis(10), 5);
        assert_eq!(wd.deadline(), Duration::from_millis(10));
        for _ in 0..10 {
            wd.observe(Duration::from_millis(1));
        }
        // 5 × p99(1ms) = 5ms, below the floor.
        assert_eq!(wd.deadline(), Duration::from_millis(10));
        wd.observe(Duration::from_millis(100));
        assert_eq!(wd.deadline(), Duration::from_millis(500));
        assert_eq!(wd.observations(), 11);
    }

    #[test]
    fn departed_rank_messages_drain_before_rank_failed() {
        let mut cfg = ChaosConfig::new(3);
        cfg.crash = FaultPlan::at(0);
        cfg.crash_rank = Some(1);
        let out = Universe::run_resilient(2, ChaosEngine::new(cfg), |comm| {
            if comm.rank() == 1 {
                comm.send_system(0, 5, vec![42u8]);
                comm.barrier(); // dies here, at collective epoch 0
                0u8
            } else {
                // The message sent before death must still be delivered...
                let got = comm.recv_system::<u8>(1, 5).expect("pre-death message");
                assert_eq!(got, vec![42]);
                // ...and only a message that never comes turns into a
                // typed RankFailed naming the rank and its death epoch.
                let err = comm.recv_system::<u8>(1, 6).expect_err("rank 1 is dead");
                assert_eq!(err, CommError::RankFailed { rank: 1, epoch: 0 });
                got[0]
            }
        })
        .expect("resilient job survives the crash");
        assert_eq!(out[0], Some(42));
        assert_eq!(out[1], None);
    }

    #[test]
    fn resilient_crash_agree_shrink_continue() {
        let mut cfg = ChaosConfig::new(7);
        cfg.crash = FaultPlan::at(2);
        cfg.crash_rank = Some(1);
        let out = Universe::run_resilient(3, ChaosEngine::new(cfg), |comm| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..5 {
                    comm.barrier();
                }
            }));
            match r {
                Ok(()) => (comm.size(), 0u64),
                Err(_) => {
                    // Failure detector saw the death; all survivors must
                    // agree on the same (rank, epoch) set...
                    let failed = comm
                        .agree_on_failures(Duration::from_secs(5))
                        .expect("agreement converges");
                    assert_eq!(failed, vec![(1, 2)]);
                    assert!(comm.departed().contains(&(1, 2)));
                    // ...then shrink locally and keep computing.
                    let small = comm.shrink(&failed);
                    assert_eq!(small.size(), 2);
                    for _ in 0..3 {
                        small.barrier();
                    }
                    let sum: u64 = small.allgather(&[small.rank() as u64]).iter().sum();
                    (small.size(), sum)
                }
            }
        })
        .expect("resilient job survives the crash");
        assert_eq!(out[1], None);
        assert_eq!(out[0], Some((2, 1)));
        assert_eq!(out[2], Some((2, 1)));
    }

    #[test]
    fn second_crash_after_shrink_heals_again() {
        let mut cfg = ChaosConfig::new(11);
        cfg.crash = FaultPlan::at(2);
        cfg.crash_rank = Some(1);
        // Rank 2 dies later, while the once-shrunken communicator is
        // already back at work.
        cfg.extra_crashes.push((2, FaultPlan::at(4)));
        let out = Universe::run_resilient(3, ChaosEngine::new(cfg), |comm| {
            let mut cur = comm.clone();
            let mut heals = 0u32;
            loop {
                let c = cur.clone();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    for _ in 0..8 {
                        c.barrier();
                    }
                }));
                match r {
                    Ok(()) => return (cur.size(), heals),
                    Err(_) => {
                        let failed = cur
                            .agree_on_failures(Duration::from_secs(5))
                            .expect("agreement converges");
                        cur = cur.shrink(&failed);
                        heals += 1;
                    }
                }
            }
        })
        .expect("resilient job survives both crashes");
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
        assert_eq!(out[0], Some((1, 2)));
    }

    #[test]
    fn ring_exchange() {
        let out = Universe::run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![comm.rank() as u32]);
            let got = comm.recv::<u32>(prev, 7);
            got[0]
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1u8]);
                comm.send(1, 2, vec![2u8]);
                0
            } else {
                // Receive in reverse tag order: tag-2 message must be matched
                // even though tag-1 arrives first.
                let b = comm.recv::<u8>(0, 2);
                let a = comm.recv::<u8>(0, 1);
                (a[0] * 10 + b[0]) as usize
            }
        });
        assert_eq!(out[1], 12);
    }

    #[test]
    fn fifo_within_same_tag() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, 3, vec![i]);
                }
                vec![]
            } else {
                (0..10).map(|_| comm.recv::<u32>(0, 3)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn self_send() {
        let out = Universe::run(1, |comm| {
            comm.send(0, 9, vec![99u64]);
            comm.recv::<u64>(0, 9)[0]
        });
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 5, vec![7u8]);
                comm.barrier();
                true
            } else {
                let early = comm.try_recv::<u8>(0, 5);
                assert!(early.is_none());
                comm.barrier();
                comm.barrier();
                let late = comm.try_recv::<u8>(0, 5);
                late == Some(vec![7u8])
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn split_row_col() {
        // 6 ranks as a 2×3 grid: rows {0,1,2},{3,4,5}; cols {0,3},{1,4},{2,5}.
        let out = Universe::run(6, |comm| {
            let row = comm.rank() / 3;
            let col = comm.rank() % 3;
            let row_comm = comm.split(row, col);
            let col_comm = comm.split(col, row);
            assert_eq!(row_comm.size(), 3);
            assert_eq!(col_comm.size(), 2);
            assert_eq!(row_comm.rank(), col);
            assert_eq!(col_comm.rank(), row);
            // Sum ranks within row via alltoall on the sub-communicator.
            let contrib = vec![comm.rank() as u64; row_comm.size()];
            let got = row_comm.alltoall(&contrib);
            got.iter().sum::<u64>()
        });
        assert_eq!(out, vec![3, 3, 3, 12, 12, 12]);
    }

    #[test]
    fn messages_do_not_leak_across_split_contexts() {
        let out = Universe::run(2, |comm| {
            let sub = comm.split(0, comm.rank());
            if comm.rank() == 0 {
                sub.send(1, 4, vec![1u8]); // on sub-communicator
                comm.send(1, 4, vec![2u8]); // same tag on parent
                0
            } else {
                let parent_msg = comm.recv::<u8>(0, 4);
                let sub_msg = sub.recv::<u8>(0, 4);
                (parent_msg[0] * 10 + sub_msg[0]) as usize
            }
        });
        assert_eq!(out[1], 21);
    }
}
