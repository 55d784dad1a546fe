//! Collective operations. All collectives must be invoked by every rank of
//! the communicator in the same order (MPI's usual contract); an internal
//! sequence counter turns each call site into a unique tag so consecutive
//! collectives cannot interfere.

use crate::comm::Communicator;
use crate::request::Request;
use psdns_analyze::CollectiveKind;
use psdns_trace::SpanKind;

/// Track name for communication spans; combined with the span's rank this
/// yields one network lane per rank in the exported trace.
pub(crate) const NET_TRACK: &str = "net";

impl Communicator {
    /// Synchronize all ranks (gather-to-root + broadcast).
    pub fn barrier(&self) {
        self.verify_collective(CollectiveKind::Barrier, 0);
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Barrier, tag, true);
        let root = 0;
        if self.rank() == root {
            for src in 1..self.size() {
                let _ = self.recv_raw::<u8>(src, tag);
            }
            for dst in 1..self.size() {
                self.send_raw::<u8>(dst, tag, Vec::new());
            }
        } else {
            self.send_raw::<u8>(root, tag, Vec::new());
            let _ = self.recv_raw::<u8>(root, tag);
        }
    }

    /// Broadcast `data` from `root` to all ranks; every rank returns the
    /// root's buffer.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, data: &[T]) -> Vec<T> {
        self.verify_collective(CollectiveKind::Bcast, data.len());
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Bcast, tag, true);
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_raw(dst, tag, data.to_vec());
                }
            }
            data.to_vec()
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gather each rank's buffer to `root` (concatenated in rank order);
    /// non-root ranks return an empty Vec.
    pub fn gather<T: Clone + Send + 'static>(&self, root: usize, data: &[T]) -> Vec<T> {
        self.verify_collective(CollectiveKind::Gather, data.len());
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Gather, tag, true);
        if self.rank() == root {
            let mut out = Vec::new();
            for src in 0..self.size() {
                if src == root {
                    out.extend_from_slice(data);
                } else {
                    out.extend(self.recv_raw::<T>(src, tag));
                }
            }
            out
        } else {
            self.send_raw(root, tag, data.to_vec());
            Vec::new()
        }
    }

    /// All ranks obtain the concatenation (in rank order) of every rank's
    /// buffer. Buffers may have different lengths. With
    /// [`Communicator::set_abft_checksums`] armed, each payload carries an
    /// ABFT sidecar verified on receipt (as do `allreduce`/`allreduce_vec`,
    /// which ride on this).
    pub fn allgather<T: crate::AbftData>(&self, data: &[T]) -> Vec<T> {
        self.verify_collective(CollectiveKind::Allgather, data.len());
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Allgather, tag, true);
        for dst in 0..self.size() {
            if dst != self.rank() {
                self.send_coll(dst, tag, data.to_vec());
            }
        }
        let mut out = Vec::new();
        for src in 0..self.size() {
            if src == self.rank() {
                out.extend_from_slice(data);
            } else {
                out.extend(self.recv_coll::<T>(src, tag));
            }
        }
        out
    }

    /// Scatter equal chunks of `root`'s buffer to all ranks. As in MPI, the
    /// input on non-root ranks is ignored.
    pub fn scatter<T: Clone + Send + 'static>(&self, root: usize, data: &[T]) -> Vec<T> {
        self.verify_collective(CollectiveKind::Scatter, data.len());
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Scatter, tag, true);
        if self.rank() == root {
            assert_eq!(data.len() % self.size(), 0, "scatter buffer not divisible");
            let chunk = data.len() / self.size();
            let mut mine = Vec::new();
            for dst in 0..self.size() {
                let piece = &data[dst * chunk..(dst + 1) * chunk];
                if dst == root {
                    mine = piece.to_vec();
                } else {
                    self.send_raw(dst, tag, piece.to_vec());
                }
            }
            mine
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Blocking all-to-all with equal chunks: `send.len()` must be a multiple
    /// of `size()`; chunk `d` of the send buffer goes to rank `d`, and the
    /// result holds chunk `s` from rank `s` at position `s`.
    ///
    /// This is the `MPI_ALLTOALL` the paper's standalone kernel benchmarks
    /// (§4.1, Table 2).
    pub fn alltoall<T: crate::AbftData>(&self, send: &[T]) -> Vec<T> {
        self.ialltoall(send).wait()
    }

    /// Nonblocking all-to-all: sends are posted immediately; the returned
    /// [`Request`] completes the receives. This is the paper's
    /// `MPI_IALLTOALL` used to overlap the transpose with GPU work (§3.4).
    pub fn ialltoall<T: crate::AbftData>(&self, send: &[T]) -> Request<T> {
        assert_eq!(
            send.len() % self.size(),
            0,
            "alltoall buffer length {} not divisible by comm size {}",
            send.len(),
            self.size()
        );
        let chunk = send.len() / self.size();
        // Chaos stall: this rank goes quiet before posting its sends, so
        // peers waiting under a watchdog observe a hung exchange.
        if let Some(ch) = &self.shared.chaos {
            if let Some(d) = ch.rank_stall(self.global_rank(self.rank())) {
                std::thread::sleep(d);
            }
        }
        self.verify_collective(CollectiveKind::Alltoall, send.len());
        let tag = self.next_coll_tag();
        // Async post: ordered later by the Request wait's record_wait.
        self.record_post(CollectiveKind::Alltoall, tag, false);
        let span = self.tracer.as_ref().map(|t| {
            t.incr_a2a_calls();
            t.add_bytes_network(std::mem::size_of_val(send));
            t.span(
                SpanKind::A2aPost,
                NET_TRACK,
                &format!("ialltoall[{}x{chunk}]", self.size()),
            )
        });
        for dst in 0..self.size() {
            self.send_coll(dst, tag, send[dst * chunk..(dst + 1) * chunk].to_vec());
        }
        drop(span);
        Request::new(self.clone_handle(), tag, chunk)
    }

    /// Variable-size all-to-all: `send_counts[d]` elements go to rank `d`
    /// (packed contiguously in rank order in `send`); returns the received
    /// buffer packed in rank order together with the per-source counts.
    pub fn alltoallv<T: crate::AbftData>(
        &self,
        send: &[T],
        send_counts: &[usize],
    ) -> (Vec<T>, Vec<usize>) {
        assert_eq!(send_counts.len(), self.size());
        assert_eq!(send.len(), send_counts.iter().sum::<usize>());
        self.verify_collective(CollectiveKind::Alltoallv, send.len());
        let tag = self.next_coll_tag();
        self.record_post(CollectiveKind::Alltoallv, tag, true);
        let mut offset = 0;
        for dst in 0..self.size() {
            let piece = &send[offset..offset + send_counts[dst]];
            offset += send_counts[dst];
            self.send_coll(dst, tag, piece.to_vec());
        }
        let mut out = Vec::new();
        let mut counts = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            let piece = self.recv_coll::<T>(src, tag);
            counts.push(piece.len());
            out.extend(piece);
        }
        (out, counts)
    }

    /// All-reduce with a user-supplied associative, commutative combiner.
    /// Every rank must pass the same `op` (same code path), as in MPI.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: crate::AbftData,
        F: Fn(T, T) -> T,
    {
        let all = self.allgather(&[value]);
        let mut it = all.into_iter();
        let first = it.next().expect("non-empty communicator");
        it.fold(first, op)
    }

    /// Element-wise all-reduce over equal-length vectors.
    pub fn allreduce_vec<T, F>(&self, value: &[T], op: F) -> Vec<T>
    where
        T: crate::AbftData,
        F: Fn(&T, &T) -> T,
    {
        let n = value.len();
        let all = self.allgather(value);
        assert_eq!(all.len(), n * self.size(), "ranks passed differing lengths");
        let mut out = all[..n].to_vec();
        for r in 1..self.size() {
            for i in 0..n {
                out[i] = op(&out[i], &all[r * n + i]);
            }
        }
        out
    }

    pub(crate) fn clone_handle(&self) -> Communicator {
        self.clone()
    }
}

/// Clones are handles to the same communicator *for the same rank* — useful
/// for storing a communicator inside solver backends. All clones share the
/// collective sequence counter, so collectives must still be issued once per
/// rank, not once per clone.
impl Clone for Communicator {
    fn clone(&self) -> Self {
        Communicator {
            shared: std::sync::Arc::clone(&self.shared),
            ctx: self.ctx,
            rank: self.rank(),
            members: std::sync::Arc::clone(&self.members),
            coll_seq: std::sync::Arc::clone(&self.coll_seq),
            split_seq: std::sync::Arc::clone(&self.split_seq),
            agree_seq: std::sync::Arc::clone(&self.agree_seq),
            tracer: self.tracer.clone(),
            a2a_deadline: self.a2a_deadline,
            a2a_adaptive: self.a2a_adaptive.clone(),
            verifier: self.verifier.clone(),
            recorder: self.recorder.clone(),
            abft: self.abft,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn alltoall_transposes_rank_matrix() {
        // Rank r sends value 100*r + d to rank d; after the exchange rank d
        // holds 100*s + d at position s — a transpose of the (r, d) matrix.
        let size = 6;
        let out = Universe::run(size, |comm| {
            let send: Vec<u32> = (0..size).map(|d| (100 * comm.rank() + d) as u32).collect();
            comm.alltoall(&send)
        });
        for (d, recvd) in out.iter().enumerate() {
            for s in 0..size {
                assert_eq!(recvd[s], (100 * s + d) as u32);
            }
        }
    }

    #[test]
    fn alltoall_multi_element_chunks() {
        let size = 4;
        let chunk = 3;
        let out = Universe::run(size, |comm| {
            let send: Vec<u64> = (0..size * chunk)
                .map(|i| (comm.rank() * 1000 + i) as u64)
                .collect();
            comm.alltoall(&send)
        });
        for (d, recvd) in out.iter().enumerate() {
            assert_eq!(recvd.len(), size * chunk);
            for s in 0..size {
                for c in 0..chunk {
                    assert_eq!(recvd[s * chunk + c], (s * 1000 + d * chunk + c) as u64);
                }
            }
        }
    }

    #[test]
    fn consecutive_alltoalls_do_not_mix() {
        let out = Universe::run(3, |comm| {
            let first = comm.alltoall(&[comm.rank() as u8; 3]);
            let second = comm.alltoall(&[(10 + comm.rank()) as u8; 3]);
            (first, second)
        });
        for (first, second) in &out {
            assert_eq!(first, &vec![0, 1, 2]);
            assert_eq!(second, &vec![10, 11, 12]);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn alltoallv_roundtrip() {
        let size = 4;
        let out = Universe::run(size, |comm| {
            // Rank r sends (r + d + 1) copies of marker r*10+d to rank d.
            let counts: Vec<usize> = (0..size).map(|d| comm.rank() + d + 1).collect();
            let mut send = Vec::new();
            for d in 0..size {
                send.extend(std::iter::repeat_n(
                    (comm.rank() * 10 + d) as u16,
                    counts[d],
                ));
            }
            comm.alltoallv(&send, &counts)
        });
        for (d, (data, counts)) in out.iter().enumerate() {
            let mut offset = 0;
            for s in 0..size {
                assert_eq!(counts[s], s + d + 1);
                for i in 0..counts[s] {
                    assert_eq!(data[offset + i], (s * 10 + d) as u16);
                }
                offset += counts[s];
            }
        }
    }

    #[test]
    fn bcast_and_gather() {
        let out = Universe::run(5, |comm| {
            let rooted = comm.bcast(2, &[comm.rank() as u32 * 7]);
            let gathered = comm.gather(0, &[comm.rank() as u32]);
            (rooted, gathered)
        });
        for (r, (rooted, gathered)) in out.iter().enumerate() {
            assert_eq!(rooted, &vec![14]);
            if r == 0 {
                assert_eq!(gathered, &vec![0, 1, 2, 3, 4]);
            } else {
                assert!(gathered.is_empty());
            }
        }
    }

    #[test]
    fn scatter_distributes_chunks() {
        let out = Universe::run(3, |comm| {
            let data: Vec<u8> = if comm.rank() == 1 {
                (0..9).collect()
            } else {
                vec![]
            };
            comm.scatter(1, &data)
        });
        assert_eq!(out[0], vec![0, 1, 2]);
        assert_eq!(out[1], vec![3, 4, 5]);
        assert_eq!(out[2], vec![6, 7, 8]);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = Universe::run(6, |comm| {
            let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            let max = comm.allreduce(comm.rank() as u64 * 3, std::cmp::max);
            (sum, max)
        });
        for (sum, max) in out {
            assert_eq!(sum, 15);
            assert_eq!(max, 15);
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Universe::run(4, |comm| {
            let v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_vec(&v, |a, b| a + b)
        });
        for v in out {
            assert_eq!(v, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn ialltoall_overlaps_with_local_work() {
        let size = 4;
        let out = Universe::run(size, |comm| {
            let send: Vec<u32> = vec![comm.rank() as u32; size];
            let req = comm.ialltoall(&send);
            // "Compute" while the exchange is in flight.
            let local: u32 = (0..1000).sum::<u32>();
            let recvd = req.wait();
            (local, recvd)
        });
        for (local, recvd) in out {
            assert_eq!(local, 499_500);
            assert_eq!(recvd, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn multiple_outstanding_ialltoalls_complete_in_any_wait_order() {
        let out = Universe::run(3, |comm| {
            let r1 = comm.ialltoall(&[comm.rank() as u8; 3]);
            let r2 = comm.ialltoall(&[(comm.rank() + 10) as u8; 3]);
            // Wait in reverse order of posting.
            let b = r2.wait();
            let a = r1.wait();
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![0, 1, 2]);
            assert_eq!(b, vec![10, 11, 12]);
        }
    }
}

#[cfg(test)]
mod abft_tests {
    use crate::{ChaosConfig, ChaosEngine, CommError, FaultPlan, Universe};
    use std::time::Duration;

    fn flip_cfg(seed: u64, plan: FaultPlan, site: &str) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(seed);
        cfg.bit_flip = plan;
        cfg.bit_flip_site = Some(site.to_string());
        cfg
    }

    #[test]
    fn healthy_path_is_transparent_and_drains_retx() {
        let out = Universe::run(3, |mut comm| {
            comm.set_abft_checksums(true);
            let send: Vec<f64> = (0..6).map(|i| (comm.rank() * 10 + i) as f64).collect();
            let got = comm.alltoall(&send);
            // Every rank is past its receives once the barrier completes, so
            // the global retransmission store must be fully drained.
            comm.barrier();
            assert!(comm.shared.retx.lock().is_empty(), "retx store must drain");
            got
        });
        for (d, recvd) in out.iter().enumerate() {
            for s in 0..3 {
                assert_eq!(recvd[s * 2], (s * 10 + d * 2) as f64);
                assert_eq!(recvd[s * 2 + 1], (s * 10 + d * 2 + 1) as f64);
            }
        }
    }

    #[test]
    fn transit_flip_is_healed_by_retransmission() {
        // One seeded flip on every `flip:` edge at its first checksummed
        // send; the verified receive must retransmit and return clean data.
        let run = |seed| {
            Universe::run_chaos(
                2,
                ChaosEngine::new(flip_cfg(seed, FaultPlan::at(0), "flip:")),
                |mut comm| {
                    comm.set_abft_checksums(true);
                    let send: Vec<f64> = (0..8).map(|i| (comm.rank() * 100 + i) as f64).collect();
                    comm.alltoall(&send)
                },
            )
            .expect("corruption heals, job survives")
        };
        let out = run(42);
        for (d, recvd) in out.iter().enumerate() {
            for s in 0..2 {
                for c in 0..4 {
                    assert_eq!(recvd[s * 4 + c], (s * 100 + d * 4 + c) as f64);
                }
            }
        }
        // Same-seed replay is byte-identical; a different seed also heals.
        assert_eq!(out, run(42));
        assert_eq!(out, run(7));
    }

    #[test]
    fn allgather_and_allreduce_heal_under_flips() {
        let out = Universe::run_chaos(
            2,
            ChaosEngine::new(flip_cfg(11, FaultPlan::at(0), "flip:")),
            |mut comm| {
                comm.set_abft_checksums(true);
                let sum = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
                let all = comm.allgather(&[comm.rank() as f64; 3]);
                (sum, all)
            },
        )
        .expect("corruption heals");
        for (sum, all) in out {
            assert_eq!(sum, 3);
            assert_eq!(all, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn persistent_corruption_yields_typed_error() {
        // Flip every checksummed send *and* every retransmission: the
        // bounded resend exhausts and surfaces CommError::Corrupted — the
        // unrecoverable-SDC analogue of a double fault. Not a hang.
        let mut cfg = ChaosConfig::new(5);
        cfg.bit_flip = FaultPlan::with_prob(1.0);
        let out = Universe::run_chaos(2, ChaosEngine::new(cfg), |mut comm| {
            comm.set_abft_checksums(true);
            let req = comm.ialltoall(&[comm.rank() as f64; 2]);
            req.wait_deadline(Duration::from_secs(10))
        })
        .expect("typed error, not rank death");
        for r in out {
            match r {
                Err(CommError::Corrupted { block, .. }) => assert_eq!(block, 0),
                other => panic!("expected Corrupted, got {other:?}"),
            }
        }
    }

    #[test]
    fn timed_out_exchange_leaves_no_retained_payloads() {
        // Every transmission is lost, so each rank's verified receive times
        // out; the payloads the senders retained for retransmission must
        // not outlive the abandoned exchange.
        let mut cfg = ChaosConfig::new(3);
        cfg.drop = FaultPlan::with_prob(1.0);
        let posted = std::sync::Barrier::new(2);
        let out = Universe::run_chaos(2, ChaosEngine::new(cfg), |mut comm| {
            comm.set_abft_checksums(true);
            let req = comm.ialltoall(&[comm.rank() as f64; 2048]);
            assert!(!comm.shared.retx.lock().is_empty());
            posted.wait(); // both ranks' payloads are in the store
            let err = req.wait_deadline(Duration::from_millis(50));
            posted.wait(); // both ranks have given up
            (err, comm.shared.retx.lock().len())
        });
        let Ok(out) = out else {
            panic!("typed timeouts, not rank death: {out:?}");
        };
        for (err, retained) in out {
            assert!(matches!(err, Err(CommError::Timeout { .. })), "{err:?}");
            assert_eq!(retained, 0, "retransmission store leaked");
        }
    }

    #[test]
    fn late_send_after_timeout_retains_nothing() {
        // Rank 1 gives up on the exchange before rank 0 has posted: rank 0's
        // late send to rank 1 must not retain a payload nobody will claim.
        let phase = std::sync::Barrier::new(2);
        let out = Universe::run(2, |mut comm| {
            comm.set_abft_checksums(true);
            let send = [comm.rank() as f64; 1024];
            let got = if comm.rank() == 1 {
                let got = comm
                    .ialltoall(&send)
                    .wait_deadline(Duration::from_millis(50));
                phase.wait(); // rank 1 has timed out
                got
            } else {
                phase.wait();
                comm.ialltoall(&send).wait_deadline(Duration::from_secs(10))
            };
            phase.wait(); // both ranks are done with the store
            (got.map(|v| v[0] + v[512]), comm.shared.retx.lock().len())
        });
        assert!(
            matches!(out[1].0, Err(CommError::Timeout { .. })),
            "{:?}",
            out[1].0
        );
        assert!(matches!(out[0].0, Ok(s) if s == 1.0), "{:?}", out[0].0);
        assert_eq!(out[0].1, 0, "late send retained its payload");
    }

    #[test]
    fn late_send_after_revoke_retains_nothing() {
        // Rank 1 times out and revokes before rank 0 posts: a send on a
        // revoked context retains nothing.
        let phase = std::sync::Barrier::new(2);
        let out = Universe::run(2, |mut comm| {
            comm.set_abft_checksums(true);
            let send = [comm.rank() as f64; 1024];
            if comm.rank() == 1 {
                let got = comm
                    .ialltoall(&send)
                    .wait_deadline(Duration::from_millis(50));
                assert!(matches!(got, Err(CommError::Timeout { .. })), "{got:?}");
                comm.revoke();
                phase.wait();
            } else {
                phase.wait();
                // Posted on the revoked context and abandoned at once.
                drop(comm.ialltoall(&send));
            }
            phase.wait(); // both ranks are done with the store
            comm.shared.retx.lock().len()
        });
        assert_eq!(
            out,
            vec![0, 0],
            "send on a revoked context retained its payload"
        );
    }

    #[test]
    fn revoke_drops_retained_payloads_of_its_context() {
        let out = Universe::run(2, |mut comm| {
            comm.set_abft_checksums(true);
            let other = comm.split(0, comm.rank());
            // Posted but never waited on: only the revoke can release them.
            let abandoned = comm.ialltoall(&[1.0f64; 4]);
            let kept = other.ialltoall(&[2.0f64; 4]);
            comm.barrier();
            comm.revoke();
            let retx = comm.shared.retx.lock();
            let stale = retx.keys().filter(|k| k.0 == comm.ctx).count();
            let live = retx.keys().filter(|k| k.0 == other.ctx).count();
            drop(retx);
            drop(abandoned);
            let got = kept.wait();
            (stale, live > 0, got)
        });
        for (stale, live, got) in out {
            assert_eq!(stale, 0);
            assert!(live, "other contexts keep their entries");
            assert_eq!(got, vec![2.0; 4]);
        }
    }

    #[test]
    fn unarmed_collectives_carry_no_sidecar_under_flip_plan() {
        // Without set_abft_checksums the BitFlip plan has no `flip:` site to
        // fire at — payloads are exactly the pre-ABFT ones.
        let out = Universe::run_chaos(
            2,
            ChaosEngine::new(flip_cfg(9, FaultPlan::with_prob(1.0), "flip:")),
            |comm| comm.alltoall(&[comm.rank() as u32; 2]),
        )
        .expect("no faults fire");
        for recvd in out {
            assert_eq!(recvd, vec![0, 1]);
        }
    }
}

#[cfg(test)]
mod stress_tests {
    use crate::Universe;

    /// Many ranks, many interleaved collectives on parent and split
    /// communicators — a deadlock/mismatch smoke screen.
    #[test]
    fn interleaved_collectives_on_many_communicators() {
        let p = 8;
        let out = Universe::run(p, move |comm| {
            let row = comm.split(comm.rank() / 4, comm.rank() % 4);
            let col = comm.split(10 + comm.rank() % 4, comm.rank() / 4);
            let mut acc = 0u64;
            for round in 0..20 {
                let a = comm.allreduce(comm.rank() as u64 + round, |x, y| x + y);
                let b = row.alltoall(&vec![round; row.size()]);
                let c = col.bcast(round as usize % col.size(), &[a]);
                comm.barrier();
                acc = acc.wrapping_add(a + b.iter().sum::<u64>() + c[0]);
            }
            acc
        });
        // Deterministic: every rank must agree on the collective results
        // that are rank-independent (the allreduce/bcast parts).
        assert_eq!(out.len(), p);
    }

    /// A storm of point-to-point messages with mixed tags must neither
    /// deadlock nor misdeliver.
    #[test]
    fn p2p_storm() {
        let p = 6;
        let msgs = 40;
        let out = Universe::run(p, move |comm| {
            // Everyone sends `msgs` messages to every peer, tagged by index.
            for dst in 0..p {
                for m in 0..msgs {
                    comm.send(dst, m as u64, vec![(comm.rank() * 1000 + m) as u32]);
                }
            }
            // Receive in a scrambled order.
            let mut sum = 0u64;
            for m in (0..msgs).rev() {
                for src in 0..p {
                    let v = comm.recv::<u32>(src, m as u64);
                    assert_eq!(v[0] as usize, src * 1000 + m);
                    sum += v[0] as u64;
                }
            }
            sum
        });
        let expect: u64 = (0..p)
            .map(|s| (0..msgs).map(|m| (s * 1000 + m) as u64).sum::<u64>())
            .sum();
        for s in out {
            assert_eq!(s, expect);
        }
    }
}
