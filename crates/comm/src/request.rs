//! Nonblocking-communication requests, the analogue of `MPI_Request`.

use std::time::{Duration, Instant};

use crate::comm::{CommError, Communicator};

/// Handle to an in-flight nonblocking all-to-all. Sends were posted when the
/// request was created; receiving (and thus completion) happens in
/// [`wait`](Request::wait). Matches the paper's use of `MPI_IALLTOALL` +
/// `MPI_WAIT` to overlap the global transpose with GPU work (§3.4, Fig. 4).
#[must_use = "an ialltoall that is never waited on never completes"]
pub struct Request<T> {
    comm: Communicator,
    tag: u64,
    chunk: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: crate::AbftData> Request<T> {
    pub(crate) fn new(comm: Communicator, tag: u64, chunk: usize) -> Self {
        Self {
            comm,
            tag,
            chunk,
            _marker: std::marker::PhantomData,
        }
    }

    /// Span guard covering the receive fan-in, when a tracer is attached.
    fn wait_span(&self) -> Option<psdns_trace::SpanGuard> {
        self.comm.tracer().map(|t| {
            t.span(
                psdns_trace::SpanKind::A2aWait,
                crate::coll::NET_TRACK,
                &format!("wait[{}x{}]", self.comm.size(), self.chunk),
            )
        })
    }

    /// Block until the exchange completes; returns the received buffer with
    /// rank `s`'s chunk at positions `[s·chunk, (s+1)·chunk)`.
    pub fn wait(self) -> Vec<T> {
        let _span = self.wait_span();
        // Unbounded by construction — the global analyzer lints this form.
        self.comm.record_wait(self.tag, false);
        let size = self.comm.size();
        let mut out = Vec::with_capacity(size * self.chunk);
        for src in 0..size {
            let piece = self.comm.recv_coll::<T>(src, self.tag);
            debug_assert_eq!(piece.len(), self.chunk);
            out.extend(piece);
        }
        out
    }

    /// Deadline-aware completion: like [`wait`](Request::wait) but gives up
    /// with a typed [`CommError::Timeout`] when any peer's chunk has not
    /// arrived within `timeout`. Chunks received before the timeout are
    /// consumed; the request is spent either way (as with an MPI request
    /// after `MPI_Cancel`), and with ABFT armed the payloads retained for
    /// the unclaimed chunks are released.
    pub fn wait_deadline(self, timeout: Duration) -> Result<Vec<T>, CommError> {
        let _span = self.wait_span();
        self.comm.record_wait(self.tag, true);
        let deadline = Instant::now() + timeout;
        let size = self.comm.size();
        let mut out = Vec::with_capacity(size * self.chunk);
        for src in 0..size {
            let piece = match self
                .comm
                .recv_coll_deadline::<T>(src, self.tag, Some(deadline))
            {
                Ok(piece) => piece,
                Err(e) => {
                    self.comm.abandon_coll(self.tag, src);
                    return Err(e);
                }
            };
            debug_assert_eq!(piece.len(), self.chunk);
            out.extend(piece);
        }
        Ok(out)
    }

    /// Complete under the communicator's configured a2a watchdog (see
    /// [`Communicator::set_a2a_watchdog`]): a hung exchange surfaces as
    /// [`CommError::Timeout`] within the deadline instead of blocking
    /// forever. Without a configured watchdog this is a plain `wait`.
    ///
    /// With [`Communicator::set_adaptive_a2a_watchdog`] enabled, the
    /// deadline tracks a rolling window of observed exchange latencies
    /// (`max(floor, factor × p99)`) and each successful wait feeds the
    /// window; the adaptive deadline takes precedence over the fixed one.
    pub fn wait_watchdog(self) -> Result<Vec<T>, CommError> {
        if let Some(wd) = self.comm.adaptive_a2a_watchdog().cloned() {
            let started = Instant::now();
            let out = self.wait_deadline(wd.deadline())?;
            wd.observe(started.elapsed());
            return Ok(out);
        }
        match self.comm.a2a_watchdog() {
            Some(deadline) => self.wait_deadline(deadline),
            None => Ok(self.wait()),
        }
    }

    /// Complete the exchange into a caller-provided buffer of length
    /// `size · chunk` (avoids the concatenation allocation on hot paths).
    pub fn wait_into(self, out: &mut [T]) {
        let _span = self.wait_span();
        self.comm.record_wait(self.tag, false);
        let size = self.comm.size();
        assert_eq!(out.len(), size * self.chunk, "output buffer size mismatch");
        for src in 0..size {
            let piece = self.comm.recv_coll::<T>(src, self.tag);
            debug_assert_eq!(piece.len(), self.chunk);
            out[src * self.chunk..(src + 1) * self.chunk].clone_from_slice(&piece);
        }
    }

    /// Non-blocking completion check: returns `Ok(data)` if every peer's
    /// chunk has already arrived, otherwise gives the request back.
    // The Err variant *is* the not-yet-complete request handed back to the
    // caller (MPI_Test semantics); boxing it would complicate every caller
    // for a cold path.
    #[allow(clippy::result_large_err)]
    pub fn test(self) -> Result<Vec<T>, Request<T>> {
        let size = self.comm.size();
        // Peek cheaply: if any chunk is missing we must not consume others,
        // so first check arrival of all chunks without removing... a simple
        // conservative implementation: try to receive all, buffering what we
        // got. Because recv order per (src, tag) is FIFO and this tag is
        // unique to this collective, consuming is safe — but if a later chunk
        // is missing we must stash consumed ones. We simply try sources in
        // order and bail out by re-queueing nothing: instead, collect
        // try_recv results and if incomplete, keep them inside the request.
        // To keep the state machine simple we only test source 0 as a cheap
        // readiness hint, then fall back to full wait when ready.
        let ready = (0..size).all(|src| self.comm_has_message(src));
        if ready {
            Ok(self.wait())
        } else {
            Err(self)
        }
    }

    fn comm_has_message(&self, src: usize) -> bool {
        self.comm.has_pending_or_queued(src, self.tag)
    }
}

impl Communicator {
    /// True when a message from `src` with `tag` on this communicator has
    /// arrived (either already buffered or sitting in the channel).
    pub(crate) fn has_pending_or_queued(&self, src: usize, tag: u64) -> bool {
        let gsrc = self.members[src];
        let gme = self.members[self.rank()];
        self.shared.flush_held(gsrc, gme);
        {
            let pend = self.shared.pending[gme][gsrc].lock();
            if pend.iter().any(|p| p.ctx == self.ctx && p.tag == tag) {
                return true;
            }
        }
        // Drain whatever is currently in the channel into pending, then look.
        loop {
            let pkt = {
                let rx = self.shared.rx[gme][gsrc].lock();
                match rx.try_recv() {
                    Ok(p) => p,
                    Err(_) => break,
                }
            };
            let Some(pkt) = self.shared.ingest(gme, pkt) else {
                continue;
            };
            let matches = pkt.ctx == self.ctx && pkt.tag == tag;
            self.shared.pending[gme][gsrc].lock().push_back(pkt);
            if matches {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn adaptive_watchdog_feeds_window() {
        let out = Universe::run(2, |mut comm| {
            comm.set_adaptive_a2a_watchdog(std::time::Duration::from_secs(5), 5);
            for _ in 0..3 {
                let req = comm.ialltoall(&[comm.rank() as u8; 2]);
                let got = req.wait_watchdog().expect("exchange completes");
                assert_eq!(got, vec![0, 1]);
            }
            comm.adaptive_a2a_watchdog()
                .expect("enabled")
                .observations()
        });
        assert_eq!(out, vec![3, 3]);
    }

    #[test]
    fn wait_into_fills_buffer() {
        let out = Universe::run(4, |comm| {
            let req = comm.ialltoall(&[comm.rank() as u16; 4]);
            let mut buf = vec![0u16; 4];
            req.wait_into(&mut buf);
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn test_eventually_succeeds() {
        let out = Universe::run(2, |comm| {
            let req = comm.ialltoall(&[comm.rank() as u8; 2]);
            let mut req = match req.test() {
                Ok(data) => return data,
                Err(r) => r,
            };
            loop {
                match req.test() {
                    Ok(data) => return data,
                    Err(r) => {
                        req = r;
                        std::thread::yield_now();
                    }
                }
            }
        });
        for buf in out {
            assert_eq!(buf, vec![0, 1]);
        }
    }
}
