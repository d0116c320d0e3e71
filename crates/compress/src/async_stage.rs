//! Asynchronous compression stage: encoding off the solver's critical
//! path.
//!
//! The solver thread's only obligations are (a) a double-buffered
//! snapshot copy of the field and (b) a non-blocking queue handoff; the
//! modal transform, truncation, quantization and entropy coding all run
//! on a dedicated encoder thread. "Double-buffered" is literal: the stage
//! holds at most two snapshots — queued or being encoded — so it holds at
//! most two field copies and [`AsyncFieldCompressor::try_submit`] can
//! decide instantly. A slot frees when its encoding finishes, not when
//! the encoder thread picks the job up, so a woken encoder that the
//! scheduler has not run yet still leaves the second slot free. When both
//! slots are occupied the snapshot is *dropped and counted*
//! (`rbx_insitu_compress_busy_total` at the call site) — the same
//! drop-with-counter degradation ladder as the slab channel (DESIGN.md
//! §16): the solver never waits for the encoder.

use crate::pipeline::{compress_field, Compressed, CompressionConfig};
use rbx_basis::ModalBasis;
use rbx_mesh::GeomFactors;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Snapshots the stage holds at once: one queued, one being encoded.
const SLOTS: usize = 2;

struct Job {
    step: u64,
    time: f64,
    var: String,
    field: Vec<f64>,
}

/// One finished encoding: the compressed field plus its provenance.
#[derive(Debug, Clone)]
pub struct CompressedField {
    /// Solver step the snapshot was taken at.
    pub step: u64,
    /// Simulation time of the snapshot.
    pub time: f64,
    /// Variable name ("uz", "temperature", …).
    pub var: String,
    /// The compressed payload.
    pub compressed: Compressed,
}

/// Counters of one async compressor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncCompressorStats {
    /// Snapshots accepted into the stage.
    pub submitted: u64,
    /// Snapshots dropped because both buffer slots were busy.
    pub busy_dropped: u64,
}

/// Background-thread field compressor with a two-slot (double-buffered)
/// queue and a drop-don't-block submit path.
pub struct AsyncFieldCompressor {
    tx: Option<SyncSender<Job>>,
    /// Snapshots submitted whose encoding has not finished.
    occupied: Arc<AtomicUsize>,
    rx: Receiver<CompressedField>,
    handle: Option<JoinHandle<()>>,
    stats: AsyncCompressorStats,
}

impl AsyncFieldCompressor {
    /// Spawn the encoder thread. `geom` is cloned into the thread (the
    /// encoder needs the Jacobians and sizes); `basis_n` must equal the
    /// field's nodes-per-direction (`order + 1`).
    pub fn new(geom: &GeomFactors, basis_n: usize, cfg: CompressionConfig) -> Self {
        assert_eq!(basis_n, geom.nx1, "basis size must match the geometry");
        // `occupied` counts the two snapshot buffers of the
        // double-buffering contract; the channel never holds more.
        let (tx, job_rx) = sync_channel::<Job>(SLOTS);
        let (out_tx, rx) = sync_channel::<CompressedField>(64);
        let occupied = Arc::new(AtomicUsize::new(0));
        let freed = Arc::clone(&occupied);
        let geom = geom.clone();
        let handle = std::thread::Builder::new()
            .name("rbx-compress-async".into())
            .spawn(move || {
                let basis = ModalBasis::new(basis_n);
                for job in job_rx.iter() {
                    let compressed = compress_field(&job.field, &geom, &basis, &cfg);
                    drop(job.field);
                    // ordering: a slot count, no data is published
                    // through it (the jobs and results travel by channel).
                    freed.fetch_sub(1, Ordering::Relaxed);
                    let done = CompressedField {
                        step: job.step,
                        time: job.time,
                        var: job.var,
                        compressed,
                    };
                    // A gone consumer just means results are discarded;
                    // keep draining jobs so the producer side stays cheap.
                    if out_tx.send(done).is_err() {
                        break;
                    }
                }
            })
            // audit:allow(no-panic): thread spawn fails only on resource exhaustion at stage construction — before any data is at risk
            .expect("spawn async compressor");
        Self {
            tx: Some(tx),
            occupied,
            rx,
            handle: Some(handle),
            stats: AsyncCompressorStats::default(),
        }
    }

    /// Offer one snapshot. Copies the field (the snapshot) and returns
    /// `true` if a buffer slot was free; returns `false` — dropping the
    /// snapshot — when both slots hold unfinished snapshots or the encoder
    /// thread has died. Never blocks.
    pub fn try_submit(&mut self, step: u64, time: f64, var: &str, field: &[f64]) -> bool {
        let Some(tx) = self.tx.as_ref() else {
            self.stats.busy_dropped += 1;
            return false;
        };
        // Only this thread takes a slot, so a free one stays free until
        // the send below.
        // ordering: a slot count, no data is published through it (the
        // jobs and results travel by channel).
        if self.occupied.load(Ordering::Relaxed) >= SLOTS {
            self.stats.busy_dropped += 1;
            return false;
        }
        // ordering: as above.
        self.occupied.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            step,
            time,
            var: var.to_string(),
            field: field.to_vec(),
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.stats.submitted += 1;
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // ordering: as above.
                self.occupied.fetch_sub(1, Ordering::Relaxed);
                self.stats.busy_dropped += 1;
                false
            }
        }
    }

    /// Collect one finished encoding, if any. Never blocks.
    pub fn poll(&mut self) -> Option<CompressedField> {
        match self.rx.try_recv() {
            Ok(done) => Some(done),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Stage counters.
    pub fn stats(&self) -> AsyncCompressorStats {
        self.stats
    }

    /// Close the stage: wait for in-flight encodings and return them
    /// (with any still-unpolled earlier results) plus the counters.
    pub fn finish(mut self) -> (Vec<CompressedField>, AsyncCompressorStats) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            // A panicked encoder loses pending results but must not
            // unwind the solver thread; whatever reached the output
            // queue is still returned.
            let _ = handle.join();
        }
        let mut out = Vec::new();
        while let Ok(done) = self.rx.try_recv() {
            out.push(done);
        }
        (out, self.stats)
    }
}

impl Drop for AsyncFieldCompressor {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{decompress_field, weighted_l2_error};
    use rbx_mesh::generators::box_mesh;
    use std::time::{Duration, Instant};

    fn setup(p: usize) -> (GeomFactors, ModalBasis) {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let basis = ModalBasis::new(p + 1);
        (geom, basis)
    }

    fn smooth_field(geom: &GeomFactors, phase: f64) -> Vec<f64> {
        (0..geom.total_nodes())
            .map(|i| {
                let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                (3.0 * x + phase).sin() * (2.0 * y).cos() + 0.5 * (4.0 * z).sin()
            })
            .collect()
    }

    #[test]
    fn async_results_match_synchronous_compression() {
        let (geom, basis) = setup(5);
        let cfg = CompressionConfig::default();
        let mut stage = AsyncFieldCompressor::new(&geom, basis.n(), cfg);
        let mut fields = Vec::new();
        let mut submitted = Vec::new();
        for i in 0..6u64 {
            let f = smooth_field(&geom, i as f64 * 0.3);
            // Retry-with-backoff here is test-only pacing; the solver
            // path drops instead.
            let deadline = Instant::now() + Duration::from_secs(20);
            while !stage.try_submit(i, i as f64 * 0.01, "uz", &f) {
                assert!(Instant::now() < deadline, "encoder wedged");
                std::thread::sleep(Duration::from_millis(1));
            }
            submitted.push(i);
            fields.push(f);
        }
        let (mut done, stats) = stage.finish();
        assert_eq!(stats.submitted, 6);
        done.sort_by_key(|d| d.step);
        assert_eq!(done.len(), 6);
        for d in &done {
            let sync = compress_field(&fields[d.step as usize], &geom, &basis, &cfg);
            assert_eq!(d.compressed.data, sync.data, "step {}", d.step);
            assert_eq!(d.var, "uz");
            let back = decompress_field(&d.compressed, &basis);
            let err = weighted_l2_error(&fields[d.step as usize], &back, &geom.mass);
            assert!(err < 0.05, "step {}: error {err}", d.step);
        }
    }

    #[test]
    fn busy_stage_drops_with_counter_instead_of_blocking() {
        let (geom, _) = setup(6);
        let mut stage = AsyncFieldCompressor::new(&geom, 7, CompressionConfig::default());
        let f = smooth_field(&geom, 0.0);
        let t0 = Instant::now();
        let mut accepted = 0;
        for i in 0..50u64 {
            if stage.try_submit(i, 0.0, "uz", &f) {
                accepted += 1;
            }
        }
        let elapsed = t0.elapsed();
        let (_, stats) = stage.finish();
        assert_eq!(stats.submitted + stats.busy_dropped, 50);
        assert_eq!(stats.submitted, accepted);
        assert!(
            stats.busy_dropped > 0,
            "50 immediate submits must overrun two buffer slots"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "submit path blocked: {elapsed:?}"
        );
    }

    #[test]
    fn idle_stage_takes_two_snapshots_before_its_encoder_runs() {
        // Back-to-back submits leave the encoder thread no time to pick up
        // the first; both slots must still be free.
        let (geom, _) = setup(6);
        let mut stage = AsyncFieldCompressor::new(&geom, 7, CompressionConfig::default());
        let f = smooth_field(&geom, 0.0);
        assert!(stage.try_submit(0, 0.0, "uz", &f));
        assert!(stage.try_submit(1, 0.0, "uz", &f));
        let (mut done, stats) = stage.finish();
        done.sort_by_key(|d| d.step);
        assert_eq!(stats.submitted, 2);
        assert_eq!(done.iter().map(|d| d.step).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn poll_streams_results_while_running() {
        let (geom, _) = setup(4);
        let mut stage = AsyncFieldCompressor::new(&geom, 5, CompressionConfig::default());
        let f = smooth_field(&geom, 0.5);
        assert!(stage.try_submit(1, 0.1, "t", &f));
        let deadline = Instant::now() + Duration::from_secs(20);
        let done = loop {
            if let Some(d) = stage.poll() {
                break d;
            }
            assert!(Instant::now() < deadline, "no result from encoder");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(done.step, 1);
        assert_eq!(done.var, "t");
        let (rest, _) = stage.finish();
        assert!(rest.is_empty());
    }
}
