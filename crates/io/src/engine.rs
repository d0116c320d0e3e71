//! Asynchronous and in-situ engines.
//!
//! [`AsyncBplWriter`] moves serialization + disk writes off the solver
//! thread (ADIOS2's async file engines); [`staging_channel`] streams steps
//! to an in-process consumer with back-pressure (ADIOS2's SST/staging
//! engines, feeding the streaming-POD processor of the paper's §5.2).

use crate::format::{BplWriter, StepData};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::path::Path;

/// Producer half of the in-situ stream.
pub struct StagingWriter {
    tx: Sender<StepData>,
}

impl StagingWriter {
    /// Publish one step; blocks when the consumer is `capacity` steps
    /// behind (back-pressure instead of unbounded buffering). A consumer
    /// that has exited (its reader dropped) hands the step back as `Err`,
    /// so the producer can stop feeding it.
    pub fn put(&self, step: StepData) -> Result<(), StepData> {
        self.tx.send(step).map_err(|e| e.0)
    }

    /// Close the stream (consumers see end-of-stream after draining).
    pub fn close(self) {}
}

/// Consumer half of the in-situ stream.
pub struct StagingReader {
    rx: Receiver<StepData>,
}

impl StagingReader {
    /// Blocking fetch of the next step; `None` after the writer closed
    /// and the queue drained.
    pub fn next_step(&self) -> Option<StepData> {
        self.rx.recv().ok()
    }

    /// Non-blocking fetch.
    pub fn try_next_step(&self) -> Option<StepData> {
        self.rx.try_recv().ok()
    }
}

impl Iterator for StagingReader {
    type Item = StepData;
    fn next(&mut self) -> Option<StepData> {
        self.next_step()
    }
}

/// Create a bounded in-situ stream with room for `capacity` in-flight
/// steps.
///
/// ```
/// use rbx_io::{staging_channel, StepData, Variable};
/// let (writer, reader) = staging_channel(2);
/// writer
///     .put(StepData {
///         step: 1,
///         time: 0.5,
///         vars: vec![Variable::f64("t", vec![3], vec![1.0, 2.0, 3.0])],
///     })
///     .unwrap();
/// writer.close();
/// let steps: Vec<_> = reader.collect();
/// assert_eq!(steps.len(), 1);
/// assert_eq!(steps[0].var("t").unwrap().data.len(), 3);
/// ```
pub fn staging_channel(capacity: usize) -> (StagingWriter, StagingReader) {
    assert!(capacity >= 1);
    let (tx, rx) = bounded(capacity);
    (StagingWriter { tx }, StagingReader { rx })
}

/// Background-thread file writer: `put` returns as soon as the step is
/// queued; serialization and disk I/O happen on the writer thread.
pub struct AsyncBplWriter {
    tx: Option<Sender<StepData>>,
    handle: Option<std::thread::JoinHandle<std::io::Result<usize>>>,
}

impl AsyncBplWriter {
    /// Open the file and spawn the writer thread; `capacity` bounds the
    /// in-flight queue (back-pressure protects memory).
    pub fn create(path: &Path, capacity: usize) -> std::io::Result<Self> {
        let mut writer = BplWriter::create(path)?;
        let (tx, rx): (Sender<StepData>, Receiver<StepData>) = bounded(capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("rbx-io-async".into())
            .spawn(move || -> std::io::Result<usize> {
                let mut count = 0;
                for step in rx.iter() {
                    writer.write_step(&step)?;
                    count += 1;
                }
                writer.close()?;
                Ok(count)
            })
            // audit:allow(no-panic): thread spawn fails only on resource exhaustion at writer construction — before any data is at risk
            .expect("spawn async writer");
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// Queue one step for writing.
    pub fn put(&self, step: StepData) {
        self.tx
            .as_ref()
            // audit:allow(no-panic): tx is None only after close(self) consumed the writer — unreachable through the public API
            .expect("writer already closed")
            .send(step)
            // audit:allow(no-panic): send fails only if the writer thread died mid-run; swallowing that would silently drop output, so fail fast
            .expect("async writer thread died");
    }

    /// Close the queue, wait for the writer thread, and return the number
    /// of steps written.
    pub fn close(mut self) -> std::io::Result<usize> {
        drop(self.tx.take());
        // audit:allow(no-panic): handle is Some for every live writer — close takes self by value, so it can run at most once
        let handle = self.handle.take().expect("already closed");
        // audit:allow(no-panic): re-raises a writer-thread panic on the caller's thread instead of losing it
        handle.join().expect("async writer panicked")
    }
}

impl Drop for AsyncBplWriter {
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
    use crate::format::{read_bpl, VarData, Variable};

    fn step(i: u64) -> StepData {
        StepData {
            step: i,
            time: i as f64,
            vars: vec![Variable::f64("f", vec![4], vec![i as f64; 4])],
        }
    }

    #[test]
    fn staging_delivers_in_order() {
        let (tx, rx) = staging_channel(8);
        let producer = std::thread::spawn(move || {
            for i in 0..20 {
                tx.put(step(i)).unwrap();
            }
            tx.close();
        });
        let got: Vec<u64> = rx.map(|s| s.step).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn staging_backpressure_bounds_queue() {
        // With capacity 1 the producer cannot run ahead more than one
        // step + one in-flight send.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let (tx, rx) = staging_channel(1);
        let produced = Arc::new(AtomicU64::new(0));
        let produced2 = produced.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..10 {
                tx.put(step(i)).unwrap();
                produced2.store(i + 1, Ordering::SeqCst);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let ahead = produced.load(Ordering::SeqCst);
        assert!(ahead <= 2, "producer ran ahead {ahead} with capacity 1");
        let consumed: Vec<u64> = rx.map(|s| s.step).collect();
        producer.join().unwrap();
        assert_eq!(consumed.len(), 10);
    }

    #[test]
    fn try_next_is_nonblocking() {
        let (tx, rx) = staging_channel(2);
        assert!(rx.try_next_step().is_none());
        tx.put(step(1)).unwrap();
        assert_eq!(rx.try_next_step().unwrap().step, 1);
    }

    #[test]
    fn async_writer_produces_readable_file() {
        let dir = std::env::temp_dir().join("rbx_io_async");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async.bpl");
        let w = AsyncBplWriter::create(&path, 4).unwrap();
        for i in 0..12 {
            w.put(step(i));
        }
        let written = w.close().unwrap();
        assert_eq!(written, 12);
        let steps = read_bpl(&path).unwrap();
        assert_eq!(steps.len(), 12);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.step, i as u64);
            match &s.vars[0].data {
                VarData::F64(v) => assert_eq!(v[0], i as f64),
                _ => panic!("wrong dtype"),
            }
        }
    }

    #[test]
    fn async_writer_drop_flushes() {
        let dir = std::env::temp_dir().join("rbx_io_async");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.bpl");
        {
            let w = AsyncBplWriter::create(&path, 2).unwrap();
            w.put(step(0));
            w.put(step(1));
            // Dropped without close().
        }
        let steps = read_bpl(&path).unwrap();
        assert_eq!(steps.len(), 2);
    }
}
