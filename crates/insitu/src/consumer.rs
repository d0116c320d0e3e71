//! Asynchronous in-situ POD consumer.
//!
//! The paper's workflow streams simulation data "to a data processing
//! routine, running on the mostly unused CPUs of the compute nodes to
//! post-process the data online". [`PodConsumer`] is that routine: it
//! subscribes to an [`rbx_io`] staging stream on its own thread, extracts
//! one named variable per step, and feeds the [`StreamingPod`], all while
//! the producing solver keeps running.
//!
//! Failure is typed, not panicking: a spawn failure or a panicked
//! consumer surfaces as [`InsituError`] at the `spawn`/`join` seams, a
//! snapshot that is not a POD input (compressed bytes, or a length other
//! than the weights') is skipped, and a producer that drops its sender
//! simply ends the stream — the consumer thread exits cleanly with
//! whatever it accumulated.

use crate::error::{panic_detail, InsituError};
use crate::streaming::StreamingPod;
use rbx_io::{StagingReader, VarData};

/// Handle to the background POD thread.
pub struct PodConsumer {
    handle: Option<std::thread::JoinHandle<StreamingPod>>,
}

impl PodConsumer {
    /// Spawn a consumer that ingests variable `var_name` from every step
    /// of `reader` into a [`StreamingPod`] with the given weights and rank
    /// cap. The thread ends when the producer closes (or drops) the
    /// stream. Spawn failure is reported, not panicked.
    pub fn spawn(
        reader: StagingReader,
        var_name: impl Into<String>,
        weights: Vec<f64>,
        k_max: usize,
    ) -> Result<Self, InsituError> {
        let var_name = var_name.into();
        let handle = std::thread::Builder::new()
            .name("rbx-insitu-pod".into())
            .spawn(move || {
                let mut pod = StreamingPod::new(&weights, k_max);
                while let Some(step) = reader.next_step() {
                    if let Some(var) = step.var(&var_name) {
                        match &var.data {
                            VarData::F64(x) if x.len() == weights.len() => pod.update(x),
                            _ => {
                                // Compressed payloads and snapshots of
                                // another length are not POD inputs; skip
                                // silently (producer decides what to
                                // stream raw).
                            }
                        }
                    }
                }
                pod
            })
            .map_err(|e| InsituError::Spawn {
                detail: e.to_string(),
            })?;
        Ok(Self {
            handle: Some(handle),
        })
    }

    /// Wait for the stream to end and return the final POD state. A
    /// panicked consumer is reported as a typed error instead of
    /// unwinding the caller (the solver side).
    pub fn join(mut self) -> Result<StreamingPod, InsituError> {
        match self.handle.take() {
            Some(handle) => handle.join().map_err(|p| InsituError::ConsumerPanicked {
                detail: panic_detail(p),
            }),
            None => Err(InsituError::QueueClosed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PodBatch;
    use rbx_comm::SingleComm;
    use rbx_io::{staging_channel, StepData, Variable};

    #[test]
    fn insitu_pod_matches_offline() {
        let n = 90;
        let w = vec![1.0 / n as f64; n];
        let snaps: Vec<Vec<f64>> = (0..12)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        let x = i as f64 / n as f64;
                        (2.0 * (0.4 * t as f64).cos()) * (std::f64::consts::PI * x).sin()
                            + (0.6 * t as f64).sin() * (2.0 * std::f64::consts::PI * x).sin()
                    })
                    .collect()
            })
            .collect();

        let (writer, reader) = staging_channel(4);
        let consumer = PodConsumer::spawn(reader, "temperature", w.clone(), 6).unwrap();
        // Produce concurrently (back-pressure exercises the async path).
        for (t, x) in snaps.iter().enumerate() {
            writer
                .put(StepData {
                    step: t as u64,
                    time: t as f64 * 0.1,
                    vars: vec![
                        Variable::f64("temperature", vec![n as u64], x.clone()),
                        Variable::f64("ignored", vec![1], vec![0.0]),
                    ],
                })
                .unwrap();
        }
        writer.close();
        let pod = consumer.join().unwrap();
        assert_eq!(pod.count(), 12);

        let comm = SingleComm::new();
        let batch = PodBatch::new(w).compute(&snaps, &comm);
        for (a, b) in pod.singular_values().iter().zip(&batch.singular_values) {
            assert!(
                (a - b).abs() < 1e-8 * batch.singular_values[0],
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn missing_variable_steps_are_skipped() {
        let (writer, reader) = staging_channel(2);
        let consumer = PodConsumer::spawn(reader, "wanted", vec![1.0; 4], 3).unwrap();
        writer
            .put(StepData {
                step: 0,
                time: 0.0,
                vars: vec![Variable::f64("other", vec![4], vec![1.0; 4])],
            })
            .unwrap();
        writer
            .put(StepData {
                step: 1,
                time: 0.1,
                vars: vec![Variable::f64("wanted", vec![4], vec![1.0, 2.0, 3.0, 4.0])],
            })
            .unwrap();
        writer.close();
        let pod = consumer.join().unwrap();
        assert_eq!(pod.count(), 1);
        assert_eq!(pod.rank(), 1);
    }

    #[test]
    fn dropped_sender_ends_the_consumer_cleanly() {
        let (writer, reader) = staging_channel(2);
        let consumer = PodConsumer::spawn(reader, "uz", vec![0.25; 4], 2).unwrap();
        writer
            .put(StepData {
                step: 0,
                time: 0.0,
                vars: vec![Variable::f64("uz", vec![4], vec![1.0; 4])],
            })
            .unwrap();
        // Drop without close(): the reader sees end-of-stream, the thread
        // must exit with its partial state instead of unwinding.
        drop(writer);
        let pod = consumer.join().unwrap();
        assert_eq!(pod.count(), 1);
    }

    #[test]
    fn wrong_length_snapshot_is_skipped() {
        let (writer, reader) = staging_channel(2);
        let consumer = PodConsumer::spawn(reader, "uz", vec![1.0; 4], 3).unwrap();
        for (step, len) in [(0, 5), (1, 4)] {
            writer
                .put(StepData {
                    step,
                    time: 0.0,
                    vars: vec![Variable::f64("uz", vec![len as u64], vec![1.0; len])],
                })
                .unwrap();
        }
        writer.close();
        let pod = consumer.join().unwrap();
        assert_eq!(pod.count(), 1);
    }

    #[test]
    fn put_after_the_consumer_exited_returns() {
        // An exited consumer has dropped its reader.
        let (writer, reader) = staging_channel(1);
        drop(reader);
        let step = StepData {
            step: 3,
            time: 0.0,
            vars: vec![Variable::f64("uz", vec![4], vec![1.0; 4])],
        };
        assert_eq!(writer.put(step.clone()), Err(step));
    }
}
