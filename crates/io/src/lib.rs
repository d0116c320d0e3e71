//! # rbx-io — typed step/variable I/O with synchronous, asynchronous and
//! in-situ engines
//!
//! The paper uses ADIOS2 (§5.2) "to manage I/O operations during data
//! compression" and to stream data "to a data processing routine, running
//! on the mostly unused CPUs of the compute nodes". This crate is the
//! in-repo substitute with the same roles:
//!
//! * a **container format** ("BPL") with steps and named typed variables,
//! * a **file engine** ([`BplWriter`]/[`read_bpl`]) for synchronous
//!   output, over one in-place parser ([`parse_bpl`]) that locates each
//!   variable's bytes without decoding them,
//! * an **async file engine** ([`AsyncBplWriter`]) that serializes and
//!   writes on a background thread while the solver advances,
//! * a **staging engine** ([`staging_channel`]) — a bounded in-memory
//!   stream connecting the solver to in-situ consumers (the streaming POD
//!   of `rbx-insitu`), with back-pressure.

mod engine;
mod format;
pub mod shipping;
pub mod vtk;

pub use engine::{staging_channel, AsyncBplWriter, StagingReader, StagingWriter};
pub use format::{
    decode_f64s, parse_bpl, read_bpl, write_bpl, write_file_atomic, BplImage, BplWriter, Dtype,
    StepData, StepSpans, VarData, VarSpan, Variable,
};
pub use shipping::{bcast_bytes, decode_slab_body, encode_slab_body, gather_bytes_to_root};
pub use vtk::write_vtk;
