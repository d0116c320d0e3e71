//! Hardened checkpoint / restart through the BPL container.
//!
//! Production DNS campaigns run for weeks; the paper's workflow stores
//! "selected instantaneous data" and restarts across allocations. A
//! checkpoint carries the full solver state needed to resume time
//! integration at full order: the current fields plus the BDF/EXT lag
//! arrays, the simulated time and step counter.
//!
//! Durability and integrity are first-class here:
//!
//! * **Atomic writes** — checkpoints go through
//!   [`rbx_io::write_file_atomic`] (temp sibling + fsync + rename + parent
//!   directory fsync), so a crash mid-write leaves the previous
//!   checkpoint intact, never a torn file.
//! * **Off the critical path** — a generation is encoded in one pass into
//!   one reused image buffer, and a [`CheckpointSet`]'s persistent writer
//!   thread checksums and writes it while the solver moves on.
//! * **Embedded CRC-64** — every variable (and the step header) carries a
//!   CRC-64/XZ in a `__crc64` table; a bit flip anywhere in the file is
//!   detected at restart, not silently integrated for weeks.
//! * **Typed read path, in place** — a restore reads the file once and
//!   parses it where it lies ([`rbx_io::parse_bpl`]): the checksums are
//!   taken over the image's own byte spans by the function that built the
//!   table, and each rank copies its element blocks of every field
//!   straight from the payload bytes into the new state, walking the same
//!   field inventory the writer encoded from. Every failure mode
//!   (truncation, missing or mistyped variables, wrong lengths,
//!   non-finite payloads, stale lag metadata) is a descriptive
//!   [`CheckpointError`], and the target [`Simulation`]'s state is left
//!   untouched on any error, so a caller can fall through to an older
//!   generation.
//! * **Rotation** — [`CheckpointSet`] keeps the last K generations
//!   (`chk_<istep>.bpl`) and restores from the newest one that passes
//!   verification, escalating backwards through the survivors.
//!
//! Checkpoints are **topology-independent**: every field is stored in
//! *global element order* — one shared file per generation, independent of
//! how elements were distributed across ranks at write time. A run
//! checkpointed on N ranks restores on M ranks for any M: each rank reads
//! the shared file and copies out exactly the element blocks it owns. The
//! write is a collective — every rank ships its element blocks to rank 0
//! (bit-preserving point-to-point, not a floating-point reduction), which
//! assembles the global fields and performs the atomic write; a trailing
//! barrier guarantees the generation is visible everywhere before any
//! rank moves on. A `__manifest` variable records the mesh content hash,
//! global element count and polynomial order, so restoring against the
//! wrong discretization fails with the typed
//! [`CheckpointError::LayoutMismatch`] instead of scrambling fields.
//!
//! The pressure solution-projection space *is* stored (as global fields,
//! like everything else): together with the canonical-reduction contract
//! this makes a restart bitwise identical to the uninterrupted run on the
//! serial path — the elastic-restart suite relies on it. If the stored
//! space does not fit the restoring configuration it is dropped and
//! rebuilt, which only costs a few solves of warm-up.

use crate::fields::FlowState;
use crate::sim::{Simulation, TIME_ORDER};
use rbx_comm::integrity::Crc64;
use rbx_comm::{CommError, Payload};
use rbx_io::{decode_f64s, parse_bpl, write_file_atomic, BplImage, Dtype, StepSpans, VarSpan};
use rbx_mesh::{Curve, HexMesh};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Name of the embedded integrity table.
const CRC_VAR: &str = "__crc64";
/// Pseudo-entry in the table covering the step header (step index + time).
const CRC_HEADER: &str = "__header";
/// Name of the layout manifest variable.
const MANIFEST_VAR: &str = "__manifest";
/// Checkpoint schema version (bumped when the variable layout changes).
const MANIFEST_VERSION: u32 = 2;
/// Largest lag depth / dt-history length we accept as sane metadata.
const MAX_LAG_DEPTH: usize = 8;
/// Largest projection-space size we accept as sane metadata.
const MAX_PROJ_VECS: usize = 128;
/// Message tag for the checkpoint gather (outside the gather-scatter and
/// collective tag namespaces).
const CHK_TAG: u64 = 0x43484b;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the container failed — includes truncation and
    /// structural malformation reported by the BPL reader.
    Io {
        /// Checkpoint path.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file does not contain exactly one step.
    WrongStepCount {
        /// Checkpoint path.
        path: PathBuf,
        /// Steps actually present.
        count: usize,
    },
    /// A required variable is absent.
    MissingVariable {
        /// Checkpoint path.
        path: PathBuf,
        /// Variable name.
        name: String,
    },
    /// A variable holds the wrong payload type.
    WrongType {
        /// Checkpoint path.
        path: PathBuf,
        /// Variable name.
        name: String,
    },
    /// A variable holds the wrong number of entries.
    WrongLength {
        /// Checkpoint path.
        path: PathBuf,
        /// Variable name.
        name: String,
        /// Entries expected for this mesh/order.
        expected: usize,
        /// Entries found.
        actual: usize,
    },
    /// A field variable contains NaN/Inf — restoring it would resume a
    /// diverged trajectory.
    NonFiniteData {
        /// Checkpoint path.
        path: PathBuf,
        /// Variable name.
        name: String,
    },
    /// The integrity table is absent or unparseable.
    ChecksumMissing {
        /// Checkpoint path.
        path: PathBuf,
        /// What exactly is wrong with the table.
        detail: String,
    },
    /// A stored checksum does not match the bytes read back.
    ChecksumMismatch {
        /// Checkpoint path.
        path: PathBuf,
        /// Variable whose checksum failed.
        name: String,
        /// Checksum recorded at write time.
        stored: u64,
        /// Checksum of the data actually read.
        computed: u64,
    },
    /// Metadata fails validation (step counter, lag depths, dt history).
    InvalidMetadata {
        /// Checkpoint path.
        path: PathBuf,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The checkpoint's manifest does not match the restoring
    /// simulation's discretization — wrong mesh, element count or
    /// polynomial order. Rank *count* is deliberately not part of the
    /// manifest: checkpoints are topology-independent.
    LayoutMismatch {
        /// Checkpoint path.
        path: PathBuf,
        /// Which manifest field disagrees ("mesh_hash", "nelem_global",
        /// "order" or "version").
        field: &'static str,
        /// Value the restoring simulation requires.
        expected: u64,
        /// Value recorded in the checkpoint.
        found: u64,
    },
    /// Generation `istep` of a [`CheckpointSet`] did not become durable.
    WriteFailed {
        /// Step the generation captures.
        istep: usize,
        /// Why it failed.
        source: Box<CheckpointError>,
    },
    /// Every candidate generation in a [`CheckpointSet`] failed to
    /// restore.
    NoUsableCheckpoint {
        /// Directory that was searched.
        dir: PathBuf,
        /// Generations tried (and rejected).
        tried: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CheckpointError::WrongStepCount { path, count } => write!(
                f,
                "{}: checkpoint must contain exactly one step, found {count}",
                path.display()
            ),
            CheckpointError::MissingVariable { path, name } => {
                write!(f, "{}: checkpoint missing variable {name:?}", path.display())
            }
            CheckpointError::WrongType { path, name } => {
                write!(f, "{}: checkpoint variable {name:?} has wrong type", path.display())
            }
            CheckpointError::WrongLength { path, name, expected, actual } => write!(
                f,
                "{}: checkpoint variable {name:?} has {actual} entries, expected {expected}",
                path.display()
            ),
            CheckpointError::NonFiniteData { path, name } => write!(
                f,
                "{}: checkpoint variable {name:?} contains non-finite values",
                path.display()
            ),
            CheckpointError::ChecksumMissing { path, detail } => {
                write!(f, "{}: integrity table unusable: {detail}", path.display())
            }
            CheckpointError::ChecksumMismatch { path, name, stored, computed } => write!(
                f,
                "{}: checksum mismatch for {name:?}: stored {stored:#018x}, computed {computed:#018x} (corrupted checkpoint)",
                path.display()
            ),
            CheckpointError::InvalidMetadata { path, detail } => {
                write!(f, "{}: invalid checkpoint metadata: {detail}", path.display())
            }
            CheckpointError::LayoutMismatch { path, field, expected, found } => write!(
                f,
                "{}: layout mismatch on {field}: checkpoint has {found:#x}, this simulation needs {expected:#x}",
                path.display()
            ),
            CheckpointError::WriteFailed { istep, source } => {
                write!(f, "checkpoint of step {istep} failed: {source}")
            }
            CheckpointError::NoUsableCheckpoint { dir, tried } => write!(
                f,
                "no usable checkpoint in {} ({tried} generation(s) tried)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::WriteFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// CRC-64 of one variable of an image: its shape dims (LE) then its
/// payload bytes, in place, so a corrupted dimension is caught even when
/// the payload survives. The writer's table and the restore's check both
/// come from here.
fn span_crc(image: &[u8], span: &VarSpan) -> u64 {
    let mut c = Crc64::new();
    c.update(&image[span.shape.clone()]);
    c.update(&image[span.payload.clone()]);
    c.finish()
}

fn header_crc(step: u64, time: f64) -> u64 {
    let mut c = Crc64::new();
    c.update(&step.to_le_bytes());
    c.update(&time.to_le_bytes());
    c.finish()
}

/// Append one `__crc64` record: `name_len u16 LE, name bytes, crc u64 LE`.
fn push_crc_record(rec: &mut Vec<u8>, name: &[u8], crc: u64) {
    rec.extend_from_slice(&(name.len() as u16).to_le_bytes());
    rec.extend_from_slice(name);
    rec.extend_from_slice(&crc.to_le_bytes());
}

/// The `__crc64` table of an image: the header record, then one record
/// per variable in `spans`, each over its shape and payload bytes in place.
fn crc_table(image: &[u8], step: u64, time: f64, spans: &[VarSpan]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(18 + spans.iter().map(|s| 10 + s.name.len()).sum::<usize>());
    push_crc_record(&mut rec, CRC_HEADER.as_bytes(), header_crc(step, time));
    for span in spans {
        push_crc_record(&mut rec, &image[span.name.clone()], span_crc(image, span));
    }
    rec
}

/// The `(name, crc)` records of a `__crc64` table, borrowed from its
/// payload; `Err` says what is malformed.
fn crc_records(mut rest: &[u8]) -> Result<Vec<(&[u8], u64)>, &'static str> {
    let mut out = Vec::new();
    while !rest.is_empty() {
        let [lo, hi, tail @ ..] = rest else {
            return Err("truncated record header");
        };
        let name_len = usize::from(u16::from_le_bytes([*lo, *hi]));
        if tail.len() < name_len + 8 {
            return Err("truncated record");
        }
        let (name, tail) = tail.split_at(name_len);
        std::str::from_utf8(name).map_err(|_| "record name is not UTF-8")?;
        let (crc, tail) = tail.split_at(8);
        out.push((name, u64::from_le_bytes(std::array::from_fn(|k| crc[k]))));
        rest = tail;
    }
    Ok(out)
}

/// A checkpoint file image parsed in place: its one step's variables
/// located, nothing decoded. Every lookup is typed: a missing, mistyped,
/// wrong-length or non-finite variable is its own [`CheckpointError`].
struct CheckpointFile<'a> {
    path: &'a Path,
    image: &'a [u8],
    step: StepSpans,
}

impl<'a> CheckpointFile<'a> {
    /// Locate the variables of the one step in `image`.
    fn parse(path: &'a Path, image: &'a [u8]) -> Result<Self, CheckpointError> {
        let steps = parse_bpl(image).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let count = steps.len();
        match <[StepSpans; 1]>::try_from(steps) {
            Ok([step]) => Ok(Self { path, image, step }),
            Err(_) => Err(CheckpointError::WrongStepCount {
                path: path.to_path_buf(),
                count,
            }),
        }
    }

    /// Check every variable (and the step header) against its record in
    /// the `__crc64` table, over the bytes in place.
    fn verify(&self) -> Result<(), CheckpointError> {
        let path = || self.path.to_path_buf();
        let missing = |detail: String| CheckpointError::ChecksumMissing {
            path: path(),
            detail,
        };
        let table = match self.step.var_named(self.image, CRC_VAR) {
            None => return Err(missing("no __crc64 variable".into())),
            Some((Dtype::Bytes, span)) => crc_records(&self.image[span.payload.clone()])
                .map_err(|detail| missing(detail.into()))?,
            Some(_) => return Err(missing("__crc64 has wrong type".into())),
        };
        let check = |name: &[u8], computed: u64| match table.iter().find(|(n, _)| *n == name) {
            Some(&(_, stored)) if stored == computed => Ok(()),
            Some(&(_, stored)) => Err(CheckpointError::ChecksumMismatch {
                path: path(),
                name: String::from_utf8_lossy(name).into_owned(),
                stored,
                computed,
            }),
            None => Err(missing(format!(
                "no record for {:?}",
                String::from_utf8_lossy(name)
            ))),
        };
        check(
            CRC_HEADER.as_bytes(),
            header_crc(self.step.step, self.step.time),
        )?;
        for (_, span) in &self.step.vars {
            let name = &self.image[span.name.clone()];
            if name != CRC_VAR.as_bytes() {
                check(name, span_crc(self.image, span))?;
            }
        }
        Ok(())
    }

    /// The payload of variable `name`, which must hold `dtype`.
    fn payload(&self, name: &str, dtype: Dtype) -> Result<&'a [u8], CheckpointError> {
        match self.step.var_named(self.image, name) {
            Some((d, span)) if *d == dtype => Ok(&self.image[span.payload.clone()]),
            Some(_) => Err(CheckpointError::WrongType {
                path: self.path.to_path_buf(),
                name: name.to_string(),
            }),
            None => Err(CheckpointError::MissingVariable {
                path: self.path.to_path_buf(),
                name: name.to_string(),
            }),
        }
    }

    /// The payload of the `f64` variable `name`, which must hold `len`
    /// finite values.
    fn f64s(&self, name: &str, len: usize) -> Result<&'a [u8], CheckpointError> {
        let payload = self.payload(name, Dtype::F64)?;
        if payload.len() != 8 * len {
            return Err(CheckpointError::WrongLength {
                path: self.path.to_path_buf(),
                name: name.to_string(),
                expected: len,
                actual: payload.len() / 8,
            });
        }
        // No early exit, so the scan vectorizes.
        if !decode_f64s(payload).fold(true, |ok, x| ok & x.is_finite()) {
            return Err(CheckpointError::NonFiniteData {
                path: self.path.to_path_buf(),
                name: name.to_string(),
            });
        }
        Ok(payload)
    }

    /// The `N` finite values of the small `f64` variable `name`.
    fn values<const N: usize>(&self, name: &str) -> Result<[f64; N], CheckpointError> {
        let mut out = [0.0; N];
        for (o, x) in out.iter_mut().zip(decode_f64s(self.f64s(name, N)?)) {
            *o = x;
        }
        Ok(out)
    }
}

/// Decode a small non-negative integer stored as f64, rejecting NaN,
/// fractions and out-of-range values instead of casting garbage.
fn take_count(path: &Path, value: f64, what: &str, max: usize) -> Result<usize, CheckpointError> {
    if !value.is_finite() || value.fract() != 0.0 || value < 0.0 || value > max as f64 {
        return Err(CheckpointError::InvalidMetadata {
            path: path.to_path_buf(),
            detail: format!("{what} = {value} is not an integer in 0..={max}"),
        });
    }
    Ok(value as usize)
}

/// CRC-64 over the mesh *content* — vertex coordinates, connectivity,
/// boundary tags and curvature descriptors — in a canonical order, so two
/// structurally identical meshes hash equal regardless of how they were
/// built. This is the layout fingerprint stored in the manifest.
pub fn mesh_content_hash(mesh: &HexMesh) -> u64 {
    let mut c = Crc64::new();
    c.update(&(mesh.num_vertices() as u64).to_le_bytes());
    c.update(&(mesh.num_elements() as u64).to_le_bytes());
    for v in &mesh.vertices {
        for x in v {
            c.update(&x.to_le_bytes());
        }
    }
    for e in &mesh.elems {
        for &v in e {
            c.update(&(v as u64).to_le_bytes());
        }
    }
    for tags in &mesh.face_tags {
        for t in tags {
            c.update(&[*t as u8]);
        }
    }
    // `curves` is a BTreeMap, so iteration is already key-ordered.
    for (&(e, f), cur) in &mesh.curves {
        c.update(&(e as u64).to_le_bytes());
        c.update(&(f as u64).to_le_bytes());
        match cur {
            Curve::CylinderSide { radius } => {
                c.update(&[1]);
                c.update(&radius.to_le_bytes());
            }
        }
    }
    c.finish()
}

/// The manifest's fields and their byte ranges (LE): schema version
/// (u32), mesh fingerprint (u64), global element count (u64) and
/// polynomial order (u32).
const MANIFEST_FIELDS: [(&str, std::ops::Range<usize>); 4] = [
    ("version", 0..4),
    ("mesh_hash", 4..12),
    ("nelem_global", 12..20),
    ("order", 20..24),
];

/// The manifest payload of a discretization.
fn manifest_bytes(mesh_hash: u64, nelem_global: usize, order: usize) -> [u8; 24] {
    let values = [
        u64::from(MANIFEST_VERSION),
        mesh_hash,
        nelem_global as u64,
        order as u64,
    ];
    let mut b = [0u8; 24];
    for ((_, at), v) in MANIFEST_FIELDS.into_iter().zip(values) {
        b[at.clone()].copy_from_slice(&v.to_le_bytes()[..at.len()]);
    }
    b
}

/// Validate the checkpoint's manifest field by field against `want`, the
/// manifest of the restoring simulation's discretization.
fn check_manifest(file: &CheckpointFile<'_>, want: [u8; 24]) -> Result<(), CheckpointError> {
    let found = file.payload(MANIFEST_VAR, Dtype::Bytes)?;
    if found.len() != want.len() {
        return Err(CheckpointError::InvalidMetadata {
            path: file.path.to_path_buf(),
            detail: format!("manifest has {} bytes, expected 24", found.len()),
        });
    }
    let le = |b: &[u8]| b.iter().rev().fold(0, |acc, &x| acc << 8 | u64::from(x));
    match MANIFEST_FIELDS
        .into_iter()
        .find(|(_, at)| found[at.clone()] != want[at.clone()])
    {
        Some((field, at)) => Err(CheckpointError::LayoutMismatch {
            path: file.path.to_path_buf(),
            field,
            expected: le(&want[at.clone()]),
            found: le(&found[at]),
        }),
        None => Ok(()),
    }
}

/// One global field of a checkpoint: where it lives in the solver state.
/// `i` indexes a lag level or a projection vector, `d` a velocity or
/// forcing component.
#[derive(Debug, Clone, Copy)]
enum Field {
    U(usize),
    P,
    T,
    ULag(usize, usize),
    TLag(usize),
    FLag(usize, usize),
    FtLag(usize),
    ProjBasis(usize),
    ProjImage(usize),
}

/// The field inventory: every global field of a checkpoint in file
/// order, fixed by the lag depths `[u_lag, f_lag, t_lag]` (`ft_lag` is
/// pushed with `f_lag` and shares its depth) and the projection count. The writer encodes in this order and the restore
/// reads in it; every rank derives the same list, so the packed gather
/// needs no per-field framing.
fn inventory([du, df, dt]: [usize; 3], nproj: usize) -> Vec<Field> {
    use Field::*;
    let mut out = vec![U(0), U(1), U(2), P, T];
    out.extend((0..du).flat_map(|i| (0..3).map(move |d| ULag(i, d))));
    out.extend((0..dt).map(TLag));
    out.extend((0..df).flat_map(|i| (0..3).map(move |d| FLag(i, d))));
    out.extend((0..df).map(FtLag));
    out.extend((0..nproj).map(ProjBasis));
    out.extend((0..nproj).map(ProjImage));
    out
}

impl Field {
    /// The variable name the field is stored under.
    fn var_name(self) -> String {
        match self {
            Field::U(d) => format!("u{d}"),
            Field::P => "p".to_string(),
            Field::T => "t".to_string(),
            Field::ULag(i, d) => format!("u_lag{i}_{d}"),
            Field::TLag(i) => format!("t_lag{i}"),
            Field::FLag(i, d) => format!("f_lag{i}_{d}"),
            Field::FtLag(i) => format!("ft_lag{i}"),
            Field::ProjBasis(i) => format!("proj_basis{i}"),
            Field::ProjImage(i) => format!("proj_image{i}"),
        }
    }

    /// The field's values in `s` and the projection space.
    fn of<'a>(self, s: &'a FlowState, basis: &'a [Vec<f64>], images: &'a [Vec<f64>]) -> &'a [f64] {
        match self {
            Field::U(d) => &s.u[d],
            Field::P => &s.p,
            Field::T => &s.t,
            Field::ULag(i, d) => &s.u_lag[i][d],
            Field::TLag(i) => &s.t_lag[i],
            Field::FLag(i, d) => &s.f_lag[i][d],
            Field::FtLag(i) => &s.ft_lag[i],
            Field::ProjBasis(i) => &basis[i],
            Field::ProjImage(i) => &images[i],
        }
    }

    /// The field's storage in a state being restored.
    fn slot<'a>(
        self,
        s: &'a mut FlowState,
        basis: &'a mut [Vec<f64>],
        images: &'a mut [Vec<f64>],
    ) -> &'a mut Vec<f64> {
        match self {
            Field::U(d) => &mut s.u[d],
            Field::P => &mut s.p,
            Field::T => &mut s.t,
            Field::ULag(i, d) => &mut s.u_lag[i][d],
            Field::TLag(i) => &mut s.t_lag[i],
            Field::FLag(i, d) => &mut s.f_lag[i][d],
            Field::FtLag(i) => &mut s.ft_lag[i],
            Field::ProjBasis(i) => &mut basis[i],
            Field::ProjImage(i) => &mut images[i],
        }
    }
}

/// The lag depths `[u_lag, f_lag, t_lag]` of `s`, as stored.
fn lag_depths(s: &FlowState) -> [usize; 3] {
    [s.u_lag.len(), s.f_lag.len(), s.t_lag.len()]
}

/// This rank's fields, named, in [`inventory`] order.
fn local_field_list<'a>(
    s: &'a FlowState,
    basis: &'a [Vec<f64>],
    images: &'a [Vec<f64>],
) -> Vec<(String, &'a [f64])> {
    inventory(lag_depths(s), basis.len())
        .into_iter()
        .map(|f| (f.var_name(), f.of(s, basis, images)))
        .collect()
}

/// This rank's element blocks of one global field, copied straight from
/// the field's payload bytes: the mirror of the writer's block scatter.
fn local_blocks(payload: &[u8], elems: &[usize], n_per: usize) -> Vec<f64> {
    let block = 8 * n_per;
    let mut out = Vec::with_capacity(elems.len() * n_per);
    for &ge in elems {
        out.extend(decode_f64s(&payload[ge * block..(ge + 1) * block]));
    }
    out
}

/// One generation encoded in memory: the BPL image of the whole file up
/// to (not including) its `__crc64` table, and where each variable sits.
struct Generation {
    image: BplImage,
    spans: Vec<VarSpan>,
    istep: usize,
    time: f64,
}

impl Generation {
    /// Append the `__crc64` table.
    fn seal(&mut self) {
        let rec = crc_table(
            self.image.as_bytes(),
            self.istep as u64,
            self.time,
            &self.spans,
        );
        self.image.bytes(CRC_VAR, &[rec.len() as u64], &rec);
    }

    /// Seal the image and write it atomically to `path`.
    fn persist(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.seal();
        write_file_atomic(path, self.image.as_bytes()).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

/// Encode this rank's part of a checkpoint of the *global* state.
///
/// A collective: every rank other than 0 ships its element blocks to rank
/// 0 over bit-preserving point-to-point messages (a floating-point
/// reduction would canonicalize `-0.0` and break bitwise restarts) and
/// gets `None`. Rank 0 encodes the file image into `buf` in one pass, in
/// global element order: a rank holding every element copies each field
/// as it is, otherwise the fields are scattered block by block — its own,
/// then each peer's as it arrives.
fn encode_generation(
    sim: &Simulation<'_>,
    buf: Vec<u8>,
    path: &Path,
) -> Result<Option<Generation>, CheckpointError> {
    let comm = sim.comm;
    let n_per = sim.elem_layout.n_per;
    let nelem_global = sim.elem_layout.nelem_global;
    let (basis, images) = sim.projection_state();
    let s = &sim.state;
    let locals = local_field_list(s, basis, images);

    if comm.size() > 1 && comm.rank() != 0 {
        let elems: Vec<u64> = sim.my_elems.iter().map(|&e| e as u64).collect();
        comm.send(0, CHK_TAG, Payload::U64(elems));
        let mut packed = Vec::with_capacity(locals.len() * sim.my_elems.len() * n_per);
        for (_, f) in &locals {
            packed.extend_from_slice(f);
        }
        comm.send(0, CHK_TAG, Payload::F64(packed));
        return Ok(None);
    }

    let nglob = nelem_global * n_per;
    let shape = [nglob as u64];
    let whole =
        sim.my_elems.len() == nelem_global && sim.my_elems.iter().enumerate().all(|(i, &e)| i == e);
    // Exact for the fields and their table records; the metadata, the
    // manifest and the header fit in the slack.
    let capacity = 1024
        + locals
            .iter()
            .map(|(name, _)| BplImage::var_len(name, 1, 8 * nglob) + 10 + name.len())
            .sum::<usize>();
    let mut image = BplImage::file(buf, s.istep as u64, s.time, capacity);
    let mut spans = Vec::with_capacity(locals.len() + 6);
    let mut fields = Vec::with_capacity(locals.len());
    let mut put_field = |image: &mut BplImage, name: &str, local: &[f64]| {
        let span = if whole {
            image.f64s(name, &shape, local)
        } else {
            let span = image.f64_slot(name, &shape, nglob);
            for (le, &ge) in sim.my_elems.iter().enumerate() {
                image.fill_f64s(&span, ge * n_per, &local[le * n_per..(le + 1) * n_per]);
            }
            span
        };
        fields.push(span.clone());
        span
    };
    // u0..t first (the on-disk offset of u0 is load-bearing for
    // corruption tests), then scalar metadata, then the remaining global
    // fields.
    let (head, tail) = locals.split_at(locals.len().min(5));
    for (name, local) in head {
        spans.push(put_field(&mut image, name, local));
    }
    spans.push(image.f64s("meta", &[2], &[s.time, s.istep as f64]));
    let depths = lag_depths(s).map(|d| d as f64);
    spans.push(image.f64s("lag_depths", &[3], &depths));
    spans.push(image.f64s("dt_hist", &[s.dt_hist.len() as u64], &s.dt_hist));
    spans.push(image.f64s("proj_meta", &[1], &[basis.len() as f64]));
    for (name, local) in tail {
        spans.push(put_field(&mut image, name, local));
    }
    let manifest = manifest_bytes(mesh_content_hash(sim.mesh), nelem_global, sim.cfg.order);
    spans.push(image.bytes(MANIFEST_VAR, &[manifest.len() as u64], &manifest));

    if let Err(e) = gather_peers(sim, &mut image, &fields) {
        // Unwind the peers too: they are headed for the barrier.
        comm.poison(&e);
        comm.set_fault(e.clone());
        return Err(CheckpointError::Io {
            path: path.to_path_buf(),
            source: std::io::Error::other(format!("checkpoint gather failed: {e}")),
        });
    }
    Ok(Some(Generation {
        image,
        spans,
        istep: s.istep,
        time: s.time,
    }))
}

/// Rank 0's half of the gather: receive every peer's element list and
/// packed fields and scatter the blocks into the image's field payloads.
fn gather_peers(
    sim: &Simulation<'_>,
    image: &mut BplImage,
    fields: &[VarSpan],
) -> Result<(), CommError> {
    let comm = sim.comm;
    let n_per = sim.elem_layout.n_per;
    let nelem_global = sim.elem_layout.nelem_global;
    let timeout = comm.tuning().recv_timeout;
    for r in 1..comm.size() {
        let elems = comm
            .recv_deadline(r, CHK_TAG, timeout)
            .and_then(Payload::try_into_u64)?;
        let packed = comm
            .recv_deadline(r, CHK_TAG, timeout)
            .and_then(Payload::try_into_f64)?;
        let nr = elems.len() * n_per;
        if packed.len() != fields.len() * nr || elems.iter().any(|&ge| ge as usize >= nelem_global)
        {
            return Err(CommError::Protocol {
                detail: format!(
                    "checkpoint gather from rank {r}: {} values for {} elements ({} fields expected)",
                    packed.len(),
                    elems.len(),
                    fields.len()
                ),
            });
        }
        for (span, field) in fields.iter().zip(packed.chunks_exact(nr.max(1))) {
            for (block, &ge) in field.chunks_exact(n_per).zip(&elems) {
                image.fill_f64s(span, ge as usize * n_per, block);
            }
        }
    }
    Ok(())
}

/// The trailing barrier of a collective write: no rank may proceed (and
/// possibly try to restore) before the generation is visible — or the
/// failure is known — everywhere.
fn write_barrier(sim: &Simulation<'_>, path: &Path) -> Result<(), CheckpointError> {
    let comm = sim.comm;
    if comm.size() > 1 {
        if let Err(e) = comm.try_barrier() {
            comm.set_fault(e.clone());
            return Err(CheckpointError::Io {
                path: path.to_path_buf(),
                source: std::io::Error::other(format!("checkpoint barrier failed: {e}")),
            });
        }
    }
    Ok(())
}

/// Write a checkpoint of the *global* simulation state to `path`,
/// synchronously.
///
/// This is a collective: rank 0 gathers every rank's element blocks (see
/// [`CheckpointSet`] for the same write off the caller's critical path),
/// encodes the fields in global element order and writes atomically with
/// the embedded integrity table, and a trailing barrier holds all ranks
/// until the generation is durable. The file carries no trace of the
/// writing rank count.
pub fn write_checkpoint(sim: &Simulation<'_>, path: &Path) -> Result<(), CheckpointError> {
    let result = encode_generation(sim, Vec::new(), path).and_then(|generation| match generation {
        Some(mut g) => g.persist(path),
        None => Ok(()),
    });
    write_barrier(sim, path)?;
    result
}

/// Restore a checkpoint written by [`write_checkpoint`] into `sim`.
///
/// The mesh and polynomial order must match the checkpoint (enforced by
/// the manifest), but the rank count and partition are free: each rank
/// reads the shared file locally — no communication — and copies
/// exactly the element blocks it owns straight from the file image (no
/// global-length field is built), so an N-rank checkpoint restores on M
/// ranks.
///
/// The checkpoint is fully verified — integrity checksums, the layout
/// manifest, variable presence/type/length, finite payloads, metadata
/// consistency against the configured time order — and the new state is
/// assembled off to the side before being committed, so on *any* error
/// `sim.state` is exactly what it was before the call. The pressure
/// projection space is restored too (it is part of the bitwise restart
/// contract); when the stored space doesn't fit the restoring
/// configuration it is cleared and rebuilds over a few solves.
pub fn read_checkpoint(sim: &mut Simulation<'_>, path: &Path) -> Result<(), CheckpointError> {
    let image = std::fs::read(path).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let file = CheckpointFile::parse(path, &image)?;
    file.verify()?;
    let invalid = |detail: String| CheckpointError::InvalidMetadata {
        path: path.to_path_buf(),
        detail,
    };

    let n_per = sim.elem_layout.n_per;
    let nelem_global = sim.elem_layout.nelem_global;
    let manifest = manifest_bytes(mesh_content_hash(sim.mesh), nelem_global, sim.cfg.order);
    check_manifest(&file, manifest)?;
    let [time, istep] = file.values("meta")?;
    let istep = take_count(path, istep, "step counter", u32::MAX as usize)?;

    // Lag depths must be consistent with the BDF/EXT order: a checkpoint
    // from a higher-order run (or corrupted metadata) would otherwise make
    // the multistep update index out of bounds or silently integrate with
    // the wrong scheme.
    let max_order = TIME_ORDER;
    let mut depths = [0; 3];
    for ((what, value), depth) in ["u_lag", "f_lag", "t_lag"]
        .into_iter()
        .zip(file.values::<3>("lag_depths")?)
        .zip(&mut depths)
    {
        *depth = take_count(path, value, &format!("{what} depth"), MAX_LAG_DEPTH)?;
        if *depth > max_order {
            return Err(invalid(format!(
                "{what} depth {depth} exceeds configured time order {max_order}"
            )));
        }
    }
    let [nproj] = file.values("proj_meta")?;
    let nproj = take_count(path, nproj, "projection count", MAX_PROJ_VECS)?;

    let dt_bytes = file.payload("dt_hist", Dtype::F64)?;
    if dt_bytes.len() > 8 * MAX_LAG_DEPTH {
        return Err(invalid(format!(
            "dt_hist has {} entries (max {MAX_LAG_DEPTH})",
            dt_bytes.len() / 8
        )));
    }
    let dt_hist: Vec<f64> = decode_f64s(dt_bytes).collect();
    if dt_hist.iter().any(|&dt| !dt.is_finite() || dt <= 0.0) {
        return Err(invalid(
            "dt_hist contains non-positive or non-finite steps".to_string(),
        ));
    }

    // The fields, stored globally: each rank copies out its own element
    // blocks into a state assembled off to the side. The projection space
    // is restored too, so a mid-run restart replays the original Krylov
    // trajectory bitwise.
    let [du, df, dt] = depths;
    let mut new = FlowState::new(0);
    new.time = time;
    new.istep = istep;
    new.dt_hist = dt_hist;
    new.u_lag = vec![Default::default(); du];
    new.t_lag = vec![Vec::new(); dt];
    new.f_lag = vec![Default::default(); df];
    new.ft_lag = vec![Vec::new(); df];
    let mut basis = vec![Vec::new(); nproj];
    let mut images = vec![Vec::new(); nproj];
    for field in inventory(depths, nproj) {
        let payload = file.f64s(&field.var_name(), nelem_global * n_per)?;
        *field.slot(&mut new, &mut basis, &mut images) =
            local_blocks(payload, &sim.my_elems, n_per);
    }

    // Everything verified: commit in one move. The projection space is
    // part of the restart contract; if the stored space does not fit this
    // solver (more directions than its space holds), fall back to an
    // empty space that rebuilds over the next few solves.
    sim.state = new;
    if !sim.restore_projection(basis, images) {
        sim.reset_projection();
    }
    Ok(())
}

/// The path and per-generation failures of a successful rotating restore.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// The generation that restored cleanly.
    pub path: PathBuf,
    /// Newer generations that were tried and rejected, with why.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// A generation that reached durable storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableGeneration {
    /// Step the generation captures.
    pub istep: usize,
    /// Where it landed.
    pub path: PathBuf,
    /// Seconds from the hand-off to the writer until the directory fsync.
    /// On more than one rank, ranks other than 0 hand their blocks to rank
    /// 0 and time until the barrier that follows its fsync.
    pub write_s: f64,
}

/// One generation handed to the writer thread.
struct Job {
    generation: Generation,
    path: PathBuf,
    handed: Instant,
}

/// The writer thread's answer: the image buffer back, and the outcome.
struct Done {
    image: Vec<u8>,
    outcome: Result<DurableGeneration, CheckpointError>,
}

/// The persistent writer thread of a set and its two channels.
struct Writer {
    jobs: Sender<Job>,
    done: Receiver<Done>,
    thread: JoinHandle<()>,
}

impl Writer {
    fn spawn(dir: PathBuf, keep: usize) -> std::io::Result<Self> {
        let (jobs, job_rx) = channel::<Job>();
        let (done_tx, done) = channel::<Done>();
        let thread = std::thread::Builder::new()
            .name("rbx-checkpoint".into())
            .spawn(move || {
                for job in job_rx {
                    let Job {
                        mut generation,
                        path,
                        handed,
                    } = job;
                    let outcome = land_generation(&dir, keep, &mut generation, &path).map(|()| {
                        DurableGeneration {
                            istep: generation.istep,
                            path,
                            write_s: handed.elapsed().as_secs_f64(),
                        }
                    });
                    let image = generation.image.into_inner();
                    if done_tx.send(Done { image, outcome }).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self { jobs, done, thread })
    }
}

/// The writer thread's work for one generation: create the directory,
/// seal and atomically write the image, then prune the set to `keep`
/// generations. Pruning is best-effort: a failed unlink must not fail the
/// checkpoint that just landed safely.
fn land_generation(
    dir: &Path,
    keep: usize,
    generation: &mut Generation,
    path: &Path,
) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    generation.persist(path)?;
    for old in list_generations(dir).into_iter().skip(keep) {
        let _ = std::fs::remove_file(old);
    }
    Ok(())
}

/// The newest generation not yet reported to the caller.
enum Pending {
    /// Every generation has been reported.
    Idle,
    /// With the writer thread.
    InFlight {
        /// Step the generation captures.
        istep: usize,
        /// Where it is headed.
        path: PathBuf,
    },
    /// Landed or failed, not yet reported.
    Settled(Result<DurableGeneration, CheckpointError>),
}

/// A set's writer state: the thread, the one recycled image buffer (held
/// here whenever no generation is in flight) and the unreported outcome.
struct WriterState {
    writer: Option<Writer>,
    image: Vec<u8>,
    pending: Pending,
}

impl WriterState {
    /// Wait for the generation in flight, if any, and keep its outcome.
    fn land_in_flight(&mut self) {
        if let Pending::InFlight { istep, path } = &self.pending {
            let done = self.writer.as_ref().map(|w| w.done.recv());
            let outcome = match done {
                Some(Ok(done)) => {
                    self.image = done.image;
                    done.outcome
                }
                _ => {
                    // The thread is gone (it panicked); the next write
                    // spawns a fresh one.
                    if let Some(w) = self.writer.take() {
                        let _ = w.thread.join();
                    }
                    Err(CheckpointError::Io {
                        path: path.clone(),
                        source: std::io::Error::other("checkpoint writer thread exited"),
                    })
                }
            };
            let istep = *istep;
            self.pending = Pending::Settled(outcome.map_err(|e| CheckpointError::WriteFailed {
                istep,
                source: Box::new(e),
            }));
        }
    }

    /// Wait for the generation in flight and report the unreported
    /// outcome, if any.
    fn take_outcome(&mut self) -> Option<Result<DurableGeneration, CheckpointError>> {
        self.land_in_flight();
        match std::mem::replace(&mut self.pending, Pending::Idle) {
            Pending::Settled(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// A rotating set of checkpoint generations in one directory.
///
/// Files are named `chk_<istep:010>.bpl`; the newest `keep` generations
/// are kept, and [`CheckpointSet::restore_latest`] walks newest-to-oldest
/// until one generation passes full verification.
///
/// On one rank, [`CheckpointSet::write`] costs the caller one copy of the
/// fields into the set's image buffer: a persistent writer thread,
/// spawned by the first write and joined when the set is dropped,
/// checksums, writes, fsyncs, renames and prunes while the solver moves
/// on. At most one generation is in flight, and the image buffer travels
/// to the thread and back, so a set holds exactly one image. Readers —
/// [`CheckpointSet::generations`] and every restore — wait for the
/// generation in flight first. Every failed generation is reported
/// exactly once, as the `Err` ([`CheckpointError::WriteFailed`], naming
/// its step) of the first `write`, [`CheckpointSet::settle`] or restore
/// that observes it. No later `write` observes the last generation, so
/// its failure reaches the owner only through `settle` or a restore; a
/// set dropped with a failure unreported prints it to stderr. On more
/// than one rank a write waits for durability before its trailing
/// barrier, as [`write_checkpoint`] does.
pub struct CheckpointSet {
    dir: PathBuf,
    keep: usize,
    state: Mutex<WriterState>,
}

impl CheckpointSet {
    /// A set rooted at `dir`, keeping the newest `keep` (≥ 1) generations.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep: keep.max(1),
            state: Mutex::new(WriterState {
                writer: None,
                image: Vec::new(),
                pending: Pending::Idle,
            }),
        }
    }

    /// The directory holding the generations.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name for a given step index.
    pub fn path_for_step(&self, istep: usize) -> PathBuf {
        self.dir.join(format!("chk_{istep:010}.bpl"))
    }

    fn state(&self) -> MutexGuard<'_, WriterState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Existing generations, newest (highest step) first, after the
    /// generation in flight has landed.
    pub fn generations(&self) -> Vec<PathBuf> {
        self.state().land_in_flight();
        list_generations(&self.dir)
    }

    /// Checkpoint `sim` as a new generation; returns the path it lands at.
    ///
    /// Waits first for the previous generation: if that one failed, its
    /// error is what this call returns (the new generation is still
    /// handed off). On one rank the call then returns as soon as the
    /// image is encoded; on more than one it is a collective (see
    /// [`write_checkpoint`]) that returns once rank 0's write is durable.
    /// All ranks call this with the *same shared directory*.
    pub fn write(&self, sim: &Simulation<'_>) -> Result<PathBuf, CheckpointError> {
        let mut st = self.state();
        let previous = st.take_outcome();
        let current = self.hand_off(&mut st, sim);
        match previous {
            Some(Err(e)) => {
                if let Err(c) = current {
                    st.pending = Pending::Settled(Err(c));
                }
                Err(e)
            }
            _ => current,
        }
    }

    /// Encode `sim` and give the image to the writer thread; on more than
    /// one rank, wait for it and pass the barrier.
    fn hand_off(
        &self,
        st: &mut WriterState,
        sim: &Simulation<'_>,
    ) -> Result<PathBuf, CheckpointError> {
        let istep = sim.state.istep;
        let path = self.path_for_step(istep);
        let failed = |e| CheckpointError::WriteFailed {
            istep,
            source: Box::new(e),
        };
        let buf = std::mem::take(&mut st.image);
        let mut result = encode_generation(sim, buf, &path).and_then(|generation| {
            let Some(generation) = generation else {
                return Ok(());
            };
            if st.writer.is_none() {
                let writer = Writer::spawn(self.dir.clone(), self.keep).map_err(|source| {
                    CheckpointError::Io {
                        path: path.clone(),
                        source,
                    }
                })?;
                st.writer = Some(writer);
            }
            let job = Job {
                generation,
                path: path.clone(),
                // audit:allow(det-wallclock): hand-off time for the durable-latency report; never written into the image
                handed: Instant::now(),
            };
            if let Some(w) = &st.writer {
                if w.jobs.send(job).is_ok() {
                    st.pending = Pending::InFlight {
                        istep,
                        path: path.clone(),
                    };
                    return Ok(());
                }
            }
            st.writer = None;
            Err(CheckpointError::Io {
                path: path.clone(),
                source: std::io::Error::other("checkpoint writer thread exited"),
            })
        });
        if sim.comm.size() == 1 {
            return result.map(|()| path).map_err(failed);
        }
        // More than one rank: durable before the barrier. Rank 0 reports
        // its writer's hand-off-to-fsync latency; the others time from
        // shipping their blocks to rank 0 until the barrier that follows
        // the fsync.
        // audit:allow(det-wallclock): the other ranks' hand-off time for the durable-latency report; never written into the image
        let shipped = Instant::now();
        let mut durable_s = None;
        if result.is_ok() {
            match st.take_outcome() {
                Some(Err(e)) => result = Err(e),
                Some(Ok(g)) => durable_s = Some(g.write_s),
                None => {}
            }
        }
        let barrier = write_barrier(sim, &path);
        match result.and(barrier) {
            Ok(()) => {
                st.pending = Pending::Settled(Ok(DurableGeneration {
                    istep,
                    path: path.clone(),
                    write_s: durable_s.unwrap_or_else(|| shipped.elapsed().as_secs_f64()),
                }));
                Ok(path)
            }
            Err(e @ CheckpointError::WriteFailed { .. }) => Err(e),
            Err(e) => Err(failed(e)),
        }
    }

    /// Wait for the generation in flight and report the unreported one:
    /// `Ok(Some(_))` once it is durable, `Ok(None)` when every generation
    /// has been reported, `Err` if it failed.
    pub fn settle(&self) -> Result<Option<DurableGeneration>, CheckpointError> {
        self.state().take_outcome().transpose()
    }

    /// Before a read: land the generation in flight and report it if it
    /// failed.
    fn settle_for_read(&self) -> Result<(), CheckpointError> {
        let mut st = self.state();
        st.land_in_flight();
        if let Pending::Settled(Err(_)) = st.pending {
            if let Some(Err(e)) = st.take_outcome() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Restore the newest generation that passes verification.
    pub fn restore_latest(
        &self,
        sim: &mut Simulation<'_>,
    ) -> Result<RestoreOutcome, CheckpointError> {
        self.restore_skipping(sim, 0)
    }

    /// Restore, ignoring the newest `skip` generations — the recovery
    /// loop escalates `skip` when restarting from a generation keeps
    /// diverging at the same spot.
    pub fn restore_skipping(
        &self,
        sim: &mut Simulation<'_>,
        skip: usize,
    ) -> Result<RestoreOutcome, CheckpointError> {
        self.restore_walk(sim, skip, None)
    }

    /// [`CheckpointSet::restore_latest`] that never reads `tried`: a file
    /// the caller has already read and rejected (a `--restart` file that
    /// lives in this directory), so it is neither read nor reported twice.
    pub fn restore_latest_except(
        &self,
        sim: &mut Simulation<'_>,
        tried: Option<&Path>,
    ) -> Result<RestoreOutcome, CheckpointError> {
        self.restore_walk(sim, 0, tried)
    }

    fn restore_walk(
        &self,
        sim: &mut Simulation<'_>,
        skip: usize,
        tried: Option<&Path>,
    ) -> Result<RestoreOutcome, CheckpointError> {
        self.settle_for_read()?;
        let same = |a: &Path, b: &Path| match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
            (Ok(a), Ok(b)) => a == b,
            _ => a == b,
        };
        let mut rejected = Vec::new();
        for path in list_generations(&self.dir).into_iter().skip(skip) {
            if tried.is_some_and(|t| same(t, &path)) {
                continue;
            }
            match read_checkpoint(sim, &path) {
                Ok(()) => return Ok(RestoreOutcome { path, rejected }),
                Err(e) => rejected.push((path, e)),
            }
        }
        Err(CheckpointError::NoUsableCheckpoint {
            dir: self.dir.clone(),
            tried: rejected.len(),
        })
    }
}

impl CheckpointSet {
    /// Land the generation in flight, join the writer thread and return
    /// the failure no caller has been told of, if any.
    fn close(&mut self) -> Option<CheckpointError> {
        let st = self
            .state
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let unreported = st.take_outcome().and_then(Result::err);
        if let Some(w) = st.writer.take() {
            // Closing the job channel ends the thread's loop.
            drop(w.jobs);
            let _ = w.thread.join();
        }
        unreported
    }
}

/// Dropping a set waits for the generation in flight to land and joins
/// the writer thread. A failure no `write`, `settle` or restore has
/// reported — the last generation's, when the owner never settles — has
/// no caller left to return to, so it is printed to stderr.
impl Drop for CheckpointSet {
    fn drop(&mut self) {
        if let Some(e) = self.close() {
            eprintln!("[rbx] checkpoint set dropped with an unreported failure: {e}");
        }
    }
}

/// Generations in `dir`, newest (highest step) first.
fn list_generations(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(step) = name
                .strip_prefix("chk_")
                .and_then(|s| s.strip_suffix(".bpl"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((step, e.path()));
            }
        }
    }
    out.sort_by_key(|&(step, _)| std::cmp::Reverse(step));
    out.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use rbx_comm::SingleComm;
    use rbx_io::{StepData, VarData, Variable};
    use rbx_mesh::generators::box_mesh;

    fn cfg() -> SolverConfig {
        SolverConfig {
            ra: 1e4,
            order: 3,
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        }
    }

    /// CRC-64 of a decoded variable, the reference `span_crc` must match:
    /// shape dims (LE) then payload bytes.
    fn var_crc(v: &Variable) -> u64 {
        let mut c = Crc64::new();
        for &d in &v.shape {
            c.update(&d.to_le_bytes());
        }
        match &v.data {
            VarData::F64(data) => data.iter().for_each(|x| c.update(&x.to_le_bytes())),
            VarData::Bytes(data) => c.update(data),
        }
        c.finish()
    }

    /// Build the `__crc64` integrity table for a step's variables the
    /// generic way: the header record, then one record per variable in
    /// file order.
    fn integrity_var(step: u64, time: f64, vars: &[Variable]) -> Variable {
        let mut rec = Vec::new();
        push_crc_record(&mut rec, CRC_HEADER.as_bytes(), header_crc(step, time));
        for v in vars {
            push_crc_record(&mut rec, v.name.as_bytes(), var_crc(v));
        }
        let len = rec.len() as u64;
        Variable::bytes(CRC_VAR, vec![len], rec)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbx_checkpoint_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn restart_continues_the_trajectory() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let path = tmpdir("restart").join("chk.bpl");

        // Reference: run 5 + 5 steps uninterrupted.
        let mut a = Simulation::new(cfg(), &mesh, &part, my.clone(), &comm);
        a.init_rbc();
        for _ in 0..5 {
            assert!(a.step().converged);
        }
        write_checkpoint(&a, &path).unwrap();
        for _ in 0..5 {
            assert!(a.step().converged);
        }

        // Restarted: fresh sim, restore at step 5, run 5 more.
        let mut b = Simulation::new(cfg(), &mesh, &part, my, &comm);
        read_checkpoint(&mut b, &path).unwrap();
        assert_eq!(b.state.istep, 5);
        assert!((b.state.time - 5.0 * 2e-3).abs() < 1e-14);
        for _ in 0..5 {
            assert!(b.step().converged);
        }

        // Trajectories agree *bitwise*: the checkpoint captures the full
        // solver state including the pressure-projection space, so the
        // restarted run replays the exact Krylov trajectory.
        for (x, y) in a.state.t.iter().zip(&b.state.t) {
            assert_eq!(x.to_bits(), y.to_bits(), "restart diverged (t)");
        }
        for d in 0..3 {
            for (x, y) in a.state.u[d].iter().zip(&b.state.u[d]) {
                assert_eq!(x.to_bits(), y.to_bits(), "restart diverged (u{d})");
            }
        }
    }

    #[test]
    fn wrong_mesh_is_layout_mismatch() {
        // Same element count, different geometry: only the manifest's mesh
        // fingerprint can tell these apart.
        let mesh_a = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let mesh_b = box_mesh(2, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("layoutmesh").join("chk.bpl");
        let mut a = Simulation::new(cfg(), &mesh_a, &part, vec![0, 1], &comm);
        a.init_rbc();
        a.step();
        write_checkpoint(&a, &path).unwrap();
        let mut b = Simulation::new(cfg(), &mesh_b, &part, vec![0, 1], &comm);
        b.init_rbc();
        let t0 = b.state.t.clone();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::LayoutMismatch {
                    field: "mesh_hash",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("layout mismatch"), "{err}");
        assert_state_untouched(&b, &t0, 0);
    }

    #[test]
    fn wrong_order_is_layout_mismatch() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("layoutorder").join("chk.bpl");
        let mut a = Simulation::new(cfg(), &mesh, &part, vec![0, 1], &comm);
        a.init_rbc();
        a.step();
        write_checkpoint(&a, &path).unwrap();
        let cfg2 = SolverConfig { order: 2, ..cfg() };
        let mut b = Simulation::new(cfg2, &mesh, &part, vec![0, 1], &comm);
        b.init_rbc();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::LayoutMismatch {
                    field: "order",
                    expected: 2,
                    found: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_preserves_lag_depth_and_order() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("lag").join("lag.bpl");

        let mut a = Simulation::new(cfg(), &mesh, &part, vec![0, 1], &comm);
        a.init_rbc();
        for _ in 0..4 {
            a.step();
        }
        write_checkpoint(&a, &path).unwrap();
        let mut b = Simulation::new(cfg(), &mesh, &part, vec![0, 1], &comm);
        read_checkpoint(&mut b, &path).unwrap();
        assert_eq!(b.state.u_lag.len(), a.state.u_lag.len());
        assert_eq!(b.state.f_lag.len(), a.state.f_lag.len());
        for (x, y) in a.state.u_lag[0][2].iter().zip(&b.state.u_lag[0][2]) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Next step from the restored state is at full BDF order
        // immediately (lag history present) and converges.
        assert!(b.step().converged);
        assert_eq!(b.state.istep, 5);
    }

    /// Build a stepped sim plus an untouched clone for corruption tests.
    fn stepped_pair<'a>(
        mesh: &'a rbx_mesh::HexMesh,
        part: &[usize],
        comm: &'a SingleComm,
    ) -> (Simulation<'a>, Simulation<'a>) {
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut a = Simulation::new(cfg(), mesh, part, my.clone(), comm);
        a.init_rbc();
        for _ in 0..3 {
            a.step();
        }
        let mut b = Simulation::new(cfg(), mesh, part, my, comm);
        b.init_rbc();
        (a, b)
    }

    fn assert_state_untouched(sim: &Simulation<'_>, before_t: &[f64], before_istep: usize) {
        assert_eq!(
            sim.state.istep, before_istep,
            "istep modified by failed restore"
        );
        for (x, y) in sim.state.t.iter().zip(before_t) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "temperature modified by failed restore"
            );
        }
    }

    #[test]
    fn missing_variable_is_typed_error() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let path = tmpdir("missing").join("bad.bpl");
        // A BPL file that is a valid container but not a checkpoint: give
        // it a (correct) integrity table so the structural check passes
        // and the missing-variable check is what fires.
        let vars: Vec<Variable> = vec![];
        let crc = integrity_var(0, 0.0, &vars);
        rbx_io::write_bpl(
            &path,
            &[StepData {
                step: 0,
                time: 0.0,
                vars: vec![crc],
            }],
        )
        .unwrap();
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        let t0 = sim.state.t.clone();
        let err = read_checkpoint(&mut sim, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::MissingVariable { ref name, .. } if name == MANIFEST_VAR),
            "{err}"
        );
        assert!(err.to_string().contains("missing"), "{err}");
        assert_state_untouched(&sim, &t0, 0);
    }

    #[test]
    fn truncated_file_is_typed_error_and_state_untouched() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("trunc").join("chk.bpl");
        let (a, mut b) = stepped_pair(&mesh, &part, &comm);
        write_checkpoint(&a, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let t0 = b.state.t.clone();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        assert_state_untouched(&b, &t0, 0);
    }

    #[test]
    fn wrong_length_variable_is_typed_error() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("wronglen").join("chk.bpl");
        let (a, mut b) = stepped_pair(&mesh, &part, &comm);
        write_checkpoint(&a, &path).unwrap();
        // Shorten "p" and rebuild the integrity table so the length check
        // (not the checksum) is what trips.
        let mut steps = rbx_io::read_bpl(&path).unwrap();
        let step = &mut steps[0];
        step.vars.retain(|v| v.name != CRC_VAR);
        for v in step.vars.iter_mut() {
            if v.name == "p" {
                if let VarData::F64(data) = &mut v.data {
                    data.truncate(data.len() - 3);
                    v.shape = vec![data.len() as u64];
                }
            }
        }
        let crc = integrity_var(step.step, step.time, &step.vars);
        step.vars.push(crc);
        rbx_io::write_bpl(&path, &steps).unwrap();
        let t0 = b.state.t.clone();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::WrongLength { ref name, .. } if name == "p"),
            "{err}"
        );
        assert_state_untouched(&b, &t0, 0);
    }

    #[test]
    fn bit_flip_is_rejected_by_checksum() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("bitflip").join("chk.bpl");
        let (a, mut b) = stepped_pair(&mesh, &part, &comm);
        write_checkpoint(&a, &path).unwrap();
        // Flip one bit inside the u0 payload: past magic (4), step header
        // (21), name record (2 + 2), dtype (1), ndims (1), one dim (8),
        // payload length (8).
        let off = 4 + 21 + 2 + 2 + 1 + 1 + 8 + 8 + 40;
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(off < bytes.len());
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let t0 = b.state.t.clone();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { ref name, .. } if name == "u0"),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_state_untouched(&b, &t0, 0);
    }

    #[test]
    fn nan_payload_is_rejected() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let path = tmpdir("nanpay").join("chk.bpl");
        let my: Vec<usize> = vec![0];
        let mut a = Simulation::new(cfg(), &mesh, &[0], my.clone(), &comm);
        a.init_rbc();
        a.step();
        a.state.t[0] = f64::NAN;
        write_checkpoint(&a, &path).unwrap();
        let mut b = Simulation::new(cfg(), &mesh, &[0], my, &comm);
        b.init_rbc();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NonFiniteData { ref name, .. } if name == "t"),
            "{err}"
        );
    }

    #[test]
    fn lag_depth_beyond_configured_order_is_rejected() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let path = tmpdir("lagdepth").join("chk.bpl");
        let (a, mut b) = stepped_pair(&mesh, &part, &comm);
        write_checkpoint(&a, &path).unwrap();
        let mut steps = rbx_io::read_bpl(&path).unwrap();
        let step = &mut steps[0];
        step.vars.retain(|v| v.name != CRC_VAR);
        for v in step.vars.iter_mut() {
            if v.name == "lag_depths" {
                // Claims depth 7 > time_order (3) but still ≤ the sanity
                // bound, so the order check is what must fire.
                v.data = VarData::F64(vec![7.0, 7.0, 7.0]);
            }
        }
        let crc = integrity_var(step.step, step.time, &step.vars);
        step.vars.push(crc);
        rbx_io::write_bpl(&path, &steps).unwrap();
        let err = read_checkpoint(&mut b, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::InvalidMetadata { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("time order"), "{err}");
    }

    /// The checkpoint of a one-rank `sim` built the generic way:
    /// `Variable`s in file order, the table from `integrity_var`, written
    /// through `rbx_io::write_bpl`.
    fn generic_checkpoint(sim: &Simulation<'_>, path: &Path) {
        let s = &sim.state;
        let (basis, images) = sim.projection_state();
        let fields = local_field_list(s, basis, images);
        let field = |(name, data): &(String, &[f64])| {
            Variable::f64(name.as_str(), vec![data.len() as u64], data.to_vec())
        };
        let mut vars: Vec<Variable> = fields[..5].iter().map(field).collect();
        vars.push(Variable::f64("meta", vec![2], vec![s.time, s.istep as f64]));
        let depths = [s.u_lag.len(), s.f_lag.len(), s.t_lag.len()];
        vars.push(Variable::f64(
            "lag_depths",
            vec![3],
            depths.map(|d| d as f64).to_vec(),
        ));
        vars.push(Variable::f64(
            "dt_hist",
            vec![s.dt_hist.len() as u64],
            s.dt_hist.clone(),
        ));
        vars.push(Variable::f64(
            "proj_meta",
            vec![1],
            vec![basis.len() as f64],
        ));
        vars.extend(fields[5..].iter().map(field));
        let nelem = sim.elem_layout.nelem_global;
        let manifest = manifest_bytes(mesh_content_hash(sim.mesh), nelem, sim.cfg.order);
        vars.push(Variable::bytes(MANIFEST_VAR, vec![24], manifest.to_vec()));
        vars.push(integrity_var(s.istep as u64, s.time, &vars));
        let step = StepData {
            step: s.istep as u64,
            time: s.time,
            vars,
        };
        rbx_io::write_bpl(path, &[step]).unwrap();
    }

    #[test]
    fn one_pass_image_matches_the_generic_step_encoding() {
        use crate::case::{rbc_box_case, rbc_cylinder_case};
        use rbx_comm::{run_on_ranks, Communicator};
        let cases = [
            (
                "box",
                rbc_box_case(1.0, 2, 2, false, 1),
                rbc_box_case(1.0, 2, 2, false, 2),
            ),
            (
                "cyl",
                rbc_cylinder_case(1.0, 1, 1),
                rbc_cylinder_case(1.0, 1, 2),
            ),
        ];
        for (tag, one, two) in &cases {
            let dir = tmpdir(&format!("encode_{tag}"));
            let comm = SingleComm::new();
            let mut sim = Simulation::new(cfg(), &one.mesh, &one.part, one.elems[0].clone(), &comm);
            sim.init_rbc();
            for _ in 0..3 {
                sim.step();
            }
            generic_checkpoint(&sim, &dir.join("generic.bpl"));
            write_checkpoint(&sim, &dir.join("one.bpl")).unwrap();
            let set = CheckpointSet::new(dir.join("set"), 2);
            let landed = set.write(&sim).unwrap();
            set.settle().unwrap();
            let two_ranks = dir.join("two.bpl");
            run_on_ranks(2, |comm| {
                let elems = two.elems[comm.rank()].clone();
                let mut sim = Simulation::new(cfg(), &two.mesh, &two.part, elems, comm);
                sim.init_rbc();
                for _ in 0..3 {
                    sim.step();
                }
                write_checkpoint(&sim, &two_ranks).unwrap();
            });
            let want = std::fs::read(dir.join("generic.bpl")).unwrap();
            for got in [dir.join("one.bpl"), landed, two_ranks] {
                assert!(
                    std::fs::read(&got).unwrap() == want,
                    "{tag}: {} differs",
                    got.display()
                );
            }
        }
    }

    #[test]
    fn restore_right_after_write_finds_that_generation() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let set = CheckpointSet::new(tmpdir("restore_now"), 3);
        let (mut a, mut b) = stepped_pair(&mesh, &part, &comm);
        set.write(&a).unwrap();
        a.step();
        let path = set.write(&a).unwrap();
        let outcome = set.restore_latest(&mut b).unwrap();
        assert_eq!(outcome.path, path);
        assert!(outcome.rejected.is_empty());
        assert_eq!(b.state.istep, a.state.istep);
    }

    #[test]
    fn failed_generation_is_reported_once_naming_its_step() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        // The set's directory sits under a regular file: every generation
        // fails on the writer thread.
        let blocker = tmpdir("failing").join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let set = CheckpointSet::new(blocker.join("chk"), 3);
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        fn failed_step<T: fmt::Debug>(r: Result<T, CheckpointError>) -> usize {
            match r {
                Err(e @ CheckpointError::WriteFailed { istep, .. }) => {
                    assert!(e.to_string().contains(&format!("step {istep}")), "{e}");
                    istep
                }
                other => panic!("expected WriteFailed, got {other:?}"),
            }
        }
        sim.step();
        // The hand-off itself succeeds; the failure surfaces once, on the
        // next call that observes it.
        assert_eq!(set.write(&sim).unwrap(), set.path_for_step(1));
        sim.step();
        assert_eq!(failed_step(set.write(&sim)), 1);
        assert_eq!(failed_step(set.settle()), 2);
        assert!(set.settle().unwrap().is_none());
        sim.step();
        set.write(&sim).unwrap();
        assert_eq!(failed_step(set.restore_latest(&mut sim).map(|o| o.path)), 3);
        let err = set.restore_latest(&mut sim).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NoUsableCheckpoint { tried: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn closing_the_set_hands_over_only_the_unreported_failure() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let blocker = tmpdir("close_failing").join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        sim.step();
        let mut set = CheckpointSet::new(blocker.join("chk"), 3);
        set.write(&sim).unwrap();
        match set.close() {
            Some(CheckpointError::WriteFailed { istep: 1, .. }) => {}
            other => panic!("expected step 1's failure, got {other:?}"),
        }
        assert!(set.close().is_none(), "reported twice");
        // A failure already returned by `settle` is not handed over again.
        let mut set = CheckpointSet::new(blocker.join("chk"), 3);
        set.write(&sim).unwrap();
        assert!(set.settle().is_err());
        assert!(set.close().is_none());
    }

    #[test]
    fn dropping_the_set_lands_the_generation_in_flight() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let dir = tmpdir("drop_joins");
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        sim.step();
        let path = {
            let set = CheckpointSet::new(&dir, 3);
            set.write(&sim).unwrap()
        };
        let mut b = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        read_checkpoint(&mut b, &path).unwrap();
        assert_eq!(b.state.istep, 1);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["chk_0000000001.bpl"]);
    }

    #[test]
    fn rotation_keeps_newest_generations() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let dir = tmpdir("rotate");
        let set = CheckpointSet::new(&dir, 3);
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        for _ in 0..5 {
            sim.step();
            set.write(&sim).unwrap();
        }
        set.settle().unwrap();
        let gens = set.generations();
        assert_eq!(gens.len(), 3, "{gens:?}");
        // Newest first: steps 5, 4, 3.
        let names: Vec<String> = gens
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "chk_0000000005.bpl",
                "chk_0000000004.bpl",
                "chk_0000000003.bpl"
            ]
        );
    }

    #[test]
    fn restore_falls_back_past_corrupt_generation() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let dir = tmpdir("fallback");
        let set = CheckpointSet::new(&dir, 4);
        let my: Vec<usize> = vec![0, 1];
        let mut a = Simulation::new(cfg(), &mesh, &part, my.clone(), &comm);
        a.init_rbc();
        for _ in 0..3 {
            a.step();
            set.write(&a).unwrap();
        }
        set.settle().unwrap();
        // Corrupt the newest generation (bit flip in the middle).
        let newest = set.generations()[0].clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let mut b = Simulation::new(cfg(), &mesh, &part, my, &comm);
        let outcome = set.restore_latest(&mut b).unwrap();
        assert_eq!(b.state.istep, 2, "should have fallen back to step 2");
        assert_eq!(outcome.rejected.len(), 1);
        assert_eq!(outcome.rejected[0].0, newest);
        assert_eq!(
            outcome.path.file_name().unwrap().to_string_lossy(),
            "chk_0000000002.bpl"
        );
    }

    #[test]
    fn all_generations_corrupt_is_typed_error() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let dir = tmpdir("allbad");
        let set = CheckpointSet::new(&dir, 3);
        let mut sim = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        sim.init_rbc();
        for _ in 0..2 {
            sim.step();
            set.write(&sim).unwrap();
        }
        set.settle().unwrap();
        for gen in set.generations() {
            std::fs::write(&gen, b"garbage").unwrap();
        }
        let err = set.restore_latest(&mut sim).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NoUsableCheckpoint { tried: 2, .. }),
            "{err}"
        );
    }

    /// Every bit a restore sets: the lag depths, projection count, scalars
    /// and step history, then each field in inventory order.
    fn state_bits(sim: &Simulation<'_>) -> Vec<u64> {
        let s = &sim.state;
        let (basis, images) = sim.projection_state();
        let mut bits: Vec<u64> = lag_depths(s).map(|d| d as u64).to_vec();
        bits.extend([basis.len() as u64, s.istep as u64, s.time.to_bits()]);
        bits.push(s.dt_hist.len() as u64);
        bits.extend(s.dt_hist.iter().map(|x| x.to_bits()));
        for (_, field) in local_field_list(s, basis, images) {
            bits.push(field.len() as u64);
            bits.extend(field.iter().map(|x| x.to_bits()));
        }
        bits
    }

    #[test]
    fn hostile_bytes_are_rejected_or_restore_the_clean_state() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let dir = tmpdir("hostile");
        let mut a = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        a.init_rbc();
        for _ in 0..3 {
            a.step();
        }
        let clean_path = dir.join("clean.bpl");
        write_checkpoint(&a, &clean_path).unwrap();
        let clean = std::fs::read(&clean_path).unwrap();
        let mut reference = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        read_checkpoint(&mut reference, &clean_path).unwrap();
        let restored = state_bits(&reference);

        // Every case starts from this state, which shares no value with
        // the checkpoint, so a restore that fails part-way shows.
        let mut b = Simulation::new(cfg(), &mesh, &[0], vec![0], &comm);
        b.init_rbc();
        let start = b.state.clone();
        let untouched = state_bits(&b);
        assert!(untouched != restored);
        let path = dir.join("hostile.bpl");
        // `sealed`: the table was recomputed over the mutated bytes, so an
        // `Ok` may restore the mutated values.
        let mut restore = |bytes: &[u8], what: &str, sealed: bool| {
            std::fs::write(&path, bytes).unwrap();
            let result = read_checkpoint(&mut b, &path);
            let after = state_bits(&b);
            match &result {
                Ok(()) => {
                    assert!(
                        sealed || after == restored,
                        "{what}: restored a different state"
                    );
                    b.state = start.clone();
                    b.reset_projection();
                }
                Err(e) => assert!(
                    after == untouched,
                    "{what}: rejected ({e}) but touched the state"
                ),
            }
            result
        };

        // Truncated at a fixed stride: never a complete file.
        for len in (0..clean.len()).step_by(61) {
            assert!(restore(&clean[..len], &format!("truncated to {len}"), false).is_err());
        }

        // Seeded single-byte XOR flips anywhere in the file.
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut flip = || {
            let r = next();
            ((r % clean.len() as u64) as usize, ((r >> 56) as u8).max(1))
        };
        let mut rejected = 0;
        for _ in 0..2000 {
            let (at, mask) = flip();
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            let what = format!("byte {at} ^ {mask:#04x}");
            rejected += usize::from(restore(&bytes, &what, false).is_err());
        }
        assert!(rejected > 1900, "only {rejected} of 2000 flips rejected");

        // Flips with the table recomputed over them, so they reach the
        // checks past the checksum; only those that still parse count.
        let mut reached = 0;
        for _ in 0..500 {
            let (at, mask) = flip();
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            let Ok(steps) = rbx_io::parse_bpl(&bytes) else {
                continue;
            };
            let (spans, table): (Vec<_>, Vec<_>) = steps[0]
                .vars
                .iter()
                .map(|(_, span)| span.clone())
                .partition(|span| &bytes[span.name.clone()] != CRC_VAR.as_bytes());
            let rec = crc_table(&bytes, steps[0].step, steps[0].time, &spans);
            let Some(table) = table.first().filter(|t| t.payload.len() == rec.len()) else {
                continue;
            };
            bytes[table.payload.clone()].copy_from_slice(&rec);
            let _ = restore(&bytes, &format!("sealed byte {at} ^ {mask:#04x}"), true);
            reached += 1;
        }
        assert!(reached > 400, "only {reached} of 500 sealed flips parsed");

        // A payload length past the address space is rejected by the
        // parser's truncation check: nothing is sized from it.
        let steps = rbx_io::parse_bpl(&clean).unwrap();
        let (_, p) = steps[0].var_named(&clean, "p").unwrap();
        let len_at = p.payload.start - 8;
        let mut bytes = clean.clone();
        bytes[len_at..p.payload.start].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = restore(&bytes, "payload_len = u64::MAX", false).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { ref source, .. } if source.kind() == std::io::ErrorKind::InvalidData),
            "{err}"
        );
        assert!(err.to_string().contains("truncated"), "{err}");
        restore(&clean, "clean", false).unwrap();
    }
}
