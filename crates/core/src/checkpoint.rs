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
//!   [`rbx_io::write_bpl_atomic`] (temp sibling + fsync + rename + parent
//!   directory fsync), so a crash mid-write leaves the previous
//!   checkpoint intact, never a torn file.
//! * **Embedded CRC-64** — every variable (and the step header) carries a
//!   CRC-64/XZ in a `__crc64` table; a bit flip anywhere in the file is
//!   detected at restart, not silently integrated for weeks.
//! * **Typed read path** — every failure mode (truncation, missing or
//!   mistyped variables, wrong lengths, non-finite payloads, stale lag
//!   metadata) is a descriptive [`CheckpointError`], and the target
//!   [`Simulation`]'s state is left untouched on any error, so a caller
//!   can fall through to an older generation.
//! * **Rotation** — [`CheckpointSet`] keeps the last K generations
//!   (`chk_<istep>.bpl`) and restores from the newest one that passes
//!   verification, escalating backwards through the survivors.
//!
//! Checkpoints are **topology-independent**: every field is stored in
//! *global element order* — one shared file per generation, independent of
//! how elements were distributed across ranks at write time. A run
//! checkpointed on N ranks restores on M ranks for any M: each rank reads
//! the shared file and extracts exactly the element blocks it owns. The
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
use crate::sim::Simulation;
use rbx_comm::{CommError, Payload};
use rbx_io::{read_bpl, write_bpl_atomic, Crc64, StepData, VarData, Variable};
use rbx_mesh::{Curve, HexMesh};
use std::fmt;
use std::path::{Path, PathBuf};

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
            _ => None,
        }
    }
}

/// CRC-64 of one variable: shape dims (LE) then payload bytes, so a
/// corrupted dimension is caught even when the payload survives.
fn var_crc(v: &Variable) -> u64 {
    let mut c = Crc64::new();
    for &d in &v.shape {
        c.update(&d.to_le_bytes());
    }
    match &v.data {
        VarData::F64(data) => c.update_f64s(data),
        VarData::Bytes(data) => c.update(data),
    }
    c.finish()
}

fn header_crc(step: u64, time: f64) -> u64 {
    let mut c = Crc64::new();
    c.update(&step.to_le_bytes());
    c.update(&time.to_le_bytes());
    c.finish()
}

/// Build the `__crc64` integrity table for a step's variables. Record
/// format, repeated: `name_len u16 LE, name bytes, crc u64 LE`.
pub(crate) fn integrity_var(step: u64, time: f64, vars: &[Variable]) -> Variable {
    let mut rec = Vec::new();
    let mut push = |name: &str, crc: u64| {
        rec.extend_from_slice(&(name.len() as u16).to_le_bytes());
        rec.extend_from_slice(name.as_bytes());
        rec.extend_from_slice(&crc.to_le_bytes());
    };
    push(CRC_HEADER, header_crc(step, time));
    for v in vars {
        push(&v.name, var_crc(v));
    }
    let len = rec.len() as u64;
    Variable::bytes(CRC_VAR, vec![len], rec)
}

fn parse_integrity(path: &Path, step: &StepData) -> Result<Vec<(String, u64)>, CheckpointError> {
    let missing = |detail: &str| CheckpointError::ChecksumMissing {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    let v = step
        .var(CRC_VAR)
        .ok_or_else(|| missing("no __crc64 variable"))?;
    let bytes = match &v.data {
        VarData::Bytes(b) => b.as_slice(),
        _ => return Err(missing("__crc64 has wrong type")),
    };
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        if rest.len() < 2 {
            return Err(missing("truncated record header"));
        }
        let name_len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
        rest = &rest[2..];
        if rest.len() < name_len + 8 {
            return Err(missing("truncated record"));
        }
        let name = std::str::from_utf8(&rest[..name_len])
            .map_err(|_| missing("record name is not UTF-8"))?
            .to_string();
        let mut crc_bytes = [0u8; 8];
        crc_bytes.copy_from_slice(&rest[name_len..name_len + 8]);
        out.push((name, u64::from_le_bytes(crc_bytes)));
        rest = &rest[name_len + 8..];
    }
    Ok(out)
}

/// Verify every checksum in the step against the data actually read.
fn verify_integrity(path: &Path, step: &StepData) -> Result<(), CheckpointError> {
    let table = parse_integrity(path, step)?;
    let lookup = |name: &str| table.iter().find(|(n, _)| n == name).map(|(_, c)| *c);
    let mismatch = |name: &str, stored: u64, computed: u64| CheckpointError::ChecksumMismatch {
        path: path.to_path_buf(),
        name: name.to_string(),
        stored,
        computed,
    };
    let computed = header_crc(step.step, step.time);
    match lookup(CRC_HEADER) {
        Some(stored) if stored == computed => {}
        Some(stored) => return Err(mismatch(CRC_HEADER, stored, computed)),
        None => {
            return Err(CheckpointError::ChecksumMissing {
                path: path.to_path_buf(),
                detail: "no __header record".to_string(),
            })
        }
    }
    for v in &step.vars {
        if v.name == CRC_VAR {
            continue;
        }
        let computed = var_crc(v);
        match lookup(&v.name) {
            Some(stored) if stored == computed => {}
            Some(stored) => return Err(mismatch(&v.name, stored, computed)),
            None => {
                return Err(CheckpointError::ChecksumMissing {
                    path: path.to_path_buf(),
                    detail: format!("no record for variable {:?}", v.name),
                })
            }
        }
    }
    Ok(())
}

/// Move the verified `f64` payload of variable `name` out of `step`.
/// Each variable is taken at most once, so no payload is copied.
// audit:allow(hot-alloc): restore path: runs once per restart; only the error values allocate
fn take(
    path: &Path,
    step: &mut StepData,
    name: &str,
    n: usize,
) -> Result<Vec<f64>, CheckpointError> {
    let v = step
        .vars
        .iter_mut()
        .find(|v| v.name == name)
        .ok_or_else(|| CheckpointError::MissingVariable {
            path: path.to_path_buf(),
            name: name.to_string(),
        })?;
    match &mut v.data {
        VarData::F64(data) => {
            if data.len() != n {
                return Err(CheckpointError::WrongLength {
                    path: path.to_path_buf(),
                    name: name.to_string(),
                    expected: n,
                    actual: data.len(),
                });
            }
            if data.iter().any(|x| !x.is_finite()) {
                return Err(CheckpointError::NonFiniteData {
                    path: path.to_path_buf(),
                    name: name.to_string(),
                });
            }
            Ok(std::mem::take(data))
        }
        _ => Err(CheckpointError::WrongType {
            path: path.to_path_buf(),
            name: name.to_string(),
        }),
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

/// The manifest payload: schema version, mesh fingerprint, global element
/// count and polynomial order. Byte layout (LE): `version u32, mesh_hash
/// u64, nelem_global u64, order u32`.
fn manifest_var(mesh_hash: u64, nelem_global: usize, order: usize) -> Variable {
    let mut b = Vec::with_capacity(24);
    b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    b.extend_from_slice(&mesh_hash.to_le_bytes());
    b.extend_from_slice(&(nelem_global as u64).to_le_bytes());
    b.extend_from_slice(&(order as u32).to_le_bytes());
    let len = b.len() as u64;
    Variable::bytes(MANIFEST_VAR, vec![len], b)
}

/// Parse and validate the manifest against the restoring simulation's
/// discretization.
fn check_manifest(
    path: &Path,
    step: &StepData,
    mesh_hash: u64,
    nelem_global: usize,
    order: usize,
) -> Result<(), CheckpointError> {
    let v = step
        .var(MANIFEST_VAR)
        .ok_or_else(|| CheckpointError::MissingVariable {
            path: path.to_path_buf(),
            name: MANIFEST_VAR.to_string(),
        })?;
    let b = match &v.data {
        VarData::Bytes(b) if b.len() == 24 => b.as_slice(),
        VarData::Bytes(b) => {
            return Err(CheckpointError::InvalidMetadata {
                path: path.to_path_buf(),
                detail: format!("manifest has {} bytes, expected 24", b.len()),
            })
        }
        _ => {
            return Err(CheckpointError::WrongType {
                path: path.to_path_buf(),
                name: MANIFEST_VAR.to_string(),
            })
        }
    };
    // audit:allow(no-panic): try_into on a length-4 slice is infallible; offsets are bounds-checked against the manifest length above
    let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    // audit:allow(no-panic): try_into on a length-8 slice is infallible; offsets are bounds-checked against the manifest length above
    let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    let mismatch = |field: &'static str, expected: u64, found: u64| {
        Err(CheckpointError::LayoutMismatch {
            path: path.to_path_buf(),
            field,
            expected,
            found,
        })
    };
    if u32_at(0) != MANIFEST_VERSION {
        return mismatch("version", MANIFEST_VERSION as u64, u32_at(0) as u64);
    }
    if u64_at(4) != mesh_hash {
        return mismatch("mesh_hash", mesh_hash, u64_at(4));
    }
    if u64_at(12) != nelem_global as u64 {
        return mismatch("nelem_global", nelem_global as u64, u64_at(12));
    }
    if u32_at(20) as usize != order {
        return mismatch("order", order as u64, u32_at(20) as u64);
    }
    Ok(())
}

/// The per-rank field inventory in the fixed global serialization order.
/// Every rank computes the same list structure (depths and the projection
/// count evolve collectively), so the packed gather needs no per-field
/// framing.
fn local_field_list<'a>(
    s: &'a FlowState,
    basis: &'a [Vec<f64>],
    images: &'a [Vec<f64>],
) -> Vec<(String, &'a [f64])> {
    let mut out: Vec<(String, &[f64])> = vec![
        ("u0".to_string(), &s.u[0]),
        ("u1".to_string(), &s.u[1]),
        ("u2".to_string(), &s.u[2]),
        ("p".to_string(), &s.p),
        ("t".to_string(), &s.t),
    ];
    for (i, ul) in s.u_lag.iter().enumerate() {
        for d in 0..3 {
            out.push((format!("u_lag{i}_{d}"), &ul[d][..]));
        }
    }
    for (i, tl) in s.t_lag.iter().enumerate() {
        out.push((format!("t_lag{i}"), &tl[..]));
    }
    for (i, fl) in s.f_lag.iter().enumerate() {
        for d in 0..3 {
            out.push((format!("f_lag{i}_{d}"), &fl[d][..]));
        }
    }
    for (i, ftl) in s.ft_lag.iter().enumerate() {
        out.push((format!("ft_lag{i}"), &ftl[..]));
    }
    for (i, bv) in basis.iter().enumerate() {
        out.push((format!("proj_basis{i}"), &bv[..]));
    }
    for (i, iv) in images.iter().enumerate() {
        out.push((format!("proj_image{i}"), &iv[..]));
    }
    out
}

/// Copy per-element blocks of `local` into their global slots.
fn scatter_elems(global: &mut [f64], local: &[f64], elems: &[usize], n_per: usize) {
    for (le, &ge) in elems.iter().enumerate() {
        global[ge * n_per..(ge + 1) * n_per].copy_from_slice(&local[le * n_per..(le + 1) * n_per]);
    }
}

/// Extract this rank's element blocks from a global field.
fn extract_elems(global: Vec<f64>, elems: &[usize], n_per: usize) -> Vec<f64> {
    // A rank holding every element in global order keeps the field as is.
    if elems.len() * n_per == global.len() && elems.iter().enumerate().all(|(i, &e)| i == e) {
        return global;
    }
    let mut out = Vec::with_capacity(elems.len() * n_per);
    for &ge in elems {
        out.extend_from_slice(&global[ge * n_per..(ge + 1) * n_per]);
    }
    out
}

/// Write a checkpoint of the *global* simulation state to `path`.
///
/// This is a collective: every rank ships its element blocks to rank 0
/// over bit-preserving point-to-point messages (a floating-point
/// reduction would canonicalize `-0.0` and break bitwise restarts), rank
/// 0 assembles the fields in global element order and writes atomically
/// with the embedded integrity table, and a trailing barrier holds all
/// ranks until the generation is durable. The file carries no trace of
/// the writing rank count.
pub fn write_checkpoint(sim: &Simulation<'_>, path: &Path) -> Result<(), CheckpointError> {
    let comm = sim.comm;
    let io_err = |detail: String| CheckpointError::Io {
        path: path.to_path_buf(),
        source: std::io::Error::other(detail),
    };
    let n_per = sim.elem_layout.n_per;
    let nelem_global = sim.elem_layout.nelem_global;
    let (basis, images) = sim.projection_state();
    let s = &sim.state;
    let locals = local_field_list(s, basis, images);

    let result = if comm.size() > 1 && comm.rank() != 0 {
        let elems: Vec<u64> = sim.my_elems.iter().map(|&e| e as u64).collect();
        comm.send(0, CHK_TAG, Payload::U64(elems));
        let mut packed = Vec::with_capacity(locals.len() * sim.my_elems.len() * n_per);
        for (_, f) in &locals {
            packed.extend_from_slice(f);
        }
        comm.send(0, CHK_TAG, Payload::F64(packed));
        Ok(())
    } else {
        let nglob = nelem_global * n_per;
        let mut globals: Vec<(String, Vec<f64>)> = locals
            .iter()
            .map(|(name, f)| {
                let mut g = vec![0.0; nglob];
                scatter_elems(&mut g, f, &sim.my_elems, n_per);
                (name.clone(), g)
            })
            .collect();
        let timeout = comm.tuning().recv_timeout;
        let mut gather_err: Option<CommError> = None;
        'ranks: for r in 1..comm.size() {
            let elems = match comm
                .recv_deadline(r, CHK_TAG, timeout)
                .and_then(Payload::try_into_u64)
            {
                Ok(v) => v,
                Err(e) => {
                    gather_err = Some(e);
                    break 'ranks;
                }
            };
            let packed = match comm
                .recv_deadline(r, CHK_TAG, timeout)
                .and_then(Payload::try_into_f64)
            {
                Ok(v) => v,
                Err(e) => {
                    gather_err = Some(e);
                    break 'ranks;
                }
            };
            let nr = elems.len() * n_per;
            if packed.len() != globals.len() * nr
                || elems.iter().any(|&ge| ge as usize >= nelem_global)
            {
                gather_err = Some(CommError::Protocol {
                    detail: format!(
                        "checkpoint gather from rank {r}: {} values for {} elements ({} fields expected)",
                        packed.len(),
                        elems.len(),
                        globals.len()
                    ),
                });
                break 'ranks;
            }
            let relems: Vec<usize> = elems.iter().map(|&ge| ge as usize).collect();
            for (fi, (_, g)) in globals.iter_mut().enumerate() {
                scatter_elems(g, &packed[fi * nr..(fi + 1) * nr], &relems, n_per);
            }
        }
        match gather_err {
            Some(e) => {
                // Unwind the peers too: they are headed for the barrier.
                comm.poison(&e);
                comm.set_fault(e.clone());
                Err(io_err(format!("checkpoint gather failed: {e}")))
            }
            None => {
                let mut globals = globals.into_iter();
                let mut vars = Vec::new();
                // u0..t first (the on-disk offset of u0 is load-bearing
                // for corruption tests), then scalar metadata, then the
                // remaining global fields.
                for _ in 0..5 {
                    // audit:allow(no-panic): the inventory is built by global_field_inventory, whose first five entries are always u0..u2, p, t
                    let (name, g) = globals.next().expect("field inventory starts with u0..t");
                    vars.push(Variable::f64(&name, vec![g.len() as u64], g));
                }
                vars.push(Variable::f64("meta", vec![2], vec![s.time, s.istep as f64]));
                vars.push(Variable::f64(
                    "lag_depths",
                    vec![3],
                    vec![
                        s.u_lag.len() as f64,
                        s.f_lag.len() as f64,
                        s.t_lag.len() as f64,
                    ],
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
                for (name, g) in globals {
                    vars.push(Variable::f64(&name, vec![g.len() as u64], g));
                }
                vars.push(manifest_var(
                    mesh_content_hash(sim.mesh),
                    nelem_global,
                    sim.cfg.order,
                ));
                vars.push(integrity_var(s.istep as u64, s.time, &vars));
                write_bpl_atomic(
                    path,
                    &[StepData {
                        step: s.istep as u64,
                        time: s.time,
                        vars,
                    }],
                )
                .map_err(|source| CheckpointError::Io {
                    path: path.to_path_buf(),
                    source,
                })
            }
        }
    };
    // No rank may proceed (and possibly try to restore) before the
    // generation is visible — or the failure is known — everywhere.
    if comm.size() > 1 {
        if let Err(e) = comm.try_barrier() {
            comm.set_fault(e.clone());
            return Err(io_err(format!("checkpoint barrier failed: {e}")));
        }
    }
    result
}

/// Restore a checkpoint written by [`write_checkpoint`] into `sim`.
///
/// The mesh and polynomial order must match the checkpoint (enforced by
/// the manifest), but the rank count and partition are free: each rank
/// reads the shared file locally — no communication — and extracts
/// exactly the element blocks it owns, so an N-rank checkpoint restores
/// on M ranks.
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
    let mut steps = read_bpl(path).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    if steps.len() != 1 {
        return Err(CheckpointError::WrongStepCount {
            path: path.to_path_buf(),
            count: steps.len(),
        });
    }
    let step = &mut steps[0];
    verify_integrity(path, step)?;

    let n_per = sim.elem_layout.n_per;
    let nelem_global = sim.elem_layout.nelem_global;
    let nglob = nelem_global * n_per;
    check_manifest(
        path,
        step,
        mesh_content_hash(sim.mesh),
        nelem_global,
        sim.cfg.order,
    )?;
    let n = sim.n_local();
    let max_order = sim.cfg.time_order;
    let mut new = FlowState::new(n);
    // Fields are stored globally; pull out this rank's element blocks.
    let my = sim.my_elems.clone();
    let local = |g: Vec<f64>| extract_elems(g, &my, n_per);
    for d in 0..3 {
        new.u[d] = local(take(path, step, &format!("u{d}"), nglob)?);
    }
    new.p = local(take(path, step, "p", nglob)?);
    new.t = local(take(path, step, "t", nglob)?);
    let meta = take(path, step, "meta", 2)?;
    new.time = meta[0];
    new.istep = take_count(path, meta[1], "step counter", u32::MAX as usize)?;

    // Lag depths must be consistent with the configured BDF/EXT order: a
    // checkpoint from a higher-order run (or corrupted metadata) would
    // otherwise make the multistep update index out of bounds or silently
    // integrate with the wrong scheme.
    let depths = take(path, step, "lag_depths", 3)?;
    let du = take_count(path, depths[0], "u_lag depth", MAX_LAG_DEPTH)?;
    let df = take_count(path, depths[1], "f_lag depth", MAX_LAG_DEPTH)?;
    let dt_ = take_count(path, depths[2], "t_lag depth", MAX_LAG_DEPTH)?;
    for (what, depth) in [("u_lag", du), ("f_lag", df), ("t_lag", dt_)] {
        if depth > max_order {
            return Err(CheckpointError::InvalidMetadata {
                path: path.to_path_buf(),
                detail: format!("{what} depth {depth} exceeds configured time order {max_order}"),
            });
        }
    }

    new.u_lag = (0..du)
        .map(|i| {
            Ok([
                local(take(path, step, &format!("u_lag{i}_0"), nglob)?),
                local(take(path, step, &format!("u_lag{i}_1"), nglob)?),
                local(take(path, step, &format!("u_lag{i}_2"), nglob)?),
            ])
        })
        .collect::<Result<_, CheckpointError>>()?;
    new.t_lag = (0..dt_)
        .map(|i| take(path, step, &format!("t_lag{i}"), nglob).map(&local))
        .collect::<Result<_, CheckpointError>>()?;
    new.f_lag = (0..df)
        .map(|i| {
            Ok([
                local(take(path, step, &format!("f_lag{i}_0"), nglob)?),
                local(take(path, step, &format!("f_lag{i}_1"), nglob)?),
                local(take(path, step, &format!("f_lag{i}_2"), nglob)?),
            ])
        })
        .collect::<Result<_, CheckpointError>>()?;
    new.ft_lag = (0..df)
        .map(|i| take(path, step, &format!("ft_lag{i}"), nglob).map(&local))
        .collect::<Result<_, CheckpointError>>()?;

    // Projection space: stored globally like everything else; restored so
    // a mid-run restart replays the original Krylov trajectory bitwise.
    let proj_meta = take(path, step, "proj_meta", 1)?;
    let nproj = take_count(path, proj_meta[0], "projection count", MAX_PROJ_VECS)?;
    let mut proj_basis = Vec::with_capacity(nproj);
    let mut proj_images = Vec::with_capacity(nproj);
    for i in 0..nproj {
        proj_basis.push(local(take(path, step, &format!("proj_basis{i}"), nglob)?));
        proj_images.push(local(take(path, step, &format!("proj_image{i}"), nglob)?));
    }

    let dt_var = step
        .var("dt_hist")
        .ok_or_else(|| CheckpointError::MissingVariable {
            path: path.to_path_buf(),
            name: "dt_hist".to_string(),
        })?;
    let dt_hist = match &dt_var.data {
        VarData::F64(v) => v.clone(),
        _ => {
            return Err(CheckpointError::WrongType {
                path: path.to_path_buf(),
                name: "dt_hist".to_string(),
            })
        }
    };
    if dt_hist.len() > MAX_LAG_DEPTH {
        return Err(CheckpointError::InvalidMetadata {
            path: path.to_path_buf(),
            detail: format!(
                "dt_hist has {} entries (max {MAX_LAG_DEPTH})",
                dt_hist.len()
            ),
        });
    }
    if dt_hist.iter().any(|&dt| !dt.is_finite() || dt <= 0.0) {
        return Err(CheckpointError::InvalidMetadata {
            path: path.to_path_buf(),
            detail: "dt_hist contains non-positive or non-finite steps".to_string(),
        });
    }
    new.dt_hist = dt_hist;

    // Everything verified: commit in one move. The projection space is
    // part of the restart contract; if the stored space doesn't fit this
    // configuration (e.g. a smaller `p_projection`), fall back to an
    // empty space that rebuilds over the next few solves.
    sim.state = new;
    if !sim.restore_projection(proj_basis, proj_images) {
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

/// A rotating set of checkpoint generations in one directory.
///
/// Files are named `chk_<istep:010>.bpl`; [`CheckpointSet::write`] prunes
/// to the newest `keep` generations, and [`CheckpointSet::restore_latest`]
/// walks newest-to-oldest until one generation passes full verification.
pub struct CheckpointSet {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointSet {
    /// A set rooted at `dir`, keeping the newest `keep` (≥ 1) generations.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep: keep.max(1),
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

    /// Existing generations, newest (highest step) first.
    pub fn generations(&self) -> Vec<PathBuf> {
        let mut out: Vec<(u64, PathBuf)> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
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

    /// Checkpoint `sim` as a new generation, then prune old generations
    /// beyond `keep`. Returns the path written.
    ///
    /// Collective (via [`write_checkpoint`]): all ranks call this with the
    /// *same shared directory*; rank 0 performs the write and the pruning.
    pub fn write(&self, sim: &Simulation<'_>) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|source| CheckpointError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let path = self.path_for_step(sim.state.istep);
        write_checkpoint(sim, &path)?;
        // Pruning is best-effort: a failed unlink must not fail the
        // checkpoint that just landed safely. Only the writing rank
        // prunes, so readers never race a disappearing generation.
        if sim.comm.rank() == 0 {
            for old in self.generations().into_iter().skip(self.keep) {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
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
        let same = |a: &Path, b: &Path| match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
            (Ok(a), Ok(b)) => a == b,
            _ => a == b,
        };
        let mut rejected = Vec::new();
        for path in self.generations().into_iter().skip(skip) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use rbx_comm::SingleComm;
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
        for gen in set.generations() {
            std::fs::write(&gen, b"garbage").unwrap();
        }
        let err = set.restore_latest(&mut sim).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NoUsableCheckpoint { tried: 2, .. }),
            "{err}"
        );
    }
}
