//! The "BPL" container format: steps of named, shaped, typed variables.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "BPL1"
//! per step:
//!   marker u8 = 0x53 ('S')
//!   step u64, time f64, nvars u32
//!   per variable:
//!     name_len u16, name bytes (UTF-8)
//!     dtype u8 (0 = f64, 1 = bytes)
//!     ndims u8, dims u64 × ndims
//!     payload_len u64, payload
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"BPL1";
const STEP_MARKER: u8 = 0x53;

/// Variable payload.
#[derive(Debug, Clone, PartialEq)]
pub enum VarData {
    /// Double-precision array.
    F64(Vec<f64>),
    /// Opaque bytes (e.g. compressed fields).
    Bytes(Vec<u8>),
}

impl VarData {
    /// Number of scalar entries (f64) or bytes.
    pub fn len(&self) -> usize {
        match self {
            VarData::F64(v) => v.len(),
            VarData::Bytes(v) => v.len(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named variable with a logical shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Variable name (unique within a step by convention).
    pub name: String,
    /// Logical dimensions (e.g. `[nelv, n³]`).
    pub shape: Vec<u64>,
    /// Payload.
    pub data: VarData,
}

impl Variable {
    /// Convenience constructor for f64 data.
    pub fn f64(name: impl Into<String>, shape: Vec<u64>, data: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            shape,
            data: VarData::F64(data),
        }
    }

    /// Convenience constructor for byte data.
    pub fn bytes(name: impl Into<String>, shape: Vec<u64>, data: Vec<u8>) -> Self {
        Self {
            name: name.into(),
            shape,
            data: VarData::Bytes(data),
        }
    }
}

/// One output step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepData {
    /// Step index.
    pub step: u64,
    /// Simulated time.
    pub time: f64,
    /// Variables written this step.
    pub vars: Vec<Variable>,
}

impl StepData {
    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// Serialize one step to bytes.
pub fn encode_step(step: &StepData) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(STEP_MARKER);
    buf.put_u64_le(step.step);
    buf.put_f64_le(step.time);
    buf.put_u32_le(step.vars.len() as u32);
    for v in &step.vars {
        let name = v.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "variable name too long");
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        match &v.data {
            VarData::F64(_) => buf.put_u8(0),
            VarData::Bytes(_) => buf.put_u8(1),
        }
        assert!(v.shape.len() <= u8::MAX as usize);
        buf.put_u8(v.shape.len() as u8);
        for &d in &v.shape {
            buf.put_u64_le(d);
        }
        match &v.data {
            VarData::F64(data) => {
                buf.put_u64_le((data.len() * 8) as u64);
                for &x in data {
                    buf.put_f64_le(x);
                }
            }
            VarData::Bytes(data) => {
                buf.put_u64_le(data.len() as u64);
                buf.put_slice(data);
            }
        }
    }
    buf.freeze()
}

/// Build the descriptive `InvalidData` error every malformed-file case
/// maps to: readers never panic on foreign bytes.
fn malformed(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed BPL data: {detail}"),
    )
}

/// Guard a fixed-size read against truncation.
fn need(buf: &impl Buf, bytes: usize, what: &str) -> std::io::Result<()> {
    if buf.remaining() < bytes {
        return Err(malformed(format!(
            "truncated: need {bytes} byte(s) for {what}, only {} left",
            buf.remaining()
        )));
    }
    Ok(())
}

fn decode_step(buf: &mut &[u8]) -> std::io::Result<StepData> {
    need(buf, 1 + 8 + 8 + 4, "step header")?;
    let marker = buf.get_u8();
    if marker != STEP_MARKER {
        return Err(malformed(format!(
            "bad step marker {marker:#04x} (expected {STEP_MARKER:#04x})"
        )));
    }
    let step = buf.get_u64_le();
    let time = buf.get_f64_le();
    let nvars = buf.get_u32_le();
    let mut vars = Vec::new();
    for i in 0..nvars {
        need(buf, 2, "variable name length")?;
        let name_len = buf.get_u16_le() as usize;
        need(buf, name_len, "variable name")?;
        let mut name_bytes = vec![0u8; name_len];
        buf.copy_to_slice(&mut name_bytes);
        let name = String::from_utf8(name_bytes)
            .map_err(|_| malformed(format!("variable {i} name is not UTF-8")))?;
        need(buf, 2, "variable dtype/ndims")?;
        let dtype = buf.get_u8();
        let ndims = buf.get_u8() as usize;
        need(buf, ndims * 8, "variable shape")?;
        let mut shape = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            shape.push(buf.get_u64_le());
        }
        need(buf, 8, "payload length")?;
        let payload_len = buf.get_u64_le() as usize;
        need(buf, payload_len, "variable payload")?;
        let data = match dtype {
            0 => {
                if !payload_len.is_multiple_of(8) {
                    return Err(malformed(format!(
                        "f64 variable {name:?} payload length {payload_len} not a multiple of 8"
                    )));
                }
                let (payload, rest) = buf.split_at(payload_len);
                *buf = rest;
                let v = payload
                    .chunks_exact(8)
                    .map(|b| {
                        let mut le = [0u8; 8];
                        le.copy_from_slice(b);
                        f64::from_le_bytes(le)
                    })
                    .collect();
                VarData::F64(v)
            }
            1 => {
                let mut v = vec![0u8; payload_len];
                buf.copy_to_slice(&mut v);
                VarData::Bytes(v)
            }
            other => {
                return Err(malformed(format!(
                    "variable {name:?} has unknown dtype {other}"
                )))
            }
        };
        vars.push(Variable { name, shape, data });
    }
    Ok(StepData { step, time, vars })
}

/// Streaming file writer.
pub struct BplWriter {
    file: std::io::BufWriter<std::fs::File>,
    steps_written: usize,
}

impl BplWriter {
    /// Create/truncate the file and write the magic.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(MAGIC)?;
        Ok(Self {
            file,
            steps_written: 0,
        })
    }

    /// Append one step.
    pub fn write_step(&mut self, step: &StepData) -> std::io::Result<()> {
        self.file.write_all(&encode_step(step))?;
        self.steps_written += 1;
        Ok(())
    }

    /// Steps written so far.
    pub fn steps_written(&self) -> usize {
        self.steps_written
    }

    /// Flush and close.
    pub fn close(mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// Flush, then fsync to durable storage before closing. Checkpoint
    /// writers use this so a rename-over can't expose a half-written file
    /// after a crash.
    pub fn close_sync(mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()
    }
}

/// Whole-file reader.
#[derive(Debug)]
pub struct BplReader {
    steps: Vec<StepData>,
}

impl BplReader {
    /// Read and parse the whole file. Any malformed content — truncation,
    /// bad magic, unknown dtypes — is a descriptive
    /// [`std::io::ErrorKind::InvalidData`] error, never a panic.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let raw = std::fs::read(path)?;
        if raw.len() < 4 || &raw[..4] != MAGIC {
            return Err(malformed(format!(
                "{}: not a BPL file (bad magic)",
                path.display()
            )));
        }
        let mut buf = &raw[4..];
        let mut steps = Vec::new();
        while buf.has_remaining() {
            steps.push(decode_step(&mut buf).map_err(|e| {
                malformed(format!("{} (step {}): {e}", path.display(), steps.len()))
            })?);
        }
        Ok(Self { steps })
    }

    /// All parsed steps.
    pub fn steps(&self) -> &[StepData] {
        &self.steps
    }
}

/// Convenience: write a list of steps to a file.
pub fn write_bpl(path: &Path, steps: &[StepData]) -> std::io::Result<()> {
    let mut w = BplWriter::create(path)?;
    for s in steps {
        w.write_step(s)?;
    }
    w.close()
}

/// Crash-safe variant of [`write_bpl`]: the data goes to a temporary
/// sibling first, is fsynced, and is renamed over `path` only once it is
/// durable; the parent directory is then fsynced so the rename itself
/// survives a crash. A reader (or a crash mid-write) therefore sees either
/// the complete old file or the complete new file, never a torn one.
pub fn write_bpl_atomic(path: &Path, steps: &[StepData]) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut w = BplWriter::create(&tmp)?;
    for s in steps {
        w.write_step(s)?;
    }
    w.close_sync()?;
    std::fs::rename(&tmp, path)?;
    // Persist the directory entry; without this the rename can be lost on
    // power failure even though the file contents are safe.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Convenience: read all steps from a file.
pub fn read_bpl(path: &Path) -> std::io::Result<Vec<StepData>> {
    Ok(BplReader::open(path)?.steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_step(i: u64) -> StepData {
        StepData {
            step: i,
            time: i as f64 * 0.5,
            vars: vec![
                Variable::f64(
                    "velocity_x",
                    vec![2, 8],
                    (0..16).map(|k| k as f64).collect(),
                ),
                Variable::bytes("compressed_t", vec![5], vec![1, 2, 3, 4, 5]),
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample_step(3);
        let bytes = encode_step(&s);
        let mut buf = &bytes[..];
        let back = decode_step(&mut buf).unwrap();
        assert_eq!(back, s);
        assert!(!buf.has_remaining());
    }

    #[test]
    fn file_roundtrip_multiple_steps() {
        let dir = std::env::temp_dir().join("rbx_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multi.bpl");
        let steps: Vec<StepData> = (0..5).map(sample_step).collect();
        write_bpl(&path, &steps).unwrap();
        let back = read_bpl(&path).unwrap();
        assert_eq!(back, steps);
    }

    #[test]
    fn variable_lookup() {
        let s = sample_step(0);
        assert!(s.var("velocity_x").is_some());
        assert!(s.var("missing").is_none());
        assert_eq!(s.var("compressed_t").unwrap().data.len(), 5);
    }

    #[test]
    fn empty_step_roundtrips() {
        let s = StepData {
            step: 9,
            time: 1.25,
            vars: vec![],
        };
        let bytes = encode_step(&s);
        let mut buf = &bytes[..];
        assert_eq!(decode_step(&mut buf).unwrap(), s);
    }

    #[test]
    fn rejects_garbage_file() {
        let dir = std::env::temp_dir().join("rbx_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bpl");
        std::fs::write(&path, b"nope").unwrap();
        let err = BplReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a BPL file"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let dir = std::env::temp_dir().join("rbx_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.bpl");
        write_bpl(&path, &[sample_step(1)]).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let err = BplReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_unknown_dtype() {
        let s = sample_step(0);
        let mut bytes = encode_step(&s).to_vec();
        // dtype byte of the first variable: step header (21) + name_len (2)
        // + name bytes.
        let off = 21 + 2 + s.vars[0].name.len();
        bytes[off] = 9;
        let mut buf = &bytes[..];
        let err = decode_step(&mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown dtype"), "{err}");
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("rbx_io_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bpl");
        let steps: Vec<StepData> = (0..3).map(sample_step).collect();
        write_bpl_atomic(&path, &steps).unwrap();
        assert_eq!(read_bpl(&path).unwrap(), steps);
        // Overwrite in place: readers must never see a torn file.
        let steps2: Vec<StepData> = (5..7).map(sample_step).collect();
        write_bpl_atomic(&path, &steps2).unwrap();
        assert_eq!(read_bpl(&path).unwrap(), steps2);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
