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

use std::io::Write;
use std::ops::Range;
use std::path::Path;

const MAGIC: &[u8; 4] = b"BPL1";
const STEP_MARKER: u8 = 0x53;
const DTYPE_F64: u8 = 0;
const DTYPE_BYTES: u8 = 1;

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

/// Where one encoded variable's parts sit in a [`BplImage`]'s bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarSpan {
    /// The name's UTF-8 bytes.
    pub name: Range<usize>,
    /// The shape dimensions, `u64` LE each.
    pub shape: Range<usize>,
    /// The payload bytes.
    pub payload: Range<usize>,
}

/// A BPL byte image encoded in one pass into one owned buffer: the step
/// header, then variables appended one by one, each payload copied in
/// bulk. The variable count in the header is kept current, so the bytes
/// are a complete step (or file) after every append.
#[derive(Debug)]
pub struct BplImage {
    buf: Vec<u8>,
    nvars_at: usize,
    nvars: u32,
}

impl BplImage {
    /// Start a whole file — magic, then the header of its one step — in
    /// `buf`, whose contents are dropped and whose capacity is reused and
    /// grown to at least `capacity` bytes.
    pub fn file(mut buf: Vec<u8>, step: u64, time: f64, capacity: usize) -> Self {
        buf.clear();
        buf.reserve(capacity);
        buf.extend_from_slice(MAGIC);
        Self::step(buf, step, time)
    }

    /// Start one step record at the end of `buf`, to be appended to an
    /// open file.
    fn step(mut buf: Vec<u8>, step: u64, time: f64) -> Self {
        buf.push(STEP_MARKER);
        buf.extend_from_slice(&step.to_le_bytes());
        buf.extend_from_slice(&time.to_le_bytes());
        let nvars_at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        Self {
            buf,
            nvars_at,
            nvars: 0,
        }
    }

    /// Bytes one variable takes: name length, name, dtype, ndims, dims,
    /// payload length and payload.
    pub fn var_len(name: &str, ndims: usize, payload_bytes: usize) -> usize {
        2 + name.len() + 2 + 8 * ndims + 8 + payload_bytes
    }

    /// Append a variable's header; its payload must follow at once.
    fn var_header(
        &mut self,
        name: &str,
        dtype: u8,
        shape: &[u64],
        payload_bytes: usize,
    ) -> VarSpan {
        assert!(name.len() <= u16::MAX as usize, "variable name too long");
        assert!(shape.len() <= u8::MAX as usize, "too many dimensions");
        let b = &mut self.buf;
        b.extend_from_slice(&(name.len() as u16).to_le_bytes());
        let name_at = b.len();
        b.extend_from_slice(name.as_bytes());
        b.push(dtype);
        b.push(shape.len() as u8);
        let shape_at = b.len();
        for d in shape {
            b.extend_from_slice(&d.to_le_bytes());
        }
        let shape_end = b.len();
        b.extend_from_slice(&(payload_bytes as u64).to_le_bytes());
        self.nvars += 1;
        self.buf[self.nvars_at..self.nvars_at + 4].copy_from_slice(&self.nvars.to_le_bytes());
        let payload_at = self.buf.len();
        VarSpan {
            name: name_at..name_at + name.len(),
            shape: shape_at..shape_end,
            payload: payload_at..payload_at + payload_bytes,
        }
    }

    /// Append an f64 variable.
    pub fn f64s(&mut self, name: &str, shape: &[u64], data: &[f64]) -> VarSpan {
        let span = self.var_header(name, DTYPE_F64, shape, 8 * data.len());
        #[cfg(target_endian = "little")]
        self.buf.extend_from_slice(f64_le_bytes(data));
        #[cfg(not(target_endian = "little"))]
        for x in data {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        span
    }

    /// Append an f64 variable of `len` zeros, to be filled in place
    /// through [`BplImage::fill_f64s`].
    pub fn f64_slot(&mut self, name: &str, shape: &[u64], len: usize) -> VarSpan {
        let span = self.var_header(name, DTYPE_F64, shape, 8 * len);
        self.buf.resize(span.payload.end, 0);
        span
    }

    /// Overwrite the f64 payload of `span` from value index `at` on with
    /// `data`, which must fit in the payload.
    pub fn fill_f64s(&mut self, span: &VarSpan, at: usize, data: &[f64]) {
        let start = span.payload.start + 8 * at;
        let dst = &mut self.buf[start..start + 8 * data.len()];
        debug_assert!(
            start + dst.len() <= span.payload.end,
            "fill past the payload"
        );
        #[cfg(target_endian = "little")]
        dst.copy_from_slice(f64_le_bytes(data));
        #[cfg(not(target_endian = "little"))]
        for (d, x) in dst.chunks_exact_mut(8).zip(data) {
            d.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a byte variable.
    pub fn bytes(&mut self, name: &str, shape: &[u64], data: &[u8]) -> VarSpan {
        let span = self.var_header(name, DTYPE_BYTES, shape, data.len());
        self.buf.extend_from_slice(data);
        span
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The buffer, for writing out or for reuse by the next image.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Serialize one step to bytes.
pub fn encode_step(step: &StepData) -> Vec<u8> {
    let len = 21
        + step
            .vars
            .iter()
            .map(|v| {
                let bytes = match &v.data {
                    VarData::F64(d) => 8 * d.len(),
                    VarData::Bytes(d) => d.len(),
                };
                BplImage::var_len(&v.name, v.shape.len(), bytes)
            })
            .sum::<usize>();
    let mut img = BplImage::step(Vec::with_capacity(len), step.step, step.time);
    for v in &step.vars {
        match &v.data {
            VarData::F64(d) => img.f64s(&v.name, &v.shape, d),
            VarData::Bytes(d) => img.bytes(&v.name, &v.shape, d),
        };
    }
    img.into_inner()
}

/// Build the descriptive `InvalidData` error every malformed-file case
/// maps to: readers never panic on foreign bytes.
fn malformed(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed BPL data: {detail}"),
    )
}

/// The same error with `context` in front of its message.
fn within(context: impl std::fmt::Display, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{context}: {e}"))
}

/// A variable's payload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// Little-endian `f64`s.
    F64,
    /// Opaque bytes.
    Bytes,
}

/// One step located in place in a borrowed BPL image: the step header,
/// and each variable's payload type and [`VarSpan`] (offsets into the
/// image). Nothing is copied or decoded; every name is valid UTF-8 and
/// every `F64` payload a whole number of values.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpans {
    /// Step index.
    pub step: u64,
    /// Simulated time.
    pub time: f64,
    /// Variables in file order.
    pub vars: Vec<(Dtype, VarSpan)>,
}

impl StepSpans {
    /// The first variable named `name` in `image`, the bytes these spans
    /// were parsed from.
    pub fn var_named(&self, image: &[u8], name: &str) -> Option<&(Dtype, VarSpan)> {
        self.vars
            .iter()
            .find(|(_, span)| image.get(span.name.clone()) == Some(name.as_bytes()))
    }

    /// Copy the step out of `image` into owned variables.
    fn decode(&self, image: &[u8]) -> StepData {
        let vars = self.vars.iter().map(|(dtype, span)| {
            let name = String::from_utf8_lossy(&image[span.name.clone()]).into_owned();
            let shape = image[span.shape.clone()]
                .chunks_exact(8)
                .map(|d| u64::from_le_bytes(word(d)))
                .collect();
            let payload = &image[span.payload.clone()];
            match dtype {
                Dtype::F64 => Variable::f64(name, shape, decode_f64s(payload).collect()),
                Dtype::Bytes => Variable::bytes(name, shape, payload.to_vec()),
            }
        });
        StepData {
            step: self.step,
            time: self.time,
            vars: vars.collect(),
        }
    }
}

/// The little-endian `f64`s of `src`, whose length is a multiple of 8,
/// decoded in order: the mirror of [`BplImage::fill_f64s`].
pub fn decode_f64s(src: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    src.chunks_exact(8).map(|b| f64::from_le_bytes(word(b)))
}

/// One chunk of `chunks_exact(8)` as an array: a single 8-byte copy
/// (inlined into other crates' decode loops, which it would otherwise
/// slow by a call per value).
#[inline]
fn word(b: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(b);
    w
}

/// A bounds-checked read position in a borrowed image: every read is a
/// truncation check first.
struct Cursor<'a> {
    image: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    /// Claim the next `len` bytes for `what`.
    fn claim(&mut self, len: usize, what: &str) -> std::io::Result<Range<usize>> {
        let left = self.image.len() - self.at;
        if len > left {
            return Err(malformed(format!(
                "truncated: need {len} byte(s) for {what}, only {left} left"
            )));
        }
        self.at += len;
        Ok(self.at - len..self.at)
    }

    /// Read the next `N` bytes for `what`.
    fn array<const N: usize>(&mut self, what: &str) -> std::io::Result<[u8; N]> {
        let at = self.claim(N, what)?;
        Ok(std::array::from_fn(|k| self.image[at.start + k]))
    }
}

/// Locate the step record at the cursor.
fn parse_step(cur: &mut Cursor<'_>) -> std::io::Result<StepSpans> {
    let [marker] = cur.array("step header")?;
    if marker != STEP_MARKER {
        return Err(malformed(format!(
            "bad step marker {marker:#04x} (expected {STEP_MARKER:#04x})"
        )));
    }
    let step = u64::from_le_bytes(cur.array("step header")?);
    let time = f64::from_le_bytes(cur.array("step header")?);
    let nvars = u32::from_le_bytes(cur.array("step header")?);
    let mut vars = Vec::new();
    for i in 0..nvars {
        let name_len = u16::from_le_bytes(cur.array("variable name length")?);
        let name = cur.claim(usize::from(name_len), "variable name")?;
        let name_str = std::str::from_utf8(&cur.image[name.clone()])
            .map_err(|_| malformed(format!("variable {i} name is not UTF-8")))?;
        let [dtype, ndims] = cur.array("variable dtype/ndims")?;
        let shape = cur.claim(8 * usize::from(ndims), "variable shape")?;
        let len = u64::from_le_bytes(cur.array("payload length")?);
        // A length past the address space cannot fit in what is left.
        let payload = cur.claim(
            usize::try_from(len).unwrap_or(usize::MAX),
            "variable payload",
        )?;
        let dtype = match dtype {
            DTYPE_F64 if len.is_multiple_of(8) => Dtype::F64,
            DTYPE_F64 => {
                return Err(malformed(format!(
                    "f64 variable {name_str:?} payload length {len} not a multiple of 8"
                )))
            }
            DTYPE_BYTES => Dtype::Bytes,
            other => {
                return Err(malformed(format!(
                    "variable {name_str:?} has unknown dtype {other}"
                )))
            }
        };
        vars.push((
            dtype,
            VarSpan {
                name,
                shape,
                payload,
            },
        ));
    }
    Ok(StepSpans { step, time, vars })
}

/// Locate every step of a whole BPL file image in place. Any malformed
/// content — bad magic, truncation, non-UTF-8 names, unknown dtypes — is
/// a descriptive [`std::io::ErrorKind::InvalidData`] error, never a
/// panic, and nothing is allocated for a payload.
pub fn parse_bpl(image: &[u8]) -> std::io::Result<Vec<StepSpans>> {
    if image.get(..MAGIC.len()) != Some(MAGIC) {
        return Err(malformed("not a BPL file (bad magic)"));
    }
    let mut cur = Cursor {
        image,
        at: MAGIC.len(),
    };
    let mut steps = Vec::new();
    while cur.at < image.len() {
        let step =
            parse_step(&mut cur).map_err(|e| within(format_args!("step {}", steps.len()), e))?;
        steps.push(step);
    }
    Ok(steps)
}

/// Streaming file writer.
pub struct BplWriter {
    file: std::io::BufWriter<std::fs::File>,
}

impl BplWriter {
    /// Create/truncate the file and write the magic.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(MAGIC)?;
        Ok(Self { file })
    }

    /// Append one step.
    pub fn write_step(&mut self, step: &StepData) -> std::io::Result<()> {
        self.file.write_all(&encode_step(step))
    }

    /// Flush and close.
    pub fn close(mut self) -> std::io::Result<()> {
        self.file.flush()
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

/// Crash-safe file write: `bytes` go to a temporary sibling first, which
/// is fsynced and renamed over `path` only once it is durable; the parent
/// directory is then fsynced so the rename itself survives a crash. A
/// reader (or a crash mid-write) therefore sees either the complete old
/// file or the complete new file, never a torn one.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
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

/// Read and decode every step of a file. Malformed content is a
/// descriptive [`std::io::ErrorKind::InvalidData`] error naming the file
/// (see [`parse_bpl`]), never a panic.
pub fn read_bpl(path: &Path) -> std::io::Result<Vec<StepData>> {
    let image = std::fs::read(path)?;
    let steps = parse_bpl(&image).map_err(|e| within(path.display(), e))?;
    Ok(steps.iter().map(|s| s.decode(&image)).collect())
}

/// The little-endian bytes of `data`, borrowed: on a little-endian target
/// an f64 slice already is its BPL encoding.
#[cfg(target_endian = "little")]
fn f64_le_bytes(data: &[f64]) -> &[u8] {
    // SAFETY: f64 has no padding and no invalid bit patterns as bytes, u8
    // has alignment 1, and the length is the slice's size in bytes; the
    // borrow keeps `data` alive and unmodified.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_endian = "little")]
    fn f64_helper_matches_byte_encoding() {
        let v = [1.5f64, -0.25, std::f64::consts::PI, 0.0, -0.0, f64::NAN];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(f64_le_bytes(&v), &bytes[..]);
    }

    /// Decode the one step at the start of `buf` and advance past it.
    fn decode_step(buf: &mut &[u8]) -> std::io::Result<StepData> {
        let mut cur = Cursor { image: buf, at: 0 };
        let step = parse_step(&mut cur)?.decode(buf);
        *buf = &buf[cur.at..];
        Ok(step)
    }

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
        assert!(buf.is_empty());
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
    fn image_slots_encode_like_whole_variables() {
        let data: Vec<f64> = (0..16).map(|k| k as f64 * 0.25 - 1.0).collect();
        let mut whole = BplImage::file(Vec::new(), 7, 0.5, 0);
        whole.f64s("f", &[2, 8], &data);
        whole.bytes("b", &[3], &[9, 8, 7]);
        let mut slotted = BplImage::file(vec![1, 2, 3], 7, 0.5, 1024);
        let span = slotted.f64_slot("f", &[2, 8], 16);
        slotted.fill_f64s(&span, 8, &data[8..]);
        slotted.fill_f64s(&span, 0, &data[..8]);
        slotted.bytes("b", &[3], &[9, 8, 7]);
        assert_eq!(whole.as_bytes(), slotted.as_bytes());
        let bytes = slotted.as_bytes();
        assert_eq!(&bytes[span.name.clone()], b"f");
        assert_eq!(
            &bytes[span.shape.clone()],
            &[2u64, 8].map(u64::to_le_bytes).concat()[..]
        );
        assert_eq!(span.payload.len(), 16 * 8);
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(
            &bytes[4..],
            &encode_step(&StepData {
                step: 7,
                time: 0.5,
                vars: vec![
                    Variable::f64("f", vec![2, 8], data.clone()),
                    Variable::bytes("b", vec![3], vec![9, 8, 7]),
                ],
            })[..]
        );
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
        let err = read_bpl(&path).unwrap_err();
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
        let err = read_bpl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_unknown_dtype() {
        let s = sample_step(0);
        let mut bytes = encode_step(&s);
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
        let image = |i: u64| {
            let s = sample_step(i);
            let mut img = BplImage::file(Vec::new(), s.step, s.time, 0);
            for v in &s.vars {
                match &v.data {
                    VarData::F64(d) => img.f64s(&v.name, &v.shape, d),
                    VarData::Bytes(d) => img.bytes(&v.name, &v.shape, d),
                };
            }
            (s, img.into_inner())
        };
        let (s1, bytes1) = image(3);
        write_file_atomic(&path, &bytes1).unwrap();
        assert_eq!(read_bpl(&path).unwrap(), vec![s1]);
        // Overwrite in place: readers must never see a torn file.
        let (s2, bytes2) = image(5);
        write_file_atomic(&path, &bytes2).unwrap();
        assert_eq!(read_bpl(&path).unwrap(), vec![s2]);
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
