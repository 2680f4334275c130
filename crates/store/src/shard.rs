//! One on-disk entity shard: a fixed-width record directory, the
//! quantized vector table, and a varlen text payload read by byte
//! offset — four sections of the workspace container
//! (`mb_common::storage`, DESIGN.md §8) under the magic `mb-store v1`.
//!
//! | section | payload                                                   | size rule                     |
//! |---------|-----------------------------------------------------------|-------------------------------|
//! | `meta`  | text: `shard`, `base`, `entities`, `dim`, `quant` lines   | ≤ 4 KiB                       |
//! | `dir`   | one 16-byte LE record per entity: `text_off`, `title_len`, `desc_len`, reserved zero | `entities × 16`; offsets tile `text` contiguously |
//! | `vecs`  | the raw `QuantI8` table fields: `n` LE `f64` scales, then `n·dim` codes | `n·8 + n·dim`  |
//! | `text`  | concatenated UTF-8 titles and descriptions, in row order  | what `dir` covers             |
//!
//! Sections appear in exactly that order. `vecs` holds the table
//! fields as quantized at build time, so loading a shard reassembles
//! the table byte-for-byte without re-quantizing. `quant` is always
//! `int8`; any other token fails the open.
//!
//! [`Shard::open`] is all-or-nothing: the container walker verifies
//! every section CRC (streaming the large ones through its bounded
//! buffer) before any schema check runs, and a failure yields no
//! partially-usable shard.
//!
//! Memory model: only the directory and the quantized vector table
//! become resident (both fixed-width, bounded by the shard capacity).
//! The varlen `text` region is never materialized — titles and
//! descriptions are served on demand via `seek` + `read_exact` byte
//! ranges, mmap-style, so a million-entity store never holds its
//! description text in RAM.

use mb_common::storage::{atomic_write, read_frame, verify_frames, write_frames, Frame};
use mb_common::{Error, Result};
use mb_tensor::quant::QuantI8;
use mb_tensor::{QuantMode, Tensor};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic prefix shared by shard files, the store manifest and the IVF
/// index.
pub const MAGIC: &str = "mb-store v1";

/// Bytes per fixed-width directory record.
pub(crate) const DIR_RECORD_BYTES: usize = 16;

/// Upper bound on the `meta` section (it is a handful of short lines).
const META_MAX_BYTES: usize = 4096;

/// One entity on its way into a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Entity title (unique across the store by convention).
    pub title: String,
    /// Full description text (addressable off-heap after writing).
    pub description: String,
    /// Dense embedding, `dim` wide.
    pub vector: Vec<f64>,
}

/// One fixed-width directory record: byte-offset view into `text`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    text_off: u32,
    title_len: u32,
    desc_len: u32,
}

/// An open, fully verified shard. The int8 vector table and the
/// directory are resident; text is read on demand by byte offset.
#[derive(Debug)]
pub struct Shard {
    path: PathBuf,
    ordinal: usize,
    base: u32,
    dim: usize,
    dir: Vec<DirEntry>,
    table: QuantI8,
    text_pos: u64,
    file: Mutex<File>,
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    for (d, s) in b.iter_mut().zip(bytes) {
        *d = *s;
    }
    u32::from_le_bytes(b)
}

fn le_f64(bytes: &[u8]) -> f64 {
    let mut b = [0u8; 8];
    for (d, s) in b.iter_mut().zip(bytes) {
        *d = *s;
    }
    f64::from_le_bytes(b)
}

/// Quantization-mode token used in `meta` and the manifest: the store
/// persists int8 tables only.
pub(crate) fn quant_token(mode: QuantMode) -> Result<&'static str> {
    match mode {
        QuantMode::Int8 => Ok("int8"),
        QuantMode::Exact => Err(Error::InvalidConfig(
            "the entity store persists quantized tables; use QuantMode::Int8".to_string(),
        )),
    }
}

/// Check a `quant` token read back from `meta` or the manifest.
pub(crate) fn check_quant_token(token: &str) -> Result<()> {
    match token {
        "int8" => Ok(()),
        other => Err(Error::Checkpoint(format!("unknown quant mode {other:?}"))),
    }
}

/// Serialize one shard and write it atomically. Returns the file's
/// byte length (recorded by the manifest).
///
/// Peak memory is one shard's worth of bytes — the store builder calls
/// this once per `shard_capacity` entities, which is what bounds RAM
/// for a million-entity build.
///
/// # Errors
/// [`Error::InvalidConfig`] for an exact quant mode or empty shard;
/// [`Error::ShapeMismatch`] when a record's vector is not `dim` wide;
/// [`Error::Checkpoint`] when the text region outgrows the u32 offset
/// space; [`Error::Io`] on write failure.
pub fn write_shard(
    path: &Path,
    ordinal: usize,
    base: u32,
    dim: usize,
    quant: QuantMode,
    records: &[StoreRecord],
) -> Result<u64> {
    let quant_name = quant_token(quant)?;
    if records.is_empty() {
        return Err(Error::InvalidConfig("cannot write an empty shard".to_string()));
    }
    let n = records.len();
    let mut dir = Vec::with_capacity(n * DIR_RECORD_BYTES);
    let mut text: Vec<u8> = Vec::new();
    let mut vectors = Tensor::zeros(vec![n, dim]);
    for (row, rec) in records.iter().enumerate() {
        if rec.vector.len() != dim {
            return Err(Error::shape(
                "write_shard",
                format!("[{dim}] vector"),
                format!("[{}] vector at row {row}", rec.vector.len()),
            ));
        }
        let text_off = u32::try_from(text.len())
            .map_err(|_| Error::Checkpoint(format!("shard {ordinal}: text region > 4 GiB")))?;
        let title_len = u32::try_from(rec.title.len())
            .map_err(|_| Error::Checkpoint(format!("shard {ordinal}: title > 4 GiB")))?;
        let desc_len = u32::try_from(rec.description.len())
            .map_err(|_| Error::Checkpoint(format!("shard {ordinal}: description > 4 GiB")))?;
        text.extend_from_slice(rec.title.as_bytes());
        text.extend_from_slice(rec.description.as_bytes());
        if u32::try_from(text.len()).is_err() {
            return Err(Error::Checkpoint(format!("shard {ordinal}: text region > 4 GiB")));
        }
        push_u32(&mut dir, text_off);
        push_u32(&mut dir, title_len);
        push_u32(&mut dir, desc_len);
        push_u32(&mut dir, 0); // reserved
        vectors.row_mut(row).copy_from_slice(&rec.vector);
    }

    let table = QuantI8::from_tensor(&vectors);
    let mut vecs: Vec<u8> = Vec::with_capacity(n * 8 + n * dim);
    for &scale in table.scales() {
        vecs.extend_from_slice(&scale.to_le_bytes());
    }
    vecs.extend(table.codes().iter().map(|&code| code as u8));

    let meta =
        format!("shard {ordinal}\nbase {base}\nentities {n}\ndim {dim}\nquant {quant_name}\n");
    let out = write_frames(
        MAGIC,
        &[("meta", meta.as_bytes()), ("dir", &dir), ("vecs", &vecs), ("text", &text)],
    )?;
    let bytes = out.len() as u64;
    atomic_write(path, &out)?;
    Ok(bytes)
}

/// Verify every frame of the `mb-store v1` file `file` and require it
/// to hold exactly the sections `names`, in order.
pub(crate) fn open_frames<const N: usize>(
    file: &mut File,
    names: [&str; N],
    what: &str,
) -> Result<[Frame; N]> {
    let len = file.metadata().map_err(|e| io_err(what, e))?.len();
    let frames = verify_frames(file, len, MAGIC, what)?;
    let got: Vec<String> = frames.iter().map(|f| f.name.clone()).collect();
    frames.try_into().ok().filter(|_| got == names).ok_or_else(|| {
        Error::Checkpoint(format!("{what}: expected sections {names:?}, got {got:?}"))
    })
}

/// Parse a `key value` meta payload into pairs, in order.
pub(crate) fn parse_meta(payload: &[u8], what: &str) -> Result<Vec<(String, String)>> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| Error::Checkpoint(format!("{what}: meta is not UTF-8")))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let mut parts = line.splitn(2, ' ');
        let key = parts
            .next()
            .filter(|k| !k.is_empty())
            .ok_or_else(|| Error::Checkpoint(format!("{what}: bad meta line {line:?}")))?;
        let value = parts
            .next()
            .ok_or_else(|| Error::Checkpoint(format!("{what}: bad meta line {line:?}")))?;
        out.push((key.to_string(), value.to_string()));
    }
    Ok(out)
}

/// Look up a required meta key.
pub(crate) fn meta_value<'m>(
    meta: &'m [(String, String)],
    key: &str,
    what: &str,
) -> Result<&'m str> {
    meta.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| Error::Checkpoint(format!("{what}: meta lacks key {key:?}")))
}

/// Parse a required numeric meta key.
pub(crate) fn meta_number(meta: &[(String, String)], key: &str, what: &str) -> Result<u64> {
    meta_value(meta, key, what)?
        .parse()
        .map_err(|_| Error::Checkpoint(format!("{what}: meta key {key:?} is not a number")))
}

impl Shard {
    /// Open and fully verify a shard file. All-or-nothing: every
    /// section CRC is checked (large payloads streamed through a
    /// bounded buffer) before any state is returned, so a truncated or
    /// bit-flipped shard yields an error and nothing else.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] on any framing, CRC, or schema problem;
    /// [`Error::Io`] when the file cannot be read.
    pub fn open(path: &Path) -> Result<Shard> {
        let what = path.to_string_lossy().into_owned();
        let mut file = File::open(path).map_err(|e| io_err(&what, e))?;
        let [meta, dir, vecs, text] =
            open_frames(&mut file, ["meta", "dir", "vecs", "text"], &what)?;
        if meta.len > META_MAX_BYTES {
            return Err(Error::Checkpoint(format!("{what}: meta section implausibly large")));
        }
        let meta_bytes = read_frame(&mut file, &meta, &what)?;
        let meta = parse_meta(&meta_bytes, &what)?;
        let ordinal = meta_number(&meta, "shard", &what)? as usize;
        let base_u64 = meta_number(&meta, "base", &what)?;
        let base = u32::try_from(base_u64)
            .map_err(|_| Error::Checkpoint(format!("{what}: base {base_u64} exceeds u32")))?;
        let n = meta_number(&meta, "entities", &what)? as usize;
        let dim = meta_number(&meta, "dim", &what)? as usize;
        if n == 0 || dim == 0 {
            return Err(Error::Checkpoint(format!("{what}: empty shard or zero dim")));
        }
        check_quant_token(meta_value(&meta, "quant", &what)?)?;

        if dir.len != n * DIR_RECORD_BYTES {
            return Err(Error::Checkpoint(format!(
                "{what}: dir section is {} bytes, want {} for {n} records",
                dir.len,
                n * DIR_RECORD_BYTES
            )));
        }
        let (vecs_len, text_len, text_pos) = (vecs.len, text.len, text.pos);

        let dir_bytes = read_frame(&mut file, &dir, &what)?;
        let mut dir = Vec::with_capacity(n);
        let mut expect_off = 0u64;
        for (row, rec) in dir_bytes.chunks_exact(DIR_RECORD_BYTES).enumerate() {
            let (off_b, rest) = rec.split_at(4);
            let (title_b, rest) = rest.split_at(4);
            let (desc_b, reserved_b) = rest.split_at(4);
            let entry = DirEntry {
                text_off: le_u32(off_b),
                title_len: le_u32(title_b),
                desc_len: le_u32(desc_b),
            };
            if le_u32(reserved_b) != 0 {
                return Err(Error::Checkpoint(format!(
                    "{what}: dir row {row}: non-zero reserved field"
                )));
            }
            // Canonical layout: records tile the text region contiguously.
            if u64::from(entry.text_off) != expect_off {
                return Err(Error::Checkpoint(format!(
                    "{what}: dir row {row}: text offset {} breaks contiguity (want {expect_off})",
                    entry.text_off
                )));
            }
            expect_off += u64::from(entry.title_len) + u64::from(entry.desc_len);
            dir.push(entry);
        }
        if expect_off != text_len as u64 {
            return Err(Error::Checkpoint(format!(
                "{what}: directory covers {expect_off} text bytes, section has {text_len}"
            )));
        }

        let vecs_bytes = read_frame(&mut file, &vecs, &what)?;
        if vecs_len != n * 8 + n * dim {
            return Err(Error::Checkpoint(format!(
                "{what}: vecs section is {vecs_len} bytes, want {} for int8 {n}x{dim}",
                n * 8 + n * dim
            )));
        }
        let (scale_bytes, code_bytes) = vecs_bytes.split_at(n * 8);
        let scales: Vec<f64> = scale_bytes.chunks_exact(8).map(le_f64).collect();
        let codes: Vec<i8> = code_bytes.iter().map(|&b| b as i8).collect();
        let table = QuantI8::from_raw(n, dim, codes, scales)?;

        Ok(Shard {
            path: path.to_path_buf(),
            ordinal,
            base,
            dim,
            dir,
            table,
            text_pos,
            file: Mutex::new(file),
        })
    }

    /// Number of entities in this shard.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True if the shard holds no entities (never constructed; the
    /// writer rejects empty shards).
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Shard ordinal within its store.
    pub(crate) fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Global row of this shard's first entity.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The resident int8 vector table.
    pub fn table(&self) -> &QuantI8 {
        &self.table
    }

    fn read_text_range(&self, off: u64, len: usize, what: &str) -> Result<String> {
        let mut buf = vec![0u8; len];
        {
            let mut file = match self.file.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            file.seek(SeekFrom::Start(self.text_pos + off))
                .map_err(|e| io_err(&self.path.to_string_lossy(), e))?;
            file.read_exact(&mut buf).map_err(|e| io_err(&self.path.to_string_lossy(), e))?;
        }
        String::from_utf8(buf).map_err(|_| Error::Parse(format!("{what}: text is not UTF-8")))
    }

    fn entry(&self, row: usize) -> Result<DirEntry> {
        self.dir.get(row).copied().ok_or_else(|| {
            Error::NotFound(format!("shard {} row {row} of {}", self.ordinal, self.dir.len()))
        })
    }

    /// The title of the entity at `row`, read from disk by byte offset.
    ///
    /// # Errors
    /// [`Error::NotFound`] for an out-of-range row; [`Error::Io`] /
    /// [`Error::Parse`] when the byte range cannot be read or decoded.
    pub fn title(&self, row: usize) -> Result<String> {
        let e = self.entry(row)?;
        self.read_text_range(u64::from(e.text_off), e.title_len as usize, "title")
    }

    /// The description of the entity at `row`, read from disk by byte
    /// offset.
    ///
    /// # Errors
    /// Same as [`Shard::title`].
    pub fn description(&self, row: usize) -> Result<String> {
        let e = self.entry(row)?;
        self.read_text_range(
            u64::from(e.text_off) + u64::from(e.title_len),
            e.desc_len as usize,
            "description",
        )
    }

    /// Dequantize the vector at `row` into `out` (length `dim`).
    pub fn dequant_row_into(&self, row: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim);
        let d = self.dim;
        let scale = self.table.scales()[row];
        for (dst, &code) in out.iter_mut().zip(&self.table.codes()[row * d..(row + 1) * d]) {
            *dst = f64::from(code) * scale;
        }
    }
}
