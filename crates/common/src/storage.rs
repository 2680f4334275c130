//! Durable storage with atomic writes, the sectioned-CRC container
//! every persisted file is framed in, plus the fault-injection seams
//! (storage and step budget) used by the checkpoint/resume machinery.
//!
//! # Container
//!
//! Checkpoints, store shards, the store manifest and IVF indexes are
//! all the same frame sequence, and [`write_frames`] / [`verify_frames`]
//! are the only code that writes or walks it (DESIGN.md §8):
//!
//! ```text
//! <magic> <nsections>
//! section <name> <len> <crc32>
//! <exactly len payload bytes>
//! section <name> <len> <crc32>
//! ...
//! ```
//!
//! The magic line pins the section count, each header pins its payload
//! length, and each CRC-32 (exactly eight lowercase hex digits) covers
//! `name + '\n' + payload`, so any truncation or single-bit flip of a
//! name, a payload or a header is detected. Verification is
//! all-or-nothing and streams every payload through one bounded
//! buffer; what the sections *mean* — which names, in which order, of
//! which sizes — is each caller's schema.
//!
//! Everything that persists training state goes through the [`Storage`]
//! trait so that tests can substitute an in-memory backend or a
//! fault-injecting wrapper (see the `mb-fault` crate) without touching
//! the code under test. [`DiskStorage`] is the production backend: every
//! write goes to a temporary sibling file, is flushed with
//! `File::sync_all`, and is then renamed over the destination, so a
//! crash mid-write can never leave a half-written file under the final
//! name.

use crate::{Error, Result};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (ISO-HDLC, the zlib/PNG polynomial) of a byte slice.
///
/// Used as the per-section integrity check of the container (see the
/// module docs): any single-bit corruption of a protected payload
/// changes the checksum.
///
/// # Examples
///
/// ```
/// // Standard test vector: CRC-32("123456789") = 0xCBF43926.
/// assert_eq!(mb_common::storage::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// The reflected CRC-32 byte table (poly 0xEDB88320), built on first
/// use.
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|i| {
            (0..8).fold(i as u32, |crc, _| (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg()))
        })
    })
}

/// Incremental CRC-32 (reflected, poly 0xEDB88320) — the streaming
/// form of [`crc32`], for payloads too large to hold in memory (the
/// sharded entity store verifies multi-MB sections through a bounded
/// chunk buffer). Feeding the same bytes in any chunking produces the
/// same checksum as one [`crc32`] call.
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb the next chunk.
    pub fn update(&mut self, bytes: &[u8]) {
        let table = crc32_table();
        let mut crc = self.state;
        for &b in bytes {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            // mb-lint: allow(indexing) -- idx is masked to 0..=255 over a 256-entry table
            crc = (crc >> 8) ^ table[idx];
        }
        self.state = crc;
    }

    /// The checksum of everything absorbed so far (the hasher stays
    /// usable — `finish` does not consume it).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Verify buffer size: the largest allocation [`verify_frames`] makes,
/// whatever lengths the headers declare.
const VERIFY_CHUNK: usize = 64 * 1024;

/// Longest header line [`verify_frames`] reads, newline included.
const HEADER_MAX: usize = 256;

/// Fewest bytes one frame can occupy.
const FRAME_MIN: u64 = "section x 0 00000000\n\n".len() as u64;

/// One verified section: its name and where its payload sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Section name, as written in its header.
    pub name: String,
    /// Byte offset of the payload from the start of the source.
    pub pos: u64,
    /// Payload length in bytes.
    pub len: usize,
}

fn read_err(what: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{what}: {e}"))
}

/// A hasher primed with what a section CRC covers ahead of the
/// payload: `name + '\n'`.
fn section_hasher(name: &str) -> Crc32 {
    let mut h = Crc32::new();
    h.update(name.as_bytes());
    h.update(b"\n");
    h
}

/// Serialize `sections` as one container: the `<magic> <count>` line,
/// then one frame per `(name, payload)` pair in order.
///
/// # Errors
/// [`Error::Checkpoint`] for a name [`verify_frames`] would not read
/// back: empty, containing whitespace, or so long that its header line
/// exceeds the walker's line cap.
pub fn write_frames<N: AsRef<str>, P: AsRef<[u8]>>(
    magic: &str,
    sections: &[(N, P)],
) -> Result<Vec<u8>> {
    let mut out = format!("{magic} {}\n", sections.len()).into_bytes();
    for (name, payload) in sections {
        let (name, payload) = (name.as_ref(), payload.as_ref());
        let mut h = section_hasher(name);
        h.update(payload);
        let header = format!("section {name} {} {:08x}\n", payload.len(), h.finish());
        if name.is_empty() || name.contains(char::is_whitespace) || header.len() > HEADER_MAX {
            return Err(Error::Checkpoint(format!("unwritable section name {name:?}")));
        }
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload);
        out.push(b'\n');
    }
    Ok(out)
}

/// Read one `\n`-terminated header line of at most [`HEADER_MAX`]
/// bytes, without its newline.
fn header_line(src: &mut impl BufRead, what: &str) -> Result<String> {
    let mut line = Vec::new();
    src.take(HEADER_MAX as u64).read_until(b'\n', &mut line).map_err(|e| read_err(what, e))?;
    if line.pop() != Some(b'\n') {
        return Err(Error::Checkpoint(format!("{what}: unterminated or overlong header line")));
    }
    String::from_utf8(line)
        .map_err(|_| Error::Checkpoint(format!("{what}: header line is not UTF-8")))
}

/// Walk a container of `len` bytes from the start of `src`, checking
/// the magic line, every header, every payload CRC and the absence of
/// trailing bytes, and return the frames in file order. All-or-nothing:
/// any defect is an error and yields no frames.
///
/// Every header number is range-checked against `len` before it is
/// used, so no input — a count or length of `u64::MAX` included — can
/// make the walk panic, over-allocate or read past the end; payloads
/// stream through one `VERIFY_CHUNK`-sized buffer.
///
/// # Errors
/// [`Error::Checkpoint`] on any framing or CRC problem (`what` prefixes
/// the message); [`Error::Io`] when `src` cannot be read.
pub fn verify_frames<R: Read>(
    src: &mut R,
    len: u64,
    magic: &str,
    what: &str,
) -> Result<Vec<Frame>> {
    let bad = |msg: String| Error::Checkpoint(format!("{what}: {msg}"));
    let mut src = BufReader::with_capacity(VERIFY_CHUNK, src);
    let line = header_line(&mut src, what)?;
    let mut head = line.split_whitespace();
    if !magic.split_whitespace().all(|token| head.next() == Some(token)) {
        return Err(bad(format!("bad magic line {line:?}")));
    }
    let nsections: usize = head
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("bad section count in {line:?}")))?;
    if head.next().is_some() {
        return Err(bad(format!("trailing tokens in magic line {line:?}")));
    }
    let mut pos = line.len() as u64 + 1;
    if nsections as u64 > len.saturating_sub(pos) / FRAME_MIN {
        return Err(bad(format!(
            "{nsections} sections declared, {} bytes cannot hold them",
            len.saturating_sub(pos)
        )));
    }
    let mut frames = Vec::with_capacity(nsections);
    for i in 0..nsections {
        let header = header_line(&mut src, what)
            .map_err(|_| bad(format!("truncated before section {i}")))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("section") {
            return Err(bad(format!("bad section header {header:?}")));
        }
        let name =
            parts.next().ok_or_else(|| bad(format!("section header {header:?} lacks name")))?;
        let payload_len: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(format!("bad length in {header:?}")))?;
        // Strict canonical form: exactly 8 lowercase hex digits, so no
        // bit flip of the stored CRC can parse to the same value.
        let crc_expect = parts
            .next()
            .filter(|t| {
                t.len() == 8 && t.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
            })
            .and_then(|t| u32::from_str_radix(t, 16).ok())
            .ok_or_else(|| bad(format!("bad crc in {header:?}")))?;
        if parts.next().is_some() {
            return Err(bad(format!("trailing tokens in {header:?}")));
        }
        pos += header.len() as u64 + 1;
        let end = pos
            .checked_add(payload_len as u64)
            .and_then(|e| e.checked_add(1))
            .filter(|&e| e <= len)
            .ok_or_else(|| {
                bad(format!(
                    "section {name}: payload truncated ({} of {payload_len} bytes present)",
                    len.saturating_sub(pos)
                ))
            })?;
        let mut h = section_hasher(name);
        // Stream the payload through the bounded buffer. `end <= len`
        // holds, so running out of bytes here means `len` was wrong —
        // an I/O inconsistency, reported as such by the terminator read.
        let mut body = src.by_ref().take(payload_len as u64);
        loop {
            let buf = body.fill_buf().map_err(|e| read_err(what, e))?;
            if buf.is_empty() {
                break;
            }
            h.update(buf);
            let n = buf.len();
            body.consume(n);
        }
        let mut terminator = [0u8; 1];
        src.read_exact(&mut terminator).map_err(|e| read_err(what, e))?;
        if terminator != [b'\n'] {
            return Err(bad(format!("section {name}: missing terminator after payload")));
        }
        if h.finish() != crc_expect {
            return Err(bad(format!(
                "section {name}: crc mismatch (stored {crc_expect:08x}, computed {:08x})",
                h.finish()
            )));
        }
        frames.push(Frame { name: name.to_string(), pos, len: payload_len });
        pos = end;
    }
    if pos != len {
        return Err(bad(format!("{} trailing bytes after final section", len - pos)));
    }
    Ok(frames)
}

/// Read the payload of a frame [`verify_frames`] returned for `src`.
/// Allocates `frame.len` bytes: callers with a fixed-width schema
/// size-check the frame first.
///
/// # Errors
/// [`Error::Io`] when `src` cannot be read.
pub fn read_frame<R: Read + Seek>(src: &mut R, frame: &Frame, what: &str) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; frame.len];
    src.seek(SeekFrom::Start(frame.pos))
        .and_then(|_| src.read_exact(&mut buf))
        .map_err(|e| read_err(what, e))?;
    Ok(buf)
}

/// Abstract byte storage with atomic replace semantics.
///
/// Paths are opaque keys; `DiskStorage` maps them to the filesystem,
/// `MemStorage` to a map. Methods take `&mut self` so wrappers can keep
/// deterministic fault counters.
pub trait Storage {
    /// Read the full contents stored under `path`.
    ///
    /// # Errors
    /// [`Error::Io`] if the entry does not exist or cannot be read.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>>;

    /// Atomically replace the contents under `path` with `data`.
    ///
    /// After an `Ok` return the new contents are durable; after an error
    /// the previous contents (if any) are still intact.
    ///
    /// # Errors
    /// [`Error::Io`] on any I/O failure.
    fn write_atomic(&mut self, path: &Path, data: &[u8]) -> Result<()>;

    /// True if an entry exists under `path`.
    fn exists(&mut self, path: &Path) -> bool;

    /// Remove the entry under `path` (ok if it is already gone).
    ///
    /// # Errors
    /// [`Error::Io`] on I/O failure other than absence.
    fn remove(&mut self, path: &Path) -> Result<()>;

    /// File names (not full paths) of the entries directly under `dir`,
    /// sorted ascending. An absent directory lists as empty.
    ///
    /// # Errors
    /// [`Error::Io`] on I/O failure.
    fn list(&mut self, dir: &Path) -> Result<Vec<String>>;
}

/// Filesystem-backed [`Storage`] with write-temp + fsync + rename.
#[derive(Debug, Clone, Default)]
pub struct DiskStorage;

impl DiskStorage {
    /// A new disk storage handle.
    pub fn new() -> Self {
        DiskStorage
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {e}", path.display()))
}

impl Storage for DiskStorage {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| io_err("reading", path, e))
    }

    fn write_atomic(&mut self, path: &Path, data: &[u8]) -> Result<()> {
        atomic_write(path, data)
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&mut self, path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("removing", path, e)),
        }
    }

    fn list(&mut self, dir: &Path) -> Result<Vec<String>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(es) => es,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("listing", dir, e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", dir, e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}

/// Write `data` to `path` atomically: write a temporary sibling, flush
/// it to disk, then rename it over the destination. Readers never see a
/// torn file under `path`; a crash leaves at worst a stale `.tmp`
/// sibling.
///
/// # Errors
/// [`Error::Io`] on any I/O failure; the previous contents of `path`
/// are untouched in that case.
pub fn atomic_write(path: &Path, data: &[u8]) -> Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
    f.write_all(data).map_err(|e| io_err("writing", &tmp, e))?;
    // fsync so the rename cannot land before the data does.
    f.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err("renaming", &tmp, e))
}

/// In-memory [`Storage`] for tests. Cloning shares the underlying map,
/// so a "restarted" component handed a clone sees everything previous
/// writers persisted — mirroring a process restart over a real disk.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: std::rc::Rc<std::cell::RefCell<BTreeMap<PathBuf, Vec<u8>>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.files.borrow().len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }

    /// Overwrite raw bytes directly (test helper for corrupting state
    /// behind the back of the code under test).
    pub fn poke(&self, path: &Path, data: Vec<u8>) {
        self.files.borrow_mut().insert(path.to_path_buf(), data);
    }

    /// Read raw bytes directly without going through the trait.
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        self.files.borrow().get(path).cloned()
    }
}

impl Storage for MemStorage {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>> {
        self.files
            .borrow()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::Io(format!("reading {}: no such entry", path.display())))
    }

    fn write_atomic(&mut self, path: &Path, data: &[u8]) -> Result<()> {
        self.files.borrow_mut().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.files.borrow().contains_key(path)
    }

    fn remove(&mut self, path: &Path) -> Result<()> {
        self.files.borrow_mut().remove(path);
        Ok(())
    }

    fn list(&mut self, dir: &Path) -> Result<Vec<String>> {
        let files = self.files.borrow();
        let mut names: Vec<String> = files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }
}

/// A budget of training work, ticked once per unit of progress (an
/// epoch, a meta step, a stage boundary).
///
/// This is the crash-injection seam: training loops call
/// [`StepBudget::tick`] before each unit of work, and an implementation
/// may return an error to abort the run exactly as if the process had
/// died there — everything not yet checkpointed is lost. The `mb-fault`
/// crate provides deterministic kill-at-step-N implementations; real
/// runs use [`NoBudget`].
pub trait StepBudget {
    /// Account one unit of work.
    ///
    /// # Errors
    /// [`Error::Aborted`] (by convention) when the budget is exhausted
    /// and the run must stop as if killed.
    fn tick(&mut self) -> Result<()>;
}

/// The production budget: never aborts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBudget;

impl StepBudget for NoBudget {
    fn tick(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_streaming_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 3, 64, 1000, 4096] {
            let mut h = Crc32::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk}");
        }
        // finish() is non-consuming: absorbing more afterwards continues.
        let mut h = Crc32::new();
        h.update(b"1234");
        let _ = h.finish();
        h.update(b"56789");
        assert_eq!(h.finish(), 0xCBF4_3926);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"mb-params v2 payload bytes".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    const MAGIC: &str = "mb-test v1";

    fn sample_frames() -> Vec<u8> {
        let big = vec![0xA5u8; 3 * VERIFY_CHUNK + 17];
        write_frames(MAGIC, &[("meta", &b"k v\n"[..]), ("empty", b""), ("big", &big)]).unwrap()
    }

    fn verify(bytes: &[u8]) -> Result<Vec<Frame>> {
        verify_frames(&mut std::io::Cursor::new(bytes), bytes.len() as u64, MAGIC, "t")
    }

    #[test]
    fn frames_round_trip_with_positions() {
        let bytes = sample_frames();
        assert!(bytes.starts_with(b"mb-test v1 3\nsection meta 4 "));
        let frames = verify(&bytes).unwrap();
        let names: Vec<&str> = frames.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["meta", "empty", "big"]);
        let mut src = std::io::Cursor::new(&bytes);
        assert_eq!(read_frame(&mut src, &frames[0], "t").unwrap(), b"k v\n");
        assert_eq!(read_frame(&mut src, &frames[1], "t").unwrap(), b"");
        let big = read_frame(&mut src, &frames[2], "t").unwrap();
        assert_eq!(big.len(), 3 * VERIFY_CHUNK + 17);
        assert!(big.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn every_truncation_flip_and_trailing_byte_is_rejected() {
        let bytes =
            write_frames(MAGIC, &[("meta", &b"k v\n"[..]), ("body", b"payload bytes")]).unwrap();
        for cut in 0..bytes.len() {
            assert!(verify(&bytes[..cut]).is_err(), "prefix {cut} verified");
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(verify(&flipped).is_err(), "flip {byte}:{bit} verified");
            }
        }
        let mut longer = bytes.clone();
        longer.push(b'\n');
        assert!(verify(&longer).is_err());
        assert!(verify_frames(&mut &bytes[..], bytes.len() as u64, "mb-other v1", "t").is_err());
    }

    #[test]
    fn writer_refuses_names_the_walker_would_not_read_back() {
        for name in ["", "has space", "tab\there", "line\nbreak", &"x".repeat(HEADER_MAX)] {
            let err = write_frames(MAGIC, &[(name, b"")]).unwrap_err();
            assert!(matches!(err, Error::Checkpoint(_)), "{name:?}: {err:?}");
        }
        // The longest name whose header still fits the line cap reads back.
        let fits = "x".repeat(HEADER_MAX - "section  0 00000000\n".len());
        let bytes = write_frames(MAGIC, &[(fits.as_str(), b"")]).unwrap();
        assert_eq!(verify(&bytes).unwrap()[0].name, fits);
        assert!(write_frames(MAGIC, &[(format!("{fits}x"), b"")]).is_err());
    }

    #[test]
    fn oversized_header_numbers_are_typed_rejections() {
        let huge = ["4294967296", "9223372036854775808", "18446744073709551615"];
        for n in huge.iter().copied().chain(["99999999999999999999", "2"]) {
            for doc in [
                format!("mb-test v1 {n}\nsection meta 0 00000000\n\n"),
                format!("mb-test v1 1\nsection meta {n} 00000000\n\n"),
            ] {
                let err = verify(doc.as_bytes()).unwrap_err();
                assert!(matches!(err, Error::Checkpoint(_)), "{doc:?}: {err:?}");
            }
        }
    }

    #[test]
    fn disk_storage_round_trip_and_list() {
        let dir = std::env::temp_dir().join(format!("mb_storage_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut s = DiskStorage::new();
        let path = dir.join("a.bin");
        assert!(!s.exists(&path));
        s.write_atomic(&path, b"hello").unwrap();
        assert!(s.exists(&path));
        assert_eq!(s.read(&path).unwrap(), b"hello");
        s.write_atomic(&path, b"replaced").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"replaced");
        s.write_atomic(&dir.join("b.bin"), b"x").unwrap();
        assert_eq!(s.list(&dir).unwrap(), vec!["a.bin".to_string(), "b.bin".to_string()]);
        s.remove(&path).unwrap();
        assert!(!s.exists(&path));
        s.remove(&path).unwrap(); // idempotent
        assert!(s.read(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join(format!("mb_storage_tmp_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("ckpt.mbc");
        atomic_write(&path, b"data").unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ckpt.mbc".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_storage_clones_share_state() {
        let mut a = MemStorage::new();
        let mut b = a.clone();
        let p = Path::new("dir/x");
        a.write_atomic(p, b"1").unwrap();
        assert_eq!(b.read(p).unwrap(), b"1");
        assert_eq!(b.list(Path::new("dir")).unwrap(), vec!["x".to_string()]);
        b.remove(p).unwrap();
        assert!(!a.exists(p));
    }

    #[test]
    fn no_budget_never_aborts() {
        let mut b = NoBudget;
        for _ in 0..1000 {
            assert!(b.tick().is_ok());
        }
    }
}
