//! `mb-params v2` training checkpoints: a section schema over the
//! workspace container (`mb_common::storage`, DESIGN.md §8).
//!
//! A v2 checkpoint bundles everything needed to resume a training run
//! bit-identically after a crash: model parameters (one [`Params`] per
//! model), optimizer moments ([`OptimState`]), captured RNG streams
//! (`mb_common::Rng` state words), accumulated metric vectors, and a
//! free-form string map for the pipeline-stage cursor.
//!
//! | section        | payload (UTF-8 text)                                  |
//! |----------------|-------------------------------------------------------|
//! | `meta`         | one `<key> <value>` line per entry; always first      |
//! | `params/<key>` | parameter body: one `param <name>` tensor per tensor  |
//! | `optim/<key>`  | Adam's hyper-parameter line, then `tensor` moments    |
//! | `rng/<key>`    | the four `u64` state words                            |
//! | `vec/<key>`    | `f64` values, 17 significant digits                   |
//!
//! Sections are written in that order, keys ascending within a kind;
//! the reader accepts any order and rejects duplicates and unknown
//! kinds. Framing, CRCs and all-or-nothing verification are the
//! container's: a corrupted checkpoint never loads partially, and the
//! checkpoint manager in `mb-core` falls back to the previous good
//! generation.
//!
//! Legacy `mb-params v1` documents (bare, CRC-less parameter files)
//! still load, as a params-only checkpoint under the key `"model"`;
//! nothing writes them any more.

use crate::optim::OptimState;
use crate::params::Params;
use crate::serialize;
use crate::tensor::Tensor;
use mb_common::storage::{read_frame, verify_frames, write_frames, Storage};
use mb_common::{Error, Result};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;

const MAGIC_V2: &str = "mb-params v2";

/// Key under which a legacy v1 document's parameters appear after
/// loading through [`Checkpoint::from_bytes`].
pub const V1_PARAMS_KEY: &str = "model";

/// A complete training-state snapshot.
///
/// Keys in every map are free-form identifiers chosen by the caller
/// (e.g. `"bi"` and `"cross"` for the two encoders); they must be
/// non-empty and contain no whitespace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Model parameters per model key.
    pub params: BTreeMap<String, Params>,
    /// Optimizer state per optimizer key.
    pub optim: BTreeMap<String, OptimState>,
    /// Captured RNG stream state per stream key.
    pub rng: BTreeMap<String, [u64; 4]>,
    /// Accumulated numeric series (losses, counters) per key.
    pub vectors: BTreeMap<String, Vec<f64>>,
    /// Free-form metadata: stage cursor, step counters, config echo.
    /// Keys must contain no whitespace; values no newlines.
    pub meta: BTreeMap<String, String>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Serialize to the v2 byte format.
    ///
    /// # Errors
    /// [`Error::Diverged`] if any parameter tensor holds non-finite
    /// values; [`Error::Checkpoint`] if a key is empty, contains
    /// whitespace or is too long for a section header, or a meta value
    /// contains a newline.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut sections: Vec<(String, String)> = Vec::new();
        let mut meta_payload = String::new();
        for (k, v) in &self.meta {
            check_key(k)?;
            if v.contains('\n') {
                return Err(Error::Checkpoint(format!("meta value for {k:?} contains newline")));
            }
            meta_payload.push_str(k);
            meta_payload.push(' ');
            meta_payload.push_str(v);
            meta_payload.push('\n');
        }
        sections.push(("meta".to_string(), meta_payload));
        for (k, p) in &self.params {
            check_key(k)?;
            let mut body = String::new();
            serialize::write_params_body(p, &mut body)?;
            sections.push((format!("params/{k}"), body));
        }
        for (k, s) in &self.optim {
            check_key(k)?;
            sections.push((format!("optim/{k}"), encode_optim(s)));
        }
        for (k, s) in &self.rng {
            check_key(k)?;
            // mb-lint: allow(indexing) -- s is a fixed-size [u64; 4] rng state
            sections.push((format!("rng/{k}"), format!("{} {} {} {}\n", s[0], s[1], s[2], s[3])));
        }
        for (k, v) in &self.vectors {
            check_key(k)?;
            let mut payload = String::new();
            for (i, x) in v.iter().enumerate() {
                if i > 0 {
                    payload.push(' ');
                }
                payload.push_str(&format!("{x:.17e}"));
            }
            if !v.is_empty() {
                payload.push('\n');
            }
            sections.push((format!("vec/{k}"), payload));
        }
        write_frames(MAGIC_V2, &sections)
    }

    /// Parse a checkpoint from bytes, verifying framing and CRCs.
    ///
    /// Accepts both v2 documents and legacy `mb-params v1` parameter
    /// files (loaded under [`V1_PARAMS_KEY`]).
    ///
    /// # Errors
    /// [`Error::Checkpoint`] on truncation, corruption, or any framing
    /// problem; [`Error::Parse`] if a CRC-valid payload fails to decode
    /// (which indicates a writer bug, not storage corruption).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let mut ck = Checkpoint::new();
        if let Some(params) = serialize::read_v1(bytes) {
            ck.params.insert(V1_PARAMS_KEY.to_string(), params?);
            return Ok(ck);
        }
        let what = "checkpoint";
        let mut src = Cursor::new(bytes);
        for frame in verify_frames(&mut src, bytes.len() as u64, MAGIC_V2, what)? {
            let payload = String::from_utf8(read_frame(&mut src, &frame, what)?).map_err(|_| {
                Error::Checkpoint(format!("{what}: {} payload is not UTF-8", frame.name))
            })?;
            decode_section(&mut ck, &frame.name, &payload)?;
        }
        Ok(ck)
    }

    /// Serialize and write atomically through `storage`.
    ///
    /// # Errors
    /// Serialization errors from [`Checkpoint::to_bytes`], or
    /// [`Error::Io`] from the storage backend.
    pub fn save(&self, storage: &mut dyn Storage, path: &Path) -> Result<()> {
        storage.write_atomic(path, &self.to_bytes()?)
    }

    /// Read from `storage` and parse.
    ///
    /// # Errors
    /// [`Error::Io`] if unreadable, [`Error::Checkpoint`] if corrupt.
    pub fn load(storage: &mut dyn Storage, path: &Path) -> Result<Checkpoint> {
        Checkpoint::from_bytes(&storage.read(path)?)
    }
}

fn check_key(k: &str) -> Result<()> {
    if k.is_empty() || k.contains(char::is_whitespace) {
        return Err(Error::Checkpoint(format!("invalid checkpoint key {k:?}")));
    }
    Ok(())
}

fn decode_section(ck: &mut Checkpoint, name: &str, payload: &str) -> Result<()> {
    let dup = |what: &str| Error::Checkpoint(format!("duplicate section {what:?}"));
    if name == "meta" {
        if !ck.meta.is_empty() {
            return Err(dup(name));
        }
        for line in payload.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let (k, v) = line.split_once(' ').unwrap_or((line, ""));
            ck.meta.insert(k.to_string(), v.to_string());
        }
        Ok(())
    } else if let Some(key) = name.strip_prefix("params/") {
        let p = serialize::parse_params_body(payload)?;
        if ck.params.insert(key.to_string(), p).is_some() {
            return Err(dup(name));
        }
        Ok(())
    } else if let Some(key) = name.strip_prefix("optim/") {
        let s = decode_optim(payload)?;
        if ck.optim.insert(key.to_string(), s).is_some() {
            return Err(dup(name));
        }
        Ok(())
    } else if let Some(key) = name.strip_prefix("rng/") {
        let words: Vec<u64> = payload
            .split_whitespace()
            .map(|t| {
                t.parse::<u64>()
                    .map_err(|e| Error::Parse(format!("rng section {key}: bad word {t:?}: {e}")))
            })
            .collect::<Result<_>>()?;
        let state: [u64; 4] = words
            .try_into()
            .map_err(|_| Error::Parse(format!("rng section {key}: need exactly 4 words")))?;
        if ck.rng.insert(key.to_string(), state).is_some() {
            return Err(dup(name));
        }
        Ok(())
    } else if let Some(key) = name.strip_prefix("vec/") {
        let values: Vec<f64> = payload
            .split_whitespace()
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|e| Error::Parse(format!("vec section {key}: bad value {t:?}: {e}")))
            })
            .collect::<Result<_>>()?;
        if ck.vectors.insert(key.to_string(), values).is_some() {
            return Err(dup(name));
        }
        Ok(())
    } else {
        Err(Error::Checkpoint(format!("unknown section kind {name:?}")))
    }
}

fn encode_optim(s: &OptimState) -> String {
    let OptimState { lr, beta1, beta2, eps, t, moments } = s;
    let mut out = format!("adam {lr:.17e} {beta1:.17e} {beta2:.17e} {eps:.17e} {t}\n");
    match moments {
        None => out.push_str("moments none\n"),
        Some((m, v)) => {
            out.push_str(&format!("moments {}\n", m.len()));
            for t in m.iter().chain(v.iter()) {
                serialize::write_tensor("tensor", t, &mut out);
            }
        }
    }
    out
}

/// Decode an `optim/<key>` payload. Adam is the only optimizer kind;
/// any other header is an [`Error::Parse`].
fn decode_optim(payload: &str) -> Result<OptimState> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or_else(|| Error::Parse("empty optim section".into()))?;
    let mut parts = header.split_whitespace();
    match parts.next() {
        Some("adam") => {}
        Some(other) => return Err(Error::Parse(format!("unknown optimizer kind {other:?}"))),
        None => return Err(Error::Parse("blank optim header".into())),
    }
    let mut take_f64 = |what: &str| -> Result<f64> {
        parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| Error::Parse(format!("optim header missing {what}")))
    };
    let lr = take_f64("lr")?;
    let beta1 = take_f64("beta1")?;
    let beta2 = take_f64("beta2")?;
    let eps = take_f64("eps")?;
    let t: u64 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| Error::Parse("adam header missing step count".into()))?;
    let moments = parse_moments(&mut lines)?;
    Ok(OptimState { lr, beta1, beta2, eps, t, moments })
}

/// Parse a `"moments none"` or `"moments <n>"` line followed by `2n`
/// tensors: the `n` first moments, then the `n` second moments.
fn parse_moments(lines: &mut std::str::Lines<'_>) -> Result<Option<(Vec<Tensor>, Vec<Tensor>)>> {
    let header = lines.next().ok_or_else(|| Error::Parse("missing moments line".into()))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("moments") {
        return Err(Error::Parse(format!("expected moments line, got {header:?}")));
    }
    let count_tok =
        parts.next().ok_or_else(|| Error::Parse("moments line missing count".into()))?;
    if count_tok == "none" {
        return Ok(None);
    }
    let count: usize =
        count_tok.parse().map_err(|e| Error::Parse(format!("bad moments count: {e}")))?;
    let total =
        count.checked_mul(2).ok_or_else(|| Error::Parse(format!("bad moments count {count}")))?;
    // Not `with_capacity(total)`: the count is input, the lines are what is there.
    let mut m = Vec::new();
    for _ in 0..total {
        let header = lines.next().ok_or_else(|| Error::Parse("missing tensor header".into()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("tensor") {
            return Err(Error::Parse(format!("expected tensor header, got {header:?}")));
        }
        m.push(serialize::parse_tensor(parts, lines, "tensor")?);
    }
    let v = m.split_off(count);
    Ok(Some((m, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::params::GradVec;
    use mb_common::storage::MemStorage;
    use mb_common::Rng;

    fn sample() -> Checkpoint {
        let mut rng = Rng::seed_from_u64(7);
        let mut ck = Checkpoint::new();
        let mut bi = Params::new();
        bi.add("emb", Tensor::randn(vec![4, 3], 0.0, 1.0, &mut rng));
        bi.add("w", Tensor::randn(vec![3, 2], 0.0, 0.5, &mut rng));
        let mut cross = Params::new();
        cross.add("w", Tensor::randn(vec![2, 2], 0.0, 0.5, &mut rng));
        // Step a real Adam so moments are populated.
        let mut opt = Adam::new(0.01);
        let g = GradVec::from_tensors(vec![
            Tensor::randn(vec![4, 3], 0.0, 0.1, &mut rng),
            Tensor::randn(vec![3, 2], 0.0, 0.1, &mut rng),
        ]);
        opt.step(&mut bi, &g);
        ck.optim.insert("bi".into(), opt.state());
        ck.params.insert("bi".into(), bi);
        ck.params.insert("cross".into(), cross);
        ck.rng.insert("meta".into(), rng.state());
        ck.vectors.insert("step_losses".into(), vec![0.5, 0.25, 1.0 / 3.0]);
        ck.vectors.insert("empty".into(), Vec::new());
        ck.meta.insert("stage".into(), "2".into());
        ck.meta.insert("step".into(), "17".into());
        ck.meta.insert("note".into(), "has spaces in value".into());
        ck
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample();
        let bytes = ck.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn storage_round_trip() {
        let mut s = MemStorage::new();
        let ck = sample();
        let path = Path::new("ckpt/gen-000001.mbc");
        ck.save(&mut s, path).unwrap();
        assert_eq!(Checkpoint::load(&mut s, path).unwrap(), ck);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            let res = Checkpoint::from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "truncation to {cut}/{} bytes loaded silently", bytes.len());
        }
    }

    #[test]
    fn bit_flips_are_detected_or_exact() {
        // Flipping any single bit must either fail to load or (never,
        // for this format) load back to the original. A flip may not
        // silently produce a *different* checkpoint.
        let ck = sample();
        let bytes = ck.to_bytes().unwrap();
        let mut undetected = 0usize;
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                if let Ok(loaded) = Checkpoint::from_bytes(&mutated) {
                    assert_eq!(loaded, ck, "flip at {byte}:{bit} changed the checkpoint");
                    undetected += 1;
                }
            }
        }
        // CRC catches essentially everything; allow zero tolerance.
        assert_eq!(undetected, 0, "{undetected} flips loaded successfully");
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes.extend_from_slice(b"junk\n");
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn v1_documents_load_as_params_only() {
        let mut p = Params::new();
        p.add("w", Tensor::vector(&[1.0, 2.0, 3.0]));
        let v1 = "mb-params v1\nparam w 1 3\n1 2e0 3.0\n";
        let ck = Checkpoint::from_bytes(v1.as_bytes()).unwrap();
        assert_eq!(ck.params.len(), 1);
        assert_eq!(ck.params[V1_PARAMS_KEY], p);
        assert!(ck.optim.is_empty() && ck.rng.is_empty());
    }

    #[test]
    fn rejects_non_finite_params() {
        let mut ck = Checkpoint::new();
        let mut p = Params::new();
        p.add("w", Tensor::vector(&[f64::NAN]));
        ck.params.insert("m".into(), p);
        assert!(matches!(ck.to_bytes(), Err(Error::Diverged(_))));
    }

    #[test]
    fn rejects_bad_keys() {
        let mut ck = Checkpoint::new();
        ck.meta.insert("has space".into(), "v".into());
        assert!(ck.to_bytes().is_err());
        let mut ck = Checkpoint::new();
        ck.meta.insert("k".into(), "multi\nline".into());
        assert!(ck.to_bytes().is_err());
        let mut ck = Checkpoint::new();
        ck.vectors.insert(String::new(), vec![1.0]);
        assert!(ck.to_bytes().is_err());
    }

    #[test]
    fn an_optimizer_section_of_another_kind_is_a_typed_error() {
        // CRC-valid framing around an SGD section, as a writer that
        // still knew SGD produced it: the decoder rejects the document.
        let sgd = "sgd 1.00000000000000006e-1 9.00000000000000022e-1 0.00000000000000000e0\n\
                   velocity none\n";
        let sections = [("meta".to_string(), String::new()), ("optim/sgd".to_string(), sgd.into())];
        let bytes = write_frames(MAGIC_V2, &sections).unwrap();
        match Checkpoint::from_bytes(&bytes) {
            Err(Error::Parse(msg)) => assert!(msg.contains("\"sgd\""), "{msg}"),
            other => panic!("expected Error::Parse, got {other:?}"),
        }
    }

    #[test]
    fn optimizer_state_restores_through_checkpoint() {
        let mut params = Params::new();
        params.add("x", Tensor::vector(&[1.0, -1.0]));
        let mut opt = Adam::new(0.05);
        let g = GradVec::from_tensors(vec![Tensor::vector(&[0.3, 0.7])]);
        opt.step(&mut params, &g);
        opt.step(&mut params, &g);

        let mut ck = Checkpoint::new();
        ck.optim.insert("opt".into(), opt.state());
        let back = Checkpoint::from_bytes(&ck.to_bytes().unwrap()).unwrap();

        let mut restored = Adam::new(0.0);
        restored.restore(back.optim["opt"].clone());
        assert_eq!(restored.state(), opt.state());
        assert_eq!(restored.steps(), 2);
    }
}
