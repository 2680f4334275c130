//! The sharded entity store: a directory of shard files plus a
//! checksummed `MANIFEST` naming them.
//!
//! ```text
//! <dir>/MANIFEST          container (DESIGN.md §8), one `manifest` section
//! <dir>/shard-00000.mbs   entities [0, capacity)
//! <dir>/shard-00001.mbs   entities [capacity, 2*capacity)
//! ...
//! ```
//!
//! Entity ids are global and contiguous: the entity with id `g` lives
//! in shard `g / shard_capacity` at row `g % shard_capacity` (the
//! manifest records every shard's base and count, and open-time
//! validation enforces contiguity). [`StoreBuilder`] consumes a record
//! stream and rolls a new shard every `shard_capacity` entities, so
//! peak RAM during a build is one shard regardless of store size.
//! The `manifest` section (≤ 16 MiB) is text: `entities`, `dim`,
//! `quant`, `capacity` and `shards` lines, then one
//! `shard <ordinal> <file> <base> <count> <bytes>` line per shard.
//! [`EntityStore::open`] verifies the manifest and every shard
//! (section CRCs, schema, contiguity) before returning — all or
//! nothing.

use crate::shard::{self, check_quant_token, open_frames, quant_token, Shard, StoreRecord, MAGIC};
use mb_common::storage::{atomic_write, read_frame, write_frames};
use mb_common::{Error, Result};
use mb_encoders::retrieval::QuantizedIndex;
use mb_kb::EntityId;
use mb_tensor::kernels::I8_EXACT_COLS;
use mb_tensor::QuantMode;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Manifest file name inside a store directory.
pub const MANIFEST: &str = "MANIFEST";

/// Upper bound on the manifest section (one short line per shard).
const MANIFEST_MAX_BYTES: usize = 16 * 1024 * 1024;

/// Build-time parameters of a sharded store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Entities per shard; the builder's RAM bound.
    pub shard_capacity: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// On-disk vector quantization ([`QuantMode::Exact`] is rejected —
    /// the store persists int8 tables).
    pub quant: QuantMode,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { shard_capacity: 65_536, dim: 32, quant: QuantMode::Int8 }
    }
}

/// Streaming store writer: push records in id order, shards roll
/// automatically, `finish` seals the manifest and reopens the store.
pub struct StoreBuilder {
    dir: PathBuf,
    cfg: StoreConfig,
    pending: Vec<StoreRecord>,
    shards: Vec<(String, u32, usize, u64)>, // file, base, entities, bytes
    total: usize,
}

/// File name of shard `ordinal`.
fn shard_file_name(ordinal: usize) -> String {
    format!("shard-{ordinal:05}.mbs")
}

impl StoreBuilder {
    /// Start building a store in `dir` (created if absent; an existing
    /// `MANIFEST` there is rejected rather than silently overwritten).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for a zero capacity/dim, an exact quant
    /// mode, an int8 dim wider than [`I8_EXACT_COLS`], or a
    /// directory that already holds a store;
    /// [`Error::Io`] when the directory cannot be created.
    pub fn create(dir: &Path, cfg: StoreConfig) -> Result<StoreBuilder> {
        if cfg.shard_capacity == 0 || cfg.dim == 0 {
            return Err(Error::InvalidConfig(
                "store shard_capacity and dim must be positive".to_string(),
            ));
        }
        quant_token(cfg.quant)?;
        // The int8 scan sums integers in `f32`, exact only below 2²⁴.
        if cfg.dim > I8_EXACT_COLS {
            return Err(Error::InvalidConfig(format!(
                "int8 store dim {} exceeds the exact scan width {I8_EXACT_COLS}",
                cfg.dim
            )));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
        if dir.join(MANIFEST).exists() {
            return Err(Error::InvalidConfig(format!(
                "{} already holds a store manifest",
                dir.display()
            )));
        }
        Ok(StoreBuilder {
            dir: dir.to_path_buf(),
            cfg,
            pending: Vec::with_capacity(cfg.shard_capacity),
            shards: Vec::new(),
            total: 0,
        })
    }

    /// Append the next entity (global id = arrival order). Flushes a
    /// full shard to disk as a side effect, keeping at most
    /// `shard_capacity` records in memory.
    ///
    /// # Errors
    /// Shape/offset/write errors from [`shard::write_shard`].
    pub fn push(&mut self, record: StoreRecord) -> Result<()> {
        if record.vector.len() != self.cfg.dim {
            return Err(Error::shape(
                "StoreBuilder::push",
                format!("[{}] vector", self.cfg.dim),
                format!("[{}] vector", record.vector.len()),
            ));
        }
        self.pending.push(record);
        self.total += 1;
        if self.pending.len() == self.cfg.shard_capacity {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<()> {
        let ordinal = self.shards.len();
        let base_usize = self.total - self.pending.len();
        let base = u32::try_from(base_usize)
            .map_err(|_| Error::InvalidConfig("store exceeds u32 entity ids".to_string()))?;
        let file = shard_file_name(ordinal);
        let count = self.pending.len();
        let bytes = shard::write_shard(
            &self.dir.join(&file),
            ordinal,
            base,
            self.cfg.dim,
            self.cfg.quant,
            &self.pending,
        )?;
        self.shards.push((file, base, count, bytes));
        self.pending.clear();
        Ok(())
    }

    /// Flush the final (possibly short) shard, write the manifest
    /// atomically, and reopen the finished store through the verifying
    /// loader.
    ///
    /// # Errors
    /// [`Error::Empty`] when no records were pushed; write and
    /// verification errors otherwise.
    pub fn finish(mut self) -> Result<EntityStore> {
        if !self.pending.is_empty() {
            self.flush_shard()?;
        }
        if self.shards.is_empty() {
            return Err(Error::Empty("entity store"));
        }
        let quant_name = quant_token(self.cfg.quant)?;
        let mut payload = format!(
            "entities {}\ndim {}\nquant {quant_name}\ncapacity {}\nshards {}\n",
            self.total,
            self.cfg.dim,
            self.cfg.shard_capacity,
            self.shards.len()
        );
        for (ordinal, (file, base, count, bytes)) in self.shards.iter().enumerate() {
            payload.push_str(&format!("shard {ordinal} {file} {base} {count} {bytes}\n"));
        }
        let out = write_frames(MAGIC, &[("manifest", payload)])?;
        atomic_write(&self.dir.join(MANIFEST), &out)?;
        EntityStore::open(&self.dir)
    }
}

/// An open, fully verified sharded entity store.
#[derive(Debug)]
pub struct EntityStore {
    dim: usize,
    capacity: usize,
    shards: Vec<Shard>,
    total: usize,
}

impl EntityStore {
    /// Open the store in `dir`, verifying the manifest and every shard
    /// (framing, CRCs, schema, id contiguity). All-or-nothing.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] on any corruption or inconsistency,
    /// including an int8 dim wider than [`I8_EXACT_COLS`];
    /// [`Error::Io`] when files cannot be read.
    pub fn open(dir: &Path) -> Result<EntityStore> {
        let manifest_path = dir.join(MANIFEST);
        let what = manifest_path.to_string_lossy().into_owned();
        let mut file = File::open(&manifest_path)
            .map_err(|e| Error::Io(format!("{what}: {e} (not a store directory?)")))?;
        let [manifest] = open_frames(&mut file, ["manifest"], &what)?;
        if manifest.len > MANIFEST_MAX_BYTES {
            return Err(Error::Checkpoint(format!("{what}: manifest implausibly large")));
        }
        let payload = read_frame(&mut file, &manifest, &what)?;
        let meta = shard::parse_meta(&payload, &what)?;
        let total = shard::meta_number(&meta, "entities", &what)? as usize;
        let dim = shard::meta_number(&meta, "dim", &what)? as usize;
        check_quant_token(shard::meta_value(&meta, "quant", &what)?)?;
        let capacity = shard::meta_number(&meta, "capacity", &what)? as usize;
        let nshards = shard::meta_number(&meta, "shards", &what)? as usize;
        if capacity == 0 || dim == 0 {
            return Err(Error::Checkpoint(format!("{what}: zero capacity or dim")));
        }
        if dim > I8_EXACT_COLS {
            return Err(Error::Checkpoint(format!(
                "{what}: int8 dim {dim} exceeds the exact scan width {I8_EXACT_COLS}"
            )));
        }
        let shard_lines: Vec<&(String, String)> =
            meta.iter().filter(|(k, _)| k == "shard").collect();
        if shard_lines.len() != nshards {
            return Err(Error::Checkpoint(format!(
                "{what}: manifest declares {nshards} shards but lists {}",
                shard_lines.len()
            )));
        }
        let mut shards = Vec::with_capacity(nshards);
        let mut next_base = 0u64;
        let mut counted = 0usize;
        for (ordinal, (_, line)) in shard_lines.iter().enumerate() {
            let mut parts = line.split_whitespace();
            let decl_ordinal: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| Error::Checkpoint(format!("{what}: bad shard line {line:?}")))?;
            let file_name = parts
                .next()
                .ok_or_else(|| Error::Checkpoint(format!("{what}: bad shard line {line:?}")))?;
            let base: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| Error::Checkpoint(format!("{what}: bad shard line {line:?}")))?;
            let count: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| Error::Checkpoint(format!("{what}: bad shard line {line:?}")))?;
            let bytes: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| Error::Checkpoint(format!("{what}: bad shard line {line:?}")))?;
            if parts.next().is_some() {
                return Err(Error::Checkpoint(format!("{what}: trailing tokens in {line:?}")));
            }
            if decl_ordinal != ordinal {
                return Err(Error::Checkpoint(format!(
                    "{what}: shard line {ordinal} declares ordinal {decl_ordinal}"
                )));
            }
            if base != next_base {
                return Err(Error::Checkpoint(format!(
                    "{what}: shard {ordinal} base {base} breaks contiguity (want {next_base})"
                )));
            }
            let full = ordinal + 1 < nshards;
            if (full && count != capacity) || count == 0 || count > capacity {
                return Err(Error::Checkpoint(format!(
                    "{what}: shard {ordinal} holds {count} entities (capacity {capacity})"
                )));
            }
            let path = dir.join(file_name);
            let on_disk = std::fs::metadata(&path)
                .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?
                .len();
            if on_disk != bytes {
                return Err(Error::Checkpoint(format!(
                    "{what}: shard {ordinal} is {on_disk} bytes on disk, manifest says {bytes}"
                )));
            }
            let sh = Shard::open(&path)?;
            if sh.ordinal() != ordinal
                || u64::from(sh.base()) != base
                || sh.len() != count
                || sh.dim() != dim
            {
                return Err(Error::Checkpoint(format!(
                    "{what}: shard {ordinal} metadata disagrees with its manifest entry"
                )));
            }
            next_base = base + count as u64;
            counted += count;
            shards.push(sh);
        }
        if counted != total {
            return Err(Error::Checkpoint(format!(
                "{what}: shards hold {counted} entities, manifest says {total}"
            )));
        }
        Ok(EntityStore { dim, capacity, shards, total })
    }

    /// Total entities across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True for a store with no entities (never constructed; the
    /// builder rejects empty stores).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entities per full shard.
    pub fn shard_capacity(&self) -> usize {
        self.capacity
    }

    /// The verified shards, in id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Locate a global row: `(shard index, row within shard)`.
    pub(crate) fn locate(&self, global_row: usize) -> Option<(usize, usize)> {
        if global_row >= self.total {
            return None;
        }
        Some((global_row / self.capacity, global_row % self.capacity))
    }

    /// Title of the entity with global id `id`, read from disk.
    ///
    /// # Errors
    /// [`Error::NotFound`] for an id outside the store; I/O and decode
    /// errors from the shard read.
    pub fn title(&self, id: EntityId) -> Result<String> {
        let (s, row) = self
            .locate(id.0 as usize)
            .ok_or_else(|| Error::NotFound(format!("entity {} of {}", id.0, self.total)))?;
        self.shards.get(s).ok_or_else(|| Error::NotFound(format!("shard {s}")))?.title(row)
    }

    /// Description of the entity with global id `id`, read from disk.
    ///
    /// # Errors
    /// Same as [`EntityStore::title`].
    pub fn description(&self, id: EntityId) -> Result<String> {
        let (s, row) = self
            .locate(id.0 as usize)
            .ok_or_else(|| Error::NotFound(format!("entity {} of {}", id.0, self.total)))?;
        self.shards.get(s).ok_or_else(|| Error::NotFound(format!("shard {s}")))?.description(row)
    }

    /// Dequantize the vector at `global_row` into `out`.
    pub fn dequant_row_into(&self, global_row: usize, out: &mut [f64]) {
        let (s, row) = (global_row / self.capacity, global_row % self.capacity);
        self.shards[s].dequant_row_into(row, out);
    }

    /// Assemble one flat [`QuantizedIndex`] over the whole store from
    /// the per-shard tables **byte-for-byte** (int8 codes gathered
    /// straight into scan tiles): quantization happened once at
    /// store-build time, so serve start-up (and every reload) moves raw
    /// table rows instead of re-quantizing embeddings.
    ///
    /// # Errors
    /// Shape errors from the raw-parts constructors (only reachable if
    /// a shard lied about its geometry, which open-time checks reject).
    pub fn quantized_index(&self) -> Result<QuantizedIndex> {
        let ids: Vec<EntityId> = (0..u32::try_from(self.total)
            .map_err(|_| Error::InvalidConfig("store exceeds u32 entity ids".to_string()))?)
            .map(EntityId)
            .collect();
        QuantizedIndex::from_i8(self.shards.iter().map(Shard::table), ids)
    }
}
