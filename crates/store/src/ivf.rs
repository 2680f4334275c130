//! Deterministic IVF (inverted-file) retrieval over an
//! [`EntityStore`].
//!
//! The index is a seeded k-means partition of the store's vectors:
//! `nlist` centroids plus one inverted list of row ids per centroid.
//! A query scores all centroids, probes the `nprobe` best lists, and
//! scores only the rows they hold against the store's quantized
//! tables — the same arithmetic brute force would use, on a fraction
//! of the rows.
//!
//! # Determinism contract (DESIGN.md §14)
//!
//! Build and search are **bit-identical across runs and worker
//! counts**:
//!
//! - training rows are a fixed stride of the store (no sampling RNG);
//!   the only randomness is the seeded centroid init, drawn from
//!   `Rng::seed_from_u64(cfg.seed)` in one serial pass;
//! - Lloyd assignment fans out over fixed row chunks via
//!   `par_map_range` (pure per-chunk work, results concatenated in
//!   chunk order); centroid updates run serially in row order; an
//!   empty cluster keeps its previous centroid;
//! - ties (assignment and search) break toward the lowest index, so
//!   float equality never consults arrival order;
//! - search fans out over fixed query blocks, and within a block
//!   (DESIGN.md §16) streams each probed inverted list once for all
//!   queries that probe it; every score is a pure function of (row,
//!   query) and candidates are ranked by their position in the query's
//!   own probe-ordered candidate layout, so a query's ranking never
//!   depends on which other queries share its block.
//!
//! # File format
//!
//! Three sections of the workspace container (`mb_common::storage`,
//! DESIGN.md §8) under the `mb-store v1` magic, in this order:
//!
//! | section     | payload                                                    | size rule             |
//! |-------------|------------------------------------------------------------|-----------------------|
//! | `meta`      | text: `entities`, `dim`, `nlist`, `nprobe` lines           | must match the store  |
//! | `centroids` | `f64` bit patterns, LE                                     | `nlist × dim × 8`     |
//! | `lists`     | per list: `u32` LE length, then ascending `u32` LE row ids | covers every row once |
//!
//! `save`/`load` round-trip the exact `f64` bit patterns, so a loaded
//! index answers queries identically to the one that was built.

use crate::shard::{self, open_frames, MAGIC};
use crate::store::EntityStore;
use mb_common::storage::{atomic_write, read_frame, write_frames};
use mb_common::{Error, Result, Rng};
use mb_encoders::retrieval::{top_k_blocks, CandidateSource, QueryBlock, Rows};
use mb_kb::EntityId;
use mb_par::{par_map_range, Threads};
use mb_tensor::kernels::{tile_rows, TILE_ROWS};
use mb_tensor::Tensor;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Canonical index file name inside a store directory.
pub const IVF_FILE: &str = "IVF";

/// Rows scored per parallel work item during build.
const ASSIGN_CHUNK: usize = 4096;

/// Build-time parameters of an IVF index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of k-means clusters (inverted lists).
    pub nlist: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// Cap on rows used to train centroids (strided subsample).
    pub train_cap: usize,
    /// Lloyd iterations.
    pub rounds: usize,
    /// Centroid-init seed.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig { nlist: 64, nprobe: 8, train_cap: 65_536, rounds: 8, seed: 0 }
    }
}

/// A built (or loaded) IVF index bound to its store.
pub struct IvfIndex {
    store: Arc<EntityStore>,
    dim: usize,
    nprobe: usize,
    /// `nlist * dim`, row-major.
    centroids: Vec<f64>,
    /// Row ids per centroid, each list ascending.
    lists: Vec<Vec<u32>>,
    /// Per-list packed copies of the quantized rows (FAISS-style:
    /// lists own their codes), so search streams each probed list as
    /// one contiguous block with no per-row shard resolution. Derived
    /// from the store at build/load — never serialized — and holding
    /// the shard tables' codes (in scan tiles) and scales verbatim, so
    /// scoring from it is bit-identical to the flat scan of
    /// [`EntityStore::quantized_index`]. Costs one extra copy of the
    /// code tables (`n * dim` codes plus `n` scales, and at most
    /// `TILE_ROWS - 1` zero rows of padding per list).
    packed: PackedLists,
}

/// Inverted-list-ordered copies of the store's int8 rows.
struct PackedLists {
    /// Per list, its rows in list order laid out as scan tiles
    /// ([`tile_rows`], [`TILE_ROWS`] rows each, the last padded).
    tiles: Vec<Vec<i8>>,
    /// One dequantization scale per list row.
    scales: Vec<Vec<f64>>,
}

impl PackedLists {
    /// List `c` as scannable rows.
    fn rows(&self, c: usize) -> Rows<'_> {
        Rows::Int8 { tiles: &self.tiles[c], scales: &self.scales[c] }
    }
}

/// Gather every list's rows out of the shard tables into contiguous
/// per-list blocks, the codes straight into scan tiles.
fn pack_lists(store: &EntityStore, lists: &[Vec<u32>], dim: usize) -> PackedLists {
    let shards = store.shards();
    let cap = store.shard_capacity();
    let mut tiles = Vec::with_capacity(lists.len());
    let mut scales = Vec::with_capacity(lists.len());
    for list in lists {
        let rows =
            || list.iter().map(|&row| (shards[row as usize / cap].table(), row as usize % cap));
        let codes = rows().map(|(t, i)| &t.codes()[i * dim..(i + 1) * dim]);
        tiles.push(tile_rows(TILE_ROWS, list.len(), dim, codes));
        let mut ls = Vec::with_capacity(list.len());
        ls.extend(rows().map(|(t, i)| t.scales()[i]));
        scales.push(ls);
    }
    PackedLists { tiles, scales }
}

/// Centroids per k-means scoring tile: [`tile_centroids`] lays the
/// centroid table out in tiles of this many centroids, dimension-major,
/// so [`best_centroid`] folds a tile's centroids side by side in SIMD
/// lanes.
const CENTROID_TILE: usize = 8;

/// The `nlist * dim` row-major centroid table in [`CENTROID_TILE`]
/// tiles, as [`best_centroid`] reads it.
fn tile_centroids(centroids: &[f64], nlist: usize, dim: usize) -> Vec<f64> {
    tile_rows(CENTROID_TILE, nlist, dim, centroids.chunks_exact(dim))
}

/// Best centroid for `v`: max inner product, lowest index on ties.
/// `tiles` holds the `nlist` centroids as [`tile_centroids`] lays them
/// out; each centroid's score is still its own
/// ascending-`j` fold from `0.0` with separate multiply and add, the
/// bits a row-major dot computes, and padding centroids are never
/// compared.
fn best_centroid(v: &[f64], tiles: &[f64], nlist: usize, dim: usize) -> u32 {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (t, tile) in tiles.chunks_exact(CENTROID_TILE * dim).enumerate() {
        let mut acc = [0.0f64; CENTROID_TILE];
        for (col, &x) in tile.chunks_exact(CENTROID_TILE).zip(v) {
            for (a, &w) in acc.iter_mut().zip(col) {
                *a += w * x;
            }
        }
        let first = t * CENTROID_TILE;
        for (c, &s) in acc.iter().enumerate().take(nlist.saturating_sub(first)) {
            if s > best_score {
                best_score = s;
                best = first + c;
            }
        }
    }
    u32::try_from(best).unwrap_or(u32::MAX)
}

/// Assign every row of `vectors` (a flat `n * dim` slice) to its best
/// centroid among the `nlist` tiled by [`tile_centroids`], fanning out
/// over fixed chunks. Chunk results concatenate in chunk order, so the
/// output is independent of `threads`.
fn assign_flat(
    vectors: &[f64],
    dim: usize,
    tiles: &[f64],
    nlist: usize,
    threads: Threads,
) -> Vec<u32> {
    let n = vectors.len() / dim;
    let chunks = n.div_ceil(ASSIGN_CHUNK).max(1);
    let parts = par_map_range(threads, chunks, |c| {
        let lo = c * ASSIGN_CHUNK;
        let hi = (lo + ASSIGN_CHUNK).min(n);
        let mut out = Vec::with_capacity(hi.saturating_sub(lo));
        for row in lo..hi {
            out.push(best_centroid(&vectors[row * dim..(row + 1) * dim], tiles, nlist, dim));
        }
        out
    });
    let mut assign = Vec::with_capacity(n);
    for p in parts {
        assign.extend_from_slice(&p);
    }
    assign
}

impl IvfIndex {
    /// Train centroids on a strided subsample and assign every store
    /// row to its nearest centroid.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `nlist` is zero or exceeds the
    /// store size, or `rounds`/`train_cap` is zero.
    pub fn build(store: Arc<EntityStore>, cfg: IvfConfig, threads: Threads) -> Result<IvfIndex> {
        let n = store.len();
        let dim = store.dim();
        if cfg.nlist == 0 || cfg.rounds == 0 || cfg.train_cap == 0 {
            return Err(Error::InvalidConfig(
                "ivf nlist, rounds and train_cap must be positive".to_string(),
            ));
        }
        if cfg.nlist > n {
            return Err(Error::InvalidConfig(format!(
                "ivf nlist {} exceeds store size {n}",
                cfg.nlist
            )));
        }
        // Training set: every `stride`-th row, dequantized once. The
        // stride is a function of (n, train_cap) only, so the sample —
        // and everything downstream — is reproducible.
        let stride = n.div_ceil(cfg.train_cap).max(1);
        let sample_rows: Vec<usize> = (0..n).step_by(stride).collect();
        let sn = sample_rows.len();
        if cfg.nlist > sn {
            return Err(Error::InvalidConfig(format!(
                "ivf nlist {} exceeds training sample {sn}; raise train_cap",
                cfg.nlist
            )));
        }
        let mut sample = vec![0.0f64; sn * dim];
        for (si, &row) in sample_rows.iter().enumerate() {
            store.dequant_row_into(row, &mut sample[si * dim..(si + 1) * dim]);
        }
        // Seeded init: distinct sample rows, one serial draw.
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let picks = rng.sample_indices(sn, cfg.nlist);
        let mut centroids = vec![0.0f64; cfg.nlist * dim];
        for (c, &si) in picks.iter().enumerate() {
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&sample[si * dim..(si + 1) * dim]);
        }
        // Lloyd: parallel assignment (chunk order), serial update.
        for _round in 0..cfg.rounds {
            let tiles = tile_centroids(&centroids, cfg.nlist, dim);
            let assign = assign_flat(&sample, dim, &tiles, cfg.nlist, threads);
            let mut sums = vec![0.0f64; cfg.nlist * dim];
            let mut counts = vec![0usize; cfg.nlist];
            for (si, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                let base = c * dim;
                for (j, &v) in sample[si * dim..(si + 1) * dim].iter().enumerate() {
                    sums[base + j] += v;
                }
            }
            for c in 0..cfg.nlist {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for j in 0..dim {
                        centroids[c * dim + j] = sums[c * dim + j] * inv;
                    }
                }
                // Empty cluster: keep the previous centroid verbatim.
            }
        }
        // Final assignment of every row, shard by shard in bounded RAM.
        let tiles = tile_centroids(&centroids, cfg.nlist, dim);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); cfg.nlist];
        let mut flat = Vec::new();
        let mut base_row = 0usize;
        for sh in store.shards() {
            let rows = sh.len();
            flat.clear();
            flat.resize(rows * dim, 0.0);
            for r in 0..rows {
                sh.dequant_row_into(r, &mut flat[r * dim..(r + 1) * dim]);
            }
            let assign = assign_flat(&flat, dim, &tiles, cfg.nlist, threads);
            for (r, &c) in assign.iter().enumerate() {
                let row = u32::try_from(base_row + r)
                    .map_err(|_| Error::InvalidConfig("store exceeds u32 rows".to_string()))?;
                lists[c as usize].push(row);
            }
            base_row += rows;
        }
        let packed = pack_lists(&store, &lists, dim);
        Ok(IvfIndex {
            store,
            dim,
            nprobe: cfg.nprobe.clamp(1, cfg.nlist),
            centroids,
            lists,
            packed,
        })
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Re-bound probe width (clamped to `[1, nlist]`); returns the
    /// effective value. Lets benchmarks sweep recall-vs-speed without
    /// rebuilding.
    pub fn set_nprobe(&mut self, nprobe: usize) -> usize {
        self.nprobe = nprobe.clamp(1, self.nlist());
        self.nprobe
    }

    /// Write [`IvfIndex::to_bytes`] to `path` atomically.
    ///
    /// # Errors
    /// [`Error::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes()?)
    }

    /// The serialized index, byte-for-byte what [`IvfIndex::save`]
    /// writes (exposed so tests can assert bit-identical rebuilds).
    ///
    /// # Errors
    /// The container writer's; its only failure is an unwritable
    /// section name, which this fixed schema never produces.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let nlist = self.lists.len();
        let meta = format!(
            "entities {}\ndim {}\nnlist {nlist}\nnprobe {}\n",
            self.store.len(),
            self.dim,
            self.nprobe
        );
        let mut centroids = Vec::with_capacity(self.centroids.len() * 8);
        for &v in &self.centroids {
            centroids.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut lists = Vec::new();
        for list in &self.lists {
            let len = u32::try_from(list.len()).unwrap_or(u32::MAX);
            lists.extend_from_slice(&len.to_le_bytes());
            for &row in list {
                lists.extend_from_slice(&row.to_le_bytes());
            }
        }
        write_frames(
            MAGIC,
            &[("meta", meta.as_bytes()), ("centroids", &centroids), ("lists", &lists)],
        )
    }

    /// Load a saved index and bind it to `store`, verifying framing,
    /// CRCs, and that the geometry matches the store.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] on corruption or a store mismatch;
    /// [`Error::Io`] when the file cannot be read.
    pub fn load(path: &Path, store: Arc<EntityStore>) -> Result<IvfIndex> {
        let what = path.to_string_lossy().into_owned();
        let mut file = File::open(path).map_err(|e| Error::Io(format!("{what}: {e}")))?;
        let [meta, centroids, lists] =
            open_frames(&mut file, ["meta", "centroids", "lists"], &what)?;
        let meta_bytes = read_frame(&mut file, &meta, &what)?;
        let meta = shard::parse_meta(&meta_bytes, &what)?;
        let entities = shard::meta_number(&meta, "entities", &what)? as usize;
        let dim = shard::meta_number(&meta, "dim", &what)? as usize;
        let nlist = shard::meta_number(&meta, "nlist", &what)? as usize;
        let nprobe = shard::meta_number(&meta, "nprobe", &what)? as usize;
        if entities != store.len() || dim != store.dim() {
            return Err(Error::Checkpoint(format!(
                "{what}: index built for {entities} entities dim {dim}, store has {} dim {}",
                store.len(),
                store.dim()
            )));
        }
        if nlist == 0 || nprobe == 0 || nprobe > nlist {
            return Err(Error::Checkpoint(format!(
                "{what}: inconsistent nlist {nlist} / nprobe {nprobe}"
            )));
        }
        let cbytes = read_frame(&mut file, &centroids, &what)?;
        if cbytes.len() != nlist * dim * 8 {
            return Err(Error::Checkpoint(format!(
                "{what}: centroids section is {} bytes, want {}",
                cbytes.len(),
                nlist * dim * 8
            )));
        }
        let mut centroids = Vec::with_capacity(nlist * dim);
        for chunk in cbytes.chunks_exact(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            centroids.push(f64::from_bits(u64::from_le_bytes(b)));
        }
        let lbytes = read_frame(&mut file, &lists, &what)?;
        let mut lists = Vec::with_capacity(nlist);
        let mut pos = 0usize;
        let mut covered = 0usize;
        let take_u32 = |bytes: &[u8], pos: &mut usize| -> Result<u32> {
            let end = pos
                .checked_add(4)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| Error::Checkpoint(format!("{what}: lists section truncated")))?;
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[*pos..end]);
            *pos = end;
            Ok(u32::from_le_bytes(b))
        };
        for _ in 0..nlist {
            let len = take_u32(&lbytes, &mut pos)? as usize;
            let mut list = Vec::with_capacity(len);
            let mut prev: Option<u32> = None;
            for _ in 0..len {
                let row = take_u32(&lbytes, &mut pos)?;
                if (row as usize) >= entities || prev.is_some_and(|p| p >= row) {
                    return Err(Error::Checkpoint(format!(
                        "{what}: inverted list rows out of range or not ascending"
                    )));
                }
                prev = Some(row);
                list.push(row);
            }
            lists.push(list);
            covered += len;
        }
        if pos != lbytes.len() {
            return Err(Error::Checkpoint(format!("{what}: trailing bytes in lists section")));
        }
        if covered != entities {
            return Err(Error::Checkpoint(format!(
                "{what}: inverted lists cover {covered} rows, store has {entities}"
            )));
        }
        let packed = pack_lists(&store, &lists, dim);
        Ok(IvfIndex { store, dim, nprobe, centroids, lists, packed })
    }

    /// Search for one block of queries (DESIGN.md §16): the centroid
    /// table is one list every query scans keeping its `nprobe` best;
    /// `(query, probed list)` pairs are then grouped by list — each
    /// pair carrying the offset of that list's first candidate in the
    /// query's probe-ordered candidate layout — and each distinct list
    /// is scanned once for all its member queries; selected positions
    /// map back through the query's probe spans to row ids.
    fn rank_block(&self, block: &mut QueryBlock<'_>, k: usize) -> Vec<Vec<(EntityId, f64)>> {
        let mut coarse = block.selectors(self.nprobe);
        block.scan(Rows::F64(&self.centroids), &block.every_query(), &mut coarse);
        let probes: Vec<Vec<usize>> = coarse
            .into_iter()
            .map(|sel| sel.into_sorted().into_iter().map(|(c, _)| c).collect())
            .collect();
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for (slot, probed) in probes.iter().enumerate() {
            let mut base = 0usize;
            for &c in probed {
                pairs.push((c, slot, base));
                base += self.lists[c].len();
            }
        }
        pairs.sort_unstable();
        let mut sels = block.selectors(k);
        let mut members: Vec<(usize, usize)> = Vec::new();
        let mut at = 0usize;
        while at < pairs.len() {
            let c = pairs[at].0;
            members.clear();
            while at < pairs.len() && pairs[at].0 == c {
                members.push((pairs[at].1, pairs[at].2));
                at += 1;
            }
            block.scan(self.packed.rows(c), &members, &mut sels);
        }
        // nprobe spans per query — a linear walk is cheap.
        sels.into_iter()
            .zip(&probes)
            .map(|(sel, probed)| {
                let mut ranked = Vec::with_capacity(k);
                for (pos, score) in sel.into_sorted() {
                    let mut start = 0usize;
                    for &c in probed {
                        let len = self.lists[c].len();
                        if pos < start + len {
                            ranked.push((EntityId(self.lists[c][pos - start]), score));
                            break;
                        }
                        start += len;
                    }
                }
                ranked
            })
            .collect()
    }
}

impl std::fmt::Debug for IvfIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvfIndex")
            .field("entities", &self.store.len())
            .field("dim", &self.dim)
            .field("nlist", &self.lists.len())
            .field("nprobe", &self.nprobe)
            .finish()
    }
}

impl CandidateSource for IvfIndex {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Store rows are entity ids: a search can return `0..len`.
    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId> {
        let n = u32::try_from(self.store.len()).unwrap_or(u32::MAX);
        (0..n).map(EntityId).find(|&id| reject(id))
    }

    /// Fixed query blocks fan out across workers; each is ranked by
    /// `IvfIndex::rank_block`.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `queries` is not rank-2 or its
    /// width disagrees with the store dimensionality.
    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: Threads,
    ) -> Result<Vec<Vec<(EntityId, f64)>>> {
        let (dim, len) = (self.dim, self.store.len());
        top_k_blocks("IvfIndex::top_k_batch", queries, dim, len, threads, |block| {
            self.rank_block(block, k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-major fold the tiled scorer must reproduce: one
    /// ascending-`j` dot per centroid, first strict maximum wins.
    fn row_major_best(v: &[f64], centroids: &[f64], dim: usize) -> u32 {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
            let mut s = 0.0;
            for (&w, &x) in centroid.iter().zip(v) {
                s += w * x;
            }
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        best as u32
    }

    #[test]
    fn tiled_best_centroid_is_the_row_major_fold_and_ties_go_low() {
        // 19 centroids: two full tiles of 8 and a tile of 3 + 5 padding.
        let (nlist, dim) = (19, 5);
        let mut rng = Rng::seed_from_u64(3);
        let mut centroids: Vec<f64> = (0..nlist * dim).map(|_| rng.gaussian()).collect();
        let best = |centroids: &[f64], v: &[f64]| {
            best_centroid(v, &tile_centroids(centroids, nlist, dim), nlist, dim)
        };
        for _ in 0..500 {
            let v: Vec<f64> = (0..dim).map(|_| rng.gaussian()).collect();
            assert_eq!(best(&centroids, &v), row_major_best(&v, &centroids, dim));
        }
        // Exactly tied winners, within a tile and across tiles (one in
        // the padded last tile): the lowest index wins.
        let ones = vec![1.0; dim];
        for (lo, hi) in [(9, 12), (2, 18), (4, 17)] {
            let mut tied = centroids.clone();
            for c in [lo, hi] {
                tied[c * dim..(c + 1) * dim].fill(10.0);
            }
            assert_eq!(best(&tied, &ones), lo as u32, "tie {lo} / {hi}");
        }
        // Every real score negative: the zero padding centroids, which
        // would score 0, must never be compared.
        for (c, centroid) in centroids.chunks_exact_mut(dim).enumerate() {
            centroid.fill(-1.0 - c as f64);
        }
        assert_eq!(best(&centroids, &ones), 0);
    }
}
