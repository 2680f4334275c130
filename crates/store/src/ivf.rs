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
//! - search is serial per query; batches fan out over fixed
//!   [`QUERY_BLOCK`]-query blocks, and within a block the fused path
//!   (DESIGN.md §16) streams each probed inverted list once for all
//!   queries that probe it — bit-identical to the serial path because
//!   every dot product keeps the serial element order and candidates
//!   are ranked by their position in the serial candidate layout.
//!
//! `save`/`load` round-trip the exact `f64` bit patterns, so a loaded
//! index answers queries identically to the one that was built.

use crate::shard::{self, read_section, verify_frames, PreparedQuery, ShardTable, MAGIC};
use crate::store::EntityStore;
use mb_common::storage::{atomic_write, Crc32};
use mb_common::util::{top_k_desc, TopK};
use mb_common::{Error, Result, Rng};
use mb_encoders::retrieval::CandidateSource;
use mb_kb::EntityId;
use mb_par::{par_chunk_ranges, par_map_range, Threads};
use mb_tensor::kernels::{dot_block_f64, dot_i8_i32, dot_i8_i64, DOT_BLOCK, I8_EXACT_I32_COLS};
use mb_tensor::quant::{f16_to_f64, QuantMode};
use mb_tensor::Tensor;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Canonical index file name inside a store directory.
pub const IVF_FILE: &str = "IVF";

/// Rows scored per parallel work item during build.
const ASSIGN_CHUNK: usize = 4096;

/// Queries per fused search block: centroid rows and probed inverted
/// lists are streamed once per block instead of once per query. Blocks
/// are a fixed function of query index, so the worker count never
/// changes which queries share a block. Pinned to the width the
/// multi-accumulator kernels specialize for.
const QUERY_BLOCK: usize = DOT_BLOCK;

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
    /// lists own their codes), so the fused batch path streams each
    /// probed list as one contiguous block with no per-row shard
    /// resolution. Derived from the store at build/load — never
    /// serialized — and byte-identical to the shard tables, so scoring
    /// from it is bit-identical to [`EntityStore::score_row_prepared`].
    /// Costs one extra copy of the code tables (`n * dim` codes plus
    /// `n` scales for int8).
    packed: PackedLists,
}

/// Inverted-list-ordered copies of the store's quantized rows.
enum PackedLists {
    /// binary16 rows: `list.len() * dim` bit patterns per list.
    F16(Vec<Vec<u16>>),
    /// Per-row symmetric int8 rows plus their scales.
    Int8 {
        /// `list.len() * dim` codes per list, row-major in list order.
        codes: Vec<Vec<i8>>,
        /// One dequantization scale per list row.
        scales: Vec<Vec<f64>>,
    },
}

/// Gather every list's rows out of the shard tables into contiguous
/// per-list blocks. The store's quant mode is uniform across shards
/// (enforced by [`EntityStore::open`] and the builder), so the table
/// match per shard never misses.
fn pack_lists(store: &EntityStore, lists: &[Vec<u32>], dim: usize) -> PackedLists {
    let shards = store.shards();
    let cap = store.shard_capacity();
    match store.quant_mode() {
        QuantMode::Int8 => {
            let mut codes = Vec::with_capacity(lists.len());
            let mut scales = Vec::with_capacity(lists.len());
            for list in lists {
                let mut lc = Vec::with_capacity(list.len() * dim);
                let mut ls = Vec::with_capacity(list.len());
                for &row in list {
                    let (si, local) = (row as usize / cap, row as usize % cap);
                    if let ShardTable::Int8(t) = shards[si].table() {
                        lc.extend_from_slice(&t.codes()[local * dim..(local + 1) * dim]);
                        ls.push(t.scales()[local]);
                    }
                }
                codes.push(lc);
                scales.push(ls);
            }
            PackedLists::Int8 { codes, scales }
        }
        _ => {
            let mut bits = Vec::with_capacity(lists.len());
            for list in lists {
                let mut lb = Vec::with_capacity(list.len() * dim);
                for &row in list {
                    let (si, local) = (row as usize / cap, row as usize % cap);
                    if let ShardTable::F16(t) = shards[si].table() {
                        lb.extend_from_slice(&t.bits()[local * dim..(local + 1) * dim]);
                    }
                }
                bits.push(lb);
            }
            PackedLists::F16(bits)
        }
    }
}

/// Best centroid for `v`: max inner product, lowest index on ties.
fn best_centroid(v: &[f64], centroids: &[f64], nlist: usize, dim: usize) -> u32 {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for c in 0..nlist {
        let base = c * dim;
        let mut s = 0.0;
        for (j, &x) in v.iter().enumerate() {
            s += centroids[base + j] * x;
        }
        if s > best_score {
            best_score = s;
            best = c;
        }
    }
    u32::try_from(best).unwrap_or(u32::MAX)
}

/// Assign every row of `vectors` (a flat `n * dim` slice) to its best
/// centroid, fanning out over fixed chunks. Chunk results concatenate
/// in chunk order, so the output is independent of `threads`.
fn assign_flat(
    vectors: &[f64],
    dim: usize,
    centroids: &[f64],
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
            out.push(best_centroid(&vectors[row * dim..(row + 1) * dim], centroids, nlist, dim));
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
            let assign = assign_flat(&sample, dim, &centroids, cfg.nlist, threads);
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
            let assign = assign_flat(&flat, dim, &centroids, cfg.nlist, threads);
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

    /// The store this index retrieves from.
    pub fn store(&self) -> &Arc<EntityStore> {
        &self.store
    }

    /// Serialize to `mb-store v1` framing: sections `meta`,
    /// `centroids` (f64 bit patterns, LE), `lists` (per-list length
    /// prefix then row ids, u32 LE).
    ///
    /// # Errors
    /// [`Error::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes())
    }

    /// The serialized index, byte-for-byte what [`IvfIndex::save`]
    /// writes (exposed so tests can assert bit-identical rebuilds).
    pub fn to_bytes(&self) -> Vec<u8> {
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
        let mut out = format!("{MAGIC} 3\n").into_bytes();
        for (name, payload) in
            [("meta", meta.as_bytes()), ("centroids", &centroids), ("lists", &lists)]
        {
            let mut h = Crc32::new();
            h.update(name.as_bytes());
            h.update(b"\n");
            h.update(payload);
            out.extend_from_slice(
                format!("section {name} {} {:08x}\n", payload.len(), h.finish()).as_bytes(),
            );
            out.extend_from_slice(payload);
            out.push(b'\n');
        }
        out
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
        let frames = verify_frames(&mut file, &what)?;
        let names: Vec<&str> = frames.iter().map(|(n, _, _)| n.as_str()).collect();
        if names != ["meta", "centroids", "lists"] {
            return Err(Error::Checkpoint(format!(
                "{what}: expected sections [meta, centroids, lists], got {names:?}"
            )));
        }
        let meta_bytes = read_section(&mut file, frames[0].2, frames[0].1, &what)?;
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
        let cbytes = read_section(&mut file, frames[1].2, frames[1].1, &what)?;
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
        let lbytes = read_section(&mut file, frames[2].2, frames[2].1, &what)?;
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

    /// Fused search for one block of queries (DESIGN.md §16).
    ///
    /// Layout: (1) one centroid-outer pass scores every centroid
    /// against every query in the block — each centroid row is
    /// streamed once per block; (2) each query picks its probes with
    /// [`top_k_desc`] and quantizes once into a [`PreparedQuery`];
    /// (3) `(query, probed list)` pairs are grouped by list, each pair
    /// carrying the offset of that list's first candidate in the
    /// query's *serial* candidate array; (4) each distinct list is
    /// streamed once — rows resolved to their shard once, f16 rows
    /// decoded once — and scored against every member query, feeding
    /// per-query [`TopK`] selectors keyed by serial candidate
    /// position; (5) selected positions map back through the query's
    /// probe spans to row ids.
    ///
    /// Bit-identical to [`CandidateSource::top_k`] per query: every
    /// dot product keeps the serial element order (the int8 fold may
    /// narrow to `i32`, which sums to the same exact integer), pushed
    /// positions equal the serial candidate layout, and [`TopK`] keeps
    /// exactly the set and order of [`top_k_desc`] regardless of
    /// arrival order.
    fn top_k_block(
        &self,
        queries: &Tensor,
        range: std::ops::Range<usize>,
        k: usize,
    ) -> Vec<Vec<(EntityId, f64)>> {
        let nq = range.len();
        let nlist = self.lists.len();
        let dim = self.dim;
        // (1) Centroid scores via the multi-accumulator block dot: the
        // query block is transposed once, then every centroid row is
        // streamed once and folded into `nq` independent accumulator
        // chains — same per-query fold order, ~`nq`-way ILP.
        let mut qt = vec![0.0f64; dim * nq];
        for (qslot, qi) in range.clone().enumerate() {
            for (j, &x) in queries.row(qi).iter().enumerate() {
                qt[j * nq + qslot] = x;
            }
        }
        let mut cscores = vec![0.0f64; nq * nlist];
        let mut cacc = vec![0.0f64; nq];
        for c in 0..nlist {
            let cent = &self.centroids[c * dim..(c + 1) * dim];
            dot_block_f64(cent, &qt, nq, &mut cacc);
            for (qslot, &s) in cacc.iter().enumerate() {
                cscores[qslot * nlist + c] = s;
            }
        }
        // (2) Probe selection + one quantization per query.
        let mut probes_per_q: Vec<Vec<usize>> = Vec::with_capacity(nq);
        let mut preps: Vec<PreparedQuery<'_>> = Vec::with_capacity(nq);
        for (qslot, qi) in range.clone().enumerate() {
            probes_per_q
                .push(top_k_desc(&cscores[qslot * nlist..(qslot + 1) * nlist], self.nprobe));
            preps.push(PreparedQuery::new(queries.row(qi)));
        }
        // (3) Group probes by list. `base` is where this list's
        // candidates start in the query's serial candidate array.
        let mut members: Vec<(usize, usize, usize)> = Vec::new();
        for (qslot, probes) in probes_per_q.iter().enumerate() {
            let mut base = 0usize;
            for &c in probes {
                members.push((c, qslot, base));
                base += self.lists[c].len();
            }
        }
        members.sort_unstable();
        // (4) Stream each probed list once for all its member queries,
        // straight out of its packed code block — no per-row shard
        // resolution on the hot path. The two table types want
        // opposite loop orders: f16 rows decode once and take the
        // multi-accumulator f64 tile across members (f64 dots are
        // latency chains a lone fold is stuck behind), while int8 rows
        // take one contiguous SIMD dot per member — integer folds
        // vectorize on their own, so a plain dot against the member's
        // prepared codes beats an interleaved tile. Int8 scores land
        // in a flat scratch first, so selection runs as a block pass.
        let mut sels: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
        let narrow = dim <= I8_EXACT_I32_COLS;
        let mut decoded = vec![0.0f64; dim];
        let mut rscores = vec![0.0f64; self.lists.iter().map(Vec::len).max().unwrap_or(0)];
        let (mut gslots, mut gbases) = (Vec::new(), Vec::new());
        let (mut gq_t, mut gscales) = (Vec::new(), Vec::new());
        let mut gqc: Vec<&[i8]> = Vec::new();
        let mut macc = Vec::new();
        let mut at = 0usize;
        while at < members.len() {
            let c = members[at].0;
            let mut end = at;
            while end < members.len() && members[end].0 == c {
                end += 1;
            }
            let group = &members[at..end];
            let m = group.len();
            gslots.clear();
            gbases.clear();
            gq_t.clear();
            gscales.clear();
            gqc.clear();
            for &(_, qslot, base) in group {
                gslots.push(qslot);
                gbases.push(base);
                gscales.push(preps[qslot].scale);
                gqc.push(preps[qslot].codes.as_slice());
            }
            for j in 0..dim {
                for &(_, qslot, _) in group {
                    gq_t.push(preps[qslot].query[j]);
                }
            }
            macc.clear();
            macc.resize(m, 0.0);
            let rows = self.lists[c].len();
            match &self.packed {
                PackedLists::F16(bits) => {
                    let lb = &bits[c];
                    for pos in 0..rows {
                        for (d, &h) in decoded.iter_mut().zip(&lb[pos * dim..(pos + 1) * dim]) {
                            *d = f16_to_f64(h);
                        }
                        dot_block_f64(&decoded, &gq_t, m, &mut macc);
                        for (mi, &s) in macc.iter().enumerate() {
                            sels[gslots[mi]].push(gbases[mi] + pos, s);
                        }
                    }
                }
                PackedLists::Int8 { codes, scales } => {
                    let lc = &codes[c];
                    let ls = &scales[c];
                    for mi in 0..m {
                        let qc = gqc[mi];
                        let qs = gscales[mi];
                        // Branch-free scoring pass into a flat scratch —
                        // one contiguous streamed dot per row — then one
                        // block-select pass over the L1-hot scores.
                        let sc = &mut rscores[..rows];
                        if narrow {
                            for ((s, rc), &rs) in sc.iter_mut().zip(lc.chunks_exact(dim)).zip(ls) {
                                *s = f64::from(dot_i8_i32(rc, qc)) * (rs * qs);
                            }
                        } else {
                            for ((s, rc), &rs) in sc.iter_mut().zip(lc.chunks_exact(dim)).zip(ls) {
                                *s = dot_i8_i64(rc, qc) as f64 * (rs * qs);
                            }
                        }
                        sels[gslots[mi]].push_block(gbases[mi], sc);
                    }
                }
            }
            at = end;
        }
        // (5) Selected serial positions map back to rows through the
        // query's probe spans (nprobe spans — a linear scan is cheap).
        let mut out = Vec::with_capacity(nq);
        for (qslot, sel) in sels.into_iter().enumerate() {
            let ranked = sel.into_sorted();
            let mut result = Vec::with_capacity(ranked.len());
            for (posn, score) in ranked {
                let mut start = 0usize;
                for &c in &probes_per_q[qslot] {
                    let len = self.lists[c].len();
                    if posn < start + len {
                        result.push((EntityId(self.lists[c][posn - start]), score));
                        break;
                    }
                    start += len;
                }
            }
            out.push(result);
        }
        out
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

    fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        let nlist = self.lists.len();
        let cscores: Vec<f64> = (0..nlist)
            .map(|c| {
                let base = c * self.dim;
                query.iter().enumerate().map(|(j, &q)| self.centroids[base + j] * q).sum()
            })
            .collect();
        let probes = top_k_desc(&cscores, self.nprobe);
        // Quantize the query once; each probed row then costs one
        // integer dot (int8 stores), matching the flat-scan kernel's
        // arithmetic bit for bit.
        let prep = crate::shard::PreparedQuery::new(query);
        let mut rows: Vec<u32> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for c in probes {
            for &row in &self.lists[c] {
                rows.push(row);
                scores.push(self.store.score_row_prepared(row as usize, &prep));
            }
        }
        top_k_desc(&scores, k).into_iter().map(|i| (EntityId(rows[i]), scores[i])).collect()
    }

    /// Fused multi-query search: fixed [`QUERY_BLOCK`]-query blocks
    /// fan out across workers, and [`IvfIndex::top_k_block`] streams
    /// each probed inverted list once per block. Bit-identical to
    /// per-query [`CandidateSource::top_k`] at any batch size and any
    /// [`Threads`] value.
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
        if queries.rank() != 2 {
            return Err(Error::shape(
                "IvfIndex::top_k_batch",
                "[q, dim] queries",
                format!("rank-{} tensor {:?}", queries.rank(), queries.shape()),
            ));
        }
        if queries.rows() > 0 && queries.cols() != self.dim {
            return Err(Error::shape(
                "IvfIndex::top_k_batch",
                format!("query dim {}", self.dim),
                format!("query dim {}", queries.cols()),
            ));
        }
        let blocks = par_chunk_ranges(threads, queries.rows(), QUERY_BLOCK, |_, range| {
            self.top_k_block(queries, range, k)
        });
        Ok(blocks.into_iter().flatten().collect())
    }
}
