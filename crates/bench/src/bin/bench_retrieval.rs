//! Sharded-store retrieval benchmark: stream a synthetic entity world
//! into an on-disk `mb-store`, build the deterministic IVF index over
//! it, and measure build time, recall@64 against brute-force scoring of
//! the *same* quantized tables, and per-query throughput. Writes
//! `target/experiments/BENCH_retrieval.{txt,json}`; the bench-regression
//! CI gate (`scripts/bench_gate.sh`) pairs its medians against the
//! merge-base's.
//!
//! ```text
//! bench_retrieval                  # full run (100k entities, timed)
//! bench_retrieval --entities 1000000
//! bench_retrieval --smoke          # CI retrieval-smoke stage: small
//!                                  # world, oracle + recall +
//!                                  # bit-identical rebuild assertions,
//!                                  # no timing
//! ```
//!
//! The recall sweep (`nprobe` vs recall@64 and probe cost) is printed
//! for EXPERIMENTS.md; the gated timing runs at the smallest swept
//! `nprobe` whose recall@64 clears 0.95. The full run also states a
//! reference for the flat scan: this machine's `memcpy` bandwidth over a
//! buffer the size of the int8 table, paired with the bytes per second
//! the fused flat scan is credited with. It is not a bound — the scan
//! reads the table once per query block but is credited once per query,
//! so it can read above `memcpy`.

use mb_bench::harness::Harness;
use mb_common::Rng;
use mb_datagen::{EntityStream, StreamConfig};
use mb_encoders::retrieval::CandidateSource;
use mb_store::{EntityStore, IvfConfig, IvfIndex, StoreBuilder, StoreConfig, StoreRecord, Threads};
use mb_tensor::quant::QuantMode;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Queries evaluated for recall and rotated through the timing loops.
const QUERIES: usize = 64;
/// Recall depth (the serving candidate budget).
const K: usize = 64;
/// The recall@64 floor the operating point must clear.
const RECALL_FLOOR: f64 = 0.95;

struct Args {
    entities: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut entities = 100_000usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--entities" => {
                entities = args
                    .next()
                    .ok_or("--entities needs a count")?
                    .parse()
                    .map_err(|e| format!("--entities: {e}"))?;
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { entities, smoke })
}

/// Scratch dir removed on drop (panics leave it behind under the OS
/// temp dir for inspection).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("mb-bench-retrieval-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Scratch(dir)
}

/// Stream `cfg.entities` synthetic entities into a sharded store,
/// shard by shard in bounded RAM. Returns the store and the wall time.
fn build_store(dir: &Path, cfg: StreamConfig, shard_capacity: usize) -> (EntityStore, f64) {
    let start = Instant::now();
    let mut builder = StoreBuilder::create(
        dir,
        StoreConfig { shard_capacity, dim: cfg.dim, quant: QuantMode::Int8 },
    )
    .expect("store builder");
    for chunk in EntityStream::new(cfg).expect("valid stream config") {
        for e in chunk {
            builder
                .push(StoreRecord { title: e.title, description: e.description, vector: e.vector })
                .expect("push streamed entity");
        }
    }
    let store = builder.finish().expect("finish store");
    (store, start.elapsed().as_secs_f64())
}

/// Deterministic evaluation queries: entity vectors perturbed with a
/// little noise, renormalized — "find things like this known entity".
fn queries(store: &EntityStore, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(1234);
    let stride = (store.len() / n).max(1);
    let mut row = vec![0.0; store.dim()];
    (0..n)
        .map(|i| {
            store.dequant_row_into((i * stride) % store.len(), &mut row);
            let mut q: Vec<f64> = row.iter().map(|v| v + 0.03 * rng.gaussian()).collect();
            let norm = q.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            q.iter_mut().for_each(|x| *x /= norm);
            q
        })
        .collect()
}

/// Queries per fused retrieval call in the batch benches (the serving
/// drain size the acceptance criterion is pinned at).
const BATCH: usize = 8;

/// Serving-drain batches: popularity-skewed mention queries. Mention
/// frequency over entities is Zipf-like in entity linking, so a drain
/// of [`BATCH`] concurrent requests usually carries several mentions of
/// the same few hot entities and their probed lists overlap — the
/// traffic pattern whose list streaming the fused path amortizes. The
/// rank→entity map scatters hot ranks across entity ids (Weyl-style
/// multiplier) so "popular" never accidentally means "packed into one
/// shard or IVF list". The serial-loop comparator benches run the very
/// same batches, so the fused speedup is workload-controlled.
fn serve_batches(store: &EntityStore, n_batches: usize, rows: usize) -> Vec<mb_tensor::Tensor> {
    const POOL: usize = 1_024;
    const ZIPF_S: f64 = 1.1;
    let n = store.len();
    let dim = store.dim();
    let mut rng = Rng::seed_from_u64(4242);
    let mut cdf = Vec::with_capacity(POOL.min(n));
    let mut total = 0.0f64;
    for r in 0..POOL.min(n) {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut row = vec![0.0; dim];
    (0..n_batches)
        .map(|_| {
            let mut data = Vec::with_capacity(rows * dim);
            for _ in 0..rows {
                let u = rng.range_f64(0.0, total);
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                let id = rank.wrapping_mul(2_654_435_761) % n;
                store.dequant_row_into(id, &mut row);
                let mut q: Vec<f64> = row.iter().map(|v| v + 0.03 * rng.gaussian()).collect();
                let norm = q.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                q.iter_mut().for_each(|x| *x /= norm);
                data.extend(q);
            }
            mb_tensor::Tensor::from_vec(vec![rows, dim], data)
        })
        .collect()
}

/// Pack the evaluation queries into `[batch, dim]` tensors (the last
/// one shorter when `batch` does not divide them) for the fused
/// `top_k_batch` calls.
fn query_batches(qs: &[Vec<f64>], dim: usize, batch: usize) -> Vec<mb_tensor::Tensor> {
    qs.chunks(batch)
        .map(|chunk| {
            let data: Vec<f64> = chunk.iter().flatten().copied().collect();
            mb_tensor::Tensor::from_vec(vec![chunk.len(), dim], data)
        })
        .collect()
}

/// Assert the fused path is byte-identical to per-query retrieval —
/// ids and `to_bits` score patterns — at the given worker count.
fn assert_fused_matches_serial<S: CandidateSource>(
    what: &str,
    source: &S,
    batches: &[mb_tensor::Tensor],
    threads: Threads,
) {
    for b in batches {
        let fused = source.top_k_batch(b, K, threads).expect("fused retrieval");
        for (qi, got) in fused.iter().enumerate() {
            let want = source.top_k(b.row(qi), K);
            assert_eq!(want.len(), got.len(), "{what}: length drift");
            for (w, g) in want.iter().zip(got) {
                assert!(
                    w.0 == g.0 && w.1.to_bits() == g.1.to_bits(),
                    "{what}: fused result diverged from serial top_k"
                );
            }
        }
    }
}

/// The smoke's exact top-K, sharing no code with the scan: every
/// shard's int8 table scored by the reference fold
/// (`QuantI8::score_all`), then a full sort — score descending, ties by
/// row — as `(row, score bits)`.
fn oracle_top_k(store: &EntityStore, q: &[f64]) -> Vec<(u32, u64)> {
    let mut scores = Vec::with_capacity(store.len());
    for shard in store.shards() {
        scores.extend(shard.table().score_all(q));
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.into_iter().take(K).map(|i| (i as u32, scores[i].to_bits())).collect()
}

/// Mean recall@K of `ann` against the exact top-K over the same tables.
fn recall_at_k(ann: &IvfIndex, exact_ids: &[Vec<u32>], qs: &[Vec<f64>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (q, truth) in qs.iter().zip(exact_ids) {
        let got = ann.top_k(q, K);
        hit += got.iter().filter(|(id, _)| truth.contains(&id.0)).count();
        total += truth.len();
    }
    hit as f64 / total.max(1) as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_retrieval: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        smoke();
        return;
    }

    let dir = scratch("full");
    let n = args.entities;
    let stream =
        StreamConfig { entities: n, dim: 32, topics: 128, noise: 0.15, chunk: 8_192, seed: 17 };
    let shard_capacity = 8_192;
    eprintln!("streaming {n} entities into a sharded store …");
    let (store, store_s) = build_store(&dir.0, stream, shard_capacity);
    let store = Arc::new(store);
    eprintln!("  {} shards in {store_s:.2}s", store.shards().len());

    let nlist = ((n as f64).sqrt().ceil() as usize).clamp(1, 4096);
    let ivf_cfg = IvfConfig { nlist, nprobe: 1, ..IvfConfig::default() };
    eprintln!("building IVF (nlist {nlist}) …");
    let start = Instant::now();
    let mut ivf =
        IvfIndex::build(Arc::clone(&store), ivf_cfg, Threads::default()).expect("ivf build");
    let ivf_s = start.elapsed().as_secs_f64();
    eprintln!("  built in {ivf_s:.2}s");

    let exact = Arc::new(store.quantized_index().expect("store tables"));
    let qs = queries(&store, QUERIES);
    let exact_ids: Vec<Vec<u32>> =
        qs.iter().map(|q| exact.top_k(q, K).into_iter().map(|(id, _)| id.0).collect()).collect();

    // Recall sweep for the EXPERIMENTS.md table, and the operating
    // point: the smallest swept nprobe clearing the recall floor.
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    let mut op_nprobe = nlist;
    println!("\nrecall sweep ({n} entities, nlist {nlist}, {QUERIES} queries):");
    println!("  nprobe  probed%  recall@{K}");
    for np in [1usize, 2, 4, 8, 16, 32, 64] {
        if np > nlist {
            break;
        }
        ivf.set_nprobe(np);
        let r = recall_at_k(&ivf, &exact_ids, &qs);
        println!("  {np:>6}  {:>6.2}%  {r:.4}", 100.0 * np as f64 / nlist as f64);
        sweep.push((np, r));
        if r >= RECALL_FLOOR && np < op_nprobe {
            op_nprobe = np;
        }
    }
    ivf.set_nprobe(op_nprobe);
    let op_recall = recall_at_k(&ivf, &exact_ids, &qs);
    assert!(
        op_recall >= RECALL_FLOOR,
        "no swept nprobe reached recall@{K} >= {RECALL_FLOOR} (best {op_recall:.4})"
    );

    // Timed comparison at the operating point: brute force over the
    // full quantized tables vs nprobe-bounded IVF probing.
    let mut h = Harness::new();
    let mut qi = 0usize;
    h.bench_units("retrieval/store_exact/top64", 1.0, "query", || {
        let q = &qs[qi % qs.len()];
        qi += 1;
        black_box(exact.top_k(black_box(q), K));
    });
    let mut qi = 0usize;
    h.bench_units("retrieval/store_ivf/top64", 1.0, "query", || {
        let q = &qs[qi % qs.len()];
        qi += 1;
        black_box(ivf.top_k(black_box(q), K));
    });

    // Fused batch-8 retrieval (DESIGN.md §16), single-worker so the
    // speedup measures the fusion itself, not parallelism. The timed
    // batches are the Zipf serving drain, and each fused bench is
    // paired with a serial loop over the *same* batches, so the fused
    // speedup compares identical work under identical cache behavior.
    // Bit-identity against serial top_k is asserted before timing, on
    // both the serving drain and the disjoint evaluation queries.
    let batches = serve_batches(&store, 8, BATCH);
    let eval_batches = query_batches(&qs, store.dim(), BATCH);
    for set in [&batches, &eval_batches] {
        assert_fused_matches_serial("store_ivf", &ivf, set, Threads::single());
        assert_fused_matches_serial("quant_i8", exact.as_ref(), set, Threads::single());
    }
    // Paired sampling: each fused/serial pair shares one interleaved
    // schedule, so the speedup ratio is read under the same noise.
    let (mut bi_l, mut bi_f) = (0usize, 0usize);
    h.bench_pair_units(
        &format!("retrieval/store_ivf/top64_loop{BATCH}"),
        BATCH as f64,
        || {
            let b = &batches[bi_l % batches.len()];
            bi_l += 1;
            for qi in 0..b.rows() {
                black_box(ivf.top_k(black_box(b.row(qi)), K));
            }
        },
        &format!("retrieval/store_ivf/top64_batch{BATCH}"),
        BATCH as f64,
        || {
            let b = &batches[bi_f % batches.len()];
            bi_f += 1;
            black_box(ivf.top_k_batch(black_box(b), K, Threads::single()).expect("fused"));
        },
        "query",
    );
    let (mut bi_l, mut bi_f) = (0usize, 0usize);
    h.bench_pair_units(
        &format!("retrieval/quant_i8/top64_loop{BATCH}"),
        BATCH as f64,
        || {
            let b = &batches[bi_l % batches.len()];
            bi_l += 1;
            for qi in 0..b.rows() {
                black_box(exact.top_k(black_box(b.row(qi)), K));
            }
        },
        &format!("retrieval/quant_i8/top64_batch{BATCH}"),
        BATCH as f64,
        || {
            let b = &batches[bi_f % batches.len()];
            bi_f += 1;
            black_box(exact.top_k_batch(black_box(b), K, Threads::single()).expect("fused"));
        },
        "query",
    );

    // The reference, not a bound: `memcpy` over a buffer the size of
    // the flat int8 table, paired with the fused batch-8 flat scan,
    // which reads that table once per query block and is credited, as
    // `encoders.flat_scan_gbps` credits it, with the table's bytes once
    // per query.
    let table_bytes = exact.bytes();
    let src = vec![1u8; table_bytes];
    let mut dst = vec![0u8; table_bytes];
    let mut bi = 0usize;
    h.bench_pair_units(
        "retrieval/memcpy/table",
        table_bytes as f64,
        || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        },
        &format!("retrieval/quant_i8/scan_batch{BATCH}"),
        (table_bytes * BATCH) as f64,
        || {
            let b = &batches[bi % batches.len()];
            bi += 1;
            black_box(exact.top_k_batch(black_box(b), K, Threads::single()).expect("fused"));
        },
        "B",
    );
    drop((src, dst));

    // IVF batch-size sweep (1/8/32) for the EXPERIMENTS.md fused-QPS
    // table; batch 8 reuses the acceptance pair above.
    for bs in [1usize, 32] {
        let sweep_batches = serve_batches(&store, 8, bs);
        assert_fused_matches_serial("store_ivf", &ivf, &sweep_batches, Threads::single());
        let (mut bl, mut bf) = (0usize, 0usize);
        h.bench_pair_units(
            &format!("retrieval/store_ivf/top64_loop{bs}"),
            bs as f64,
            || {
                let b = &sweep_batches[bl % sweep_batches.len()];
                bl += 1;
                for qi in 0..b.rows() {
                    black_box(ivf.top_k(black_box(b.row(qi)), K));
                }
            },
            &format!("retrieval/store_ivf/top64_batch{bs}"),
            bs as f64,
            || {
                let b = &sweep_batches[bf % sweep_batches.len()];
                bf += 1;
                black_box(ivf.top_k_batch(black_box(b), K, Threads::single()).expect("fused"));
            },
            "query",
        );
    }

    let median = |name: &str| {
        h.results()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median_ns)
            .unwrap_or_else(|| panic!("no measurement named {name}"))
    };
    let exact_ns = median("retrieval/store_exact/top64");
    let ivf_ns = median("retrieval/store_ivf/top64");
    let exact_qps = 1e9 / exact_ns;
    let ivf_qps = 1e9 / ivf_ns;
    let speedup = exact_ns / ivf_ns;
    // Fused medians are per batch call; per-query = median / BATCH. The
    // fused speedups divide the serial loop over the serving batches by
    // the fused call on the same batches — same queries, same caches.
    let ivf_batch_ns = median(&format!("retrieval/store_ivf/top64_batch{BATCH}")) / BATCH as f64;
    let exact_batch_ns = median(&format!("retrieval/quant_i8/top64_batch{BATCH}")) / BATCH as f64;
    let ivf_loop_ns = median(&format!("retrieval/store_ivf/top64_loop{BATCH}")) / BATCH as f64;
    let exact_loop_ns = median(&format!("retrieval/quant_i8/top64_loop{BATCH}")) / BATCH as f64;
    let ivf_fused_speedup = ivf_loop_ns / ivf_batch_ns;
    let exact_fused_speedup = exact_loop_ns / exact_batch_ns;
    let memcpy_gbps = table_bytes as f64 / median("retrieval/memcpy/table");
    let scan_gbps =
        (table_bytes * BATCH) as f64 / median(&format!("retrieval/quant_i8/scan_batch{BATCH}"));

    let sweep_json: Vec<String> =
        sweep.iter().map(|(np, r)| format!("{{\"nprobe\":{np},\"recall\":{r:.4}}}")).collect();
    let fused_sweep_json: Vec<String> = [1usize, BATCH, 32]
        .iter()
        .map(|&bs| {
            let l = median(&format!("retrieval/store_ivf/top64_loop{bs}")) / bs as f64;
            let f = median(&format!("retrieval/store_ivf/top64_batch{bs}")) / bs as f64;
            format!(
                "{{\"batch\":{bs},\"loop_qps\":{:.1},\"fused_qps\":{:.1},\"speedup\":{:.2}}}",
                1e9 / l,
                1e9 / f,
                l / f,
            )
        })
        .collect();
    let summary = format!(
        "{{\"entities\":{n},\"dim\":32,\"shards\":{},\
         \"store_build_s\":{store_s:.3},\"ivf_build_s\":{ivf_s:.3},\
         \"nlist\":{nlist},\"nprobe\":{op_nprobe},\
         \"recall_at_64\":{op_recall:.4},\
         \"exact_qps\":{exact_qps:.1},\"ivf_qps\":{ivf_qps:.1},\
         \"speedup\":{speedup:.2},\
         \"batch\":{BATCH},\
         \"ivf_fused_qps\":{:.1},\"exact_fused_qps\":{:.1},\
         \"ivf_fused_speedup\":{ivf_fused_speedup:.2},\
         \"exact_fused_speedup\":{exact_fused_speedup:.2},\
         \"table_bytes\":{table_bytes},\
         \"memcpy_gbps\":{memcpy_gbps:.2},\"flat_scan_gbps\":{scan_gbps:.2},\
         \"fused_sweep\":[{}],\
         \"sweep\":[{}]}}",
        store.shards().len(),
        1e9 / ivf_batch_ns,
        1e9 / exact_batch_ns,
        fused_sweep_json.join(","),
        sweep_json.join(","),
    );
    h.report_with_summary(
        "Sharded-store retrieval: deterministic IVF vs brute force",
        "BENCH_retrieval",
        &summary,
    );

    println!("\nacceptance metrics ({n} entities):");
    println!("  store build: {store_s:.2}s ({} shards)", store.shards().len());
    println!("  ivf build:   {ivf_s:.2}s (nlist {nlist})");
    println!("  operating point: nprobe {op_nprobe}, recall@{K} {op_recall:.4}");
    println!("  qps: exact {exact_qps:.0}, ivf {ivf_qps:.0} ({speedup:.1}x)");
    println!(
        "  fused batch-{BATCH}: ivf {:.0} qps ({ivf_fused_speedup:.2}x over serial), \
         quant_i8 {:.0} qps ({exact_fused_speedup:.2}x over serial)",
        1e9 / ivf_batch_ns,
        1e9 / exact_batch_ns,
    );
    println!(
        "  reference: memcpy {memcpy_gbps:.1} GB/s over the {table_bytes}-byte int8 table; \
         flat scan {scan_gbps:.1} GB/s ({:.0} % of it)",
        100.0 * scan_gbps / memcpy_gbps
    );
}

/// CI retrieval-smoke: small streamed world; assert the flat int8 scan
/// equals the reference fold + full sort (never the scan checked
/// against itself) at query batches of 1, 3, 4, 5 and 8 — every member
/// group length of the int8 scan, and a short group after a full one —
/// the IVF recall floor against that oracle, and that a rebuild
/// (including at a different worker count) is byte-identical. No
/// timing — this must stay fast and stable.
fn smoke() {
    let dir = scratch("smoke");
    let stream = StreamConfig { entities: 3_000, ..StreamConfig::tiny(3_000, 5) };
    let (store, _) = build_store(&dir.0, stream, 1_024);
    let store = Arc::new(store);

    let cfg = IvfConfig { nlist: 48, nprobe: 16, ..IvfConfig::default() };
    let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::default()).expect("ivf build");

    let exact = store.quantized_index().expect("store tables");
    let qs = queries(&store, QUERIES);
    let oracle: Vec<Vec<(u32, u64)>> = qs.iter().map(|q| oracle_top_k(&store, q)).collect();
    for batch in [1, 3, 4, 5, BATCH] {
        let batches = query_batches(&qs, store.dim(), batch);
        for workers in [1usize, 3] {
            let ranked = batches
                .iter()
                .flat_map(|b| exact.top_k_batch(b, K, Threads::new(workers)).expect("flat scan"));
            for (got, want) in ranked.zip(&oracle) {
                let got: Vec<(u32, u64)> = got.iter().map(|&(id, s)| (id.0, s.to_bits())).collect();
                assert_eq!(
                    &got, want,
                    "flat int8 scan != reference fold at batch {batch}, {workers} workers"
                );
            }
        }
    }
    let batches = query_batches(&qs, store.dim(), BATCH);
    let exact_ids: Vec<Vec<u32>> =
        oracle.iter().map(|r| r.iter().map(|&(row, _)| row).collect()).collect();
    let recall = recall_at_k(&ivf, &exact_ids, &qs);
    assert!(recall >= RECALL_FLOOR, "smoke recall@{K} {recall:.4} < {RECALL_FLOOR}");

    // Deterministic rebuild: same bytes from a fresh build, at one
    // worker and at several.
    let again = IvfIndex::build(Arc::clone(&store), cfg, Threads::default()).expect("rebuild");
    assert_eq!(ivf.to_bytes(), again.to_bytes(), "rebuild is not byte-identical");
    let wide = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(3)).expect("rebuild wide");
    assert_eq!(ivf.to_bytes(), wide.to_bytes(), "worker count changed the index bytes");

    // Fused batched retrieval is byte-identical to serial per-query
    // top_k at 1 and 3 workers (DESIGN.md §16), on disjoint evaluation
    // queries and on overlap-heavy serving batches.
    let drains = serve_batches(&store, 4, BATCH);
    for workers in [1usize, 3] {
        for set in [&batches, &drains] {
            assert_fused_matches_serial("store_ivf", &ivf, set, Threads::new(workers));
            assert_fused_matches_serial("quant_i8", &exact, set, Threads::new(workers));
        }
    }

    println!(
        "retrieval-smoke PASS: {} entities, {} shards, flat int8 scan = reference fold \
         at batches 1/3/4/5/8 and 1 and 3 workers, recall@{K} {recall:.4}, \
         rebuild byte-identical at 1 and 3 workers, \
         fused batch-{BATCH} byte-identical at 1 and 3 workers",
        store.len(),
        store.shards().len()
    );
}
