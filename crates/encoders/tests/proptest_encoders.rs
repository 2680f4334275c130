//! Property-based tests of encoder and retrieval invariants.

use mb_check::gen::{self, U32In, VecGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::retrieval::{CandidateSource, DenseIndex};
use mb_kb::EntityId;
use mb_tensor::Tensor;
use mb_text::vocab::VocabBuilder;

fn vocab(n_words: usize) -> mb_text::Vocab {
    let mut b = VocabBuilder::new();
    for i in 0..n_words {
        b.add(&format!("word{i}"));
    }
    b.build(1)
}

fn bag(vocab_len: usize) -> VecGen<U32In> {
    gen::vec_of(gen::u32_in(0..vocab_len as u32), 1..12)
}

mb_check::check! {
    #![config(cases = 32)]

    fn encodings_are_unit_norm_and_deterministic(
        seed in gen::u64_in(0..1000),
        bags in gen::vec_of(bag(40), 1..6),
    ) {
        let v = vocab(39); // +1 for <unk> = 40 ids
        let cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let model = BiEncoder::new(&v, cfg, &mut Rng::seed_from_u64(seed));
        let a = model.embed_entities(&bags);
        let b = model.embed_entities(&bags);
        prop_assert_eq!(a.clone(), b);
        for i in 0..a.rows() {
            let n: f64 = a.row(i).iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((n - 1.0).abs() < 1e-6, "row norm {n}");
        }
    }

    fn bag_order_does_not_matter_for_mean_pooling(
        seed in gen::u64_in(0..1000),
        mut bag in bag(40),
    ) {
        let v = vocab(39);
        let cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let model = BiEncoder::new(&v, cfg, &mut Rng::seed_from_u64(seed));
        let a = model.embed_mentions(std::slice::from_ref(&bag));
        bag.reverse();
        let b = model.embed_mentions(std::slice::from_ref(&bag));
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    fn dense_index_top_k_is_sorted_and_within_bounds(
        n in gen::usize_in(2..60),
        d in gen::usize_in(2..8),
        k in gen::usize_in(1..70),
        seed in gen::u64_in(0..500),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let vectors = Tensor::randn(vec![n, d], 0.0, 1.0, &mut rng);
        let ids: Vec<EntityId> = (0..n as u32).map(EntityId).collect();
        let index = DenseIndex::try_from_vectors(vectors.clone(), ids).expect("one id per row");
        let query: Vec<f64> = (0..d).map(|_| rng.gaussian()).collect();
        let top = index.top_k(&query, k);
        prop_assert_eq!(top.len(), k.min(n));
        for pair in top.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1);
        }
        // Scores agree with a direct recomputation.
        for (id, s) in &top {
            let direct: f64 =
                vectors.row(id.0 as usize).iter().zip(&query).map(|(a, b)| a * b).sum();
            prop_assert!((direct - s).abs() < 1e-12);
        }
    }
}
