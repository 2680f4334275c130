//! Checkpointing round-trips across the facade API.

use metablink::common::storage::DiskStorage;
use metablink::common::Rng;
use metablink::datagen::{mentions::generate_mentions, World, WorldConfig};
use metablink::encoders::biencoder::{BiEncoder, BiEncoderConfig};
use metablink::encoders::input::{build_vocab, InputConfig, TrainPair};
use metablink::tensor::checkpoint::Checkpoint;

#[test]
fn biencoder_checkpoint_round_trip_preserves_behaviour() {
    let world = World::generate(WorldConfig::tiny(61));
    let vocab = build_vocab(world.kb(), [], 1);
    let cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
    let model = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(1));

    // Serialize → parse → install into a differently-initialised model.
    let mut ck = Checkpoint::new();
    ck.params.insert("bi".to_string(), model.params().clone());
    let bytes = ck.to_bytes().expect("finite params serialize");
    let mut restored = Checkpoint::from_bytes(&bytes).expect("parse own output");
    let mut other = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(999));
    other
        .set_params(restored.params.remove("bi").expect("section present"))
        .expect("same vocabulary and config");

    let domain = world.domain("TargetX").clone();
    let ms = generate_mentions(&world, &domain, 12, &mut Rng::seed_from_u64(2));
    let icfg = InputConfig::default();
    let bags: Vec<Vec<u32>> = ms
        .mentions
        .iter()
        .map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m).mention)
        .collect();
    assert_eq!(model.embed_mentions(&bags), other.embed_mentions(&bags));
}

#[test]
fn checkpoint_file_round_trip() {
    let world = World::generate(WorldConfig::tiny(62));
    let vocab = build_vocab(world.kb(), [], 1);
    let cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
    let model = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(3));
    let dir = std::env::temp_dir().join("metablink_integration_ckpt");
    let path = dir.join("model.mbc");
    let mut ck = Checkpoint::new();
    ck.params.insert("bi".to_string(), model.params().clone());
    ck.save(&mut DiskStorage::new(), &path).unwrap();
    let loaded = Checkpoint::load(&mut DiskStorage::new(), &path).unwrap();
    assert_eq!(loaded, ck);
    assert_eq!(&loaded.params["bi"], model.params());
    std::fs::remove_dir_all(&dir).ok();
}
