//! The full-scale pin: `parent_numbers.tsv` holds, by `to_bits`, every
//! per-seed metric the 15 separate bench targets computed at the commit
//! before they became one runner (`artifact`, [`Numbers`] key, index in
//! the series, bits) — every row they trained, Figure 4's two ratios,
//! Table XI's twelve ROUGE cells. The runner must reproduce each one;
//! values it adds (the third seed of Tables VII–X) are not in the file.
//! A PR that changes the training arithmetic re-captures the file once
//! and says so.

use mb_bench::paper::{context, evaluate, Numbers, Run, ARTIFACTS};
use std::collections::BTreeMap;

#[test]
#[ignore = "the full-scale run, ≈ 7 min on 2 vCPUs: cargo test --release -p mb-bench --test paper_full -- --ignored"]
fn every_number_the_separate_targets_computed_is_reproduced_bit_for_bit() {
    let ctx = context();
    let mut run = Run::new(&ctx, false);
    let mut got: BTreeMap<(&str, String, usize), u64> = BTreeMap::new();
    for a in ARTIFACTS.iter() {
        let (out, verdicts) = evaluate(a, &mut run);
        for v in &verdicts {
            assert!(!v.flipped(), "{} flipped: measured {}", v.claim.id, v.measured);
        }
        let Numbers(series) = out.nums;
        for (key, values) in series {
            for (i, v) in values.iter().enumerate() {
                got.insert((a.id, key.clone(), i), v.to_bits());
            }
        }
    }
    let mut checked = 0;
    for line in include_str!("parent_numbers.tsv").lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let (index, bits) = (f[2].parse().unwrap(), u64::from_str_radix(f[3], 16).unwrap());
        let ours = got.get(&(f[0], f[1].to_string(), index));
        assert_eq!(ours, Some(&bits), "{line}: the runner has {ours:x?}");
        checked += 1;
    }
    assert_eq!(checked, 410);
}
