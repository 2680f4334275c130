// Seeded determinism violations plus suppressed and clean cases.
use std::collections::BTreeMap;
use std::collections::HashMap;

fn positives() {
    let m: HashMap<u32, u32> = HashMap::new();
    let _t = std::time::SystemTime::now();
    let _i = std::time::Instant::now();
    let _e = std::env::var("HOME");
    let _ = m;
}

// mb-lint: allow(det-taint) -- lookup only, iteration order never observed
fn suppressed(m: &std::collections::HashSet<u32>) -> bool {
    m.contains(&1)
}

fn clean() {
    let _m: BTreeMap<u32, u32> = BTreeMap::new();
}
