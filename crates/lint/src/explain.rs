//! `--explain <rule>`: the contract behind each rule, one example
//! violation, and the suppression form, printed for humans at the
//! terminal (`mb-lint --explain panic-reach`, `metablink lint
//! --explain panic-reach`).

use crate::findings::RULE_IDS;

/// One rule's documentation.
struct Entry {
    rule: &'static str,
    contract: &'static str,
    example: &'static str,
}

const ENTRIES: &[Entry] = &[
    Entry {
        rule: "panic-reach",
        contract: "Panic-free paths (serve, checkpoint load/save, kb store, store load paths, \
                   loadgen) must neither contain nor transitively call `.unwrap()`, \
                   `.expect(…)`, `panic!`, `unreachable!`, `todo!` or `unimplemented!`: a panic \
                   there kills a serving worker or leaves a checkpoint half-written. Reported at \
                   the site itself, and at every call whose callee chain reaches one anywhere in \
                   the workspace (the witness path shows one route). Return a typed error or \
                   recover.",
        example: "let v = map.get(&k).unwrap();        // violation at the site\nwork(job);           // violation: work -> parse -> unwrap\nlet v = map.get(&k).ok_or(Error::Missing)?;  // fixed\nwork(job)?;          // fixed: parse returns Result now",
    },
    Entry {
        rule: "indexing",
        contract: "Direct `xs[i]` panics out of bounds on panic-free paths. Use `.get(i)` or \
                   prove the bound to the reader at the call site.",
        example: "let first = xs[0];                   // violation\nlet first = xs.first().ok_or(Error::Empty)?;  // fixed",
    },
    Entry {
        rule: "det-taint",
        contract: "Replay-contract crates (tensor, core, encoders, datagen, store, …) must \
                   neither name nor transitively call a nondeterministic source: \
                   `HashMap`/`HashSet` (iteration order is per-process random), \
                   `SystemTime`/`Instant`, `std::env`, `thread::current`. Any of them silently \
                   breaks replay-by-seed. Reported at the token itself, and at every call whose \
                   callee chain reaches one. Use `BTreeMap`/`BTreeSet` or sort before iterating; \
                   thread seeds, times and paths through as explicit parameters.",
        example: "use std::collections::HashMap;       // violation at the site\nlet w = stats();     // violation: stats -> HashMap::new\nuse std::collections::BTreeMap;      // fixed\nlet w = stats_ordered();  // fixed: BTreeMap inside",
    },
    Entry {
        rule: "lock-order",
        contract: "All held→acquired lock pairs across the crate must form an acyclic order; a \
                   cycle is a potential deadlock. Fix one global acquisition order.",
        example: "thread A: state.lock() then cache.lock()\nthread B: cache.lock() then state.lock()   // violation: cycle",
    },
    Entry {
        rule: "lock-across-call",
        contract: "While a lock is held there must be no blocking I/O — it stalls every thread \
                   contending for the lock and hands slow peers a denial-of-service lever — and \
                   no call whose callee chain reaches blocking I/O or re-acquires the same lock \
                   (self-deadlock with std::sync::Mutex). Release the lock first, or pass the \
                   guard down.",
        example: "let g = self.state.lock()…; out.write_all(…)  // violation at the site\nlet g = self.state.lock()…; self.flush_all();  // violation: flush_all -> write_all\ndrop(g); out.write_all(…); self.flush_all();  // fixed",
    },
    Entry {
        rule: "unsafe-gate",
        contract: "`unsafe` is denied workspace-wide, tests included. Find a safe formulation.",
        example: "let x = unsafe { *ptr };             // violation",
    },
    Entry {
        rule: "float-total-order",
        contract: "A float comparator built on `partial_cmp` orders NaN arbitrarily, so sorted \
                   output depends on input permutation — a silent replay break. Use \
                   `f64::total_cmp`.",
        example: "v.sort_by(|a, b| a.partial_cmp(b).unwrap());  // violation\nv.sort_by(|a, b| a.total_cmp(b));             // fixed",
    },
    Entry {
        rule: "tape-free",
        contract: "The serving path rides one shared `FrozenParams` snapshot: no gradient tape \
                   (`Tape`, or `.inject(`, which makes every parameter a leaf of one), no \
                   per-forward parameter copies (`params.clone()`).",
        example: "let h = tape.inject(&params);        // violation\nlet h = frozen.forward(&input);      // fixed",
    },
    Entry {
        rule: "bounded-queue",
        contract: "Serving-path work buffers must show their bound in the pushing function \
                   (capacity check, truncate, max_batch) — unbounded queues turn overload into \
                   memory growth instead of fast shedding.",
        example: "self.pending.push(job);              // violation\nif self.pending.len() < self.capacity { self.pending.push(job); }  // fixed",
    },
    Entry {
        rule: "as-truncation",
        contract: "`id as u32`-style narrowing wraps silently once the id space outgrows the \
                   target, aliasing two entities. Use `TryFrom` (reject) or keep the id wide.",
        example: "buf.put(entity_id as u32);           // violation\nbuf.put(u32::try_from(entity_id)?);  // fixed",
    },
    Entry {
        rule: "unbounded-read",
        contract: "Store/shard load paths promise bounded-RAM streaming verification; \
                   `read_to_end` / `fs::read` materializes a multi-gigabyte shard. Stream \
                   fixed-size chunks or seek + `read_exact` a known length.",
        example: "file.read_to_end(&mut buf)?;         // violation\nfile.read_exact(&mut chunk)?;        // fixed",
    },
    Entry {
        rule: "alloc-in-hot-loop",
        contract: "Allocation-shaped constructs (vec!/format!, to_vec, \
                   collect, Box::new, …), direct or via any transitive callee, inside loops of \
                   hot-path files (kernels, frozen forwards, batch drain). Hoist the allocation \
                   out of the loop or reuse a buffer.",
        example: "for row in 0..n {\n    let tmp = vec![0.0; d];   // violation: one alloc per row\n}\nlet mut tmp = vec![0.0; d];   // fixed: hoisted\nfor row in 0..n { tmp.fill(0.0); … }",
    },
    Entry {
        rule: "suppression",
        contract: "`// mb-lint: allow(rule) -- justification` silences a finding on its line \
                   (or the next line when the comment stands alone). The justification is \
                   mandatory and non-empty; unknown rule ids are rejected. This rule flags \
                   malformed suppressions.",
        example: "// mb-lint: allow(panic-reach)                  // violation: no justification\n// mb-lint: allow(panic-reach) -- init-only path  // well-formed",
    },
];

/// Render the explanation for `rule`, or an error listing known rules.
pub(crate) fn explain(rule: &str) -> Result<String, String> {
    let entry = ENTRIES.iter().find(|e| e.rule == rule).ok_or_else(|| {
        format!("unknown rule {rule:?}; known rules:\n  {}", RULE_IDS.join("\n  "))
    })?;
    Ok(format!(
        "rule: {}\n\ncontract:\n  {}\n\nexample:\n{}\n\nsuppression:\n  // mb-lint: allow({}) -- <justification>\n  (audited; the justification is mandatory. For panic-reach, det-taint,\n  lock-across-call and alloc-in-hot-loop an allow is also a propagation\n  boundary: one audit at the site or call clears every transitive caller.)",
        entry.rule,
        entry.contract,
        entry
            .example
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
        entry.rule,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_id_has_an_entry() {
        for rule in RULE_IDS {
            let text = explain(rule).unwrap_or_else(|e| panic!("{rule}: {e}"));
            assert!(text.contains(rule), "{rule}");
            assert!(text.contains("contract:"), "{rule}");
            assert!(text.contains("suppression:"), "{rule}");
        }
    }

    #[test]
    fn entries_match_the_catalogue_exactly() {
        let entry_ids: Vec<&str> = ENTRIES.iter().map(|e| e.rule).collect();
        assert_eq!(entry_ids, RULE_IDS, "explain entries must mirror RULE_IDS order");
    }

    #[test]
    fn unknown_rule_lists_the_catalogue() {
        let err = explain("no-such-rule").unwrap_err();
        assert!(err.contains("panic-reach"));
        assert!(err.contains("det-taint"));
    }
}
