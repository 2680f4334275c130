//! Crate-resolved call graph over the per-file item summaries.
//!
//! Resolution is a deterministic **under-approximation**: an edge is
//! only added when the callee is unambiguous under a fixed narrowing
//! chain, and an ambiguous or workspace-external name resolves to
//! nothing (std calls, trait objects, closures all fall out here).
//! Under-approximation is the right polarity for the taint rules in
//! [`crate::taint`]: a missed edge can hide a violation (which the
//! token-level rules still catch at its site), while a wrong edge
//! would manufacture unfixable findings.
//!
//! The narrowing chains, per call form (first step with ≥1 candidate
//! decides; exactly one candidate resolves, several is ambiguous):
//!
//! - `self.name(…)` — same crate + matching impl qualifier; then same
//!   file; then same crate; then unique in workspace `src/` files;
//! - `name(…)` / `recv.name(…)` — same file; then same crate; then
//!   unique in workspace `src/` files. Method calls whose name shadows
//!   a ubiquitous std method ([`STD_METHODS`]) never resolve;
//! - `seg::name(…)` — defs whose impl qualifier is `seg`; then defs in
//!   a file whose stem is `seg` (module files); an unmatched qualifier
//!   means an external target, with no local fallback.
//!
//! Cross-file steps only consider defs in `src/` trees so a test
//! helper sharing a production function's name can never become its
//! resolution target.

use crate::items::{CallKind, FileSummary};

/// Method names ubiquitous on std receivers (collections, iterators,
/// I/O, sync). A `recv.name(…)` call with one of these names is never
/// resolved to a workspace def: the receiver is overwhelmingly more
/// likely a `Vec`/iterator/`File` than the one workspace type that
/// happens to share the method name, and a wrong edge manufactures
/// unfixable findings. (`self.name(…)` calls are exempt — `self` is a
/// workspace type by construction.)
const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "len",
    "is_empty",
    "clear",
    "contains",
    "extend",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "entry",
    "keys",
    "values",
    "map",
    "filter",
    "zip",
    "fold",
    "collect",
    "next",
    "take",
    "skip",
    "rev",
    "chain",
    "enumerate",
    "find",
    "position",
    "any",
    "all",
    "sum",
    "count",
    "min",
    "max",
    "last",
    "first",
    "peek",
    "sort",
    "join",
    "split",
    "trim",
    "parse",
    "clone",
    "write",
    "read",
    "flush",
    "open",
    "load",
    "store",
    "swap",
    "send",
    "recv",
    "lock",
    "wait",
    "replace",
    "finish",
    "reserve",
    "truncate",
    "retain",
    "append",
];

/// Index of one function definition: `(file index, fn index)` into the
/// summary list the graph was built from.
pub(crate) type DefId = (usize, usize);

/// One file's worth of context the resolver needs.
struct FileCtx {
    krate: String,
    stem: String,
    is_src: bool,
}

/// The workspace call graph: for every def, the resolution of each of
/// its call sites (same index as [`crate::items::FnItem::calls`]).
pub struct Graph {
    files: Vec<FileCtx>,
    /// Sorted `(name, DefId)` pairs over every def in the workspace.
    by_name: Vec<(String, DefId)>,
    /// `resolved[file][fn][call]` — `None` for unresolved/external.
    pub resolved: Vec<Vec<Vec<Option<DefId>>>>,
}

/// The crate a workspace-relative path belongs to: `crates/x/…` → `x`,
/// anything else (the root `src/`, `tests/`) → its first segment.
pub(crate) fn crate_of(rel_path: &str) -> &str {
    match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest),
        None => rel_path.split('/').next().unwrap_or(rel_path),
    }
}

/// True when the path is part of a `src/` tree (a production module,
/// not a test, bench, or fixture).
fn is_src(rel_path: &str) -> bool {
    rel_path.starts_with("src/") || rel_path.contains("/src/")
}

impl Graph {
    /// Build the graph over `(path, summary)` pairs in sorted-file
    /// order (ids and resolution are deterministic given that order).
    pub fn build(files: &[(String, FileSummary)]) -> Graph {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(path, _)| FileCtx {
                krate: crate_of(path).to_string(),
                stem: path.rsplit('/').next().unwrap_or(path).trim_end_matches(".rs").to_string(),
                is_src: is_src(path),
            })
            .collect();
        let mut by_name: Vec<(String, DefId)> = Vec::new();
        for (fi, (_, summary)) in files.iter().enumerate() {
            for (di, item) in summary.fns.iter().enumerate() {
                by_name.push((item.name.clone(), (fi, di)));
            }
        }
        by_name.sort();
        let mut graph = Graph { files: ctxs, by_name, resolved: Vec::new() };
        let resolved = files
            .iter()
            .enumerate()
            .map(|(fi, (_, summary))| {
                summary
                    .fns
                    .iter()
                    .map(|item| {
                        item.calls
                            .iter()
                            .map(|call| graph.resolve(files, fi, item.qual.as_deref(), call))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        graph.resolved = resolved;
        graph
    }

    /// All defs named `name`, in id order.
    fn candidates<'a>(&'a self, name: &'a str) -> impl Iterator<Item = DefId> + 'a {
        let start = self.by_name.partition_point(|(n, _)| n.as_str() < name);
        self.by_name[start..].iter().take_while(move |(n, _)| n == name).map(|&(_, id)| id)
    }

    /// Resolve one call site from file `fi` (caller qualifier `qual`).
    fn resolve(
        &self,
        files: &[(String, FileSummary)],
        fi: usize,
        qual: Option<&str>,
        call: &crate::items::CallSite,
    ) -> Option<DefId> {
        let def_qual = |id: DefId| files[id.0].1.fns[id.1].qual.as_deref();
        let same_file = |id: DefId| id.0 == fi;
        let same_crate =
            |id: DefId| self.files[id.0].krate == self.files[fi].krate && self.files[id.0].is_src;
        let any_src = |id: DefId| self.files[id.0].is_src;
        let steps: Vec<Box<dyn Fn(DefId) -> bool + '_>> = match &call.kind {
            CallKind::SelfMethod => vec![
                Box::new(move |id| (same_crate(id) || same_file(id)) && def_qual(id) == qual),
                Box::new(same_file),
                Box::new(same_crate),
                Box::new(any_src),
            ],
            CallKind::Method if STD_METHODS.contains(&call.name.as_str()) => return None,
            CallKind::Free | CallKind::Method => {
                vec![Box::new(same_file), Box::new(same_crate), Box::new(any_src)]
            }
            CallKind::Qualified(seg) => {
                // The author named the namespace; if no workspace impl
                // qualifier or module file matches it, the target is
                // external (`File::open`, `Vec::with_capacity`) — never
                // fall back to a same-named local def.
                let seg1 = seg.clone();
                let seg2 = seg.clone();
                vec![
                    Box::new(move |id: DefId| {
                        def_qual(id) == Some(seg1.as_str()) && (any_src(id) || same_file(id))
                    }),
                    Box::new(move |id: DefId| {
                        self.files[id.0].stem == seg2 && (any_src(id) || same_file(id))
                    }),
                ]
            }
        };
        for step in steps {
            let mut hits = self.candidates(&call.name).filter(|&id| step(id));
            if let Some(first) = hits.next() {
                return match hits.next() {
                    None => Some(first),
                    Some(_) => None, // ambiguous: no edge
                };
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{summarize_file, RuleSet};

    fn build(files: &[(&str, &str)]) -> (Vec<(String, FileSummary)>, Graph) {
        let summaries: Vec<(String, FileSummary)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), summarize_file(path, src, RuleSet::none()).0))
            .collect();
        let graph = Graph::build(&summaries);
        (summaries, graph)
    }

    /// The resolution of the only call of the only fn in file `fi`.
    fn only_call(graph: &Graph, fi: usize) -> Option<DefId> {
        graph.resolved[fi][0][0]
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/serve/src/server.rs"), "serve");
        assert_eq!(crate_of("src/bin/metablink.rs"), "src");
        assert_eq!(crate_of("tests/ci_drift.rs"), "tests");
    }

    #[test]
    fn same_file_resolution_wins() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }\nfn helper() {}"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        assert_eq!(only_call(&g, 0), Some((0, 1)));
    }

    #[test]
    fn unique_workspace_fallback_resolves_cross_crate() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }"),
            ("crates/b/src/util.rs", "fn helper() {}"),
        ]);
        assert_eq!(only_call(&g, 0), Some((1, 0)));
    }

    #[test]
    fn cross_crate_ambiguity_yields_no_edge() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
            ("crates/c/src/lib.rs", "fn helper() {}"),
        ]);
        assert_eq!(only_call(&g, 0), None);
    }

    #[test]
    fn test_helpers_are_never_cross_file_targets() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }"),
            ("crates/a/tests/it.rs", "fn helper() {}"),
        ]);
        assert_eq!(only_call(&g, 0), None);
    }

    #[test]
    fn self_method_prefers_the_matching_impl() {
        let (_, g) = build(&[
            (
                "crates/a/src/lib.rs",
                "impl Server { fn caller(&self) { self.step(); } }\nimpl Server { fn step(&self) {} }",
            ),
            ("crates/a/src/other.rs", "impl Pool { fn step(&self) {} }"),
        ]);
        assert_eq!(only_call(&g, 0), Some((0, 1)));
    }

    #[test]
    fn qualified_calls_resolve_via_impl_qual_and_file_stem() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { Server::start(); }"),
            ("crates/a/src/server.rs", "impl Server { fn start() {} }"),
        ]);
        assert_eq!(only_call(&g, 0), Some((1, 0)));
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { util::tick(); }"),
            ("crates/a/src/util.rs", "fn tick() {}"),
        ]);
        assert_eq!(only_call(&g, 0), Some((1, 0)));
    }

    #[test]
    fn std_calls_resolve_to_nothing() {
        let (_, g) = build(&[("crates/a/src/lib.rs", "fn caller(x: &str) { x.trim(); }")]);
        assert_eq!(only_call(&g, 0), None);
    }

    #[test]
    fn std_shadowing_method_names_never_resolve() {
        // `writer.push(x)` is a Vec push even though the workspace has
        // a uniquely-named `push` method somewhere.
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller(buf: &mut Vec<u8>) { buf.push(1); }"),
            ("crates/b/src/store.rs", "impl Writer { fn push(&mut self) {} }"),
        ]);
        assert_eq!(only_call(&g, 0), None);
        // …but a free call or `self.push()` still resolves.
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "impl W { fn caller(&mut self) { self.push(); } }"),
            ("crates/a/src/store.rs", "impl W { fn push(&mut self) {} }"),
        ]);
        assert_eq!(only_call(&g, 0), Some((1, 0)));
    }

    #[test]
    fn unmatched_qualified_namespace_has_no_local_fallback() {
        // `File::open` must not resolve to the same-file `open`.
        let (_, g) =
            build(&[("crates/a/src/lib.rs", "fn caller() { File::open(\"x\"); }\nfn open() {}")]);
        assert_eq!(only_call(&g, 0), None);
    }
}
