//! The reference path profiler the tests hold
//! [`brepl_core::correlated::profile_paths`] to: for every execution of a
//! profiled branch, walk a ring of the most recent events newest-first
//! through a reversed-path trie of that branch's candidates, and count the
//! execution under the deepest candidate reached.
//!
//! It shares only [`brepl_core::correlated::PathProfile::new`] (the
//! candidate suffix-closure) and
//! [`brepl_core::correlated::PathProfile::record`] with the library; the
//! longest-match search is independent of the library's automaton.

use std::collections::{HashMap, VecDeque};

use brepl_cfg::{Cfg, ClassifiedBranches, DomTree, LoopForest, PathStep, PredecessorPaths};
use brepl_core::correlated::PathProfile;
use brepl_ir::{BranchId, Module};
use brepl_trace::{Trace, TraceStats};

/// The candidates selection profiles: every executed branch's decision
/// paths of at most `max_decisions` steps.
pub fn module_candidates(
    module: &Module,
    stats: &TraceStats,
    max_decisions: usize,
) -> HashMap<BranchId, Vec<Vec<PathStep>>> {
    let mut out = HashMap::new();
    for (_, func) in module.iter_functions() {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        for info in ClassifiedBranches::analyze(func, &forest).branches() {
            if stats.site(info.site).total() > 0 {
                let paths = PredecessorPaths::enumerate(func, &cfg, info.block, max_decisions);
                out.insert(info.site, paths.paths);
            }
        }
    }
    out
}

/// [`brepl_core::correlated::profile_paths`], computed by the trie walk.
pub fn reference_profile_paths(
    trace: &Trace,
    candidates_by_site: &HashMap<BranchId, Vec<Vec<PathStep>>>,
) -> HashMap<BranchId, PathProfile> {
    let mut profiles: HashMap<BranchId, PathProfile> = candidates_by_site
        .iter()
        .map(|(&site, paths)| (site, PathProfile::new(paths)))
        .collect();
    let tries: HashMap<BranchId, PathTrie> = profiles
        .iter()
        .map(|(&site, p)| (site, PathTrie::build(p.candidates())))
        .collect();
    let max_len = profiles
        .values()
        .flat_map(|p| p.candidates().iter().map(Vec::len))
        .max()
        .unwrap_or(0);

    // The most recent `max_len` events, oldest first, packed as
    // `site << 1 | taken`.
    let mut recent: VecDeque<u32> = VecDeque::with_capacity(max_len);
    for &packed in trace.packed() {
        let site = BranchId(packed >> 1);
        if let Some(profile) = profiles.get_mut(&site) {
            let trie = &tries[&site];
            let mut longest = None;
            let mut node = 0usize;
            for &key in recent.iter().rev() {
                match trie.edges[node].iter().find(|&&(k, _)| k == key) {
                    Some(&(_, child)) => {
                        node = child;
                        if let Some(g) = trie.terminal[node] {
                            longest = Some(g);
                        }
                    }
                    None => break,
                }
            }
            profile.record(longest, packed & 1 == 1);
        }
        if max_len > 0 {
            if recent.len() == max_len {
                recent.pop_front();
            }
            recent.push_back(packed);
        }
    }
    profiles
}

/// A trie over candidate paths keyed newest-event-first: the edge out of
/// the root consumes the most recent event, deeper edges consume older
/// ones. Node 0 is the root; `terminal[n]` holds the candidate index whose
/// reversed path ends at node `n`.
struct PathTrie {
    edges: Vec<Vec<(u32, usize)>>,
    terminal: Vec<Option<usize>>,
}

impl PathTrie {
    fn build(candidates: &[Vec<PathStep>]) -> Self {
        let mut trie = PathTrie {
            edges: vec![Vec::new()],
            terminal: vec![None],
        };
        for (g, path) in candidates.iter().enumerate() {
            let mut node = 0usize;
            for step in path.iter().rev() {
                let key = (step.site.index() as u32) << 1 | u32::from(step.taken);
                node = match trie.edges[node].iter().find(|&&(k, _)| k == key) {
                    Some(&(_, child)) => child,
                    None => {
                        let child = trie.edges.len();
                        trie.edges[node].push((key, child));
                        trie.edges.push(Vec::new());
                        trie.terminal.push(None);
                        child
                    }
                };
            }
            trie.terminal[node] = Some(g);
        }
        trie
    }
}
