//! Correlated-branch state machines (§4.3 of the paper).
//!
//! Unlike loop machines, the states of a correlated machine are
//! independent: each state is a *path* — a short sequence of earlier branch
//! decisions leading to the branch — plus one catch-all state for
//! executions matching no selected path. The machine is "the set of those
//! paths which give the lowest misprediction rate", with at most
//! `n - 1` paths for an `n`-state machine and path length below `n`
//! ("we used a maximum path length of n for an n state machine to keep the
//! size of the replicated code small").

use std::collections::HashMap;

use brepl_cfg::PathStep;
use brepl_ir::BranchId;
use brepl_trace::{SiteCounts, Trace};

/// A correlated-branch machine: selected decision paths with per-path
/// predictions plus a catch-all prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelatedMachine {
    /// Selected paths (execution order within each path) and the direction
    /// predicted when the path matches. Longest path wins on overlap.
    pub paths: Vec<(Vec<PathStep>, bool)>,
    /// Prediction when no selected path matches.
    pub catch_all: bool,
}

impl CorrelatedMachine {
    /// Number of machine states (paths + the catch-all).
    pub fn states(&self) -> usize {
        self.paths.len() + 1
    }

    /// Predicts the branch direction given the most recent branch events
    /// (oldest first). The longest matching path wins.
    pub fn predict(&self, recent: &[(BranchId, bool)]) -> bool {
        let mut best: Option<(usize, bool)> = None;
        for (path, predict) in &self.paths {
            if path_matches(path, recent) {
                match best {
                    Some((len, _)) if len >= path.len() => {}
                    _ => best = Some((path.len(), *predict)),
                }
            }
        }
        best.map_or(self.catch_all, |(_, p)| p)
    }
}

fn path_matches(path: &[PathStep], recent: &[(BranchId, bool)]) -> bool {
    if path.len() > recent.len() {
        return false;
    }
    let tail = &recent[recent.len() - path.len()..];
    path.iter()
        .zip(tail)
        .all(|(step, &(site, taken))| step.site == site && step.taken == taken)
}

/// Per-site profile of path outcomes: for every candidate path, the branch
/// outcome counts over executions whose longest matching candidate was that
/// path, plus the catch-all bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathProfile {
    /// Candidate paths (suffix-closed, sorted, deduplicated).
    candidates: Vec<Vec<PathStep>>,
    /// `chain[g]` lists candidate indices that are suffixes of candidate
    /// `g` (including `g` itself), longest first — when a selected set does
    /// not contain the longest match, counts fall through this chain.
    chain: Vec<Vec<usize>>,
    /// Outcome counts grouped by longest matching candidate.
    group_counts: Vec<SiteCounts>,
    /// Outcomes matching no candidate.
    unmatched: SiteCounts,
    total: u64,
}

/// The result of building a correlated machine: the machine plus its
/// profiled accuracy.
#[derive(Clone, Debug)]
pub struct CorrelatedResult {
    /// The machine.
    pub machine: CorrelatedMachine,
    /// Correct predictions on the profiling trace.
    pub correct: u64,
    /// Total profiled executions of the branch.
    pub total: u64,
}

impl CorrelatedResult {
    /// Mispredictions on the profiling trace.
    pub fn mispredictions(&self) -> u64 {
        self.total - self.correct
    }
}

/// Builds [`PathProfile`]s for a set of branches in one trace pass.
///
/// `candidates_by_site` maps each branch of interest to its candidate
/// decision paths (usually from
/// [`brepl_cfg::PredecessorPaths::enumerate`]); empty paths are ignored
/// (they denote "no decision", which the catch-all covers).
///
/// Every execution of a profiled branch is attributed to the longest
/// candidate of that branch that is a suffix of the events before it. One
/// Aho–Corasick automaton over all sites' candidates answers that for
/// every site at once, so the pass costs one table transition per event
/// plus one table lookup and one counter bump per profiled execution.
pub fn profile_paths(
    trace: &Trace,
    candidates_by_site: &HashMap<BranchId, Vec<Vec<PathStep>>>,
) -> HashMap<BranchId, PathProfile> {
    let (sites, mut profiles): (Vec<BranchId>, Vec<PathProfile>) = candidates_by_site
        .iter()
        .map(|(&site, paths)| (site, PathProfile::new(paths)))
        .unzip();
    let automaton = PathAutomaton::build(&sites, &profiles);
    let counts = automaton.count(trace);
    for (p, profile) in profiles.iter_mut().enumerate() {
        let slots = &counts[automaton.base[p]..][..=profile.candidates.len()];
        let (groups, unmatched) = slots.split_at(profile.candidates.len());
        profile.group_counts = groups.to_vec();
        profile.unmatched = unmatched[0];
        profile.total = slots.iter().map(SiteCounts::total).sum();
    }
    sites.into_iter().zip(profiles).collect()
}

/// Marks an absent profile or a not-yet-defined trie edge.
const NONE: u32 = u32::MAX;

/// An Aho–Corasick automaton over the candidate paths of every profiled
/// site, reading the trace forward in its own `site << 1 | taken` words.
///
/// After each event the state is the longest prefix of some candidate
/// that is a suffix of the events so far. Every candidate that is a
/// suffix of the events is then a suffix of the state's string, so the
/// longest matching candidate of each site is a function of the state
/// alone and is tabulated in `best`.
struct PathAutomaton {
    /// `class[word]` for every trace word below its length: the word's
    /// dense symbol (0 = in no candidate) and the profile index of its
    /// site (`NONE` = not profiled). Longer words are `(0, NONE)`.
    class: Vec<(u32, u32)>,
    symbols: usize,
    /// `delta[state * symbols + symbol]`: the total transition function.
    delta: Vec<u32>,
    profiles: usize,
    /// `best[state * profiles + p]`: the counter slot of the longest
    /// candidate of profile `p` that is a suffix of the state's string,
    /// or `p`'s unmatched slot.
    best: Vec<u32>,
    /// Profile `p` counts candidate `g` in slot `base[p] + g` and its
    /// unmatched executions in slot `base[p] + candidates.len()`.
    base: Vec<usize>,
    slots: usize,
}

impl PathAutomaton {
    fn build(sites: &[BranchId], profiles: &[PathProfile]) -> Self {
        let word = |s: &PathStep| (s.site.index() as u32) << 1 | u32::from(s.taken);

        // Dense symbols, in word order, for the words candidates use.
        let mut words: Vec<u32> = profiles
            .iter()
            .flat_map(|p| p.candidates.iter().flatten().map(word))
            .collect();
        words.sort_unstable();
        words.dedup();
        let symbols = words.len() + 1;
        let class_len = words
            .last()
            .map_or(0, |&w| w as usize + 1)
            .max(sites.iter().map(|s| 2 * s.index() + 2).max().unwrap_or(0));
        let mut class = vec![(0u32, NONE); class_len];
        for (i, &w) in words.iter().enumerate() {
            class[w as usize].0 = i as u32 + 1;
        }
        for (p, site) in sites.iter().enumerate() {
            for taken in 0..2 {
                class[2 * site.index() + taken].1 = p as u32;
            }
        }

        // The goto trie over all candidates; `terminals[s]` lists the
        // (profile, candidate) pairs whose path is the string of `s`.
        let mut delta = vec![NONE; symbols];
        let mut terminals: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        for (p, profile) in profiles.iter().enumerate() {
            for (g, path) in profile.candidates.iter().enumerate() {
                let mut state = 0usize;
                for step in path {
                    let at = state * symbols + class[word(step) as usize].0 as usize;
                    if delta[at] == NONE {
                        delta[at] = terminals.len() as u32;
                        delta.resize(delta.len() + symbols, NONE);
                        terminals.push(Vec::new());
                    }
                    state = delta[at] as usize;
                }
                terminals[state].push((p, g));
            }
        }

        // Breadth-first completion: a missing edge follows the failure
        // state's edge, and a state's best row is its failure state's row
        // overridden by the candidates ending exactly at the state (the
        // failure state is the longest proper suffix in the trie, so it
        // already holds every shorter match).
        let n_profiles = profiles.len();
        let mut base = Vec::with_capacity(n_profiles);
        let mut slots = 0usize;
        for profile in profiles {
            base.push(slots);
            slots += profile.candidates.len() + 1;
        }
        let mut best = vec![0u32; terminals.len() * n_profiles];
        for (p, profile) in profiles.iter().enumerate() {
            best[p] = (base[p] + profile.candidates.len()) as u32;
        }
        let mut fail = vec![0u32; terminals.len()];
        let mut queue: Vec<u32> = Vec::with_capacity(terminals.len());
        for edge in &mut delta[..symbols] {
            if *edge == NONE {
                *edge = 0;
            } else {
                queue.push(*edge);
            }
        }
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
            let s = s as usize;
            let f = fail[s] as usize;
            best.copy_within(f * n_profiles..(f + 1) * n_profiles, s * n_profiles);
            for &(p, g) in &terminals[s] {
                best[s * n_profiles + p] = (base[p] + g) as u32;
            }
            for sym in 0..symbols {
                let via_fail = delta[f * symbols + sym];
                let at = s * symbols + sym;
                if delta[at] == NONE {
                    delta[at] = via_fail;
                } else {
                    fail[delta[at] as usize] = via_fail;
                    queue.push(delta[at]);
                }
            }
        }

        PathAutomaton {
            class,
            symbols,
            delta,
            profiles: n_profiles,
            best,
            base,
            slots,
        }
    }

    /// Runs the trace through the automaton and returns the outcome counts
    /// per slot (see `base`).
    fn count(&self, trace: &Trace) -> Vec<SiteCounts> {
        let mut counts = vec![SiteCounts::default(); self.slots];
        let mut state = 0usize;
        for &w in trace.packed() {
            let (symbol, profile) = self.class.get(w as usize).copied().unwrap_or((0, NONE));
            if profile != NONE {
                let slot = self.best[state * self.profiles + profile as usize];
                let bucket = &mut counts[slot as usize];
                if w & 1 == 1 {
                    bucket.taken += 1;
                } else {
                    bucket.not_taken += 1;
                }
            }
            state = self.delta[state * self.symbols + symbol as usize] as usize;
        }
        counts
    }
}

fn is_path_suffix(shorter: &[PathStep], longer: &[PathStep]) -> bool {
    shorter.len() <= longer.len() && longer[longer.len() - shorter.len()..] == *shorter
}

fn suffix_chains(candidates: &[Vec<PathStep>]) -> Vec<Vec<usize>> {
    candidates
        .iter()
        .map(|g| {
            let mut chain: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| is_path_suffix(c, g))
                .map(|(i, _)| i)
                .collect();
            chain.sort_by_key(|&i| std::cmp::Reverse(candidates[i].len()));
            chain
        })
        .collect()
}

impl PathProfile {
    /// An empty profile over `paths` and every non-empty suffix of them,
    /// sorted and deduplicated.
    ///
    /// Suffix-closure: path enumeration caps its output on dense CFGs;
    /// without the closure a deeper enumeration could *lose* the short
    /// paths a shallow one found, making more states perform worse than
    /// fewer.
    pub fn new(paths: &[Vec<PathStep>]) -> Self {
        let mut candidates: Vec<Vec<PathStep>> = paths
            .iter()
            .flat_map(|p| (0..p.len()).map(move |start| p[start..].to_vec()))
            .collect();
        candidates.sort();
        candidates.dedup();
        let chain = suffix_chains(&candidates);
        PathProfile {
            group_counts: vec![SiteCounts::default(); candidates.len()],
            candidates,
            chain,
            unmatched: SiteCounts::default(),
            total: 0,
        }
    }

    /// The candidate paths (execution order within each path), in the
    /// order [`PathProfile::record`] indexes them.
    pub fn candidates(&self) -> &[Vec<PathStep>] {
        &self.candidates
    }

    /// Counts one execution whose longest matching candidate is
    /// `candidates()[g]`, or that matched none (`None`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn record(&mut self, longest_match: Option<usize>, taken: bool) {
        let bucket = match longest_match {
            Some(g) => &mut self.group_counts[g],
            None => &mut self.unmatched,
        };
        if taken {
            bucket.taken += 1;
        } else {
            bucket.not_taken += 1;
        }
        self.total += 1;
    }

    /// Total profiled executions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mispredictions of a given selected path set.
    fn mispredictions_of(&self, selected: &[bool]) -> u64 {
        let mut per_target: Vec<SiteCounts> = vec![SiteCounts::default(); self.candidates.len()];
        let mut catch = self.unmatched;
        for (g, counts) in self.group_counts.iter().enumerate() {
            if counts.total() == 0 {
                continue;
            }
            match self.chain[g].iter().find(|&&i| selected[i]) {
                Some(&i) => {
                    per_target[i].taken += counts.taken;
                    per_target[i].not_taken += counts.not_taken;
                }
                None => {
                    catch.taken += counts.taken;
                    catch.not_taken += counts.not_taken;
                }
            }
        }
        per_target
            .iter()
            .map(SiteCounts::minority_count)
            .sum::<u64>()
            + catch.minority_count()
    }

    /// Greedily selects at most `max_states - 1` paths (one state is the
    /// catch-all) minimizing mispredictions, and returns the resulting
    /// machine with predictions filled in.
    ///
    /// # Panics
    ///
    /// Panics if `max_states == 0`.
    pub fn select(&self, max_states: usize) -> CorrelatedResult {
        self.select_with_threshold(max_states, 1)
    }

    /// Like [`PathProfile::select`], but a path is only added when it
    /// removes at least `min_gain` mispredictions. With hundreds of
    /// candidate paths and few executions, an unthresholded selection can
    /// shatter the executions into pure singleton groups — perfect on the
    /// profiling run and useless after replication; the threshold is the
    /// standard guard against that overfitting.
    ///
    /// # Panics
    ///
    /// Panics if `max_states == 0` or `min_gain == 0`.
    pub fn select_with_threshold(&self, max_states: usize, min_gain: u64) -> CorrelatedResult {
        assert!(max_states >= 1, "need at least the catch-all state");
        assert!(min_gain >= 1, "min_gain must be positive");
        let n = self.candidates.len();
        let mut selected = vec![false; n];
        let mut current = self.mispredictions_of(&selected);
        for _ in 1..max_states {
            let mut best: Option<(usize, u64)> = None;
            for i in 0..n {
                if selected[i] {
                    continue;
                }
                selected[i] = true;
                let w = self.mispredictions_of(&selected);
                selected[i] = false;
                if w + min_gain <= current {
                    match best {
                        Some((_, bw)) if bw <= w => {}
                        _ => best = Some((i, w)),
                    }
                }
            }
            let Some((i, w)) = best else { break };
            selected[i] = true;
            current = w;
        }

        // Final predictions: recompute routed counts.
        let mut per_target: Vec<SiteCounts> = vec![SiteCounts::default(); n];
        let mut catch = self.unmatched;
        for (g, counts) in self.group_counts.iter().enumerate() {
            match self.chain[g].iter().find(|&&i| selected[i]) {
                Some(&i) => {
                    per_target[i].taken += counts.taken;
                    per_target[i].not_taken += counts.not_taken;
                }
                None => {
                    catch.taken += counts.taken;
                    catch.not_taken += counts.not_taken;
                }
            }
        }
        let paths: Vec<(Vec<PathStep>, bool)> = (0..n)
            .filter(|&i| selected[i])
            .map(|i| {
                let c = per_target[i];
                let predict = if c.total() == 0 { true } else { c.majority() };
                (self.candidates[i].clone(), predict)
            })
            .collect();
        let machine = CorrelatedMachine {
            paths,
            catch_all: if catch.total() == 0 {
                true
            } else {
                catch.majority()
            },
        };
        CorrelatedResult {
            machine,
            correct: self.total - current,
            total: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_trace::TraceEvent;

    fn step(site: u32, taken: bool) -> PathStep {
        PathStep {
            site: BranchId(site),
            taken,
        }
    }

    fn ev(site: u32, taken: bool) -> TraceEvent {
        TraceEvent {
            site: BranchId(site),
            taken,
        }
    }

    /// Branch 1 copies branch 0's decision; candidates are the two length-1
    /// paths through branch 0.
    fn correlated_trace() -> (Trace, HashMap<BranchId, Vec<Vec<PathStep>>>) {
        let mut t = Trace::new();
        let mut x = 3u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = x >> 40 & 1 == 1;
            t.push(ev(0, d));
            t.push(ev(1, d));
        }
        let mut cands = HashMap::new();
        cands.insert(BranchId(1), vec![vec![step(0, true)], vec![step(0, false)]]);
        (t, cands)
    }

    #[test]
    fn two_paths_predict_copier_perfectly() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let p = &profiles[&BranchId(1)];
        assert_eq!(p.total(), 2000);
        let result = p.select(3);
        assert_eq!(result.mispredictions(), 0);
        // One explicit path plus the catch-all suffices: the catch-all
        // purely holds the other path's executions, so greedy stops early.
        assert!(result.machine.states() <= 3);
        // The machine predicts by recent events.
        assert!(result.machine.predict(&[(BranchId(0), true)]));
        assert!(!result.machine.predict(&[(BranchId(0), false)]));
    }

    #[test]
    fn catch_all_only_equals_profile() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let result = profiles[&BranchId(1)].select(1);
        // One state: plain profile prediction for the branch.
        let stats = t.stats();
        let c = stats.site(BranchId(1));
        assert_eq!(result.mispredictions(), c.minority_count());
        assert_eq!(result.machine.states(), 1);
    }

    #[test]
    fn two_states_capture_the_dominant_path() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let one_path = profiles[&BranchId(1)].select(2);
        // Selecting either path resolves the corresponding half exactly;
        // catch-all handles the other half as its majority.
        assert!(one_path.mispredictions() < 2000 / 2);
        assert_eq!(one_path.machine.paths.len(), 1);
    }

    #[test]
    fn longer_paths_win_over_shorter() {
        // Branch 2 computes XOR of branches 0 and 1: no single path (and no
        // length-1 path at all) can make it predictable; the four length-2
        // paths resolve it exactly.
        let mut t = Trace::new();
        let mut x = 9u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let a = x >> 20 & 1 == 1;
            let b = x >> 21 & 1 == 1;
            t.push(ev(0, a));
            t.push(ev(1, b));
            t.push(ev(2, a ^ b));
        }
        let mut cands = HashMap::new();
        cands.insert(
            BranchId(2),
            vec![
                vec![step(1, true)],
                vec![step(1, false)],
                vec![step(0, true), step(1, true)],
                vec![step(0, false), step(1, true)],
                vec![step(0, true), step(1, false)],
                vec![step(0, false), step(1, false)],
            ],
        );
        let profiles = profile_paths(&t, &cands);
        let five = profiles[&BranchId(2)].select(5);
        assert_eq!(five.mispredictions(), 0, "full length-2 path set is exact");
        let two = profiles[&BranchId(2)].select(2);
        assert!(two.mispredictions() > 0, "XOR defeats a single path");
        assert!(two.mispredictions() < 3000 / 2);
    }

    #[test]
    fn path_matching_is_suffix_anchored() {
        let m = CorrelatedMachine {
            paths: vec![(vec![step(0, true), step(1, false)], false)],
            catch_all: true,
        };
        // Exact suffix matches.
        assert!(!m.predict(&[(BranchId(0), true), (BranchId(1), false)]));
        // Longer context still matches the suffix.
        assert!(!m.predict(&[
            (BranchId(5), true),
            (BranchId(0), true),
            (BranchId(1), false)
        ]));
        // Wrong order or direction falls to catch-all.
        assert!(m.predict(&[(BranchId(1), false), (BranchId(0), true)]));
        assert!(m.predict(&[(BranchId(0), true), (BranchId(1), true)]));
        assert!(m.predict(&[]));
    }

    #[test]
    fn more_states_never_increase_mispredictions() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let p = &profiles[&BranchId(1)];
        let mut prev = u64::MAX;
        for n in 1..=4 {
            let r = p.select(n);
            assert!(r.mispredictions() <= prev);
            prev = r.mispredictions();
        }
    }
}
