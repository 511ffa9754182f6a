//! Correlated-path profiling: `profile_paths` (one Aho–Corasick automaton
//! over every site's candidates) must equal the trie-walk oracle in
//! `common::path_profile_oracle` on the benchmark suite, on random loop
//! programs, on random candidate sets over random traces, and on the
//! hand-built corner cases of the automaton construction.

mod common;

use std::collections::HashMap;

use brepl::workloads::{all_workloads, Scale};
use brepl_cfg::PathStep;
use brepl_core::correlated::{profile_paths, PathProfile};
use brepl_ir::BranchId;
use brepl_trace::{Trace, TraceEvent};
use common::path_profile_oracle::{module_candidates, reference_profile_paths};
use common::Gen;

type Candidates = HashMap<BranchId, Vec<Vec<PathStep>>>;

fn step(site: u32, taken: bool) -> PathStep {
    PathStep {
        site: BranchId(site),
        taken,
    }
}

fn trace_of(events: &[(u32, bool)]) -> Trace {
    events
        .iter()
        .map(|&(site, taken)| TraceEvent {
            site: BranchId(site),
            taken,
        })
        .collect()
}

/// Asserts `profile_paths` equals the oracle and returns its profiles.
fn assert_matches_oracle(
    trace: &Trace,
    candidates: &Candidates,
    what: &str,
) -> HashMap<BranchId, PathProfile> {
    let fast = profile_paths(trace, candidates);
    let reference = reference_profile_paths(trace, candidates);
    assert_eq!(
        fast.len(),
        reference.len(),
        "{what}: profiled site sets differ"
    );
    for (site, profile) in &reference {
        assert_eq!(
            fast.get(site),
            Some(profile),
            "{what}: site {site} profiles differ"
        );
    }
    fast
}

/// Mispredictions removed by the best `n`-state path machines over all
/// profiled sites: non-zero means the profile attributed executions to
/// candidates, not only to the catch-all.
fn path_gain(profiles: &HashMap<BranchId, PathProfile>, n: usize) -> u64 {
    profiles
        .values()
        .map(|p| p.select(1).mispredictions() - p.select(n).mispredictions())
        .sum()
}

#[test]
fn automaton_matches_trie_walk_on_every_workload() {
    let mut gain = 0;
    for w in all_workloads(Scale::Small) {
        let trace = w.run().unwrap_or_else(|e| panic!("{}: {e}", w.name)).trace;
        let stats = trace.stats();
        for n in [4usize, 8] {
            let candidates = module_candidates(&w.module, &stats, n - 1);
            let what = format!("{} n={n}", w.name);
            gain += path_gain(&assert_matches_oracle(&trace, &candidates, &what), n);
        }
    }
    assert!(gain > 0, "no workload profiled a useful path");
}

#[test]
fn automaton_matches_trie_walk_on_random_loops() {
    let mut g = Gen::new(0x9A7E);
    for case in 0..24 {
        let seed = g.next();
        let diamonds = (case % 6) + 1;
        let trip = 20 + (g.below(5) as i64) * 15;
        let module = common::random_loop_module(seed, diamonds, trip);
        let trace = brepl_sim::Machine::new(&module, brepl_sim::RunConfig::default())
            .and_then(|mut m| m.run("main", &[]))
            .expect("random loop modules run")
            .trace;
        let stats = trace.stats();
        for max_decisions in [1usize, 3, 6] {
            let candidates = module_candidates(&module, &stats, max_decisions);
            let what = format!("seed={seed} diamonds={diamonds} trip={trip} len={max_decisions}");
            assert_matches_oracle(&trace, &candidates, &what);
        }
    }
}

/// Random candidate sets over random traces on a small alphabet, so
/// candidates overlap, share prefixes and suffixes across sites, and name
/// sites the trace never reaches.
#[test]
fn automaton_matches_trie_walk_on_random_candidates() {
    let mut g = Gen::new(0xC0DE);
    for case in 0..200 {
        let sites = 2 + g.below(6) as u32;
        let len = g.below(400) as usize;
        let events: Vec<(u32, bool)> = (0..len)
            .map(|_| (g.below(u64::from(sites)) as u32, g.below(3) != 0))
            .collect();
        let mut candidates = Candidates::new();
        for _ in 0..g.below(5) {
            let site = BranchId(g.below(u64::from(sites) + 2) as u32);
            let paths = (0..g.below(6))
                .map(|_| {
                    (0..g.below(5))
                        .map(|_| step(g.below(u64::from(sites) + 1) as u32, g.below(2) == 0))
                        .collect()
                })
                .collect();
            candidates.insert(site, paths);
        }
        assert_matches_oracle(&trace_of(&events), &candidates, &format!("case {case}"));
    }
}

const A: (u32, bool) = (0, true);
const B: (u32, bool) = (1, true);
const C: (u32, bool) = (2, true);

fn path(steps: &[(u32, bool)]) -> Vec<PathStep> {
    steps.iter().map(|&(s, t)| step(s, t)).collect()
}

/// One profiled execution: its longest matching candidate, as
/// `(site, taken)` steps, and its outcome.
type Execution<'a> = (Option<&'a [(u32, bool)]>, bool);

/// The expected profile of one site: its candidates, and its executions
/// in trace order.
fn expected(paths: &[Vec<PathStep>], executions: &[Execution]) -> PathProfile {
    let mut profile = PathProfile::new(paths);
    for &(longest, taken) in executions {
        let g = longest.map(|p| {
            let p = path(p);
            profile
                .candidates()
                .iter()
                .position(|c| *c == p)
                .expect("expected match is a candidate")
        });
        profile.record(g, taken);
    }
    profile
}

#[test]
fn one_path_profiled_for_two_sites() {
    let shared = vec![path(&[A])];
    let candidates =
        Candidates::from([(BranchId(5), shared.clone()), (BranchId(6), shared.clone())]);
    let trace = trace_of(&[
        A,
        (5, true),
        A,
        (6, false),
        (5, false),
        B,
        (6, true),
        A,
        (5, true),
    ]);
    let got = profile_paths(&trace, &candidates);
    assert_eq!(
        got[&BranchId(5)],
        expected(
            &shared,
            &[(Some(&[A]), true), (None, false), (Some(&[A]), true)]
        )
    );
    assert_eq!(
        got[&BranchId(6)],
        expected(&shared, &[(Some(&[A]), false), (None, true)])
    );
    assert_matches_oracle(&trace, &candidates, "shared path");
}

/// `A B A` then `C`: the goto edge fails at `ABA`, and only the failure
/// link to `BA` reaches `BAC` — the longest candidate of site 5, while
/// site 6 (candidate `C`) matches at the same state.
#[test]
fn overlapping_candidates_follow_failure_links() {
    let x = vec![path(&[A, B, A]), path(&[B, A, C])];
    let y = vec![path(&[C])];
    let candidates = Candidates::from([(BranchId(5), x.clone()), (BranchId(6), y.clone())]);
    let trace = trace_of(&[
        A,
        B,
        A,
        C,
        (5, true),
        (6, false),
        A,
        B,
        A,
        (5, false),
        B,
        A,
        C,
        (6, true),
    ]);
    let got = profile_paths(&trace, &candidates);
    let bac: &[(u32, bool)] = &[B, A, C];
    let aba: &[(u32, bool)] = &[A, B, A];
    assert_eq!(
        got[&BranchId(5)],
        expected(&x, &[(Some(bac), true), (Some(aba), false)])
    );
    assert_eq!(
        got[&BranchId(6)],
        expected(&y, &[(None, false), (Some(&[C]), true)])
    );
    assert_matches_oracle(&trace, &candidates, "failure links");
}

#[test]
fn trace_shorter_than_the_longest_candidate() {
    let x = vec![path(&[C, B, A])];
    let candidates = Candidates::from([(BranchId(5), x.clone())]);
    for (events, want) in [
        (vec![(5, true)], expected(&x, &[(None, true)])),
        (vec![A, (5, false)], expected(&x, &[(Some(&[A]), false)])),
        (
            vec![B, A, (5, true)],
            expected(&x, &[(Some(&[B, A]), true)]),
        ),
    ] {
        let trace = trace_of(&events);
        assert_eq!(profile_paths(&trace, &candidates)[&BranchId(5)], want);
        assert_matches_oracle(&trace, &candidates, "short trace");
    }
}

/// Sites in no candidate break a match; sites beyond every table (here
/// 40) are neither symbols nor profiled.
#[test]
fn events_at_sites_in_no_pattern_reset_the_match() {
    let x = vec![path(&[B, A])];
    let candidates = Candidates::from([(BranchId(5), x.clone())]);
    let trace = trace_of(&[
        B,
        (9, true),
        A,
        (5, true),
        B,
        A,
        (40, false),
        (5, false),
        B,
        A,
        (5, true),
    ]);
    assert_eq!(
        profile_paths(&trace, &candidates)[&BranchId(5)],
        expected(
            &x,
            &[(Some(&[A]), true), (None, false), (Some(&[B, A]), true)]
        )
    );
    assert_matches_oracle(&trace, &candidates, "unpatterned sites");
}

/// Candidates and profiled sites past the trace's largest site: their
/// table slots exist but no trace word reaches them.
#[test]
fn candidates_past_the_trace_max_site() {
    let x = vec![path(&[(100, true), A]), path(&[(101, false)])];
    let candidates =
        Candidates::from([(BranchId(5), x.clone()), (BranchId(200), vec![path(&[A])])]);
    let trace = trace_of(&[A, (5, true), B, (5, false)]);
    assert_eq!(trace.max_site(), Some(BranchId(5)));
    let got = profile_paths(&trace, &candidates);
    assert_eq!(
        got[&BranchId(5)],
        expected(&x, &[(Some(&[A]), true), (None, false)])
    );
    assert_eq!(got[&BranchId(200)].total(), 0);
    assert_matches_oracle(&trace, &candidates, "candidates past max_site");
}

#[test]
fn empty_candidates() {
    let trace = trace_of(&[A, B, (5, true), C]);
    assert!(profile_paths(&trace, &Candidates::new()).is_empty());
    assert_matches_oracle(&trace, &Candidates::new(), "empty map");
    // A site with no paths, or only empty ones, profiles every execution
    // into the catch-all.
    let candidates = Candidates::from([(BranchId(5), vec![]), (BranchId(1), vec![vec![]])]);
    let got = profile_paths(&trace, &candidates);
    assert_eq!(got[&BranchId(5)], expected(&[], &[(None, true)]));
    assert_eq!(got[&BranchId(1)], expected(&[], &[(None, true)]));
    assert_matches_oracle(&trace, &candidates, "empty paths");
    assert!(profile_paths(&Trace::new(), &candidates)
        .values()
        .all(|p| p.total() == 0));
}
