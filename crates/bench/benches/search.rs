//! Benchmarks (std-only harness): state-machine search cost — the
//! exhaustive intra-loop antichain search, the exit-chain scoring and the
//! correlated path profiling and selection. These dominate compile-time
//! cost in a production deployment of the technique.
//!
//! Path profiling is reported per trace event as well, for the library's
//! automaton and for the trie walk the tests hold it to, on a synthetic
//! trace and on each workload's small-scale trace with the candidate paths
//! the pipeline's default 4-state selection profiles.

use std::collections::HashMap;

use brepl_bench::timing::{bench, bench_time};
use brepl_cfg::PathStep;
use brepl_core::correlated::profile_paths;
use brepl_core::intra_loop::IntraLoopSearch;
use brepl_core::loop_exit::best_exit_machine;
use brepl_ir::BranchId;
use brepl_predict::{HistoryKind, PatternTableSet};
use brepl_trace::{Trace, TraceEvent};
use brepl_workloads::{all_workloads, Scale};

/// The trie-walk reference profiler and the pipeline's candidate paths.
#[path = "../../../tests/common/path_profile_oracle.rs"]
#[allow(dead_code)]
mod path_profile_oracle;

use path_profile_oracle::{module_candidates, reference_profile_paths};

/// Times path profiling of `trace` by the automaton and by the trie walk,
/// reporting each as wall time and ns per trace event.
fn bench_profile_paths(
    name: &str,
    trace: &Trace,
    candidates: &HashMap<BranchId, Vec<Vec<PathStep>>>,
) {
    let events = trace.len().max(1) as f64;
    for (kernel, samples) in [
        (
            "",
            bench(&format!("profile-paths{name}"), || {
                profile_paths(trace, candidates)
            }),
        ),
        (
            "/trie-walk",
            bench(&format!("profile-paths{name}/trie-walk"), || {
                reference_profile_paths(trace, candidates)
            }),
        ),
    ] {
        samples.report(None);
        println!(
            "{:<44} {:>9.2} ns/event",
            format!("profile-paths{name}{kernel}"),
            samples.median().as_nanos() as f64 / events
        );
    }
}

fn periodic_trace(period: usize, n: usize) -> Trace {
    (0..n)
        .map(|i| TraceEvent {
            site: BranchId(0),
            taken: i % period != period - 1,
        })
        .collect()
}

fn main() {
    let trace = periodic_trace(7, 50_000);
    let tables = PatternTableSet::build(&trace, HistoryKind::Local, 9);
    let table = tables.site(BranchId(0)).expect("site exists").clone();

    println!("intra-loop-search (period-7 trace, 50k events)");
    for max_states in [4usize, 6, 8, 10] {
        let search = IntraLoopSearch::new(max_states, 9);
        bench_time(&format!("search/{max_states}-states"), || {
            search.search(&table)
        });
    }
    bench_time("antichain-enumeration-10", || IntraLoopSearch::new(10, 9));

    let exit_trace = periodic_trace(9, 50_000);
    let exit_tables = PatternTableSet::build(&exit_trace, HistoryKind::Local, 9);
    let exit_table = exit_tables.site(BranchId(0)).expect("site exists").clone();
    let outcomes: brepl_trace::PackedStream = exit_trace.iter().map(|e| e.taken).collect();
    bench_time("exit-machine-search-10", || {
        best_exit_machine(10, &exit_table, &outcomes)
    });

    // Two interleaved correlated branches.
    let mut corr = Trace::new();
    let mut x = 5u64;
    for _ in 0..25_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let d = x >> 30 & 1 == 1;
        corr.push(TraceEvent {
            site: BranchId(0),
            taken: d,
        });
        corr.push(TraceEvent {
            site: BranchId(1),
            taken: d ^ (x >> 31 & 1 == 1),
        });
    }
    let mut candidates: HashMap<BranchId, Vec<Vec<PathStep>>> = HashMap::new();
    candidates.insert(
        BranchId(1),
        vec![
            vec![PathStep {
                site: BranchId(0),
                taken: true,
            }],
            vec![PathStep {
                site: BranchId(0),
                taken: false,
            }],
        ],
    );

    println!("correlated (50k interleaved events)");
    bench_profile_paths("", &corr, &candidates);
    let profiles = profile_paths(&corr, &candidates);
    bench_time("greedy-select-4", || profiles[&BranchId(1)].select(4));

    println!("correlated (workload traces, small scale, paths of 3 decisions)");
    for w in all_workloads(Scale::Small) {
        let trace = w.run().expect("workloads run").trace;
        let candidates = module_candidates(&w.module, &trace.stats(), 3);
        bench_profile_paths(&format!("/{}", w.name), &trace, &candidates);
    }
}
