//! The pipeline selects through `select_strategies_with_stats`, handing it
//! the profiling trace's counts; the public `select_strategies_classified`
//! counts the trace itself. Both must return the same selection and skip
//! count on every workload, with and without a classification.

use brepl::pipeline::PipelineConfig;
use brepl::workloads::{all_workloads, Scale};
use brepl_analysis::classify_module;
use brepl_core::{memo, select_strategies_classified, select_strategies_with_stats};

#[test]
fn stats_taking_selection_equals_self_counting_selection() {
    let max_states = PipelineConfig::default().max_states;
    for w in all_workloads(Scale::Small) {
        let trace = w.run().unwrap_or_else(|e| panic!("{}: {e}", w.name)).trace;
        let stats = trace.stats();
        let cls = classify_module(&w.module);
        for classification in [Some(&cls), None] {
            // Clear the whole-selection memo before each call, so each
            // call runs its own search instead of reading the other's.
            memo::clear();
            let own = select_strategies_classified(&w.module, &trace, max_states, classification);
            memo::clear();
            let given =
                select_strategies_with_stats(&w.module, &trace, &stats, max_states, classification);
            assert_eq!(
                own,
                given,
                "{} (classified: {})",
                w.name,
                classification.is_some()
            );
        }
    }
}
