//! Reference adaptive loop: the oracle for
//! [`brepl::pipeline::run_pipeline_adaptive`].
//!
//! Plans exactly like the driver, then observes segment by segment the
//! straightforward way: every segment re-simulates the current program
//! over the whole tape and re-runs the dynamic backstop, keeps only the
//! segment's slice, scores it with one hash probe per event and hands
//! the patcher a copied [`Trace`]. Built only from public APIs. The
//! driver, which simulates each distinct program once and folds through
//! dense tables, must match it bit for bit.

use std::collections::BTreeSet;

use brepl::core::{check_equivalence_outcomes, PatchRecord, Respec};
use brepl::ir::{BranchId, Module, Value};
use brepl::pipeline::{run_pipeline_profiled, AdaptiveConfig};
use brepl::sim::Machine;
use brepl::trace::Trace;
use brepl_analysis::{classify_module, AnalysisDiag};

/// Everything the oracle loop observed and decided.
pub struct OracleRun {
    /// Per segment: `(events, misprediction_percent.to_bits())`.
    pub segments: Vec<(u64, u64)>,
    pub patch_log: Vec<PatchRecord>,
    pub respec_diags: Vec<AnalysisDiag>,
    pub enabled_sites: BTreeSet<BranchId>,
    pub demoted_sites: BTreeSet<BranchId>,
    pub quarantined_sites: Vec<BranchId>,
    /// The finally shipped module.
    pub module: Module,
    /// `Debug` rendering of the adaptive-layer chaos injection, if any.
    pub injection: Option<String>,
}

/// Runs the reference adaptive loop. Panics on any pipeline error: the
/// oracle is only driven over scenarios the driver ships.
pub fn adaptive_oracle(
    module: &Module,
    args: &[Value],
    segments: &[Vec<Value>],
    config: AdaptiveConfig,
) -> OracleRun {
    let mut machine = Machine::new(module, config.pipeline.run).unwrap();
    machine.set_input(segments[0].clone());
    let profile = machine.run("main", args).unwrap();
    let profile_output = machine.output().to_vec();
    let plan_stats = profile.trace.stats();

    #[allow(unused_mut)]
    let mut plan_config = config.pipeline;
    #[cfg(feature = "chaos")]
    let mut engine = {
        use brepl::core::chaos::{ChaosEngine, ChaosPoint};
        match plan_config.chaos {
            Some(cc) if matches!(cc.point, ChaosPoint::InjectDrift | ChaosPoint::CorruptPatch) => {
                plan_config.chaos = None;
                Some(ChaosEngine::new(cc))
            }
            _ => None,
        }
    };
    let plan = run_pipeline_profiled(
        module,
        args,
        &segments[0],
        &profile,
        &profile_output,
        plan_config,
    )
    .unwrap();
    let proved: Vec<(BranchId, bool)> = if config.pipeline.classify {
        classify_module(module).proved_sites()
    } else {
        Vec::new()
    };
    let mut respec = Respec::new(
        module,
        &plan.selection,
        &plan.replicated_sites,
        &plan_stats,
        &proved,
        config.respec,
    )
    .unwrap();
    #[cfg(feature = "chaos")]
    let patchable: Vec<BranchId> = {
        let proved_sites: BTreeSet<BranchId> = proved.iter().map(|&(s, _)| s).collect();
        (0..module.branch_count())
            .map(BranchId::from_index)
            .filter(|&s| plan_stats.site(s).total() > 0 && !proved_sites.contains(&s))
            .collect()
    };

    let input: Vec<Value> = segments.iter().flatten().cloned().collect();
    let bounds: Vec<usize> = segments
        .iter()
        .scan(0usize, |acc, seg| {
            *acc += seg.len();
            Some(*acc)
        })
        .collect();
    let mut reference = Machine::new(module, config.pipeline.run).unwrap();
    reference.set_input(input.clone());
    let ref_outcome = reference.run("main", args).unwrap();
    let ref_output = reference.output().to_vec();

    let mut measured = Vec::with_capacity(segments.len());
    for k in 0..segments.len() {
        let mut m2 = Machine::new(&respec.program().module, config.pipeline.run).unwrap();
        m2.set_input(input.clone());
        let (outcome2, marks) = m2.run_segmented("main", args, &bounds).unwrap();
        if config.pipeline.dynamic_backstop {
            check_equivalence_outcomes(
                respec.program(),
                &ref_outcome,
                &ref_output,
                &outcome2,
                m2.output(),
            )
            .unwrap();
        }
        let start = if k == 0 { 0 } else { marks[k - 1] };
        let end = if k + 1 == segments.len() {
            outcome2.trace.len()
        } else {
            marks[k]
        };
        let mut slice = Trace::with_capacity(end - start);
        let mut misses = 0u64;
        for ev in outcome2.trace.iter().skip(start).take(end - start) {
            if respec.program().predictions.get(ev.site) != ev.taken {
                misses += 1;
            }
            slice.push(ev);
        }
        let events = slice.len() as u64;
        let pct = if events == 0 {
            0.0
        } else {
            100.0 * misses as f64 / events as f64
        };
        measured.push((events, pct.to_bits()));

        #[cfg(feature = "chaos")]
        let slice = match &mut engine {
            Some(eng) if k >= 1 => eng
                .inject_drift(&slice, &patchable, &respec.program().provenance)
                .unwrap_or(slice),
            _ => slice,
        };
        let patches = respec.observe(k, slice.packed());
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut engine {
            let committed = patches
                .iter()
                .find(|r| r.outcome == brepl::core::PatchOutcome::Committed)
                .map(|r| r.site);
            if let Some(site) = committed {
                eng.corrupt_patch(respec.program_mut(), site);
            }
        }
        #[cfg(not(feature = "chaos"))]
        let _ = patches;
    }

    #[cfg(feature = "chaos")]
    let injection = engine
        .and_then(|e| e.into_injection())
        .map(|inj| format!("{inj:?}"));
    #[cfg(not(feature = "chaos"))]
    let injection = None;
    let enabled_sites = respec.enabled_sites().clone();
    let demoted_sites = respec.demoted_sites().clone();
    let quarantined_sites = respec.quarantined_sites();
    let (program, patch_log, respec_diags) = respec.into_parts();
    OracleRun {
        segments: measured,
        patch_log,
        respec_diags,
        enabled_sites,
        demoted_sites,
        quarantined_sites,
        module: program.module,
        injection,
    }
}
