//! Reference replay walker: the oracle for `brepl_analysis::replay_static`.
//!
//! Walks the replicated module one instruction at a time, exactly as an
//! interpreter would, but steers every conditional branch by the next
//! profiling-trace event instead of by operand values. The compiled
//! replay must return the same per-replica counts and the same
//! `CostError`s; this walker is slow and obviously right.
//!
//! Shared by the integration tests (through `tests/common`) and the
//! release `fuzz` bin, which includes this file by path.

use brepl_analysis::CostError;
use brepl_ir::{BranchId, FuncId, Inst, Module, Term};
use brepl_predict::{Report, StaticPrediction};
use brepl_trace::Trace;

/// Steps allowed between two branch events (mirrors the compiled replay).
const MAX_STEPS_BETWEEN_EVENTS: u64 = 1_000_000;

/// Per-replica `(executions, mispredictions)` of `predictions` over
/// `trace` replayed through `replicated` from `entry`.
pub fn reference_replay(
    replicated: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    trace: &Trace,
    entry: &str,
) -> Result<Report, CostError> {
    let entry_fid = replicated
        .function_by_name(entry)
        .ok_or_else(|| CostError::UnknownEntry(entry.to_string()))?;

    let mut report = Report::new();
    let mut events = trace.iter();
    let mut frames: Vec<(FuncId, brepl_ir::BlockId, usize)> = Vec::new();
    let mut fid = entry_fid;
    let mut bid = replicated.function(fid).entry;
    let mut ii = 0usize;
    let mut steps_since_event = 0u64;

    loop {
        steps_since_event += 1;
        if steps_since_event > MAX_STEPS_BETWEEN_EVENTS {
            return Err(CostError::Runaway);
        }
        let block = replicated.function(fid).block(bid);
        if let Some(inst) = block.insts.get(ii) {
            if let Inst::Call { callee, .. } = inst {
                let target = replicated
                    .function_by_name(callee)
                    .ok_or_else(|| CostError::UnknownCallee(callee.clone()))?;
                frames.push((fid, bid, ii + 1));
                fid = target;
                bid = replicated.function(fid).entry;
                ii = 0;
            } else {
                ii += 1;
            }
            continue;
        }
        match block.term {
            Term::Jmp { target } => {
                bid = target;
                ii = 0;
            }
            Term::Br {
                site, then_, else_, ..
            } => {
                let origin = *provenance
                    .get(site.index())
                    .ok_or(CostError::MissingProvenance { replica: site })?;
                let Some(ev) = events.next() else {
                    return Err(CostError::TraceExhausted { at_site: origin });
                };
                if ev.site != origin {
                    return Err(CostError::SiteMismatch {
                        expected: origin,
                        found: ev.site,
                    });
                }
                steps_since_event = 0;
                report.record(site, predictions.get(site) == ev.taken);
                bid = if ev.taken { then_ } else { else_ };
                ii = 0;
            }
            Term::Ret { .. } => match frames.pop() {
                Some((rf, rb, ri)) => {
                    fid = rf;
                    bid = rb;
                    ii = ri;
                }
                None => break,
            },
        }
    }

    let remaining = events.count();
    if remaining != 0 {
        return Err(CostError::TraceLeftover { remaining });
    }
    Ok(report)
}

/// Per-replica `(executions, mispredictions)` over executed replicas —
/// the comparable view of a [`Report`] (reports from different
/// evaluators may size their site arrays differently).
pub fn executed(report: &Report) -> Vec<(BranchId, u64, u64)> {
    report.iter_sites().collect()
}
