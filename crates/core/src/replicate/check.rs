//! Dynamic semantic-equivalence checking between an original module and
//! its replicated version: replication must change *where* branches live,
//! not what the program does.
//!
//! This is the *backstop* behind the static translation validator
//! ([`brepl_analysis::validate_replication`]), which proves the simulation
//! relation on every block without executing anything. One concrete run
//! here still catches whatever a wrong witness map could hide.

use std::fmt;

use brepl_ir::{Module, Value};
use brepl_sim::{Machine, Outcome, RunConfig, RunError};
use brepl_trace::Trace;

use super::ReplicatedProgram;

/// An observed difference between original and replicated program.
#[derive(Clone, Debug, PartialEq)]
pub enum EquivalenceError {
    /// One of the runs trapped.
    Trap(String),
    /// Return values differ.
    ResultMismatch {
        /// Original program's result.
        original: Option<Value>,
        /// Replicated program's result.
        replicated: Option<Value>,
    },
    /// Output tapes differ.
    OutputMismatch,
    /// The replicated program executed *more* instructions — replication
    /// only relocates instructions, and the post-replication jump
    /// threading can only remove executed jumps, never add work.
    StepMismatch {
        /// Original step count.
        original: u64,
        /// Replicated step count.
        replicated: u64,
    },
    /// The per-original-site branch outcome counts differ (checked through
    /// the provenance map).
    BranchHistogramMismatch,
    /// The histograms agree, but the replicated run's branch events,
    /// folded through the provenance map, differ from the original run's
    /// in order.
    BranchSequenceMismatch {
        /// Index of the first differing event.
        index: usize,
    },
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::Trap(e) => write!(f, "a run trapped: {e}"),
            EquivalenceError::ResultMismatch {
                original,
                replicated,
            } => write!(f, "results differ: {original:?} vs {replicated:?}"),
            EquivalenceError::OutputMismatch => write!(f, "output tapes differ"),
            EquivalenceError::StepMismatch {
                original,
                replicated,
            } => write!(f, "step counts differ: {original} vs {replicated}"),
            EquivalenceError::BranchHistogramMismatch => {
                write!(f, "per-site branch histograms differ")
            }
            EquivalenceError::BranchSequenceMismatch { index } => {
                write!(f, "branch event sequences differ at event {index}")
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Runs both programs on the same input and verifies result, output tape
/// and the branch trace all match — per original site, then event for
/// event through the provenance map — and that the replicated program
/// executes no more instructions than the original.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found.
pub fn check_equivalence(
    original: &Module,
    replicated: &ReplicatedProgram,
    entry: &str,
    args: &[Value],
    input: &[Value],
) -> Result<(), EquivalenceError> {
    let run = |module: &Module| -> Result<_, RunError> {
        let mut m = Machine::new(module, RunConfig::default())?;
        m.set_input(input.to_vec());
        let outcome = m.run(entry, args)?;
        Ok((outcome, m.output().to_vec()))
    };
    let (a, a_out) = run(original).map_err(|e| EquivalenceError::Trap(e.to_string()))?;
    let (b, b_out) = run(&replicated.module).map_err(|e| EquivalenceError::Trap(e.to_string()))?;
    check_equivalence_outcomes(replicated, &a, &a_out, &b, &b_out)
}

/// [`check_equivalence`] on already-measured runs.
///
/// Callers that have just executed both programs (the pipeline profiles
/// the original and simulates the program it ships once) pass the
/// outcomes and output tapes here instead of paying two more full-length
/// simulations — execution is deterministic, so the verdict is identical
/// either way.
///
/// The trace check is exact: the replicated trace folded through
/// `provenance` must equal the original trace event for event. That
/// equality is what makes [`brepl_analysis::replay_static`] of the
/// original trace through the replicated module agree with scoring the
/// replicated program's own trace.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found.
pub fn check_equivalence_outcomes(
    replicated: &ReplicatedProgram,
    original_outcome: &Outcome,
    original_output: &[Value],
    replicated_outcome: &Outcome,
    replicated_output: &[Value],
) -> Result<(), EquivalenceError> {
    let (a, b) = (original_outcome, replicated_outcome);
    if a.result != b.result {
        return Err(EquivalenceError::ResultMismatch {
            original: a.result,
            replicated: b.result,
        });
    }
    if original_output != replicated_output {
        return Err(EquivalenceError::OutputMismatch);
    }
    if b.steps > a.steps {
        return Err(EquivalenceError::StepMismatch {
            original: a.steps,
            replicated: b.steps,
        });
    }
    match first_divergence(&a.trace, &b.trace, &replicated.provenance) {
        None => Ok(()),
        Some(_) if !histograms_match(&a.trace, &b.trace, &replicated.provenance) => {
            Err(EquivalenceError::BranchHistogramMismatch)
        }
        Some(index) => Err(EquivalenceError::BranchSequenceMismatch { index }),
    }
}

/// Index of the first event where the replicated trace, folded through
/// `provenance`, differs from the original trace (a length difference
/// counts as a divergence at the shorter length). One pass over both
/// packed traces.
fn first_divergence(
    original: &Trace,
    replicated: &Trace,
    provenance: &[brepl_ir::BranchId],
) -> Option<usize> {
    let (a, b) = (original.packed(), replicated.packed());
    let folded = b.iter().map(|&p| {
        provenance
            .get((p >> 1) as usize)
            .map(|orig| orig.0 << 1 | (p & 1))
    });
    a.iter()
        .zip(folded)
        .position(|(&o, r)| r != Some(o))
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// Compares per-original-site `(taken, not-taken)` histograms, the
/// replicated side folded through `provenance`. One branch-free pass over
/// each packed trace into dense per-site arrays — no per-event hashing.
fn histograms_match(
    original: &Trace,
    replicated: &Trace,
    provenance: &[brepl_ir::BranchId],
) -> bool {
    let n_sites = original
        .max_site()
        .map_or(0, |s| s.index() + 1)
        .max(provenance.iter().map(|p| p.index() + 1).max().unwrap_or(0));
    let mut orig_hist = vec![[0u64; 2]; n_sites];
    for &p in original.packed() {
        orig_hist[(p >> 1) as usize][(p & 1) as usize] += 1;
    }
    let mut repl_hist = vec![[0u64; 2]; n_sites];
    for &p in replicated.packed() {
        let Some(orig) = provenance.get((p >> 1) as usize) else {
            // A replicated site outside the provenance map cannot have an
            // original counterpart; the histograms cannot match.
            return false;
        };
        repl_hist[orig.index()][(p & 1) as usize] += 1;
    }
    orig_hist == repl_hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{apply_plan, ReplicationPlan};
    use brepl_ir::{FunctionBuilder, Operand};

    fn loop_module(step: i64) -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(step));
        b.jmp(head);
        b.switch_to(exit);
        b.out(i.into());
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn identical_modules_are_equivalent() {
        let m = loop_module(1);
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap();
    }

    #[test]
    fn detects_result_mismatch() {
        let m = loop_module(1);
        let other = loop_module(3);
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let mut program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        program.module = other;
        // step=3 overshoots to 12 instead of 10.
        let err = check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap_err();
        assert!(matches!(err, EquivalenceError::ResultMismatch { .. }));
    }

    /// Provenance that swaps two sites with equal histograms: every
    /// per-site count still matches, but the folded event order does not.
    #[test]
    fn detects_reordered_branch_sequence() {
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.reg();
        b.const_int(c, 1);
        let second = b.new_block();
        let exit = b.new_block();
        b.br(c, second, second);
        b.switch_to(second);
        b.br(c, exit, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let run = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        let mut program = apply_plan(&m, &ReplicationPlan::new(), &run.trace.stats()).unwrap();
        check_equivalence(&m, &program, "main", &[], &[]).unwrap();
        program.provenance.reverse();
        let err = check_equivalence(&m, &program, "main", &[], &[]).unwrap_err();
        assert_eq!(err, EquivalenceError::BranchSequenceMismatch { index: 0 });
    }

    #[test]
    fn detects_extra_work() {
        // A module doing strictly more steps with identical observables.
        let m = loop_module(1);
        let mut padded = loop_module(1);
        // Inject a harmless extra instruction into the loop body.
        let fid = padded.function_by_name("main").unwrap();
        let f = padded.function_mut(fid);
        let spare = brepl_ir::Reg(f.n_regs);
        f.n_regs += 1;
        f.blocks[2].insts.push(brepl_ir::Inst::Copy {
            dst: spare,
            src: brepl_ir::Operand::imm(0),
        });
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let mut program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        program.module = padded;
        let err = check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap_err();
        assert!(matches!(err, EquivalenceError::StepMismatch { .. }));
    }
}
