//! Static misprediction bound and code-size cost of a replication.
//!
//! The history fixpoint of [`crate::solve_site_product`] tells us *which*
//! machine states reach each replica; folding the profiled branch
//! frequencies through the same product tells us *how often* each pinned
//! prediction is wrong. [`replay_static`] performs that fold by replaying
//! the profiling trace through the replicated control flow: the trace fixes
//! the outcome of every conditional branch, so the walk deterministically
//! traverses exactly the product path the training run would, charging a
//! miss wherever the pinned prediction at the replica branch disagrees with
//! the recorded outcome. [`static_cost`] folds the per-replica counts back
//! to the original sites.
//!
//! Because the fold is exact over the training trace, the computed bound
//! equals the simulator-measured misprediction count on the same input —
//! making `bound == simulated` a differential invariant the test suite and
//! the `staticcheck` bench binary both enforce, and letting the pipeline's
//! refinement rounds score a candidate without simulating it. Like
//! [`crate::check_history`], the replay never touches the replica-map
//! witness: it needs only the shipped module, branch provenance, the pinned
//! [`StaticPrediction`] and the profiling [`Trace`].
//!
//! The replay is compiled: every place the walk can resume — a block
//! start, or the instruction after a call — is resolved once, following
//! `Jmp` chains and skipping straight-line instructions, to the next point
//! where the trace or the call stack decides what happens (a branch, a
//! call, a return, or a structural error). The walk then costs one table
//! lookup per trace event plus one per call and return.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use brepl_ir::{BlockId, BranchId, FuncId, Inst, Module, Term};
use brepl_predict::{Report, StaticPrediction};
use brepl_trace::Trace;

/// Instruction/terminator steps allowed between two branch events before
/// the replay declares the module corrupt (an event-free infinite loop can
/// only arise from a broken transform, never from a trace-faithful one).
const MAX_STEPS_BETWEEN_EVENTS: u64 = 1_000_000;

/// The static misprediction bound for one original branch site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteCost {
    /// The original (pre-replication) branch site.
    pub site: BranchId,
    /// How many times the site executed in the profiling trace.
    pub executions: u64,
    /// Upper bound on mispredictions the pinned predictions incur at this
    /// site over the profiling trace.
    pub bound: u64,
}

/// The static cost of a replication over one profiling trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CostReport {
    /// Per original-site bounds, in site order.
    pub sites: Vec<SiteCost>,
    /// Total branch events replayed.
    pub total_events: u64,
    /// Size of the original module in IR size units.
    pub original_size: usize,
    /// Size of the replicated module in IR size units.
    pub replicated_size: usize,
}

impl CostReport {
    /// Total misprediction bound across all sites.
    pub fn total_bound(&self) -> u64 {
        self.sites.iter().map(|s| s.bound).sum()
    }

    /// The bound as a percentage of executed branches.
    pub fn bound_percent(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            100.0 * self.total_bound() as f64 / self.total_events as f64
        }
    }

    /// Code-size growth of the replication in percent (0 = unchanged).
    pub fn size_growth_percent(&self) -> f64 {
        if self.original_size == 0 {
            0.0
        } else {
            100.0 * (self.replicated_size as f64 / self.original_size as f64 - 1.0)
        }
    }
}

/// Why a replay-based cost fold could not complete. Every variant means
/// the replicated module and the profiling trace disagree structurally —
/// itself a validation finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// The entry function does not exist in the replicated module.
    UnknownEntry(String),
    /// A `Call` targets a function that does not exist.
    UnknownCallee(String),
    /// The replay reached a conditional branch but the trace had no more
    /// events.
    TraceExhausted {
        /// Original site of the branch the replay was about to resolve.
        at_site: BranchId,
    },
    /// The replay finished but trace events remain — the replicated module
    /// executes fewer branches than the original did.
    TraceLeftover {
        /// Number of unconsumed events.
        remaining: usize,
    },
    /// A replica branch's provenance disagrees with the next trace event.
    SiteMismatch {
        /// Original site the replica claims to descend from.
        expected: BranchId,
        /// Site the trace recorded at this point.
        found: BranchId,
    },
    /// Too many steps without consuming an event: an event-free loop.
    Runaway,
    /// The replay reached a replica branch outside the provenance map, so
    /// it has no original site to check the trace against.
    MissingProvenance {
        /// The replicated-module site without an entry.
        replica: BranchId,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::UnknownEntry(name) => write!(f, "entry function `{name}` not found"),
            CostError::UnknownCallee(name) => write!(f, "call to unknown function `{name}`"),
            CostError::TraceExhausted { at_site } => write!(
                f,
                "trace exhausted: replay reached a branch of site {at_site} with no event left"
            ),
            CostError::TraceLeftover { remaining } => write!(
                f,
                "replay returned from entry with {remaining} trace events unconsumed"
            ),
            CostError::SiteMismatch { expected, found } => write!(
                f,
                "replay diverged: replica of site {expected} met a trace event for site {found}"
            ),
            CostError::Runaway => write!(
                f,
                "replay took {MAX_STEPS_BETWEEN_EVENTS} steps without reaching a branch"
            ),
            CostError::MissingProvenance { replica } => write!(
                f,
                "replay reached replica site {replica}, which has no provenance entry"
            ),
        }
    }
}

impl Error for CostError {}

/// Folds the profiling `trace` through the replicated control flow,
/// returning per-site misprediction bounds and the size growth.
///
/// `replicated` must carry dense branch sites (post-renumbering) with
/// `provenance` mapping them back to the original sites the `trace` was
/// recorded against; `predictions` are the pinned per-replica directions.
/// See [`replay_static`] for the walk itself.
///
/// # Errors
///
/// Returns a [`CostError`] when the trace and the replicated module
/// disagree structurally — which, for a trace recorded from the original
/// module, means the replication changed observable branching behavior.
pub fn static_cost(
    original: &Module,
    replicated: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    trace: &Trace,
    entry: &str,
) -> Result<CostReport, CostError> {
    let report = replay_static(replicated, provenance, predictions, trace, entry)?;
    let mut counts: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
    for (replica, executions, misses) in report.iter_sites() {
        // The walk only counts a replica after resolving its provenance.
        let site = counts.entry(provenance[replica.index()]).or_default();
        site.0 += executions;
        site.1 += misses;
    }
    Ok(CostReport {
        sites: counts
            .into_iter()
            .map(|(site, (executions, bound))| SiteCost {
                site,
                executions,
                bound,
            })
            .collect(),
        total_events: report.total(),
        original_size: original.size_units(),
        replicated_size: replicated.size_units(),
    })
}

/// Replays the profiling `trace` through the replicated control flow and
/// scores `predictions` per replica: the [`Report`] that
/// [`brepl_predict::evaluate_static`] would compute over the trace the
/// replicated module itself produces on the profiling input, whenever
/// that module branches exactly like the original did.
///
/// The replay starts at `entry`'s entry block and follows the trace's
/// branch outcomes, so it needs no operand values: direct calls push a
/// return frame, `Ret` pops it, and every conditional branch consumes the
/// next trace event, which must come from the branch's original site.
/// Structural errors are raised lazily — only where the walk reaches them.
///
/// # Errors
///
/// As [`static_cost`].
pub fn replay_static(
    replicated: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    trace: &Trace,
    entry: &str,
) -> Result<Report, CostError> {
    let program = ReplayProgram::compile(replicated, provenance, entry);
    let counts = program.run(trace)?;
    Ok(Report::from_counts(
        counts
            .into_iter()
            .enumerate()
            .map(|(r, [not_taken, taken])| {
                let misses = if predictions.get(BranchId::from_index(r)) {
                    not_taken
                } else {
                    taken
                };
                (not_taken + taken, misses)
            })
            .collect(),
    ))
}

/// What the walk meets at the end of a resume point's straight-line run.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// A conditional branch: the next trace event must come from
    /// `origin`; its outcome picks `next[taken]`.
    Br {
        replica: u32,
        origin: u32,
        next: [u32; 2],
    },
    /// A direct call: push `ret`, continue at the callee's entry.
    Call { callee: u32, ret: u32 },
    /// Return to the innermost frame, or finish on an empty stack.
    Ret,
    /// A structural error (index into [`ReplayProgram::errors`]), raised
    /// only if the walk gets here.
    Fail(u32),
}

/// One resume point: the stop it resolves to, and the instruction and
/// terminator steps the walk takes to get there (the stop included).
#[derive(Clone, Copy, Debug)]
struct Resume {
    stop: Stop,
    steps: u32,
}

/// A replicated module compiled for replay: one [`Resume`] per block
/// start and per return point.
struct ReplayProgram {
    points: Vec<Resume>,
    errors: Vec<CostError>,
    /// Resume point of the entry function's entry block.
    start: Result<u32, CostError>,
    /// Number of replica branch counters (max replica site + 1).
    replicas: usize,
}

/// Resume-point numbering and the error table, while compiling.
struct Compiler<'a> {
    module: &'a Module,
    provenance: &'a [BranchId],
    /// Resume point of each function's block 0; block starts are dense.
    block_base: Vec<u32>,
    /// Resume point of the instruction after each call.
    return_points: HashMap<(FuncId, BlockId, usize), u32>,
    errors: Vec<CostError>,
}

impl Compiler<'_> {
    fn block_rp(&self, fid: FuncId, bid: BlockId) -> u32 {
        self.block_base[fid.index()] + bid.0
    }

    fn entry_rp(&self, fid: FuncId) -> u32 {
        self.block_rp(fid, self.module.function(fid).entry)
    }

    fn fail(&mut self, e: CostError) -> Stop {
        self.errors.push(e);
        Stop::Fail(self.errors.len() as u32 - 1)
    }

    /// The straight-line run from instruction `ii` of `(fid, bid)`: the
    /// stop it ends at in this block, or `Err(target)` when the block
    /// jumps on to `target`; plus the steps taken.
    fn straight_line(
        &mut self,
        fid: FuncId,
        bid: BlockId,
        ii: usize,
    ) -> (Result<Stop, BlockId>, u32) {
        let module = self.module;
        let block = module.function(fid).block(bid);
        for (k, inst) in block.insts.iter().enumerate().skip(ii) {
            if let Inst::Call { callee, .. } = inst {
                let stop = match module.function_by_name(callee) {
                    Some(target) => Stop::Call {
                        callee: self.entry_rp(target),
                        ret: self.return_points[&(fid, bid, k + 1)],
                    },
                    None => self.fail(CostError::UnknownCallee(callee.clone())),
                };
                return (Ok(stop), (k - ii + 1) as u32);
            }
        }
        let steps = (block.insts.len() - ii + 1) as u32;
        let stop = match block.term {
            Term::Jmp { target } => return (Err(target), steps),
            Term::Br {
                site, then_, else_, ..
            } => match self.provenance.get(site.index()) {
                Some(origin) => Stop::Br {
                    replica: site.0,
                    origin: origin.0,
                    next: [self.block_rp(fid, else_), self.block_rp(fid, then_)],
                },
                None => self.fail(CostError::MissingProvenance { replica: site }),
            },
            Term::Ret { .. } => Stop::Ret,
        };
        (Ok(stop), steps)
    }
}

impl ReplayProgram {
    fn compile(module: &Module, provenance: &[BranchId], entry: &str) -> Self {
        // Block starts first (function by function), then return points.
        let mut c = Compiler {
            module,
            provenance,
            block_base: Vec::with_capacity(module.function_count()),
            return_points: HashMap::new(),
            errors: Vec::new(),
        };
        let mut n = 0u32;
        for (_, f) in module.iter_functions() {
            c.block_base.push(n);
            n += f.blocks.len() as u32;
        }
        let mut replicas = 0usize;
        for (fid, f) in module.iter_functions() {
            for (bid, block) in f.iter_blocks() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    if matches!(inst, Inst::Call { .. }) {
                        c.return_points.insert((fid, bid, ii + 1), n);
                        n += 1;
                    }
                }
                if let Term::Br { site, .. } = block.term {
                    replicas = replicas.max(site.index() + 1);
                }
            }
        }

        // Block starts: follow `Jmp` chains, memoizing every block a chain
        // passes through; a chain that closes on itself never branches
        // again, which is the walk's event-free loop.
        let mut resolved: Vec<Option<Resume>> = vec![None; n as usize];
        for (fid, f) in module.iter_functions() {
            for start in 0..f.blocks.len() {
                let mut chain: Vec<(u32, u32)> = Vec::new();
                let mut bid = BlockId::from_index(start);
                let end = loop {
                    let rp = c.block_rp(fid, bid);
                    if let Some(r) = resolved[rp as usize] {
                        break r;
                    }
                    if chain.iter().any(|&(seen, _)| seen == rp) {
                        break Resume {
                            stop: c.fail(CostError::Runaway),
                            steps: 0,
                        };
                    }
                    let (stop, steps) = c.straight_line(fid, bid, 0);
                    chain.push((rp, steps));
                    match stop {
                        Ok(stop) => break Resume { stop, steps: 0 },
                        Err(target) => bid = target,
                    }
                };
                // Unwind: each chain block adds its own steps in front of
                // everything after it.
                let mut acc = end;
                for &(rp, steps) in chain.iter().rev() {
                    acc.steps = acc.steps.saturating_add(steps);
                    resolved[rp as usize] = Some(acc);
                }
            }
        }
        // Return points resolve to the rest of their block, then through
        // the (already resolved) block starts.
        let mut rets: Vec<((FuncId, BlockId, usize), u32)> =
            c.return_points.iter().map(|(&at, &rp)| (at, rp)).collect();
        rets.sort_unstable_by_key(|&(_, rp)| rp);
        for ((fid, bid, ii), rp) in rets {
            let resume = match c.straight_line(fid, bid, ii) {
                (Ok(stop), steps) => Resume { stop, steps },
                (Err(target), steps) => {
                    let mut r = resolved[c.block_rp(fid, target) as usize]
                        .expect("every block start is resolved");
                    r.steps = r.steps.saturating_add(steps);
                    r
                }
            };
            resolved[rp as usize] = Some(resume);
        }

        ReplayProgram {
            points: resolved
                .into_iter()
                .map(|r| r.expect("every resume point is resolved"))
                .collect(),
            start: module
                .function_by_name(entry)
                .map(|fid| c.entry_rp(fid))
                .ok_or_else(|| CostError::UnknownEntry(entry.to_string())),
            errors: c.errors,
            replicas,
        }
    }

    /// Walks `trace` through the compiled table, returning per-replica
    /// `[not-taken, taken]` counts.
    fn run(&self, trace: &Trace) -> Result<Vec<[u64; 2]>, CostError> {
        let mut counts = vec![[0u64; 2]; self.replicas];
        let mut words = trace.packed().iter();
        let mut frames: Vec<u32> = Vec::new();
        let mut rp = self.start.clone()?;
        let mut steps_since_event = 0u64;
        loop {
            // By reference: `next[taken]` must stay a load from the table,
            // not from a stack copy, on the walk's critical path.
            let point = &self.points[rp as usize];
            steps_since_event += u64::from(point.steps);
            if steps_since_event > MAX_STEPS_BETWEEN_EVENTS {
                return Err(CostError::Runaway);
            }
            // Branches are most stops: test for them first rather than
            // dispatch through the full match.
            if let Stop::Br {
                replica,
                origin,
                ref next,
            } = point.stop
            {
                let Some(&word) = words.next() else {
                    return Err(CostError::TraceExhausted {
                        at_site: BranchId(origin),
                    });
                };
                if word >> 1 != origin {
                    return Err(CostError::SiteMismatch {
                        expected: BranchId(origin),
                        found: BranchId(word >> 1),
                    });
                }
                let taken = (word & 1) as usize;
                counts[replica as usize][taken] += 1;
                rp = next[taken];
                steps_since_event = 0;
                continue;
            }
            match point.stop {
                Stop::Call { callee, ret } => {
                    frames.push(ret);
                    rp = callee;
                }
                Stop::Ret => match frames.pop() {
                    Some(ret) => rp = ret,
                    None => break,
                },
                Stop::Fail(i) => return Err(self.errors[i as usize].clone()),
                Stop::Br { .. } => unreachable!("handled above"),
            }
        }
        let remaining = words.len();
        if remaining != 0 {
            return Err(CostError::TraceLeftover { remaining });
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};
    use brepl_trace::TraceEvent;

    /// `for i in 0..4 { }` with branch site 0: events T,T,T,N.
    fn counted_loop() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), Operand::imm(4));
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();
        m
    }

    fn loop_trace() -> Trace {
        let mut t = Trace::new();
        for taken in [true, true, true, true, false] {
            t.push(TraceEvent {
                site: BranchId(0),
                taken,
            });
        }
        t
    }

    #[test]
    fn unreplicated_replay_counts_minority() {
        let m = counted_loop();
        let provenance: Vec<BranchId> = vec![BranchId(0)];
        let mut p = StaticPrediction::with_default(true);
        p.set(BranchId(0), true);
        let report =
            static_cost(&m, &m, &provenance, &p, &loop_trace(), "main").expect("replay ok");
        assert_eq!(report.total_events, 5);
        assert_eq!(report.total_bound(), 1); // only the exit mispredicts
        assert_eq!(report.sites.len(), 1);
        assert_eq!(report.sites[0].executions, 5);
        assert_eq!(report.size_growth_percent(), 0.0);
        assert!((report.bound_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn trace_mismatches_are_reported() {
        let m = counted_loop();
        let provenance = vec![BranchId(0)];
        let p = StaticPrediction::with_default(true);

        let mut short = loop_trace();
        short.truncate(3);
        assert_eq!(
            static_cost(&m, &m, &provenance, &p, &short, "main"),
            Err(CostError::TraceExhausted {
                at_site: BranchId(0)
            })
        );

        let mut long = loop_trace();
        long.push(TraceEvent {
            site: BranchId(0),
            taken: false,
        });
        assert_eq!(
            static_cost(&m, &m, &provenance, &p, &long, "main"),
            Err(CostError::TraceLeftover { remaining: 1 })
        );

        let mut wrong_site = Trace::new();
        wrong_site.push(TraceEvent {
            site: BranchId(9),
            taken: true,
        });
        assert_eq!(
            static_cost(&m, &m, &provenance, &p, &wrong_site, "main"),
            Err(CostError::SiteMismatch {
                expected: BranchId(0),
                found: BranchId(9),
            })
        );

        assert_eq!(
            static_cost(&m, &m, &provenance, &p, &loop_trace(), "nope"),
            Err(CostError::UnknownEntry("nope".into()))
        );
    }

    #[test]
    fn replica_outside_provenance_is_a_typed_error() {
        let m = counted_loop();
        let p = StaticPrediction::with_default(true);
        assert_eq!(
            static_cost(&m, &m, &[], &p, &loop_trace(), "main"),
            Err(CostError::MissingProvenance {
                replica: BranchId(0)
            })
        );
        // Raised lazily: a walk that never reaches the branch succeeds.
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.reg();
        b.const_int(c, 1);
        let dead = b.new_block();
        let exit = b.new_block();
        b.jmp(exit);
        b.switch_to(dead);
        b.br(c, exit, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut unreached = Module::new();
        unreached.push_function(b.finish());
        let report = static_cost(&unreached, &unreached, &[], &p, &Trace::new(), "main")
            .expect("the branch without provenance is never reached");
        assert_eq!(report.total_events, 0);
    }

    #[test]
    fn replay_starts_at_the_entry_block() {
        // Block 0 holds the loop exit; the function enters at block 1.
        let mut m = counted_loop();
        let f = m.function_mut(FuncId(0));
        f.blocks.swap(0, 3);
        for block in &mut f.blocks {
            block.term.map_successors(|b| match b.0 {
                0 => BlockId(3),
                3 => BlockId(0),
                _ => b,
            });
        }
        f.entry = BlockId(3);
        let p = StaticPrediction::with_default(true);
        let report = static_cost(&m, &m, &[BranchId(0)], &p, &loop_trace(), "main")
            .expect("replay from the entry block");
        assert_eq!(report.total_bound(), 1);
    }

    /// `main` calls `f` twice mid-block; `f` branches once per call, and
    /// the second call's return point chains through a jump.
    #[test]
    fn calls_resume_after_the_call_site() {
        let mut f = FunctionBuilder::new("f", 1);
        let x = f.param(0);
        let c = f.lt(x.into(), Operand::imm(1));
        let yes = f.new_block();
        let no = f.new_block();
        f.br(c, yes, no);
        f.switch_to(yes);
        f.ret(None);
        f.switch_to(no);
        f.ret(None);
        let mut b = FunctionBuilder::new("main", 0);
        b.call(None, "f", vec![Operand::imm(0)]);
        b.call(None, "f", vec![Operand::imm(1)]);
        let exit = b.new_block();
        b.jmp(exit);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.push_function(f.finish());
        let mut trace = Trace::new();
        for taken in [true, false] {
            trace.push(TraceEvent {
                site: BranchId(0),
                taken,
            });
        }
        let p = StaticPrediction::with_default(true);
        let report = replay_static(&m, &[BranchId(0)], &p, &trace, "main").expect("replay");
        assert_eq!(report.site(BranchId(0)), (2, 1));

        trace.truncate(1);
        assert_eq!(
            replay_static(&m, &[BranchId(0)], &p, &trace, "main"),
            Err(CostError::TraceExhausted {
                at_site: BranchId(0)
            })
        );
        let mut missing = Module::new();
        missing.push_function(m.function(FuncId(0)).clone());
        assert_eq!(
            replay_static(&missing, &[], &p, &trace, "main"),
            Err(CostError::UnknownCallee("f".into()))
        );
    }

    #[test]
    fn event_free_loop_is_runaway_not_hang() {
        // main: b0 -> b1 -> b1 (jmp self) — no branches, never returns.
        let mut b = FunctionBuilder::new("main", 0);
        let spin = b.new_block();
        b.jmp(spin);
        b.switch_to(spin);
        b.jmp(spin);
        let mut m = Module::new();
        m.push_function(b.finish());
        let p = StaticPrediction::with_default(true);
        assert_eq!(
            static_cost(&m, &m, &[], &p, &Trace::new(), "main"),
            Err(CostError::Runaway)
        );
    }
}
