//! Differential testing of the static misprediction bound: the bound the
//! cost model derives by folding the profiling trace through the
//! replicated control flow must equal what the simulator measures, site
//! for site, on every workload and on the didactic Figure-1 CFG — the
//! replay is a faithful abstract execution, not an estimate. The compiled
//! replay is also held to the instruction-by-instruction reference walker
//! in `tests/common`.

mod common;

use std::collections::BTreeMap;

use brepl::core::machine::MachineState;
use brepl::core::replicate::{apply_plan, BranchMachine, ReplicationPlan};
use brepl::core::{HistPattern, StateMachine};
use brepl::ir::{parse_module, BranchId, FunctionBuilder, Module, Operand};
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::predict::{evaluate_static, StaticPrediction};
use brepl::sim::{Machine, RunConfig};
use brepl::trace::Trace;
use brepl::workloads::{all_workloads, Scale};
use brepl_analysis::{replay_static, static_cost};
use common::replay_oracle::{executed, reference_replay};

fn simulate(m: &Module, args: &[brepl::ir::Value], input: &[brepl::ir::Value]) -> Trace {
    let mut machine = Machine::new(m, RunConfig::default()).unwrap();
    machine.set_input(input.to_vec());
    machine.run("main", args).unwrap().trace
}

/// Per original site `(executions, misses)` of `predictions` over the
/// replicated program's own simulated trace.
fn simulated_per_site(
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    replicated_trace: &Trace,
) -> Vec<(BranchId, u64, u64)> {
    let mut folded: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
    for (replica, runs, misses) in evaluate_static(predictions, replicated_trace).iter_sites() {
        let e = folded.entry(provenance[replica.index()]).or_default();
        e.0 += runs;
        e.1 += misses;
    }
    folded.into_iter().map(|(s, (r, m))| (s, r, m)).collect()
}

#[test]
fn static_bound_equals_the_simulator_per_site_on_every_workload() {
    for w in all_workloads(Scale::Small) {
        let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name));
        let p = &r.program;
        let trace = simulate(&w.module, &w.args, &w.input);
        let report = static_cost(
            &w.module,
            &p.module,
            &p.provenance,
            &p.predictions,
            &trace,
            "main",
        )
        .unwrap_or_else(|e| panic!("{}: cost replay failed: {e}", w.name));
        let replicated_trace = simulate(&p.module, &w.args, &w.input);
        let bound: Vec<(BranchId, u64, u64)> = report
            .sites
            .iter()
            .map(|s| (s.site, s.executions, s.bound))
            .collect();
        assert_eq!(
            bound,
            simulated_per_site(&p.provenance, &p.predictions, &replicated_trace),
            "{}: static bound differs from the simulator per site",
            w.name
        );
        assert_eq!(
            report.bound_percent().to_bits(),
            r.replicated_misprediction_percent.to_bits(),
            "{}: static bound {:.4}% differs from the shipped {:.4}%",
            w.name,
            report.bound_percent(),
            r.replicated_misprediction_percent
        );

        let replayed = replay_static(&p.module, &p.provenance, &p.predictions, &trace, "main")
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", w.name));
        let reference = reference_replay(&p.module, &p.provenance, &p.predictions, &trace, "main")
            .unwrap_or_else(|e| panic!("{}: reference replay failed: {e}", w.name));
        assert_eq!(executed(&replayed), executed(&reference), "{}", w.name);
        assert_eq!(
            executed(&replayed),
            executed(&evaluate_static(&p.predictions, &replicated_trace)),
            "{}",
            w.name
        );
    }
}

/// Entry block other than block 0: the replay must start where the
/// simulator does.
#[test]
fn replay_honours_a_parsed_entry_block() {
    let src = "\
func @main(0) regs=2 entry=b2 {
b0:
  ret r0
b1:
  r0 = add r0, 1
  r1 = lt r0, 5
  br r1, b1, b0
b2:
  r0 = const 0
  jmp b1
}
";
    let m = parse_module(src).expect("parses");
    assert_eq!(m.function(m.function_by_name("main").unwrap()).entry.0, 2);
    let trace = simulate(&m, &[], &[]);
    assert_eq!(trace.len(), 5);
    let provenance: Vec<BranchId> = (0..m.branch_count()).map(BranchId::from_index).collect();
    let p = StaticPrediction::with_default(true);
    let report = static_cost(&m, &m, &provenance, &p, &trace, "main").expect("replay");
    assert_eq!(report.total_events, 5);
    assert_eq!(
        report
            .sites
            .iter()
            .map(|s| (s.site, s.executions, s.bound))
            .collect::<Vec<_>>(),
        simulated_per_site(&provenance, &p, &trace)
    );
    let replayed = replay_static(&m, &provenance, &p, &trace, "main").unwrap();
    let reference = reference_replay(&m, &provenance, &p, &trace, "main").unwrap();
    assert_eq!(executed(&replayed), executed(&reference));
}

/// The Figure-1 demo: a 16-iteration loop whose branch alternates, tamed
/// by a two-state flip-flop.
fn demo_module() -> Module {
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.reg();
    let acc = b.reg();
    b.const_int(i, 0);
    b.const_int(acc, 0);
    let head = b.new_block();
    let arm2 = b.new_block();
    let arm3 = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.jmp(head);
    b.switch_to(head);
    let r = b.reg();
    b.rem(r, i.into(), Operand::imm(2));
    let c = b.eq(r.into(), Operand::imm(0));
    b.br(c, arm2, arm3);
    b.switch_to(arm2);
    b.add(acc, acc.into(), Operand::imm(1));
    b.jmp(latch);
    b.switch_to(arm3);
    b.mul(acc, acc.into(), Operand::imm(2));
    b.jmp(latch);
    b.switch_to(latch);
    b.add(i, i.into(), Operand::imm(1));
    let more = b.lt(i.into(), Operand::imm(16));
    b.br(more, head, exit);
    b.switch_to(exit);
    b.out(acc.into());
    b.ret(Some(acc.into()));
    let mut m = Module::new();
    m.push_function(b.finish());
    m
}

fn flip_flop() -> StateMachine {
    StateMachine::from_states(
        vec![
            MachineState {
                pattern: HistPattern::parse("0").unwrap(),
                predict: true,
                on_taken: 1,
                on_not_taken: 0,
            },
            MachineState {
                pattern: HistPattern::parse("1").unwrap(),
                predict: false,
                on_taken: 1,
                on_not_taken: 0,
            },
        ],
        0,
    )
}

#[test]
fn static_bound_is_exact_on_the_demo_cfg() {
    let m = demo_module();
    let trace = Machine::new(&m, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .unwrap()
        .trace;
    let mut plan = ReplicationPlan::new();
    plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
    let program = apply_plan(&m, &plan, &trace.stats()).unwrap();

    let report = static_cost(
        &m,
        &program.module,
        &program.provenance,
        &program.predictions,
        &trace,
        "main",
    )
    .unwrap();

    // Ground truth: run the replicated module and score its pins against
    // the branch outcomes it actually produces.
    let replicated_trace = Machine::new(&program.module, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .unwrap()
        .trace;
    let simulated: u64 = replicated_trace
        .iter()
        .filter(|ev| program.predictions.get(ev.site) != ev.taken)
        .count() as u64;

    assert_eq!(report.total_events, trace.len() as u64);
    assert_eq!(
        report.total_bound(),
        simulated,
        "the replay must agree with the simulator event for event"
    );
    // The flip-flop kills the alternation: only the warm-up and loop-exit
    // events can miss.
    assert!(
        report.total_bound() <= 2,
        "demo bound unexpectedly large: {}",
        report.total_bound()
    );
}
