//! The traced run: spans recorded from the benchmark's side around each
//! call into a layer's public functions, and the single-round replay of
//! the pipeline built from its shipped site set.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use brepl::pipeline::PipelineResult;
use brepl_analysis::{
    check_history, classification_diags, classify_module, estimate_profile, static_profile_diags,
    validate_replication,
};
use brepl_core::{apply_plan, check_equivalence_outcomes, select_strategies_classified};
use brepl_predict::evaluate_static;
use brepl_sim::Machine;

use crate::workloads::Job;

/// One timed call: `parent` is the span whose work it accounts for.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the job (one per program) the span belongs to.
    pub job: usize,
    pub pass: usize,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span log, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    pub pass: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its value with the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            job,
            pass: self.pass,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Per traced pass: span name → (total seconds, total self seconds).
    /// A span's self time is its duration minus its children's durations;
    /// replayed children run after their parent, so this is the parent's
    /// work that no replayed layer accounts for.
    pub fn totals(&self) -> Vec<BTreeMap<&'static str, (f64, f64)>> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let passes = self.spans.iter().map(|s| s.pass + 1).max().unwrap_or(0);
        let mut out = vec![BTreeMap::new(); passes];
        for (s, child) in self.spans.iter().zip(child_secs) {
            let e = out[s.pass].entry(s.name).or_insert((0.0, 0.0));
            e.0 += s.secs();
            e.1 += s.secs() - child;
        }
        out
    }

    /// The span log as JSON, one object per span.
    pub fn to_json(&self, workload: &str, seed: u64, jobs: &[Job]) -> String {
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, sp) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"program\":\"{}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name,
                jobs[sp.job].name,
                sp.pass,
                sp.start.as_nanos(),
                sp.end.as_nanos()
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Deterministic counts by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Replays one round of the pipeline that shipped `plan` — profile,
/// stats, classify, estimate, select (memo cleared), apply, validate,
/// history, re-measure, evaluate, backstop — each call in its own span
/// under `parent`. Fails unless the replay re-measures exactly the
/// pipeline's misprediction and every gate passes.
pub fn replay(
    tr: &mut Tracer,
    job_index: usize,
    parent: usize,
    job: &Job,
    plan: &PipelineResult,
) -> Result<Counts, String> {
    let run = job.config.run;
    let (i, p) = (job_index, Some(parent));
    let (profile, _) = tr.span("sim.profile", i, p, || {
        let mut m = Machine::new(&job.module, run)?;
        m.set_input(job.segments[0].clone());
        let outcome = m.run("main", &job.args)?;
        Ok::<_, brepl_sim::RunError>((outcome, m.output().to_vec()))
    });
    let (outcome, output) = profile.map_err(|e| format!("profiling run failed: {e}"))?;
    let (stats, _) = tr.span("trace.stats", i, p, || outcome.trace.stats());
    let ((cls, classify_diags), _) = tr.span("analysis.classify", i, p, || {
        let cls = classify_module(&job.module);
        let diags = classification_diags(&job.module, &cls, &stats);
        (cls, diags)
    });
    let (estimate_diags, _) = tr.span("analysis.estimate", i, p, || {
        let profile = estimate_profile(&job.module, &cls);
        static_profile_diags(&job.module, &cls, &profile, &stats)
    });
    brepl_core::memo::clear();
    let ((selection, skips), _) = tr.span("select.search", i, p, || {
        select_strategies_classified(
            &job.module,
            &outcome.trace,
            job.config.max_states,
            Some(&cls),
        )
    });
    let replan = selection.to_plan_filtered(|s| plan.replicated_sites.contains(&s));
    let (program, _) = tr.span("replicate.apply", i, p, || {
        apply_plan(&job.module, &replan, &stats)
    });
    let program = program.map_err(|e| format!("replay apply_plan failed: {e}"))?;
    let (validate_diags, _) = tr.span("analysis.validate", i, p, || {
        validate_replication(
            &job.module,
            &program.module,
            &program.replica_map,
            &program.predictions,
        )
    });
    let (history_diags, _) = tr.span("analysis.history", i, p, || {
        check_history(
            &program.module,
            &program.provenance,
            &replan.history_spec(),
            &program.predictions,
        )
    });
    let (measure, _) = tr.span("sim.measure", i, p, || {
        let mut m = Machine::new(&program.module, run)?;
        m.set_input(job.segments[0].clone());
        let outcome = m.run("main", &job.args)?;
        Ok::<_, brepl_sim::RunError>((outcome, m.output().to_vec()))
    });
    let (outcome2, output2) = measure.map_err(|e| format!("re-measure run failed: {e}"))?;
    let (report, _) = tr.span("predict.eval", i, p, || {
        evaluate_static(&program.predictions, &outcome2.trace)
    });
    let (backstop, _) = tr.span("replicate.backstop", i, p, || {
        check_equivalence_outcomes(&program, &outcome, &output, &outcome2, &output2)
    });
    backstop.map_err(|e| format!("replay backstop failed: {e}"))?;

    let lint = &job.config.lint;
    for (gate, diags) in [("validate", &validate_diags), ("history", &history_diags)] {
        let (errors, _) = lint.partition(diags.clone());
        if !errors.is_empty() {
            return Err(format!(
                "replay {gate} gate fired {} error(s)",
                errors.len()
            ));
        }
    }
    let replayed = report.misprediction_percent();
    if replayed.to_bits() != plan.replicated_misprediction_percent.to_bits() {
        return Err(format!(
            "replay measured {replayed}% but the pipeline shipped {}%",
            plan.replicated_misprediction_percent
        ));
    }
    let diags =
        classify_diags.len() + estimate_diags.len() + validate_diags.len() + history_diags.len();
    Ok(Counts::from([
        ("sim.steps", outcome.steps + outcome2.steps),
        (
            "sim.events",
            (outcome.trace.len() + outcome2.trace.len()) as u64,
        ),
        ("select.sites", selection.choices().len() as u64),
        ("select.improved", selection.improved_branches() as u64),
        ("select.fastpath_skips", skips as u64),
        ("analysis.diags", diags as u64),
    ]))
}
