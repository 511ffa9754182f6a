//! `perfbench` — end-to-end and per-layer benchmark of the brepl pipeline.
//!
//! ```text
//! perfbench --workload <paper-suite|wide-cfg|drift-respec> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's programs and input tapes from the seed, then
//! takes every program through the pipeline (`run_pipeline`, or
//! `run_pipeline_adaptive` for drift-respec) on one worker thread, pass
//! after pass, until `--seconds` of pipeline time are measured. The memo
//! is cleared before every pipeline call, so no call reuses another's
//! selection.
//!
//! Every program a pass ships is checked outside the timed region: the
//! first time, its result and output tape against `ReferenceMachine` on
//! the original program; after that, its deterministic record (shipped
//! misprediction, growth, module fingerprint, site and patch counts)
//! against the first pass. Errors, panics and mismatches count as failed
//! calls.
//!
//! Every timed region is bracketed by a calibration kernel of this crate
//! and reported in seconds at nominal host speed (see `host`), so that a
//! slow phase of a shared host does not read as a slower pipeline.
//! `pipeline_s` sums, over the workload's programs, the median of each
//! program's pipeline calls in the run, so timed.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half the
//! time on untraced passes and half on traced ones: each traced pass times
//! the pipeline call, then replays one round of it layer by layer from
//! this crate (see `layers`), and reports per-layer times in wall seconds
//! (`bench.pipeline_wall_s` is `pipeline_s` in wall seconds) and counts. The
//! span log is written to `$CARGO_TARGET_DIR/perfbench/` (default
//! `perfbench/target/perfbench/`).
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod host;
mod layers;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use brepl::pipeline::{
    run_pipeline, run_pipeline_adaptive, AdaptiveConfig, AdaptiveResult, PipelineResult,
};
use brepl_core::{memo, PatchOutcome, ReplicatedProgram};
use brepl_ir::{Module, Value};
use brepl_sim::ReferenceMachine;

use host::{HostClock, Timing};
use layers::{Counts, Tracer};
use workloads::Job;

const USAGE: &str =
    "usage: perfbench --workload <paper-suite|wide-cfg|drift-respec> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace {
            None | Some(0) => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// What one pipeline call shipped.
enum Shipped {
    Plain(Box<PipelineResult>),
    Adaptive(Box<AdaptiveResult>),
}

impl Shipped {
    fn program(&self) -> &ReplicatedProgram {
        match self {
            Shipped::Plain(r) => &r.program,
            Shipped::Adaptive(r) => &r.program,
        }
    }

    fn plan(&self) -> &PipelineResult {
        match self {
            Shipped::Plain(r) => r,
            Shipped::Adaptive(r) => &r.plan,
        }
    }

    /// The deterministic part of the outcome: equal on every call with
    /// the same inputs.
    fn record(&self, job: &Job) -> Record {
        let plan = self.plan();
        let (misses, events) = match self {
            Shipped::Plain(r) => {
                let events = r.trace_events as f64;
                (r.replicated_misprediction_percent * events / 100.0, events)
            }
            // Post-plan segments only: what the shipped, re-patched
            // program mispredicts after the drift.
            Shipped::Adaptive(r) => r.segments.iter().skip(1).fold((0.0, 0.0), |(m, e), s| {
                let events = s.events as f64;
                (m + s.misprediction_percent * events / 100.0, e + events)
            }),
        };
        let mut counts = Counts::from([
            ("replicate.sites", plan.replicated_sites.len() as u64),
            ("replicate.quarantined", plan.quarantined.len() as u64),
            ("replicate.backoffs", plan.size_backoffs.len() as u64),
        ]);
        if let Shipped::Adaptive(r) = self {
            let rollbacks = r
                .patch_log
                .iter()
                .filter(|p| p.outcome == PatchOutcome::RolledBack)
                .count();
            counts.extend([
                ("respec.segments", r.segments.len() as u64),
                ("respec.patches", r.patch_log.len() as u64),
                ("respec.rollbacks", rollbacks as u64),
                ("respec.gate_cache_hits", r.gate_cache_hits as u64),
            ]);
        }
        Record {
            misses: misses.to_bits(),
            events: events.to_bits(),
            growth: self.program().size_growth(&job.module).to_bits(),
            module_fp: self.program().module.fingerprint(),
            counts,
        }
    }
}

/// Deterministic record of one shipped program (floats as bit patterns).
#[derive(Clone, Debug, PartialEq)]
struct Record {
    misses: u64,
    events: u64,
    growth: u64,
    module_fp: (u64, u64),
    /// The `replicate.*` and `respec.*` counts.
    counts: Counts,
}

/// Runs one job through the pipeline; errors and panics become messages.
fn run_job(job: &Job) -> Result<Shipped, String> {
    let call = || {
        if job.adaptive {
            let config = AdaptiveConfig {
                pipeline: job.config,
                ..AdaptiveConfig::default()
            };
            run_pipeline_adaptive(&job.module, &job.args, &job.segments, config)
                .map(|r| Shipped::Adaptive(Box::new(r)))
        } else {
            run_pipeline(&job.module, &job.args, &job.segments[0], job.config)
                .map(|r| Shipped::Plain(Box::new(r)))
        }
    };
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(shipped)) => Ok(shipped),
        Ok(Err(e)) => Err(format!("{}: pipeline error: {e}", job.name)),
        Err(_) => Err(format!("{}: pipeline panicked", job.name)),
    }
}

/// Runs `module` on the job's whole tape under the independent tree-walking
/// interpreter, returning its result and output tape.
fn reference_run(job: &Job, module: &Module) -> Result<(Option<Value>, Vec<Value>), String> {
    let mut m = ReferenceMachine::new(module, job.config.run).map_err(|e| e.to_string())?;
    m.set_input(job.input());
    let outcome = m.run("main", &job.args).map_err(|e| e.to_string())?;
    Ok((outcome.result, m.output().to_vec()))
}

/// The benchmark's state across passes.
struct Bench {
    jobs: Vec<Job>,
    /// Record of each job's first checked ship.
    first: Vec<Option<Record>>,
    /// Counts of the first traced pass.
    first_counts: Option<Counts>,
    clock: HostClock,
    /// Untraced pipeline call times of each job, one entry per pass.
    job_times: Vec<Vec<Timing>>,
    /// Traced pipeline call times of each job, one entry per traced pass.
    traced_times: Vec<Vec<Timing>>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED {msg}");
        }
    }

    /// Checks a shipped program outside the timed region: against the
    /// reference interpreter the first time, against the first record
    /// after that.
    fn verify(&mut self, i: usize, shipped: &Shipped) -> Result<(), String> {
        let job = &self.jobs[i];
        let record = shipped.record(job);
        match &self.first[i] {
            Some(first) if *first == record => Ok(()),
            Some(first) => Err(format!(
                "{}: shipped outcome changed between calls on one seed: {first:?} then {record:?}",
                job.name
            )),
            None => {
                let want = reference_run(job, &job.module).map_err(|e| {
                    format!("{}: reference run of the original failed: {e}", job.name)
                })?;
                let got = reference_run(job, &shipped.program().module).map_err(|e| {
                    format!(
                        "{}: reference run of the shipped program failed: {e}",
                        job.name
                    )
                })?;
                if want.0 != got.0 {
                    return Err(format!(
                        "{}: shipped result {:?} differs from the original's {:?}",
                        job.name, got.0, want.0
                    ));
                }
                if want.1 != got.1 {
                    return Err(format!(
                        "{}: shipped output tape differs from the original's",
                        job.name
                    ));
                }
                self.first[i] = Some(record);
                Ok(())
            }
        }
    }

    /// One untraced pass over every job; returns its pipeline wall seconds.
    fn pass(&mut self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.jobs.len() {
            memo::clear();
            let (result, time) = self.clock.time(|| run_job(&self.jobs[i]));
            self.job_times[i].push(time);
            total += time.wall;
            self.attempted += 1;
            if let Err(e) = result.and_then(|s| self.verify(i, &s)) {
                self.fail(e);
            }
        }
        total
    }

    /// One traced pass: every pipeline call in a span, followed by the
    /// layer-by-layer replay of its planning round.
    fn traced_pass(&mut self, tr: &mut Tracer) {
        let mut counts = Counts::new();
        for i in 0..self.jobs.len() {
            memo::clear();
            let ((result, pipeline_span), time) = self
                .clock
                .time(|| tr.span("pipeline", i, None, || run_job(&self.jobs[i])));
            self.traced_times[i].push(time);
            let (memo_entries, memo_hits) = memo::stats();
            let (_, selection_hits) = memo::selection_stats();
            self.attempted += 1;
            let traced = result.and_then(|shipped| {
                self.verify(i, &shipped)?;
                self.replay(tr, i, pipeline_span, &shipped)
            });
            match traced {
                Ok(job_counts) => {
                    let memo_counts = [
                        ("memo.entries", memo_entries as u64),
                        ("memo.hits", memo_hits),
                        ("memo.selection_hits", selection_hits),
                    ];
                    for (name, n) in job_counts.into_iter().chain(memo_counts) {
                        *counts.entry(name).or_default() += n;
                    }
                }
                Err(e) => self.fail(e),
            }
        }
        match &self.first_counts {
            None => self.first_counts = Some(counts),
            Some(first) if *first != counts => self.fail(format!(
                "traced counts changed between passes on one seed: {first:?} then {counts:?}"
            )),
            Some(_) => {}
        }
        tr.pass += 1;
    }

    /// Replays one shipped job layer by layer. Adaptive jobs first re-run
    /// their planning round alone (`respec.plan`), which the replay then
    /// splits into layers.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        i: usize,
        pipeline_span: usize,
        shipped: &Shipped,
    ) -> Result<Counts, String> {
        let job = &self.jobs[i];
        let replay = if job.adaptive {
            memo::clear();
            self.attempted += 1;
            let (plan, plan_span) = tr.span("respec.plan", i, Some(pipeline_span), || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_pipeline(&job.module, &job.args, &job.segments[0], job.config)
                }))
            });
            let plan = match plan {
                Ok(Ok(plan)) => plan,
                Ok(Err(e)) => return Err(format!("{}: planning round failed: {e}", job.name)),
                Err(_) => return Err(format!("{}: planning round panicked", job.name)),
            };
            let shipped_plan = shipped.plan();
            if plan.replicated_sites != shipped_plan.replicated_sites
                || plan.replicated_misprediction_percent.to_bits()
                    != shipped_plan.replicated_misprediction_percent.to_bits()
            {
                return Err(format!(
                    "{}: planning round alone differs from the adaptive run's plan",
                    job.name
                ));
            }
            layers::replay(tr, i, plan_span, job, &plan)
        } else {
            layers::replay(tr, i, pipeline_span, job, shipped.plan())
        };
        let mut counts = replay.map_err(|e| format!("{}: {e}", job.name))?;
        counts.extend(shipped.record(job).counts);
        Ok(counts)
    }

    /// Misprediction and geometric-mean growth over the checked programs.
    fn quality(&self) -> (f64, f64) {
        let records: Vec<&Record> = self.first.iter().flatten().collect();
        if records.is_empty() {
            return (0.0, 0.0);
        }
        let misses: f64 = records.iter().map(|r| f64::from_bits(r.misses)).sum();
        let events: f64 = records.iter().map(|r| f64::from_bits(r.events)).sum();
        let log_growth: f64 = records.iter().map(|r| f64::from_bits(r.growth).ln()).sum();
        let pct = if events > 0.0 {
            100.0 * misses / events
        } else {
            0.0
        };
        (pct, (log_growth / records.len() as f64).exp())
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum over jobs of the median of each job's calls, as `pick` reads them.
fn sum_of_medians(job_times: &[Vec<Timing>], pick: fn(&Timing) -> f64) -> f64 {
    job_times
        .iter()
        .map(|t| median(&t.iter().map(pick).collect::<Vec<_>>()))
        .sum()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs passes for about `seconds` of pass time: at least one, and no
/// further pass once half of one more would overrun.
fn timed_passes(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = vec![pass()];
    while times.iter().sum::<f64>() + times[times.len() - 1] / 2.0 < seconds {
        times.push(pass());
    }
    times
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every layer on one worker thread.
    std::env::set_var("BREPL_THREADS", "1");

    let mut clock = HostClock::new();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        // One copy of the inputs at a time, so set-up does not set the peak.
        drop(std::mem::take(&mut jobs));
        let (built, time) = clock.time(|| workloads::build(&args.workload, args.seed));
        let Some(built) = built else {
            eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        };
        setup_times.push(time.nominal);
        jobs = built;
    }
    let setup_s = median(&setup_times);

    let mut bench = Bench {
        first: vec![None; jobs.len()],
        clock,
        job_times: vec![Vec::new(); jobs.len()],
        traced_times: vec![Vec::new(); jobs.len()],
        jobs,
        first_counts: None,
        attempted: 0,
        failed: 0,
    };
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let pass_times = timed_passes(untraced_budget, || bench.pass());
    let pipeline_s = sum_of_medians(&bench.job_times, |t| t.nominal);
    let pipeline_wall_s = sum_of_medians(&bench.job_times, |t| t.wall);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut tr = Tracer::new();
        timed_passes(args.seconds / 2.0, || {
            let start = Instant::now();
            bench.traced_pass(&mut tr);
            start.elapsed().as_secs_f64()
        });
        let totals = tr.totals();
        // Median over traced passes of a span name's total or self seconds.
        let per_pass = |name: &str, pick: fn(&(f64, f64)) -> f64| {
            let values: Vec<f64> = totals
                .iter()
                .map(|t| t.get(name).map_or(0.0, pick))
                .collect();
            median(&values)
        };
        let layer = |name: &str| per_pass(name, |v| v.0);
        let self_time = |name: &str| per_pass(name, |v| v.1);
        let adaptive = bench.jobs.iter().any(|j| j.adaptive);
        let (other_s, after_plan_s) = if adaptive {
            (self_time("respec.plan"), self_time("pipeline"))
        } else {
            (self_time("pipeline"), 0.0)
        };
        let counts = bench.first_counts.take().unwrap_or_default();
        let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
        let sim_s = layer("sim.profile") + layer("sim.measure");
        let ns_per_step = if count("sim.steps") > 0.0 {
            sim_s * 1e9 / count("sim.steps")
        } else {
            0.0
        };
        let traced_pipeline_s = sum_of_medians(&bench.traced_times, |t| t.nominal);
        let overhead = if pipeline_s > 0.0 {
            100.0 * (traced_pipeline_s - pipeline_s) / pipeline_s
        } else {
            0.0
        };
        metrics.extend([
            ("sim.profile_s", layer("sim.profile"), "s"),
            ("sim.measure_s", layer("sim.measure"), "s"),
            ("sim.steps", count("sim.steps"), "count"),
            ("sim.events", count("sim.events"), "count"),
            ("sim.ns_per_step", ns_per_step, "ns"),
            ("trace.stats_s", layer("trace.stats"), "s"),
            ("predict.eval_s", layer("predict.eval"), "s"),
            ("select.search_s", layer("select.search"), "s"),
            ("select.sites", count("select.sites"), "count"),
            ("select.improved", count("select.improved"), "count"),
            (
                "select.fastpath_skips",
                count("select.fastpath_skips"),
                "count",
            ),
            ("memo.entries", count("memo.entries"), "count"),
            ("memo.hits", count("memo.hits"), "count"),
            ("memo.selection_hits", count("memo.selection_hits"), "count"),
            ("analysis.classify_s", layer("analysis.classify"), "s"),
            ("analysis.estimate_s", layer("analysis.estimate"), "s"),
            ("analysis.validate_s", layer("analysis.validate"), "s"),
            ("analysis.history_s", layer("analysis.history"), "s"),
            ("analysis.diags", count("analysis.diags"), "count"),
            ("replicate.apply_s", layer("replicate.apply"), "s"),
            ("replicate.backstop_s", layer("replicate.backstop"), "s"),
            ("replicate.sites", count("replicate.sites"), "count"),
            (
                "replicate.quarantined",
                count("replicate.quarantined"),
                "count",
            ),
            ("replicate.backoffs", count("replicate.backoffs"), "count"),
            ("pipeline.other_s", other_s, "s"),
            ("respec.plan_s", layer("respec.plan"), "s"),
            ("respec.after_plan_s", after_plan_s, "s"),
            ("respec.segments", count("respec.segments"), "count"),
            ("respec.patches", count("respec.patches"), "count"),
            ("respec.rollbacks", count("respec.rollbacks"), "count"),
            (
                "respec.gate_cache_hits",
                count("respec.gate_cache_hits"),
                "count",
            ),
            ("bench.trace_overhead_pct", overhead, "%"),
            ("bench.pipeline_wall_s", pipeline_wall_s, "s"),
        ]);
        let dir = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string());
        let dir = std::path::Path::new(&dir).join("perfbench");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, tr.to_json(&args.workload, args.seed, &bench.jobs))
        });
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tr.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    let (mispredict_pct, size_growth) = bench.quality();
    let ok_pct = 100.0 * (bench.attempted - bench.failed) as f64 / bench.attempted as f64;
    let rss = match peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("perfbench: cannot read peak memory: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        metrics.extend([
            ("pipeline_s", pipeline_s, "s"),
            ("mispredict_pct", mispredict_pct, "%"),
            ("size_growth", size_growth, "ratio"),
            ("ok_pct", ok_pct, "%"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ]);
    }

    println!(
        "perfbench {} seed {}: passes {:.3?} s wall, {} pipeline calls, {} failed (fail_pct {} %)",
        args.workload,
        args.seed,
        pass_times,
        bench.attempted,
        bench.failed,
        100.0 - ok_pct
    );
    println!(
        "  pipeline {pipeline_wall_s:.6} s wall, host slowdown {:.4} (median calibration run / nominal)",
        median(&bench.clock.kernel_secs) / host::NOMINAL_KERNEL_S
    );
    for (job, times) in bench.jobs.iter().zip(&bench.job_times) {
        let pick = |f: fn(&Timing) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        println!(
            "  program {:<18} {:>12.6} s nominal {:>12.6} s wall (median of {})",
            job.name,
            pick(|t| t.nominal),
            pick(|t| t.wall),
            times.len()
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>18.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
