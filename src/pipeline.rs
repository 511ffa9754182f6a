//! The end-to-end pipeline: profile → select machines → replicate →
//! verify → re-measure. This is the workflow an optimizing compiler would
//! run between profiling and code generation.
//!
//! Replication is an *optimization*: a site whose replication fails a
//! static gate is **quarantined** — dropped from the plan, recorded in
//! [`PipelineResult::quarantined`], and the pipeline re-applies and
//! re-validates with the remaining sites — rather than aborting the whole
//! workload. [`PipelineConfig::strict`] restores the hard abort for CI
//! use. See DESIGN.md §7 "Degradation modes".

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use brepl_analysis::{
    check_history, classification_diags, classify_module, estimate_profile, prediction_proof_diags,
    replay_static, static_profile_diags, validate_replication, AnalysisDiag, DiagCode, LintConfig,
};
use brepl_core::replicate::ReplicateError;
use brepl_core::{
    apply_plan, check_equivalence_outcomes, select_strategies_with_stats, synthesize_profile_trace,
    BranchMachine, ReplicatedProgram, Selection,
};
use brepl_ir::{BranchId, Module, Value};
use brepl_predict::{evaluate_static, StaticPrediction};
use brepl_sim::{Machine, RunConfig, RunError};

/// Pipeline tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Maximum states per branch machine (the paper explores 2..=10).
    pub max_states: usize,
    /// Interpreter limits for both profiling and verification runs.
    pub run: RunConfig,
    /// When true (default), statically validate every replicated module
    /// against the original with the translation validator
    /// ([`brepl_analysis::validate_replication`]): instruction streams,
    /// edge projections, predicted directions and live-in sets must all
    /// check out. Error-severity diagnostics quarantine the offending
    /// sites (or abort under [`Self::strict`]); warnings are collected
    /// into [`PipelineResult::warnings`].
    pub validate: bool,
    /// When true (default), additionally gate every round on the
    /// witness-independent history checker
    /// ([`brepl_analysis::check_history`]): the product of the replicated
    /// CFG with each planned machine's transition table must show every
    /// replica reachable only under states agreeing with its pinned
    /// prediction. Independent trust base from `validate` — it never reads
    /// the replica-map witness.
    pub check_history: bool,
    /// Per-diagnostic-code severity overrides applied to both static
    /// validators' output (allow-listing a code, promoting warnings,
    /// demoting errors). Default: every code at its built-in severity.
    pub lint: LintConfig,
    /// When true (default), additionally compare the original's profiling
    /// run against the shipped program's one simulation — results, output
    /// tapes, step counts and the branch trace, folded through provenance
    /// and compared event for event — a single dynamic backstop behind
    /// the static validator, which covers every round. Both runs happen
    /// anyway (and under [`Self::run`], the same configuration), so the
    /// backstop costs a pass over the packed traces, not two extra
    /// simulations. Its trace check proves the shipped program's replay
    /// exact, so [`PipelineResult::replicated_misprediction_percent`]
    /// then comes from that replay; with the backstop off it scores the
    /// measured trace.
    pub dynamic_backstop: bool,
    /// Estimated code-size budget (growth factor). Branches are enabled in
    /// greedy benefit-per-size order until the estimate exceeds the budget
    /// — the paper's "cost function will calculate whether the increase in
    /// code size is worth the gain". `None` replicates every improving
    /// branch.
    pub max_size_growth: Option<f64>,
    /// *Realized* code-size budget with backoff (default `None` = off).
    /// Unlike [`Self::max_size_growth`], which gates on the selection-time
    /// *estimate*, this cap is checked against the actual replicated
    /// module each round; while exceeded, the pipeline halves the state
    /// count of the largest enabled machine (recorded in
    /// [`PipelineResult::size_backoffs`]) and finally drops the site
    /// (gate [`QuarantineGate::SizeBudget`]) — so adversarial profiles
    /// terminate at bounded size instead of blowing up.
    pub max_realized_growth: Option<f64>,
    /// When true (default), score every replicated candidate by replaying
    /// the profiling trace through it ([`brepl_analysis::replay_static`],
    /// exact, no simulation) and *drop* machines whose realized prediction
    /// is no better than profile (the trace-suffix profile of correlated
    /// machines is an approximation of the CFG-path replica, so a few
    /// machines can fail to transfer); replication is then redone with
    /// the pruned plan. A round whose replay fails structurally is
    /// simulated instead. Only the program that ships is simulated.
    pub refine: bool,
    /// When true (default), run the static direction classification
    /// ([`brepl_analysis::classify_module`]: SCCP over an interval
    /// domain plus trip-count proofs) and use it two ways: a
    /// **profile-vs-proof gate** before replication — trace counts that
    /// contradict a direction or bias proof (`BR013`–`BR015`), or a
    /// failed fixpoint (`BR017`), quarantine every candidate site (or
    /// abort under [`Self::strict`]), and shipped predictions are
    /// cross-checked against the proofs after replication (`BR016`) —
    /// and a **planner fast-path** that skips the machine search on
    /// proved-monostatic sites with a unanimous profile (bit-identical
    /// selection; the `BREPL_NO_CLASSIFY` environment variable disables
    /// only the skip, never the gate). The gate's trust base — abstract
    /// interpretation of the *original* module plus raw trace counts —
    /// is disjoint from both the replica-map witness (`validate`) and
    /// the machine transition tables (`check_history`).
    pub classify: bool,
    /// When true (default), estimate a [`brepl_analysis::StaticProfile`]
    /// for the original module — heuristic branch probabilities plus
    /// Wu–Larus frequency propagation, with the classify layer's proofs
    /// promoted to exact rationals — and run the **estimate-vs-measured
    /// drift gate** against the profiling trace: a measured taken-count
    /// contradicting an exact estimate (`BR019`), positive estimated
    /// mass at a proved-unreachable site (`BR020`), a flow-conservation
    /// violation inside the stored profile (`BR021`) or a blown
    /// propagation fixpoint (`BR022`). `BR019`/`BR020` quarantine the
    /// named site alone; `BR021`/`BR022` condemn the whole estimate and
    /// ship the baseline. Requires [`Self::classify`] (the estimator
    /// consumes its proofs); no-op without it.
    pub estimate: bool,
    /// When true (default), reuse gate results across refinement and
    /// quarantine rounds: the translation validator caches per function
    /// and the history checker per site, keyed by a fingerprint of
    /// everything each check reads (replicated function structure,
    /// witness slice, provenance, machine table, shipped predictions), so
    /// a round that only dropped a few sites re-proves only the functions
    /// those sites live in. The emitted diagnostics — codes, sites,
    /// rounds, messages, order — are identical to from-scratch gating;
    /// the `BREPL_NO_INCREMENTAL` environment variable forces the
    /// from-scratch path without a config change.
    pub incremental: bool,
    /// When true, any gate failure aborts with a typed [`PipelineError`]
    /// — today's pre-quarantine behavior, for CI runs where a firing gate
    /// means a replicator bug to investigate, not a site to ship without.
    /// Default `false`: degrade gracefully via per-site quarantine.
    pub strict: bool,
    /// Deterministic fault injection (test harness; feature `chaos`).
    /// `Some(config)` arms exactly one injection point for this run; the
    /// injected fault and the quarantine it provoked are recorded in
    /// [`PipelineResult::chaos_injection`] / `quarantined`.
    #[cfg(feature = "chaos")]
    pub chaos: Option<brepl_core::chaos::ChaosConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_states: 4,
            run: RunConfig::default(),
            validate: true,
            check_history: true,
            lint: LintConfig::new(),
            dynamic_backstop: true,
            max_size_growth: Some(3.0),
            max_realized_growth: None,
            refine: true,
            classify: true,
            estimate: true,
            incremental: true,
            strict: false,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// A program run trapped.
    Run(RunError),
    /// The replication transform failed.
    Replicate(ReplicateError),
    /// The static translation validator rejected the replicated program
    /// (rendered error-severity diagnostics, `; `-joined).
    Validation(String),
    /// The witness-independent history checker rejected the replicated
    /// program (rendered error-severity diagnostics, `; `-joined).
    History(String),
    /// The dynamic backstop found a divergence between the programs.
    Equivalence(String),
    /// The profiling trace failed an integrity check (e.g. it no longer
    /// decodes after mid-stream truncation).
    Trace(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "program run failed: {e}"),
            PipelineError::Replicate(e) => write!(f, "replication failed: {e}"),
            PipelineError::Validation(e) => write!(f, "static validation failed: {e}"),
            PipelineError::History(e) => write!(f, "history check failed: {e}"),
            PipelineError::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
            PipelineError::Trace(e) => write!(f, "profiling trace rejected: {e}"),
        }
    }
}

impl Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> Self {
        PipelineError::Run(e)
    }
}

impl From<ReplicateError> for PipelineError {
    fn from(e: ReplicateError) -> Self {
        PipelineError::Replicate(e)
    }
}

/// Which gate removed a site from the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineGate {
    /// The static translation validator ([`validate_replication`]).
    Validation,
    /// The witness-independent history checker ([`check_history`]).
    History,
    /// The replication transform itself refused the site.
    Replicate,
    /// The profiling trace failed integrity checking.
    Profile,
    /// The realized code-growth budget
    /// ([`PipelineConfig::max_realized_growth`]) was exhausted.
    SizeBudget,
    /// The static direction classification contradicted the profile
    /// ([`PipelineConfig::classify`]; codes `BR013`–`BR017`).
    Classify,
    /// The estimate-vs-measured drift gate fired
    /// ([`PipelineConfig::estimate`]; codes `BR019`–`BR022`).
    Estimate,
}

impl QuarantineGate {
    /// Stable lowercase name (JSON output, logs).
    pub fn name(self) -> &'static str {
        match self {
            QuarantineGate::Validation => "validation",
            QuarantineGate::History => "history",
            QuarantineGate::Replicate => "replicate",
            QuarantineGate::Profile => "profile",
            QuarantineGate::SizeBudget => "size-budget",
            QuarantineGate::Classify => "classify",
            QuarantineGate::Estimate => "estimate",
        }
    }

    /// The strict-mode error carrying `rendered` for this gate.
    fn hard_error(self, rendered: String) -> PipelineError {
        match self {
            QuarantineGate::History => PipelineError::History(rendered),
            // A profile contradicting a static proof means the trace
            // itself cannot be trusted, like a failed integrity check —
            // and an estimate contradicting the measured trace means one
            // of the two is lying, same verdict.
            QuarantineGate::Classify | QuarantineGate::Estimate => PipelineError::Trace(rendered),
            _ => PipelineError::Validation(rendered),
        }
    }
}

impl fmt::Display for QuarantineGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One site the pipeline dropped instead of aborting, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedSite {
    /// The original-module branch site.
    pub site: BranchId,
    /// The gate that rejected it.
    pub gate: QuarantineGate,
    /// Offending diagnostic codes (sorted, deduplicated; empty for
    /// non-diagnostic gates like [`QuarantineGate::SizeBudget`]).
    pub codes: Vec<DiagCode>,
    /// Rendered explanation (first few diagnostics, or the gate's own
    /// message).
    pub reason: String,
    /// Which replication round (1-based) dropped the site.
    pub round: usize,
}

/// One growth-budget backoff step: a machine shrunk (or dropped, when
/// `to_states == 0`) because the realized module exceeded
/// [`PipelineConfig::max_realized_growth`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeBackoff {
    /// The site whose machine was shrunk.
    pub site: BranchId,
    /// State count before the step.
    pub from_states: usize,
    /// State count after the step (`0` = the site was dropped).
    pub to_states: usize,
    /// Which replication round (1-based) took the step.
    pub round: usize,
}

/// Summary of the static direction-classification stage
/// ([`PipelineConfig::classify`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassificationSummary {
    /// Sites whose direction is proved (always- or never-taken).
    pub proved: usize,
    /// Sites with an exact trip-count bias proof.
    pub bounded: usize,
    /// Sites left profile-dependent.
    pub dependent: usize,
    /// Proved sites the planner skipped the machine search for (their
    /// unanimous profile makes the Profile choice unbeatable; `0` when
    /// `BREPL_NO_CLASSIFY` is set).
    pub planner_skips: usize,
    /// Whether every function's classification fixpoint converged
    /// (`false` ⇒ a `BR017` fired for each unconverged function).
    pub converged: bool,
}

/// Summary of the static profile estimation stage
/// ([`PipelineConfig::estimate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EstimateSummary {
    /// Sites whose bias estimate is proof-backed exact.
    pub exact_sites: usize,
    /// Sites carrying heuristic-only estimates.
    pub heuristic_sites: usize,
    /// Whether every function's frequency propagation converged
    /// (`false` ⇒ a `BR022` fired for each unconverged function).
    pub converged: bool,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineResult {
    /// Misprediction (%) of plain profile prediction on the original
    /// program.
    pub profile_misprediction_percent: f64,
    /// Misprediction (%) of static per-site prediction on the replicated
    /// program.
    pub replicated_misprediction_percent: f64,
    /// Misprediction (%) the selection promised on the profiling run
    /// (ignoring replication mechanics); close to the replicated number.
    pub selected_misprediction_percent: f64,
    /// Code size growth factor.
    pub size_growth: f64,
    /// Branch events in the profiling trace.
    pub trace_events: u64,
    /// The per-branch strategy selection.
    pub selection: Selection,
    /// The sites whose machines actually shipped: enabled by the size
    /// budget and kept by every refinement round.
    pub replicated_sites: BTreeSet<BranchId>,
    /// Sites dropped by a gate instead of aborting the pipeline
    /// (empty under [`PipelineConfig::strict`], which aborts instead, and
    /// on clean runs).
    pub quarantined: Vec<QuarantinedSite>,
    /// Growth-budget backoff steps taken
    /// ([`PipelineConfig::max_realized_growth`]).
    pub size_backoffs: Vec<SizeBackoff>,
    /// Warning-severity diagnostics from the last round of the static
    /// gates — the witness validator, the history checker and the
    /// classification gate (e.g. `BR018` constant-condition notes) — as
    /// filtered by [`PipelineConfig::lint`] (empty when all are
    /// disabled). Error-severity diagnostics quarantine or abort instead
    /// of landing here.
    pub warnings: Vec<AnalysisDiag>,
    /// Summary of the static direction classification, or `None` when
    /// [`PipelineConfig::classify`] is off.
    pub classification: Option<ClassificationSummary>,
    /// Summary of the static profile estimation, or `None` when
    /// [`PipelineConfig::estimate`] (or [`PipelineConfig::classify`])
    /// is off.
    pub estimate: Option<EstimateSummary>,
    /// True when the pipeline was planned from a synthesized static
    /// profile ([`run_pipeline_static`]) instead of a profiling run.
    pub static_planned: bool,
    /// The fault the armed chaos engine injected, if it fired
    /// (feature `chaos`; see [`PipelineConfig::chaos`]).
    #[cfg(feature = "chaos")]
    pub chaos_injection: Option<brepl_core::chaos::Injection>,
    /// The replicated program with predictions and provenance.
    pub program: ReplicatedProgram,
}

/// Runs the whole pipeline on `module` with entry function `main`.
///
/// Gate failures quarantine the offending sites and re-replicate without
/// them (see [`PipelineResult::quarantined`]); under
/// [`PipelineConfig::strict`] they abort instead.
///
/// # Errors
///
/// Returns a [`PipelineError`] if any run traps, the dynamic backstop
/// finds a divergence, a gate fires with *nothing left to quarantine*
/// (errors on an empty plan would be a validator bug), or — in strict
/// mode — any gate fires at all.
pub fn run_pipeline(
    module: &Module,
    args: &[Value],
    input: &[Value],
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    // 1. Profile.
    let mut machine = Machine::new(module, config.run)?;
    machine.set_input(input.to_vec());
    let outcome = machine.run("main", args)?;
    let profile_output = machine.output().to_vec();
    run_pipeline_profiled(module, args, input, &outcome, &profile_output, config)
}

/// [`run_pipeline`] on an already-profiled run.
///
/// `profile`/`profile_output` must be the outcome and output tape of
/// running `module` on exactly `args`/`input` under `config.run` —
/// execution is deterministic, so a caller that just profiled (the bench
/// harness times profiling as its own stage) passes the measurements here
/// instead of paying the run again, and the result is identical to
/// [`run_pipeline`].
///
/// # Errors
///
/// As [`run_pipeline`].
pub fn run_pipeline_profiled(
    module: &Module,
    args: &[Value],
    input: &[Value],
    profile: &brepl_sim::Outcome,
    profile_output: &[Value],
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    let stats = profile.trace.stats();
    run_pipeline_counted(module, args, input, profile, profile_output, &stats, config)
}

/// [`run_pipeline_profiled`] with the profiling trace already counted:
/// `stats` must be `profile.trace.stats()`. Every stage reads these
/// counts, so the trace is counted once per pipeline call.
fn run_pipeline_counted(
    module: &Module,
    args: &[Value],
    input: &[Value],
    profile: &brepl_sim::Outcome,
    profile_output: &[Value],
    stats: &brepl_trace::TraceStats,
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    let outcome = profile;
    let profile_pct = stats.profile_misprediction_percent();

    // 1b. Static direction classification: SCCP over intervals plus
    // trip-count proofs, on the *original* module — the gate below and
    // the planner fast-path both consume it.
    let classification = if config.classify {
        Some(classify_module(module))
    } else {
        None
    };

    // 1c. Static profile estimation, also on the *original* module:
    // the classify layer's proofs promoted to exact rationals plus
    // Ball–Larus heuristics, propagated Wu–Larus-style into per-site
    // expected frequencies. Judged against the measured trace by the
    // drift gate below (2c).
    #[allow(unused_mut)]
    let mut static_profile = match &classification {
        Some(cls) if config.estimate => Some(estimate_profile(module, cls)),
        _ => None,
    };

    // 2. Select per-branch machines — proved-monostatic sites with a
    // unanimous profile skip the machine search, with a bit-identical
    // result (`BREPL_NO_CLASSIFY` disables only this skip) — then apply
    // the size budget by taking branches in greedy benefit-per-size
    // order.
    let fast_path = if std::env::var_os("BREPL_NO_CLASSIFY").is_some() {
        None
    } else {
        classification.as_ref()
    };
    let (selection, planner_skips) =
        select_strategies_with_stats(module, &outcome.trace, stats, config.max_states, fast_path);
    let mut enabled: BTreeSet<BranchId> = match config.max_size_growth {
        None => selection
            .choices()
            .iter()
            .filter(|c| c.benefit() > 0)
            .map(|c| c.site)
            .collect(),
        Some(budget) => {
            let curve = brepl_core::greedy::greedy_curve_from_selection(
                module,
                &selection,
                outcome.trace.len() as u64,
            );
            curve.sites_within_budget(budget).into_iter().collect()
        }
    };

    let mut quarantined: Vec<QuarantinedSite> = Vec::new();
    let mut size_backoffs: Vec<SizeBackoff> = Vec::new();
    // Machines shrunk by the growth backoff, replacing the selection's
    // choice for their site in every later round.
    let mut overrides: BTreeMap<BranchId, BranchMachine> = BTreeMap::new();

    #[cfg(feature = "chaos")]
    let mut chaos_engine = config.chaos.map(brepl_core::chaos::ChaosEngine::new);
    // Trace stats the classification gate judges; replaced by forged
    // stats when the ForgeTraceEvent chaos point fires.
    #[cfg(feature = "chaos")]
    let mut gate_stats_override: Option<brepl_trace::TraceStats> = None;
    #[cfg(feature = "chaos")]
    if let Some(eng) = &mut chaos_engine {
        // ForgeTraceEvent fires first, before the victim is pinned from
        // the enabled set: it flips one event at a proved-monostatic site
        // (pinning that site as the victim) so the classification gate
        // must catch the contradiction — BR013 — while the witness and
        // history gates stay blind (the forged trace never steers
        // replication).
        if let Some(cls) = &classification {
            if let Some(forged) = eng.forge_trace(&outcome.trace, &cls.proved_sites()) {
                gate_stats_override = Some(forged.stats());
            }
        }
        // ForgeStaticProfile also fires before victim pinning: it
        // perturbs one exact estimate in the profile the drift gate
        // judges (pinning that site as the victim), leaving the trace,
        // module, witness and machine tables honest — BR019 must catch
        // it while BR001–BR018 stay blind.
        if let Some(profile) = &mut static_profile {
            eng.forge_static_profile(profile, stats);
        }
        let candidates: Vec<BranchId> = enabled.iter().copied().collect();
        eng.pin_victim(&candidates);
        // TruncateTrace fires here, against the profiling trace.
        if let Some(err) = eng.corrupt_trace(&outcome.trace) {
            if config.strict {
                return Err(PipelineError::Trace(format!(
                    "trace truncated mid-event, decode fails with {err:?}"
                )));
            }
            // The profiling data is untrustworthy for replication: ship
            // the baseline, quarantining every candidate site.
            for &site in &enabled {
                quarantined.push(QuarantinedSite {
                    site,
                    gate: QuarantineGate::Profile,
                    codes: Vec::new(),
                    reason: format!("profiling trace truncated mid-event: {err:?}"),
                    round: 0,
                });
            }
            enabled.clear();
        }
    }

    // 2b. Classification gate: the profile must be consistent with the
    // static proofs — no events in a proved-impossible direction (BR013),
    // no taken-count violating an exact bias proof (BR014), no events at
    // provably unreachable sites (BR015) — and every function's fixpoint
    // must have converged (BR017, fail closed). A conflict means the
    // trace or the analysis is lying, so *neither* may steer replication:
    // ship the baseline, quarantining every candidate site (or abort
    // under strict). BR018 constant-condition notes pass through as
    // warnings.
    let mut classify_warnings: Vec<AnalysisDiag> = Vec::new();
    let mut classify_gate_fired = false;
    if let Some(cls) = &classification {
        let diags = {
            #[cfg(feature = "chaos")]
            let gate_stats = gate_stats_override.as_ref().unwrap_or(stats);
            #[cfg(not(feature = "chaos"))]
            let gate_stats = stats;
            classification_diags(module, cls, gate_stats)
        };
        let (errors, warns) = config.lint.partition(diags);
        classify_warnings = warns;
        if !errors.is_empty() {
            classify_gate_fired = true;
            if config.strict {
                return Err(QuarantineGate::Classify.hard_error(render_joined(&errors, module)));
            }
            // Name the implicated sites first (BR013–BR015 carry their
            // branch), then ship the baseline: a profile that contradicts
            // even one proof cannot be trusted to steer any replication.
            let mut by_site: BTreeMap<BranchId, Vec<&AnalysisDiag>> = BTreeMap::new();
            for d in &errors {
                if let Some(site) = d.site {
                    by_site.entry(site).or_default().push(d);
                }
            }
            for (&site, diags) in &by_site {
                let mut codes: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
                codes.sort_unstable();
                codes.dedup();
                quarantined.push(QuarantinedSite {
                    site,
                    gate: QuarantineGate::Classify,
                    codes,
                    reason: render_capped(
                        &diags.iter().map(|&d| d.clone()).collect::<Vec<_>>(),
                        module,
                    ),
                    round: 0,
                });
            }
            let mut batch_codes: Vec<DiagCode> = errors.iter().map(|d| d.code).collect();
            batch_codes.sort_unstable();
            batch_codes.dedup();
            let reason = render_capped(&errors, module);
            for &site in &enabled {
                if by_site.contains_key(&site) {
                    continue;
                }
                quarantined.push(QuarantinedSite {
                    site,
                    gate: QuarantineGate::Classify,
                    codes: batch_codes.clone(),
                    reason: reason.clone(),
                    round: 0,
                });
            }
            enabled.clear();
        }
    }

    // 2c. Estimate-vs-measured drift gate: the static profile must be
    // consistent with the measured trace and its own invariants — no
    // measured taken-count contradicting an exact proof-promoted
    // estimate (BR019), no estimated mass at a proved-unreachable site
    // (BR020), flow conservation intact (BR021), every propagation
    // fixpoint converged (BR022). BR019/BR020 carry a site and
    // quarantine it alone — those are exactly the sites whose measured
    // behavior the static view cannot explain; a siteless violation
    // (BR021/BR022) condemns the whole estimate, and because the
    // profile data structure itself is then untrustworthy the pipeline
    // ships the baseline. Skipped when the classification gate already
    // fired: the trace is condemned wholesale and the baseline ships —
    // there is no per-site verdict left to refine.
    if let (Some(cls), Some(profile), false) =
        (&classification, &static_profile, classify_gate_fired)
    {
        let diags = {
            #[cfg(feature = "chaos")]
            let gate_stats = gate_stats_override.as_ref().unwrap_or(stats);
            #[cfg(not(feature = "chaos"))]
            let gate_stats = stats;
            static_profile_diags(module, cls, profile, gate_stats)
        };
        let (errors, warns) = config.lint.partition(diags);
        classify_warnings.extend(warns);
        if !errors.is_empty() {
            if config.strict {
                return Err(QuarantineGate::Estimate.hard_error(render_joined(&errors, module)));
            }
            let mut by_site: BTreeMap<BranchId, Vec<&AnalysisDiag>> = BTreeMap::new();
            let mut siteless: Vec<AnalysisDiag> = Vec::new();
            for d in &errors {
                match d.site {
                    Some(site) => by_site.entry(site).or_default().push(d),
                    None => siteless.push(d.clone()),
                }
            }
            for (&site, diags) in &by_site {
                let mut codes: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
                codes.sort_unstable();
                codes.dedup();
                enabled.remove(&site);
                quarantined.push(QuarantinedSite {
                    site,
                    gate: QuarantineGate::Estimate,
                    codes,
                    reason: render_capped(
                        &diags.iter().map(|&d| d.clone()).collect::<Vec<_>>(),
                        module,
                    ),
                    round: 0,
                });
            }
            if !siteless.is_empty() {
                let mut codes: Vec<DiagCode> = siteless.iter().map(|d| d.code).collect();
                codes.sort_unstable();
                codes.dedup();
                let reason = render_capped(&siteless, module);
                for &site in &enabled {
                    quarantined.push(QuarantinedSite {
                        site,
                        gate: QuarantineGate::Estimate,
                        codes: codes.clone(),
                        reason: reason.clone(),
                        round: 0,
                    });
                }
                enabled.clear();
            }
        }
    }

    // 3–5. Replicate, gate, measure — quarantining or backing off on
    // failure. Every retry strictly shrinks (site count, or the state
    // count of some machine), so the loop terminates. Gate results carry
    // over between rounds through `gate_cache` (identical diagnostics,
    // functions/sites untouched by the round's drops are not re-proved);
    // `BREPL_NO_INCREMENTAL` restores unconditional from-scratch gating.
    let incremental = config.incremental && std::env::var_os("BREPL_NO_INCREMENTAL").is_none();
    let mut gate_cache = brepl_analysis::GateCache::new();
    let mut round = 0usize;
    let measure = |program: &ReplicatedProgram| -> Result<_, PipelineError> {
        let mut machine2 = Machine::new(&program.module, config.run)?;
        machine2.set_input(input.to_vec());
        let outcome2 = machine2.run("main", args)?;
        let output2 = machine2.output().to_vec();
        Ok((outcome2, output2))
    };
    let (program, report, warnings, measured) = loop {
        round += 1;
        let mut plan = selection.to_plan_filtered(|site| enabled.contains(&site));
        for (&site, m) in &overrides {
            if enabled.contains(&site) {
                plan.assign(site, m.clone());
            }
        }
        #[allow(unused_mut)]
        let mut program = match apply_plan(module, &plan, stats) {
            Ok(p) => p,
            Err(e) => {
                if config.strict || enabled.is_empty() {
                    return Err(e.into());
                }
                // Quarantine the named site; an opaque transform error
                // degrades coarsely to the unreplicated baseline.
                match e {
                    ReplicateError::UnknownBranch(s) | ReplicateError::NotInLoop(s)
                        if enabled.contains(&s) =>
                    {
                        enabled.remove(&s);
                        quarantined.push(QuarantinedSite {
                            site: s,
                            gate: QuarantineGate::Replicate,
                            codes: Vec::new(),
                            reason: format!("replication transform refused the site: {e}"),
                            round,
                        });
                    }
                    other => {
                        for &site in &enabled {
                            quarantined.push(QuarantinedSite {
                                site,
                                gate: QuarantineGate::Replicate,
                                codes: Vec::new(),
                                reason: format!("replication transform failed: {other}"),
                                round,
                            });
                        }
                        enabled.clear();
                    }
                }
                continue;
            }
        };

        // Realized-growth budget: shrink the largest machine (halving its
        // states) while over budget; drop the site once it cannot shrink.
        if let Some(budget) = config.max_realized_growth {
            let growth = program.size_growth(module);
            if growth > budget && !enabled.is_empty() {
                let (site, states) = plan
                    .assignments
                    .iter()
                    .filter(|(s, _)| enabled.contains(*s))
                    .map(|(&s, m)| (s, machine_states(m)))
                    .max_by_key(|&(s, st)| (st, std::cmp::Reverse(s)))
                    .expect("enabled sites all have plan entries");
                if states > 2 {
                    let target = (states / 2).max(2);
                    let shrunk = match &plan.assignments[&site] {
                        BranchMachine::Loop(m) => BranchMachine::Loop(m.shrunk(target)),
                        BranchMachine::Correlated(c) => {
                            let mut c = c.clone();
                            c.paths.truncate(target - 1);
                            BranchMachine::Correlated(c)
                        }
                    };
                    overrides.insert(site, shrunk);
                    size_backoffs.push(SizeBackoff {
                        site,
                        from_states: states,
                        to_states: target,
                        round,
                    });
                } else {
                    enabled.remove(&site);
                    overrides.remove(&site);
                    size_backoffs.push(SizeBackoff {
                        site,
                        from_states: states,
                        to_states: 0,
                        round,
                    });
                    quarantined.push(QuarantinedSite {
                        site,
                        gate: QuarantineGate::SizeBudget,
                        codes: Vec::new(),
                        reason: format!(
                            "realized growth {growth:.2}x exceeds budget {budget:.2}x with no states left to shed"
                        ),
                        round,
                    });
                }
                continue;
            }
        }

        // Armed chaos injections against the replicated artifacts (the
        // engine fires at most once per run, and only while its victim is
        // still in the plan).
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut chaos_engine {
            if eng.victim().is_some_and(|v| enabled.contains(&v)) {
                eng.corrupt_program(module, &mut program);
            }
        }

        // Primary gate: the static translation validator checks the
        // simulation relation against the replica-map witness on every
        // round — no execution required.
        let mut round_warnings = Vec::new();
        if config.validate {
            let diags = if incremental {
                brepl_analysis::validate_replication_cached(
                    module,
                    &program.module,
                    &program.replica_map,
                    &program.predictions,
                    &mut gate_cache,
                )
            } else {
                validate_replication(
                    module,
                    &program.module,
                    &program.replica_map,
                    &program.predictions,
                )
            };
            let (errors, warns) = config.lint.partition(diags);
            if !errors.is_empty() {
                if config.strict {
                    return Err(QuarantineGate::Validation
                        .hard_error(render_joined(&errors, &program.module)));
                }
                quarantine_errors(
                    &errors,
                    QuarantineGate::Validation,
                    round,
                    &program.module,
                    &mut enabled,
                    &mut quarantined,
                )?;
                continue;
            }
            round_warnings = warns;
        }
        // Second gate, independent trust base: re-prove the history
        // encoding from the plan's transition tables and the shipped
        // module alone — the replica-map witness is never consulted.
        if config.check_history {
            #[allow(unused_mut)]
            let mut spec = plan.history_spec();
            #[cfg(feature = "chaos")]
            if let Some(eng) = &mut chaos_engine {
                if eng.victim().is_some_and(|v| enabled.contains(&v)) {
                    eng.corrupt_spec(&program, &mut spec);
                }
            }
            let diags = if incremental {
                brepl_analysis::check_history_cached(
                    &program.module,
                    &program.provenance,
                    &spec,
                    &program.predictions,
                    &mut gate_cache,
                )
            } else {
                check_history(
                    &program.module,
                    &program.provenance,
                    &spec,
                    &program.predictions,
                )
            };
            let (errors, warns) = config.lint.partition(diags);
            if !errors.is_empty() {
                if config.strict {
                    return Err(
                        QuarantineGate::History.hard_error(render_joined(&errors, &program.module))
                    );
                }
                quarantine_errors(
                    &errors,
                    QuarantineGate::History,
                    round,
                    &program.module,
                    &mut enabled,
                    &mut quarantined,
                )?;
                continue;
            }
            round_warnings.extend(warns);
        }
        // Score the candidate by replaying the profiling trace through it
        // — exact whenever it branches like the original, which the
        // backstop proves for the shipped program — instead of simulating
        // it. A replay that fails structurally falls back to simulating
        // this round; a run without a backstop measures the shipped
        // program below.
        let replayed = if config.refine || config.dynamic_backstop {
            replay_static(
                &program.module,
                &program.provenance,
                &program.predictions,
                &outcome.trace,
                "main",
            )
            .ok()
        } else {
            None
        };
        let (report, measured) = match replayed {
            Some(report) => (report, None),
            None => {
                let (outcome2, output2) = measure(&program)?;
                let report = evaluate_static(&program.predictions, &outcome2.trace);
                (report, Some((outcome2, output2)))
            }
        };
        if !config.refine {
            break (program, report, round_warnings, measured);
        }
        // Fold replicated-site mispredictions back to original sites.
        let mut folded: std::collections::HashMap<BranchId, u64> = std::collections::HashMap::new();
        for (site, _, wrong) in report.iter_sites() {
            *folded.entry(program.provenance[site.index()]).or_default() += wrong;
        }
        let mut dropped = false;
        for choice in selection.choices() {
            if !enabled.contains(&choice.site) {
                continue;
            }
            let realized = folded.get(&choice.site).copied().unwrap_or(0);
            if refine_should_drop(realized, choice.profile_misses) {
                enabled.remove(&choice.site);
                dropped = true;
            }
        }
        if !dropped {
            break (program, report, round_warnings, measured);
        }
    };

    // The plan has settled: simulate the shipped program exactly once
    // (unless a failed replay already did). Without the backstop nothing
    // vouches for the replay, so the report comes from this measurement.
    let (outcome2, output2, report) = match measured {
        Some((outcome2, output2)) => (outcome2, output2, report),
        None => {
            let (outcome2, output2) = measure(&program)?;
            let report = if config.dynamic_backstop {
                report
            } else {
                evaluate_static(&program.predictions, &outcome2.trace)
            };
            (outcome2, output2, report)
        }
    };

    // Proof-vs-prediction cross-check (BR016) on the shipped program:
    // every replica *not* pinned by a machine state carries its original
    // site's profile-majority prediction, which must agree with any
    // direction proof for that site (an honest profile's majority always
    // does). Firing here means an analysis or replication bug — there is
    // no site left to quarantine, so like gate errors against an empty
    // plan it is a hard error in every mode.
    if let Some(cls) = &classification {
        let mut folded = StaticPrediction::with_default(true);
        let mut checked: BTreeSet<BranchId> = BTreeSet::new();
        for (fid, func) in program.module.iter_functions() {
            let fmap = &program.replica_map.functions[fid.index()];
            for (bid, block) in func.iter_blocks() {
                let brepl_ir::Term::Br { site, .. } = block.term else {
                    continue;
                };
                if fmap.machine_predictions[bid.index()].is_some() {
                    continue;
                }
                let orig = program.provenance[site.index()];
                if stats.site(orig).total() == 0 {
                    continue;
                }
                folded.set(orig, program.predictions.get(site));
                checked.insert(orig);
            }
        }
        let sites: Vec<BranchId> = checked.into_iter().collect();
        let diags = prediction_proof_diags(module, cls, &folded, &sites);
        let (errors, warns) = config.lint.partition(diags);
        if !errors.is_empty() {
            return Err(QuarantineGate::Classify.hard_error(render_joined(&errors, module)));
        }
        classify_warnings.extend(warns);
    }

    // Backstop behind the static gate: compare the profiling run of the
    // original against the one simulation of the shipped program — both
    // already executed above, so the check costs two passes over the
    // packed traces, not two more full-length simulations. Its
    // event-for-event trace check also proves the replayed report equal
    // to scoring the measured trace.
    if config.dynamic_backstop {
        check_equivalence_outcomes(&program, outcome, profile_output, &outcome2, &output2)
            .map_err(|e| PipelineError::Equivalence(e.to_string()))?;
    }

    let mut warnings = warnings;
    warnings.extend(classify_warnings);

    Ok(PipelineResult {
        profile_misprediction_percent: profile_pct,
        replicated_misprediction_percent: report.misprediction_percent(),
        selected_misprediction_percent: selection.misprediction_percent(),
        size_growth: program.size_growth(module),
        trace_events: outcome.trace.len() as u64,
        selection,
        replicated_sites: enabled,
        quarantined,
        size_backoffs,
        warnings,
        classification: classification.as_ref().map(|cls| {
            let (proved, bounded, dependent) = cls.counts();
            ClassificationSummary {
                proved,
                bounded,
                dependent,
                planner_skips,
                converged: cls.converged(),
            }
        }),
        estimate: static_profile.as_ref().map(|p| {
            let (exact_sites, heuristic_sites) = p.counts();
            EstimateSummary {
                exact_sites,
                heuristic_sites,
                converged: p.converged(),
            }
        }),
        static_planned: false,
        #[cfg(feature = "chaos")]
        chaos_injection: chaos_engine.and_then(|e| e.into_injection()),
        program,
    })
}

/// [`run_pipeline`] with **zero profiling runs**: plans replication from
/// a synthesized static profile instead of a measured trace.
///
/// The module is classified, a [`brepl_analysis::StaticProfile`] is
/// estimated (proof-promoted exact biases plus Ball–Larus heuristics,
/// Wu–Larus frequency propagation), and the expected trace is
/// synthesized from it ([`synthesize_profile_trace`]) — whole periods of
/// each site's bias rational, budget-scaled by estimated frequency. That
/// synthetic outcome then drives the ordinary profiled pipeline: the
/// same selection, the same `apply_plan`, and the full `BR001`–`BR018`
/// gate stack re-prove the shipped program exactly as they would a
/// profile-planned one. `args`/`input` are used only for the
/// **after-the-fact measurement** run of the shipped program —
/// [`PipelineResult::replicated_misprediction_percent`] is real, while
/// `profile_misprediction_percent` and `trace_events` describe the
/// synthetic plan input.
///
/// Two knobs differ from the profiled path, necessarily: `refine` is off
/// (refinement scores candidates against the synthetic plan, which would
/// punish honest estimate error, not transfer failure) and the
/// dynamic backstop is off (there is no profiling run to compare
/// against). Everything else — including strictness, lint overrides and
/// the size budgets — applies unchanged.
///
/// # Errors
///
/// As [`run_pipeline`].
pub fn run_pipeline_static(
    module: &Module,
    args: &[Value],
    input: &[Value],
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    let cls = classify_module(module);
    let profile = estimate_profile(module, &cls);
    let trace = synthesize_profile_trace(&profile);
    let outcome = brepl_sim::Outcome {
        result: None,
        trace,
        steps: 0,
    };
    let static_config = PipelineConfig {
        refine: false,
        dynamic_backstop: false,
        ..config
    };
    let mut result = run_pipeline_profiled(module, args, input, &outcome, &[], static_config)?;
    result.static_planned = true;
    Ok(result)
}

/// One workload's inputs to [`run_pipeline_suite`]: a module plus the
/// arguments and input tape of its profiling run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineJob<'a> {
    /// The program to replicate.
    pub module: &'a Module,
    /// Entry-function arguments for the profiling and verification runs.
    pub args: &'a [Value],
    /// Input tape for the profiling and verification runs.
    pub input: &'a [Value],
}

/// Runs [`run_pipeline`] over every job on the analysis engine's worker
/// pool, returning results in job order.
///
/// This lifts `brepl_core::par_map` from the per-branch search to the
/// whole-pipeline stage: each job is an independent pure computation, the
/// engine merges results in input order, and nested parallelism inside a
/// job (the per-branch selection fan-out) automatically degrades to
/// serial on worker threads — so the output is **bit-identical** to
/// running the jobs in a serial loop, at suite-level parallel speed.
/// Stage-level memo hits (whole selections, per-branch searches) are
/// shared process-wide across jobs either way.
pub fn run_pipeline_suite(
    jobs: &[PipelineJob<'_>],
    config: PipelineConfig,
) -> Vec<Result<PipelineResult, PipelineError>> {
    run_pipeline_suite_with_threads(jobs, config, brepl_core::thread_count())
}

/// [`run_pipeline_suite`] with an explicit worker count (`1` = serial).
pub fn run_pipeline_suite_with_threads(
    jobs: &[PipelineJob<'_>],
    config: PipelineConfig,
    threads: usize,
) -> Vec<Result<PipelineResult, PipelineError>> {
    brepl_core::par_map_with(threads, jobs, |job| {
        run_pipeline(job.module, job.args, job.input, config)
    })
}

/// Tunables for [`run_pipeline_adaptive`]: the planning pipeline plus
/// the re-specialization layer's knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveConfig {
    /// Planning-time pipeline configuration (profiling on the first
    /// segment, full gate stack). Under the `chaos` feature, the
    /// `inject-drift` and `corrupt-patch` points are stripped from the
    /// planning run — they attack the adaptive layer, and an honest plan
    /// is their precondition; every other point passes through unchanged.
    pub pipeline: PipelineConfig,
    /// Re-specialization knobs (detection windows, CUSUM thresholds,
    /// verification improvement floor, backoff caps).
    pub respec: brepl_core::RespecConfig,
}

/// One observed segment of an adaptive run.
#[derive(Clone, Debug)]
pub struct SegmentMeasure {
    /// Segment index (`0` = the planning segment).
    pub segment: usize,
    /// Branch events the segment drove through the shipped program.
    pub events: u64,
    /// Measured misprediction (%) of the program that ran the segment —
    /// measured *before* any patch this segment's observation produced,
    /// so a drift segment shows the stale pins' real cost.
    pub misprediction_percent: f64,
    /// Patch records appended or resolved by observing this segment.
    pub patches: Vec<brepl_core::PatchRecord>,
}

/// Everything [`run_pipeline_adaptive`] produced.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The planning-time pipeline result (profiled on segment 0).
    pub plan: PipelineResult,
    /// Per-segment measurements, in segment order.
    pub segments: Vec<SegmentMeasure>,
    /// The full patch log, oldest first, final outcomes filled in.
    pub patch_log: Vec<brepl_core::PatchRecord>,
    /// `BR023`/`BR024` diagnostics from the re-specialization layer.
    pub respec_diags: Vec<AnalysisDiag>,
    /// Sites still machine-controlled after the last segment.
    pub enabled_sites: BTreeSet<BranchId>,
    /// Sites demoted to their profile-majority single version.
    pub demoted_sites: BTreeSet<BranchId>,
    /// Sites quarantined from further patching (flapping).
    pub quarantined_sites: Vec<BranchId>,
    /// Incremental-gate cache hits the patch gating scored.
    pub gate_cache_hits: usize,
    /// Full-tape simulations the segment loop ran: one per distinct
    /// program (module and provenance) it observed, each backstopped.
    pub simulated_runs: usize,
    /// The fault the adaptive-layer chaos engine injected, if it fired
    /// (`inject-drift` / `corrupt-patch`; plan-time points record into
    /// [`PipelineResult::chaos_injection`] instead).
    #[cfg(feature = "chaos")]
    pub chaos_injection: Option<brepl_core::chaos::Injection>,
    /// The finally shipped program, after every surviving patch.
    pub program: ReplicatedProgram,
}

/// The adaptive pipeline: plan on the first input segment, ship, then
/// keep the shipped program alive across the remaining segments —
/// detecting input-distribution drift online and hot-patching the
/// program with proof-gated minimal patches instead of re-planning.
///
/// Segment 0 is the planning segment: it drives the ordinary profiled
/// pipeline ([`run_pipeline_profiled`]) end to end, gate stack included.
/// The shipped program is then wrapped in [`brepl_core::Respec`] and run
/// over the full concatenated tape (execution is deterministic, so the
/// run's prefix is exactly what already shipped); segment `k`'s event
/// slice — delimited by [`brepl_sim::Machine::run_segmented`] marks — is
/// measured and fed to the patcher. Each distinct program (module and
/// provenance) is simulated and checked by the dynamic backstop once: a
/// segment whose program equals the last simulated one reuses that run
/// and is only re-scored against the current predictions
/// ([`AdaptiveResult::simulated_runs`] counts the simulations). Every
/// candidate patch re-proves under `BR001`–`BR012`
/// before commit, survives one verification window or rolls back
/// byte-identically, and the final program re-proves once more from
/// scratch before this function returns.
///
/// # Panics
///
/// Panics if `segments` is empty — there is nothing to plan on.
///
/// # Errors
///
/// As [`run_pipeline`], plus a [`PipelineError::Validation`] if the
/// final from-scratch re-proof of the patched program fails (a patch
/// that gated clean but ships dirty is a re-specializer bug).
pub fn run_pipeline_adaptive(
    module: &Module,
    args: &[Value],
    segments: &[Vec<Value>],
    config: AdaptiveConfig,
) -> Result<AdaptiveResult, PipelineError> {
    assert!(
        !segments.is_empty(),
        "adaptive runs need at least one segment"
    );
    // 1. Plan on the first segment, exactly like the plain pipeline.
    let mut machine = Machine::new(module, config.pipeline.run)?;
    machine.set_input(segments[0].clone());
    let profile = machine.run("main", args)?;
    let profile_output = machine.output().to_vec();
    let plan_stats = profile.trace.stats();

    #[allow(unused_mut)]
    let mut plan_config = config.pipeline;
    #[cfg(feature = "chaos")]
    let mut adaptive_engine = {
        use brepl_core::chaos::{ChaosEngine, ChaosPoint};
        let mut engine = None;
        if let Some(cc) = plan_config.chaos {
            if matches!(cc.point, ChaosPoint::InjectDrift | ChaosPoint::CorruptPatch) {
                // These points attack the adaptive layer; the plan must
                // stay honest for the attack to even be visible.
                plan_config.chaos = None;
                engine = Some(ChaosEngine::new(cc));
            }
        }
        engine
    };
    let plan = run_pipeline_counted(
        module,
        args,
        &segments[0],
        &profile,
        &profile_output,
        &plan_stats,
        plan_config,
    )?;

    // 2. Statically proved directions: the patcher must never override
    // them, no matter what the observed counters claim.
    let proved: Vec<(BranchId, bool)> = if config.pipeline.classify {
        classify_module(module).proved_sites()
    } else {
        Vec::new()
    };

    // 3. Wrap the shipped plan in the re-specialization layer.
    let mut respec = brepl_core::Respec::new(
        module,
        &plan.selection,
        &plan.replicated_sites,
        &plan_stats,
        &proved,
        config.respec,
    )?;

    #[cfg(feature = "chaos")]
    let patchable: Vec<BranchId> = {
        let proved_sites: BTreeSet<BranchId> = proved.iter().map(|&(s, _)| s).collect();
        (0..module.branch_count())
            .map(BranchId::from_index)
            .filter(|&s| plan_stats.site(s).total() > 0 && !proved_sites.contains(&s))
            .collect()
    };

    // 4. Reference run: the *original* module over the full tape — the
    // dynamic-equivalence baseline every segment run is held to.
    let input: Vec<Value> = segments.iter().flatten().cloned().collect();
    let mut bounds = Vec::with_capacity(segments.len());
    let mut acc = 0usize;
    for seg in segments {
        acc += seg.len();
        bounds.push(acc);
    }
    let mut reference = Machine::new(module, config.pipeline.run)?;
    reference.set_input(input.clone());
    let ref_outcome = reference.run("main", args)?;
    let ref_output = reference.output().to_vec();

    // 5. Observe segment by segment: slice segment k's events out of the
    // current program's full-tape run, measure, feed the patcher. Each
    // distinct program (module and provenance) is simulated and
    // backstopped once: execution is deterministic and the backstop
    // reads only the two runs and the provenance, so a patch that leaves
    // both unchanged (a pin swap, a rollback to the simulated program)
    // reuses the run and is only re-scored against its predictions.
    let mut measures = Vec::with_capacity(segments.len());
    let mut last_run: Option<SegmentedRun> = None;
    let mut simulated_runs = 0usize;
    for k in 0..segments.len() {
        let program = respec.program();
        if !last_run.as_ref().is_some_and(|r| r.simulated(program)) {
            // Drop the stale trace first: at most one full-tape trace is
            // alive at a time.
            drop(last_run.take());
            let mut m2 = Machine::new(&program.module, config.pipeline.run)?;
            m2.set_input(input.clone());
            let (outcome, marks) = m2.run_segmented("main", args, &bounds)?;
            simulated_runs += 1;
            if config.pipeline.dynamic_backstop {
                check_equivalence_outcomes(
                    program,
                    &ref_outcome,
                    &ref_output,
                    &outcome,
                    m2.output(),
                )
                .map_err(|e| PipelineError::Equivalence(e.to_string()))?;
            }
            last_run = Some(SegmentedRun {
                module: program.module.clone(),
                provenance: program.provenance.clone(),
                outcome,
                marks,
            });
        }
        let run = last_run.as_ref().expect("simulated above");
        let trace = &run.outcome.trace;
        let start = if k == 0 { 0 } else { run.marks[k - 1] };
        // Events after the tape is exhausted (drain loops, epilogues)
        // belong to the last segment.
        let end = if k + 1 == segments.len() {
            trace.len()
        } else {
            run.marks[k]
        };
        let words = &trace.packed()[start..end];
        let predictions = &program.predictions;
        let predicted = predictions.dense(program.module.branch_count());
        let misses = words
            .iter()
            .filter(|&&p| {
                let site = BranchId(p >> 1);
                let guess = predicted
                    .get(site.index())
                    .copied()
                    .unwrap_or_else(|| predictions.get(site));
                guess != (p & 1 == 1)
            })
            .count();
        let events = words.len() as u64;
        let pct = if events == 0 {
            0.0
        } else {
            100.0 * misses as f64 / events as f64
        };

        // InjectDrift forges the patcher's view of a post-planning
        // segment; the measurement above already captured the honest
        // slice, and the execution itself is never touched.
        #[cfg(feature = "chaos")]
        let forged = match &mut adaptive_engine {
            Some(eng) if k >= 1 => {
                let slice: brepl_trace::Trace =
                    trace.iter().skip(start).take(end - start).collect();
                eng.inject_drift(&slice, &patchable, &program.provenance)
            }
            _ => None,
        };
        #[cfg(feature = "chaos")]
        let words = forged.as_ref().map_or(words, |t| t.packed());
        let patches = respec.observe(k, words);
        // CorruptPatch flips a patch the gate just accepted — the
        // verification window is the only defense left. It changes only
        // predictions, so the next segment re-scores the cached run.
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut adaptive_engine {
            let committed = patches
                .iter()
                .find(|r| r.outcome == brepl_core::PatchOutcome::Committed)
                .map(|r| r.site);
            if let Some(site) = committed {
                eng.corrupt_patch(respec.program_mut(), site);
            }
        }
        measures.push(SegmentMeasure {
            segment: k,
            events,
            misprediction_percent: pct,
            patches,
        });
    }

    // 6. Final acceptance: the shipped program — after every surviving
    // patch — must re-prove clean under the full BR001–BR012 stack,
    // from scratch, no cache in the loop.
    let final_diags = respec.revalidate();
    let (errors, _) = config.pipeline.lint.partition(final_diags);
    if !errors.is_empty() {
        return Err(PipelineError::Validation(render_joined(
            &errors,
            &respec.program().module,
        )));
    }

    let enabled_sites = respec.enabled_sites().clone();
    let demoted_sites = respec.demoted_sites().clone();
    let quarantined_sites = respec.quarantined_sites();
    let gate_cache_hits = respec.gate_cache_hits();
    let (program, patch_log, respec_diags) = respec.into_parts();
    Ok(AdaptiveResult {
        plan,
        segments: measures,
        patch_log,
        respec_diags,
        enabled_sites,
        demoted_sites,
        quarantined_sites,
        gate_cache_hits,
        simulated_runs,
        #[cfg(feature = "chaos")]
        chaos_injection: adaptive_engine.and_then(|e| e.into_injection()),
        program,
    })
}

/// The last full-tape segmented run of [`run_pipeline_adaptive`], with
/// the program (module and provenance) it simulated and backstopped.
struct SegmentedRun {
    module: Module,
    provenance: Vec<BranchId>,
    outcome: brepl_sim::Outcome,
    marks: Vec<usize>,
}

impl SegmentedRun {
    /// Whether this run is `program`'s: the same module and provenance,
    /// compared in full, so its trace and backstop verdict are
    /// `program`'s too.
    fn simulated(&self, program: &ReplicatedProgram) -> bool {
        self.module == program.module && self.provenance == program.provenance
    }
}

/// One workload's inputs to [`run_pipeline_adaptive_suite_with_threads`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveJob<'a> {
    /// The program to replicate and adapt.
    pub module: &'a Module,
    /// Entry-function arguments.
    pub args: &'a [Value],
    /// The segmented input tape (segment 0 plans, the rest drift).
    pub segments: &'a [Vec<Value>],
}

/// Runs [`run_pipeline_adaptive`] over every job on the analysis
/// engine's worker pool, returning results in job order. Like
/// [`run_pipeline_suite`], nested parallelism degrades to serial on
/// worker threads, so the output — patch sequences included — is
/// **bit-identical** to running the jobs in a serial loop.
pub fn run_pipeline_adaptive_suite_with_threads(
    jobs: &[AdaptiveJob<'_>],
    config: AdaptiveConfig,
    threads: usize,
) -> Vec<Result<AdaptiveResult, PipelineError>> {
    brepl_core::par_map_with(threads, jobs, |job| {
        run_pipeline_adaptive(job.module, job.args, job.segments, config)
    })
}

/// State count of a planned machine.
fn machine_states(m: &BranchMachine) -> usize {
    match m {
        BranchMachine::Loop(sm) => sm.len(),
        BranchMachine::Correlated(c) => c.states(),
    }
}

/// `; `-joined rendering of a diagnostic batch.
fn render_joined(diags: &[AnalysisDiag], module: &Module) -> String {
    diags
        .iter()
        .map(|d| d.render(module))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Removes the sites implicated by `errors` from `enabled`, recording
/// each drop. Diagnostics that carry a site attribution quarantine that
/// site alone; a batch with no attributable site degrades coarsely to the
/// unreplicated baseline (drops every enabled site). Mis-attributions are
/// self-correcting: the caller re-validates, and any surviving error
/// quarantines further sites next round.
///
/// # Errors
///
/// Errors against an *empty* plan cannot come from replication and are
/// reported as a hard [`PipelineError`] even in non-strict mode.
fn quarantine_errors(
    errors: &[AnalysisDiag],
    gate: QuarantineGate,
    round: usize,
    rendered_in: &Module,
    enabled: &mut BTreeSet<BranchId>,
    quarantined: &mut Vec<QuarantinedSite>,
) -> Result<(), PipelineError> {
    if enabled.is_empty() {
        return Err(gate.hard_error(render_joined(errors, rendered_in)));
    }
    let mut by_site: BTreeMap<BranchId, Vec<&AnalysisDiag>> = BTreeMap::new();
    for d in errors {
        if let Some(site) = d.site.filter(|s| enabled.contains(s)) {
            by_site.entry(site).or_default().push(d);
        }
    }
    if by_site.is_empty() {
        let mut codes: Vec<DiagCode> = errors.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        let reason = render_capped(errors, rendered_in);
        for &site in enabled.iter() {
            quarantined.push(QuarantinedSite {
                site,
                gate,
                codes: codes.clone(),
                reason: reason.clone(),
                round,
            });
        }
        enabled.clear();
        return Ok(());
    }
    for (site, diags) in by_site {
        let mut codes: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        enabled.remove(&site);
        quarantined.push(QuarantinedSite {
            site,
            gate,
            codes,
            reason: render_capped(
                &diags.iter().map(|&d| d.clone()).collect::<Vec<_>>(),
                rendered_in,
            ),
            round,
        });
    }
    Ok(())
}

/// Renders at most three diagnostics (quarantine reasons stay readable).
fn render_capped(diags: &[AnalysisDiag], module: &Module) -> String {
    let mut s = diags
        .iter()
        .take(3)
        .map(|d| d.render(module))
        .collect::<Vec<_>>()
        .join("; ");
    if diags.len() > 3 {
        s.push_str(&format!("; … and {} more", diags.len() - 3));
    }
    s
}

/// The refinement drop rule: a machine is kept only while it is *strictly
/// better* than plain profile prediction on the profiling trace replayed
/// through the replicated program.
///
/// Intended rule, stated explicitly (the original expression leaned on
/// `&&`/`||` precedence): drop when the realized machine is no better than
/// profile —
///
/// * `profile_misses > 0`: drop when `realized >= profile_misses` (equal
///   realized misses mean the replication bought nothing and only costs
///   code size);
/// * `profile_misses == 0`: profile is already perfect, so keep the
///   machine only while it is also perfect — drop when `realized > 0`.
fn refine_should_drop(realized: u64, profile_misses: u64) -> bool {
    (profile_misses > 0 && realized >= profile_misses) || (profile_misses == 0 && realized > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};

    fn alternating_module() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        let acc = b.reg();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        let head = b.new_block();
        let even = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(2));
        let c = b.eq(r.into(), Operand::imm(0));
        b.br(c, even, odd);
        b.switch_to(even);
        b.add(acc, acc.into(), Operand::imm(3));
        b.jmp(latch);
        b.switch_to(odd);
        b.add(acc, acc.into(), Operand::imm(5));
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        let c2 = b.lt(i.into(), Operand::imm(300));
        b.br(c2, head, exit);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn pipeline_halves_misprediction_on_alternation() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        // Profile: the alternating branch costs ~25% of all events.
        assert!(result.profile_misprediction_percent > 20.0);
        // Replication: near zero.
        assert!(result.replicated_misprediction_percent < 1.0);
        assert!(result.size_growth > 1.0 && result.size_growth < 4.0);
        assert_eq!(result.trace_events, 600);
        // A clean run quarantines nothing and takes no backoff step.
        assert!(result.quarantined.is_empty());
        assert!(result.size_backoffs.is_empty());
    }

    /// The refine rule must drop a branch whose realized machine exactly
    /// matches profile (`realized == profile_misses`): such a machine buys
    /// nothing and only costs code size. This pins the intended semantics
    /// of the old precedence-reliant expression
    /// `a >= b && b > 0 || a > b`.
    #[test]
    fn refine_drops_machines_no_better_than_profile() {
        // realized == profile_misses > 0: no better than profile -> drop.
        assert!(refine_should_drop(5, 5));
        // Strictly worse than profile -> drop.
        assert!(refine_should_drop(6, 5));
        // Strictly better than profile -> keep.
        assert!(!refine_should_drop(4, 5));
        assert!(!refine_should_drop(0, 5));
        // Profile is perfect: keep only a perfect machine.
        assert!(!refine_should_drop(0, 0));
        assert!(refine_should_drop(1, 0));
    }

    /// End-to-end: a machine whose re-measured misses equal its profile
    /// misses is pruned by the refinement loop, never shipped.
    #[test]
    fn shipped_machines_strictly_beat_profile() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let mut folded: std::collections::HashMap<brepl_ir::BranchId, u64> =
            std::collections::HashMap::new();
        // Re-measure the shipped program and fold misses to original sites.
        let outcome = Machine::new(&result.program.module, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        let report = evaluate_static(&result.program.predictions, &outcome.trace);
        for (site, _, wrong) in report.iter_sites() {
            *folded
                .entry(result.program.provenance[site.index()])
                .or_default() += wrong;
        }
        for choice in result.selection.choices() {
            if !result.replicated_sites.contains(&choice.site) {
                continue;
            }
            let realized = folded.get(&choice.site).copied().unwrap_or(0);
            // The site's machine shipped: it must have survived
            // refinement, i.e. be strictly better than profile.
            assert!(
                !refine_should_drop(realized, choice.profile_misses),
                "site {} shipped with realized {} vs profile {}",
                choice.site,
                realized,
                choice.profile_misses
            );
        }
        assert!(
            !result.replicated_sites.is_empty(),
            "the alternating branch should ship a machine"
        );
    }

    /// With the backstop on, the shipped rate comes from the replay; with
    /// it off, from scoring the simulated trace. The two must agree bit
    /// for bit, with refinement on or off.
    #[test]
    fn replayed_rate_equals_the_measured_rate() {
        let m = alternating_module();
        for refine in [true, false] {
            let config = PipelineConfig {
                refine,
                ..PipelineConfig::default()
            };
            let replayed = run_pipeline(&m, &[], &[], config).unwrap();
            let measured = run_pipeline(
                &m,
                &[],
                &[],
                PipelineConfig {
                    dynamic_backstop: false,
                    ..config
                },
            )
            .unwrap();
            assert_eq!(replayed.replicated_sites, measured.replicated_sites);
            assert_eq!(
                replayed.replicated_misprediction_percent.to_bits(),
                measured.replicated_misprediction_percent.to_bits(),
                "refine = {refine}"
            );
        }
    }

    /// Static planning ships a replicated program with zero profiling
    /// runs, passes every gate, and still re-measures for real.
    #[test]
    fn static_planning_ships_without_profiling() {
        let m = alternating_module();
        let r = run_pipeline_static(&m, &[], &[], PipelineConfig::default()).unwrap();
        assert!(r.static_planned);
        let est = r.estimate.expect("the estimator ran");
        assert!(est.converged);
        assert!(est.exact_sites + est.heuristic_sites >= 2);
        assert!(r.quarantined.is_empty(), "{:?}", r.quarantined);
        assert!(r.trace_events > 0, "the synthetic plan input has events");
        // The after-the-fact measurement is a real simulator run.
        assert!(r.replicated_misprediction_percent.is_finite());
        // Strict mode agrees: nothing fires on the honest estimate.
        let strict = run_pipeline_static(
            &m,
            &[],
            &[],
            PipelineConfig {
                strict: true,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(strict.replicated_sites, r.replicated_sites);
    }

    /// The always-on estimator summarizes itself on profiled runs and
    /// the drift gate stays silent on honest traces.
    #[test]
    fn estimator_is_always_on_and_silent_when_honest() {
        let m = alternating_module();
        let r = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let est = r.estimate.expect("estimate defaults on");
        assert!(est.converged);
        assert!(est.exact_sites + est.heuristic_sites >= 2);
        assert!(!r.static_planned);
        assert!(
            !r.quarantined
                .iter()
                .any(|q| q.gate == QuarantineGate::Estimate),
            "honest trace must not drift: {:?}",
            r.quarantined
        );

        let off = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                estimate: false,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(off.estimate.is_none());
        assert_eq!(off.replicated_sites, r.replicated_sites);
    }

    #[test]
    fn verification_can_be_disabled() {
        let m = alternating_module();
        let config = PipelineConfig {
            validate: false,
            dynamic_backstop: false,
            ..PipelineConfig::default()
        };
        let result = run_pipeline(&m, &[], &[], config).unwrap();
        assert!(
            result.warnings.is_empty(),
            "validation off collects nothing"
        );
    }

    #[test]
    fn validation_passes_and_collects_only_warnings() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        // run_pipeline returned Ok, so no error-severity diagnostics; what
        // was collected must all be warnings.
        for d in &result.warnings {
            assert_eq!(d.severity(), brepl_analysis::Severity::Warning, "{d}");
        }
    }

    /// Strict mode must not change a clean run's numbers: same shipped
    /// sites, same misprediction, no quarantine either way.
    #[test]
    fn strict_mode_is_identical_on_clean_runs() {
        let m = alternating_module();
        let relaxed = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let strict = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                strict: true,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(relaxed.replicated_sites, strict.replicated_sites);
        assert_eq!(
            relaxed.replicated_misprediction_percent,
            strict.replicated_misprediction_percent
        );
        assert!(strict.quarantined.is_empty());
    }

    /// The realized-growth budget backs off machine sizes (recording each
    /// step) until the shipped module fits, and the result still passes
    /// every gate.
    #[test]
    fn realized_growth_budget_backs_off_and_ships_within_budget() {
        let m = alternating_module();
        let budget = 1.05;
        let result = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                max_realized_growth: Some(budget),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(
            result.size_growth <= budget,
            "shipped growth {} exceeds budget {budget}",
            result.size_growth
        );
        // The default run replicates (growth > 1.05 per the test above),
        // so the budget must have forced at least one backoff step.
        assert!(
            !result.size_backoffs.is_empty() || !result.quarantined.is_empty(),
            "a 1.05x budget cannot be met without backing off"
        );
        for q in &result.quarantined {
            assert_eq!(q.gate, QuarantineGate::SizeBudget);
        }
        // Shrink steps must strictly reduce state counts.
        for b in &result.size_backoffs {
            assert!(b.to_states < b.from_states, "{b:?}");
        }
    }

    /// A generous realized budget changes nothing: no backoff, identical
    /// shipped sites.
    #[test]
    fn generous_realized_budget_is_a_no_op() {
        let m = alternating_module();
        let base = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let capped = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                max_realized_growth: Some(100.0),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(capped.size_backoffs.is_empty());
        assert_eq!(base.replicated_sites, capped.replicated_sites);
        assert_eq!(base.size_growth, capped.size_growth);
    }
}
