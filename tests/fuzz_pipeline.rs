//! Differential fuzz harness: deterministic random programs through the
//! full pipeline, asserting no panic and execution equivalence; plus a
//! totality fuzz of the trace codec.
//!
//! Failures shrink automatically to a minimal `(seed, diamonds, trip)`
//! triple printed in the panic message — regenerate the failing module
//! with `brepl_workloads::synth::random_loop_module(seed, diamonds,
//! trip)`. The release-mode `fuzz` bin in `brepl-bench` runs the same
//! harness for thousands of iterations; this tier-1 sweep keeps a bounded
//! slice of it in `cargo test`.

mod common;

use brepl::core::ReplicatedProgram;
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::predict::evaluate_static;
use brepl::sim::{Machine, RunConfig};
use brepl::trace::{Trace, TraceEvent};
use brepl::workloads::synth::{random_loop_module, Gen};
use brepl_analysis::replay_static;
use brepl_ir::{BranchId, Module};
use common::replay_oracle::{executed, reference_replay};

/// One fuzz case: build the module and run the full pipeline (all gates +
/// dynamic backstop on, so success implies execution equivalence between
/// the original and the shipped program), then hold the compiled replay
/// of the profiling trace through the shipped program to the reference
/// walker and to scoring the shipped program's own simulated trace, per
/// replica. `Err` carries a description of the failure; a panic anywhere
/// inside is caught and reported too.
fn pipeline_case(
    seed: u64,
    diamonds: usize,
    trip: i64,
    config: PipelineConfig,
) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        run_pipeline(&m, &[], &[], config).map(|result| (m, result))
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(Err(e)) => Err(format!("pipeline error: {e}")),
        Ok(Ok((m, result))) => {
            // Quarantine may legitimately fire under tight budgets, but a
            // clean default run must never quarantine.
            if config.strict && !result.quarantined.is_empty() {
                Err("strict run returned quarantined sites".to_string())
            } else {
                replay_agrees(&m, &result.program)
            }
        }
    }
}

/// Compiled replay == reference walker == `evaluate_static` over the
/// simulated replicated trace, per replica.
fn replay_agrees(m: &Module, p: &ReplicatedProgram) -> Result<(), String> {
    let simulate = |module: &Module| {
        Machine::new(module, RunConfig::default())
            .and_then(|mut machine| machine.run("main", &[]))
            .map(|outcome| outcome.trace)
            .map_err(|e| format!("simulation failed: {e}"))
    };
    let trace = simulate(m)?;
    let replayed = replay_static(&p.module, &p.provenance, &p.predictions, &trace, "main")
        .map_err(|e| format!("replay failed: {e}"))?;
    let reference = reference_replay(&p.module, &p.provenance, &p.predictions, &trace, "main")
        .map_err(|e| format!("reference replay failed: {e}"))?;
    let simulated = evaluate_static(&p.predictions, &simulate(&p.module)?);
    if executed(&replayed) != executed(&reference) {
        return Err("compiled replay differs from the reference walker".to_string());
    }
    if executed(&replayed) != executed(&simulated) {
        return Err("compiled replay differs from the simulated replicated trace".to_string());
    }
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

/// Greedily shrinks a failing case to a minimal reproducer and formats
/// the recipe to print. Shrinking preserves the failure, reducing
/// `diamonds` first (structure), then halving `trip` (work).
fn shrink_report(
    seed: u64,
    diamonds: usize,
    trip: i64,
    config: PipelineConfig,
    err: &str,
) -> String {
    let (mut d, mut t) = (diamonds, trip);
    loop {
        if d > 0 && pipeline_case(seed, d - 1, t, config).is_err() {
            d -= 1;
        } else if t > 1 && pipeline_case(seed, d, t / 2, config).is_err() {
            t /= 2;
        } else {
            break;
        }
    }
    format!(
        "fuzz failure, minimal repro: seed={seed} diamonds={d} trip={t} \
         (random_loop_module(seed, diamonds, trip)); original failure: {err}"
    )
}

/// Tier-1 slice of the differential fuzz: ~100 deterministic cases with
/// the default config (every gate + the dynamic backstop armed).
#[test]
fn fuzz_pipeline_default_config() {
    let config = PipelineConfig::default();
    for seed in 0..100u64 {
        let diamonds = (seed % 5) as usize;
        let trip = 20 + (seed % 7) as i64 * 20;
        if let Err(e) = pipeline_case(seed, diamonds, trip, config) {
            panic!("{}", shrink_report(seed, diamonds, trip, config, &e));
        }
    }
}

/// The degraded configurations must be equally panic-free: strict mode,
/// refinement off, and a tight realized-growth budget forcing backoff.
#[test]
fn fuzz_pipeline_config_variants() {
    let variants = [
        PipelineConfig {
            strict: true,
            ..PipelineConfig::default()
        },
        PipelineConfig {
            refine: false,
            ..PipelineConfig::default()
        },
        PipelineConfig {
            max_realized_growth: Some(1.2),
            ..PipelineConfig::default()
        },
    ];
    for (v, config) in variants.into_iter().enumerate() {
        for seed in 0..12u64 {
            let diamonds = (seed % 4) as usize;
            let trip = 25 + (seed % 5) as i64 * 15;
            if let Err(e) = pipeline_case(seed, diamonds, trip, config) {
                panic!(
                    "variant {v}: {}",
                    shrink_report(seed, diamonds, trip, config, &e)
                );
            }
        }
    }
}

/// Classification-soundness oracle: a direction verdict contradicted by
/// the simulated trace is an analysis bug, full stop. For each fuzz
/// module: every proved-monostatic verdict must match the honest trace
/// event-by-event, nothing proved unreachable may execute, and the
/// classification gate (exact BoundedBias rationals included) must pass
/// with zero error-severity diagnostics.
fn classify_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = brepl_analysis::classify_module(&m);
        let run = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .map_err(|e| format!("machine init: {e}"))?
            .run("main", &[])
            .map_err(|e| format!("run: {e}"))?;
        for ev in run.trace.iter() {
            if let Some(sc) = cls.by_site(ev.site) {
                if !sc.reachable {
                    return Err(format!("site {} proved unreachable but executed", ev.site));
                }
                if let Some(dir) = sc.class.proved_direction() {
                    if ev.taken != dir {
                        return Err(format!(
                            "site {} proved {} but the trace went the other way",
                            ev.site,
                            if dir { "always-taken" } else { "never-taken" },
                        ));
                    }
                }
            }
        }
        let diags = brepl_analysis::classification_diags(&m, &cls, &run.trace.stats());
        let errors: Vec<String> = diags
            .iter()
            .filter(|d| d.severity() == brepl_analysis::Severity::Error)
            .map(|d| d.render(&m))
            .collect();
        if !errors.is_empty() {
            return Err(format!(
                "honest trace fails the gate: {}",
                errors.join("; ")
            ));
        }
        Ok(())
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(r) => r,
    }
}

/// Tier-1 slice of the classification-soundness fuzz; the release-mode
/// `fuzz` bin sweeps thousands of modules through the same oracle.
#[test]
fn fuzz_classification_is_sound() {
    for seed in 0..150u64 {
        let diamonds = (seed % 5) as usize;
        let trip = 10 + (seed % 9) as i64 * 17;
        if let Err(e) = classify_case(seed, diamonds, trip) {
            // Shrink while the violation persists: structure first, then
            // work, mirroring `shrink_report`.
            let (mut d, mut t) = (diamonds, trip);
            loop {
                if d > 0 && classify_case(seed, d - 1, t).is_err() {
                    d -= 1;
                } else if t > 1 && classify_case(seed, d, t / 2).is_err() {
                    t /= 2;
                } else {
                    break;
                }
            }
            panic!(
                "classification unsound, minimal repro: seed={seed} diamonds={d} trip={t} \
                 (random_loop_module(seed, diamonds, trip)); original failure: {e}"
            );
        }
    }
}

/// Estimator totality oracle: the static profile estimator must be a
/// *total* function of the module — never panic, never emit a NaN,
/// infinite or negative frequency, always satisfy its own
/// flow-conservation invariant — and its drift gate must be provably
/// silent on honest data: running the module and handing the estimator's
/// own output plus the real trace to [`brepl_analysis::static_profile_diags`]
/// must fire no `BR019`/`BR020`/`BR021`. (`BR022` fail-closed reports
/// are legitimate on pathological flow, so the oracle tolerates them —
/// fail-closed is the contract, not a bug.)
fn estimate_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    use brepl_analysis::DiagCode;
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = brepl_analysis::classify_module(&m);
        let profile = brepl_analysis::estimate_profile(&m, &cls);
        for s in &profile.sites {
            if !s.freq.is_finite() || s.freq < 0.0 {
                return Err(format!("site {} has bogus frequency {}", s.site, s.freq));
            }
            let p = s.bias.prob();
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "site {} bias probability {p} outside [0,1]",
                    s.site
                ));
            }
        }
        for (f, fp) in profile.funcs.iter().enumerate() {
            for freqs in [&fp.bfreq, &fp.prob] {
                if let Some(bad) = freqs.iter().find(|v| !v.is_finite() || **v < 0.0) {
                    return Err(format!("function {f} carries bogus value {bad}"));
                }
            }
        }
        let violations = profile.check_conservation(&m);
        if let Some((f, b, err)) = violations.first() {
            return Err(format!("conservation violated at {f}/{b} by {err}"));
        }
        let run = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .map_err(|e| format!("machine init: {e}"))?
            .run("main", &[])
            .map_err(|e| format!("run: {e}"))?;
        let diags = brepl_analysis::static_profile_diags(&m, &cls, &profile, &run.trace.stats());
        let false_alarms: Vec<String> = diags
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    DiagCode::EstimateDriftConflict
                        | DiagCode::EstimateUnreachableMass
                        | DiagCode::EstimateConservationViolation
                )
            })
            .map(|d| d.render(&m))
            .collect();
        if !false_alarms.is_empty() {
            return Err(format!(
                "honest trace fires the drift gate: {}",
                false_alarms.join("; ")
            ));
        }
        Ok(())
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(r) => r,
    }
}

/// Tier-1 slice of the estimator totality fuzz; the release-mode `fuzz`
/// bin sweeps thousands of modules through the same oracle.
#[test]
fn fuzz_estimator_is_total_and_gate_silent_when_honest() {
    for seed in 0..150u64 {
        let diamonds = (seed % 5) as usize;
        let trip = 10 + (seed % 9) as i64 * 17;
        if let Err(e) = estimate_case(seed, diamonds, trip) {
            let (mut d, mut t) = (diamonds, trip);
            loop {
                if d > 0 && estimate_case(seed, d - 1, t).is_err() {
                    d -= 1;
                } else if t > 1 && estimate_case(seed, d, t / 2).is_err() {
                    t /= 2;
                } else {
                    break;
                }
            }
            panic!(
                "estimator broken, minimal repro: seed={seed} diamonds={d} trip={t} \
                 (random_loop_module(seed, diamonds, trip)); original failure: {e}"
            );
        }
    }
}

/// Codec totality fuzz: random traces round-trip exactly; byte mutations,
/// truncations and garbage always decode to `Ok` or a typed error — a
/// panic anywhere fails the test by unwinding.
#[test]
fn fuzz_trace_codec_total() {
    let mut g = Gen::new(0xC0DEC);
    for case in 0..200u64 {
        let len = g.below(400) as usize + 1;
        let sites = g.below(60) + 1;
        let mut t = Trace::new();
        for _ in 0..len {
            t.push(TraceEvent {
                site: BranchId(g.below(sites) as u32),
                taken: g.below(2) == 1,
            });
        }
        let bytes = t.to_bytes();
        assert_eq!(
            Trace::from_bytes(&bytes).unwrap(),
            t,
            "case {case}: round-trip mismatch"
        );
        // Single-byte mutation at a random offset.
        let mut mutated = bytes.clone();
        let at = g.below(mutated.len() as u64) as usize;
        mutated[at] ^= (g.below(255) + 1) as u8;
        let _ = Trace::from_bytes(&mutated);
        // Random truncation.
        let cut = g.below(bytes.len() as u64) as usize;
        let _ = Trace::from_bytes(&bytes[..cut]);
        // Pure garbage of random length.
        let glen = g.below(64) as usize;
        let garbage: Vec<u8> = (0..glen).map(|_| g.next() as u8).collect();
        let _ = Trace::from_bytes(&garbage);
    }
}
