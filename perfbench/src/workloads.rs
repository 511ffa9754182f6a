//! The benchmark's workloads. Each is a list of jobs — one pipeline call
//! each — generated from the benchmark seed.

use brepl::pipeline::PipelineConfig;
use brepl_ir::{Module, Value};
use brepl_workloads::synth::{self, gate_tape, GatePattern};
use brepl_workloads::{kmp, workload_with_seed, Scale};

/// The eight programs of the paper's Table 1.
const PAPER_PROGRAMS: [&str; 8] = [
    "abalone",
    "c-compiler",
    "compress",
    "ghostview",
    "predict",
    "prolog",
    "scheduler",
    "doduc",
];

/// Full-scale datasets per paper program in one run: the run seed's own
/// and two derived from it. A program's pipeline time moves by up to half
/// from one dataset to the next (trace length, refine rounds), so a run
/// over one dataset per program would measure its seed more than the code.
const PAPER_DATASETS: u64 = 3;

/// Diamond counts of the wide-cfg batch, around and past the knee where
/// selection cost per module climbs steeply; events stay near 10k.
const WIDE_DIAMONDS: [usize; 3] = [42, 44, 46];
/// Module shapes per diamond count.
const WIDE_SHAPES_PER_WIDTH: usize = 4;
/// Loop trip count of every wide-cfg module.
const WIDE_TRIP: i64 = 200;

/// Symbols per drift-respec segment.
const DRIFT_SEGMENT: usize = 240_000;

/// One pipeline call's inputs.
pub struct Job {
    pub name: String,
    pub module: Module,
    pub args: Vec<Value>,
    /// The input tape split into segments. Plain jobs have one segment;
    /// adaptive jobs plan on segment 0 and observe the rest.
    pub segments: Vec<Vec<Value>>,
    /// Run through `run_pipeline_adaptive` instead of `run_pipeline`.
    pub adaptive: bool,
    pub config: PipelineConfig,
}

impl Job {
    /// The whole input tape.
    pub fn input(&self) -> Vec<Value> {
        self.segments.concat()
    }
}

/// Generates a workload's jobs from `seed`; `None` for an unknown name.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Job>> {
    match workload {
        "paper-suite" => Some(paper_suite(seed)),
        "wide-cfg" => Some(wide_cfg(seed)),
        "drift-respec" => Some(drift_respec(seed)),
        _ => None,
    }
}

/// SplitMix64 finalizer: spreads consecutive seeds over the whole range.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's eight programs on the full-scale datasets of `seed` and
/// of seeds derived from it.
fn paper_suite(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for k in 0..PAPER_DATASETS {
        let data_seed = if k == 0 { seed } else { mix(seed ^ mix(k)) };
        for name in PAPER_PROGRAMS {
            let w = workload_with_seed(name, Scale::Full, data_seed).expect("paper program exists");
            jobs.push(Job {
                name: format!("{name}/{k}"),
                module: w.module,
                args: w.args,
                segments: vec![w.input],
                adaptive: false,
                config: PipelineConfig::default(),
            });
        }
    }
    jobs
}

/// Wide loop bodies with short trips: fixed module shapes on the default
/// `rand` stream. The inputs ignore the seed on purpose: selection cost on
/// these shapes moves by up to 2x from one `rand` stream or trip count to
/// the next, so a seeded batch of a size that fits one run cannot hold
/// `pipeline_s` within its bound across seeds.
fn wide_cfg(_seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for round in 0..WIDE_SHAPES_PER_WIDTH {
        for (i, &diamonds) in WIDE_DIAMONDS.iter().enumerate() {
            let shape = (round * WIDE_DIAMONDS.len() + i) as u64;
            jobs.push(Job {
                name: format!("wide-d{diamonds}-s{shape}"),
                module: synth::random_loop_module(shape, diamonds, WIDE_TRIP),
                args: Vec::new(),
                segments: vec![Vec::new()],
                adaptive: false,
                config: PipelineConfig::default(),
            });
        }
    }
    jobs
}

/// The five drift scenarios of the re-specialization layer: three over
/// seeded Morris–Pratt text whose bias shifts (or not) after the plan,
/// two over the input-gate module whose tape pattern changes.
fn drift_respec(seed: u64) -> Vec<Job> {
    let n = DRIFT_SEGMENT;
    let text = |name: &str, stream: u64, biases: &[(u64, u64)]| Job {
        name: name.to_string(),
        module: kmp::drift_module(),
        args: Vec::new(),
        segments: biases
            .iter()
            .enumerate()
            .map(|(k, &(num, den))| {
                kmp::biased_text(n, mix(seed ^ mix(stream + k as u64)), num, den)
            })
            .collect(),
        adaptive: true,
        config: PipelineConfig::default(),
    };
    let gate = |name: &str, patterns: &[GatePattern]| Job {
        name: name.to_string(),
        module: synth::input_gate_module(),
        args: Vec::new(),
        segments: patterns.iter().map(|&p| gate_tape(n, p)).collect(),
        adaptive: true,
        config: PipelineConfig::default(),
    };
    use GatePattern::{Alternating, Constant};
    vec![
        text("kmp-swap", 0, &[(1, 4), (3, 4), (3, 4)]),
        text("kmp-reverse", 10, &[(3, 4), (1, 4), (1, 4)]),
        text("kmp-stable", 20, &[(1, 2), (1, 2), (1, 2)]),
        gate("gate-demote", &[Alternating, Constant(1), Constant(1)]),
        gate(
            "gate-reinflate",
            &[
                Alternating,
                Constant(1),
                Constant(1),
                Alternating,
                Alternating,
            ],
        ),
    ]
}
