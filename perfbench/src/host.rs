//! Host-speed calibration.
//!
//! On a shared host the same single-threaded code runs a quarter or a
//! third slower for minutes at a time, whatever the benchmark does, and
//! no number of repetitions inside one run averages that away. So every
//! timed region is bracketed by two runs of a fixed kernel that belongs to
//! this crate — no code of the repository runs in it — and the region's
//! wall seconds are scaled by how much slower than nominal the kernel ran
//! around it. The result is seconds at nominal host speed: a change to the
//! repository's code moves it as it moves wall time, while a slow phase of
//! the host moves the region and the kernel alike and cancels out.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the memory phase's table (4 MiB of `u32`): larger than the
/// private caches, like the simulator's and the search's working sets.
const TABLE_LEN: usize = 1 << 20;
/// Steps of the memory phase (about 11 ms).
const WALK_STEPS: usize = 2_000_000;
/// Entries of the dispatch phase's program (256 KiB of `u32`).
const PROGRAM_LEN: usize = 1 << 16;
/// Steps of the dispatch phase (about 22 ms).
const DISPATCH_STEPS: usize = 3_000_000;
/// The kernel's wall seconds at nominal host speed: its typical time on
/// the 2-vCPU x86-64 VM the benchmark was tuned on.
pub const NOMINAL_KERNEL_S: f64 = 0.035;

/// Wall and nominal-speed seconds of one timed region.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall: f64,
    pub nominal: f64,
}

/// The calibration kernel's state and its run times.
pub struct HostClock {
    table: Vec<u32>,
    program: Vec<u32>,
    /// Seconds of every kernel run so far.
    pub kernel_secs: Vec<f64>,
}

impl HostClock {
    pub fn new() -> Self {
        HostClock {
            table: (0..TABLE_LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            program: (0..PROGRAM_LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) >> 16)
                .collect(),
            kernel_secs: Vec::new(),
        }
    }

    /// One kernel run, in two phases that a shared host slows in different
    /// measures: a xorshift walk over the table with a data-dependent
    /// branch and a store per step (memory latency), then an interpreter
    /// loop over a table of opcodes with unpredictable jumps (dispatch).
    /// Together they track the slowdown of every workload closer than
    /// either alone. Returns its seconds.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u64 = 0;
        for _ in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE_LEN - 1);
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else {
                acc ^= u64::from(v);
            }
            self.table[i] = v.wrapping_add(acc as u32);
        }
        let mut pc = 0;
        for _ in 0..DISPATCH_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let op = self.program[pc];
            pc = match op & 3 {
                0 => pc + 1,
                1 => op as usize ^ x as usize,
                2 => {
                    acc = acc.wrapping_mul(31).wrapping_add(u64::from(op));
                    pc + 7
                }
                _ if acc & 1 == 0 => pc + 3,
                _ => x as usize,
            } & (PROGRAM_LEN - 1);
        }
        black_box(acc);
        let secs = start.elapsed().as_secs_f64();
        self.kernel_secs.push(secs);
        secs
    }

    /// Runs `f` between two kernel runs and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.kernel();
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let after = self.kernel();
        let slowdown = (before + after) / (2.0 * NOMINAL_KERNEL_S);
        (
            out,
            Timing {
                wall,
                nominal: wall / slowdown,
            },
        )
    }
}
