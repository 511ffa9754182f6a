//! Shared helpers for the integration tests: a deterministic random
//! program generator producing terminating, branch-rich modules.
//!
//! The implementation lives in `brepl_workloads::synth` so the fuzz
//! harness binaries can use it too; this module just re-exports it.

// Each integration-test binary includes this module but uses only part
// of it.
#![allow(unused_imports)]

pub use brepl_workloads::synth::{random_loop_module, Gen};

#[allow(dead_code)]
pub mod adaptive_oracle;
#[allow(dead_code)]
pub mod path_profile_oracle;
#[allow(dead_code)]
pub mod replay_oracle;
