//! Facade crate re-exporting the iCFP reproduction workspace.
pub use icfp_bpred as bpred;
pub use icfp_core as core;
pub use icfp_isa as isa;
pub use icfp_mem as mem;
pub use icfp_pipeline as pipeline;
pub use icfp_sim as sim;
pub use icfp_sweep as sweep;
pub use icfp_workloads as workloads;
