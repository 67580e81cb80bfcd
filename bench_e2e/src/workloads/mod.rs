//! The six workloads. Each module has one `run(args, tracer)` that sets
//! up from the seed, measures for `args.seconds`, checks its outputs
//! and hands back an [`crate::common::Outcome`].

pub mod fleet;
pub mod md_domain;
pub mod md_served;
pub mod online;
pub mod train;
