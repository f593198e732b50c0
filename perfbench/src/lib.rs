//! The iCache repository benchmark: four workloads, end-to-end host and
//! modelled metrics, and a traced per-layer breakdown. See `README.md`
//! beside this crate for what each workload and metric is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod tracer;
pub mod workload;
