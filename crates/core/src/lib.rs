#![warn(missing_docs)]

//! The Baryon hybrid-memory architecture (HPCA 2023) and its baselines.
//!
//! This crate is the heart of the reproduction. It implements:
//!
//! * the **Baryon controller** ([`controller::BaryonController`]): 2 kB blocks
//!   split into 256 B sub-blocks, FPC/BDI compression at CF ∈ {1, 2, 4},
//!   the **stage area** with two-level replacement and selective commit,
//!   the **dual-format metadata** scheme (stage tag entries + compact remap
//!   entries), cacheline-aligned compression with memory-to-LLC prefetch,
//!   compressed fast-to-slow writeback, and both **cache** and **flat**
//!   hybrid-memory schemes (flat with spread-swap / three-way slow swap);
//! * the **baselines** the paper compares against: a Simple 2 kB DRAM cache,
//!   Unison Cache, DICE, and Hybrid2 ([`baselines`]);
//! * the **system driver** ([`system::System`]) that ties together the trace
//!   generators, the cache hierarchy and a memory controller and measures
//!   end-to-end performance.
//!
//! # Quick start
//!
//! ```
//! use baryon_core::config::BaryonConfig;
//! use baryon_core::system::{System, SystemConfig};
//! use baryon_workloads::{by_name, Scale};
//!
//! let scale = Scale { divisor: 2048 };
//! let workload = by_name("505.mcf_r", scale).expect("workload exists");
//! let cfg = SystemConfig::baryon_cache_mode(scale);
//! let mut system = System::new(cfg, &workload, 42);
//! let result = system.run(20_000);
//! assert!(result.total_cycles > 0);
//! let _ = BaryonConfig::default_cache_mode(scale);
//! ```

pub mod addr;
pub mod baselines;
pub mod budget;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod ctrl;
pub mod family;
pub mod metadata;
pub mod metrics;
pub mod policy;
pub mod remap;
pub mod stage;
pub mod system;

pub use addr::Geometry;
pub use config::{BaryonConfig, HybridMode, RemapKind};
pub use ctrl::{MemoryController, Request, Response};
pub use family::FamilyId;
pub use metrics::RunResult;
pub use policy::{FleetPolicy, Knobs};
