//! # paradigm-mdg — Macro Dataflow Graphs
//!
//! The *Macro Dataflow Graph* (MDG) is the program representation used by
//! the PARADIGM compiler work reproduced in this workspace (Ramaswamy,
//! Sapatnekar & Banerjee, ICPP 1994). An MDG is a weighted directed acyclic
//! graph:
//!
//! * **nodes** correspond to loop nests of the source program and carry a
//!   data-parallel *processing cost* description (Amdahl's law parameters
//!   plus kernel metadata used by the simulator);
//! * **edges** correspond to precedence constraints and carry the arrays
//!   that must be redistributed between the processor groups executing the
//!   two endpoint loops (the *data transfer* description).
//!
//! Two distinguished nodes, [`NodeKind::Start`] and [`NodeKind::Stop`],
//! act as the FORK and JOIN of the whole program: START precedes every
//! node and STOP succeeds every node (directly or indirectly). The
//! [`MdgBuilder`] inserts and wires them automatically.
//!
//! This crate contains only the graph structure and graph algorithms
//! (topological order, critical path, validation, rendering); the cost
//! *functions* live in `paradigm-cost` and the allocation/scheduling
//! algorithms in `paradigm-solver` / `paradigm-sched`.
//!
//! ## Quick example
//!
//! ```
//! use paradigm_mdg::{MdgBuilder, AmdahlParams, ArrayTransfer, TransferKind};
//!
//! let mut b = MdgBuilder::new("demo");
//! let a = b.compute("A", AmdahlParams::new(0.05, 1.0));
//! let c = b.compute("C", AmdahlParams::new(0.05, 2.0));
//! b.edge(a, c, vec![ArrayTransfer::new(32 * 1024, TransferKind::OneD)]);
//! let mdg = b.finish().unwrap();
//! assert_eq!(mdg.compute_node_count(), 2);
//! // START and STOP are added automatically:
//! assert_eq!(mdg.node_count(), 4);
//! assert!(mdg.topo_order().len() == 4);
//! ```

pub mod builders;
pub mod dot;
pub mod footprint;
pub mod gallery;
pub mod graph;
pub mod hash;
pub mod json;
pub mod node;
pub mod random;
pub mod stats;
pub mod textfmt;
pub mod transform;
pub mod validate;

pub use builders::{
    complex_matmul_mdg, example_fig1_mdg, strassen_mdg, strassen_mdg_multilevel, KernelCostTable,
};
pub use footprint::{edge_payload_bytes, node_footprint, total_comm_bytes, NodeFootprint};
pub use gallery::{block_lu_mdg, fft_2d_mdg, stencil_mdg};
pub use graph::{CostParam, EdgeId, Mdg, MdgBuilder, MdgError, NodeId};
pub use hash::{structural_hash, Mix128};
pub use json::{parse as parse_json, Json, JsonError};
pub use node::{
    AmdahlParams, ArrayTransfer, Edge, LoopClass, LoopMeta, Node, NodeKind, TransferKind,
};
pub use random::{fork_join_mdg, random_layered_mdg, RandomMdgConfig};
pub use stats::MdgStats;
pub use textfmt::{from_text, to_text};
pub use transform::{fuse_serial_chains, transitive_reduction};
