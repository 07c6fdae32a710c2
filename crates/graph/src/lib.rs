//! # amac-graph — dual-graph network substrate
//!
//! Graph structures for reproducing *"Multi-Message Broadcast with Abstract
//! MAC Layers and Unreliable Links"* (Ghaffari, Kantor, Lynch, Newport,
//! PODC 2014).
//!
//! The paper models a wireless network as a **dual graph** `(G, G′)` with
//! `E ⊆ E′`: `G` edges are reliable links (the MAC layer always delivers),
//! `G′ \ G` edges are unreliable links (delivery is up to an adversarial
//! scheduler). This crate provides:
//!
//! * [`Graph`] / [`GraphBuilder`] — immutable undirected graphs in CSR form;
//! * [`DualGraph`] — the validated `(G, G′)` pair with both neighborhoods
//!   exposed per node (nodes can tell reliable from unreliable links, as the
//!   paper assumes);
//! * [`algo`] — BFS distances, diameter, components, `r`-th powers `Gʳ`, and
//!   (maximal) independent-set checks used by the FMMB analysis;
//! * [`geometry`] — planar embeddings, unit disk graphs, and the **grey
//!   zone** constraint checker (Section 2 of the paper);
//! * [`generators`] — every topology the experiments need, including the
//!   Figure 2 lower-bound network.
//!
//! ## Quick example
//!
//! ```
//! use amac_graph::{generators, DualGraph, NodeId};
//! use rand::SeedableRng;
//!
//! // A 20-node line with random unreliable shortcuts of span <= 3 hops.
//! let g = generators::line(20)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dual = generators::r_restricted_augment(g, 3, 0.4, &mut rng)?;
//! assert!(dual.check_r_restricted(3).is_ok());
//! assert_eq!(dual.diameter(), 19);
//! # Ok::<(), amac_graph::GraphError>(())
//! ```

pub mod algo;
mod dual;
mod error;
pub mod generators;
pub mod geometry;
mod graph;
mod node;

pub use dual::DualGraph;
pub use error::GraphError;
pub use geometry::{Embedding, Point};
pub use graph::{Graph, GraphBuilder};
pub use node::{NodeId, NodeSet};
