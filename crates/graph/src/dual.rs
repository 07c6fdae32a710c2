//! Dual graphs: the `(G, G′)` network model with reliable and unreliable
//! links (paper Section 2).

use crate::algo;
use crate::error::GraphError;
use crate::geometry::Embedding;
use crate::graph::Graph;
use crate::node::NodeId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dual graph `(G, G′)` with the invariant `E ⊆ E′`.
///
/// Edges of `G` are **reliable**: the abstract MAC layer always delivers a
/// local broadcast to `G`-neighbors. Edges of `G′ \ G` are **unreliable**:
/// the message scheduler may or may not deliver to them, adversarially.
///
/// The paper assumes nodes can distinguish their `G`-neighbors from their
/// `G′ \ G` neighbors (link quality assessment); this type exposes both
/// neighborhoods accordingly.
///
/// `DualGraph` is cheaply cloneable (the layers are shared via [`Arc`]).
/// The diameter of `G` costs an all-pairs BFS, so it is computed on the
/// first [`diameter`](DualGraph::diameter) call and cached for every
/// clone.
///
/// # Examples
///
/// ```
/// use amac_graph::{DualGraph, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let gp = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])?;
/// let dual = DualGraph::new(g, gp)?;
/// assert_eq!(dual.len(), 4);
/// assert_eq!(dual.diameter(), 3); // diameter of G, not G'
/// assert_eq!(
///     dual.unreliable_neighbors(NodeId::new(0)),
///     &[NodeId::new(2)]
/// );
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
#[derive(Clone)]
pub struct DualGraph {
    g: Arc<Graph>,
    g_prime: Arc<Graph>,
    /// `G′ \ G` adjacency, precomputed per node.
    extra: Arc<Vec<Vec<NodeId>>>,
    /// Diameter of `G`, computed on first use.
    diameter: Arc<OnceLock<usize>>,
}

impl DualGraph {
    /// Creates a dual graph after validating `E ⊆ E′` and matching node
    /// counts. The diameter of `G` is left to the first
    /// [`diameter`](DualGraph::diameter) call.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeCountMismatch`] if the layers have different sizes;
    /// [`GraphError::NotSupergraph`] if a reliable edge is absent from `G′`.
    pub fn new(g: Graph, g_prime: Graph) -> Result<DualGraph, GraphError> {
        if g.len() != g_prime.len() {
            return Err(GraphError::NodeCountMismatch {
                g: g.len(),
                g_prime: g_prime.len(),
            });
        }
        if let Some((u, v)) = g.edges().find(|&(u, v)| !g_prime.has_edge(u, v)) {
            return Err(GraphError::NotSupergraph {
                missing: (u.index(), v.index()),
            });
        }
        let extra: Vec<Vec<NodeId>> = (0..g.len())
            .map(|i| g_prime.extra_neighbors(&g, NodeId::new(i)))
            .collect();
        Ok(DualGraph {
            g: Arc::new(g),
            g_prime: Arc::new(g_prime),
            extra: Arc::new(extra),
            diameter: Arc::new(OnceLock::new()),
        })
    }

    /// Creates a dual graph like [`DualGraph::new`] but trusting a
    /// caller-supplied diameter for `G`, so [`diameter`](DualGraph::diameter)
    /// never runs the all-pairs BFS.
    ///
    /// Computing the diameter costs `O(n · |E|)`, which is prohibitive for
    /// the 10⁵–10⁶-node networks of the `scale` sweep. Generators whose
    /// topology has an analytically known diameter
    /// (e.g. [`crate::generators::grid_grey_zone_network`]) use this
    /// constructor instead. The supergraph invariant is still validated; the
    /// diameter is not (callers must supply the exact value, since the MMB
    /// bound checks depend on it).
    ///
    /// # Errors
    ///
    /// Same as [`DualGraph::new`].
    pub fn with_diameter(
        g: Graph,
        g_prime: Graph,
        diameter: usize,
    ) -> Result<DualGraph, GraphError> {
        let dual = DualGraph::new(g, g_prime)?;
        dual.diameter
            .set(diameter)
            .expect("a new dual graph has no cached diameter");
        Ok(dual)
    }

    /// Creates the reliable-only dual graph `G′ = G` (the strong assumption
    /// of the prior work [KLN09/11]).
    pub fn reliable(g: Graph) -> DualGraph {
        let gp = g.clone();
        DualGraph::new(g, gp).expect("G is always a supergraph of itself")
    }

    /// The reliable layer `G`.
    pub fn g(&self) -> &Graph {
        &self.g
    }

    /// The full layer `G′` (reliable plus unreliable edges).
    pub fn g_prime(&self) -> &Graph {
        &self.g_prime
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.g.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.g.is_empty()
    }

    /// Diameter `D` of the reliable layer `G`, computed by an all-pairs
    /// BFS on the first call and cached.
    pub fn diameter(&self) -> usize {
        *self.diameter.get_or_init(|| algo::diameter(&self.g))
    }

    /// Reliable (`G`) neighbors of `v`.
    pub fn reliable_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.g.neighbors(v)
    }

    /// Unreliable-only (`G′ \ G`) neighbors of `v`.
    pub fn unreliable_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.extra[v.index()]
    }

    /// All `G′` neighbors of `v` (reliable and unreliable).
    pub fn all_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.g_prime.neighbors(v)
    }

    /// Returns `true` if the dual graph has no unreliable edges (`G′ = G`).
    pub fn is_reliable_only(&self) -> bool {
        self.g.edge_count() == self.g_prime.edge_count()
    }

    /// Number of unreliable (`G′ \ G`) edges.
    pub fn unreliable_edge_count(&self) -> usize {
        self.g_prime.edge_count() - self.g.edge_count()
    }

    /// Checks the `r`-restriction (paper Section 2): every `G′` edge spans at
    /// most `r` hops in `G`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotRRestricted`] naming the first offending
    /// edge.
    pub fn check_r_restricted(&self, r: usize) -> Result<(), GraphError> {
        for i in 0..self.len() {
            let v = NodeId::new(i);
            if self.extra[i].is_empty() {
                continue;
            }
            let dist = algo::bfs_distances(&self.g, v);
            for &u in &self.extra[i] {
                if u < v {
                    continue; // each edge checked once
                }
                let d = dist[u.index()];
                if d > r {
                    return Err(GraphError::NotRRestricted {
                        r,
                        edge: (v.index(), u.index()),
                        distance: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// The smallest `r` such that this dual graph is `r`-restricted, or
    /// `None` if some `G′` edge connects different `G`-components (no finite
    /// `r` exists).
    pub fn restriction_radius(&self) -> Option<usize> {
        let mut worst = 1usize; // r >= 1 by definition (G edges span 1 hop)
        for i in 0..self.len() {
            let v = NodeId::new(i);
            if self.extra[i].is_empty() {
                continue;
            }
            let dist = algo::bfs_distances(&self.g, v);
            for &u in &self.extra[i] {
                let d = dist[u.index()];
                if d == algo::UNREACHABLE {
                    return None;
                }
                worst = worst.max(d);
            }
        }
        Some(worst)
    }

    /// Checks the grey zone constraint against `embedding` with constant `c`.
    ///
    /// # Errors
    ///
    /// See [`Embedding::check_grey_zone`].
    pub fn check_grey_zone(&self, embedding: &Embedding, c: f64) -> Result<(), GraphError> {
        embedding.check_grey_zone(&self.g, &self.g_prime, c)
    }
}

impl fmt::Debug for DualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DualGraph")
            .field("nodes", &self.len())
            .field("reliable_edges", &self.g.edge_count())
            .field("unreliable_edges", &self.unreliable_edge_count())
            .field("diameter", &self.diameter.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn reliable_dual_has_no_extra_edges() {
        let d = DualGraph::reliable(path(5));
        assert!(d.is_reliable_only());
        assert_eq!(d.unreliable_edge_count(), 0);
        for v in d.g().nodes() {
            assert!(d.unreliable_neighbors(v).is_empty());
        }
    }

    #[test]
    fn supergraph_invariant_enforced() {
        let g = path(4);
        let gp = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap(); // missing (2,3)
        let err = DualGraph::new(g, gp).unwrap_err();
        assert!(matches!(err, GraphError::NotSupergraph { missing: (2, 3) }));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let err = DualGraph::new(path(4), path(5)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeCountMismatch { g: 4, g_prime: 5 }
        ));
    }

    fn path_plus(n: usize, extra: &[(usize, usize)]) -> DualGraph {
        let g = path(n);
        let mut b = GraphBuilder::new(n);
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        for &(u, v) in extra {
            b.try_add_edge_idx(u, v).unwrap();
        }
        DualGraph::new(g, b.build()).unwrap()
    }

    #[test]
    fn unreliable_neighbors_are_g_prime_minus_g() {
        let d = path_plus(5, &[(0, 2), (0, 4)]);
        assert_eq!(d.unreliable_edge_count(), 2);
        assert_eq!(
            d.unreliable_neighbors(NodeId::new(0)),
            &[NodeId::new(2), NodeId::new(4)]
        );
        assert_eq!(d.reliable_neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(d.all_neighbors(NodeId::new(0)).len(), 3);
    }

    #[test]
    fn r_restriction_detection() {
        let d = path_plus(6, &[(0, 2), (1, 4)]);
        assert!(d.check_r_restricted(3).is_ok());
        let err = d.check_r_restricted(2).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NotRRestricted {
                r: 2,
                edge: (1, 4),
                distance: 3
            }
        ));
        assert_eq!(d.restriction_radius(), Some(3));
    }

    #[test]
    fn restriction_radius_of_reliable_dual_is_one() {
        let d = DualGraph::reliable(path(4));
        assert_eq!(d.restriction_radius(), Some(1));
    }

    #[test]
    fn restriction_radius_none_across_components() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let gp = Graph::from_edges(4, [(0, 1), (2, 3), (1, 2)]).unwrap();
        let d = DualGraph::new(g, gp).unwrap();
        assert_eq!(d.restriction_radius(), None);
    }

    #[test]
    fn diameter_uses_reliable_layer() {
        // G is a path of diameter 4; G' shortcut does not change D.
        let d = path_plus(5, &[(0, 4)]);
        assert_eq!(d.diameter(), 4);
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let d = path_plus(5, &[(0, 2)]);
        let d2 = d.clone();
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.diameter(), d.diameter());
    }
}
