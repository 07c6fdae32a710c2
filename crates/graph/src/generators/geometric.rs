//! Random geometric (grey zone) dual graph generators.
//!
//! These produce embedded networks satisfying the paper's grey zone
//! constraint by construction: `G` is the unit disk graph of the embedding
//! and every `G′ \ G` edge has length in `(1, c]`.

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::geometry::{Embedding, Point};
use crate::graph::GraphBuilder;
use crate::node::NodeId;
use rand::Rng;

/// Configuration for [`grey_zone_network`].
#[derive(Clone, Debug)]
pub struct GreyZoneConfig {
    /// Number of nodes.
    pub n: usize,
    /// Side length of the square deployment area.
    pub side: f64,
    /// Grey zone constant `c ≥ 1`: `G′` edges may span distances in `(1, c]`.
    pub c: f64,
    /// Probability that a node pair at distance in `(1, c]` becomes a
    /// `G′ \ G` edge. `0.0` yields `G′ = G`; `1.0` yields the densest
    /// admissible grey zone `G′`.
    pub grey_edge_probability: f64,
}

impl GreyZoneConfig {
    /// A reasonable default: `c = 2`, half of the grey-zone pairs unreliable.
    pub fn new(n: usize, side: f64) -> Self {
        GreyZoneConfig {
            n,
            side,
            c: 2.0,
            grey_edge_probability: 0.5,
        }
    }

    /// Sets the grey zone constant `c`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the probability of including each admissible grey-zone edge.
    pub fn with_grey_edge_probability(mut self, p: f64) -> Self {
        self.grey_edge_probability = p;
        self
    }
}

/// A generated grey-zone network: the dual graph plus its witnessing
/// embedding and constant.
#[derive(Clone, Debug)]
pub struct GreyZoneNetwork {
    /// The dual graph `(G, G′)`.
    pub dual: DualGraph,
    /// The planar embedding witnessing the grey zone constraint.
    pub embedding: Embedding,
    /// The grey zone constant `c` used.
    pub c: f64,
}

/// Samples a random grey-zone network: `n` points uniform in a
/// `side × side` square; `G` is their unit disk graph; each pair at distance
/// in `(1, c]` becomes an unreliable edge independently with probability
/// `grey_edge_probability`.
///
/// The returned network satisfies [`DualGraph::check_grey_zone`] with the
/// returned embedding by construction (also re-checked in debug builds).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n == 0`, non-positive
/// `side`, `c < 1`, or a probability outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use amac_graph::generators::{grey_zone_network, GreyZoneConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let net = grey_zone_network(&GreyZoneConfig::new(50, 6.0), &mut rng)?;
/// assert_eq!(net.dual.len(), 50);
/// net.dual.check_grey_zone(&net.embedding, net.c)?;
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub fn grey_zone_network<R: Rng + ?Sized>(
    config: &GreyZoneConfig,
    rng: &mut R,
) -> Result<GreyZoneNetwork, GraphError> {
    if config.n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "grey zone network needs at least 1 node".into(),
        });
    }
    if config.side <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("side length {} must be positive", config.side),
        });
    }
    if config.c < 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("grey zone constant c = {} must be >= 1", config.c),
        });
    }
    if !(0.0..=1.0).contains(&config.grey_edge_probability) {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "grey edge probability {} outside [0, 1]",
                config.grey_edge_probability
            ),
        });
    }

    let positions: Vec<Point> = (0..config.n)
        .map(|_| {
            Point::new(
                rng.gen::<f64>() * config.side,
                rng.gen::<f64>() * config.side,
            )
        })
        .collect();
    let embedding = Embedding::new(positions);
    let g = embedding.unit_disk_graph(1.0);

    let mut bp = GraphBuilder::new(config.n);
    for (u, v) in g.edges() {
        bp.add_edge(u, v);
    }
    for i in 0..config.n {
        for j in (i + 1)..config.n {
            let d = embedding.distance(NodeId::new(i), NodeId::new(j));
            if d > 1.0 && d <= config.c && rng.gen_bool(config.grey_edge_probability) {
                bp.try_add_edge_idx(i, j)?;
            }
        }
    }
    let dual = DualGraph::new(g, bp.build())?;
    debug_assert!(dual.check_grey_zone(&embedding, config.c).is_ok());
    Ok(GreyZoneNetwork {
        dual,
        embedding,
        c: config.c,
    })
}

/// Samples a **connected** grey-zone network by rejection: retries up to
/// `attempts` times until the reliable layer `G` is connected.
///
/// Connectivity of `G` is not required by the MMB problem definition, but
/// most experiments want it so that completion means "every node got every
/// message".
///
/// # Errors
///
/// Returns the last generation error, or [`GraphError::InvalidParameter`] if
/// no connected sample was found within `attempts`.
pub fn connected_grey_zone_network<R: Rng + ?Sized>(
    config: &GreyZoneConfig,
    attempts: usize,
    rng: &mut R,
) -> Result<GreyZoneNetwork, GraphError> {
    for _ in 0..attempts {
        let net = grey_zone_network(config, rng)?;
        if crate::algo::is_connected(net.dual.g()) {
            return Ok(net);
        }
    }
    Err(GraphError::InvalidParameter {
        reason: format!(
            "no connected sample in {attempts} attempts (n = {}, side = {}); increase density",
            config.n, config.side
        ),
    })
}

/// Grid spacing for [`grid_grey_zone_network`]. With jitter below
/// [`GRID_JITTER`], axis-aligned grid neighbors stay within unit distance
/// (reliable) while diagonal neighbors land in `(1, 2]` (grey zone).
const GRID_SPACING: f64 = 0.9;
/// Maximum per-coordinate jitter for [`grid_grey_zone_network`].
const GRID_JITTER: f64 = 0.02;

/// Samples a scalable jittered-grid grey-zone network in `O(n)` time:
/// node `i` sits near grid cell `(i % cols, i / cols)` (with `cols ≈ √n`)
/// at spacing 0.9 with per-coordinate jitter below 0.02, so
///
/// * `G` — the unit disk graph — is **exactly** the 4-neighbor grid
///   (axis-aligned neighbors are at distance ≤ 0.95, everything else is at
///   distance ≥ 1.21), hence connected by construction with diameter
///   `(rows − 1) + (cols − 1)`;
/// * diagonal grid neighbors are at distance in `[1.21, 1.33] ⊆ (1, 2]`,
///   and each becomes a `G′ \ G` grey-zone edge independently with
///   probability `grey_edge_probability`.
///
/// Unlike [`grey_zone_network`] (rejection-sampled uniform points, `O(n²)`
/// pair scan, `O(n · |E|)` diameter), this generator needs no connectivity
/// rejection and no all-pairs BFS, so it scales to the 10⁵–10⁶-node duals
/// of the `scale` sweep. The grey-zone constraint (`c = 2`) holds
/// by construction and is spot-checked in debug builds for small `n`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n == 0` or a probability
/// outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use amac_graph::generators::grid_grey_zone_network;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let net = grid_grey_zone_network(1000, 0.5, &mut rng)?;
/// assert_eq!(net.dual.len(), 1000);
/// net.dual.check_grey_zone(&net.embedding, net.c)?;
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub fn grid_grey_zone_network<R: Rng + ?Sized>(
    n: usize,
    grey_edge_probability: f64,
    rng: &mut R,
) -> Result<GreyZoneNetwork, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "grid grey zone network needs at least 1 node".into(),
        });
    }
    if !(0.0..=1.0).contains(&grey_edge_probability) {
        return Err(GraphError::InvalidParameter {
            reason: format!("grey edge probability {grey_edge_probability} outside [0, 1]"),
        });
    }

    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let cols = (n as f64).sqrt().ceil() as usize;
    let cols = cols.max(1);
    let rows = n.div_ceil(cols);

    let positions: Vec<Point> = (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            let jx = (rng.gen::<f64>() * 2.0 - 1.0) * GRID_JITTER;
            let jy = (rng.gen::<f64>() * 2.0 - 1.0) * GRID_JITTER;
            Point::new(c as f64 * GRID_SPACING + jx, r as f64 * GRID_SPACING + jy)
        })
        .collect();
    let embedding = Embedding::new(positions);

    let mut bg = GraphBuilder::new(n);
    let mut bp = GraphBuilder::new(n);
    for i in 0..n {
        let c = i % cols;
        if c + 1 < cols && i + 1 < n {
            bg.try_add_edge_idx(i, i + 1)?;
            bp.try_add_edge_idx(i, i + 1)?;
        }
        if i + cols < n {
            bg.try_add_edge_idx(i, i + cols)?;
            bp.try_add_edge_idx(i, i + cols)?;
        }
        // Diagonal (grey zone) candidates, consumed in deterministic order.
        if c + 1 < cols && i + cols + 1 < n && rng.gen_bool(grey_edge_probability) {
            bp.try_add_edge_idx(i, i + cols + 1)?;
        }
        if c > 0 && i + cols - 1 < n && rng.gen_bool(grey_edge_probability) {
            bp.try_add_edge_idx(i, i + cols - 1)?;
        }
    }

    let diameter = if rows == 1 {
        n - 1
    } else {
        (rows - 1) + (cols - 1)
    };
    let dual = DualGraph::with_diameter(bg.build(), bp.build(), diameter)?;
    debug_assert!(n > 2048 || dual.check_grey_zone(&embedding, 2.0).is_ok());
    debug_assert!(n > 2048 || dual.diameter() == crate::algo::diameter(dual.g()));
    Ok(GreyZoneNetwork {
        dual,
        embedding,
        c: 2.0,
    })
}

/// A deterministic embedded line with the given spacing: node `i` at
/// `(i · spacing, 0)`. With `spacing ≤ 1` the unit disk graph is the path;
/// useful for grey-zone variants of line topologies.
pub fn embedded_line(n: usize, spacing: f64) -> Result<(Embedding, DualGraph), GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "embedded line needs at least 1 node".into(),
        });
    }
    if !(0.0..=1.0).contains(&spacing) || spacing <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("spacing {spacing} must be in (0, 1] for a connected line"),
        });
    }
    let embedding = Embedding::new(
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect(),
    );
    let g = embedding.unit_disk_graph(1.0);
    let dual = DualGraph::reliable(g);
    Ok((embedding, dual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_network_satisfies_grey_zone() {
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = GreyZoneConfig::new(60, 5.0)
            .with_c(2.5)
            .with_grey_edge_probability(0.7);
        let net = grey_zone_network(&cfg, &mut rng).unwrap();
        net.dual.check_grey_zone(&net.embedding, net.c).unwrap();
        assert_eq!(net.dual.len(), 60);
    }

    #[test]
    fn zero_probability_gives_reliable_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GreyZoneConfig::new(40, 4.0).with_grey_edge_probability(0.0);
        let net = grey_zone_network(&cfg, &mut rng).unwrap();
        assert!(net.dual.is_reliable_only());
    }

    #[test]
    fn full_probability_includes_every_grey_pair() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GreyZoneConfig::new(30, 3.0)
            .with_c(2.0)
            .with_grey_edge_probability(1.0);
        let net = grey_zone_network(&cfg, &mut rng).unwrap();
        // Every pair at distance in (1, c] must be a G' edge.
        for i in 0..30 {
            for j in (i + 1)..30 {
                let (u, v) = (NodeId::new(i), NodeId::new(j));
                let d = net.embedding.distance(u, v);
                if d > 1.0 && d <= 2.0 {
                    assert!(net.dual.g_prime().has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = GreyZoneConfig::new(25, 4.0);
        let a = grey_zone_network(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = grey_zone_network(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.dual.g_prime().edge_count(), b.dual.g_prime().edge_count());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(grey_zone_network(&GreyZoneConfig::new(0, 4.0), &mut rng).is_err());
        assert!(grey_zone_network(&GreyZoneConfig::new(10, -1.0), &mut rng).is_err());
        assert!(grey_zone_network(&GreyZoneConfig::new(10, 4.0).with_c(0.5), &mut rng).is_err());
        assert!(grey_zone_network(
            &GreyZoneConfig::new(10, 4.0).with_grey_edge_probability(1.5),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn connected_sampler_returns_connected_g() {
        let mut rng = StdRng::seed_from_u64(5);
        // Dense enough to be connected quickly.
        let cfg = GreyZoneConfig::new(50, 4.0);
        let net = connected_grey_zone_network(&cfg, 100, &mut rng).unwrap();
        assert!(crate::algo::is_connected(net.dual.g()));
    }

    #[test]
    fn grid_network_satisfies_grey_zone_and_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = grid_grey_zone_network(200, 0.6, &mut rng).unwrap();
        assert_eq!(net.dual.len(), 200);
        net.dual.check_grey_zone(&net.embedding, net.c).unwrap();
        assert!(crate::algo::is_connected(net.dual.g()));
        assert!(net.dual.unreliable_edge_count() > 0);
        // Cached diameter matches the all-pairs BFS ground truth.
        assert_eq!(net.dual.diameter(), crate::algo::diameter(net.dual.g()));
    }

    #[test]
    fn grid_network_reliable_layer_is_four_neighbor_grid() {
        let mut rng = StdRng::seed_from_u64(8);
        // 12 nodes, cols = 4: a 3x4 grid.
        let net = grid_grey_zone_network(12, 0.0, &mut rng).unwrap();
        assert!(net.dual.is_reliable_only());
        // Interior node 5 = (row 1, col 1) has 4 reliable neighbors.
        assert_eq!(net.dual.reliable_neighbors(NodeId::new(5)).len(), 4);
        // Corner node 0 has 2.
        assert_eq!(net.dual.reliable_neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(net.dual.diameter(), 5); // (3-1) + (4-1)
    }

    #[test]
    fn grid_network_handles_partial_last_row_and_tiny_n() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 5, 7, 10, 11] {
            let net = grid_grey_zone_network(n, 0.5, &mut rng).unwrap();
            assert_eq!(net.dual.len(), n);
            assert!(crate::algo::is_connected(net.dual.g()));
            assert_eq!(net.dual.diameter(), crate::algo::diameter(net.dual.g()));
            net.dual.check_grey_zone(&net.embedding, net.c).unwrap();
        }
    }

    #[test]
    fn grid_network_is_deterministic_per_seed() {
        let a = grid_grey_zone_network(80, 0.5, &mut StdRng::seed_from_u64(6)).unwrap();
        let b = grid_grey_zone_network(80, 0.5, &mut StdRng::seed_from_u64(6)).unwrap();
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(
            a.dual.g_prime().edges().collect::<Vec<_>>(),
            b.dual.g_prime().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_network_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(grid_grey_zone_network(0, 0.5, &mut rng).is_err());
        assert!(grid_grey_zone_network(10, 1.5, &mut rng).is_err());
    }

    #[test]
    fn embedded_line_is_path() {
        let (emb, dual) = embedded_line(6, 0.9).unwrap();
        assert_eq!(emb.len(), 6);
        assert_eq!(dual.g().edge_count(), 5);
        assert_eq!(dual.diameter(), 5);
        assert!(embedded_line(5, 1.5).is_err());
    }
}
