//! Production edge-orbit counter.
//!
//! For every edge `(u, v)` the counter produces a 13-component vector whose
//! `k`-th entry is the number of induced 2–4-node graphlets that place the
//! edge on orbit `k`:
//!
//! * orbit 0 is always 1 (the edge itself);
//! * orbits 1–2 (two-edge chain, triangle) follow analytically from the
//!   degrees and the common-neighbour count;
//! * orbits 3–12 come from the connected induced 4-node subgraphs
//!   containing `(u, v)`.
//!
//! Each edge first flags the nodes of its joint neighbourhood
//! `J = (N(u) ∪ N(v)) \ {u, v}` with their *side*: adjacent to `u`, to `v`,
//! or to both.  The triangles of `(u, v)` are the nodes flagged "both".  The
//! two extra nodes `{w, x}` of a 4-node subgraph then fall into two disjoint
//! cases, so each node set is counted exactly once:
//!
//! 1. both `w` and `x` lie in `J`, or
//! 2. `w` lies in `J` while `x` is adjacent only to `w`.
//!
//! The orbit of `(u, v)` in `{u, v, w, x}` depends only on the two sides and
//! on whether `w ~ x`, so a 32-entry table built once from
//! [`classify_edge_in_four`] replaces every per-subgraph classification and
//! adjacency search.  One pass over the neighbours of each `w ∈ J` counts
//! the adjacent case-1 pairs and the case-2 nodes per side class; the
//! non-adjacent case-1 pairs are the remaining pairs of each class.  The
//! cost is `O(deg u + deg v + Σ_{w∈J} deg w)` per edge, within the
//! `O(e · D²)` bound of the Orca algorithm the paper relies on, and the work
//! is parallelised over edges.

use crate::orbit::{classify_edge_in_four, EdgeOrbit, NUM_EDGE_ORBITS};
use htc_graph::Graph;
use htc_linalg::parallel::parallel_rows_mut;

/// Side flag of a node adjacent to the counted edge's `u` endpoint.
const NEAR_U: u8 = 1;
/// Side flag of a node adjacent to the counted edge's `v` endpoint.
const NEAR_V: u8 = 2;

/// Per-edge orbit counts for a whole graph.
///
/// Counts are indexed by the canonical edge order of [`Graph::edges`] so that
/// `counts.edge_counts[i][k]` is the orbit-`k` count of `graph.edges()[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeOrbitCounts {
    /// Canonical edge list (`u < v`) the counts refer to.
    pub edges: Vec<(usize, usize)>,
    /// One 13-component count vector per edge.
    pub edge_counts: Vec<[u64; NUM_EDGE_ORBITS]>,
}

impl EdgeOrbitCounts {
    /// Total number of (edge, orbit) incidences for orbit `k`.
    pub fn total_for_orbit(&self, orbit: EdgeOrbit) -> u64 {
        self.edge_counts.iter().map(|c| c[orbit.index()]).sum()
    }

    /// Count vector of the edge `(u, v)` (either orientation); `None` if the
    /// edge does not exist.
    pub fn counts_for(&self, u: usize, v: usize) -> Option<&[u64; NUM_EDGE_ORBITS]> {
        let key = (u.min(v), u.max(v));
        self.edges
            .binary_search(&key)
            .ok()
            .map(|idx| &self.edge_counts[idx])
    }

    /// Node-level orbit signature: for every node, the sum of the orbit-count
    /// vectors of its incident edges.
    ///
    /// This is the edge-orbit analogue of a graphlet degree vector and is used
    /// as a structural node feature by some baselines.
    pub fn node_signatures(&self, num_nodes: usize) -> Vec<[u64; NUM_EDGE_ORBITS]> {
        let mut sig = vec![[0u64; NUM_EDGE_ORBITS]; num_nodes];
        for (&(u, v), counts) in self.edges.iter().zip(&self.edge_counts) {
            for k in 0..NUM_EDGE_ORBITS {
                sig[u][k] += counts[k];
                sig[v][k] += counts[k];
            }
        }
        sig
    }
}

/// Counts the 13 edge orbits for every edge of `graph`.
pub fn count_edge_orbits(graph: &Graph) -> EdgeOrbitCounts {
    let edges = graph.edges().to_vec();
    let table = orbit_table();
    let mut edge_counts = vec![[0u64; NUM_EDGE_ORBITS]; edges.len()];
    parallel_rows_mut(&mut edge_counts, 1, |start, chunk| {
        let mut side = vec![0u8; graph.num_nodes()];
        for (offset, counts) in chunk.iter_mut().enumerate() {
            let (u, v) = edges[start + offset];
            *counts = count_edge(graph, u, v, &table, &mut side);
        }
    });
    EdgeOrbitCounts { edges, edge_counts }
}

/// Index into [`orbit_table`]: the sides of the extra nodes `w` and `x`
/// and whether they are adjacent.
fn table_index(side_w: u8, side_x: u8, adjacent: bool) -> usize {
    usize::from(side_w) | usize::from(side_x) << 2 | usize::from(adjacent) << 4
}

/// The orbit of edge `(u, v)` in the induced subgraph `{u, v, w, x}` for
/// every [`table_index`]; `None` where that subgraph is disconnected.
fn orbit_table() -> [Option<EdgeOrbit>; 32] {
    std::array::from_fn(|i| {
        let (side_w, side_x, adjacent) = (i & 3, (i >> 2) & 3, i >> 4 == 1);
        let mut adj = [[false; 4]; 4];
        let links = [
            (0, 1, true),
            (0, 2, side_w & 1 != 0),
            (1, 2, side_w & 2 != 0),
            (0, 3, side_x & 1 != 0),
            (1, 3, side_x & 2 != 0),
            (2, 3, adjacent),
        ];
        for (a, b, linked) in links {
            adj[a][b] = linked;
            adj[b][a] = linked;
        }
        classify_edge_in_four(&adj)
    })
}

/// Counts the orbits of edge `(u, v)`.  `side` is an all-zero per-node
/// flag array, left all-zero on return.
fn count_edge(
    graph: &Graph,
    u: usize,
    v: usize,
    table: &[Option<EdgeOrbit>; 32],
    side: &mut [u8],
) -> [u64; NUM_EDGE_ORBITS] {
    let mut counts = [0u64; NUM_EDGE_ORBITS];
    counts[EdgeOrbit::PlainEdge.index()] = 1;
    for &w in graph.neighbors(u) {
        if w != v {
            side[w] |= NEAR_U;
        }
    }
    for &w in graph.neighbors(v) {
        if w != u {
            side[w] |= NEAR_V;
        }
    }
    // Every node of J exactly once: N(u) \ {v}, then the nodes of N(v)
    // that are not also near u.
    let joint = graph.neighbors(u).iter().filter(|&&w| w != v).chain(
        graph
            .neighbors(v)
            .iter()
            .filter(|&&w| w != u && side[w] == NEAR_V),
    );
    // Per side class: nodes of J, ordered adjacent pairs inside J, and
    // case-2 nodes outside J hanging off a node of that class.
    let mut class_size = [0u64; 4];
    let mut adjacent = [[0u64; 4]; 4];
    let mut pendant = [0u64; 4];
    for &w in joint {
        let sw = side[w];
        class_size[usize::from(sw)] += 1;
        for &x in graph.neighbors(w) {
            if x == u || x == v {
                continue;
            }
            match side[x] {
                0 => pendant[usize::from(sw)] += 1,
                sx => adjacent[usize::from(sw)][usize::from(sx)] += 1,
            }
        }
    }

    let triangles = class_size[usize::from(NEAR_U | NEAR_V)];
    let du = graph.degree(u) as u64;
    let dv = graph.degree(v) as u64;
    counts[EdgeOrbit::TriangleEdge.index()] = triangles;
    // Nodes adjacent to exactly one endpoint form a two-edge chain with (u,v).
    counts[EdgeOrbit::ChainEdge.index()] = (du - 1 - triangles) + (dv - 1 - triangles);

    let mut add = |index: usize, n: u64| {
        let orbit =
            table[index].expect("w lies in J and x touches w, so the subgraph is connected");
        counts[orbit.index()] += n;
    };
    for sw in 1..=3u8 {
        let a = usize::from(sw);
        add(table_index(sw, 0, true), pendant[a]);
        for sx in sw..=3u8 {
            let b = usize::from(sx);
            // Unordered pairs of the class: an adjacent pair with equal
            // sides was seen from both of its nodes.
            let (pairs, linked) = if a == b {
                (
                    class_size[a] * class_size[a].saturating_sub(1) / 2,
                    adjacent[a][a] / 2,
                )
            } else {
                (class_size[a] * class_size[b], adjacent[a][b])
            };
            add(table_index(sw, sx, true), linked);
            add(table_index(sw, sx, false), pairs - linked);
        }
    }

    for &w in graph.neighbors(u).iter().chain(graph.neighbors(v)) {
        side[w] = 0;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::Graph;

    #[test]
    fn single_edge_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let counts = count_edge_orbits(&g);
        assert_eq!(counts.edge_counts.len(), 1);
        let c = counts.counts_for(0, 1).unwrap();
        assert_eq!(c[0], 1);
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn triangle_graph() {
        let g = Graph::complete(3);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::PlainEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::ChainEdge.index()], 0);
        }
    }

    #[test]
    fn path_on_four_nodes() {
        // 0-1-2-3.
        let g = Graph::path(4);
        let counts = count_edge_orbits(&g);
        let end = counts.counts_for(0, 1).unwrap();
        assert_eq!(end[EdgeOrbit::ChainEdge.index()], 1); // 0-1-2
        assert_eq!(end[EdgeOrbit::PathEnd.index()], 1); // 0-1-2-3
        assert_eq!(end[EdgeOrbit::PathBridge.index()], 0);
        let middle = counts.counts_for(1, 2).unwrap();
        assert_eq!(middle[EdgeOrbit::ChainEdge.index()], 2);
        assert_eq!(middle[EdgeOrbit::PathBridge.index()], 1);
        assert_eq!(middle[EdgeOrbit::PathEnd.index()], 0);
    }

    #[test]
    fn star_graph() {
        let g = Graph::star(3);
        let counts = count_edge_orbits(&g);
        let c = counts.counts_for(0, 1).unwrap();
        assert_eq!(c[EdgeOrbit::ChainEdge.index()], 2);
        assert_eq!(c[EdgeOrbit::StarEdge.index()], 1);
        assert_eq!(c[EdgeOrbit::PathEnd.index()], 0);
    }

    #[test]
    fn four_cycle() {
        let g = Graph::cycle(4);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::CycleEdge.index()], 1, "edge ({u},{v})");
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 0);
        }
    }

    #[test]
    fn clique_four() {
        let g = Graph::complete(4);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 2);
            assert_eq!(c[EdgeOrbit::CliqueEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::DiamondOuter.index()], 0);
            assert_eq!(c[EdgeOrbit::DiamondChord.index()], 0);
        }
    }

    #[test]
    fn paw_graph_from_paper_figure5() {
        // The example of Fig. 5: path a-b-c-d plus edge (b, e)?  The figure
        // uses a 5-node graph; here we check the 4-node tailed triangle
        // directly: triangle 0-1-2 with tail 3 on node 0.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let counts = count_edge_orbits(&g);
        let pendant = counts.counts_for(0, 3).unwrap();
        assert_eq!(pendant[EdgeOrbit::PawPendant.index()], 1);
        assert_eq!(pendant[EdgeOrbit::ChainEdge.index()], 2);
        let incident = counts.counts_for(0, 1).unwrap();
        assert_eq!(incident[EdgeOrbit::PawIncident.index()], 1);
        assert_eq!(incident[EdgeOrbit::TriangleEdge.index()], 1);
        let opposite = counts.counts_for(1, 2).unwrap();
        assert_eq!(opposite[EdgeOrbit::PawOpposite.index()], 1);
    }

    #[test]
    fn diamond_graph() {
        // 4-cycle 0-1-2-3 with chord (0, 2).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let counts = count_edge_orbits(&g);
        let chord = counts.counts_for(0, 2).unwrap();
        assert_eq!(chord[EdgeOrbit::DiamondChord.index()], 1);
        assert_eq!(chord[EdgeOrbit::TriangleEdge.index()], 2);
        let outer = counts.counts_for(0, 1).unwrap();
        assert_eq!(outer[EdgeOrbit::DiamondOuter.index()], 1);
        assert_eq!(outer[EdgeOrbit::TriangleEdge.index()], 1);
    }

    #[test]
    fn counts_for_missing_edge_is_none() {
        let g = Graph::path(4);
        let counts = count_edge_orbits(&g);
        assert!(counts.counts_for(0, 3).is_none());
    }

    #[test]
    fn node_signatures_sum_incident_edges() {
        let g = Graph::path(3);
        let counts = count_edge_orbits(&g);
        let sig = counts.node_signatures(3);
        // Middle node 1 touches both edges; each edge has chain count 1.
        assert_eq!(sig[1][EdgeOrbit::PlainEdge.index()], 2);
        assert_eq!(sig[0][EdgeOrbit::PlainEdge.index()], 1);
        assert_eq!(sig[1][EdgeOrbit::ChainEdge.index()], 2);
    }

    /// The counter must agree with the brute-force oracle on every edge.
    fn assert_matches_brute_force(g: &Graph) {
        let brute = crate::brute::brute_force_edge_orbits(g);
        let counts = count_edge_orbits(g);
        assert_eq!(counts.edges.len(), brute.len());
        for (edge, c) in counts.edges.iter().zip(&counts.edge_counts) {
            assert_eq!(c, &brute[edge], "edge {edge:?}");
        }
    }

    #[test]
    fn brute_force_agrees_on_random_and_named_graphs() {
        use htc_graph::generators::{erdos_renyi_gnm, seeded_rng};
        for (seed, nodes, edges) in [(7, 30, 45), (13, 50, 120), (29, 25, 160)] {
            let mut rng = seeded_rng(seed);
            assert_matches_brute_force(&erdos_renyi_gnm(nodes, edges, &mut rng));
        }
        for g in [
            Graph::complete(5),
            Graph::path(6),
            Graph::star(5),
            Graph::cycle(7),
        ] {
            assert_matches_brute_force(&g);
        }
    }

    #[test]
    fn brute_force_agrees_below_and_above_five_percent_density() {
        // 40 nodes, 30 edges: density ≈ 0.038, the regime of the fig8
        // graphs.  K5 has density 1.
        use htc_graph::generators::{erdos_renyi_gnm, seeded_rng};
        let mut rng = seeded_rng(3);
        assert_matches_brute_force(&erdos_renyi_gnm(40, 30, &mut rng));
        assert_matches_brute_force(&Graph::complete(5));
    }

    #[test]
    fn total_for_orbit_accumulates() {
        let g = Graph::complete(4);
        let counts = count_edge_orbits(&g);
        // Each of the 6 edges lies on exactly one 4-clique.
        assert_eq!(counts.total_for_orbit(EdgeOrbit::CliqueEdge), 6);
        // Each edge participates in 2 triangles.
        assert_eq!(counts.total_for_orbit(EdgeOrbit::TriangleEdge), 12);
    }
}
