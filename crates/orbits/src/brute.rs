//! Brute-force reference counter used as the test oracle.
//!
//! Enumerates **every** 3- and 4-node subset of the graph, keeps the connected
//! induced subgraphs, and classifies each edge of each subgraph.  The cost is
//! `O(n⁴)`, so this is only suitable for the small graphs used in tests — that
//! is exactly its purpose: the production counter in [`crate::counting`] is
//! property-tested against this oracle on random graphs.

use crate::orbit::{classify_edge_in_four, EdgeOrbit, NUM_EDGE_ORBITS};
use htc_graph::Graph;
use std::collections::HashMap;

/// Counts edge orbits by exhaustive subset enumeration.
///
/// Returns a map from canonical edge `(u < v)` to its 13 orbit counts.
pub fn brute_force_edge_orbits(graph: &Graph) -> HashMap<(usize, usize), [u64; NUM_EDGE_ORBITS]> {
    let n = graph.num_nodes();
    let mut counts: HashMap<(usize, usize), [u64; NUM_EDGE_ORBITS]> = graph
        .edges()
        .iter()
        .map(|&e| (e, [0u64; NUM_EDGE_ORBITS]))
        .collect();

    // Orbit 0: the edge itself.
    for (_, c) in counts.iter_mut() {
        c[EdgeOrbit::PlainEdge.index()] = 1;
    }

    // 3-node subsets.
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let nodes = [a, b, c];
                let mut edges = Vec::new();
                for i in 0..3 {
                    for j in (i + 1)..3 {
                        if graph.has_edge(nodes[i], nodes[j]) {
                            edges.push((nodes[i], nodes[j]));
                        }
                    }
                }
                match edges.len() {
                    2 => {
                        // Two-edge chain: both edges lie on orbit 1.
                        for e in &edges {
                            bump(&mut counts, *e, EdgeOrbit::ChainEdge);
                        }
                    }
                    3 => {
                        for e in &edges {
                            bump(&mut counts, *e, EdgeOrbit::TriangleEdge);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // 4-node subsets.
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                for d in (c + 1)..n {
                    let nodes = [a, b, c, d];
                    // For every edge inside the subset, classify its orbit by
                    // rotating that edge into positions (0, 1).
                    for i in 0..4 {
                        for j in (i + 1)..4 {
                            if !graph.has_edge(nodes[i], nodes[j]) {
                                continue;
                            }
                            let mut order = vec![i, j];
                            for k in 0..4 {
                                if k != i && k != j {
                                    order.push(k);
                                }
                            }
                            let mut adj = [[false; 4]; 4];
                            for p in 0..4 {
                                for q in (p + 1)..4 {
                                    if graph.has_edge(nodes[order[p]], nodes[order[q]]) {
                                        adj[p][q] = true;
                                        adj[q][p] = true;
                                    }
                                }
                            }
                            if let Some(orbit) = classify_edge_in_four(&adj) {
                                bump(&mut counts, (nodes[i], nodes[j]), orbit);
                            }
                        }
                    }
                }
            }
        }
    }
    counts
}

fn bump(
    counts: &mut HashMap<(usize, usize), [u64; NUM_EDGE_ORBITS]>,
    edge: (usize, usize),
    orbit: EdgeOrbit,
) {
    let key = (edge.0.min(edge.1), edge.0.max(edge.1));
    if let Some(c) = counts.get_mut(&key) {
        c[orbit.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::count_edge_orbits;
    use htc_graph::generators::{erdos_renyi_gnm, seeded_rng};
    use htc_graph::Graph;
    use proptest::prelude::*;
    use rand::Rng;

    /// The production counter must agree with the brute-force oracle.
    fn assert_counters_agree(graph: &Graph) {
        let fast = count_edge_orbits(graph);
        let brute = brute_force_edge_orbits(graph);
        assert_eq!(fast.edges.len(), brute.len());
        for (edge, counts) in fast.edges.iter().zip(&fast.edge_counts) {
            let expected = brute.get(edge).unwrap();
            assert_eq!(counts, expected, "edge {edge:?}");
        }
    }

    #[test]
    fn agree_on_named_graphs() {
        assert_counters_agree(&Graph::path(6));
        assert_counters_agree(&Graph::cycle(6));
        assert_counters_agree(&Graph::star(5));
        assert_counters_agree(&Graph::complete(5));
        assert_counters_agree(
            &Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]).unwrap(),
        );
    }

    #[test]
    fn agree_on_figure5_example() {
        // The 5-node example of Fig. 5: triangle a(0)-b(1)-c(2), chord? no —
        // edges: (a,b), (b,c), (a,c)? The figure shows a-b, b-c, b-d, c-d,
        // d-e roughly; we simply check agreement on that sketch.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        assert_counters_agree(&g);
    }

    #[test]
    fn agree_on_random_sparse_graphs() {
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let g = erdos_renyi_gnm(14, 20, &mut rng);
            assert_counters_agree(&g);
        }
    }

    #[test]
    fn agree_on_random_dense_graphs() {
        for seed in 10..13 {
            let mut rng = seeded_rng(seed);
            let g = erdos_renyi_gnm(10, 30, &mut rng);
            assert_counters_agree(&g);
        }
    }

    /// A graph of edge density below 0.05 whose edges mostly hang off two
    /// adjacent hubs, so it has high-degree nodes, shared hub neighbours
    /// (triangles, diamonds) and a few leaf–leaf edges (paths, cycles).
    fn sparse_hub_graph(seed: u64, n: usize) -> Graph {
        let mut rng = seeded_rng(seed);
        // The largest edge count with 2e / (n(n-1)) < 0.05.
        let budget = (n * (n - 1) - 1) / 40;
        // Hub 0 starts with a third of the budget; the rest mostly attach
        // to one of the two hubs.
        let mut edges: Vec<(usize, usize)> = (1..=budget / 3).map(|leaf| (0, leaf)).collect();
        let mut attempts = 0;
        while edges.len() < budget && attempts < 100 * budget {
            attempts += 1;
            let a = if rng.gen_range(0.0..1.0) < 0.7 {
                rng.gen_range(0..2usize)
            } else {
                rng.gen_range(2..n)
            };
            let b = rng.gen_range(2..n);
            let e = (a.min(b), a.max(b));
            if a != b && !edges.contains(&e) {
                edges.push(e);
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property: the O(e·D²) counter and the O(n⁴) oracle agree on
        /// arbitrary random graphs.
        #[test]
        fn fast_counter_matches_brute_force(seed in 0u64..10_000, n in 4usize..13, extra in 0usize..24) {
            let mut rng = seeded_rng(seed);
            let g = erdos_renyi_gnm(n, n + extra, &mut rng);
            assert_counters_agree(&g);
        }

        /// Property: the counter matches the oracle on sparse, hub-heavy
        /// graphs (density below 0.05, the regime of every fig8 graph).
        #[test]
        fn fast_counter_matches_brute_force_on_sparse_hub_graphs(seed in 0u64..10_000, n in 20usize..41) {
            let g = sparse_hub_graph(seed, n);
            prop_assert!(((2 * g.num_edges()) as f64 / (n * (n - 1)) as f64) < 0.05);
            prop_assert!(g.max_degree() >= 4);
            assert_counters_agree(&g);
        }

        /// Property: total triangle incidences equal 3× the triangle count.
        #[test]
        fn triangle_orbit_totals_consistent(seed in 0u64..10_000, n in 4usize..12) {
            let mut rng = seeded_rng(seed);
            let g = erdos_renyi_gnm(n, 2 * n, &mut rng);
            let counts = count_edge_orbits(&g);
            let total = counts.total_for_orbit(EdgeOrbit::TriangleEdge);
            prop_assert_eq!(total as usize, 3 * g.triangle_count());
        }
    }
}
