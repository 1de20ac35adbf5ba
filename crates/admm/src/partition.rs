//! Deterministic multilevel MDG partitioning.
//!
//! The ADMM decomposition wants blocks that (a) balance the convex
//! subproblem sizes and (b) cut as little transfer traffic as possible,
//! because every cut edge turns its endpoints into consensus variables
//! that must be negotiated across outer iterations. This is the classic
//! graph-partitioning trade-off, solved here with the standard
//! multilevel recipe scaled down to what the coordinator needs:
//!
//! 1. **Coarsen** — repeated heavy-edge matching (visit nodes in id
//!    order, match each unmatched node to its unmatched neighbour across
//!    the heaviest incident edge) until the graph is small or matching
//!    stalls;
//! 2. **Initial partition** — contiguous chunks of the coarse graph's
//!    topological order, balanced by node weight (topological
//!    contiguity means the initial cut only crosses between consecutive
//!    phases of the computation, which is already close to a min cut
//!    for layered graphs);
//! 3. **Refine** — project the assignment back through each matching
//!    level, then greedy boundary moves: shift a node to the
//!    neighbouring block with the largest cut-weight gain whenever the
//!    balance constraint keeps holding.
//!
//! Everything runs serially over index-ordered loops with explicit
//! tie-breaks, so the result is a pure function of `(graph, options)` —
//! bitwise identical across runs, machines, and thread counts. The
//! convergence property tests pin that.

use paradigm_mdg::{EdgeId, Mdg, NodeId};

/// Partitioning options.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOptions {
    /// Target number of compute nodes per block. The block count is
    /// `ceil(compute_nodes / target_block_nodes)`, at least 1.
    pub target_block_nodes: usize,
    /// Graphs with fewer compute nodes than this stay in one block
    /// (tiny problems gain nothing from consensus overhead).
    pub min_partition_nodes: usize,
}

/// Allowed node-weight imbalance: every block stays below
/// `(1 + IMBALANCE) * total_weight / blocks`.
const IMBALANCE: f64 = 0.2;

/// Boundary-refinement passes per uncoarsening level.
const REFINE_PASSES: usize = 4;

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { target_block_nodes: 512, min_partition_nodes: 128 }
    }
}

impl PartitionOptions {
    /// Force a specific block count (used by `paradigm partition
    /// --blocks` and the convergence tests): sets the target size so
    /// `blocks` chunks result and drops the single-block floor.
    pub fn with_blocks(g: &Mdg, blocks: usize) -> Self {
        let n = g.compute_node_count().max(1);
        PartitionOptions { target_block_nodes: n.div_ceil(blocks.max(1)), min_partition_nodes: 0 }
    }
}

/// The result of partitioning: a block assignment for every compute
/// node plus the derived consensus structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Number of blocks (>= 1).
    pub blocks: usize,
    /// `block_of[node.0]` = block index for compute nodes, `usize::MAX`
    /// for the structural START/STOP nodes.
    pub block_of: Vec<usize>,
    /// Compute nodes of each block, ascending by node id.
    pub members: Vec<Vec<NodeId>>,
    /// Edges whose endpoints live in different blocks (structural edges
    /// never count; an edge to START/STOP is not a cut).
    pub cut_edges: Vec<EdgeId>,
    /// Compute nodes incident to at least one cut edge — the consensus
    /// variables of the ADMM formulation, ascending by node id.
    pub boundary: Vec<NodeId>,
    /// Total cut weight (bytes + 1 per cut edge), the refinement
    /// objective value.
    pub cut_weight: u64,
}

impl Partition {
    /// True when `id` is a consensus (boundary) variable.
    pub fn is_boundary(&self, id: NodeId) -> bool {
        self.boundary.binary_search(&id).is_ok()
    }

    /// Human-readable summary used by `paradigm partition`.
    pub fn render(&self, g: &Mdg) -> String {
        let mut out = format!(
            "partition of `{}`: {} blocks, {} cut edges (weight {}), {} boundary nodes\n",
            g.name(),
            self.blocks,
            self.cut_edges.len(),
            self.cut_weight,
            self.boundary.len()
        );
        for (b, m) in self.members.iter().enumerate() {
            let w: f64 = m.iter().map(|&v| g.node(v).cost.tau).sum();
            let boundary = m.iter().filter(|&&v| self.is_boundary(v)).count();
            out.push_str(&format!(
                "  block {b:>3}: {:>6} nodes ({boundary} boundary), weight {w:.3}\n",
                m.len()
            ));
        }
        out
    }
}

/// Edge weight for the min-cut objective: transferred bytes plus one,
/// so pure precedence edges still prefer staying inside a block.
fn edge_weight(g: &Mdg, e: EdgeId) -> u64 {
    g.edge(e).total_bytes() + 1
}

/// Node weight for the balance constraint: single-processor time,
/// scaled to an integer so balance arithmetic is exact. A floor of 1
/// keeps zero-cost nodes from piling into one block for free.
fn node_weight(g: &Mdg, v: NodeId) -> u64 {
    (g.node(v).cost.tau * 1e6) as u64 + 1
}

/// A small undirected multigraph over `0..n` used by the coarsening
/// levels: adjacency as (neighbor, weight) lists, parallel edges merged.
struct Level {
    /// Node weights.
    w: Vec<u64>,
    /// Merged undirected adjacency, each list sorted by neighbor.
    adj: Vec<Vec<(usize, u64)>>,
    /// Topological rank used for the initial contiguous split (for the
    /// finest level: position in `Mdg::topo_order`; coarser levels
    /// inherit the minimum rank of their members).
    rank: Vec<usize>,
    /// Map into the next-finer level: `fine_of[coarse]` = the 1..=2
    /// fine nodes this coarse node represents.
    fine_of: Vec<(usize, Option<usize>)>,
}

/// Partition `g`'s compute nodes into balanced blocks along min-weight
/// cuts. Deterministic: a pure function of `(g, opts)`.
pub fn partition_mdg(g: &Mdg, opts: &PartitionOptions) -> Partition {
    // Dense ids for compute nodes: compact[node.0] = Some(idx).
    let mut compact = vec![usize::MAX; g.node_count()];
    let mut nodes = Vec::new();
    for (id, n) in g.nodes() {
        if !n.is_structural() {
            compact[id.0] = nodes.len();
            nodes.push(id);
        }
    }
    let n = nodes.len();
    let blocks = if n < opts.min_partition_nodes.max(1) || n == 0 {
        1
    } else {
        n.div_ceil(opts.target_block_nodes.max(1)).max(1)
    };
    if blocks <= 1 || n <= 1 {
        return finish_partition(g, &nodes, vec![0; n], 1);
    }

    // Finest level from the compute subgraph (undirected, merged).
    let mut rank = vec![0usize; n];
    for (pos, &v) in g.topo_order().iter().enumerate() {
        if compact[v.0] != usize::MAX {
            rank[compact[v.0]] = pos;
        }
    }
    let mut pairs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (e, edge) in g.edges() {
        let (s, d) = (compact[edge.src], compact[edge.dst]);
        if s == usize::MAX || d == usize::MAX {
            continue;
        }
        let w = edge_weight(g, e);
        pairs[s].push((d, w));
        pairs[d].push((s, w));
    }
    let finest = Level {
        w: nodes.iter().map(|&v| node_weight(g, v)).collect(),
        adj: merge_adj(pairs),
        rank,
        fine_of: (0..n).map(|i| (i, None)).collect(),
    };

    // Coarsen until small (a handful of nodes per target block) or the
    // matching stops making progress.
    let coarse_target = (blocks * 8).max(32);
    let mut levels = vec![finest];
    while levels.last().unwrap().w.len() > coarse_target {
        let next = coarsen(levels.last().unwrap());
        if next.w.len() as f64 > levels.last().unwrap().w.len() as f64 * 0.95 {
            break; // matching stalled; more passes will not help
        }
        levels.push(next);
    }

    // Initial partition of the coarsest level: contiguous chunks of the
    // rank order, balanced by node weight.
    let coarsest = levels.last().unwrap();
    let mut order: Vec<usize> = (0..coarsest.w.len()).collect();
    order.sort_by_key(|&i| (coarsest.rank[i], i));
    let total: u64 = coarsest.w.iter().sum();
    let mut assign = vec![0usize; coarsest.w.len()];
    let mut acc = 0u64;
    let mut b = 0usize;
    for &i in &order {
        // Close the block once it holds its fair share of the weight.
        if b + 1 < blocks && acc + coarsest.w[i] / 2 >= total * (b as u64 + 1) / blocks as u64 {
            b += 1;
        }
        assign[i] = b;
        acc += coarsest.w[i];
    }

    // Uncoarsen with boundary refinement at every level.
    let cap = ((total as f64 / blocks as f64) * (1.0 + IMBALANCE)).ceil() as u64;
    for li in (0..levels.len()).rev() {
        if li + 1 < levels.len() {
            // Project the coarser assignment down one level.
            let coarser = &levels[li + 1];
            let mut fine_assign = vec![0usize; levels[li].w.len()];
            for (c, &(f0, f1)) in coarser.fine_of.iter().enumerate() {
                fine_assign[f0] = assign[c];
                if let Some(f1) = f1 {
                    fine_assign[f1] = assign[c];
                }
            }
            assign = fine_assign;
        }
        refine(&levels[li], &mut assign, blocks, cap, REFINE_PASSES);
    }

    finish_partition(g, &nodes, assign, blocks)
}

/// Merge duplicate neighbors, summing weights; drop self-loops.
fn merge_adj(pairs: Vec<Vec<(usize, u64)>>) -> Vec<Vec<(usize, u64)>> {
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, mut list)| {
            list.sort_unstable();
            let mut merged: Vec<(usize, u64)> = Vec::with_capacity(list.len());
            for (nb, w) in list {
                if nb == i {
                    continue;
                }
                match merged.last_mut() {
                    Some((last, lw)) if *last == nb => *lw += w,
                    _ => merged.push((nb, w)),
                }
            }
            merged
        })
        .collect()
}

/// One heavy-edge-matching coarsening pass.
fn coarsen(level: &Level) -> Level {
    let n = level.w.len();
    let mut mate = vec![usize::MAX; n];
    for i in 0..n {
        if mate[i] != usize::MAX {
            continue;
        }
        // Heaviest edge to an unmatched neighbor; ties -> smaller id.
        let mut best: Option<(u64, usize)> = None;
        for &(nb, w) in &level.adj[i] {
            if mate[nb] != usize::MAX {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bn)) => w > bw || (w == bw && nb < bn),
            };
            if better {
                best = Some((w, nb));
            }
        }
        if let Some((_, nb)) = best {
            mate[i] = nb;
            mate[nb] = i;
        }
    }

    // Build the coarse node set: matched pairs collapse (the smaller id
    // leads), singletons carry over. Coarse ids follow fine-id order.
    let mut coarse_of = vec![usize::MAX; n];
    let mut fine_of = Vec::new();
    let mut w = Vec::new();
    let mut rank = Vec::new();
    for i in 0..n {
        if coarse_of[i] != usize::MAX {
            continue;
        }
        let c = fine_of.len();
        coarse_of[i] = c;
        if mate[i] != usize::MAX && mate[i] > i {
            let j = mate[i];
            coarse_of[j] = c;
            fine_of.push((i, Some(j)));
            w.push(level.w[i] + level.w[j]);
            rank.push(level.rank[i].min(level.rank[j]));
        } else {
            fine_of.push((i, None));
            w.push(level.w[i]);
            rank.push(level.rank[i]);
        }
    }

    let mut pairs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); fine_of.len()];
    for i in 0..n {
        for &(nb, ew) in &level.adj[i] {
            if i < nb {
                let (ci, cn) = (coarse_of[i], coarse_of[nb]);
                if ci != cn {
                    pairs[ci].push((cn, ew));
                    pairs[cn].push((ci, ew));
                }
            }
        }
    }
    Level { w, adj: merge_adj(pairs), rank, fine_of }
}

/// Greedy boundary refinement: move nodes to the adjacent block with
/// the largest positive cut gain, respecting the balance cap. Node
/// order and tie-breaks are fixed, so refinement is deterministic.
fn refine(level: &Level, assign: &mut [usize], blocks: usize, cap: u64, passes: usize) {
    let n = level.w.len();
    let mut block_w = vec![0u64; blocks];
    for i in 0..n {
        block_w[assign[i]] += level.w[i];
    }
    let mut gain = vec![0i64; blocks];
    for _ in 0..passes {
        let mut moved = 0usize;
        for i in 0..n {
            let home = assign[i];
            // Cut weight toward each adjacent block.
            let mut touched: Vec<usize> = Vec::new();
            for &(nb, w) in &level.adj[i] {
                let b = assign[nb];
                if gain[b] == 0 {
                    touched.push(b);
                }
                gain[b] += w as i64;
            }
            let internal = gain[home];
            let mut best: Option<(i64, usize)> = None;
            for &b in &touched {
                if b == home {
                    continue;
                }
                let d = gain[b] - internal;
                let better = match best {
                    None => d > 0,
                    Some((bd, bb)) => d > bd || (d == bd && b < bb),
                };
                if better && block_w[b] + level.w[i] <= cap && block_w[home] > level.w[i] {
                    best = Some((d, b));
                }
            }
            for &b in &touched {
                gain[b] = 0;
            }
            if let Some((_, b)) = best {
                block_w[home] -= level.w[i];
                block_w[b] += level.w[i];
                assign[i] = b;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Renumber surviving blocks densely and derive the consensus metadata.
fn finish_partition(g: &Mdg, nodes: &[NodeId], assign: Vec<usize>, blocks: usize) -> Partition {
    // Refinement can empty a block; renumber densely in first-seen-by-
    // block-index order so block ids stay stable.
    let mut remap = vec![usize::MAX; blocks];
    let mut next = 0usize;
    for (b, slot) in remap.iter_mut().enumerate() {
        if assign.contains(&b) {
            *slot = next;
            next += 1;
        }
    }
    let blocks = next.max(1);
    let mut block_of = vec![usize::MAX; g.node_count()];
    let mut members = vec![Vec::new(); blocks];
    for (i, &v) in nodes.iter().enumerate() {
        let b = remap[assign[i]];
        block_of[v.0] = b;
        members[b].push(v);
    }
    let mut cut_edges = Vec::new();
    let mut boundary_flag = vec![false; g.node_count()];
    let mut cut_weight = 0u64;
    for (e, edge) in g.edges() {
        let (s, d) = (block_of[edge.src], block_of[edge.dst]);
        if s != usize::MAX && d != usize::MAX && s != d {
            cut_edges.push(e);
            cut_weight += edge_weight(g, e);
            boundary_flag[edge.src] = true;
            boundary_flag[edge.dst] = true;
        }
    }
    let boundary =
        (0..g.node_count()).filter(|&i| boundary_flag[i]).map(NodeId).collect::<Vec<_>>();
    Partition { blocks, block_of, members, cut_edges, boundary, cut_weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{fork_join_mdg, random_layered_mdg, RandomMdgConfig};

    fn medium() -> Mdg {
        random_layered_mdg(&RandomMdgConfig::sized(600), 11)
    }

    #[test]
    fn small_graphs_stay_single_block() {
        let g = paradigm_mdg::example_fig1_mdg();
        let p = partition_mdg(&g, &PartitionOptions::default());
        assert_eq!(p.blocks, 1);
        assert!(p.cut_edges.is_empty() && p.boundary.is_empty());
        assert_eq!(p.members[0].len(), g.compute_node_count());
    }

    #[test]
    fn blocks_are_balanced_and_cover_everything() {
        let g = medium();
        let opts = PartitionOptions { target_block_nodes: 100, min_partition_nodes: 0 };
        let p = partition_mdg(&g, &opts);
        assert!(p.blocks >= 4, "{} blocks", p.blocks);
        let covered: usize = p.members.iter().map(Vec::len).sum();
        assert_eq!(covered, g.compute_node_count());
        // Every member list agrees with block_of and is sorted.
        for (b, m) in p.members.iter().enumerate() {
            assert!(!m.is_empty(), "block {b} empty");
            assert!(m.windows(2).all(|w| w[0] < w[1]));
            for &v in m {
                assert_eq!(p.block_of[v.0], b);
            }
        }
        // Balance: node weights within the advertised cap.
        let total: u64 = (0..g.node_count())
            .filter(|&i| p.block_of[i] != usize::MAX)
            .map(|i| super::node_weight(&g, NodeId(i)))
            .sum();
        let cap = ((total as f64 / p.blocks as f64) * (1.0 + IMBALANCE)).ceil() as u64;
        for m in &p.members {
            let w: u64 = m.iter().map(|&v| super::node_weight(&g, v)).sum();
            assert!(w <= cap, "block weight {w} > cap {cap}");
        }
    }

    #[test]
    fn cut_edges_and_boundary_are_consistent() {
        let g = medium();
        let p = partition_mdg(&g, &PartitionOptions::with_blocks(&g, 6));
        assert!(!p.cut_edges.is_empty());
        for &e in &p.cut_edges {
            let edge = g.edge(e);
            assert_ne!(p.block_of[edge.src], p.block_of[edge.dst]);
            assert!(p.is_boundary(NodeId(edge.src)));
            assert!(p.is_boundary(NodeId(edge.dst)));
        }
        // No non-boundary node touches a cut edge.
        for &v in &p.boundary {
            let on_cut = g
                .in_edges(v)
                .iter()
                .chain(g.out_edges(v))
                .any(|e| p.cut_edges.binary_search(e).is_ok());
            assert!(on_cut, "boundary node {v:?} touches no cut edge");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = medium();
        let opts = PartitionOptions::with_blocks(&g, 8);
        let a = partition_mdg(&g, &opts);
        let b = partition_mdg(&g, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn fork_join_cuts_are_cheap() {
        // Stage boundaries are single edges: the partitioner should find
        // cuts far below the worst case (width edges per boundary).
        let g = fork_join_mdg(8, 16, 3);
        let p = partition_mdg(&g, &PartitionOptions::with_blocks(&g, 4));
        assert!(p.blocks >= 2);
        assert!(
            p.cut_edges.len() <= 3 * 16,
            "{} cut edges for a fork-join that has 1-edge stage boundaries",
            p.cut_edges.len()
        );
    }

    #[test]
    fn with_blocks_hits_the_requested_count() {
        let g = medium();
        for want in [2usize, 4, 8] {
            let p = partition_mdg(&g, &PartitionOptions::with_blocks(&g, want));
            assert!(
                p.blocks >= want.saturating_sub(1) && p.blocks <= want,
                "asked {want}, got {}",
                p.blocks
            );
        }
    }
}
