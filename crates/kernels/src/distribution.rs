//! Block distributions and redistribution plans.
//!
//! The cost model (paper Section 4) assumes every array is distributed
//! along exactly one dimension in a blocked manner. This module makes
//! that concrete: [`BlockDist::Row`]/[`BlockDist::Col`] partitions with
//! balanced blocks, value-level scatter/gather, and — most importantly —
//! [`redistribution_plan`]: the exact set of point-to-point messages
//! (with byte counts) needed to move an array from a `p_i`-processor
//! group with one distribution to a `p_j`-processor group with another.
//!
//! The simulator executes these plans message by message, which gives the
//! "actual" timings their aggregate cost model (Eq. 2/3) only
//! approximates — the same relationship the paper has between its CM-5
//! runs and its model predictions.

use crate::matrix::Matrix;

/// Which dimension an array is blocked along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockDist {
    /// Processors own contiguous row blocks.
    Row,
    /// Processors own contiguous column blocks.
    Col,
}

impl BlockDist {
    /// True if moving from `self` to `other` is a 1D (same-dimension)
    /// redistribution; false means the 2D all-pairs pattern.
    fn is_one_d_to(self, other: BlockDist) -> bool {
        self == other
    }
}

/// One point-to-point message of a redistribution plan. Ranks are
/// group-local: `src` indexes the sending group, `dst` the receiving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedistMessage {
    /// Sender's rank within the source group.
    pub src: u32,
    /// Receiver's rank within the destination group.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// Owner `k`'s `(start, len)` in the balanced block partition of `total`
/// items over `parts` owners: the first `total % parts` owners get one
/// extra item (len may be 0 when `parts > total`).
pub fn block_range(total: usize, parts: usize, k: usize) -> (usize, usize) {
    assert!(parts >= 1, "need at least one part");
    let base = total / parts;
    let extra = total % parts;
    (k * base + k.min(extra), base + usize::from(k < extra))
}

/// Every owner's [`block_range`], in owner order.
pub fn block_ranges(total: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts >= 1, "need at least one part");
    (0..parts).map(|k| block_range(total, parts, k)).collect()
}

/// Split a matrix into per-processor local pieces under a distribution.
pub fn scatter(m: &Matrix, dist: BlockDist, procs: usize) -> Vec<Matrix> {
    match dist {
        BlockDist::Row => block_ranges(m.rows(), procs)
            .into_iter()
            .map(|(r0, len)| m.block(r0, 0, len, m.cols()))
            .collect(),
        BlockDist::Col => block_ranges(m.cols(), procs)
            .into_iter()
            .map(|(c0, len)| m.block(0, c0, m.rows(), len))
            .collect(),
    }
}

/// Reassemble a matrix from its scattered pieces.
///
/// # Panics
/// Panics if the pieces do not tile a `rows x cols` matrix under `dist`.
pub fn gather(pieces: &[Matrix], dist: BlockDist, rows: usize, cols: usize) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    match dist {
        BlockDist::Row => {
            let ranges = block_ranges(rows, pieces.len());
            for (piece, (r0, len)) in pieces.iter().zip(ranges) {
                assert_eq!(piece.rows(), len, "piece height mismatch");
                assert_eq!(piece.cols(), cols, "piece width mismatch");
                out.set_block(r0, 0, piece);
            }
        }
        BlockDist::Col => {
            let ranges = block_ranges(cols, pieces.len());
            for (piece, (c0, len)) in pieces.iter().zip(ranges) {
                assert_eq!(piece.cols(), len, "piece width mismatch");
                assert_eq!(piece.rows(), rows, "piece height mismatch");
                out.set_block(0, c0, piece);
            }
        }
    }
    out
}

/// Overlap length of two half-open ranges.
fn overlap(a: (usize, usize), b: (usize, usize)) -> usize {
    let lo = a.0.max(b.0);
    let hi = (a.0 + a.1).min(b.0 + b.1);
    hi.saturating_sub(lo)
}

/// The exact message set that moves a `rows x cols` `f64` matrix from a
/// `src_procs`-owner group distributed by `src_dist` to a
/// `dst_procs`-owner group distributed by `dst_dist`. Zero-byte messages
/// are omitted. The sum of all message bytes always equals the matrix
/// size (in group-local rank space every element crosses exactly once;
/// the simulator drops messages whose *global* endpoints coincide).
pub fn redistribution_plan(
    rows: usize,
    cols: usize,
    src_procs: usize,
    src_dist: BlockDist,
    dst_procs: usize,
    dst_dist: BlockDist,
) -> Vec<RedistMessage> {
    let elem = std::mem::size_of::<f64>() as u64;
    let mut out = Vec::new();
    if src_dist.is_one_d_to(dst_dist) {
        // 1D: overlap of block ranges along the shared dimension.
        let dim = match src_dist {
            BlockDist::Row => rows,
            BlockDist::Col => cols,
        };
        let other = match src_dist {
            BlockDist::Row => cols,
            BlockDist::Col => rows,
        } as u64;
        let src_ranges = block_ranges(dim, src_procs);
        let dst_ranges = block_ranges(dim, dst_procs);
        for (i, &ra) in src_ranges.iter().enumerate() {
            for (j, &rb) in dst_ranges.iter().enumerate() {
                let ov = overlap(ra, rb) as u64;
                if ov > 0 {
                    out.push(RedistMessage {
                        src: i as u32,
                        dst: j as u32,
                        bytes: ov * other * elem,
                    });
                }
            }
        }
    } else {
        // 2D: every (src, dst) pair exchanges the intersection block.
        let (src_dim, dst_dim) = match src_dist {
            BlockDist::Row => (rows, cols),
            BlockDist::Col => (cols, rows),
        };
        let src_ranges = block_ranges(src_dim, src_procs);
        let dst_ranges = block_ranges(dst_dim, dst_procs);
        for (i, &(_, la)) in src_ranges.iter().enumerate() {
            for (j, &(_, lb)) in dst_ranges.iter().enumerate() {
                let bytes = (la * lb) as u64 * elem;
                if bytes > 0 {
                    out.push(RedistMessage { src: i as u32, dst: j as u32, bytes });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 64, 65] {
            for parts in [1usize, 2, 3, 5, 8, 70] {
                let rs = block_ranges(total, parts);
                assert_eq!(rs.len(), parts);
                let sum: usize = rs.iter().map(|&(_, l)| l).sum();
                assert_eq!(sum, total);
                // Contiguous and ordered.
                let mut pos = 0;
                for &(s, l) in &rs {
                    assert_eq!(s, pos);
                    pos += l;
                }
                // Balanced: lengths differ by at most one.
                let min = rs.iter().map(|&(_, l)| l).min().unwrap();
                let max = rs.iter().map(|&(_, l)| l).max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let m = Matrix::random(13, 9, 1);
        for dist in [BlockDist::Row, BlockDist::Col] {
            for procs in [1usize, 2, 4, 5, 13] {
                let pieces = scatter(&m, dist, procs);
                let back = gather(&pieces, dist, 13, 9);
                assert!(back.approx_eq(&m, 0.0), "{dist:?} x{procs}");
            }
        }
    }

    #[test]
    fn plan_conserves_bytes() {
        for (sp, sd, dp, dd) in [
            (4usize, BlockDist::Row, 8usize, BlockDist::Row),
            (8, BlockDist::Row, 2, BlockDist::Row),
            (4, BlockDist::Col, 4, BlockDist::Col),
            (4, BlockDist::Row, 8, BlockDist::Col),
            (2, BlockDist::Col, 16, BlockDist::Row),
        ] {
            let plan = redistribution_plan(64, 64, sp, sd, dp, dd);
            let total: u64 = plan.iter().map(|m| m.bytes).sum();
            assert_eq!(total, 64 * 64 * 8, "{sp} {sd:?} -> {dp} {dd:?}");
        }
    }

    #[test]
    fn one_d_same_size_is_rank_to_rank() {
        // Equal group sizes, same dist: each rank sends only to its
        // counterpart.
        let plan = redistribution_plan(64, 64, 8, BlockDist::Row, 8, BlockDist::Row);
        assert_eq!(plan.len(), 8);
        for m in &plan {
            assert_eq!(m.src, m.dst);
            assert_eq!(m.bytes, 64 * 64 * 8 / 8);
        }
    }

    #[test]
    fn one_d_doubling_splits_each_block() {
        // 2 -> 4 owners: each source block splits in two.
        let plan = redistribution_plan(64, 64, 2, BlockDist::Row, 4, BlockDist::Row);
        assert_eq!(plan.len(), 4);
        // Message count equals max(p_i, p_j) — the cost model's premise.
        let plan2 = redistribution_plan(64, 64, 8, BlockDist::Row, 2, BlockDist::Row);
        assert_eq!(plan2.len(), 8);
    }

    #[test]
    fn two_d_is_all_pairs() {
        let plan = redistribution_plan(64, 64, 3, BlockDist::Row, 5, BlockDist::Col);
        assert_eq!(plan.len(), 15, "p_i * p_j messages");
    }

    #[test]
    fn empty_owners_get_no_messages() {
        // More owners than rows: some blocks are empty.
        let plan = redistribution_plan(4, 4, 8, BlockDist::Row, 2, BlockDist::Row);
        let senders: std::collections::HashSet<u32> = plan.iter().map(|m| m.src).collect();
        assert!(senders.len() <= 4, "only 4 non-empty row owners");
        let total: u64 = plan.iter().map(|m| m.bytes).sum();
        assert_eq!(total, 4 * 4 * 8);
    }

    #[test]
    fn value_level_redistribution_matches_plan() {
        // Move a matrix Row(3) -> Col(4) by executing the plan on real
        // data and compare with a direct scatter under the new dist.
        let m = Matrix::random(12, 8, 2);
        let src = scatter(&m, BlockDist::Row, 3);
        let expect = scatter(&m, BlockDist::Col, 4);
        let plan = redistribution_plan(12, 8, 3, BlockDist::Row, 4, BlockDist::Col);
        // Reconstruct each destination piece from the plan's messages.
        let row_ranges = block_ranges(12, 3);
        let col_ranges = block_ranges(8, 4);
        let mut rebuilt: Vec<Matrix> =
            col_ranges.iter().map(|&(_, l)| Matrix::zeros(12, l)).collect();
        for msg in &plan {
            let (r0, rl) = row_ranges[msg.src as usize];
            let (c0, cl) = col_ranges[msg.dst as usize];
            assert_eq!(msg.bytes, (rl * cl * 8) as u64);
            // The payload: rows r0..r0+rl of the dst's columns.
            let piece = &src[msg.src as usize]; // rows r0.., all cols
            let sub = piece.block(0, c0, rl, cl);
            rebuilt[msg.dst as usize].set_block(r0, 0, &sub);
        }
        for (got, want) in rebuilt.iter().zip(&expect) {
            assert!(got.approx_eq(want, 0.0));
        }
    }
}
