//! Property-based tests of the matrix kernels and distributions:
//! algebraic identities, Strassen correctness, and redistribution
//! conservation, over randomized shapes and seeds.

use paradigm_kernels::{
    block_ranges, gather, redistribution_plan, scatter, strassen_one_level, BlockDist,
    ComplexMatrix, Matrix,
};
use proptest::prelude::*;

fn arb_dist() -> impl Strategy<Value = BlockDist> {
    prop_oneof![Just(BlockDist::Row), Just(BlockDist::Col)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn matmul_distributes_over_addition(n in 2usize..12, seed in 0u64..1000) {
        // (A + B) C == AC + BC
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let c = Matrix::random(n, n, seed + 2);
        let lhs = a.add(&b).mul(&c);
        let rhs = a.mul(&c).add(&b.mul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9 * n as f64));
    }

    #[test]
    fn matmul_associative(m in 2usize..8, k in 2usize..8, n in 2usize..8, l in 2usize..8, seed in 0u64..1000) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let c = Matrix::random(n, l, seed + 2);
        let lhs = a.mul(&b).mul(&c);
        let rhs = a.mul(&b.mul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn strassen_one_level_equals_naive(k in 1usize..5, seed in 0u64..1000) {
        let n = 2usize << k; // 4..64, even
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 3);
        prop_assert!(strassen_one_level(&a, &b).approx_eq(&a.mul(&b), 1e-8));
    }

    #[test]
    fn complex_product_matches_reference(n in 1usize..12, seed in 0u64..1000) {
        let a = ComplexMatrix::random(n, n, seed);
        let b = ComplexMatrix::random(n, n, seed + 9);
        prop_assert!(a.mul_4m2a(&b).max_abs_diff(&a.mul_reference(&b)) < 1e-9 * n as f64);
    }

    #[test]
    fn scatter_gather_roundtrip(rows in 1usize..24, cols in 1usize..24, procs in 1usize..10, dist in arb_dist(), seed in 0u64..1000) {
        let m = Matrix::random(rows, cols, seed);
        let back = gather(&scatter(&m, dist, procs), dist, rows, cols);
        prop_assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn block_ranges_partition(total in 0usize..200, parts in 1usize..20) {
        let rs = block_ranges(total, parts);
        prop_assert_eq!(rs.len(), parts);
        let mut pos = 0;
        for &(s, l) in &rs {
            prop_assert_eq!(s, pos);
            pos += l;
        }
        prop_assert_eq!(pos, total);
        let min = rs.iter().map(|r| r.1).min().unwrap();
        let max = rs.iter().map(|r| r.1).max().unwrap();
        prop_assert!(max - min <= 1, "balanced partition");
    }

    #[test]
    fn redistribution_conserves_bytes(
        rows in 1usize..40,
        cols in 1usize..40,
        sp in 1usize..9,
        dp in 1usize..9,
        sd in arb_dist(),
        dd in arb_dist(),
    ) {
        let plan = redistribution_plan(rows, cols, sp, sd, dp, dd);
        let total: u64 = plan.iter().map(|m| m.bytes).sum();
        prop_assert_eq!(total, (rows * cols * 8) as u64);
        for m in &plan {
            prop_assert!(m.bytes > 0);
            prop_assert!((m.src as usize) < sp && (m.dst as usize) < dp);
        }
    }

    #[test]
    fn one_d_plan_message_count_bounded(rows in 1usize..64, sp in 1usize..9, dp in 1usize..9) {
        // 1D overlap structure: at most sp + dp - 1 messages.
        let plan = redistribution_plan(rows, 4, sp, BlockDist::Row, dp, BlockDist::Row);
        prop_assert!(plan.len() < sp + dp);
    }

    #[test]
    fn transpose_respects_block_access(rows in 1usize..16, cols in 1usize..16, seed in 0u64..1000) {
        let m = Matrix::random(rows, cols, seed);
        let t = m.transpose();
        for i in 0..rows.min(4) {
            for j in 0..cols.min(4) {
                prop_assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }
}
