//! Strassen's matrix multiplication — the paper's second test program.
//!
//! [`strassen_one_level`] performs exactly one recursion level (seven
//! half-size multiplications, eighteen quadrant additions/subtractions),
//! matching the MDG of `paradigm_mdg::strassen_mdg` node for node.

use crate::matrix::Matrix;

/// One recursion level of Strassen — the seven products (via the naive
/// kernel) and the quadrant recombination — exactly the computation of
/// the paper's Strassen MDG.
///
/// # Panics
/// Panics unless both matrices are square with even dimension.
pub fn strassen_one_level(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "Strassen needs square matrices");
    assert_eq!(b.rows(), b.cols(), "Strassen needs square matrices");
    assert_eq!(a.rows(), b.rows(), "dimension mismatch");
    assert!(a.rows().is_multiple_of(2), "Strassen needs an even dimension");
    let h = a.rows() / 2;

    let a11 = a.block(0, 0, h, h);
    let a12 = a.block(0, h, h, h);
    let a21 = a.block(h, 0, h, h);
    let a22 = a.block(h, h, h, h);
    let b11 = b.block(0, 0, h, h);
    let b12 = b.block(0, h, h, h);
    let b21 = b.block(h, 0, h, h);
    let b22 = b.block(h, h, h, h);

    // Pre-additions S1..S10 (names match the MDG builder).
    let s1 = a11.add(&a22);
    let s2 = b11.add(&b22);
    let s3 = a21.add(&a22);
    let s4 = b12.sub(&b22);
    let s5 = b21.sub(&b11);
    let s6 = a11.add(&a12);
    let s7 = a21.sub(&a11);
    let s8 = b11.add(&b12);
    let s9 = a12.sub(&a22);
    let s10 = b21.add(&b22);

    // The seven products.
    let m1 = s1.mul(&s2);
    let m2 = s3.mul(&b11);
    let m3 = a11.mul(&s4);
    let m4 = a22.mul(&s5);
    let m5 = s6.mul(&b22);
    let m6 = s7.mul(&s8);
    let m7 = s9.mul(&s10);

    // Quadrant recombination (binary-add decomposition as in the MDG).
    let t1 = m1.add(&m4);
    let t2 = t1.sub(&m5);
    let c11 = t2.add(&m7);
    let c12 = m3.add(&m5);
    let c21 = m2.add(&m4);
    let t3 = m1.sub(&m2);
    let t4 = t3.add(&m3);
    let c22 = t4.add(&m6);

    let n = a.rows();
    let mut c = Matrix::zeros(n, n);
    c.set_block(0, 0, &c11);
    c.set_block(0, h, &c12);
    c.set_block(h, 0, &c21);
    c.set_block(h, h, &c22);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_level_matches_naive() {
        for n in [2usize, 4, 8, 16, 64] {
            let a = Matrix::random(n, n, n as u64);
            let b = Matrix::random(n, n, n as u64 + 100);
            let expect = a.mul(&b);
            let got = strassen_one_level(&a, &b);
            assert!(
                got.approx_eq(&expect, 1e-9 * n as f64),
                "n={n}: max diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn paper_size_128() {
        // The paper's Strassen test case: 128x128 with one level.
        let a = Matrix::random(128, 128, 11);
        let b = Matrix::random(128, 128, 12);
        let got = strassen_one_level(&a, &b);
        assert!(got.approx_eq(&a.mul(&b), 1e-8));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn one_level_rejects_odd() {
        let a = Matrix::random(3, 3, 1);
        let _ = strassen_one_level(&a, &a);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn one_level_rejects_rectangular() {
        let a = Matrix::random(4, 6, 1);
        let _ = strassen_one_level(&a, &a);
    }
}
