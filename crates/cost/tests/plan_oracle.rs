//! Pins this crate's Eq. 2/3 cost functions to the exact message plans
//! of `paradigm_kernels::redistribution_plan`: the paper's formulas are
//! what a plan costs when every processor pays a startup plus per-byte
//! time for each of its messages (send and receive are the per-processor
//! maxima) and the network term is the largest message's delay.
//!
//! Checked at the paper's sizes: every `(p_i, p_j)` pair from
//! p ∈ {1, 16, 32, 64}, matrices of 64×64, 128×128 and 256×64, both
//! shapes (Row→Row is Eq. 2, Row→Col is Eq. 3), on the CM-5 and on the
//! synthetic mesh, whose `t_n > 0` checks the network term too.

use paradigm_cost::{transfer_components, TransferCost, TransferParams};
use paradigm_kernels::{redistribution_plan, BlockDist};
use paradigm_mdg::TransferKind;

const PROCS: [usize; 4] = [1, 16, 32, 64];
const SHAPES: [(usize, usize); 3] = [(64, 64), (128, 128), (256, 64)];

/// Sum the plan of a Row(`pi`) → `dst`(`pj`) move of a `rows x cols`
/// matrix into the paper's send / network / receive decomposition.
fn plan_cost(
    rows: usize,
    cols: usize,
    pi: usize,
    pj: usize,
    dst: BlockDist,
    x: &TransferParams,
) -> TransferCost {
    let mut send = vec![0.0_f64; pi];
    let mut recv = vec![0.0_f64; pj];
    let mut network = 0.0_f64;
    for m in redistribution_plan(rows, cols, pi, BlockDist::Row, pj, dst) {
        let bytes = m.bytes as f64;
        send[m.src as usize] += x.t_ss + bytes * x.t_ps;
        recv[m.dst as usize] += x.t_sr + bytes * x.t_pr;
        network = network.max(bytes * x.t_n);
    }
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    TransferCost { send: max(send), network, recv: max(recv) }
}

/// Every case of one shape agrees with the model to 1e-12 (relative) in
/// each component.
fn assert_plans_match_model(dst: BlockDist, kind: TransferKind) {
    for x in [TransferParams::cm5(), TransferParams::synthetic_mesh()] {
        for (rows, cols) in SHAPES {
            let bytes = (rows * cols * 8) as u64;
            for pi in PROCS {
                for pj in PROCS {
                    let model = transfer_components(kind, bytes, pi as f64, pj as f64, &x);
                    let plan = plan_cost(rows, cols, pi, pj, dst, &x);
                    for (what, m, p) in [
                        ("send", model.send, plan.send),
                        ("network", model.network, plan.network),
                        ("recv", model.recv, plan.recv),
                    ] {
                        assert!(
                            (m - p).abs() <= 1e-12 * m.abs(),
                            "{kind:?} {rows}x{cols} {pi}->{pj} t_n={}: {what} model {m} plan {p}",
                            x.t_n
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn row_to_row_plans_equal_eq2() {
    assert_plans_match_model(BlockDist::Row, TransferKind::OneD);
}

#[test]
fn row_to_col_plans_equal_eq3() {
    assert_plans_match_model(BlockDist::Col, TransferKind::TwoD);
}
