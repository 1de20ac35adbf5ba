//! Plain-text rendering of a calibration (`paradigm calibrate`), laid
//! out like the paper's Tables 1 and 2 so a side-by-side comparison is
//! easy.

use crate::calibrate::Calibration;

/// Render a calibration summary (Tables 1 and 2 reproduction).
pub fn render_calibration(cal: &Calibration) -> String {
    let mut s = String::new();
    s.push_str("Fitted processing-cost parameters (paper Table 1):\n");
    s.push_str("  Node Name                 |   alpha (%)   |    tau (mS)    | R^2\n");
    s.push_str("  --------------------------+---------------+----------------+------\n");
    for (class, fit) in &cal.kernel_fits {
        s.push_str(&format!(
            "  {:<25} | {:>5.1} ± {:>5.2} | {:>7.2} ± {:>4.2} | {:>.4}\n",
            format!("Matrix {:?} (64x64)", class),
            100.0 * fit.params.alpha,
            100.0 * fit.alpha_stderr,
            1e3 * fit.params.tau,
            1e3 * fit.tau_stderr,
            fit.r2
        ));
    }
    let x = cal.machine.xfer;
    s.push_str("\nFitted data-transfer parameters (paper Table 2):\n");
    s.push_str("  t_ss (uS) | t_ps (nS) | t_sr (uS) | t_pr (nS) | t_n (nS)\n");
    s.push_str("  ----------+-----------+-----------+-----------+---------\n");
    s.push_str(&format!(
        "  {:>9.2} | {:>9.2} | {:>9.2} | {:>9.2} | {:>8.2}\n",
        1e6 * x.t_ss,
        1e9 * x.t_ps,
        1e6 * x.t_sr,
        1e9 * x.t_pr,
        1e9 * x.t_n
    ));
    s.push_str(&format!(
        "  (fit R^2: send {:.4}, recv {:.4})\n",
        cal.transfer_fit.r2_send, cal.transfer_fit.r2_recv
    ));
    s
}
