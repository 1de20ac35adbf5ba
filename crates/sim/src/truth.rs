//! The ground-truth machine: what the simulated hardware "really" does.
//!
//! The cost *model* of `paradigm-cost` is an idealization; real machines
//! deviate. This module is the deviation source. It takes nominal
//! parameters (by default the paper's Table 1/2 CM-5 constants) and adds:
//!
//! * a small systematic, processor-count-dependent perturbation to kernel
//!   times (collective overheads the Amdahl form does not capture);
//! * deterministic multiplicative noise on every individual cost, driven
//!   by a hash of (seed, site key) — reproducible, but uncorrelated
//!   between sites like real measurement jitter;
//! * a local-copy discount: a "message" whose global endpoints coincide
//!   is a memory copy, paying per-byte cost only (no startup, factor
//!   [`TrueMachine::LOCAL_COPY_FACTOR`] of the receive per-byte cost).
//!
//! The regression campaign of [`crate::measure`] fits the cost model
//! *against this machine*, reproducing the paper's training-sets
//! methodology; the residual misfit is what Figures 3/5/9 visualize.

use paradigm_cost::{Machine, TransferParams};
use paradigm_mdg::{AmdahlParams, KernelCostTable, LoopClass};

/// Ground-truth machine = nominal parameters + deviation model.
#[derive(Debug, Clone, Copy)]
pub struct TrueMachine {
    /// Nominal machine (processor count + Table-2 transfer constants).
    pub machine: Machine,
    /// Nominal kernel cost table (Table-1 Amdahl constants).
    pub kernels: KernelCostTable,
    /// Relative amplitude of per-site deterministic noise (e.g. `0.01`).
    pub noise: f64,
    /// Relative amplitude of the systematic q-dependent perturbation.
    pub wobble: f64,
    /// Seed for the noise hash.
    pub seed: u64,
}

impl TrueMachine {
    /// Per-byte cost factor for local (same-processor) copies, relative
    /// to the network receive per-byte cost.
    pub const LOCAL_COPY_FACTOR: f64 = 0.25;

    /// The default simulated CM-5 at a given size: paper constants, 1 %
    /// noise, 2 % systematic wobble.
    pub fn cm5(procs: u32) -> Self {
        TrueMachine {
            machine: Machine::cm5(procs),
            kernels: KernelCostTable::cm5(),
            noise: 0.01,
            wobble: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// A noise-free, wobble-free machine (the model is then exact; used
    /// by tests that need to isolate message-level effects).
    pub fn ideal(procs: u32) -> Self {
        TrueMachine {
            machine: Machine::cm5(procs),
            kernels: KernelCostTable::cm5(),
            noise: 0.0,
            wobble: 0.0,
            seed: 0,
        }
    }

    /// A fully custom ground truth — any nominal machine and kernel
    /// table with chosen deviation amplitudes. Used to exercise paths
    /// the CM-5 constants leave dormant (e.g. `t_n > 0` network delays).
    pub fn custom(
        machine: Machine,
        kernels: KernelCostTable,
        noise: f64,
        wobble: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..1.0).contains(&noise), "noise must be in [0,1)");
        assert!((0.0..1.0).contains(&wobble), "wobble must be in [0,1)");
        TrueMachine { machine, kernels, noise, wobble, seed }
    }

    /// The synthetic mesh machine (non-zero per-byte network delay) with
    /// CM-5-like kernels and mild deviations.
    pub fn mesh(procs: u32) -> Self {
        TrueMachine::custom(
            Machine::synthetic_mesh(procs),
            KernelCostTable::cm5(),
            0.01,
            0.02,
            0x4D455348,
        )
    }

    /// Deterministic noise factor in `[1 - noise, 1 + noise]` for a cost
    /// site identified by `key`.
    fn noise_factor(&self, key: u64) -> f64 {
        if self.noise == 0.0 {
            return 1.0;
        }
        let h = splitmix64(self.seed ^ key.wrapping_mul(0x9E3779B97F4A7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.noise * (2.0 * unit - 1.0)
    }

    /// Systematic perturbation factor for a kernel on `q` processors:
    /// `1 + wobble * sin(1.7 ln q + phase)` — smooth, bounded, and not
    /// representable by the Amdahl form (so the fit has real residuals).
    fn wobble_factor(&self, q: f64, class_phase: f64) -> f64 {
        1.0 + self.wobble * (1.7 * q.ln() + class_phase).sin()
    }

    fn class_phase(class: &LoopClass) -> f64 {
        match class {
            LoopClass::MatrixInit => 0.3,
            LoopClass::MatrixAdd => 1.1,
            LoopClass::MatrixMultiply => 2.2,
            LoopClass::Synthetic | LoopClass::Custom(_) => 0.0,
        }
    }

    /// True execution time of one `rows x cols` kernel of `class` on `q`
    /// processors. `site` keys the noise.
    pub fn kernel_time(
        &self,
        class: &LoopClass,
        rows: usize,
        cols: usize,
        q: u32,
        site: u64,
    ) -> f64 {
        let n = ((rows as f64 * cols as f64).sqrt()).round() as usize;
        let params = self.kernels.params_for(class, n.max(1));
        self.explicit_time(params, q, Self::class_phase(class), site)
    }

    /// True execution time for a node with explicit Amdahl parameters
    /// (synthetic workloads).
    pub fn explicit_time(&self, params: AmdahlParams, q: u32, phase: f64, site: u64) -> f64 {
        let base = params.cost(q as f64);
        base * self.wobble_factor(q as f64, phase) * self.noise_factor(site)
    }

    /// True cost on the *sending* processor for one message of `bytes`.
    pub fn send_time(&self, bytes: u64, site: u64) -> f64 {
        let x = &self.machine.xfer;
        (x.t_ss + bytes as f64 * x.t_ps) * self.noise_factor(site ^ 0x5EED)
    }

    /// True cost on the *receiving* processor for one message. Following
    /// the CM-5 semantics the paper describes, the network transfer is
    /// folded into the receive (per-byte receive cost includes it).
    pub fn recv_time(&self, bytes: u64, site: u64) -> f64 {
        let x = &self.machine.xfer;
        (x.t_sr + bytes as f64 * x.t_pr) * self.noise_factor(site ^ 0xFACE)
    }

    /// Network propagation delay between send completion and receive
    /// availability (zero on the CM-5).
    pub fn net_delay(&self, bytes: u64) -> f64 {
        self.machine.xfer.t_n * bytes as f64
    }

    /// True cost of a local memory copy standing in for a same-processor
    /// "message".
    pub fn local_copy_time(&self, bytes: u64, site: u64) -> f64 {
        let x = &self.machine.xfer;
        bytes as f64 * x.t_pr * Self::LOCAL_COPY_FACTOR * self.noise_factor(site ^ 0xD00D)
    }

    /// Transfer constants of the nominal machine.
    pub fn xfer(&self) -> &TransferParams {
        &self.machine.xfer
    }
}

/// SplitMix64 — tiny, high-quality hash for deterministic noise.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let t = TrueMachine::cm5(64);
        for key in 0..1000u64 {
            let f = t.noise_factor(key);
            assert!((0.99..=1.01).contains(&f), "factor {f} out of band");
            assert_eq!(f, t.noise_factor(key), "non-deterministic");
        }
    }

    #[test]
    fn noise_varies_across_sites() {
        let t = TrueMachine::cm5(64);
        let distinct: std::collections::HashSet<u64> =
            (0..100u64).map(|k| t.noise_factor(k).to_bits()).collect();
        assert!(distinct.len() > 90, "noise factors should be spread");
    }

    #[test]
    fn ideal_machine_matches_model_exactly() {
        let t = TrueMachine::ideal(64);
        let model = KernelCostTable::cm5();
        for q in [1u32, 2, 8, 64] {
            let truth = t.kernel_time(&LoopClass::MatrixMultiply, 64, 64, q, 7);
            let predicted = model.params_for(&LoopClass::MatrixMultiply, 64).cost(q as f64);
            assert!((truth - predicted).abs() < 1e-15, "q={q}");
        }
        let x = TransferParams::cm5();
        assert!((t.send_time(32768, 1) - (x.t_ss + 32768.0 * x.t_ps)).abs() < 1e-15);
        assert!((t.recv_time(32768, 1) - (x.t_sr + 32768.0 * x.t_pr)).abs() < 1e-15);
        assert_eq!(t.net_delay(32768), 0.0);
    }

    #[test]
    fn cm5_truth_close_to_model_but_not_exact() {
        let t = TrueMachine::cm5(64);
        let model = KernelCostTable::cm5();
        let mut any_different = false;
        for q in [1u32, 2, 4, 8, 16, 32, 64] {
            let truth = t.kernel_time(&LoopClass::MatrixMultiply, 64, 64, q, q as u64);
            let predicted = model.params_for(&LoopClass::MatrixMultiply, 64).cost(q as f64);
            let rel = (truth - predicted).abs() / predicted;
            assert!(rel < 0.05, "q={q}: rel dev {rel}");
            if rel > 1e-6 {
                any_different = true;
            }
        }
        assert!(any_different, "truth should not equal the model exactly");
    }

    #[test]
    fn local_copy_cheaper_than_message() {
        let t = TrueMachine::cm5(64);
        let copy = t.local_copy_time(32768, 3);
        let msg = t.recv_time(32768, 3) + t.send_time(32768, 3);
        assert!(copy < msg / 3.0);
    }

    #[test]
    fn kernel_time_scales_with_size() {
        let t = TrueMachine::ideal(64);
        let small = t.kernel_time(&LoopClass::MatrixMultiply, 64, 64, 4, 0);
        let big = t.kernel_time(&LoopClass::MatrixMultiply, 128, 128, 4, 0);
        assert!((big / small - 8.0).abs() < 1e-9, "O(n^3) scaling");
    }

    #[test]
    fn rectangular_kernel_uses_geometric_mean_size() {
        let t = TrueMachine::ideal(64);
        let rect = t.kernel_time(&LoopClass::MatrixAdd, 32, 128, 2, 0);
        let square = t.kernel_time(&LoopClass::MatrixAdd, 64, 64, 2, 0);
        assert!((rect - square).abs() < 1e-12);
    }
}
