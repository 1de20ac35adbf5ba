//! Machine parameter sets.
//!
//! A [`Machine`] is a processor count plus the five data-transfer
//! constants of the paper's Table 2. The CM-5 instance reproduces the
//! paper's fitted values exactly, including `t_n = 0`: on the CM-5 the
//! network transfer happens inside the *receive* call (when the receive is
//! posted after the matching send has completed, which the PSA schedule
//! guarantees), so the per-byte network cost is folded into the per-byte
//! receive cost and the explicit network term vanishes.

/// Per-message data-transfer cost constants (paper Table 2).
///
/// All values in **seconds** (the paper's table mixes µs and ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferParams {
    /// Startup cost for sending one message (`t_ss`).
    pub t_ss: f64,
    /// Per-byte cost for sending (`t_ps`).
    pub t_ps: f64,
    /// Startup cost for receiving one message (`t_sr`).
    pub t_sr: f64,
    /// Per-byte cost for receiving (`t_pr`).
    pub t_pr: f64,
    /// Per-byte network delay (`t_n`); 0 on the CM-5 (see module docs).
    pub t_n: f64,
}

impl TransferParams {
    /// The paper's Table 2 (CM-5): `t_ss = 777.56 µs`, `t_ps = 486.98 ns`,
    /// `t_sr = 465.58 µs`, `t_pr = 426.25 ns`, `t_n = 0`.
    pub fn cm5() -> Self {
        TransferParams {
            t_ss: 777.56e-6,
            t_ps: 486.98e-9,
            t_sr: 465.58e-6,
            t_pr: 426.25e-9,
            t_n: 0.0,
        }
    }

    /// A synthetic machine with an explicit network term, used in tests
    /// and ablations to exercise the `t^D` edge-weight path that the CM-5
    /// parameters leave at zero.
    pub fn synthetic_mesh() -> Self {
        TransferParams {
            t_ss: 500.0e-6,
            t_ps: 400.0e-9,
            t_sr: 300.0e-6,
            t_pr: 350.0e-9,
            t_n: 120.0e-9,
        }
    }

    /// All parameters must be finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("t_ss", self.t_ss),
            ("t_ps", self.t_ps),
            ("t_sr", self.t_sr),
            ("t_pr", self.t_pr),
            ("t_n", self.t_n),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("transfer parameter {name} = {v} is invalid"));
            }
        }
        Ok(())
    }
}

/// Default per-processor memory capacity when no family-specific value
/// applies: 32 MiB, the CM-5 node size.
pub const DEFAULT_MEM_BYTES: u64 = 32 * 1024 * 1024;

/// A target multicomputer: processor count plus transfer constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Total number of processors `p`.
    pub procs: u32,
    /// Message cost constants.
    pub xfer: TransferParams,
    /// Per-processor memory capacity in bytes. Family constructors set
    /// era-plausible node sizes; override with [`Machine::with_mem_bytes`].
    pub mem_bytes: u64,
}

impl Machine {
    /// Construct, validating the parameters. Memory defaults to
    /// [`DEFAULT_MEM_BYTES`] per processor.
    ///
    /// # Panics
    /// Panics if `procs == 0` or a transfer parameter is invalid.
    pub fn new(procs: u32, xfer: TransferParams) -> Self {
        assert!(procs >= 1, "a machine needs at least one processor");
        if let Err(e) = xfer.validate() {
            panic!("invalid machine: {e}");
        }
        Machine { procs, xfer, mem_bytes: DEFAULT_MEM_BYTES }
    }

    /// Override the per-processor memory capacity.
    ///
    /// # Panics
    /// Panics if `mem_bytes == 0` — a processor with no memory cannot
    /// hold even the empty resident set.
    pub fn with_mem_bytes(mut self, mem_bytes: u64) -> Self {
        assert!(mem_bytes > 0, "per-processor memory capacity must be positive");
        self.mem_bytes = mem_bytes;
        self
    }

    /// The paper's testbed: a 64-node Thinking Machines CM-5.
    pub fn cm5_64() -> Self {
        Machine::new(64, TransferParams::cm5())
    }

    /// The CM-5 cost constants at an arbitrary system size (the paper
    /// also evaluates 16- and 32-processor configurations). CM-5 nodes
    /// shipped with 32 MB of local memory.
    pub fn cm5(procs: u32) -> Self {
        Machine::new(procs, TransferParams::cm5()).with_mem_bytes(32 * 1024 * 1024)
    }

    /// Synthetic mesh machine with non-zero network delay and small
    /// (16 MiB) nodes, so memory-pressure paths get exercised in tests.
    pub fn synthetic_mesh(procs: u32) -> Self {
        Machine::new(procs, TransferParams::synthetic_mesh()).with_mem_bytes(16 * 1024 * 1024)
    }

    /// Illustrative Intel Paragon-class constants (the other 1994-era
    /// multicomputer the paper's introduction names). Values are
    /// era-plausible datasheet figures, **not** fitted measurements:
    /// lower startup than the CM-5's CMMD, an explicit per-byte network
    /// term (store-and-forward mesh), similar per-byte processing.
    pub fn intel_paragon(procs: u32) -> Self {
        Machine::new(
            procs,
            TransferParams {
                t_ss: 120.0e-6,
                t_ps: 350.0e-9,
                t_sr: 90.0e-6,
                t_pr: 300.0e-9,
                t_n: 40.0e-9,
            },
        )
        .with_mem_bytes(32 * 1024 * 1024)
    }

    /// Illustrative IBM SP-1-class constants (the third machine named in
    /// the paper's introduction). Same caveat as
    /// [`Machine::intel_paragon`].
    pub fn ibm_sp1(procs: u32) -> Self {
        Machine::new(
            procs,
            TransferParams {
                t_ss: 270.0e-6,
                t_ps: 120.0e-9,
                t_sr: 200.0e-6,
                t_pr: 110.0e-9,
                t_n: 25.0e-9,
            },
        )
        .with_mem_bytes(64 * 1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm5_matches_table2() {
        let m = Machine::cm5_64();
        assert_eq!(m.procs, 64);
        assert!((m.xfer.t_ss - 777.56e-6).abs() < 1e-15);
        assert!((m.xfer.t_ps - 486.98e-9).abs() < 1e-18);
        assert!((m.xfer.t_sr - 465.58e-6).abs() < 1e-15);
        assert!((m.xfer.t_pr - 426.25e-9).abs() < 1e-18);
        assert_eq!(m.xfer.t_n, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        let _ = Machine::new(0, TransferParams::cm5());
    }

    #[test]
    fn validation_rejects_negative() {
        let mut p = TransferParams::cm5();
        p.t_pr = -1.0;
        assert!(p.validate().is_err());
        let mut q = TransferParams::cm5();
        q.t_ss = f64::NAN;
        assert!(q.validate().is_err());
        assert!(TransferParams::cm5().validate().is_ok());
    }

    #[test]
    fn synthetic_mesh_has_network_term() {
        assert!(TransferParams::synthetic_mesh().t_n > 0.0);
    }

    #[test]
    fn memory_defaults_per_family() {
        assert_eq!(Machine::cm5(64).mem_bytes, 32 * 1024 * 1024);
        assert_eq!(Machine::synthetic_mesh(8).mem_bytes, 16 * 1024 * 1024);
        assert_eq!(Machine::intel_paragon(8).mem_bytes, 32 * 1024 * 1024);
        assert_eq!(Machine::ibm_sp1(8).mem_bytes, 64 * 1024 * 1024);
        assert_eq!(Machine::new(4, TransferParams::cm5()).mem_bytes, DEFAULT_MEM_BYTES);
        assert_eq!(Machine::cm5(4).with_mem_bytes(1024).mem_bytes, 1024);
    }

    #[test]
    #[should_panic(expected = "memory capacity")]
    fn zero_memory_rejected() {
        let _ = Machine::cm5(4).with_mem_bytes(0);
    }

    #[test]
    fn era_machines_are_valid_and_distinct() {
        let paragon = Machine::intel_paragon(64);
        let sp1 = Machine::ibm_sp1(64);
        assert!(paragon.xfer.validate().is_ok());
        assert!(sp1.xfer.validate().is_ok());
        // Paragon: cheaper startup than CM-5; SP-1: cheaper per-byte.
        assert!(paragon.xfer.t_ss < TransferParams::cm5().t_ss);
        assert!(sp1.xfer.t_pr < TransferParams::cm5().t_pr);
        assert!(paragon.xfer.t_n > 0.0 && sp1.xfer.t_n > 0.0);
    }
}
