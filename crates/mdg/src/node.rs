//! Node and edge payload types for the MDG.
//!
//! A node's processing cost follows Amdahl's law (paper Eq. 1):
//! `t^C(q) = (alpha + (1 - alpha)/q) * tau`, where `tau` is the
//! single-processor execution time of the loop and `alpha` the serial
//! fraction. The parameters are carried on the node; the evaluation (and
//! the proof obligations about posynomiality) live in `paradigm-cost`.
//!
//! An edge carries one or more [`ArrayTransfer`]s: arrays that must move
//! from the processor group of the predecessor to that of the successor.
//! Each transfer is classified as 1D (ROW2ROW / COL2COL — distribution
//! dimension preserved) or 2D (ROW2COL / COL2ROW — distribution dimension
//! flipped), matching the paper's Figure 4.

/// Role a node plays in the MDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The distinguished FORK node: precedes all others, zero cost.
    Start,
    /// The distinguished JOIN node: succeeds all others, zero cost.
    Stop,
    /// An ordinary loop nest with a data-parallel processing cost.
    Compute,
}

/// The loop classes that appear in the paper's test programs
/// (Section 6: "There are three basic types of loops for both MDGs, viz.,
/// Matrix Initialization, Matrix Multiplication and Matrix Addition").
///
/// The class is metadata: the scheduler only consumes [`AmdahlParams`],
/// but the simulator uses the class to pick the ground-truth kernel
/// timing function and, for value-level checks, the actual kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// `A[i][j] = expr` style initialization loop.
    MatrixInit,
    /// Elementwise matrix addition (or subtraction — identical cost).
    MatrixAdd,
    /// Dense matrix-matrix multiplication.
    MatrixMultiply,
    /// A node without a real kernel (tag `synthetic`): what a graph-text
    /// node without `class=` and a builder's plain `compute` get.
    Synthetic,
    /// Anything else; carries a free-form label.
    Custom(String),
}

impl LoopClass {
    /// Short printable tag: the text format's `class=` value, the
    /// structural hash's and the statistics' class key, and the label of
    /// the DOT export and Gantt rendering.
    pub fn tag(&self) -> &str {
        match self {
            LoopClass::MatrixInit => "init",
            LoopClass::MatrixAdd => "add",
            LoopClass::MatrixMultiply => "mul",
            LoopClass::Synthetic => "synthetic",
            LoopClass::Custom(s) => s.as_str(),
        }
    }

    /// The class `tag` names: the inverse of [`LoopClass::tag`], a
    /// [`LoopClass::Custom`] for any tag no other class has.
    pub fn from_tag(tag: &str) -> LoopClass {
        match tag {
            "init" => LoopClass::MatrixInit,
            "add" => LoopClass::MatrixAdd,
            "mul" => LoopClass::MatrixMultiply,
            "synthetic" => LoopClass::Synthetic,
            other => LoopClass::Custom(other.to_string()),
        }
    }
}

/// Amdahl's-law processing cost parameters for one loop nest.
///
/// `t^C(q) = (alpha + (1 - alpha) / q) * tau` — paper Eq. (1).
///
/// Any values can be held here; [`crate::MdgBuilder::finish`] refuses a
/// compute node whose `alpha` is outside `[0, 1]` or whose `tau` is not
/// finite and non-negative, so every node of an [`crate::Mdg`] is in range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmdahlParams {
    /// Serial fraction `alpha` in `[0, 1]`.
    pub alpha: f64,
    /// Single-processor execution time `tau`, in seconds.
    pub tau: f64,
}

impl AmdahlParams {
    /// Create a parameter set (unchecked: see the type's docs).
    pub fn new(alpha: f64, tau: f64) -> Self {
        AmdahlParams { alpha, tau }
    }

    /// The zero-cost parameter set used by START/STOP.
    pub const ZERO: AmdahlParams = AmdahlParams { alpha: 0.0, tau: 0.0 };

    /// Evaluate `t^C(q)` at a (possibly fractional) processor count.
    ///
    /// Fractional `q` arises inside the convex program, where processor
    /// counts are relaxed to positive reals.
    pub fn cost(&self, q: f64) -> f64 {
        debug_assert!(q >= 1.0, "processor count must be >= 1, got {q}");
        (self.alpha + (1.0 - self.alpha) / q) * self.tau
    }

    /// Processor-time area `t^C(q) * q` at `q` processors.
    pub fn area(&self, q: f64) -> f64 {
        self.cost(q) * q
    }
}

/// Kernel metadata attached to a compute node: what loop it is and on what
/// problem size it operates. Used by the simulator for ground-truth timing
/// and by the value-level correctness checks.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopMeta {
    /// Loop class (init / add / multiply / custom).
    pub class: LoopClass,
    /// Number of matrix rows the loop touches.
    pub rows: usize,
    /// Number of matrix columns the loop touches.
    pub cols: usize,
}

impl LoopMeta {
    /// Metadata for a square-matrix loop of the given class.
    pub fn square(class: LoopClass, n: usize) -> Self {
        LoopMeta { class, rows: n, cols: n }
    }

    /// Placeholder metadata for synthetic nodes without a real kernel.
    pub fn synthetic() -> Self {
        LoopMeta { class: LoopClass::Synthetic, rows: 0, cols: 0 }
    }
}

/// A node of the MDG.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name, e.g. `"M1 = Ar*Br"`.
    pub name: String,
    /// Start / Stop / Compute.
    pub kind: NodeKind,
    /// Amdahl processing-cost parameters (zero for START/STOP).
    pub cost: AmdahlParams,
    /// Kernel metadata for the simulator.
    pub meta: LoopMeta,
}

impl Node {
    /// True for the two distinguished structural nodes.
    pub fn is_structural(&self) -> bool {
        matches!(self.kind, NodeKind::Start | NodeKind::Stop)
    }
}

/// Redistribution shape of one array transfer (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// ROW2ROW or COL2COL: distribution dimension preserved. Each of the
    /// `max(p_i, p_j)` logical messages moves `L / max(p_i, p_j)` bytes.
    OneD,
    /// ROW2COL or COL2ROW: distribution dimension flipped. All `p_i * p_j`
    /// processor pairs exchange `L / (p_i * p_j)` bytes.
    TwoD,
}

/// One array that must be moved along an edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayTransfer {
    /// Total array length in bytes (`L` in the paper's Eq. 2/3).
    pub bytes: u64,
    /// 1D or 2D redistribution.
    pub kind: TransferKind,
}

impl ArrayTransfer {
    /// Construct a transfer of `bytes` bytes with the given shape.
    pub fn new(bytes: u64, kind: TransferKind) -> Self {
        ArrayTransfer { bytes, kind }
    }

    /// Convenience: a 1D transfer of an `rows x cols` matrix of `f64`.
    pub fn matrix_1d(rows: usize, cols: usize) -> Self {
        ArrayTransfer::new((rows * cols * std::mem::size_of::<f64>()) as u64, TransferKind::OneD)
    }

    /// Convenience: a 2D transfer of an `rows x cols` matrix of `f64`.
    pub fn matrix_2d(rows: usize, cols: usize) -> Self {
        ArrayTransfer::new((rows * cols * std::mem::size_of::<f64>()) as u64, TransferKind::TwoD)
    }
}

/// An edge of the MDG: a precedence constraint plus the arrays that move
/// across it. An edge with an empty transfer list is a pure precedence
/// constraint (zero data-transfer cost), as used for START/STOP wiring.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Arrays redistributed along this edge.
    pub transfers: Vec<ArrayTransfer>,
}

impl Edge {
    /// Total bytes moved across this edge (all arrays).
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_cost_at_one_processor_is_tau() {
        let p = AmdahlParams::new(0.121, 0.29847);
        assert!((p.cost(1.0) - 0.29847).abs() < 1e-12);
    }

    #[test]
    fn amdahl_cost_decreases_with_processors() {
        let p = AmdahlParams::new(0.067, 3.73e-3);
        let mut prev = f64::INFINITY;
        for q in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let c = p.cost(q);
            assert!(c < prev, "cost must be strictly decreasing for alpha<1");
            prev = c;
        }
    }

    #[test]
    fn amdahl_cost_lower_bound_is_serial_fraction() {
        let p = AmdahlParams::new(0.121, 1.0);
        // As q -> inf the cost approaches alpha * tau.
        assert!(p.cost(1e9) - 0.121 < 1e-6);
        assert!(p.cost(1e9) >= 0.121);
    }

    #[test]
    fn amdahl_area_is_nondecreasing() {
        // t*q = (alpha*q + 1 - alpha) * tau grows with q when alpha > 0.
        let p = AmdahlParams::new(0.1, 2.0);
        assert!(p.area(4.0) > p.area(2.0));
        assert!(p.area(2.0) > p.area(1.0));
        // For alpha = 0 the area is constant (perfect speedup).
        let perfect = AmdahlParams::new(0.0, 2.0);
        assert!((perfect.area(64.0) - perfect.area(1.0)).abs() < 1e-12);
    }

    #[test]
    fn matrix_transfer_sizes() {
        let t = ArrayTransfer::matrix_1d(64, 64);
        assert_eq!(t.bytes, 64 * 64 * 8);
        assert_eq!(t.kind, TransferKind::OneD);
        let t2 = ArrayTransfer::matrix_2d(128, 64);
        assert_eq!(t2.bytes, 128 * 64 * 8);
        assert_eq!(t2.kind, TransferKind::TwoD);
    }

    #[test]
    fn edge_total_bytes_sums_all_arrays() {
        let e = Edge {
            src: 0,
            dst: 1,
            transfers: vec![
                ArrayTransfer::new(100, TransferKind::OneD),
                ArrayTransfer::new(250, TransferKind::TwoD),
            ],
        };
        assert_eq!(e.total_bytes(), 350);
    }

    #[test]
    fn loop_class_tags() {
        assert_eq!(LoopClass::MatrixInit.tag(), "init");
        assert_eq!(LoopClass::MatrixAdd.tag(), "add");
        assert_eq!(LoopClass::MatrixMultiply.tag(), "mul");
        assert_eq!(LoopClass::Synthetic.tag(), "synthetic");
        assert_eq!(LoopClass::Custom("fft".into()).tag(), "fft");
        for class in [
            LoopClass::MatrixInit,
            LoopClass::MatrixAdd,
            LoopClass::MatrixMultiply,
            LoopClass::Synthetic,
            LoopClass::Custom("fft".into()),
        ] {
            assert_eq!(LoopClass::from_tag(class.tag()), class);
        }
    }
}
