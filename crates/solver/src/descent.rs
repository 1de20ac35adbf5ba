//! The one projected descent stage: Armijo backtracking from one point
//! at a fixed objective, along the projected gradient or — when the
//! stage is given a memory — a limited-memory quasi-Newton direction,
//! ending on a stationarity certificate when it is given a tolerance.
//!
//! Every descent in the tree is a caller of [`descend`]: the dense
//! solve's smooth stages (memory 8, stationarity 1e-6) and its exact
//! polish (a subgradient has no curvature to learn: memory 0) in
//! [`crate::solve`]; the ADMM block solve, the coordinator polish
//! (memory 0: the round dynamics are tuned to inexact x-updates) and the
//! coordinator's finishing stage (memory 8) in `paradigm-admm`. A caller
//! supplies a [`DescentModel`] (which owns the tape executor — the stage
//! never looks at it), a [`Stage`] (free set, box, caps, memory,
//! tolerance) and a stop rule; the iterate, step and flags live in
//! [`DescentState`], which the caller loads before and reads after.
//!
//! Contract:
//!
//! * the stage opens with one probe + replay at the loaded point;
//! * an iteration at `(x, f, g)` takes the *free set* F — the stage's
//!   free variables minus those the gradient holds at a bound
//!   (`x_j ≤ 0 ∧ g_j > 0`, `x_j ≥ ub ∧ g_j < 0`) — and ends the stage
//!   when `max_{j∈F} |g_j| ≤ gtol·|f|` (`g/f` is dimensionless: the
//!   relative change of the objective per e-fold of one variable;
//!   `gtol = 0` never fires);
//! * the direction is `d = −H·g`, the two-loop recursion over the stored
//!   `(s, y)` pairs with every dot product over F, tried first at `t = 1`;
//!   its initial matrix is diagonal, `h_j = √(γ·Σ_k s_kj·y_kj / Σ_k
//!   y_kj²)` summed over the usable pairs (`s·y > 0` on F) and clamped to
//!   within 10× of the newest usable pair's `γ = s·y / y·y` (`h_j = γ`
//!   where either sum is not positive); with no usable pair, or `d·g ≥
//!   0`, it is `−g` tried first at the carried `step`;
//! * the line search tries `clamp(x + t·d, 0, ub)` on F (and `clamp(x,
//!   0, ub)` on a held variable, which moves it only if the caller
//!   loaded it outside the box), halving `t` until `f(trial) ≤ f(x) −
//!   1e-4·g·(x − trial)`, the probe cap, or the `1e-14` step floor;
//! * **no point is swept twice**: every probe is a recording sweep and
//!   the gradient at an accepted trial is `replay` of the tape that probe
//!   left behind;
//! * an accepted step enters `(trial − x, g_new − g)` into a ring of
//!   `memory` pairs iff `s·y > 1e-10·‖s‖‖y‖`, grows a gradient search's
//!   `step` by 1.8× (capped at 4), and ends the stage when
//!   `stop(improve, f, moved)` says so;
//! * a quasi-Newton search that accepts nothing drops the pairs and the
//!   next iteration retries along the gradient — `f` and `g` at `x` are
//!   still held, nothing is swept again; a gradient search that accepts
//!   nothing ends the stage with the iterate untouched and
//!   [`DescentState::dead_end`] set, `step` keeping the last halved value
//!   for the caller to read back.
//!
//! With `memory = 0` the stage is plain projected gradient descent. The
//! stage counts its own probes — stage start included — and the points
//! it asks a gradient at on the model's [`SweepCounts`], next to the
//! sweeps the model's executor counts there, so `forward_sweeps ==
//! probes` over a solve says no model swept a probe twice and
//! `backward_sweeps == gradients` that none replayed one twice. The
//! pairs and the initial matrix's two sums live in the state's pooled
//! buffers (`2·memory·n` doubles sized at stage start, `2·n` at the first
//! quasi-Newton direction): after warm-up the stage performs no heap
//! allocation.

use crate::workspace::SweepCounts;

/// What a stage descends: an objective split into the two halves of its
/// adjoint.
pub trait DescentModel {
    /// Recording sweep of the point `x`; returns the objective value.
    fn probe(&mut self, x: &[f64]) -> f64;
    /// Gradient at the point the last [`Self::probe`] recorded — `x`
    /// again — with pinned variables zero. `grad` is resized to `n`.
    fn replay(&mut self, x: &[f64], grad: &mut Vec<f64>);
    /// Counters of the scratch `probe` sweeps on.
    fn counts(&mut self) -> &mut SweepCounts;
}

/// The fixed parameters of one stage.
#[derive(Debug, Clone, Copy)]
pub struct Stage<'a> {
    /// Variables the trial step moves; `None` moves all of them.
    pub free: Option<&'a [usize]>,
    /// Upper edge of the box `[0, ub]^n`.
    pub ub: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Probe cap of one line search.
    pub max_probes: usize,
    /// `(s, y)` pairs the quasi-Newton direction is built from; 0 descends
    /// along the projected gradient.
    pub memory: usize,
    /// The stage ends once the largest free gradient entry is at most
    /// `gtol·|f|`; 0 disables the test.
    pub gtol: f64,
}

/// State of [`descend`]: iterate, gradient, trial, objective value, step
/// and flag, plus the quasi-Newton ring. One group of buffers with
/// capacity retained across stages and solves.
#[derive(Debug, Default)]
pub struct DescentState {
    x: Vec<f64>,
    grad: Vec<f64>,
    /// The gradient before the accepted step, then `y = g_new − g`.
    grad_prev: Vec<f64>,
    trial: Vec<f64>,
    /// Search direction; meaningful on the free set F only.
    dir: Vec<f64>,
    /// The stage's free variables, then the free set F of one iteration.
    free: Vec<usize>,
    active: Vec<usize>,
    /// Ring of `memory` slots, each `s` then `y` (`2·n` doubles); only
    /// ever grows, so stages with and without a memory can alternate on
    /// one pooled state.
    pairs: Vec<f64>,
    /// Two-loop coefficients `(α_i, 1 / s_i·y_i)`, newest pair first.
    coeffs: Vec<(f64, f64)>,
    /// Per variable, `Σ_k s_kj·y_kj` and `Σ_k y_kj²` over the usable
    /// pairs: the initial matrix's diagonal. Meaningful on F only.
    diag_sy: Vec<f64>,
    diag_yy: Vec<f64>,
    f: f64,
    step: f64,
    dead_end: bool,
}

impl DescentState {
    /// Copy `x` in as the iterate.
    pub fn load(&mut self, x: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(x);
    }

    /// The iterate: where the last stage left it.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Open a stage: step 0.25, no dead end. The iterate is kept, so a
    /// caller re-enters for the next annealing stage without reloading.
    pub fn reset(&mut self) {
        self.step = 0.25;
        self.dead_end = false;
    }

    /// The gradient search's step: where the last stage left it.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Seed the step (after [`Self::reset`], before [`descend`]).
    pub fn set_step(&mut self, step: f64) {
        self.step = step;
    }

    /// Whether the last stage ended on a gradient search that accepted
    /// nothing.
    pub fn dead_end(&self) -> bool {
        self.dead_end
    }

    /// The model's value at the iterate, as of the last stage.
    pub fn value(&self) -> f64 {
        self.f
    }
}

/// `Σ_{j∈set} a_j·b_j`.
fn dot(set: &[usize], a: &[f64], b: &[f64]) -> f64 {
    set.iter().map(|&j| a[j] * b[j]).sum()
}

/// How far one variable's initial scaling may stray from the newest
/// pair's `γ`: `h_j ∈ [γ / H0_CLAMP, γ·H0_CLAMP]`. The initial matrix's
/// other constant is the square root in [`quasi_newton_direction`], which
/// makes `h_j` the geometric mean of `γ` and the variable's own curvature
/// ratio. DESIGN.md §11 has the sweep that chose both.
const H0_CLAMP: f64 = 10.0;

/// `d = −H·g` on `active` by the two-loop recursion over the `stored`
/// newest slots of the ring (`head` is the next slot to be written); a
/// pair whose curvature over `active` is not positive is skipped. The
/// initial matrix is diagonal: `h_j = √(γ·Σ_k s_kj·y_kj / Σ_k y_kj²)` over
/// the usable pairs, clamped to [`H0_CLAMP`]× of `γ` either way, and `γ`
/// where either sum is not positive. Returns whether `d` is a descent
/// direction; without one usable pair it is not.
fn quasi_newton_direction(
    st: &mut DescentState,
    (memory, stored, head): (usize, usize, usize),
) -> bool {
    let DescentState { grad, dir, active, pairs, coeffs, diag_sy, diag_yy, .. } = st;
    let (n, pairs) = (grad.len(), &pairs[..]);
    let slot = |i: usize| {
        let at = (head + memory - 1 - i) % memory * 2 * n;
        (&pairs[at..at + n], &pairs[at + n..at + 2 * n])
    };
    // Only the entries of `active` are ever read, and each is written
    // here first.
    dir.resize(n, 0.0);
    diag_sy.resize(n, 0.0);
    diag_yy.resize(n, 0.0);
    for &j in active.iter() {
        dir[j] = grad[j];
        diag_sy[j] = 0.0;
        diag_yy[j] = 0.0;
    }
    coeffs.clear();
    let mut gamma = None;
    for i in 0..stored {
        let (s, y) = slot(i);
        let sy = dot(active, s, y);
        if sy <= 0.0 || !sy.is_finite() {
            coeffs.push((0.0, 0.0));
            continue;
        }
        let alpha = dot(active, s, dir) / sy;
        for &j in active.iter() {
            dir[j] -= alpha * y[j];
            diag_sy[j] += s[j] * y[j];
            diag_yy[j] += y[j] * y[j];
        }
        coeffs.push((alpha, 1.0 / sy));
        gamma.get_or_insert_with(|| sy / dot(active, y, y));
    }
    let Some(gamma) = gamma else { return false };
    let (lo, hi) = (gamma / H0_CLAMP, gamma * H0_CLAMP);
    for &j in active.iter() {
        let (sy, yy) = (diag_sy[j], diag_yy[j]);
        let h = if sy > 0.0 && yy > 0.0 { (gamma * sy / yy).sqrt().clamp(lo, hi) } else { gamma };
        dir[j] *= h;
    }
    for i in (0..stored).rev() {
        let (alpha, inv_sy) = coeffs[i];
        if inv_sy == 0.0 {
            continue;
        }
        let (s, y) = slot(i);
        let beta = dot(active, y, dir) * inv_sy;
        for &j in active.iter() {
            dir[j] += (alpha - beta) * s[j];
        }
    }
    for &j in active.iter() {
        dir[j] = -dir[j];
    }
    let slope = dot(active, dir, grad);
    slope < 0.0 && slope.is_finite()
}

/// Run one stage from the point loaded in `st` (see the module docs for
/// the contract). `stop(improve, f, moved)` is asked after every accepted
/// step, with the decrease, the new value and the ∞-norm of the move.
/// Returns the iterations made.
pub fn descend<M: DescentModel>(
    model: &mut M,
    st: &mut DescentState,
    stage: &Stage<'_>,
    mut stop: impl FnMut(f64, f64, f64) -> bool,
) -> usize {
    let (n, ub, memory) = (st.x.len(), stage.ub, stage.memory);
    st.free.clear();
    match stage.free {
        Some(free) => st.free.extend_from_slice(free),
        None => st.free.extend(0..n),
    }
    st.trial.resize(n, 0.0);
    st.grad_prev.resize(n, 0.0);
    if st.pairs.len() < 2 * memory * n {
        st.pairs.resize(2 * memory * n, 0.0);
    }
    // Pairs held and the ring slot the next one goes to.
    let (mut stored, mut head) = (0, 0);
    model.counts().probes += 1;
    st.f = model.probe(&st.x);
    model.counts().gradients += 1;
    model.replay(&st.x, &mut st.grad);
    let mut iters = 0;
    while iters < stage.max_iters {
        // A held variable stays where it is — on the box: a caller may
        // load a point outside it (the ADMM consensus average is not
        // clamped), and the first trial projects it.
        st.trial.copy_from_slice(&st.x);
        st.active.clear();
        let mut stationarity = 0.0_f64;
        for &j in &st.free {
            let (x, g) = (st.x[j], st.grad[j]);
            if (x <= 0.0 && g > 0.0) || (x >= ub && g < 0.0) {
                st.trial[j] = x.clamp(0.0, ub);
            } else {
                st.active.push(j);
                stationarity = stationarity.max(g.abs());
            }
        }
        if stage.gtol > 0.0 && stationarity <= stage.gtol * st.f.abs() {
            break;
        }
        iters += 1;
        let quasi = stored > 0 && quasi_newton_direction(st, (memory, stored, head));
        // One backtracking loop for both directions: a quasi-Newton
        // search starts from the unit step and leaves the carried step of
        // the gradient searches alone.
        let mut t = if quasi { 1.0 } else { st.step };
        let mut accepted = None;
        for _ in 0..stage.max_probes {
            if t < 1e-14 {
                break;
            }
            for &j in &st.active {
                let d = if quasi { st.dir[j] } else { -st.grad[j] };
                st.trial[j] = (st.x[j] + t * d).clamp(0.0, ub);
            }
            model.counts().probes += 1;
            let f_trial = model.probe(&st.trial);
            // Armijo on the projected step: require a decrease
            // proportional to g . (x - trial).
            let mut decrease = 0.0;
            for j in 0..n {
                decrease += st.grad[j] * (st.x[j] - st.trial[j]);
            }
            if f_trial <= st.f - 1e-4 * decrease && f_trial.is_finite() {
                accepted = Some(f_trial);
                break;
            }
            t *= 0.5;
        }
        let Some(f_trial) = accepted else {
            if quasi {
                stored = 0;
                continue;
            }
            st.step = t;
            st.dead_end = true;
            break;
        };
        // The accepted probe's tape is at the new iterate. `trial`
        // becomes the step s, `grad_prev` the gradient change y.
        let mut moved = 0.0_f64;
        for j in 0..n {
            let s = st.trial[j] - st.x[j];
            moved = moved.max(s.abs());
            st.x[j] = st.trial[j];
            st.trial[j] = s;
        }
        std::mem::swap(&mut st.grad, &mut st.grad_prev);
        model.counts().gradients += 1;
        model.replay(&st.x, &mut st.grad);
        if memory > 0 {
            for &j in &st.free {
                st.grad_prev[j] = st.grad[j] - st.grad_prev[j];
            }
            let (s, y) = (&st.trial, &st.grad_prev);
            let sy = dot(&st.free, s, y);
            if sy > 1e-10 * (dot(&st.free, s, s) * dot(&st.free, y, y)).sqrt() {
                let at = head * 2 * n;
                for &j in &st.free {
                    st.pairs[at + j] = s[j];
                    st.pairs[at + n + j] = y[j];
                }
                head = (head + 1) % memory;
                stored = (stored + 1).min(memory);
            }
        }
        let improve = st.f - f_trial;
        st.f = f_trial;
        if !quasi {
            st.step = (t * 1.8).min(4.0);
        }
        if stop(improve, st.f, moved) {
            break;
        }
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f(x) = 1 + ½ Σ_j w_j (x_j − c_j)² + ½ q (x_0 + x_1 − r)²`: the
    /// floor keeps `|f|` away from 0, so the relative stationarity test
    /// means something; the coupling (`q = 0` unless a test sets it) lets
    /// one variable's gradient turn as another moves. From the
    /// `uphill_from`-th replay on the gradient is negated, so no probe
    /// decreases any more.
    struct Quadratic {
        w: Vec<f64>,
        c: Vec<f64>,
        q: f64,
        r: f64,
        uphill_from: u64,
        counts: SweepCounts,
    }

    impl Quadratic {
        fn new(n: usize) -> Self {
            Quadratic {
                w: (0..n).map(|j| 0.5 + 0.3 * j as f64).collect(),
                c: (0..n).map(|j| 0.2 + 0.15 * j as f64).collect(),
                q: 0.0,
                r: 0.0,
                uphill_from: u64::MAX,
                counts: SweepCounts::default(),
            }
        }
    }

    impl DescentModel for Quadratic {
        fn probe(&mut self, x: &[f64]) -> f64 {
            self.counts.forward_sweeps += 1;
            let bowl: f64 =
                (0..self.w.len()).map(|j| 0.5 * self.w[j] * (x[j] - self.c[j]).powi(2)).sum();
            let coupling = if self.q == 0.0 { 0.0 } else { x[0] + x[1] - self.r };
            1.0 + bowl + 0.5 * self.q * coupling * coupling
        }
        fn replay(&mut self, x: &[f64], grad: &mut Vec<f64>) {
            self.counts.backward_sweeps += 1;
            let sign = if self.counts.backward_sweeps >= self.uphill_from { -1.0 } else { 1.0 };
            grad.clear();
            grad.extend((0..x.len()).map(|j| sign * self.w[j] * (x[j] - self.c[j])));
            if self.q != 0.0 {
                let coupling = sign * self.q * (x[0] + x[1] - self.r);
                grad[0] += coupling;
                grad[1] += coupling;
            }
        }
        fn counts(&mut self) -> &mut SweepCounts {
            &mut self.counts
        }
    }

    const N: usize = 5;
    const STARTS: [[f64; N]; 3] = [[1.0, 0.0, 0.9, 0.1, 0.5], [0.0; N], [0.3, 0.8, 0.2, 1.0, 0.6]];

    fn stage(free: Option<&[usize]>, memory: usize, gtol: f64) -> Stage<'_> {
        Stage { free, ub: 1.0, max_iters: 200, max_probes: 40, memory, gtol }
    }

    fn loaded(x: &[f64]) -> DescentState {
        let mut st = DescentState::default();
        st.load(x);
        st.reset();
        st
    }

    fn run(model: &mut Quadratic, st: &mut DescentState, stage: &Stage<'_>) -> usize {
        descend(model, st, stage, |improve, f, _| improve <= 1e-12 * f.abs())
    }

    /// [`run`] with no stop rule: only the stationarity test, a dead end
    /// or the cap ends the stage.
    fn run_to_the_end(model: &mut Quadratic, st: &mut DescentState, stage: &Stage<'_>) -> usize {
        descend(model, st, stage, |_, _, _| false)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn variables_outside_the_free_list_never_move() {
        for memory in [0, 8] {
            for start in [STARTS[0], STARTS[2]] {
                let mut st = loaded(&start);
                // The model's gradient is non-zero on the pinned variables
                // too: the stage, not the model, keeps them still.
                let iters =
                    run(&mut Quadratic::new(N), &mut st, &stage(Some(&[1, 3]), memory, 0.0));
                assert!(iters > 0);
                for j in [0, 2, 4] {
                    assert_eq!(st.x()[j].to_bits(), start[j].to_bits(), "var {j} moved");
                }
                assert!(st.x()[1] != start[1] && st.x()[3] != start[3], "free variables descend");
            }
        }
    }

    /// Iterate, step, value, iterations and probes of the stage before it
    /// had a memory (captured at commit f7d461d on this toy, K = 1).
    #[test]
    fn without_memory_the_stage_is_the_plain_projected_gradient_loop_to_the_bit() {
        type Pin = (usize, Option<&'static [usize]>, [u64; N], u64, u64, usize, u64);
        let pins: [Pin; 4] = [
            (
                0,
                None,
                [
                    0x3fc9_999b_9180_7c07,
                    0x3fd6_6666_6666_6666,
                    0x3fe0_0000_0000_0000,
                    0x3fe4_cccc_cccc_ce38,
                    0x3fe9_999a_0cdf_0f0b,
                ],
                0x3ff6_b06a_45b4_2bc0,
                0x3ff0_0000_0000_00ee,
                23,
                41,
            ),
            (
                2,
                None,
                [
                    0x3fc9_999c_6a0e_e2b3,
                    0x3fd6_6666_6666_622b,
                    0x3fdf_ffff_ffff_ffd6,
                    0x3fe4_cccc_cccb_12f2,
                    0x3fe9_999b_7372_ee6d,
                ],
                0x4001_4a78_8d75_21c4,
                0x3ff0_0000_0000_0c25,
                19,
                33,
            ),
            (
                0,
                Some(&[1, 3]),
                [
                    0x3ff0_0000_0000_0000,
                    0x3fd6_6666_6666_63a9,
                    0x3fec_cccc_cccc_cccd,
                    0x3fe4_cccc_d14c_139a,
                    0x3fe0_0000_0000_0000,
                ],
                0x3ff5_58c7_65f2_9524,
                0x3ff5_3126_e978_d4fe,
                17,
                30,
            ),
            (
                2,
                Some(&[1, 3]),
                [
                    0x3fd3_3333_3333_3333,
                    0x3fd6_6666_6666_6f0b,
                    0x3fc9_9999_9999_999a,
                    0x3fe4_cccd_18ba_7430,
                    0x3fe3_3333_3333_3333,
                ],
                0x3ff7_b7f9_ff7f_5061,
                0x3ff1_6041_8937_4c06,
                16,
                28,
            ),
        ];
        for (start, free, x, step, value, iters, probes) in pins {
            let mut model = Quadratic::new(N);
            let mut st = loaded(&STARTS[start]);
            let made = run(&mut model, &mut st, &stage(free, 0, 0.0));
            assert_eq!(bits(st.x()), x, "start {start} free {free:?}: iterate");
            assert_eq!((st.step().to_bits(), st.value().to_bits()), (step, value));
            assert_eq!((made, model.counts.probes), (iters, probes));
        }
    }

    #[test]
    fn quasi_newton_reaches_stationarity_where_the_gradient_hits_its_cap() {
        // Condition number 1e4, optimum in the interior.
        let ill = || Quadratic {
            w: (0..N).map(|j| 10f64.powi(j as i32)).collect(),
            c: vec![0.3, 0.7, 0.45, 0.6, 0.5],
            ..Quadratic::new(N)
        };
        for (label, model, start, iter_cap) in [
            ("kappa 1e4", ill as fn() -> Quadratic, STARTS[0], 60),
            ("kappa 3.4", || Quadratic::new(N), STARTS[0], 20),
        ] {
            let mut m = model();
            let mut st = loaded(&start);
            let iters = run_to_the_end(&mut m, &mut st, &stage(None, 8, 1e-8));
            assert!(iters < iter_cap, "{label}: {iters} iterations / {} probes", m.counts.probes);
            let mut g = Vec::new();
            m.replay(st.x(), &mut g);
            let worst = g.iter().fold(0.0_f64, |a, g| a.max(g.abs()));
            assert!(worst <= 1e-8 * st.value(), "{label}: |g| = {worst:e} at f = {}", st.value());
            assert_eq!(
                m.counts.forward_sweeps, m.counts.probes,
                "{label}: probes counted = sweeps"
            );
            assert!(!st.dead_end());
        }
        // The plain gradient stage on the same bowl stops on its cap.
        let mut m = ill();
        let mut st = loaded(&STARTS[0]);
        assert_eq!(run_to_the_end(&mut m, &mut st, &stage(None, 0, 1e-8)), 200);
    }

    /// A separable bowl whose curvatures span four decades: every pair
    /// has `y_j = w_j·s_j`, so `Σ_k s_kj·y_kj / Σ_k y_kj²` is variable j's
    /// exact inverse curvature and a diagonal initial matrix can match
    /// the bowl where a scalar one cannot. The scalar `γ·I` of the newest
    /// pair took 134 iterations and 156 probes to the same tolerance.
    #[test]
    fn a_per_variable_initial_matrix_crosses_four_decades_of_curvature_in_fewer_iterations() {
        let mut m = Quadratic {
            w: (0..8).map(|j| 10f64.powf(4.0 - 4.0 * j as f64 / 7.0)).collect(),
            c: (0..8).map(|j| 0.2 + 0.08 * j as f64).collect(),
            ..Quadratic::new(8)
        };
        let mut st = loaded(&[0.9, 0.1, 0.8, 0.0, 1.0, 0.3, 0.7, 0.05]);
        let iters = run_to_the_end(&mut m, &mut st, &stage(None, 8, 1e-8));
        assert_eq!((iters, m.counts.probes), (55, 57));
        let mut g = Vec::new();
        m.replay(st.x(), &mut g);
        let worst = g.iter().fold(0.0_f64, |a, g| a.max(g.abs()));
        assert!(worst <= 1e-8 * st.value(), "|g| = {worst:e} at f = {}", st.value());
    }

    #[test]
    fn a_variable_held_at_a_bound_is_not_free_until_its_gradient_turns() {
        // The unconstrained optimum of variable 4 is above the box: at the
        // constrained optimum its gradient is not zero, it is held — and
        // the stage sees a stationary point without one iteration.
        let mut model = Quadratic { c: vec![0.2, 0.35, 0.5, 0.65, 1.4], ..Quadratic::new(N) };
        let mut st = loaded(&[0.2, 0.35, 0.5, 0.65, 1.0]);
        assert_eq!(run(&mut model, &mut st, &stage(None, 8, 1e-8)), 0);
        assert_eq!(model.counts.probes, 1, "the stage start");
        // Without the test the same point costs an iteration that moves
        // nothing.
        let mut st = loaded(&[0.2, 0.35, 0.5, 0.65, 1.0]);
        assert_eq!(run(&mut model, &mut st, &stage(None, 8, 0.0)), 1);
        assert_eq!(st.x()[4], 1.0);

        // Coupled: at the start x_0 = 1 pushes x_1 against its lower
        // bound (g_1 = −0.5 + 4·0.2 > 0); once x_0 has come down the
        // gradient turns and x_1 joins the free set. The optimum is
        // interior: (1.7/9, 5.3/9).
        let coupled = || Quadratic {
            w: vec![1.0, 1.0],
            c: vec![0.1, 0.5],
            q: 4.0,
            r: 0.8,
            ..Quadratic::new(2)
        };
        let mut model = coupled();
        let mut st = loaded(&[1.0, 0.0]);
        let one = Stage { max_iters: 1, ..stage(None, 8, 1e-8) };
        run(&mut model, &mut st, &one);
        assert!(st.x()[0] < 1.0 && st.x()[1] == 0.0, "held while its gradient points out");
        let mut st = loaded(&[1.0, 0.0]);
        let iters = run_to_the_end(&mut model, &mut st, &stage(None, 8, 1e-8));
        assert!(iters < 30, "{iters} iterations");
        for (x, want) in st.x().iter().zip([1.7 / 9.0, 5.3 / 9.0]) {
            assert!((x - want).abs() < 1e-7, "{x} for {want}");
        }
    }

    #[test]
    fn a_held_variable_loaded_outside_the_box_is_projected_onto_it() {
        // The ADMM coordinator loads consensus averages, which nothing
        // clamps. The plain gradient step used to project such a
        // variable as a side effect of its clamp; holding it must too, or
        // the polish leaves the box and the rounds change.
        for memory in [0, 8] {
            let mut model = Quadratic { c: vec![-0.5, 0.35, 0.5, 0.65, 1.5], ..Quadratic::new(N) };
            let mut st = loaded(&[-0.1, 0.9, 0.5, 0.1, 1.2]);
            let one = Stage { max_iters: 1, ..stage(None, memory, 0.0) };
            assert_eq!(run(&mut model, &mut st, &one), 1);
            assert_eq!((st.x()[0], st.x()[4]), (0.0, 1.0), "memory {memory}");
        }
    }

    #[test]
    fn probes_that_never_decrease_end_in_a_dead_end() {
        let mut st = loaded(&STARTS[2]);
        let mut model = Quadratic { uphill_from: 0, ..Quadratic::new(N) };
        let stage = Stage { max_iters: 50, max_probes: 7, ..stage(None, 8, 1e-8) };
        let iters = descend(&mut model, &mut st, &stage, |_, _, _| false);
        assert_eq!(iters, 1, "the failed line search is the stage's only iteration");
        assert!(st.dead_end());
        assert_eq!(st.x(), STARTS[2], "iterate untouched");
        assert_eq!(model.counts.probes, 1 + 7, "start + the capped line search");
        assert_eq!(st.step(), 0.25 * 0.5_f64.powi(7), "halved once per rejected probe");
    }

    #[test]
    fn a_rejected_quasi_newton_search_drops_the_pairs_and_retries_along_the_gradient() {
        let stage = Stage { max_iters: 50, max_probes: 7, ..stage(None, 8, 1e-8) };
        // Two accepted steps (a gradient step, then a quasi-Newton one
        // over the first pair) leave the reference iterate.
        let mut st = loaded(&STARTS[2]);
        let two = Stage { max_iters: 2, ..stage };
        descend(&mut Quadratic::new(N), &mut st, &two, |_, _, _| false);
        let (reference, step) = (bits(st.x()), st.step());

        // The gradient at that iterate — the stage's third replay —
        // comes back negated: the quasi-Newton search finds no decrease,
        // the gradient search that follows does not either.
        let mut model = Quadratic { uphill_from: 3, ..Quadratic::new(N) };
        let mut st = loaded(&STARTS[2]);
        let iters = descend(&mut model, &mut st, &stage, |_, _, _| false);
        assert_eq!(iters, 4, "two accepted steps, the dropped search, the dead end");
        assert!(st.dead_end());
        assert_eq!(bits(st.x()), reference, "iterate untouched by both failed searches");
        assert_eq!(st.step(), step * 0.5_f64.powi(7), "only the gradient search halves the step");
        assert_eq!(model.counts.forward_sweeps, model.counts.probes, "nothing swept twice");
        assert_eq!(model.counts.backward_sweeps, 3, "a failed search replays nothing");
    }

    #[test]
    fn reset_keeps_the_iterate_and_reopens_the_stage() {
        let mut st = DescentState::default();
        st.load(&STARTS[0]);
        st.reset();
        st.set_step(1e-10);
        run(&mut Quadratic::new(N), &mut st, &stage(None, 0, 0.0));
        let after = st.x().to_vec();
        assert!(after != STARTS[0]);
        st.reset();
        assert_eq!(st.x(), after, "the iterate survives a stage re-entry");
        assert_eq!((st.step(), st.dead_end()), (0.25, false));
    }

    #[test]
    fn a_seeded_step_is_honoured_and_read_back() {
        // One variable with unit curvature: from x = 1 towards 0.2 any
        // step ≤ 1 is accepted on the first probe, so the move reveals it.
        let mut model = Quadratic { w: vec![1.0], c: vec![0.2], ..Quadratic::new(1) };
        let stage = Stage { max_iters: 1, ..stage(None, 0, 0.0) };
        for seed in [0.5, 0.03125] {
            let mut st = loaded(&[1.0]);
            st.set_step(seed);
            descend(&mut model, &mut st, &stage, |_, _, _| false);
            assert_eq!(st.x()[0], 1.0 - seed * 0.8, "trial = x - step·g");
            assert_eq!(st.step(), seed * 1.8, "accepted step grows 1.8×");
            assert!(!st.dead_end());
        }
    }
}
