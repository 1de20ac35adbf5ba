//! The one projected-gradient stage: Armijo backtracking over K
//! independent lane-major points at a fixed objective.
//!
//! Every descent in the tree is a caller of [`descend`] — the dense
//! multistart's smooth stages (K = starts in the chunk, lane tape) and
//! its per-start exact polish (K = 1, scalar tape) in [`crate::solve`],
//! the ADMM block solve and the coordinator polish in `paradigm-admm`
//! (K = 1, scalar tape, penalised block model). A caller supplies a
//! [`DescentModel`] (which owns the tape executor — the stage never looks
//! at it), a [`Stage`] (free set, box, caps), a stop rule and a
//! per-iteration tick; the iterates, steps and flags live in
//! [`DescentLanes`], which the caller loads before and reads after.
//!
//! Contract, per lane (a lane's arithmetic reads only its own slots, so
//! its trajectory does not depend on K or on its batch-mates):
//!
//! * the stage opens with one probe + replay at the loaded points;
//! * an iteration tries `clamp(x − step·g, 0, ub)` on the free variables,
//!   halving `step` until `f(trial) ≤ f(x) − 1e-4·g·(x − trial)`, the
//!   probe cap, or the `1e-14` step floor;
//! * **no point is swept twice**: every probe is a recording sweep and
//!   the gradient at an accepted trial is `replay` of the tape the last
//!   probe round left behind (an accepted lane's trial is not rewritten
//!   while the others go on halving, so the last round holds them all);
//! * an accepted step grows `step` by 1.8× (capped at 4) and ends the
//!   lane when `stop(improve, f, moved)` says so;
//! * a line search that accepts nothing ends the lane with its iterate
//!   untouched and [`DescentLanes::dead_end`] set; `step` keeps the last
//!   halved value for the caller to read back.
//!
//! The stage counts its own probes — K per round, stage start included —
//! on the model's [`SweepCounts`], next to the sweeps the model's
//! executor counts there, so `forward_sweeps == probes` over a solve
//! says no model swept a probe twice. After warm-up the stage performs
//! no heap allocation.

use crate::workspace::SweepCounts;

/// What a stage descends: an objective over `k` lane-major points
/// (`xs[j*k + l]` is variable `j` of lane `l`) split into the two halves
/// of its adjoint.
pub trait DescentModel {
    /// Recording sweep of the `k` points `xs`; lane `l`'s objective value
    /// goes to `f[l]`.
    fn probe(&mut self, xs: &[f64], k: usize, f: &mut [f64]);
    /// Lane-major gradient at the points the last [`Self::probe`]
    /// recorded — `xs` again, for every lane still descending — with
    /// pinned variables zero. `grads` is resized to `n·k`.
    fn replay(&mut self, xs: &[f64], k: usize, grads: &mut Vec<f64>);
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
    /// Iteration cap per lane.
    pub max_iters: usize,
    /// Probe cap of one line search.
    pub max_probes: usize,
}

/// Per-lane state of [`descend`]: iterates, gradients, trials, objective
/// values, steps and flags, lane-major. One group of buffers with
/// capacity retained across stages and solves.
#[derive(Debug, Default)]
pub struct DescentLanes {
    n: usize,
    k: usize,
    xs: Vec<f64>,
    grads: Vec<f64>,
    trials: Vec<f64>,
    f: Vec<f64>,
    f_trial: Vec<f64>,
    steps: Vec<f64>,
    moved: Vec<f64>,
    finished: Vec<bool>,
    accepted: Vec<bool>,
    dead_end: Vec<bool>,
}

impl DescentLanes {
    /// Size the iterates for `n` variables and `k` lanes. Their contents
    /// survive while the shape does; after a change of shape every lane
    /// must be [`Self::load`]ed.
    pub fn shape(&mut self, n: usize, k: usize) {
        self.n = n;
        self.k = k;
        self.xs.resize(n * k, 0.0);
    }

    /// Open a stage on the current shape: step 0.25, nothing finished.
    /// The iterates are kept, so a caller re-enters for the next
    /// annealing stage without reloading.
    pub fn reset(&mut self) {
        fn fit<T: Clone>(v: &mut Vec<T>, len: usize, val: T) {
            v.clear();
            v.resize(len, val);
        }
        let k = self.k;
        // `grads` is the model's to size; every trial is overwritten
        // from the iterates before it is read.
        self.trials.resize(self.n * k, 0.0);
        fit(&mut self.f, k, 0.0);
        fit(&mut self.f_trial, k, 0.0);
        fit(&mut self.steps, k, 0.25);
        fit(&mut self.moved, k, 0.0);
        fit(&mut self.finished, k, false);
        fit(&mut self.accepted, k, false);
        fit(&mut self.dead_end, k, false);
    }

    /// Gather `x` into lane `l`.
    pub fn load(&mut self, l: usize, x: &[f64]) {
        debug_assert_eq!(x.len(), self.n);
        for (j, &v) in x.iter().enumerate() {
            self.xs[j * self.k + l] = v;
        }
    }

    /// Scatter lane `l`'s iterate into `x`.
    pub fn store(&self, l: usize, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        for (j, v) in x.iter_mut().enumerate() {
            *v = self.xs[j * self.k + l];
        }
    }

    /// Lane `l`'s line-search step: where the last stage left it.
    pub fn step(&self, l: usize) -> f64 {
        self.steps[l]
    }

    /// Seed lane `l`'s step (after [`Self::reset`], before [`descend`]).
    pub fn set_step(&mut self, l: usize, step: f64) {
        self.steps[l] = step;
    }

    /// Whether lane `l`'s last stage ended on a line search that accepted
    /// nothing.
    pub fn dead_end(&self, l: usize) -> bool {
        self.dead_end[l]
    }

    /// The model's value at lane `l`'s iterate, as of the last stage.
    pub fn value(&self, l: usize) -> f64 {
        self.f[l]
    }
}

/// Run one stage on the points loaded in `lanes` (see the module docs for
/// the contract). `stop(improve, f, moved)` is asked after every accepted
/// step, with the decrease, the new value and the ∞-norm of the move;
/// `tick(live)` is asked before every iteration with the number of lanes
/// still descending and ends the stage by returning `false`. Returns the
/// iterations summed over lanes.
pub fn descend<M: DescentModel>(
    model: &mut M,
    lanes: &mut DescentLanes,
    stage: &Stage<'_>,
    mut stop: impl FnMut(f64, f64, f64) -> bool,
    mut tick: impl FnMut(usize) -> bool,
) -> usize {
    let DescentLanes {
        n,
        k,
        xs,
        grads,
        trials,
        f,
        f_trial,
        steps,
        moved,
        finished,
        accepted,
        dead_end,
    } = lanes;
    let (n, k, ub) = (*n, *k, stage.ub);
    let mut total = 0;
    model.counts().probes += k as u64;
    model.probe(xs, k, f);
    model.replay(xs, k, grads);
    for _ in 0..stage.max_iters {
        let live = finished.iter().filter(|&&d| !d).count();
        if live == 0 || !tick(live) {
            break;
        }
        total += live;
        // Backtracking: each round recomputes the trial of every lane
        // still searching, then one probe scores all of them.
        accepted.copy_from_slice(finished);
        trials.copy_from_slice(xs);
        for _ in 0..stage.max_probes {
            let mut any = false;
            for l in 0..k {
                if accepted[l] || steps[l] < 1e-14 {
                    continue;
                }
                any = true;
                let mut step_to = |j: usize| {
                    trials[j * k + l] =
                        (xs[j * k + l] - steps[l] * grads[j * k + l]).clamp(0.0, ub);
                };
                match stage.free {
                    Some(free) => free.iter().for_each(|&j| step_to(j)),
                    None => (0..n).for_each(step_to),
                }
            }
            if !any {
                break;
            }
            model.counts().probes += k as u64;
            model.probe(trials, k, f_trial);
            for l in 0..k {
                if accepted[l] || steps[l] < 1e-14 {
                    continue;
                }
                // Armijo on the projected step: require a decrease
                // proportional to g . (x - trial).
                let mut decrease = 0.0;
                for j in 0..n {
                    decrease += grads[j * k + l] * (xs[j * k + l] - trials[j * k + l]);
                }
                if f_trial[l] <= f[l] - 1e-4 * decrease && f_trial[l].is_finite() {
                    accepted[l] = true;
                } else {
                    steps[l] *= 0.5;
                }
            }
        }
        for l in 0..k {
            if finished[l] {
                continue;
            }
            if !accepted[l] {
                finished[l] = true;
                dead_end[l] = true;
                continue;
            }
            let mut mv = 0.0_f64;
            for j in 0..n {
                mv = mv.max((xs[j * k + l] - trials[j * k + l]).abs());
                xs[j * k + l] = trials[j * k + l];
            }
            moved[l] = mv;
        }
        if finished.iter().all(|&d| d) {
            break;
        }
        // Every live lane accepted above, so the last round's tape is at
        // each one's new iterate; finished lanes never read their
        // gradient again.
        model.replay(xs, k, grads);
        for l in 0..k {
            if finished[l] {
                continue;
            }
            let improve = f[l] - f_trial[l];
            f[l] = f_trial[l];
            steps[l] = (steps[l] * 1.8).min(4.0);
            finished[l] = stop(improve, f[l], moved[l]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f_l(x) = ½ Σ_j w_j (x_j − c_j)²`, the same for every lane;
    /// `uphill` negates the gradient so no probe ever decreases.
    struct Quadratic {
        w: Vec<f64>,
        c: Vec<f64>,
        uphill: bool,
        counts: SweepCounts,
    }

    impl Quadratic {
        fn new(n: usize) -> Self {
            Quadratic {
                w: (0..n).map(|j| 0.5 + 0.3 * j as f64).collect(),
                c: (0..n).map(|j| 0.2 + 0.15 * j as f64).collect(),
                uphill: false,
                counts: SweepCounts::default(),
            }
        }
    }

    impl DescentModel for Quadratic {
        fn probe(&mut self, xs: &[f64], k: usize, f: &mut [f64]) {
            for (l, f) in f.iter_mut().enumerate() {
                *f = (0..self.w.len())
                    .map(|j| 0.5 * self.w[j] * (xs[j * k + l] - self.c[j]).powi(2))
                    .sum();
            }
        }
        fn replay(&mut self, xs: &[f64], k: usize, grads: &mut Vec<f64>) {
            grads.clear();
            grads.resize(xs.len(), 0.0);
            let sign = if self.uphill { -1.0 } else { 1.0 };
            for (i, g) in grads.iter_mut().enumerate() {
                *g = sign * self.w[i / k] * (xs[i] - self.c[i / k]);
            }
        }
        fn counts(&mut self) -> &mut SweepCounts {
            &mut self.counts
        }
    }

    const N: usize = 5;
    const STARTS: [[f64; N]; 3] = [[1.0, 0.0, 0.9, 0.1, 0.5], [0.0; N], [0.3, 0.8, 0.2, 1.0, 0.6]];

    fn run(model: &mut Quadratic, lanes: &mut DescentLanes, free: Option<&[usize]>) -> usize {
        let stage = Stage { free, ub: 1.0, max_iters: 200, max_probes: 40 };
        descend(model, lanes, &stage, |improve, f, _| improve <= 1e-12 * f.abs(), |_| true)
    }

    fn lane(lanes: &DescentLanes, l: usize) -> Vec<f64> {
        let mut x = vec![0.0; N];
        lanes.store(l, &mut x);
        x
    }

    #[test]
    fn variables_outside_the_free_list_never_move() {
        let mut lanes = DescentLanes::default();
        lanes.shape(N, 2);
        lanes.reset();
        lanes.load(0, &STARTS[0]);
        lanes.load(1, &STARTS[2]);
        // The model's gradient is non-zero on the pinned variables too:
        // the stage, not the model, keeps them still.
        let iters = run(&mut Quadratic::new(N), &mut lanes, Some(&[1, 3]));
        assert!(iters > 0);
        for (l, start) in [(0, STARTS[0]), (1, STARTS[2])] {
            let x = lane(&lanes, l);
            for j in [0, 2, 4] {
                assert_eq!(x[j].to_bits(), start[j].to_bits(), "lane {l} var {j} moved");
            }
            assert!(x[1] != start[1] && x[3] != start[3], "lane {l}: free variables descend");
        }
    }

    #[test]
    fn a_lane_does_not_see_its_batch_mates() {
        let mut alone = DescentLanes::default();
        alone.shape(N, 1);
        alone.reset();
        alone.load(0, &STARTS[0]);
        let mut m1 = Quadratic::new(N);
        let iters = run(&mut m1, &mut alone, None);

        let mut batch = DescentLanes::default();
        batch.shape(N, 3);
        batch.reset();
        for (l, s) in STARTS.iter().enumerate() {
            batch.load(l, s);
        }
        let mut m3 = Quadratic::new(N);
        run(&mut m3, &mut batch, None);

        let (a, b) = (lane(&alone, 0), lane(&batch, 0));
        for j in 0..N {
            assert_eq!(a[j].to_bits(), b[j].to_bits(), "var {j}");
        }
        assert_eq!(alone.step(0).to_bits(), batch.step(0).to_bits());
        assert_eq!(alone.value(0).to_bits(), batch.value(0).to_bits());
        // K probes per round, stage start included.
        assert!(m1.counts.probes > iters as u64);
        assert_eq!(m3.counts.probes % 3, 0);
    }

    #[test]
    fn probes_that_never_decrease_end_in_a_dead_end() {
        let mut lanes = DescentLanes::default();
        lanes.shape(N, 1);
        lanes.reset();
        lanes.load(0, &STARTS[2]);
        let mut model = Quadratic { uphill: true, ..Quadratic::new(N) };
        let stage = Stage { free: None, ub: 1.0, max_iters: 50, max_probes: 7 };
        let iters = descend(&mut model, &mut lanes, &stage, |_, _, _| false, |_| true);
        assert_eq!(iters, 1, "the failed line search is the stage's only iteration");
        assert!(lanes.dead_end(0));
        assert_eq!(lane(&lanes, 0), STARTS[2].to_vec(), "iterate untouched");
        assert_eq!(model.counts.probes, 1 + 7, "start + the capped line search");
        assert_eq!(lanes.step(0), 0.25 * 0.5_f64.powi(7), "halved once per rejected probe");
    }

    #[test]
    fn reset_keeps_the_iterates_and_reopens_the_stage() {
        let mut lanes = DescentLanes::default();
        lanes.shape(N, 2);
        lanes.load(1, &STARTS[0]);
        lanes.reset();
        lanes.set_step(0, 1e-10);
        run(&mut Quadratic::new(N), &mut lanes, None);
        let after = lane(&lanes, 1);
        assert!(after != STARTS[0].to_vec());
        lanes.reset();
        assert_eq!(lane(&lanes, 1), after, "iterates survive a stage re-entry");
        assert_eq!((lanes.step(0), lanes.dead_end(0)), (0.25, false));
    }

    #[test]
    fn a_seeded_step_is_honoured_and_read_back() {
        // One variable with unit curvature: from x = 1 towards 0.2 any
        // step ≤ 1 is accepted on the first probe, so the move reveals it.
        let mut model = Quadratic { w: vec![1.0], c: vec![0.2], ..Quadratic::new(1) };
        let stage = Stage { free: None, ub: 1.0, max_iters: 1, max_probes: 40 };
        for seed in [0.5, 0.03125] {
            let mut lanes = DescentLanes::default();
            lanes.shape(1, 1);
            lanes.reset();
            lanes.load(0, &[1.0]);
            lanes.set_step(0, seed);
            descend(&mut model, &mut lanes, &stage, |_, _, _| false, |_| true);
            let mut x = [0.0];
            lanes.store(0, &mut x);
            assert_eq!(x[0], 1.0 - seed * 0.8, "trial = x - step·g");
            assert_eq!(lanes.step(0), seed * 1.8, "accepted step grows 1.8×");
            assert!(!lanes.dead_end(0));
        }
    }
}
