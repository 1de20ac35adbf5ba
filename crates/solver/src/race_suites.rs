//! Model-check suite for the global solver workspace pool.
//!
//! The pool hands reusable scratch buffers to concurrent solver threads;
//! the invariant is exclusivity — one live workspace is never shared by
//! two threads — plus counter consistency. The suite scribbles a marker
//! into the scratch buffer around an explicit yield so any aliasing
//! shows up as a clobbered value on some interleaving.

use crate::workspace::{self, acquire};
use paradigm_race::sync::Mutex;
use paradigm_race::{explore, plock, Config, Report, Suite};

/// Pool exclusivity: two threads each acquire a workspace, resize its
/// scratch, scribble, yield, and verify. On every interleaving the live
/// workspaces must be distinct buffers. Afterwards the counters must
/// show exactly two acquires with at most one reuse (both threads can
/// only reuse a pooled workspace if one finished before the other
/// started).
fn run_pool(cfg: &Config) -> Report {
    explore("pool", cfg, || {
        workspace::reset_pool();
        let held: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        paradigm_race::thread::scope(|s| {
            for t in 0..2usize {
                let held = &held;
                s.spawn(move || {
                    let mut ws = acquire();
                    ws.scratch.ensure(4, 4, 1);
                    let id = ws.scratch.y.as_ptr() as usize;
                    {
                        let mut h = plock(held);
                        assert!(!h.contains(&id), "one workspace handed to two threads");
                        h.push(id);
                    }
                    ws.scratch.y[0] = (t + 11) as f64;
                    paradigm_race::thread::yield_now();
                    assert_eq!(
                        ws.scratch.y[0],
                        (t + 11) as f64,
                        "workspace scratch buffer shared across threads"
                    );
                    plock(held).retain(|&x| x != id);
                });
            }
        });
        let (acquires, reuses) = workspace::pool_counters();
        assert_eq!(acquires, 2, "every acquire must be counted");
        assert!(reuses <= 1, "two overlapping acquires cannot both reuse one pooled workspace");
    })
}

/// The solver's model-check suites.
pub fn suites() -> Vec<Suite> {
    vec![Suite {
        name: "pool",
        about: "workspace pool: exclusive handout, consistent counters",
        config: Config::with_bound(2),
        run: run_pool,
    }]
}
