//! The five workloads and their seeded inputs.
//!
//! A workload is a fixed, seeded list of ops. An op is one complete
//! request: a `try_solve_pipeline` call (compile workloads) or one
//! `handle_line` call, bytes in → bytes out (serve workloads). The
//! program under test only ever sees inputs generated here from
//! `--seed`: the same seed gives byte-identical inputs.

use paradigm_core::{gallery_graph, SolveSpec};
use paradigm_cost::Machine;
use paradigm_front::compile_source;
use paradigm_mdg::{
    fork_join_mdg, random_layered_mdg, to_text, Json, KernelCostTable, Mdg, RandomMdgConfig,
};
use std::sync::Arc;

/// Seed used when none is given; `HOLDOUT_SEED` is reserved for checking
/// that a claim made on the default seed also holds on unseen inputs.
pub const DEFAULT_SEED: u64 = 1994;
/// See [`DEFAULT_SEED`]. Do not tune against this one.
pub const HOLDOUT_SEED: u64 = 815_0094;

/// The Gauss–Newton step of `examples/mini_language.rs`.
pub const GAUSS_NEWTON_MINI: &str = include_str!("../programs/gauss_newton.mini");

/// Which public entry point an op goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `paradigm_core::try_solve_pipeline`.
    Pipeline,
    /// `paradigm_core::try_solve_pipeline_with_backend` with the ADMM
    /// tier forced and an in-process block backend.
    Admm,
    /// `paradigm_serve::handle_line` against a `Service`; `warm` fills
    /// the cache in set-up and keeps one service for the whole run,
    /// otherwise every pass gets a fresh, empty service.
    Serve { warm: bool },
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Entry point under test.
    pub entry: Entry,
    /// Closed-loop client threads (at most the box's 2 cores).
    pub clients: usize,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "compile-paper",
        why: "paper graphs, 3-33-node tapes, full solver: per-iteration fixed overhead of the solver dominates, not tape arithmetic",
        entry: Entry::Pipeline,
        clients: 1,
    },
    Workload {
        name: "compile-large",
        why: "85-203-node tapes, fast solver: tape arithmetic (eval_grad) dominates, so a kernel change that helps big tapes and hurts small ones shows",
        entry: Entry::Pipeline,
        clients: 1,
    },
    Workload {
        name: "compile-admm",
        why: "consensus-ADMM: a 553-node fork-join under the default AdmmConfig plus 33-85-node graphs forced into 2 blocks: partitioning, consensus rounds and warm block solves do the work",
        entry: Entry::Admm,
        clients: 1,
    },
    Workload {
        name: "serve-hot",
        why: "32 warmed keys, every request a cache hit: decode, fingerprint, queue hand-off, cache get and encode are all of the time, the solver none",
        entry: Entry::Serve { warm: true },
        clients: 2,
    },
    Workload {
        name: "serve-cold",
        why: "200 distinct graphs to an empty service: every request misses and solves on one of 2 workers while the other client competes for the core",
        entry: Entry::Serve { warm: false },
        clients: 2,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One distinct `(graph, spec)` pair of a workload.
#[derive(Debug, Clone)]
pub struct Instance {
    /// `<graph>@p<procs>`, unique within the workload.
    pub label: String,
    /// The graph handed to the pipeline (or rendered into the request).
    pub graph: Arc<Mdg>,
    /// Everything else the solve depends on.
    pub spec: SolveSpec,
    /// Mini-language source the graph was compiled from; the op then
    /// starts at the source text (`compile_source` is part of it).
    pub source: Option<&'static str>,
    /// ADMM entry (`spec.admm`) only: the block count forced through
    /// `AdmmConfig::with_blocks`, or 0 for the default `AdmmConfig` (whose
    /// partitioner keeps graphs under 513 nodes in one block) and the
    /// default backend; see `ops::admm_setup`.
    pub admm_blocks: usize,
}

/// A workload's generated inputs for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Distinct instances.
    pub instances: Vec<Instance>,
    /// One pass: indices into `instances`, in issue order. Client `c`
    /// of `n` issues `ops[c], ops[c + n], ...`.
    pub ops: Vec<usize>,
    /// Serve workloads: the NDJSON request line of each instance.
    pub lines: Vec<String>,
}

/// SplitMix64: the only randomness the benchmark itself draws (graph
/// generators take a derived `u64` seed).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is small; modulo bias is below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn instance(label: &str, graph: Mdg, procs: u32, full_solver: bool, simulate: bool) -> Instance {
    Instance {
        label: format!("{label}@p{procs}"),
        graph: Arc::new(graph),
        spec: SolveSpec {
            fast_solver: !full_solver,
            simulate,
            ..SolveSpec::new(Machine::cm5(procs))
        },
        source: None,
        admm_blocks: 0,
    }
}

fn gallery(name: &str) -> Mdg {
    gallery_graph(name).unwrap_or_else(|| panic!("gallery graph `{name}` exists"))
}

/// Seed of the `i`th generated graph of a workload. Distinct workloads
/// use distinct `stream`s so they never share a graph.
fn graph_seed(seed: u64, stream: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ (stream << 56) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// The `i`th seeded graph of a workload: a layered random graph of about
/// `nodes` compute nodes. Structure, serial fractions and transfer sizes
/// are drawn over the generator's full ranges; single-processor times
/// come from a narrow band, which cuts the seed-to-seed spread of Φ to a
/// third (2 % per graph at 96 nodes) so that the quality metrics can
/// carry a tight bound.
fn seeded_graph(nodes: usize, seed: u64, stream: u64, i: u64) -> Mdg {
    let cfg = RandomMdgConfig { tau_range: (0.4, 0.6), ..RandomMdgConfig::sized(nodes) };
    random_layered_mdg(&cfg, graph_seed(seed, stream, i))
}

/// Generate a workload's inputs. A pure function of `(workload, seed)`.
///
/// Every workload has seeded instances, so no two seeds measure the same
/// inputs; where gallery graphs are part of the list, the seeded
/// instance is sized to sit away from the ranks that set `op_ms_p50` and
/// `op_ms_p90`, so those read a fixed instance on every seed.
pub fn build(w: &Workload, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x6265_6e63_686d_726b);
    let mut instances = Vec::new();
    match w.name {
        "compile-paper" => {
            instances.push(instance("fig1", gallery("fig1"), 4, true, true));
            for (name, procs) in [
                ("cmm", &[16u32, 32, 64][..]),
                ("strassen", &[16, 32, 64]),
                ("fft2d", &[16, 64]),
                ("block-lu", &[16, 64]),
                ("stencil", &[16, 64]),
            ] {
                for &p in procs {
                    instances.push(instance(name, gallery(name), p, true, true));
                }
            }
            let g = compile_source(GAUSS_NEWTON_MINI, &KernelCostTable::cm5())
                .expect("the bundled mini program compiles");
            instances.push(Instance {
                source: Some(GAUSS_NEWTON_MINI),
                ..instance("gauss-newton.mini", g, 32, true, true)
            });
            // One synthetic layered graph in the paper's tape-size range
            // (its Section 1.3 names such benchmarks).
            instances.push(instance("synthetic-16", seeded_graph(16, seed, 1, 0), 16, true, true));
        }
        "compile-large" => {
            for (name, procs) in [
                ("strassen-ml", &[16u32, 64][..]),
                ("random-layered", &[16, 64]),
                ("fork-join", &[64]),
            ] {
                for &p in procs {
                    instances.push(instance(name, gallery(name), p, false, true));
                }
            }
            instances.push(instance("synthetic-96", seeded_graph(96, seed, 2, 0), 64, false, true));
        }
        "compile-admm" => {
            // The path real callers take: the default `AdmmConfig` splits
            // this graph itself. Its generator seed is fixed — over
            // generator seeds the solve takes 57-82 rounds, 1.7-3.0 s, and
            // as the slowest op of the pass it is `op_ms_p90`.
            let mut default_path =
                instance("fork-join-553", fork_join_mdg(12, 44, DEFAULT_SEED), 64, false, true);
            default_path.spec.admm = true;
            instances.push(default_path);
            // Solves that size take seconds, so the rest of the pass is
            // smaller graphs forced into 2 blocks.
            let fixed =
                [("fork-join", 16u32), ("fork-join", 64), ("strassen", 16), ("strassen", 64)];
            let graphs = fixed.into_iter().map(|(name, p)| (name, gallery(name), p)).chain([(
                "synthetic-64",
                seeded_graph(64, seed, 3, 0),
                64,
            )]);
            for (name, g, p) in graphs {
                let mut inst = instance(name, g, p, false, true);
                inst.spec.admm = true;
                inst.admm_blocks = 2;
                instances.push(inst);
            }
        }
        "serve-hot" => {
            // Latency follows the request's size, and the 4 keys of one
            // graph share it: three small graphs, then block-lu and
            // strassen (the keys between 3/8 and 5/8 of the requests, so
            // `op_ms_p50` reads the middle of their cluster), two
            // mid-size ones, and strassen-ml as the top eighth.
            let seeded = seeded_graph(96, seed, 4, 0);
            let graphs: Vec<(&str, Mdg)> =
                ["fig1", "cmm", "fft2d", "block-lu", "strassen", "fork-join", "strassen-ml"]
                    .into_iter()
                    .map(|name| (name, gallery(name)))
                    .chain([("synthetic-96", seeded)])
                    .collect();
            for (name, g) in graphs {
                for p in [8u32, 16, 32, 64] {
                    instances.push(instance(name, g.clone(), p, false, false));
                }
            }
        }
        "serve-cold" => {
            for i in 0..200u64 {
                // Sizes cycle through 24..=64 by index, so every seed
                // has the same size mix and only the graphs differ.
                let nodes = 24 + (i as usize * 17) % 41;
                let g = seeded_graph(nodes, seed, 5, i);
                instances.push(instance(&format!("synthetic-{nodes}-{i}"), g, 16, false, false));
            }
        }
        other => panic!("unknown workload `{other}`"),
    }

    let mut ops: Vec<usize> = (0..instances.len()).collect();
    rng.shuffle(&mut ops);
    if w.entry == (Entry::Serve { warm: true }) {
        // Uniform key order; the leading permutation guarantees that
        // every key is requested in every pass.
        ops.extend((0..2048 - instances.len()).map(|_| rng.below(instances.len())));
    }

    let lines = match w.entry {
        Entry::Serve { .. } => instances.iter().map(request_line).collect(),
        _ => Vec::new(),
    };
    Inputs { instances, ops, lines }
}

/// The NDJSON `solve` request for one instance, graph inline.
pub fn request_line(inst: &Instance) -> String {
    Json::Obj(vec![
        ("op".into(), Json::str("solve")),
        ("graph".into(), Json::str(to_text(&inst.graph))),
        ("procs".into(), Json::num(f64::from(inst.spec.machine.procs))),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{from_text, parse_json, structural_hash};

    #[test]
    fn workload_names_and_whys_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why has {} chars", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
            assert!(w.clients <= 2);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let a = build(w, 7);
            let b = build(w, 7);
            assert_eq!(a.ops, b.ops, "{}", w.name);
            assert_eq!(a.lines, b.lines, "{}", w.name);
            let texts =
                |x: &Inputs| x.instances.iter().map(|i| to_text(&i.graph)).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b), "{}", w.name);
            let c = build(w, 8);
            assert!(a.ops != c.ops || texts(&a) != texts(&c), "{}: seed ignored", w.name);
            assert_ne!(texts(&a), texts(&c), "{}: no seeded graph", w.name);
        }
    }

    #[test]
    fn every_instance_is_requested_in_every_pass() {
        for w in &WORKLOADS {
            let inputs = build(w, 3);
            let mut seen = vec![false; inputs.instances.len()];
            for &op in &inputs.ops {
                seen[op] = true;
            }
            assert!(seen.iter().all(|&s| s), "{}", w.name);
            let mut labels: Vec<&str> = inputs.instances.iter().map(|i| i.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), inputs.instances.len(), "{}: duplicate label", w.name);
        }
        assert_eq!(build(find("serve-hot").unwrap(), 3).instances.len(), 32);
        assert_eq!(build(find("serve-hot").unwrap(), 3).ops.len(), 2048);
    }

    #[test]
    fn inline_graph_survives_json_string_escaping() {
        // MDG text is multi-line, quotes every node name, and names may
        // hold backslashes; the request must stay one line and decode
        // back to the same graph.
        // (The MDG text format quotes node names without escapes, so a
        // name cannot itself hold a quote.)
        let mut b = paradigm_mdg::MdgBuilder::new("esc");
        let n = b.compute("n\\1 = a\\b", paradigm_mdg::AmdahlParams::new(0.1, 1.0));
        let m = b.compute("m", paradigm_mdg::AmdahlParams::new(0.2, 2.0));
        b.edge(n, m, vec![]);
        let g = b.finish().expect("valid graph");
        let inst = instance("esc", g, 8, false, false);
        let line = request_line(&inst);
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).expect("valid JSON");
        let text = doc.get("graph").and_then(Json::as_str).expect("graph field");
        assert_eq!(text, to_text(&inst.graph));
        let back = from_text(text).expect("inline graph parses");
        assert_eq!(structural_hash(&back), structural_hash(&inst.graph));
        assert_eq!(doc.get("procs").and_then(Json::as_u64), Some(8));
    }
}
