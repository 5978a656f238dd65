//! Workload definitions: the seed-generated database, the index set-up the
//! workload times, the query scripts, and their brute-force reference
//! answers.

use prague::{PragueSystem, SystemParams};
use prague_datagen::{
    derive_containment_query, derive_similarity_query, DeriveConfig, MoleculeConfig,
    MoleculeDataset, QueryKind, QuerySpec,
};
use prague_graph::{mccs, vf2, Graph, GraphDb, GraphId, Label};
use prague_mining::mine_classified;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Formulate,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "formulate" => Some(Workload::Formulate),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Formulate => "formulate",
            Workload::Serve => "serve",
        }
    }
}

/// Mining support ratio α.
const ALPHA: f64 = 0.1;
/// Subgraph distance threshold σ (the server's default).
pub const SIGMA: usize = 2;
/// Smallest and largest query size (edges).
const MIN_EDGES: usize = 4;
const MAX_EDGES: usize = 9;

/// Sizing and index parameters of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Database size (molecule graphs).
    pub graphs: usize,
    /// A²F β.
    pub beta: usize,
    /// Mining and index fragment cap (edges).
    pub max_fragment_edges: usize,
    /// Verification pool workers (`1` = no pool).
    pub threads: usize,
    /// Query scripts in the pool.
    pub scripts: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

impl Config {
    pub fn new(workload: Workload, tiny: bool) -> Self {
        let base = match workload {
            // Deep index, no pool: the single-user loop.
            Workload::Formulate => Config {
                workload,
                graphs: 400,
                beta: 8,
                max_fragment_edges: 8,
                threads: 1,
                scripts: 288,
                setups: 3,
            },
            // The `exp_service_load` system: shallow index, pool of two.
            Workload::Serve => Config {
                workload,
                graphs: 600,
                beta: 2,
                max_fragment_edges: 3,
                threads: 2,
                scripts: 72,
                setups: 5,
            },
        };
        if tiny {
            Config {
                graphs: 60,
                max_fragment_edges: base.max_fragment_edges.min(4),
                scripts: 6,
                setups: 1,
                ..base
            }
        } else {
            base
        }
    }
}

/// Set-up phase timings of one build.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub mine: Duration,
    pub build: Duration,
    pub warm: Duration,
    pub frequent: usize,
    pub difs: usize,
    pub footprint_mb: f64,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.mine + self.build + self.warm
    }
}

/// Generator seed of the molecule corpus, and of the query pool drawn
/// from it. Both are fixed, like a benchmark dataset with its query log;
/// the run seed shuffles the replay order (see [`shuffle`]). Re-drawing
/// them per seed made the runs unsteady: a pool a run can afford (derivation
/// and brute-force answers take seconds) spends most of its time in a few
/// worst-case similarity queries, and which few a seed drew moved
/// throughput by up to 2x between seeds on a 4000-graph corpus.
pub const CORPUS_SEED: u64 = 0x5052_4147_5545;

/// Generate the workload's molecule corpus.
pub fn dataset(cfg: &Config) -> MoleculeDataset {
    prague_datagen::molecules_generate(&MoleculeConfig {
        graphs: cfg.graphs,
        seed: CORPUS_SEED,
        ..Default::default()
    })
}

/// Mine, build and warm a system over `ds` (the timed set-up), returning
/// it with the mined frequent fragment graphs and the phase timings.
pub fn build_system(
    ds: &MoleculeDataset,
    cfg: &Config,
) -> Result<(PragueSystem, Vec<Graph>, SetupTimes), String> {
    let t0 = Instant::now();
    let mining = mine_classified(&ds.db, ALPHA, cfg.max_fragment_edges);
    let mine = t0.elapsed();
    let frequent: Vec<Graph> = mining.frequent.iter().map(|f| f.graph.clone()).collect();
    let (n_frequent, n_difs) = (mining.frequent.len(), mining.difs.len());
    let t1 = Instant::now();
    let mut system = PragueSystem::from_mining_result(
        ds.db.clone(),
        ds.labels.clone(),
        mining,
        SystemParams {
            alpha: ALPHA,
            beta: cfg.beta,
            max_fragment_edges: cfg.max_fragment_edges,
            ..Default::default()
        },
    )
    .map_err(|e| format!("index build: {e}"))?;
    system.set_threads(cfg.threads);
    let build = t1.elapsed();
    let t2 = Instant::now();
    system.warm().map_err(|e| format!("index warm: {e}"))?;
    let warm = t2.elapsed();
    let times = SetupTimes {
        mine,
        build,
        warm,
        frequent: n_frequent,
        difs: n_difs,
        footprint_mb: system.index_footprint().total_mb(),
    };
    Ok((system, frequent, times))
}

/// SplitMix64: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the `cfg.scripts` queries of the pool: containment, best-case
/// and worst-case similarity queries in turn, each kind cycling through
/// the sizes `MIN_EDGES..=MAX_EDGES`.
pub fn queries(db: &GraphDb, frequent: &[Graph], cfg: &Config, workers: usize) -> Vec<QuerySpec> {
    let sizes = MAX_EDGES - MIN_EDGES + 1;
    par_map(cfg.scripts, workers, |i| {
        let size = MIN_EDGES + (i / 3) % sizes;
        let name = format!("q{i}");
        (0..100u64)
            .find_map(|attempt| {
                let s = mix(CORPUS_SEED, (i as u64) << 8 | attempt);
                let derive = |size, kind| {
                    derive_similarity_query(
                        db,
                        frequent,
                        &DeriveConfig {
                            size,
                            kind,
                            seed: s,
                        },
                        &name,
                    )
                };
                match i % 3 {
                    0 => derive_containment_query(db, size, s, &name),
                    // A best case needs a frequent fragment one edge short
                    // of the query; shallow indexes have none past 3
                    // edges, so take the largest that exists.
                    1 => (MIN_EDGES..=size)
                        .rev()
                        .find_map(|size| derive(size, QueryKind::BestCase))
                        .or_else(|| derive(size, QueryKind::WorstCase)),
                    _ => derive(size, QueryKind::WorstCase),
                }
            })
            .expect("query derivable within 100 attempts")
    })
}

/// Seeded Fisher-Yates shuffle: the run seed's replay order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `(0..n).map(f)` spread over `workers` threads, in index order.
fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, workers: usize, f: F) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, x) in h.join().expect("worker thread") {
                out[i] = Some(x);
            }
        }
    });
    out.into_iter()
        .map(|x| x.expect("every index computed"))
        .collect()
}

/// The answer a Run must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Exact matches, ascending graph id.
    Exact(Vec<GraphId>),
    /// No exact match: every graph within distance σ, ascending id.
    Similar(Vec<GraphId>),
}

/// Brute-force reference answers: VF2 containment over the whole DB, and
/// MCCS within σ when nothing contains the query. Spread over `workers`
/// threads (this runs outside every timed region).
pub fn references(db: &GraphDb, specs: &[QuerySpec], sigma: usize, workers: usize) -> Vec<Answer> {
    par_map(specs.len(), workers, |i| {
        reference(db, &specs[i].graph(), sigma)
    })
}

fn reference(db: &GraphDb, q: &Graph, sigma: usize) -> Answer {
    let exact: Vec<GraphId> = db
        .iter()
        .filter(|(_, g)| vf2::is_subgraph(q, g))
        .map(|(id, _)| id)
        .collect();
    if !exact.is_empty() {
        return Answer::Exact(exact);
    }
    Answer::Similar(
        db.iter()
            .filter(|(_, g)| mccs::within_distance(q, g, sigma).unwrap_or(false))
            .map(|(id, _)| id)
            .collect(),
    )
}

/// One user action of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Node(Label),
    Edge(u32, u32),
    /// Delete the most recently drawn edge.
    DeleteLast,
    Relabel(u32, Label),
    Run,
}

/// The user-action script of one query: nodes, edges one at a time,
/// delete-last-edge + re-add, relabel node 0 and back, then Run.
/// Similarity switches are inserted by the executors, because they depend
/// on the candidate count a step returns.
pub fn plan(spec: &QuerySpec) -> Vec<Op> {
    let mut ops: Vec<Op> = spec.node_labels.iter().map(|&l| Op::Node(l)).collect();
    ops.extend(spec.edges.iter().map(|&(u, v)| Op::Edge(u, v)));
    let &(u, v) = spec.edges.last().expect("queries have edges");
    ops.push(Op::DeleteLast);
    ops.push(Op::Edge(u, v));
    let original = spec.node_labels[0];
    let other = if original == Label(0) {
        Label(1)
    } else {
        Label(0)
    };
    ops.push(Op::Relabel(0, other));
    ops.push(Op::Relabel(0, original));
    ops.push(Op::Run);
    ops
}

/// A query ready to replay: its action script and its reference answer.
#[derive(Debug, Clone)]
pub struct Script {
    pub ops: Vec<Op>,
    pub answer: Answer,
}
