//! The benchmark's own tests: seeded inputs are deterministic, traced
//! counts repeat exactly, the oracles reject wrong answers, census
//! balls stay small, and `BENCHMARK.json` names what the code reports.

use fmt_core::obs::json::{self, Json};
use fmtk_bench::gen::{self, ChurnStream, Task, Workload, MAX_DEGREE};
use fmtk_bench::layers::{Source, END_TO_END, PER_LAYER};
use fmtk_bench::mirror::{self, Answer, Checker};
use fmtk_bench::run::{mirror_passes, Outcome};
use fmtk_bench::trace::{Tracer, REQUEST};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The `fmt_obs` registry is process-global and tests run on parallel
/// threads: tests that trace (or switch tracing off) take this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static OBS: Mutex<()> = Mutex::new(());
    OBS.lock().unwrap_or_else(PoisonError::into_inner)
}

const CLI_WORKLOADS: [Workload; 3] = [
    Workload::Materialize,
    Workload::PointQueries,
    Workload::PaperTools,
];

fn churn_inputs(seed: u64) -> (gen::Graph, Vec<gen::Update>) {
    let (g, mut stream) = ChurnStream::new(seed, 0);
    let updates = (0..300).map(|_| stream.next_update()).collect();
    (g, updates)
}

#[test]
fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
    for w in CLI_WORKLOADS {
        let a = gen::plan(w, 7);
        assert_eq!(a, gen::plan(w, 7), "{w:?}: same seed, same plan");
        let b = gen::plan(w, 8);
        assert_ne!(
            (&a.files, &a.cycle),
            (&b.files, &b.cycle),
            "{w:?}: another seed, other inputs"
        );
    }
    assert_eq!(churn_inputs(7), churn_inputs(7));
    let (g7, u7) = churn_inputs(7);
    let (g8, u8) = churn_inputs(8);
    assert_ne!(g7, g8);
    assert_ne!(u7, u8);
}

/// Per-layer values that are counts (not times) from one traced run.
fn counts(values: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .filter(|m| !matches!(m.source, Source::Time(_) | Source::Runner))
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

fn traced_cli(w: Workload, seed: u64) -> BTreeMap<&'static str, f64> {
    let plan = gen::plan(w, seed);
    let mut out = Outcome::default();
    let passes = mirror_passes(&plan, Duration::ZERO, &mut out).unwrap();
    assert_eq!(out.failed, 0, "{w:?}: mirror answers pass the oracles");
    assert!(passes.counted.iter().any(|s| s.name == REQUEST));
    passes.values
}

#[test]
fn traced_counts_repeat_exactly() {
    let _obs = obs_lock();
    for w in CLI_WORKLOADS {
        let first = counts(&traced_cli(w, 3));
        assert!(
            first.iter().any(|&(_, v)| v > 0.0),
            "{w:?} counts something"
        );
        assert_eq!(first, counts(&traced_cli(w, 3)), "{w:?}");
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("churn-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let churn = |seed| {
        let out = fmtk_bench::churn::traced(seed, Duration::ZERO, &dir).unwrap();
        assert_eq!(out.failed, 0);
        let values = out.metrics.iter().map(|&(n, v, _)| (n, v)).collect();
        counts(&values)
    };
    let first = churn(3);
    let overdeleted = first
        .iter()
        .find(|(n, _)| *n == "incr.overdeleted")
        .unwrap()
        .1;
    assert!(overdeleted > 0.0, "churn exercises DRed");
    assert_eq!(first, churn(3));
    assert!(json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).is_ok());
}

#[test]
fn oracles_accept_the_engines_and_reject_wrong_answers() {
    let _obs = obs_lock();
    for w in CLI_WORKLOADS {
        let plan = gen::plan(w, 5);
        let mut checker = Checker::new(&plan);
        for req in &plan.cycle {
            let mut tr = Tracer::new(false);
            tr.begin(0, REQUEST);
            let answer = mirror::run(&plan, req, &mut tr).unwrap().answer();
            tr.end();
            assert!(checker.check(&req.task, &answer), "{:?}", req.task);
            let wrong = match answer {
                Answer::Pairs(mut p) => {
                    p.pop();
                    Answer::Pairs(p)
                }
                Answer::Game(r, s) => Answer::Game(r, !s),
                Answer::Census(mut c) => {
                    c.rows[0].0 += 1;
                    Answer::Census(c)
                }
                Answer::Mu(mu) => Answer::Mu(!mu),
            };
            assert!(!checker.check(&req.task, &wrong), "{:?}", req.task);
        }
    }
}

#[test]
fn census_balls_stay_small() {
    // canonical_key has no automorphism pruning, so a census over balls
    // with many interchangeable elements takes seconds per ball: the
    // generator must keep radius-1 balls at most 1 + MAX_DEGREE.
    for seed in 0..4 {
        let plan = gen::plan(Workload::PaperTools, seed);
        for req in &plan.cycle {
            if let Task::Census { graph } = req.task {
                let g = &plan.graphs[graph];
                let mut deg = vec![0u32; g.n as usize];
                for &(u, _) in &g.edges {
                    deg[u as usize] += 1;
                }
                assert!(deg.iter().all(|&d| d <= MAX_DEGREE));
            }
        }
    }
    let _obs = obs_lock();
    let values = traced_cli(Workload::PaperTools, 1);
    let max_ball = values["locality.max_ball_size"];
    assert!(
        max_ball >= 2.0 && max_ball <= f64::from(1 + MAX_DEGREE),
        "{max_ball}"
    );
}

#[test]
fn point_query_cones_span_the_stated_range() {
    let plan = gen::plan(Workload::PointQueries, 9);
    let n = gen::CHAIN_NODES;
    let cones: Vec<u32> = plan
        .cycle
        .iter()
        .map(|r| match r.task {
            Task::PointQuery { source } => n - 1 - source,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(cones[0], (gen::CONE_MIN + gen::CONE_MAX) / 2);
    assert!(cones
        .iter()
        .all(|c| (gen::CONE_MIN..=gen::CONE_MAX).contains(c)));
}

#[test]
fn churn_keeps_every_out_degree() {
    // A request that rewired one edge twice would retract a tuple it has
    // just inserted; at about one request in |E| that needs thousands
    // of requests to show, so this walks many per seed.
    for seed in 0..8 {
        let (g, mut stream) = ChurnStream::new(seed, 0);
        let mut edges: std::collections::BTreeSet<(u32, u32)> = g.edges.iter().copied().collect();
        for _ in 0..4000 {
            let u = stream.next_update();
            let mut tuples: Vec<(u32, u32)> = u.retract.iter().chain(&u.insert).copied().collect();
            tuples.sort_unstable();
            tuples.dedup();
            assert_eq!(tuples.len(), 2 * gen::CHURN_SWAPS, "distinct tuples: {u:?}");
            for r in &u.retract {
                assert!(edges.remove(r), "retracts an existing edge");
            }
            for i in &u.insert {
                assert!(edges.insert(*i), "inserts a new edge");
                assert!(i.0 < i.1 && i.1 - i.0 <= gen::DAG_SPAN);
            }
        }
        let degrees = |es: &mut dyn Iterator<Item = (u32, u32)>| {
            let mut d = vec![0; g.n as usize];
            es.for_each(|(u, _)| d[u as usize] += 1);
            d
        };
        assert_eq!(
            degrees(&mut edges.into_iter()),
            degrees(&mut g.edges.iter().copied())
        );
    }
}

fn names(list: &Json, keys: &[&str]) -> Vec<Vec<String>> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            keys.iter()
                .map(|k| m.get(k).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    let listed: Vec<String> = names(spec.get("workloads").unwrap(), &["name"])
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(listed, workloads);
    let e2e: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|(n, u)| vec![(*n).to_owned(), (*u).to_owned()])
        .collect();
    assert_eq!(
        names(spec.get("end_to_end").unwrap(), &["name", "unit"]),
        e2e
    );
    let layers: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|m| vec![m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()])
        .collect();
    assert_eq!(
        names(spec.get("per_layer").unwrap(), &["name", "unit", "better"]),
        layers
    );
}

#[test]
fn the_binary_runs_as_a_kernel_process() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtk-bench"))
        .arg(fmtk_bench::calib::KERNEL_FLAG)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty() && out.stderr.is_empty());
}
