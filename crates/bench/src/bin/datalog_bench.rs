//! Datalog join-engine perf harness: indexed/parallel semi-naive vs the
//! written-order scan engine, on the canonical workloads (transitive
//! closure over paths and grids, same-generation over full binary
//! trees).
//!
//! Writes `BENCH_datalog.json` into the current directory and enforces
//! the engine's acceptance bar: on TC over the 512-node path and SG
//! over the depth-9 binary tree, the indexed engine must compare at
//! least 5× fewer tuples than the scan engine — with identical output
//! relations, iterations, and per-round deltas.
//!
//! The scan engine's tuple-visit count is measured directly where
//! feasible. SG at depth 9 would scan ≈ |e|²·Σ|Δ| ≈ 3.6 × 10¹¹ tuples,
//! so there the count comes from an exact closed-form cost model that
//! this harness first validates (to the tuple) against measured counts
//! at every feasible size.

use fmt_queries::datalog::{Output, Program};
use fmt_structures::{builders, Structure};
use std::fmt::Write as _;
use std::time::Instant;

/// Total tuples the scan engine visits on `tc(x,y) :- e(x,y);
/// tc(x,z) :- e(x,y), tc(y,z)`: initialization scans `e` once per rule,
/// then every delta round scans `e` once and the delta once per edge.
fn tc_scan_model(edges: u64, history: &[u64]) -> u64 {
    let rounds = &history[..history.len() - 1];
    2 * edges + rounds.iter().map(|&d| edges + edges * d).sum::<u64>()
}

/// Same for `sg(x,x); sg(x,y) :- e(xp,x), e(yp,y), sg(xp,yp)`: each
/// round scans `e`, then `e` again per edge, then the delta per edge
/// pair (the fact rule has no body and scans nothing).
fn sg_scan_model(edges: u64, history: &[u64]) -> u64 {
    let rounds = &history[..history.len() - 1];
    let e2 = edges * edges;
    edges + e2 + rounds.iter().map(|&d| edges + e2 + e2 * d).sum::<u64>()
}

/// Tuple-comparison counters of one evaluation, via the obs registry.
fn count_work(run: impl Fn() -> Output, keys: &[&str]) -> u64 {
    fmt_obs::enable();
    fmt_obs::reset();
    let _ = run();
    let snap = fmt_obs::snapshot();
    fmt_obs::disable();
    keys.iter().map(|k| snap.counter(k).unwrap_or(0)).sum()
}

const INDEXED_KEYS: &[&str] = &["queries.index.probes", "queries.index.scan_tuples"];
const SCAN_KEYS: &[&str] = &["queries.datalog.scan_tuples"];

/// `indexed.tuples_per_sec` recorded by the last pre-columnar engine on
/// the gated workloads — the fixed reference the `speedup_vs_baseline`
/// field (and `throughput_gate`) measures the columnar engine against.
const BASELINE_TPS: &[(&str, u32, f64)] =
    &[("tc_path", 512, 1_010_563.5), ("sg_tree", 9, 534_211.2)];

struct Workload {
    name: &'static str,
    param: u32,
    run_scan: bool,
    model: fn(u64, &[u64]) -> u64,
    build: fn(u32) -> Structure,
    program: fn() -> Program,
}

fn main() {
    let workloads = [
        Workload {
            name: "tc_path",
            param: 128,
            run_scan: true,
            model: tc_scan_model,
            build: builders::directed_path,
            program: Program::transitive_closure,
        },
        Workload {
            name: "tc_path",
            param: 512,
            run_scan: true,
            model: tc_scan_model,
            build: builders::directed_path,
            program: Program::transitive_closure,
        },
        Workload {
            name: "tc_grid",
            param: 8,
            run_scan: true,
            model: tc_scan_model,
            build: |k| builders::grid(k, k),
            program: Program::transitive_closure,
        },
        Workload {
            name: "sg_tree",
            param: 4,
            run_scan: true,
            model: sg_scan_model,
            build: builders::full_binary_tree,
            program: Program::same_generation,
        },
        Workload {
            name: "sg_tree",
            param: 6,
            run_scan: true,
            model: sg_scan_model,
            build: builders::full_binary_tree,
            program: Program::same_generation,
        },
        Workload {
            name: "sg_tree",
            param: 9,
            run_scan: false, // ≈ 3.6e11 scanned tuples: modeled instead
            model: sg_scan_model,
            build: builders::full_binary_tree,
            program: Program::same_generation,
        },
    ];

    let mut rows = Vec::new();
    let mut gate_ratios: Vec<(String, f64)> = Vec::new();
    for w in &workloads {
        let s = (w.build)(w.param);
        let prog = (w.program)();
        let e = s.signature().relation("E").expect("graph signature");
        let edges = s.rel(e).len() as u64;

        let t0 = Instant::now();
        let indexed = prog.eval_seminaive(&s);
        let indexed_secs = t0.elapsed().as_secs_f64();
        let output_tuples: u64 = (0..prog.num_idbs())
            .map(|i| indexed.relation(i).len() as u64)
            .sum();
        let indexed_work = count_work(|| prog.eval_seminaive(&s), INDEXED_KEYS);

        let model_scan = (w.model)(edges, &indexed.delta_history);
        let (scan_secs, scan_work) = if w.run_scan {
            let t0 = Instant::now();
            let scan = prog.eval_seminaive_scan(&s);
            let secs = t0.elapsed().as_secs_f64();
            for i in 0..prog.num_idbs() {
                assert_eq!(scan.relation(i), indexed.relation(i), "{} IDB {i}", w.name);
            }
            assert_eq!(scan.iterations, indexed.iterations, "{}", w.name);
            assert_eq!(scan.delta_history, indexed.delta_history, "{}", w.name);
            let measured = count_work(|| prog.eval_seminaive_scan(&s), SCAN_KEYS);
            assert_eq!(
                measured, model_scan,
                "{}({}): scan-cost model must match measurement exactly",
                w.name, w.param
            );
            (Some(secs), measured)
        } else {
            (None, model_scan)
        };

        // Per-phase attribution from one extra traced run (the timed run
        // above stays tracing-off so `indexed_secs` is untouched).
        fmt_obs::trace::start();
        let _ = prog.eval_seminaive(&s);
        let phase_trace = fmt_obs::trace::stop();
        let phase_us = |name: &str| -> u64 {
            phase_trace
                .events
                .iter()
                .filter(|e| e.name == name)
                .filter_map(|e| e.dur_us)
                .sum()
        };

        let ratio = scan_work as f64 / indexed_work.max(1) as f64;
        println!(
            "{:8} n={:<4} edges={:<5} rounds={:<3} derivations={:<8} indexed {:.3}s ({} cmp) scan {} ({} cmp{}) ratio {:.1}x",
            w.name,
            w.param,
            edges,
            indexed.iterations,
            indexed.derivations,
            indexed_secs,
            indexed_work,
            scan_secs.map_or("modeled".into(), |s| format!("{s:.3}s")),
            scan_work,
            if w.run_scan { "" } else { ", modeled" },
            ratio
        );

        if (w.name, w.param) == ("tc_path", 512) || (w.name, w.param) == ("sg_tree", 9) {
            gate_ratios.push((format!("{}_{}", w.name, w.param), ratio));
        }

        let mut row = String::from("    {");
        let _ = write!(
            row,
            "\"name\":\"{}\",\"param\":{},\"size\":{},\"edges\":{},\"rounds\":{},\"derivations\":{},\"output_tuples\":{},",
            w.name, w.param, s.size(), edges, indexed.iterations, indexed.derivations, output_tuples
        );
        let tps = output_tuples as f64 / indexed_secs.max(1e-9);
        let _ = write!(
            row,
            "\"indexed\":{{\"secs\":{indexed_secs:.6},\"tuples_per_sec\":{tps:.1},\"compared_tuples\":{indexed_work}",
        );
        if let Some(&(_, _, baseline_tps)) = BASELINE_TPS
            .iter()
            .find(|&&(n, p, _)| (n, p) == (w.name, w.param))
        {
            let _ = write!(
                row,
                ",\"baseline_tuples_per_sec\":{:.1},\"speedup_vs_baseline\":{:.2}",
                baseline_tps,
                tps / baseline_tps
            );
        }
        row.push_str("},");
        match scan_secs {
            Some(secs) => {
                let _ = write!(
                    row,
                    "\"scan\":{{\"secs\":{:.6},\"tuples_per_sec\":{:.1},\"compared_tuples\":{},\"modeled\":false}},",
                    secs,
                    output_tuples as f64 / secs.max(1e-9),
                    scan_work
                );
            }
            None => {
                let _ = write!(
                    row,
                    "\"scan\":{{\"compared_tuples\":{scan_work},\"modeled\":true}},",
                );
            }
        }
        let _ = write!(row, "\"comparison_ratio\":{ratio:.2},");
        let _ = write!(
            row,
            "\"phases\":{{\"init_us\":{},\"plan_us\":{},\"shard_us\":{},\"join_us\":{},\"dedup_us\":{},\"merge_us\":{}}}}}",
            phase_us("datalog.init"),
            phase_us("datalog.plan"),
            phase_us("datalog.shard"),
            phase_us("datalog.join"),
            phase_us("datalog.dedup"),
            phase_us("datalog.merge")
        );
        rows.push(row);
    }

    for (name, ratio) in &gate_ratios {
        assert!(
            *ratio >= 5.0,
            "{name}: indexed engine must beat the scan engine by ≥ 5× in tuple comparisons, got {ratio:.2}×"
        );
    }

    let json = format!(
        "{{\n  \"bench\":\"datalog\",\n  \"gate\":\"indexed engine compares ≥5× fewer tuples than scan on tc_path_512 and sg_tree_9\",\n  \"workloads\":[\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_datalog.json", &json).expect("write BENCH_datalog.json");
    println!(
        "wrote BENCH_datalog.json ({} workloads, gate ratios: {})",
        workloads.len(),
        gate_ratios
            .iter()
            .map(|(n, r)| format!("{n}={r:.1}x"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
