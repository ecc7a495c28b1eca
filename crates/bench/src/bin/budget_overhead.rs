//! Budget overhead gate: the budget layer must be free when unused.
//!
//! Runs the indexed Datalog engine on the canonical `tc_path_512`
//! workload under `Budget::unlimited()` (the path every pre-existing
//! entry point now delegates through) and compares the min-of-N wall
//! time against the recorded baseline in `BENCH_datalog.json` — the
//! `indexed.secs` figure measured when the indexed engine landed. The
//! gate fails if the budgeted run is more than 5% slower. The gate
//! only reads `BENCH_datalog.json`; its measurement goes to stdout.

use fmt_queries::datalog::Program;
use fmt_structures::budget::Budget;
use fmt_structures::builders;
use std::time::Instant;

/// Measurement batch size; the minimum filters out scheduler noise.
const BATCH: usize = 5;

/// Maximum batches before this process gives up. Per-process layout
/// (ASLR, heap placement) swings hot-loop timings by several percent,
/// so `scripts/check.sh` retries the whole binary a few times: a real
/// regression fails every spawn, an unlucky layout only one.
const MAX_BATCHES: usize = 8;

/// Allowed slowdown over the recorded baseline.
const MAX_OVERHEAD: f64 = 0.05;

/// Extracts `indexed.secs` for the `tc_path` / `param:512` row from the
/// bench JSON (hand-rolled: the workspace deliberately has no JSON
/// parser dependency).
fn baseline_secs(json: &str) -> f64 {
    let row_start = json
        .find("\"name\":\"tc_path\",\"param\":512")
        .expect("BENCH_datalog.json has no tc_path_512 row");
    let row = &json[row_start..];
    let key = "\"indexed\":{\"secs\":";
    let at = row.find(key).expect("tc_path_512 row has no indexed.secs");
    let rest = &row[at + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("indexed.secs parses as f64")
}

fn min_secs(runs: usize, mut run: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let json = std::fs::read_to_string("BENCH_datalog.json")
        .expect("run from the repo root, where BENCH_datalog.json lives");
    let baseline = baseline_secs(&json);

    let s = builders::directed_path(512);
    let prog = Program::transitive_closure();
    let unlimited = Budget::unlimited();

    // Warm-up run doubles as a correctness check.
    let out = prog
        .try_eval_seminaive_with(&s, 0, &unlimited)
        .expect("unlimited budget cannot exhaust");
    assert_eq!(out.relation(0).len(), 512 * 511 / 2, "tc_path_512 output");

    // Batched min-of-N with early exit: the gate asks whether the
    // budgeted engine can still *reach* the baseline, so once a batch
    // minimum lands inside the threshold there is nothing left to
    // learn. A genuine regression never reaches it, however many
    // batches run; transient machine contention does.
    let threshold = baseline * (1.0 + MAX_OVERHEAD);
    let mut budgeted = f64::INFINITY;
    let mut batches = 0;
    while batches < MAX_BATCHES {
        batches += 1;
        let m = min_secs(BATCH, || {
            let _ = prog.try_eval_seminaive_with(&s, 0, &unlimited);
        });
        budgeted = budgeted.min(m);
        if budgeted <= threshold {
            break;
        }
    }
    let runs = batches * BATCH;
    // The unbudgeted entry point (now a delegation) measured alongside,
    // for the record: it should be indistinguishable from `budgeted`.
    let delegated = min_secs(BATCH, || {
        let _ = prog.eval_seminaive(&s);
    });

    let overhead = budgeted / baseline - 1.0;
    println!(
        "tc_path_512 indexed: baseline {baseline:.6}s, unlimited-budget {budgeted:.6}s \
         (min of {runs}), delegated {delegated:.6}s, overhead {:+.1}%",
        overhead * 100.0
    );

    assert!(
        budgeted <= baseline * (1.0 + MAX_OVERHEAD),
        "budget overhead gate failed: unlimited-budget run {budgeted:.6}s exceeds \
         baseline {baseline:.6}s by more than {:.0}%",
        MAX_OVERHEAD * 100.0
    );
    println!(
        "budget overhead gate passed (≤ {:.0}%)",
        MAX_OVERHEAD * 100.0
    );
}
