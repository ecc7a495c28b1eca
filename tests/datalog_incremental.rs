//! Property-based tests of the incremental Datalog runtime: random
//! shrinkable update traces replayed through `DatalogRuntime` must
//! agree with from-scratch semi-naive recomputation at every poll, at
//! one and at three worker threads. Failures are minimized with the
//! conformance harness's [`Shrinkable`] machinery before reporting, so
//! a red run prints a near-minimal trace ready to paste into a repro
//! case.

use fmt_conform::gen::{UpdateOp, UpdateTrace};
use fmt_conform::shrink::minimize;
use fmt_core::queries::datalog::Program;
use fmt_core::queries::incremental::DatalogRuntime;
use fmt_core::structures::{builders, Elem, Signature, StructureBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Programs spanning the shapes the runtime must maintain: linear
/// recursion, a bodiless rule with repeated head variables (never
/// drains), and the conformance anchor mix of binary/unary/nullary
/// IDBs with an unbound head variable.
const PROGRAMS: [&str; 3] = [
    "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).",
    "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).",
    "p(x, y) :- e(x, y). q(x) :- e(x, x). hit :- e(x, y). p(x, z) :- p(x, y), p(y, z). q(w) :- hit, e(x, x).",
];

/// From-scratch reference on the trace's current fact set.
fn scratch(prog: &Program, domain: u32, facts: &BTreeSet<(u32, u32)>) -> Vec<Vec<Vec<Elem>>> {
    let e = prog.signature().relation("E").unwrap();
    let mut b = StructureBuilder::new(prog.signature().clone(), domain);
    for &(u, v) in facts {
        b.add(e, &[u, v]).unwrap();
    }
    let out = prog.eval_seminaive(&b.build().unwrap());
    (0..prog.num_idbs())
        .map(|i| {
            let mut rows: Vec<Vec<Elem>> = out.relation(i).iter().collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Replays `trace` at 1 and 3 threads, comparing every poll against
/// scratch; `Some(note)` on the first divergence.
fn divergence(src: &str, trace: &UpdateTrace) -> Option<String> {
    let sig = Signature::graph();
    let prog = Program::parse(&sig, src).expect("test programs parse");
    let e = sig.relation("E").unwrap();
    let mut facts: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut rt1 = DatalogRuntime::new(prog.clone(), trace.domain).expect("negation-free");
    let mut rt3 = DatalogRuntime::new(prog.clone(), trace.domain).expect("negation-free");
    rt3.set_threads(3);
    for (step, op) in trace.ops.iter().enumerate() {
        match *op {
            UpdateOp::Insert(u, v) => {
                facts.insert((u, v));
                rt1.insert(e, &[u, v]);
                rt3.insert(e, &[u, v]);
            }
            UpdateOp::Retract(u, v) => {
                facts.remove(&(u, v));
                rt1.retract(e, &[u, v]);
                rt3.retract(e, &[u, v]);
            }
            UpdateOp::Poll => {
                rt1.poll();
                rt3.poll();
                let want = scratch(&prog, trace.domain, &facts);
                for (threads, rt) in [(1usize, &rt1), (3, &rt3)] {
                    for (i, rows) in want.iter().enumerate() {
                        let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
                        got.sort();
                        if got != *rows {
                            let (name, _) = prog.idb_info(i);
                            return Some(format!(
                                "{threads}-thread runtime diverges on {name} at op {step}"
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// A random trace: domain in `1..=5`, up to 24 ops biased toward
/// insertions, with a final poll appended.
fn arb_trace() -> impl Strategy<Value = UpdateTrace> {
    (
        1u32..=5,
        0usize..=24,
        proptest::collection::vec((0u32..5, 0u32..5, 0u32..10), 24),
    )
        .prop_map(|(domain, len, raw)| {
            let mut ops: Vec<UpdateOp> = raw
                .into_iter()
                .take(len)
                .map(|(u, v, kind)| {
                    let (u, v) = (u % domain, v % domain);
                    match kind {
                        0..=4 => UpdateOp::Insert(u, v),
                        5..=7 => UpdateOp::Retract(u, v),
                        _ => UpdateOp::Poll,
                    }
                })
                .collect();
            ops.push(UpdateOp::Poll);
            UpdateTrace { domain, ops }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trace equivalence across all three program shapes, shrunk with
    /// the conformance minimizer on failure.
    #[test]
    fn runtime_matches_scratch_at_1_and_3_threads(
        trace in arb_trace(),
        prog_i in 0usize..3,
    ) {
        let src = PROGRAMS[prog_i];
        if let Some(note) = divergence(src, &trace) {
            let (min, _) = minimize(
                trace.clone(),
                &mut |t: &UpdateTrace| divergence(src, t).is_some(),
                2_000,
            );
            let min_note = divergence(src, &min).unwrap_or(note);
            panic!(
                "incremental runtime diverged: {min_note}\n\
                 program: {src}\n\
                 domain: {} trace: {}",
                min.domain,
                min.to_compact()
            );
        }
    }

    /// Retracting every inserted edge must drain the IDBs back to
    /// exactly their empty-EDB extents (empty for TC; `sg(x, x)` and
    /// nothing else for the bodiless-rule program).
    #[test]
    fn retract_everything_drains_idbs(
        pool in proptest::collection::vec((0u32..4, 0u32..4), 16),
        len in 1usize..=16,
        prog_i in 0usize..3,
    ) {
        let edges: Vec<(u32, u32)> = pool.into_iter().take(len).collect();
        let sig = Signature::graph();
        let prog = Program::parse(&sig, PROGRAMS[prog_i]).unwrap();
        let e = sig.relation("E").unwrap();
        let mut rt = DatalogRuntime::new(prog.clone(), 4).expect("negation-free");
        for &(u, v) in &edges {
            rt.insert(e, &[u, v]);
        }
        rt.poll();
        for &(u, v) in &edges {
            rt.retract(e, &[u, v]);
        }
        rt.poll();
        prop_assert!(rt.edb(e).is_empty(), "EDB not drained");
        let want = scratch(&prog, 4, &BTreeSet::new());
        for (i, rows) in want.iter().enumerate() {
            let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
            got.sort();
            prop_assert_eq!(&got, rows, "IDB {} not drained to its empty-EDB extent", i);
        }
    }
}

/// The incremental runtime does not yet maintain stratified negation;
/// it must refuse such programs with a typed, spannable error — never
/// accept them and silently compute wrong extents, never panic.
#[test]
fn negated_programs_are_rejected_with_a_typed_error() {
    let sig = Signature::graph();
    let src = "t(x, y) :- e(x, y). nt(x, y) :- e(x, y), !t(y, x).";
    let prog = Program::parse(&sig, src).unwrap();

    let err = DatalogRuntime::new(prog.clone(), 3).expect_err("negation must be rejected");
    assert_eq!((err.rule, err.atom), (1, 1), "points at the negated atom");
    assert_eq!(err.pred, "t");
    assert!(
        err.to_string().contains("does not support negation"),
        "got: {err}"
    );

    let s = StructureBuilder::new(sig, 3).build().unwrap();
    let err2 = DatalogRuntime::from_structure(prog, &s).expect_err("from_structure too");
    assert_eq!((err2.rule, err2.atom), (1, 1));
}

/// A chain rule with 130 distinct variables and an 11-column head:
/// binding restore must reach variables past 128, and head tuples wider
/// than the kernel's stack buffer must spill to the heap — in the
/// runtime exactly as in the batch engine, at one and three threads,
/// through the first poll and through a DRed retraction.
#[test]
fn wide_chain_rule_matches_the_batch_engine() {
    let sig = Signature::graph();
    let e = sig.relation("E").unwrap();
    let head: Vec<String> = (0..10)
        .map(|i| format!("x{i}"))
        .chain(["x129".to_owned()])
        .collect();
    let body: Vec<String> = (0..129).map(|i| format!("e(x{i}, x{})", i + 1)).collect();
    let src = format!("p({}) :- {}.", head.join(", "), body.join(", "));
    let prog = Program::parse(&sig, &src).unwrap();
    let p = prog.idb("p").unwrap();

    let s = builders::directed_path(200);
    let cut = [100, 101];
    let mut b = StructureBuilder::new(sig.clone(), 200);
    for t in s.rel(e).iter().filter(|&t| t != cut) {
        b.add(e, t).unwrap();
    }
    let s_cut = b.build().unwrap();

    let want = prog.eval_seminaive_with(&s, 1);
    let want_cut = prog.eval_seminaive_with(&s_cut, 1);
    assert_eq!(want.relation(p).len(), 71, "chains start at 0..=70");
    assert!(
        want_cut.relation(p).is_empty(),
        "no 129-edge chain avoids the cut"
    );
    for threads in [1, 3] {
        let mut rt = DatalogRuntime::from_structure(prog.clone(), &s).unwrap();
        rt.set_threads(threads);
        rt.poll();
        assert_eq!(rt.query(p), want.relation(p), "threads = {threads}");
        rt.retract(e, &cut);
        rt.poll();
        assert_eq!(rt.query(p), want_cut.relation(p), "threads = {threads}");
    }
}

/// The runtime's first poll is batch evaluation over its own stores:
/// the same rows in the same order as `eval_seminaive_with` at the same
/// thread count, `derived` the sum of the delta history, and `rounds`
/// counted as `Output::iterations` counts them (the init pass is one).
#[test]
fn first_poll_is_batch_evaluation() {
    let sig = Signature::graph();
    let programs = [
        PROGRAMS[0],
        PROGRAMS[1],
        "p(x, y) :- e(x, y). q(x, z) :- p(x, y), p(y, z).",
        "ev(x, x). od(x, y) :- ev(x, z), e(z, y). ev(x, y) :- od(x, z), e(z, y).",
    ];
    let structures = [
        builders::directed_path(9),
        builders::full_binary_tree(3),
        builders::directed_cycle(5),
    ];
    for src in programs {
        let prog = Program::parse(&sig, src).unwrap();
        for s in &structures {
            for threads in [1, 3] {
                let want = prog.eval_seminaive_with(s, threads);
                let mut rt = DatalogRuntime::from_structure(prog.clone(), s).unwrap();
                rt.set_threads(threads);
                let stats = rt.poll();
                let case = format!("{src} | {} elements | {threads} threads", s.size());
                for i in 0..prog.num_idbs() {
                    let got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
                    let rows: Vec<Vec<Elem>> = want.relation(i).iter().collect();
                    assert_eq!(got, rows, "{case}: IDB {i} rows");
                }
                let history: u64 = want.delta_history.iter().sum();
                assert_eq!(stats.derived, history, "{case}: derived");
                assert_eq!(stats.rounds, want.iterations as u64, "{case}: rounds");
            }
        }
    }
}
