//! Parallel EF game solving.
//!
//! The top level of the game tree is embarrassingly parallel: the
//! duplicator wins `Gₙ(A, B)` iff **every** spoiler first move has a
//! winning reply, and those first moves are independent. This module
//! fans the first moves out over scoped threads via
//! [`fmt_structures::par::fan_out`] (each worker owns its own memoized
//! [`EfSolver`]), with early cancellation as soon as one unanswerable
//! move is found.
//!
//! Worth it only when single positions are expensive (larger
//! structures, deeper games); the `ef_games` bench compares. Results
//! are bit-for-bit identical to the serial solver (asserted in tests).

use crate::solver::{EfSolver, Side};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::par::fan_out;
use fmt_structures::{Elem, Structure};
use std::sync::atomic::{AtomicBool, Ordering};

/// First moves actually examined by workers (at most `|A| + |B|` per
/// call; fewer when a refutation cancels the rest).
static OBS_FIRST_MOVES: fmt_obs::Counter = fmt_obs::Counter::new("games.parallel.first_moves");
static OBS_CANCELLED: fmt_obs::Counter = fmt_obs::Counter::new("games.parallel.cancellations");

/// Decides `A ∼Gₙ B` with the top layer of spoiler moves evaluated in
/// parallel across `threads` workers.
///
/// # Panics
/// Panics if `threads == 0` or the signatures differ.
pub fn duplicator_wins_parallel(a: &Structure, b: &Structure, rounds: u32, threads: usize) -> bool {
    try_duplicator_wins_parallel(a, b, rounds, threads, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// Budgeted [`duplicator_wins_parallel`]: all workers share `budget`
/// (one clone each), so fuel exhaustion or external cancellation stops
/// every shard cooperatively.
///
/// A refutation wins over exhaustion: if any worker finds an
/// unanswerable spoiler move the answer is definitively `Ok(false)`,
/// even when other shards ran out of budget.
///
/// # Panics
/// Panics if `threads == 0` or the signatures differ.
pub fn try_duplicator_wins_parallel(
    a: &Structure,
    b: &Structure,
    rounds: u32,
    threads: usize,
    budget: &Budget,
) -> BudgetResult<bool> {
    assert!(threads >= 1);
    assert_eq!(
        a.signature(),
        b.signature(),
        "games need a common signature"
    );
    let mut span =
        fmt_obs::trace_span!("games.parallel.search", rounds = rounds, threads = threads);
    if rounds == 0 {
        return Ok(fmt_structures::partial::is_partial_isomorphism(a, b, &[]));
    }
    if !fmt_structures::partial::is_partial_isomorphism(a, b, &[]) {
        span.record_field("win", false);
        return Ok(false);
    }
    // All first moves (fresh-move pruning applies trivially: nothing has
    // been played, so every element is fresh).
    let mut moves: Vec<(Side, Elem)> = Vec::with_capacity((a.size() + b.size()) as usize);
    moves.extend(a.domain().map(|x| (Side::Left, x)));
    moves.extend(b.domain().map(|y| (Side::Right, y)));
    span.record_field("moves", moves.len());
    if moves.is_empty() {
        span.record_field("win", true);
        return Ok(true); // both empty: isomorphic
    }

    let refuted = AtomicBool::new(false);
    // Each chunk reports Ok(true) = all moves answered, Ok(false) = a
    // refutation was found, Err = budget exhausted mid-chunk.
    let outcomes: Vec<BudgetResult<bool>> = fan_out(threads, &moves, |work| {
        let mut chunk_span = fmt_obs::trace_span!("games.parallel.chunk", moves = work.len());
        let mut solver = EfSolver::with_budget(a, b, budget.clone());
        let mut examined = 0u64;
        for &(side, x) in work {
            if refuted.load(Ordering::Relaxed) {
                OBS_CANCELLED.incr();
                chunk_span.record_field("examined", examined);
                return Ok(true);
            }
            OBS_FIRST_MOVES.incr();
            examined += 1;
            if solver
                .try_reply_for(&initial_pairs(a, b), rounds, side, x)?
                .is_none()
            {
                refuted.store(true, Ordering::Relaxed);
                chunk_span.record_field("examined", examined);
                return Ok(false);
            }
        }
        chunk_span.record_field("examined", examined);
        Ok(true)
    });
    if refuted.load(Ordering::Relaxed) {
        span.record_field("win", false);
        return Ok(false);
    }
    // Workers can run dry concurrently, each seeing its own tick count;
    // report the tick that first ran past the budget, not whichever
    // worker's chunk comes first.
    if let Some(e) = outcomes
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|e| e.spent)
    {
        return Err(e);
    }
    span.record_field("win", true);
    Ok(true)
}

fn initial_pairs(a: &Structure, b: &Structure) -> Vec<(Elem, Elem)> {
    let mut pairs: Vec<(Elem, Elem)> = a
        .constants()
        .iter()
        .zip(b.constants())
        .map(|(&x, &y)| (x, y))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Parallel version of [`crate::solver::rank`].
pub fn rank_parallel(a: &Structure, b: &Structure, cap: u32, threads: usize) -> u32 {
    try_rank_parallel(a, b, cap, threads, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// Budgeted [`rank_parallel`].
pub fn try_rank_parallel(
    a: &Structure,
    b: &Structure,
    cap: u32,
    threads: usize,
    budget: &Budget,
) -> BudgetResult<u32> {
    for n in 1..=cap {
        if !try_duplicator_wins_parallel(a, b, n, threads, budget)? {
            return Ok(n - 1);
        }
    }
    Ok(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::rank;
    use fmt_structures::builders;

    #[test]
    fn agrees_with_serial_on_orders() {
        for m in 1..=8u32 {
            for k in 1..=8u32 {
                for n in 1..=3u32 {
                    let a = builders::linear_order(m);
                    let b = builders::linear_order(k);
                    let serial = EfSolver::new(&a, &b).duplicator_wins(n);
                    for threads in [1, 2, 4] {
                        assert_eq!(
                            duplicator_wins_parallel(&a, &b, n, threads),
                            serial,
                            "L_{m} vs L_{k}, n = {n}, threads = {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_serial_on_graphs() {
        let pairs = [
            (
                builders::copies(&builders::undirected_cycle(3), 2),
                builders::undirected_cycle(6),
            ),
            (builders::directed_path(6), builders::directed_cycle(6)),
            (builders::set(4), builders::set(6)),
        ];
        for (a, b) in &pairs {
            for n in 1..=3u32 {
                assert_eq!(
                    duplicator_wins_parallel(a, b, n, 4),
                    EfSolver::new(a, b).duplicator_wins(n)
                );
            }
        }
    }

    #[test]
    fn rank_parallel_matches() {
        let a = builders::linear_order(7);
        let b = builders::linear_order(9);
        assert_eq!(rank_parallel(&a, &b, 4, 3), rank(&a, &b, 4));
    }

    #[test]
    fn degenerate_cases() {
        let e = builders::set(0);
        assert!(duplicator_wins_parallel(&e, &e, 3, 2));
        let one = builders::set(1);
        assert!(!duplicator_wins_parallel(&e, &one, 1, 2));
        assert!(duplicator_wins_parallel(&one, &one, 0, 2));
    }

    #[test]
    fn constants_respected() {
        use fmt_structures::{Signature, StructureBuilder};
        let sig = Signature::builder()
            .relation("E", 2)
            .constant("c")
            .finish_arc();
        let e = sig.relation("E").unwrap();
        let c = sig.constant("c").unwrap();
        let mk = |cval| {
            let mut b = StructureBuilder::new(sig.clone(), 3);
            b.add(e, &[0, 1]).unwrap();
            b.set_constant(c, cval);
            b.build().unwrap()
        };
        let a = mk(0);
        let b = mk(2);
        assert!(!duplicator_wins_parallel(&a, &b, 1, 2));
        let b2 = mk(0);
        assert!(duplicator_wins_parallel(&a, &b2, 3, 2));
    }
}
