//! The in-process mirror of a CLI request: the public library calls
//! `fmtk` makes for it, in `fmtk`'s order, each wrapped in a layer span.
//! Rendering and writing the output are left out; they are what
//! `cli.unattributed_ms` measures.

use crate::gen::{Plan, Request, Task, GAME_ROUNDS, MU_SENTENCES};
use crate::oracle::{self, Census};
use crate::trace::Tracer;
use fmt_core::games::{play::optimal_play, solver::try_rank};
use fmt_core::locality::{TypeCensus, TypeRegistry};
use fmt_core::logic::parser as fo_parser;
use fmt_core::queries::datalog::{Output, Program};
use fmt_core::queries::magic;
use fmt_core::structures::budget::Budget;
use fmt_core::structures::{parse as sparse, Signature};
use fmt_core::zeroone;
use std::collections::HashMap;

/// A request's answer in the form the oracles compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// `tc` tuples, or goal answers, sorted.
    Pairs(Vec<(u32, u32)>),
    /// Capped rank and whether the duplicator survives rank + 1 rounds.
    Game(u32, bool),
    Census(Census),
    Mu(bool),
}

/// The answer `fmtk` printed, parsed from its standard output.
pub fn parse_reply(task: &Task, out: &str) -> Option<Answer> {
    match task {
        Task::Materialize { .. } => oracle::parse_listing(out, "tc").map(Answer::Pairs),
        Task::PointQuery { .. } => oracle::parse_answers(out).map(Answer::Pairs),
        Task::Game { .. } => oracle::parse_game(out).map(|(r, s)| Answer::Game(r, s)),
        Task::Census { .. } => oracle::parse_census(out).map(Answer::Census),
        Task::Mu { .. } => oracle::parse_mu(out).map(Answer::Mu),
    }
}

/// Checks answers against the oracles, caching the expensive expected
/// values (closures) per input.
#[derive(Debug)]
pub struct Checker<'a> {
    plan: &'a Plan,
    expected: HashMap<Task, Vec<(u32, u32)>>,
    adjacency: Option<Vec<Vec<u32>>>,
}

impl<'a> Checker<'a> {
    pub fn new(plan: &'a Plan) -> Checker<'a> {
        Checker {
            plan,
            expected: HashMap::new(),
            adjacency: None,
        }
    }

    pub fn check(&mut self, task: &Task, answer: &Answer) -> bool {
        let plan = self.plan;
        match (task, answer) {
            (Task::Materialize { graph }, Answer::Pairs(got)) => {
                let want = self
                    .expected
                    .entry(task.clone())
                    .or_insert_with(|| oracle::closure(&plan.graphs[*graph].adjacency()));
                got == want
            }
            (Task::PointQuery { source }, Answer::Pairs(got)) => {
                let adj = self
                    .adjacency
                    .get_or_insert_with(|| plan.graphs[0].adjacency());
                let want = self.expected.entry(task.clone()).or_insert_with(|| {
                    oracle::reach_from(adj, *source)
                        .into_iter()
                        .map(|v| (*source, v))
                        .collect()
                });
                got == want
            }
            (Task::Game { m, k }, Answer::Game(rank, survived)) => {
                oracle::game_expect(*m, *k, GAME_ROUNDS) == (*rank, *survived)
            }
            (Task::Census { graph }, Answer::Census(c)) => {
                oracle::census_consistent(&plan.graphs[*graph], crate::gen::CENSUS_RADIUS, c)
            }
            (Task::Mu { sentence }, Answer::Mu(mu)) => MU_SENTENCES[*sentence].1 == *mu,
            _ => false,
        }
    }
}

/// What a mirrored request returns before it is turned into an
/// [`Answer`] (outside the request span).
pub enum Raw {
    Datalog(Output, usize),
    Answers(Vec<Vec<u32>>),
    Game(u32, bool),
    Census(TypeCensus, TypeRegistry),
    Mu(bool),
}

impl Raw {
    pub fn answer(self) -> Answer {
        let pairs = |rows: &mut dyn Iterator<Item = (u32, u32)>| {
            let mut v: Vec<(u32, u32)> = rows.collect();
            v.sort_unstable();
            Answer::Pairs(v)
        };
        match self {
            Raw::Datalog(out, idb) => pairs(&mut out.relation(idb).iter().map(|t| (t[0], t[1]))),
            Raw::Answers(rows) => pairs(&mut rows.iter().map(|t| (t[0], t[1]))),
            Raw::Game(r, s) => Answer::Game(r, s),
            Raw::Census(census, reg) => {
                let mut rows: Vec<(usize, usize)> = census
                    .iter()
                    .map(|(t, c)| (c, reg.representative(t).size() as usize))
                    .collect();
                rows.sort_unstable();
                Answer::Census(Census {
                    elements: census.total(),
                    rows,
                })
            }
            Raw::Mu(mu) => Answer::Mu(mu),
        }
    }
}

/// The contents of the work-directory file `name`.
fn file<'p>(plan: &'p Plan, name: &str) -> &'p str {
    plan.files
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.as_str())
        .expect("requests name generated files")
}

fn parse_structure(tr: &mut Tracer, text: &str) -> Result<fmt_core::structures::Structure, String> {
    tr.layer("structures.parse_ms", || sparse::parse(text))
        .map_err(|e| e.to_string())
}

/// Split off a trailing goal clause and parse the rules, as `fmtk
/// datalog` does.
fn parse_program(sig: &std::sync::Arc<Signature>, src: &str) -> Result<Program, String> {
    let split = magic::split_query(src).map_err(|e| e.message)?;
    let body = split.as_ref().map_or(src, |(len, _)| &src[..*len]);
    Ok(Program::parse_spanned(sig, body)
        .map_err(|e| e.message)?
        .program)
}

fn note_eval(tr: &mut Tracer, prog: &Program, out: &Output) {
    let tuples: usize = (0..prog.num_idbs()).map(|i| out.relation(i).len()).sum();
    tr.note("datalog.derivations", out.derivations);
    tr.note("datalog.rounds", out.iterations as u64);
    tr.note("datalog.output_tuples", tuples as u64);
}

/// Runs `req` in-process under the open request span of `tr`.
pub fn run(plan: &Plan, req: &Request, tr: &mut Tracer) -> Result<Raw, String> {
    let budget = Budget::unlimited();
    let threads = plan.workload.threads();
    match &req.task {
        Task::Materialize { .. } => {
            let s = parse_structure(tr, file(plan, &req.args[1]))?;
            let prog = tr.layer("queries.parse_ms", || {
                parse_program(s.signature(), file(plan, &req.args[2]))
            })?;
            let out = tr
                .layer("datalog.eval_ms", || {
                    prog.try_eval_seminaive_with(&s, threads, &budget)
                })
                .map_err(|e| e.to_string())?;
            note_eval(tr, &prog, &out);
            let tc = prog.idb("tc").ok_or("no tc predicate")?;
            Ok(Raw::Datalog(out, tc))
        }
        Task::PointQuery { .. } => {
            let s = parse_structure(tr, file(plan, &req.args[1]))?;
            let goal_text = &req.args[req.args.len() - 1];
            let (prog, goal) = tr.layer("queries.parse_ms", || {
                let prog = parse_program(s.signature(), file(plan, &req.args[2]))?;
                let goal = magic::parse_goal(goal_text).map_err(|e| e.message)?;
                Ok::<_, String>((prog, goal))
            })?;
            let (mq, es) = tr
                .layer("magic.rewrite_ms", || {
                    magic::rewrite(&prog, &goal).map(|mq| {
                        let es = mq.prepare(&s);
                        (mq, es)
                    })
                })
                .map_err(|e| e.to_string())?;
            let out = tr
                .layer("datalog.eval_ms", || {
                    mq.program.try_eval_seminaive_with(&es, threads, &budget)
                })
                .map_err(|e| e.to_string())?;
            note_eval(tr, &mq.program, &out);
            let answers = tr.layer("magic.answers_ms", || mq.answers(&s, &out));
            tr.note("magic.answers", answers.len() as u64);
            Ok(Raw::Answers(answers))
        }
        Task::Game { .. } => {
            let a = parse_structure(tr, file(plan, &req.args[1]))?;
            let b = parse_structure(tr, file(plan, &req.args[2]))?;
            let rank = tr
                .layer("games.rank_ms", || try_rank(&a, &b, GAME_ROUNDS, &budget))
                .map_err(|e| e.to_string())?;
            let trace = tr.layer("games.optimal_play_ms", || optimal_play(&a, &b, rank + 1));
            Ok(Raw::Game(rank, trace.duplicator_survived))
        }
        Task::Census { .. } => {
            let s = parse_structure(tr, file(plan, &req.args[1]))?;
            let mut reg = TypeRegistry::new();
            let census = tr.layer("locality.census_ms", || {
                TypeCensus::compute(&s, crate::gen::CENSUS_RADIUS, &mut reg)
            });
            let max_ball = census
                .iter()
                .map(|(t, _)| u64::from(reg.representative(t).size()))
                .max()
                .unwrap_or(0);
            tr.note("locality.max_ball_size", max_ball);
            Ok(Raw::Census(census, reg))
        }
        Task::Mu { sentence } => {
            let sig = Signature::graph();
            let f =
                fo_parser::parse_formula(&sig, MU_SENTENCES[*sentence].0).map_err(|e| e.message)?;
            Ok(Raw::Mu(tr.layer("zeroone.decide_mu_ms", || {
                zeroone::decide_mu(&sig, &f)
            })))
        }
    }
}

/// One pass of the mirror over the plan's request cycle: per-request
/// wall times in ms and the number of requests whose answer failed.
/// Request ids start at `first_id`.
pub fn pass(
    plan: &Plan,
    checker: &mut Checker,
    tr: &mut Tracer,
    first_id: usize,
) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(plan.cycle.len());
    let mut failed = 0;
    for (i, req) in plan.cycle.iter().enumerate() {
        tr.begin(first_id + i, crate::trace::REQUEST);
        let raw = run(plan, req, tr);
        times.push(tr.end());
        if !raw.is_ok_and(|r| checker.check(&req.task, &r.answer())) {
            failed += 1;
        }
    }
    (times, failed)
}
