//! A Datalog engine with naive, semi-naive, and indexed/parallel
//! semi-naive evaluation.
//!
//! The survey's same-generation example is a Datalog program:
//!
//! ```text
//! sg(x, x).
//! sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).
//! ```
//!
//! On a full binary tree of depth `d` its output realizes all degrees
//! `1, 2, 4, …, 2^d` — violating the BNDP, hence not FO-definable
//! (experiment E7). Transitive closure is the other canonical fixpoint
//! query. Both ship as ready-made [`Program`]s; arbitrary programs can
//! be parsed from the textual syntax above.
//!
//! Semantics notes:
//!
//! * EDB predicates are the relations of the input structure, matched
//!   by name case-insensitively (`e` ↦ relation `E`);
//! * nullary predicates are written `p` or `p()`;
//! * head variables not bound by the body range over the **whole
//!   domain** (the paper's `sg(x, x) :-` fact means "for every element
//!   x"), which relaxes the usual range-restriction requirement;
//! * [`Program::eval_naive`] recomputes all rules to fixpoint;
//!   [`Program::eval_seminaive`] focuses each recursive rule on the
//!   latest delta — same fixpoint, far fewer rule instantiations.
//!
//! Evaluation engine (see `docs/join-engine.md` and `docs/storage.md`):
//! rule bodies are joined in a greedy order (most-bound,
//! smallest-extent atom first) and bound-position lookups probe hash
//! indexes from [`fmt_structures::index`] instead of rescanning
//! extents; semi-naive rounds fan the per-rule delta applications out
//! across scoped worker threads in contiguous delta chunks. IDB extents
//! live in columnar [`TupleStore`] arenas, and each EDB relation is
//! loaded into one per evaluation: the kernel walks `u32` row ids and
//! per-column slices, deltas are row-id lists into the growing stores,
//! and the steady-state join loop performs no per-derived-tuple heap
//! allocation. The one planner (`plan_rule`), the one kernel
//! (`ExecCtx`) and the one round loop (`Fixpoint`) serve the naive and
//! semi-naive engines here and the incremental runtime; the planner
//! also gives the magic-sets rewriter its SIP order. The
//! original written-order nested-loop evaluator survives as
//! [`Program::eval_seminaive_scan`] — the baseline the `datalog` bench
//! and the `queries.index.*` counters are compared against, still on
//! the old `HashSet<Vec<Elem>>` representation as a differential
//! oracle.

use fmt_structures::budget::{Budget, BudgetResult, Exhausted};
use fmt_structures::index::{self, ColumnIndex};
use fmt_structures::par::fan_out;
use fmt_structures::store::{self, TupleStore};
use fmt_structures::{Elem, Interner, RelId, Signature, Span, Structure};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// Budget tick site label shared by all three Datalog engines.
const AT: &str = "queries.datalog";

/// Fixpoint rounds of every engine, the incremental runtime's included
/// (an init pass counts as one round, mirroring `Output::iterations`).
static OBS_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.rounds");
/// New facts discovered across all fixpoint rounds.
static OBS_DELTA_FACTS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.delta_facts");
/// New facts per fixpoint round (the engine's termination signal).
static OBS_DELTA_SIZE: fmt_obs::Histogram = fmt_obs::Histogram::new("queries.datalog.delta_size");
/// Fixpoint rounds of the naive reference evaluator.
static OBS_NAIVE_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.naive_rounds");
/// Tuples visited by the written-order nested-loop join of the scan
/// evaluator ([`Program::eval_seminaive_scan`]) — the "old scan
/// counter" the indexed engine's `queries.index.probes` is measured
/// against.
static OBS_SCAN_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.scan_tuples");
/// Rule×delta applications dispatched to parallel workers.
static OBS_PAR_JOBS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.parallel_jobs");

/// A Datalog variable (local to a rule).
type DlVar = u32;

/// A predicate: either an input relation (EDB) or a derived one (IDB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// An EDB predicate: a relation of the input structure.
    Edb(RelId),
    /// An IDB predicate, by index into the program's IDB table.
    Idb(usize),
}

/// An atom `p(v₁, …, vₖ)` in a rule (variables only; repeated variables
/// express equality constraints). A body atom may be negated (`!p(x)`
/// or `not p(x)`), read as stratified set difference: the tuple must be
/// **absent** from the predicate's completed lower-stratum extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The predicate.
    pub pred: Pred,
    /// Argument variables.
    pub args: Vec<DlVar>,
    /// `true` for a negated body atom (heads are never negated).
    pub negated: bool,
}

/// A rule `head :- body₁, …, bodyₖ` (empty body = a fact schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom (always an IDB predicate).
    pub head: Atom,
    /// The body atoms.
    pub body: Vec<Atom>,
}

/// A validated Datalog program over a fixed input signature.
#[derive(Debug, Clone)]
pub struct Program {
    sig: std::sync::Arc<Signature>,
    idb_names: Vec<String>,
    idb_arity: Vec<usize>,
    rules: Vec<Rule>,
}

/// The result of evaluating a program: one tuple set per IDB predicate,
/// plus work counters.
#[derive(Debug, Clone)]
pub struct Output {
    relations: Vec<TupleStore>,
    /// Fixpoint iterations performed.
    pub iterations: usize,
    /// Tuples produced across all rule applications (incl. duplicates).
    pub derivations: u64,
    /// New facts added per fixpoint round (summed over all IDB
    /// predicates), including the final round that added nothing. The
    /// perf harness uses this to model the scan engine's cost exactly.
    pub delta_history: Vec<u64>,
}

impl Output {
    /// The tuples of an IDB predicate, as a columnar [`TupleStore`]
    /// (set semantics live in its `PartialEq`; iterate for the rows).
    pub fn relation(&self, idb: usize) -> &TupleStore {
        &self.relations[idb]
    }
}

pub(crate) fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A Datalog parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogParseError {
    /// Byte offset into the source at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
    /// Byte range of the offending clause, atom, or name
    /// (`offset == span.start`).
    pub span: Span,
}

impl DatalogParseError {
    pub(crate) fn new(span: Span, message: impl Into<String>) -> DatalogParseError {
        DatalogParseError {
            offset: span.start,
            message: message.into(),
            span,
        }
    }
}

impl std::fmt::Display for DatalogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DatalogParseError {}

/// Why a budgeted evaluation stopped without an [`Output`]: either the
/// budget ran out mid-fixpoint, or the stratification precheck rejected
/// the program statically — before a single tuple was derived.
///
/// The static cases mirror the `fmt-lint` codes D006 and D007 exactly:
/// a program the linter flags as unstratifiable (D006) or unsafely
/// negated (D007) produces the matching typed error from every engine,
/// never a panic, and vice versa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The budget ran out (see [`Exhausted`]); no partial output is
    /// left behind.
    Exhausted(Exhausted),
    /// A negated body atom lies inside a recursive component of the
    /// predicate dependency graph, so no stratification exists
    /// (lint code D006).
    Unstratifiable {
        /// Rule index of the offending negative dependency edge.
        rule: usize,
        /// Body-atom index of the negated atom inducing it.
        atom: usize,
        /// Name of the negated predicate.
        pred: String,
        /// IDB predicate names of the recursive component the edge
        /// closes, for diagnostics.
        cycle: Vec<String>,
    },
    /// A negated body atom uses a variable that no positive body atom
    /// of the same rule binds (lint code D007).
    UnsafeNegation {
        /// Rule index.
        rule: usize,
        /// Body-atom index of the negated atom.
        atom: usize,
        /// The unbound variable as a rule-local id;
        /// [`ParsedProgram::var_names`] maps it back to its source name.
        var: u32,
    },
}

impl EvalError {
    /// Unwraps the [`EvalError::Exhausted`] case. Panics on the static
    /// stratification errors — for callers that know their program is
    /// negation-free and only budget exhaustion is possible.
    pub fn into_exhausted(self) -> Exhausted {
        match self {
            EvalError::Exhausted(e) => e,
            other => panic!("static evaluation error on a supposedly clean program: {other}"),
        }
    }
}

impl From<Exhausted> for EvalError {
    fn from(e: Exhausted) -> EvalError {
        EvalError::Exhausted(e)
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Exhausted(e) => e.fmt(f),
            EvalError::Unstratifiable {
                rule, pred, cycle, ..
            } => write!(
                f,
                "program is not stratifiable: rule {} negates {} inside the recursive component {{{}}}",
                rule,
                pred,
                cycle.join(", ")
            ),
            EvalError::UnsafeNegation { rule, atom, .. } => write!(
                f,
                "unsafe negation: rule {rule}, body atom {atom} uses a variable no positive atom binds"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Byte spans of one atom: the whole atom, the predicate name, and
/// each argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpans {
    /// The whole atom, `p(x, y)`.
    pub span: Span,
    /// The predicate name.
    pub pred: Span,
    /// One span per argument, aligned with [`Atom::args`].
    pub args: Vec<Span>,
}

/// Byte spans of one rule, aligned with the corresponding [`Rule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpans {
    /// The whole rule, excluding the terminating `.`.
    pub span: Span,
    /// The head atom.
    pub head: AtomSpans,
    /// The body atoms, in order.
    pub body: Vec<AtomSpans>,
}

/// The result of [`Program::parse_spanned`]: the program plus the byte
/// span and source variable names of every rule — the location
/// substrate for `fmt-lint`'s Datalog diagnostics.
#[derive(Debug, Clone)]
pub struct ParsedProgram {
    /// The parsed program.
    pub program: Program,
    /// `spans[i]` mirrors `program.rules()[i]`.
    pub spans: Vec<RuleSpans>,
    /// `var_names[i][v]` is the source name of rule `i`'s variable `v`.
    pub var_names: Vec<Vec<String>>,
}

/// Shrinks a span to the non-whitespace core of the text it covers.
pub(crate) fn trim_span(src: &str, span: Span) -> Span {
    let s = span.slice(src);
    let start = span.start + (s.len() - s.trim_start().len());
    Span::new(start, start + s.trim().len())
}

impl Program {
    /// Parses a program; each line is `head :- a1, a2, ... .` or a
    /// body-less `head.` / `head :- .`. Predicates matching a relation
    /// name of `sig` (case-insensitively) are EDB; all others must
    /// appear in some head and are IDB. Nullary atoms are written `p`
    /// or `p()`. Errors are flattened to strings; see
    /// [`Program::parse_spanned`] for positions and spans.
    pub fn parse(sig: &std::sync::Arc<Signature>, src: &str) -> Result<Program, String> {
        Program::parse_spanned(sig, src)
            .map(|p| p.program)
            .map_err(|e| e.to_string())
    }

    /// Parses a program, returning it together with the byte span of
    /// every rule, atom, predicate name, and argument, plus the
    /// per-rule variable-name tables. Every error carries the byte
    /// range it was detected at.
    pub fn parse_spanned(
        sig: &std::sync::Arc<Signature>,
        src: &str,
    ) -> Result<ParsedProgram, DatalogParseError> {
        struct RawAtom {
            pred: String,
            args: Vec<String>,
            negated: bool,
            span: Span,
            pred_span: Span,
            arg_spans: Vec<Span>,
        }
        fn parse_atom(src: &str, span: Span) -> Result<RawAtom, DatalogParseError> {
            // A `!` or `not ` prefix marks a negated atom; the atom's
            // span keeps the prefix so diagnostics underline all of
            // `!p(x)`, while the predicate and argument spans come from
            // the bare atom after it.
            let outer = trim_span(src, span);
            let prefix = outer.slice(src);
            let (negated, span) = if prefix.starts_with('!') {
                (true, trim_span(src, Span::new(outer.start + 1, outer.end)))
            } else if prefix.len() > 3
                && prefix.starts_with("not")
                && prefix.as_bytes()[3].is_ascii_whitespace()
            {
                (true, trim_span(src, Span::new(outer.start + 3, outer.end)))
            } else {
                (false, outer)
            };
            let t = span.slice(src);
            let Some(open) = t.find('(') else {
                // No argument list at all: a nullary atom, provided the
                // whole token is a plain identifier.
                if is_ident(t) {
                    return Ok(RawAtom {
                        pred: t.to_owned(),
                        args: Vec::new(),
                        negated,
                        span: outer,
                        pred_span: span,
                        arg_spans: Vec::new(),
                    });
                }
                return Err(DatalogParseError::new(
                    span,
                    format!("missing '(' in {t:?}"),
                ));
            };
            let close = t
                .rfind(')')
                .filter(|&c| c > open)
                .ok_or_else(|| DatalogParseError::new(span, format!("missing ')' in {t:?}")))?;
            let pred_span = trim_span(src, Span::new(span.start, span.start + open));
            let pred = pred_span.slice(src).to_owned();
            if pred.is_empty() {
                return Err(DatalogParseError::new(
                    Span::point(span.start + open),
                    format!("empty predicate name in {t:?}"),
                ));
            }
            let inner_span = trim_span(src, Span::new(span.start + open + 1, span.start + close));
            let mut args = Vec::new();
            let mut arg_spans = Vec::new();
            if !inner_span.is_empty() {
                // Split the argument list on commas (atoms are flat).
                let inner = inner_span.slice(src);
                let bytes = inner.as_bytes();
                let mut piece_start = inner_span.start;
                for i in 0..=bytes.len() {
                    if i < bytes.len() && bytes[i] != b',' {
                        continue;
                    }
                    let a = trim_span(src, Span::new(piece_start, inner_span.start + i));
                    if a.is_empty() {
                        return Err(DatalogParseError::new(
                            a,
                            format!("empty argument in {t:?}"),
                        ));
                    }
                    args.push(a.slice(src).to_owned());
                    arg_spans.push(a);
                    piece_start = inner_span.start + i + 1;
                }
            }
            Ok(RawAtom {
                pred,
                args,
                negated,
                span: outer,
                pred_span,
                arg_spans,
            })
        }

        // Split on '.' (a missing final dot is tolerated), keeping the
        // byte range of every clause.
        let mut raw_rules: Vec<(RawAtom, Vec<RawAtom>, Span)> = Vec::new();
        let bytes = src.as_bytes();
        let mut clause_start = 0usize;
        for i in 0..=bytes.len() {
            if i < bytes.len() && bytes[i] != b'.' {
                continue;
            }
            let clause = trim_span(src, Span::new(clause_start, i));
            clause_start = i + 1;
            if clause.is_empty() {
                continue;
            }
            let text = clause.slice(src);
            let (head_span, body_span) = match text.find(":-") {
                Some(p) => (
                    Span::new(clause.start, clause.start + p),
                    Some(trim_span(src, Span::new(clause.start + p + 2, clause.end))),
                ),
                None => (clause, None),
            };
            let head = parse_atom(src, head_span)?;
            let mut body = Vec::new();
            if let Some(bs) = body_span.filter(|b| !b.is_empty()) {
                // Split body on commas at depth zero.
                let bbytes = bs.slice(src).as_bytes().to_vec();
                let mut depth = 0usize;
                let mut start = bs.start;
                for (j, &c) in bbytes.iter().enumerate() {
                    match c {
                        b'(' => depth += 1,
                        b')' => depth = depth.saturating_sub(1),
                        b',' if depth == 0 => {
                            body.push(parse_atom(src, Span::new(start, bs.start + j))?);
                            start = bs.start + j + 1;
                        }
                        _ => {}
                    }
                }
                body.push(parse_atom(src, Span::new(start, bs.end))?);
            }
            raw_rules.push((head, body, clause));
        }
        if raw_rules.is_empty() {
            return Err(DatalogParseError::new(Span::point(0), "empty program"));
        }

        let lookup_edb = |name: &str| -> Option<RelId> {
            sig.relations()
                .find(|(_, n, _)| n.eq_ignore_ascii_case(name))
                .map(|(r, _, _)| r)
        };

        // IDB predicates: all head predicates, in order of appearance.
        let mut idb_names: Vec<String> = Vec::new();
        let mut idb_arity: Vec<usize> = Vec::new();
        for (head, _, _) in &raw_rules {
            if head.negated {
                return Err(DatalogParseError::new(
                    head.span,
                    format!("rule head {} cannot be negated", head.pred),
                ));
            }
            if lookup_edb(&head.pred).is_some() {
                return Err(DatalogParseError::new(
                    head.pred_span,
                    format!("cannot redefine EDB predicate {}", head.pred),
                ));
            }
            match idb_names.iter().position(|n| n == &head.pred) {
                Some(i) => {
                    if idb_arity[i] != head.args.len() {
                        return Err(DatalogParseError::new(
                            head.span,
                            format!("inconsistent arity for {}", head.pred),
                        ));
                    }
                }
                None => {
                    idb_names.push(head.pred.clone());
                    idb_arity.push(head.args.len());
                }
            }
        }
        // A *negated* body atom may name a predicate with no defining
        // rule: it is registered as a rule-less IDB (empty extent, so
        // the negation is vacuously true — lint code D008 flags it).
        // Positive references to unknown predicates remain errors.
        for (_, body, _) in &raw_rules {
            for raw in body {
                if !raw.negated || lookup_edb(&raw.pred).is_some() {
                    continue;
                }
                match idb_names.iter().position(|n| n == &raw.pred) {
                    Some(i) => {
                        if idb_arity[i] != raw.args.len() {
                            return Err(DatalogParseError::new(
                                raw.span,
                                format!("inconsistent arity for {}", raw.pred),
                            ));
                        }
                    }
                    None => {
                        idb_names.push(raw.pred.clone());
                        idb_arity.push(raw.args.len());
                    }
                }
            }
        }

        let mut rules = Vec::new();
        let mut spans = Vec::new();
        let mut var_names = Vec::new();
        let atom_spans = |raw: &RawAtom| AtomSpans {
            span: raw.span,
            pred: raw.pred_span,
            args: raw.arg_spans.clone(),
        };
        for (head, body, clause) in &raw_rules {
            // Per-rule variable table: source names interned to dense
            // ids in first-occurrence order (head first, then body).
            let mut vars = Interner::new();
            let resolve = |raw: &RawAtom, vars: &mut Interner| -> Result<Atom, DatalogParseError> {
                let pred = if let Some(r) = lookup_edb(&raw.pred) {
                    if sig.arity(r) != raw.args.len() {
                        return Err(DatalogParseError::new(
                            raw.span,
                            format!(
                                "EDB predicate {} has arity {}, atom has {}",
                                raw.pred,
                                sig.arity(r),
                                raw.args.len()
                            ),
                        ));
                    }
                    Pred::Edb(r)
                } else {
                    let i = idb_names
                        .iter()
                        .position(|n| n == &raw.pred)
                        .ok_or_else(|| {
                            DatalogParseError::new(
                                raw.pred_span,
                                format!("unknown predicate {}", raw.pred),
                            )
                        })?;
                    if idb_arity[i] != raw.args.len() {
                        return Err(DatalogParseError::new(
                            raw.span,
                            format!("inconsistent arity for {}", raw.pred),
                        ));
                    }
                    Pred::Idb(i)
                };
                Ok(Atom {
                    pred,
                    args: raw.args.iter().map(|a| vars.intern(a)).collect(),
                    negated: raw.negated,
                })
            };
            let h = resolve(head, &mut vars)?;
            let b: Result<Vec<Atom>, DatalogParseError> =
                body.iter().map(|a| resolve(a, &mut vars)).collect();
            rules.push(Rule { head: h, body: b? });
            spans.push(RuleSpans {
                span: *clause,
                head: atom_spans(head),
                body: body.iter().map(atom_spans).collect(),
            });
            var_names.push(vars.into_names());
        }
        Ok(ParsedProgram {
            program: Program {
                sig: sig.clone(),
                idb_names,
                idb_arity,
                rules,
            },
            spans,
            var_names,
        })
    }

    /// Assembles a program directly from resolved parts — the back door
    /// used by [`crate::magic`]'s rewriter, which synthesizes adorned
    /// and `magic_*` predicates that have no source text to parse.
    /// Callers are responsible for the parser's invariants: head
    /// predicates are IDBs, arities are consistent, and every
    /// `Pred::Idb` index is in range.
    pub(crate) fn from_parts(
        sig: std::sync::Arc<Signature>,
        idb_names: Vec<String>,
        idb_arity: Vec<usize>,
        rules: Vec<Rule>,
    ) -> Program {
        Program {
            sig,
            idb_names,
            idb_arity,
            rules,
        }
    }

    /// The input signature the program was parsed against.
    pub fn signature(&self) -> &std::sync::Arc<Signature> {
        &self.sig
    }

    /// The survey's transitive-closure program over the graph signature.
    pub fn transitive_closure() -> Program {
        Program::parse(
            &Signature::graph(),
            "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).",
        )
        .expect("canned program parses")
    }

    /// The survey's same-generation program over the graph signature
    /// (`e` is the parent→child relation).
    pub fn same_generation() -> Program {
        Program::parse(
            &Signature::graph(),
            "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).",
        )
        .expect("canned program parses")
    }

    /// Index of an IDB predicate by name.
    pub fn idb(&self, name: &str) -> Option<usize> {
        self.idb_names.iter().position(|n| n == name)
    }

    /// Number of IDB predicates.
    pub fn num_idbs(&self) -> usize {
        self.idb_names.len()
    }

    /// Name and arity of an IDB predicate.
    pub fn idb_info(&self, idb: usize) -> (&str, usize) {
        (&self.idb_names[idb], self.idb_arity[idb])
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// `true` if any body atom is negated. Negation-free programs skip
    /// the dependency analysis entirely and evaluate on the exact
    /// pre-stratification path.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(|r| r.body.iter().any(|a| a.negated))
    }

    /// Rule indices grouped by evaluation stratum, lowest first — the
    /// driver schedule shared by all three engines. Negation-free
    /// programs short-circuit to a single stratum holding every rule in
    /// written order (bit-identical to the pre-stratification engines);
    /// otherwise the [`crate::depgraph`] analysis runs and
    /// unstratifiable or unsafe programs are rejected with a typed
    /// error.
    pub(crate) fn eval_strata(&self) -> Result<Vec<Vec<usize>>, EvalError> {
        if !self.has_negation() {
            return Ok(vec![(0..self.rules.len()).collect()]);
        }
        let analysis = crate::depgraph::DepAnalysis::of(self);
        if let Some(v) = analysis.violations.first() {
            return Err(EvalError::Unstratifiable {
                rule: v.rule,
                atom: v.atom,
                pred: self.idb_info(v.dep).0.to_owned(),
                cycle: analysis.sccs[analysis.scc_of[v.dep]]
                    .iter()
                    .map(|&j| self.idb_info(j).0.to_owned())
                    .collect(),
            });
        }
        if let Some(u) = analysis.unsafe_negs.first() {
            return Err(EvalError::UnsafeNegation {
                rule: u.rule,
                atom: u.atom,
                var: u.var,
            });
        }
        let strat = analysis
            .stratification
            .expect("violation-free analyses carry a stratification");
        Ok(strat.rules_by_stratum)
    }

    fn check_structure(&self, s: &Structure) {
        assert_eq!(
            s.signature(),
            &self.sig,
            "structure signature does not match program signature"
        );
    }

    fn new_store(&self) -> Vec<IdbStore> {
        self.idb_arity.iter().map(|&a| IdbStore::new(a)).collect()
    }

    /// Naive bottom-up evaluation: apply every rule on the full IDB
    /// extent until nothing new is derived, stratum by stratum for
    /// programs with negation. Rule bodies are joined in greedy
    /// index-probing order (same answers as written order).
    ///
    /// # Panics
    /// Panics if the program is unstratifiable or uses unsafe negation;
    /// use [`Program::try_eval_naive`] for a typed [`EvalError`].
    pub fn eval_naive(&self, s: &Structure) -> Output {
        self.try_eval_naive(s, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_naive`]: consults `budget` on every
    /// join step and stops cleanly with [`EvalError::Exhausted`] when
    /// it runs out, leaving no partial output behind. Programs with
    /// negation are stratified first; unstratifiable or unsafe ones are
    /// rejected with the matching static [`EvalError`] before any
    /// evaluation work.
    pub fn try_eval_naive(&self, s: &Structure, budget: &Budget) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let mut eval_span =
            fmt_obs::trace_span!("datalog.eval", engine = "naive", rules = self.rules.len());
        let mut fix = Fixpoint::new(self.clone(), load_edb(s), s.size(), AT);
        let mut tally = Tally::default();
        for rules_in in &strata {
            // "Delta = whole extent": every pass is an init pass over
            // the full extents, until one adds nothing.
            loop {
                OBS_NAIVE_ROUNDS.incr();
                let delta = fix.init(rules_in, budget, &mut tally)?;
                if delta.iter().all(Vec::is_empty) {
                    break;
                }
            }
        }
        Ok(fix.output(tally, &mut eval_span))
    }

    /// Semi-naive evaluation with the indexed, join-ordered, parallel
    /// engine and an automatic worker count
    /// (`min(available_parallelism, 8)`).
    pub fn eval_seminaive(&self, s: &Structure) -> Output {
        self.eval_seminaive_with(s, 0)
    }

    /// Semi-naive evaluation: recursive rules are re-applied with one
    /// IDB body atom restricted to the last iteration's delta, joined
    /// in greedy index-probing order, with the per-round rule×delta
    /// applications split into contiguous delta chunks across `threads`
    /// scoped workers (`0` = automatic). Small rounds keep each job's
    /// delta whole — splitting only pays once a round carries enough
    /// delta tuples.
    pub fn eval_seminaive_with(&self, s: &Structure, threads: usize) -> Output {
        self.try_eval_seminaive_with(s, threads, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_seminaive_with`]: every worker chunk
    /// shares `budget` (one cheap clone each), so fuel exhaustion or an
    /// external [`Budget::cancel`] stops all chunks cooperatively — the
    /// first chunk to observe exhaustion makes every other chunk's next
    /// tick fail too. Programs with negation evaluate stratum by
    /// stratum (negated atoms probe the completed lower strata);
    /// unstratifiable or unsafe ones are rejected with a static
    /// [`EvalError`] before any evaluation work.
    pub fn try_eval_seminaive_with(
        &self,
        s: &Structure,
        threads: usize,
        budget: &Budget,
    ) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
                .min(8)
        } else {
            threads
        };
        let mut eval_span = fmt_obs::trace_span!(
            "datalog.eval",
            engine = "indexed",
            rules = self.rules.len(),
            threads = threads
        );
        let mut fix = Fixpoint::new(self.clone(), load_edb(s), s.size(), AT);
        fix.threads = threads;
        let tally = fix.evaluate(&strata, budget)?;
        Ok(fix.output(tally, &mut eval_span))
    }

    /// Semi-naive evaluation by the original written-order nested-loop
    /// join — no indexes, no reordering, no parallelism. Kept as the
    /// measured baseline for the indexed engine (its per-tuple work is
    /// the `queries.datalog.scan_tuples` counter).
    pub fn eval_seminaive_scan(&self, s: &Structure) -> Output {
        self.try_eval_seminaive_scan(s, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_seminaive_scan`]. Programs with
    /// negation evaluate stratum by stratum, with negated atoms checked
    /// as `HashSet` membership against the completed lower strata — an
    /// implementation deliberately independent of the indexed kernel's
    /// anti-join probes.
    pub fn try_eval_seminaive_scan(
        &self,
        s: &Structure,
        budget: &Budget,
    ) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let mut eval_span =
            fmt_obs::trace_span!("datalog.eval", engine = "scan", rules = self.rules.len());
        let k = self.idb_names.len();
        let mut total: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
        let mut derivations = 0u64;
        let mut delta_history: Vec<u64> = Vec::new();
        let mut iterations = 0usize;

        for rules_in in &strata {
            // Stratum initialization: this stratum's rules on the
            // completed lower strata (their own heads are still empty).
            let init_span = fmt_obs::trace_span!("datalog.init");
            let mut delta: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
            for &ri in rules_in {
                let rule = &self.rules[ri];
                let mut rule_span =
                    fmt_obs::trace_span!("datalog.rule", rule = ri, round = iterations + 1);
                let mut rule_derived = 0u64;
                self.apply_rule_scan(s, rule, &total, None, budget, &mut |idb, t| {
                    rule_derived += 1;
                    delta[idb].insert(t);
                })?;
                derivations += rule_derived;
                rule_span.record_field("derived", rule_derived);
            }
            for (t, d) in total.iter_mut().zip(delta.iter()) {
                t.extend(d.iter().cloned());
            }
            drop(init_span);
            let initial_facts: usize = delta.iter().map(HashSet::len).sum();
            iterations += 1;
            OBS_ROUNDS.incr();
            OBS_DELTA_FACTS.add(initial_facts as u64);
            OBS_DELTA_SIZE.record(initial_facts as u64);
            delta_history.push(initial_facts as u64);

            while delta.iter().any(|d| !d.is_empty()) {
                iterations += 1;
                OBS_ROUNDS.incr();
                let total_delta: usize = delta.iter().map(HashSet::len).sum();
                let mut round_span =
                    fmt_obs::trace_span!("datalog.round", round = iterations, delta = total_delta);
                let mut next: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
                for &ri in rules_in {
                    let rule = &self.rules[ri];
                    // One application per positive IDB body-atom
                    // position, with that atom reading the delta
                    // (negated atoms are membership checks, never
                    // delta drivers).
                    for (pos, atom) in rule.body.iter().enumerate() {
                        if atom.negated {
                            continue;
                        }
                        if let Pred::Idb(j) = atom.pred {
                            if delta[j].is_empty() {
                                continue;
                            }
                            let mut rule_span = fmt_obs::trace_span!(
                                "datalog.rule",
                                rule = ri,
                                pos = pos,
                                round = iterations,
                                tuples = delta[j].len()
                            );
                            let mut rule_derived = 0u64;
                            self.apply_rule_scan(
                                s,
                                rule,
                                &total,
                                Some((pos, &delta)),
                                budget,
                                &mut |idb, t| {
                                    rule_derived += 1;
                                    if !total[idb].contains(&t) {
                                        next[idb].insert(t);
                                    }
                                },
                            )?;
                            derivations += rule_derived;
                            rule_span.record_field("derived", rule_derived);
                        }
                    }
                }
                for (t, d) in total.iter_mut().zip(next.iter()) {
                    t.extend(d.iter().cloned());
                }
                let new_facts: usize = next.iter().map(HashSet::len).sum();
                OBS_DELTA_FACTS.add(new_facts as u64);
                OBS_DELTA_SIZE.record(new_facts as u64);
                delta_history.push(new_facts as u64);
                round_span.record_field("new", new_facts);
                delta = next;
            }
        }
        eval_span.record_field("rounds", iterations);
        eval_span.record_field("derivations", derivations);
        // The scan engine keeps its legacy HashSet representation as a
        // differential oracle; only the output is columnar.
        Ok(Output {
            relations: total
                .iter()
                .zip(self.idb_arity.iter())
                .map(|(set, &a)| TupleStore::from_rows(a, set.iter().map(Vec::as_slice)))
                .collect(),
            iterations,
            derivations,
            delta_history,
        })
    }

    /// Applies one rule by written-order nested loops: joins the body
    /// against the given IDB extent (with at most one atom redirected
    /// to a delta), emitting each head instantiation. Unbound head
    /// variables range over the domain. Negated atoms are deferred to
    /// the end of the join order (positives in written order first) and
    /// checked as plain membership tests — safety guarantees all their
    /// variables are bound by then. Deliberately kept on the legacy
    /// materialized-tuple path: the scan engine is the independent
    /// differential oracle for the columnar kernel.
    fn apply_rule_scan(
        &self,
        s: &Structure,
        rule: &Rule,
        idb: &[HashSet<Vec<Elem>>],
        delta: Option<(usize, &Vec<HashSet<Vec<Elem>>>)>,
        budget: &Budget,
        emit: &mut dyn FnMut(usize, Vec<Elem>),
    ) -> BudgetResult<()> {
        let mut binding: Vec<Option<Elem>> = vec![None; rule_num_vars(rule)];
        let head = head_idb(rule);
        // Positive atoms in written order, then the negated checks (a
        // negation-free body keeps the exact original order).
        let mut order: Vec<usize> = (0..rule.body.len())
            .filter(|&i| !rule.body[i].negated)
            .collect();
        order.extend((0..rule.body.len()).filter(|&i| rule.body[i].negated));

        #[allow(clippy::too_many_arguments)] // internal join kernel
        fn match_body(
            s: &Structure,
            rule: &Rule,
            order: &[usize],
            idb: &[HashSet<Vec<Elem>>],
            delta: Option<(usize, &Vec<HashSet<Vec<Elem>>>)>,
            head_idb: usize,
            pos: usize,
            binding: &mut Vec<Option<Elem>>,
            budget: &Budget,
            emit: &mut dyn FnMut(usize, Vec<Elem>),
        ) -> BudgetResult<()> {
            budget.tick(AT)?;
            if pos == order.len() {
                return emit_head_scan(s, rule, head_idb, binding, budget, emit);
            }
            let ai = order[pos];
            let atom = &rule.body[ai];
            if atom.negated {
                let t: Vec<Elem> = atom
                    .args
                    .iter()
                    .map(|&v| {
                        binding[v as usize].expect("negated atom variables are bound positively")
                    })
                    .collect();
                let present = match atom.pred {
                    Pred::Edb(r) => {
                        let rel = s.rel(r);
                        OBS_SCAN_TUPLES.add(rel.len() as u64);
                        rel.iter().any(|u| u == &t[..])
                    }
                    Pred::Idb(j) => {
                        OBS_SCAN_TUPLES.add(1);
                        idb[j].contains(&t)
                    }
                };
                if present {
                    return Ok(());
                }
                return match_body(
                    s,
                    rule,
                    order,
                    idb,
                    delta,
                    head_idb,
                    pos + 1,
                    binding,
                    budget,
                    emit,
                );
            }
            let try_tuple = |t: &[Elem],
                             binding: &mut Vec<Option<Elem>>,
                             emit: &mut dyn FnMut(usize, Vec<Elem>)|
             -> BudgetResult<()> {
                let mut touched: Vec<DlVar> = Vec::new();
                let mut ok = true;
                for (&v, &e) in atom.args.iter().zip(t.iter()) {
                    match binding[v as usize] {
                        Some(b) if b != e => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            binding[v as usize] = Some(e);
                            touched.push(v);
                        }
                    }
                }
                let result = if ok {
                    match_body(
                        s,
                        rule,
                        order,
                        idb,
                        delta,
                        head_idb,
                        pos + 1,
                        binding,
                        budget,
                        emit,
                    )
                } else {
                    Ok(())
                };
                for v in touched {
                    binding[v as usize] = None;
                }
                result
            };
            match atom.pred {
                Pred::Edb(r) => {
                    let rel = s.rel(r);
                    OBS_SCAN_TUPLES.add(rel.len() as u64);
                    for t in rel.iter() {
                        try_tuple(t, binding, emit)?;
                    }
                }
                Pred::Idb(j) => {
                    let source = match delta {
                        Some((dpos, d)) if dpos == ai => &d[j],
                        _ => &idb[j],
                    };
                    OBS_SCAN_TUPLES.add(source.len() as u64);
                    for t in source.iter() {
                        try_tuple(t, binding, emit)?;
                    }
                }
            }
            Ok(())
        }

        match_body(
            s,
            rule,
            &order,
            idb,
            delta,
            head,
            0,
            &mut binding,
            budget,
            emit,
        )
    }
}

// ---------------------------------------------------------------------
// Join engine: columnar extents, the rule planner, and the kernel
// ---------------------------------------------------------------------

/// The extent of one predicate during a fixpoint run: a columnar
/// [`TupleStore`] (arenas + row-id dedup in one) plus
/// incrementally-maintained [`ColumnIndex`]es keyed by bound-position
/// subsets. IDB extents grow in these stores; EDB relations are loaded
/// into the same shape once per evaluation ([`load_edb`]), so the
/// kernel joins both through one path. The handful of indexes per
/// predicate live in a `Vec` — a linear key scan beats hashing a
/// `Vec<usize>` per probe.
#[derive(Debug)]
pub(crate) struct IdbStore {
    pub(crate) store: TupleStore,
    pub(crate) indexes: Vec<(Vec<usize>, ColumnIndex)>,
}

impl IdbStore {
    pub(crate) fn new(arity: usize) -> IdbStore {
        IdbStore::from_store(TupleStore::new(arity))
    }

    fn from_store(store: TupleStore) -> IdbStore {
        IdbStore {
            store,
            indexes: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Builds the index on `key`, or catches an existing one up to the
    /// rows appended since it was last extended.
    pub(crate) fn ensure_index(&mut self, key: &[usize]) {
        match self.indexes.iter_mut().find(|(k, _)| k == key) {
            Some((_, idx)) => idx.extend(&self.store),
            None => {
                let mut idx = ColumnIndex::new(key);
                idx.extend(&self.store);
                self.indexes.push((key.to_vec(), idx));
            }
        }
    }

    pub(crate) fn index(&self, key: &[usize]) -> &ColumnIndex {
        &self
            .indexes
            .iter()
            .find(|(k, _)| k == key)
            .expect("index was built by ensure_plan_indexes")
            .1
    }

    /// Catches every index up to the rows appended since the last call
    /// (the semi-naive merge step).
    pub(crate) fn extend_indexes(&mut self) {
        for (_, idx) in &mut self.indexes {
            idx.extend(&self.store);
        }
    }
}

/// Every EDB relation of `s` as a columnar store, indexed by `RelId.0`
/// — loaded once per evaluation. Row ids follow each relation's sorted
/// order, so scans and index probes (whose buckets list row ids in
/// ascending order) meet EDB candidates in exactly the sorted order.
fn load_edb(s: &Structure) -> Vec<IdbStore> {
    s.signature()
        .relations()
        .map(|(r, _, _)| IdbStore::from_store(TupleStore::from_relation(s.rel(r))))
        .collect()
}

/// The store holding `pred`'s extent.
fn extent<'a>(edb: &'a [IdbStore], idb: &'a [IdbStore], pred: Pred) -> &'a IdbStore {
    match pred {
        Pred::Edb(r) => &edb[r.0],
        Pred::Idb(j) => &idb[j],
    }
}

/// Derived head tuples staged per IDB in flat buffers, ready to be
/// drained into the stores: no per-tuple allocation while a join runs,
/// and no dedup until the drain, where `push_if_new` is the hash-set
/// insert and the arena append in one step. The counts carry nullary
/// facts, whose rows occupy no bytes.
#[derive(Debug)]
struct Staged {
    bufs: Vec<Vec<Elem>>,
    counts: Vec<usize>,
}

impl Staged {
    fn new(num_idbs: usize) -> Staged {
        Staged {
            bufs: vec![Vec::new(); num_idbs],
            counts: vec![0; num_idbs],
        }
    }

    fn push(&mut self, idb: usize, t: &[Elem]) {
        self.bufs[idb].extend_from_slice(t);
        self.counts[idb] += 1;
    }

    /// Elements staged so far, for the arena-bytes trace fields.
    fn elems(&self) -> usize {
        self.bufs.iter().map(Vec::len).sum()
    }

    /// Appends every staged tuple not already live in its store, in
    /// staging order, calling `fresh(idb, row)` for each new (or
    /// revived) row.
    fn drain_into(self, stores: &mut [IdbStore], mut fresh: impl FnMut(usize, u32)) {
        for (j, (buf, cnt)) in self.bufs.iter().zip(self.counts).enumerate() {
            let a = stores[j].store.arity();
            for i in 0..cnt {
                if let Some(row) = stores[j].store.push_if_new(&buf[i * a..(i + 1) * a]) {
                    fresh(j, row);
                }
            }
        }
    }
}

/// The delta row ids of `pred`.
pub(crate) fn delta_of<'d>(
    edb_delta: &'d [Vec<u32>],
    idb_delta: &'d [Vec<u32>],
    pred: Pred,
) -> &'d [u32] {
    match pred {
        Pred::Edb(r) => &edb_delta[r.0],
        Pred::Idb(j) => &idb_delta[j],
    }
}

/// Key of the fixpoint's plan cache. Init-pass plans are not cached:
/// each init pass plans against the extents it starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// Delta-driven: body position `pos` iterates the delta rows.
    Driver { rule: usize, pos: usize },
    /// No driver, head variables pre-bound: the DRed remaining-support
    /// check.
    Goal { rule: usize },
}

/// Work counters of a fixpoint run, in [`Output`]'s terms.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) iterations: usize,
    pub(crate) derivations: u64,
    pub(crate) delta_history: Vec<u64>,
}

/// The semi-naive fixpoint of one program over its EDB and IDB stores:
/// the one init pass and the one round loop behind the naive and batch
/// engines and the incremental runtime, and the plan cache they share.
/// Deltas are per-predicate lists of row ids, filled as the staged
/// tuples drain into the stores.
#[derive(Debug)]
pub(crate) struct Fixpoint {
    pub(crate) program: Program,
    pub(crate) edb: Vec<IdbStore>,
    pub(crate) idb: Vec<IdbStore>,
    plans: Vec<Vec<Step>>,
    plan_of: HashMap<PlanKey, usize>,
    /// Unbound head variables range over `0..domain`.
    pub(crate) domain: u32,
    /// Worker threads of the round loop (1 = inline).
    pub(crate) threads: usize,
    /// Budget tick site label.
    at: &'static str,
}

impl Fixpoint {
    /// The fixpoint state over `edb` with empty IDB stores.
    pub(crate) fn new(program: Program, edb: Vec<IdbStore>, domain: u32, at: &'static str) -> Self {
        Fixpoint {
            idb: program.new_store(),
            program,
            edb,
            plans: Vec::new(),
            plan_of: HashMap::new(),
            domain,
            threads: 1,
            at,
        }
    }

    /// Empties the IDB stores and the plan cache: the state batch
    /// evaluation starts from.
    pub(crate) fn clear_idb(&mut self) {
        self.idb = self.program.new_store();
        self.plans.clear();
        self.plan_of.clear();
    }

    /// Batch evaluation: per stratum, the init pass, then the round
    /// loop driven by the rows it added.
    pub(crate) fn evaluate(
        &mut self,
        strata: &[Vec<usize>],
        budget: &Budget,
    ) -> BudgetResult<Tally> {
        let mut tally = Tally::default();
        for rules_in in strata {
            let delta = self.init(rules_in, budget, &mut tally)?;
            let no_edb_delta = vec![Vec::new(); self.edb.len()];
            self.rounds(rules_in, no_edb_delta, delta, budget, &mut tally)?;
        }
        Ok(tally)
    }

    /// The init pass: every rule of `rules_in`, planned with no driver
    /// over the current extents and staged, then everything drained
    /// once. Returns the new rows per IDB.
    fn init(
        &mut self,
        rules_in: &[usize],
        budget: &Budget,
        tally: &mut Tally,
    ) -> BudgetResult<Vec<Vec<u32>>> {
        let _span = fmt_obs::trace_span!("datalog.init");
        let round = tally.iterations + 1;
        let mut staged = Staged::new(self.idb.len());
        for &ri in rules_in {
            let rule = &self.program.rules[ri];
            let mut rule_span = fmt_obs::trace_span!("datalog.rule", rule = ri, round = round);
            let plan = plan_rule(rule, None, &[], &|a| {
                extent(&self.edb, &self.idb, a.pred).len()
            });
            ensure_plan_indexes(&plan, rule, &mut self.edb, &mut self.idb);
            let ctx = ExecCtx::new(rule, &plan, &self.edb, &self.idb, &[], self.domain, self.at);
            tally.derivations += ctx.stage(budget, &mut staged, &mut rule_span)?;
        }
        self.merge(vec![Ok((0, staged))], tally)
    }

    /// The semi-naive round loop, run until every delta is empty. Each
    /// round has one job per `(rule, positive body position)` of
    /// `rules_in` whose delta is nonempty; EDB deltas drive the first
    /// round only. Each job's delta is split into contiguous chunks
    /// that fan out over the worker threads, and the results merge in
    /// item order — so rows land in the same order at any thread
    /// count.
    pub(crate) fn rounds(
        &mut self,
        rules_in: &[usize],
        mut edb_delta: Vec<Vec<u32>>,
        mut idb_delta: Vec<Vec<u32>>,
        budget: &Budget,
        tally: &mut Tally,
    ) -> BudgetResult<()> {
        loop {
            let total: usize = edb_delta.iter().chain(&idb_delta).map(Vec::len).sum();
            if total == 0 {
                return Ok(());
            }
            let round = tally.iterations + 1;
            let mut round_span =
                fmt_obs::trace_span!("datalog.round", round = round, delta = total);
            let plan_span = fmt_obs::trace_span!("datalog.plan");
            let jobs = self.jobs(rules_in, &edb_delta, &idb_delta);
            OBS_PAR_JOBS.add(jobs.len() as u64);
            drop(plan_span);

            // Small rounds stay whole: splitting only pays once a round
            // carries enough delta rows.
            let shard_span = fmt_obs::trace_span!("datalog.shard");
            let threads = self.threads;
            let nchunks = if threads == 1 || total < 512 {
                1
            } else {
                threads
            };
            let mut items: Vec<(usize, &[u32])> = Vec::new();
            for (ji, &(ri, pos, _)) in jobs.iter().enumerate() {
                let rows = delta_of(
                    &edb_delta,
                    &idb_delta,
                    self.program.rules[ri].body[pos].pred,
                );
                items.extend(rows.chunks(rows.len().div_ceil(nchunks)).map(|c| (ji, c)));
            }
            drop(shard_span);

            // Workers stage derived tuples in flat per-IDB buffers and
            // never dedup: `push_if_new` in the merge does one hash per
            // staged tuple, so pre-filtering against the frozen extent
            // would only add a second hash. Worker rule spans attach
            // under the join span through fan_out's parent propagation.
            let join_span = fmt_obs::trace_span!("datalog.join", jobs = jobs.len());
            let this = &*self;
            let results = fan_out(threads, &items, |chunk| {
                let mut derived = 0u64;
                let mut staged = Staged::new(this.idb.len());
                for &(ji, rows) in chunk {
                    let (ri, pos, pi) = jobs[ji];
                    let mut rule_span = fmt_obs::trace_span!(
                        "datalog.rule",
                        rule = ri,
                        pos = pos,
                        round = round,
                        tuples = rows.len()
                    );
                    let ctx = this.kernel(ri, pi, rows);
                    derived += ctx.stage(budget, &mut staged, &mut rule_span)?;
                }
                Ok((derived, staged))
            });
            drop(join_span);
            idb_delta = self.merge(results, tally)?;
            edb_delta.iter_mut().for_each(Vec::clear);
            round_span.record_field("new", tally.delta_history.last().copied().unwrap_or(0));
        }
    }

    /// Drains staged results into the IDB stores in item order, then
    /// catches the indexes up and closes the round (an init pass counts
    /// as one). Returns the new (or revived) rows per IDB: the next
    /// round's deltas.
    fn merge(
        &mut self,
        results: Vec<BudgetResult<(u64, Staged)>>,
        tally: &mut Tally,
    ) -> BudgetResult<Vec<Vec<u32>>> {
        let dedup_span = fmt_obs::trace_span!("datalog.dedup");
        let results = results.into_iter().collect::<BudgetResult<Vec<_>>>()?;
        // At most one delta row per staged tuple: one allocation per IDB.
        let mut delta: Vec<Vec<u32>> = (0..self.idb.len())
            .map(|j| Vec::with_capacity(results.iter().map(|(_, s)| s.counts[j]).sum()))
            .collect();
        for (derived, staged) in results {
            tally.derivations += derived;
            staged.drain_into(&mut self.idb, |j, row| delta[j].push(row));
        }
        drop(dedup_span);
        let _merge_span = fmt_obs::trace_span!("datalog.merge");
        for r in &mut self.idb {
            r.extend_indexes();
        }
        let new: u64 = delta.iter().map(|d| d.len() as u64).sum();
        tally.iterations += 1;
        tally.delta_history.push(new);
        OBS_ROUNDS.incr();
        OBS_DELTA_FACTS.add(new);
        OBS_DELTA_SIZE.record(new);
        Ok(delta)
    }

    /// One job `(rule, pos, plan)` per positive body position `pos` of
    /// a rule of `rules_in` whose delta is nonempty. Negated atoms never
    /// drive: their extents are complete lower strata.
    pub(crate) fn jobs(
        &mut self,
        rules_in: &[usize],
        edb_delta: &[Vec<u32>],
        idb_delta: &[Vec<u32>],
    ) -> Vec<(usize, usize, usize)> {
        let mut jobs = Vec::new();
        for &rule in rules_in {
            for pos in 0..self.program.rules[rule].body.len() {
                let atom = &self.program.rules[rule].body[pos];
                if !atom.negated && !delta_of(edb_delta, idb_delta, atom.pred).is_empty() {
                    jobs.push((rule, pos, self.plan(PlanKey::Driver { rule, pos })));
                }
            }
        }
        jobs
    }

    /// Plan-cache lookup, planning on first sight; either way every
    /// index the plan probes is built or caught up.
    pub(crate) fn plan(&mut self, key: PlanKey) -> usize {
        let (ri, driver) = match key {
            PlanKey::Driver { rule, pos } => (rule, Some(pos)),
            PlanKey::Goal { rule } => (rule, None),
        };
        let rule = &self.program.rules[ri];
        let pi = match self.plan_of.get(&key) {
            Some(&pi) => pi,
            None => {
                let mut pre_bound = vec![false; rule_num_vars(rule)];
                if matches!(key, PlanKey::Goal { .. }) {
                    for &v in &rule.head.args {
                        pre_bound[v as usize] = true;
                    }
                }
                let (edb, idb) = (&self.edb, &self.idb);
                let plan = plan_rule(rule, driver, &pre_bound, &|a| {
                    extent(edb, idb, a.pred).len()
                });
                self.plans.push(plan);
                self.plan_of.insert(key, self.plans.len() - 1);
                self.plans.len() - 1
            }
        };
        ensure_plan_indexes(&self.plans[pi], rule, &mut self.edb, &mut self.idb);
        pi
    }

    /// The join kernel for rule `ri` under cached plan `pi`, driven by
    /// `driver` rows.
    pub(crate) fn kernel<'a>(&'a self, ri: usize, pi: usize, driver: &'a [u32]) -> ExecCtx<'a> {
        ExecCtx::new(
            &self.program.rules[ri],
            &self.plans[pi],
            &self.edb,
            &self.idb,
            driver,
            self.domain,
            self.at,
        )
    }

    /// The evaluation's [`Output`], with its totals recorded on the
    /// `datalog.eval` span.
    fn output(self, tally: Tally, eval_span: &mut fmt_obs::trace::SpanGuard) -> Output {
        eval_span.record_field("rounds", tally.iterations);
        eval_span.record_field("derivations", tally.derivations);
        Output {
            relations: self.idb.into_iter().map(|r| r.store).collect(),
            iterations: tally.iterations,
            derivations: tally.derivations,
            delta_history: tally.delta_history,
        }
    }
}

/// How one body atom is accessed by the join kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Access {
    /// The delta-driver atom: iterate the given (delta) row ids.
    ScanDelta,
    /// No bound positions: iterate the full live extent.
    Scan,
    /// Hash-index probe on the given bound argument positions.
    Probe(Vec<usize>),
    /// Anti-join check for a negated atom: every argument is bound, so
    /// the fully-instantiated tuple is tested for *absence* from the
    /// completed lower-stratum extent (`TupleStore::contains` — no
    /// index build needed).
    NegCheck,
}

/// One step of a rule plan: which body atom to join next, and how.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) atom: usize,
    pub(crate) access: Access,
}

pub(crate) fn rule_num_vars(rule: &Rule) -> usize {
    rule.head
        .args
        .iter()
        .chain(rule.body.iter().flat_map(|a| a.args.iter()))
        .max()
        .map_or(0, |&m| m as usize + 1)
}

pub(crate) fn head_idb(rule: &Rule) -> usize {
    match rule.head.pred {
        Pred::Idb(i) => i,
        Pred::Edb(_) => unreachable!("heads are IDB by construction"),
    }
}

/// The one rule planner, shared by the batch engines, the incremental
/// runtime and the magic-sets rewriter. Greedy join order: the delta
/// driver (if any) first, then repeatedly the positive atom with the
/// most bound argument positions, breaking ties toward the smallest
/// `extent_len`, then written order. Variables flagged in `pre_bound`
/// are bound before the first step (a goal plan pre-binds the head).
/// Each chosen atom records how it will be accessed given what is
/// bound. Negated atoms are placed as anti-join checks at the earliest
/// step where every one of their variables is bound — the soonest the
/// membership test is decidable is where it prunes most.
pub(crate) fn plan_rule(
    rule: &Rule,
    driver: Option<usize>,
    pre_bound: &[bool],
    extent_len: &dyn Fn(&Atom) -> usize,
) -> Vec<Step> {
    let mut bound = vec![false; rule_num_vars(rule)];
    bound[..pre_bound.len()].copy_from_slice(pre_bound);
    let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|&i| !rule.body[i].negated)
        .collect();
    let mut neg_remaining: Vec<usize> = (0..rule.body.len())
        .filter(|&i| rule.body[i].negated)
        .collect();

    let take = |i: usize, steps: &mut Vec<Step>, bound: &mut Vec<bool>, access: Access| {
        steps.push(Step { atom: i, access });
        for &v in &rule.body[i].args {
            bound[v as usize] = true;
        }
    };
    let place_negs = |steps: &mut Vec<Step>, bound: &Vec<bool>, neg: &mut Vec<usize>| {
        neg.retain(|&i| {
            if rule.body[i].args.iter().all(|&v| bound[v as usize]) {
                steps.push(Step {
                    atom: i,
                    access: Access::NegCheck,
                });
                false
            } else {
                true
            }
        });
    };

    // Negated atoms with no variable left to bind (nullary ones, or
    // ones fully covered by `pre_bound`) gate the whole rule — check
    // them before touching any extent.
    place_negs(&mut steps, &bound, &mut neg_remaining);

    if let Some(d) = driver {
        take(d, &mut steps, &mut bound, Access::ScanDelta);
        remaining.retain(|&i| i != d);
        place_negs(&mut steps, &bound, &mut neg_remaining);
    }

    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .max_by_key(|&i| {
                let atom = &rule.body[i];
                let bound_positions = atom.args.iter().filter(|&&v| bound[v as usize]).count();
                (
                    bound_positions,
                    std::cmp::Reverse(extent_len(atom)),
                    std::cmp::Reverse(i),
                )
            })
            .expect("remaining is nonempty");
        let atom = &rule.body[best];
        let key: Vec<usize> = (0..atom.args.len())
            .filter(|&p| bound[atom.args[p] as usize])
            .collect();
        let access = if key.is_empty() {
            Access::Scan
        } else {
            Access::Probe(key)
        };
        take(best, &mut steps, &mut bound, access);
        remaining.retain(|&i| i != best);
        place_negs(&mut steps, &bound, &mut neg_remaining);
    }
    // Anything left is unsafe negation; the engines reject it before
    // planning (`eval_strata`), but keep the plan total regardless.
    for i in neg_remaining {
        steps.push(Step {
            atom: i,
            access: Access::NegCheck,
        });
    }
    steps
}

/// Builds (or catches up) every index a plan will probe, so execution
/// can share the stores immutably (and across worker threads).
fn ensure_plan_indexes(plan: &[Step], rule: &Rule, edb: &mut [IdbStore], idb: &mut [IdbStore]) {
    for step in plan {
        if let Access::Probe(key) = &step.access {
            match rule.body[step.atom].pred {
                Pred::Edb(r) => edb[r.0].ensure_index(key),
                Pred::Idb(j) => idb[j].ensure_index(key),
            }
        }
    }
}

/// Head emission for the scan oracle: emits every instantiation of the
/// head under the current binding, with unbound head variables ranging
/// over the whole domain. Materializes each head tuple as a `Vec` —
/// intentionally independent of the columnar kernel's buffered path.
fn emit_head_scan(
    s: &Structure,
    rule: &Rule,
    head_idb: usize,
    binding: &mut Vec<Option<Elem>>,
    budget: &Budget,
    emit: &mut dyn FnMut(usize, Vec<Elem>),
) -> BudgetResult<()> {
    #[allow(clippy::too_many_arguments)] // internal join kernel
    fn rec(
        s: &Structure,
        head: &Atom,
        head_idb: usize,
        binding: &mut Vec<Option<Elem>>,
        unbound: &[DlVar],
        i: usize,
        budget: &Budget,
        emit: &mut dyn FnMut(usize, Vec<Elem>),
    ) -> BudgetResult<()> {
        if i == unbound.len() {
            budget.tick(AT)?;
            let t: Vec<Elem> = head
                .args
                .iter()
                .map(|&v| binding[v as usize].expect("head var bound"))
                .collect();
            emit(head_idb, t);
            return Ok(());
        }
        let mut result = Ok(());
        for d in s.domain() {
            binding[unbound[i] as usize] = Some(d);
            result = rec(s, head, head_idb, binding, unbound, i + 1, budget, emit);
            if result.is_err() {
                break;
            }
        }
        binding[unbound[i] as usize] = None;
        result
    }

    let mut unbound: Vec<DlVar> = rule
        .head
        .args
        .iter()
        .copied()
        .filter(|&v| binding[v as usize].is_none())
        .collect();
    unbound.sort_unstable();
    unbound.dedup();
    rec(s, &rule.head, head_idb, binding, &unbound, 0, budget, emit)
}

/// The head-tuple sink of the join kernel: returns `false` to stop the
/// whole join (a support check wants its first witness only).
pub(crate) type Emit<'e> = dyn FnMut(&[Elem]) -> bool + 'e;

/// Everything the join kernel needs for one rule application; shared
/// immutably across worker threads.
pub(crate) struct ExecCtx<'a> {
    rule: &'a Rule,
    plan: &'a [Step],
    edb: &'a [IdbStore],
    idb: &'a [IdbStore],
    /// Row ids for the `ScanDelta` step (a delta chunk, or all of it),
    /// indexing into the driven predicate's store.
    driver: &'a [u32],
    /// Unbound head variables range over `0..domain`.
    domain: u32,
    /// Budget tick site label.
    at: &'static str,
    /// Candidate tuples the kernel tried to bind during this rule
    /// application — the per-rule probe count reported on trace spans
    /// and by `fmtk datalog --explain`. A `Cell` because the kernel
    /// threads `&ExecCtx` immutably; each context lives on one thread.
    probes: Cell<u64>,
    /// Heap allocations the kernel's stack buffers spilled into (keys
    /// or head tuples wider than [`VAL_STACK`]); zero on the
    /// steady-state join loop, surfaced per rule for `--explain`.
    probe_allocs: Cell<u64>,
}

impl<'a> ExecCtx<'a> {
    fn new(
        rule: &'a Rule,
        plan: &'a [Step],
        edb: &'a [IdbStore],
        idb: &'a [IdbStore],
        driver: &'a [u32],
        domain: u32,
        at: &'static str,
    ) -> ExecCtx<'a> {
        ExecCtx {
            rule,
            plan,
            edb,
            idb,
            driver,
            domain,
            at,
            probes: Cell::new(0),
            probe_allocs: Cell::new(0),
        }
    }

    /// Runs the whole plan under `binding` (all `None`, or with goal
    /// variables pre-bound), emitting every head instantiation.
    /// Returns `Ok(false)` if `emit` stopped the join early.
    pub(crate) fn run(
        &self,
        binding: &mut [Option<Elem>],
        budget: &Budget,
        emit: &mut Emit<'_>,
    ) -> BudgetResult<bool> {
        exec(self, 0, binding, budget, emit)
    }

    /// Runs the whole plan from an empty binding, staging every emitted
    /// head tuple, and records on the rule's `span`
    /// the work fields `fmtk datalog --explain` reads plus the arena
    /// bytes staged. Returns the derivations: emissions, duplicates
    /// included.
    fn stage(
        &self,
        budget: &Budget,
        staged: &mut Staged,
        span: &mut fmt_obs::trace::SpanGuard,
    ) -> BudgetResult<u64> {
        let head = head_idb(self.rule);
        let staged0 = staged.elems();
        let mut derived = 0u64;
        let mut binding = vec![None; rule_num_vars(self.rule)];
        self.run(&mut binding, budget, &mut |t| {
            derived += 1;
            staged.push(head, t);
            true
        })?;
        span.record_field("probes", self.probes.get());
        span.record_field("derived", derived);
        span.record_field("probe_allocs", self.probe_allocs.get());
        let bytes = (staged.elems() - staged0) * ELEM_BYTES;
        span.record_field("arena_bytes", bytes as u64);
        Ok(derived)
    }
}

/// Bytes per stored element, for the arena-bytes trace fields.
const ELEM_BYTES: usize = std::mem::size_of::<Elem>();

/// Stack capacity for probe keys and head tuples — wide enough for
/// every realistic atom; wider tuples spill to the heap and are counted
/// in `queries.store.probe_allocs`.
const VAL_STACK: usize = 8;

/// Copies `n` values into `stack` (or `heap` when they don't fit) and
/// returns the filled slice — the zero-allocation buffer behind every
/// probe key and head emission in the kernel.
fn fill_slice<'b>(
    ctx: &ExecCtx<'_>,
    n: usize,
    vals: impl Iterator<Item = Elem>,
    stack: &'b mut [Elem; VAL_STACK],
    heap: &'b mut Vec<Elem>,
) -> &'b [Elem] {
    if n <= VAL_STACK {
        for (slot, v) in stack.iter_mut().zip(vals) {
            *slot = v;
        }
        &stack[..n]
    } else {
        ctx.probe_allocs.set(ctx.probe_allocs.get() + 1);
        store::note_probe_alloc();
        heap.extend(vals);
        heap
    }
}

/// Emits every instantiation of the head under the current binding;
/// unbound head variables range over the whole domain. The binding is
/// fully restored before returning, also when a budget error
/// propagates or `emit` stops the join.
fn emit_head_unbound(
    ctx: &ExecCtx<'_>,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    fn rec(
        ctx: &ExecCtx<'_>,
        binding: &mut [Option<Elem>],
        unbound: &[DlVar],
        i: usize,
        budget: &Budget,
        emit: &mut Emit<'_>,
    ) -> BudgetResult<bool> {
        if i == unbound.len() {
            budget.tick(ctx.at)?;
            let head = &ctx.rule.head;
            let mut stack = [0; VAL_STACK];
            let mut heap = Vec::new();
            let t = fill_slice(
                ctx,
                head.args.len(),
                head.args
                    .iter()
                    .map(|&v| binding[v as usize].expect("head var bound")),
                &mut stack,
                &mut heap,
            );
            return Ok(emit(t));
        }
        for d in 0..ctx.domain {
            binding[unbound[i] as usize] = Some(d);
            let result = rec(ctx, binding, unbound, i + 1, budget, emit);
            if !matches!(result, Ok(true)) {
                binding[unbound[i] as usize] = None;
                return result;
            }
        }
        binding[unbound[i] as usize] = None;
        Ok(true)
    }

    // Empty for range-restricted rules and goal plans, so the
    // steady-state path never allocates here (an empty
    // `filter().collect()` does not allocate).
    let mut unbound: Vec<DlVar> = ctx
        .rule
        .head
        .args
        .iter()
        .copied()
        .filter(|&v| binding[v as usize].is_none())
        .collect();
    unbound.sort_unstable();
    unbound.dedup();
    rec(ctx, binding, &unbound, 0, budget, emit)
}

/// Binds candidate row `row` of `st` against the atom at plan step
/// `step_i`, recursing into the next step on success. Touched variables
/// are tracked in a bitmask (spilling past 128 into a lazily-allocated
/// `Vec`) and the binding is fully restored before returning.
fn try_candidate(
    ctx: &ExecCtx<'_>,
    step_i: usize,
    st: &TupleStore,
    row: u32,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    ctx.probes.set(ctx.probes.get() + 1);
    let atom = &ctx.rule.body[ctx.plan[step_i].atom];
    let mut touched: u128 = 0;
    let mut spill: Vec<DlVar> = Vec::new();
    let mut ok = true;
    for (i, &v) in atom.args.iter().enumerate() {
        let e = st.value(row, i);
        match binding[v as usize] {
            Some(b) if b != e => {
                ok = false;
                break;
            }
            Some(_) => {}
            None => {
                binding[v as usize] = Some(e);
                if (v as usize) < 128 {
                    touched |= 1u128 << v;
                } else {
                    spill.push(v);
                }
            }
        }
    }
    let result = if ok {
        exec(ctx, step_i + 1, binding, budget, emit)
    } else {
        Ok(true)
    };
    while touched != 0 {
        binding[touched.trailing_zeros() as usize] = None;
        touched &= touched - 1;
    }
    for v in spill {
        binding[v as usize] = None;
    }
    result
}

/// The join kernel: runs plan step `step_i` under the current binding,
/// emitting head instantiations once every step is satisfied. Ticks the
/// budget once per step entered; returns `Ok(false)` as soon as `emit`
/// asks to stop. Candidates are walked as row ids over the columnar
/// stores — no path materializes a tuple or a probe key on the heap.
fn exec(
    ctx: &ExecCtx<'_>,
    step_i: usize,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    budget.tick(ctx.at)?;
    if step_i == ctx.plan.len() {
        return emit_head_unbound(ctx, binding, budget, emit);
    }
    let step = &ctx.plan[step_i];
    let atom = &ctx.rule.body[step.atom];
    let rel = extent(ctx.edb, ctx.idb, atom.pred);
    let st = &rel.store;
    match &step.access {
        Access::NegCheck => {
            // Anti-join: the planner placed this step only once every
            // argument was bound, so the tuple is fully determined —
            // one membership probe decides the whole subtree.
            ctx.probes.set(ctx.probes.get() + 1);
            let mut stack = [0; VAL_STACK];
            let mut heap = Vec::new();
            let t = fill_slice(
                ctx,
                atom.args.len(),
                atom.args
                    .iter()
                    .map(|&v| binding[v as usize].expect("negated atom variables are bound")),
                &mut stack,
                &mut heap,
            );
            if !st.contains(t) {
                return exec(ctx, step_i + 1, binding, budget, emit);
            }
        }
        Access::ScanDelta => {
            index::note_scan(ctx.driver.len() as u64);
            for &row in ctx.driver {
                if !try_candidate(ctx, step_i, st, row, binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        Access::Scan => {
            index::note_scan(st.len() as u64);
            for row in 0..st.rows32() {
                if st.is_live(row) && !try_candidate(ctx, step_i, st, row, binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        Access::Probe(key) => {
            let mut stack = [0; VAL_STACK];
            let mut heap = Vec::new();
            let kv = fill_slice(
                ctx,
                key.len(),
                key.iter().map(|&p| {
                    binding[atom.args[p] as usize].expect("planned key position is bound")
                }),
                &mut stack,
                &mut heap,
            );
            for row in rel.index(key).probe(st, kv) {
                if !try_candidate(ctx, step_i, st, row, binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_structures::builders;

    #[test]
    fn tc_program_matches_reference() {
        let prog = Program::transitive_closure();
        for s in [
            builders::directed_path(6),
            builders::directed_cycle(5),
            builders::full_binary_tree(3),
        ] {
            let out = prog.eval_naive(&s);
            let tc = prog.idb("tc").unwrap();
            let reference = crate::graph::transitive_closure(&s);
            let e = reference.signature().relation("E").unwrap();
            let expected: HashSet<Vec<Elem>> =
                reference.rel(e).iter().map(<[u32]>::to_vec).collect();
            assert_eq!(out.relation(tc), &expected);
        }
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        let progs = [Program::transitive_closure(), Program::same_generation()];
        let structures = [
            builders::directed_path(7),
            builders::full_binary_tree(3),
            builders::directed_cycle(6),
            builders::empty_graph(4),
        ];
        for prog in &progs {
            for s in &structures {
                let a = prog.eval_naive(s);
                let b = prog.eval_seminaive(s);
                let c = prog.eval_seminaive_scan(s);
                for i in 0..prog.num_idbs() {
                    assert_eq!(a.relation(i), b.relation(i), "IDB {i}");
                    assert_eq!(a.relation(i), c.relation(i), "IDB {i} (scan)");
                }
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(b.iterations, c.iterations);
                assert_eq!(
                    b.derivations, c.derivations,
                    "join order changes no emissions"
                );
                assert_eq!(b.delta_history, c.delta_history);
                assert_eq!(a.delta_history, b.delta_history);
            }
        }
    }

    #[test]
    fn thread_counts_agree() {
        let prog = Program::same_generation();
        let s = builders::full_binary_tree(4);
        let reference = prog.eval_seminaive_with(&s, 1);
        for threads in [2, 3, 5] {
            let out = prog.eval_seminaive_with(&s, threads);
            for i in 0..prog.num_idbs() {
                assert_eq!(
                    reference.relation(i),
                    out.relation(i),
                    "threads = {threads}"
                );
            }
            assert_eq!(reference.iterations, out.iterations);
            assert_eq!(reference.derivations, out.derivations);
            assert_eq!(reference.delta_history, out.delta_history);
        }
    }

    #[test]
    fn split_rounds_keep_row_order_at_any_thread_count() {
        // 1022 edges: the first rounds carry more delta rows than the
        // 512-row split threshold, so 3 threads really split them.
        let prog = Program::transitive_closure();
        let s = builders::full_binary_tree(9);
        let rows = |threads| -> Vec<Vec<Elem>> {
            prog.eval_seminaive_with(&s, threads)
                .relation(0)
                .iter()
                .collect()
        };
        assert_eq!(rows(3), rows(1));
    }

    #[test]
    fn seminaive_does_less_work() {
        let prog = Program::transitive_closure();
        let s = builders::directed_path(24);
        let a = prog.eval_naive(&s);
        let b = prog.eval_seminaive(&s);
        assert!(
            b.derivations < a.derivations,
            "semi-naive {} vs naive {}",
            b.derivations,
            a.derivations
        );
    }

    #[test]
    fn same_generation_on_binary_tree() {
        // Nodes are in the same generation iff at equal depth; on a full
        // binary tree of depth d, level i contributes 2^i × 2^i pairs.
        let d = 3u32;
        let s = builders::full_binary_tree(d);
        let prog = Program::same_generation();
        let out = prog.eval_seminaive(&s);
        let sg = prog.idb("sg").unwrap();
        let expected: u64 = (0..=d).map(|i| (1u64 << i) * (1u64 << i)).sum();
        assert_eq!(out.relation(sg).len() as u64, expected);
        // Spot checks: the two children of the root are same-generation.
        assert!(out.relation(sg).contains(&[1, 2]));
        assert!(!out.relation(sg).contains(&[0, 1]));
    }

    #[test]
    fn unbound_head_vars_range_over_domain() {
        let sig = Signature::graph();
        let prog = Program::parse(&sig, "all(x, y).").unwrap();
        let s = builders::empty_graph(3);
        let out = prog.eval_naive(&s);
        assert_eq!(out.relation(0).len(), 9);
    }

    #[test]
    fn parser_errors() {
        let sig = Signature::graph();
        assert!(Program::parse(&sig, "").is_err());
        assert!(Program::parse(&sig, "e(x, y) :- e(y, x).").is_err()); // EDB head
        assert!(Program::parse(&sig, "p(x) :- q(x).").is_err()); // unknown q
        assert!(Program::parse(&sig, "p(x). p(x, y).").is_err()); // arity clash
        assert!(Program::parse(&sig, "p(x) :- e(x).").is_err()); // EDB arity
        assert!(Program::parse(&sig, "p(x :- e(x, y).").is_err()); // syntax
        assert!(Program::parse(&sig, "p x :- e(x, y).").is_err()); // not an ident
    }

    #[test]
    fn parse_errors_carry_positions() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y), q(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "q");
        assert_eq!(err.offset, 17);
        assert_eq!(err.to_string(), "at byte 17: unknown predicate q");

        let src = "p(x, y) :- e(x, y). p(x) :- e(x, x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "p(x)");

        let src = "e(x, y) :- p(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "e");

        let src = "p(x) :- e(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "e(x)");
    }

    #[test]
    fn parse_spanned_spans_point_at_source() {
        let sig = Signature::graph();
        let src = " tc(x, y) :- e(x, y).\ntc(x, z) :- e(x, y), tc(y, z).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert_eq!(p.spans.len(), 2);
        let r0 = &p.spans[0];
        assert_eq!(r0.span.slice(src), "tc(x, y) :- e(x, y)");
        assert_eq!(r0.head.span.slice(src), "tc(x, y)");
        assert_eq!(r0.head.pred.slice(src), "tc");
        assert_eq!(r0.head.args[1].slice(src), "y");
        assert_eq!(r0.body[0].span.slice(src), "e(x, y)");
        let r1 = &p.spans[1];
        assert_eq!(r1.body[1].span.slice(src), "tc(y, z)");
        assert_eq!(r1.body[1].args[0].slice(src), "y");
        // Per-rule variable names, in first-occurrence order.
        assert_eq!(p.var_names[1], vec!["x", "z", "y"]);
    }

    #[test]
    fn nullary_predicates() {
        let sig = Signature::graph();
        // `reach` is true iff some edge exists; `both()` uses the
        // explicit nullary form.
        let prog = Program::parse(&sig, "reach :- e(x, y). both() :- reach.").unwrap();
        let reach = prog.idb("reach").unwrap();
        let both = prog.idb("both").unwrap();
        assert_eq!(prog.idb_info(reach).1, 0);

        let s = builders::directed_path(3);
        for out in [
            prog.eval_naive(&s),
            prog.eval_seminaive(&s),
            prog.eval_seminaive_scan(&s),
        ] {
            assert_eq!(out.relation(reach).len(), 1);
            assert!(out.relation(both).contains(&Vec::new()));
        }
        let empty = builders::empty_graph(3);
        let out = prog.eval_seminaive(&empty);
        assert!(out.relation(reach).is_empty());
        assert!(out.relation(both).is_empty());

        // A nullary EDB reference still reports the arity clash, not a
        // cryptic parse failure.
        let err = Program::parse(&sig, "p(x) :- e.").unwrap_err();
        assert!(err.contains("arity"), "{err}");
    }

    #[test]
    fn repeated_variables_constrain() {
        let sig = Signature::graph();
        // Loops: p(x) :- e(x, x).
        let prog = Program::parse(&sig, "p(x) :- e(x, x).").unwrap();
        let s = builders::directed_cycle(1); // self-loop at 0
        let out = prog.eval_naive(&s);
        assert_eq!(out.relation(0).len(), 1);
        let t = builders::directed_path(4);
        assert!(prog.eval_naive(&t).relation(0).is_empty());
    }

    #[test]
    fn mutual_recursion() {
        let sig = Signature::graph();
        // Even/odd distance from a self-declared start set (all nodes).
        let prog = Program::parse(
            &sig,
            "ev(x, x). od(x, y) :- ev(x, z), e(z, y). ev(x, y) :- od(x, z), e(z, y).",
        )
        .unwrap();
        let s = builders::directed_path(5);
        let out = prog.eval_seminaive(&s);
        let ev = prog.idb("ev").unwrap();
        let od = prog.idb("od").unwrap();
        assert!(out.relation(ev).contains(&[0, 2]));
        assert!(out.relation(od).contains(&[0, 3]));
        assert!(!out.relation(ev).contains(&[0, 3]));
    }

    #[test]
    fn iterations_reported() {
        let prog = Program::transitive_closure();
        let s = builders::directed_path(10);
        let out = prog.eval_seminaive(&s);
        // Path of length 9: deltas shrink over ~9 iterations.
        assert!(out.iterations >= 8, "iterations = {}", out.iterations);
        assert!(out.derivations > 0);
        assert_eq!(out.delta_history.len(), out.iterations);
    }

    #[test]
    fn negation_parses_with_spans() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y), !q(y). q(x) :- e(x, x).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert!(!p.program.rules()[0].body[0].negated);
        assert!(p.program.rules()[0].body[1].negated);
        assert_eq!(p.spans[0].body[1].span.slice(src), "!q(y)");
        assert_eq!(p.spans[0].body[1].pred.slice(src), "q");
        assert_eq!(p.spans[0].body[1].args[0].slice(src), "y");
        assert!(p.program.has_negation());

        let src = "p(x) :- e(x, y), not q(y). q(x) :- e(x, x).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert!(p.program.rules()[0].body[1].negated);
        assert_eq!(p.spans[0].body[1].span.slice(src), "not q(y)");
        assert_eq!(p.spans[0].body[1].pred.slice(src), "q");

        // Negated heads are rejected, with the span on the head atom.
        let src = "!p(x) :- e(x, y).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "!p(x)");
        assert!(err.message.contains("cannot be negated"), "{}", err.message);

        // A negated *unknown* predicate registers a rule-less IDB; a
        // positive one is still an error.
        let p = Program::parse(&sig, "q(x) :- e(x, x), !ghost(x).").unwrap();
        assert!(p.idb("ghost").is_some());
        assert!(Program::parse(&sig, "q(x) :- e(x, x), ghost(x).").is_err());
    }

    #[test]
    fn stratified_negation_agrees_across_engines() {
        let sig = Signature::graph();
        // Three flavors at once: a recursive positive stratum (t), a
        // negation stratum over it (sink = has an in-edge, no
        // out-edge), and a negated EDB atom (skip = two-step pairs
        // with no shortcut edge).
        let prog = Program::parse(
            &sig,
            "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
             src(x) :- e(x, y). sink(x) :- e(y, x), !src(x). \
             skip(x, z) :- e(x, y), e(y, z), !e(x, z).",
        )
        .unwrap();
        for s in [
            builders::directed_path(6),
            builders::directed_cycle(5),
            builders::full_binary_tree(3),
            builders::empty_graph(4),
        ] {
            let a = prog.eval_naive(&s);
            let b = prog.eval_seminaive(&s);
            let c = prog.eval_seminaive_scan(&s);
            for i in 0..prog.num_idbs() {
                assert_eq!(a.relation(i), b.relation(i), "IDB {i}");
                assert_eq!(a.relation(i), c.relation(i), "IDB {i} (scan)");
            }
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(b.iterations, c.iterations);
            assert_eq!(b.derivations, c.derivations);
            assert_eq!(b.delta_history, c.delta_history);
        }
        // Spot-check the semantics on the path 0→1→…→5.
        let s = builders::directed_path(6);
        let out = prog.eval_seminaive(&s);
        let sink = prog.idb("sink").unwrap();
        let skip = prog.idb("skip").unwrap();
        assert_eq!(out.relation(sink).len(), 1);
        assert!(out.relation(sink).contains(&[5]));
        assert_eq!(out.relation(skip).len(), 4);
        assert!(out.relation(skip).contains(&[0, 2]));
        // And thread counts still agree, counters included.
        let s = builders::full_binary_tree(4);
        let reference = prog.eval_seminaive_with(&s, 1);
        for threads in [2, 3] {
            let out = prog.eval_seminaive_with(&s, threads);
            for i in 0..prog.num_idbs() {
                assert_eq!(reference.relation(i), out.relation(i), "threads {threads}");
            }
            assert_eq!(reference.iterations, out.iterations);
            assert_eq!(reference.derivations, out.derivations);
            assert_eq!(reference.delta_history, out.delta_history);
        }
    }

    #[test]
    fn vacuous_negation_passes_everything_through() {
        let sig = Signature::graph();
        let prog = Program::parse(&sig, "q(x) :- e(x, x), !ghost(x).").unwrap();
        let s = builders::directed_cycle(1); // one self-loop at 0
        let out = prog.eval_seminaive(&s);
        assert!(out.relation(prog.idb("q").unwrap()).contains(&[0]));
        assert!(out.relation(prog.idb("ghost").unwrap()).is_empty());
    }

    #[test]
    fn unstratifiable_and_unsafe_programs_error_not_panic() {
        let sig = Signature::graph();
        let s = builders::directed_path(3);
        let b = Budget::unlimited();
        let prog = Program::parse(&sig, "p(x) :- e(x, y), !p(y).").unwrap();
        for err in [
            prog.try_eval_naive(&s, &b).unwrap_err(),
            prog.try_eval_seminaive_with(&s, 1, &b).unwrap_err(),
            prog.try_eval_seminaive_scan(&s, &b).unwrap_err(),
        ] {
            match err {
                EvalError::Unstratifiable {
                    rule,
                    atom,
                    ref pred,
                    ref cycle,
                } => {
                    assert_eq!((rule, atom), (0, 1));
                    assert_eq!(pred, "p");
                    assert_eq!(cycle, &["p".to_owned()]);
                }
                other => panic!("expected Unstratifiable, got {other:?}"),
            }
        }

        let prog = Program::parse(&sig, "q(x) :- e(x, x), !p(y, y). p(x, y) :- e(x, y).").unwrap();
        for err in [
            prog.try_eval_naive(&s, &b).unwrap_err(),
            prog.try_eval_seminaive_with(&s, 1, &b).unwrap_err(),
            prog.try_eval_seminaive_scan(&s, &b).unwrap_err(),
        ] {
            match err {
                EvalError::UnsafeNegation { rule, atom, var } => {
                    assert_eq!((rule, atom), (0, 1));
                    assert_eq!(var, 1); // `y`, second variable of rule 0
                }
                other => panic!("expected UnsafeNegation, got {other:?}"),
            }
        }
    }

    /// A plan over the extents the batch engines see before their
    /// first round: the loaded EDB relations and empty IDB stores.
    fn plan_at_start(
        prog: &Program,
        s: &Structure,
        rule: usize,
        driver: Option<usize>,
        pre_bound: &[bool],
    ) -> Vec<Step> {
        let edb = load_edb(s);
        let store = prog.new_store();
        plan_rule(&prog.rules()[rule], driver, pre_bound, &|a| {
            extent(&edb, &store, a.pred).len()
        })
    }

    #[test]
    fn planner_places_neg_checks_at_earliest_bound_step() {
        let sig = Signature::graph();
        let prog = Program::parse(
            &sig,
            "q(x, z) :- e(x, y), !e(y, y), e(y, z). p(x) :- e(x, x).",
        )
        .unwrap();
        let s = builders::directed_path(4);
        let plan = plan_at_start(&prog, &s, 0, None, &[]);
        // The NegCheck on `!e(y, y)` lands right after the first step
        // binds y — before the second positive edge atom is joined.
        let neg_step = plan
            .iter()
            .position(|st| st.access == Access::NegCheck)
            .unwrap();
        assert_eq!(neg_step, 1, "plan: {plan:?}");

        // A goal plan pre-binds y (variable 1): `!e(y, y)` then has no
        // variable left to bind and gates the rule at step 0, ahead of
        // every join — and the positives probe outward from y.
        let prog = Program::parse(&sig, "q(x, y) :- e(x, z), e(z, y), !e(y, y).").unwrap();
        let plan = plan_at_start(&prog, &s, 0, None, &[false, true]);
        let shape: Vec<(usize, Access)> =
            plan.iter().map(|st| (st.atom, st.access.clone())).collect();
        assert_eq!(
            shape,
            [
                (2, Access::NegCheck),
                (1, Access::Probe(vec![1])),
                (0, Access::Probe(vec![1])),
            ],
            "plan: {plan:?}"
        );
        // Without the pre-binding the check waits until a join binds y.
        let plan = plan_at_start(&prog, &s, 0, None, &[]);
        assert_ne!(plan[0].access, Access::NegCheck, "plan: {plan:?}");
    }

    #[test]
    fn planner_orders_most_bound_first() {
        // sg rule with the delta at position 2: the driver binds xp and
        // yp, so both edge atoms become indexable probes.
        let prog = Program::same_generation();
        let s = builders::full_binary_tree(3);
        let plan = plan_at_start(&prog, &s, 1, Some(2), &[]);
        assert_eq!(plan[0].atom, 2);
        assert_eq!(plan[0].access, Access::ScanDelta);
        for step in &plan[1..] {
            assert_eq!(
                step.access,
                Access::Probe(vec![0]),
                "edge atoms probe on their bound parent"
            );
        }
        // Without a driver nothing is bound at first: the smallest
        // extent leads (the empty IDB extent beats the edge relation).
        let plan = plan_at_start(&prog, &s, 1, None, &[]);
        assert_eq!(plan[0].atom, 2);
        assert_eq!(plan[0].access, Access::Scan);

        // A goal plan (the DRed support check) pre-binds the head's x
        // and y: both edge atoms start half-bound, written order breaks
        // the tie, and once xp is bound the empty sg extent wins the
        // next tie over the edge relation.
        let shape = |plan: &[Step]| -> Vec<(usize, Access)> {
            plan.iter().map(|st| (st.atom, st.access.clone())).collect()
        };
        let plan = plan_at_start(&prog, &s, 1, None, &[true, true]);
        assert_eq!(
            shape(&plan),
            [
                (0, Access::Probe(vec![1])),
                (2, Access::Probe(vec![0])),
                (1, Access::Probe(vec![0, 1])),
            ]
        );
        // Magic's SIP order: the same pre-binding with constant extents
        // leaves boundness and written order alone to decide.
        let plan = plan_rule(&prog.rules()[1], None, &[true, true], &|_| 0);
        assert_eq!(
            shape(&plan),
            [
                (0, Access::Probe(vec![1])),
                (1, Access::Probe(vec![1])),
                (2, Access::Probe(vec![0, 1])),
            ]
        );
    }
}
