//! # fmt-lint
//!
//! A span-aware static analyzer for FO formulas and Datalog programs —
//! the front end every entry point of the toolbox (CLI, conformance
//! generators, corpus replay) runs before handing an input to an
//! evaluator.
//!
//! The crate is built on two pieces:
//!
//! * the reusable diagnostics core re-exported from
//!   [`fmt_structures::diag`] ([`Diagnostic`] `{ severity, code, span,
//!   message, note }` with rustc-style caret rendering and a JSON
//!   round-trip), fed by the byte-offset spans the parsers now thread
//!   through ([`fmt_logic::parser::parse_formula_spanned`] and
//!   [`fmt_queries::datalog::Program::parse_spanned`]);
//! * a single-pass [`analysis`] IR that computes per-subformula facts
//!   (free variables, quantifier rank, alternation, width, folded
//!   truth values) once and shares them across all lints.
//!
//! ## Lint catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | F000 | error    | formula parse error (syntax) |
//! | F001 | warning  | unused quantified variable |
//! | F002 | warning  | variable rebinds an enclosing binding |
//! | F003 | warning  | trivially true/false subformula (constant folding) |
//! | F004 | error    | unknown relation / arity mismatch / bad constant |
//! | F005 | warning  | quantifier-rank budget exceeded (Thm 3.1 `2^n` blow-up) |
//! | F006 | error    | sentence expected but free variables found |
//! | D000 | error    | Datalog program parse error |
//! | D001 | warning  | unsafe rule: head variable not bound by the body |
//! | D002 | warning  | singleton (unused) body variable |
//! | D003 | warning* | IDB unreachable from the queried predicate (*error for an unknown goal) |
//! | D004 | warning  | duplicate rule (up to variable renaming) |
//! | D005 | warning  | variable-free body atom the planner should fold |
//! | D006 | error    | unstratifiable: negation inside a recursive component |
//! | D007 | error    | unsafe negation: variable not positively bound |
//! | D008 | warning  | negated predicate has no rules (vacuously true) |
//! | D009 | warning  | stratum budget exceeded (complexity signal) |
//! | D010 | error    | query goal references an unknown predicate / arity mismatch |
//! | D011 | warning  | all-free query goal on a recursive predicate prunes nothing |
//!
//! See `docs/lint.md` for one minimal trigger example per code and the
//! JSON output schema, and `docs/stratification.md` for the dependency
//! graph behind D006–D009.
//!
//! ## Example
//!
//! ```
//! use fmt_lint::{lint_formula_src, LintConfig};
//! use fmt_structures::Signature;
//!
//! let sig = Signature::graph();
//! let diags = lint_formula_src(&sig, "exists x. E(y, y)", &LintConfig::default());
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, "F001"); // x is never used
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod dl;
mod fo;

use fmt_logic::parser::{parse_formula_spanned, LogicParseErrorKind, ParsedFormula};
use fmt_logic::{Formula, Var};
use fmt_queries::datalog::{ParsedProgram, Program};
use fmt_structures::Signature;
use std::sync::Arc;

pub use dl::{program_lints, ProgramMeta};
pub use fmt_structures::{diag, Diagnostic, Severity, Span};
pub use fo::formula_lints;

/// Lint codes and their one-line descriptions, in catalogue order.
pub const CODES: &[(&str, &str)] = &[
    ("F000", "formula parse error (syntax)"),
    ("F001", "unused quantified variable"),
    ("F002", "variable rebinds an enclosing binding"),
    ("F003", "trivially true/false subformula"),
    ("F004", "unknown relation or arity mismatch"),
    ("F005", "quantifier-rank budget exceeded"),
    ("F006", "sentence expected but free variables found"),
    ("D000", "Datalog program parse error"),
    ("D001", "unsafe rule: head variable not bound by the body"),
    ("D002", "singleton (unused) body variable"),
    ("D003", "IDB unreachable from the queried predicate"),
    ("D004", "duplicate rule"),
    ("D005", "variable-free body atom the planner should fold"),
    (
        "D006",
        "unstratifiable: negation inside a recursive component",
    ),
    ("D007", "unsafe negation: variable not positively bound"),
    ("D008", "negated predicate has no rules (vacuously true)"),
    ("D009", "stratum budget exceeded"),
    ("D010", "query goal references an unknown predicate"),
    ("D011", "all-free query goal on a recursive predicate"),
];

/// The long-form, rustc-style explanation behind `fmtk lint --explain
/// CODE`: what the code means, why it matters, and how to fix it.
/// `None` for unknown codes; every code in [`CODES`] has one.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "F000" => {
            "The formula could not be parsed. The diagnostic's span points at the \
             byte where the parser gave up. Common causes: unbalanced parentheses, \
             a missing `.` after a quantifier block, or an operator typo. Fix the \
             syntax at the caret; the parser reports the first error only."
        }
        "F001" => {
            "A quantified variable is never used inside its scope. `exists x. E(y, y)` \
             quantifies x but the body never mentions it, so the quantifier only \
             asserts the domain is non-empty — almost never what was meant. Either \
             use the variable in the body or delete the binder."
        }
        "F002" => {
            "A quantifier rebinds a variable that an enclosing quantifier already \
             binds, as in `forall x. exists x. ...`. The inner binding shadows the \
             outer one, so the outer variable cannot be mentioned in the inner scope. \
             Rename one of the variables; shadowing in hand-written formulas is \
             nearly always an editing accident."
        }
        "F003" => {
            "Constant folding proved a subformula identically true or false, e.g. \
             `E(x, y) & false`. The span covers the largest foldable subformula. \
             Simplify the formula by hand — the trivial branch either deletes the \
             surrounding connective or the whole formula."
        }
        "F004" => {
            "The formula mentions a relation the signature does not define, or uses \
             one at the wrong arity, or names a constant outside the structure's \
             domain. Check the spelling against the signature (relation names match \
             case-insensitively) and the declared arities."
        }
        "F005" => {
            "The formula's quantifier rank exceeds the configured budget \
             (`--rank-budget`, default 8). Rank drives the cost of every \
             Ehrenfeucht-Fraisse argument and the `2^n` blow-up of Theorem 3.1 \
             normal forms, so deep quantifier nesting is a complexity smell. Flatten \
             nested quantifiers or raise the budget deliberately."
        }
        "F006" => {
            "A sentence (closed formula) was expected — `--sentence` was passed or \
             the calling context requires one — but the formula has free variables. \
             The message lists them. Quantify the free variables or drop the \
             sentence expectation."
        }
        "D000" => {
            "The Datalog program could not be parsed. The span points at the \
             offending token. Rules are `head :- a1, a2, ... .` with a terminating \
             period; predicates matching a signature relation (case-insensitively) \
             are EDB and may not be redefined; every other predicate must appear in \
             some head or under a negation."
        }
        "D001" => {
            "A head variable is not bound by any positive body atom, so it ranges \
             over the entire domain: `p(x, y) :- e(x, x).` derives p(c, d) for every \
             d. Negated atoms do not bind (they only filter), so a variable that \
             appears under negation alone still fires this. Body-less fact schemas \
             like `sg(x, x).` are exempt — domain-ranging is their point. Bind the \
             variable in a positive atom if blow-up was not intended."
        }
        "D002" => {
            "A body variable occurs exactly once in its rule, so it joins nothing \
             and projects nothing — an anonymous wildcard. That is legal but often \
             a typo for a variable that was meant to link two atoms. Reuse the \
             variable to constrain the join, or accept the existential reading."
        }
        "D003" => {
            "An IDB predicate cannot be reached from the queried predicate in the \
             rule dependency graph, yet the engine still materializes it every \
             round. The queried predicate defaults to the first-defined IDB; pass \
             `--goal PRED` if the real query root differs. Delete dead rules or \
             re-point the goal. (An unknown --goal name is the error form.)"
        }
        "D004" => {
            "Two rules are identical up to consistent variable renaming, e.g. \
             `p(x) :- e(x, x).` and `p(y) :- e(y, y).`. The duplicate derives the \
             same facts twice per round and doubles join work for nothing. Delete \
             one copy."
        }
        "D005" => {
            "A body atom has no variables (`hit`, `p()`), so its truth is constant \
             within a fixpoint round. The join planner should hoist it out as a \
             guard instead of re-checking it per candidate tuple; until it does, \
             move the atom first or question why a constant guard is in the rule."
        }
        "D006" => {
            "The program is not stratifiable: some predicate is negated inside its \
             own recursive component, as in `p(x) :- e(x, y), !p(y).`. Stratified \
             semantics needs the negated predicate fully computed in a lower \
             stratum, which a dependency cycle through the negation makes \
             impossible — there is no evaluation order, and every engine rejects \
             the program with the same typed error. The note lists the cycle's \
             predicates; break the cycle or remove the negation. (Well-founded or \
             stable-model semantics would assign meaning, but this dialect is \
             stratified only.)"
        }
        "D007" => {
            "A variable inside a negated atom is not bound by any positive atom of \
             the same rule: `q(x) :- e(x, x), !p(y, y).`. Negation-as-failure can \
             only filter tuples that positive atoms produced — an unbound negated \
             variable would quantify over the whole domain (\"for no y ...\"), \
             which is unsafe under the active-domain semantics. Bind the variable \
             in a positive atom first (range restriction)."
        }
        "D008" => {
            "A negated predicate has no rules, so its extent is statically empty \
             and the negation passes every candidate tuple: `!ghost(x)` is always \
             true. The program means the same without the atom — which usually \
             signals a misspelled predicate name rather than an intentional no-op. \
             Define the predicate or delete the atom."
        }
        "D009" => {
            "Stratification succeeded but needs more strata than the configured \
             budget (default 4). Each stratum is a complete fixpoint over the one \
             below, so a deep negation chain multiplies evaluation passes; the \
             message also reports the widest stratum (rules evaluated together) as \
             a join-pressure signal. Deep chains are legal — this is a complexity \
             warning, not an error."
        }
        "D010" => {
            "The trailing query goal (`pred(args)?` or `--query`) does not resolve \
             against the program: the predicate is unknown, names an EDB relation \
             (only IDB predicates can be queried — EDB extents are given, not \
             derived), the argument count differs from the predicate's arity, or a \
             quoted constant is not declared by the signature. The span points at \
             the offending goal token. Magic-sets rewriting refuses such goals with \
             the same typed error this lint renders."
        }
        "D011" => {
            "The query goal binds no argument (all positions are variables) but the \
             queried predicate is recursive, so magic-sets rewriting degenerates to \
             the identity: the engine materializes the full fixpoint exactly as it \
             would without the goal, and the `?` buys nothing. That is legal — the \
             transparency guarantee depends on it — but if pruning was the point, \
             bind at least one argument to a constant (`tc(\"a\", y)?`)."
        }
        _ => return None,
    })
}

/// Formulas analyzed (parsed or AST).
static OBS_FORMULAS: fmt_obs::Counter = fmt_obs::Counter::new("lint.formulas");
/// Datalog programs analyzed (parsed or AST).
static OBS_PROGRAMS: fmt_obs::Counter = fmt_obs::Counter::new("lint.programs");
/// Diagnostics emitted across all inputs.
static OBS_DIAGS: fmt_obs::Counter = fmt_obs::Counter::new("lint.diagnostics");
/// Diagnostics per analyzed input.
static OBS_PER_INPUT: fmt_obs::Histogram = fmt_obs::Histogram::new("lint.diags_per_input");

/// Tunable thresholds and expectations for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// F005 fires when the formula's quantifier rank exceeds this.
    pub rank_budget: u32,
    /// When set, F006 fires on formulas with free variables.
    pub expect_sentence: bool,
    /// The queried IDB predicate D003 computes reachability from
    /// (`None` = the first-defined IDB).
    pub goal: Option<String>,
    /// D009 fires when a program's stratification needs more than this
    /// many strata.
    pub strata_budget: usize,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            rank_budget: 8,
            expect_sentence: false,
            goal: None,
            strata_budget: 4,
        }
    }
}

fn meter(diags: &[Diagnostic]) {
    OBS_DIAGS.add(diags.len() as u64);
    OBS_PER_INPUT.record(diags.len() as u64);
}

/// Stable presentation order: by source position, then code.
pub(crate) fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let ka = (a.span.map_or(usize::MAX, |s| s.start), &a.code);
        let kb = (b.span.map_or(usize::MAX, |s| s.start), &b.code);
        ka.cmp(&kb)
    });
}

/// True if any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Parses and lints a formula. Parse errors come back as a single
/// error diagnostic (F000 for syntax, F004 for unknown relations and
/// arity mismatches), with the parser's span.
pub fn lint_formula_src(sig: &Signature, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    OBS_FORMULAS.incr();
    let out = match parse_formula_spanned(sig, src) {
        Ok(p) => lint_parsed_formula(&p, cfg),
        Err(e) => {
            let code = match e.kind {
                LogicParseErrorKind::Syntax => "F000",
                LogicParseErrorKind::UnknownRelation | LogicParseErrorKind::ArityMismatch => "F004",
            };
            vec![Diagnostic::error(code, e.message).with_span(e.span)]
        }
    };
    meter(&out);
    out
}

/// Lints an already-parsed formula, reusing its spans and source
/// variable names.
pub fn lint_parsed_formula(p: &ParsedFormula, cfg: &LintConfig) -> Vec<Diagnostic> {
    let a = analysis::analyze(&p.formula, Some(&p.spans));
    let name = |v: Var| {
        p.vars
            .get(v.0 as usize)
            .cloned()
            .unwrap_or_else(|| v.to_string())
    };
    fo::formula_lints(&a, cfg, &name)
}

/// Lints a programmatically built formula AST (no spans; variables
/// print canonically as `x0`, `x1`, …). Ill-formedness surfaces as the
/// F004 diagnostic of [`Formula::well_formed`].
pub fn lint_formula(sig: &Signature, f: &Formula, cfg: &LintConfig) -> Vec<Diagnostic> {
    OBS_FORMULAS.incr();
    let out = match f.well_formed(sig) {
        Err(d) => vec![d],
        Ok(()) => {
            let a = analysis::analyze(f, None);
            fo::formula_lints(&a, cfg, &|v: Var| v.to_string())
        }
    };
    meter(&out);
    out
}

/// Parses and lints a Datalog program, including an optional trailing
/// query goal (`pred(args)?` — lint codes D010/D011). Parse errors
/// come back as a single D000 error diagnostic with the parser's span.
pub fn lint_program_src(sig: &Arc<Signature>, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    OBS_PROGRAMS.incr();
    // Split off a trailing query goal first; the rule prefix is a
    // byte-prefix of `src`, so every span below renders against the
    // original file unchanged.
    let out = match fmt_queries::magic::split_query(src) {
        Err(e) => vec![Diagnostic::error("D000", e.message).with_span(e.span)],
        Ok(split) => {
            let body = split.as_ref().map_or(src, |(len, _)| &src[..*len]);
            match Program::parse_spanned(sig, body) {
                Ok(p) => {
                    let mut d = lint_parsed_program(&p, cfg);
                    if let Some((_, goal)) = &split {
                        d.extend(dl::goal_lints(&p.program, goal));
                        sort_diags(&mut d);
                    }
                    d
                }
                Err(e) => vec![Diagnostic::error("D000", e.message).with_span(e.span)],
            }
        }
    };
    meter(&out);
    out
}

/// Lints an already-parsed program, reusing its spans and source
/// variable names.
pub fn lint_parsed_program(p: &ParsedProgram, cfg: &LintConfig) -> Vec<Diagnostic> {
    dl::program_lints(&p.program, Some((&p.spans, &p.var_names)), cfg)
}

/// Lints a [`Program`] without source metadata (no spans; variables
/// print as `v0`, `v1`, …).
pub fn lint_program(p: &Program, cfg: &LintConfig) -> Vec<Diagnostic> {
    OBS_PROGRAMS.incr();
    let out = dl::program_lints(p, None, cfg);
    meter(&out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn f001_unused_quantified_variable() {
        let sig = Signature::graph();
        let src = "exists x. E(y, y)";
        let d = lint_formula_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["F001"]);
        assert_eq!(d[0].span.unwrap().slice(src), "x");
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn f002_shadowing() {
        let sig = Signature::graph();
        let src = "forall x. exists x. E(x, x)";
        let d = lint_formula_src(&sig, src, &LintConfig::default());
        // The outer x is unused (its body's x is rebound) and the
        // inner binder shadows it.
        assert_eq!(codes(&d), ["F001", "F002"]);
        assert_eq!(d[1].span.unwrap(), Span::new(17, 18));
    }

    #[test]
    fn f003_trivial_subformula_is_maximal() {
        let sig = Signature::graph();
        let src = "E(x, y) & false";
        let d = lint_formula_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["F003"]);
        // The whole conjunction folds, not just the literal.
        assert_eq!(d[0].span.unwrap().slice(src), src);
    }

    #[test]
    fn f004_parse_errors_are_precise() {
        let sig = Signature::graph();
        let src = "E(x, y) & R(x)";
        let d = lint_formula_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["F004"]);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].span.unwrap().slice(src), "R");
        let d = lint_formula_src(&sig, "E(x, y", &LintConfig::default());
        assert_eq!(codes(&d), ["F000"]);
    }

    #[test]
    fn f005_rank_budget() {
        let sig = Signature::graph();
        let src = "exists x. forall y. E(x, y)";
        let cfg = LintConfig {
            rank_budget: 1,
            ..LintConfig::default()
        };
        let d = lint_formula_src(&sig, src, &cfg);
        assert_eq!(codes(&d), ["F005"]);
        assert!(d[0].note.as_deref().unwrap().contains("2^n"), "{:?}", d[0]);
        assert!(lint_formula_src(&sig, src, &LintConfig::default()).is_empty());
    }

    #[test]
    fn f006_sentence_expected() {
        let sig = Signature::graph();
        let cfg = LintConfig {
            expect_sentence: true,
            ..LintConfig::default()
        };
        let d = lint_formula_src(&sig, "E(x, y)", &cfg);
        assert_eq!(codes(&d), ["F006"]);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("x, y"));
        assert!(lint_formula_src(&sig, "forall x y. E(x, y)", &cfg).is_empty());
    }

    #[test]
    fn d001_unbound_head_variable() {
        let sig = Signature::graph();
        let src = "p(x, y) :- e(x, x).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D001"]);
        assert_eq!(d[0].span.unwrap(), Span::new(5, 6));
        // Body-less fact schemas are the survey's idiom — exempt.
        assert!(lint_program_src(&sig, "p(x, y).", &LintConfig::default()).is_empty());
    }

    #[test]
    fn d002_singleton_body_variable() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D002"]);
        assert_eq!(d[0].span.unwrap(), Span::new(13, 14));
    }

    #[test]
    fn d003_unreachable_idb() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, x). q(x) :- q(x).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D003"]);
        assert_eq!(d[0].span.unwrap().slice(src), "q");
        // An explicit goal changes reachability.
        let cfg = LintConfig {
            goal: Some("q".into()),
            ..LintConfig::default()
        };
        let d = lint_program_src(&sig, src, &cfg);
        assert_eq!(codes(&d), ["D003"]);
        assert!(
            d[0].message.contains("p is unreachable"),
            "{}",
            d[0].message
        );
        // An unknown goal is an error.
        let cfg = LintConfig {
            goal: Some("nope".into()),
            ..LintConfig::default()
        };
        let d = lint_program_src(&sig, src, &cfg);
        assert!(has_errors(&d));
    }

    #[test]
    fn d004_duplicate_rule_up_to_renaming() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, x). p(y) :- e(y, y).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D004"]);
        assert_eq!(d[0].span.unwrap().slice(src), "p(y) :- e(y, y)");
    }

    #[test]
    fn d005_variable_free_body_atom() {
        let sig = Signature::graph();
        let src = "p(x) :- hit, e(x, x). hit :- e(x, x).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D005"]);
        assert_eq!(d[0].span.unwrap().slice(src), "hit");
        assert_eq!(d[0].span.unwrap(), Span::new(8, 11));
    }

    #[test]
    fn d000_parse_error() {
        let sig = Signature::graph();
        let d = lint_program_src(&sig, "p(x) :- q(x).", &LintConfig::default());
        assert_eq!(codes(&d), ["D000"]);
        assert!(has_errors(&d));
    }

    #[test]
    fn d006_unstratifiable_negation() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y), !p(y).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D006"]);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].span.unwrap().slice(src), "!p(y)");
        assert!(d[0].note.as_deref().unwrap().contains("{p}"), "{:?}", d[0]);
        // Mutual recursion through a negation: both spellings carry
        // carets, and the note names the whole cycle.
        let src = "p(x) :- e(x, y), not q(y). q(x) :- p(x).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D006"]);
        assert_eq!(d[0].span.unwrap().slice(src), "not q(y)");
        assert!(d[0].note.as_deref().unwrap().contains("p, q"), "{:?}", d[0]);
    }

    #[test]
    fn d007_unsafe_negation() {
        let sig = Signature::graph();
        let src = "q(x) :- e(x, x), !p(y, y). p(x, y) :- e(x, y).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D007"]);
        assert_eq!(d[0].severity, Severity::Error);
        // The caret lands on the unbound variable itself.
        assert_eq!(d[0].span.unwrap(), Span::new(20, 21));
        assert_eq!(d[0].span.unwrap().slice(src), "y");
        assert!(d[0].message.contains("variable y"), "{}", d[0].message);
    }

    #[test]
    fn d008_vacuous_negation() {
        let sig = Signature::graph();
        let src = "q(x) :- e(x, x), !ghost(x).";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D008"]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].span.unwrap().slice(src), "!ghost(x)");
    }

    #[test]
    fn d009_stratum_budget() {
        let sig = Signature::graph();
        let src = "p1(x) :- e(x, x). \
                   p2(x) :- e(x, x), !p1(x). \
                   p3(x) :- e(x, x), !p2(x). \
                   p4(x) :- e(x, x), !p3(x). \
                   p5(x) :- e(x, x), !p4(x).";
        let cfg = LintConfig {
            goal: Some("p5".into()),
            ..LintConfig::default()
        };
        let d = lint_program_src(&sig, src, &cfg);
        assert_eq!(codes(&d), ["D009"]);
        assert!(d[0].message.contains("5 strata"), "{}", d[0].message);
        // Default budget of 4 tolerates a 4-stratum chain.
        let short = "p1(x) :- e(x, x). \
                     p2(x) :- e(x, x), !p1(x). \
                     p3(x) :- e(x, x), !p2(x). \
                     p4(x) :- e(x, x), !p3(x).";
        let cfg = LintConfig {
            goal: Some("p4".into()),
            ..LintConfig::default()
        };
        assert!(lint_program_src(&sig, short, &cfg).is_empty());
    }

    #[test]
    fn d010_unresolvable_query_goal() {
        let sig = Signature::graph();
        let src = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). ghost(x, y)?";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D010"]);
        assert!(has_errors(&d));
        assert_eq!(d[0].span.unwrap().slice(src), "ghost");
        // Arity mismatches span the whole goal atom.
        let src = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). tc(0)?";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D010"]);
        assert_eq!(d[0].span.unwrap().slice(src), "tc(0)");
        // Querying an EDB relation is the NotIdb member of the family.
        let src = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). e(0, y)?";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D010"]);
        assert_eq!(d[0].span.unwrap().slice(src), "e");
    }

    #[test]
    fn d011_all_free_goal_on_recursive_predicate() {
        let sig = Signature::graph();
        let src = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). tc(x, y)?";
        let d = lint_program_src(&sig, src, &LintConfig::default());
        assert_eq!(codes(&d), ["D011"]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].span.unwrap().slice(src), "tc(x, y)");
        // A bound argument prunes — clean.
        let bound = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). tc(0, y)?";
        assert!(lint_program_src(&sig, bound, &LintConfig::default()).is_empty());
        // A non-recursive goal predicate materializes identically with
        // or without the goal, so an all-free goal is not a smell.
        let flat = "p(x, y) :- e(x, y). p(x, y)?";
        assert!(lint_program_src(&sig, flat, &LintConfig::default()).is_empty());
        // A malformed goal is a D000 parse diagnostic, not D010/D011.
        let bad = "p(x, y) :- e(x, y). p(x, y)? q(x)?";
        let d = lint_program_src(&sig, bad, &LintConfig::default());
        assert_eq!(codes(&d), ["D000"]);
    }

    #[test]
    fn stratified_negation_is_lint_clean() {
        let sig = Signature::graph();
        let src = "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
                   nt(x, y) :- e(x, y), !t(y, x).";
        let cfg = LintConfig {
            goal: Some("nt".into()),
            ..LintConfig::default()
        };
        let d = lint_program_src(&sig, src, &cfg);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn every_code_has_a_nonempty_explanation() {
        for (code, summary) in CODES {
            let text = explain(code)
                .unwrap_or_else(|| panic!("code {code} ({summary}) has no explanation"));
            assert!(
                text.trim().len() >= 80,
                "explanation for {code} is too short to be useful"
            );
        }
        assert_eq!(explain("D999"), None);
    }

    #[test]
    fn canned_programs_are_lint_clean() {
        let sig = Signature::graph();
        for src in [
            "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).",
            "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).",
        ] {
            let d = lint_program_src(&sig, src, &LintConfig::default());
            assert!(d.is_empty(), "{src}: {d:?}");
        }
    }

    #[test]
    fn ast_paths_work_without_spans() {
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let f = Formula::exists(Var(0), Formula::atom(e, &[Var(1), Var(1)]));
        let d = lint_formula(&sig, &f, &LintConfig::default());
        assert_eq!(codes(&d), ["F001"]);
        assert_eq!(d[0].span, None);
        assert!(d[0].message.contains("x0"));

        let p = Program::same_generation();
        assert!(lint_program(&p, &LintConfig::default()).is_empty());
    }
}
