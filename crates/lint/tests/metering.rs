//! The `lint.*` counters count exactly the inputs linted and the
//! diagnostics reported. The counters are process-global, so this test
//! lives in its own binary: a lint test running beside it in the same
//! process would bump them while it is enabled.

use fmt_lint::{lint_formula_src, lint_program_src, LintConfig};
use fmt_structures::Signature;

#[test]
fn metering_counts_inputs_and_diagnostics() {
    fmt_obs::reset();
    fmt_obs::enable();
    let sig = Signature::graph();
    lint_formula_src(&sig, "exists x. E(y, y)", &LintConfig::default());
    lint_program_src(&sig, "p(x) :- e(x, x).", &LintConfig::default());
    let snap = fmt_obs::snapshot();
    fmt_obs::disable();
    assert_eq!(snap.counter("lint.formulas"), Some(1));
    assert_eq!(snap.counter("lint.programs"), Some(1));
    assert_eq!(snap.counter("lint.diagnostics"), Some(1));
}
