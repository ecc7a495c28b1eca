//! Running a workload: the untraced end-to-end run and the traced run
//! of the CLI workloads, and the result they print.

use crate::calib::{self, typical_ms, Figures, Samples};
use crate::cli::{Fmtk, Reply};
use crate::gen::{Plan, Task};
use crate::layers::{layer_values, END_TO_END, PER_LAYER};
use crate::measure::{cpu_times, mean, median, quantile, MIN_SAMPLES};
use crate::mirror::{self, parse_reply, Checker};
use crate::trace::{to_chrome_json, SpanRec, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets the end-to-end metrics: the run's figures scaled to the
    /// reference speed by the kernel times taken through it (see
    /// [`crate::calib`]). The unscaled figures are printed beside them.
    pub fn set_end_to_end(&mut self, run: &Samples) {
        let summary = |f: &Figures| {
            [
                median(&f.setup_s),
                quantile(&f.walls_ms, 0.5),
                quantile(&f.walls_ms, 0.9),
                f.cpu_ms / f.walls_ms.len().max(1) as f64,
            ]
        };
        self.metrics = END_TO_END
            .iter()
            .zip(summary(&run.figures(true)))
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        let n = run.requests();
        let raw = run.figures(false);
        self.lines.push(format!(
            "  {n} requests timed, p90 has {} beyond it; set-up measured {} times",
            n - (n * 9).div_ceil(10),
            raw.setup_s.len()
        ));
        self.lines.push(format!(
            "  host speed: kernel {:.4} ms (trimmed mean of {} samples), reference {} ms",
            typical_ms(run.kernel_ms()),
            run.kernel_ms().len(),
            run.reference_ms()
        ));
        let [setup, p50, p90, cpu] = summary(&raw);
        self.lines.push(format!(
            "  unscaled: setup_s {setup:.4} s, p50 {p50:.4} ms, p90 {p90:.4} ms, cpu {cpu:.4} ms"
        ));
    }

    /// Sets every per-layer metric: `measured` from the mirror and the
    /// runner, 0 for layers the workload does not call.
    pub fn set_per_layer(&mut self, measured: &BTreeMap<&'static str, f64>) {
        self.metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, measured.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect();
    }

    /// The human-readable report followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for (name, v, unit) in &self.metrics {
            out.push_str(&format!("  {name:<32} {v:>14.4} {unit}\n"));
        }
        out.push_str(&format!(
            "  {:<32} {:>14.4} ratio ({} failed of {} attempted)\n",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ));
        out
    }
}

/// Checks `fmtk` replies against the oracles. A reply byte-identical to
/// one already verified for the same request passes without re-parsing.
struct Verifier<'a> {
    checker: Checker<'a>,
    verified: HashMap<usize, Vec<u8>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Verifier<'a> {
    fn new(plan: &'a Plan) -> Verifier<'a> {
        Verifier {
            checker: Checker::new(plan),
            verified: HashMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }

    /// Records the reply to request `idx` of the cycle.
    fn record(&mut self, idx: usize, task: &Task, reply: &Reply) {
        self.attempted += 1;
        if !reply.ok {
            return self.fail(format!(
                "request {idx}: fmtk failed: {}",
                reply.stderr.trim()
            ));
        }
        if self.verified.get(&idx) == Some(&reply.stdout) {
            return;
        }
        let answer = std::str::from_utf8(&reply.stdout)
            .ok()
            .and_then(|out| parse_reply(task, out));
        match answer {
            Some(a) if self.checker.check(task, &a) => {
                self.verified.insert(idx, reply.stdout.clone());
            }
            _ => self.fail(format!("request {idx}: the oracle rejected the answer")),
        }
    }

    /// Censuses must not depend on element names: each graph with a
    /// verified census is censused once more, on a relabelled copy, and
    /// must give the same table.
    fn census_relabelling(
        &mut self,
        plan: &Plan,
        fmtk: &Fmtk,
        dir: &Path,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut seen = std::collections::HashSet::new();
        for (idx, req) in plan.cycle.iter().enumerate() {
            let Task::Census { graph } = req.task else {
                continue;
            };
            let Some(original) = self.verified.get(&idx) else {
                continue;
            };
            if !seen.insert(graph) {
                continue;
            }
            let original = parse_reply(&req.task, &String::from_utf8_lossy(original));
            let mut rng = crate::gen::Rng::new(seed, 1000 + graph as u64);
            let g = &plan.graphs[graph];
            let name = format!("relabelled{graph:02}.txt");
            std::fs::write(dir.join(&name), g.relabel(&rng.permutation(g.n)).to_text())?;
            let mut args = req.args.clone();
            args[1] = name;
            let reply = fmtk.call(&args)?;
            self.attempted += 1;
            let again = parse_reply(&req.task, &String::from_utf8_lossy(&reply.stdout));
            if !reply.ok || again.is_none() || again != original {
                self.fail(format!("request {idx}: census changed under relabelling"));
            }
        }
        Ok(())
    }

    fn finish(self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.lines
            .extend(self.errors.into_iter().map(|e| format!("  error: {e}")));
    }
}

/// Requests between two set-up samples.
const SETUP_EVERY: usize = 8;

/// Replays whole cycles of the plan through `fmtk` until `seconds` have
/// passed and at least `min_requests` were timed. Before every
/// [`SETUP_EVERY`] requests, the set-up request (the cycle's first) runs
/// once more, untimed as a request; many set-up samples spread over the
/// run keep their median steady. After every `fmtk` process, a kernel
/// process runs (see [`crate::calib`]). Returns the samples and the
/// stdout size of each timed request.
fn cli_loop(
    plan: &Plan,
    fmtk: &Fmtk,
    v: &mut Verifier,
    seconds: Duration,
    min_requests: usize,
) -> std::io::Result<(Samples, Vec<usize>)> {
    let kernel = Fmtk::new(std::env::current_exe()?, fmtk.dir().to_path_buf());
    let kernel_ms = || -> std::io::Result<f64> {
        let reply = kernel.call(&[calib::KERNEL_FLAG.to_owned()])?;
        if !reply.ok {
            return Err(std::io::Error::other("the kernel process failed"));
        }
        Ok(reply.wall_ms)
    };
    let start = Instant::now();
    let mut run = Samples::new(calib::REFERENCE_PROCESS_MS);
    let mut bytes = Vec::new();
    let first = &plan.cycle[0];
    while run.requests() == 0 || start.elapsed() < seconds || run.requests() < min_requests {
        for (idx, req) in plan.cycle.iter().enumerate() {
            if idx % SETUP_EVERY == 0 {
                let reply = fmtk.call(&first.args)?;
                run.setup(reply.wall_ms / 1e3);
                v.record(0, &first.task, &reply);
                run.kernel(kernel_ms()?);
            }
            let cpu0 = cpu_times()?.children_ms;
            let reply = fmtk.call(&req.args)?;
            run.cpu(cpu_times()?.children_ms - cpu0);
            run.request(reply.wall_ms);
            bytes.push(reply.stdout.len());
            v.record(idx, &req.task, &reply);
            run.kernel(kernel_ms()?);
        }
    }
    Ok((run, bytes))
}

/// The untraced end-to-end run of a CLI workload.
pub fn cli_end_to_end(
    plan: &Plan,
    fmtk: &Fmtk,
    dir: &Path,
    seed: u64,
    seconds: Duration,
) -> std::io::Result<Outcome> {
    let mut v = Verifier::new(plan);
    let (run, _) = cli_loop(plan, fmtk, &mut v, seconds, MIN_SAMPLES)?;
    v.census_relabelling(plan, fmtk, dir, seed)?;
    let mut out = Outcome::default();
    out.set_end_to_end(&run);
    v.finish(&mut out);
    Ok(out)
}

/// What [`traced_passes`] measured.
#[derive(Debug)]
pub struct Passes {
    /// The mirror-measured per-layer values, `trace.overhead_pct` and
    /// `trace.requests`.
    pub values: BTreeMap<&'static str, f64>,
    /// Mean request time of the untraced passes, ms.
    pub untraced_ms: f64,
    /// Spans of the first traced pass (the counts and the span file).
    pub counted: Vec<SpanRec>,
}

/// Runs the mirror in passes: an untraced warm-up pass, then untraced
/// and traced passes, alternating which goes first, until `seconds`
/// have passed (at least one of each). `pass(tracer, first_id, out)`
/// runs one pass, giving its spans request ids from `first_id` to below
/// `first_id + ids`, and returns its request times in ms.
pub fn traced_passes(
    ids: usize,
    seconds: Duration,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Tracer, usize, &mut Outcome) -> Result<Vec<f64>, String>,
) -> Result<Passes, String> {
    pass(&mut Tracer::new(false), 0, out)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut timed = Vec::new();
    let mut counted = None;
    let mut k = 0;
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < seconds {
        let order = if n % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let mut tr = Tracer::new(enabled);
            let times = pass(&mut tr, n * ids, out)?;
            if enabled {
                k = times.len();
                traced.extend(times);
                counted.get_or_insert_with(|| tr.spans.clone());
                timed.append(&mut tr.spans);
            } else {
                plain.extend(times);
            }
        }
        n += 1;
    }
    let counted = counted.expect("at least one traced pass");
    let mut values = layer_values(&timed, &counted);
    let untraced_ms = mean(&plain);
    values.insert(
        "trace.overhead_pct",
        (mean(&traced) / untraced_ms - 1.0) * 100.0,
    );
    values.insert("trace.requests", k as f64);
    out.lines.push(format!(
        "  mirror: a warm-up pass, then {n} untraced and {n} traced passes of {k} requests"
    ));
    Ok(Passes {
        values,
        untraced_ms,
        counted,
    })
}

/// [`traced_passes`] over the in-process mirror of a CLI plan.
pub fn mirror_passes(plan: &Plan, seconds: Duration, out: &mut Outcome) -> Result<Passes, String> {
    let mut checker = Checker::new(plan);
    let k = plan.cycle.len();
    traced_passes(k, seconds, out, |tr, first_id, out| {
        let (times, failed) = mirror::pass(plan, &mut checker, tr, first_id);
        out.attempted += k as u64;
        out.failed += failed;
        Ok(times)
    })
}

/// The traced run of a CLI workload: a third of the time replays the
/// cycle through `fmtk` (for the `cli.*` metrics), the rest alternates
/// untraced and traced passes of the in-process mirror.
pub fn cli_traced(
    plan: &Plan,
    fmtk: &Fmtk,
    dir: &Path,
    seed: u64,
    seconds: Duration,
) -> std::io::Result<Outcome> {
    let mut v = Verifier::new(plan);
    let (run, bytes) = cli_loop(plan, fmtk, &mut v, seconds / 3, 0)?;
    let walls = run.figures(false).walls_ms;
    v.census_relabelling(plan, fmtk, dir, seed)?;
    let mut out = Outcome::default();
    v.finish(&mut out);
    out.lines.push(format!("  cli: {} requests", walls.len()));
    let Passes {
        mut values,
        untraced_ms,
        counted,
    } = mirror_passes(plan, seconds - seconds / 3, &mut out).map_err(std::io::Error::other)?;
    values.insert(
        "cli.output_bytes",
        bytes.iter().sum::<usize>() as f64 / bytes.len() as f64,
    );
    values.insert("cli.unattributed_ms", mean(&walls) - untraced_ms);
    write_spans(dir, &counted, &mut out)?;
    out.set_per_layer(&values);
    Ok(out)
}

/// Writes the spans as Chrome trace JSON into the work directory.
pub fn write_spans(dir: &Path, spans: &[SpanRec], out: &mut Outcome) -> std::io::Result<()> {
    let path = dir.join("trace.json");
    std::fs::write(&path, to_chrome_json(spans))?;
    out.lines
        .push(format!("  spans written to {}", path.display()));
    Ok(())
}
