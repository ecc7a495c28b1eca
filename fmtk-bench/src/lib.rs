//! The fmtk benchmark: four seeded workloads against the release `fmtk`
//! binary and the library API, five end-to-end metrics with tracing off,
//! and per-layer metrics from a traced in-process mirror. See README.md.

pub mod calib;
pub mod churn;
pub mod cli;
pub mod gen;
pub mod layers;
pub mod measure;
pub mod mirror;
pub mod oracle;
pub mod run;
pub mod trace;

use gen::Workload;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let usage = "usage: fmtk-bench --workload materialize|point_queries|churn|paper_tools \
                     --seed N --seconds S --trace 0|1";
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}\n{usage}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{usage}"))
        };
        let workload = get("--workload")?;
        let args = Args {
            workload: Workload::from_name(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}\n{usage}"))?,
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: get("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        };
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        Ok(args)
    }
}

/// Runs one workload from the repository root `root`, building into
/// `target_dir`; work files go to `target_dir/fmtk-bench/<workload>`.
pub fn run(args: &Args, root: &Path, target_dir: &Path) -> Result<run::Outcome, String> {
    let dir: PathBuf = target_dir.join("fmtk-bench").join(args.workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let seconds = Duration::from_secs(args.seconds);
    let mut out = if args.workload == Workload::Churn {
        if args.trace {
            churn::traced(args.seed, seconds, &dir)?
        } else {
            churn::end_to_end(args.seed, seconds)?
        }
    } else {
        let bin = cli::build_fmtk(root, target_dir).map_err(|e| e.to_string())?;
        let plan = gen::plan(args.workload, args.seed);
        for (name, text) in &plan.files {
            std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))?;
        }
        let fmtk = cli::Fmtk::new(bin, dir.clone());
        let out = if args.trace {
            run::cli_traced(&plan, &fmtk, &dir, args.seed, seconds)
        } else {
            run::cli_end_to_end(&plan, &fmtk, &dir, args.seed, seconds)
        };
        out.map_err(|e| e.to_string())?
    };
    out.lines.insert(
        0,
        format!(
            "fmtk-bench {} seed {} threads {} trace {} (available parallelism {})",
            args.workload.name(),
            args.seed,
            args.workload.threads(),
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, usize::from),
        ),
    );
    Ok(out)
}
