//! `cargo run --release --manifest-path fmtk-bench/Cargo.toml -- \
//!     --workload W --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Prints a report, then one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [fmtk_bench::calib::KERNEL_FLAG] {
        fmtk_bench::calib::kernel_process();
        return ExitCode::SUCCESS;
    }
    let args = match fmtk_bench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmtk-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates/cli/Cargo.toml").is_file() {
        eprintln!("fmtk-bench: run from the repository root (crates/cli is missing here)");
        return ExitCode::from(2);
    }
    // This binary sits in `<target>/release/`; fmtk is built next to it.
    let exe = std::env::current_exe().expect("the running binary has a path");
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("the binary lives in <target>/release")
        .to_path_buf();
    match fmtk_bench::run(&args, &root, &target_dir) {
        Ok(out) => {
            println!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fmtk-bench: {e}");
            ExitCode::from(1)
        }
    }
}
