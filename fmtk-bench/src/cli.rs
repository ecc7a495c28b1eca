//! Running the `fmtk` binary: one closed-loop client, one child process
//! per request, with a watchdog that kills a request that hangs.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request still running after this long is killed and counted as a
/// failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Builds the release `fmtk` from the repository at `root` into
/// `target_dir` and returns the path of the binary.
pub fn build_fmtk(root: &Path, target_dir: &Path) -> std::io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "fmt-cli",
            "--target-dir",
        ])
        .arg(target_dir)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "building fmtk failed ({status})"
        )));
    }
    Ok(target_dir.join("release").join("fmtk"))
}

/// What one `fmtk` invocation returned.
#[derive(Debug)]
pub struct Reply {
    /// Exit code 0 before the timeout.
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Wall time from spawn to reaping the child.
    pub wall_ms: f64,
}

/// Runs `fmtk` in a work directory. A watchdog thread waits on each
/// running request and kills it at [`REQUEST_TIMEOUT`].
#[derive(Debug)]
pub struct Fmtk {
    bin: PathBuf,
    dir: PathBuf,
    watch: Option<mpsc::Sender<Option<u32>>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Fmtk {
    pub fn new(bin: PathBuf, dir: PathBuf) -> Fmtk {
        let (tx, rx) = mpsc::channel::<Option<u32>>();
        let watchdog = std::thread::spawn(move || {
            // Protocol: `Some(pid)` when a request starts, `None` when it
            // has been reaped.
            while let Ok(msg) = rx.recv() {
                let Some(pid) = msg else { continue };
                match rx.recv_timeout(REQUEST_TIMEOUT) {
                    Err(RecvTimeoutError::Timeout) => {
                        let _ = Command::new("kill")
                            .args(["-KILL", &pid.to_string()])
                            .status();
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                    Ok(_) => {}
                }
            }
        });
        Fmtk {
            bin,
            dir,
            watch: Some(tx),
            watchdog: Some(watchdog),
        }
    }

    /// The directory requests run in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// One request. `Err` only when the process cannot be started.
    pub fn call(&self, args: &[String]) -> std::io::Result<Reply> {
        let watch = self.watch.as_ref().expect("watchdog runs until drop");
        let start = Instant::now();
        let mut child = Command::new(&self.bin)
            .args(args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let _ = watch.send(Some(child.id()));
        let mut stdout = Vec::new();
        let mut stderr = String::new();
        // fmtk prints its whole result, or its error, once at exit, so
        // reading the pipes one after the other cannot deadlock.
        let read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_end(&mut stdout)
            .and_then(|_| {
                child
                    .stderr
                    .take()
                    .expect("stderr is piped")
                    .read_to_string(&mut stderr)
            });
        let status = child.wait();
        let wall = start.elapsed();
        let _ = watch.send(None);
        let status = status?;
        read?;
        Ok(Reply {
            ok: status.success() && wall < REQUEST_TIMEOUT,
            stdout,
            stderr,
            wall_ms: wall.as_secs_f64() * 1e3,
        })
    }
}

impl Drop for Fmtk {
    fn drop(&mut self) {
        self.watch.take();
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}
