//! `perfbench`: one command that runs a named workload against the
//! public functions of each kbkit layer, checks the outputs, and prints
//! the workload's metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it, each starting with `#`, record the environment and
//! every metric by name with its unit. A failed correctness gate exits
//! with code 1, a usage or set-up error with code 2. See `README.md`.

mod catalog;
mod common;
mod gen;
mod harvest_track;
mod live_stream;
mod openloop;
mod outcome;
mod read_mixed;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harvest_track::Source;
use outcome::Outcome;

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Only set up, then print `setup <seconds> <input digest>`: how a
    /// run measures its extra set-ups in child processes.
    pub setup_only: bool,
    /// Scratch space for stores; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where run records are written.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <gold_track|harvest_track|read_mixed|live_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunCfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = root.join("out");
    Ok(RunCfg {
        work_dir: out_dir.join(format!("work-{workload}-{}", std::process::id())),
        out_dir,
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        setup_only,
    })
}

fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "harvest_track" => harvest_track::run(cfg, Source::Harvest),
        "gold_track" => harvest_track::run(cfg, Source::Gold),
        "read_mixed" => read_mixed::run(cfg),
        "live_stream" => live_stream::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::fs::remove_dir_all(&cfg.work_dir).ok();
    let result = run(&cfg);
    std::fs::remove_dir_all(&cfg.work_dir).ok();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::from(2);
        }
    };
    if let Some((secs, digest)) = outcome.probe {
        println!("setup {secs} {digest}");
        return ExitCode::SUCCESS;
    }
    match outcome.emit(&cfg) {
        Ok(()) if outcome.correct => ExitCode::SUCCESS,
        Ok(()) => {
            eprintln!("perfbench: correctness gate failed: {}", outcome.gate_failures.join("; "));
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
