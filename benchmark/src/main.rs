//! End-to-end benchmark of the Cinderella server.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <ingest|scan|drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one workload in one process: a `cind-server` started here
//! through `Server::start`, driven by one closed-loop client connection
//! with a seeded operation stream, then checked against the benchmark's
//! own brute-force model. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the workload twice (untraced, then with spans around
//! every client call), replays the stream in-process with spans around the
//! calls into each layer, and prints the per-layer metrics. The last line
//! of standard output is one JSON object; see README.md.

mod inputs;
mod layers;
mod model;
mod run;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Scan,
    Drift,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ingest" => Ok(Self::Ingest),
            "scan" => Ok(Self::Scan),
            "drift" => Ok(Self::Drift),
            other => Err(format!("unknown workload {other:?} (ingest|scan|drift)")),
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::Scan => "scan",
            Self::Drift => "drift",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `--reorg off`: run `drift` with the reorganizer off, for the record
    /// of what it buys. Not part of the benchmark's fixed command.
    pub reorg_off: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reorg_off = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                if !(1..=600).contains(&s) {
                    return Err(bad(&"must be 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            "--reorg" => {
                reorg_off = match value.as_str() {
                    "off" => true,
                    "auto" => false,
                    _ => return Err(bad(&"must be off or auto")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        reorg_off,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks (empty = correct).
    pub check_failures: Vec<String>,
}

fn json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.check_failures.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest digits that round-trip the f64.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Words of the kernel's CPU mask (`cpu_set_t`, 1024 bits).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process to the lowest CPU it may run on, before any thread
/// starts, so that every thread (client, server reader, worker) shares
/// that CPU. The one connection keeps one thread busy at a time, so the
/// pin costs no parallelism; what it removes is the wake-up of an idle
/// virtual CPU at each hand-off between threads, which on a shared
/// virtual machine is slow and erratic. On the development host (2 vCPUs)
/// a cross-CPU pipe round trip took 52–81 µs against 15–27 µs on one CPU,
/// and two unpinned `drift` runs measured 906 and 1 067 ops/s against
/// 3 181 and 3 262 pinned, interleaved.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout of
    // `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("empty CPU mask")?;
    let bit = bits.trailing_zeros() as usize;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: as above, with a readable buffer.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

fn main() -> ExitCode {
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: --workload <ingest|scan|drift> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", json(&report));
    if report.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
