//! Command line of the benchmark:
//!
//! ```text
//! hostcc-benchmark --workload fleet_tree1k|campaign_ckpt
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Human-readable detail goes to stdout first; the last line is the
//! JSON result. Exit code 0 when every check passed, 1 when any host
//! run failed, 2 on a usage error.

use hostcc_benchmark::workloads::{Scale, Workload};
use hostcc_benchmark::{run, Options, OUT_DIR};

const USAGE: &str = "usage: hostcc-benchmark --workload fleet_tree1k|campaign_ckpt \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::FleetTree1k,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: OUT_DIR.into(),
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
