//! `dvm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line. Exits non-zero when any
//! output check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use dvm_perfbench::{report, Options, Scale, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::WarmFetch,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        out_dir: PathBuf::from(".perfbench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dvm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match dvm_perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dvm-perfbench: writing trace output: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.trace
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
