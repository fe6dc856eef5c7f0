//! `uli-benchmark --workload <deliver|analyze|serve> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! when an output check failed, 2 on bad arguments.

use std::process::ExitCode;

use uli_benchmark::{run, Options, Workload};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Deliver,
        seed: 1,
        seconds: 10.0,
        trace: false,
        users: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
