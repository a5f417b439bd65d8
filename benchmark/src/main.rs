//! `mb2-ledger`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! mb2-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mb2-ledger selfcheck [--runs N] [--seconds S]
//! mb2-ledger manifest
//! ```

mod check;
mod drive;
mod gen;
mod host;
mod json;
mod layers;
mod manifest;
mod run;
mod selfcheck;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use gen::WorkloadKind;
use run::RunArgs;

const USAGE: &str = "usage: mb2-ledger --workload <tatp_point|tpch_scan|smallbank_sync|htap_mix> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     mb2-ledger selfcheck [--runs N] [--seconds S]\n       \
                     mb2-ledger manifest";

/// `--flag value` pairs after an optional subcommand.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read '{v}'")),
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(())
        }
        Some("selfcheck") => {
            let runs: usize = parse_flag(&args, "--runs", 5)?;
            let seconds: f64 = parse_flag(&args, "--seconds", manifest::RUN_SECONDS as f64)?;
            if runs < 5 {
                return Err("selfcheck needs --runs of at least 5".into());
            }
            selfcheck::selfcheck(runs, seconds)
        }
        _ => {
            let name = flag(&args, "--workload")?.ok_or(USAGE)?;
            let kind = WorkloadKind::parse(name)
                .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
            let seconds: f64 = parse_flag(&args, "--seconds", manifest::RUN_SECONDS as f64)?;
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err("--seconds must be in (0, 60]".into());
            }
            let run_args = RunArgs {
                kind,
                seed: parse_flag(&args, "--seed", 1)?,
                seconds,
                trace: match parse_flag::<u8>(&args, "--trace", 0)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                },
            };
            let report = if run_args.trace {
                layers::run_traced(run_args)?
            } else {
                run::run_untraced(run_args)?
            };
            println!("{}", report.context);
            println!("{}", report.result_json());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mb2-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
