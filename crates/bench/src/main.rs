//! `mb2-bench`: the one entry point for the paper's experiments and the
//! offline MB2 pipeline. See the `mb2_bench` crate docs for the commands.

use std::path::Path;
use std::process::exit;
use std::time::Instant;

use mb2_bench::experiments::{self, Experiment, REGISTRY};
use mb2_bench::{pipeline, report, Scale};

const USAGE: &str = "\
usage: mb2-bench list
       mb2-bench all
       mb2-bench <experiment>...
       mb2-bench pipeline collect <data-dir>
       mb2-bench pipeline train <data-dir> <model-dir>
       mb2-bench pipeline evaluate <model-dir>
env:   MB2_SCALE=quick|standard (default standard), MB2_RESULTS_DIR (default results)";

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    exit(2);
}

/// The experiments a run command names: `all`, or one or more registered
/// names. `Err` carries the first name that is not registered.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    match args {
        [] => Err("no experiment named".into()),
        [all] if all == "all" => Ok(REGISTRY.iter().collect()),
        names => names
            .iter()
            .map(|n| experiments::find(n).ok_or_else(|| format!("unknown experiment `{n}`")))
            .collect(),
    }
}

fn run_pipeline(scale: Scale, args: &[String]) {
    let result = match args {
        [stage, data] if stage == "collect" => pipeline::collect(scale, Path::new(data)),
        [stage, data, models] if stage == "train" => {
            pipeline::train(scale, Path::new(data), Path::new(models))
        }
        [stage, models] if stage == "evaluate" => pipeline::evaluate(scale, Path::new(models)),
        _ => usage("bad pipeline arguments"),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env().unwrap_or_else(|e| usage(&e));
    match args.first().map(String::as_str) {
        Some("list") if args.len() == 1 => {
            for (name, _) in REGISTRY {
                println!("{name}");
            }
        }
        Some("pipeline") => run_pipeline(scale, &args[1..]),
        _ => {
            let suite = select(&args).unwrap_or_else(|e| usage(&e));
            let started = Instant::now();
            for (name, run) in suite {
                eprintln!("==> {name} ({scale:?})");
                let t0 = Instant::now();
                report::emit(name, &run(scale));
                eprintln!("<== {name} done in {:.1?}\n", t0.elapsed());
            }
            eprintln!("finished in {:.1?}", started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_selects_the_whole_registry_in_order() {
        let names: Vec<&str> = select(&args(&["all"]))
            .unwrap()
            .iter()
            .map(|e| e.0)
            .collect();
        let registered: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
        assert_eq!(names, registered);
    }

    #[test]
    fn named_experiments_run_in_the_order_given() {
        let picked = select(&args(&["fig07_generalization", "fig05_ou_accuracy"])).unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.0).collect();
        assert_eq!(names, ["fig07_generalization", "fig05_ou_accuracy"]);
    }

    #[test]
    fn unknown_or_missing_experiment_is_rejected() {
        assert!(select(&[]).is_err());
        let err = select(&args(&["fig05_ou_accuracy", "fig05"])).unwrap_err();
        assert!(err.contains("`fig05`"), "{err}");
        // Removed experiments are unknown, not silently skipped.
        assert!(select(&args(&["exec_throughput"])).is_err());
    }
}
