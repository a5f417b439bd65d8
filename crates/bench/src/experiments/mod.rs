//! One module per paper table/figure (plus three engine-side experiments
//! the paper has no figure for). Every experiment is a function
//! `run(scale) -> String` producing the report text that `mb2-bench`
//! prints and persists; [`REGISTRY`] is the one list of them.

use crate::Scale;

pub mod chaos_recovery;
pub mod fig01_index_build;
pub mod fig05_ou_accuracy;
pub mod fig06_label_accuracy;
pub mod fig07_generalization;
pub mod fig08_interference;
pub mod fig09a_update;
pub mod fig09b_noisy_card;
pub mod fig10_hardware;
pub mod fig11_end_to_end;
pub mod obs_overhead;
pub mod pilot_loop;
pub mod table02_overhead;

pub mod common;

/// One experiment: its command-line name and its entry point.
pub type Experiment = (&'static str, fn(Scale) -> String);

/// Every experiment, in the order `mb2-bench all` runs them.
pub const REGISTRY: &[Experiment] = &[
    ("table02_overhead", table02_overhead::run),
    ("obs_overhead", obs_overhead::run),
    ("chaos_recovery", chaos_recovery::run),
    ("pilot_loop", pilot_loop::run),
    ("fig01_index_build", fig01_index_build::run),
    ("fig05_ou_accuracy", fig05_ou_accuracy::run),
    ("fig06_label_accuracy", fig06_label_accuracy::run),
    ("fig07_generalization", fig07_generalization::run),
    ("fig08_interference", fig08_interference::run),
    ("fig09a_update", fig09a_update::run),
    ("fig09b_noisy_card", fig09b_noisy_card::run),
    ("fig10_hardware", fig10_hardware::run),
    ("fig11_end_to_end", fig11_end_to_end::run),
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the `## Title (`name`)` section headings of EXPERIMENTS.md.
    fn documented() -> Vec<&'static str> {
        include_str!("../../../../EXPERIMENTS.md")
            .lines()
            .filter(|l| l.starts_with('#'))
            .filter_map(|l| l.split_once("(`").and_then(|(_, r)| r.split_once('`')))
            .map(|(name, _)| name)
            .collect()
    }

    #[test]
    fn every_experiment_has_a_section_and_every_section_an_experiment() {
        let documented = documented();
        for (name, _) in REGISTRY {
            assert!(
                documented.contains(name),
                "EXPERIMENTS.md has no (`{name}`) section"
            );
        }
        for name in &documented {
            assert!(
                find(name).is_some(),
                "EXPERIMENTS.md section (`{name}`) names no registered experiment"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, (name, _)) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[i + 1..].iter().all(|(n, _)| n != name),
                "{name} registered twice"
            );
        }
    }
}
