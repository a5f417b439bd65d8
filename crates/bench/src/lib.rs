//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§8). Each experiment lives in [`experiments`] as a function
//! returning a textual report, listed once in
//! [`experiments::REGISTRY`]. The `mb2-bench` binary runs them and
//! persists the reports under `results/`:
//!
//! ```text
//! mb2-bench list                      # registered experiment names
//! mb2-bench <experiment>...           # run the named experiments
//! mb2-bench all                       # run every experiment
//! mb2-bench pipeline collect|train|evaluate ...   # offline MB2 pipeline
//! ```
//!
//! Scale: experiments honor the `MB2_SCALE` environment variable
//! (`quick` | `standard`, default `standard`; any other value is
//! rejected). `quick` shrinks sweeps for smoke-testing; `standard` matches
//! the numbers recorded in EXPERIMENTS.md. `MB2_RESULTS_DIR` overrides
//! where reports are written.

pub mod experiments;
pub mod pipeline;
pub mod report;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Standard,
}

impl Scale {
    /// Parse an `MB2_SCALE` value: unset means `standard`, and anything
    /// but `quick` or `standard` is an error rather than a silent
    /// standard-scale run.
    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("standard") => Ok(Scale::Standard),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "unknown MB2_SCALE `{other}` (expected `quick` or `standard`)"
            )),
        }
    }

    /// Read from `MB2_SCALE` (default `standard`).
    pub fn from_env() -> Result<Scale, String> {
        let value = std::env::var_os("MB2_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref())
    }

    pub fn pick<T>(&self, quick: T, standard: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Standard => standard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Scale;

    #[test]
    fn scale_accepts_only_unset_quick_and_standard() {
        assert_eq!(Scale::parse(None), Ok(Scale::Standard));
        assert_eq!(Scale::parse(Some("standard")), Ok(Scale::Standard));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        for bad in ["Quick", "quik", "", "STANDARD", "quick "] {
            assert!(Scale::parse(Some(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
