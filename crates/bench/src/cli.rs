//! A tiny flag parser shared by the experiments (no external dependency
//! needed for a handful of flags).

use crate::chaos::ChaosProfile;
use std::path::PathBuf;

/// The flags every experiment shares.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Shrink the sweep for CI / smoke runs.
    pub quick: bool,
    /// Extend the sweep to the largest sizes.
    pub full: bool,
    /// Number of seeds to average over.
    pub seeds: u64,
    /// Simulated thread count.
    pub threads: usize,
    /// Host worker threads for the sweep orchestrator (`--jobs N`).
    /// Defaults to the host's available parallelism; results are
    /// byte-identical at any value (see `crate::sweep`).
    pub jobs: usize,
    /// Directory to drop CSV files into.
    pub csv: Option<PathBuf>,
    /// Directory to drop JSON metrics files into (`--metrics DIR`).
    pub metrics: Option<PathBuf>,
    /// Fault-injection profile to run the sweep under (`--chaos NAME`;
    /// defaults to no injection).
    pub chaos: ChaosProfile,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            quick: false,
            full: false,
            seeds: 3,
            threads: crate::PAPER_THREADS,
            jobs: default_jobs(),
            csv: None,
            metrics: None,
            chaos: ChaosProfile::None,
        }
    }
}

impl CliArgs {
    /// Parse the flags, exiting with usage on unknown ones.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> CliArgs {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--full" => out.full = true,
                "--seeds" => {
                    out.seeds = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seeds needs a number"));
                }
                "--threads" => {
                    out.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a number"));
                }
                "--jobs" => {
                    out.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--jobs needs a number"));
                }
                "--csv" => {
                    out.csv = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--csv needs a directory")),
                    ));
                }
                "--metrics" => {
                    out.metrics = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--metrics needs a directory")),
                    ));
                }
                "--chaos" => {
                    let name = it.next().unwrap_or_else(|| usage("--chaos needs a profile name"));
                    out.chaos = ChaosProfile::parse(&name).unwrap_or_else(|| {
                        usage(&format!(
                            "unknown chaos profile {name} (one of: {})",
                            ChaosProfile::ALL.map(|p| p.label()).join(", ")
                        ))
                    });
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        // Zero seeds/threads/jobs would all mean "run nothing" (or a
        // deadlocked pool); clamp them to the smallest sensible value.
        out.seeds = out.seeds.max(1);
        out.threads = out.threads.max(1);
        out.jobs = out.jobs.max(1);
        out
    }
}

/// Default `--jobs`: the host's available parallelism (1 if unknown).
fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Print `msg` and the shared usage line to stderr, then exit 2.
pub(crate) fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: elision <experiment> [--quick] [--full] [--seeds N] [--threads N] [--jobs N] \
         [--csv DIR] [--metrics DIR] [--chaos PROFILE]"
    );
    eprintln!("chaos profiles: {}", crate::chaos::ChaosProfile::ALL.map(|p| p.label()).join(", "));
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> CliArgs {
        CliArgs::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.quick);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.threads, 8);
        assert!(a.csv.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--quick", "--seeds", "5", "--threads", "4", "--csv", "/tmp/x"]);
        assert!(a.quick);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.threads, 4);
        assert_eq!(a.csv.unwrap(), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn metrics_dir_parses() {
        assert!(parse(&[]).metrics.is_none());
        let a = parse(&["--metrics", "results"]);
        assert_eq!(a.metrics.unwrap(), PathBuf::from("results"));
    }

    #[test]
    fn chaos_profile_parses() {
        assert_eq!(parse(&[]).chaos, ChaosProfile::None);
        assert_eq!(parse(&["--chaos", "storm"]).chaos, ChaosProfile::Storm);
        assert_eq!(parse(&["--chaos", "full"]).chaos, ChaosProfile::Full);
    }

    #[test]
    fn seeds_clamped_to_one() {
        let a = parse(&["--seeds", "0"]);
        assert_eq!(a.seeds, 1);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(parse(&["--threads", "0"]).threads, 1);
        assert_eq!(parse(&["--threads", "3"]).threads, 3);
    }

    #[test]
    fn jobs_parse_and_clamp() {
        assert!(parse(&[]).jobs >= 1);
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        assert_eq!(parse(&["--jobs", "0"]).jobs, 1);
    }
}
