//! The experiment registry behind the `elision` binary.
//!
//! Every paper figure, ablation and verification gate is one entry of
//! `ALL`, run as `elision <name> [flags]`. An entry names the
//! experiment (the name CI and the docs use), the stems of the report
//! and timing files it writes, whether it applies `--chaos`, and a plain
//! function body. The bodies share one [`Driver`]: it runs sweeps and
//! folds their wall clock into the timing log, prints tables (writing
//! their CSV under `--csv DIR`), and writes the report plus the timing
//! log under `--metrics DIR`.

use crate::chaos::ChaosProfile;
use crate::cli::{usage, CliArgs};
use crate::metrics::{Json, MetricsReport};
use crate::report::Table;
use crate::sweep::{Cell, Sweep, SweepOutcome, TimingLog};

mod ablations;
mod analysis;
mod bench_summary;
mod chaos_stress;
mod elision_lint;
mod figures;
mod perf_gate;
pub mod service;

/// How an experiment takes its command line.
#[derive(Debug)]
pub(crate) enum Body {
    /// The shared flags ([`CliArgs`]), parsed before the body runs.
    Shared(fn(&mut Driver<'_>)),
    /// Its own arguments: `perf_gate`'s gate flags, `bench_summary`'s
    /// directory.
    Own(fn(&'static Experiment, Vec<String>)),
}

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// The command-line name.
    pub(crate) name: &'static str,
    /// Stem of the metrics report, `<DIR>/<report>.json`; also the
    /// report's `binary` field.
    pub(crate) report: &'static str,
    /// Stem of the timing log, `<DIR>/TIMING_<timing>.json`.
    pub(crate) timing: &'static str,
    /// Whether the body applies `--chaos`; entries that do not reject
    /// any profile other than `none`.
    pub(crate) chaos: bool,
    /// The experiment itself.
    pub(crate) body: Body,
}

impl Experiment {
    const fn new(name: &'static str, body: Body) -> Self {
        Experiment { name, report: name, timing: name, chaos: false, body }
    }

    const fn shared(name: &'static str, body: fn(&mut Driver<'_>)) -> Self {
        Self::new(name, Body::Shared(body))
    }

    const fn report(self, report: &'static str) -> Self {
        Experiment { report, ..self }
    }

    const fn timing(self, timing: &'static str) -> Self {
        Experiment { timing, ..self }
    }

    const fn applies_chaos(self) -> Self {
        Experiment { chaos: true, ..self }
    }

    /// Run the experiment on its arguments (everything after the name).
    pub fn run(&'static self, argv: Vec<String>) {
        match self.body {
            Body::Shared(body) => {
                let args = CliArgs::parse_from(argv);
                body(&mut Driver::new(self, &args));
            }
            Body::Own(body) => body(self, argv),
        }
    }

    /// `Err` with a usage message if `args` asks for a chaos profile this
    /// experiment would silently ignore.
    pub(crate) fn check_chaos(&self, args: &CliArgs) -> Result<(), String> {
        if self.chaos || args.chaos == ChaosProfile::None {
            Ok(())
        } else {
            Err(format!(
                "{} does not apply --chaos (experiments that do: {})",
                self.name,
                ALL.iter().filter(|e| e.chaos).map(|e| e.name).collect::<Vec<_>>().join(", ")
            ))
        }
    }
}

/// Every experiment, in the order `elision` lists them.
pub(crate) static ALL: [Experiment; 21] = [
    Experiment::shared("fig2_lemming", figures::fig2_lemming).applies_chaos(),
    Experiment::shared("fig3_dynamics", figures::fig3_dynamics),
    Experiment::shared("fig4_hle_speedup", figures::fig4_hle_speedup),
    Experiment::shared("fig9_scaling", figures::fig9_scaling),
    Experiment::shared("fig10_spectrum", figures::fig10_spectrum),
    Experiment::shared("fig11_stamp", figures::fig11_stamp),
    Experiment::shared("hashtable_bench", figures::hashtable_bench).applies_chaos(),
    Experiment::shared("diag_aborts", figures::diag_aborts),
    Experiment::shared("ablation_spurious", ablations::ablation_spurious),
    Experiment::shared("ablation_scm", ablations::ablation_scm),
    Experiment::shared("ablation_retries", ablations::ablation_retries),
    Experiment::shared("ablation_grouped", ablations::ablation_grouped),
    Experiment::shared("ablation_finegrained", ablations::ablation_finegrained),
    Experiment::shared("chaos_stress", chaos_stress::chaos_stress),
    Experiment::shared("sanitize_all", analysis::sanitize_all),
    Experiment::shared("model_check", analysis::model_check).report("MODELCHECK"),
    Experiment::shared("lazy_safety", analysis::lazy_safety).report("LAZY_SAFETY"),
    Experiment::shared("elision_lint", elision_lint::elision_lint).report("ELISION_LINT"),
    Experiment::shared("service_bench", service::service_bench).report("SERVICE").timing("SERVICE"),
    Experiment::new("perf_gate", Body::Own(perf_gate::perf_gate)).report("BENCH_SIM_HOTPATH"),
    Experiment::new("bench_summary", Body::Own(bench_summary::bench_summary))
        .report("BENCH_SUMMARY")
        .timing("SUMMARY"),
];

/// Look an experiment up by name; the error lists the valid names.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    ALL.iter().find(|e| e.name == name).ok_or_else(|| {
        format!(
            "unknown experiment {name:?}; one of: {}",
            ALL.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
        )
    })
}

/// What every experiment body shares: the parsed flags, the sweep
/// executor and the timing log.
pub struct Driver<'a> {
    /// The registry entry being run.
    pub(crate) exp: &'static Experiment,
    /// The shared flags.
    pub(crate) args: &'a CliArgs,
    /// The sweep executor (`--jobs`).
    pub(crate) pool: Sweep,
    /// Wall clock of every sweep run so far.
    pub(crate) timing: TimingLog,
}

impl<'a> Driver<'a> {
    /// Set up a run of `exp`, exiting with a usage error if `args` asks
    /// for a chaos profile `exp` does not apply.
    pub fn new(exp: &'static Experiment, args: &'a CliArgs) -> Self {
        if let Err(msg) = exp.check_chaos(args) {
            usage(&msg);
        }
        let pool = Sweep::from_args(args);
        Driver { exp, args, pool, timing: TimingLog::new(exp.timing, pool.jobs()) }
    }

    /// Run one sweep and fold its wall clock into the timing log.
    pub(crate) fn sweep<T: Send>(&mut self, cells: Vec<Cell<'_, T>>) -> SweepOutcome<T> {
        let outcome = self.pool.run(cells);
        self.timing.absorb(&outcome);
        outcome
    }

    /// An empty metrics report named after this experiment.
    pub(crate) fn metrics(&self) -> MetricsReport {
        MetricsReport::new(self.exp.report, self.args)
    }

    /// Print `table`; with `--csv DIR`, also write it as `DIR/<stem>.csv`.
    pub(crate) fn table(&self, table: &Table, stem: &str) {
        table.print();
        if let Some(dir) = &self.args.csv {
            table.write_csv(dir, stem);
        }
    }

    /// With `--metrics DIR`, write `doc` as `DIR/<report>.json` and the
    /// timing log next to it.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiments fail loudly).
    pub(crate) fn finish(&self, doc: &Json) {
        let Some(dir) = &self.args.metrics else { return };
        std::fs::create_dir_all(dir).expect("creating metrics directory");
        let path = dir.join(format!("{}.json", self.exp.report));
        std::fs::write(&path, doc.render()).expect("writing metrics JSON");
        eprintln!("wrote {}", path.display());
        self.timing.write(dir);
    }
}

/// `label` lowercased with every non-alphanumeric character replaced by
/// `_`: the CSV stem of an [`elision_structures::OpMix::LEVELS`] label.
fn slug(label: &str) -> String {
    label.chars().map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = ALL.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn artifact_stems_are_unique() {
        let mut files = HashSet::new();
        for e in &ALL {
            assert!(files.insert(format!("{}.json", e.report)), "{}: report clash", e.name);
            assert!(files.insert(format!("TIMING_{}.json", e.timing)), "{}: timing clash", e.name);
        }
    }

    #[test]
    fn unknown_name_lists_every_experiment() {
        let err = find("fig99").expect_err("no such experiment");
        for e in &ALL {
            assert!(err.contains(e.name), "{err} omits {}", e.name);
        }
        assert_eq!(find("fig2_lemming").map(|e| e.name), Ok("fig2_lemming"));
    }

    #[test]
    fn chaos_is_rejected_where_it_would_be_ignored() {
        let storm = CliArgs::parse_from(["--chaos".to_string(), "storm".to_string()]);
        let none = CliArgs::default();
        let applying: Vec<&str> = ALL.iter().filter(|e| e.chaos).map(|e| e.name).collect();
        assert_eq!(applying, ["fig2_lemming", "hashtable_bench"]);
        for e in &ALL {
            assert!(e.check_chaos(&none).is_ok(), "{}", e.name);
            assert_eq!(e.check_chaos(&storm).is_ok(), e.chaos, "{}", e.name);
        }
        let err = find("diag_aborts").unwrap().check_chaos(&storm).unwrap_err();
        assert!(err.contains("fig2_lemming, hashtable_bench"), "{err}");
    }

    #[test]
    fn slug_matches_csv_stems() {
        assert_eq!(slug("10% insertion 10% deletion"), "10__insertion_10__deletion");
    }
}
