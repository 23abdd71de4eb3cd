//! The state one benchmark process carries: arguments, the tracer,
//! failure accounting, raw samples and the per-layer numbers.

use crate::speed::Speed;
use crate::trace::Tracer;
use eagleeye_core::coverage::{CoverageReport, DeltaStats, ScenarioDelta};
use eagleeye_core::CoreError;
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line arguments, as the benchmark's caller passes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Raw timings, seconds, collected while a workload runs.
#[derive(Debug, Default)]
pub struct Samples {
    /// One entry per set-up (dataset generation plus first evaluation).
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    /// Wall, CPU and leader frames per second of each cold cell.
    pub cold_s: Vec<f64>,
    pub cold_cpu_s: Vec<f64>,
    pub cold_frames_per_s: Vec<f64>,
    /// Time inside `evaluate` of swath configurations, per cold cell.
    pub swath_s: Vec<f64>,
    pub warm_s: Vec<f64>,
    /// Each what-if call's wall time with its delta kind.
    pub whatif: Vec<(f64, &'static str)>,
    /// Round-trip of each cold what-if-child check.
    pub check_s: Vec<f64>,
    /// Peak resident memory while the workload's dataset was live, MiB.
    pub peak_rss_mb: f64,
    /// When each set-up, cold cell, warm cell and what-if started
    /// (`Speed::now`), index for index with its timings above.
    pub setup_at: Vec<f64>,
    pub cold_at: Vec<f64>,
    pub warm_at: Vec<f64>,
    pub whatif_at: Vec<f64>,
}

/// One benchmark process.
pub struct Run {
    pub args: Args,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub samples: Samples,
    /// Per-layer numbers recorded by the workload (traced runs report
    /// them; untraced runs use only the samples).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra `"key": value` pairs for the info line.
    pub info: Vec<(String, String)>,
    /// The percentile `whatif_tail_ms` reports on this workload, set by
    /// the workload (see README.md).
    pub tail_percentile: f64,
    /// The machine's speed over the run; time metrics are reported at
    /// the reference speed (see `speed.rs`).
    pub speed: Speed,
    loop_start: Option<Instant>,
}

impl Run {
    pub fn new(args: Args) -> Self {
        let tracer = Tracer::new(args.trace);
        Run {
            args,
            tracer,
            attempted: 0,
            failed: 0,
            correct: true,
            samples: Samples::default(),
            layers: BTreeMap::new(),
            info: Vec::new(),
            tail_percentile: 90.0,
            speed: Speed::new(1),
            loop_start: None,
        }
    }

    /// Probes the machine's speed if due. Call only between timed
    /// operations.
    pub fn pace(&mut self) {
        self.speed.pace();
    }

    /// The speed factor of each timed operation (see `speed.rs`), given
    /// their start times and raw seconds.
    pub fn factors(&self, at: &[f64], secs: &[f64]) -> Vec<f64> {
        at.iter()
            .zip(secs)
            .map(|(&a, &s)| self.speed.factor(a, s).unwrap_or(f64::NAN))
            .collect()
    }

    /// Starts the measured loop's clock.
    pub fn start_loop(&mut self) {
        self.loop_start = Some(Instant::now());
    }

    /// True once the loop has run for the requested seconds.
    pub fn expired(&self) -> bool {
        self.loop_start
            .is_some_and(|t| t.elapsed().as_secs_f64() >= self.args.seconds)
    }

    /// Books one evaluation. An error or a degraded report fails it and
    /// makes the run incorrect. A report cut short by an ILP deadline or
    /// iteration cap (see [`exact`]) fails it too, but leaves the run
    /// correct: such an outcome depends on machine speed, so it is
    /// returned for timing yet compared with nothing.
    pub fn book(
        &mut self,
        what: &str,
        result: Result<CoverageReport, CoreError>,
    ) -> Option<CoverageReport> {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.fail(format!("{what}: evaluation error: {e}"), true);
                None
            }
            Ok(r) if r.degraded => {
                self.fail(format!("{what}: degraded report"), true);
                None
            }
            Ok(r) => {
                if !exact(&r) {
                    self.fail(
                        format!(
                            "{what}: {} ILP deadline and {} iteration-cap hits",
                            r.ilp_deadline_hits, r.ilp_iteration_limit_hits
                        ),
                        false,
                    );
                }
                Some(r)
            }
        }
    }

    /// [`book`](Self::book) for a what-if call.
    pub fn book_what_if(
        &mut self,
        delta: &ScenarioDelta,
        result: Result<(CoverageReport, DeltaStats), CoreError>,
    ) -> Option<(CoverageReport, DeltaStats)> {
        let what = format!("what_if {delta:?}");
        match result {
            Ok((report, stats)) => self.book(&what, Ok(report)).map(|r| (r, stats)),
            Err(e) => self.book(&what, Err(e)).map(|r| (r, DeltaStats::default())),
        }
    }

    /// The output check of one booked, exact evaluation: failing it
    /// fails that evaluation and makes the run incorrect. Callers check
    /// each evaluation at most once, so `failed` counts evaluations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(format!("check failed: {}", what()), true);
        }
    }

    /// A check on the run as a whole rather than on one evaluation:
    /// failing it makes the run incorrect without failing an evaluation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("perfbench: requirement failed: {}", what());
            self.correct = false;
        }
    }

    fn fail(&mut self, message: String, incorrect: bool) {
        eprintln!("perfbench: {message}");
        self.failed += 1;
        if incorrect {
            self.correct = false;
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }
}

/// True when no ILP solve of the report was cut short by its deadline
/// or iteration cap, so its outcome is the same on any machine.
pub fn exact(r: &CoverageReport) -> bool {
    r.ilp_deadline_hits == 0 && r.ilp_iteration_limit_hits == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Run {
        Run::new(Args {
            workload: "fig11_cold".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
        })
    }

    #[test]
    fn an_ilp_limit_hit_fails_the_evaluation_but_not_the_run() {
        let mut r = run();
        let cut = CoverageReport {
            ilp_deadline_hits: 1,
            ..CoverageReport::default()
        };
        let booked = r.book("12x2", Ok(cut)).expect("returned for timing");
        assert!(!exact(&booked));
        assert!(exact(&CoverageReport::default()));
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, true));
    }

    #[test]
    fn errors_degraded_reports_and_failed_checks_make_the_run_incorrect() {
        let mut r = run();
        let degraded = CoverageReport {
            degraded: true,
            ..CoverageReport::default()
        };
        assert!(r.book("a", Ok(degraded)).is_none());
        assert!(!r.correct);
        let mut r = run();
        r.book("b", Ok(CoverageReport::default()));
        r.check(false, || "differs".into());
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, false));
    }

    #[test]
    fn a_run_requirement_fails_no_evaluation() {
        let mut r = run();
        r.require(false, || "ilp_share below 0.9".into());
        assert_eq!((r.failed, r.correct), (0, false));
    }
}
