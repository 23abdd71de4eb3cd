//! The machine's speed while a run lasts, from a fixed probe kernel.
//!
//! A shared virtual machine does not run at one speed. Other tenants
//! move it between a fast and a slow state (a 1.5× difference on a
//! 2-vCPU x86-64 virtual machine) for seconds to minutes at a time, and
//! a run that lands in the slow state reads every time 1.5× longer.
//! So every timed operation is reported at a fixed reference speed: its
//! raw time times [`REFERENCE_PROBE_S`] over the median time of the
//! probe passes taken around it (see [`Speed::factor`]).
//!
//! The probe is the benchmark's own code, so a change to the engine
//! moves the raw times and leaves the probe alone. It is scalar
//! floating point (`sin`, `cos`, `atan2`), the kind of work the engine's
//! geometry and warm paths do. Its slowdowns tracked theirs with
//! correlations of 0.91–1.00 across runs. Dense elimination, random
//! walks and dense-tableau row updates tracked them worse and were
//! dropped (README.md, "Machine speed"). A pass
//! runs on as many threads as the workload's evaluator, since the two
//! vCPUs change speed independently and an operation on both waits
//! for the slower.

use std::hint::black_box;
use std::time::Instant;

/// Median probe pass of the reference machine: the 2-vCPU x86-64
/// virtual machine of README.md in its fast state. A reported time is
/// the time the operation would have taken there.
pub const REFERENCE_PROBE_S: f64 = 1.25e-3;

/// A probe is taken at most this often, between timed operations.
const PROBE_GAP_S: f64 = 0.1;
/// Kernel passes per probe.
const PASSES: usize = 2;
/// Probes taken before the loop, so every run has a speed.
const FIRST_PROBES: usize = 8;
/// An operation's speed is read from the passes within its own
/// duration, but at least this, on either side of it.
const MIN_WINDOW_S: f64 = 0.5;
/// Trigonometric evaluations per pass.
const TRIG_STEPS: usize = 40_000;

pub struct Speed {
    /// Threads each pass runs the kernel on at once.
    threads: usize,
    t0: Instant,
    /// Each kernel pass: (start, seconds since `t0`; its duration).
    passes: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl Speed {
    pub fn new(threads: usize) -> Self {
        Speed {
            threads: threads.max(1),
            t0: Instant::now(),
            passes: Vec::new(),
            last: None,
        }
    }

    /// Seconds since the run began: when a timed operation starts.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Probes the machine `FIRST_PROBES` times.
    pub fn start(&mut self) {
        for _ in 0..FIRST_PROBES {
            self.probe();
        }
    }

    /// Probes the machine if the last probe is `PROBE_GAP_S` old. Call
    /// only between timed operations.
    pub fn pace(&mut self) {
        if self
            .last
            .map_or(true, |t| t.elapsed().as_secs_f64() >= PROBE_GAP_S)
        {
            self.probe();
        }
    }

    /// `PASSES` passes, each the wall time of the kernel run on every
    /// thread at once.
    fn probe(&mut self) {
        for _ in 0..PASSES {
            let at = self.now();
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(|| black_box(kernel()));
                }
                black_box(kernel());
            });
            self.passes.push((at, t.elapsed().as_secs_f64()));
        }
        self.last = Some(Instant::now());
    }

    /// Median seconds per pass over the run.
    pub fn probe_s(&self) -> Option<f64> {
        let d: Vec<f64> = self.passes.iter().map(|p| p.1).collect();
        crate::stats::median(&d)
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// What the raw time of an operation that started at `start`
    /// (from [`now`](Self::now)) and took `secs` is multiplied by to
    /// read at the reference speed: `REFERENCE_PROBE_S` over the median
    /// pass within `max(secs, MIN_WINDOW_S)` of the operation on either
    /// side. Falls back on the run's median pass when none lies there.
    /// `None` before the first probe.
    pub fn factor(&self, start: f64, secs: f64) -> Option<f64> {
        let w = secs.max(MIN_WINDOW_S);
        let near: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| p.0 >= start - w && p.0 <= start + secs + w)
            .map(|p| p.1)
            .collect();
        crate::stats::median(&near)
            .or_else(|| self.probe_s())
            .map(|p| REFERENCE_PROBE_S / p)
    }
}

/// One pass of fixed work; every pass does the same operations on the
/// same values.
fn kernel() -> u64 {
    let mut s = 0.0f64;
    for k in 0..TRIG_STEPS {
        let t = black_box(k as f64 * 1e-3);
        s += (t.sin() * t.cos()).atan2(1.0 + t);
    }
    s.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_pass() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn an_operation_reads_the_passes_around_it() {
        let mut s = Speed::new(1);
        assert_eq!(s.factor(0.0, 1.0), None);
        let r = REFERENCE_PROBE_S;
        // Fast around t = 10 s, twice as slow around t = 100 s.
        s.passes = vec![(9.8, r), (10.6, r), (99.7, 2.0 * r), (100.3, 2.0 * r)];
        assert_eq!(s.factor(10.0, 0.01), Some(1.0));
        assert_eq!(s.factor(100.0, 0.01), Some(0.5));
        // A 3 s operation from 97 s reads passes from 94 s to 103 s.
        assert_eq!(s.factor(97.0, 3.0), Some(0.5));
        // No pass near 50 s: the run's median pass, 1.5 r.
        let k = s.factor(50.0, 0.01).unwrap();
        assert!((k - 1.0 / 1.5).abs() < 1e-12, "{k}");
        s.start();
        assert_eq!(s.passes(), 4 + FIRST_PROBES * PASSES);
    }

    #[test]
    fn a_pass_on_two_threads_takes_at_least_one_kernel() {
        let mut one = Speed::new(1);
        let mut two = Speed::new(2);
        one.start();
        two.start();
        assert_eq!(two.passes(), one.passes());
        assert!(two.probe_s().unwrap() > 0.0);
    }
}
