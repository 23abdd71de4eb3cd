//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig11_cold|whatif_session|lakes_swath> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload is generated from the
//! seed and driven through the public evaluator API from one client in
//! a closed loop for the given seconds; outputs are checked as they
//! come. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The line before it records the machine, the build and
//! the sample counts. A traced run also writes its spans to
//! `.bench_trace/<workload>-<seed>.json`. See README.md here for what
//! each workload and metric means.

mod deltas;
mod harness;
mod speed;
mod stats;
mod sys;
mod trace;
mod workloads;

use harness::{Args, Run};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics, `(name, unit)`, in BENCHMARK.json order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("frames_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("warm_eval_ms", "ms"),
    ("whatif_p50_ms", "ms"),
    ("whatif_tail_ms", "ms"),
    ("whatif_per_s", "1/s"),
];

/// The per-layer metrics, `(name, unit)`, in BENCHMARK.json order.
const PER_LAYER: [(&str, &str); 54] = [
    ("datasets.generate_s", "s"),
    ("orbit.propagate_s", "s"),
    ("orbit.states", "count"),
    ("coverage.cold_eval_s", "s"),
    ("coverage.swath_eval_s", "s"),
    ("coverage.warm_eval_s", "s"),
    ("coverage.whatif_s", "s"),
    ("coverage.track_builds", "count"),
    ("coverage.track_reuses", "count"),
    ("coverage.track_shares", "count"),
    ("coverage.memo_hits", "count"),
    ("coverage.memo_misses", "count"),
    ("coverage.memo_hit_ratio", "ratio"),
    ("delta.remove_group_ms", "ms"),
    ("delta.add_group_ms", "ms"),
    ("delta.add_follower_ms", "ms"),
    ("delta.nudge_recall_ms", "ms"),
    ("delta.fault_window_ms", "ms"),
    ("delta.dirty_frames", "count"),
    ("delta.track_builds", "count"),
    ("delta.track_shares", "count"),
    ("detect.targets_in_view", "count"),
    ("clustering.clusters", "count"),
    ("clustering.max_per_frame", "count"),
    ("shape.targets_per_frame_max", "count"),
    ("shape.targets_per_frame_tail", "count"),
    ("shape.clusters_per_frame_tail", "count"),
    ("shape.frames_with_targets", "count"),
    ("shape.captured", "count"),
    ("schedule.calls", "count"),
    ("schedule.greedy_eval_s", "s"),
    ("schedule.ilp_share", "ratio"),
    ("ilp.subproblems", "count"),
    ("ilp.nodes_explored", "count"),
    ("ilp.nodes_pruned", "count"),
    ("ilp.lp_pivots", "count"),
    ("ilp.lp_iterations", "count"),
    ("ilp.pivots_per_subproblem", "count"),
    ("ilp.deadline_hits", "count"),
    ("ilp.iteration_limit_hits", "count"),
    ("ilp.sparse_eval_s", "s"),
    ("ilp.sparse_lp_pivots", "count"),
    ("ilp.sparse_deadline_hits", "count"),
    ("ilp.sparse_captured", "count"),
    ("exec.speedup_2t", "ratio"),
    ("exec.cpu_over_wall", "ratio"),
    ("bench.round_self_s", "s"),
    ("bench.probe_ms", "ms"),
    ("check.cold_s", "s"),
    ("setup.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// A workload: sets up, runs its loop and records into the run.
type WorkloadFn = fn(&mut Run);

/// Each workload with the threads its evaluators use, which the speed
/// probe runs on too (see speed.rs).
const WORKLOADS: [(&str, WorkloadFn, usize); 3] = [
    ("fig11_cold", workloads::fig11_cold, 1),
    ("whatif_session", workloads::whatif_session, 1),
    ("lakes_swath", workloads::lakes_swath, workloads::SWATH_THREADS),
];

const USAGE: &str = "usage: perfbench --workload <fig11_cold|whatif_session|lakes_swath> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, ..)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Questions answered per second of what-if time. The rare costly
/// questions belong in it: they are most of what an analyst waits for.
fn rate(latencies: &[f64]) -> Option<f64> {
    let busy: f64 = latencies.iter().sum();
    (busy > 0.0).then(|| latencies.len() as f64 / busy)
}

/// The end-to-end metrics from the samples of an untraced run, or the
/// names of those the run has no samples for.
fn end_to_end(run: &mut Run) -> Result<BTreeMap<&'static str, f64>, String> {
    // Every time at the reference speed (see speed.rs).
    let s = &run.samples;
    let scaled = |secs: &[f64], at: &[f64]| -> Vec<f64> {
        secs.iter()
            .zip(run.factors(at, secs))
            .map(|(x, k)| x * k)
            .collect()
    };
    let raw_whatif: Vec<f64> = s.whatif.iter().map(|w| w.0).collect();
    let whatif = scaled(&raw_whatif, &s.whatif_at);
    let cold_k = run.factors(&s.cold_at, &s.cold_s);
    let per_cold = |v: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
        v.iter().zip(&cold_k).map(|(&x, &k)| f(x, k)).collect()
    };
    let ms = |v: Option<f64>| v.map(|x| x * 1e3);
    // Always the workload's declared percentile, so every run reports
    // the same one under the same name; the info line says how many
    // samples lay beyond it, and whether that fell short of ten.
    let tail = stats::percentile(&whatif, run.tail_percentile);
    let values = [
        ("setup_s", stats::median(&scaled(&s.setup_s, &s.setup_at))),
        ("eval_s", stats::median(&per_cold(&s.cold_s, |x, k| x * k))),
        ("frames_per_s", stats::median(&per_cold(&s.cold_frames_per_s, |x, k| x / k))),
        ("cpu_s", stats::median(&per_cold(&s.cold_cpu_s, |x, k| x * k))),
        ("peak_rss_mb", Some(s.peak_rss_mb).filter(|&v| v > 0.0)),
        ("warm_eval_ms", ms(stats::median(&scaled(&s.warm_s, &s.warm_at)))),
        ("whatif_p50_ms", ms(stats::median(&whatif))),
        ("whatif_tail_ms", ms(tail.map(|t| t.0))),
        ("whatif_per_s", rate(&whatif)),
    ];
    let missing: Vec<&str> = values
        .iter()
        .filter(|(_, v)| !v.is_some_and(f64::is_finite))
        .map(|(name, _)| *name)
        .collect();
    if !missing.is_empty() {
        return Err(format!("no samples for {}", missing.join(", ")));
    }
    let (tail_value, beyond) = tail.expect("checked above");
    if beyond < workloads::MIN_TAIL_BEYOND {
        eprintln!(
            "perfbench: only {beyond} what-ifs beyond p{}, fewer than {}",
            run.tail_percentile,
            workloads::MIN_TAIL_BEYOND
        );
    }
    let describe = |p: f64, v: f64, beyond: usize| {
        format!(
            "{{\"percentile\":{p},\"value_ms\":{},\"beyond\":{beyond},\"samples\":{},\"short\":{}}}",
            v * 1e3,
            whatif.len(),
            beyond < workloads::MIN_TAIL_BEYOND
        )
    };
    let declared = describe(run.tail_percentile, tail_value, beyond);
    let highest = stats::tail(&whatif, workloads::MIN_TAIL_BEYOND)
        .map_or("null".to_string(), |(p, v, beyond)| describe(p, v, beyond));
    run.note("whatif_tail", declared);
    run.note("whatif_highest_tail", highest);
    if let Some((q1, q3)) = stats::quartiles(&run.samples.cold_s) {
        run.note("eval_s_quartiles", format!("[{q1},{q3}]"));
    }
    let raw = [
        ("setup_s", stats::median(&run.samples.setup_s)),
        ("eval_s", stats::median(&run.samples.cold_s)),
        ("warm_eval_ms", stats::median(&run.samples.warm_s).map(|x| x * 1e3)),
        ("whatif_p50_ms", stats::median(&raw_whatif).map(|x| x * 1e3)),
        ("whatif_per_s", rate(&raw_whatif)),
    ];
    let raw: Vec<String> = raw
        .iter()
        .map(|(n, v)| format!("\"{n}\":{}", v.unwrap_or(f64::NAN)))
        .collect();
    run.note("raw", format!("{{{}}}", raw.join(",")));
    Ok(values
        .into_iter()
        .map(|(n, v)| (n, v.expect("checked above")))
        .collect())
}

/// The per-layer metrics of a traced run: what the workload recorded,
/// plus span self times, per-kind what-if medians and trace overhead.
/// Times in s and ms read at the reference speed, scaled by the run's
/// median probe (see speed.rs); `bench.probe_ms` is that probe. A
/// metric the workload does not measure prints as 0 and is named in
/// the info line's `not_measured`.
fn per_layer(run: &mut Run, wall_s: f64) -> BTreeMap<&'static str, f64> {
    let self_times = trace::self_times(run.tracer.spans());
    let rounds = run
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "round")
        .count()
        .max(1);
    let s = &run.samples;
    let mut m = run.layers.clone();
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(name, v);
        }
    };
    let ms = |v: Option<f64>| v.map(|x| x * 1e3);
    put("datasets.generate_s", stats::median(&s.generate_s));
    put("coverage.cold_eval_s", stats::median(&s.cold_s));
    put("coverage.swath_eval_s", stats::median(&s.swath_s));
    put("coverage.warm_eval_s", stats::median(&s.warm_s));
    let whatif: Vec<f64> = s.whatif.iter().map(|w| w.0).collect();
    put("coverage.whatif_s", stats::median(&whatif));
    for (kind, name) in [
        ("remove_group", "delta.remove_group_ms"),
        ("add_group", "delta.add_group_ms"),
        ("add_follower", "delta.add_follower_ms"),
        ("nudge_recall", "delta.nudge_recall_ms"),
        ("fault_window", "delta.fault_window_ms"),
    ] {
        let v: Vec<f64> = s
            .whatif
            .iter()
            .filter(|w| w.1 == kind)
            .map(|w| w.0)
            .collect();
        put(name, ms(stats::median(&v)));
    }
    let ratios: Vec<f64> = s
        .cold_cpu_s
        .iter()
        .zip(&s.cold_s)
        .map(|(cpu, wall)| cpu / wall)
        .collect();
    put("exec.cpu_over_wall", stats::median(&ratios));
    put(
        "bench.round_self_s",
        self_times.get("round").map(|t| t / rounds as f64),
    );
    put("check.cold_s", stats::median(&s.check_s));
    put(
        "setup.self_s",
        self_times
            .get("setup")
            .map(|t| t / s.setup_s.len().max(1) as f64),
    );
    // An estimate, not a traced-vs-untraced comparison: spans recorded
    // times the measured cost of one span, over the run's wall time.
    // `spread.py --trace both` makes the comparison between runs.
    let spans = run.tracer.spans().len() as f64;
    let cost = trace::span_cost_s();
    put("trace.spans", Some(spans));
    put("trace.span_cost_us", Some(cost * 1e6));
    put("trace.overhead_frac", Some(spans * cost / wall_s));
    put(
        "failed_frac",
        Some(run.failed as f64 / run.attempted.max(1) as f64),
    );
    let probe_s = run.speed.probe_s().expect("probed before the workload");
    let k = speed::REFERENCE_PROBE_S / probe_s;
    let mut not_measured = Vec::new();
    m.insert("bench.probe_ms", probe_s * 1e3);
    for (name, unit) in PER_LAYER {
        let v = m.entry(name).or_insert(f64::NAN);
        if !v.is_finite() {
            *v = 0.0;
            not_measured.push(format!("\"{name}\""));
        } else if (unit == "s" || unit == "ms") && name != "bench.probe_ms" {
            *v *= k;
        }
    }
    run.note("not_measured", format!("[{}]", not_measured.join(",")));
    m
}

/// The metrics in `order` as a JSON object; every name must be present.
fn json_metrics(metrics: &BTreeMap<&'static str, f64>, order: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in order.iter().enumerate() {
        let v = metrics[name];
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let mut run = Run::new(args.clone());
    let &(_, workload, threads) = WORKLOADS
        .iter()
        .find(|(w, ..)| *w == args.workload)
        .expect("workload validated by parse");
    run.speed = speed::Speed::new(threads);
    run.speed.start();
    workload(&mut run);
    let wall_s = started.elapsed().as_secs_f64();

    let (metrics, order): (_, &[(&str, &str)]) = if args.trace {
        (per_layer(&mut run, wall_s), &PER_LAYER)
    } else {
        match end_to_end(&mut run) {
            Ok(m) => (m, &END_TO_END),
            Err(e) => {
                eprintln!("perfbench: {e}; no result");
                return ExitCode::FAILURE;
            }
        }
    };
    if run.attempted == 0 {
        eprintln!("perfbench: nothing was evaluated; no result");
        return ExitCode::FAILURE;
    }
    let mut info = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"git_revision\": \"{}\", \"rustc\": \"{}\", \
         \"wall_s\": {wall_s}, \"setups\": {}, \"cold_cells\": {}, \"warm_cells\": {}, \
         \"what_ifs\": {}, \"cold_checks\": {}, \"probe_s\": {}, \"probe_passes\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::available_parallelism(),
        sys::git_revision(),
        sys::rustc_version(),
        run.samples.setup_s.len(),
        run.samples.cold_s.len(),
        run.samples.warm_s.len(),
        run.samples.whatif.len(),
        run.samples.check_s.len(),
        run.speed.probe_s().unwrap_or(f64::NAN),
        run.speed.passes(),
    );
    for (k, v) in &run.info {
        let _ = write!(info, ", \"{k}\": {v}");
    }
    if args.trace {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, run.tracer.to_json(&info)));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{{\"info\": {{{info}}}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted,
        run.failed,
        json_metrics(&metrics, order)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fig11_cold --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "fig11_cold");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload fig11_cold --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload fig11_cold --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fig11_cold --seed 3 --seconds 10").is_err());
        assert!(args("--workload fig11_cold --seed").is_err());
        assert!(args("--bogus 1 --workload fig11_cold --seed 3 --seconds 1 --trace 0").is_err());
    }

    /// The metric lists here and in BENCHMARK.json must agree name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (w, ..) in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn a_run_without_samples_has_no_result() {
        let mut run =
            Run::new(args("--workload fig11_cold --seed 1 --seconds 1 --trace 0").unwrap());
        let err = end_to_end(&mut run).unwrap_err();
        assert!(
            err.contains("eval_s") && err.contains("whatif_tail_ms"),
            "{err}"
        );
    }

    #[test]
    fn rate_counts_every_question() {
        assert_eq!(rate(&[0.5, 0.5, 1.0, 2.0]), Some(1.0));
        assert_eq!(rate(&[]), None);
    }

    #[test]
    fn metrics_print_every_name_with_its_unit() {
        let mut m: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|(n, _)| (*n, 2.0)).collect();
        m.insert("eval_s", 1.25);
        let out = json_metrics(&m, &END_TO_END);
        assert!(out.contains("\"eval_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(out.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"));
        assert_eq!(out.matches("\"unit\"").count(), END_TO_END.len());
    }
}
