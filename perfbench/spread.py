#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py <workload> [--seeds 1-10] [--trace 0|1|both]

For every metric it prints the median of the per-seed values, the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of that median, and, for
end-to-end metrics, the bound BENCHMARK.json allows. A spread above a
third of its bound is flagged. With --trace both, every seed is run
untraced and then traced, and the tracing overhead is measured as the
median over seeds of traced / untraced - 1 for the cold, warm and
what-if medians. The unscaled medians of the info line (raw.*) and
the run's median probe pass (raw.probe_s) are reported beside the
metrics, to show what the scaling to the reference speed removed. Raw
result lines are appended to .bench_trace/spread-<workload>.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

# Traced per-layer medians and the untraced end-to-end metric each
# repeats, with the factor from the first's unit to the second's.
OVERHEAD_PAIRS = [
    ("coverage.cold_eval_s", "eval_s", 1.0),
    ("coverage.warm_eval_s", "warm_eval_ms", 1e3),
    ("coverage.whatif_s", "whatif_p50_ms", 1e3),
]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace, log):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", trace,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    log.write(json.dumps({"seed": seed, "trace": trace, "info": info, "result": result}) + "\n")
    log.flush()
    if not result["correct"] or result["failed"]:
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # The unscaled times and the probe, to compare with the scaled ones.
    values.update({f"raw.{k}": v for k, v in info.get("raw", {}).items()})
    if "probe_s" in info:
        values["raw.probe_s"] = info["probe_s"]
    return values


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or not med:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    workload = args[0]
    seeds = parse_seeds(args[args.index("--seeds") + 1]) if "--seeds" in args else list(range(1, 11))
    trace = args[args.index("--trace") + 1] if "--trace" in args else "0"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_trace", exist_ok=True)
    log = open(os.path.join(".bench_trace", f"spread-{workload}.jsonl"), "a")
    values = {}
    overhead = {pair: [] for pair in OVERHEAD_PAIRS}
    for seed in seeds:
        if trace == "both":
            plain = run(bench, workload, seed, "0", log)
            traced = run(bench, workload, seed, "1", log)
            for pair in OVERHEAD_PAIRS:
                layer, e2e, scale = pair
                if traced.get(layer) and plain.get(e2e):
                    overhead[pair].append(traced[layer] * scale / plain[e2e] - 1.0)
        else:
            plain = run(bench, workload, seed, trace, log)
        for name, v in plain.items():
            values.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in plain.items() if k in bounds), flush=True)
    for name, vs in values.items():
        med, s = spread(vs)
        bound = bounds.get(name)
        flag = " <-- above a third of its bound" if bound and s > bound / 3 else ""
        shown = f"bound {bound}" if bound is not None else "per-layer"
        print(f"{name:32s} median {med:<14.6g} spread {s:.4f} ({shown}){flag}")
    for (layer, e2e, _), rs in overhead.items():
        if rs:
            med, _ = spread(rs)
            print(f"trace overhead {layer} vs {e2e}: median {med:+.4f} over {len(rs)} seeds "
                  f"(min {min(rs):+.4f}, max {max(rs):+.4f})")


if __name__ == "__main__":
    main()
