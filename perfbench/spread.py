#!/usr/bin/env python3
"""Runs the benchmark over a list of seeds and prints, for each end-to-end
metric, the median and the run-to-run spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.

Run it from the repository root, for example:

    # across seeds: ten seeds, one run each
    python3 perfbench/spread.py --workload figures-churn --seeds 1-10
    # host noise alone: seed 1 ten times
    python3 perfbench/spread.py --workload figures-churn --seeds 1 --repeat 10
    # two batches of the same code, their runs alternated, over every workload
    python3 perfbench/spread.py --workload figures-churn,figures-sweep,service-mixed,live-ingest \\
        --seeds 1-10 --batches 2

With several workloads or batches the runs are interleaved (for each seed,
each batch, each workload), so all of them see the same stretch of host
speed. With --batches 2 it also prints how much worse each metric's median
is in one batch than in the other, in both directions, against the metric's
bound in BENCHMARK.json.

A later change can resolve a difference in a metric only if it is larger
than that metric's spread on the same host.
"""
import argparse
import json
import statistics
import subprocess
import sys

SETUP_NOTE = "setup_s of each repetition"


def parse_seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or not med:
        return med, float("nan")
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / med


def run_once(bench, workload, seed, seconds, trace):
    out = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", seconds, "--trace", trace],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run:\n{out}")
    metrics = {n: m["value"] for n, m in res["metrics"].items()}
    for line in lines:
        if SETUP_NOTE in line:
            # The repetitions print as a Go slice: [a b c d e] s
            reps = line.split("[", 1)[1].split("]", 1)[0].split()
            metrics["setup_s (one set-up, the last)"] = float(reps[-1])
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="one workload, or several separated by commas")
    ap.add_argument("--seeds", default="1-10", help="seeds, as 1-10 or 1,4,7")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed and batch")
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    workloads = args.workload.split(",")
    # values[workload][batch][metric] = [one value per run]
    values = {w: [{} for _ in range(args.batches)] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for _ in range(args.repeat):
            for b in range(args.batches):
                for w in workloads:
                    m = run_once(bench, w, seed, seconds, args.trace)
                    for name, v in m.items():
                        values[w][b].setdefault(name, []).append(v)
                    print(f"{w} batch {b + 1} seed {seed}: " +
                          " ".join(f"{n.split(' ')[0]}={v:.4g}" for n, v in sorted(m.items()) if "(" not in n),
                          flush=True)
    defs = {m["name"]: m for m in bench["end_to_end"]}
    for w in workloads:
        print(f"\n{w}")
        head = f"  {'metric':<34} {'bound':>6}"
        for b in range(args.batches):
            head += f" {'median ' + str(b + 1):>12} {'spread':>7}"
        if args.batches == 2:
            head += f" {'2 vs 1':>7} {'1 vs 2':>7}"
        print(head)
        for name in sorted(values[w][0]):
            d = defs.get(name.split(" ")[0], {})
            row = f"  {name:<34} {d.get('bound', ''):>6}"
            meds = []
            for b in range(args.batches):
                med, sp = spread(values[w][b][name])
                meds.append(med)
                row += f" {med:>12.5g} {sp:>7.3f}"
            if args.batches == 2 and d and all(meds):
                # How much worse one batch's median is than the other's.
                sign = 1 if d["better"] == "lower" else -1
                row += f" {sign * (meds[1] - meds[0]) / meds[0]:>7.3f} {sign * (meds[0] - meds[1]) / meds[1]:>7.3f}"
            print(row)


if __name__ == "__main__":
    main()
