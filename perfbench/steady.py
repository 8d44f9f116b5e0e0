"""Run each workload many times and report how steady its figures are.

    python3 perfbench/steady.py --trace

For every workload in BENCHMARK.json, run.py runs ten times in sequence,
on seeds 1 to 10, for the run length in BENCHMARK.json.  For each
end-to-end metric the script prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound and a third of it.  If an earlier set left
perfbench/results/steady.json, it also prints the gap between the two
sets' medians, (new - old) / old, against the bound.  With --trace it then
makes three traced runs per workload on seed 1, checks that their counts
agree exactly, and reports the tracing overhead: the median traced large_s
over the untraced median.  With roundtrip and direct-dual both traced it
also prints t_alg1 against the direct duals on their shared instances.
Everything is written to perfbench/results/steady.json, and the set it
replaces is kept as perfbench/results/steady-previous.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
RUNS = 10
FIRST_SEED = 1
TRACED_RUNS = 3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=False)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def traced_runs(workload, seed, seconds, plain_large):
    """Three traced runs on one seed: their counts must agree exactly, and
    the median traced large_s over the untraced median is the overhead."""
    path = os.path.join(RESULTS, f"trace-{workload}-{seed}.json")
    larges, layers = [], []
    for _ in range(TRACED_RUNS):
        out, _ = run_once(workload, seed, seconds, 1)
        layers.append(out["metrics"])
        with open(path) as fh:
            record = json.load(fh)
        larges.append(record["large_s"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] != "s"}
              for m in layers]
    repeat = all(c == counts[0] for c in counts)
    traced = statistics.median(larges)
    overhead = traced / plain_large - 1
    print(f"  traced large_s {[round(x, 3) for x in larges]}, median "
          f"{traced:.4f}: overhead {100 * overhead:+.1f}%; counts repeat "
          f"exactly: {repeat}")
    return {"traced_large_s": larges, "trace_overhead": overhead,
            "counts_repeat": repeat, "layers": layers[-1],
            "op_seconds": record["op_seconds"]}


def compare(roundtrip, direct):
    """t_alg1 (roundtrip) against t_IDelta (dual of the polarization P),
    t_Jdual (dual of the compact J) and the direct complex dual, per
    shared instance, from the traced runs (median over passes)."""
    rows = {}
    print(f"{'instance':14s} {'t_alg1':>9s} {'t_IDelta':>9s} {'t_Jdual':>9s}"
          f" {'complex':>9s} {'alg1/IDelta':>11s}")
    for label, alg1 in roundtrip.items():
        if label.startswith("random") or f"{label} P" not in direct:
            continue
        row = {"t_alg1": alg1, "t_IDelta": direct[f"{label} P"],
               "t_Jdual": direct[f"{label} J"],
               "complex": direct[f"{label} complex"]}
        rows[label] = row
        print(f"{label:14s} {alg1:9.4f} {row['t_IDelta']:9.4f}"
              f" {row['t_Jdual']:9.4f} {row['complex']:9.4f}"
              f" {alg1 / row['t_IDelta']:11.1f}")
    return rows


def median_gaps(previous, report, bounds):
    """Gap between the medians of this set and an earlier one, per
    workload and metric, as (new - old) / old; OVER where it passes the
    bound in either direction."""
    gaps = {}
    print("medians against the previous set:")
    for workload, entry in report["workloads"].items():
        old = previous["workloads"].get(workload)
        if old is None:
            continue
        gaps[workload] = {}
        for name, bound in bounds.items():
            was = old["metrics"][name]["median"]
            now = entry["metrics"][name]["median"]
            gap = (now - was) / was
            gaps[workload][name] = gap
            flag = "  OVER" if abs(gap) > bound else ""
            print(f"  {workload:12s} {name:12s} {was:10.4f} -> {now:10.4f}"
                  f"  gap {gap:+.3f}  (bound {bound}){flag}")
        same = old["failed_shares"] == entry["failed_shares"]
        print(f"  {workload:12s} failed shares equal: {same}")
    return gaps


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", action="store_true",
                   help="add three traced runs per workload")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        rows, walls, shares = [], [], set()
        for r in range(RUNS):
            out, wall = run_once(workload, FIRST_SEED + r, seconds, 0)
            rows.append(out)
            walls.append(wall)
            shares.add(out["failed"] / out["attempted"])
        entry = {"wall_s": summary(walls), "failed_shares": sorted(shares),
                 "correct": all(o["correct"] for o in rows), "metrics": {}}
        print(f"{workload}: {RUNS} runs, wall {statistics.median(walls):.1f} s"
              f" median, failed shares {sorted(shares)}")
        for name, bound in bounds.items():
            s = summary([o["metrics"][name]["value"] for o in rows])
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}"
                  f"  (bound {bound}, third {bound / 3:.3f}){flag}")
        if args.trace:
            entry.update(traced_runs(workload, FIRST_SEED, seconds,
                                     entry["metrics"]["large_s"]["median"]))
        report["workloads"][workload] = entry
        sys.stdout.flush()
    ops = {w: e.get("op_seconds") for w, e in report["workloads"].items()}
    if ops.get("roundtrip") and ops.get("direct-dual"):
        report["alg1_vs_direct"] = compare(ops["roundtrip"], ops["direct-dual"])
    path = os.path.join(RESULTS, "steady.json")
    if os.path.isfile(path):
        with open(path) as fh:
            report["gaps"] = median_gaps(json.load(fh), report, bounds)
        os.replace(path, os.path.join(RESULTS, "steady-previous.json"))
    os.makedirs(RESULTS, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
