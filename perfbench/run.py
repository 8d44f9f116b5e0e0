"""Pass-timed benchmark of depolar.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: depolar is imported from ./src.
One workload runs in this single-threaded process.  Set-up (importing
depolar, building the seeded inputs, one warm-up call per kernel path) is
timed here and in four fresh child processes, and setup_s is the median.
Times are reported at a reference machine speed (see SpeedProbe).
Then rounds run until the next would overrun --seconds, at least three:
k whole passes over the small tier, k set so they take about a quarter of
the time, then one whole pass over the large tier.  Garbage is collected
between passes and never inside one.  Every output
is checked after timing (see checks.py); an operation that raises, or
whose output fails its check or differs between passes, counts as failed.

The last line of standard output is one JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A traced run also writes every span to
perfbench/results/trace-<workload>-<seed>.json.
"""

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback

# one thread per process, whatever BLAS numpy was built with
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("roundtrip", "direct-dual", "betti", "depolarize")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# the speed probe: a slice of SLICE_ITERATIONS loop turns every
# PROBE_INTERVAL_S of wall time, and the slice time that counts as the
# reference speed (a slice took 0.17 ms on a 2-vCPU Firecracker VM)
SLICE_ITERATIONS = 250
PROBE_INTERVAL_S = 0.01
REFERENCE_SLICE_S = 2.0e-4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone and print the seconds")
    p.add_argument("--tiny", action="store_true",
                   help="a few small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _slice():
    """A fixed slice of the pure-Python work depolar does: small tuples,
    ints, a dict and a sort."""
    counts = {}
    acc = 0
    for i in range(SLICE_ITERATIONS):
        key = (i & 63, i >> 4, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    return acc + len(sorted(counts))


class SpeedProbe:
    """The machine's speed, sampled while the benchmark times its work.

    On a shared virtual machine the speed can move by up to 2x within
    seconds and from one run to the next, so pass and set-up times are
    reported at a reference speed.  A timer signal runs a slice of fixed work every
    PROBE_INTERVAL_S, between two bytecodes of whatever depolar is doing;
    a timed stretch then lasts its wall time less the slices in it, scaled
    by REFERENCE_SLICE_S over the mean slice time in it.
    """

    def __init__(self):
        self.seconds = 0.0
        self.slices = 0

    def sample(self, *_):
        t0 = time.perf_counter()
        _slice()
        self.seconds += time.perf_counter() - t0
        self.slices += 1

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point in time; the slice taken here counts in the stretch
        that ends here, so every stretch holds at least one."""
        self.sample()
        return time.perf_counter(), self.seconds, self.slices

    def stretch(self, start, end):
        """(wall seconds less slices, seconds at reference speed)."""
        probe_s = end[1] - start[1]
        wall = end[0] - start[0] - probe_s
        return wall, wall * REFERENCE_SLICE_S * (end[2] - start[2]) / probe_s


PROBE = SpeedProbe()


def setup(args):
    """Import depolar from ./src, build both tiers, warm every kernel path.
    Returns the set-up time at reference speed last."""
    PROBE.start()
    try:
        start = PROBE.mark()
        if not os.path.isfile(os.path.join(SRC, "depolar", "__init__.py")):
            raise SystemExit(f"no depolar sources under {SRC}; "
                             "run from the root of a depolar checkout")
        sys.path.insert(0, SRC)
        import depolar
        if not os.path.abspath(depolar.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"imported depolar from {depolar.__file__}, "
                             f"not from {SRC}")
        import workloads
        small, large = workloads.TIERS[args.workload](args.seed, args.tiny)
        for inst in workloads.warmup_instances(args.workload):
            try:
                workloads.run(inst)
            except Exception:  # the timed passes count the failure
                traceback.print_exc(file=sys.stderr)
        end = PROBE.mark()
    finally:
        PROBE.stop()
    return workloads, small, large, PROBE.stretch(start, end)[1]


def child_setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"set-up child failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    """High-water resident memory of this process image, in MiB.

    VmHWM belongs to the current address space.  ru_maxrss would also
    count the parent's image that this process was forked from before it
    exec'd, so it grows with whatever program launched the benchmark.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")


class Tier:
    """One tier's instances and the record of every pass over it.

    The first pass keeps its outputs for checking; a later pass only
    records which operations failed, counting an output that differs
    from the first pass's as failed.
    """

    def __init__(self, instances):
        self.instances = instances
        self.outputs = None
        self.raised = []
        self.seconds = []
        self.wall = []
        self.marks = []

    def run_pass(self, wl, tracer):
        outputs = [None] * len(self.instances)
        raised = [False] * len(self.instances)
        if tracer:  # only the first pass keeps payloads for the counts
            tracer.keep = not self.seconds
        gc.collect()
        gc.disable()
        try:
            start_mark = tracer.mark() if tracer else None
            t0 = PROBE.mark()
            for k, inst in enumerate(self.instances):
                span = tracer.open(f"op {inst.label}") if tracer else None
                try:
                    outputs[k] = wl.run(inst)
                except Exception:  # counted as a failed operation
                    raised[k] = True
                    traceback.print_exc(file=sys.stderr)
                finally:
                    if span:
                        tracer.close(span)
            wall, seconds = PROBE.stretch(t0, PROBE.mark())
            self.wall.append(wall)
            self.seconds.append(seconds)
            self.marks.append((start_mark, tracer.mark()) if tracer else None)
        finally:
            gc.enable()
        if self.outputs is None:
            self.outputs = outputs
        else:
            first = self.raised[0]
            for k, inst in enumerate(self.instances):
                if not raised[k] and (
                        first[k] or wl.fingerprint(inst, outputs[k])
                        != wl.fingerprint(inst, self.outputs[k])):
                    raised[k] = True
        self.raised.append(raised)

    def failures(self, wl):
        """Failed operations over all passes; checks run once per instance."""
        failed = sum(map(sum, self.raised))
        for k, inst in enumerate(self.instances):
            if self.raised[0][k]:
                continue
            try:
                problems = wl.check(inst, self.outputs[k])
            except Exception as exc:  # a check that cannot read the output
                problems = [f"check raised {exc!r}"]
            if problems:
                print(f"check failed on {inst.label}: {problems}",
                      file=sys.stderr)
                failed += sum(1 for r in self.raised if not r[k])
        return failed


def measure(small, large, wl, tracer, seconds):
    """Rounds of whole passes until the next would overrun, at least three.

    A round is k passes over the small tier and one over the large tier,
    with k set after the first round so the small passes take about a
    quarter of the large pass; both medians then sample the whole run.
    """
    start = time.perf_counter()
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            small.run_pass(wl, tracer)
        large.run_pass(wl, tracer)
        if len(large.seconds) == 1:
            k = max(1, round(large.seconds[0] / (4 * small.seconds[0])))
        now = time.perf_counter()
        if (len(large.seconds) >= MIN_ROUNDS
                and now - start + (now - t0) > seconds):
            return


def main(argv=None):
    args = parse_args(argv)
    wl, small, large, first_setup = setup(args)
    if args.setup_only:
        print(repr(first_setup))
        return 0
    import tracing
    setups = [first_setup] + [child_setup_seconds(args)
                              for _ in range(SETUP_REPEATS - 1)]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer().install()
        for name in tracer.missing:
            print(f"not traced, absent from depolar: {name}", file=sys.stderr)
    small, large = Tier(small), Tier(large)
    PROBE.start()
    try:
        measure(small, large, wl, tracer, args.seconds)
    finally:
        PROBE.stop()
        if tracer:
            tracer.uninstall()
    peak_mb = peak_rss_mb()
    attempted = sum(len(t.instances) * len(t.seconds) for t in (small, large))
    failed = small.failures(wl) + large.failures(wl)
    print(f"{args.workload} seed {args.seed}: "
          f"{len(small.seconds)} x {len(small.instances)} small, "
          f"{len(large.seconds)} x {len(large.instances)} large; "
          f"small {[round(x, 3) for x in small.seconds]}, "
          f"large {[round(x, 3) for x in large.seconds]}, "
          f"set-up {[round(x, 3) for x in setups]} at reference speed; "
          f"wall small {[round(x, 3) for x in small.wall]}, "
          f"large {[round(x, 3) for x in large.wall]}", file=sys.stderr)
    small_s = statistics.median(small.seconds)
    large_s = statistics.median(large.seconds)
    if tracer:
        values = tracer.metrics(small.marks, large.marks)
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                   for k, v in values.items()}
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "small_s": small_s, "large_s": large_s,
                       "small_passes": small.marks,
                       "large_passes": large.marks,
                       "op_seconds": tracer.op_seconds(),
                       "metrics": values, "spans": tracer.dump()}, fh)
    else:
        metrics = {
            "small_s": {"value": small_s, "unit": "s"},
            "large_s": {"value": large_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
