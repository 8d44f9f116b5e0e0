"""Tests of the benchmark itself: tiny runs, and checks that reject bad output.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from depolar import complexes, duality, homology  # noqa: E402
from depolar.complexes import SimplicialComplex  # noqa: E402
from depolar.depolarization import Depolarization  # noqa: E402
from depolar.homology import BettiTable  # noqa: E402
from depolar.ideals import MonomialIdeal  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170, check=False)


def tiny(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    out = tiny(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_tiny_run_repeats_its_counts(workload):
    first, second = tiny(workload, 1), tiny(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["failed"] == 0
    for name, unit in want.items():
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name
    assert os.path.isfile(os.path.join(
        HERE, "results", f"trace-{workload}-3.json"))


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", "betti", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_probe_cancels_a_uniform_slowdown():
    # the same work and the same 10 slices, all twice as slow
    fast = run.PROBE.stretch((0.0, 0.0, 0), (1.1, 0.1, 10))
    slow = run.PROBE.stretch((5.0, 3.0, 7), (7.2, 3.2, 17))
    assert fast[0] == pytest.approx(1.0) and slow[0] == pytest.approx(2.0)
    assert slow[1] == pytest.approx(fast[1])
    assert fast[1] == pytest.approx(run.REFERENCE_SLICE_S / 0.01)


# ---- each check accepts the true output and rejects a corrupted one -------

def _complex_case(J, power):
    cx = workloads.complement_complex(workloads.polarize(J))
    return cx, complexes.alexander_dual_complex(cx), power


@pytest.mark.parametrize("case", [
    _complex_case(workloads.power(3, 4), (3, 4)),
    _complex_case(workloads.jknm(5), None)])
def test_complex_check_rejects_dropped_or_wrong_facet(case):
    cx, dual, power = case
    redual = complexes.alexander_dual_complex
    assert checks.complex_dual_problems(cx, dual, redual, power) == []
    dropped = SimplicialComplex(cx.vertices, dual.facets[1:])
    assert checks.complex_dual_problems(cx, dropped, redual, power)
    # a facet less one vertex is a face of the dual but not a facet, and
    # the full vertex set is no face of it at all
    f = dual.facets[0]
    assert checks.dual_facet_problems(cx.facets, cx.n, [f & (f - 1)])
    assert checks.dual_facet_problems(cx.facets, cx.n, [(1 << cx.n) - 1])


@pytest.mark.parametrize("J,power,polar", [
    (workloads.power(3, 5), (3, 5), False),
    (workloads.polarize(workloads.power(3, 5)), (3, 5), True),
    (workloads.jknm(5), None, False)])
def test_ideal_check_rejects_dropped_or_non_minimal_generator(J, power, polar):
    redual = duality.alexander_dual_ideal
    dual = duality.alexander_dual_ideal(J)
    assert checks.ideal_dual_problems(J, dual, redual, power, polar) == []
    dropped = MonomialIdeal(dual.ring, dual.gens[1:])
    assert checks.ideal_dual_problems(J, dropped, redual, power, polar)
    a = J.lcm_exponent()
    h = dual.gens[0]
    i = next(i for i, (e, top) in enumerate(zip(h, a)) if e < top)
    raised = h[:i] + (h[i] + 1,) + h[i + 1:]
    assert checks.dual_ideal_problems(J.gens, a, [raised])
    lowered = next(g for g in dual.gens if any(g))
    k = next(i for i, e in enumerate(lowered) if e)
    outside = lowered[:k] + (lowered[k] - 1,) + lowered[k + 1:]
    assert checks.dual_ideal_problems(J.gens, a, [outside])


@pytest.mark.parametrize("inst", [
    workloads.Instance("m^(3,3)", "betti", workloads.power(3, 3),
                       power=(3, 3)),
    workloads.Instance("ci(4,2)", "betti", workloads.pure_powers(4, 2),
                       ci=(4, 2)),
    workloads.Instance("jknm(4)", "betti", workloads.jknm(4))])
def test_betti_check_rejects_a_number_off_by_one(inst):
    table = homology.graded_betti(inst.obj)
    assert workloads.check(inst, table) == []
    for key in sorted(table.entries):
        bad = dict(table.entries)
        bad[key] += 1
        assert workloads.check(inst, BettiTable(table.ring, bad)), key


@pytest.mark.parametrize("inst", [
    workloads.Instance("<x^5,y>", "depolarize", workloads.x_power_y(5),
                       chains=2),
    workloads.Instance("m^(3,4)", "depolarize", workloads.power(3, 4),
                       chains=3)])
def test_depolarize_check_rejects_a_chain_out_of_order(inst):
    P, D = workloads.run(inst)
    assert workloads.check(inst, (P, D)) == []
    c = next(k for k, chain in enumerate(D.chains) if len(chain) > 1)
    chains = list(D.chains)
    chains[c] = chains[c][::-1]
    swapped = Depolarization(D.ideal, chains, D.source_ring)
    assert checks.depolarize_problems(inst.obj, P, swapped)
    merged = Depolarization(D.ideal, D.chains[1:], D.source_ring)
    assert workloads.check(inst, (P, merged))
