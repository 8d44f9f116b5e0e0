"""Ideal families and the subprocess benchmark harness."""

import csv
import functools
import io
import json
import multiprocessing
import time
from math import comb

import pytest

from depolar.ideals import InputError, ResourceLimit
from depolar.families import (gen_power_ideal, gen_variable_powers, gen_jknm,
                              gen_random_ideal, FAMILY_BUILDERS)
from depolar import bench, hypergraph
from depolar.bench import (BenchRecord, run_cell, bench_dual,
                           table_cells, records_to_csv, CSV_SCHEMA)


def test_power_ideal():
    for n, k in [(1, 1), (2, 3), (3, 2), (5, 4)]:
        I = gen_power_ideal(n, k)
        assert len(I.gens) == comb(n + k - 1, k)
        assert all(sum(g) == k for g in I.gens)
    assert gen_power_ideal(2, 2).gens == ((0, 2), (1, 1), (2, 0))
    with pytest.raises(ResourceLimit):
        gen_power_ideal(10, 10, cap=100)
    with pytest.raises(InputError):
        gen_power_ideal(0, 1)
    with pytest.raises(InputError):
        gen_power_ideal(1, 0)


def test_variable_powers():
    I = gen_variable_powers(3, 4)
    assert I.gens == ((0, 0, 4), (0, 4, 0), (4, 0, 0))
    assert len(gen_variable_powers(10, 1).gens) == 10
    with pytest.raises(InputError):
        gen_variable_powers(0, 2)


def test_jknm_defaults():
    # default exponent sequence is the descending odd numbers (5, 3, 1)
    assert len(gen_jknm(6).gens) == 41
    assert gen_jknm(1).gens == ((1,),)
    I = gen_jknm(3)
    # seq (1,): just the squarefree variables
    assert I.gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_jknm_explicit_sequence():
    I = gen_jknm(4, seq=(4, 2, 1))
    assert len(I.gens) == 14
    assert (4, 0, 0, 0) in I.gens
    assert (2, 2, 0, 0) in I.gens
    assert (0, 1, 1, 1) in I.gens
    # squares beat the pair layer wherever supports nest
    J = gen_jknm(3, seq=(2, 1))
    assert len(J.gens) == 6
    for bad in [(1, 2), (1, 1, 1, 1), (0,), (), (2, -1)]:
        with pytest.raises(InputError):
            gen_jknm(3, seq=bad)


def test_random_family():
    I = gen_random_ideal(4, 6, 3, seed=11)
    assert I == gen_random_ideal(4, 6, 3, seed=11)
    for g in I.gens:
        assert any(g)
        assert not any(h != g and all(a <= b for a, b in zip(h, g))
                       for h in I.gens)
    with pytest.raises(InputError):
        gen_random_ideal(0, 1, 1, seed=1)
    with pytest.raises(InputError):
        gen_random_ideal(2, 1, 0, seed=1)


def test_family_registry():
    assert set(FAMILY_BUILDERS) == {"power", "varpowers", "jknm", "random"}
    assert FAMILY_BUILDERS["power"] is gen_power_ideal


def test_record_ratios():
    r = BenchRecord(family="power", params={})
    assert r.ratio_gens() is None and r.ratio_vars() is None
    r.gens_Jdual, r.gens_IDelta, r.n, r.n_prime = 30, 205, 6, 30
    assert r.ratio_gens() == pytest.approx(205 / 30)
    assert r.ratio_vars() == pytest.approx(5.0)


def test_run_cell_golden():
    r = run_cell("jknm", {"n": 6}, size_res=True)
    assert r.status == "ok"
    assert (r.n, r.n_prime) == (6, 30)
    assert (r.gens_J, r.gens_Jdual, r.gens_IDelta) == (41, 30, 205)
    assert r.size_res == 1131
    assert r.t_Jdual_ms > 0 and r.t_IDelta_ms > 0 and r.t_alg1_ms > 0
    assert r.ratio_gens() == pytest.approx(205 / 30)
    assert r.ratio_vars() == pytest.approx(5.0)


def test_run_cell_statuses():
    r = run_cell("power", {"n": 10, "k": 10}, timeout_s=0.05)
    assert r.status == "timeout"
    assert r.gens_Jdual is None and r.ratio_gens() is None
    # the transversal product blows the cap long before the timeout
    r = run_cell("varpowers", {"n": 10, "k": 8}, timeout_s=60, mem_mb=128)
    assert r.status == "oom"
    with pytest.raises(InputError):
        run_cell("frobnicate", {})
    # a bad parameter reaches the parent as the cell raised it, any other
    # failure in the cell as RuntimeError
    with pytest.raises(InputError, match="need n >= 1"):
        run_cell("power", {"n": 0, "k": 1})
    with pytest.raises(RuntimeError, match="TypeError"):
        run_cell("power", {"n": 2})


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the cell process must inherit the patched dual")
def test_timed_out_cell_keeps_its_earlier_fields(monkeypatch):
    # the direct dual of the polarization, timed last, never returns
    def stuck(I, *args, **kwargs):
        if I.n > 2:
            time.sleep(600)
        return dual(I, *args, **kwargs)

    dual = bench.alexander_dual_ideal
    monkeypatch.setattr(bench, "alexander_dual_ideal", stuck)
    r = run_cell("power", {"n": 2, "k": 3}, timeout_s=2)
    assert r.status == "timeout"
    assert (r.n, r.gens_J, r.n_prime) == (2, 4, 6)
    assert r.gens_Jdual == 3 and r.t_Jdual_ms > 0 and r.t_alg1_ms > 0
    assert r.t_IDelta_ms is None and r.gens_IDelta is None


def test_table_cells():
    assert table_cells("1")[0] == ("power", {"n": 5, "k": 10})
    assert len(table_cells("1")) == 7
    assert table_cells("2") == [("varpowers", {"n": 10, "k": k})
                                for k in (5, 6, 7, 8)]
    assert table_cells("3") == [("jknm", {"n": n}) for n in range(6, 11)]
    with pytest.raises(KeyError):
        table_cells("4")


def test_csv_output():
    records, text = bench_dual([("varpowers", {"n": 3, "k": 2})])
    assert text == records_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_SCHEMA == "schema=2"
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[1], rows[2]
    assert header[:2] == ["family", "params"]
    assert header[-2:] == ["ratio_gens", "ratio_vars"]
    row = dict(zip(header, data))
    assert row["family"] == "varpowers"
    assert json.loads(row["params"]) == {"n": 3, "k": 2}
    assert row["status"] == "ok"
    assert int(row["gens_J"]) == 3
    # a timeout row leaves the unmeasured columns empty
    t = records_to_csv([BenchRecord(family="power", params={}, status="timeout")])
    row = dict(zip(header, list(csv.reader(io.StringIO(t)))[2]))
    assert row["status"] == "timeout"
    assert row["gens_J"] == "" and row["ratio_gens"] == ""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the cell process must inherit the patched cap")
def test_round_trip_cap_is_named(monkeypatch):
    # a round trip refused by its cap leaves t_alg1_ms blank, names the
    # cap in the record and the CSV, and the cell goes on to the direct dual
    def capped(cx):
        # the warm-up's round trip, on 4 vertices, runs uncapped
        return roundtrip(cx, cartesian_cap=2 if cx.n > 4 else 10 ** 7)

    roundtrip = bench.dual_complex_via_depolarization
    monkeypatch.setattr(bench, "dual_complex_via_depolarization", capped)
    r = run_cell("power", {"n": 2, "k": 3}, timeout_s=60)
    assert r.status == "ok" and r.t_alg1_ms is None
    assert r.cap.startswith("alg1: ") and "cap 2" in r.cap
    assert r.t_IDelta_ms > 0 and r.gens_IDelta == 6
    lines = records_to_csv([r]).splitlines()
    assert lines[0] == CSV_SCHEMA == "schema=2"
    row = dict(zip(*csv.reader(lines[1:])))
    assert row["cap"] == r.cap and row["t_alg1_ms"] == ""
    # a cap that ends the cell is named too, with the status it had.  With
    # no bytes for the level grid the Betti numbers take the sweep, whose
    # lcm lattice lattice_cap bounds
    monkeypatch.setattr(hypergraph, "_GRID_BYTES", 0)
    monkeypatch.setattr(bench, "total_betti", functools.partial(
        bench.total_betti, lattice_cap=1))
    r = run_cell("power", {"n": 2, "k": 3}, timeout_s=60, size_res=True)
    assert r.status == "oom" and r.size_res is None
    assert r.cap == "lcm lattice exceeds cap 1"
