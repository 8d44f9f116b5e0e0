"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single "criterion N: PASS"
line on success (run with -s to see them inline).  Budgets are wall-clock
upper bounds asserted alongside the exactness checks.
"""

import random
import time
from math import comb

import oracles
from depolar import (MonomialIdeal, Ring, depolarize, polarize_ideal,
                     validate_depolarization)
from depolar.bench import run_cell
from depolar.complexes import (SimplicialComplex, alexander_dual_complex,
                               complex_of_squarefree_ideal,
                               facet_complement_ideal, koszul_complex)
from depolar.duality import (alexander_dual_ideal,
                             dual_complex_via_depolarization, repolarize_dual)
from depolar.families import gen_jknm, gen_power_ideal, gen_variable_powers
from depolar.homology import graded_betti, reduced_homology_dims, total_betti
from depolar.polarization import expanded_koszul, verify_polar_koszul_iso


def _report(num, text):
    print(f"criterion {num}: PASS  {text}")


def _names(ring, vec):
    return frozenset(ring.variables[i] for i, e in enumerate(vec) if e)


def pad_eq(a, b):
    top = max(len(a), len(b))
    return list(a) + [0] * (top - len(a)) == list(b) + [0] * (top - len(b))


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_worked_examples():
    budgets = []

    # chain partitions of a four-generator ideal in k[x,y,z,t]
    t0 = time.perf_counter()
    J = MonomialIdeal.from_gens(
        Ring(["x", "y", "z", "t"]),
        [(3, 1, 0, 0), (0, 1, 3, 0), (2, 3, 2, 1), (0, 0, 3, 1)])
    P, M = polarize_ideal(J)
    assert P.ring.variables == ("x_1", "x_2", "x_3", "y_1", "y_2", "y_3",
                                "z_1", "z_2", "z_3", "t_1")
    assert [len(c) for c in M.chains] == [3, 3, 3, 1]
    assert {_names(P.ring, g) for g in P.gens} == {
        frozenset({"x_1", "x_2", "x_3", "y_1"}),
        frozenset({"y_1", "z_1", "z_2", "z_3"}),
        frozenset({"x_1", "x_2", "y_1", "y_2", "y_3", "z_1", "z_2", "t_1"}),
        frozenset({"z_1", "z_2", "z_3", "t_1"}),
    }
    C = oracles.support_sets(P)
    assert {i + 1: sorted(v + 1 for v in C[i]) for i in C} == {
        1: [1, 2, 4], 2: [1, 2, 4], 3: [1, 2, 3, 4], 4: [4],
        5: [1, 2, 4, 5, 6, 7, 8, 10], 6: [1, 2, 4, 5, 6, 7, 8, 10],
        7: [7, 8], 8: [7, 8], 9: [7, 8, 9], 10: [7, 8, 10]}
    D1 = depolarize(P, [(3, 0, 1, 2), (6, 7, 9, 4, 5), (8,)])
    assert set(D1.ideal.gens) == {(4, 0, 0), (1, 2, 1), (3, 5, 0), (0, 3, 1)}
    D2 = depolarize(P, [(3, 0, 1, 2), (9, 4, 5), (6, 7), (8,)])
    assert set(D2.ideal.gens) == {(4, 0, 0, 0), (1, 0, 2, 1),
                                  (3, 3, 2, 0), (0, 1, 2, 1)}
    for D in (D1, D2):
        assert validate_depolarization(P, D)
    budgets.append(time.perf_counter() - t0)

    # Koszul and expanded Koszul facets of a two-variable-heavy ideal
    t0 = time.perf_counter()
    I = MonomialIdeal.from_gens(
        Ring(["x1", "x2", "x3"]),
        [(3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1)])
    K = koszul_complex(I).to_dict()
    assert {frozenset(f) for f in K["facets"]} == {
        frozenset({"x1", "x2"}), frozenset({"x1", "x3"}),
        frozenset({"x2", "x3"})}
    EK = expanded_koszul(I).to_dict()
    assert EK["vertices"] == ["x1_1", "x1_2", "x1_3",
                              "x2_1", "x2_2", "x2_3", "x3_1"]
    assert {frozenset(f) for f in EK["facets"]} == {
        frozenset({"x1_1", "x1_2", "x1_3", "x2_3"}),
        frozenset({"x1_3", "x2_1", "x2_2", "x2_3"}),
        frozenset({"x1_3", "x3_1"}),
        frozenset({"x2_3", "x3_1"})}
    assert verify_polar_koszul_iso(I)
    budgets.append(time.perf_counter() - t0)

    # reduction of a 6-vertex complex to a Koszul complex on 3 vertices
    t0 = time.perf_counter()
    names = [f"x{i}" for i in range(1, 7)]
    cx = SimplicialComplex.from_faces(names, [
        ("x1", "x2", "x3", "x4", "x5"),
        ("x1", "x2", "x3", "x6"),
        ("x4", "x5", "x6")])
    IK = facet_complement_ideal(cx)
    assert {_names(IK.ring, g) for g in IK.gens} == {
        frozenset({"x6"}), frozenset({"x4", "x5"}),
        frozenset({"x1", "x2", "x3"})}
    assert tuple(cx.f_vector()) == (1, 6, 15, 14, 6, 1)
    D = depolarize(IK)
    small = D.ideal
    assert all(sum(1 for e in g if e) == 1 for g in small.gens)
    assert sorted(sum(g) for g in small.gens) == [1, 2, 3]
    KD = koszul_complex(small)
    assert tuple(KD.f_vector()) == (1, 3, 3)
    assert pad_eq(reduced_homology_dims(cx), reduced_homology_dims(KD))
    budgets.append(time.perf_counter() - t0)

    # full dual pipeline for the 10-vertex complex
    t0 = time.perf_counter()
    J = MonomialIdeal.from_gens(
        Ring(["x", "y", "z"]),
        [(4, 0, 0), (1, 0, 3), (3, 3, 2), (0, 1, 3)])
    Jd = alexander_dual_ideal(J)
    assert Jd.gens == ((1, 0, 2), (1, 1, 1), (2, 0, 1), (4, 3, 0))
    P, M = polarize_ideal(J)
    mu = J.lcm_exponent()
    assert mu == (4, 3, 3)

    def mset(nu):
        return {_names(P.ring, v) for v in oracles.expansion_set(nu, mu)}

    assert mset((4, 3, 0)) == {frozenset({"x_1", "y_1"})}
    assert mset((2, 0, 1)) == {frozenset({f"x_{i}", f"z_{k}"})
                               for i in (1, 2, 3) for k in (1, 2, 3)}
    assert mset((1, 1, 1)) == {frozenset({f"x_{i}", f"y_{j}", f"z_{k}"})
                               for i in range(1, 5)
                               for j in (1, 2, 3) for k in (1, 2, 3)}
    assert mset((1, 0, 2)) == {frozenset({f"x_{i}", f"z_{k}"})
                               for i in range(1, 5) for k in (1, 2)}
    Pd = repolarize_dual(Jd, mu, M)
    assert Pd == alexander_dual_ideal(P)
    expect = {frozenset({"x_1", "y_1"})}
    expect |= {frozenset({f"x_{i}", "z_1"}) for i in range(1, 5)}
    expect |= {frozenset({f"x_{i}", "z_2"}) for i in range(1, 5)}
    expect |= {frozenset({f"x_{i}", "z_3"}) for i in range(1, 4)}
    expect |= {frozenset({"x_4", f"y_{j}", "z_3"}) for j in range(1, 4)}
    assert {_names(P.ring, g) for g in Pd.gens} == expect
    assert len(Pd.gens) == 15

    cx = SimplicialComplex.from_faces([f"v{i}" for i in range(1, 11)], [
        ("v5", "v6", "v7", "v8", "v9", "v10"),
        ("v1", "v2", "v3", "v5", "v6", "v10"),
        ("v3", "v9"),
        ("v1", "v2", "v3", "v4", "v5", "v6")])
    dual, report = dual_complex_via_depolarization(cx)
    got = {frozenset(dual.names_of(f)) for f in dual.facets}
    want = {frozenset(f"v{i}" for i in fs) for fs in [
        (1, 2, 3, 5, 6, 7, 8, 9), (1, 2, 3, 5, 6, 8, 9, 10),
        (2, 3, 4, 5, 6, 8, 9, 10), (1, 3, 4, 5, 6, 8, 9, 10),
        (1, 2, 4, 5, 6, 8, 9, 10), (1, 2, 3, 5, 6, 7, 9, 10),
        (2, 3, 4, 5, 6, 7, 9, 10), (1, 3, 4, 5, 6, 7, 9, 10),
        (1, 2, 4, 5, 6, 7, 9, 10), (1, 2, 3, 5, 6, 7, 8, 10),
        (2, 3, 4, 5, 6, 7, 8, 10), (1, 3, 4, 5, 6, 7, 8, 10),
        (1, 2, 4, 5, 6, 7, 8), (1, 2, 4, 6, 7, 8, 10),
        (1, 2, 4, 5, 7, 8, 10)]}
    assert got == want
    assert dual.facets == alexander_dual_complex(cx).facets
    assert (report["gens_J"], report["gens_Jdual"],
            report["gens_final"]) == (4, 4, 15)
    budgets.append(time.perf_counter() - t0)

    assert all(b < 1.0 for b in budgets)
    _report(1, "worked examples reproduced exactly "
               f"(slowest block {max(budgets):.3f}s < 1s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_size_tables():
    t0 = time.perf_counter()
    r = run_cell("power", {"n": 5, "k": 10})
    assert r.status == "ok"
    assert (r.gens_J, r.gens_Jdual, r.gens_IDelta) == (1001, 715, 2002)
    t_power = time.perf_counter() - t0
    assert t_power < 120

    t0 = time.perf_counter()
    r = run_cell("jknm", {"n": 6}, size_res=True)
    assert r.status == "ok"
    assert (r.gens_J, r.gens_Jdual, r.gens_IDelta) == (41, 30, 205)
    assert r.size_res == 1131
    t_jknm = time.perf_counter() - t0
    assert t_jknm < 60

    t0 = time.perf_counter()
    for n, k in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        Pv, _ = polarize_ideal(gen_variable_powers(n, k))
        assert len(alexander_dual_ideal(Pv).gens) == k ** n
    t_law = time.perf_counter() - t0
    assert t_law < 60

    # rows beyond desk scale must degrade to a recorded status, not a crash
    capped = [run_cell("power", {"n": 10, "k": 10}, timeout_s=2.0, mem_mb=256),
              run_cell("varpowers", {"n": 10, "k": 8},
                       timeout_s=2.0, mem_mb=256)]
    assert all(r.status in ("timeout", "oom") for r in capped)
    _report(2, f"size tables match (power {t_power:.1f}s, jknm {t_jknm:.1f}s, "
               f"k^n law {t_law:.1f}s; capped rows "
               f"{[r.status for r in capped]})")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_betti_numbers():
    t0 = time.perf_counter()
    assert total_betti(gen_variable_powers(6, 4)) == \
        [comb(6, i + 1) for i in range(6)]
    t_small = time.perf_counter() - t0
    assert t_small < 30

    t0 = time.perf_counter()
    T = graded_betti(gen_variable_powers(10, 4))
    assert T.totals() == [comb(10, i + 1) for i in range(10)]
    t_big = time.perf_counter() - t0
    assert t_big < 600

    Q = T.to_quotient()
    want = {(0, 0): 1}
    want.update({(c, 4 * c): comb(10, c) for c in range(1, 11)})
    assert Q.by_degree() == want

    lines = Q.diagram().splitlines()
    assert lines[0].split() == [str(c) for c in range(11)]
    assert lines[1].split() == ["total:"] + \
        [str(comb(10, c)) for c in range(11)]
    seen_rows = []
    for line in lines[2:]:
        toks = line.split()
        r = int(toks[0][:-1])
        seen_rows.append(r)
        assert len(toks) == 12
        for c, v in enumerate(toks[1:]):
            assert v == (str(comb(10, c)) if r == 3 * c else ".")
    assert seen_rows == list(range(31))
    _report(3, f"Betti totals and degree placement match "
               f"(n=6 {t_small:.2f}s, n=10 {t_big:.1f}s)")


# ---------------------------------------------------------------- criterion 4

def _rand_ideal(rng, max_n=4, max_gens=5, emax=3):
    n = rng.randint(1, max_n)
    gens = set()
    for _ in range(rng.randint(1, max_gens)):
        g = tuple(rng.randint(0, emax) for _ in range(n))
        if any(g):
            gens.add(g)
    if not gens:
        gens = {(1,) + (0,) * (n - 1)}
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(1, n + 1)]),
                                   sorted(gens))


def _rand_proper_complex(rng, max_n=7, max_facets=4):
    n = rng.randint(2, max_n)
    names = [f"v{i}" for i in range(n)]
    faces = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, n - 1)
        faces.append(tuple(names[i] for i in sorted(rng.sample(range(n),
                                                               size))))
    return SimplicialComplex.from_faces(names, faces)


def test_criterion_4_randomized_suites():
    runs = 200
    tally = {}

    rng = random.Random(911)
    for _ in range(runs):
        assert verify_polar_koszul_iso(_rand_ideal(rng))
    tally["iso"] = runs

    rng = random.Random(912)
    for _ in range(runs):
        I = _rand_ideal(rng, 3, 4, 2)
        assert pad_eq(reduced_homology_dims(koszul_complex(I)),
                      reduced_homology_dims(expanded_koszul(I)))
    tally["expansion"] = runs

    rng = random.Random(913)
    done = 0
    while done < runs:
        cx = _rand_proper_complex(rng, 6)
        apex = cx.facets[0]
        for f in cx.facets:
            apex &= f
        if apex:
            continue  # a common vertex never reaches the facet ideal
        dims = reduced_homology_dims(cx)
        I = facet_complement_ideal(cx)
        for partition in ("min", "singleton"):
            J = depolarize(I, partition).ideal
            assert pad_eq(dims, reduced_homology_dims(koszul_complex(J)))
        done += 1
    tally["reduction"] = runs

    rng = random.Random(914)
    for _ in range(runs):
        I = _rand_ideal(rng, 4, 5, 3)
        a = I.lcm_exponent()
        assert alexander_dual_ideal(alexander_dual_ideal(I, a), a) == I
    tally["involution"] = runs

    rng = random.Random(915)
    for _ in range(runs):
        I = _rand_ideal(rng, 3, 4, 3)
        P, M = polarize_ideal(I)
        assert repolarize_dual(alexander_dual_ideal(I), I.lcm_exponent(),
                               M) == alexander_dual_ideal(P)
    tally["repolarize"] = runs

    rng = random.Random(916)
    done = 0
    while done < runs:
        cx = _rand_proper_complex(rng, 10)
        if cx.is_full_simplex():
            continue
        dual, _ = dual_complex_via_depolarization(cx)
        assert dual.facets == alexander_dual_complex(cx).facets
        done += 1
    tally["pipeline"] = runs

    rng = random.Random(917)
    for _ in range(runs):
        I = _rand_ideal(rng, 5, 4, 1)
        n = I.n
        dims_K = reduced_homology_dims(koszul_complex(I, (1,) * n))
        dims_D = reduced_homology_dims(complex_of_squarefree_ideal(I))
        for i in range(n + 2):
            left = dims_K[i] if i < len(dims_K) else 0
            j = n - i - 1
            right = dims_D[j] if 0 <= j < len(dims_D) else 0
            assert left == right
    tally["duality"] = runs

    rng = random.Random(918)
    for _ in range(runs):
        I = _rand_ideal(rng, 3, 5, 2)
        entries = graded_betti(I).entries
        assert sum(v for (i, _), v in entries.items() if i == 0) == len(I.gens)
    tally["betti0"] = runs

    rng = random.Random(919)
    for _ in range(runs):
        nverts = rng.randint(1, 12)
        edges = []
        for _ in range(rng.randint(0, 5)):
            e = tuple(v for v in range(nverts) if rng.random() < 0.4)
            if e:
                edges.append(e)
        if not edges:  # the zero ideal, whose dual is refused
            continue
        I = MonomialIdeal.from_gens(Ring([f"v{i}" for i in range(nverts)]),
                                    oracles.edge_rows(edges, nverts))
        assert oracles.supports(alexander_dual_ideal(I).gens) == \
            oracles.transversals(edges, nverts)
    tally["transversals"] = runs

    assert set(tally) == {"iso", "expansion", "reduction", "involution",
                          "repolarize", "pipeline", "duality", "betti0",
                          "transversals"}
    _report(4, f"9 randomized suites x {runs} instances, zero failures")


# ---------------------------------------------------------------- criterion 5

def _best_times(fns, repeats):
    """Min time of each fn over repeats.  The calls alternate (f, g, f, g,
    ...), so a drift in the machine's speed reaches every side alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def test_criterion_5_dual_via_depolarization_wins():
    grid = [("jknm", {"n": n}) for n in (6, 7, 8)]
    grid += [("power", {"n": 5, "k": k}) for k in range(5, 11)]
    wins = 0
    for family, params in grid:
        if family == "jknm":
            J = gen_jknm(**params)
        else:
            J = gen_power_ideal(**params)
        P, _ = polarize_ideal(J)
        repeats = 3 if params["n"] == 8 else 5
        t_small, t_polar = _best_times(
            [lambda: alexander_dual_ideal(J), lambda: alexander_dual_ideal(P)],
            repeats)
        assert len(alexander_dual_ideal(J).gens) <= \
            len(alexander_dual_ideal(P).gens)
        if t_small < t_polar:
            wins += 1
    assert wins / len(grid) >= 0.9
    _report(5, f"compact dual faster in {wins}/{len(grid)} cells, "
               "never more generators")
