"""Alexander duals: folds, expansion through a depolarization, pipeline."""

import ast
import itertools
import pathlib

import numpy as np
import pytest

import oracles
from depolar.ideals import Ring, MonomialIdeal, InputError, ResourceLimit
from depolar.duality import (a_minus, alexander_dual_ideal, repolarize_dual,
                             dual_complex_via_depolarization)
from depolar import hypergraph
from depolar.polarization import polarize_ideal
from depolar.depolarization import depolarize
from depolar.complexes import SimplicialComplex, alexander_dual_complex


def xyz_ideal():
    R = Ring(["x", "y", "z"])
    return MonomialIdeal.from_gens(R, [(4, 0, 0), (1, 0, 3), (3, 3, 2), (0, 1, 3)])


def random_ideal(rng, n, ngens, emax):
    R = Ring([f"x{i}" for i in range(n)])
    gens = set()
    while not gens:
        for _ in range(ngens):
            g = tuple(rng.randint(0, emax) for _ in range(n))
            if any(g):
                gens.add(g)
    return MonomialIdeal.from_gens(R, sorted(gens))


def test_a_minus():
    assert a_minus((4, 3, 3), (1, 0, 2)) == (4, 0, 2)
    assert a_minus((2, 2), (1, 2)) == (2, 1)
    assert a_minus((5, 0), (0, 0)) == (0, 0)
    with pytest.raises(InputError):
        a_minus((2, 2), (3, 0))
    with pytest.raises(InputError):
        a_minus((2, 2), (1,))


def test_dual_golden():
    J = xyz_ideal()
    D = alexander_dual_ideal(J)
    assert D.gens == ((1, 0, 2), (1, 1, 1), (2, 0, 1), (4, 3, 0))
    assert list(D.gens) == oracles.dual_ideal(list(J.gens))


def test_dual_explicit_bound():
    R = Ring(["x", "y"])
    I = MonomialIdeal.from_gens(R, [(1, 1), (2, 0)])
    D = alexander_dual_ideal(I, a=(3, 2))
    assert D.gens == ((2, 2), (3, 0))
    assert list(D.gens) == oracles.dual_ideal(list(I.gens), (3, 2))
    assert alexander_dual_ideal(D, a=(3, 2)) == I
    with pytest.raises(InputError):
        alexander_dual_ideal(I, a=(1, 2))
    with pytest.raises(InputError):
        alexander_dual_ideal(MonomialIdeal.from_gens(R, []))


def test_dual_matches_oracle(rng):
    for _ in range(200):
        I = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 5), 3)
        D = alexander_dual_ideal(I)
        assert list(D.gens) == oracles.dual_ideal(list(I.gens))
        a = I.lcm_exponent()
        assert alexander_dual_ideal(D, a=a) == I


def staircase(rng, steps, spread):
    """2-variable ideal with the given number of generators, every exponent
    distinct and nonzero, drawn from 1..steps + spread."""
    xs = sorted(rng.sample(range(1, steps + spread + 1), steps))
    ys = sorted(rng.sample(range(1, steps + spread + 1), steps), reverse=True)
    return MonomialIdeal.from_gens(Ring(["x", "y"]), list(zip(xs, ys)))


def level_slots(I):
    """Distinct nonzero exponents per variable, summed: the slots the fold
    gives the dual of I, 64 to a word."""
    return sum(len({g[i] for g in I.gens} - {0}) for i in range(I.n))


def test_dual_matches_oracle_across_words(rng):
    words = set()
    cases = [staircase(rng, steps, rng.randint(0, 12))
             for steps in (31, 32, 33, 40, 63, 64, 65, 70)]
    # few generators with large exponents: sum(mu) past 64 and 128
    for _ in range(12):
        n = rng.randint(2, 3)
        top = 70 if n == 2 else 48
        cases.append(random_ideal(rng, n, rng.randint(1, 4), top))
    sums = set()
    for I in cases:
        words.add(-(-level_slots(I) // 64))
        sums.add(sum(I.lcm_exponent()) // 64)
        D = alexander_dual_ideal(I)
        assert list(D.gens) == oracles.dual_ideal(list(I.gens))
        assert alexander_dual_ideal(D, a=I.lcm_exponent()) == I
    assert words == {1, 2, 3}
    assert {0, 1, 2} <= sums
    I = cases[-1]
    a = tuple(e + rng.randint(0, 3) for e in I.lcm_exponent())
    assert list(alexander_dual_ideal(I, a=a).gens) == \
        oracles.dual_ideal(list(I.gens), a)


def test_dual_of_huge_exponents():
    R = Ring(["x", "y"])
    I = MonomialIdeal.from_gens(R, [(2 ** 31, 0), (5, 7)])
    D = alexander_dual_ideal(I)
    # <x> meets <x^(2^31 - 4), y> in <x y, x^(2^31 - 4)>
    assert D.gens == ((1, 1), (2 ** 31 - 4, 0))
    assert alexander_dual_ideal(D, a=I.lcm_exponent()) == I


def test_dispatch_width_edges():
    R1 = Ring(["x"])
    assert alexander_dual_ideal(MonomialIdeal.from_gens(R1, [(64,)])).gens == ((1,),)
    R2 = Ring(["x", "y"])
    # sum(a) = 64 and 65 once took different kernels; one fold gives both
    assert alexander_dual_ideal(
        MonomialIdeal.from_gens(R2, [(63, 1)])).gens == ((0, 1), (1, 0))
    assert alexander_dual_ideal(
        MonomialIdeal.from_gens(R2, [(64, 1)])).gens == ((0, 1), (1, 0))


def test_squarefree_wide_ring_path():
    # 70 squarefree variables, of which the generators use 4
    R = Ring([f"x{i}" for i in range(1, 71)])
    g = lambda *idx: tuple(1 if i in idx else 0 for i in range(70))
    I = MonomialIdeal.from_gens(R, [g(0, 1), g(2, 3)])
    D = alexander_dual_ideal(I)
    supports = sorted(tuple(i for i, e in enumerate(m) if e) for m in D.gens)
    assert supports == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_squarefree_dual_past_64_variables():
    # two disjoint supports over 70 variables: 70 slots, two words
    n = 70
    R = Ring([f"x{i}" for i in range(n)])
    halves = [tuple(int(i < 35) for i in range(n)),
              tuple(int(i >= 35) for i in range(n))]
    D = alexander_dual_ideal(MonomialIdeal.from_gens(R, halves))
    want = sorted(tuple(int(k in (i, j)) for k in range(n))
                  for i in range(35) for j in range(35, n))
    assert list(D.gens) == want
    whole = MonomialIdeal.from_gens(R, [(1,) * n])
    assert alexander_dual_ideal(whole).gens == tuple(
        sorted(tuple(int(k == i) for k in range(n)) for i in range(n)))


def test_popcount_fallback_gives_the_same_duals(monkeypatch):
    # numpy < 2.0 has no bitwise_count; the fallback counts the same bits
    # in the same uint8, so the int64 block counts still add in place
    words = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 0x0123456789ABCDEF],
                     dtype=np.uint64)
    got = hypergraph._popcount_swar(words)
    assert got.dtype == np.uint8
    assert got.tolist() == [bin(w).count("1") for w in words.tolist()]
    n = 70
    R = Ring([f"x{i}" for i in range(n)])
    halves = MonomialIdeal.from_gens(R, [tuple(int(i < 35) for i in range(n)),
                                         tuple(int(i >= 35) for i in range(n))])
    cases = [xyz_ideal(), halves]
    want = [alexander_dual_ideal(I) for I in cases]
    monkeypatch.setattr(hypergraph, "_popcount", hypergraph._popcount_swar)
    assert [alexander_dual_ideal(I) for I in cases] == want


def test_dual_respects_cap():
    I = random_ideal(__import__("random").Random(7), 6, 8, 1)
    with pytest.raises(ResourceLimit):
        alexander_dual_ideal(I, cap=1)


def test_expansion_set_golden():
    mu = (4, 3, 3)
    sizes = {nu: len(oracles.expansion_set(nu, mu))
             for nu in [(1, 0, 2), (1, 1, 1), (2, 0, 1), (4, 3, 0)]}
    assert sizes == {(1, 0, 2): 8, (1, 1, 1): 36, (2, 0, 1): 9, (4, 3, 0): 1}
    for vec in oracles.expansion_set((1, 0, 2), mu):
        assert len(vec) == 10
        assert set(vec) <= {0, 1}
        assert sum(vec) == 2


def test_repolarize_dual_golden():
    J = xyz_ideal()
    P, pmap = polarize_ideal(J)
    direct = alexander_dual_ideal(P)
    assembled = repolarize_dual(alexander_dual_ideal(J), (4, 3, 3), pmap)
    assert assembled == direct
    names = {tuple(sorted(P.ring.variables[i] for i, e in enumerate(m) if e))
             for m in direct.gens}
    expect = {("x_1", "y_1")}
    expect |= {(f"x_{i}", "z_1") for i in range(1, 5)}
    expect |= {(f"x_{i}", "z_2") for i in range(1, 5)}
    expect |= {(f"x_{i}", "z_3") for i in range(1, 4)}
    expect |= {("x_4", f"y_{j}", "z_3") for j in range(1, 4)}
    assert names == expect
    assert len(direct.gens) == 15
    # same assembly through a depolarization of the polarized ring
    D = depolarize(J)
    again = repolarize_dual(alexander_dual_ideal(D.ideal),
                            D.ideal.lcm_exponent(), D)
    assert again == direct


def test_repolarize_dual_errors():
    J = xyz_ideal()
    Jd = alexander_dual_ideal(J)
    P, pmap = polarize_ideal(J)
    R = Ring(["x", "y", "z"])
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(R, []), (4, 3, 3), pmap)
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(Ring(["x", "y"]), [(1, 1)]),
                        (4, 3), pmap)
    with pytest.raises(InputError):
        repolarize_dual(Jd, (5, 3, 3), pmap)
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(R, [(5, 0, 0)]), (4, 3, 3), pmap)
    with pytest.raises(ResourceLimit):
        repolarize_dual(Jd, (4, 3, 3), pmap, cartesian_cap=2)
    with pytest.raises(InputError):
        repolarize_dual(Jd, (4, 3, 3), "frobnicate")


def test_repolarize_cap_bounds_one_support():
    # two generators on support {x, y}: each fiber has 12 elements, the
    # two together 24
    R = Ring(["x", "y"])
    _, pmap = polarize_ideal(MonomialIdeal.from_gens(R, [(4, 0), (0, 4)]))
    Jd = MonomialIdeal.from_gens(R, [(1, 2), (2, 1)])
    with pytest.raises(ResourceLimit):
        repolarize_dual(Jd, (4, 4), pmap, cartesian_cap=20)
    # the boxes 1..4 x 2..4 and 2..4 x 1..4 share 9 rows
    assert len(repolarize_dual(Jd, (4, 4), pmap, cartesian_cap=24).gens) == 15
    # a fiber of 256^8 = 2^64 elements, which int64 arithmetic wraps to 0
    R = Ring([f"x{i}" for i in range(8)])
    _, pmap = polarize_ideal(MonomialIdeal.from_gens(
        R, [tuple(256 * (j == i) for j in range(8)) for i in range(8)]))
    with pytest.raises(ResourceLimit):
        repolarize_dual(MonomialIdeal.from_gens(R, [(1,) * 8]), (256,) * 8,
                        pmap)


def test_repolarize_dual_past_64_slots(rng):
    # one slot per level 1..mu_i of each variable in a support: the full
    # support holds 66-90 slots, so its masks take two words, and the
    # generators on smaller supports are tested across the word boundary
    for _ in range(20):
        mu = tuple(rng.randint(22, 30) for _ in range(3))
        R = Ring(["x", "y", "z"])
        _, pmap = polarize_ideal(MonomialIdeal.from_gens(
            R, [tuple(m if j == i else 0 for j, m in enumerate(mu))
                for i in range(3)]))
        supports = [(0, 1, 2)] * 2 + [rng.sample(range(3), rng.randint(1, 2))
                                      for _ in range(3)]
        Jdual = MonomialIdeal.from_gens(R, [
            tuple(rng.randint(mu[i] - 2, mu[i]) if i in supp else 0
                  for i in range(3)) for supp in supports])
        got = repolarize_dual(Jdual, mu, pmap)
        assert sorted((frozenset(i for i, e in enumerate(g) if e)
                       for g in got.gens), key=oracles.set_key) \
            == oracles.repolarized_dual(Jdual.gens, mu, pmap.blocks)


def transversals(edges, nverts, cap=None):
    """Minimal transversals as the dual of the squarefree ideal of the edges."""
    ring = Ring([f"v{i}" for i in range(nverts)])
    I = MonomialIdeal.from_gens(ring, oracles.edge_rows(edges, nverts))
    return oracles.supports(alexander_dual_ideal(I, cap=cap).gens)


def test_minimal_transversals_matches_oracle(rng):
    for _ in range(150):
        nverts = rng.randint(1, 10)
        edges = []
        for _ in range(rng.randint(0, 5)):
            e = [v for v in range(nverts) if rng.random() < 0.4]
            if e:
                edges.append(tuple(e))
        if edges:  # no edges is the zero ideal, whose dual is refused
            assert transversals(edges, nverts) == \
                oracles.transversals(edges, nverts)


def test_transversals_across_word_boundaries():
    # the edge of all vertices changes no answer but uses every variable,
    # so slot v is vertex v and the fold runs on 3 or 4 words
    def got(edges, nverts):
        return sorted(tuple(sorted(t)) for t in
                      transversals(edges + [range(nverts)], nverts))

    # disjoint edges: the minimal transversals pick one vertex from each
    edges = [(0, 1), (62, 63, 64, 65), (126, 127, 128, 129), (190, 191)]
    for nverts in (192, 200):
        assert got(edges, nverts) == sorted(itertools.product(*edges))
    assert got([(63, 64), (64, 127, 128)], 129) == \
        [(63, 127), (63, 128), (64,)]
    assert got([(63,), (64,), (127, 128)], 129) == \
        [(63, 64, 127), (63, 64, 128)]


def test_minimal_transversals_edges():
    assert transversals([(0, 1), (2,)], 3) == \
        [frozenset({0, 2}), frozenset({1, 2})]
    # an empty edge is the unit ideal
    with pytest.raises(InputError):
        transversals([(0,), ()], 2)
    with pytest.raises(ResourceLimit):
        transversals([(2 * i, 2 * i + 1) for i in range(20)], 40, cap=10)


def test_berge_fold_has_one_caller():
    # a second user of the fold would be a second encoder of its input
    uses = []

    def walk(node, where, module):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if "berge_fold" in names:
            uses.append((module, where))
        for child in ast.iter_child_nodes(node):
            walk(child, where, module)

    for path in sorted(pathlib.Path(hypergraph.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), None, path.name)
    assert uses == [("hypergraph.py", "alexander_dual_ideal")]


def test_divisibility_has_one_kernel():
    # divisibility is containment of slot words, tested in hypergraph only;
    # the int-row kernel that ideals once kept must not come back
    defined, gone = [], []
    for path in sorted(pathlib.Path(hypergraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "_contains", "_subsets", "minimal_columns"):
                defined.append((path.name, node.name))
            names = [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name.rpartition(".")[2] for alias in node.names]
            if {"divisible_by_any", "minimal_rows"} & set(names):
                gone.append(path.name)
    assert sorted(defined) == [("hypergraph.py", "_contains"),
                               ("hypergraph.py", "_subsets"),
                               ("hypergraph.py", "minimal_columns")]
    assert gone == []


DUAL_FACETS_OF_EXAMPLE = [
    (1, 2, 3, 5, 6, 7, 8, 9), (1, 2, 3, 5, 6, 8, 9, 10),
    (2, 3, 4, 5, 6, 8, 9, 10), (1, 3, 4, 5, 6, 8, 9, 10),
    (1, 2, 4, 5, 6, 8, 9, 10), (1, 2, 3, 5, 6, 7, 9, 10),
    (2, 3, 4, 5, 6, 7, 9, 10), (1, 3, 4, 5, 6, 7, 9, 10),
    (1, 2, 4, 5, 6, 7, 9, 10), (1, 2, 3, 5, 6, 7, 8, 10),
    (2, 3, 4, 5, 6, 7, 8, 10), (1, 3, 4, 5, 6, 7, 8, 10),
    (1, 2, 4, 5, 6, 7, 8), (1, 2, 4, 6, 7, 8, 10), (1, 2, 4, 5, 7, 8, 10),
]


def example_complex():
    names = [f"v{i}" for i in range(1, 11)]
    return SimplicialComplex.from_faces(names, [
        ("v5", "v6", "v7", "v8", "v9", "v10"),
        ("v1", "v2", "v3", "v5", "v6", "v10"),
        ("v3", "v9"),
        ("v1", "v2", "v3", "v4", "v5", "v6"),
    ])


def test_pipeline_golden_complex():
    cx = example_complex()
    dual, report = dual_complex_via_depolarization(cx)
    got = {frozenset(dual.names_of(f)) for f in dual.facets}
    want = {frozenset(f"v{i}" for i in fs) for fs in DUAL_FACETS_OF_EXAMPLE}
    assert got == want
    assert dual.facets == alexander_dual_complex(cx).facets
    assert report["gens_J"] == 4
    assert report["gens_Jdual"] == 4
    assert report["gens_final"] == 15
    assert report["fiber_elements"] == 54
    assert set(report["ms_per_step"]) == {
        "facet_ideal", "depolarize", "dual", "repolarize", "complements"}
    assert all(t >= 0 for t in report["ms_per_step"].values())


def test_pipeline_partition_choice():
    cx = example_complex()
    base, _ = dual_complex_via_depolarization(cx)
    sing, rep = dual_complex_via_depolarization(cx, partition="singleton")
    assert sing.facets == base.facets
    assert rep["gens_J"] == 4


def test_pipeline_hollow_triangle():
    cx = SimplicialComplex.from_faces(
        ["v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
    dual, _ = dual_complex_via_depolarization(cx)
    assert dual.kind == "irrelevant"
    assert dual.facets == (0,)


def test_pipeline_matches_direct_dual(rng):
    done = 0
    while done < 80:
        nverts = rng.randint(2, 6)
        names = [f"v{i}" for i in range(nverts)]
        faces = []
        for _ in range(rng.randint(1, 4)):
            f = [v for v in names if rng.random() < 0.5]
            faces.append(tuple(f))
        cx = SimplicialComplex.from_faces(names, faces)
        if cx.kind != "proper" or cx.is_full_simplex():
            continue
        dual, _ = dual_complex_via_depolarization(cx)
        assert dual.facets == alexander_dual_complex(cx).facets
        done += 1


def test_pipeline_rejects_degenerate_inputs():
    names = ["a", "b"]
    with pytest.raises(InputError):
        dual_complex_via_depolarization(SimplicialComplex(names, ()))
    with pytest.raises(InputError):
        dual_complex_via_depolarization(
            SimplicialComplex.from_faces(names, [("a", "b")]))
    with pytest.raises(ResourceLimit):
        dual_complex_via_depolarization(example_complex(), cartesian_cap=2)
