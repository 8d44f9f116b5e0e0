"""Alexander duals: folds, expansion through a depolarization, pipeline."""

import ast
import itertools
import pathlib

import numpy as np
import pytest

import oracles
from depolar.ideals import Ring, MonomialIdeal, InputError, ResourceLimit
from depolar.duality import (alexander_dual_ideal, repolarize_dual,
                             dual_complex_via_depolarization)
import depolar
from depolar import duality, hypergraph
from depolar.polarization import polarize_ideal
from depolar.depolarization import depolarize
from depolar.complexes import (SimplicialComplex, alexander_dual_complex,
                               facet_complement_complex,
                               facet_complement_ideal)


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
    P, D = polarize_ideal(J)
    direct = alexander_dual_ideal(P)
    assembled = repolarize_dual(alexander_dual_ideal(J), (4, 3, 3), D)
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
    P, D = polarize_ideal(J)
    R = Ring(["x", "y", "z"])
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(R, []), (4, 3, 3), D)
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(Ring(["x", "y"]), [(1, 1)]),
                        (4, 3), D)
    with pytest.raises(InputError):
        repolarize_dual(Jd, (5, 3, 3), D)
    with pytest.raises(InputError):
        repolarize_dual(MonomialIdeal.from_gens(R, [(5, 0, 0)]), (4, 3, 3), D)
    with pytest.raises(ResourceLimit):
        repolarize_dual(Jd, (4, 3, 3), D, cartesian_cap=2)
    with pytest.raises(InputError):
        repolarize_dual(Jd, (4, 3, 3), "frobnicate")


def test_repolarize_cap_bounds_one_support():
    # two generators on support {x, y}: each fiber has 12 elements, the
    # two together 24
    R = Ring(["x", "y"])
    _, D = polarize_ideal(MonomialIdeal.from_gens(R, [(4, 0), (0, 4)]))
    Jd = MonomialIdeal.from_gens(R, [(1, 2), (2, 1)])
    with pytest.raises(ResourceLimit,
                       match="fibers on one support have 24 elements, cap 20"):
        repolarize_dual(Jd, (4, 4), D, cartesian_cap=20)
    # the boxes 1..4 x 2..4 and 2..4 x 1..4 share 9 rows
    assert len(repolarize_dual(Jd, (4, 4), D, cartesian_cap=24).gens) == 15
    # three supports of 16, 4 and 4 rows: 24 in all, but each within 16
    R = Ring(["x", "y", "z"])
    _, D = polarize_ideal(MonomialIdeal.from_gens(
        R, [(4, 0, 0), (0, 4, 0), (0, 0, 4)]))
    Jd = MonomialIdeal.from_gens(R, [(1, 1, 0), (0, 0, 1), (2, 0, 3)])
    got = repolarize_dual(Jd, (4, 4, 4), D, cartesian_cap=16)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jd.gens, (4, 4, 4), D.chains)
    with pytest.raises(ResourceLimit,
                       match="fibers on one support have 16 elements, cap 15"):
        repolarize_dual(Jd, (4, 4, 4), D, cartesian_cap=15)
    # a fiber of 256^8 = 2^64 elements, which int64 arithmetic wraps to 0
    R = Ring([f"x{i}" for i in range(8)])
    _, D = polarize_ideal(MonomialIdeal.from_gens(
        R, [tuple(256 * (j == i) for j in range(8)) for i in range(8)]))
    with pytest.raises(ResourceLimit):
        repolarize_dual(MonomialIdeal.from_gens(R, [(1,) * 8]), (256,) * 8,
                        D)


def test_repolarize_dual_past_64_slots(rng):
    # one slot per level 1..mu_i of each variable in a support: the full
    # support holds 66-90 slots, so its masks take two words, and the
    # generators on smaller supports are tested across the word boundary
    for _ in range(20):
        mu = tuple(rng.randint(22, 30) for _ in range(3))
        R = Ring(["x", "y", "z"])
        _, D = polarize_ideal(MonomialIdeal.from_gens(
            R, [tuple(m if j == i else 0 for j, m in enumerate(mu))
                for i in range(3)]))
        supports = [(0, 1, 2)] * 2 + [rng.sample(range(3), rng.randint(1, 2))
                                      for _ in range(3)]
        Jdual = MonomialIdeal.from_gens(R, [
            tuple(rng.randint(mu[i] - 2, mu[i]) if i in supp else 0
                  for i in range(3)) for supp in supports])
        got = repolarize_dual(Jdual, mu, D)
        assert sorted((frozenset(i for i, e in enumerate(g) if e)
                       for g in got.gens), key=oracles.set_key) \
            == oracles.repolarized_dual(Jdual.gens, mu, D.chains)


def fiber_rows(Jdual, mu):
    """Summed fiber size of the generators of Jdual under mu."""
    G = np.array(Jdual.gens)
    boxes = np.where(G > 0, np.array(mu) + 1 - G, 1)
    return sum(int(np.prod(b)) for b in boxes)


def test_repolarize_dual_beside_a_fiber_past_one_pass():
    # rows go through in passes of 2^14; a support whose fiber is larger
    # is a pass of its own, beside the batch of the small supports
    R = Ring(["x", "y", "z", "w"])
    mu = (50, 50, 3, 3)
    _, D = polarize_ideal(MonomialIdeal.from_gens(
        R, [tuple(m if j == i else 0 for j, m in enumerate(mu))
            for i in range(4)]))
    # on {x, y}, 45 generators whose boxes overlap: 21,390 rows, 1,260
    # of them distinct; {x} lies inside {x, y} and {w} inside {z, w}, and
    # {y, z} meets both without lying inside either
    stairs = [(k, 51 - k, 0, 0) for k in range(1, 46)]
    small = [(46, 0, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 3),
             (0, 48, 3, 0)]
    Jdual = MonomialIdeal.from_gens(R, stairs + small)
    assert len(Jdual.gens) == 50
    got = repolarize_dual(Jdual, mu, D)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jdual.gens, mu, D.chains)
    # {x, y, z} holds 3 * 25 * 26^2 rows, 17,575 of them distinct, so the
    # survivors of the inner supports {z} and {x, y} are found in two
    # passes; checked against the dual of the polarization
    mu = (26, 26, 26, 2)
    Jdual = MonomialIdeal.from_gens(R, [
        (1, 1, 2, 0), (1, 2, 1, 0), (2, 1, 1, 0), (0, 0, 25, 0),
        (20, 20, 0, 0), (0, 0, 24, 1), (0, 0, 0, 2)])
    J = alexander_dual_ideal(Jdual, mu)
    P, D = polarize_ideal(J)
    assert J.lcm_exponent() == mu
    got = repolarize_dual(Jdual, mu, D)
    assert got == alexander_dual_ideal(P)
    # on {x, y, z}, 17,575 less the 26^2 * 2 rows with z >= 25 and the
    # 7^2 * 24 others with x, y >= 20; 2, 49, 1 and 1 rows on {z}, {x, y},
    # {z, w} and {w}
    assert len(got.gens) == 17575 - 26 ** 2 * 2 - 7 ** 2 * 24 + 53


def test_repolarize_dual_across_batches(rng):
    # random duals of 50-120 generators on 20-50 supports whose fibers add
    # up past one pass, so nested supports fall into different batches
    seen = 0
    while seen < 4:
        n = rng.randint(5, 6)
        J = random_ideal(rng, n, rng.randint(14, 24), rng.randint(6, 8))
        P, D = polarize_ideal(J)
        Jdual = alexander_dual_ideal(J)
        if fiber_rows(Jdual, J.lcm_exponent()) < 2 ** 14:
            continue
        seen += 1
        assert repolarize_dual(Jdual, J.lcm_exponent(), D) == \
            alexander_dual_ideal(P)
    # {x, y} is written from its grid, a batch on its own: 25 generators
    # (k, 26 - k) whose boxes sum past _ROWS_OFF rows, on 25 x 25 cells.
    # {x} and {y} lie inside it in the batch before; {x, y, z} holds it in
    # the batch after, beside {z} and {x, z}
    R = Ring(["x", "y", "z"])
    mu = (30, 30, 3)
    _, D = polarize_ideal(MonomialIdeal.from_gens(
        R, [tuple(m if j == i else 0 for j, m in enumerate(mu))
            for i in range(3)]))
    stairs = [(k, 26 - k, 0) for k in range(1, 26)]
    assert 25 ** 2 <= duality._CELLS_PER_ROW * (fiber_rows(
        MonomialIdeal.from_gens(R, stairs), mu) - duality._ROWS_OFF)
    Jdual = MonomialIdeal.from_gens(R, stairs + [
        (28, 0, 0), (0, 29, 0), (0, 0, 3), (20, 0, 2), (3, 3, 1)])
    got = repolarize_dual(Jdual, mu, D)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jdual.gens, mu, D.chains)


def test_ideals_from_words_equal_ideals_from_tuples(rng):
    # facet_complement_ideal and repolarize_dual build their results from
    # words; each must be the ideal from_gens builds of the oracle's rows
    def agree(got, sets):
        n = got.n
        want = MonomialIdeal.from_gens(
            got.ring, [tuple(int(i in s) for i in range(n)) for s in sets])
        assert got.words is not None
        assert got.is_squarefree() and not got.is_zero
        assert got.lcm_exponent() == want.lcm_exponent()
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert got == want and want == got
        # the oracle's sets are an antichain, so the rows are one too
        assert got.gens == want.gens and len(got.gens) == len(sets)
        assert all(a < b for a, b in zip(got.gens, got.gens[1:]))

    for n in (3, 5, 8, 63, 64, 65, 130):
        for _ in range(6):
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 5))]
            cx = SimplicialComplex.normalize([f"v{i}" for i in range(n)],
                                             masks)
            if cx.kind != "proper" or cx.is_full_simplex():
                continue
            agree(facet_complement_ideal(cx),
                  [{i for i in range(n) if not f >> i & 1} for f in cx.facets])
    for _ in range(20):
        # polarized rings of up to 90 variables, two words past 64
        n = rng.randint(1, 3)
        emax = rng.choice((2, 4, 30))
        J = random_ideal(rng, n, rng.randint(1, 3), emax)
        for D in (polarize_ideal(J)[1], depolarize(J)):
            Jdual = alexander_dual_ideal(D.ideal)
            mu = D.ideal.lcm_exponent()
            agree(repolarize_dual(Jdual, mu, D),
                  oracles.repolarized_dual(Jdual.gens, mu, D.chains))


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
    assert uses == [("hypergraph.py", "_fold")]


def definitions_and_uses(defined_names, gone_names):
    """Walk src/depolar/*.py: (module, name) for each function or class
    definition of defined_names, and the modules using a gone_names name."""
    defined, gone = [], []
    for path in sorted(pathlib.Path(hypergraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in defined_names:
                defined.append((path.name, node.name))
            names = [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name.rpartition(".")[2] for alias in node.names]
            if set(gone_names) & set(names):
                gone.append(path.name)
    return sorted(defined), gone


def test_divisibility_has_one_kernel():
    # divisibility is containment of slot words, tested in hypergraph only;
    # the int-row kernel that ideals once kept must not come back
    defined, gone = definitions_and_uses(
        ("_contains", "_subsets", "minimal_columns"),
        ("divisible_by_any", "minimal_rows"))
    assert defined == [("hypergraph.py", "_contains"),
                       ("hypergraph.py", "_subsets"),
                       ("hypergraph.py", "minimal_columns")]
    assert gone == []


def bit_loops(tree):
    """Lines of a tree that pack or unpack bits by hand: a shift whose
    amount reads a loop variable, or a byte-packing call."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            targets = [g.target for g in node.generators]
        else:
            if getattr(node, "attr", getattr(node, "id", None)) in (
                    "packbits", "unpackbits", "frombuffer", "from_bytes",
                    "to_bytes"):
                found.add(node.lineno)
            continue
        bound = {n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) \
                    and isinstance(sub.op, (ast.LShift, ast.RShift)) \
                    and bound & {n.id for n in ast.walk(sub.right)
                                 if isinstance(n, ast.Name)}:
                found.add(sub.lineno)
    return sorted(found)


def test_squarefree_rows_have_one_encoder():
    # squarefree rows pass between the round-trip steps, the complexes and
    # the Betti sweep as words, and only the hypergraph helpers pack rows
    # into words or unpack them: no other module builds a mask bit by bit,
    # and the int-mask helpers and the sweep's byte keys stay gone
    helpers = ("from_words", "rows_to_words", "to_words", "words_to_rows")
    defined, gone = definitions_and_uses(
        helpers, ("minimal_masks", "maximal_masks", "_compact_koszul"))
    assert defined == [("hypergraph.py", name) for name in helpers]
    assert gone == []
    src = pathlib.Path(hypergraph.__file__).parent
    for module in ("complexes.py", "depolarization.py", "duality.py",
                   "homology.py", "ideals.py", "polarization.py"):
        assert bit_loops(ast.parse((src / module).read_text())) == [], module


def test_bit_loops_are_found():
    source = """
gens = [tuple((m >> i) & 1 for i in range(n)) for m in masks]
for name in face:
    m |= 1 << index[name]
rows = np.unpackbits(packed)
full = (1 << n) - 1
rows = np.frombuffer(bytes(flat), dtype=np.uint8)
"""
    assert bit_loops(ast.parse(source)) == [2, 4, 5, 7]


def tuple_traffic(tree):
    """(line, kind) of each call in a tree that moves generators between
    arrays and tuples: kind "tuples" for tuple(map(tuple, ...)), "gens"
    for an array built from some ideal's gens."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func, arg = node.func, node.args[0]
        if getattr(func, "id", None) == "tuple" \
                and isinstance(arg, ast.Call) and arg.args \
                and getattr(arg.func, "id", None) == "map" \
                and getattr(arg.args[0], "id", None) == "tuple":
            found.append((node.lineno, "tuples"))
        if getattr(func, "attr", None) in ("array", "asarray") and any(
                getattr(sub, "attr", None) == "gens" for sub in ast.walk(arg)):
            found.append((node.lineno, "gens"))
    return sorted(found)


def test_ideals_hold_one_array():
    # an ideal holds words or int rows, and only ideals.py decodes them
    # into the tuples of gens: no other module builds generator tuples, no
    # module reads gens back into an array, and the tuple-taking builder
    # and the per-tuple squarefree test stay gone
    src = pathlib.Path(hypergraph.__file__).parent
    for path in sorted(src.glob("*.py")):
        found = tuple_traffic(ast.parse(path.read_text()))
        kinds = {kind for _, kind in found}
        assert kinds <= ({"tuples"} if path.name == "ideals.py" else set()), \
            (path.name, kinds)
    assert not hasattr(MonomialIdeal, "_trusted")
    assert definitions_and_uses((), ("is_squarefree_exponent",)) == ([], [])


def test_tuple_traffic_is_found():
    source = """
gens = tuple(map(tuple, rows.tolist()))
G = np.array(I.gens, dtype=np.int64)
A = np.asarray(list(D.ideal.gens))
rows = np.array(gens, dtype=np.int64)
pairs = tuple(map(list, rows))
"""
    assert tuple_traffic(ast.parse(source)) == \
        [(2, "tuples"), (3, "gens"), (4, "gens")]


def test_polarization_has_one_chain_map():
    # polarize_ideal and depolarize share one map type, one check of the
    # chains and one check that they fit an lcm, and polarized monomials
    # are built by prefix_words alone; the per-direction map, its
    # dispatcher, the by-hand helpers, the 0/1-row polarizer and the
    # second chain type stay gone
    defined, gone = definitions_and_uses(
        ("Depolarization", "_chain_tuples", "misfit"),
        ("PolarVariableMap", "_blocks_of", "polarize_index", "a_minus",
         "ChainPartition", "_polarize_rows"))
    assert defined == [("polarization.py", "Depolarization"),
                       ("polarization.py", "_chain_tuples"),
                       ("polarization.py", "misfit")]
    assert gone == []
    assert "ChainPartition" not in depolar.__all__


def test_no_api_only_tests_read():
    # the text monomial parser, the Betti JSON reader, the ring-less copy
    # of from_gens and the helpers only they read stay gone
    assert definitions_and_uses((), ("parse_monomial", "minimalize",
                                     "total_degree", "DEFAULT_PRIME")) \
        == ([], [])
    assert not hasattr(depolar.BettiTable, "from_dict")
    assert not hasattr(Ring, "index")
    assert not {"parse_monomial", "minimalize"} & set(depolar.__all__)


def word_widths(tree):
    """Lines of a tree that divide by 64 with //, the words-per-bitset
    rule written out by hand."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.FloorDiv)
                  and getattr(node.right, "value", None) == 64)


def test_word_width_has_one_home():
    # hypergraph.width is the one rule for words per bitset
    src = pathlib.Path(hypergraph.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "hypergraph.py":
            assert word_widths(ast.parse(path.read_text())) == [], path.name
    assert word_widths(ast.parse(
        "W = max(1, -(-n // 64))\nw = s // 8\nx = n / 64\n")) == [1]


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
    # J's levels: 3 of x, 2 of y and 2 of z, so 4 * 3 * 3 cells
    assert (report["dual_kernel"], report["grid_cells"]) == ("grid", 36)
    assert set(report["ms_per_step"]) == {
        "facet_ideal", "depolarize", "dual", "repolarize", "complements"}
    assert all(t >= 0 for t in report["ms_per_step"].values())


def test_pipeline_plans_the_dual_once(monkeypatch):
    # the report's kernel and cells come from the one plan the dual runs
    # on, and the round trip still calls alexander_dual_ideal and
    # repolarize_dual by their names in depolar.duality, where a tracer
    # may wrap them
    calls = dict.fromkeys(("plan", "dual", "repolarize"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    plan = counted("plan", hypergraph._dual_plan)
    monkeypatch.setattr(hypergraph, "_dual_plan", plan)
    monkeypatch.setattr(duality, "_dual_plan", plan)
    for key, name in (("dual", "alexander_dual_ideal"),
                      ("repolarize", "repolarize_dual")):
        monkeypatch.setattr(duality, name,
                            counted(key, getattr(duality, name)))
    dual, report = dual_complex_via_depolarization(example_complex())
    assert calls == {"plan": 1, "dual": 1, "repolarize": 1}
    assert (report["dual_kernel"], report["grid_cells"]) == ("grid", 36)
    assert report["fiber_elements"] == 54
    monkeypatch.undo()
    assert dual.facets == alexander_dual_complex(example_complex()).facets


def test_pipeline_reports_the_fold():
    # the edge ideal of a 16-cycle depolarizes to itself: 16 generators on
    # 16 variables of one level each, 2^16 cells, too many for the grid
    n = 16
    R = Ring([f"v{i}" for i in range(n)])
    I = MonomialIdeal.from_gens(R, [tuple(int(j in (i, (i + 1) % n))
                                          for j in range(n))
                                    for i in range(n)])
    cx = facet_complement_complex(I)
    dual, report = dual_complex_via_depolarization(cx)
    assert (report["dual_kernel"], report["grid_cells"]) == ("fold", 2 ** n)
    assert report["gens_J"] == n
    assert dual.facets == alexander_dual_complex(cx).facets


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
