import ast
import inspect
import sys
import time
import tracemalloc
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import oracles
from depolar import (Depolarization, InputError, MonomialIdeal, Ring,
                     SupportPoset, depolarize, min_chain_partition,
                     polarize_ideal, singleton_partition,
                     validate_depolarization)
from depolar import depolarization
from depolar.duality import alexander_dual_ideal, repolarize_dual
from depolar.families import gen_power_ideal
from depolar.hypergraph import columns_to_words, rows_to_words

# the running 10-variable example: P(<x^3 y, y z^3, x^2 y^3 z^2 t, z^3 t>)
# transported to plain variables x1..x10
EX_GENS = [
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 1, 1, 0),
    (1, 1, 0, 1, 1, 1, 1, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
]


def ex_ideal():
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(1, 11)]),
                                   EX_GENS)


def test_support_sets_golden():
    C = oracles.support_sets(ex_ideal())
    as1 = {i + 1: sorted(v + 1 for v in C[i]) for i in C}
    assert as1 == {
        1: [1, 2, 4], 2: [1, 2, 4], 3: [1, 2, 3, 4], 4: [4],
        5: [1, 2, 4, 5, 6, 7, 8, 10], 6: [1, 2, 4, 5, 6, 7, 8, 10],
        7: [7, 8], 8: [7, 8], 9: [7, 8, 9], 10: [7, 8, 10]}


def test_support_sets_need_squarefree():
    with pytest.raises(InputError):
        oracles.support_sets(MonomialIdeal.from_gens(Ring(["x"]), [(2,)]))


def test_support_sets_skip_unused_variables():
    I = MonomialIdeal.from_gens(Ring(["x", "y", "z"]), [(1, 0, 1)])
    C = oracles.support_sets(I)
    assert sorted(C) == [0, 2]


def test_poset_order_and_hasse():
    poset = oracles.ordered_support_poset(ex_ideal())
    assert oracles.precedes(poset, 3, 0) and oracles.precedes(poset, 0, 1)
    assert not oracles.precedes(poset, 1, 0)
    assert not oracles.comparable(poset, 2, 8)
    edges1 = sorted((a + 1, b + 1) for a, b in oracles.hasse_edges(poset))
    assert edges1 == [(1, 2), (2, 3), (2, 5), (4, 1), (5, 6), (7, 8),
                      (8, 9), (8, 10), (10, 5)]
    assert oracles.is_chain(poset, (3, 0, 1, 2))
    assert not oracles.is_chain(poset, (0, 3))


def test_min_chain_partition_golden():
    poset = oracles.ordered_support_poset(ex_ideal())
    cp = min_chain_partition(poset)
    # width of this poset is 3 (max antichain {x3, x9, x10} up to ties)
    assert oracles.max_antichain(poset.elements,
                                 partial(oracles.precedes, poset)) == 3
    assert len(cp) == 3
    covered = sorted(i for c in cp for i in c)
    assert covered == list(range(10))
    for c in cp:
        assert oracles.is_chain(poset, c)
    again = min_chain_partition(oracles.ordered_support_poset(ex_ideal()))
    assert again == cp


def test_min_chain_partition_matches_width(rng):
    for _ in range(120):
        n = rng.randint(1, 6)
        gens = set()
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, (1 << n) - 1)
            gens.add(tuple((m >> i) & 1 for i in range(n)))
        I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]),
                                    sorted(gens))
        poset = oracles.ordered_support_poset(I)
        cp = min_chain_partition(poset)
        assert {i for c in cp for i in c} == set(poset.elements)
        for c in cp:
            assert oracles.is_chain(poset, c)
        width = oracles.max_antichain(poset.elements,
                                      partial(oracles.precedes, poset))
        assert len(cp) == width


def test_chain_partitions_brute_force():
    I = MonomialIdeal.from_gens(
        Ring(["a", "b", "c"]), [(1, 1, 0), (0, 1, 1)])
    poset = oracles.ordered_support_poset(I)
    parts = oracles.chain_partitions(poset)
    assert len(set(parts)) == len(parts)
    best = min(len(p) for p in parts)
    assert best == len(min_chain_partition(poset))
    canon = {frozenset(map(frozenset, p)) for p in parts}
    assert len(canon) == len(parts)
    # by hand: {b<a, c}, {b<c, a}, and all singletons
    assert canon == {
        frozenset({frozenset({1, 0}), frozenset({2})}),
        frozenset({frozenset({1, 2}), frozenset({0})}),
        frozenset({frozenset({0}), frozenset({1}), frozenset({2})}),
    }
    sing = frozenset(map(frozenset, singleton_partition(poset)))
    assert sing in canon


@pytest.mark.parametrize("block", [1, 6, 40, 1 << 22])
def test_successors_in_blocks(monkeypatch, block):
    # the successor lists do not depend on how the containment order is
    # blocked: blocks of one row, a few rows, and one block
    monkeypatch.setattr(depolarization, "_ORDER_PASS", block)
    rng = np.random.default_rng(block)
    cols = rng.random((12, 30)) < 0.5
    cols = cols[np.unique(cols, axis=0, return_index=True)[1]]
    cols[:3] = cols[3] | cols[:3]  # some rows strictly above row 3
    cols = cols[np.unique(cols, axis=0, return_index=True)[1]]
    want = [[b for b in range(len(cols))
             if (cols[b] <= cols[a]).all() and cols[b].sum() < cols[a].sum()]
            for a in range(len(cols))]
    inside = depolarization._inside(rows_to_words(cols))
    assert [np.flatnonzero(row).tolist() for row in inside] == want


@pytest.mark.parametrize("shape", [(1, 2), (0, 3)], ids="{0[0]}x{0[1]}".format)
def test_min_chain_partition_of_empty_posets(shape):
    # no variable lies in a generator: there is nothing to cover
    ring = Ring([f"x{i}" for i in range(shape[1])])
    poset = SupportPoset(ring, np.zeros(shape, dtype=bool))
    assert poset.elements == ()
    assert min_chain_partition(poset) == singleton_partition(poset) == ()


@st.composite
def wide_posets(draw):
    """Support posets on up to 80 generators and 80 variables, so that the
    packed columns and rows take one or two words.  Each column is a new
    random set of generators, a subset or a copy of an earlier column, or
    empty, so chains, equal columns and unused variables all occur."""
    N = draw(st.integers(0, 80))
    n = draw(st.integers(1, 80))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(("new", "subset", "copy", "empty")
                                    if cols else ("new", "empty")))
        mask = draw(st.integers(0, (1 << N) - 1))
        if kind in ("subset", "copy"):
            mask = cols[draw(st.integers(0, len(cols) - 1))] & (
                mask if kind == "subset" else -1)
        cols.append(mask if kind != "empty" else 0)
    incidence = np.array([[c >> r & 1 for c in cols] for r in range(N)],
                         dtype=bool).reshape(N, n)
    return SupportPoset(Ring([f"x{i}" for i in range(n)]), incidence)


@given(wide_posets())
# 71 generators and 140 variables in two chains of 70
@example(oracles.ordered_support_poset(
    polarize_ideal(gen_power_ideal(2, 70))[0]))
# 66 generators and 30 variables in three chains of 10
@example(oracles.ordered_support_poset(
    polarize_ideal(gen_power_ideal(3, 10))[0]))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_min_chain_partition_is_kuhn(poset):
    # the same chains, in the same order, as plain Kuhn matching on
    # explicit successor lists
    assert min_chain_partition(poset) == oracles.kuhn_chain_partition(poset)


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (8, 5), (63, 2), (64, 7),
                                   (65, 3), (200, 9)],
                         ids="{0[0]}x{0[1]}".format)
def test_columns_to_words_packs_each_column(shape):
    # the columns of the rows are the rows of their transpose
    rows = np.random.default_rng(shape[0]).random(shape) < 0.4
    want = (rows_to_words(rows.T) if shape[0]
            else np.zeros((1, shape[1]), dtype=np.uint64))
    assert np.array_equal(columns_to_words(rows), want)
    assert np.array_equal(columns_to_words(rows.view(np.uint8)), want)


def test_depolarize_golden_partitions():
    I = ex_ideal()
    p1 = [(3, 0, 1, 2), (6, 7, 9, 4, 5), (8,)]
    D1 = depolarize(I, p1)
    assert D1.ideal.ring.variables == ("x4", "x7", "x9")
    assert set(D1.ideal.gens) == {(4, 0, 0), (1, 2, 1), (3, 5, 0), (0, 3, 1)}

    p2 = [(3, 0, 1, 2), (9, 4, 5), (6, 7), (8,)]
    D2 = depolarize(I, p2)
    assert D2.ideal.ring.variables == ("x4", "x10", "x7", "x9")
    assert set(D2.ideal.gens) == {(4, 0, 0, 0), (1, 0, 2, 1),
                                  (3, 3, 2, 0), (0, 1, 2, 1)}
    for D in (D1, D2):
        assert validate_depolarization(I, D)


def test_depolarize_default_is_minimum():
    I = ex_ideal()
    D = depolarize(I)
    assert D.ideal.n == 3
    assert validate_depolarization(I, D)
    assert depolarize(I, "min").ideal == D.ideal
    S = depolarize(I, "singleton")
    assert S.ideal.n == 10
    assert set(S.ideal.gens) == set(I.gens)
    # any sequence of index sequences is a partition, a numpy array too
    assert depolarize(I, np.array(S.chains)).chains == S.chains


def test_depolarize_polarizes_first():
    J = MonomialIdeal.from_gens(
        Ring(["x", "y", "z", "t"]),
        [(3, 1, 0, 0), (0, 1, 3, 0), (2, 3, 2, 1), (0, 0, 3, 1)])
    D = depolarize(J)
    assert D.ideal.n == 3
    assert D.source_ring.n == 10
    P, _ = polarize_ideal(J)
    assert validate_depolarization(P, D)


def test_depolarize_rejects_bad_partitions():
    I = ex_ideal()
    poset = oracles.ordered_support_poset(I)
    bad = [([(0, 3)], "chains must cover exactly the support"),
           ([(3, 0, 1, 2), (6, 7, 9, 4, 5), (8,), ()], "empty chain"),
           ([(3, 0, 1, 2), (6, 7, 9, 4, 5, 1), (8,)], "chains overlap"),
           ([tuple(poset.elements)], r"not an ascending chain: \[0, 1,"),
           ([(3, 0, 1, 2), (6, 7, 9, 4, 5), (8, 10)],
            "a chain leaves the source ring"),
           ([(3, 0, 1, 2), (6, 7, 9, 4, 5), (8.0,)],
            "chains must list variable indices"),
           ("frobnicate", "bad partition 'frobnicate'")]
    for partition, message in bad:
        with pytest.raises(InputError, match=message):
            depolarize(I, partition)
    # the chains ascend and cover {x, y}, but they share a variable; one
    # that shares its first variable must not fail as a duplicate name
    xy = MonomialIdeal.from_gens(Ring(["x", "y"]), [(1, 1)])
    for chains in ([(0, 1), (1,)], [(0, 1), (0,)]):
        with pytest.raises(InputError, match="chains overlap"):
            depolarize(xy, chains)
    with pytest.raises(InputError):
        depolarize(MonomialIdeal(Ring(["x"]), ()))


def test_depolarize_checks_a_partition_once(monkeypatch):
    from depolar import polarization
    calls = []

    def counted(chains, n):
        calls.append(chains)
        return check(chains, n)
    check = polarization._chain_tuples
    monkeypatch.setattr(polarization, "_chain_tuples", counted)
    monkeypatch.setattr(depolarization, "_chain_tuples", counted)
    I = ex_ideal()
    chains = [(3, 0, 1, 2), (6, 7, 9, 4, 5), (8,)]
    assert depolarize(I, chains).chains == tuple(chains)
    assert len(calls) == 1
    # the minimum partition is built from the poset and needs no check
    assert depolarize(I).chains == min_chain_partition(
        oracles.ordered_support_poset(I))
    assert len(calls) == 1


def test_depolarization_checks_its_chains():
    # chains that overlap or leave the source ring fail when the map is
    # built, so validate_depolarization never indexes past I's ring; a
    # wrong chain count or a short chain is a map that does not validate
    J = MonomialIdeal.from_gens(Ring(["a", "b"]), [(2, 0), (0, 1)])
    I, D = polarize_ideal(J)  # chains (0, 1) and (2,) in x_1 x_2 y_1
    assert D.chains == ((0, 1), (2,))
    bad = [((0,), (5,)),        # leaves the source ring
           ((0, 1), (-1,)),     # so does a negative index
           ((0, 1), (1,)),      # chains overlap
           ((0, 1.0), (2,))]    # not an index
    for chains in bad:
        with pytest.raises(InputError):
            Depolarization(J, chains, I.ring)
    with pytest.raises(InputError):
        validate_depolarization(I, Depolarization(J, ((0,), (5,)), I.ring))
    with pytest.raises(InputError):
        Depolarization(J, D.chains, I.ring.variables)
    assert validate_depolarization(I, D)
    for chains in [((0, 1),),           # one chain short
                   ((0, 1), (2,), ()),  # one chain too many
                   ((0,), (1, 2))]:     # a is raised to 2, its chain has 1
        assert not validate_depolarization(
            I, Depolarization(J, chains, I.ring))
    # longer chains and empty ones are maps; the zero ideal needs no length
    wide = Ring(["x_1", "x_2", "x_3", "y_1", "z_1"])
    D = Depolarization(J, ((0, 1, 2), (3,)), wide)
    assert not validate_depolarization(
        MonomialIdeal.from_gens(wide, [(1, 1, 0, 0, 0), (0, 0, 0, 0, 1)]), D)
    zero = MonomialIdeal(Ring(["a", "b"]), ())
    assert Depolarization(zero, ((), ()), wide).chains == ((), ())
    # repolarize_dual needs one chain per variable, and mu within the chains
    _, D = polarize_ideal(J)
    Jd = alexander_dual_ideal(J)
    with pytest.raises(InputError, match="bijection arity mismatch: "
                                         "one chain per variable$"):
        repolarize_dual(Jd, (2, 1), Depolarization(J, D.chains[:1], I.ring))
    with pytest.raises(InputError, match="bijection arity mismatch: "
                                         "chain shorter than mu$"):
        repolarize_dual(Jd, (3, 1), D)
    assert repolarize_dual(Jd, (2, 1), D) == alexander_dual_ideal(I)


def test_non_prefix_chain_rejected():
    # {x y, y z}: supports overlap in y only; gluing x and z onto one
    # chain cannot meet both generators in a prefix
    I = MonomialIdeal.from_gens(Ring(["x", "y", "z"]),
                                [(1, 1, 0), (0, 1, 1)])
    poset = oracles.ordered_support_poset(I)
    got = set()
    for cp in oracles.chain_partitions(poset):
        try:
            D = depolarize(I, cp)
            assert validate_depolarization(I, D)
            got.add(D.ideal.gens)
        except InputError:
            pass
    assert got  # at least the singleton partition always works


def test_every_partition_roundtrips(rng):
    for _ in range(80):
        n = rng.randint(2, 5)
        gens = set()
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, (1 << n) - 1)
            gens.add(tuple((m >> i) & 1 for i in range(n)))
        I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]),
                                    sorted(gens))
        poset = oracles.ordered_support_poset(I)
        for cp in oracles.chain_partitions(poset):
            try:
                D = depolarize(I, cp)
            except InputError:
                continue
            assert validate_depolarization(I, D)
            assert len(D.ideal.gens) == len(I.gens)


def test_accepted_user_partitions_depolarize(rng):
    # depolarize trusts that an ascending chain meets every generator in a
    # prefix; a partition it accepts must therefore re-polarize to I
    accepted = longest = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        gens = {tuple(rng.randint(0, 1) for _ in range(n))
                for _ in range(rng.randint(1, 4))} - {(0,) * n}
        if not gens:
            continue
        I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), gens)
        order = list(oracles.ordered_support_poset(I).elements)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)),
                                 rng.randint(0, len(order) - 1)))
        chains = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
        try:
            D = depolarize(I, chains)
        except InputError:
            continue
        assert validate_depolarization(I, D)
        accepted += 1
        longest = max(longest, max(map(len, chains)))
    assert accepted > 100 and longest >= 3
    # polarizations on 63 to 130 variables, renamed by a random
    # permutation so that the chains run out of ring order: the check
    # compares words past the first.  It fails once copies j - 1 and j of
    # a chain are swapped where some generator has exponent j: that
    # generator then sets a set of copies that is no prefix.
    for total in (63, 64, 65, 128, 130):
        m = rng.randint(2, 5)
        a = [2] * m
        for _ in range(total - 2 * m):
            a[rng.randrange(m)] += 1
        gens = [tuple(k * (j == i) for j in range(m)) for i, k in enumerate(a)]
        gens += [(1, 1) + (0,) * (m - 2)]
        gens += [tuple(rng.randint(1, k) for k in a) for _ in range(6)]
        J = MonomialIdeal.from_gens(Ring([f"y{i}" for i in range(m)]), gens)
        P, D = polarize_ideal(J)
        assert P.n == total and J.lcm_exponent() == tuple(a)
        perm = list(range(total))
        rng.shuffle(perm)  # copy v of P is variable perm[v] of I
        back = np.argsort(perm)
        I = MonomialIdeal.from_gens(
            Ring([P.ring.variables[v] for v in back]),
            [tuple(g[v] for v in back) for g in P.gens])
        chains = [[perm[v] for v in c] for c in D.chains]
        assert any(c != sorted(c) for c in chains)
        assert validate_depolarization(I, Depolarization(J, chains, I.ring))
        # the swap latest in chain order
        j, c = max(((g[c], c) for g in J.gens for c in range(m)
                    if 0 < g[c] < a[c]), key=lambda jc: D.chains[jc[1]][jc[0]])
        chains[c][j - 1], chains[c][j] = chains[c][j], chains[c][j - 1]
        assert not validate_depolarization(
            I, Depolarization(J, chains, I.ring))


@st.composite
def polarized_ideals(draw):
    """Polarizations with at most 12 variables: their blocks give
    runs of equal incidence columns; emax = 1 draws squarefree ideals."""
    n = draw(st.integers(1, 6))
    emax = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, emax), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(row.filter(any), min_size=1, max_size=12))
    J = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), gens)
    assume(sum(J.lcm_exponent()) <= 12)
    return polarize_ideal(J)[0]


@given(polarized_ideals())
# 20 generators: columns that agree on the first 8 generators can still differ
@example(polarize_ideal(gen_power_ideal(4, 3))[0])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_min_chain_partition_of_polarizations(P):
    poset = oracles.ordered_support_poset(P)
    below = {(a, b): oracles.precedes(poset, a, b)
             for a in poset.elements for b in poset.elements}
    cp = min_chain_partition(poset)
    assert len(cp) == oracles.max_antichain(
        poset.elements, lambda a, b: below[a, b])
    assert sorted(i for c in cp for i in c) == list(poset.elements)
    for c in cp:
        assert oracles.is_chain(poset, c)
    assert min_chain_partition(oracles.ordered_support_poset(P)) == cp
    assert depolarize(P).chains == cp


@st.composite
def squarefree_ideals(draw):
    """Squarefree ideals on 1-10 variables, some of them in no generator,
    or, one case in two, polarizations, whose blocks do depolarize."""
    if draw(st.booleans()):
        return draw(polarized_ideals())
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(row.filter(any), min_size=1, max_size=8))
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), gens)


@given(squarefree_ideals(), st.sampled_from([1, 3, 1 << 22]))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_joins_variables_is_exact(I, block):
    # blocks of one row, a few rows, and one block
    with patch.object(depolarization, "_ORDER_PASS", block):
        joins = depolarization._joins_variables(I)
    assert joins == (len(depolarize(I).chains) < I.n)


def columns_in_chain_order(I, D):
    """The generators of I read at the first variable of each chain of D."""
    return tuple(sorted(tuple(g[c[0]] for c in D.chains) for g in I.gens))


# the edges of a 5-cycle: no variable's edges all hold another
FIVE_CYCLE = MonomialIdeal.from_gens(
    Ring([f"x{i}" for i in range(5)]),
    [tuple(int(j in (i, (i + 1) % 5)) for j in range(5)) for i in range(5)])


@given(squarefree_ideals())
@example(FIVE_CYCLE)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_one_variable_chains_keep_the_columns(I):
    # with every chain one variable there is nothing to sum: the result is
    # the columns of I in chain order
    D = depolarize(I, "singleton")
    assert D.ideal.gens == columns_in_chain_order(I, D)
    if not depolarization._joins_variables(I):
        D = depolarize(I)
        assert all(len(c) == 1 for c in D.chains)
        assert D.ideal.gens == columns_in_chain_order(I, D)
    if I is FIVE_CYCLE:
        assert not depolarization._joins_variables(I)
        assert D.chains == tuple((i,) for i in range(5))
        assert D.ideal.gens == I.gens


def test_long_chain_depolarizes_fast_without_recursion():
    # <x^10000, y>: the polarization has 10001 variables in two chains
    J = MonomialIdeal.from_gens(Ring(["x", "y"]), [(10000, 0), (0, 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        t0 = time.perf_counter()
        D = depolarize(J)
        elapsed = time.perf_counter() - t0
    finally:
        sys.setrecursionlimit(limit)
    assert len(D.chains) == 2
    assert D.ideal.gens == ((0, 1), (10000, 0))
    assert elapsed < 1.0


def test_wide_polarization_depolarizes_in_little_memory():
    # m^(2,1000): 2000 variables on 1001 generators, 16 words a column,
    # in two chains; the order of its 2000 groups is a 4 MB bool matrix
    P = polarize_ideal(gen_power_ideal(2, 1000))[0]
    tracemalloc.start()
    try:
        D = depolarize(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.ideal.gens == gen_power_ideal(2, 1000).gens
    assert len(D.chains) == 2
    assert peak < 24 * 2 ** 20


def test_no_function_in_depolarization_calls_itself():
    tree = ast.parse(inspect.getsource(depolarization))
    selfcalls = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name == fn.name:
                    selfcalls.append(fn.name)
    assert selfcalls == []
