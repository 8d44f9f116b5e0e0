"""Randomized invariant suites, deterministic via derandomized hypothesis."""

import itertools
from unittest import mock

from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import oracles
from depolar import polarization
from depolar.ideals import Ring, MonomialIdeal
from depolar.complexes import (SimplicialComplex, koszul_complex,
                               facet_complement_ideal, alexander_dual_complex,
                               complex_of_squarefree_ideal,
                               facet_complement_complex, stanley_reisner_ideal)
from depolar.polarization import (polarize_ideal, expanded_koszul,
                                  verify_polar_koszul_iso)
from depolar.depolarization import depolarize
from depolar.duality import (alexander_dual_ideal, repolarize_dual,
                             dual_complex_via_depolarization)
from depolar.homology import reduced_homology_dims, graded_betti

RUNS = settings(max_examples=220, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much,
                                       HealthCheck.data_too_large])


def pad_eq(a, b):
    top = max(len(a), len(b))
    return list(a) + [0] * (top - len(a)) == list(b) + [0] * (top - len(b))


def rows(n, emax):
    return st.lists(st.integers(0, emax), min_size=n, max_size=n) \
        .map(tuple).filter(any)


@st.composite
def ideals(draw, max_n=4, max_gens=5, emax=3):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(rows(n, emax), min_size=1, max_size=max_gens))
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(1, n + 1)]),
                                   gens)


@st.composite
def proper_complexes(draw, max_n=7, max_facets=4):
    n = draw(st.integers(2, max_n))
    names = [f"v{i}" for i in range(n)]
    faces = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1),
        min_size=1, max_size=max_facets))
    return SimplicialComplex.from_faces(
        names, [tuple(names[i] for i in sorted(f)) for f in faces])


@given(ideals())
@RUNS
def test_expanded_koszul_is_polar_koszul(I):
    assert verify_polar_koszul_iso(I)


@given(ideals(max_n=3, max_gens=4, emax=2))
@RUNS
def test_expansion_keeps_homology(I):
    assert pad_eq(reduced_homology_dims(koszul_complex(I)),
                  reduced_homology_dims(expanded_koszul(I)))


@given(proper_complexes(max_n=6))
@RUNS
def test_depolarized_complex_keeps_homology(cx):
    # a vertex shared by every facet never reaches the facet ideal, so the
    # reduction sees the base of the cone instead; such inputs are out of
    # scope (their homology vanishes anyway)
    apex = cx.facets[0]
    for f in cx.facets:
        apex &= f
    assume(apex == 0)
    dims = reduced_homology_dims(cx)
    I = facet_complement_ideal(cx)
    for partition in ("min", "singleton"):
        J = depolarize(I, partition).ideal
        assert pad_eq(dims, reduced_homology_dims(koszul_complex(J)))


@given(ideals(max_n=4, emax=3))
@RUNS
def test_dual_involution(I):
    a = I.lcm_exponent()
    assert alexander_dual_ideal(alexander_dual_ideal(I, a), a) == I


@given(ideals(max_n=3, max_gens=4, emax=3))
@RUNS
def test_repolarized_dual_equals_polar_dual(I):
    P, D = polarize_ideal(I)
    assembled = repolarize_dual(alexander_dual_ideal(I),
                                I.lcm_exponent(), D)
    assert assembled == alexander_dual_ideal(P)


def repolarize_case(rnd, nested):
    """(Jdual, mu, D) with generators bounded by mu.  Either two or more
    generators share one support, or (nested) some generator has its
    support strictly inside another's.  The Depolarization D comes from
    polarize_ideal or from depolarize of a squarefree ideal."""
    while True:
        polar = rnd.random() < 0.5
        n = rnd.randint(2, 4 if polar else 7)
        R = Ring([f"x{i}" for i in range(1, n + 1)])
        if polar:
            mu = tuple(rnd.randint(1, 3) for _ in range(n))
            _, D = polarize_ideal(MonomialIdeal.from_gens(
                R, [tuple(m if j == i else 0 for j, m in enumerate(mu))
                    for i in range(n)]))
        else:
            D = depolarize(MonomialIdeal.from_gens(R, [
                tuple(int(i == k or rnd.random() < 0.4) for i in range(n))
                for k in rnd.sample(range(n), rnd.randint(1, n))]))
            R, mu = D.ideal.ring, D.ideal.lcm_exponent()
        live = [i for i, m in enumerate(mu) if m]
        if len(live) < 2:
            continue
        S = rnd.sample(live, rnd.randint(2, len(live)))
        supports = [S] * rnd.randint(1 if nested else 2, 3)
        if nested:
            supports += [rnd.sample(S, rnd.randint(1, len(S) - 1))
                         for _ in range(rnd.randint(1, 2))]
        supports += [rnd.sample(live, rnd.randint(1, len(live)))
                     for _ in range(rnd.randint(0, 2))]
        Jdual = MonomialIdeal.from_gens(R, [
            tuple(rnd.randint(1, m) if i in supp else 0
                  for i, m in enumerate(mu)) for supp in supports])
        found = [frozenset(i for i, e in enumerate(g) if e)
                 for g in Jdual.gens]
        if (any(a < b for a in found for b in found) if nested
                else len(set(found)) < len(found)):
            return Jdual, mu, D


def check_repolarize_dual(case):
    Jdual, mu, D = case
    got = repolarize_dual(Jdual, mu, D)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jdual.gens, mu, D.chains)
    # the result is built unchecked: strictly lex sorted, an antichain
    assert all(a < b for a, b in zip(got.gens, got.gens[1:]))
    assert oracles.minimal_elements(got.gens) == list(got.gens)


@given(st.randoms(use_true_random=True))
@RUNS
def test_repolarize_dual_merges_one_support(rnd):
    check_repolarize_dual(repolarize_case(rnd, nested=False))


@given(st.randoms(use_true_random=True))
@RUNS
def test_repolarize_dual_drops_rows_of_inner_supports(rnd):
    check_repolarize_dual(repolarize_case(rnd, nested=True))


@st.composite
def round_trip_duals(draw):
    """(Jdual, mu, D) as the round trip builds them from a random ideal on
    5-6 variables: its polarization read back as a complex, then
    facet_complement_ideal, depolarize and the compact dual.  The duals
    hold many supports, unrelated and nested, most with one to three
    generators, as the random roundtrip benchmark inputs do."""
    n = draw(st.integers(5, 6))
    I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), draw(
        st.lists(rows(n, 4), min_size=4, max_size=12)))
    cx = facet_complement_complex(polarize_ideal(I)[0])
    assume(cx.kind == "proper")
    D = depolarize(facet_complement_ideal(cx))
    return alexander_dual_ideal(D.ideal), D.ideal.lcm_exponent(), D


@given(round_trip_duals())
@RUNS
def test_repolarize_dual_of_round_trip_duals(case):
    check_repolarize_dual(case)


@st.composite
def wide_complexes(draw):
    """A random complex on 2-8 core vertices placed anywhere among up to
    140, so its masks may span three words, with up to two cone vertices
    (in every facet) and the rest isolated."""
    n = draw(st.sampled_from([6, 12, 63, 64, 65, 70, 128, 140]))
    k = draw(st.integers(2, min(8, n)))
    spots = draw(st.permutations(range(n)))
    core, cone = spots[:k], spots[k:k + draw(st.integers(0, 2))]
    faces = draw(st.lists(st.sets(st.integers(0, k - 1), min_size=1,
                                  max_size=k - 1), min_size=1, max_size=4))
    apex = sum(1 << v for v in cone)
    return SimplicialComplex.normalize(
        [f"v{i}" for i in range(n)],
        [apex | sum(1 << core[i] for i in f) for f in faces])


def check_dual_pair(cx):
    """The round trip and the direct dual agree on cx, and dualizing the
    dual again, by the round trip where it applies, gives cx back."""
    dual, _ = dual_complex_via_depolarization(cx)
    assert dual == alexander_dual_complex(cx)
    if dual.kind == "proper" and not dual.is_full_simplex():
        assert dual_complex_via_depolarization(dual)[0] == cx
    assert alexander_dual_complex(dual) == cx


@given(proper_complexes(max_n=10))
@RUNS
def test_pipeline_equals_direct_dual(cx):
    if not cx.is_full_simplex():
        check_dual_pair(cx)


@given(wide_complexes())
@RUNS
def test_pipeline_dual_of_wide_coned_complexes(cx):
    check_dual_pair(cx)


def test_pipeline_dual_of_polarized_power_complexes():
    # the complement complexes of the polarizations of m^(3,22) and
    # m^(2,40): 66 and 80 vertices, two words
    for n, k in ((3, 22), (2, 40)):
        P, _ = polarize_ideal(MonomialIdeal.from_gens(
            Ring([f"x{i}" for i in range(n)]),
            [tuple(e) for e in itertools.product(range(k + 1), repeat=n)
             if sum(e) == k]))
        check_dual_pair(facet_complement_complex(P))


@given(ideals(max_n=5, max_gens=4, emax=1))
@RUNS
def test_combinatorial_alexander_duality(I):
    n = I.n
    dims_K = reduced_homology_dims(koszul_complex(I, (1,) * n))
    dims_D = reduced_homology_dims(complex_of_squarefree_ideal(I))
    for i in range(n + 2):
        left = dims_K[i] if i < len(dims_K) else 0
        j = n - i - 1
        right = dims_D[j] if 0 <= j < len(dims_D) else 0
        assert left == right


@given(ideals(max_n=3, max_gens=5, emax=2))
@RUNS
def test_betti_zero_counts_generators(I):
    entries = graded_betti(I).entries
    assert sum(v for (i, _), v in entries.items() if i == 0) == len(I.gens)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=5))))
@RUNS
def test_transversals_match_oracle(case):
    # at least one edge: no edges is the zero ideal, whose dual is refused
    nverts, edges = case
    I = MonomialIdeal.from_gens(Ring([f"v{i}" for i in range(nverts)]),
                                oracles.edge_rows(edges, nverts))
    assert oracles.supports(alexander_dual_ideal(I).gens) == \
        oracles.transversals(edges, nverts)


# vertices at the edges of the 64-bit words
BOUNDARY = (0, 1, 62, 63, 64, 65, 127, 128, 129)


@st.composite
def vertex_sets(draw):
    """(n, sets): 1-130 vertices and up to five sets on at most seven of
    them, placed anywhere and often at a word boundary.  No sets give the
    void complex, and only empty ones the irrelevant complex."""
    n = draw(st.integers(1, 130))
    spots = sorted(draw(st.sets(st.one_of(
        st.sampled_from([v for v in BOUNDARY if v < n]),
        st.integers(0, n - 1)), min_size=1, max_size=7)))
    return n, draw(st.lists(st.sets(st.sampled_from(spots)), max_size=5))


def mask(s):
    return sum(1 << v for v in s)


def check_against_constructor(cx, names, sets):
    """cx, built on words, is the constructor's complex of the int masks
    of the maximal sets: word reads first, then the decoded facets."""
    masks = sorted(map(mask, oracles.maximal_sets(sets)))
    ref = SimplicialComplex(names, masks)
    assert cx == ref and ref == cx and hash(cx) == hash(ref)
    # one facet fewer, or the irrelevant complex beside the void one
    assert cx != SimplicialComplex(names, masks[:-1] if masks else [0])
    assert cx.kind == ref.kind
    assert cx.dim == ref.dim == max(map(len, sets), default=-1) - 1
    used = set().union(*sets)
    assert cx.isolated_vertices() == ref.isolated_vertices() == [
        v for i, v in enumerate(names) if i not in used]
    assert cx.facets == ref.facets == tuple(masks)
    assert cx.to_dict() == ref.to_dict()


def dual_facet_sets(sets, n):
    """Facets of the Alexander dual of the nonvoid complex of sets on n
    vertices: the complements of its minimal non-faces, found among the
    subsets of the vertices the sets use and the single other vertices."""
    used = sorted(set().union(*sets))
    nonfaces = [frozenset(c) for r in range(len(used) + 1)
                for c in itertools.combinations(used, r)
                if not any(set(c) <= s for s in sets)]
    nonfaces += [frozenset({v}) for v in range(n) if v not in used]
    return [frozenset(range(n)) - s for s in oracles.minimal_sets(nonfaces)]


@given(vertex_sets())
@example((3, []))
@example((1, [set()]))
@example((130, [set()]))
@example((65, [{64}, {0, 63}]))
@RUNS
def test_complexes_on_words_agree_with_the_constructor(case):
    n, sets = case
    names = [f"v{i}" for i in range(n)]
    R = Ring(names)
    full = frozenset(range(n))
    built = [
        SimplicialComplex.normalize(names, [mask(s) for s in sets] * 2),
        SimplicialComplex.from_faces(names, [[names[v] for v in s]
                                             for s in sets]),
        # x^(2 - sigma) lies in the ideal exactly when sigma lies in a set
        koszul_complex(MonomialIdeal.from_gens(
            R, [tuple(2 - (i in s) for i in range(n)) for s in sets]),
            (2,) * n)]
    if full not in sets:
        # the facet complement ideal of the sets, built from tuples
        built.append(facet_complement_complex(MonomialIdeal.from_gens(
            R, [tuple(int(i not in s) for i in range(n))
                for s in oracles.maximal_sets(sets)])))
    for cx in built:
        check_against_constructor(cx, names, sets)
    cx = built[0]
    if cx.kind == "void":
        return
    dual_sets = dual_facet_sets(sets, n)
    check_against_constructor(alexander_dual_complex(cx), names, dual_sets)
    if cx.kind == "proper" and full not in sets:
        check_against_constructor(facet_complement_complex(
            facet_complement_ideal(cx)), names, sets)
        check_against_constructor(dual_complex_via_depolarization(cx)[0],
                                  names, dual_sets)


@given(vertex_sets())
@example((65, [{64}, {0, 63}]))
@RUNS
def test_squarefree_duals_on_words_match_the_oracle(case):
    # the minimal transversals of the sets, through the vertices they use
    n, sets = case
    edges = oracles.minimal_sets(s for s in sets if s)
    assume(edges)
    used = sorted(set().union(*edges))
    hitting = [frozenset(c) for r in range(len(used) + 1)
               for c in itertools.combinations(used, r)
               if all(set(c) & e for e in edges)]
    R = Ring([f"v{i}" for i in range(n)])
    got = alexander_dual_ideal(MonomialIdeal.from_gens(
        R, oracles.edge_rows(edges, n)))
    want = MonomialIdeal.from_gens(
        R, oracles.edge_rows(oracles.minimal_sets(hitting), n))
    assert got.words is not None
    assert got == want and want == got and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert got.gens == want.gens


@st.composite
def spread_rows(draw):
    """(n, rows): 1-130 variables and one to four nonzero exponent rows on
    at most four of them, often at a word boundary, with exponents up to
    1, 2 or 30."""
    n = draw(st.integers(1, 130))
    spots = sorted(draw(st.sets(st.one_of(
        st.sampled_from([v for v in BOUNDARY if v < n]),
        st.integers(0, n - 1)), min_size=1, max_size=4)))
    emax = draw(st.sampled_from([1, 2, 30]))
    picks = draw(st.lists(st.dictionaries(
        st.sampled_from(spots), st.integers(1, emax), min_size=1),
        min_size=1, max_size=4))
    return n, [tuple(p.get(i, 0) for i in range(n)) for p in picks]


def polar_rows(gens):
    """The polarization of gens: exponent e on x_i sets the first e of
    the max_i copies of x_i."""
    top = [max(col) for col in zip(*gens)]
    return [tuple(int(j < e) for e, m in zip(g, top) for j in range(m))
            for g in gens]


def collapsed_rows(gens, chains):
    """Exponent e_c = how many variables of chain c the 0/1 row has."""
    return [tuple(sum(g[v] for v in c) for c in chains) for g in gens]


def dual_rows(gens, a):
    """Minimal generators of the dual of gens with respect to a, as the
    intersection of the ideals <x_i^(a_i + 1 - g_i) : g_i > 0>, on the
    columns the generators use."""
    used = sorted({i for g in gens for i, e in enumerate(g) if e})
    out = [(0,) * len(used)]
    for g in gens:
        out = oracles.minimal_elements(
            c[:k] + (max(c[k], a[i] + 1 - g[i]),) + c[k + 1:]
            for c in out for k, i in enumerate(used) if g[i])
    return [tuple(dict(zip(used, c)).get(i, 0) for i in range(len(a)))
            for c in out]


def check_held(X, rows):
    """X holds words exactly when the oracle's rows are 0/1, and reads as
    the ideal from_gens builds of them."""
    want = MonomialIdeal.from_gens(X.ring, rows)
    gens = oracles.minimal_elements(rows)
    squarefree = all(e <= 1 for g in gens for e in g)
    assert (X.words is not None) == (want.words is not None) == squarefree
    assert (X.rows is None) == squarefree
    assert X.is_squarefree() == want.is_squarefree() == squarefree
    assert X.is_zero == want.is_zero == (not gens)
    if gens:
        assert X.lcm_exponent() == want.lcm_exponent() == \
            tuple(map(max, zip(*gens)))
        assert X.gcd_exponent() == want.gcd_exponent() == \
            tuple(map(min, zip(*gens)))
    assert X.gens == want.gens == tuple(gens)
    assert all(a < b for a, b in zip(X.gens, X.gens[1:]))
    assert X == want and want == X and hash(X) == hash(want)
    assert repr(X) == repr(want) and X.to_dict() == want.to_dict()


@given(spread_rows(), st.lists(st.integers(0, 2), min_size=130,
                               max_size=130))
@example((1, [(2,)]), [0] * 130)
@settings(RUNS, max_examples=80)
def test_every_builder_holds_words_exactly_when_squarefree(case, extra):
    n, raw = case
    R = Ring([f"x{i}" for i in range(n)])
    gens = oracles.minimal_elements(raw)
    I = MonomialIdeal.from_gens(R, raw)
    mu = I.lcm_exponent()
    a = tuple(m + e for m, e in zip(mu, extra))
    # the generators raised to a wherever they are nonzero: a dual of 0/1
    # rows even when a is not squarefree
    top = oracles.minimal_elements(
        tuple(x if e else 0 for x, e in zip(a, g)) for g in gens)
    P, D = polarize_ideal(I)
    prows = polar_rows(gens)
    built = [(MonomialIdeal(R, gens), gens), (I, gens),
             (MonomialIdeal.from_dict(I.to_dict()), gens), (P, prows),
             (alexander_dual_ideal(I), dual_rows(gens, mu)),
             (alexander_dual_ideal(I, a), dual_rows(gens, a)),
             (alexander_dual_ideal(MonomialIdeal.from_gens(R, top), a),
              dual_rows(top, a))]
    # depolarize takes a squarefree I as it is, and any other through P
    source = gens if I.is_squarefree() else prows
    J = depolarize(I)
    built.append((J.ideal, collapsed_rows(source, J.chains)))
    for J in (depolarize(P), depolarize(P, "singleton"),
              depolarize(P, [c for c in D.chains if c])):
        built.append((J.ideal, collapsed_rows(prows, J.chains)))
    if len(gens) > 1:
        with mock.patch.object(polarization, "polarize_ideal",
                               wraps=polarization.polarize_ideal) as spy:
            expanded_koszul(I)
        gcd = I.gcd_exponent()
        built.append((spy.call_args.args[0],
                      [tuple(x - y for x, y in zip(g, gcd)) for g in gens]))
    cx = facet_complement_complex(P)
    if cx.kind == "proper":
        built.append((facet_complement_ideal(cx), prows))
    if P.n <= 10:
        # the duals of P by brute force over its 2^n squarefree monomials
        pdual = oracles.dual_ideal(prows, (1,) * P.n)
        built.append((repolarize_dual(alexander_dual_ideal(I), mu, D), pdual))
        if cx.kind == "proper":
            built.append((stanley_reisner_ideal(cx), pdual))
    full = SimplicialComplex(R.variables, [(1 << n) - 1])
    built.append((stanley_reisner_ideal(full), []))
    for X, rows in built:
        check_held(X, rows)
