"""Exact simplicial homology, Koszul-complex Betti numbers, tables."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from depolar import homology
from depolar.ideals import Ring, MonomialIdeal, InputError, ResourceLimit
from depolar.complexes import SimplicialComplex, facet_complement_complex
from depolar.depolarization import depolarize
from depolar.families import gen_variable_powers
from depolar.homology import (reduced_homology_dims, hochster_betti,
                              BettiTable, depolarized_complex, graded_betti,
                              total_betti)
from depolar.polarization import polarize_ideal


def cx_of(nverts, facets):
    names = [f"v{i}" for i in range(nverts)]
    return SimplicialComplex.from_faces(
        names, [tuple(names[i] for i in f) for f in facets])


def test_homology_conventions():
    assert reduced_homology_dims(cx_of(3, [])) == []
    assert reduced_homology_dims(cx_of(3, [()])) == [1]
    assert reduced_homology_dims(cx_of(1, [(0,)])) == [0, 0]
    assert reduced_homology_dims(cx_of(2, [(0,), (1,)])) == [0, 1]
    assert reduced_homology_dims(cx_of(4, [(0, 1), (2, 3)])) == [0, 1, 0]
    hollow = cx_of(3, [(0, 1), (0, 2), (1, 2)])
    assert reduced_homology_dims(hollow) == [0, 0, 1]
    square = cx_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert reduced_homology_dims(square) == [0, 0, 1]
    tetra = cx_of(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert reduced_homology_dims(tetra) == [0, 0, 0, 1]
    cone = cx_of(3, [(0, 1, 2)])
    assert reduced_homology_dims(cone) == [0, 0, 0, 0]


# antipodal icosahedron quotient, the real projective plane on 6 vertices
RP2 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
       (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]


def test_homology_torsion_prime():
    # 2-torsion shows only in char 2
    cx = cx_of(7, RP2)
    assert reduced_homology_dims(cx) == [0, 0, 0, 0]
    assert reduced_homology_dims(cx, p=2) == [0, 0, 1, 1]
    assert reduced_homology_dims(cx, p=3) == [0, 0, 0, 0]


def test_homology_matches_oracle(rng):
    for _ in range(150):
        nverts = rng.randint(1, 6)
        facets = []
        for _ in range(rng.randint(0, 4)):
            f = tuple(v for v in range(nverts) if rng.random() < 0.5)
            facets.append(f)
        cx = cx_of(nverts, facets)
        masks = [tuple(i for i in range(nverts) if (m >> i) & 1)
                 for m in cx.facets]
        assert reduced_homology_dims(cx) == oracles.homology_dims(masks)


def test_homology_face_cap():
    # the solid tetrahedron is a cone, decided before any face is listed;
    # its boundary does not reduce, and its 15 faces are enumerated
    tetra = cx_of(4, [(0, 1, 2, 3)])
    assert reduced_homology_dims(tetra, face_cap=3) == [0, 0, 0, 0, 0]
    sphere = cx_of(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(ResourceLimit):
        reduced_homology_dims(sphere, face_cap=3)
    assert reduced_homology_dims(sphere, face_cap=15) == [0, 0, 0, 1]


# ------------------------------------------------------------ the one kernel

def oracle_faces(facets):
    """The faces of the complex with these facets, by dimension, as
    ascending masks, from the oracle's closure."""
    out = {}
    for f in oracles.closure_faces(facets):
        out.setdefault(len(f) - 1, []).append(sum(1 << v for v in f))
    return {d: sorted(group) for d, group in out.items()}


@st.composite
def facet_lists(draw):
    n = draw(st.integers(1, 8))
    return draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=7))


@given(facet_lists(), st.sampled_from([None, 2, 3]))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_face_homology_matches_the_oracle(facets, p):
    assert (homology._face_homology(oracle_faces(facets), p)
            == oracles.homology_dims(facets, p))


@pytest.mark.parametrize("p, want", [(None, [0, 0, 0, 0]),
                                     (2, [0, 0, 1, 1]),
                                     (3, [0, 0, 0, 0])])
def test_face_homology_of_the_projective_plane(p, want):
    assert homology._face_homology(oracle_faces(RP2), p) == want
    assert oracles.homology_dims(RP2, p) == want


@pytest.mark.parametrize("p", [None, 2])
def test_clearing_leaves_out_the_bounded_columns(monkeypatch, p):
    # the boundary of the 9-simplex: the boundary of the d-faces gets the
    # C(10, d+1) of them less the C(9, d+1) pivots of the (d+1)-faces,
    # and the boundary of the vertices takes no elimination
    sizes = []
    rank = homology._rank

    def counted(cols, p):
        sizes.append(len(cols))
        return rank(cols, p)
    monkeypatch.setattr(homology, "_rank", counted)
    faces = {}
    for m in range(2 ** 10 - 1):
        faces.setdefault(m.bit_count() - 1, []).append(m)
    assert homology._face_homology(faces, p) == [0] * 9 + [1]
    assert sizes == [10, 36, 84, 126, 126, 84, 36, 9]
    assert sum(sizes) == 511


def outside_star(facets, v):
    """The faces of the complex with these facets outside the closed star
    of vertex v, the faces F with F + v not a face, by dimension."""
    faces = oracles.closure_faces(facets)
    out = {}
    for f in faces:
        if f | {v} not in faces:
            out.setdefault(len(f) - 1, []).append(sum(1 << u for u in f))
    return {d: sorted(group) for d, group in out.items()}


def padded(dims, size):
    assert len(dims) <= size and not any(dims[size:])
    return dims + [0] * (size - len(dims))


@given(facet_lists(), st.sampled_from([None, 2, 3]))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_homology_relative_to_a_star_matches_the_oracle(facets, p):
    # the closed star of a vertex is a cone, so H~(K) = H(K, st v); a cone
    # on v lists no face at all
    want = oracles.homology_dims(facets, p)
    for v in set().union(*facets):
        got = homology._face_homology(outside_star(facets, v), p)
        assert padded(got, len(want)) == want


@pytest.mark.parametrize("v", range(6))
def test_projective_plane_relative_to_each_star(v):
    # the link of v is a 5-cycle and its 1-skeleton is K_6: outside the
    # star lie the five triangles that miss v and the five edges that miss
    # its link, and no vertex or empty face
    faces = outside_star(RP2, v)
    assert [len(faces.get(d, ())) for d in (-1, 0, 1, 2)] == [0, 0, 5, 5]
    assert homology._face_homology(faces, 2) == [0, 0, 1, 1]
    assert homology._face_homology(faces) == [0, 0, 0, 0]


def test_relative_complex_keeps_only_the_listed_rows(monkeypatch):
    # the boundary of the 9-simplex outside the star of vertex 9 is the one
    # facet that misses 9, with no face listed below it: nothing is ranked
    sizes = []
    rank = homology._rank
    monkeypatch.setattr(homology, "_rank",
                        lambda cols, p: sizes.append(len(cols)) or rank(cols, p))
    assert homology._face_homology({8: [2 ** 9 - 1]}) == [0] * 9 + [1]
    assert sizes == []
    # the hollow triangle outside the star of vertex 0: the edge {1, 2}
    # and no vertex below it
    assert homology._face_homology({1: [6]}) == [0, 0, 1]
    # and the irrelevant complex, the empty face listed, has H~_{-1} = 1
    assert homology._face_homology({-1: [0]}) == [1]


def random_ideal(rng, n, ngens, emax):
    R = Ring([f"x{i}" for i in range(n)])
    gens = set()
    while not gens:
        for _ in range(ngens):
            g = tuple(rng.randint(0, emax) for _ in range(n))
            if any(g):
                gens.add(g)
    return MonomialIdeal.from_gens(R, sorted(gens))


def test_hochster_betti_golden():
    R = Ring(["x", "y", "z"])
    I = MonomialIdeal.from_gens(R, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    # at xyz the Koszul complex is three isolated vertices: beta_1 = 2
    assert hochster_betti(I, (1, 1, 1)) == [0, 2]
    # at a generator degree it is {emptyset}: beta_0 = 1
    assert hochster_betti(I, (1, 1, 0)) == [1]
    # above the lattice the complex is contractible, outside the ideal void
    assert hochster_betti(I, (2, 1, 1)) == [0, 0, 0]
    assert hochster_betti(I, (1, 0, 0)) == []
    assert graded_betti(I).totals() == [3, 2]


def test_graded_betti_matches_oracle(rng, monkeypatch):
    # Koszul complexes of up to 5 variables live on at most 5 vertices,
    # too few for torsion, so the rational oracle holds over F_2 and F_3
    calls = []
    kernel = homology._face_homology
    monkeypatch.setattr(homology, "_face_homology",
                        lambda *a: calls.append(1) or kernel(*a))
    points = 0
    for _ in range(80):
        I = random_ideal(rng, rng.randint(1, 5), rng.randint(1, 8), 3)
        want = oracles.betti_numbers(list(I.gens))
        points += 3 * len(I.lcm_lattice())
        for p in (None, 2, 3):
            T = graded_betti(I, p=p)
            assert T.entries == want
            assert all(type(e) is int for _, mu in T.entries for e in mu)
            json.dumps(T.to_dict())
    # the per-call memo both hits and misses
    assert 0 < len(calls) < points


def squares_and_cycle(n):
    """x_i^2 and x_i x_(i+1) around an n-cycle.  From n = 12 on, its grid's
    patterns, 3^n cells of 2^n bits, are over the byte budget, so its Betti
    numbers take the sweep."""
    gens = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    gens += [tuple(1 if j in (i, (i + 1) % n) else 0 for j in range(n))
             for i in range(n)]
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]),
                                   sorted(gens))


def test_graded_betti_checks_modulus_first():
    I = squares_and_cycle(12)
    assert homology._betti_plan(I)[0] == "sweep"
    with pytest.raises(InputError):
        graded_betti(I, p=4, lattice_cap=1)
    with pytest.raises(ResourceLimit):
        graded_betti(I, lattice_cap=1)


def test_graded_betti_homology_once_per_complex(monkeypatch):
    # at the lcm of k of the squares the Koszul complex is the boundary of
    # a (k - 1)-simplex on those k variables: 15 points, 4 complexes
    I = MonomialIdeal.from_gens(Ring(["a", "b", "c", "d"]),
                                [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),
                                 (0, 0, 0, 2)])
    calls = []
    kernel = homology._face_homology
    monkeypatch.setattr(homology, "_face_homology",
                        lambda *a: calls.append(1) or kernel(*a))
    assert len(I.lcm_lattice()) == 15
    assert graded_betti(I).totals() == [4, 6, 4, 1]
    assert len(calls) == 4


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_graded_betti_rows_across_words(n):
    # <m / x_i>: at the top of the lcm lattice the Koszul complex is the n
    # single vertices, so that point's rows span every word of n vertices
    I = MonomialIdeal.from_gens(
        Ring([f"x{i}" for i in range(n)]),
        [tuple(int(j != i) for j in range(n)) for i in range(n)])
    table = graded_betti(I)
    assert table.totals() == [n, n - 1]
    assert table.entries[(1, (1,) * n)] == n - 1


def test_graded_betti_memo_is_per_call():
    # at (1, 1, 2) the Koszul complex is the hollow triangle: 7 faces
    I = MonomialIdeal.from_gens(Ring(["x", "y", "z"]),
                                [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)])
    want = oracles.betti_numbers(list(I.gens))
    assert graded_betti(I, face_cap=8).entries == want
    # a memo kept across calls would answer these from the call above
    for _ in range(2):
        with pytest.raises(ResourceLimit):
            graded_betti(I, face_cap=4)
    assert graded_betti(I, face_cap=8).entries == want


def test_total_betti_goldens():
    R = Ring(["a", "b", "c"])
    m2 = MonomialIdeal.from_gens(
        R, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    assert total_betti(m2) == [6, 8, 3]
    ci = MonomialIdeal.from_gens(R, [(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert total_betti(ci) == [3, 3, 1]


def test_graded_betti_threads_and_prime():
    R = Ring(["a", "b", "c"])
    I = MonomialIdeal.from_gens(R, [(2, 1, 0), (0, 1, 1), (1, 0, 2)])
    base = graded_betti(I)
    assert graded_betti(I).entries == base.entries
    assert graded_betti(I, p=32003).entries == base.entries
    # the largest prime below 2^31; its trial division runs once per sweep
    assert graded_betti(I, p=2 ** 31 - 1).entries == base.entries
    with pytest.raises(InputError):
        graded_betti(I, p=2 ** 31 + 11)


def test_betti_table_conventions():
    R = Ring(["a", "b", "c"])
    ci = MonomialIdeal.from_gens(R, [(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    T = graded_betti(ci)
    assert T.convention == "ideal"
    assert T.entries[(0, (1, 0, 0))] == 1
    assert T.entries[(2, (1, 2, 3))] == 1
    Q = T.to_quotient()
    assert Q.convention == "quotient"
    assert Q.totals() == [1, 3, 3, 1]
    assert Q.entries[(0, (0, 0, 0))] == 1
    assert Q.entries[(3, (1, 2, 3))] == 1
    assert Q.to_quotient() is Q
    assert T.by_degree() == {(0, 1): 1, (0, 2): 1, (0, 3): 1,
                             (1, 3): 1, (1, 4): 1, (1, 5): 1, (2, 6): 1}
    with pytest.raises(InputError):
        BettiTable(R, {}, convention="frobnicate")
    # zero entries are dropped on construction
    assert BettiTable(R, {(0, (1, 0, 0)): 0}).entries == {}
    assert BettiTable(R, {}).totals() == []


def test_betti_diagram_golden():
    R = Ring(["a", "b", "c"])
    ci = MonomialIdeal.from_gens(R, [(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    T = graded_betti(ci)
    assert T.diagram() == (
        "        0  1  2\n"
        "total:  3  3  1\n"
        "    1:  1  .  .\n"
        "    2:  1  1  .\n"
        "    3:  1  1  .\n"
        "    4:  .  1  1")
    assert T.to_quotient().diagram() == (
        "        0  1  2  3\n"
        "total:  1  3  3  1\n"
        "    0:  1  1  .  .\n"
        "    1:  .  1  1  .\n"
        "    2:  .  1  1  .\n"
        "    3:  .  .  1  1")
    assert BettiTable(R, {}).diagram() == "empty"


def test_graded_betti_lattice_cap():
    I = squares_and_cycle(12)
    assert homology._betti_plan(I)[0] == "sweep"
    with pytest.raises(ResourceLimit, match="lcm lattice exceeds cap 20"):
        graded_betti(I, lattice_cap=20)


# --------------------------------------------------- reduction by depolarizing

def direct(cx, p=None):
    """The homology of cx from all of its faces, with no reduction."""
    return homology._face_homology(cx.faces_by_dim(), p)


@st.composite
def complexes(draw):
    """A complex on 1-9 vertices: random facets, or, one case in two, the
    facet complement complex of a polarization, which always reduces."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        facets = draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=6))
        return cx_of(n, facets)
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]),
                                draw(st.lists(row, min_size=1, max_size=5)))
    return facet_complement_complex(polarize_ideal(I)[0])


@given(complexes())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_reduction_pass_keeps_the_homology(cx):
    want = direct(cx)
    small = depolarized_complex(cx)
    if small is None:
        # a vertex in every facet: a cone
        assert np.bitwise_and.reduce(cx.words, axis=1).any()
        assert want == [0] * (cx.dim + 2)
        return
    assert small.n <= cx.n
    assert small is cx or small.n < cx.n
    got = direct(small) + [0] * cx.n
    assert got[:len(want)] == want and not any(got[len(want):])


@given(complexes(), st.sampled_from([None, 2]))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduction_to_the_fixed_point_keeps_the_homology(cx, p):
    assert reduced_homology_dims(cx, p=p) == direct(cx, p)
    # the passes stop at a complex no pass shrinks, or at a cone
    small = cx
    while small is not None and depolarized_complex(small) is not small:
        small = depolarized_complex(small)
    assert small is None or depolarized_complex(small) is small


def test_cone_verdicts():
    # a simplex beside isolated ambient vertices is a cone; with the two
    # vertices as faces of their own it is not
    assert depolarized_complex(cx_of(5, [(0, 1, 2)])) is None
    assert reduced_homology_dims(cx_of(5, [(0, 1, 2)])) == [0, 0, 0, 0]
    apart = cx_of(5, [(0, 1, 2), (3,), (4,)])
    assert depolarized_complex(apart) is not None
    assert reduced_homology_dims(apart) == direct(apart) == [0, 2, 0, 0]
    # a cone over the hollow triangle
    cone = cx_of(4, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert depolarized_complex(cone) is None
    assert reduced_homology_dims(cone) == direct(cone) == [0, 0, 0, 0]
    # the irrelevant and the void complex come back as they are
    for cx, want in [(cx_of(3, [()]), [1]), (cx_of(3, []), [])]:
        assert depolarized_complex(cx) is cx
        assert reduced_homology_dims(cx) == direct(cx) == want


def test_polarized_complex_reduces_to_its_chains():
    # varpowers(10, 8) polarized: 80 vertices, whose faces pass the face
    # cap, reduce to the boundary of the simplex on its 10 chains
    cx = facet_complement_complex(
        polarize_ideal(gen_variable_powers(10, 8))[0])
    assert cx.n == 80
    small = depolarized_complex(cx)
    assert small.n == 10
    want = [0] * (cx.dim + 2)
    want[9] = 1
    assert reduced_homology_dims(cx) == want


def test_reduction_pass_runs_only_where_it_can_shrink(monkeypatch):
    calls = []
    monkeypatch.setattr(homology, "depolarize",
                        lambda I: calls.append(I) or depolarize(I))
    # no vertex of the boundary of the 3-simplex joins another on a chain
    sphere = cx_of(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert depolarized_complex(sphere) is sphere
    assert reduced_homology_dims(sphere) == [0, 0, 0, 1]
    squares = MonomialIdeal.from_gens(Ring(["a", "b", "c", "d"]),
                                      [(2, 0, 0, 0), (0, 2, 0, 0),
                                       (0, 0, 2, 0), (0, 0, 0, 2)])
    assert hochster_betti(squares, (2, 2, 2, 2)) == [0, 0, 0, 1]
    triangle = MonomialIdeal.from_gens(Ring(["x", "y", "z"]),
                                       [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert graded_betti(triangle).totals() == [3, 2]
    assert calls == []
    # a polarized complex and a polarized ideal do shrink
    P = polarize_ideal(gen_variable_powers(3, 2))[0]
    assert reduced_homology_dims(facet_complement_complex(P)) \
        == [0, 0, 1, 0, 0]
    assert len(calls) >= 1
    assert graded_betti(P).totals() == [3, 3, 1]
    assert len(calls) >= 2
