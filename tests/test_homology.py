"""Exact simplicial homology, Koszul-complex Betti numbers, tables."""

import json
import random

import pytest

import oracles
from depolar import homology
from depolar.ideals import Ring, MonomialIdeal, InputError, ResourceLimit
from depolar.complexes import SimplicialComplex
from depolar.homology import (reduced_homology_dims, hochster_betti,
                              BettiTable, graded_betti, total_betti)


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


def test_homology_torsion_prime():
    # antipodal icosahedron quotient: 2-torsion shows only in char 2
    rp2 = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
           (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    cx = cx_of(7, [tuple(i - 1 for i in f) for f in rp2])
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
    tetra = cx_of(4, [(0, 1, 2, 3)])
    with pytest.raises(ResourceLimit):
        reduced_homology_dims(tetra, face_cap=3)


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
    monkeypatch.setattr(homology, "reduced_homology_dims",
                        lambda *a: calls.append(1) or reduced_homology_dims(*a))
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


def test_graded_betti_checks_modulus_first():
    I = random_ideal(random.Random(3), 4, 6, 2)
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
    monkeypatch.setattr(homology, "reduced_homology_dims",
                        lambda *a: calls.append(1) or reduced_homology_dims(*a))
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
    R = Ring([f"x{i}" for i in range(8)])
    gens = [tuple(2 if j == i else 0 for j in range(8)) for i in range(8)]
    gens += [tuple(1 if j in (i, (i + 1) % 8) else 0 for j in range(8))
             for i in range(8)]
    I = MonomialIdeal.from_gens(R, sorted(gens))
    with pytest.raises(ResourceLimit):
        graded_betti(I, lattice_cap=20)
