import itertools

import pytest

import oracles
from depolar import (InputError, MonomialIdeal, Ring, SimplicialComplex,
                     alexander_dual_complex, complex_of_squarefree_ideal,
                     depolarize, dual_complex_via_depolarization,
                     facet_complement_complex, facet_complement_ideal,
                     koszul_complex, stanley_reisner_ideal)
from depolar import hypergraph
from depolar.homology import hochster_betti
from depolar.ideals import ResourceLimit


def cx_of(nverts, facets):
    verts = [f"v{i}" for i in range(1, nverts + 1)]
    return SimplicialComplex.from_faces(
        verts, [[f"v{i}" for i in f] for f in facets])


def facet_sets(cx):
    return sorted(tuple(sorted(cx.names_of(f))) for f in cx.facets)


def test_kinds_and_dims():
    assert cx_of(3, []).kind == "void"
    assert cx_of(3, []).dim == -2
    assert cx_of(3, [[]]).kind == "irrelevant"
    assert cx_of(3, [[]]).dim == -1
    tri = cx_of(3, [[1, 2], [1, 3], [2, 3]])
    assert tri.kind == "proper"
    assert tri.dim == 1
    assert cx_of(2, [[1, 2]]).is_full_simplex()


@pytest.mark.parametrize("budget", [hypergraph._ANTICHAIN_PASS, 1, 5])
def test_antichain_check_in_bounded_passes(rng, monkeypatch, budget):
    # each popcount class is tested against the lighter facets in passes
    # of at most budget words; a small budget splits every class
    monkeypatch.setattr(hypergraph, "_ANTICHAIN_PASS", budget)
    for _ in range(80):
        n = rng.choice((5, 12, 70, 130))
        masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 10))}
        if rng.random() < 0.5:
            masks.add(rng.choice(sorted(masks)) & rng.getrandbits(n))
        masks = sorted(masks)
        verts = [f"v{i}" for i in range(n)]
        sets = [frozenset(i for i in range(n) if m >> i & 1) for m in masks]
        if oracles.maximal_sets(sets) == sorted(sets, key=oracles.set_key):
            assert SimplicialComplex(verts, masks).facets == tuple(masks)
        else:
            with pytest.raises(InputError, match="antichain"):
                SimplicialComplex(verts, masks)


def test_normalize_keeps_maximal_faces():
    cx = SimplicialComplex.normalize(("a", "b", "c"), [0b011, 0b001, 0b100])
    assert cx.facets == (0b011, 0b100)
    with pytest.raises(InputError):
        SimplicialComplex(("a",), (2,))
    with pytest.raises(InputError):
        SimplicialComplex(("a", "b"), (2, 1))


def test_isolated_vertices_are_kept():
    cx = cx_of(4, [[1, 2]])
    assert cx.isolated_vertices() == ["v3", "v4"]
    assert cx.n == 4


def test_face_enumeration():
    cx = cx_of(6, [[1, 2, 3, 4, 5], [1, 2, 3, 6], [4, 5, 6]])
    assert cx.f_vector() == (1, 6, 15, 14, 6, 1)
    faces = cx.faces_by_dim()
    assert sorted(faces) == [-1, 0, 1, 2, 3, 4]
    oracle = oracles.closure_faces([[0, 1, 2, 3, 4], [0, 1, 2, 5], [3, 4, 5]])
    assert sum(len(v) for v in faces.values()) == len(oracle)
    with pytest.raises(ResourceLimit):
        cx.faces_by_dim(cap=10)
    with pytest.raises(InputError):
        cx_of(3, []).f_vector()


def test_hollow_triangle_f_vector():
    assert cx_of(3, [[1, 2], [1, 3], [2, 3]]).f_vector() == (1, 3, 3)


def test_koszul_complex_facets():
    # I = <x1^3 x2^2, x1^2 x2^3, x1^2 x3, x2^2 x3> at mu = (3, 3, 1)
    I = MonomialIdeal.from_gens(
        Ring(["x1", "x2", "x3"]),
        [(3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1)])
    assert I.lcm_exponent() == (3, 3, 1)
    K = koszul_complex(I)
    assert facet_sets(K) == [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]


def test_koszul_complex_matches_oracle(rng):
    for _ in range(150):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ring = Ring([f"x{i}" for i in range(n)])
        I = MonomialIdeal.from_gens(ring, gens)
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        K = koszul_complex(I, mu)
        want = oracles.maximal_sets(oracles.koszul_faces(list(I.gens), mu))
        got = sorted((frozenset(i for i in range(n) if f >> i & 1)
                      for f in K.facets), key=oracles.set_key)
        assert got == want


def test_koszul_complex_off_lattice_is_void():
    I = MonomialIdeal.from_gens(Ring(["x", "y"]), [(2, 0), (0, 2)])
    assert koszul_complex(I, (1, 1)).kind == "void"
    assert koszul_complex(MonomialIdeal(Ring(["x"]), ())).kind == "void"


def test_koszul_complex_rejects_bad_multidegree():
    I = MonomialIdeal.from_gens(Ring(["a", "b", "c"]),
                                [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    for mu in ((2, 1), (2, 1, 1, 7), (2.5, 1, 1)):
        with pytest.raises(InputError):
            koszul_complex(I, mu)
        with pytest.raises(InputError):
            hochster_betti(I, mu)
    with pytest.raises(InputError):
        koszul_complex(MonomialIdeal(Ring(["x"]), ()), (1, 1))
    assert koszul_complex(I, [2, 1, 1]) == koszul_complex(I, (2, 1, 1))


def test_facet_complement_ideal_golden():
    cx = cx_of(6, [[1, 2, 3, 4, 5], [1, 2, 3, 6], [4, 5, 6]])
    IK = facet_complement_ideal(cx)
    assert IK.gens == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 1, 0),
                       (1, 1, 1, 0, 0, 0))
    with pytest.raises(InputError):
        facet_complement_ideal(cx_of(2, [[1, 2]]))
    with pytest.raises(InputError):
        facet_complement_ideal(cx_of(2, [[]]))
    # a full facet beside another is no antichain, so no complex holds one
    with pytest.raises(InputError, match="antichain"):
        SimplicialComplex(("a", "b"), (1, 3))


def test_constructor_rejects_nested_facets():
    # {a} lies inside {a, b}: the facet complement ideal would have been
    # the non-minimal <c, b*c>
    with pytest.raises(InputError, match="antichain"):
        SimplicialComplex(("a", "b", "c"), (1, 3))
    verts = [f"v{i}" for i in range(130)]
    with pytest.raises(InputError, match="antichain"):
        SimplicialComplex(verts, (1 << 64, 1 << 64 | 1 << 129))
    with pytest.raises(InputError, match="antichain"):
        SimplicialComplex(verts, (0, 1))
    assert SimplicialComplex(verts, (3, 1 << 64 | 1)).facets == (3, 1 << 64 | 1)
    assert SimplicialComplex(("a",), (0,)).kind == "irrelevant"
    assert SimplicialComplex(("a",), ()).kind == "void"
    # normalize and from_faces keep the maximal faces of the same input
    assert SimplicialComplex.normalize(("a", "b", "c"), (1, 3)).facets == (3,)
    assert facet_complement_ideal(cx_of(3, [[1], [1, 2]])).gens == ((0, 0, 1),)


def test_facet_complement_complex_inverts_facet_ideal(rng):
    for _ in range(100):
        n = rng.randint(2, 7)
        R = Ring([f"x{i}" for i in range(n)])
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = tuple(1 if rng.random() < 0.5 else 0 for _ in range(n))
            if any(g) and not all(g):
                gens.add(g)
        if not gens:
            continue
        P = MonomialIdeal.from_gens(R, sorted(gens))
        assert facet_complement_ideal(facet_complement_complex(P)) == P
    R = Ring(["x", "y"])
    assert facet_complement_complex(MonomialIdeal(R, ())).kind == "void"
    for g in [(2, 0), (300, 1)]:
        with pytest.raises(InputError):
            facet_complement_complex(MonomialIdeal(R, [g]))


def test_depolarized_complement_has_circle_homology_shape():
    # the 6-vertex complex above depolarizes to three pure powers whose
    # Koszul complex is the hollow triangle
    cx = cx_of(6, [[1, 2, 3, 4, 5], [1, 2, 3, 6], [4, 5, 6]])
    D = depolarize(facet_complement_ideal(cx))
    assert sorted(map(sorted, D.chains)) == [[0, 1, 2], [3, 4], [5]]
    assert sorted(D.ideal.gens) == [(0, 0, 1), (0, 2, 0), (3, 0, 0)]
    assert koszul_complex(D.ideal).f_vector() == (1, 3, 3)


def test_normalize_masks_past_64_bits(rng):
    n = 140
    verts = [f"v{i}" for i in range(n)]
    fixed = [1 << 64, 1 << 64 | 1 << 3, 1 << 63 | 1 << 64, 1 << 63,
             1 << 128 | 1 << 127, 1 << 139 | 1 << 0, 1 << 127]
    cx = SimplicialComplex.normalize(verts, fixed)
    assert cx.facets == (1 << 64 | 1 << 3, 1 << 63 | 1 << 64,
                         1 << 128 | 1 << 127, 1 << 139 | 1)
    for _ in range(30):
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        masks += [m & rng.getrandbits(n) for m in masks]
        cx = SimplicialComplex.normalize(verts, masks)
        sets = [[i for i in range(n) if m >> i & 1] for m in masks]
        got = sorted((frozenset(i for i in range(n) if f >> i & 1)
                      for f in cx.facets), key=oracles.set_key)
        assert got == oracles.maximal_sets(sets)


def test_stanley_reisner_inverse_pair(rng):
    for _ in range(150):
        n = rng.randint(2, 6)
        masks = [rng.randint(1, (1 << n) - 2) for _ in range(rng.randint(1, 4))]
        cx = SimplicialComplex.normalize([f"v{i}" for i in range(n)], masks)
        if cx.kind != "proper" or cx.is_full_simplex():
            continue
        I = stanley_reisner_ideal(cx)
        back = complex_of_squarefree_ideal(I)
        assert back.facets == cx.facets
    full = cx_of(2, [[1, 2]])
    assert stanley_reisner_ideal(full).is_zero
    Z = MonomialIdeal(Ring(["a", "b"]), ())
    assert complex_of_squarefree_ideal(Z).is_full_simplex()


def test_alexander_dual_complex_matches_oracle(rng):
    for _ in range(150):
        n = rng.randint(2, 6)
        masks = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4))]
        cx = SimplicialComplex.normalize([f"v{i}" for i in range(n)], masks)
        dual = alexander_dual_complex(cx)
        want = oracles.alexander_dual_facets(
            [[i for i in range(n) if f >> i & 1] for f in cx.facets], n)
        got = sorted((frozenset(i for i in range(n) if f >> i & 1)
                      for f in dual.facets), key=oracles.set_key)
        assert got == want


def test_alexander_dual_complex_edges():
    with pytest.raises(InputError):
        alexander_dual_complex(cx_of(2, []))
    # irrelevant <-> boundary of the simplex, full simplex -> void
    assert alexander_dual_complex(cx_of(3, [[]])).facets == (0b011, 0b101, 0b110)
    assert alexander_dual_complex(cx_of(2, [[1, 2]])).kind == "void"
    bd = cx_of(3, [[1, 2], [1, 3], [2, 3]])
    assert alexander_dual_complex(bd).kind == "irrelevant"


def test_duals_of_wide_complexes(rng):
    # a complex on 6 core vertices, some of them at word boundaries, coned
    # over C and padded with isolated vertices Z: the minimal non-faces are
    # those of the core and the single vertices of Z.  The folds run on
    # n - c slots, one word up to 64 and two or three past it.
    boundary = (0, 1, 2, 3, 61, 62, 63, 64, 65, 127, 128, 129)
    for n in (63, 64, 65, 130):
        verts = [f"v{i}" for i in range(n)]
        full = (1 << n) - 1
        for c in (0, 1, 3):
            core = rng.sample([v for v in boundary if v < n], 6)
            rest = [v for v in range(n) if v not in core]
            rng.shuffle(rest)
            cone, isolated = rest[:c], rest[c:]
            # two complementary facets that no other facet contains, so
            # only C is in every facet
            half = rng.sample(range(6), rng.randint(1, 5))
            local = [half, [i for i in range(6) if i not in half]]
            for _ in range(rng.randint(1, 3)):
                local.append([i for part in local[:2] if len(part) > 1
                              for i in rng.sample(part, len(part) - 1)])
            cx = SimplicialComplex.normalize(verts, [
                sum(1 << v for v in [core[i] for i in f] + cone)
                for f in local])
            faces = oracles.closure_faces(local)
            core_nonfaces = oracles.minimal_sets(
                frozenset(s) for r in range(7)
                for s in itertools.combinations(range(6), r)
                if frozenset(s) not in faces)
            want = sorted([frozenset(core[i] for i in s)
                           for s in core_nonfaces]
                          + [frozenset({z}) for z in isolated],
                          key=oracles.set_key)
            sr = stanley_reisner_ideal(cx)
            assert oracles.supports(sr.gens) == want
            assert complex_of_squarefree_ideal(sr) == cx
            dual = alexander_dual_complex(cx)
            assert dual.facets == tuple(sorted(
                full ^ sum(1 << v for v in s) for s in want))
            assert alexander_dual_complex(dual) == cx
            assert dual_complex_via_depolarization(cx)[0] == dual


def test_dict_roundtrip():
    cx = cx_of(4, [[1, 2], [3]])
    assert SimplicialComplex.from_dict(cx.to_dict()) == cx
    with pytest.raises(InputError):
        SimplicialComplex.from_dict({"vertices": ["a"]})
    with pytest.raises(InputError):
        SimplicialComplex.from_faces(["a"], [["b"]])
