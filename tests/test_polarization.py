import pytest

import oracles
from depolar import (InputError, MonomialIdeal, Ring, alexander_dual_ideal,
                     depolarize, expanded_koszul, koszul_complex,
                     polarize_ideal, repolarize_dual, validate_depolarization,
                     verify_polar_koszul_iso)
from depolar.hypergraph import bits_of
from depolar.polarization import block_names


def random_ideal(rng):
    n = rng.randint(1, 4)
    gens = [tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 5))]
    gens = [g for g in gens if any(g)] or [(1,) * n]
    return MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), gens)


def test_block_names():
    assert block_names(Ring(["x", "y"]), (2, 1)) == ["x_1", "x_2", "y_1"]
    assert block_names(Ring(["x", "y"]), (0, 2)) == ["y_1", "y_2"]


def test_expanded_koszul_principal_ideal():
    # span zero: no vertices, single empty facet
    I = MonomialIdeal.from_gens(Ring(["x", "y"]), [(2, 1)])
    EK = expanded_koszul(I)
    assert EK.vertices == ()
    assert EK.kind == "irrelevant"
    assert verify_polar_koszul_iso(I)


def test_polarize_golden():
    # J = <x^3 y, y z^3, x^2 y^3 z^2 t, z^3 t>
    J = MonomialIdeal.from_gens(
        Ring(["x", "y", "z", "t"]),
        [(3, 1, 0, 0), (0, 1, 3, 0), (2, 3, 2, 1), (0, 0, 3, 1)])
    P, D = polarize_ideal(J)
    assert P.ring.variables == ("x_1", "x_2", "x_3", "y_1", "y_2", "y_3",
                                "z_1", "z_2", "z_3", "t_1")
    names = [{P.ring.variables[i] for i, e in enumerate(g) if e} for g in P.gens]
    assert {frozenset(s) for s in names} == {
        frozenset({"x_1", "x_2", "x_3", "y_1"}),
        frozenset({"y_1", "z_1", "z_2", "z_3"}),
        frozenset({"x_1", "x_2", "y_1", "y_2", "y_3", "z_1", "z_2", "t_1"}),
        frozenset({"z_1", "z_2", "z_3", "t_1"})}
    assert D.ideal == J and D.source_ring == P.ring
    assert D.chains == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9,))
    assert P.is_squarefree()
    assert len(P.gens) == len(J.gens)


def test_polarize_identity_on_squarefree():
    I = MonomialIdeal.from_gens(Ring(["x", "y"]), [(1, 0), (0, 1)])
    P, D = polarize_ideal(I)
    assert P.gens == I.gens
    assert D.chains == ((0,), (1,))
    with pytest.raises(InputError):
        polarize_ideal(MonomialIdeal(Ring(["x"]), ()))


def test_expanded_koszul_golden():
    I = MonomialIdeal.from_gens(
        Ring(["x1", "x2", "x3"]),
        [(3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1)])
    EK = expanded_koszul(I)
    assert EK.vertices == ("x1_1", "x1_2", "x1_3",
                           "x2_1", "x2_2", "x2_3", "x3_1")
    got = {frozenset(EK.names_of(f)) for f in EK.facets}
    assert got == {
        frozenset({"x1_1", "x1_2", "x1_3", "x2_3"}),
        frozenset({"x1_3", "x2_1", "x2_2", "x2_3"}),
        frozenset({"x1_3", "x3_1"}),
        frozenset({"x2_3", "x3_1"})}


def test_expanded_koszul_empty_block():
    # <xy, xz>: x divides everything, so its block holds no vertices
    I = MonomialIdeal.from_gens(Ring(["x", "y", "z"]), [(1, 1, 0), (1, 0, 1)])
    EK = expanded_koszul(I)
    assert EK.vertices == ("y_1", "z_1")
    assert {frozenset(EK.names_of(f)) for f in EK.facets} == {
        frozenset({"y_1"}), frozenset({"z_1"})}


def test_expanded_koszul_blocks_shrink_by_gcd():
    # common factor x y^2 leaves span (1, 1): one slot per variable
    I = MonomialIdeal.from_gens(Ring(["x", "y"]), [(2, 2), (1, 3)])
    EK = expanded_koszul(I)
    assert EK.vertices == ("x_1", "y_1")
    K = koszul_complex(I)
    assert [f.bit_count() for f in K.facets] == [f.bit_count() for f in EK.facets]


def test_iso_with_polarized_koszul(rng):
    I = MonomialIdeal.from_gens(
        Ring(["x1", "x2", "x3"]),
        [(3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1)])
    assert verify_polar_koszul_iso(I)
    for _ in range(150):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(n)]), gens)
        assert verify_polar_koszul_iso(I)


def test_expanded_koszul_matches_oracle(rng):
    R3 = Ring(["x1", "x2", "x3"])
    goldens = [
        MonomialIdeal.from_gens(R3, [(3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1)]),
        MonomialIdeal.from_gens(Ring(["x", "y", "z"]), [(1, 1, 0), (1, 0, 1)]),
        MonomialIdeal.from_gens(Ring(["x", "y"]), [(2, 2), (1, 3)]),
        MonomialIdeal.from_gens(Ring(["x", "y"]), [(2, 1)])]
    for I in goldens + [random_ideal(rng) for _ in range(150)]:
        EK = expanded_koszul(I)
        slots, facets = oracles.expanded_koszul_facets(I.gens)
        assert EK.vertices == tuple(block_names(I.ring, I.monomial_span()))
        assert EK.n == slots
        assert sorted(map(frozenset, map(bits_of, EK.facets)),
                      key=oracles.set_key) == facets


def test_polarize_ideal_gives_the_chain_map(rng):
    # one map read both ways: it validates, it carries the dual of J to
    # the dual of P, and depolarizing along its chains gives J back
    for _ in range(120):
        J = random_ideal(rng)
        P, D = polarize_ideal(J)
        assert D.ideal == J and D.source_ring == P.ring
        assert validate_depolarization(P, D)
        assert repolarize_dual(alexander_dual_ideal(J), J.lcm_exponent(),
                               D) == alexander_dual_ideal(P)
        used = [i for i, c in enumerate(D.chains) if c]
        back = depolarize(P, [D.chains[i] for i in used])
        assert back.chains == tuple(D.chains[i] for i in used)
        assert back.ideal.gens == tuple(tuple(g[i] for i in used)
                                        for g in J.gens)
