import random

import numpy as np
import pytest

import oracles
from depolar import InputError, MonomialIdeal, Ring, hypergraph, minimalize
from depolar.ideals import (MAX_EXPONENT, check_exponent, format_monomial,
                            parse_monomial)


def ideal(*gens, names=None):
    n = len(gens[0])
    ring = Ring(names or [f"x{i}" for i in range(1, n + 1)])
    return MonomialIdeal.from_gens(ring, gens)


def test_ring_validation():
    assert Ring(("x", "y")).n == 2
    assert Ring(["x"]).index("x") == 0
    with pytest.raises(InputError):
        Ring([])
    with pytest.raises(InputError):
        Ring(["x", "x"])
    with pytest.raises(InputError):
        Ring(["2bad"])
    with pytest.raises(InputError):
        Ring(["x"]).index("y")


def test_minimalize_drops_multiples():
    assert minimalize([(2, 0), (1, 0), (1, 1), (0, 3)]) == [(0, 3), (1, 0)]
    assert minimalize([]) == []
    assert minimalize([(1, 1), (1, 1)]) == [(1, 1)]


def test_minimalize_matches_oracle(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        assert minimalize(gens) == oracles.minimal_elements(gens)


def mask_words(gens):
    """Words of the level masks that minimalize tests gens on."""
    return len(hypergraph.level_masks(np.array(gens, dtype=np.int64))[0])


def pairwise_lcm_oracle(A, B):
    return oracles.minimal_elements([oracles.lcm(a, b) for a in A for b in B])


@pytest.mark.parametrize("levels, words", [(70, 2), (140, 3)])
def test_minimalize_across_words(rng, levels, words):
    # the first variable takes more than 64 (or 128) distinct levels, up to
    # MAX_EXPONENT, so its block of slots spans two (or three) words
    for _ in range(3):
        tops = rng.sample(range(1, MAX_EXPONENT), levels - 2) + [MAX_EXPONENT]
        gens = [(t, rng.randint(0, 3), rng.randint(0, 3)) for t in tops]
        gens += [(MAX_EXPONENT, 0, rng.randint(1, 3)), (0, 3, 3)]
        assert mask_words(gens) == words
        assert minimalize(gens) == oracles.minimal_elements(gens)
        A, B = ideal(*gens[:levels // 2]), ideal(*gens[levels // 2:])
        assert list(A.intersect(B).gens) == pairwise_lcm_oracle(A.gens, B.gens)


def test_minimalize_past_the_pairs_budget(rng, monkeypatch):
    # 3,844 rows on 3 words are past the all-pairs budget, so the rows are
    # taken by popcount class; degree 60 divides every row of degree 61
    def degree(d):
        return [(a, b, d - a - b) for a in range(d + 1)
                for b in range(d + 1 - a)]
    gens = degree(60) + degree(61)
    assert len(gens) ** 2 * mask_words(gens) > hypergraph._BUDGET
    assert minimalize(gens) == sorted(degree(60))
    assert len(degree(60)) == 1891
    # with no budget every call walks the popcount classes
    monkeypatch.setattr(hypergraph, "_BUDGET", 0)
    for _ in range(100):
        n = rng.randint(1, 5)
        draw = lambda: [tuple(rng.randint(0, 3) for _ in range(n))
                        for _ in range(rng.randint(1, 8))]
        ga = [g for g in draw() if any(g)]
        gb = [g for g in draw() if any(g)]
        if not ga or not gb:
            continue
        assert minimalize(ga) == oracles.minimal_elements(ga)
        A, B = ideal(*ga), ideal(*gb)
        assert list(A.intersect(B).gens) == \
            oracles.intersect(list(A.gens), list(B.gens))


def test_constructor_contracts():
    with pytest.raises(InputError):
        MonomialIdeal(Ring(["x"]), [(0,)])  # unit ideal
    with pytest.raises(InputError):
        MonomialIdeal(Ring(["x", "y"]), [(1, 0), (1, 0)])  # not sorted strictly
    with pytest.raises(InputError):
        MonomialIdeal(Ring(["x", "y"]), [(1,)])
    with pytest.raises(InputError):
        MonomialIdeal.from_gens(Ring(["x"]), [("b",)])
    with pytest.raises(InputError):
        MonomialIdeal.from_gens(Ring(["x"]), [(-1,)])
    assert MonomialIdeal(Ring(["x"]), ()).is_zero


def test_basic_queries():
    I = ideal((3, 1, 0), (0, 1, 3), (2, 3, 2))
    assert not I.is_zero
    assert not I.is_squarefree()
    assert I.lcm_exponent() == (3, 3, 3)
    assert I.gcd_exponent() == (0, 1, 0)
    assert I.monomial_span() == (3, 2, 3)
    assert I.contains((3, 1, 5))
    assert not I.contains((1, 1, 1))
    assert ideal((1, 0), (0, 1)).is_squarefree()


def test_intersect_matches_oracle(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        draw = lambda: [tuple(rng.randint(0, 3) for _ in range(n))
                        for _ in range(rng.randint(1, 5))]
        ga = [g for g in draw() if any(g)]
        gb = [g for g in draw() if any(g)]
        if not ga or not gb:
            continue
        A, B = ideal(*ga), ideal(*gb)
        got = A.intersect(B)
        assert list(got.gens) == oracles.intersect(list(A.gens), list(B.gens))


def test_intersect_needs_common_ring():
    with pytest.raises(InputError):
        ideal((1,)).intersect(ideal((1,), names=["y"]))
    assert ideal((1, 0)).intersect(MonomialIdeal(Ring(["x1", "x2"]), ())).is_zero


def test_lcm_lattice_matches_subset_closure(rng):
    for _ in range(120):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = ideal(*gens)
        assert I.lcm_lattice() == oracles.lcm_closure(list(I.gens))


def slot_count(I):
    """Slots of the lattice masks: distinct nonzero levels per variable."""
    return sum(len(set(col) - {0}) for col in zip(*I.gens))


@pytest.mark.parametrize("n, emax, words", [
    (64, 1, 1), (65, 1, 2), (128, 1, 2), (129, 1, 3), (130, 1, 3),
    (20, 60, 2), (36, 60, 3)])
def test_lcm_lattice_across_words(n, emax, words):
    # 64 slots fill one word; generator j uses every variable i = j mod 7,
    # so a squarefree ideal has exactly n slots
    rng = random.Random(n)
    for _ in range(3):
        gens = [tuple(rng.randint(1, emax)
                      if i % 7 == j or rng.random() < 0.6 else 0
                      for i in range(n)) for j in range(7)]
        I = ideal(*gens)
        assert -(-slot_count(I) // 64) == words
        assert I.lcm_lattice() == oracles.lcm_closure(list(I.gens))


def test_zero_ideal_has_no_invariants():
    Z = MonomialIdeal(Ring(["x"]), ())
    for op in (Z.lcm_exponent, Z.gcd_exponent, Z.lcm_lattice):
        with pytest.raises(InputError):
            op()


def test_dict_roundtrip():
    I = ideal((3, 1, 0), (0, 1, 3))
    assert MonomialIdeal.from_dict(I.to_dict()) == I
    with pytest.raises(InputError):
        MonomialIdeal.from_dict({"variables": ["x"]})
    with pytest.raises(InputError):
        MonomialIdeal.from_dict({"variables": ["x"], "generators": "bogus"})


def test_exponents_must_be_integers():
    assert check_exponent((np.int64(2), np.int32(0), 7), 3) == (2, 0, 7)
    assert all(type(e) is int for e in check_exponent(np.array([1, 2]), 2))
    for bad in ((1.5, 0), (True, 2), (1, False), ("1", 0), (1.0, 0), 3):
        with pytest.raises(InputError):
            check_exponent(bad, 2)
    with pytest.raises(InputError):
        MonomialIdeal.from_dict({"variables": ["x", "y"],
                                 "generators": [[1.5, 0], [True, 2]]})


def test_monomial_text_roundtrip():
    ring = Ring(["x", "y", "z"])
    assert format_monomial(ring, (2, 1, 0)) == "x^2*y"
    assert format_monomial(ring, (0, 0, 0)) == "1"
    assert parse_monomial(ring, "x^2*y") == (2, 1, 0)
    assert parse_monomial(ring, "1") == (0, 0, 0)
    rng = random.Random(7)
    for _ in range(100):
        m = tuple(rng.randint(0, 4) for _ in range(3))
        assert parse_monomial(ring, format_monomial(ring, m)) == m
    for bad in ("x^0", "w", "x^^2", "x*", ""):
        with pytest.raises(InputError):
            parse_monomial(ring, bad)
