import random

import numpy as np
import pytest

import oracles
from depolar import InputError, MonomialIdeal, Ring, hypergraph, ideals
from depolar.ideals import MAX_EXPONENT, check_exponent, format_monomial


def ideal(*gens, names=None):
    n = len(gens[0])
    ring = Ring(names or [f"x{i}" for i in range(1, n + 1)])
    return MonomialIdeal.from_gens(ring, gens)


def test_ring_validation():
    assert Ring(("x", "y")).n == 2
    with pytest.raises(InputError):
        Ring([])
    with pytest.raises(InputError):
        Ring(["x", "x"])
    with pytest.raises(InputError):
        Ring(["2bad"])


def minimal_gens(gens):
    """The lex-sorted generators that from_gens keeps of gens."""
    return list(ideal(*gens).gens)


def test_minimalize_drops_multiples():
    assert minimal_gens([(2, 0), (1, 0), (1, 1), (0, 3)]) == [(0, 3), (1, 0)]
    assert MonomialIdeal.from_gens(Ring(["x", "y"]), []).is_zero
    assert minimal_gens([(1, 1), (1, 1)]) == [(1, 1)]


def test_minimalize_matches_oracle(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        assert minimal_gens(gens) == oracles.minimal_elements(gens)


def mask_words(gens):
    """Words of the level masks that from_gens tests gens on."""
    return len(hypergraph.level_masks(np.array(gens, dtype=np.int64))[0])


@pytest.mark.parametrize("levels, words", [(70, 2), (140, 3)])
def test_minimalize_across_words(rng, levels, words):
    # the first variable takes more than 64 (or 128) distinct levels, up to
    # MAX_EXPONENT, so its block of slots spans two (or three) words
    for _ in range(3):
        tops = rng.sample(range(1, MAX_EXPONENT), levels - 2) + [MAX_EXPONENT]
        gens = [(t, rng.randint(0, 3), rng.randint(0, 3)) for t in tops]
        gens += [(MAX_EXPONENT, 0, rng.randint(1, 3)), (0, 3, 3)]
        assert mask_words(gens) == words
        assert minimal_gens(gens) == oracles.minimal_elements(gens)


def test_minimalize_past_the_pairs_budget(rng, monkeypatch):
    # 3,844 rows on 3 words are past the all-pairs budget, so the rows are
    # taken by popcount class; degree 60 divides every row of degree 61
    def degree(d):
        return [(a, b, d - a - b) for a in range(d + 1)
                for b in range(d + 1 - a)]
    gens = degree(60) + degree(61)
    assert len(gens) ** 2 * mask_words(gens) > hypergraph._BUDGET
    assert minimal_gens(gens) == sorted(degree(60))
    assert len(degree(60)) == 1891
    # with no budget every call walks the popcount classes
    monkeypatch.setattr(hypergraph, "_BUDGET", 0)
    for _ in range(100):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        gens = [g for g in gens if any(g)]
        if gens:
            assert minimal_gens(gens) == oracles.minimal_elements(gens)


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
    # each generator is checked as check_exponent checks it, and the set
    # must be minimal: these once printed y^2, x^1.5*y and <x, x*y>
    R = Ring(["x", "y"])
    with pytest.raises(InputError, match="out of range"):
        MonomialIdeal(R, [(-1, 2)])
    with pytest.raises(InputError, match="bad exponent"):
        MonomialIdeal(R, [(1.5, 1)])
    with pytest.raises(InputError, match="minimal"):
        MonomialIdeal(R, [(1, 0), (1, 1)])
    for bad in ([(True, 1)], [(1, 0, 0)], [(MAX_EXPONENT + 1, 0)],
                [(0, 2), (3, 1), (3, 2)]):
        with pytest.raises(InputError):
            MonomialIdeal(R, bad)
    # numpy integers are normalized to ints, as check_exponent does
    I = MonomialIdeal(R, [(np.int64(0), 2), (1, np.uint8(1))])
    assert I.gens == ((0, 2), (1, 1)) and type(I.gens[0][1]) is int
    assert MonomialIdeal(R, [[0, 2], [1, 1], [3, 0]]).gens[2] == (3, 0)


def test_constructor_rejects_what_from_gens_drops(rng):
    # the constructor takes a lex-sorted set of rows exactly when from_gens
    # would keep every row; rows of several degrees are tested on masks
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = sorted({tuple(rng.randint(0, 3) for _ in range(n))
                       for _ in range(rng.randint(1, 7))} - {(0,) * n})
        if not rows:
            continue
        R = Ring([f"x{i}" for i in range(n)])
        if oracles.minimal_elements(rows) == rows:
            assert MonomialIdeal(R, rows) == MonomialIdeal.from_gens(R, rows)
        else:
            with pytest.raises(InputError, match="minimal"):
                MonomialIdeal(R, rows)


def test_from_gens_checks_each_generator_once(monkeypatch):
    calls = []

    def counted(m, n):
        calls.append(m)
        return check_exponent(m, n)

    monkeypatch.setattr(ideals, "check_exponent", counted)
    R = Ring(["x", "y"])
    gens = [(2, 0), (1, 1), (2, 0), (3, 1), (0, 4)]
    assert MonomialIdeal.from_gens(R, gens).gens == ((0, 4), (1, 1), (2, 0))
    assert len(calls) == len(gens)
    for bad in ([(1, 0), (1,)], [(1, 0), (True, 1)], [(1.5, 0)], [(-1, 2)],
                [(MAX_EXPONENT + 1, 0)], [(1, 0), (0, 0)]):
        with pytest.raises(InputError):
            MonomialIdeal.from_gens(R, bad)
    assert MonomialIdeal.from_gens(R, [(MAX_EXPONENT, 0)]).gens \
        == ((MAX_EXPONENT, 0),)


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


def test_format_monomial():
    ring = Ring(["x", "y", "z"])
    assert format_monomial(ring, (2, 1, 0)) == "x^2*y"
    assert format_monomial(ring, (0, 0, 0)) == "1"
    assert format_monomial(ring, (1, 0, 4)) == "x*z^4"
