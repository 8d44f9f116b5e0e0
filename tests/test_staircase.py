"""The staircase grid behind alexander_dual_ideal, against the brute-force
dual and against the Berge fold on the same slot layout.

Both kernels are called through the private helpers, whichever one the
rule in _dual_plan picks for the input.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from depolar import hypergraph
from depolar.hypergraph import (_closed_grid, _dual_plan, _fold,
                                _staircase, alexander_dual_ideal)
from depolar.ideals import MonomialIdeal, ResourceLimit, Ring

RUNS = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

# boxes up to this many monomials are checked against oracles.dual_ideal
ORACLE_BOX = 4096


def ring(n):
    return Ring([f"x{i}" for i in range(n)])


@st.composite
def ideals_and_bounds(draw, max_n=7, emax=6, max_gens=8, min_gens=1):
    """An ideal of 1 to max_n variables with exponents up to emax, and a
    dual bound: None (the lcm) or the lcm raised by 1 or 2 everywhere."""
    n = draw(st.integers(1, max_n))
    top = draw(st.integers(1, emax))
    row = st.tuples(*[st.integers(0, top)] * n).filter(any)
    gens = draw(st.lists(row, min_size=min_gens, max_size=max_gens))
    I = MonomialIdeal.from_gens(ring(n), gens)
    if draw(st.booleans()):
        return I, None
    extra = draw(st.tuples(*[st.integers(1, 2)] * n))
    return I, tuple(m + e for m, e in zip(I.lcm_exponent(), extra))


def both_kernels(I, a=None):
    """The dual of I from the grid and from the fold, as sorted tuples."""
    G, layout, _, _ = _dual_plan(I, a)
    return [MonomialIdeal._of_rows(I.ring, rows).gens
            for rows in (_staircase(*layout), _fold(G, layout))]


def check(I, a):
    grid, fold = both_kernels(I, a)
    assert grid == fold
    bound = a or I.lcm_exponent()
    if math.prod(e + 1 for e in bound) <= ORACLE_BOX:
        assert list(grid) == oracles.dual_ideal(list(I.gens), a)
    return grid


@given(ideals_and_bounds())
@RUNS
def test_grid_matches_fold_and_oracle(case):
    check(*case)


@given(ideals_and_bounds(max_n=5, max_gens=1))
@RUNS
def test_grid_of_one_generator(case):
    # the dual of x^g is generated by the powers x_i^(a_i + 1 - g_i)
    I, a = case
    g = I.gens[0]
    bound = a or g
    want = sorted(tuple(bound[j] + 1 - g[j] if j == i else 0
                        for j in range(I.n))
                  for i in range(I.n) if g[i])
    assert list(check(I, a)) == want


@given(ideals_and_bounds(max_n=8, emax=1, max_gens=10))
@RUNS
def test_grid_of_squarefree_ideals(case):
    I, a = case
    grid = check(I, a)
    if a is None:
        edges = [[i for i in range(I.n) if g[i]] for g in I.gens]
        want = sorted(tuple(int(i in t) for i in range(I.n))
                      for t in oracles.transversals(edges, I.n))
        assert list(grid) == want


@given(st.lists(st.integers(0, 69), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(*[st.integers(0, 3)] * 6).filter(any),
                min_size=1, max_size=6))
@RUNS
def test_grid_on_a_wide_ring(used, short):
    # a few used variables among 70: the grid has one axis per used
    # variable, never one per variable of the ring
    k = len(used)
    gens = {tuple(r[used.index(i)] if i in used else 0 for i in range(70))
            for r in short if any(r[:k])}
    if not gens:
        return
    I = MonomialIdeal.from_gens(ring(70), list(gens))
    small = MonomialIdeal.from_gens(ring(k), [tuple(g[i] for i in used)
                                              for g in I.gens])
    grid, fold = both_kernels(I)
    assert grid == fold
    want = sorted(tuple(m[used.index(i)] if i in used else 0
                        for i in range(70))
                  for m in oracles.dual_ideal(list(small.gens)))
    assert list(grid) == want


def test_wide_squarefree_ring_takes_the_grid():
    # the shape of test_squarefree_wide_ring_path: 70 variables, 4 used
    g = lambda *idx: tuple(1 if i in idx else 0 for i in range(70))
    I = MonomialIdeal.from_gens(ring(70), [g(0, 1), g(2, 3)])
    assert _dual_plan(I)[2:] == ("grid", 16)
    assert alexander_dual_ideal(I).gens == tuple(sorted(
        g(i, j) for i in (0, 1) for j in (2, 3)))


def test_more_than_32_used_variables_take_the_fold(monkeypatch):
    # numpy 1.24 arrays have at most 32 axes, so no cell count lets the
    # grid take 33 used variables
    monkeypatch.setattr(hypergraph, "_GRID_PER_GEN", 2 ** 70)
    for n, kernel in ((32, "grid"), (33, "fold")):
        I = MonomialIdeal.from_gens(ring(n), [(1,) * n])
        assert _dual_plan(I)[2:] == (kernel, 2 ** n)
    monkeypatch.undo()
    assert alexander_dual_ideal(I).gens == tuple(sorted(
        tuple(int(j == i) for j in range(33)) for i in range(33)))


def test_grid_cap_bounds_the_dual():
    # the grid holds nothing between generators, so its cap bounds the
    # dual it returns, with the message the fold gives
    I = MonomialIdeal.from_gens(ring(3), [(2, 1, 0), (0, 2, 1), (1, 0, 2),
                                         (1, 1, 1)])
    assert _dual_plan(I)[2] == "grid"
    size = len(alexander_dual_ideal(I).gens)
    assert size > 1
    assert len(alexander_dual_ideal(I, cap=size).gens) == size
    for cap in (0, 1, size - 1):
        with pytest.raises(ResourceLimit) as err:
            alexander_dual_ideal(I, cap=cap)
        assert str(err.value) == f"{size} minimal masks exceed cap {cap}"


def accumulated(shape, marks):
    grid = np.zeros(shape, dtype=bool)
    grid[marks] = True
    for ax in range(len(shape)):
        np.logical_or.accumulate(grid, axis=ax, out=grid)
    return grid


def closed_with(shape, marks, slab):
    """_closed_grid with slabs of at least slab cells ORed slab by slab:
    1 sends every axis to the slab ORs, a huge slab every axis to
    np.logical_or.accumulate."""
    old, hypergraph._SLAB = hypergraph._SLAB, slab
    try:
        return _closed_grid(shape, marks)
    finally:
        hypergraph._SLAB = old


SLABS = (1, hypergraph._SLAB, 10 ** 9)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=10), st.data(),
       st.sampled_from(SLABS))
@RUNS
def test_closed_grid_matches_accumulate(shape, data, slab):
    # both closures, and the mix the default threshold picks, against one
    # logical_or.accumulate per axis, on 1-10 axes, length-1 axes among them
    shape = tuple(shape)
    flat = data.draw(st.lists(st.integers(0, math.prod(shape) - 1),
                              max_size=8))
    marks = np.unravel_index(np.array(flat, dtype=np.int64), shape)
    assert np.array_equal(closed_with(shape, marks, slab),
                          accumulated(shape, marks))


def test_closed_grid_fixed_shapes():
    rng = np.random.default_rng(5)
    for shape in [(1,), (7,), (1, 1), (1, 5), (5, 1), (2, 1, 3, 1), (1,) * 10,
                  (3, 2, 1, 2, 3, 1, 2, 1, 2, 2), (600, 3), (3, 600)]:
        for count in (0, 1, 3):
            marks = tuple(rng.integers(0, k, size=count) for k in shape)
            for slab in SLABS:
                got = closed_with(shape, marks, slab)
                assert got.shape == shape
                assert np.array_equal(got, accumulated(shape, marks))
