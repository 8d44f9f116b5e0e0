"""The two ways repolarize_dual writes out one support's rows: the summed
boxes of its generators, and the inside cells of its level grid, against
each other and against the brute-force union of oracles.repolarized_dual.

Both ways are called through the private helpers, and the whole
repolarize_dual is run with its rule sent each way by its constants.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from depolar import duality
from depolar.duality import (_box_rows, _fiber_sizes, _grid_cells,
                             repolarize_dual)
from depolar.ideals import MonomialIdeal, ResourceLimit, Ring
from depolar.polarization import polarize_ideal

RUNS = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def ring(n):
    return Ring([f"x{i}" for i in range(n)])


def chains_of(mu):
    """A Depolarization whose chain i has mu_i variables."""
    n = len(mu)
    _, D = polarize_ideal(MonomialIdeal.from_gens(
        ring(n), [tuple(m * (j == i) for j in range(n))
                  for i, m in enumerate(mu)]))
    return D


@st.composite
def one_support(draw):
    """mu on 1-5 variables and 1-8 generators nu <= mu on one support."""
    n = draw(st.integers(1, 5))
    mu = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    support = draw(st.sets(st.integers(0, n - 1), min_size=1))
    row = st.tuples(*[st.integers(1, m) if i in support else st.just(0)
                      for i, m in enumerate(mu)])
    gens = draw(st.lists(row, min_size=1, max_size=8))
    return mu, MonomialIdeal.from_gens(ring(n), gens)


def named(rows, mu, D):
    """The squarefree monomials of the rows c: copy mu_i - c_i of chain i
    for each c_i > 0."""
    return {frozenset(D.chains[i][mu[i] - c] for i, c in enumerate(row) if c)
            for row in rows.tolist()}


@given(one_support())
@RUNS
def test_grid_rows_are_the_union_of_the_boxes(case):
    mu, Jd = case
    own = Jd._exponents()
    dims, sizes = _fiber_sizes(own, mu)
    boxes = _box_rows(own, dims, sizes, np.int64)
    corner, dim, size = _grid_cells(own, np.array(mu))
    grid = _box_rows(corner, dim, size, np.int64)
    # the cells are disjoint boxes, so no row comes twice
    assert len({tuple(r) for r in grid.tolist()}) == len(grid) == size.sum()
    assert {tuple(r) for r in grid.tolist()} == {tuple(r)
                                                 for r in boxes.tolist()}
    assert len(grid) <= sizes.sum() == len(boxes)
    D = chains_of(mu)
    want = set(oracles.repolarized_dual(Jd.gens, mu, D.chains))
    assert named(grid, mu, D) == want == named(boxes, mu, D)


def repolarized_with(Jd, mu, D, grid):
    """repolarize_dual with its rule sent to the grid or to the boxes."""
    old = duality._CELLS_PER_ROW, duality._ROWS_OFF
    duality._CELLS_PER_ROW, duality._ROWS_OFF = (10 ** 9, 0) if grid \
        else (0, 10 ** 9)
    try:
        return repolarize_dual(Jd, mu, D)
    finally:
        duality._CELLS_PER_ROW, duality._ROWS_OFF = old


@given(st.integers(1, 5), st.lists(
    st.tuples(*[st.integers(0, 4)] * 5).filter(any), min_size=1,
    max_size=12), st.booleans())
@RUNS
def test_repolarize_either_way_matches_the_oracle(n, gens, grid):
    # several supports, each written out from its grid (every support of
    # several generators) or from its boxes (none), and tested against
    # the generators on the supports inside it
    Jd = MonomialIdeal.from_gens(ring(n), [g[:n] for g in gens if any(g[:n])]
                                 or [(1,) * n])
    mu = tuple(max(m, 1) for m in Jd.lcm_exponent())
    D = chains_of(mu)
    want = oracles.repolarized_dual(Jd.gens, mu, D.chains)
    got = repolarized_with(Jd, mu, D, grid)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) == want


def test_grid_axes_are_the_variables_of_several_levels():
    # 33 variables, 31 of them at one level: the grid has 2 axes and 4
    # cells, while numpy 1.24 arrays hold at most 32 axes
    mu = (1,) * 31 + (100, 100)
    gens = [(1,) * 31 + (1, 50), (1,) * 31 + (50, 1)]
    Jd = MonomialIdeal.from_gens(ring(33), gens)
    own = Jd._exponents()
    corner, dim, size = _grid_cells(own, np.array(mu))
    assert len(size) == 3 and size.sum() == 100 * 100 - 49 * 49
    dims, sizes = _fiber_sizes(own, mu)
    assert {tuple(r) for r in _box_rows(corner, dim, size, np.int64)
            .tolist()} == {tuple(r) for r in _box_rows(own, dims, sizes,
                                                       np.int64).tolist()}
    # the default rule takes this grid, 4 cells against 10,200 box rows
    assert duality._CELLS_PER_ROW * (sizes.sum() - duality._ROWS_OFF) >= 4
    D = chains_of(mu)
    got = repolarize_dual(Jd, mu, D)
    assert len(got.gens) == size.sum()
    assert got == repolarized_with(Jd, mu, D, grid=False)
    # 33 variables of two levels each are more axes than a grid may have
    many = MonomialIdeal.from_gens(ring(33), [(1, 2) * 16 + (1,),
                                              (2, 1) * 16 + (2,)])
    assert _grid_cells(many._exponents(), np.full(33, 2)) is None


def test_cap_bounds_the_rows_written():
    # (1, 50) and (50, 1) on mu = (100, 100): 10,200 box rows, written
    # from a grid of 3 inside cells that hold 100^2 - 49^2 = 7,599 rows
    mu = (100, 100)
    D = chains_of(mu)
    Jd = MonomialIdeal.from_gens(ring(2), [(1, 50), (50, 1)])
    got = repolarize_dual(Jd, mu, D, cartesian_cap=8000)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jd.gens, mu, D.chains)
    with pytest.raises(ResourceLimit, match="have 7599 elements, cap 7598"):
        repolarize_dual(Jd, mu, D, cartesian_cap=7598)
    # the cap bounds rows, not cells: with 3 of the grid's 4 cells inside,
    # a cap of 3 lets the grid list its cells and names their 7,599 rows,
    # not the boxes' 10,200; a cap below the inside cells is met before
    # they are listed, and the message gives their count as a least one
    with pytest.raises(ResourceLimit, match="have 7599 elements, cap 3"):
        repolarize_dual(Jd, mu, D, cartesian_cap=3)
    with pytest.raises(ResourceLimit, match="have at least 3 elements, "
                                            "cap 2"):
        repolarize_dual(Jd, mu, D, cartesian_cap=2)
    # with mu = 256 on 8 variables a cell may hold 2^64 rows, past int64,
    # so the support stays on its boxes, whose sizes are Python ints
    mu = (256,) * 8
    Jd = MonomialIdeal.from_gens(ring(8), [(1,) * 7 + (2,), (2,) + (1,) * 7])
    with pytest.raises(ResourceLimit, match=f"have {2 * 255 * 256 ** 7} "
                                            f"elements, cap {10 ** 7}"):
        repolarize_dual(Jd, mu, chains_of(mu))


def test_grid_of_more_cells_than_the_cap_writes_its_rows():
    # (40 - j, 10 + j) for j = 0..30: a grid of 31^2 = 961 cells and 5,456
    # box rows, but 496 inside cells of one row each, the rows written; a
    # cap of 500 bounds those rows, not the grid's cells
    mu = (40, 40)
    Jd = MonomialIdeal.from_gens(ring(2), [(40 - j, 10 + j)
                                           for j in range(31)])
    own = Jd._exponents()
    assert _fiber_sizes(own, mu)[1].sum() == 5456
    size = _grid_cells(own, np.array(mu))[2]
    assert len(size) == size.sum() == 496
    D = chains_of(mu)
    got = repolarize_dual(Jd, mu, D, cartesian_cap=500)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jd.gens, mu, D.chains)


def test_grid_of_more_inside_cells_than_the_cap_is_not_listed(monkeypatch):
    # 55 of the 100 cells are inside, and they hold far more rows: a cap
    # of 54 is met by the inside cells, before any cell or row is listed
    mu = (100, 100)
    Jd = MonomialIdeal.from_gens(ring(2), [(1 + 10 * j, 91 - 10 * j)
                                           for j in range(10)])
    own = Jd._exponents()
    nonzero = np.nonzero

    def unlisted(a):
        assert np.shape(a) != (10, 10), "the grid's cells were listed"
        return nonzero(a)

    def listed(*args):
        raise AssertionError("rows were listed")
    monkeypatch.setattr(np, "nonzero", unlisted)
    monkeypatch.setattr(duality, "_box_rows", listed)
    for call in (lambda: _grid_cells(own, np.array(mu), cap=54),
                 lambda: repolarize_dual(Jd, mu, chains_of(mu), 54)):
        with pytest.raises(ResourceLimit, match="have at least 55 elements, "
                                                "cap 54"):
            call()
    monkeypatch.undo()
    assert len(_grid_cells(own, np.array(mu), cap=55)[2]) == 55


def test_sizes_past_int64_reach_the_cap_unwrapped():
    # with mu = 256 on 8 variables a box may hold 2^64 rows, so the sizes
    # are summed as Python ints; boxes near mu stay small and are built
    mu = (256,) * 8
    D = chains_of(mu)
    near = [(254,) * 7 + (253,), (253,) + (254,) * 7, (250,) * 3 + (0,) * 5,
            (252, 251, 250) + (0,) * 5]
    Jd = MonomialIdeal.from_gens(ring(8), near)
    got = repolarize_dual(Jd, mu, D, cartesian_cap=2 ** 80)
    assert sorted((frozenset(i for i, e in enumerate(g) if e)
                   for g in got.gens), key=oracles.set_key) \
        == oracles.repolarized_dual(Jd.gens, mu, D.chains)
    # one box of 256^8 = 2^64 rows, which int64 would wrap to 0
    far = MonomialIdeal.from_gens(ring(8), [(1,) * 8])
    for cap in (10 ** 7, 2 ** 63):
        with pytest.raises(ResourceLimit, match=f"have {2 ** 64} elements, "
                                                f"cap {cap}"):
            repolarize_dual(far, mu, D, cartesian_cap=cap)
