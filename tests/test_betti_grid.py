"""Betti numbers off the level grid: Koszul patterns, the cone test, the
canonical forms, and graded_betti's map back through the chains.

The grid and the sweep are called through the private helpers, whichever
one the rule in _betti_plan picks for the input.
"""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from depolar import homology, hypergraph
from depolar.depolarization import depolarize
from depolar.families import gen_jknm, gen_power_ideal, gen_variable_powers
from depolar.homology import (_betti_plan, _grid_betti, _sweep_betti,
                              graded_betti)
from depolar.hypergraph import (_closed_grid, cone_free, koszul_patterns,
                                restricted_patterns, words_to_rows)
from depolar.ideals import InputError, MonomialIdeal, ResourceLimit, Ring
from depolar.polarization import polarize_ideal

RUNS = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
CAP = 2 ** 22


def ring(n):
    return Ring([f"x{i}" for i in range(n)])


@st.composite
def ideals(draw, max_n=5, emax=4, max_gens=8):
    n = draw(st.integers(1, max_n))
    row = st.tuples(*[st.integers(0, emax)] * n).filter(any)
    gens = draw(st.lists(row, min_size=1, max_size=max_gens))
    return MonomialIdeal.from_gens(ring(n), gens)


def grid_and_sweep(I, p=None):
    kernel, layout = _betti_plan(I)
    assert kernel == "grid"
    return (_grid_betti(layout, CAP, p),
            _sweep_betti(I, CAP, CAP, p))


@given(ideals(), st.sampled_from([None, 2, 3]))
@RUNS
def test_grid_matches_sweep_and_oracle(I, p):
    # up to 5 variables the Koszul complexes have too few vertices for
    # torsion, so the rational oracle holds over F_2 and F_3
    grid, sweep = grid_and_sweep(I, p)
    assert grid == sweep == oracles.betti_numbers(list(I.gens))
    assert graded_betti(I, p=p).entries == grid


def pattern_of(grid, cell):
    """The Koszul pattern of one cell, bit by bit from its definition."""
    out = 0
    for F in range(2 ** grid.ndim):
        below = tuple(j - (F >> i & 1) for i, j in enumerate(cell))
        if min(below) >= 0 and grid[below]:
            out |= 1 << F
    return out


def pattern_words(pat):
    return [int.from_bytes(pat[:, j].astype("<u8").tobytes(), "little")
            for j in range(pat.shape[1])]


@given(st.lists(st.integers(1, 3), min_size=1, max_size=8),
       st.integers(0, 2 ** 16))
@RUNS
def test_patterns_cones_and_forms_by_definition(shape, seed):
    # up to 8 axes: past 6 axes the patterns take whole-word copies.  The
    # patterns of any bool grid follow their definition; the cone test and
    # the canonical forms take a closed grid, as the ideal's membership is
    rng = np.random.default_rng(seed)
    raw = rng.random(shape) < 0.3
    n = raw.ndim
    cells = list(itertools.product(*map(range, shape)))
    pat = koszul_patterns(raw)
    assert pat.shape == (max(1, 2 ** n // 64), raw.size)
    assert pattern_words(pat) == [pattern_of(raw, c) for c in cells]
    grid = _closed_grid(tuple(shape), np.nonzero(raw))
    pat = koszul_patterns(grid)
    words = pattern_words(pat)
    assert words == [pattern_of(grid, c) for c in cells]
    keep, kept, used = cone_free(pat, n)
    assert np.array_equal(kept, pat[:, keep])
    for j, w in enumerate(words):
        faces = [F for F in range(2 ** n) if w >> F & 1]
        apex = any(all(F | 1 << i in faces for F in faces if not F >> i & 1)
                   for i in range(n))
        assert (j in keep) == (not apex), cells[j]
    forms = restricted_patterns(kept, used)
    for col, j in enumerate(keep.tolist()):
        faces = [F for F in range(2 ** n) if words[j] >> F & 1]
        axes = [i for i in range(n) if any(F >> i & 1 for F in faces)]
        assert used[:, col].tolist() == [i in axes for i in range(n)]
        # bit k of a canonical face is axis axes[k] of the pattern's face
        want = sorted(sum(1 << k for k, i in enumerate(axes) if F >> i & 1)
                      for F in faces)
        got = np.flatnonzero(words_to_rows(forms[:, [col]], 2 ** n)[0])
        assert got.tolist() == want


def relabelled(table, D, n):
    """A table of D.ideal carried to the source ring: pol(a) sets the first
    a_c variables of chain c."""
    out = {}
    for (i, a), v in table.entries.items():
        row = [0] * n
        for chain, e in zip(D.chains, a):
            for var in chain[:e]:
                row[var] = 1
        out[(i, tuple(row))] = v
    return out


@st.composite
def polarized(draw):
    I = draw(ideals(max_n=4, emax=3, max_gens=6))
    return I, polarize_ideal(I)[0]


@given(polarized())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_polarizations_map_back_through_the_chains(case):
    I, P = case
    D = depolarize(P)
    table = graded_betti(P)
    assert table.ring == P.ring
    assert table.entries == relabelled(graded_betti(D.ideal), D, P.n)
    # the squarefree sweep on every polarized variable, no depolarization
    assert table.entries == _sweep_betti(P, CAP, CAP, None)
    assert table.totals() == graded_betti(I).totals()


@pytest.mark.parametrize("J", [gen_jknm(5), gen_power_ideal(3, 4)],
                         ids=["jknm(5)", "m^(3,4)"])
def test_fixed_polarizations_map_back(J):
    P, _ = polarize_ideal(J)
    D = depolarize(P)
    assert len(D.chains) == J.n < P.n
    table = graded_betti(P)
    assert table.entries == relabelled(graded_betti(D.ideal), D, P.n)
    assert table.entries == _sweep_betti(P, CAP, CAP, None)
    assert table.totals() == graded_betti(J).totals()


def test_polarized_jknm6_is_its_relabelled_table():
    # 30 variables, 6 chains: the sweep on the 30 variables hit the face
    # cap; the depolarized grid gives jknm(6)'s table, relabelled
    J = gen_jknm(6)
    P, D = polarize_ideal(J)
    table = graded_betti(P)
    assert table.entries == relabelled(graded_betti(J), D, P.n)
    assert table.totals() == [41, 195, 366, 340, 159, 30]


def test_unit_and_zero_ideals_are_refused():
    with pytest.raises(InputError):
        MonomialIdeal.from_gens(ring(2), [(0, 0), (1, 0)])
    zero = MonomialIdeal.from_gens(ring(2), [])
    with pytest.raises(InputError):
        graded_betti(zero)


def test_complete_intersection_on_ten_axes():
    # 2^10 cells of 16 words: every cell but the lowest is a lattice point
    # with one nonzero Betti number, on 10 distinct canonical forms
    I = gen_variable_powers(10, 2)
    assert _betti_plan(I)[0] == "grid"
    T = graded_betti(I)
    assert T.totals() == [comb(10, i + 1) for i in range(10)]
    assert len(T.entries) == 2 ** 10 - 1
    assert T.entries == _sweep_betti(I, CAP, CAP, None)


def test_complete_intersection_ranks_no_column(monkeypatch):
    # each form of ci(10,2) is the boundary of a simplex; outside the star
    # of a vertex lies only the facet that misses it, with no face below it
    # listed, so no boundary map is ranked (1,012 columns when every form
    # was ranked whole)
    sizes = []
    rank = homology._rank
    monkeypatch.setattr(homology, "_rank",
                        lambda cols, p: sizes.append(len(cols)) or rank(cols, p))
    T = graded_betti(gen_variable_powers(10, 2))
    assert T.totals() == [comb(10, i + 1) for i in range(10)]
    assert sum(sizes) == 0


def test_a_generator_is_the_irrelevant_form(monkeypatch):
    # at the corner of a lone generator K is {emptyset}: its form has c = 0
    # vertices and no star, and is listed whole, the empty face with it
    calls = []
    kernel = homology._face_homology
    monkeypatch.setattr(homology, "_face_homology",
                        lambda faces, p: calls.append(faces) or kernel(faces, p))
    I = MonomialIdeal.from_gens(ring(3), [(2, 1, 0)])
    assert _betti_plan(I)[0] == "grid"
    assert graded_betti(I).entries == {(0, (2, 1, 0)): 1}
    assert calls == [{-1: [0]}]


def test_more_than_six_axes_against_the_oracle():
    # 7 and 8 axes: patterns of 2 and 4 words, copied whole past axis 6
    for n, gens in [(7, [(1, 1, 0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 1, 0),
                         (0, 0, 1, 1, 1, 0, 0), (1, 0, 0, 1, 0, 1, 1)]),
                    (8, [(2, 1, 0, 0, 0, 0, 1, 0), (0, 1, 1, 0, 0, 1, 0, 1),
                         (0, 0, 1, 1, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1, 1, 0),
                         (0, 0, 0, 0, 1, 1, 0, 2)])]:
        I = MonomialIdeal.from_gens(ring(n), gens)
        assert _betti_plan(I)[0] == "grid"
        assert graded_betti(I).entries == oracles.betti_numbers(list(I.gens))


def test_caps_on_the_grid_path():
    # at (1, 1, 2) the Koszul complex is the hollow triangle: 7 faces
    I = MonomialIdeal.from_gens(Ring(["x", "y", "z"]),
                                [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)])
    kernel, layout = _betti_plan(I)
    assert kernel == "grid"
    with pytest.raises(ResourceLimit, match="face count exceeds cap 6"):
        _grid_betti(layout, 6, None)
    assert _grid_betti(layout, 7, None) == oracles.betti_numbers(
        list(I.gens))
    # 12 cells hold 8 lattice points: the grid lists no lattice, so
    # lattice_cap leaves it alone, and bounds the sweep's points
    assert len(I.lcm_lattice()) == 8
    assert graded_betti(I, lattice_cap=1).entries == \
        oracles.betti_numbers(list(I.gens))
    assert _sweep_betti(I, CAP, 8, None) == oracles.betti_numbers(
        list(I.gens))
    with pytest.raises(ResourceLimit, match="lcm lattice exceeds cap 7"):
        _sweep_betti(I, CAP, 7, None)


@given(ideals())
@RUNS
def test_more_cells_than_the_lattice_cap_take_the_grid(I):
    # lattice_cap bounds the sweep's lattice, never the grid's cells
    kernel, (_, _, lo, hi) = _betti_plan(I)
    assert kernel == "grid" and (hi - lo + 1).prod() > 1
    assert graded_betti(I, lattice_cap=1).entries == oracles.betti_numbers(
        list(I.gens))


def test_pattern_words_stay_within_the_byte_bound():
    # jknm(8): 5^8 cells of 4 words, 12.5 MB of the 32 MiB bound; one more
    # variable takes the sweep
    I = gen_jknm(8)
    kernel, (_, _, lo, hi) = _betti_plan(I)
    assert kernel == "grid"
    assert (hi - lo + 1).prod() * 4 * 8 <= hypergraph._GRID_BYTES
    assert _betti_plan(gen_jknm(9))[0] == "sweep"


def test_grid_bytes_keep_grids_below_32_axes():
    # every axis of a budgeted grid has 2 cells or more, so a grid within
    # the budget has fewer than the 32 axes of numpy 1.24's arrays
    assert hypergraph._GRID_BYTES < 2 ** 32
    assert not hypergraph.within_grid_bytes((2,) * 32)


def test_disjoint_supports_depolarize_first():
    # six generators on disjoint 4-variable supports among 128 variables:
    # six chains, the complete intersection of six fourth powers
    R = ring(128)
    I = MonomialIdeal.from_gens(R, [tuple(int(4 * k <= j < 4 * k + 4)
                                          for j in range(128))
                                    for k in range(6)])
    T = graded_betti(I)
    assert T.totals() == [6, 15, 20, 15, 6, 1]
    assert T.entries[(5, (1,) * 24 + (0,) * 104)] == 1
