"""The Berge fold behind alexander_dual_ideal, on seeded random inputs.

An input is a sum of small ideals on disjoint sets of variables, spread
over the ring at random, so the fold runs on 60 to 140 slots (one to three
words) while every part stays small enough for a brute-force oracle.  The
dual of such a sum is the product of the duals of its parts, and the
minimal transversals of a disjoint union of edge sets are the unions of
one minimal transversal of each part.
"""

import itertools
import random

import pytest

import oracles
from depolar.hypergraph import _dual_plan, _fold, alexander_dual_ideal
from depolar.ideals import MonomialIdeal, ResourceLimit, Ring

# slot counts that give one, two and three words
BANDS = [(61, 64), (66, 128), (130, 140)]


def squarefree_part(rng, nverts):
    """Minimal 0/1 rows of a random edge set on nverts vertices: their
    slots are all first of their blocks."""
    edges = set()
    while len(edges) < rng.randint(2, 6):
        edge = [v for v in range(nverts) if rng.random() < 0.4]
        if edge:
            edges.add(tuple(edge))
    return oracles.minimal_elements(oracles.edge_rows(edges, nverts))


def staircase_part(steps, rng):
    """steps generators on two variables, every exponent distinct: 2 steps
    slots, and all but one row start inside a block."""
    top = steps + rng.randint(0, 8)
    xs = sorted(rng.sample(range(1, top + 1), steps))
    ys = sorted(rng.sample(range(1, top + 1), steps), reverse=True)
    return list(zip(xs, ys))


def power_part(rng, n):
    """Minimal rows of random exponents up to 4 on n variables."""
    gens = set()
    while len(gens) < rng.randint(2, 6):
        g = tuple(rng.randint(0, 4) for _ in range(n))
        if any(g):
            gens.add(g)
    return oracles.minimal_elements(gens)


def slots(rows):
    """The fold's slot count for the dual of rows: one per distinct nonzero
    exponent of each variable."""
    return sum(len(set(col) - {0}) for col in zip(*rows))


def fill(parts, target):
    """Parts x^1 of one variable each until the slots reach target."""
    return parts + [[(1,)]] * (target - sum(map(slots, parts)))


def embed(rng, parts):
    """The sum of the parts (lists of exponent rows on their own
    variables) on one ring, each part's variables scattered over it, and
    per part its rows and its positions there."""
    n = sum(len(rows[0]) for rows in parts)
    order = rng.sample(range(n), n)
    placed, gens = [], []
    for rows in parts:
        where, order = order[:len(rows[0])], order[len(rows[0]):]
        placed.append((rows, where))
        for g in rows:
            row = [0] * n
            for i, e in zip(where, g):
                row[i] = e
            gens.append(tuple(row))
    ring = Ring([f"x{i}" for i in range(n)])
    return MonomialIdeal.from_gens(ring, gens), placed


def product(n, factors):
    """Sorted sums of one embedded row from each of the factors, which are
    (rows, positions) pairs."""
    out = []
    for pick in itertools.product(*(rows for rows, _ in factors)):
        row = [0] * n
        for g, (_, where) in zip(pick, factors):
            for i, e in zip(where, g):
                row[i] += e
        out.append(tuple(row))
    return sorted(out)


def check(rng, parts, dual_of_part):
    """Fold the sum of the parts and compare with the product of the
    parts' oracle duals; returns the word count."""
    I, placed = embed(rng, parts)
    count = slots(I.gens)
    assert BANDS[0][0] - 1 <= count <= BANDS[-1][1]
    want = product(I.n, [(dual_of_part(rows), where)
                         for rows, where in placed])
    assert list(alexander_dual_ideal(I).gens) == want
    return -(-count // 64)


def transversal_rows(rows):
    """Minimal transversals of the edges of 0/1 rows, as 0/1 rows."""
    n = len(rows[0])
    edges = [[v for v in range(n) if g[v]] for g in rows]
    return [tuple(int(v in t) for v in range(n))
            for t in oracles.transversals(edges, n)]


def cases(seed):
    rng = random.Random(seed)
    for _ in range(4):
        for lo, hi in BANDS:
            yield rng, rng.randint(lo, hi)


def test_fold_squarefree_against_transversals():
    words = set()
    for rng, target in cases(1201):
        parts = [squarefree_part(rng, rng.randint(5, 9)) for _ in range(2)]
        words.add(check(rng, fill(parts, target), transversal_rows))
    assert words == {1, 2, 3}


def test_fold_non_squarefree_against_dual_ideal():
    words = set()
    for rng, target in cases(1202):
        parts = [power_part(rng, 3)]
        steps = (target - slots(parts[0])) // 2
        parts += [staircase_part(min(steps, 35), rng)]
        if steps > 35:
            parts += [staircase_part(steps - 35, rng)]
        words.add(check(rng, parts, oracles.dual_ideal))
    assert words == {1, 2, 3}


def test_fold_mixed_rows_against_dual_ideal():
    # rows of first slots only (the squarefree part and the x^1 parts)
    # next to rows that start inside their blocks
    words = set()
    for rng, target in cases(1203):
        parts = [squarefree_part(rng, rng.randint(5, 8)), power_part(rng, 3)]
        room = target - sum(map(slots, parts))
        parts += [staircase_part(rng.randint(room // 4, min(room // 2, 35)),
                                 rng)]
        words.add(check(rng, fill(parts, target), oracles.dual_ideal))
    assert words == {1, 2, 3}


def state_sizes(I):
    """The fold's state size after each row: the number of generators of
    the dual, with respect to the lcm of I, of the first j generators of I
    in colex order, for j = 1, 2, ..."""
    gens = sorted(I.gens, key=lambda g: g[::-1])
    a = I.lcm_exponent()
    return [len(oracles.dual_ideal(gens[:j], a))
            for j in range(1, len(gens) + 1)]


def fold_rows(I, cap):
    """The fold's dual rows of I, whichever kernel the rule picks for I."""
    G, layout, _, _ = _dual_plan(I)
    return _fold(G, *layout, cap)


@pytest.mark.parametrize("seed", [1204, 1205])
def test_fold_cap_fires_at_the_first_row_past_it(seed):
    # the fold holds the dual of the rows so far after every row, so a cap
    # fires at the first row whose dual is larger than it, and names the
    # size of that dual.  The rule sends these small inputs to the grid,
    # so the fold is called on its own.
    rng = random.Random(seed)
    edges = squarefree_part(rng, 9) + squarefree_part(rng, 9)
    powers = power_part(rng, 3) + power_part(rng, 3)
    for I in (MonomialIdeal.from_gens(Ring([f"x{i}" for i in range(9)]), edges),
              MonomialIdeal.from_gens(Ring(["x", "y", "z"]), powers)):
        sizes = state_sizes(I)
        assert len(fold_rows(I, cap=max(sizes))) == sizes[-1]
        for cap in sorted(set(sizes))[:-1]:
            first = next(s for s in sizes if s > cap)
            with pytest.raises(ResourceLimit) as err:
                fold_rows(I, cap=cap)
            assert str(err.value) == f"{first} minimal masks exceed cap {cap}"
