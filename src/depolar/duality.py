"""Alexander duality of monomial ideals, and dual complexes via depolarization."""

import itertools
import time

import numpy as np

from .complexes import SimplicialComplex, facet_complement_ideal
from .depolarization import Depolarization, depolarize
from .hypergraph import berge_fold, block_popcounts
from .ideals import (InputError, MonomialIdeal, ResourceLimit, check_exponent,
                     divides, support)
from .polarization import PolarVariableMap

DEFAULT_EXPANSION_CAP = 10 ** 7


def a_minus(a, nu):
    """(a minus nu)_i = a_i + 1 - nu_i on supp(nu), zero elsewhere."""
    n = len(a)
    nu = check_exponent(nu, n)
    a = check_exponent(a, n)
    out = []
    for top, e in zip(a, nu):
        if e > top:
            raise InputError(f"{nu} exceeds the dual bound {a}")
        out.append(top + 1 - e if e > 0 else 0)
    return tuple(out)


def alexander_dual_ideal(I, a=None, cap=None):
    """Minimal generators of the Alexander dual of I with respect to a.

    a defaults to the lcm exponent of I and must dominate it.  The dual is
    the intersection of the irreducible ideals m^(a minus g); g's ideal
    holds t when t_i >= a_i + 1 - g_i for some i in supp(g).  Variable i
    gets one slot per distinct level its generators ask for, at most a_i,
    and t sets the slots of block i up to t_i.  hypergraph.berge_fold
    folds the generators in, in colex order, on W-word bitsets.
    """
    if I.is_zero:
        raise InputError("the zero ideal dualizes to the unit ideal")
    mu = I.lcm_exponent()
    if a is None:
        a = mu
    else:
        a = check_exponent(a, I.n)
        if not divides(mu, a):
            raise InputError(f"dual bound {a} must dominate {mu}")
    # colex order; on squarefree generators it is the ascending mask order
    # transversal_masks folds in
    G = np.array(sorted(I.gens, key=lambda g: g[::-1]), dtype=np.int64)
    used = G > 0
    # key = variable * base + level; the sorted used keys number the slots
    base = max(a) + 2
    key = np.arange(I.n) * base + (np.array(a, dtype=np.int64) + 1 - G)
    keys = np.unique(key[used])
    block, level = np.divmod(keys, base)
    T = berge_fold(np.where(used, np.searchsorted(keys, key), -1),
                   np.searchsorted(block, block), cap)
    lo = np.searchsorted(block, np.arange(I.n))
    hi = np.searchsorted(block, np.arange(I.n), side="right")
    filled = block_popcounts(T, lo.tolist(), hi.tolist())
    # the top slot set in block i holds t_i
    exps = np.where(filled > 0, level[lo + filled - 1], 0)
    return MonomialIdeal(I.ring, sorted(map(tuple, exps.tolist())))


def expansion_set(nu, mu):
    """The raw fiber of a dual generator: all 0/1 vectors in the polarized
    ring of mu choosing one slot j_i <= (mu minus nu)_i per i in supp(nu)."""
    r = a_minus(mu, nu)
    offsets, start = [], 0
    for size in mu:
        offsets.append(start)
        start += size
    supp = list(support(nu))
    out = []
    for choice in itertools.product(*[range(r[i]) for i in supp]):
        vec = [0] * start
        for i, j in zip(supp, choice):
            vec[offsets[i] + j] = 1
        out.append(tuple(vec))
    return out


def _blocks_of(mapping):
    if isinstance(mapping, Depolarization):
        return mapping.chains, mapping.source_ring
    if isinstance(mapping, PolarVariableMap):
        return mapping.blocks, mapping.target
    raise InputError("mapping must be a Depolarization or PolarVariableMap")


def repolarize_dual(Jdual, mu, mapping, cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Dual of the polarization, assembled from the dual of a depolarization.

    Every nu in G(Jdual) expands into its fiber of squarefree monomials;
    the minimal elements of the union are found without materializing the
    redundant whole, then named through the mapping's blocks.

    A fiber element of nu is non-minimal exactly when some other dual
    generator nu' supported inside supp(nu) admits the same slot choices,
    i.e. j_i <= (mu minus nu')_i on supp(nu'); equal supports only count
    in one direction to keep one copy of duplicated monomials.
    """
    if Jdual.is_zero:
        raise InputError("cannot expand the zero ideal")
    blocks, ring = _blocks_of(mapping)
    if len(blocks) != Jdual.n:
        raise InputError("bijection arity mismatch: one block per variable")
    mu = check_exponent(mu, Jdual.n)
    for m, b in zip(mu, blocks):
        if m > len(b):
            raise InputError("bijection arity mismatch: block shorter than mu")
    for nu in Jdual.gens:
        if not divides(nu, mu):
            raise InputError(f"dual generator {nu} exceeds mu {mu}")
    order = sorted(range(len(Jdual.gens)),
                   key=lambda k: (len(support(Jdual.gens[k])), k))
    rank = {k: r for r, k in enumerate(order)}
    supports = [frozenset(support(g)) for g in Jdual.gens]
    limits = [a_minus(mu, g) for g in Jdual.gens]
    rows = []
    for k, nu in enumerate(Jdual.gens):
        supp = sorted(supports[k])
        col = {i: c for c, i in enumerate(supp)}
        sizes = [limits[k][i] for i in supp]
        total = 1
        for x in sizes:
            total *= x
        if total > cartesian_cap:
            raise ResourceLimit(
                f"fiber of {nu} has {total} elements, cap {cartesian_cap}")
        killers = [k2 for k2 in range(len(Jdual.gens))
                   if k2 != k and supports[k2] <= supports[k]
                   and (supports[k2] < supports[k] or rank[k2] < rank[k])]
        killers.sort(key=lambda k2: len(supports[k2]))
        step = max(1, 2 ** 19 // max(1, len(supp)))
        for lo in range(0, total, step):
            span = np.arange(lo, min(lo + step, total))
            grid = np.stack(np.unravel_index(span, sizes), axis=1) + 1
            alive = np.ones(len(grid), dtype=bool)
            for k2 in killers:
                cols = [col[i] for i in sorted(supports[k2])]
                lims = [limits[k2][i] for i in sorted(supports[k2])]
                alive &= ~(grid[:, cols] <= np.array(lims)).all(axis=1)
                if not alive.any():
                    break
            grid = grid[alive]
            if not len(grid):
                continue
            out = np.zeros((len(grid), ring.n), dtype=np.int64)
            arange = np.arange(len(grid))
            for i in supp:
                idx = np.array(blocks[i], dtype=np.int64)[grid[:, col[i]] - 1]
                out[arange, idx] = 1
            rows.extend(map(tuple, out.tolist()))
    return MonomialIdeal(ring, sorted(rows))


def dual_complex_via_depolarization(cx, partition=None,
                                    cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Facets of the Alexander dual through the depolarized dual ideal.

    Pipeline: facet-complement ideal, depolarize along a chain partition,
    dualize the small ideal, re-polarize its dual, complement the supports.
    Returns the dual complex and a step report.
    """
    report = {"ms_per_step": {}}

    def clock(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        val = fn(*args, **kwargs)
        report["ms_per_step"][name] = (time.perf_counter() - t0) * 1000.0
        return val

    I = clock("facet_ideal", facet_complement_ideal, cx)
    D = clock("depolarize", depolarize, I, partition)
    report["gens_J"] = len(D.ideal.gens)
    Jdual = clock("dual", alexander_dual_ideal, D.ideal)
    report["gens_Jdual"] = len(Jdual.gens)
    final = clock("repolarize", repolarize_dual, Jdual,
                  D.ideal.lcm_exponent(), D, cartesian_cap)
    report["gens_final"] = len(final.gens)
    t0 = time.perf_counter()
    full = (1 << cx.n) - 1
    facets = sorted(full ^ sum(1 << i for i in support(g)) for g in final.gens)
    dual = SimplicialComplex(cx.vertices, facets)
    report["ms_per_step"]["complements"] = (time.perf_counter() - t0) * 1000.0
    return dual, report
