"""Alexander duality of monomial ideals, and dual complexes via depolarization.

alexander_dual_ideal lives beside its two kernels, the Berge fold and the
staircase grid, in hypergraph and is imported here; this module carries
the dual of a depolarization back to the polarized ring.
"""

import math
import time

import numpy as np

from .complexes import facet_complement_complex, facet_complement_ideal
from .depolarization import Depolarization, depolarize
from .hypergraph import (_closed_grid, _column_keys, _dual_plan, _subsets,
                         alexander_dual_ideal, level_slots, prefix_words,
                         rows_to_words, width, within_grid_bytes)
from .ideals import InputError, MonomialIdeal, ResourceLimit, check_exponent

DEFAULT_EXPANSION_CAP = 10 ** 7
# rows per pass of the divisibility test; bounds the (W, rows, n) temporaries
_STEP = 2 ** 14
# survivors named in one pass; bounds the (rows, n) int64 temporaries
_NAME_STEP = 2 ** 10


def _fiber_sizes(G, mu):
    """Per-variable box sizes (mu + 1 - nu on supp(nu), 1 off it) of the
    rows nu of G, and each box's size, their product.  A box holds at most
    prod(mu) rows, so the sizes are int64 when no sum of them can reach
    2^62, and Python ints otherwise, for the cap check to see unwrapped."""
    dims = np.where(G > 0, np.array(mu) + 1 - G, 1)
    if len(G) * math.prod(max(m, 1) for m in mu) < 2 ** 62:
        return dims, dims.prod(axis=1)
    return dims, np.array([math.prod(d) for d in dims.tolist()], dtype=object)


def _grid_cells(own, top, budget=None, cap=None):
    """The union of the boxes own <= c <= top of the rows own, all on one
    support, as disjoint boxes: the lower corners, per-variable sizes and
    sizes of the inside cells of their level grid, or None when the grid
    has more than budget cells or its bool array is over _GRID_BYTES.  Each
    variable of the support on which own takes several levels is an axis
    cut at those levels, the last cell up to top; on a variable of one
    level every box runs from that level to top.  A cell lies wholly in
    the union, when some row's cell lies at or below it on every axis, or
    wholly outside it.  cap bounds the rows written, one or more per inside
    cell, so more inside cells than cap raise ResourceLimit unlisted."""
    slot, level, lo, hi = level_slots(own, own > 0)
    axes = np.flatnonzero(hi - lo > 1)
    shape = tuple((hi - lo)[axes].tolist())
    if not within_grid_bytes(shape) or (budget is not None
                                        and math.prod(shape) > budget):
        return None
    # a single row has a grid of no axes and one cell
    grid = np.atleast_1d(_closed_grid(shape,
                                      tuple((slot[:, axes] - lo[axes]).T)))
    inside = np.count_nonzero(grid)
    if cap is not None and inside > cap:
        raise ResourceLimit(f"fibers on one support have at least {inside} "
                            f"elements, cap {cap}")
    cells = np.nonzero(grid)
    # off the axes every box runs from own's one level to top, or is 0
    corner = np.repeat(own[:1], len(cells[0]), axis=0)
    dim = np.repeat(np.where(own[:1] > 0, top + 1 - own[:1], 1),
                    len(cells[0]), axis=0)
    # the exponent just past each slot's cell: the next level in its block,
    # top + 1 past the block's last
    past = np.append(level[1:], 0)
    past[hi[axes] - 1] = top[axes] + 1
    for ax, cell in zip(axes, cells):
        at = lo[ax] + cell
        corner[:, ax] = level[at]
        dim[:, ax] = past[at] - level[at]
    return corner, dim, dim.prod(axis=1)


def _box_rows(corner, dim, size, dtype):
    """The rows corner <= c < corner + dim of each box in turn, the last
    variable running fastest, as a (sum(size), n) array of dtype."""
    end = np.cumsum(size)
    c = np.empty((end[-1], corner.shape[1]), dtype=dtype)
    for lo in range(0, len(c), _STEP):
        idx = np.arange(lo, min(lo + _STEP, len(c)))
        at = np.searchsorted(end, idx, side="right")
        local = idx - (end - size)[at]
        for k in range(corner.shape[1] - 1, -1, -1):
            local, r = np.divmod(local, dim[at, k])
            c[lo:lo + _STEP, k] = corner[at, k] + r
    return c


# A support with several generators is written out from its level grid
# when cells <= _CELLS_PER_ROW * (rows - _ROWS_OFF), rows its summed box
# rows.  On the round trip's supports (2-vCPU VM, numpy 2.4.6, min of 30
# interleaved calls) the grid and the boxes tied near 10 cells a row, and
# a support of 2 generators and 4 cells tied near 2,000 rows, the cost of
# setting up its grid.
_CELLS_PER_ROW = 10
_ROWS_OFF = 2000


def repolarize_dual(Jdual, mu, D, cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Dual of the polarization, assembled from the dual of a depolarization.

    Every nu in G(Jdual) expands into its fiber of squarefree monomials,
    one slot j_i <= (mu minus nu)_i per i in supp(nu).  Here a fiber
    element is written as its exponent c = mu + 1 - j on supp(nu), and 0
    off it, so the fiber of nu is the box nu <= c <= mu.  A row of support
    S is minimal in the union unless a generator nu' supported strictly
    inside S divides it, since the row restricted to supp(nu') then lies
    in the fiber of nu'; rows of one support never nest.

    The generators are taken by support.  The boxes of one support overlap
    when it holds several generators.  Consecutive supports form a batch
    whose box rows fit one pass; a larger support is a batch on its own,
    passed over in chunks.  A support of several generators and more than
    _ROWS_OFF box rows is a batch on its own too, written out from the
    inside cells of its level grid (_grid_cells), disjoint boxes that hold
    each row once, when the cells are few next to its box rows
    (_CELLS_PER_ROW) and its bool grid fits _GRID_BYTES.  Per batch:

    - its rows are enumerated from the grid's cells or from the boxes,
      and duplicate rows dropped by one lexsort when a support written
      from its boxes holds several generators (rows of different
      supports always differ);
    - each row is tested against the generators whose support lies
      strictly inside some support of the batch, as block-prefix masks
      with a block of mu_i slots per variable, plus a block that only a
      generator on fewer variables than the row's support fits;
    - each survivor is named through the chains of D, a Depolarization
      from depolarize or polarize_ideal, as the mask of its copies, in
      passes of _NAME_STEP rows.

    cartesian_cap bounds the rows one support writes, its cells' or its
    boxes': before a grid's inside cells are listed, from their count, and
    before a batch's rows are built.
    """
    if Jdual.is_zero:
        raise InputError("cannot expand the zero ideal")
    if not isinstance(D, Depolarization):
        raise InputError("the variable map must be a Depolarization")
    mu = check_exponent(mu, Jdual.n)
    misfit = D.misfit(mu)
    if misfit:
        raise InputError(f"bijection arity mismatch: {misfit}")
    G = Jdual._exponents()
    top = np.array(mu, dtype=np.int64)
    over = (G > top).any(axis=1)
    if over.any():
        raise InputError(f"dual generator {min(map(tuple, G[over].tolist()))} "
                         f"exceeds mu {mu}")
    n = len(mu)
    # the generators by support, each support's first generator flagged
    words = rows_to_words(G > 0)
    key = _column_keys(words)
    order = np.argsort(key, kind="stable")
    G, key = G[order], key[order]
    first = np.r_[True, key[1:] != key[:-1]]
    firsts = np.append(np.flatnonzero(first), len(G))
    dims, sizes = _fiber_sizes(G, mu)
    totals = np.add.reduceat(sizes, firsts[:-1])
    # a support that may take its grid fills a pass, so it is a batch on
    # its own; the cells' int64 sizes could wrap where the boxes' need ints
    alone = ((np.diff(firsts) > 1) & (totals > _ROWS_OFF)
             & (sizes.dtype != object))
    cuts, load = [0], 0
    for s, total in enumerate(np.where(alone, _STEP, totals).tolist()):
        if load and load + total > _STEP:
            cuts.append(s)
            load = 0
        load += total
    cuts.append(len(totals))
    dtype = np.min_scalar_type(max(mu))
    # variable i gets a block of mu_i slots and a row sets each block up to
    # its level, so divisibility is containment.  Block n holds n - 1 slots:
    # a row of support S sets |S| - 1 and a generator on T sets |T|, so it
    # fits the row only when T is smaller.
    blocks = np.append(top, n - 1)
    start = np.cumsum(blocks) - blocks
    W = width(int(blocks.sum()))

    def masks(exps, size):
        return prefix_words(start, start + np.column_stack([exps, size]), W)
    # exponent c > 0 on variable i names copy mu_i - c of chain i, entry
    # last[i] - c of the chains laid end to end; c = 0 names no variable
    chained = np.array([v for ch in D.chains for v in ch], dtype=np.int64)
    last = np.cumsum([0] + [len(ch) for ch in D.chains[:-1]]) + top
    # support t lies inside support s when ~s lies inside ~t
    unused = ~words[:, order[first]]
    rows = []
    for s0, s1 in zip(cuts, cuts[1:]):
        b0, b1 = firsts[s0], firsts[s1]
        box = alone[s0] and _grid_cells(G[b0:b1], top, _CELLS_PER_ROW * (
            int(totals[s0]) - _ROWS_OFF), cartesian_cap)
        corner, dim, size = box or (G[b0:b1], dims[b0:b1], sizes[b0:b1])
        most = size.sum() if box else totals[s0:s1].max()
        if most > cartesian_cap:
            raise ResourceLimit(f"fibers on one support have {most} "
                                f"elements, cap {cartesian_cap}")
        c = _box_rows(corner, dim, np.asarray(size, dtype=np.int64), dtype)
        if not box and b1 - b0 > s1 - s0:
            c = c[np.lexsort(c.T)]
            c = c[np.r_[True, (c[1:] != c[:-1]).any(axis=1)]]
        # cover[t]: the supports of the batch that hold support t, less t
        # itself; the generators on a covered support are the only ones a
        # row of the batch can be tested against
        cover = _subsets(unused, unused[:, s0:s1], np.add.reduce)
        cover[s0:s1] -= 1
        lower = G[np.repeat(cover > 0, np.diff(firsts))]
        if lower.size:
            lower = masks(lower, np.count_nonzero(lower, axis=1))
        for lo in range(0, len(c), _STEP):
            part = c[lo:lo + _STEP]
            if lower.size:
                held = masks(part, np.count_nonzero(part, axis=1) - 1)
                part = part[~_subsets(held, lower)]
            for lo2 in range(0, len(part), _NAME_STEP):
                named = part[lo2:lo2 + _NAME_STEP]
                v = chained.take(last - named, mode="clip")
                rows.append(prefix_words(v, v + (named > 0),
                                         width(D.source_ring.n)))
    # rows of two supports differ; the survivors of one are distinct, minimal
    return MonomialIdeal._of_words(D.source_ring,
                                   np.concatenate(rows, axis=1))


def dual_complex_via_depolarization(cx, partition=None,
                                    cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Facets of the Alexander dual through the depolarized dual ideal.

    Pipeline: facet-complement ideal, depolarize along a chain partition,
    dualize the small ideal, re-polarize its dual, complement the supports.
    Returns the dual complex and a step report, which names the kernel
    alexander_dual_ideal takes on the small ideal and its grid's cells.
    """
    report = {"ms_per_step": {}}

    def clock(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        val = fn(*args, **kwargs)
        report["ms_per_step"][name] = (report["ms_per_step"].get(name, 0.0)
                                       + (time.perf_counter() - t0) * 1000.0)
        return val

    I = clock("facet_ideal", facet_complement_ideal, cx)
    D = clock("depolarize", depolarize, I, partition)
    report["gens_J"] = D.ideal._count()
    plan = clock("dual", _dual_plan, D.ideal)
    report["dual_kernel"], report["grid_cells"] = plan[2:]
    Jdual = clock("dual", alexander_dual_ideal, D.ideal, _plan=plan)
    G = Jdual._exponents()
    report["gens_Jdual"] = len(G)
    mu = D.ideal.lcm_exponent()
    # the summed box mu + 1 - nu on supp(nu) of each generator; a support
    # written from its grid writes fewer rows, and the cap bounds those
    report["fiber_elements"] = int(_fiber_sizes(G, mu)[1].sum())
    final = clock("repolarize", repolarize_dual, Jdual, mu, D, cartesian_cap)
    report["gens_final"] = final._count()
    dual = clock("complements", facet_complement_complex, final)
    return dual, report
