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
from .hypergraph import (_dual_plan, _subsets, alexander_dual_ideal,
                         prefix_words, rows_to_words, width)
from .ideals import InputError, MonomialIdeal, ResourceLimit, check_exponent

DEFAULT_EXPANSION_CAP = 10 ** 7


def repolarize_dual(Jdual, mu, D, cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Dual of the polarization, assembled from the dual of a depolarization.

    Every nu in G(Jdual) expands into its fiber of squarefree monomials,
    one slot j_i <= (mu minus nu)_i per i in supp(nu).  Here a fiber
    element is written as its exponent c = mu + 1 - j on supp(nu), and 0
    off it, so the fiber of nu is the box nu <= c <= mu.  A row of support
    S is minimal in the union unless a generator nu' supported strictly
    inside S divides it, since the row restricted to supp(nu') then lies
    in the fiber of nu'; rows of one support never nest.

    The generators are taken by support, and consecutive supports form a
    batch whose summed fiber fits one pass of rows; a support with a
    larger fiber is a batch on its own, passed over in chunks.  Per batch:

    - every box is enumerated, and duplicate rows dropped when a support
      holds several generators (a row shared by two boxes is one
      monomial; rows of different supports always differ);
    - each row is tested against the generators whose support lies
      strictly inside some support of the batch, as block-prefix masks
      with a block of mu_i slots per variable, plus a block that only a
      generator on fewer variables than the row's support fits;
    - each survivor is named through the chains of D, a Depolarization
      from depolarize or polarize_ideal, as the mask of its copies.

    cartesian_cap bounds the summed fiber size of one support, checked for
    every support before any row is built.
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
    supports, group = np.unique(G > 0, axis=0, return_inverse=True)
    group = group.reshape(-1)
    order = np.argsort(group, kind="stable")
    G, group = G[order], group[order]
    dims = np.where(G > 0, top + 1 - G, 1)
    # Python ints: a product past 2^63 must reach the cap check unwrapped
    sizes = [math.prod(d) for d in dims.tolist()]
    totals = [0] * len(supports)
    for s, size in zip(group.tolist(), sizes):
        totals[s] += size
    for total in totals:
        if total > cartesian_cap:
            raise ResourceLimit(f"fibers on one support have {total} "
                                f"elements, cap {cartesian_cap}")
    step = 2 ** 14  # rows per pass; bounds the (W, rows, n) temporaries
    cuts, load = [0], 0
    for s, total in enumerate(totals):
        if load and load + total > step:
            cuts.append(s)
            load = 0
        load += total
    cuts.append(len(supports))
    firsts = np.searchsorted(group, cuts).tolist()
    sizes = np.array(sizes, dtype=np.int64)
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
    unused = ~rows_to_words(supports)
    rows = []
    for s0, s1, g0, g1 in zip(cuts, cuts[1:], firsts, firsts[1:]):
        own, dim, size = G[g0:g1], dims[g0:g1], sizes[g0:g1]
        end = np.cumsum(size)
        c = np.empty((end[-1], n), dtype=dtype)
        for lo in range(0, len(c), step):
            idx = np.arange(lo, min(lo + step, len(c)))
            owner = np.searchsorted(end, idx, side="right")
            local = idx - (end - size)[owner]
            for k in range(n - 1, -1, -1):
                local, r = np.divmod(local, dim[owner, k])
                c[lo:lo + step, k] = own[owner, k] + r
        if g1 - g0 > s1 - s0:
            c = c[np.lexsort(c.T)]
            c = c[np.r_[True, (c[1:] != c[:-1]).any(axis=1)]]
        # cover[t]: the supports of the batch that hold support t, less t
        # itself; the generators on a covered support are the only ones a
        # row of the batch can be tested against
        cover = _subsets(unused, unused[:, s0:s1], np.add.reduce)
        cover[s0:s1] -= 1
        lower = G[(cover > 0)[group]]
        if lower.size:
            lower = masks(lower, np.count_nonzero(lower, axis=1))
        for lo in range(0, len(c), step):
            part = c[lo:lo + step]
            if lower.size:
                held = masks(part, np.count_nonzero(part, axis=1) - 1)
                part = part[~_subsets(held, lower)]
            v = chained.take(last - part, mode="clip")
            rows.append(prefix_words(v, v + (part > 0),
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
        report["ms_per_step"][name] = (time.perf_counter() - t0) * 1000.0
        return val

    I = clock("facet_ideal", facet_complement_ideal, cx)
    D = clock("depolarize", depolarize, I, partition)
    report["gens_J"] = D.ideal._count()
    report["dual_kernel"], report["grid_cells"] = _dual_plan(D.ideal)[2:]
    Jdual = clock("dual", alexander_dual_ideal, D.ideal)
    G = Jdual._exponents()
    report["gens_Jdual"] = len(G)
    mu = D.ideal.lcm_exponent()
    # the rows repolarize_dual builds before it drops duplicates and
    # non-minimal ones: the box mu + 1 - nu on supp(nu) of each generator
    boxes = np.where(G > 0, np.array(mu) + 1 - G, 1)
    report["fiber_elements"] = sum(map(math.prod, boxes.tolist()))
    final = clock("repolarize", repolarize_dual, Jdual, mu, D, cartesian_cap)
    report["gens_final"] = final._count()
    dual = clock("complements", facet_complement_complex, final)
    return dual, report
