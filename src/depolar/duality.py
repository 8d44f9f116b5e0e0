"""Alexander duality of monomial ideals, and dual complexes via depolarization.

alexander_dual_ideal lives beside the Berge fold in hypergraph and is
imported here; this module carries the dual of a depolarization back to
the polarized ring.
"""

import math
import time

import numpy as np

from .complexes import facet_complement_complex, facet_complement_ideal
from .depolarization import Depolarization, depolarize
from .hypergraph import _subsets, alexander_dual_ideal, prefix_words
from .ideals import InputError, MonomialIdeal, ResourceLimit, check_exponent
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


def _blocks_of(mapping):
    if isinstance(mapping, Depolarization):
        return mapping.chains, mapping.source_ring
    if isinstance(mapping, PolarVariableMap):
        return mapping.blocks, mapping.target
    raise InputError("mapping must be a Depolarization or PolarVariableMap")


def repolarize_dual(Jdual, mu, mapping, cartesian_cap=DEFAULT_EXPANSION_CAP):
    """Dual of the polarization, assembled from the dual of a depolarization.

    Every nu in G(Jdual) expands into its fiber of squarefree monomials,
    one slot j_i <= (mu minus nu)_i per i in supp(nu).  Here a fiber
    element is written as its exponent c = mu + 1 - j on supp(nu), so the
    fiber of nu is the box nu <= c <= mu.  The minimal elements of the
    union are found one support S at a time:

    - the boxes of the generators supported on S are concatenated and
      duplicate rows dropped (a row shared by two boxes is one monomial);
    - a row is dropped when a generator nu' supported strictly inside S
      divides it, since the row restricted to supp(nu') then lies in the
      fiber of nu'.

    The survivors are named through the mapping's blocks.  cartesian_cap
    bounds the rows built at once: the summed fiber size of one support.
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
    G = np.array(Jdual.gens, dtype=np.int64)
    top = np.array(mu, dtype=np.int64)
    over = (G > top).any(axis=1)
    if over.any():
        raise InputError(f"dual generator {Jdual.gens[over.argmax()]} "
                         f"exceeds mu {mu}")
    supports, group = np.unique(G > 0, axis=0, return_inverse=True)
    group = group.reshape(-1)
    dtype = np.min_scalar_type(max(mu))
    # slot[i][c] names the polarized variable of exponent c on variable i
    slot = [np.array([0] + list(b[:m])[::-1], dtype=np.int64)
            for b, m in zip(blocks, mu)]
    # variable i gets one slot per level 1..mu_i, and a row sets each block
    # up to its level, so divisibility is containment of masks; the words
    # of level v of variable i are column base[i] + v of prefix
    base = np.cumsum(top + 1) - (top + 1)
    first = np.repeat(np.cumsum(top) - top, top + 1)
    levels = np.arange(len(first)) - np.repeat(base, top + 1)
    prefix = prefix_words(first[:, None], (first + levels)[:, None],
                          max(1, -(-int(top.sum()) // 64)))
    # output rows go out in chunks of about 2^14 entries, so the lists
    # tolist() makes stay small beside the tuples that are kept
    step = max(1, 2 ** 14 // ring.n)
    rows = []
    for s, S in enumerate(supports):
        cols = np.flatnonzero(S)
        c = _fiber_union(G[group == s][:, cols], top[cols], cartesian_cap,
                         dtype)
        # supports strictly inside S
        inside = ~(supports & ~S).any(axis=1)
        inside[s] = False
        lower = G[inside[group]][:, cols]
        if lower.size:
            lower = np.bitwise_or.reduce(prefix[:, base[cols] + lower], axis=2)
        for lo in range(0, len(c), step):
            part = c[lo:lo + step]
            if lower.size:
                words = np.bitwise_or.reduce(prefix[:, base[cols] + part],
                                             axis=2)
                part = part[~_subsets(words, lower)]
            out = np.zeros((len(part), ring.n), dtype=np.uint8)
            arange = np.arange(len(part))
            for k, i in enumerate(cols):
                out[arange, slot[i][part[:, k]]] = 1
            rows.extend(map(tuple, out.tolist()))
    return MonomialIdeal(ring, sorted(rows))


def _fiber_union(own, top, cap, dtype):
    """Distinct rows of the boxes own[g] <= c <= top, as dtype."""
    dims = top - own + 1
    # Python ints: a product past 2^63 must reach the cap check unwrapped
    sizes = [math.prod(d) for d in dims.tolist()]
    total = sum(sizes)
    if total > cap:
        raise ResourceLimit(
            f"fibers on one support have {total} elements, cap {cap}")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    c = np.empty((total, len(top)), dtype=dtype)
    step = 2 ** 12  # rows per pass; bounds the int64 index temporaries
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total))
        owner = np.searchsorted(ends, idx, side="right")
        local = idx - starts[owner]
        for k in range(len(top) - 1, -1, -1):
            local, r = np.divmod(local, dims[owner, k])
            c[lo:lo + step, k] = own[owner, k] + r
    if len(own) > 1:
        c = c[np.lexsort(c.T)]
        c = c[np.r_[True, (c[1:] != c[:-1]).any(axis=1)]]
    return c


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
    mu = D.ideal.lcm_exponent()
    # the rows repolarize_dual builds before it drops duplicates and
    # non-minimal ones: the box mu + 1 - nu on supp(nu) of each generator
    G = np.array(Jdual.gens, dtype=np.int64).reshape(-1, len(mu))
    boxes = np.where(G > 0, np.array(mu) + 1 - G, 1)
    report["fiber_elements"] = sum(map(math.prod, boxes.tolist()))
    final = clock("repolarize", repolarize_dual, Jdual, mu, D, cartesian_cap)
    report["gens_final"] = len(final.gens)
    dual = clock("complements", facet_complement_complex, final)
    return dual, report
