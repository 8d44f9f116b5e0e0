"""Output checks that do not trust the code under test.

Each check returns a list of problems; an empty list means the output
passed.  The checks either recompute a fact apart from depolar (a closed
form from commutative algebra, an order recomputed from the generators)
or test a property every correct output has (each claimed facet or
generator is one, dualizing twice returns the input).  Closed forms are
from Miller-Sturmfels, *Combinatorial Commutative Algebra*, ch. 1 and 5.
"""

from math import comb

import numpy as np

# rows of boolean intermediates per matrix product, about 16 MB of float32
_CELLS = 4_000_000


def mask_of(exps):
    return sum(1 << i for i, e in enumerate(exps) if e)


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit_rows(masks, n):
    out = np.zeros((len(masks), n), dtype=np.float32)
    for r, m in enumerate(masks):
        out[r, bits(m)] = 1
    return out


def _row_chunks(rows, cols):
    step = max(1, _CELLS // max(1, cols))
    return range(0, rows, step), step


def faces_mask(queries, facets, n):
    """Boolean per query mask: it lies inside some facet."""
    if not queries or not facets:
        return np.zeros(len(queries), dtype=bool)
    Q = _bit_rows(queries, n)
    outside = (1 - _bit_rows(facets, n)).T
    out = np.empty(len(queries), dtype=bool)
    starts, step = _row_chunks(len(queries), len(facets))
    for lo in starts:
        out[lo:lo + step] = ((Q[lo:lo + step] @ outside) == 0).any(axis=1)
    return out


def dual_facet_problems(facets, n, dual_facets):
    """Every claimed facet F of the Alexander dual of <facets> is one.

    F is in the dual exactly when its complement is not a face, and it is
    maximal there exactly when adding any vertex v makes the complement of
    F + v a face.
    """
    full = (1 << n) - 1
    queries, expect, owner = [], [], []
    for F in dual_facets:
        comp = full ^ F
        queries.append(comp)
        expect.append(False)
        owner.append(F)
        for v in bits(comp):
            queries.append(comp ^ (1 << v))
            expect.append(True)
            owner.append(F)
    got = faces_mask(queries, list(facets), n)
    bad = np.flatnonzero(got != np.array(expect, dtype=bool))
    probs = []
    for r in bad[:3]:
        what = ("is not in the dual" if not expect[r]
                else "is not maximal in the dual")
        probs.append(f"facet {bits(owner[r])} {what}")
    if len(bad) > 3:
        probs.append(f"... {len(bad)} failed facet tests")
    return probs


def complex_dual_problems(cx, out, redual, power=None):
    """out is the Alexander dual of cx.

    redual dualizes a complex; applying it to out must give back cx.  For
    the facet-complement complex of the polarized m^k in n variables the
    dual has C(n+k-1, n) facets.
    """
    if out.vertices != cx.vertices:
        return ["the dual lives on other vertices than the input"]
    probs = dual_facet_problems(cx.facets, cx.n, out.facets)
    if power is not None:
        n, k = power
        if len(out.facets) != comb(n + k - 1, n):
            probs.append(f"{len(out.facets)} facets, C(n+k-1, n) = "
                         f"{comb(n + k - 1, n)} expected")
    if redual(out) != cx:
        probs.append("dualizing the output again does not return the input")
    return probs


def dual_ideal_problems(gens, a, dual_gens):
    """Every h in dual_gens is a minimal generator of the dual of <gens>.

    The dual with respect to a is the intersection over generators g of
    m^(a minus g) = <x_i^(a_i + 1 - g_i) : g_i > 0>.  In unary slot
    coordinates, h lies in that component iff its slots meet the slots
    (i, a_i + 1 - g_i), so one matrix product tests every pair; h - e_i
    leaves a component iff h met it only in slot (i, h_i).
    """
    n = len(a)
    probs = [f"generator {h} exceeds the bound {a}"
             for h in dual_gens if any(x > y for x, y in zip(h, a))]
    if probs or not dual_gens:
        return probs or ["the dual has no generators"]
    offsets = np.concatenate([[0], np.cumsum(a)[:-1]]).astype(np.int64)
    slots = int(sum(a))
    U = np.zeros((len(dual_gens), slots), dtype=np.float32)
    for r, h in enumerate(dual_gens):
        for i, e in enumerate(h):
            U[r, offsets[i]:offsets[i] + e] = 1
    V = np.zeros((len(gens), slots), dtype=np.float32)
    for r, g in enumerate(gens):
        for i, e in enumerate(g):
            if e:
                V[r, offsets[i] + a[i] - e] = 1
    top = [[(offsets[i] + e - 1) for i, e in enumerate(h) if e]
           for h in dual_gens]
    starts, step = _row_chunks(len(dual_gens), len(gens))
    outside, not_minimal = [], []
    for lo in starts:
        M = U[lo:lo + step] @ V.T
        inside = (M >= 1).all(axis=1)
        reach = ((M == 1).astype(np.float32) @ V) > 0
        for r in range(len(M)):
            h = dual_gens[lo + r]
            if not inside[r]:
                outside.append(h)
            elif not all(reach[r, s] for s in top[lo + r]):
                not_minimal.append(h)
    probs += [f"generator {h} misses an irreducible component"
              for h in outside[:3]]
    probs += [f"generator {h} is not minimal" for h in not_minimal[:3]]
    return probs


def ideal_dual_problems(I, out, redual, power=None, polar=False):
    """out is the Alexander dual of I with respect to the lcm of I.

    With a closed form (m^k: C(n+k-2, n-1) compact generators, C(n+k-1, n)
    for the polarization) the count makes the check complete; otherwise
    redual(out, a) must give back I.
    """
    a = tuple(max(col) for col in zip(*I.gens))
    if out.ring != I.ring:
        return ["the dual lives in another ring than the input"]
    probs = dual_ideal_problems(I.gens, a, out.gens)
    if power is not None:
        n, k = power
        want = comb(n + k - 1, n) if polar else comb(n + k - 2, n - 1)
        if len(out.gens) != want:
            probs.append(f"{len(out.gens)} generators, {want} expected")
    elif redual(out, a) != I:
        probs.append("dualizing the output again does not return the input")
    return probs


def eagon_northcott_totals(n, k):
    """Total Betti numbers of m^k in n variables (a linear resolution)."""
    return [comb(n + k - 1, k + i) * comb(k + i - 1, i) for i in range(n)]


def koszul_totals(n):
    """Total Betti numbers of a complete intersection of n pure powers."""
    return [comb(n, i + 1) for i in range(n)]


def betti_problems(I, table, power=None, ci=None):
    """Betti numbers of I (ideal convention: beta_0 counts generators)."""
    totals = table.totals()
    n = I.n
    probs = []
    if not totals or totals[0] != len(I.gens):
        probs.append(f"beta_0 = {totals[:1]}, {len(I.gens)} generators")
    alt = sum((-1) ** i * t for i, t in enumerate(totals))
    if alt != 1:
        probs.append(f"alternating sum of totals is {alt}, not 1")
    if len(totals) > n:
        probs.append(f"length {len(totals)} exceeds n = {n}")
    want = None
    if power is not None:
        want = eagon_northcott_totals(*power)
    elif ci is not None:
        want = koszul_totals(ci[0])
    if want is not None and totals != want:
        probs.append(f"totals {totals}, {want} expected")
    first = {mu: v for (i, mu), v in table.entries.items() if i == 0}
    if first != {g: 1 for g in I.gens}:
        probs.append("beta_0 is not 1 exactly at each generator")
    for (i, mu) in table.entries:
        below = [g for g in I.gens if all(x <= y for x, y in zip(g, mu))]
        if not below or tuple(map(max, zip(*below))) != tuple(mu):
            probs.append(f"degree {mu} of beta_{i} is not in the lcm lattice")
            break
    return probs


def polarization_gens(I):
    """Own polarization: block i has a_i slots and x_i^e fills the first e."""
    a = [max(col) for col in zip(*I.gens)]
    offsets = [sum(a[:i]) for i in range(len(a))]
    gens = set()
    for g in I.gens:
        vec = [0] * sum(a)
        for i, e in enumerate(g):
            vec[offsets[i]:offsets[i] + e] = [1] * e
        gens.add(tuple(vec))
    return gens


def support_masks(gens):
    """C_i per variable: the intersection of the supports containing i."""
    out = {}
    for g in gens:
        m = mask_of(g)
        for i in bits(m):
            out[i] = out.get(i, m) & m
    return out


def depolarize_problems(J, P, D, chain_count=None):
    """P is the polarization of J and D a depolarization of P along chains.

    Each chain must increase in the support order (C_u inside C_v, equal
    sets in variable order), the chains must cover supp(P) once, and
    filling the first e variables of each chain for every generator of
    D must give back P.
    """
    probs = []
    if set(P.gens) != polarization_gens(J):
        probs.append("P is not the polarization of J")
    C = support_masks(P.gens)
    flat = [i for c in D.chains for i in c]
    if sorted(flat) != sorted(C):
        probs.append("the chains do not cover supp(P) exactly once")
    for c in D.chains:
        for u, v in zip(c, c[1:]):
            if u not in C or v not in C:
                continue
            if C[u] & ~C[v] or (C[u] == C[v] and u > v):
                probs.append(f"chain {list(c)} is out of order at {u}, {v}")
                break
    if D.ideal.n != len(D.chains):
        probs.append("one depolarized variable per chain expected")
    back = set()
    for g in D.ideal.gens:
        vec = [0] * P.n
        for c, e in zip(D.chains, g):
            if e > len(c):
                probs.append(f"exponent {e} exceeds chain {list(c)}")
                return probs
            for i in c[:e]:
                vec[i] = 1
        back.add(tuple(vec))
    if len(D.ideal.gens) != len(P.gens) or back != set(P.gens):
        probs.append("re-polarizing through the chains does not give P")
    if chain_count is not None and len(D.chains) != chain_count:
        probs.append(f"{len(D.chains)} chains, {chain_count} expected")
    return probs
