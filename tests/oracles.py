"""Brute force reference implementations used to freeze expected values.

Everything here favors obviousness over speed and is kept independent of the
package under test, so disagreements point at real bugs.  The one exception
is ordered_support_poset, which builds the package's poset type for the
tests that drive the chain partition.
"""

import itertools
from fractions import Fraction

from depolar.depolarization import SupportPoset
from depolar.ideals import InputError


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_below(bound):
    return itertools.product(*[range(b + 1) for b in bound])


def minimal_elements(monos):
    monos = sorted(set(monos))
    return [m for m in monos
            if not any(o != m and divides(o, m) for o in monos)]


def members(gens, bound):
    return [m for m in monomials_below(bound)
            if any(divides(g, m) for g in gens)]


def lcm_closure(gens):
    points = set()
    for r in range(1, len(gens) + 1):
        for sub in itertools.combinations(gens, r):
            m = sub[0]
            for g in sub[1:]:
                m = lcm(m, g)
            points.add(m)
    return sorted(points)


def set_key(s):
    return (len(s), tuple(sorted(s)))


def maximal_sets(sets):
    sets = set(map(frozenset, sets))
    return sorted((s for s in sets if not any(s < t for t in sets)), key=set_key)


def minimal_sets(sets):
    sets = set(map(frozenset, sets))
    return sorted((s for s in sets if not any(t < s for t in sets)), key=set_key)


def koszul_faces(gens, mu):
    """All sets sigma inside supp(mu) with x^mu / x_sigma in the ideal."""
    n = len(mu)
    supp = [i for i in range(n) if mu[i] > 0]
    faces = []
    for r in range(len(supp) + 1):
        for sigma in itertools.combinations(supp, r):
            q = tuple(mu[i] - (1 if i in sigma else 0) for i in range(n))
            if any(divides(g, q) for g in gens):
                faces.append(frozenset(sigma))
    return faces


def expanded_koszul_facets(gens):
    """(slots, facets) of the expanded Koszul complex at the lcm mu.

    Variable i gets ms_i = mu_i - nu_i slots (nu the gcd), numbered block
    by block, and generator m gives the facet of the last (mu - m)_i slots
    of every block.
    """
    n = len(gens[0])
    mu = [max(g[i] for g in gens) for i in range(n)]
    ms = [mu[i] - min(g[i] for g in gens) for i in range(n)]
    offsets = list(itertools.accumulate(ms, initial=0))
    facets = []
    for g in gens:
        facet = set()
        for i in range(n):
            for j in range(ms[i] - (mu[i] - g[i]), ms[i]):
                facet.add(offsets[i] + j)
        facets.append(facet)
    return offsets[-1], maximal_sets(facets)


def transversals(edges, nverts):
    """Minimal vertex sets meeting every edge."""
    edges = [frozenset(e) for e in edges]
    hitting = []
    for r in range(nverts + 1):
        for sub in itertools.combinations(range(nverts), r):
            s = frozenset(sub)
            if all(s & e for e in edges):
                hitting.append(s)
    return minimal_sets(hitting)


def edge_rows(edges, nverts):
    """0/1 exponent rows of the edges, one column per vertex."""
    return [tuple(int(v in e) for v in range(nverts)) for e in edges]


def supports(gens):
    return sorted((frozenset(i for i, e in enumerate(g) if e) for g in gens),
                  key=set_key)


def a_minus(a, nu):
    return tuple(a[i] + 1 - nu[i] if nu[i] > 0 else 0 for i in range(len(a)))


def expansion_set(nu, mu):
    """The raw fiber of a dual generator: all 0/1 vectors in the polarized
    ring of mu choosing one slot j_i <= (mu minus nu)_i per i in supp(nu)."""
    r = a_minus(mu, nu)
    offsets = list(itertools.accumulate(mu, initial=0))
    supp = [i for i in range(len(mu)) if nu[i] > 0]
    out = []
    for choice in itertools.product(*[range(r[i]) for i in supp]):
        vec = [0] * offsets[-1]
        for i, j in zip(supp, choice):
            vec[offsets[i] + j] = 1
        out.append(tuple(vec))
    return out


def dual_ideal(gens, a=None):
    """Minimal generators of the Alexander dual with respect to a."""
    if a is None:
        a = tuple(max(g[i] for g in gens) for i in range(len(gens[0])))
    duals = [a_minus(a, g) for g in gens]
    inside = {m for m in monomials_below(a)
              if all(any(v[i] > 0 and m[i] >= v[i] for i in range(len(a)))
                     for v in duals)}
    # inside is closed upward within the box, so m is minimal exactly when
    # no single step down stays inside
    return sorted(m for m in inside
                  if not any(m[i] and m[:i] + (m[i] - 1,) + m[i + 1:] in inside
                             for i in range(len(a))))


def repolarized_dual(gens, mu, blocks):
    """Minimal sets of the union of the fibers of gens, named through blocks.

    The fiber of nu picks one of the first mu_i + 1 - nu_i variables of
    blocks[i] for every i in supp(nu).
    """
    union = set()
    for nu in gens:
        supp = [i for i in range(len(mu)) if nu[i] > 0]
        for choice in itertools.product(
                *[blocks[i][:mu[i] + 1 - nu[i]] for i in supp]):
            union.add(frozenset(choice))
    return minimal_sets(union)


def closure_faces(facets):
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(len(f) + 1):
            faces.update(frozenset(s) for s in itertools.combinations(f, r))
    return faces


def alexander_dual_facets(facets, nverts):
    """Facets of the dual complex {sigma : complement(sigma) not a face}."""
    faces = closure_faces(facets)
    everything = frozenset(range(nverts))
    dual = []
    for r in range(nverts + 1):
        for sub in itertools.combinations(range(nverts), r):
            s = frozenset(sub)
            if everything - s not in faces:
                dual.append(s)
    return maximal_sets(dual)


def dense_rank(rows, p=None):
    """Rank of a dense matrix given as a list of row lists, exact over Q,
    or over F_p when p is given."""
    def red(x):
        return Fraction(x) if p is None else x % p

    mat = [[red(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col] if p is None else pow(mat[rank][col], -1, p)
        mat[rank] = [red(x * inv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [red(x - c * y) for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def homology_dims(facets, p=None):
    """Reduced homology dimensions, index k holding degree k - 1, over Q,
    or over F_p when p is given.

    Void input gives []; the complex {emptyset} gives [1].
    """
    facets = [frozenset(f) for f in facets]
    if not facets:
        return []
    faces = closure_faces(facets)
    top = max(len(f) for f in faces) - 1
    by_dim = {d: sorted((f for f in faces if len(f) == d + 1), key=set_key)
              for d in range(-1, top + 1)}
    ranks = {}
    for d in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = [[0] * len(by_dim[d]) for _ in lower]
        for j, f in enumerate(by_dim[d]):
            verts = sorted(f)
            for k in range(len(verts)):
                sub = frozenset(verts[:k] + verts[k + 1:])
                rows[lower[sub]][j] = (-1) ** k
        ranks[d] = dense_rank(rows, p) if rows else 0
    dims = []
    for d in range(-1, top + 1):
        dims.append(len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return dims


def betti_numbers(gens):
    """Multigraded Betti numbers of an ideal as a map (i, mu) -> rank."""
    out = {}
    for mu in lcm_closure(gens):
        dims = homology_dims(maximal_sets(koszul_faces(gens, mu)))
        for i, d in enumerate(dims):
            if d:
                out[(i, mu)] = d
    return out


def max_antichain(elements, strictly_less):
    best = 0
    for r in range(1, len(elements) + 1):
        for sub in itertools.combinations(elements, r):
            if all(not strictly_less(a, b) and not strictly_less(b, a)
                   for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def _squarefree_gens(I):
    if any(e > 1 for g in I.gens for e in g):
        raise InputError("support sets need a squarefree ideal")
    return I.gens


def support_sets(I):
    """C_i for every variable i in supp(I): the intersection of the
    supports of the generators that contain i.  Needs a squarefree ideal."""
    sups = [frozenset(i for i, e in enumerate(g) if e)
            for g in _squarefree_gens(I)]
    return {i: frozenset.intersection(*[s for s in sups if i in s])
            for i in range(I.n) if any(i in s for s in sups)}


def ordered_support_poset(I):
    """The package's SupportPoset of a squarefree ideal."""
    return SupportPoset(I.ring, [[e > 0 for e in g]
                                 for g in _squarefree_gens(I)])


def precedes(poset, i, j):
    """Whether variable i precedes j in a SupportPoset: every generator
    holding j holds i, and i comes first in the ring when the two are held
    by the same generators."""
    rows = poset.incidence.tolist()
    holds_i = {k for k, row in enumerate(rows) if row[i]}
    holds_j = {k for k, row in enumerate(rows) if row[j]}
    return holds_j <= holds_i and (holds_j != holds_i or i < j)


def is_chain(poset, seq):
    return all(precedes(poset, a, b) for a, b in zip(seq, seq[1:]))


def comparable(poset, i, j):
    return precedes(poset, i, j) or precedes(poset, j, i)


def hasse_edges(poset):
    """Cover pairs (i, j): i precedes j with nothing strictly between."""
    elems = poset.elements
    return [(i, j) for i in elems for j in elems
            if precedes(poset, i, j) and not any(
                precedes(poset, i, k) and precedes(poset, k, j)
                for k in elems)]


def linear_extension(poset):
    """Elements by their number of predecessors, which grows strictly
    along the order; ties follow ring order."""
    elems = poset.elements
    return sorted(elems, key=lambda j: (
        sum(precedes(poset, i, j) for i in elems), j))


def chain_partitions(poset, cap=10 ** 4):
    """Every chain partition of the poset, as tuples of chains."""
    out = []

    def extend(rest, chains):
        if len(out) >= cap:
            raise ValueError(f"more than {cap} chain partitions")
        if not rest:
            out.append(tuple(tuple(c) for c in chains))
            return
        e = rest[0]
        for c in chains:
            if precedes(poset, c[-1], e):
                c.append(e)
                extend(rest[1:], chains)
                c.pop()
        chains.append([e])
        extend(rest[1:], chains)
        chains.pop()

    extend(linear_extension(poset), [])
    return out
