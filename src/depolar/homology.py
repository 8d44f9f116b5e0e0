"""Exact reduced simplicial homology over Q and multigraded Betti numbers.

Betti numbers of a monomial ideal come from reduced homology of its Koszul
complexes: beta_{i,mu} = dim H~_{i-1}(K^mu_I), summed over the lcm lattice.
_face_homology, the rank of the boundary maps between the faces of each
dimension, is the one homology kernel.  It takes the faces of a relative
complex (K, L), the faces of K outside a subcomplex L, and a whole complex
is the case of L void.  It ranks from the top dimension down and clears: a
face that is a pivot row one dimension up is no column of its own boundary
map.  Boundary columns are keyed by face masks.  reduced_homology_dims
first shrinks a complex by depolarizing its facet complement ideal, when
that joins two vertices, and hands the kernel the whole complex that is
left; graded_betti reads every Koszul complex off the ideal's level grid
as a pattern of bits and hands the kernel each distinct one relative to
the closed star of a vertex, a cone, or sweeps the lcm lattice when the
grid is too large.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .complexes import (DEFAULT_FACE_CAP, SimplicialComplex,
                        facet_complement_ideal, koszul_complex, koszul_rows)
from .depolarization import _joins_variables, depolarize
from .hypergraph import (_column_keys, _distinct, cone_free, from_words,
                         koszul_patterns, level_grid, level_slots,
                         outside_widest_star, prefix_words,
                         restricted_patterns, rows_to_words, width,
                         within_grid_bytes, words_to_rows)
from .ideals import DEFAULT_LATTICE_CAP, InputError, ResourceLimit


def _check_modulus(p):
    """Ranks are over Q for p None, else over F_p for a prime p < 2^31."""
    if p is not None and not (type(p) is int and _is_small_prime(p)):
        raise InputError(f"modulus {p!r} is not a prime below 2^31")


@lru_cache(maxsize=16)
def _is_small_prime(p):
    return 2 <= p < 2 ** 31 and all(p % d for d in range(2, isqrt(p) + 1))


def _boundary_columns(upper, rows=None):
    """The boundary of each face mask in upper, a column keyed by the masks
    of the faces one dimension down, which sort within their dimension as
    the faces are listed.  With rows, a set of masks, a column keeps only
    the faces in rows."""
    cols = []
    for m in upper:
        col, k, v = {}, 0, m
        while v:
            low = v & -v
            v ^= low
            col[m ^ low] = -1 if k & 1 else 1
            k += 1
        cols.append(col)
    if rows is not None:
        cols = [{r: v for r, v in col.items() if r in rows} for col in cols]
    return cols


def _rank(cols, p=None):
    """The pivot rows of the columns, as many as their rank, by sparse
    elimination, exact over Q or over F_p when p is given.

    Columns reduce in place against recorded pivot columns keyed by their
    largest row until they empty out or claim a new pivot row.
    """
    pivots = {}
    for col in cols:
        while col:
            r = max(col)
            if r not in pivots:
                c = col.pop(r)
                if p is not None:
                    inv = pow(c % p, -1, p)
                    col = {k: v * inv % p for k, v in col.items()}
                elif c == -1:
                    col = {k: -v for k, v in col.items()}
                elif c != 1:
                    col = {k: Fraction(v, c) for k, v in col.items()}
                pivots[r] = col
                break
            c = col.pop(r)
            for k, v in pivots[r].items():
                nv = col.get(k, 0) - c * v
                if p is not None:
                    nv %= p
                if nv:
                    col[k] = nv
                else:
                    col.pop(k, None)
    return pivots.keys()


def _face_homology(faces, p=None):
    """Homology dimensions of the relative complex (K, L), given by the
    faces of K outside the subcomplex L, a dict from dimension to ascending
    int masks; position k holds degree k - 1.  This is the kernel that
    every homology of the package runs.

    The chains of (K, L) are those of K modulo those of L, so a boundary
    column keeps only the rows of listed faces, and the boundary of the
    vertices, onto the empty face, has rank 1 only when the empty face is
    listed.  Every subcomplex but the void one holds the empty face, so it
    is listed exactly when L is void: then every face of K is listed, no
    row is dropped, and the result is the reduced homology of K, with
    H~_{-1} 1 for the irrelevant complex and 0 otherwise; no faces (the
    void complex) give [].  When L is a cone, such as the closed star of a
    vertex, H~(L) = 0 in every degree, and the long exact sequence of the
    pair gives H~_d(K) = H_d(K, L) over any field.

    The boundary maps are ranked from the top dimension down, with
    clearing: a d-face that is a pivot row of the boundary of the
    (d+1)-faces is left out of the columns of the boundary of the d-faces.
    Its reduced (d+1)-column is a boundary, led by it, and the relative
    boundary squares to 0 as K's does, so the boundary of that face lies in
    the span of the boundaries of listed d-faces with smaller masks, and
    the rank is the same over any field.  A map with no listed face in its
    domain or its codomain is not ranked."""
    if not faces:
        return []
    top = max(faces)
    whole = -1 in faces
    ranks = {0: 1} if whole and top >= 0 else {}
    cleared = ()
    for d in range(top, 0, -1):
        upper = [m for m in faces.get(d, ()) if m not in cleared]
        lower = faces.get(d - 1)
        cleared = ()
        if upper and lower:
            cleared = _rank(_boundary_columns(
                upper, None if whole else set(lower)), p)
        ranks[d] = len(cleared)
    return [len(faces.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)]


def depolarized_complex(cx):
    """One reduction pass: None when some vertex lies in every facet, so
    cx is a cone and H~ = 0 in every degree; else a complex with the same
    reduced homology in every degree, on fewer vertices when one exists.

    For a proper complex, cx = K^1(I) with I = facet_complement_ideal(cx).
    Without a cone vertex every vertex lies in supp(I), so 1 is the lcm of
    I, and with J = depolarize(I).ideal, H~_i(K^1(I)) = H~_i(K^mu(J)) for
    mu the lcm of J (beta_{i+1,1}(I) = beta_{i+1,mu}(J)).  K^mu(J) lives on
    the chains of J.  The cone test comes first because depolarize drops
    a vertex outside supp(I).  Void and irrelevant complexes come back as
    they are, and so does cx when its chains are its vertices, which the
    generator incidence of I shows with no depolarize call."""
    if cx.kind != "proper":
        return cx
    if np.bitwise_and.reduce(cx.words, axis=1).any():
        return None
    I = facet_complement_ideal(cx)
    if not _joins_variables(I):
        return cx
    return koszul_complex(depolarize(I).ideal)


def reduced_homology_dims(cx, face_cap=DEFAULT_FACE_CAP, p=None):
    """Reduced homology dimensions; position k holds degree k - 1.

    The complex is reduced by depolarized_complex until it stops
    shrinking or is found to be a cone, and the faces of what is left go
    to the one kernel.  The result is padded or cut back to the input's top
    dimension.  The irrelevant complex has H~_{-1} = 1, any nonempty
    complex H~_{-1} = 0, and the void complex returns [].  face_cap bounds
    the faces of the complex that is enumerated.
    """
    _check_modulus(p)
    size = cx.dim + 2
    small = cx
    while small is not None:
        smaller = depolarized_complex(small)
        if smaller is small:
            break
        small = smaller
    if small is None:
        return [0] * size
    dims = _face_homology(small.faces_by_dim(face_cap), p)
    return (dims + [0] * size)[:size]


def hochster_betti(I, mu=None, face_cap=DEFAULT_FACE_CAP, p=None):
    """beta_{i,mu}(I) for i = 0.. as reduced Koszul homology; [] off lattice."""
    return reduced_homology_dims(koszul_complex(I, mu), face_cap, p)


class BettiTable:
    """Multigraded Betti counts keyed by (homological index, multidegree)."""

    __slots__ = ("ring", "entries", "convention")

    def __init__(self, ring, entries, convention="ideal"):
        if convention not in ("ideal", "quotient"):
            raise InputError(f"unknown convention {convention!r}")
        self.ring = ring
        self.entries = {k: int(v) for k, v in entries.items() if v}
        self.convention = convention

    def to_quotient(self):
        """Shift to the quotient-ring convention, adding the rank-one start."""
        if self.convention == "quotient":
            return self
        shifted = {(i + 1, mu): v for (i, mu), v in self.entries.items()}
        shifted[(0, (0,) * self.ring.n)] = 1
        return BettiTable(self.ring, shifted, "quotient")

    def by_degree(self):
        """Counts summed per (homological index, total degree)."""
        out = {}
        for (i, mu), v in self.entries.items():
            key = (i, sum(mu))
            out[key] = out.get(key, 0) + v
        return out

    def totals(self):
        """Total Betti numbers indexed by homological degree."""
        if not self.entries:
            return []
        top = max(i for i, _ in self.entries)
        out = [0] * (top + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def to_dict(self):
        return {"variables": list(self.ring.variables),
                "convention": self.convention,
                "entries": [{"i": i, "degree": list(mu), "value": v}
                            for (i, mu), v in sorted(self.entries.items())]}

    def diagram(self):
        """Macaulay2-style diagram: row j - i, column i."""
        deg = self.by_degree()
        if not deg:
            return "empty"
        cols = range(0, max(i for i, _ in deg) + 1)
        strands = [j - i for i, j in deg]
        rows = range(min(strands), max(strands) + 1)
        grid = [["total:"] + [str(t) for t in self.totals()]]
        for r in rows:
            line = [f"{r}:"]
            for i in cols:
                v = deg.get((i, r + i), 0)
                line.append(str(v) if v else ".")
            grid.append(line)
        header = [""] + [str(i) for i in cols]
        widths = [max(len(row[c]) for row in [header] + grid)
                  for c in range(len(header))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(x.rjust(w) for x, w in zip(row, widths))
                  for row in grid]
        return "\n".join(lines)


def _betti_plan(I):
    """The kernel that computes the Betti numbers of I ("grid" or "sweep")
    and the level_slots layout of its exponents.  The level grid is taken
    when its patterns, a word per 64 of the 2^n bits of each cell on n
    axes, fit _GRID_BYTES."""
    if I.is_zero:
        raise InputError("the zero ideal has no Betti numbers")
    G = I._exponents()
    layout = level_slots(G, G > 0)
    lo, hi = layout[2], layout[3]
    shape = (hi - lo + 1)[hi > lo].tolist()
    grid = within_grid_bytes(shape, 8 * width(2 ** len(shape)))
    return "grid" if grid else "sweep", layout


def _grid_betti(layout, face_cap, p):
    """Entries of the Betti table of the ideal with this level_slots layout
    from the Koszul patterns of its level grid.

    Cell j of axis i holds the exponents from its level to the next, so
    its lower corner b has b - e_i in cell j - 1, and K^b is the pattern of
    the cell (koszul_patterns).  A cone pattern has no homology, and every
    corner outside the lcm lattice has a cone vertex, so only the patterns
    of cone_free count.  Each is cut down to the axes its faces hold, in
    order, a canonical form on c vertices, and the homology is computed
    once per distinct form.

    Each distinct form K, read as one int on its c vertices, goes to the
    kernel relative to the closed star of its vertex with the widest star
    (outside_widest_star), so only the faces outside that star are listed.
    The star is a cone on its vertex, so H~(K) = H(K, st i) over any field
    (_face_homology), and clearing holds on the relative complex as on K.
    The irrelevant form, c = 0, a generator's beta_0, is listed whole.
    face_cap bounds all the faces of each form, those in the star too."""
    slot, level, lo, hi = layout
    axes, grid = level_grid(slot, lo, hi)
    n = len(axes)
    keep, pat, used = cone_free(koszul_patterns(grid), n)
    forms = restricted_patterns(pat, used)
    keys = _column_keys(forms)
    distinct, first = _distinct(keys)
    homology = []  # the (i, beta_i) with beta_i > 0 of each distinct form
    for c, x in zip(used[:, first].sum(axis=0).tolist(),
                    from_words(forms[:, first])):
        if x.bit_count() > face_cap:
            raise ResourceLimit(f"face count exceeds cap {face_cap}")
        x = outside_widest_star(x, c)
        by_dim = {}
        while x:
            low = x & -x
            x ^= low
            f = low.bit_length() - 1
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        homology.append([(i, d) for i, d
                         in enumerate(_face_homology(by_dim, p)) if d])
    form = np.searchsorted(distinct, keys)
    # only the cells whose form has homology give entries
    hit = np.array([bool(h) for h in homology], dtype=bool)[form]
    form = form[hit].tolist()
    # the corner of cell c on axis i is level c of it, 0 for cell 0
    corners = np.zeros((len(form), len(lo)), dtype=np.int64)
    for ax, cell in zip(axes.tolist(), np.unravel_index(keep[hit],
                                                        grid.shape)):
        corners[:, ax] = np.where(cell > 0, level[lo[ax] + cell - 1], 0)
    entries = {}
    for mu, f in zip(map(tuple, corners.tolist()), form):
        for i, d in homology[f]:
            entries[(i, mu)] = d
    return entries


def _sweep_betti(I, face_cap, lattice_cap, p):
    """Entries of the Betti table of I from a sweep of its lcm lattice.

    K^mu depends only on the lcm lattice below mu (Gasharov, Peeva and
    Welker), so many points share one Koszul complex up to relabelling.
    The points are walked in blocks of about 2M array entries.  At each
    point the supp(mu - g) rows of the dividing generators are restricted
    to the columns of their union, and the set of their words, read as
    ints, keys the complex on vertices 0..c-1.  Distinct keys are built
    once, and the homology is computed once per distinct complex among
    them, in memos that live for this call.  Points with one complex have
    equal face counts, so face_cap fires at the same point as it would
    when computing one complex per point.
    """
    points = I.lcm_lattice(lattice_cap)
    G = I._exponents()
    P = np.array(points, dtype=np.int64)
    step = max(1, 2_000_000 // G.size)
    by_rows, by_complex, entries = {}, {}, {}
    for lo in range(0, len(points), step):
        divides_mu, rows = koszul_rows(G, P[lo:lo + step])
        # every lattice point has a divisor, so no point's run is empty
        counts = divides_mu.sum(axis=1)
        ends = np.cumsum(counts)
        owner = np.repeat(np.arange(len(counts)), counts)
        union = np.logical_or.reduceat(rows, ends - counts, axis=0)
        # move the union columns first, in order, so each row of a point
        # reads as a set on vertices 0..c-1
        order = np.argsort(~union, axis=1, kind="stable")
        words = rows_to_words(np.take_along_axis(rows, order[owner], axis=1))
        keys = from_words(words)
        start = 0
        for mu, end, c in zip(points[lo:lo + step], ends.tolist(),
                              union.sum(axis=1).tolist()):
            key = frozenset(keys[start:end])
            dims = by_rows.get(key)
            if dims is None:
                # the rows set no bit past c, so the words past c's are 0
                cx = SimplicialComplex._of_faces(
                    I.ring.variables[:c],
                    words[:width(c), start:end])
                dims = by_complex.get(cx)
                if dims is None:
                    dims = by_complex[cx] = _face_homology(
                        cx.faces_by_dim(face_cap), p)
                by_rows[key] = dims
            start = end
            for i, d in enumerate(dims):
                if d:
                    entries[(i, mu)] = d
    return entries


def graded_betti(I, face_cap=DEFAULT_FACE_CAP, lattice_cap=DEFAULT_LATTICE_CAP,
                 p=None):
    """All nonzero beta_{i,mu} of I, beta_{i,mu} = dim H~_{i-1}(K^mu).

    A squarefree ideal with fewer chains than variables, read off its
    generator incidence, is depolarized first: with J = depolarize(I).ideal,
    beta_{i,a}(J) = beta_{i,pol(a)}(I), where pol(a) sets the first a_c
    variables of chain c, since pol maps the lcm lattice of J onto that of
    I.  _betti_plan then sends the ideal to its level grid (_grid_betti),
    or to the lcm lattice sweep (_sweep_betti) when the grid's patterns are
    over _GRID_BYTES.  lattice_cap bounds the sweep's lattice points, and
    face_cap the faces of each complex whose homology is computed.
    """
    _check_modulus(p)
    if I.is_squarefree() and not I.is_zero and _joins_variables(I):
        D = depolarize(I)
        table = graded_betti(D.ideal, face_cap, lattice_cap, p)
        degrees = list({mu for _, mu in table.entries})
        A = np.array(degrees, dtype=np.int64).reshape(-1, len(D.chains))
        # the chains' variables in chain order are the slots of pol(a)
        flat = [v for chain in D.chains for v in chain]
        lens = np.array([len(chain) for chain in D.chains])
        start = np.cumsum(lens) - lens
        rows = np.zeros((len(A), I.n), dtype=np.int64)
        rows[:, flat] = words_to_rows(
            prefix_words(start, start + A, width(len(flat))), len(flat))
        pol = dict(zip(degrees, map(tuple, rows.tolist())))
        return BettiTable(I.ring, {(i, pol[mu]): v for (i, mu), v
                                   in table.entries.items()})
    kernel, layout = _betti_plan(I)
    if kernel == "grid":
        return BettiTable(I.ring, _grid_betti(layout, face_cap, p))
    return BettiTable(I.ring, _sweep_betti(I, face_cap, lattice_cap, p))


def total_betti(I, face_cap=DEFAULT_FACE_CAP, lattice_cap=DEFAULT_LATTICE_CAP,
                p=None):
    return graded_betti(I, face_cap, lattice_cap, p).totals()
