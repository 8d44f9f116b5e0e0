"""Exact reduced simplicial homology over Q and multigraded Betti numbers.

Betti numbers of a monomial ideal come from reduced homology of its Koszul
complexes: beta_{i,mu} = dim H~_{i-1}(K^mu_I), summed over the lcm lattice.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .complexes import (DEFAULT_FACE_CAP, SimplicialComplex, koszul_complex,
                        koszul_rows)
from .hypergraph import from_words, rows_to_words, width
from .ideals import DEFAULT_LATTICE_CAP, InputError


def _check_modulus(p):
    """Ranks are over Q for p None, else over F_p for a prime p < 2^31."""
    if p is not None and not (type(p) is int and _is_small_prime(p)):
        raise InputError(f"modulus {p!r} is not a prime below 2^31")


@lru_cache(maxsize=16)
def _is_small_prime(p):
    return 2 <= p < 2 ** 31 and all(p % d for d in range(2, isqrt(p) + 1))


def _boundary_columns(lower, upper):
    index = {m: r for r, m in enumerate(lower)}
    cols = []
    for m in upper:
        col, k, v = {}, 0, m
        while v:
            low = v & -v
            v ^= low
            col[index[m ^ low]] = -1 if k & 1 else 1
            k += 1
        cols.append(col)
    return cols


def _rank(cols, p=None):
    """Rank by sparse elimination, exact over Q or over F_p when p is given.

    Columns reduce against recorded pivot columns keyed by their largest
    row until they empty out or claim a new pivot row.
    """
    pivots = {}
    rank = 0
    for col in cols:
        col = dict(col)
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
                rank += 1
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
    return rank


def reduced_homology_dims(cx, face_cap=DEFAULT_FACE_CAP, p=None):
    """Reduced homology dimensions; position k holds degree k - 1.

    Uses augmented boundary maps, so the irrelevant complex has H~_{-1} = 1
    and any nonempty complex has H~_{-1} = 0.  The void complex returns [].
    """
    _check_modulus(p)
    faces = cx.faces_by_dim(face_cap)
    if not faces:
        return []
    top = max(faces)
    ranks = {}
    for d in range(0, top + 1):
        ranks[d] = _rank(_boundary_columns(faces[d - 1], faces[d]), p)
    return [len(faces[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)]


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


def graded_betti(I, face_cap=DEFAULT_FACE_CAP, lattice_cap=DEFAULT_LATTICE_CAP,
                 p=None):
    """Sweep the lcm lattice and collect all nonzero beta_{i,mu}.

    K^mu depends only on the lcm lattice below mu (Gasharov, Peeva and
    Welker), so many points share one Koszul complex up to relabelling.
    The points are walked in blocks of about 2M array entries.  At each
    point the supp(mu - g) rows of the dividing generators are restricted
    to the columns of their union, and the set of their words, read as
    ints, keys the complex on vertices 0..c-1.  Distinct keys are built
    once, and the homology is computed once per distinct complex among
    them, in memos that live for this call.  Points with one complex have
    equal face counts, so face_cap fires at the point where it would
    computing one complex per point.
    """
    _check_modulus(p)
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
                    dims = by_complex[cx] = reduced_homology_dims(
                        cx, face_cap, p)
                by_rows[key] = dims
            start = end
            for i, d in enumerate(dims):
                if d:
                    entries[(i, mu)] = d
    return BettiTable(I.ring, entries)


def total_betti(I, face_cap=DEFAULT_FACE_CAP, lattice_cap=DEFAULT_LATTICE_CAP,
                p=None):
    return graded_betti(I, face_cap, lattice_cap, p).totals()
