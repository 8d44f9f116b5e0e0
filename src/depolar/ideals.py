"""Monomial ideals as exponent multi-indices, with exact combinatorial arithmetic.

A monomial x^m is identified with its exponent vector m.  Ideals hold only
the minimal generating set G(I), as one array: words when it is squarefree,
int rows otherwise.  Its lex-sorted exponent tuples are read from gens, and
equality of ideals is equality of those tuples.
"""

import itertools
import operator
import re

import numpy as np

DEFAULT_LATTICE_CAP = 2 ** 20

# Exponents far below this bound keep every int64 lcm/degree computation exact.
MAX_EXPONENT = 2 ** 31

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class InputError(ValueError):
    """Malformed rings, monomials, ideals, complexes or CLI arguments."""


class ResourceLimit(RuntimeError):
    """A configured size, face or candidate cap was exceeded."""


class Ring:
    """Ordered variable names; the listed order is the ring's variable order."""

    __slots__ = ("variables",)

    def __init__(self, variables):
        variables = tuple(variables)
        if not variables:
            raise InputError("a ring needs at least one variable")
        for v in variables:
            if not isinstance(v, str) or not _NAME.match(v):
                raise InputError(f"bad variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        self.variables = variables

    @property
    def n(self):
        return len(self.variables)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({list(self.variables)})"


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def check_exponent(m, n):
    """Validate and normalize one exponent vector of length n: integers
    (numpy ones too), never floats, strings or bools."""
    try:
        m = tuple(m)
        if bool in map(type, m):
            raise TypeError
        m = tuple(map(operator.index, m))
    except TypeError:
        raise InputError(f"bad exponent vector {m!r}") from None
    if len(m) != n:
        raise InputError(f"exponent vector {m} has length {len(m)}, expected {n}")
    if m and (min(m) < 0 or max(m) > MAX_EXPONENT):
        raise InputError(f"exponent out of range in {m}")
    return m


def _plain(gens, n):
    """Whether gens are tuples of n Python ints in range, the rows that
    check_exponent returns unchanged: one scan over all entries at once
    stands in for its scans of each row."""
    if not (set(map(type, gens)) <= {tuple} and set(map(len, gens)) <= {n}):
        return False
    flat = list(itertools.chain.from_iterable(gens))
    return set(map(type, flat)) <= {int} and (
        not flat or min(flat) >= 0 and max(flat) <= MAX_EXPONENT)


def _minimal_of(distinct, n):
    """The divisibility-minimal rows of a set of checked exponent tuples of
    length n, as an (N, n) int64 array in no fixed order, tested as
    containment of their level masks (hypergraph.level_masks)."""
    G = np.array(list(distinct), dtype=np.int64).reshape(-1, n)
    if len(G) <= 1:
        return G
    # hypergraph imports this module, so it is imported here
    from .hypergraph import level_masks, minimal_columns, slot_levels
    masks, level, lo, hi = level_masks(G)
    return slot_levels(minimal_columns(masks), level, lo, hi)


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set.

    The generators are held as exactly one array, in any order: words, a
    (W, N) uint64 array of vertex sets in the layout of hypergraph
    (variable i is slot i), when every exponent is 0 or 1, and rows, a
    read-only (N, n) int64 array, otherwise; the other is None.  gens is
    the lex-sorted tuple of exponent tuples, decoded from the array when
    it is first read.  The zero ideal has no generators and holds words;
    the unit ideal is rejected.
    """

    __slots__ = ("ring", "_gens", "words", "rows")

    def __init__(self, ring, gens):
        if not isinstance(ring, Ring):
            raise InputError("ring must be a Ring")
        gens = tuple(gens)
        if not _plain(gens, ring.n):
            gens = tuple(check_exponent(g, ring.n) for g in gens)
        if not all(map(any, gens)):
            raise InputError("unit ideal is not supported")
        if any(gens[i] >= gens[i + 1] for i in range(len(gens) - 1)):
            raise InputError("generators must be strictly lex sorted; use from_gens")
        rows = np.array(gens, dtype=np.int64).reshape(-1, ring.n)
        # distinct generators of one degree never divide each other
        if len(set(map(sum, gens))) > 1:
            # hypergraph imports this module, so it is imported here
            from .hypergraph import is_antichain, level_masks
            if not is_antichain(level_masks(rows)[0]):
                raise InputError("generators must be minimal; use from_gens")
        held = self._of_rows(ring, rows)
        self.ring, self.words, self.rows = ring, held.words, held.rows
        self._gens = gens  # just checked: the lex-sorted view

    @classmethod
    def _of_rows(cls, ring, rows):
        """The ideal of rows, an (N, n) array of any int dtype holding
        nonzero, distinct, pairwise incomparable exponent rows in any order,
        taken unchecked: held as words when every entry is 0 or 1, as rows
        widened to int64 if not, so a caller may build them narrower."""
        if not rows.size or rows.max() <= 1:
            # hypergraph imports this module, so it is imported here
            from .hypergraph import rows_to_words
            return cls._of_words(ring, rows_to_words(rows))
        ideal = cls.__new__(cls)
        ideal.ring, ideal._gens, ideal.words = ring, None, None
        ideal.rows = rows = rows.astype(np.int64, copy=False)
        rows.flags.writeable = False  # as in _of_words
        return ideal

    @classmethod
    def _of_words(cls, ring, words):
        """The squarefree ideal of the columns of words, a (W, N) uint64
        array with W = max(1, ceil(n / 64)) of nonzero, pairwise
        incomparable vertex sets in any order, taken unchecked: for masks
        a caller has just built that way."""
        ideal = cls.__new__(cls)
        ideal.ring, ideal._gens, ideal.rows = ring, None, None
        ideal.words = words
        words.flags.writeable = False  # gens, once decoded, must stay true
        return ideal

    @property
    def gens(self):
        if self._gens is None:
            rows = self._exponents()
            self._gens = tuple(map(tuple,
                                   rows[np.lexsort(rows.T[::-1])].tolist()))
        return self._gens

    def _exponents(self):
        """(N, n) int64 array of the generators in the order they are held:
        rows, or words decoded."""
        if self.words is None:
            return self.rows
        # hypergraph imports this module, so it is imported here
        from .hypergraph import words_to_rows
        return words_to_rows(self.words, self.n).astype(np.int64)

    def _count(self):
        """The number of minimal generators."""
        return len(self.rows) if self.words is None else self.words.shape[1]

    @classmethod
    def from_gens(cls, ring, gens):
        """Build an ideal from arbitrary generators, minimalizing them."""
        distinct = {check_exponent(g, ring.n) for g in gens}
        if (0,) * ring.n in distinct:
            raise InputError("unit ideal is not supported")
        return cls._of_rows(ring, _minimal_of(distinct, ring.n))

    @property
    def n(self):
        return self.ring.n

    @property
    def is_zero(self):
        return not self._count()

    def is_squarefree(self):
        return self.words is not None

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.ring == other.ring and self.gens == other.gens)

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        if self.is_zero:
            return "MonomialIdeal<0>"
        return "MonomialIdeal<%s>" % ", ".join(
            format_monomial(self.ring, g) for g in self.gens)

    def contains(self, m):
        """Monomial membership: some generator divides m."""
        m = check_exponent(m, self.n)
        return any(divides(g, m) for g in self.gens)

    def lcm_exponent(self):
        if self.is_zero:
            raise InputError("the zero ideal has no lcm exponent")
        return tuple(self._exponents().max(axis=0).tolist())

    def gcd_exponent(self):
        if self.is_zero:
            raise InputError("the zero ideal has no gcd exponent")
        return tuple(self._exponents().min(axis=0).tolist())

    def monomial_span(self):
        """Componentwise lcm minus gcd of the generators."""
        mu, nu = self.lcm_exponent(), self.gcd_exponent()
        return tuple(a - b for a, b in zip(mu, nu))

    def lcm_lattice(self, cap=DEFAULT_LATTICE_CAP):
        """All lcms of nonempty generator subsets, lex sorted: the OR
        closure of the generators' level masks (hypergraph.lcm_closure)."""
        # hypergraph imports this module, so it is imported here
        from .hypergraph import lcm_closure
        if self.is_zero:
            raise InputError("the zero ideal has no lcm lattice")
        points = lcm_closure(self._exponents(), cap)
        return sorted(map(tuple, points.tolist()))

    def to_dict(self):
        return {"variables": list(self.ring.variables),
                "generators": [list(g) for g in self.gens]}

    @classmethod
    def from_dict(cls, data):
        try:
            variables = data["variables"]
            generators = data["generators"]
        except (KeyError, TypeError):
            raise InputError("ideal JSON needs 'variables' and 'generators'") from None
        if not isinstance(variables, list) or not isinstance(generators, list):
            raise InputError("ideal JSON needs a list of variables and a "
                             "list of generators")
        return cls.from_gens(Ring(variables), generators)


def format_monomial(ring, m):
    """Render an exponent vector as name^k factors joined by '*'; 1 if empty."""
    parts = []
    for name, e in zip(ring.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"

