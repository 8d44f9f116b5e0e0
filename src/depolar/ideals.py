"""Monomial ideals as exponent multi-indices, with exact combinatorial arithmetic.

A monomial x^m is identified with its exponent tuple m.  Ideals store only the
minimal generating set G(I), canonically sorted, so equality of ideals is
equality of the stored tuples.
"""

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

    __slots__ = ("variables", "_index")

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
        self._index = {v: i for i, v in enumerate(variables)}

    @property
    def n(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({list(self.variables)})"


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def support(m):
    return tuple(i for i, e in enumerate(m) if e > 0)


def total_degree(m):
    return sum(m)


def is_squarefree_exponent(m):
    return all(e <= 1 for e in m)


def check_exponent(m, n):
    """Validate and normalize one exponent vector of length n: integers
    (numpy ones too), never floats, strings or bools."""
    try:
        m = tuple(m)
        if any(isinstance(e, bool) for e in m):
            raise TypeError
        m = tuple(map(operator.index, m))
    except TypeError:
        raise InputError(f"bad exponent vector {m!r}") from None
    if len(m) != n:
        raise InputError(f"exponent vector {m} has length {len(m)}, expected {n}")
    if any(e < 0 or e > MAX_EXPONENT for e in m):
        raise InputError(f"exponent out of range in {m}")
    return m


def _minimal(G):
    """Lex-sorted tuples of the divisibility-minimal rows of G, an (N, n)
    array of distinct exponent rows, tested as containment of their level
    masks (hypergraph.level_masks)."""
    # hypergraph imports this module, so it is imported here
    from .hypergraph import level_masks, minimal_columns, slot_levels
    masks, level, lo, hi = level_masks(G)
    keep = slot_levels(minimal_columns(masks), level, lo, hi)
    return sorted(map(tuple, keep.tolist()))


def minimalize(gens):
    """Divisibility-minimal subset of a set of exponent vectors, lex sorted."""
    gens = list(gens)
    if not gens:
        return []
    n = len(gens[0])
    distinct = {check_exponent(g, n) for g in gens}
    if len(distinct) == 1:
        return list(distinct)
    return _minimal(np.array(list(distinct), dtype=np.int64))


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set.

    gens is a lex-sorted tuple of exponent tuples.  The zero ideal has no
    generators; the unit ideal is rejected.
    """

    __slots__ = ("ring", "gens")

    def __init__(self, ring, gens):
        if not isinstance(ring, Ring):
            raise InputError("ring must be a Ring")
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != ring.n:
                raise InputError("generator length does not match ring")
            if not any(g):
                raise InputError("unit ideal is not supported")
        if any(gens[i] >= gens[i + 1] for i in range(len(gens) - 1)):
            raise InputError("generators must be strictly lex sorted; use from_gens")
        self.ring = ring
        self.gens = gens

    @classmethod
    def from_gens(cls, ring, gens):
        """Build an ideal from arbitrary generators, minimalizing them."""
        return cls(ring, minimalize(check_exponent(g, ring.n) for g in gens))

    @property
    def n(self):
        return self.ring.n

    @property
    def is_zero(self):
        return not self.gens

    def is_squarefree(self):
        return all(is_squarefree_exponent(g) for g in self.gens)

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
        return tuple(max(col) for col in zip(*self.gens))

    def gcd_exponent(self):
        if self.is_zero:
            raise InputError("the zero ideal has no gcd exponent")
        return tuple(min(col) for col in zip(*self.gens))

    def monomial_span(self):
        """Componentwise lcm minus gcd of the generators."""
        mu, nu = self.lcm_exponent(), self.gcd_exponent()
        return tuple(a - b for a, b in zip(mu, nu))

    def intersect(self, other):
        """Intersection, G = minimal elements of pairwise lcms."""
        if self.ring != other.ring:
            raise InputError("intersect needs a common ring")
        if self.is_zero or other.is_zero:
            return MonomialIdeal(self.ring, ())
        A = np.array(self.gens, dtype=np.int64)
        B = np.array(other.gens, dtype=np.int64)
        lcms = np.maximum(A[:, None, :], B[None, :, :]).reshape(-1, self.n)
        return MonomialIdeal(self.ring, _minimal(np.unique(lcms, axis=0)))

    def lcm_lattice(self, cap=DEFAULT_LATTICE_CAP):
        """All lcms of nonempty generator subsets, lex sorted: the OR
        closure of the generators' level masks (hypergraph.lcm_closure)."""
        # hypergraph imports this module, so it is imported here
        from .hypergraph import lcm_closure
        if self.is_zero:
            raise InputError("the zero ideal has no lcm lattice")
        points = lcm_closure(np.array(self.gens, dtype=np.int64), cap)
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


def parse_monomial(ring, text):
    """Parse 'x^3*y' style monomial text into an exponent tuple."""
    exps = [0] * ring.n
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise InputError(f"empty factor in monomial {text!r}")
        name, _, power = factor.partition("^")
        name = name.strip()
        if power:
            try:
                k = int(power)
            except ValueError:
                raise InputError(f"bad exponent {power!r} in {text!r}") from None
            if k < 1:
                raise InputError(f"exponent must be >= 1 in {text!r}")
        else:
            k = 1
        exps[ring.index(name)] += k
    return check_exponent(exps, ring.n)
