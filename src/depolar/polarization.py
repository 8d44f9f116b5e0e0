"""Polarization of exponent vectors and ideals, and the expanded Koszul complex."""

import numpy as np

from .complexes import SimplicialComplex, koszul_complex
from .ideals import InputError, MonomialIdeal, Ring, check_exponent, divides


class PolarVariableMap:
    """Records how source variables split into ordered blocks of copies."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = tuple(tuple(b) for b in blocks)
        if len(self.blocks) != source.n:
            raise InputError("one block per source variable required")
        seen = [i for block in self.blocks for i in block]
        if sorted(seen) != list(range(target.n)):
            raise InputError("blocks must partition the target variables")

    def block_sizes(self):
        return tuple(len(b) for b in self.blocks)

    def to_dict(self):
        return {"source": list(self.source.variables),
                "target": list(self.target.variables),
                "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(Ring(data["source"]), Ring(data["target"]),
                       data["blocks"])
        except (KeyError, TypeError):
            raise InputError("map JSON needs 'source', 'target', 'blocks'") from None


def block_names(ring, sizes):
    """Copy names name_1..name_k per variable; uniqueness is checked."""
    names = []
    for name, size in zip(ring.variables, sizes):
        names.extend(f"{name}_{j}" for j in range(1, size + 1))
    if len(set(names)) != len(names):
        raise InputError("polarized variable names collide; rename the ring")
    return names


def polarize_index(mu, a):
    """0/1 vector in Sum(a_i) slots: block i gets mu_i ones then zeros."""
    n = len(a)
    mu = check_exponent(mu, n)
    a = check_exponent(a, n)
    if not divides(mu, a):
        raise InputError(f"exponent {mu} exceeds polarization bound {a}")
    out = []
    for m, b in zip(mu, a):
        out.extend([1] * m + [0] * (b - m))
    return tuple(out)


def polarize_ideal(I):
    """Squarefree polarization of I with bound mu_I, plus the variable map.

    Slot s of block i stands for level j(s) = s - offset_i of variable i,
    and generator g fills it when j(s) < g_i.  Polarization keeps the lex
    order of the generators, so the rows come out sorted.
    """
    if I.is_zero:
        raise InputError("cannot polarize the zero ideal")
    G = np.array(I.gens, dtype=np.int64)
    a = G.max(axis=0)
    target = Ring(block_names(I.ring, a.tolist()))
    starts = np.cumsum(a) - a
    blocks = [tuple(range(s, s + k)) for s, k in zip(starts.tolist(), a.tolist())]
    block = np.repeat(np.arange(I.n), a)
    level = np.arange(target.n) - starts[block]
    rows = (level < G[:, block]).astype(np.uint8)
    P = MonomialIdeal(target, map(tuple, rows.tolist()))
    return P, PolarVariableMap(I.ring, target, blocks)


def expanded_koszul(I):
    """Expanded Koszul complex of I at mu_I.

    Vertex block i holds ms(I)_i slots named name_1..; each generator m
    contributes the facet taking the last (mu_I - m)_i slots of every block.
    """
    if I.is_zero:
        raise InputError("the zero ideal has no expanded Koszul complex")
    mu = I.lcm_exponent()
    ms = I.monomial_span()
    vertices = block_names(I.ring, ms)
    offsets, start = [], 0
    for size in ms:
        offsets.append(start)
        start += size
    facets = []
    for g in I.gens:
        mask = 0
        for i, (m, top, size) in enumerate(zip(g, mu, ms)):
            alpha = top - m
            for j in range(size - alpha, size):
                mask |= 1 << (offsets[i] + j)
        facets.append(mask)
    return SimplicialComplex(vertices, sorted(facets))


def verify_polar_koszul_iso(I):
    """Check that shifting block slots by nu maps EK onto the polarized Koszul.

    The map sends slot j of block i to polarized copy j + nu_i; facet sets
    must agree (isolated ambient vertices are immaterial).
    """
    P, pmap = polarize_ideal(I)
    K = koszul_complex(P, (1,) * P.n)
    nu = I.gcd_exponent()
    ms = I.monomial_span()
    offsets, start = [], 0
    for size in ms:
        offsets.append(start)
        start += size
    mapped = set()
    for facet in expanded_koszul(I).facets:
        out = 0
        for i in range(I.n):
            for j in range(ms[i]):
                if facet >> (offsets[i] + j) & 1:
                    out |= 1 << pmap.blocks[i][j + nu[i]]
        mapped.add(out)
    return mapped == set(K.facets)
