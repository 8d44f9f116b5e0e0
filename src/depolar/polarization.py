"""Polarization of ideals, the chain map it shares with depolarization, and
the expanded Koszul complex.

Polarization and depolarization are one variable bijection read in two
directions.  A Depolarization maps variable c of a small ring to a chain of
variables of a squarefree ring, and exponent k on c to the first k variables
of the chain.  polarize_ideal builds the map from the exponents, one chain
per variable; depolarization.depolarize finds it from the support poset.
"""

import itertools
import operator

import numpy as np

from .complexes import SimplicialComplex, facet_complement_complex, koszul_complex
from .hypergraph import prefix_words, rows_to_words, width, words_to_rows
from .ideals import InputError, MonomialIdeal, Ring


def _chain_tuples(chains, n):
    """chains as tuples of variable indices, checked disjoint and inside
    range(n): InputError if not."""
    try:
        chains = tuple(tuple(map(operator.index, c)) for c in chains)
    except TypeError:
        raise InputError("chains must list variable indices") from None
    flat = set(itertools.chain.from_iterable(chains))
    if len(flat) != sum(map(len, chains)):
        raise InputError("chains overlap")
    if flat and not 0 <= min(flat) <= max(flat) < n:
        raise InputError("a chain leaves the source ring")
    return chains


class Depolarization:
    """A depolarized ideal plus the chain bijection back to source variables.

    chains[c][j-1] is the source variable playing the j-th copy of the c-th
    depolarized variable.  The constructor checks that the chains are
    disjoint sequences of variables of the source ring, and raises
    InputError if not; misfit tells whether they fit an lcm.
    """

    __slots__ = ("ideal", "chains", "source_ring")

    def __init__(self, ideal, chains, source_ring):
        if not isinstance(ideal, MonomialIdeal) \
                or not isinstance(source_ring, Ring):
            raise InputError("a Depolarization maps an ideal to a Ring")
        self.ideal = ideal
        self.chains = _chain_tuples(chains, source_ring.n)
        self.source_ring = source_ring

    @classmethod
    def _trusted(cls, ideal, chains, source_ring):
        """The map of chains, a tuple of disjoint tuples of variable indices
        of source_ring, taken unchecked: for chains a caller has just
        checked or built that way."""
        D = cls.__new__(cls)
        D.ideal = ideal
        D.chains = chains
        D.source_ring = source_ring
        return D

    def misfit(self, mu):
        """Why the chains cannot carry exponents up to mu, or None: they
        need one chain per entry of mu, chain i at least mu_i long."""
        if len(self.chains) != len(mu):
            return "one chain per variable"
        if any(m > len(c) for m, c in zip(mu, self.chains)):
            return "chain shorter than mu"
        return None

    def to_dict(self):
        return {"source": list(self.source_ring.variables),
                "variables": list(self.ideal.ring.variables),
                "chains": [[self.source_ring.variables[i] for i in c]
                           for c in self.chains]}


def block_names(ring, sizes):
    """Copy names name_1..name_k per variable; uniqueness is checked."""
    names = []
    for name, size in zip(ring.variables, sizes):
        names.extend(f"{name}_{j}" for j in range(1, size + 1))
    if len(set(names)) != len(names):
        raise InputError("polarized variable names collide; rename the ring")
    return names


def polarize_ideal(I):
    """Squarefree polarization P of I with bound mu_I, and the chain map
    back: a Depolarization with ideal I and source ring P.ring.

    Chain i is the block of the mu_i copies x_i_1.. of x_i, in ring order,
    so generator g is the mask that sets each block up to g_i.
    """
    if I.is_zero:
        raise InputError("cannot polarize the zero ideal")
    G = I._exponents()
    a = G.max(axis=0)
    start = np.cumsum(a) - a
    target = Ring(block_names(I.ring, a.tolist()))
    chains = [range(s, s + k) for s, k in zip(start.tolist(), a.tolist())]
    # the generators of I polarized: 0/1, distinct and minimal
    P = MonomialIdeal._of_words(
        target, prefix_words(start, start + G, width(target.n)))
    return P, Depolarization(I, chains, target)


def expanded_koszul(I):
    """Expanded Koszul complex of I at mu_I: the facet complement complex
    of the polarization of I : x^gcd.

    Vertex block i holds ms(I)_i slots named name_1..; each generator m
    gives the facet of the last (mu_I - m)_i slots of every block.  A
    principal ideal gives the irrelevant complex on no vertices.
    """
    if I.is_zero:
        raise InputError("the zero ideal has no expanded Koszul complex")
    if I._count() == 1:
        return SimplicialComplex((), (0,))
    G = I._exponents()
    # dividing every generator by their gcd keeps them distinct, minimal
    # and, with two or more of them, nonzero
    colon = MonomialIdeal._of_rows(I.ring, G - G.min(axis=0))
    return facet_complement_complex(polarize_ideal(colon)[0])


def verify_polar_koszul_iso(I):
    """Check that shifting block slots by nu maps EK onto the polarized Koszul.

    Slot j of block i goes to copy j + nu_i of chain i of the polarization;
    facet sets must agree (isolated ambient vertices are immaterial).
    """
    P, D = polarize_ideal(I)
    K = koszul_complex(P, (1,) * P.n)
    EK = expanded_koszul(I)
    shift = [v for c, e in zip(D.chains, I.gcd_exponent()) for v in c[e:]]
    rows = np.zeros((EK.words.shape[1], P.n), dtype=bool)
    rows[:, shift] = words_to_rows(EK.words, EK.n)
    # shift ascends, so the mapped facets stay in ascending order
    return np.array_equal(rows_to_words(rows), K.words)
