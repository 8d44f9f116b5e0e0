"""Abstract simplicial complexes and their ideal-theoretic companions.

Complexes keep a fixed ambient vertex list (isolated vertices included, they
matter for Alexander duality) and store facets as integer bitmasks.  Three
kinds are distinguished: void (no faces at all), irrelevant (only the empty
face) and proper.
"""

import itertools

import numpy as np

from .hypergraph import (alexander_dual_ideal, bits_of, from_words,
                         is_antichain, maximal_masks, rows_to_words, to_words)
from .ideals import (InputError, MonomialIdeal, ResourceLimit, Ring,
                     check_exponent)

DEFAULT_FACE_CAP = 2 ** 22


def _checked(vertices, facets):
    """vertices and facets as tuples, checked: distinct valid vertex names,
    and facet masks strictly ascending inside the vertex set."""
    vertices = tuple(vertices)
    if vertices:  # the empty ambient set is legal (span-zero expansions)
        Ring(vertices)
    facets = tuple(int(f) for f in facets)
    top = 1 << len(vertices)
    for f in facets:
        if not 0 <= f < top:
            raise InputError("facet mask out of range")
    if any(facets[i] >= facets[i + 1] for i in range(len(facets) - 1)):
        raise InputError("facet masks must be strictly ascending")
    return vertices, facets


class SimplicialComplex:
    """Facets as sorted bitmasks over an ambient vertex list.

    The constructor checks that the facets form an antichain; use
    normalize() or from_faces() for raw input.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets):
        vertices, facets = _checked(vertices, facets)
        W = max(1, -(-len(vertices) // 64))
        if not is_antichain(to_words(facets, W)):
            raise InputError("facets must form an antichain")
        self.vertices = vertices
        self.facets = facets

    @classmethod
    def _trusted(cls, vertices, facets):
        """The complex of facets, a strictly ascending tuple of pairwise
        incomparable masks over the tuple vertices, taken unchecked: for
        masks a caller has just built that way."""
        cx = cls.__new__(cls)
        cx.vertices = vertices
        cx.facets = facets
        return cx

    @classmethod
    def normalize(cls, vertices, masks):
        vertices = tuple(vertices)
        return cls._trusted(*_checked(
            vertices, maximal_masks(masks, len(vertices))))

    @classmethod
    def from_faces(cls, vertices, faces):
        """Build from faces given as collections of vertex names."""
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        faces = list(faces)
        rows = np.zeros((len(faces), len(vertices)), dtype=bool)
        for row, face in zip(rows, faces):
            for name in face:
                if name not in index:
                    raise InputError(f"unknown vertex {name!r}")
                row[index[name]] = True
        return cls.normalize(vertices, from_words(rows_to_words(rows)))

    @property
    def n(self):
        return len(self.vertices)

    @property
    def kind(self):
        if not self.facets:
            return "void"
        if self.facets == (0,):
            return "irrelevant"
        return "proper"

    @property
    def dim(self):
        """Top face dimension; -1 for irrelevant, -2 for void."""
        if not self.facets:
            return -2
        return max(f.bit_count() for f in self.facets) - 1

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.vertices, self.facets))

    def __repr__(self):
        names = [" ".join(self.names_of(f)) or "{}" for f in self.facets]
        return f"SimplicialComplex[{self.kind}: {', '.join(names)}]"

    def names_of(self, mask):
        return [self.vertices[i] for i in bits_of(mask)]

    def is_full_simplex(self):
        return self.facets == ((1 << self.n) - 1,)

    def isolated_vertices(self):
        used = 0
        for f in self.facets:
            used |= f
        return self.names_of(((1 << self.n) - 1) ^ used)

    def faces_by_dim(self, cap=DEFAULT_FACE_CAP):
        """All faces grouped by dimension, each group sorted by mask value."""
        if not self.facets:
            return {}
        seen = set(self.facets)
        stack = list(self.facets)
        while stack:
            m = stack.pop()
            v = m
            while v:
                low = v & -v
                v ^= low
                sub = m ^ low
                if sub not in seen:
                    if len(seen) >= cap:
                        raise ResourceLimit(f"face count exceeds cap {cap}")
                    seen.add(sub)
                    stack.append(sub)
        out = {}
        for f in seen:
            out.setdefault(f.bit_count() - 1, []).append(f)
        for group in out.values():
            group.sort()
        return out

    def f_vector(self, cap=DEFAULT_FACE_CAP):
        """(f_-1, f_0, ..., f_dim); requires a nonvoid complex."""
        if not self.facets:
            raise InputError("the void complex has no f-vector")
        faces = self.faces_by_dim(cap)
        return tuple(len(faces[d]) for d in range(-1, self.dim + 1))

    def to_dict(self):
        return {"vertices": list(self.vertices),
                "facets": [self.names_of(f) for f in self.facets]}

    @classmethod
    def from_dict(cls, data):
        try:
            vertices = data["vertices"]
            facets = data["facets"]
        except (KeyError, TypeError):
            raise InputError("complex JSON needs 'vertices' and 'facets'") from None
        return cls.from_faces(vertices, facets)


def koszul_rows(G, M):
    """The Koszul facets of a block of points M (k, n) against the
    generators G (m, n): the (k, m) matrix of g | mu, and the 0/1 rows of
    supp(mu - g) for its True entries in row-major order.  The rows of one
    point span its complex K^mu."""
    divides = (G[None, :, :] <= M[:, None, :]).all(axis=2)
    point, gen = np.nonzero(divides)
    return divides, G[gen] < M[point]


def koszul_complex(I, mu=None):
    """Sets sigma inside supp(mu) with x^mu / x_sigma in I.

    Facets are the maximal supports supp(mu - g) over generators dividing
    x^mu; the void complex signals x^mu not in I.  mu defaults to the lcm
    exponent of I.
    """
    if mu is not None:
        mu = check_exponent(mu, I.n)
    if I.is_zero:
        return SimplicialComplex._trusted(I.ring.variables, ())
    if mu is None:
        mu = I.lcm_exponent()
    _, rows = koszul_rows(np.array(I.gens, dtype=np.int64),
                          np.array([mu], dtype=np.int64))
    masks = from_words(rows_to_words(rows))
    return SimplicialComplex.normalize(I.ring.variables, masks)


def facet_complement_ideal(cx):
    """Squarefree ideal generated by the complements of the facets."""
    if cx.kind != "proper":
        raise InputError("facet complement ideal needs a proper complex")
    full = (1 << cx.n) - 1
    if cx.facets[-1] == full:
        raise InputError("the full simplex gives the unit ideal")
    words = to_words([full ^ f for f in cx.facets], max(1, -(-cx.n // 64)))
    # no facet is full, so no mask is zero; antichain facets give minimal masks
    return MonomialIdeal._of_words(Ring(cx.vertices), words)


def facet_complement_complex(I):
    """The complex whose facets are the complements of the generator
    supports of the squarefree ideal I: the inverse of
    facet_complement_ideal.  The zero ideal gives the void complex."""
    words = I.words
    if words is None:
        try:
            # 0/1 exponents, so each fits one byte; bytes() refuses one past 255
            rows = np.frombuffer(bytes(itertools.chain.from_iterable(I.gens)),
                                 dtype=np.uint8)
            if (rows > 1).any():
                raise ValueError
        except ValueError:
            raise InputError("facet_complement_complex needs a squarefree ideal") from None
        words = rows_to_words(rows.reshape(-1, I.n))
    facets = to_words([(1 << I.n) - 1], len(words)) ^ words
    # ascending as integers: the top word is the first key; the complements
    # of an antichain form one
    return SimplicialComplex._trusted(
        I.ring.variables, tuple(from_words(facets[:, np.lexsort(facets)])))


def stanley_reisner_ideal(cx, cap=None):
    """Ideal of minimal non-faces: the dual of the facet complement ideal,
    whose generators are the minimal transversals of the facet complements."""
    if cx.kind != "proper":
        raise InputError("Stanley-Reisner ideal needs a proper complex")
    if cx.is_full_simplex():
        return MonomialIdeal(Ring(cx.vertices), ())
    return alexander_dual_ideal(facet_complement_ideal(cx), cap=cap)


def complex_of_squarefree_ideal(I, cap=None):
    """The complex whose minimal non-faces are the generator supports.

    Inverse of stanley_reisner_ideal; the zero ideal gives the full simplex.
    """
    if not I.is_squarefree():
        raise InputError("complex_of_squarefree_ideal needs a squarefree ideal")
    if I.is_zero:
        return SimplicialComplex._trusted(I.ring.variables, ((1 << I.n) - 1,))
    return facet_complement_complex(alexander_dual_ideal(I, cap=cap))


def alexander_dual_complex(cx, cap=None):
    """Dual complex {sigma : complement(sigma) not a face}, without
    depolarizing: dual_complex_via_depolarization is the same pipeline
    with a depolarize and a repolarize step around the dual.

    Facets are the complements of the minimal non-faces.  The irrelevant
    complex dualizes to the boundary of the simplex and vice versa; the
    full simplex dualizes to the void complex.
    """
    if cx.kind == "void":
        raise InputError("the void complex has no Alexander dual")
    if cx.kind == "irrelevant":
        # the complements of the single vertices; vertex 0's is the largest
        rows = ~np.eye(cx.n, dtype=bool)
        return SimplicialComplex._trusted(
            cx.vertices, tuple(from_words(rows_to_words(rows))[::-1]))
    return facet_complement_complex(stanley_reisner_ideal(cx, cap))
