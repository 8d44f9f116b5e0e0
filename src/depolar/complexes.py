"""Abstract simplicial complexes and their ideal-theoretic companions.

Complexes keep a fixed ambient vertex list (isolated vertices included, they
matter for Alexander duality) and store facets as words: a (W, N) uint64
array of vertex sets in the layout of hypergraph, W = max(1, ceil(n / 64)),
ascending as integers.  Squarefree ideals built from sets hold the same
words, so a complex and its facet complement ideal are one array apart.
Three kinds are distinguished: void (no faces at all), irrelevant (only the
empty face) and proper.
"""

import operator

import numpy as np

from .hypergraph import (alexander_dual_ideal, bits_of, from_words,
                         is_antichain, minimal_columns, popcounts,
                         prefix_words, rows_to_words, to_words, width)
from .ideals import (InputError, MonomialIdeal, ResourceLimit, Ring,
                     check_exponent)

DEFAULT_FACE_CAP = 2 ** 22


def _full(n):
    """(W, 1) words of the set of all n vertices."""
    return prefix_words(0, np.array([[n]]), width(n))


def _names(vertices):
    """vertices as a tuple of distinct valid vertex names."""
    vertices = tuple(vertices)
    if vertices:  # the empty ambient set is legal (span-zero expansions)
        Ring(vertices)
    return vertices


def _checked(vertices, facets):
    """vertices and facets as tuples, checked: distinct valid vertex names,
    and facet masks strictly ascending inside the vertex set."""
    vertices = _names(vertices)
    facets = tuple(int(f) for f in facets)
    top = 1 << len(vertices)
    for f in facets:
        if not 0 <= f < top:
            raise InputError("facet mask out of range")
    if any(facets[i] >= facets[i + 1] for i in range(len(facets) - 1)):
        raise InputError("facet masks must be strictly ascending")
    return vertices, facets


class SimplicialComplex:
    """Facets as words over an ambient vertex list; facets reads them as
    Python int bitmasks, decoded on first read.

    The constructor takes int masks and checks that they form an
    antichain; use normalize() or from_faces() for raw input.
    """

    __slots__ = ("vertices", "words", "_facets")

    def __init__(self, vertices, facets):
        vertices, facets = _checked(vertices, facets)
        words = to_words(facets, width(len(vertices)))
        if not is_antichain(words):
            raise InputError("facets must form an antichain")
        words.flags.writeable = False
        self.vertices, self.words, self._facets = vertices, words, facets

    @classmethod
    def _trusted(cls, vertices, words):
        """The complex of the columns of words, a (W, N) array of pairwise
        incomparable vertex sets ascending as integers, over the checked
        tuple vertices, taken unchecked: for sets a caller has just built
        that way."""
        cx = cls.__new__(cls)
        cx.vertices = vertices
        cx.words = words
        cx._facets = None
        words.flags.writeable = False  # facets, once decoded, must stay true
        return cx

    @classmethod
    def _of_faces(cls, vertices, words):
        """The complex of the maximal columns of words, a (W, N) array of
        vertex sets over the checked tuple vertices, in any order and with
        repeats: the complements of the minimal complements.  The bits
        past the last vertex are set in every complement alike, so they
        change no order or inclusion between them."""
        out = ~words
        out = out[:, np.lexsort(out)]
        fresh = np.ones(out.shape[1], dtype=bool)
        fresh[1:] = (out[:, 1:] != out[:, :-1]).any(axis=0)
        out = minimal_columns(out.compress(fresh, axis=1))
        # complements reverse the ascending order
        return cls._trusted(vertices, ~out[:, ::-1])

    @classmethod
    def normalize(cls, vertices, masks):
        """The complex of the maximal masks among int masks in any order."""
        masks = sorted(set(map(operator.index, masks)))
        vertices, masks = _checked(vertices, masks)
        return cls._of_faces(vertices, to_words(masks, width(len(vertices))))

    @classmethod
    def from_faces(cls, vertices, faces):
        """Build from faces given as collections of vertex names."""
        vertices = _names(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        faces = list(faces)
        rows = np.zeros((len(faces), len(vertices)), dtype=bool)
        for row, face in zip(rows, faces):
            for name in face:
                if not isinstance(name, str) or name not in index:
                    raise InputError(f"unknown vertex {name!r}")
                row[index[name]] = True
        return cls._of_faces(vertices, rows_to_words(rows))

    @property
    def facets(self):
        """The facets as strictly ascending Python int bitmasks."""
        if self._facets is None:
            self._facets = tuple(from_words(self.words))
        return self._facets

    @property
    def n(self):
        return len(self.vertices)

    @property
    def kind(self):
        if not self.words.shape[1]:
            return "void"
        if self.words.shape[1] == 1 and not self.words.any():
            return "irrelevant"
        return "proper"

    @property
    def dim(self):
        """Top face dimension; -1 for irrelevant, -2 for void."""
        if not self.words.shape[1]:
            return -2
        return int(popcounts(self.words).max()) - 1

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and np.array_equal(self.words, other.words))

    def __hash__(self):
        return hash((self.vertices, self.words.tobytes()))

    def __repr__(self):
        names = [" ".join(self.names_of(f)) or "{}" for f in self.facets]
        return f"SimplicialComplex[{self.kind}: {', '.join(names)}]"

    def names_of(self, mask):
        return [self.vertices[i] for i in bits_of(mask)]

    def is_full_simplex(self):
        return np.array_equal(self.words, _full(self.n))

    def isolated_vertices(self):
        used = np.bitwise_or.reduce(self.words, axis=1, keepdims=True)
        return self.names_of(from_words(_full(self.n) ^ used)[0])

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
        if not isinstance(vertices, list) or not isinstance(facets, list) \
                or not all(isinstance(f, list) for f in facets):
            raise InputError("complex JSON needs a list of vertices and a "
                             "list of facets, each a list of names")
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
    elif not I.is_zero:
        mu = I.lcm_exponent()
    else:  # no generator, no facet: the void complex
        mu = (0,) * I.n
    _, rows = koszul_rows(I._exponents(), np.array([mu], dtype=np.int64))
    return SimplicialComplex._of_faces(I.ring.variables, rows_to_words(rows))


def facet_complement_ideal(cx):
    """Squarefree ideal generated by the complements of the facets."""
    if cx.kind != "proper":
        raise InputError("facet complement ideal needs a proper complex")
    if cx.is_full_simplex():
        raise InputError("the full simplex gives the unit ideal")
    # no facet is full, so no set is empty; antichain facets give minimal sets
    return MonomialIdeal._of_words(Ring(cx.vertices), cx.words ^ _full(cx.n))


def facet_complement_complex(I):
    """The complex whose facets are the complements of the generator
    supports of the squarefree ideal I, read off its words: the inverse
    of facet_complement_ideal.  The zero ideal gives the void complex,
    and an ideal that is not squarefree raises InputError."""
    if not I.is_squarefree():
        raise InputError("facet_complement_complex needs a squarefree ideal")
    facets = I.words ^ _full(I.n)
    # ascending as integers: the top word is the first key; the complements
    # of an antichain form one
    return SimplicialComplex._trusted(I.ring.variables,
                                      facets[:, np.lexsort(facets)])


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
        return SimplicialComplex._trusted(I.ring.variables, _full(I.n))
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
        return SimplicialComplex._trusted(
            cx.vertices, rows_to_words(~np.eye(cx.n, dtype=bool))[:, ::-1])
    return facet_complement_complex(stanley_reisner_ideal(cx, cap))
