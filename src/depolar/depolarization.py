"""Support posets, chain partitions, and depolarization of squarefree ideals."""

from functools import cache

import numpy as np

from .hypergraph import (_column_keys, _contains, columns_to_words,
                         prefix_words, rows_to_words, words_to_rows)
from .ideals import InputError, MonomialIdeal, Ring
from .polarization import Depolarization, _chain_tuples, polarize_ideal


class SupportPoset:
    """Variables ordered by inclusion of their generator-support sets C_i.

    C_i is the intersection of the supports of all generators containing i.
    The poset holds the generator x variable 0/1 incidence matrix of the
    ideal: column i is gens(i), the generators that contain i.  Since C_i
    lies inside C_j exactly when i is in C_j, that is when gens(j) lies
    inside gens(i), i precedes j when column j is strictly inside column i,
    with equal columns ordered by ring position.  The elements are the
    variables with a nonzero column.
    """

    __slots__ = ("ring", "elements", "incidence")

    def __init__(self, ring, incidence):
        self.ring = ring
        self.incidence = np.asarray(incidence, dtype=bool).reshape(-1, ring.n)
        self.elements = tuple(np.flatnonzero(self.incidence.any(0)).tolist())

    def _ascending(self, u, v):
        """Per k, whether element u[k] precedes element v[k].  The columns
        are copied by np.take, about 3x faster than fancy indexing."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        a = np.take(self.incidence, u, axis=1)
        b = np.take(self.incidence, v, axis=1)
        return (b <= a).all(0) & ((u < v) | (a != b).any(0))


def singleton_partition(poset):
    return tuple((i,) for i in poset.elements)


# entries of one row block of the containment order: the uint64
# temporaries of _contains over a block stay near 256 KiB, in cache.  On
# the polarization of m^(2,2000) (4000 columns of 32 words, 2-vCPU VM, min
# of 5) blocks of 2^14-2^16 entries took 0.30-0.36 s, 2^18 took 0.61 s.
_ORDER_PASS = 2 ** 15


def _inside(cols):
    """(q, q) bool: column b of the (W, q) bitsets cols lies inside column
    a, for a != b.  _contains fills it in blocks of _ORDER_PASS / q rows."""
    q = cols.shape[1]
    out = np.empty((q, q), dtype=bool)
    step = max(1, _ORDER_PASS // max(q, 1))
    for lo in range(0, q, step):
        out[lo:lo + step] = _contains(cols[:, lo:lo + step], cols)
    np.fill_diagonal(out, False)
    return out


def _augment(root, succ, match):
    """Kuhn's search for an augmenting path from root, on explicit stacks.

    match[b] is the element matched in front of b, or -1, and succ(a) the
    successors of a.  The search tries successors in list order and visits
    each element at most once.
    """
    seen = set()
    lefts, rights, todo = [root], [], [iter(succ(root))]
    while todo:
        for b in todo[-1]:
            if b not in seen:
                seen.add(b)
                rights.append(b)
                if match[b] < 0:
                    for a, r in zip(lefts, rights):
                        match[r] = a
                    return
                lefts.append(match[b])
                todo.append(iter(succ(match[b])))
                break
        else:
            todo.pop()
            lefts.pop()
            if rights:
                rights.pop()


def min_chain_partition(poset):
    """Fewest chains covering the poset (Dilworth), via bipartite matching.

    Variables with equal incidence columns form a group.  A group is a
    chain in ring order, and any chain partition of the groups, each group
    expanded into its members, is a chain partition of the variables with
    as many chains; an antichain meets each group at most once, so both
    posets have the same width.  The columns are packed as bitsets and
    grouped on their _column_keys, the groups numbered by their first ring
    position; group b follows group a when its column lies strictly inside
    a's, read off _inside.

    Kuhn's augmenting path searches start from each group in that order and
    try successors in that order, so the result is deterministic.  A search
    whose first successor is still free matches it at once; only the others
    read successor lists, each on first use.  Each chain is a tuple of its
    groups' members in ring order; chains come in the order of their first
    variable.
    """
    elements = np.array(poset.elements, dtype=np.int64)
    if not len(elements):
        return ()
    cols = columns_to_words(poset.incidence).take(elements, axis=1)
    # head: the first element of each distinct column, the group's number
    # its rank among the heads
    _, head, run = np.unique(_column_keys(cols), return_index=True,
                             return_inverse=True)
    by_head = np.argsort(head)
    members = [[] for _ in head]
    for i, g in zip(poset.elements, np.argsort(by_head)[run].tolist()):
        members[g].append(i)
    inside = _inside(cols.take(head[by_head], axis=1))
    q = len(members)
    first = inside.argmax(1)
    match = [-1] * q
    succ = cache(lambda a: inside[a].nonzero()[0].tolist())
    for root, b, has in zip(range(q), first.tolist(),
                            inside[np.arange(q), first].tolist()):
        if not has:
            continue
        if match[b] < 0:  # Kuhn's first step
            match[b] = root
        else:
            _augment(root, succ, match)
    nxt = {a: b for b, a in enumerate(match) if a >= 0}
    chains = []
    for start, before in enumerate(match):
        if before < 0:
            chain, k = [], start
            while k is not None:
                chain.extend(members[k])
                k = nxt.get(k)
            chains.append(tuple(chain))
    return tuple(chains)


def _joins_variables(I):
    """Whether depolarize(I) has fewer chains than the squarefree ideal I
    has variables: exactly when some variable lies in no generator, or the
    generators of one variable all hold another, equal sets included, which
    min_chain_partition then chains: read off _inside of the columns."""
    cols = columns_to_words(words_to_rows(I.words, I.n))
    return bool(not cols.any(0).all() or _inside(cols).any())


def depolarize(I, partition=None):
    """Collapse each chain of the support poset to powers of one variable.

    partition may be None/'min', 'singleton', or a sequence of chains of
    variable indices covering the support poset.  A non-squarefree ideal
    is replaced by its polarization first.  Generator m maps to
    prod_c y_c^(|supp(m) chain_c|); the new variable of a chain borrows
    the name of the chain's first element.
    """
    if I.is_zero:
        raise InputError("cannot depolarize the zero ideal")
    if not I.is_squarefree():
        I, _ = polarize_ideal(I)
    poset = SupportPoset(I.ring, words_to_rows(I.words, I.n))
    if not isinstance(partition, (str, type(None))):
        # checked before ring_out is named, where two chains that start at
        # one variable would fail as a duplicate name
        chains = _chain_tuples(partition, I.n)
        if not all(chains):
            raise InputError("empty chain")
    elif partition in (None, "min"):
        chains = min_chain_partition(poset)
    elif partition == "singleton":
        chains = singleton_partition(poset)
    else:
        raise InputError(f"bad partition {partition!r}")
    flat = [i for c in chains for i in c]
    if set(flat) != set(poset.elements):
        raise InputError("chains must cover exactly the support of the ideal")
    lens = np.array([len(c) for c in chains])
    starts = np.cumsum(lens) - lens
    chain_of = np.repeat(np.arange(len(chains)), lens)
    pos = np.arange(len(flat)) - np.repeat(starts, lens)
    flat = np.array(flat, dtype=np.int64)
    # consecutive pairs inside one chain must ascend
    inner = pos[1:] > 0
    up = poset._ascending(flat[:-1][inner], flat[1:][inner])
    if not up.all():
        c = chains[chain_of[1:][inner][np.argmin(up)]]
        raise InputError(f"not an ascending chain: {list(c)}")
    # along an ascending chain gens(c_(j+1)) lies inside gens(c_j), so
    # generator m meets chain c in its first k_c variables; the sums are
    # kept in the narrowest dtype that holds the longest chain, and with
    # every chain one variable they are its columns (np.take copies columns
    # about 3x faster than fancy indexing does)
    k = np.take(poset.incidence, flat, axis=1).view(np.uint8)
    if lens.max() > 1:
        k = np.add.reduceat(k, starts, axis=1,
                            dtype=np.min_scalar_type(lens.max()))
    ring_out = Ring([I.ring.variables[c[0]] for c in chains])
    # polarizing these rows along the chains gives G(I) back, so they are
    # nonzero, distinct and minimal; the chains are checked above or built
    # from the poset
    return Depolarization._trusted(MonomialIdeal._of_rows(ring_out, k),
                                   chains, I.ring)


def validate_depolarization(I, D):
    """Re-polarize D along its chains and compare with G(I)."""
    if not I.is_squarefree():
        raise InputError("validation target must be squarefree")
    if I.ring != D.source_ring or D.ideal.is_zero != I.is_zero:
        return False
    if D.ideal.is_zero:
        return True
    if D.misfit(D.ideal.lcm_exponent()):
        return False
    # D's constructor checked that the chains are disjoint and in I's ring
    flat = [i for c in D.chains for i in c]
    A = I._exponents()
    if np.delete(A, flat, axis=1).any():
        return False
    # both sides as words in chain order, columns sorted
    start = np.cumsum([0] + [len(c) for c in D.chains[:-1]])
    want = rows_to_words(A[:, flat])
    got = prefix_words(start, start + D.ideal._exponents(), len(want))
    return np.array_equal(got[:, np.lexsort(got)], want[:, np.lexsort(want)])
