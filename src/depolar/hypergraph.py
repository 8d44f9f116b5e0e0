"""Alexander duals by one Berge fold over bitsets.

A slot set is a W-word bitset, W = ceil(slots / 64): slot s is bit s % 64
of word s // 64.  An array of N bitsets is stored word-major, shape (W, N)
uint64, so each numpy pass runs over one contiguous row of words, and a
single word costs the same operations as a plain uint64 mask.

Slots come in blocks, one per variable with one slot per exponent level.
A monomial is the mask that sets each block up to its level there, so
divisibility is containment, the level is the block's popcount, and raising
a coordinate to a level is an OR with a block prefix.  prefix_words is the
one encoder of monomials as masks, and minimal_columns the package's one
minimal-elements kernel.  A vertex set is the case of one slot per block,
and the dual of a squarefree ideal is the set of minimal transversals of
its generator supports.
"""

import numpy as np

from .ideals import (InputError, MonomialIdeal, ResourceLimit, check_exponent,
                     divides)

_M1, _M2, _M4, _H = map(np.uint64, (0x5555555555555555, 0x3333333333333333,
                                     0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _popcount_swar(x):
    """Bits set per uint64 word, as uint8 like numpy 2's np.bitwise_count."""
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H) >> np.uint64(56)).astype(np.uint8)


_popcount = getattr(np, "bitwise_count", _popcount_swar)

# _LOW[k] sets the low k bits of a word, k = 0..64
_LOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)
_WORD = (1 << 64) - 1


def _low(k):
    """Words with the low k bits set, k clamped to 0..64."""
    return _LOW.take(k, mode="clip")


def prefix_words(start, end, W):
    """(W, ...) masks over the last axis of the broadcast start and end:
    each entry sets the slots start <= s < end, a block prefix when start
    is its block's first slot and nothing when end <= start.  Each word is
    built and reduced in turn, so temporaries stay the size of end."""
    return np.stack([np.bitwise_or.reduce(
        _low(end - 64 * w) & ~_low(start - 64 * w), axis=-1)
        for w in range(W)])


def bits_of(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def to_words(masks, W):
    """(W, N) uint64 array of Python int masks below 2^(64 W)."""
    return np.array([[m >> (64 * w) & _WORD for m in masks] for w in range(W)],
                    dtype=np.uint64).reshape(W, -1)


def from_words(arr):
    """Python int masks of the columns of a (W, N) array."""
    rows = arr.tolist()
    out = rows[0]
    for w in range(1, len(rows)):
        out = [lo | hi << (64 * w) for lo, hi in zip(out, rows[w])]
    return out


def rows_to_words(rows):
    """(W, N) uint64 array of the 0/1 rows of an (N, n) array: column s of
    a row is slot s."""
    rows = np.asarray(rows, dtype=bool)
    n = rows.shape[1]
    packed = np.zeros((len(rows), 8 * max(1, -(-n // 64))), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64).T


def level_slots(L, used):
    """Slot layout of the levels L, an (N, n) array of nonnegative ints, at
    the used entries: column i gets one slot per distinct level it takes
    there, in ascending order, and the blocks follow the column order.
    Returns the slot of each entry (-1 where unused), the level of each
    slot, and the first and one-past-last slot of each column's block."""
    n = L.shape[1]
    base = int(L.max()) + 1
    key = np.arange(n) * base + L
    keys = _distinct(key[used])[0]
    block, level = np.divmod(keys, base)
    slot = np.where(used, np.searchsorted(keys, key), -1)
    lo = np.searchsorted(block, np.arange(n))
    hi = np.searchsorted(block, np.arange(n), side="right")
    return slot, level, lo, hi


def level_masks(G):
    """(W, N) masks of the exponent rows G (N, n) in the level_slots layout
    of their nonzero entries, with the layout's level, lo and hi.  Row g
    sets block i up to the slot of g_i, so x^g divides x^h exactly when
    the mask of g is a subset of the mask of h."""
    slot, level, lo, hi = level_slots(G, G > 0)
    W = max(1, -(-len(level) // 64))
    return prefix_words(lo, slot + 1, W), level, lo, hi


def slot_levels(T, level, lo, hi):
    """(N, n) levels of the (W, N) block-prefix masks T: in each block the
    level of the top slot set, 0 where none is."""
    filled = block_popcounts(T, lo.tolist(), hi.tolist())
    return np.where(filled > 0, level[lo + filled - 1], 0)


def _distinct(keys):
    """The distinct keys, sorted, and the index of one copy of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], order[first]


def lcm_closure(G, cap):
    """Exponent rows of the lcms of all nonempty subsets of the distinct
    exponent rows G (N, n), in no fixed order.

    Column i gets one slot per distinct nonzero level of its rows and a row
    sets its block up to its level, so every lcm of rows is the OR of their
    masks and levels decode back exactly.  The closure grows one frontier
    round at a time, each new point joined with every row.  Points are
    deduplicated on their W words viewed as one key (a uint64 when W is
    1), and ResourceLimit is raised once a round leaves more than cap.
    """
    masks, level, lo, hi = level_masks(G)
    W = len(masks)
    key_type = np.uint64 if W == 1 else np.dtype((np.void, 8 * W))

    def keys(arr):
        return np.ascontiguousarray(arr.T).view(key_type).ravel()
    seen = np.sort(keys(masks))
    parts = [masks]
    frontier = masks
    total = masks.shape[1]
    step = max(1, 2_000_000 // (W * len(G)))
    while True:
        new_keys, new_cols = [], []
        for i in range(0, frontier.shape[1], step):
            joins = (frontier[:, i:i + step, None]
                     | masks[:, None, :]).reshape(W, -1)
            k, idx = _distinct(keys(joins))
            pos = np.minimum(np.searchsorted(seen, k), len(seen) - 1)
            fresh = seen[pos] != k
            new_keys.append(k[fresh])
            new_cols.append(joins[:, idx[fresh]])
        k, idx = _distinct(np.concatenate(new_keys))
        frontier = np.concatenate(new_cols, axis=1)[:, idx]
        total += len(k)
        if total > cap:
            raise ResourceLimit(f"lcm lattice exceeds cap {cap}")
        if not len(k):
            break
        seen = np.sort(np.concatenate([seen, k]))
        parts.append(frontier)
    return slot_levels(np.concatenate(parts, axis=1), level, lo, hi)


def block_popcounts(arr, lo, hi):
    """(N, B) bits set in each column of a (W, N) array within each slot
    range lo[b] <= s < hi[b]."""
    blocks = to_words([(1 << h) - (1 << l) for l, h in zip(lo, hi)], len(arr))
    out = np.zeros((arr.shape[1], len(lo)), dtype=np.int64)
    for w in range(len(arr)):
        out += _popcount(arr[w][:, None] & blocks[w][None, :])
    return out


def _contains(cand, keep):
    """Boolean (len(cand), len(keep)): column j of keep is a subset of
    column i of cand, tested word by word."""
    out = (cand[0][:, None] & keep[0]) == keep[0]
    for w in range(1, len(cand)):
        out &= (cand[w][:, None] & keep[w]) == keep[w]
    return out


# words tested in one pass of _contains; its temporaries stay near 32 MB
_BUDGET = 4_000_000


def _subsets(cand, keep, reduce=np.logical_or.reduce):
    """reduce over the columns of keep inside each column of cand: by
    default whether there is one, with np.add.reduce how many."""
    if cand.shape[1] * keep.size <= _BUDGET:
        return reduce(_contains(cand, keep), axis=1)
    step = max(1, _BUDGET // keep.size)
    return np.concatenate([reduce(_contains(cand[:, i:i + step], keep), axis=1)
                           for i in range(0, cand.shape[1], step)])


def minimal_columns(arr):
    """Inclusion-minimal columns of a (W, N) array of distinct bitsets, in
    their given order.

    Within the _subsets budget every column is tested against all others
    at once.  Past it the columns are taken by popcount, lightest first,
    and each class is tested only against the lighter survivors: a proper
    subset has fewer bits, and distinct sets of one size never nest.
    """
    if arr.shape[1] * arr.size <= _BUDGET:
        return arr.compress(_subsets(arr, arr, np.add.reduce) == 1, axis=1)
    weight = sum(_popcount(word).astype(np.int64) for word in arr)
    order = np.argsort(weight, kind="stable")
    keep = np.zeros(arr.shape[1], dtype=bool)
    for cls in np.split(order, np.flatnonzero(np.diff(weight[order])) + 1):
        if keep.any():
            cls = cls[~_subsets(arr[:, cls], arr.compress(keep, axis=1))]
        keep[cls] = True
    return arr.compress(keep, axis=1)


def minimal_masks(masks):
    """Inclusion-minimal masks from an iterable of ints, sorted ascending."""
    masks = sorted(set(masks))
    if len(masks) <= 1:
        return masks
    arr = to_words(masks, -(-masks[-1].bit_length() // 64))
    return from_words(minimal_columns(arr))


def maximal_masks(masks, nverts):
    """Inclusion-maximal masks, via complements of minimal complements."""
    full = (1 << nverts) - 1
    return sorted(full ^ m for m in minimal_masks(full ^ m for m in masks))


def berge_fold(hits, starts, cap=None):
    """Minimal block-prefix masks that meet every row of hits.

    Row j of hits lists slots in distinct blocks, padded with -1, and a
    mask meets it by setting one of them; starts[s] is the first slot of
    the block holding slot s, and len(starts) is the slot count.  Rows are
    folded in one at a time in the given order (Berge multiplication): the
    masks that meet the row survive as they are, each of the rest is
    joined with the block prefix up to every slot of the row, and a join
    is dropped when it contains a survivor or another join.  Returns the
    minimal masks as a (W, N) array.
    """
    # slots first in each row, so row j's prefixes are prefix[:, j, :size[j]];
    # a -1 pad gets an empty prefix and adds nothing to the row's edge
    hits = np.sort(np.asarray(hits, dtype=np.int64), axis=1)[:, ::-1]
    starts = np.asarray(starts, dtype=np.int64)
    first = starts[hits]
    W = max(1, -(-len(starts) // 64))
    prefix = prefix_words(first[..., None], hits[..., None] + 1, W)
    edges = prefix_words(hits, hits + 1, W)
    # Joins from different slots of a row never nest, since a mask that
    # misses the row stays below each of its slots.  Joins from one slot
    # nest only when two masks below it differ inside its block, which
    # needs a prefix longer than one slot and at least two such masks.
    deep = (hits > first).any(axis=1).tolist()
    size = (hits >= 0).sum(axis=1).tolist()
    zero = np.uint64(0)
    T = np.zeros((W, 1), dtype=np.uint64)
    for j in range(len(hits)):
        hit = (T[0] & edges[0, j]) != zero
        for w in range(1, W):
            hit |= (T[w] & edges[w, j]) != zero
        t_miss = T.compress(~hit, axis=1)
        if not t_miss.shape[1]:
            continue
        t_hit = T.compress(hit, axis=1)
        pj = prefix[:, j, :size[j]]
        cand = (t_miss[:, :, None] | pj[:, None, :]).reshape(W, -1)
        if deep[j] and t_miss.shape[1] > 1:
            cand = minimal_columns(cand)
        cand = cand.compress(~_subsets(cand, t_hit), axis=1)
        T = np.concatenate([t_hit, cand], axis=1)
        if cap is not None and T.shape[1] > cap:
            raise ResourceLimit(f"{T.shape[1]} minimal masks exceed cap {cap}")
    return T


def alexander_dual_ideal(I, a=None, cap=None):
    """Minimal generators of the Alexander dual of I with respect to a.

    a defaults to the lcm exponent of I and must dominate it.  The dual is
    the intersection of the irreducible ideals m^(a minus g); g's ideal
    holds t when t_i >= a_i + 1 - g_i for some i in supp(g).  Variable i
    gets one slot per distinct level its generators ask for, at most a_i,
    and t sets the slots of block i up to t_i.  berge_fold folds the
    generators in, in colex order, on W-word bitsets.  Every dual of the
    package, complexes included, is computed here.
    """
    if I.is_zero:
        raise InputError("the zero ideal dualizes to the unit ideal")
    mu = I.lcm_exponent()
    if a is None:
        a = mu
    else:
        a = check_exponent(a, I.n)
        if not divides(mu, a):
            raise InputError(f"dual bound {a} must dominate {mu}")
    # colex order; on squarefree generators it is the ascending mask order,
    # so once every edge inside the first k vertices is in, the state is the
    # transversal set of those edges, never larger than the final one
    G = np.array(sorted(I.gens, key=lambda g: g[::-1]), dtype=np.int64)
    slot, level, lo, hi = level_slots(np.array(a, dtype=np.int64) + 1 - G,
                                      G > 0)
    T = berge_fold(slot, np.repeat(lo, hi - lo), cap)
    # the top slot set in block i holds t_i
    exps = slot_levels(T, level, lo, hi)
    return MonomialIdeal(I.ring, sorted(map(tuple, exps.tolist())))
