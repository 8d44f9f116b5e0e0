"""Alexander duals by a Berge fold over bitsets or a staircase grid.

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

The level grid of the same layout (level_grid) has an axis per used
variable and a cell per distinct level plus one below.  Three kernels read
it.  _staircase reads the Alexander dual off its maximal standard cells;
_dual_plan picks it on few variables with many generators, the compact
side of a depolarization, and berge_fold otherwise.  The fold tests the
joins of a row only against the masks that meet the row exactly once: a
join sets one slot of the row, so any mask inside it meets the row once,
at that slot, and lies inside the row's reach, the union of its joins.  On
a row of first slots only (every squarefree row) a join adds that one
slot, so u kills the join of t at the slot where u meets the row exactly
when u minus the row lies inside t: one test per (t, u) pair.  A
squarefree ideal dualized with respect to its lcm is its own slot layout,
one slot per variable, so the fold reads its words and returns the dual's
words.
homology.graded_betti reads the Koszul complexes off the grid
(koszul_patterns gives each cell its complex as 2^n bits, cone_free drops
the cones, restricted_patterns cuts each pattern to its axes, and
outside_widest_star lists a form's faces outside a vertex's star), and
repolarize_dual writes one support's rows from the inside cells of its
grid.  _GRID_BYTES bounds the last two.
"""

import math
from functools import lru_cache

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


def width(slots):
    """Words per bitset of that many slots: ceil(slots / 64), at least 1."""
    return max(1, -(-slots // 64))


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
    packed = np.zeros((len(rows), 8 * width(n)), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64).T


def columns_to_words(rows):
    """(W, n) uint64 array of the columns of an (N, n) bool or 0/1 uint8
    array: bit r of column i is row r, W = width(N).  Each byte gathers 8
    rows by shift-or over whole rows, so no transposed copy is made."""
    rows = np.asarray(rows).view(np.uint8)
    n = rows.shape[1]
    W = width(len(rows))
    packed = np.zeros((8 * W, n), dtype=np.uint8)
    for k in range(8):
        part = rows[k::8]
        packed[:len(part)] |= part << k
    words = packed.reshape(W, 8, n).transpose(0, 2, 1).copy().view("<u8")
    return words.reshape(W, n).astype(np.uint64, copy=False)


def words_to_rows(arr, n):
    """(N, n) uint8 0/1 rows of the columns of a (W, N) array, the inverse
    of rows_to_words: slot s is column s."""
    packed = np.ascontiguousarray(arr.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


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
    return prefix_words(lo, slot + 1, width(len(level))), level, lo, hi


def slot_levels(T, level, lo, hi):
    """(N, n) levels of the (W, N) block-prefix masks T: in each block the
    level of the top slot set, 0 where none is."""
    filled = block_popcounts(T, lo, hi)
    return np.where(filled > 0, level[lo + filled - 1], 0)


def _distinct(keys):
    """The distinct keys, sorted, and the index of one copy of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], order[first]


def _column_keys(arr):
    """(N,) keys of the columns of a (W, N) array, equal exactly when the
    columns are: the word itself when W is 1, the W words' bytes as one
    void key otherwise."""
    W = len(arr)
    key_type = np.uint64 if W == 1 else np.dtype((np.void, 8 * W))
    return np.ascontiguousarray(arr.T).view(key_type).ravel()


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
    seen = np.sort(_column_keys(masks))
    parts = [masks]
    frontier = masks
    total = masks.shape[1]
    step = max(1, 2_000_000 // (W * len(G)))
    while True:
        new_keys, new_cols = [], []
        for i in range(0, frontier.shape[1], step):
            joins = (frontier[:, i:i + step, None]
                     | masks[:, None, :]).reshape(W, -1)
            k, idx = _distinct(_column_keys(joins))
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
    range lo[b] <= s < hi[b], for arrays lo and hi."""
    blocks = prefix_words(lo[:, None], hi[:, None], len(arr))
    out = np.zeros((arr.shape[1], len(lo)), dtype=np.int64)
    for w in range(len(arr)):
        out += _popcount(arr[w][:, None] & blocks[w][None, :])
    return out


def popcounts(arr):
    """(N,) int64 bits set in each column of a (W, N) array."""
    return sum(_popcount(word).astype(np.int64) for word in arr)


def _contains(cand, keep):
    """Boolean (cand.shape[1], keep.shape[1]): column j of keep is a subset
    of column i of cand, that is no word of it has a bit outside cand's."""
    out = keep[0] & ~cand[0][:, None]
    for w in range(1, len(cand)):
        out |= keep[w] & ~cand[w][:, None]
    return out == 0


# words tested in one pass of _contains; its temporaries stay near 32 MB
_BUDGET = 4_000_000


def _subsets(cand, keep, reduce=np.logical_or.reduce):
    """reduce over the columns of keep inside each column of cand: by
    default whether there is one, with np.add.reduce how many.  reduce
    gets a boolean block of _contains and axis=1, and gives one row per
    column of cand."""
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
    weight = popcounts(arr)
    order = np.argsort(weight, kind="stable")
    keep = np.zeros(arr.shape[1], dtype=bool)
    for cls in np.split(order, np.flatnonzero(np.diff(weight[order])) + 1):
        if keep.any():
            cls = cls[~_subsets(arr[:, cls], arr.compress(keep, axis=1))]
        keep[cls] = True
    return arr.compress(keep, axis=1)


# words tested in one pass of is_antichain; its temporaries stay near 2 MB
_ANTICHAIN_PASS = 2 ** 18


def is_antichain(arr):
    """Whether no column of a (W, N) array of distinct bitsets lies inside
    another.  A proper subset has fewer bits, so each popcount class is
    tested only against the lighter columns, in passes of at most
    _ANTICHAIN_PASS words."""
    weight = popcounts(arr)
    order = np.argsort(weight, kind="stable")
    bounds = (np.flatnonzero(np.diff(weight[order])) + 1).tolist()
    for lo, hi in zip(bounds, bounds[1:] + [len(order)]):
        lighter = arr[:, order[:lo]]
        step = max(1, _ANTICHAIN_PASS // lighter.size)
        for i in range(lo, hi, step):
            if _subsets(arr[:, order[i:min(i + step, hi)]], lighter).any():
                return False
    return True


def single_bits(arr):
    """(W, N, K) masks of the set bits of the columns of a (W, N) array, one
    bit each: column j's bits first, word 0 up and low to high in a word,
    then empty masks; K is the largest popcount, at least 1.  The bits are
    read off the nonzero bytes alone, in that order, ranked within their
    column and written in one scatter."""
    W, N = arr.shape
    data = np.ascontiguousarray(arr.T, dtype="<u8").view(np.uint8)
    col, byte = np.nonzero(data)
    at, bit = np.nonzero(np.unpackbits(data[col, byte][:, None], axis=1,
                                       bitorder="little"))
    col, slot = col[at], 8 * byte[at] + bit
    count = np.bincount(col, minlength=N)
    rank = np.arange(len(col)) - (np.cumsum(count) - count)[col]
    out = np.zeros((W, N, max(1, int(count.max(initial=0)))), dtype=np.uint64)
    out[slot >> 6, col, rank] = np.uint64(1) << (slot & 63).astype(np.uint64)
    return out


# A row drops the once survivors outside its reach when its killer test
# would take more pairs than this.  On the direct-dual tiers (2-vCPU VM,
# numpy 2.4.6, one BLAS thread, min of 9 interleaved runs, seed 1) the
# small and large tiers took 80.6 and 126.2 ms with the bound on every row
# that a mask misses, 70.9 and 119.7 from 1,000 pairs, 70.3 and 117.4 from
# 3,000, 70.9 and 120.6 from 10,000, 69.5 and 127.1 from 30,000, and 69.4
# and 157.0 ms with no bound.  Leaving out the rows that one mask misses
# (min of 11, seed 1 and 2) kept the small tier and took the large one
# from 119.9 to 127.2 and from 115.0 to 120.8 ms; m^(3,22) P alone went
# from 11.6 to 15.1 ms.
_REACH_PAIRS = 3000


def berge_fold(edges, prefix, cap=None):
    """Minimal block-prefix masks that meet every row.

    Column j of the (W, N) edges sets the slots of row j, each in its own
    block, and a mask meets the row by setting one of them.  prefix[:, j]
    is a (W, K) array of the block prefixes up to the slots of row j, one
    per slot and then empty masks.  Rows are folded in one at a time in
    the given order (Berge multiplication): the masks that meet the row
    survive as they are, each of the rest is joined with every prefix of
    the row, and a join is dropped when it contains a survivor or another
    join.  Returns the minimal masks as a (W, N) array.

    A join t + prefix(v) of a mask t that misses the row sets v and no
    other slot of the row, so a survivor u inside it meets the row at v
    alone.  Joins are therefore tested only against once, the survivors
    that set exactly one slot of the row.  Such a u lies inside the union
    of the joins, the reach of the row, so on rows with many pairs to test
    the once outside it are dropped first.  When every prefix of the row
    is one slot, u lies inside t + v exactly when u meets the row at v and
    the rest of u lies inside t: one test of t against u minus the row
    then settles the join of t with the one slot where u meets the row.
    """
    W = len(edges)
    span = np.bitwise_or.reduce(prefix, axis=2)
    # Joins from different slots of a row never nest, since a mask that
    # misses the row stays below each of its slots.  Joins from one slot
    # nest only when two masks below it differ inside its block, which
    # needs a prefix longer than one slot and at least two such masks.
    deep = (span != edges).any(axis=0).tolist()
    size = (prefix != 0).any(axis=0).sum(axis=1).tolist()
    # per row: its edge, the slots off it and its prefixes' union as
    # (W, 1), its prefixes as (W, 1, K)
    edges = edges.T[:, :, None]
    span = span.T[:, :, None]
    prefix = prefix.transpose(1, 0, 2)[:, :, None, :]
    T = np.zeros((W, 1), dtype=np.uint64)
    for edge, rest, sp, pj, k, d in zip(edges, ~edges, span, prefix, size,
                                        deep):
        met = _popcount(T & edge)
        met = met[0] if W == 1 else met.sum(axis=0)
        t_miss = T.compress(met == 0, axis=1)
        if not t_miss.shape[1]:
            continue
        once = T.compress(met == 1, axis=1)
        T = T.compress(met, axis=1)
        # the killer test below takes at least these columns against once:
        # the masks that miss the row, or the row's joins when one does
        tested = t_miss.shape[1] if t_miss.shape[1] > 1 else k
        if tested * once.shape[1] > _REACH_PAIRS:
            # a killer lies inside some join, so inside their union
            reach = np.bitwise_or.reduce(t_miss, axis=1, keepdims=True) | sp
            once = once.compress(~(once & ~reach).any(axis=0), axis=1)
        pj = pj[..., :k]
        cand = (t_miss[:, :, None] | pj).reshape(W, -1)
        if d and t_miss.shape[1] > 1:
            cand = minimal_columns(cand)
        if d or t_miss.shape[1] == 1:
            # with one mask missing the row, the stripped test below and
            # its slot map test no fewer words than the joins against once
            cand = cand.compress(~_subsets(cand, once), axis=1)
        elif once.shape[1]:
            # meets[u, v]: u sets slot v; killers[t, v] counts the u that
            # meet the row at v with the rest inside t.  A float32 sum of
            # 0s and 1s is 0 exactly when every term is, so the count can
            # run in BLAS.
            meets = _contains(once, pj[:, 0]).astype(np.float32)

            def per_slot(inside, axis):
                return inside.astype(np.float32) @ meets
            killers = _subsets(t_miss, once & rest, per_slot)
            cand = cand.compress(killers.ravel() == 0, axis=1)
        T = np.concatenate([T, cand], axis=1)
        if cap is not None and T.shape[1] > cap:
            raise ResourceLimit(f"{T.shape[1]} minimal masks exceed cap {cap}")
    return T


# Closing every axis of a bool grid (2-vCPU VM, numpy 2.4.6, min of 15
# runs), accumulate against the slab ORs took 0.47 against 0.56 ms on
# (256, 256), 1.84 against 1.53 ms on (512, 512), 2.7 against 0.4 ms on
# (10,)*5, and 0.02 against 1.3 ms on (5000,): the slab ORs pay from
# slabs of about 512 cells.
_SLAB = 512


def _closed_grid(shape, marks):
    """Bool grid of the given shape holding the upward closure of the cells
    marks, one index array per axis: a cell is set when some marked cell
    lies at or below it on every axis.  Each axis is closed in place, by an
    OR of every slab into the next when its slabs hold _SLAB cells or more,
    and by np.logical_or.accumulate when a call per slab costs more."""
    grid = np.zeros(shape, dtype=bool)
    grid[marks] = True
    for ax in range(grid.ndim):
        slabs = np.swapaxes(grid, 0, ax)
        if grid.size < _SLAB * len(slabs):
            np.logical_or.accumulate(slabs, axis=0, out=slabs)
        else:
            for j in range(1, len(slabs)):
                slabs[j] |= slabs[j - 1]
    return grid


def level_grid(slot, lo, hi):
    """The used columns of a level_slots layout and its closed level grid:
    an axis per used column, cell j from its j-th level to just below the
    next, where each row marks the cell of its levels, 0 where unused."""
    axes = np.flatnonzero(hi > lo)
    sub = slot[:, axes]
    return axes, _closed_grid(tuple((hi - lo + 1)[axes].tolist()), tuple(
        np.where(sub >= 0, sub - lo[axes] + 1, 0).T))


# bytes a level grid may hold: the Betti patterns, and a repolarized
# support's bool grid.  jknm(8)'s patterns (5^8 cells of 4 words) hold
# 12.5 MB; jknm(9)'s would hold 125 MB.  An axis has 2 cells or more, so
# a grid within the budget, below 2^32 bytes, has fewer than 32 axes.
_GRID_BYTES = 1 << 25


def within_grid_bytes(shape, cell_bytes=1):
    """Whether a grid of this shape, cell_bytes per cell, fits _GRID_BYTES."""
    return math.prod(shape) * cell_bytes <= _GRID_BYTES


# _FREE[i], i < 6: the bits F of a word whose set of axes F misses axis i
_FREE = np.array([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                  0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
                 dtype=np.uint64)


def koszul_patterns(grid):
    """(W, cells) Koszul patterns of the cells of a bool grid of n axes, in
    C order, W = width(2^n): bit F of cell j, F read as a set of axes, is
    whether cell j - F is set, unset when j - F leaves the grid.  Axis i
    sets the bits F that hold i from the cell below on that axis.  The
    earlier axes set only bits below 2^i, so for i < 6 that is a shift by
    2^i inside word 0, and past that a copy of the first 2^(i-6) words into
    the next 2^(i-6)."""
    n = grid.ndim
    pat = np.zeros((width(1 << n),) + grid.shape, dtype=np.uint64)
    pat[0] = grid
    for ax in range(n):
        words = np.swapaxes(pat, 1, ax + 1)
        if ax < 6:
            words[0, 1:] |= words[0, :-1] << np.uint64(1 << ax)
        else:
            h = 1 << (ax - 6)
            words[h:2 * h, 1:] = words[:h, :-1]
    return pat.reshape(len(pat), -1)


def _halves(pat, i):
    """The words of (W, N) patterns split by axis i, (without, with): bits F
    that miss i and the bits F + i, aligned at the same positions."""
    if i < 6:
        return pat & _FREE[i], pat >> np.uint64(1 << i) & _FREE[i]
    h = 1 << (i - 6)
    W, N = pat.shape
    split = pat.reshape(W // (2 * h), 2, h, N)
    return split[:, 0].reshape(W // 2, N), split[:, 1].reshape(W // 2, N)


# words tested in one pass of cone_free; its temporaries stay near 2 MB
_CONE_PASS = 2 ** 18


def cone_free(pat, n):
    """The columns of (W, N) patterns on n axes (koszul_patterns) that have
    no cone vertex, as their indices, their words and an (n, M) bool array
    of the axes their set bits hold.  Axis i is a cone vertex when every
    set bit F that misses i has F + i set too, one word test per axis;
    the void pattern, whose cell is unset, is a cone on every axis.  The
    columns are tested in passes of at most _CONE_PASS words, and each
    axis tests only the columns that the axes before it kept."""
    keep = []
    step = max(1, _CONE_PASS // len(pat))
    for start in range(0, pat.shape[1], step):
        block = pat[:, start:start + step]
        idx = np.flatnonzero(block[0] & np.uint64(1))
        block = block[:, idx]
        for i in range(n):
            without, with_i = _halves(block, i)
            held = (without & ~with_i).any(axis=0)
            idx, block = idx[held], block[:, held]
        keep.append(idx + start)
    keep = np.concatenate(keep)
    pat = pat[:, keep]
    used = np.array([_halves(pat, i)[1].any(axis=0) for i in range(n)],
                    dtype=bool).reshape(n, len(keep))
    return keep, pat, used


def _drop_axis(pat, i):
    """(W, N) patterns whose set bits all miss axis i, with axis i taken
    out of the index: bit F of the result is the bit of pat at F with the
    axes from i on moved one up.  Past the first 6 axes that keeps the
    words that miss i.  Below, it gathers the bits that miss i in each
    word into its low half, doubling the runs of kept bits each step, and
    joins the halves of two words into one."""
    out = np.zeros_like(pat)
    if i >= 6:
        out[:len(pat) // 2] = _halves(pat, i)[0]
        return out
    x = pat & _FREE[i]
    for j in range(i, 5):
        x = (x | x >> np.uint64(1 << j)) & _FREE[j + 1]
    out[:-(-len(x) // 2)] = x[0::2]
    out[:len(x) // 2] |= x[1::2] << np.uint64(32)
    return out


def restricted_patterns(pat, used):
    """(W, N) patterns cut down to the axes their set bits hold, used an
    (n, N) bool array of them (cone_free): the axes each pattern misses are
    taken out of its index from the last one down, so the axes it holds
    become 0..c-1 in order, and equal complexes on any c axes give equal
    words.  Bits past 2^c are 0."""
    pat = pat.copy()
    for i in reversed(range(len(used))):
        drop = ~used[i]
        if drop.any():
            pat[:, drop] = _drop_axis(pat[:, drop], i)
    return pat


# a form on a grid within _GRID_BYTES has c <= 14 vertices
@lru_cache(maxsize=16)
def _free_masks(c):
    """FREE_c(i) for each vertex i < c: the bits F of 2^c, F read as a set
    of vertices, whose F misses i, as ints."""
    full = (1 << (1 << c)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1)
                 for i in range(c))


def outside_widest_star(x, c):
    """The faces of a complex outside the closed star of its vertex with
    the widest star, as an int of the same bits.  x is the complex on
    vertices 0..c-1 as an int, bit F set when F is a face.  The faces F
    that miss i with F + i a face, x & (x >> 2^i) & FREE_c(i), are the star
    of i less the faces that hold i, and the faces outside it are those
    that miss i with F + i no face.  With no vertex, c = 0, x comes back
    whole."""
    masks = _free_masks(c)
    stars = [(x & x >> (1 << i) & f).bit_count() for i, f in enumerate(masks)]
    if not stars:
        return x
    i = stars.index(max(stars))
    return x & masks[i] & ~(x >> (1 << i))


def _staircase(slot, level, lo, hi, a, cap=None):
    """(N, n) rows of the generators a - c of the Alexander dual of the
    ideal in the layout slot, level, lo, hi, c a maximal standard monomial.

    With v_1 < ... < v_k the levels of axis i, cell j of level_grid holds
    the exponents from v_j to v_(j+1) - 1, and cell k those up to a_i.  A
    cell outside the ideal whose next cell on every axis is in it, or past
    the last, is maximal standard, and a - c sets x_i to a_i + 1 - v_(j+1),
    0 for the last cell.  cap bounds the number of rows, which nothing
    holds before the grid is done, with the fold's message.
    """
    axes, grid = level_grid(slot, lo, hi)
    maximal = ~grid
    for ax in range(len(axes)):
        np.swapaxes(maximal, 0, ax)[:-1] &= np.swapaxes(grid, 0, ax)[1:]
    count = np.count_nonzero(maximal)
    if cap is not None and count > cap:
        raise ResourceLimit(f"{count} minimal masks exceed cap {cap}")
    rows = np.zeros((count, len(slot[0])), dtype=np.int64)
    for ax, cell in zip(axes, np.nonzero(maximal)):
        # the last cell reads a clipped level, and its row takes 0
        rows[:, ax] = np.where(cell < hi[ax] - lo[ax], a[ax] + 1 - level.take(
            lo[ax] + cell, mode="clip"), 0)
    return rows


def _fold(G, layout, cap=None):
    """The dual from berge_fold over the generators in colex order, which
    on squarefree generators keeps the state no larger than the final one.

    With layout None, G is the words of a squarefree ideal dualized with
    respect to its lcm: each variable is a slot of its own, the words
    themselves are the rows, in colex order as numbers, and the fold's
    masks are the dual's words.  Otherwise G holds exponent rows and
    layout is their level_slots layout with the dual bound a, and the
    result is the rows _staircase gives.  The fold's blocks ascend in the
    dual's levels a + 1 - g, so it reads each block of the layout
    mirrored."""
    if layout is None:
        edges = G[:, np.lexsort(G)]
        prefix = single_bits(edges)
    else:
        slot, level, lo, hi, a = layout
        block = np.repeat(np.arange(len(lo)), hi - lo)
        mirror = (lo + hi - 1)[block] - np.arange(len(level))
        # slots first in each row, so the empty prefixes of the -1 pads
        # come last
        hits = np.sort(np.where(slot >= 0, mirror[slot], -1)[
            np.lexsort(G.T)], axis=1)[:, ::-1]
        W = width(len(level))
        edges = prefix_words(hits, hits + 1, W)
        prefix = prefix_words(lo[block][hits][..., None], hits[..., None] + 1,
                              W)
    T = berge_fold(edges, prefix, cap)
    if layout is None:
        return T
    # the top slot set in block i holds t_i
    return slot_levels(T, a[block] + 1 - level[mirror], lo, hi)


# the grid is taken when axes * cells <= _GRID_PER_GEN * generators.  With
# the slab-wise closure (2-vCPU VM, numpy 2.4.6, min of 15 alternating
# runs) the grid was faster on random ideals of 5-7 variables up to a
# ratio of 12,500 (0.45-0.76 against 0.55-1.10 ms), on m^(6,8) (2,478:
# 6.5 against 28.6 ms), m^(7,6) (6,239: 11.2 against 18.8 ms) and m^(7,7)
# (8,555: 30 against 44 ms), and tied on m^(8,4) (9,470: 6.5 against 6.7
# ms); it was slower on m^(8,5) (16,966: 32 against 29 ms), jknm(8)
# (19,290: 6.5 against 6.0 ms) and jknm(9) (68,934: 35 against 9 ms).
# On 2-4 variables (min of 3-9 runs) the grid won by far: m^(2,3000)
# (6,002: 85 ms against 4.6 s), m^(2,5000) (10,002, left to the fold: 306
# ms against 19 s), m^(3,150) (900: 28 ms against 3.6 s), m^(4,20) (439:
# 3.2 against 111 ms); on random ideals of 4 variables it won at 9,408
# (1.2 against 1.5 ms) and tied at 21,518 (2.7 against 2.5 ms).
_GRID_PER_GEN = 10000
# numpy 1.24 arrays have at most 32 axes
_GRID_AXES = 32


def _grid_rule(sizes, gens):
    """The grid's cell count over axes of the given level counts, and
    whether it takes them for that many generators."""
    cells = math.prod(k + 1 for k in sizes)
    return cells, (len(sizes) <= _GRID_AXES
                   and len(sizes) * cells <= _GRID_PER_GEN * gens)


def _dual_plan(I, a=None):
    """The generators G of I, their layout, the kernel ("grid" or "fold")
    and the grid's cell count.  The grid is taken on at most _GRID_AXES
    used variables when axes * cells <= _GRID_PER_GEN * len(G), so its
    bool array holds at most _GRID_PER_GEN * len(G) / axes bytes.

    A squarefree ideal has one level on each of its u used variables, so
    2^u cells, read off its words.  When the fold takes it and a is its
    lcm, G is its words and the layout None (the words path of _fold).
    Otherwise G is the exponent rows, and the layout their level_slots
    layout with the dual bound a after it."""
    if I.is_zero:
        raise InputError("the zero ideal dualizes to the unit ideal")
    if a is not None:
        a = check_exponent(a, I.n)
    if I.is_squarefree():
        used = bits_of(from_words(
            np.bitwise_or.reduce(I.words, axis=1, keepdims=True))[0])
        cells, grid = _grid_rule([1] * len(used), I._count())
        if not grid and (a is None or a == tuple(
                int(i in used) for i in range(I.n))):
            return I.words, None, "fold", cells
    G = I._exponents()
    mu = tuple(G.max(axis=0).tolist())
    if a is None:
        a = mu
    elif not divides(mu, a):
        raise InputError(f"dual bound {a} must dominate {mu}")
    slot, level, lo, hi = level_slots(G, G > 0)
    cells, grid = _grid_rule((hi - lo)[hi > lo].tolist(), len(G))
    return (G, (slot, level, lo, hi, np.array(a, dtype=np.int64)),
            "grid" if grid else "fold", cells)


def alexander_dual_ideal(I, a=None, cap=None, *, _plan=None):
    """Minimal generators of the Alexander dual of I with respect to a.

    a defaults to the lcm exponent of I and must dominate it.  The dual is
    the intersection of the irreducible ideals m^(a minus g); g's ideal
    holds t when t_i >= a_i + 1 - g_i for some i in supp(g).  Variable i
    gets one slot per distinct level its generators ask for, at most a_i.
    _dual_plan picks the kernel from those level counts: _staircase reads
    the dual off the grid of the levels when the grid is small next to the
    generator count, berge_fold folds the generators in otherwise.  Both
    give the same rows, and cap bounds their count: the fold's state after
    every generator, the grid's result.  A squarefree ideal that the fold
    takes with respect to its lcm is folded on its own words, and its
    dual's words come straight out of the fold.  Every dual of the
    package, complexes included, is computed here.  The dual is held as
    words when every exponent of it is 0 or 1, as rows otherwise.  _plan
    is _dual_plan(I, a) when the caller has already made it.
    """
    G, layout, kernel, _ = _plan or _dual_plan(I, a)
    if layout is None:
        return MonomialIdeal._of_words(I.ring, _fold(G, None, cap))
    rows = (_staircase(*layout, cap) if kernel == "grid"
            else _fold(G, layout, cap))
    return MonomialIdeal._of_rows(I.ring, rows)
