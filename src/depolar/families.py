"""Ideal families used by the benchmark harness and the random test fuel."""

import itertools
import random
from math import comb

from .ideals import InputError, MonomialIdeal, ResourceLimit, Ring

DEFAULT_GEN_CAP = 2 ** 22


def family_ring(n):
    return Ring([f"x{i}" for i in range(1, n + 1)])


def gen_power_ideal(n, k, cap=DEFAULT_GEN_CAP):
    """All monomials of degree k in n variables (the k-th power of the
    maximal ideal); they are already minimal."""
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    if comb(n + k - 1, k) > cap:
        raise ResourceLimit(f"{comb(n + k - 1, k)} generators exceed cap {cap}")
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        row = [0] * n
        for i in combo:
            row[i] += 1
        gens.append(tuple(row))
    return MonomialIdeal(family_ring(n), sorted(gens))


def gen_variable_powers(n, k):
    """The ideal of pure powers x_i^k."""
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    gens = []
    for i in range(n):
        row = [0] * n
        row[i] = k
        gens.append(tuple(row))
    return MonomialIdeal(family_ring(n), sorted(gens))


def gen_jknm(n, seq=None):
    """Sum over t of the ideals of all t-variable products raised to seq[t-1].

    The default sequence is the first floor(n/2) odd numbers, descending,
    e.g. (5, 3, 1) for n = 6.  The union is minimalized.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if seq is None:
        seq = tuple(range(2 * (n // 2) - 1, 0, -2)) or (1,)
    seq = tuple(int(m) for m in seq)
    if (not seq or len(seq) > n or any(m < 1 for m in seq)
            or any(seq[i] < seq[i + 1] for i in range(len(seq) - 1))):
        raise InputError("seq must be nonincreasing positive ints, len <= n")
    gens = []
    for t, m in enumerate(seq, start=1):
        for combo in itertools.combinations(range(n), t):
            row = [0] * n
            for i in combo:
                row[i] = m
            gens.append(tuple(row))
    return MonomialIdeal.from_gens(family_ring(n), gens)


def gen_random_ideal(n, max_gens, max_exp, seed):
    """Minimalized batch of up to max_gens random exponent vectors.

    Zero vectors are redrawn so the result always has a generator, and the
    output is a pure function of the seed.
    """
    if n < 1 or max_gens < 1 or max_exp < 1:
        raise InputError("need positive n, max_gens, max_exp")
    rng = random.Random(seed)
    gens = []
    for _ in range(max_gens):
        row = tuple(rng.randint(0, max_exp) for _ in range(n))
        while not any(row):
            row = tuple(rng.randint(0, max_exp) for _ in range(n))
        gens.append(row)
    return MonomialIdeal.from_gens(family_ring(n), gens)


FAMILY_BUILDERS = {
    "power": gen_power_ideal,
    "varpowers": gen_variable_powers,
    "jknm": gen_jknm,
    "random": gen_random_ideal,
}
