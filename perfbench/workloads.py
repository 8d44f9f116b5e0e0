"""The four workloads: seeded instance tiers, the timed operation, the check.

Inputs are built here from the seed, not by depolar.families, so a change
to the library's generators cannot change what is measured.  Each tier is a
list of Instance; the timed operation and its check depend on the kind:

- roundtrip: Algorithm 1, duality.dual_complex_via_depolarization;
- complex: complexes.alexander_dual_complex (the direct complex dual);
- ideal: duality.alexander_dual_ideal of a compact or polarized ideal;
- betti: homology.graded_betti over Q;
- depolarize: polarization.polarize_ideal, then depolarization.depolarize
  along the minimum chain partition.

Library functions are looked up on their modules at call time, so the
wrappers tracing.Tracer installs see every call.
"""

import itertools
import random

from depolar import complexes, depolarization, duality, homology, polarization
from depolar.complexes import SimplicialComplex
from depolar.ideals import MonomialIdeal, Ring

import checks


class Instance:
    """One input: kind selects the operation, facts name closed forms."""

    __slots__ = ("label", "kind", "obj", "facts")

    def __init__(self, label, kind, obj, **facts):
        self.label = label
        self.kind = kind
        self.obj = obj
        self.facts = facts


def ring(n):
    return Ring([f"x{i}" for i in range(1, n + 1)])


def power(n, k):
    """m^k: every monomial of degree k in n variables."""
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        row = [0] * n
        for i in combo:
            row[i] += 1
        gens.append(tuple(row))
    return MonomialIdeal(ring(n), sorted(gens))


def pure_powers(n, k):
    """The complete intersection <x_1^k, ..., x_n^k>."""
    return MonomialIdeal(ring(n), sorted(
        tuple(k if j == i else 0 for j in range(n)) for i in range(n)))


def jknm(n):
    """Sum over t of the t-variable products raised to the t-th entry of
    (2*floor(n/2) - 1, ..., 3, 1); the benchmark family of the paper."""
    seq = range(2 * (n // 2) - 1, 0, -2)
    gens = []
    for t, m in enumerate(seq, start=1):
        for combo in itertools.combinations(range(n), t):
            gens.append(tuple(m if i in combo else 0 for i in range(n)))
    return MonomialIdeal.from_gens(ring(n), gens)


def x_power_y(k):
    """<x^k, y>: its polarization is one long chain and one singleton."""
    return MonomialIdeal(Ring(["x", "y"]), [(0, 1), (k, 0)])


def random_ideal(rng, n, gens, top):
    rows = []
    while len(rows) < gens:
        row = tuple(rng.randint(0, top) for _ in range(n))
        if any(row):
            rows.append(row)
    return MonomialIdeal.from_gens(ring(n), rows)


def polarize(I):
    """Own polarization, named name_1.. per block as the library does."""
    a = [max(col) for col in zip(*I.gens)]
    names = [f"{v}_{j}" for v, size in zip(I.ring.variables, a)
             for j in range(1, size + 1)]
    return MonomialIdeal(Ring(names), sorted(checks.polarization_gens(I)))


def complement_complex(P):
    """The complex whose facet-complement ideal is the squarefree P."""
    full = (1 << P.n) - 1
    return SimplicialComplex(P.ring.variables,
                             sorted(full ^ checks.mask_of(g) for g in P.gens))


def _rng(workload, seed, tier):
    return random.Random(f"{workload}:{seed}:{tier}")


# ---- roundtrip and direct-dual share their inputs -------------------------

def _power_item(n, k):
    return f"m^({n},{k})", power(n, k), (n, k)


def _shared(seed, tiny):
    """(label, J, power) of the ideals roundtrip and direct-dual share."""
    rng = _rng("dual", seed, "small")
    shapes = [(5, 16, 5), (6, 16, 4)] * (2 if tiny else 16)
    rand = [(f"random{n}v#{r}", random_ideal(rng, n, g, e), None)
            for r, (n, g, e) in enumerate(shapes)]
    if tiny:
        return [_power_item(3, 4), ("jknm(4)", jknm(4), None)] + rand, \
            [_power_item(3, 6)]
    small = [_power_item(n, k)
             for n, k in [(3, 6), (3, 10), (3, 14), (4, 6), (4, 8), (5, 5)]]
    small += [(f"jknm({n})", jknm(n), None) for n in (6, 7)] + rand
    return small, [_power_item(5, 10), ("jknm(8)", jknm(8), None)]


def roundtrip_tiers(seed, tiny=False):
    def tier(items):
        return [Instance(label, "roundtrip", complement_complex(polarize(J)),
                         power=pw) for label, J, pw in items]
    small, large = _shared(seed, tiny)
    return tier(small), tier(large)


def direct_dual_tiers(seed, tiny=False):
    def tier(items, complexes_too=True):
        out = []
        for label, J, pw in items:
            P = polarize(J)
            out.append(Instance(label + " J", "ideal", J, power=pw))
            out.append(Instance(label + " P", "ideal", P, power=pw,
                                polar=True))
            if complexes_too:
                out.append(Instance(label + " complex", "complex",
                                    complement_complex(P), power=pw))
        return out
    small, large = _shared(seed, tiny)
    # slot budgets sum(a) = n*k on both sides of the 64-slot packed kernel
    cliff = [] if tiny else [_power_item(3, 21), _power_item(3, 22)]
    compact = [] if tiny else [
        Instance(f"m^({n},{k}) J", "ideal", power(n, k), power=(n, k))
        for n, k in [(4, 16), (4, 17), (5, 12), (5, 13)]]
    return tier(small), tier(large) + tier(cliff, False) + compact


def betti_tiers(seed, tiny=False):
    def pw(n, k):
        return Instance(f"m^({n},{k})", "betti", power(n, k), power=(n, k))

    def ci(n, k):
        return Instance(f"ci({n},{k})", "betti", pure_powers(n, k), ci=(n, k))

    def jk(n):
        return Instance(f"jknm({n})", "betti", jknm(n))
    rng = _rng("betti", seed, "small")
    shapes = [(4, 10, 4), (5, 10, 3)] * (2 if tiny else 20)
    rand = [Instance(f"random{n}v#{r}", "betti", random_ideal(rng, n, g, e))
            for r, (n, g, e) in enumerate(shapes)]
    if tiny:
        return [pw(3, 3), ci(4, 2), jk(4)] + rand, [pw(3, 5)]
    small = [pw(3, 3), pw(3, 5), pw(4, 3), pw(3, 8), pw(4, 4),
             ci(4, 2), ci(6, 2), ci(8, 3), ci(7, 4), jk(4), jk(5)] + rand
    large = [jk(6), pw(4, 5), pw(5, 3), ci(10, 2)]
    return small, large


def depolarize_tiers(seed, tiny=False):
    def xy(k):
        return Instance(f"<x^{k},y>", "depolarize", x_power_y(k), chains=2)

    def pw(n, k):
        return Instance(f"m^({n},{k})", "depolarize", power(n, k), chains=n)
    rng = _rng("depolarize", seed, "small")
    shapes = [(4, 20, 10), (5, 30, 8), (6, 40, 6)] * (1 if tiny else 12)
    rand = [Instance(f"random{n}v#{r}", "depolarize",
                     random_ideal(rng, n, g, e))
            for r, (n, g, e) in enumerate(shapes)]
    if tiny:
        return [xy(20), pw(3, 6)] + rand, [xy(60)]
    small = [xy(k) for k in (25, 50, 100, 150, 200)]
    small += [pw(2, 60), pw(3, 20), pw(4, 10), pw(5, 6)] + rand
    large = [xy(k) for k in (300, 350, 400)] + [pw(3, 60), pw(2, 150),
                                                pw(4, 15)]
    return small, large


TIERS = {
    "roundtrip": roundtrip_tiers,
    "direct-dual": direct_dual_tiers,
    "betti": betti_tiers,
    "depolarize": depolarize_tiers,
}


def warmup_instances(workload):
    """Tiny inputs that touch every kernel path once before timing."""
    cx = complement_complex(polarize(power(2, 3)))
    if workload == "roundtrip":
        return [Instance("warm", "roundtrip", cx)]
    if workload == "direct-dual":
        # m^(2,33) has 66 slots: the integer-row fold and the unpacked
        # transversal path run once too
        J = power(2, 33)
        return [Instance("warm", "ideal", power(2, 3)),
                Instance("warm", "ideal", J),
                Instance("warm", "ideal", polarize(J)),
                Instance("warm", "complex", cx)]
    return [Instance("warm", workload, power(2, 3))]


# ---- the timed operations --------------------------------------------------

def run(inst):
    kind, obj = inst.kind, inst.obj
    if kind == "roundtrip":
        return duality.dual_complex_via_depolarization(obj)[0]
    if kind == "complex":
        return complexes.alexander_dual_complex(obj)
    if kind == "ideal":
        return duality.alexander_dual_ideal(obj)
    if kind == "betti":
        return homology.graded_betti(obj)
    P, _ = polarization.polarize_ideal(obj)
    return P, depolarization.depolarize(P)


def fingerprint(inst, out):
    """A comparable form of an output, to confirm passes agree."""
    kind = inst.kind
    if kind in ("roundtrip", "complex"):
        return out.vertices, out.facets
    if kind == "ideal":
        return out.ring, out.gens
    if kind == "betti":
        return tuple(sorted(out.entries.items()))
    P, D = out
    return P.ring, P.gens, D.ideal.gens, D.chains


def check(inst, out):
    """Problems found in the output of inst; empty when it is right."""
    kind, obj, facts = inst.kind, inst.obj, inst.facts
    if kind in ("roundtrip", "complex"):
        return checks.complex_dual_problems(
            obj, out, complexes.alexander_dual_complex, facts.get("power"))
    if kind == "ideal":
        return checks.ideal_dual_problems(
            obj, out, duality.alexander_dual_ideal, facts.get("power"),
            facts.get("polar", False))
    if kind == "betti":
        return checks.betti_problems(obj, out, facts.get("power"),
                                     facts.get("ci"))
    P, D = out
    return checks.depolarize_problems(obj, P, D, facts.get("chains"))
