"""Spans around the calls into each depolar layer, from the benchmark side.

Tracer.install() replaces each traced function by a wrapper, on its own
module and on every depolar module that imported it by name (for example
depolar.duality.repolarize_dual and depolar.homology.koszul_complex), and
on the class for methods.  A span is [name, start, end, parent, root,
payload]; spans stay in memory until the run writes them out.  While
Tracer.keep is set, a payload keeps references to the arguments and
result, and the counts are computed from them after the timed passes.
"""

import json
import os
import statistics
import sys
import time
from math import prod

import checks

# (module, attribute, span name); the span name is the layer metric stem
TARGETS = [
    ("depolar.duality", "dual_complex_via_depolarization",
     "duality.dual_complex_via_depolarization"),
    ("depolar.duality", "repolarize_dual", "duality.repolarize_dual"),
    ("depolar.duality", "alexander_dual_ideal", "duality.alexander_dual_ideal"),
    ("depolar.hypergraph", "transversal_masks", "hypergraph.transversal_masks"),
    ("depolar.complexes", "alexander_dual_complex",
     "complexes.alexander_dual_complex"),
    ("depolar.complexes", "facet_complement_ideal",
     "complexes.facet_complement_ideal"),
    ("depolar.complexes", "koszul_complex", "complexes.koszul_complex"),
    ("depolar.complexes", "SimplicialComplex.faces_by_dim",
     "complexes.faces_by_dim"),
    ("depolar.depolarization", "depolarize", "depolarization.depolarize"),
    ("depolar.depolarization", "support_sets", "depolarization.support_sets"),
    ("depolar.depolarization", "min_chain_partition",
     "depolarization.min_chain_partition"),
    ("depolar.polarization", "polarize_ideal", "polarization.polarize_ideal"),
    ("depolar.ideals", "MonomialIdeal.lcm_lattice", "ideals.lcm_lattice"),
    ("depolar.homology", "reduced_homology_dims",
     "homology.reduced_homology_dims"),
    ("depolar.homology", "graded_betti", "homology.graded_betti"),
]

# alexander_dual_ideal spans are renamed by slot budget sum(a) after the call
SPLIT = "duality.alexander_dual_ideal"

# called n'^2 times per depolarization: counted, not spanned
COUNTED = ("depolar.depolarization", "SupportPoset.precedes",
           "depolarization.precedes_calls")

# names and units of the per-layer metrics are those of BENCHMARK.json
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}
TIME_METRICS = [m for m, unit in UNITS.items() if unit == "s"]
COUNT_METRICS = [m for m, unit in UNITS.items() if unit == "count"]
RATIO_METRICS = {
    "duality.fiber_yield": ("duality.final_gens", "duality.fiber_elements"),
    "homology.point_yield": ("homology.nonzero_points",
                             "ideals.lattice_points"),
}


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans in memory, opened and closed around each traced call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.precedes_calls = 0
        self.missing = []
        self.keep = True
        self._undo = []

    def open(self, name):
        stack = self.stack
        idx = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                stack[0] if stack else idx, None]
        self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name == SPLIT:
                span[0] += ".le64" if _slots(args, kwargs) <= 64 else ".gt64"
            if self.keep:
                span[5] = (args, kwargs, out)
            return out
        return traced

    def _count_wrapper(self, fn):
        def counted(*args, **kwargs):
            self.precedes_calls += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for module, attr, name in TARGETS + [COUNTED]:
            try:
                owner, leaf = _resolve(module, attr)
                orig = getattr(owner, leaf)
            except (KeyError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            if name == COUNTED[2]:
                wrapped = self._count_wrapper(orig)
            else:
                wrapped = self._span_wrapper(name, orig)
            sites = [(owner, leaf)]
            if "." not in attr:
                sites += [(mod, key) for mod_name, mod in list(sys.modules.items())
                          if mod_name.startswith("depolar") and mod is not owner
                          for key, val in list(vars(mod).items()) if val is orig]
            for site, key in sites:
                setattr(site, key, wrapped)
                self._undo.append((site, key, orig))
        return self

    def uninstall(self):
        for site, key, orig in reversed(self._undo):
            setattr(site, key, orig)
        self._undo = []

    def mark(self):
        return len(self.spans), self.precedes_calls

    def self_times(self, start, end):
        """Self time of each time metric over the spans between two marks."""
        lo, hi = start[0], end[0]
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= lo:
                child[s[3] - lo] += s[2] - s[1]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for s, inner in zip(spans, child):
            stem, _, split = s[0].partition(SPLIT)
            key = f"{SPLIT}_s{split}" if split else stem + "_s"
            if key in out:
                out[key] += s[2] - s[1] - inner
        return out

    def counts(self, start, end):
        """Counts from the payloads of the spans between two marks."""
        (lo, calls0), (hi, calls1) = start, end
        out = dict.fromkeys(COUNT_METRICS, 0)
        out["depolarization.precedes_calls"] = calls1 - calls0
        koszul = set()
        for s in self.spans[lo:hi]:
            name, payload = s[0], s[5]
            if payload is None:
                continue
            args, kwargs, res = payload
            if name.startswith(SPLIT):
                out["duality.input_slots"] += _slots(args, kwargs)
                out["duality.dual_gens"] += len(res.gens)
            elif name == "duality.repolarize_dual":
                Jdual = args[0]
                mu = kwargs.get("mu", args[1] if len(args) > 1 else None)
                fiber, killers = _fiber_and_killers(Jdual.gens, mu)
                out["duality.fiber_elements"] += fiber
                out["duality.killer_pairs"] += killers
                out["duality.final_gens"] += len(res.gens)
            elif name == "depolarization.support_sets":
                out["depolarization.poset_size"] += len(res)
            elif name == "depolarization.depolarize":
                out["depolarization.chains"] += len(res.chains)
            elif name == "ideals.lcm_lattice":
                out["ideals.lattice_points"] += len(res)
            elif name == "complexes.koszul_complex":
                koszul.add((s[4], res.facets))
            elif name == "complexes.faces_by_dim":
                out["complexes.faces"] += sum(map(len, res.values()))
            elif name == "homology.graded_betti":
                out["homology.nonzero_points"] += len(
                    {mu for _, mu in res.entries})
        out["homology.distinct_koszul"] = len(koszul)
        return out

    def metrics(self, small_marks, large_marks):
        """Per-layer metrics from (start, end) marks of each pass: median
        self time per small pass plus per large pass, and the counts of
        the first pass of each tier, the passes that kept payloads."""
        values = {}
        for marks in (small_marks, large_marks):
            times = [self.self_times(*m) for m in marks]
            for name in TIME_METRICS:
                values[name] = (values.get(name, 0.0)
                                + statistics.median(t[name] for t in times))
            for name, count in self.counts(*marks[0]).items():
                values[name] = values.get(name, 0) + count
        for name, (num, den) in RATIO_METRICS.items():
            values[name] = values[num] / values[den] if values[den] else 0.0
        return values

    def op_seconds(self):
        """Median duration of each benchmark operation over its passes."""
        per_op = {}
        for s in self.spans:
            if s[3] == -1 and s[0].startswith("op "):
                per_op.setdefault(s[0][3:], []).append(s[2] - s[1])
        return {k: statistics.median(v) for k, v in per_op.items()}

    def dump(self):
        """Spans without payloads, as JSON-ready lists."""
        return [s[:5] for s in self.spans]


def _slots(args, kwargs):
    """Slot budget sum(a) of an alexander_dual_ideal(I, a=None) call."""
    a = kwargs.get("a", args[1] if len(args) > 1 else None)
    return sum(a if a is not None else args[0].lcm_exponent())


def _fiber_and_killers(gens, mu):
    """Fiber sizes prod (mu_i + 1 - nu_i) over supp(nu), and the pairs
    (nu, nu') with supp(nu') inside supp(nu), equal supports counted once."""
    fiber = sum(prod(m + 1 - e for m, e in zip(mu, g) if e) for g in gens)
    by_support = {}
    for g in gens:
        m = checks.mask_of(g)
        by_support[m] = by_support.get(m, 0) + 1
    killers = 0
    for s, c in by_support.items():
        killers += c * (c - 1) // 2
        killers += c * sum(c2 for s2, c2 in by_support.items()
                           if s2 != s and s2 & s == s2)
    return fiber, killers
