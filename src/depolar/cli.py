"""Command-line front end.

Verbs mirror the library: gen, polarize, depolarize, koszul, ek,
dual-ideal, dual-complex, homology, betti, bench.  Exit codes: 0 ok,
2 invalid input, 3 resource limit exceeded.
"""

import argparse
import json
import sys

from . import bench as bench_mod
from .complexes import SimplicialComplex, koszul_complex
from .depolarization import depolarize
from .duality import alexander_dual_ideal, dual_complex_via_depolarization
from .families import FAMILY_BUILDERS
from .homology import graded_betti, reduced_homology_dims
from .ideals import InputError, MonomialIdeal, ResourceLimit, format_monomial
from .polarization import expanded_koszul, polarize_ideal


def load_json(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {path}: {exc}")


def load_ideal(path):
    return MonomialIdeal.from_dict(load_json(path))


def load_complex(path):
    return SimplicialComplex.from_dict(load_json(path))


def emit(args, payload, text_fn):
    if args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "text":
        out = text_fn()
    else:
        raise InputError(f"format {args.format!r} not supported for this verb")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def ideal_text(I):
    if I.is_zero:
        return "<0>\n"
    return "<" + ", ".join(format_monomial(I.ring, g) for g in I.gens) + ">\n"


def complex_text(cx):
    if cx.kind == "void":
        return "void complex\n"
    if cx.kind == "irrelevant":
        return "{ {} }\n"
    return "\n".join("{" + ", ".join(cx.names_of(f)) + "}" for f in cx.facets) + "\n"


def parse_exponents(text, n=None):
    try:
        vec = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"bad integer list {text!r}") from None
    if n is not None and len(vec) != n:
        raise InputError(f"expected {n} exponents, got {len(vec)}")
    return vec


def cmd_gen(args):
    if args.family not in FAMILY_BUILDERS:
        raise InputError(f"unknown family {args.family!r}")
    kwargs = {"n": args.n}
    if args.family in ("power", "varpowers"):
        if args.k is None:
            raise InputError(f"family {args.family!r} needs --k")
        kwargs["k"] = args.k
    elif args.family == "jknm":
        if args.seq:
            kwargs["seq"] = parse_exponents(args.seq)
    elif args.family == "random":
        kwargs.update(max_gens=args.max_gens, max_exp=args.max_exp,
                      seed=args.seed)
    I = FAMILY_BUILDERS[args.family](**kwargs)
    emit(args, I.to_dict(), lambda: ideal_text(I))


def cmd_polarize(args):
    I = load_ideal(args.infile)
    P, pmap = polarize_ideal(I)
    if args.map:
        with open(args.map, "w") as fh:
            json.dump(pmap.to_dict(), fh, indent=2)
    emit(args, P.to_dict(), lambda: ideal_text(P))


def cmd_depolarize(args):
    I = load_ideal(args.infile)
    D = depolarize(I, args.partition)
    if args.map:
        with open(args.map, "w") as fh:
            json.dump(D.to_dict()["chains"], fh, indent=2)
    emit(args, D.ideal.to_dict(), lambda: ideal_text(D.ideal))


def cmd_koszul(args):
    I = load_ideal(args.infile)
    mu = parse_exponents(args.mu, I.n) if args.mu else None
    cx = koszul_complex(I, mu)
    emit(args, cx.to_dict(), lambda: complex_text(cx))


def cmd_ek(args):
    I = load_ideal(args.infile)
    cx = expanded_koszul(I)
    emit(args, cx.to_dict(), lambda: complex_text(cx))


def cmd_dual_ideal(args):
    I = load_ideal(args.infile)
    a = parse_exponents(args.bound, I.n) if args.bound else None
    D = alexander_dual_ideal(I, a)
    emit(args, D.to_dict(), lambda: ideal_text(D))


def cmd_dual_complex(args):
    cx = load_complex(args.infile)
    dual, report = dual_complex_via_depolarization(cx)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
    emit(args, dual.to_dict(), lambda: complex_text(dual))


def face_cap_kw(args):
    return {} if args.face_cap is None else {"face_cap": args.face_cap}


def cmd_homology(args):
    cx = load_complex(args.infile)
    dims = reduced_homology_dims(cx, p=args.mod, **face_cap_kw(args))
    emit(args, {"dims": dims},
         lambda: " ".join(str(d) for d in dims) + "\n")


def cmd_betti(args):
    I = load_ideal(args.infile)
    table = graded_betti(I, p=args.mod, **face_cap_kw(args))
    if args.quotient:
        table = table.to_quotient()
    if args.total:
        tot = table.totals()
        emit(args, {"total": tot},
             lambda: " ".join(str(t) for t in tot) + "\n")
    elif args.diagram and args.format == "json":
        emit(args, {"diagram": table.diagram()}, lambda: "")
    else:
        emit(args, table.to_dict(), lambda: table.diagram() + "\n")


def cmd_bench(args):
    if args.table:
        cells = bench_mod.table_cells(args.table)
    else:
        if not args.family:
            raise InputError("bench needs --table or --family")
        kwargs = {"n": args.n}
        if args.k is not None:
            kwargs["k"] = args.k
        cells = [(args.family, kwargs)]
    records, text = bench_mod.bench_dual(
        cells, timeout_s=args.timeout, mem_mb=args.mem_mb,
        size_res=args.size_res, threads=args.threads)
    if args.format == "json":
        payload = []
        for r in records:
            d = {f: getattr(r, f) for f in (
                "family", "params", "n", "n_prime", "gens_J", "gens_Jdual",
                "gens_IDelta", "t_Jdual_ms", "t_IDelta_ms", "t_alg1_ms",
                "size_res", "status")}
            d["ratio_gens"] = r.ratio_gens()
            d["ratio_vars"] = r.ratio_vars()
            payload.append(d)
        out = json.dumps(payload, indent=2) + "\n"
    else:
        out = text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def add_global_flags(parser, suppress=False):
    # registered on the main parser and again per verb so the flags are
    # accepted on either side of the verb; SUPPRESS keeps the per-verb
    # copy from clobbering a value parsed before the verb
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--out", default=d(None),
                        help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=["json", "text", "csv"],
                        default=d("json"))
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--threads", type=int, default=d(1),
                        help="benchmark cells run at once")
    parser.add_argument("--timeout", type=float, default=d(300.0),
                        help="per-cell benchmark timeout in seconds")
    parser.add_argument("--face-cap", type=int, default=d(None),
                        help="abort face enumerations beyond this many faces")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="depolar",
        description="Polarization, depolarization and Alexander duality "
                    "for monomial ideals and simplicial complexes.")
    add_global_flags(ap)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate an ideal from a named family")
    p.add_argument("--family", required=True,
                   choices=sorted(FAMILY_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seq", help="comma-separated exponent sequence (jknm)")
    p.add_argument("--max-gens", type=int, default=10)
    p.add_argument("--max-exp", type=int, default=3)
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("polarize", help="polarize a monomial ideal")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", help="write the variable map JSON here")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("depolarize",
                       help="depolarize along a chain partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition", choices=["min", "singleton"],
                   default="min")
    p.add_argument("--map", help="write the chain partition JSON here")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_depolarize)

    p = sub.add_parser("koszul",
                       help="simplicial complex of divisors below a degree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", help="comma-separated exponent vector "
                                "(default: lcm of the generators)")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_koszul)

    p = sub.add_parser("ek", help="expanded complex on monomial-span slots")
    p.add_argument("--in", dest="infile", required=True)
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_ek)

    p = sub.add_parser("dual-ideal", help="Alexander dual of an ideal")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", help="comma-separated dualizing degree "
                                   "(default: lcm of the generators)")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_dual_ideal)

    p = sub.add_parser("dual-complex",
                       help="Alexander dual complex via depolarization")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", help="write per-step timing JSON here")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_dual_complex)

    p = sub.add_parser("homology", help="reduced rational homology ranks")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mod", type=int, help="compute ranks mod this prime")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("betti", help="multigraded Betti numbers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--quotient", action="store_true",
                   help="report the quotient ring convention")
    p.add_argument("--total", action="store_true",
                   help="only the total Betti numbers")
    p.add_argument("--diagram", action="store_true",
                   help="text diagram (rows by degree minus column)")
    p.add_argument("--mod", type=int, help="compute ranks mod this prime")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser(
        "bench",
        help="time dual computations; initial ideals of generic forms "
             "are not included")
    p.add_argument("--table", choices=["1", "2", "3"],
                   help="preset benchmark grid, by number")
    p.add_argument("--family", choices=sorted(bench_mod.FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mem-mb", type=int,
                   help="per-cell address-space cap in MiB")
    p.add_argument("--size-res", action="store_true",
                   help="also sum the total Betti numbers per cell")
    add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimit, MemoryError) as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
