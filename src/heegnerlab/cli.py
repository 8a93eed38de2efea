"""Command line front end.

Every subcommand returns a payload and its human-readable text lines;
run_command prints the lines by default and the payload as a deterministic
JSON document with --json.  Exit codes: 0 success, 1 domain error (failed
precondition, failed recognition, ...), 2 usage or parse error, --prec
outside 53..1000 included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import analysis, arith, db, modparam, qform
from .ellcurve import CurvePoint, QuadElt, an_coeffs, torsion_subgroup
from .errors import HeegnerlabError, RecognitionFailed
from .heegner import heegner_fiber, tau
from .lattice import PRECISION_BITS, weierstrass_map


def _digits(prec_bits: int) -> int:
    return max(6, int(prec_bits * 0.30103) + 2)


def _denoise(v, prec_bits: int):
    """v with each real or imaginary part of magnitude at most
    2^-prec_bits max(1, |v|) set to 0: such a part is rounding noise."""
    v = mp.mpmathify(v)
    with mp.workprec(prec_bits):
        tol = mp.ldexp(max(1, abs(v)), -prec_bits)
    re, im = (mp.zero if abs(p) <= tol else p for p in (mp.re(v), mp.im(v)))
    return mp.make_mpc((re._mpf_, im._mpf_)) if isinstance(v, mp.mpc) else re


def _num(v, prec_bits: int) -> str:
    with mp.workprec(prec_bits):
        return mp.nstr(_denoise(v, prec_bits), _digits(prec_bits),
                       strip_zeros=False)


def jsonify(v, prec_bits: int):
    """Map library values onto the documented JSON schema, a record but
    QuadElt as the object of its fields; any other type raises TypeError."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, QuadElt):
        return {
            "rational_part": jsonify(v.x, prec_bits),
            "sqrt_part": jsonify(v.y, prec_bits),
            "sqrt_of": v.d,
        }
    if isinstance(v, arith._Record):
        return jsonify(dict(zip(v._fields, v._values)), prec_bits)
    if isinstance(v, (complex, mp.mpf, mp.mpc)):
        v = _denoise(v, prec_bits)
        return {
            "re": _num(mp.re(v), prec_bits),
            "im": _num(mp.im(v), prec_bits),
            "prec_bits": prec_bits,
        }
    if isinstance(v, dict):
        return {k: jsonify(w, prec_bits) for k, w in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonify(w, prec_bits) for w in v]
    raise TypeError(f"no JSON form for {type(v).__name__}")


def _precision(text: str) -> int:
    bits, lo, hi = int(text), PRECISION_BITS[0], PRECISION_BITS[-1]
    if bits not in PRECISION_BITS:
        raise argparse.ArgumentTypeError(f"{bits} is not in {lo}..{hi}")
    return bits


def _curve(args):
    return db.find_curve(args.curve, args.database).curve()


def cmd_classgroup(args):
    forms = qform.enumerate_reduced(args.disc)
    structure = qform.group_structure(forms)
    payload = {
        "discriminant": args.disc,
        "order": len(forms),
        "structure": list(structure),
        "forms": forms,
    }
    return payload, [
        f"discriminant {args.disc}: h = {len(forms)}, "
        f"structure {' x '.join(f'Z/{d}' for d in structure) or 'trivial'}"
    ] + [f"  ({f.a}, {f.b}, {f.c})" for f in forms]


def cmd_ring_class(args):
    h = qform.ring_class_number(args.disc, args.conductor)
    payload = {
        "discriminant": args.disc,
        "conductor": args.conductor,
        "ring_class_number": h,
        "odd_part": arith.odd_part(h),
    }
    return payload, [f"h_{args.conductor}({args.disc}) = {h}"]


def cmd_heegner_list(args):
    fiber = heegner_fiber(args.disc, args.level)
    reps = []
    lines = [f"{len(fiber)} fiber representative(s) at level {args.level}:"]
    for f in fiber:
        t = tau(f, args.prec)
        reps.append({"form": f, "class_form": qform.reduce(f), "tau": t})
        lines.append(
            f"  ({f.a}, {f.b}, {f.c})"
            f"  tau = {_num(t, args.prec)}"
        )
    return {"discriminant": args.disc, "level": args.level,
            "points": reps}, lines


def cmd_coeffs(args):
    E = _curve(args)
    a = an_coeffs(E, args.terms)
    return ({"curve": E.label, "coefficients": list(a)},
            [f"a_1..a_{args.terms}: {' '.join(map(str, a))}"])


def cmd_point(args):
    E = _curve(args)
    orbit = modparam.orbit_points(E, args.disc, args.prec)
    tr = modparam.trace_point(orbit)
    points_xy = [weierstrass_map(z, E, orbit.lattice) for z in orbit.points_z]
    recog = recog_err = None
    if not tr.is_identity:
        try:
            rec = modparam.recognize_trace(tr)
            recog = {"kind": rec.kind, "value": rec.value,
                     "residual": mp.nstr(rec.residual, 5)}
        except RecognitionFailed as exc:
            recog_err = str(exc)
    payload = {
        "curve": E.label,
        "discriminant": args.disc,
        "orbit_size": len(orbit.points_z),
        "points_z": list(orbit.points_z),
        "points_xy": [list(p) for p in points_xy],
        "trace": {
            "is_identity": tr.is_identity,
            "z": tr.z,
            "xy": list(tr.xy) if tr.xy else None,
            "is_real": tr.is_real,
            "half_lattice": tr.half_lattice,
        },
        "recognized": recog,
        "recognition_error": recog_err,
        "precision_bits": args.prec,
        "terms_used": orbit.terms_used,
    }
    lines = [f"{E.label}, D = {args.disc}: orbit of {len(orbit.points_z)} point(s)"]
    for x, y in points_xy:
        lines.append(f"  x = {_num(x, args.prec)}")
        lines.append(f"  y = {_num(y, args.prec)}")
    if tr.is_identity:
        lines.append("trace: identity")
    else:
        lines.append(f"trace x = {_num(tr.xy[0], args.prec)}")
        lines.append(f"trace y = {_num(tr.xy[1], args.prec)}")
        if tr.half_lattice:
            lines.append("warning: trace lies in an index-2 superlattice")
    if recog:
        lines.append(f"recognized ({rec.kind}): {CurvePoint(*rec.value)}")
    elif recog_err:
        lines.append(f"recognition failed: {recog_err}")
    return payload, lines


def cmd_orbit_degree(args):
    E = _curve(args)
    orbit = modparam.orbit_points(E, args.disc, args.prec)
    deg = analysis.orbit_degree(orbit, args.mul)
    payload = {
        "curve": E.label,
        "discriminant": args.disc,
        "multiplier": args.mul,
        "orbit_degree": deg,
    }
    return payload, [f"orbit degree of {args.mul}*P: {deg}"]


def cmd_torsion(args):
    E = _curve(args)
    points, structure = torsion_subgroup(E)
    payload = {
        "curve": E.label,
        "order": len(points),
        "structure": list(structure),
        "points": [
            None if P.is_infinity else [P.x, P.y] for P in points
        ],
    }
    desc = " x ".join(f"Z/{d}" for d in structure) or "trivial"
    lines = [f"torsion subgroup of {E.label}: order {len(points)} ({desc})"]
    for P in points:
        lines.append(f"  {P}")
    return payload, lines


def cmd_independence(args):
    E = _curve(args)
    discs = [int(s) for s in args.discs.split(",")]
    report = analysis.independence_report(E, discs, args.bound, args.prec)
    lines = [f"{report.curve_label}: verdict {report.verdict}"]
    for e in report.entries:
        if not e.admissible or e.error:
            lines.append(f"  D = {e.discriminant}: ERROR {e.error}")
            continue
        lines.append(
            f"  D = {e.discriminant}: h = {e.class_number} "
            f"(odd part {e.odd_part}), orbit degrees {e.orbit_degrees}"
        )
        lines.append(f"    {e.recognition}")
    if report.relation:
        lines.append(
            f"relation: coefficients {report.relation.coefficients}, "
            f"torsion slack {report.relation.torsion_slack}"
        )
    lines.append(report.hypothesis_note)
    return report, lines


# every subcommand flag is required: flag -> (type, help)
_FLAGS = {
    "--curve": (None, None),
    "--discs": (None, "comma-separated discriminants"),
    **{flag: (int, None) for flag in ("--disc", "--conductor", "--level",
                                      "--terms", "--mul", "--bound")},
}

# (name, handler, help, flags) of each subcommand, in help order
_COMMANDS = (
    ("classgroup", cmd_classgroup, "reduced forms and group structure",
     ("--disc",)),
    ("ring-class", cmd_ring_class, "class number of a non-maximal order",
     ("--disc", "--conductor")),
    ("heegner-list", cmd_heegner_list, "fiber representatives and tau values",
     ("--disc", "--level")),
    ("coeffs", cmd_coeffs, "q-expansion coefficients", ("--curve", "--terms")),
    ("point", cmd_point, "orbit, trace, and recognition", ("--curve", "--disc")),
    ("orbit-degree", cmd_orbit_degree, "distinct conjugates of n*P",
     ("--curve", "--disc", "--mul")),
    ("torsion", cmd_torsion, "rational torsion subgroup", ("--curve",)),
    ("independence", cmd_independence, "full dependence-search report",
     ("--curve", "--discs", "--bound")),
)


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unsupplied post-subcommand flag from clobbering a
    # pre-subcommand value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS, help="JSON output")
    common.add_argument("--database", default=argparse.SUPPRESS,
                        help="curve database path")
    common.add_argument("--prec", type=_precision, default=argparse.SUPPRESS,
                        help="working precision in bits (default 200)")
    parser = argparse.ArgumentParser(
        prog="heegnerlab",
        description="class groups, fiber points on modular curves, and "
        "dependence measurements on elliptic curves",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, flags in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=text)
        for flag in flags:
            kind, flag_help = _FLAGS[flag]
            p.add_argument(flag, type=kind, required=True, help=flag_help)
        p.set_defaults(func=func)
    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # "--discs -7,-11" looks like a following option to argparse; fold the
    # value into the flag
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--discs" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--discs={argv[i + 1]}"]
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # global-flag defaults are filled here, not via set_defaults: set_defaults
    # mutates the shared parent actions and the subparser would then clobber a
    # value given before the subcommand
    for dest, default in (("json", False), ("database", None), ("prec", 200)):
        if not hasattr(args, dest):
            setattr(args, dest, default)
    try:
        payload, lines = args.func(args)
    except (HeegnerlabError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        lines = [json.dumps(jsonify(payload, args.prec), sort_keys=True)]
    for line in lines:
        print(line)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
