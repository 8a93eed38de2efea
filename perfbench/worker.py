"""Child process of the benchmark: the process that does the work.

    python3 perfbench/worker.py setup   import heegnerlab, load the curve
                                        database, print the ready instant
    python3 perfbench/worker.py lib     run library ops read as JSON on stdin
    python3 perfbench/worker.py cli     run one CLI request (argv on stdin)
                                        in-process under tracing

PYTHONPATH must hold the repository's src directory.  Each mode prints one
JSON object on stdout.  Ops that raise are reported with their exception and
do not stop the batch.  The correctness facts that need the library (the
re-run of verify_relation, the elliptic-log distance) are computed after the
timed loop, so they add no time to any op.
"""

from __future__ import annotations

import io
import json
import re
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction


def _now() -> float:
    # system-wide clock, comparable with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def exact(v) -> list:
    """[rational part, sqrt part, d] for a Fraction or QuadElt."""
    if isinstance(v, Fraction):
        return [str(v), "0", 0]
    return [str(v.x), str(v.y), v.d]


_RATIONAL = re.compile(r"rational \((\S+), (\S+)\)$")


def _recognize_trace(modparam, tr, E, prec):
    # the trace-recognition shape used by the CLI point command
    from mpmath import mp

    if tr.is_real:
        return modparam.recognize([tr.xy], 10**6, E, precision_bits=prec)
    x, y = tr.xy
    with mp.workprec(prec + 20):
        conj = (mp.conj(x), mp.conj(y))
    return modparam.recognize([(x, y), conj], 10**6, E, precision_bits=prec)


def run_report(op, curves):
    from heegnerlab import analysis

    E = curves[op["curve"]]
    rep = analysis.independence_report(E, op["discs"], op["B"], op["prec"])
    entries = []
    for e in rep.entries:
        recog = e.recognition
        if recog is not None and recog.startswith("unrecognized"):
            recog = "unrecognized"  # the message carries a float residual
        entries.append({"D": e.discriminant, "h": e.class_number,
                        "degrees": list(e.orbit_degrees),
                        "recognition": recog, "error": e.error})
    relation = None
    if rep.relation is not None:
        relation = [list(rep.relation.coefficients), rep.relation.torsion_slack]
    return {"verdict": rep.verdict, "relation": relation, "entries": entries}


def run_orbit(op, curves):
    from heegnerlab import lattice, modparam
    from heegnerlab.ellcurve import CurvePoint

    E = curves[op["curve"]]
    orbit = modparam.orbit_points(E, op["D"], op["prec"])
    tr = modparam.trace_point(orbit)
    out = {"orbit_size": len(orbit.points_z), "is_identity": tr.is_identity,
           "kind": None, "point": None}
    carry = None
    if not tr.is_identity:
        rec = _recognize_trace(modparam, tr, E, op["prec"])
        out["kind"] = rec.kind
        if rec.kind in ("rational", "quadratic"):
            x, y = rec.value
            out["point"] = [exact(x), exact(y)]
            z = lattice.elliptic_log(CurvePoint(x, y), E, orbit.lattice)
            carry = (z, tr.z, orbit.lattice, op["prec"])
    return out, carry


def _log_gap_bits(z, z_trace, L, prec) -> float:
    """-log2 of the distance from z to z_trace modulo the lattice."""
    from mpmath import mp

    with mp.workprec(prec + 20):
        d = L.distance(z - z_trace)
        return 4.0 * prec if d == 0 else float(-mp.log(d, 2))


def _verify(op, result, curves) -> bool:
    """Re-run verify_relation on the recognized rational points."""
    from heegnerlab import analysis
    from heegnerlab.analysis import Relation
    from heegnerlab.ellcurve import CurvePoint

    coeffs, slack = result["relation"]
    points = []
    for entry in result["entries"][: len(coeffs)]:
        m = _RATIONAL.match(entry["recognition"] or "")
        if m is None:
            return False
        points.append(CurvePoint(Fraction(m.group(1)), Fraction(m.group(2))))
    return analysis.verify_relation(
        points, Relation(tuple(coeffs), slack), curves[op["curve"]])


def lib(config) -> dict:
    import spans as spanlib
    from heegnerlab import db

    rec = spanlib.Recorder()
    if config["trace"]:
        spanlib.install(rec)
    results = []
    carries = []
    clock = time.perf_counter
    rec.begin = clock()
    with rec.span("bench.setup"):
        curves = {entry.label: entry.curve() for entry in db.load_database()}
    for op in config["ops"]:
        t0 = clock()
        with rec.span("bench.op"):
            try:
                if op["kind"] == "report":
                    out, carry = run_report(op, curves), None
                else:
                    out, carry = run_orbit(op, curves)
                err = None
            except Exception as exc:  # a failing op is data, not a crash
                out, carry, err = None, None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        results.append({"seconds": t1 - t0, "output": out, "error": err})
        carries.append(carry)
    rec.end = clock()
    trace = None
    if config["trace"]:
        n = len(rec.spans)
        unattributed = spanlib.check_accounting(rec)
        trace = {"spans": rec.spans[:n], "unattributed_s": unattributed,
                 "wall_s": rec.end - rec.begin}
    # correctness facts that need the library; not timed
    for op, res, carry in zip(config["ops"], results, carries):
        out = res["output"]
        if out is None:
            continue
        if carry is not None:
            out["log_gap_bits"] = _log_gap_bits(*carry)
        if op["kind"] == "report" and out["verdict"] == "relation_found_verified":
            out["reverified"] = _verify(op, out, curves)
    return {"results": results, "trace": trace}


def cli(argv) -> dict:
    """One CLI request in this process, traced, with its import timed."""
    import spans as spanlib

    t0 = time.perf_counter()
    from heegnerlab import cli as heegnerlab_cli

    import_s = time.perf_counter() - t0
    rec = spanlib.Recorder()
    spanlib.install(rec)
    buf = io.StringIO()
    rec.begin = time.perf_counter()
    with rec.span("bench.op"), redirect_stdout(buf):
        try:
            code = heegnerlab_cli.run_command(argv)
        except Exception:  # the untraced CLI would exit 1 with a traceback
            code = 1
    rec.end = time.perf_counter()
    unattributed = spanlib.check_accounting(rec)
    return {"stdout": buf.getvalue(), "code": code, "import_s": import_s,
            "trace": {"spans": rec.spans, "unattributed_s": unattributed,
                      "wall_s": rec.end - rec.begin}}


def setup() -> dict:
    import mpmath
    from heegnerlab import db

    db.load_database()
    return {"ready": _now(), "backend": mpmath.libmp.BACKEND}


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        out = setup()
    elif mode == "lib":
        out = lib(json.load(sys.stdin))
    elif mode == "cli":
        out = cli(json.load(sys.stdin))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
