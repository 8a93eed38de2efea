"""heegnerlab benchmark: end-to-end timings of the public entry points,
measured from outside the library, plus a traced run with per-layer metrics.

    python3 perfbench/run.py --workload report --seed 1 --seconds 60 --trace 0

Workloads (one caller, closed loop, one process doing the work at a time):

    report       analysis.independence_report at 200 bits on three AGM-curve
                 inputs, library calls in a fresh process
    cli_point    `heegnerlab point --curve 49a --disc D --prec 200 --json`,
                 one fresh process per request
    orbit_sweep  orbit_points -> trace_point -> recognize -> elliptic_log on
                 37a for six discriminants at 500 and then 1000 bits, library
                 calls in one process (not in BENCHMARK.json; run by hand)
    smoke        a seconds-long configuration for the benchmark's own tests
    all          report and cli_point in turn

With --trace 0 the run repeats the workload's fixed list of ops (a pass),
with one set-up probe before each pass, for --seconds seconds and reports
the end-to-end metrics.  With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics.
Every op is checked against the stored answers in expected.json and by
independent exact checks.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Machine facts are printed
on the line before it; a traced run also writes its spans under
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import spans as spanlib  # noqa: E402

CURVES = {  # a-invariants, kept here as the reference for the exact checks
    "37a": (0, 0, 1, -1, 0),
    "32a": (0, 0, 0, -1, 0),
    "49a": (1, -1, 0, -2, -1),
}

REPORTS = (  # (curve, discriminants, coefficient bound B)
    ("37a", (-7, -11, -47), 10),   # finds and verifies (1, 1, 0) mid-box
    ("37a", (-47, -71), 30),       # scans the whole box, no relation
    ("32a", (-7, -15), 8),
)
REPORT_PREC = 200
CLI_CURVE, CLI_DISCS, CLI_PREC = "49a", (-19, -31, -47, -59), 200
# One discriminant of 37a is drawn from each stratum.  Members of a stratum
# have close class numbers and q-series term totals, and need the same large
# term counts M (>= 1417) at 500 and at 1000 bits, so the coefficient cache
# rebuilds the same expensive prefixes whichever member is drawn.
# Discriminants whose trace is the identity are left out: they skip
# recognition and the elliptic log.
ORBIT_STRATA = (
    (-108, -243, -307),
    (-515, -676, -739),
    (-164, -768),
    (-303, -687),
    (-263, -287),
    (-471, -656),
)
ORBIT_CURVE, ORBIT_PRECS = "37a", (500, 1000)
SMOKE_REPORT, SMOKE_CLI, SMOKE_PREC = ("37a", (-7, -11), 2), ("37a", -7), 100

WORKLOADS = ("report", "cli_point")   # the workloads BENCHMARK.json names
EXTRA_WORKLOADS = ("orbit_sweep", "smoke")
MIN_PASSES = 2
MIN_SETUP_PROBES = 5
END_TO_END = (("wall_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
BENCH_LAYER = (("bench.trace_overhead_s", "s"), ("bench.unattributed_s", "s"))
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


# --------------------------------------------------------------------------
# inputs


def op_id(op) -> str:
    if op["kind"] == "report":
        discs = ",".join(str(d) for d in op["discs"])
        return f"report {op['curve']} {discs} B{op['B']} p{op['prec']}"
    return f"{op['kind']} {op['curve']} {op['D']} p{op['prec']}"


def report_op(curve, discs, B, prec=REPORT_PREC) -> dict:
    return {"kind": "report", "curve": curve, "discs": list(discs), "B": B,
            "prec": prec}


def point_op(kind, curve, D, prec) -> dict:
    """An orbit_sweep op (kind "orbit") or a CLI request (kind "cli")."""
    return {"kind": kind, "curve": curve, "D": D, "prec": prec}


def plan(workload: str, seed: int) -> list[dict]:
    """The workload's fixed list of ops for this seed."""
    rng = random.Random(seed)
    if workload == "report":
        reports = list(REPORTS)
        rng.shuffle(reports)
        return [report_op(*r) for r in reports]
    if workload == "cli_point":
        discs = list(CLI_DISCS)
        rng.shuffle(discs)
        return [point_op("cli", CLI_CURVE, d, CLI_PREC) for d in discs]
    if workload == "orbit_sweep":
        # the strata stay in order: permuting them would change which
        # prefixes the coefficient cache evicts, and so the work, by seed
        discs = [rng.choice(stratum) for stratum in ORBIT_STRATA]
        return [point_op("orbit", ORBIT_CURVE, d, p)
                for d in discs for p in ORBIT_PRECS]
    if workload == "smoke":
        return [report_op(*SMOKE_REPORT, prec=SMOKE_PREC),
                point_op("cli", *SMOKE_CLI, SMOKE_PREC)]
    raise BenchError(f"unknown workload {workload!r}")


def all_pool_ops() -> list[dict]:
    """Every input any seed can draw, for recording the stored answers."""
    return ([report_op(*r) for r in REPORTS]
            + [point_op("cli", CLI_CURVE, d, CLI_PREC) for d in CLI_DISCS]
            + [point_op("orbit", ORBIT_CURVE, d, p)
               for stratum in ORBIT_STRATA for d in stratum
               for p in ORBIT_PRECS]
            + plan("smoke", 0))


# --------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run(argv, stdin: str | None, timeout: float = CHILD_TIMEOUT):
    """Run a child to completion; returns (exit code, stdout, stderr)."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_env())
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {argv[1:3]} exceeded {timeout} s") from None
    return proc.returncode, out, err


def _worker(mode: str, payload=None) -> dict:
    code, out, err = _run([sys.executable, str(HERE / "worker.py"), mode],
                          None if payload is None else json.dumps(payload))
    if code != 0:
        raise BenchError(f"worker {mode} failed ({code}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def setup_times(n: int) -> tuple[list[float], str]:
    """Process start to ready (interpreter, heegnerlab import, curve
    database), n fresh processes."""
    times, backend = [], None
    for _ in range(n):
        t0 = _now()
        res = _worker("setup")
        times.append(res["ready"] - t0)
        backend = res["backend"]
    return times, backend


def cli_argv(op) -> list[str]:
    return ["point", "--curve", op["curve"], "--disc", str(op["D"]),
            "--prec", str(op["prec"]), "--json"]


def run_cli(op, traced: bool) -> dict:
    """One CLI request in a fresh process, timed from spawn to exit."""
    t0 = _now()
    if traced:
        res = _worker("cli", cli_argv(op))
        seconds = _now() - t0
        return {"seconds": seconds, "code": res["code"], "stdout": res["stdout"],
                "trace": res["trace"], "import_s": res["import_s"]}
    code, out, err = _run(
        [sys.executable, "-c", "from heegnerlab.cli import main; main()"]
        + cli_argv(op), None)
    return {"seconds": _now() - t0, "code": code, "stdout": out,
            "stderr": err[-2000:]}


def run_pass(ops, traced: bool) -> dict:
    """Run every op once.  Library ops share one fresh worker process."""
    lib_ops = [op for op in ops if op["kind"] != "cli"]
    results = {}
    processes = []
    if lib_ops:
        res = _worker("lib", {"ops": lib_ops, "trace": traced})
        for op, r in zip(lib_ops, res["results"]):
            results[op_id(op)] = r
        if traced:
            processes.append((res["trace"], None))
    for op in ops:
        if op["kind"] == "cli":
            r = run_cli(op, traced)
            results[op_id(op)] = r
            if traced:
                processes.append((r["trace"], r["import_s"]))
    return {"results": results, "processes": processes,
            "wall_s": sum(r["seconds"] for r in results.values())}


# --------------------------------------------------------------------------
# correctness


def class_number(D: int) -> int:
    """Brute-force count of primitive reduced forms of discriminant D."""
    h, a = 0, 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c) or gcd(gcd(a, b), c) != 1:
                continue
            h += 1
        a += 1
    return h


def on_curve(curve: str, point) -> bool:
    """Exact check of the Weierstrass equation for a point with coordinates
    [rational part, sqrt part, d] in Q or one quadratic field Q(sqrt d)."""
    a1, a2, a3, a4, a6 = CURVES[curve]
    ds = {c[2] for c in point if Fraction(c[1]) != 0}
    if len(ds) > 1:
        return False
    d = ds.pop() if ds else 0
    x, y = ((Fraction(c[0]), Fraction(c[1])) for c in point)

    def mul(u, v):
        return (u[0] * v[0] + u[1] * v[1] * d, u[0] * v[1] + u[1] * v[0])

    def add(*terms):
        return (sum(t[0] for t in terms), sum(t[1] for t in terms))

    def scale(k, u):
        return (k * u[0], k * u[1])

    xx = mul(x, x)
    lhs = add(mul(y, y), scale(a1, mul(x, y)), scale(a3, y))
    rhs = add(mul(xx, x), scale(a2, xx), scale(a4, x), (Fraction(a6), 0))
    return lhs == rhs


def _cli_exact(v) -> list:
    if "sqrt_of" in v:
        r, s = v["rational_part"], v["sqrt_part"]
        return [str(Fraction(int(r["num"]), int(r["den"]))),
                str(Fraction(int(s["num"]), int(s["den"]))), v["sqrt_of"]]
    return [str(Fraction(int(v["num"]), int(v["den"]))), "0", 0]


def cli_output(r) -> dict:
    """The semantic part of a `point --json` answer."""
    doc = json.loads(r["stdout"])
    rec = doc["recognized"]
    return {"orbit_size": doc["orbit_size"],
            "is_identity": doc["trace"]["is_identity"],
            "kind": rec["kind"] if rec else None,
            "point": [_cli_exact(v) for v in rec["value"]]
            if rec and rec["kind"] in ("rational", "quadratic") else None}


def stored_answer(out: dict) -> dict:
    """The part of an op output that expected.json keeps."""
    return {k: v for k, v in out.items() if k not in ("log_gap_bits", "reverified")}


def check_op(op, r, expected) -> list[str]:
    """Problems with one op's result; empty when it is correct."""
    if op["kind"] == "cli":
        if r["code"] != 0:
            return [f"exit code {r['code']}: {r.get('stderr', '')}"]
        try:
            out = cli_output(r)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable CLI output: {exc!r}"]
    else:
        if r["error"] is not None:
            return [r["error"]]
        out = r["output"]
    problems = []
    want = expected.get(op_id(op))
    if want is None:
        problems.append("no stored answer")
    elif stored_answer(out) != want:
        problems.append(
            f"differs from the stored answer: {stored_answer(out)}")
    if op["kind"] == "report":
        for e in out["entries"]:
            if e["h"] is not None and e["h"] != class_number(e["D"]):
                problems.append(f"h({e['D']}) = {e['h']} is wrong")
            rec = e["recognition"] or ""
            if rec.startswith("rational ("):
                x, y = rec[len("rational ("):-1].split(", ")
                if not on_curve(op["curve"], [[x, "0", 0], [y, "0", 0]]):
                    problems.append(f"{rec} is not on {op['curve']}")
        if out["verdict"] == "relation_found_verified" and not out.get("reverified"):
            problems.append("verify_relation does not confirm the relation")
        return problems
    if out["orbit_size"] != class_number(op["D"]):
        problems.append(f"orbit size {out['orbit_size']} != h({op['D']})")
    if out["point"] is not None and not on_curve(op["curve"], out["point"]):
        problems.append(f"recognized point {out['point']} is not on the curve")
    if op["kind"] == "orbit" and out["point"] is not None:
        if out.get("log_gap_bits", 0) < op["prec"] / 2:
            problems.append("elliptic_log(P) is farther than 2^-(prec/2) "
                            "from the trace")
    return problems


def check_pass(ops, pass_result, expected) -> dict:
    """{op id: problems} for every op of a pass, including the agreement of
    the 500-bit and 1000-bit answers of orbit_sweep."""
    problems = {}
    outs = {}
    for op in ops:
        r = pass_result["results"][op_id(op)]
        problems[op_id(op)] = check_op(op, r, expected)
        if op["kind"] == "orbit" and r["output"] is not None:
            outs[op_id(op)] = stored_answer(r["output"])
    for op in ops:
        if op["kind"] != "orbit" or op["prec"] == ORBIT_PRECS[0]:
            continue
        low = dict(op, prec=ORBIT_PRECS[0])
        a, b = outs.get(op_id(low)), outs.get(op_id(op))
        if a is not None and b is not None and a != b:
            problems[op_id(op)].append("500-bit and 1000-bit answers differ")
    return problems


def same_outputs(ops, untraced, traced) -> dict:
    """{op id: problems} where a traced op's output differs from the
    untraced one."""
    problems = {}
    for op in ops:
        u = untraced["results"][op_id(op)]
        t = traced["results"][op_id(op)]
        if op["kind"] == "cli":
            same = (u["code"], u["stdout"]) == (t["code"], t["stdout"])
        else:
            same = (u["output"], u["error"]) == (t["output"], t["error"])
        problems[op_id(op)] = [] if same else ["traced output differs"]
    return problems


# --------------------------------------------------------------------------
# metrics and reporting


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts(workload: str, seed: int, backend: str | None) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "mpmath_backend": backend, "mpmath": version("mpmath"),
            "sympy": version("sympy"), "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, expected) -> dict:
    """Untraced passes for `seconds`; the end-to-end metrics.

    The host's speed drifts over tens of seconds, so every metric is taken
    over the whole run: one set-up probe runs before each pass, and wall_s
    is the mean pass time.  Passes are whole, so that each op weighs the
    same in the percentiles."""
    ops = plan(workload, seed)
    setups, walls, latencies, problems = [], [], [], {}
    start = _now()
    while True:
        setup, backend = setup_times(1)
        setups += setup
        p = run_pass(ops, traced=False)
        walls.append(p["wall_s"])
        latencies += [r["seconds"] for r in p["results"].values()]
        for oid, probs in check_pass(ops, p, expected).items():
            if probs:
                problems.setdefault(f"pass {len(walls)}: {oid}", probs)
        # another pass only if it would end less than half a pass after
        # `seconds`
        elapsed = _now() - start
        per_pass = elapsed / len(walls)
        if len(walls) >= MIN_PASSES and elapsed + per_pass / 2 > seconds:
            break
    min_setups = 2 if workload == "smoke" else MIN_SETUP_PROBES
    if len(setups) < min_setups:
        setups += setup_times(min_setups - len(setups))[0]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {"wall_s": statistics.mean(walls),
              "op_s.p50": statistics.median(latencies),
              "op_s.p90": percentile(latencies, 90),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": rss_kb / 1024}
    return {"facts": machine_facts(workload, seed, backend),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END},
            "attempted": len(latencies), "failed": len(problems),
            "problems": problems, "passes": len(walls), "setups": len(setups)}


def measure_traced(workload: str, seed: int, expected) -> dict:
    """One untraced and one traced pass; the per-layer metrics."""
    ops = plan(workload, seed)
    _, backend = setup_times(1)
    untraced_pass = run_pass(ops, traced=False)
    traced_pass = run_pass(ops, traced=True)
    problems = {}
    for label, found in (("untraced", check_pass(ops, untraced_pass, expected)),
                         ("traced", check_pass(ops, traced_pass, expected)),
                         ("traced", same_outputs(ops, untraced_pass, traced_pass))):
        for oid, probs in found.items():
            if probs:
                problems.setdefault(f"{label}: {oid}", []).extend(probs)
    processes = [(tr["spans"], imp) for tr, imp in traced_pass["processes"]]
    values, absent = spanlib.summarize(processes)
    values["bench.trace_overhead_s"] = traced_pass["wall_s"] - untraced_pass["wall_s"]
    values["bench.unattributed_s"] = sum(
        tr["unattributed_s"] for tr, _ in traced_pass["processes"])
    units = {name: unit for name, unit, _ in spanlib.PER_LAYER}
    units.update(BENCH_LAYER)
    facts = machine_facts(workload, seed, backend)
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"facts": facts, "metrics": values, "absent": absent,
         "processes": [tr for tr, _ in traced_pass["processes"]]}))
    return {"facts": facts,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
            "attempted": 2 * len(ops), "failed": len(problems),
            "problems": problems, "absent": absent}


def print_result(workload: str, res: dict) -> None:
    for key, probs in res["problems"].items():
        print(f"FAILED {key}: {'; '.join(probs)}")
    if res.get("absent"):
        print(f"absent on {workload}: {', '.join(res['absent'])}")
    for name, m in res["metrics"].items():
        print(f"{workload:12s} {name:45s} {m['value']:14.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"{workload:12s} {'failed_frac':45s} {frac:14.6g} "
          f"({res['failed']}/{res['attempted']} ops)")
    if "passes" in res:
        print(f"{workload:12s} percentiles over {res['attempted']} op samples "
              f"from {res['passes']} passes; setup_s over {res['setups']} "
              f"processes")
    print(json.dumps({"facts": res["facts"]}))


def run_all(args) -> int:
    """Every workload in its own run of this script, so that each reports
    its own peak memory; one table, and one result line with the metrics
    named <workload>.<metric>."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if not (SRC / "heegnerlab" / "__init__.py").is_file():
            raise BenchError(f"no heegnerlab package under {SRC}")
        expected = json.loads((HERE / "expected.json").read_text())
        if args.trace:
            res = measure_traced(args.workload, args.seed, expected)
        else:
            res = measure(args.workload, args.seed, args.seconds, expected)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
