"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each heegnerlab module from
outside the library: a wrapper records (name, parent, start, end) for every
call, keeps the spans in memory, and the benchmark turns them into per-layer
metrics when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = ("arith", "qform", "heegner", "ellcurve", "lattice", "modparam",
          "analysis", "db", "cli")

# Span fields, stored as lists for cheap appends.
NAME, PARENT, START, END, KEY, VALUE, ERROR = range(7)

# Extra facts recorded for a few spans: a key derived from the arguments (to
# count distinct inputs) and a number derived from the result.
# The library passes these arguments positionally; the keys are strings so
# that they survive the trip through JSON.
_KEYS = {
    "modparam.orbit_points": lambda a, k: repr((a[0].a_invariants, a[1], a[2])),
    "lattice.periods": lambda a, k: repr((a[0].a_invariants, a[1])),
    "ellcurve.an_coeffs": lambda a, k: a[1],
}
_VALUES = {
    "modparam.orbit_points": lambda r: r.terms_used,
}


class Recorder:
    """In-memory span list for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.begin = None
        self.end = None

    def _open(self, name: str, key=None) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, None, key,
                None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list, failed: bool) -> None:
        span[END] = time.perf_counter()
        span[ERROR] = failed
        self._stack.pop()

    def wrap(self, fn, name: str):
        key_of = _KEYS.get(name)
        value_of = _VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, key_of(args, kwargs) if key_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if value_of is not None:
                span[VALUE] = value_of(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(rec: Recorder) -> None:
    """Wrap every public function of each layer module, in its defining
    module and in every heegnerlab module that imported it by name, plus
    Lattice.nearest_distances on the class."""
    import heegnerlab
    from heegnerlab import lattice

    modules = [sys.modules[f"heegnerlab.{layer}"] for layer in LAYERS
               if f"heegnerlab.{layer}" in sys.modules]
    wrappers = {}  # id(original) -> wrapper
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, rec.wrap(fn, f"{short}.{attr}"))
    users = [heegnerlab] + [m for name, m in sys.modules.items()
                            if name.startswith("heegnerlab.") and m is not None]
    for module in users:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    original = vars(lattice.Lattice)["nearest_distances"]
    lattice.Lattice.nearest_distances = rec.wrap(
        original, "lattice.nearest_distances")


class AccountingError(AssertionError):
    """Spans do not nest, or self times do not add up to the wall time."""


def check_accounting(rec: Recorder) -> float:
    """Self-check: sum of self times plus unattributed time equals the
    traced wall time.  Returns the unattributed time in seconds."""
    spans = rec.spans
    if rec.begin is None or rec.end is None:
        raise AccountingError("recorder was not started and stopped")
    wall = rec.end - rec.begin
    child_sum = [0.0] * len(spans)
    root_sum = 0.0
    last_root_end = rec.begin
    for i, s in enumerate(spans):
        if s[END] is None:
            raise AccountingError(f"span {s[NAME]} never closed")
        p = s[PARENT]
        if p < 0:
            if s[START] < last_root_end or s[END] > rec.end:
                raise AccountingError(f"root span {s[NAME]} overlaps")
            last_root_end = s[END]
            root_sum += s[END] - s[START]
        else:
            parent = spans[p]
            if s[START] < parent[START] or s[END] > parent[END]:
                raise AccountingError(f"span {s[NAME]} leaves its parent")
            child_sum[p] += s[END] - s[START]
    self_total = 0.0
    for i, s in enumerate(spans):
        own = s[END] - s[START] - child_sum[i]
        if own < -1e-9:
            raise AccountingError(f"span {s[NAME]} has negative self time")
        self_total += own
    unattributed = wall - root_sum
    if unattributed < -1e-9:
        raise AccountingError("root spans exceed the wall time")
    if abs(self_total + unattributed - wall) > 1e-9 * (1 + len(spans)):
        raise AccountingError(
            f"self {self_total} + unattributed {unattributed} != wall {wall}")
    return unattributed


# Per-layer metrics of the traced run: (name, unit, function).  A metric is
# absent on a workload when its function is never called there; it is then
# reported as 0 and listed as absent.
PER_LAYER = (
    ("analysis.relation_search.s", "s", "analysis.relation_search"),
    ("analysis.relation_search.self_s", "s", "analysis.relation_search"),
    ("analysis.relation_search.calls", "count", "analysis.relation_search"),
    ("analysis.relation_search.checks_per_search", "count",
     "analysis.relation_search"),
    ("lattice.nearest_distances.calls", "count", "analysis.relation_search"),
    ("modparam.orbit_points.self_s", "s", "modparam.orbit_points"),
    ("modparam.orbit_points.calls", "count", "modparam.orbit_points"),
    ("modparam.orbit_points.per_field", "ratio", "modparam.orbit_points"),
    ("modparam.orbit_points.terms", "count", "modparam.orbit_points"),
    ("analysis.orbit_degree.self_s", "s", "analysis.orbit_degree"),
    ("analysis.orbit_degree.calls", "count", "analysis.orbit_degree"),
    ("modparam.eval_phi.self_s", "s", "modparam.eval_phi"),
    ("modparam.eval_phi.calls", "count", "modparam.eval_phi"),
    ("ellcurve.an_coeffs.self_s", "s", "ellcurve.an_coeffs"),
    ("ellcurve.an_coeffs.calls", "count", "ellcurve.an_coeffs"),
    ("ellcurve.an_coeffs.recompute_ratio", "ratio", "ellcurve.an_coeffs"),
    ("ellcurve.ap.self_s", "s", "ellcurve.ap"),
    ("ellcurve.ap.calls", "count", "ellcurve.ap"),
    ("lattice.periods.self_s", "s", "lattice.periods"),
    ("lattice.periods.calls", "count", "lattice.periods"),
    ("lattice.periods.per_lattice", "ratio", "lattice.periods"),
    ("lattice.weierstrass_p.self_s", "s", "lattice.weierstrass_p"),
    ("lattice.weierstrass_p.calls", "count", "lattice.weierstrass_p"),
    ("lattice.elliptic_log.self_s", "s", "lattice.elliptic_log"),
    ("lattice.elliptic_log.calls", "count", "lattice.elliptic_log"),
    ("modparam.trace_point.s", "s", "modparam.trace_point"),
    ("modparam.recognize.s", "s", "modparam.recognize"),
    ("modparam.recognize.failed", "count", "modparam.recognize"),
    ("analysis.verify_relation.s", "s", "analysis.verify_relation"),
    ("heegner.heegner_fiber.s", "s", "heegner.heegner_fiber"),
    ("qform.enumerate_reduced.s", "s", "qform.enumerate_reduced"),
    ("db.load_database.s", "s", "db.load_database"),
    ("cli.import_s", "s", "cli.run_command"),
    ("cli.run_command.self_s", "s", "cli.run_command"),
)


def summarize(processes) -> tuple[dict, list]:
    """Per-layer metrics from the spans of one or more processes.

    processes: list of (spans, import_s), import_s being None where the
    process did not time a CLI import.  Distinct inputs are counted within
    each process and then added up over processes.  Returns ({metric:
    value}, [absent metrics])."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    errors: dict[str, int] = {}
    distinct = {"modparam.orbit_points": 0, "lattice.periods": 0}
    an_sum_m = an_max_m = terms = nd_under_search = 0
    cli_self = 0.0
    import_s = [imp for _, imp in processes if imp is not None]
    for spans, _ in processes:
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        under_search = [False] * len(spans)
        in_cli = [False] * len(spans)  # cli code below cli.run_command
        seen = {name: set() for name in distinct}
        for i, s in enumerate(spans):
            name, p = s[NAME], s[PARENT]
            dur = s[END] - s[START]
            self_s = dur - child[i]
            if p >= 0:
                under_search[i] = (under_search[p]
                                   or spans[p][NAME] == "analysis.relation_search")
            in_cli[i] = name == "cli.run_command" or (
                p >= 0 and in_cli[p] and name.startswith("cli."))
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + self_s
            errors[name] = errors.get(name, 0) + s[ERROR]
            if name in seen:
                seen[name].add(s[KEY])
            if name == "ellcurve.an_coeffs":
                an_sum_m += s[KEY]
                an_max_m = max(an_max_m, s[KEY])
            elif name == "modparam.orbit_points":
                terms += s[VALUE] or 0
            elif name == "lattice.nearest_distances" and under_search[i]:
                nd_under_search += 1
            if in_cli[i]:
                cli_self += self_s
        for name in distinct:
            distinct[name] += len(seen[name])

    def ratio(num, den):
        return num / den if den else 0

    m = {}
    for name in ("analysis.relation_search", "modparam.orbit_points",
                 "analysis.orbit_degree", "modparam.eval_phi",
                 "ellcurve.an_coeffs", "ellcurve.ap", "lattice.periods",
                 "lattice.weierstrass_p", "lattice.elliptic_log"):
        m[f"{name}.self_s"] = own.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    m["lattice.nearest_distances.calls"] = nd_under_search
    m["analysis.relation_search.checks_per_search"] = ratio(
        nd_under_search, calls.get("analysis.relation_search", 0))
    m["modparam.orbit_points.per_field"] = ratio(
        calls.get("modparam.orbit_points", 0), distinct["modparam.orbit_points"])
    m["modparam.orbit_points.terms"] = terms
    m["ellcurve.an_coeffs.recompute_ratio"] = ratio(an_sum_m, an_max_m)
    m["lattice.periods.per_lattice"] = ratio(
        calls.get("lattice.periods", 0), distinct["lattice.periods"])
    for name in ("analysis.relation_search", "modparam.trace_point",
                 "modparam.recognize",
                 "analysis.verify_relation", "heegner.heegner_fiber",
                 "qform.enumerate_reduced", "db.load_database"):
        m[f"{name}.s"] = incl.get(name, 0.0)
    m["modparam.recognize.failed"] = errors.get("modparam.recognize", 0)
    m["cli.import_s"] = sum(import_s) / len(import_s) if import_s else 0
    m["cli.run_command.self_s"] = cli_self
    absent = [name for name, _, fn in PER_LAYER if not calls.get(fn)]
    return {name: m[name] for name, _, _ in PER_LAYER}, absent
