"""heegnerlab: class groups of imaginary quadratic orders, fiber points on
modular curves, and numerical dependence measurements on elliptic curves."""

from .analysis import (
    IndependenceReport,
    Relation,
    independence_report,
    orbit_degree,
    relation_search,
    verify_relation,
)
from .arith import kronecker, odd_part, prime_to_B_part, sqrt_mod_4N
from .db import CurveDatabaseEntry, find_curve, load_database
from .ellcurve import (
    CurveModel,
    CurvePoint,
    INFINITY,
    QuadElt,
    an_coeffs,
    ap,
    point,
    point_add,
    point_mul,
    torsion_subgroup,
)
from .errors import HeegnerlabError
from .heegner import HeegnerPointRep, heegner_condition, heegner_fiber, star_act
from .lattice import Lattice, elliptic_log, periods, weierstrass_map
from .modparam import (
    OrbitEvaluation,
    RecognizedAlgebraic,
    eval_phi,
    orbit_points,
    recognize,
    recognize_minpoly,
    recognize_quadratic,
    recognize_trace,
    trace_point,
)
from .qform import (
    BinaryQuadraticForm,
    ClassGroup,
    compose,
    enumerate_reduced,
    principal_form,
    reduce,
    ring_class_number,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryQuadraticForm",
    "ClassGroup",
    "CurveDatabaseEntry",
    "CurveModel",
    "CurvePoint",
    "HeegnerPointRep",
    "HeegnerlabError",
    "INFINITY",
    "IndependenceReport",
    "Lattice",
    "OrbitEvaluation",
    "QuadElt",
    "RecognizedAlgebraic",
    "Relation",
    "an_coeffs",
    "ap",
    "compose",
    "elliptic_log",
    "enumerate_reduced",
    "eval_phi",
    "find_curve",
    "heegner_condition",
    "heegner_fiber",
    "independence_report",
    "kronecker",
    "load_database",
    "odd_part",
    "orbit_degree",
    "orbit_points",
    "periods",
    "point",
    "point_add",
    "point_mul",
    "prime_to_B_part",
    "principal_form",
    "recognize",
    "recognize_minpoly",
    "recognize_quadratic",
    "recognize_trace",
    "reduce",
    "relation_search",
    "ring_class_number",
    "sqrt_mod_4N",
    "star_act",
    "torsion_subgroup",
    "trace_point",
    "verify_relation",
]
