"""heegnerlab: class groups of imaginary quadratic orders, fiber points on
modular curves, and numerical dependence measurements on elliptic curves."""

# Loads every layer with the package: a tracer installed after
# `import heegnerlab` then finds (and wraps) them all in sys.modules.
from . import analysis, arith, db, ellcurve, errors, heegner, lattice, modparam, qform
