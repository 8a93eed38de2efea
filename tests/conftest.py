import pytest

from heegnerlab import analysis, modparam


@pytest.fixture(autouse=True)
def fresh_orbits():
    # orbit_points keeps orbits by (E, D, precision_bits), and the report
    # keeps each orbit's entry by the orbit; a test that patches a stage
    # under them (eval_phi, periods, the fiber, the trace) must not read an
    # orbit or entry another test made, nor leave a patched one behind
    modparam.orbit_points.cache_clear()
    analysis._orbit_entry.cache_clear()
    yield
    modparam.orbit_points.cache_clear()
    analysis._orbit_entry.cache_clear()
