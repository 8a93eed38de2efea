import pytest

from heegnerlab import modparam


@pytest.fixture(autouse=True)
def fresh_orbits():
    # orbit_points keeps orbits by (E, D, precision_bits); a test that
    # patches a stage under it (eval_phi, periods, the fiber) must not read
    # an orbit another test evaluated, nor leave a patched one behind
    modparam.orbit_points.cache_clear()
    yield
    modparam.orbit_points.cache_clear()
