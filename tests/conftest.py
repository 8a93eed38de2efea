import pytest

from heegnerlab import analysis, modparam


@pytest.fixture(autouse=True)
def fresh_memos():
    # the report keeps each field by (E, D, precision_bits) and _involution
    # keeps w_N's constants by (E, L); a test that patches a stage under them
    # (eval_phi, periods, the fiber, the trace, the probe) must not read a
    # field or constants another test made, nor leave a patched one behind
    analysis._field.cache_clear()
    modparam._involution.cache_clear()
    yield
    analysis._field.cache_clear()
    modparam._involution.cache_clear()
