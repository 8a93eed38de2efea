"""Tests for the strict curve-database loader."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab.db import (CurveDatabaseEntry, _kraus, find_curve,
                           load_database)
from heegnerlab.ellcurve import CurveModel
from heegnerlab.errors import ParseError, ValidationError
from test_ellcurve import BAD_REDUCTION_CURVES


def write_db(tmp_path, doc):
    p = tmp_path / "curves.json"
    p.write_text(json.dumps(doc))
    return str(p)


GOOD = {
    "label": "37a",
    "a_invariants": [0, 0, 1, -1, 0],
    "conductor": 37,
    "modular_degree": 2,
    "known_generators": [["0", "0"]],
}


class TestBundledDatabase:
    def test_loads_three_entries(self):
        entries = load_database()
        assert [e.label for e in entries] == ["37a", "32a", "49a"]

    def test_find_curve(self):
        e = find_curve("37a")
        assert e.a_invariants == (0, 0, 1, -1, 0)
        assert e.conductor == 37
        assert e.modular_degree == 2

    def test_cm_flags(self):
        assert find_curve("32a").cm_discriminant == -4
        assert find_curve("49a").cm_discriminant == -7

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            find_curve("11a")

    def test_curve_models_are_nonsingular(self):
        for e in load_database():
            assert e.curve().discriminant != 0


class TestParsing:
    def test_unknown_field_rejected(self, tmp_path):
        bad = dict(GOOD, rank=1)
        with pytest.raises(ParseError, match="unknown field"):
            load_database(write_db(tmp_path, [bad]))

    def test_missing_field_rejected(self, tmp_path):
        bad = {k: v for k, v in GOOD.items() if k != "conductor"}
        with pytest.raises(ParseError, match="missing field"):
            load_database(write_db(tmp_path, [bad]))

    def test_bad_a_invariants(self, tmp_path):
        bad = dict(GOOD, a_invariants=[0, 0, 1, -1])
        with pytest.raises(ParseError, match="five integers"):
            load_database(write_db(tmp_path, [bad]))

    def test_bad_rational_generator(self, tmp_path):
        bad = dict(GOOD, known_generators=[["1/0", "0"]])
        with pytest.raises(ParseError, match="bad rational"):
            load_database(write_db(tmp_path, [bad]))

    def test_malformed_json_position(self, tmp_path):
        p = tmp_path / "curves.json"
        p.write_text('[{"label": }]')
        with pytest.raises(ParseError, match="line 1"):
            load_database(str(p))

    def test_top_level_must_be_array(self, tmp_path):
        with pytest.raises(ParseError, match="top level"):
            load_database(write_db(tmp_path, GOOD))

    @pytest.mark.parametrize("field, value", [
        ("a_invariants", [0, 0, True, -1, 0]),
        ("conductor", True),
        ("modular_degree", True),
        ("cm_discriminant", False),
        ("known_generators", [[False, False]]),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, field, value):
        # bool is a subclass of int, so an isinstance check would load
        # [0, 0, true, -1, 0] as 37a and modular_degree true as 1
        bad = dict(GOOD, **{field: value})
        with pytest.raises(ParseError):
            load_database(write_db(tmp_path, [bad]))

    def test_error_names_entry(self, tmp_path):
        bad = dict(GOOD, conductor=-5)
        with pytest.raises(ParseError, match=r"entry 0 \(37a\)"):
            load_database(write_db(tmp_path, [bad]))


class TestValidation:
    @pytest.mark.parametrize("entry, d", [
        (dict(GOOD, cm_discriminant=-3), None),  # 37a has no CM
        ({"label": "32a", "a_invariants": [0, 0, 0, -1, 0], "conductor": 32,
          "cm_discriminant": -16}, -4),  # j = 1728: CM by Z[i]
    ], ids=["37a", "32a"])
    def test_cm_discriminant_must_match_j(self, tmp_path, entry, d):
        with pytest.raises(ValidationError,
                           match=f"disagrees with j = .*discriminant {d}$"):
            load_database(write_db(tmp_path, [entry]))

    def test_cm_discriminant_may_be_left_out(self, tmp_path):
        entry = {"label": "49a", "a_invariants": [1, -1, 0, -2, -1],
                 "conductor": 49}
        [e] = load_database(write_db(tmp_path, [entry]))
        assert e.cm_discriminant is None
        assert e.curve().cm_order_discriminant == -7

    def test_singular_model_rejected(self, tmp_path):
        bad = dict(GOOD, a_invariants=[0, 0, 0, 0, 0], known_generators=[])
        with pytest.raises(ValidationError, match="singular"):
            load_database(write_db(tmp_path, [bad]))

    @pytest.mark.parametrize("N", [38, 74, 37 * 37])
    def test_conductor_not_dividing_the_discriminant_rejected(self, tmp_path,
                                                              N):
        # 37a has discriminant 37: a mistyped conductor would change the
        # Heegner condition and the good primes of the Hecke recursion
        bad = dict(GOOD, conductor=N)
        with pytest.raises(ValidationError,
                           match=f"conductor {N} does not divide"):
            load_database(write_db(tmp_path, [bad]))

    def test_generator_on_curve_accepted(self, tmp_path):
        entries = load_database(write_db(tmp_path, [GOOD]))
        assert entries[0].known_generators == (
            (pytest.approx(0), pytest.approx(0)),
        )

    def test_generator_off_curve_rejected(self, tmp_path):
        bad = dict(GOOD, known_generators=[["0", "1"]])
        with pytest.raises(ValidationError, match="not on the curve"):
            load_database(write_db(tmp_path, [bad]))

    def test_duplicate_labels_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            load_database(write_db(tmp_path, [GOOD, GOOD]))


def _scaled(a_invariants, u):
    # the model with x, y scaled by u^2, u^3: a_i -> u^i a_i, Delta -> u^12 Delta
    return [u**i * a for i, a in zip((1, 2, 3, 4, 6), a_invariants)]


# entries that loaded before the minimality check and gave wrong a_n
NOT_MINIMAL_OR_WRONG_PRIMES = {
    "37a with N = 1": ([0, 0, 1, -1, 0], 1),  # a_1369 -36 instead of 1
    "37a scaled by 2": ([0, 0, 8, -16, 0], 37),  # a_2 0 instead of -2
    "37a scaled by 37": ([0, 0, 37**3, -37**4, 0], 37),  # a_1369 0, not 1
}


class TestMinimality:
    @pytest.mark.parametrize("label", BAD_REDUCTION_CURVES)
    def test_minimal_models_load(self, tmp_path, label):
        E = BAD_REDUCTION_CURVES[label]
        entry = {"label": label, "a_invariants": list(E.a_invariants),
                 "conductor": E.conductor}
        [loaded] = load_database(write_db(tmp_path, [entry]))
        assert (loaded.a_invariants, loaded.conductor) == (E.a_invariants,
                                                           E.conductor)

    @pytest.mark.parametrize("name", NOT_MINIMAL_OR_WRONG_PRIMES)
    def test_wrong_entries_rejected(self, tmp_path, name):
        ai, N = NOT_MINIMAL_OR_WRONG_PRIMES[name]
        bad = {"label": "x", "a_invariants": ai, "conductor": N}
        with pytest.raises(ValidationError,
                           match="not minimal|different prime divisors"):
            load_database(write_db(tmp_path, [bad]))

    @pytest.mark.parametrize("u", [2, 3, 5])
    @pytest.mark.parametrize("label", BAD_REDUCTION_CURVES)
    def test_scaled_models_rejected(self, tmp_path, label, u):
        E = BAD_REDUCTION_CURVES[label]
        bad = {"label": label, "a_invariants": _scaled(E.a_invariants, u),
               "conductor": E.conductor}
        with pytest.raises(ValidationError,
                           match="not minimal|different prime divisors"):
            load_database(write_db(tmp_path, [bad]))

    @pytest.mark.parametrize("u", [2, 3, 5])
    @pytest.mark.parametrize("name", NOT_MINIMAL_OR_WRONG_PRIMES)
    def test_scaled_wrong_entries_rejected(self, tmp_path, name, u):
        ai, N = NOT_MINIMAL_OR_WRONG_PRIMES[name]
        bad = {"label": "x", "a_invariants": _scaled(ai, u), "conductor": N}
        with pytest.raises(ValidationError):
            load_database(write_db(tmp_path, [bad]))

    @pytest.mark.parametrize("ai, N, exponent", [
        # 7 | c4 = 105: additive at 7, so 49; 7 divides Delta = -343, and
        # point --disc -19 evaluated phi at level 7 and recognized nothing
        ([1, -1, 0, -2, -1], 7, 2),
        # 11 does not divide c4 = 496: multiplicative at 11, so 11; 121
        # divides Delta = -11^5
        ([0, -1, 1, -10, -20], 121, 1),
    ], ids=["49a with N = 7", "11a1 with N = 121"])
    def test_wrong_exponent_above_3_rejected(self, tmp_path, ai, N,
                                             exponent):
        bad = {"label": "x", "a_invariants": ai, "conductor": N}
        with pytest.raises(ValidationError,
                           match=f"conductor {N} must have exponent"
                                 f" {exponent}"):
            load_database(write_db(tmp_path, [bad]))

    def test_v3_of_c6_equal_to_2_keeps_a_model_minimal(self, tmp_path):
        # y^2 + y = x^3 - 61: Delta = -3^13, c4 = 0 and c6 = 3^6 * 72, yet
        # v3(72) = 2, so no integral model has invariants (0, 72) and this
        # one is minimal at 3; N = 243 has the primes of Delta
        ai = [0, 0, 1, 0, -61]
        E = CurveModel(*ai, conductor=243)
        assert E.discriminant == -3**13 and E.c_invariants == (0, 3**6 * 72)
        entry = {"label": "x", "a_invariants": ai, "conductor": 243}
        load_database(write_db(tmp_path, [entry]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=5, max_size=5),
           st.sampled_from([2, 3, 5]))
    def test_kraus_on_random_models(self, ai, p):
        # an integral model meets Kraus's conditions; dividing out p, it
        # meets them again only if p^12 | Delta (the model scaled by p)
        E = CurveModel(*ai, conductor=1)
        assume(E.discriminant != 0)
        c4, c6 = E.c_invariants
        assert _kraus(c4, c6)
        assert _kraus(c4 * p**4, c6 * p**6)
        if c4 % p**4 == 0 and c6 % p**6 == 0 and _kraus(c4 // p**4,
                                                         c6 // p**6):
            assert E.discriminant % p**12 == 0


class TestEntryToCurve:
    def test_curve_metadata_carried_over(self):
        E = find_curve("49a").curve()
        assert (E.a1, E.a2, E.a3, E.a4, E.a6) == (1, -1, 0, -2, -1)
        assert E.conductor == 49
        assert E.label == "49a"
        assert E.cm_order_discriminant == -7
        assert E.modular_degree == 1

    def test_frozen(self):
        e = find_curve("37a")
        with pytest.raises(Exception):
            e.label = "other"
        assert isinstance(e, CurveDatabaseEntry)
