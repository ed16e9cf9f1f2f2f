import json
import sys
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeho import serialize
from cascadeho.autonomous import CylinderRecord
from cascadeho.errors import InputError
from cascadeho.mbs import BoundaryLabel, Orbit, SignedPoint
from cascadeho.morphisms import PhiLabel
from cascadeho.scenarios import fixture
from cascadeho.serialize import _frac


def _oracle(s):
    """What ``Fraction(str(s))`` makes of s: ("value", n, d) or ("error", text).

    One stated exception: Fraction computes 10**e, so when the text after the
    first "e" or "E" reads as an integer (as ``int`` reads it) beyond the
    integer string digit limit, _frac refuses s before Fraction sees it.
    """
    _, e, exp = str(s).upper().partition("E")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        n = int(exp) if e else 0
    except ValueError:
        n = 0
    if abs(n) > limit:
        return ("error", f"bad rational {s!r}: exponent {n} exceeds the limit "
                         f"({limit} digits)")
    try:
        f = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as err:
        return ("error", f"bad rational {s!r}: {err}")
    return ("value", f.numerator, f.denominator)


def _parsed(s):
    try:
        f = _frac(s)
    except InputError as err:
        return ("error", str(err))
    assert type(f) is Fraction
    return ("value", f.numerator, f.denominator)


CORPUS = [
    # plain rationals
    "0", "-0", "+0", "7", "-7", "+7", "007", "3/4", "-3/4", "+3/4", "6/8",
    "-12/35", "0/5", "007/010", "1234567890123456789/987654321",
    # decimals and exponents
    "1.5", "-.5", ".5", "5.", "1e3", "1E-2", "2.5e1", "-1.5/2",
    # whitespace, underscores, non-ASCII digits
    " 3", "3 ", "\t1/2\n", "1 /2", "1/ 2", "1_000", "1_0/3", "3/1_0",
    "٣", "٣/٤", "３/4", "²", "3/٤",
    # zero denominators and malformed signs
    "1/0", "0/0", "-0/0", "5/00", "3/-4", "3/+4", "+-3", "--3", "-",
    "+/2", "-/2", "1/²", "²/2", "+1/0",
    # neither
    "", "/", "1/", "/2", "1/2/3", "abc", "nan", "inf", "0x10", "1//2",
    # past the integer string limit, in digits or in an exponent
    "1" * 5000, "1/" + "2" * 5000, "1e5000", "1e-5000", "2.5E+9999",
    "1e" + "1" * 5000, "1e4300", "1e 5000",
]
# JSON numbers and other values a document may hold
CORPUS += [json.loads(t) for t in ("3", "-7", "0", "10000000000000000000000000000",
                                   "0.5", "1e-7", "1.1", "-2.0", "true", "null")]


@pytest.mark.parametrize("s", CORPUS, ids=lambda s: repr(s)[:20])
def test_frac_matches_fraction_of_str(s):
    assert _parsed(s) == _oracle(s)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-/ ._eE٣", max_size=8))
def test_frac_matches_fraction_of_str_on_random_text(s):
    assert _parsed(s) == _oracle(s)


@pytest.mark.parametrize("s", ["1e999999", "1e-3000000", "-7.5E+99999999"])
def test_huge_exponent_is_refused_before_fraction_computes_it(s, monkeypatch):
    # "1e3000000" alone took seconds in Fraction; no power of ten is formed
    def no_power(*_args):
        raise AssertionError("Fraction ran on a refused exponent")
    monkeypatch.setattr(serialize, "Fraction", no_power)
    kind, text = _parsed(s)
    assert kind == "error" and "exceeds the limit" in text


def test_exponent_bound_holds_with_the_digit_limit_off(monkeypatch):
    # under -X int_max_str_digits=0 the guard used to switch off, and
    # "1e3000000" passed validate after a second of Fraction work
    def no_power(*_args):
        raise AssertionError("Fraction ran on a refused exponent")
    monkeypatch.setattr(serialize, "Fraction", no_power)
    default = sys.int_info.default_max_str_digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for s in ("1e3000000", f"1e-{default + 1}"):
            assert _parsed(s) == ("error", (
                f"bad rational {s!r}: exponent {int(s[2:])} exceeds the limit "
                f"({default} digits)"))
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("modulus", ["parity", 0, 2, 4])
def test_admissible_grading_moduli_load(modulus):
    doc = json.loads(serialize.dumps(fixture("one-interval").payload))
    doc["payload"]["grading_modulus"] = modulus
    assert serialize.loads(json.dumps(doc)).grading_modulus == modulus


# --- per-kind record readers -------------------------------------------------


def _record_load_oracle(cls, data):
    """The record loader before per-kind readers, as the oracle: one typed
    read and one optional-field lookup per field."""
    optional = {f.name for f in fields(cls) if f.default is not MISSING}

    def read(key, kind):
        value = data[key]
        if kind is Fraction:
            return _frac(value)
        if type(value) is not kind:
            what = {bool: "a boolean", str: "a string"}.get(kind, "an integer")
            raise TypeError(f"{key!r} must be {what}, got {value!r}")
        return value

    return cls(**{
        attr: read(key, kind)
        for key, attr, kind in serialize._FIELDS[cls]
        if attr not in optional or data.get(key) is not None
    })


WELL_FORMED = {
    Orbit: [{"id": "a", "d": 2, "parity": 0, "good": False, "action": "3/2",
             "class": "x", "grading": 4},
            {"id": "b", "d": 1, "parity": 1, "good": True, "action": "0"}],
    SignedPoint: [{"e_plus": "1/3", "e_minus": "-7/5", "sign": -1}],
    BoundaryLabel: [{"orbit": "m", "d_plus": 1, "point_index": 0,
                     "component_index": 2, "t": "1/2"}],
    PhiLabel: [{"side": "top", "orbit": "m", "d_phi": 0, "point_index": 1,
                "component_index": 0, "t": "2/3"}],
    CylinderRecord: [{"epsilon": -1, "du": 2}],
}
# what a malformed record may hold in place of one field; _ABSENT drops it
_ABSENT = object()
_SUBSTITUTES = [_ABSENT, None, 1.5, True, False, "7", 7, 0, -2, "1/0", "abc",
                "", [1], {}, "4/6"]


def _outcome(load, cls, data):
    try:
        return ("value", load(cls, data))
    except Exception as err:  # the reader must raise exactly what the oracle does
        return ("error", type(err), str(err))


def _malformed(cls):
    for record in WELL_FORMED[cls]:
        yield record
        for key in record:
            for value in _SUBSTITUTES:
                bad = dict(record)
                if value is _ABSENT:
                    del bad[key]
                else:
                    bad[key] = value
                yield bad
    yield from ([], "x", {})


@pytest.mark.parametrize("cls", list(serialize._FIELDS), ids=lambda c: c.__name__)
def test_record_readers_match_the_per_field_oracle(cls):
    # same record, or same exception type and text, on well-formed records and
    # on a corpus with missing keys, null and absent optional fields, floats,
    # booleans and strings for integers, non-string ids and bad rationals
    assert set(WELL_FORMED) == set(serialize._FIELDS)
    cases = list(_malformed(cls))
    for data in cases:
        expected = _outcome(_record_load_oracle, cls, data)
        assert _outcome(serialize._records_load, cls, [data]) == (
            expected if expected[0] == "error" else ("value", [expected[1]])), data
    assert {_outcome(_record_load_oracle, cls, d)[0] for d in cases} == {
        "value", "error"}

