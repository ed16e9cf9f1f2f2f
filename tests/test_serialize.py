import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeho import serialize
from cascadeho.errors import InputError
from cascadeho.scenarios import fixture
from cascadeho.serialize import _frac


def _oracle(s):
    """What ``Fraction(str(s))`` makes of s: ("value", n, d) or ("error", text)."""
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
    # past the integer string limit
    "1" * 5000, "1/" + "2" * 5000,
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


@pytest.mark.parametrize("modulus", ["parity", 0, 2, 4])
def test_admissible_grading_moduli_load(modulus):
    doc = json.loads(serialize.dumps(fixture("one-interval").payload))
    doc["payload"]["grading_modulus"] = modulus
    assert serialize.loads(json.dumps(doc)).grading_modulus == modulus
