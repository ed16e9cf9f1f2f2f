import json
import sys
import weakref
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeho import serialize
from cascadeho.autonomous import CylinderRecord
from cascadeho.errors import InputError
from cascadeho.mbs import BoundaryLabel, Orbit, SignedPoint
from cascadeho.morphisms import PhiLabel, trivial_cobordism
from cascadeho.scenarios import fixture, fixture_names
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


def _records_load(cls, data):
    return serialize._records_load(cls, data, serialize._rationals())


@pytest.mark.parametrize("cls", list(serialize._FIELDS), ids=lambda c: c.__name__)
def test_record_readers_match_the_per_field_oracle(cls):
    # same record, or same exception type and text, on well-formed records and
    # on a corpus with missing keys, null and absent optional fields, floats,
    # booleans and strings for integers, non-string ids and bad rationals
    assert set(WELL_FORMED) == set(serialize._FIELDS)
    cases = list(_malformed(cls))
    for data in cases:
        expected = _outcome(_record_load_oracle, cls, data)
        assert _outcome(_records_load, cls, [data]) == (
            expected if expected[0] == "error" else ("value", [expected[1]])), data
    assert {_outcome(_record_load_oracle, cls, d)[0] for d in cases} == {
        "value", "error"}



# --- the JSON text writer against the standard library ----------------------

# str drawn to include non-ASCII (beyond the BMP too), quotes, backslashes and
# control characters; ints well past 64 bits, of either sign
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f ퟿\U0001f600é'),
                          st.characters()))
_SCALARS = st.one_of(st.none(), st.booleans(), _TEXT,
                     st.integers(), st.integers(-(10**400), 10**400))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_json_text_matches_the_standard_indent_encoder(value):
    assert serialize.json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"": {}}, {"a": [[], {}]}, [[[]], {"x": []}], "",
    -(2**200), 2**200, True, None, {"b": 1, "a": {"d": [], "c": ""}},
])
def test_json_text_on_empty_and_nested_empty_containers(value):
    assert serialize.json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}}, {(1, 2): 3},
    [Fraction(1, 2)], {"a": {1, 2}},
])
def test_json_text_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        serialize.json_text(value)


# --- one rational table per document -----------------------------------------


def _documents():
    """Canonical texts of every fixture and of the trivial cobordism over
    each Morse-Bott fixture, by name."""
    texts = {name: serialize.dumps(fixture(name).payload) for name in fixture_names()}
    for name in fixture_names():
        if fixture(name).kind == "mbs":
            texts[f"trivial-{name}"] = serialize.dumps(
                trivial_cobordism(fixture(name).payload))
    return texts


def test_loading_one_document_after_another_is_loading_each_fresh(monkeypatch):
    # no rational read for one document is seen by the next: each loads to
    # what it loads to alone, and its reader is freed when loads returns
    texts = _documents()
    fresh = {name: serialize.loads(text) for name, text in texts.items()}
    readers = []
    make = serialize._rationals

    def tracked():
        ratio = make()
        readers.append(weakref.ref(ratio))
        return ratio

    monkeypatch.setattr(serialize, "_rationals", tracked)
    names = sorted(texts)
    for a in names:
        for b in names:
            serialize.loads(texts[a])
            got = serialize.loads(texts[b])
            assert got == fresh[b], (a, b)
            assert serialize.dumps(got) == texts[b], (a, b)
    assert len(readers) == 2 * len(names) ** 2
    assert all(ref() is None for ref in readers)


def test_each_distinct_rational_string_is_parsed_once(monkeypatch):
    text = serialize.dumps(fixture("morphism-interval").payload)
    parsed, reads = [], []
    ratio, make = serialize._ratio, serialize._rationals

    def counted_ratio(s):
        parsed.append(s)
        return ratio(s)

    def counted_reader():
        read = make()

        def counted(s):
            reads.append(s)
            return read(s)

        return counted

    monkeypatch.setattr(serialize, "_ratio", counted_ratio)
    monkeypatch.setattr(serialize, "_rationals", counted_reader)
    loaded = serialize.loads(text)
    monkeypatch.undo()
    assert sorted(parsed) == sorted(set(reads))
    assert len(reads) > len(parsed)
    assert serialize.dumps(loaded) == text


def _one_interval_variant(change):
    doc = json.loads(serialize.dumps(fixture("one-interval").payload))
    change(doc["payload"])
    return doc


def _set_lift_starts(value):
    def change(payload):
        comp = payload["m1"][0]["components"][0]
        comp["e_plus_lift"][0][1] = comp["e_minus_lift"][0][1] = value
    return change


def _set_label_ts(payload):
    for label in payload["m1"][0]["components"][0]["labels"].values():
        label["t"] = "a/b"


def _set_point_ends(payload):
    point = payload["m0"][0]["points"][0]
    point["e_plus"] = point["e_minus"] = "--1"


def _set_actions(payload):
    for orbit in payload["orbits"][:2]:
        orbit["action"] = "2/0"


def _set_action_and_basepoint(payload):
    payload["orbits"][0]["action"] = payload["basepoints"]["beta"] = "3/0"


# each bad rational occurs twice in its document; the messages are those
# of the loader that parsed every occurrence
BAD_TWICE = {
    "lift": (_set_lift_starts("1/0"), "bad rational '1/0': Fraction(1, 0)"),
    "lift-text": (_set_lift_starts("x"),
                  "bad rational 'x': Invalid literal for Fraction: 'x'"),
    "lift-non-string": (_set_lift_starts([1]),
                        "bad rational [1]: Invalid literal for Fraction: '[1]'"),
    "label-t": (_set_label_ts,
                "bad rational 'a/b': Invalid literal for Fraction: 'a/b'"),
    "m0-point": (_set_point_ends,
                 "bad rational '--1': Invalid literal for Fraction: '--1'"),
    "actions": (_set_actions, "bad rational '2/0': Fraction(2, 0)"),
    "action-and-basepoint": (_set_action_and_basepoint,
                             "bad rational '3/0': Fraction(3, 0)"),
}


@pytest.mark.parametrize("case", list(BAD_TWICE))
def test_a_bad_rational_met_twice_keeps_its_message(case):
    change, message = BAD_TWICE[case]
    with pytest.raises(InputError) as err:
        serialize.from_document(_one_interval_variant(change))
    assert str(err.value) == message


def _repeat_m1(change):
    def repeat(payload):
        entry = json.loads(json.dumps(payload["m1"][0]))
        change(entry)
        payload["m1"].append(entry)
    return repeat


def _bad_lift(entry):
    entry["components"][0]["e_plus_lift"] = "no"


def _bad_bottom(entry):
    entry["bottom"] = 3


def _no_components(entry):
    del entry["components"]


def _bad_point(payload):
    entry = json.loads(json.dumps(payload["m0"][0]))
    entry["points"][0]["e_plus"] = "1/0"
    payload["m0"].append(entry)


def _bad_count(payload):
    payload["m2cc"] = [{"top": "alpha", "bottom": "beta", "count": 1},
                       {"top": "alpha", "bottom": "beta", "count": "1"}]


# a repeated pair whose second entry is malformed reports that entry's own
# error; only a well-formed repeat is a duplicate
REPEATED_PAIRS = {
    "bad-lift": (_repeat_m1(_bad_lift), "malformed mbs payload: lift 'no' is "
                 "not an array of [t, value] arrays"),
    "bad-pair": (_repeat_m1(_bad_bottom),
                 "malformed mbs payload: ['alpha', 3] is not a pair of strings"),
    "missing-value": (_repeat_m1(_no_components),
                      "malformed mbs payload: 'components'"),
    "bad-rational": (_bad_point, "bad rational '1/0': Fraction(1, 0)"),
    "bad-count": (_bad_count,
                  "malformed mbs payload: 'count' must be an integer, got '1'"),
    "well-formed": (_repeat_m1(lambda entry: None),
                    "malformed mbs payload: duplicate m1 pair ('alpha', 'beta')"),
}


@pytest.mark.parametrize("case", list(REPEATED_PAIRS))
def test_a_repeated_pair_reports_its_entrys_own_error_first(case):
    change, message = REPEATED_PAIRS[case]
    with pytest.raises(InputError) as err:
        serialize.from_document(_one_interval_variant(change))
    assert str(err.value) == message
