"""JSON documents for systems, autonomous data, and cobordism data.

Rationals are serialized as reduced "p/q" strings (plain "p" when integral)
so no floats ever appear.  ``dumps`` emits a canonical form through
``json_text`` (sorted keys, two-space indent, trailing newline); loading
and re-dumping a canonical document is byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from math import gcd
from typing import Dict, Tuple

from .errors import InputError
from .mbs import (
    BoundaryLabel, MorseBottSystem, Orbit, PLComponent, SignedPoint, _ratio_str,
    lift_shape_error,
)
from .autonomous import AutonomousData, CylinderRecord
from .morphisms import MorphismData, PhiLabel

SCHEMA_VERSION = 1


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _ratio(s) -> Tuple[int, int]:
    """The one rational parser of documents and options: ``s`` in lowest
    terms as the integers (num, den), den > 0.

    A plain rational, "p" or "p/q" in ASCII digits with an optional sign on
    p and q not zero, is split at its "/" and read with ``int``; anything
    else takes ``Fraction(str(s))``.  Both accept the same strings with the
    same values and errors.  A single digit, such as the t of a lift's ends,
    is read before any split.  ``Fraction`` computes 10**e for an exponent
    e, so a string whose text after its first "e" or "E" reads as an
    integer (as ``int`` reads it) larger in magnitude than
    ``sys.get_int_max_str_digits()`` is refused first, as a plain integer
    with more digits than that is.  When that limit is off (0), the bound is
    its default, ``sys.int_info.default_max_str_digits``.
    """
    try:
        if type(s) is str and s.isascii():
            if len(s) == 1 and s.isdigit():
                return int(s), 1
            num, slash, den = s.partition("/")
            if (num.isdigit() or num[:1] in "+-" and num[1:].isdigit()) and (
                not slash or den.isdigit()
            ):
                if not slash:
                    return int(num), 1
                n, d = int(num), int(den)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
        _check_exponent(str(s))
        x = Fraction(str(s))
        return x.numerator, x.denominator
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad rational {s!r}: {err}") from None


def _check_exponent(text: str):
    _, e, exp = text.upper().partition("E")
    if not e:
        return
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        n = int(exp)
    except ValueError:  # not an exponent: Fraction words the error
        return
    if abs(n) > limit:
        raise ValueError(f"exponent {n} exceeds the limit ({limit} digits)")


def _frac(s) -> Fraction:
    return Fraction(*_ratio(s))


def _rationals():
    """A new rational reader for one document: ``_ratio``, run once per
    distinct string.

    The first occurrence of each string goes through ``_ratio`` with all
    its checks and errors; later occurrences read its (num, den) from a
    table that lives as long as the reader, so no table outlives the
    ``from_document`` call that made it.  A value that is not a ``str``
    goes to ``_ratio`` every time.
    """
    table = {}

    def ratio(s):
        if type(s) is not str:
            return _ratio(s)
        value = table.get(s)
        if value is None:
            value = table[s] = _ratio(s)
        return value

    return ratio


def _object(data, key):
    """``data[key]`` when it is a JSON object; {} when it is absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be an object, got {value!r}")
    return value


def _array(data, key):
    """``data[key]`` when it is a JSON array; [] when it is absent."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be an array, got {value!r}")
    return value


def _kind_error(key, kind, value) -> TypeError:
    """The error for a JSON ``value`` at ``key`` that is not exactly of type
    ``kind`` (an integer field refuses floats, numeric strings and
    booleans)."""
    what = {bool: "a boolean", str: "a string"}.get(kind, "an integer")
    return TypeError(f"{key!r} must be {what}, got {value!r}")


def _read(data, key, kind):
    """``data[key]`` as a JSON value of exactly type ``kind``."""
    value = data[key]
    if type(value) is not kind:
        raise _kind_error(key, kind, value)
    return value


def _unique(items, what):
    """The dict of the (key, value) ``items``; a repeated key is malformed."""
    out = {}
    for key, value in items:
        if key in out:
            raise ValueError(f"duplicate {what} {key!r}")
        out[key] = value
    return out


def _name_pair(data) -> Tuple[str, str]:
    """An [orbit, orbit] or [flavor, orbit] pair of JSON strings."""
    if isinstance(data, list) and len(data) == 2:
        top, bottom = data
        if type(top) is str and type(bottom) is str:
            return top, bottom
    raise _pair_error(data)


def _pair_error(data) -> ValueError:
    return ValueError(f"{data!r} is not a pair of strings")


def _lift_json(lift):
    return [[_ratio_str(tn, td), _ratio_str(vn, vd)] for tn, td, vn, vd in lift]


def _lift_load(data, ratio):
    """A lift's ``IntLift``, read from a JSON array of [t, value] arrays by
    the document's ``ratio``.  Only its shape is checked here: ``ratio``
    gives lowest terms over positive denominators, so the component is made
    by ``PLComponent._trusted``, and ``mbs.check_lift`` checks the lift's
    rules there, once."""
    if type(data) is not list:
        raise lift_shape_error(data)
    out = []
    for point in data:
        if type(point) is not list or len(point) != 2:
            raise lift_shape_error(data)
        t, v = point
        out.append(ratio(t) + ratio(v))
    return tuple(out)


# each record's (JSON key, attribute, type) rows, in reading order, which is
# field order; a field with a dataclass default may be absent or null, and is
# written unless None
_FIELDS = {
    Orbit: (("id", "oid", str), ("d", "d", int), ("parity", "parity", int),
            ("good", "good", bool), ("action", "action", Fraction),
            ("class", "homotopy_class", str), ("grading", "grading", int)),
    SignedPoint: (("e_plus", "e_plus", Fraction),
                  ("e_minus", "e_minus", Fraction), ("sign", "sign", int)),
    BoundaryLabel: (("orbit", "orbit", str), ("d_plus", "d_plus", int),
                    ("point_index", "point_index", int),
                    ("component_index", "component_index", int),
                    ("t", "t", Fraction)),
    PhiLabel: (("side", "side", str), ("orbit", "orbit", str),
               ("d_phi", "d_phi", int), ("point_index", "point_index", int),
               ("component_index", "component_index", int),
               ("t", "t", Fraction)),
    CylinderRecord: (("epsilon", "epsilon", int), ("du", "du", int)),
}


def _record_json(record):
    out = {}
    for key, attr, kind in _FIELDS[type(record)]:
        value = getattr(record, attr)
        if value is not None:
            out[key] = _frac_str(value) if kind is Fraction else value
    return out


def _reader(cls):
    """The loader of a ``cls`` record from its JSON object and the
    document's rational reader: the keys of ``_FIELDS[cls]`` in order, a
    Fraction field read by ``ratio`` and any other as a JSON value of
    exactly its type.  Like ``PLComponent._trusted``, it stores each field in
    field order, as ``__init__`` does, then runs ``__post_init__``, if any."""
    default = {f.name: f.default for f in fields(cls)}
    rows = [(key, attr, kind, default[attr]) for key, attr, kind in _FIELDS[cls]]
    post_init = getattr(cls, "__post_init__", None)
    new, store = object.__new__, object.__setattr__

    def read(data, ratio):
        record = new(cls)
        for key, attr, kind, fallback in rows:
            value = data[key] if fallback is MISSING else data.get(key)
            if value is None and fallback is not MISSING:
                value = fallback
            elif kind is Fraction:
                value = Fraction(*ratio(value))
            elif type(value) is not kind:
                raise _kind_error(key, kind, value)
            store(record, attr, value)
        if post_init is not None:
            post_init(record)
        return record

    return read


_READERS = {cls: _reader(cls) for cls in _FIELDS}


def _records_load(cls, data, ratio):
    read = _READERS[cls]
    return [read(record, ratio) for record in data]


def _component_json(comp: PLComponent):
    out = {
        "kind": comp.kind,
        "sign_start": comp.sign_start,
        "e_plus_lift": _lift_json(comp.e_plus_lift),
        "e_minus_lift": _lift_json(comp.e_minus_lift),
    }
    if comp.boundary_labels:
        out["labels"] = {
            str(end): _record_json(label)
            for end, label in sorted(comp.boundary_labels.items())
        }
    return out


def _component_load(data, ratio) -> PLComponent:
    # the _object and _read checks inline, with their messages: this runs
    # once per component of a document
    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise TypeError(f"'labels' must be an object, got {labels!r}")
    for end in labels:
        if end not in ("0", "1"):
            raise ValueError(f'label end {end!r} is neither "0" nor "1"')
    kind = data["kind"]
    sign_start = data["sign_start"]
    if type(sign_start) is not int:
        raise _kind_error("sign_start", int, sign_start)
    plus = _lift_load(data["e_plus_lift"], ratio)
    minus = _lift_load(data["e_minus_lift"], ratio)
    # a fresh dict either way: the component shares nothing with ``data``
    labels = {
        int(end): _READERS[PhiLabel if "side" in label else BoundaryLabel](
            label, ratio)
        for end, label in labels.items()
    } if labels else {}
    return PLComponent._trusted(kind, sign_start, plus, minus, labels)


def _pairs_json(mapping, value_key, value_fn):
    return [
        {"top": top, "bottom": bottom, value_key: value_fn(value)}
        for (top, bottom), value in sorted(mapping.items())
        if value
    ]


def _pairs_load(payload, name, load, *args):
    """The inverse of ``_pairs_json``: the table ``name`` of ``payload``,
    keyed by (top, bottom) orbit ids, each entry ``e``'s value read by
    ``load(e, *args)``.  An entry's own errors (its pair, then its value)
    come before a repeated pair's."""
    out = {}
    for e in _array(payload, name):
        pair = top, bottom = e["top"], e["bottom"]
        if type(top) is not str or type(bottom) is not str:
            raise _pair_error([top, bottom])
        value = load(e, *args)
        if pair in out:
            raise ValueError(f"duplicate {name} pair {pair!r}")
        out[pair] = value
    return out


def _records_json(records):
    return [_record_json(r) for r in records]


def _points_load(e, ratio):
    return _records_load(SignedPoint, e["points"], ratio)


def _components_json(components):
    return [_component_json(c) for c in components]


def _components_load(e, ratio):
    out = []
    for c in e["components"]:
        out.append(_component_load(c, ratio))
    return out


def _orbits_json(orbits):
    return [_record_json(o) for _, o in sorted(orbits.items())]


def _orbits_load(payload, ratio):
    orbits = _records_load(Orbit, payload["orbits"], ratio)
    return _unique(((o.oid, o) for o in orbits), "orbit id")


def _mbs_payload(sys: MorseBottSystem) -> Dict:
    return {
        "grading_modulus": sys.grading_modulus,
        "orbits": _orbits_json(sys.orbits),
        "basepoints": {
            oid: _frac_str(p) for oid, p in sorted(sys.basepoints.items())
        },
        "m0": _pairs_json(sys.m0, "points", _records_json),
        "m1": _pairs_json(sys.m1, "components", _components_json),
        "m2cc": _pairs_json(sys.m2cc, "count", int),
    }


def _mbs_load(payload, ratio) -> MorseBottSystem:
    modulus = payload.get("grading_modulus", 0)
    if modulus != "parity" and not (
        type(modulus) is int and modulus >= 0 and modulus % 2 == 0
    ):
        raise ValueError('grading modulus must be "parity", 0 or an even '
                         f"integer >= 2, got {modulus!r}")
    return MorseBottSystem(
        orbits=_orbits_load(payload, ratio),
        basepoints={
            oid: Fraction(*ratio(p))
            for oid, p in _object(payload, "basepoints").items()
        },
        m0=_pairs_load(payload, "m0", _points_load, ratio),
        m1=_pairs_load(payload, "m1", _components_load, ratio),
        m2cc=_pairs_load(payload, "m2cc", _read, "count", int),
        grading_modulus=modulus,
    )


def _autonomous_payload(data: AutonomousData) -> Dict:
    return {
        "orbits": _orbits_json(data.orbits),
        "mj1": _pairs_json(data.mj1, "cylinders", _records_json),
        "extra": [
            {"source": list(src), "target": list(tgt), "coefficient": coeff}
            for (src, tgt), coeff in sorted(data.extra.items())
            if coeff
        ],
    }


def _autonomous_load(payload, ratio) -> AutonomousData:
    return AutonomousData(
        orbits=_orbits_load(payload, ratio),
        mj1=_pairs_load(payload, "mj1", lambda e: _records_load(
            CylinderRecord, e["cylinders"], ratio)),
        extra=_unique((
            ((_name_pair(e["source"]), _name_pair(e["target"])),
             _read(e, "coefficient", int))
            for e in _array(payload, "extra")
        ), "extra entry"),
    )


def _morphism_payload(m: MorphismData) -> Dict:
    return {
        "source": _mbs_payload(m.source),
        "target": _mbs_payload(m.target),
        "phi0": _pairs_json(m.phi0, "points", _records_json),
        "phi1": _pairs_json(m.phi1, "components", _components_json),
        "allow_equal_action": sorted(
            [list(pair) for pair in m.allow_equal_action]
        ),
    }


def _morphism_load(payload, ratio) -> MorphismData:
    return MorphismData(
        source=_mbs_load(payload["source"], ratio),
        target=_mbs_load(payload["target"], ratio),
        phi0=_pairs_load(payload, "phi0", _points_load, ratio),
        phi1=_pairs_load(payload, "phi1", _components_load, ratio),
        allow_equal_action={
            _name_pair(pair) for pair in _array(payload, "allow_equal_action")
        },
    )


# each document kind's name -> (class, payload writer, payload reader); a
# reader takes the payload and the document's rational reader
_KINDS = {
    "mbs": (MorseBottSystem, _mbs_payload, _mbs_load),
    "autonomous": (AutonomousData, _autonomous_payload, _autonomous_load),
    "morphism": (MorphismData, _morphism_payload, _morphism_load),
}


def kind_of(obj) -> str:
    """The document kind of ``obj``: "mbs", "autonomous" or "morphism"."""
    for kind, (cls, *_codec) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise InputError(f"cannot serialize {type(obj).__name__}")


def to_document(obj) -> Dict:
    kind = kind_of(obj)
    payload = _KINDS[kind][1](obj)
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def from_document(doc: Dict):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise InputError("missing payload")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"unknown document kind {kind!r}")
    try:
        return _KINDS[kind][2](payload, _rationals())
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed {kind} payload: {err}") from None


_quote = json.encoder.encode_basestring_ascii


def json_text(value) -> str:
    """``value`` exactly as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it: the one JSON text writer of documents and ``--format json``
    reports.

    ``value`` is built of str, int, bool, None, lists (or tuples) and dicts
    with str keys.  A float, a key that is not a str, or any other value
    raises TypeError.  Unlike the standard library's indent encoder, whose
    nested closures refer to each other, the writer leaves no reference
    cycle behind.
    """
    out = []
    _write(value, "", "\n", out)
    return "".join(out)


def _write(value, head, newline, out):
    """Append ``head`` and the text of ``value`` to ``out``, a scalar in one
    piece with its head; ``newline`` is a line break and the indent of the
    line ``value`` starts on."""
    if isinstance(value, str):
        out.append(head + _quote(value))
    elif value is None:
        out.append(head + "null")
    elif value is True:
        out.append(head + "true")
    elif value is False:
        out.append(head + "false")
    elif isinstance(value, int):
        out.append(head + int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in value:
            _write(item, head, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys here must be str, not {type(key).__name__}")
            _write(value[key], head + _quote(key) + ": ", inner, out)
            head = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON here")


def dumps(obj) -> str:
    return json_text(to_document(obj)) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise InputError(f"invalid JSON: {err}") from None
    return from_document(doc)
