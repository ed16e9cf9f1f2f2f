"""JSON documents for systems, autonomous data, and cobordism data.

Rationals are serialized as reduced "p/q" strings (plain "p" when integral)
so no floats ever appear.  ``dumps`` emits a canonical form (sorted keys,
two-space indent, trailing newline); loading and re-dumping a canonical
document is byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, Tuple

from .errors import InputError
from .mbs import BoundaryLabel, MorseBottSystem, Orbit, PLComponent, SignedPoint
from .autonomous import AutonomousData, CylinderRecord
from .morphisms import MorphismData, PhiLabel

SCHEMA_VERSION = 1


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


# an optional sign, ASCII digits, and an optional nonzero ASCII denominator
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _frac(s) -> Fraction:
    """The one rational parser of documents and options.

    Plain rationals "p" and "p/q" are read with ``int``; anything else takes
    ``Fraction(str(s))``.  Both accept the same strings with the same values
    and errors.
    """
    try:
        plain = _PLAIN_RATIONAL.fullmatch(s) if type(s) is str else None
        if plain is not None:
            num, den = plain.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad rational {s!r}: {err}") from None


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


def _typed(data, key, kind=int):
    """``data[key]`` when it is a JSON value of exactly ``kind``: an integer
    field refuses floats, numeric strings and booleans."""
    value = data[key]
    if type(value) is not kind:
        what = {bool: "a boolean", str: "a string"}.get(kind, "an integer")
        raise TypeError(f"{key!r} must be {what}, got {value!r}")
    return value


def _name_pair(data) -> Tuple[str, str]:
    """An [orbit, orbit] or [flavor, orbit] pair of JSON strings."""
    if not (
        isinstance(data, list) and len(data) == 2
        and all(type(x) is str for x in data)
    ):
        raise ValueError(f"{data!r} is not a pair of strings")
    return tuple(data)


def _lift_json(lift):
    return [[_frac_str(t), _frac_str(v)] for t, v in lift]


def _lift_load(data):
    return tuple((_frac(t), _frac(v)) for t, v in data)


def _label_json(label):
    if isinstance(label, PhiLabel):
        return {
            "side": label.side,
            "orbit": label.orbit,
            "d_phi": label.d_phi,
            "point_index": label.point_index,
            "component_index": label.component_index,
            "t": _frac_str(label.t),
        }
    return {
        "orbit": label.orbit,
        "d_plus": label.d_plus,
        "point_index": label.point_index,
        "component_index": label.component_index,
        "t": _frac_str(label.t),
    }


def _label_load(data):
    if "side" in data:
        return PhiLabel(
            _typed(data, "side", str),
            _typed(data, "orbit", str),
            _typed(data, "d_phi"),
            _typed(data, "point_index"),
            _typed(data, "component_index"),
            _frac(data["t"]),
        )
    return BoundaryLabel(
        _typed(data, "orbit", str),
        _typed(data, "d_plus"),
        _typed(data, "point_index"),
        _typed(data, "component_index"),
        _frac(data["t"]),
    )


def _component_json(comp: PLComponent):
    out = {
        "kind": comp.kind,
        "sign_start": comp.sign_start,
        "e_plus_lift": _lift_json(comp.e_plus_lift),
        "e_minus_lift": _lift_json(comp.e_minus_lift),
    }
    if comp.boundary_labels:
        out["labels"] = {
            str(end): _label_json(label)
            for end, label in sorted(comp.boundary_labels.items())
        }
    return out


def _component_load(data) -> PLComponent:
    labels = _object(data, "labels")
    for end in labels:
        if end not in ("0", "1"):
            raise ValueError(f'label end {end!r} is neither "0" nor "1"')
    return PLComponent(
        data["kind"],
        _typed(data, "sign_start"),
        _lift_load(data["e_plus_lift"]),
        _lift_load(data["e_minus_lift"]),
        {int(end): _label_load(label) for end, label in labels.items()},
    )


def _orbit_json(orbit: Orbit):
    out = {
        "id": orbit.oid,
        "d": orbit.d,
        "parity": orbit.parity,
        "good": orbit.good,
        "action": _frac_str(orbit.action),
        "class": orbit.homotopy_class,
    }
    if orbit.grading is not None:
        out["grading"] = orbit.grading
    return out


def _orbit_load(data) -> Orbit:
    return Orbit(
        _typed(data, "id", str),
        _typed(data, "d"),
        _typed(data, "parity"),
        _typed(data, "good", bool),
        _frac(data["action"]),
        data.get("class", ""),
        None if data.get("grading") is None else _typed(data, "grading"),
    )


def _points_json(points):
    return [
        {"e_plus": _frac_str(p.e_plus), "e_minus": _frac_str(p.e_minus),
         "sign": p.sign}
        for p in points
    ]


def _points_load(data):
    return [
        SignedPoint(_frac(p["e_plus"]), _frac(p["e_minus"]), _typed(p, "sign"))
        for p in data
    ]


def _pairs_json(mapping, value_key, value_fn):
    return [
        {"top": top, "bottom": bottom, value_key: value_fn(value)}
        for (top, bottom), value in sorted(mapping.items())
        if value
    ]


def _pairs_load(payload, name, load):
    """The inverse of ``_pairs_json``: the table ``name`` of ``payload``,
    keyed by (top, bottom) orbit ids, each entry's value read by ``load``."""
    return {
        _name_pair([e["top"], e["bottom"]]): load(e) for e in _array(payload, name)
    }


def _components_load(e):
    return [_component_load(c) for c in e["components"]]


def _mbs_payload(sys: MorseBottSystem) -> Dict:
    return {
        "grading_modulus": sys.grading_modulus,
        "orbits": [_orbit_json(o) for _, o in sorted(sys.orbits.items())],
        "basepoints": {
            oid: _frac_str(p) for oid, p in sorted(sys.basepoints.items())
        },
        "m0": _pairs_json(sys.m0, "points", _points_json),
        "m1": _pairs_json(
            sys.m1, "components", lambda cs: [_component_json(c) for c in cs]
        ),
        "m2cc": _pairs_json(sys.m2cc, "count", int),
    }


def _mbs_load(payload) -> MorseBottSystem:
    modulus = payload.get("grading_modulus", 0)
    if modulus != "parity" and not (
        type(modulus) is int and modulus >= 0 and modulus % 2 == 0
    ):
        raise ValueError('grading modulus must be "parity", 0 or an even '
                         f"integer >= 2, got {modulus!r}")
    return MorseBottSystem(
        orbits={o.oid: o for o in map(_orbit_load, payload["orbits"])},
        basepoints={
            oid: _frac(p) for oid, p in _object(payload, "basepoints").items()
        },
        m0=_pairs_load(payload, "m0", lambda e: _points_load(e["points"])),
        m1=_pairs_load(payload, "m1", _components_load),
        m2cc=_pairs_load(payload, "m2cc", lambda e: _typed(e, "count")),
        grading_modulus=modulus,
    )


def _autonomous_payload(data: AutonomousData) -> Dict:
    return {
        "orbits": [_orbit_json(o) for _, o in sorted(data.orbits.items())],
        "mj1": _pairs_json(
            data.mj1,
            "cylinders",
            lambda cs: [{"epsilon": c.epsilon, "du": c.du} for c in cs],
        ),
        "extra": [
            {"source": list(src), "target": list(tgt), "coefficient": coeff}
            for (src, tgt), coeff in sorted(data.extra.items())
            if coeff
        ],
    }


def _autonomous_load(payload) -> AutonomousData:
    return AutonomousData(
        orbits={o.oid: o for o in map(_orbit_load, payload["orbits"])},
        mj1=_pairs_load(payload, "mj1", lambda e: [
            CylinderRecord(_typed(c, "epsilon"), _typed(c, "du"))
            for c in e["cylinders"]
        ]),
        extra={
            (_name_pair(e["source"]), _name_pair(e["target"])):
                _typed(e, "coefficient")
            for e in _array(payload, "extra")
        },
    )


def _morphism_payload(m: MorphismData) -> Dict:
    return {
        "source": _mbs_payload(m.source),
        "target": _mbs_payload(m.target),
        "phi0": _pairs_json(m.phi0, "points", _points_json),
        "phi1": _pairs_json(
            m.phi1, "components", lambda cs: [_component_json(c) for c in cs]
        ),
        "allow_equal_action": sorted(
            [list(pair) for pair in m.allow_equal_action]
        ),
    }


def _morphism_load(payload) -> MorphismData:
    return MorphismData(
        source=_mbs_load(payload["source"]),
        target=_mbs_load(payload["target"]),
        phi0=_pairs_load(payload, "phi0", lambda e: _points_load(e["points"])),
        phi1=_pairs_load(payload, "phi1", _components_load),
        allow_equal_action={
            _name_pair(pair) for pair in _array(payload, "allow_equal_action")
        },
    )


def to_document(obj) -> Dict:
    if isinstance(obj, MorseBottSystem):
        kind, payload = "mbs", _mbs_payload(obj)
    elif isinstance(obj, AutonomousData):
        kind, payload = "autonomous", _autonomous_payload(obj)
    elif isinstance(obj, MorphismData):
        kind, payload = "morphism", _morphism_payload(obj)
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
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
    try:
        if kind == "mbs":
            return _mbs_load(payload)
        if kind == "autonomous":
            return _autonomous_load(payload)
        if kind == "morphism":
            return _morphism_load(payload)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed {kind} payload: {err}") from None
    raise InputError(f"unknown document kind {kind!r}")


def dumps(obj) -> str:
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"invalid JSON: {err}") from None
    return from_document(doc)
