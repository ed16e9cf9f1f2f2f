import copy
import json
import math
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeho import mbs, morphisms, serialize
from cascadeho.cascades import (
    SRC,
    TGT,
    CascadeGraph,
    build_ncc,
    by_action,
    chain_generators,
    sum_columns,
)
from cascadeho.errors import (
    InputError,
    NonDistinct,
    NonRegularValue,
    ValidationFailure,
)
from cascadeho.mbs import (
    BoundaryLabel,
    MorseBottSystem,
    Orbit,
    PLComponent,
    SignedPoint,
    Violation,
    assign_basepoints,
    circle_key,
    component_orientation,
    component_preimages,
    cyclically_ordered,
    point_str,
    scaled_actions,
    signed_preimages,
    transported_sign,
    validate_system,
)
from cascadeho.morphisms import MorphismData, trivial_cobordism, validate_morphism
from cascadeho.scenarios import all_mutations, fixture, fixture_names
from test_morphisms import _bench_lifts


F = Fraction

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=40
)


def _pt(x):
    """A rational as the library's integer pair (num, den)."""
    return x.numerator, x.denominator


def _rational_lift(comp, side):
    """``comp``'s stored ``side`` lift as (t, value) Fraction pairs."""
    return [(F(tn, td), F(vn, vd)) for tn, td, vn, vd in comp.lift(side)]


def ordered(p, a, b, eps_a=0, eps_b=0):
    """``cyclically_ordered`` on three rationals."""
    return cyclically_ordered(_pt(p), _pt(a), _pt(b), eps_a, eps_b)


# --- circle order -----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_cyclic_order_rotation_invariant(p, a, b, r):
    try:
        base = ordered(p, a, b)
    except NonDistinct:
        with pytest.raises(NonDistinct):
            ordered(p + r, a + r, b + r)
        return
    assert ordered(p + r, a + r, b + r) == base
    # swapping the two targets flips the answer
    assert ordered(p, b, a) != base


def test_cyclic_order_basic():
    assert ordered(F(0), F(1, 4), F(1, 2))
    assert not ordered(F(0), F(1, 2), F(1, 4))
    # wrap around the basepoint
    assert ordered(F(3, 4), F(7, 8), F(1, 8))
    p, q = F(1, 3), F(1, 2)
    # a point nudged off the basepoint sits just after (+1) or before (-1) it
    assert ordered(p, p, q, 1, 0)
    assert not ordered(p, p, q, -1, 0)
    assert ordered(p + 2, q, p, 0, -1)
    assert not ordered(p, p, p, -1, 1)
    # nudges order two copies of one nominal point
    assert ordered(p, q, q, -1, 0)
    assert ordered(p, q - 1, q, 0, 1)
    assert not ordered(p, q, q, 1, -1)
    # without distinct nudges coincident points stay an error
    for args in ((p, q, q, 1, 1), (p, p, q, 0, 0), (p, q, p + 1, 0, 0),
                 (p, p, p, 1, 1)):
        with pytest.raises(NonDistinct):
            ordered(*args)


def _mod1(x):
    return x - (x.numerator // x.denominator)


def _fraction_cyclically_ordered(p, a, b, eps_a=0, eps_b=0):
    """The Fraction cyclic-order test that the integer one replaced, kept as
    its oracle."""
    def key(x, eps):
        f = _mod1(x - p)
        if f == 0 and eps:
            return (F(1), -1) if eps < 0 else (F(0), 1)
        return (f, eps)

    ka, kb = key(a, eps_a), key(b, eps_b)
    if ka == kb or ka == (0, 0) or kb == (0, 0):
        raise NonDistinct(
            f"points not distinct: {_mod1(p)}, {_mod1(a)} (eps {eps_a}), "
            f"{_mod1(b)} (eps {eps_b})"
        )
    return ka < kb


# few classes mod 1 and integer shifts, so coincident points are common
_circle_points = st.builds(
    lambda x, n: x + n,
    st.one_of(st.sampled_from((F(0), F(1, 3), F(2, 3), F(1, 2), F(5, 7))),
              rationals),
    st.integers(-2, 2),
)
_nudges = st.sampled_from((-1, 0, 1))


@settings(max_examples=400, deadline=None)
@given(_circle_points, _circle_points, _circle_points, _nudges, _nudges)
def test_cyclic_order_matches_fraction_oracle(p, a, b, eps_a, eps_b):
    try:
        expected = _fraction_cyclically_ordered(p, a, b, eps_a, eps_b)
    except NonDistinct as err:
        with pytest.raises(NonDistinct) as got:
            ordered(p, a, b, eps_a, eps_b)
        assert str(got.value) == str(err)
        return
    assert ordered(p, a, b, eps_a, eps_b) is expected


@settings(max_examples=200, deadline=None)
@given(_circle_points, _circle_points)
def test_circle_arithmetic_matches_fraction_oracle(x, y):
    assert (circle_key(x) == circle_key(y)) == (_mod1(x) == _mod1(y))
    comp = PLComponent("circle", 1, ((F(0), x), (F(1), y)), ((F(0), x), (F(1), x + 1)))
    if (y - x).denominator == 1:
        assert comp.winding("plus") == y - x
    else:
        with pytest.raises(ValueError):
            comp.winding("plus")


def test_circle_keys_build_no_fractions(monkeypatch):
    # the basepoint-collision test, the cyclic order and the cascade walk,
    # of a system and of a cobordism, are decided in integers
    sys_ = MorseBottSystem(
        orbits={
            "a": Orbit("a", 1, 0, True, F(2), "", 0),
            "b": Orbit("b", 1, 0, True, F(1), "", 0),
        },
        basepoints={"a": F(1, 3), "b": F(1, 7)},
        m0={("a", "b"): [SignedPoint(F(4, 3), F(2, 5), 1)]},
    )
    systems = [fixture(name).payload for name in fixture_names()
               if fixture(name).kind == "mbs"]
    cobordism = trivial_cobordism(fixture("bad-circle").payload)
    orders = [tuple(map(_pt, args[:3])) + args[3:] for args in (
        (F(0), F(1, 4), F(1, 2), 0, 0), (F(3, 4), F(-1, 8), F(9, 8), 0, 0),
        (F(1, 3), F(1, 3), F(1, 2), 1, 0), (F(1, 3), F(4, 3), F(1, 2), -1, 0),
        (F(1, 2), F(1, 5), F(6, 5), -1, 1))]
    built = []
    original = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    for other in systems:
        validate_system(other)
    violations = validate_system(sys_)
    answers = [cyclically_ordered(*args) for args in orders]
    columns = []
    for other in systems:
        (table,) = mbs.orbit_tables(other)
        keys, _gens = chain_generators(other, table.action)
        columns += sum_columns(CascadeGraph.of_system(other, table.point), keys, [keys])
    src, tgt = mbs.orbit_tables(cobordism.source, cobordism.target)
    src_keys, _gens = chain_generators(cobordism.source, src.action, SRC)
    tgt_keys, _gens = chain_generators(cobordism.target, tgt.action, TGT)
    graph = CascadeGraph.of_cobordism(cobordism.source, cobordism.target,
                                      cobordism.phi0, cobordism.phi1, [src.point, tgt.point])
    columns += sum_columns(graph, tgt_keys, [tgt_keys])
    columns += sum_columns(graph, src_keys, [src_keys, tgt_keys])
    monkeypatch.undo()
    assert built == []
    assert [(v.code, v.location) for v in violations] == [("basepoint-collision", "a")]
    assert answers == [True, True, True, False, True]
    # the walks did count chains: every system has a nonzero differential,
    # and the trivial cobordism's map is the identity
    assert all(columns[:len(systems)])
    assert columns[-1] == {(i, i): 1 for i in range(len(tgt_keys))}


@pytest.mark.parametrize("basepoint, e_plus, breakpoint", [
    (F(1, 3), F(4, 3), F(1, 5)),    # an m0 evaluation one turn above
    (F(1, 3), F(2, 5), F(-2, 3)),   # a lift breakpoint one turn below
    (F(-2, 3), F(1, 3), F(1, 5)),   # a basepoint given off [0, 1)
])
def test_basepoint_collision_is_decided_mod_1(basepoint, e_plus, breakpoint):
    circle = PLComponent(
        "circle",
        1,
        ((F(0), F(1, 5)), (F(1, 2), breakpoint), (F(1), F(6, 5))),
        ((F(0), F(1, 9)), (F(1), F(10, 9))),
    )
    sys_ = MorseBottSystem(
        orbits={
            "a": Orbit("a", 1, 0, True, F(3), "", 2),
            "m": Orbit("m", 1, 1, True, F(2), "", 1),
            "b": Orbit("b", 1, 0, True, F(1), "", 2),
        },
        basepoints={"a": basepoint, "m": F(1, 2), "b": F(0)},
        m0={("a", "b"): [SignedPoint(e_plus, F(2, 7), 1)]},
        m1={("a", "m"): [circle]},
    )
    found = [(v.code, v.location) for v in validate_system(sys_)]
    assert ("basepoint-collision", "a") in found
    moved = assign_basepoints(sys_, seed=1)
    assert validate_system(moved) == []


def _on_breakpoints(sys_, seed):
    """``sys_`` with the basepoint of one top orbit moved onto an e+
    breakpoint of an m1 component below it, then that of one bottom orbit
    onto an e- breakpoint of one above it, both drawn by ``seed``."""
    rng = random.Random(seed)
    pairs = sorted(pair for pair, comps in sys_.m1.items() if comps)
    basepoints = dict(sys_.basepoints)
    for side, end in (("plus", 0), ("minus", 1)):
        pair = rng.choice(pairs)
        _tn, _td, vn, vd = rng.choice(rng.choice(sys_.m1[pair]).lift(side))
        basepoints[pair[end]] = F(vn, vd) % 1
    return replace(sys_, basepoints=basepoints)


def _validation_cases():
    """(name, validator, document): every Morse-Bott and morphism fixture
    and mutation, and the seed 1-3 lifts of both Morse-Bott workloads with
    their trivial cobordisms, as drawn and with basepoints on breakpoints."""
    def validator(doc):
        if isinstance(doc, MorseBottSystem):
            return validate_system
        return validate_morphism if isinstance(doc, MorphismData) else None

    docs = [(name, fixture(name).payload) for name in fixture_names()]
    docs += [(f"{m.fixture}/{m.cls}", m.payload) for m in all_mutations()]
    for workload in ("cobordism", "mbs-lift"):
        for seed in (1, 2, 3):
            for k, lift in enumerate(_bench_lifts(seed, workload)):
                systems = [("drawn", lift)]
                if any(lift.m1.values()):  # the prequantization lift has none
                    systems.append(("on-breakpoints", _on_breakpoints(lift, seed)))
                for label, sys_ in systems:
                    name = f"{workload}/{seed}/{k}/{label}"
                    docs += [(name, sys_), (f"{name}/trivial", trivial_cobordism(sys_))]
    return [(name, validator(doc), doc) for name, doc in docs if validator(doc)]


def test_moduli_scan_reads_each_component_side_once(monkeypatch):
    # validate_moduli is the one place where validation reads an evaluation
    # against a basepoint: each (component, side) whose orbit is known goes
    # through breakpoint_hit exactly once, whether or not its orbit is hit,
    # and so does the known end of a pair that names an unknown orbit
    cases = _validation_cases()
    cases += [(f"corrupted/{k}", validate_system, sys_)
              for sys_, _moved, k in _corruption_cases()]
    scans = []
    hit = mbs.breakpoint_hit

    def counted_hit(comp, side, q):
        scans.append((id(comp), side))
        return hit(comp, side, q)

    monkeypatch.setattr(mbs, "breakpoint_hit", counted_hit)
    for name, validate, doc in cases:
        if validate is not validate_system:
            continue
        scans.clear()
        validate(doc)
        expected = [(id(comp), side)
                    for (top, bottom), comps in sorted(doc.m1.items())
                    for comp in comps
                    for side, oid in (("plus", top), ("minus", bottom))
                    if oid in doc.orbits]
        assert sorted(scans) == sorted(expected), name
    # the cases do hit breakpoints: every moved system reports
    # basepoint-nonregular, and so does its cobordism
    monkeypatch.undo()
    for name, validate, doc in cases:
        if "on-breakpoints" in name:
            found = validate(doc)
            assert any(v.code == "basepoint-nonregular" for v in found), name


# --- the set-based genericity check, kept as an oracle ----------------------


def evaluation_values(sys_):
    """Per orbit, the ``circle_key`` of every point where a moduli evaluation
    lands on it: m0 evaluations and m1 lift breakpoints.  The set-based
    genericity check: a basepoint is generic iff its key avoids its orbit's
    set."""
    values = {oid: set() for oid in sys_.orbits}
    for (top, bottom), points in sys_.m0.items():
        for pt in points:
            if top in values:
                values[top].add(pt.e_plus_key)
            if bottom in values:
                values[bottom].add(pt.e_minus_key)
    for (top, bottom), comps in sys_.m1.items():
        for comp in comps:
            for side, oid in (("plus", top), ("minus", bottom)):
                if oid in values:
                    values[oid].update([(vn % vd, vd) for _tn, _td, vn, vd
                                        in comp.lift(side)])
    return values


def set_based_validate_system(sys_, table=None):
    """``validate_system`` with the set-based collision check: an orbit's
    basepoint collides iff its key is in the orbit's ``evaluation_values``
    set.  The moduli checks are ``validate_moduli``'s own, over ``table``."""
    v = []
    for oid, orbit in sys_.orbits.items():
        if not orbit.good and orbit.d % 2 != 0:
            v.append(Violation("bad-orbit-multiplicity", oid,
                               "bad orbit must have even multiplicity"))
        if orbit.grading is not None and sys_.grading_modulus != "parity" and (
                orbit.grading - orbit.parity) % 2 != 0:
            v.append(Violation("grading-parity", oid, "grading parity != CZ parity"))
    values = evaluation_values(sys_)
    for oid in sys_.orbits:
        p = sys_.basepoint(oid)
        if p in values[oid]:
            v.append(Violation("basepoint-collision", oid,
                               f"basepoint {point_str(p)} equals an evaluation value"))
    for oid in sorted(set(sys_.basepoints) - set(sys_.orbits)):
        v.append(Violation("unknown-orbit", f"basepoints[{oid}]",
                           f"basepoint for unknown orbit {oid!r}"))
    _moduli_scan(v, sys_, table)
    return v


def _moduli_scan(v, sys_, table=None):
    """``validate_moduli`` over the system's own tables and its
    ``OrbitTable`` ``table`` (made here when None): appends their
    violations to ``v`` and returns the orbits whose basepoint is hit."""
    table = table or mbs.orbit_tables(sys_)[0]
    return mbs.validate_moduli(
        v, sys_, sys_, (("m0", 0, sys_.m0), ("m1", 1, sys_.m1), ("m2cc", 2, sys_.m2cc)),
        (table, table), shift=0, modulus=sys_.grading_modulus, equal_action=(),
        end_check=partial(mbs._validate_interval_end, sys_, (table.point, table.point)),
    )


_COLLISIONS = ("m0-plus", "m0-minus", "circle-plus", "circle-minus",
               "interval-plus", "interval-minus")


def _collision_targets(sys_):
    """Per kind of ``_COLLISIONS``, the (orbit, evaluation value) pairs a
    basepoint can be moved onto: an m0 point's e+ or e- evaluation, or a
    breakpoint of a circle or interval lift on either side."""
    targets = {kind: [] for kind in _COLLISIONS}
    for (top, bottom), points in sorted(sys_.m0.items()):
        for pt in points:
            targets["m0-plus"].append((top, pt.e_plus))
            targets["m0-minus"].append((bottom, pt.e_minus))
    for (top, bottom), comps in sorted(sys_.m1.items()):
        for comp in comps:
            for side, oid in (("plus", top), ("minus", bottom)):
                for _tn, _td, vn, vd in comp.lift(side):
                    targets[f"{comp.kind}-{side}"].append((oid, F(vn, vd)))
    return {kind: [(oid, x) for oid, x in found if oid in sys_.orbits]
            for kind, found in targets.items()}


def _corrupt(sys_, rng):
    """``sys_`` with one basepoint moved onto an evaluation value of its
    orbit (a whole turn off it, sometimes), then up to two more edits: a
    further move, an orbit with no moduli, or a pair naming an unknown
    orbit whose pieces land on a known one.  Returns the system and the
    (kind, orbit) of the first move, or None if a later edit moved that
    basepoint again."""
    targets = _collision_targets(sys_)
    kinds = [kind for kind in _COLLISIONS if targets[kind]]
    basepoints, orbits = dict(sys_.basepoints), dict(sys_.orbits)
    m0, m1 = dict(sys_.m0), dict(sys_.m1)
    first = None
    for step in range(1 + rng.randrange(3)):
        edit = "move" if step == 0 else rng.choice(
            ("move", "lone-orbit", "unknown-top", "unknown-bottom"))
        if edit == "move":
            kind = rng.choice(kinds)
            oid, x = rng.choice(targets[kind])
            basepoints[oid] = x + rng.choice((0, 0, 1, -2))
            first = first or (kind, oid, basepoints[oid])
        elif edit == "lone-orbit":
            oid = f"lone{step}"
            orbits[oid] = Orbit(oid, 2, rng.randrange(2), rng.random() < 0.5,
                                F(rng.randrange(1, 40), 7), "", rng.randrange(4))
            basepoints[oid] = F(rng.randrange(9), 9)
        else:
            known = rng.choice(sorted(sys_.orbits))
            pair = (known, "ghost") if edit == "unknown-top" else ("ghost", known)
            side = "plus" if edit == "unknown-top" else "minus"
            comps = [c for cs in sys_.m1.values() for c in cs]
            if comps and rng.random() < 0.5:
                comp = rng.choice(comps)
                m1[pair] = [comp]
                _tn, _td, vn, vd = rng.choice(comp.lift(side))
                basepoints[known] = F(vn, vd) + rng.choice((0, 1))
            else:
                x = F(rng.randrange(1, 12), 13)
                m0[pair] = [SignedPoint(x, x, 1)]
                if rng.random() < 0.7:
                    basepoints[known] = x - 1
    kind, oid, x = first
    moved = (kind, oid) if basepoints[oid] is x else None
    return replace(sys_, orbits=orbits, basepoints=basepoints, m0=m0, m1=m1), moved


def _corruption_cases(count=240):
    """``count`` seeded corruptions of the Morse-Bott fixtures and mutations
    and of the seed 1-3 lifts of both Morse-Bott workloads."""
    bases = [fixture(name).payload for name in fixture_names()]
    bases += [m.payload for m in all_mutations()]
    for workload in ("cobordism", "mbs-lift"):
        for seed in (1, 2, 3):
            bases += _bench_lifts(seed, workload)
    bases = [b for b in bases if isinstance(b, MorseBottSystem)
             and any(_collision_targets(b).values())]
    rng = random.Random(2002)
    return [_corrupt(bases[k % len(bases)], rng) + (k,) for k in range(count)]


def test_genericity_pass_matches_the_set_based_check(monkeypatch):
    # validate_system decides basepoint genericity in validate_moduli's one
    # scan over the moduli; the set-based check gives the same violations
    # (code, location, message, order), alone and inside validate_morphism
    corrupted = _corruption_cases()
    cases = _validation_cases()
    start = len(cases)
    cases += [(f"corrupted/{k}", validate_system, sys_) for sys_, _moved, k in corrupted]
    cases += [(f"corrupted/{k}/trivial", validate_morphism, trivial_cobordism(sys_))
              for sys_, _first, k in corrupted[::8]]
    got = [validate(doc) for _name, validate, doc in cases]
    monkeypatch.setattr(morphisms, "validate_system", set_based_validate_system)
    for (name, validate, doc), found in zip(cases, got):
        oracle = set_based_validate_system if validate is validate_system else validate
        assert found == oracle(doc), name
        if isinstance(doc, MorseBottSystem):
            points = {oid: doc.basepoint(oid) for oid in doc.orbits}
            values = evaluation_values(doc)
            assert _moduli_scan([], doc) == {
                oid for oid, p in points.items() if p in values[oid]}, name
    # every kind of move lands: the moved orbit reports a collision
    reported = set()
    on_corrupted = got[start:start + len(corrupted)]
    for (sys_, moved, k), found in zip(corrupted, on_corrupted):
        if moved is not None:
            kind, oid = moved
            assert Violation("basepoint-collision", oid, "basepoint "
                             f"{point_str(sys_.basepoint(oid))} equals an "
                             "evaluation value") in found, k
            reported.add(kind)
    assert reported == set(_COLLISIONS)
    found = [v for violations in on_corrupted for v in violations]
    assert any(v.location.startswith("m0('ghost'") for v in found)
    assert any(v.location.startswith("m1(") and "'ghost')" in v.location for v in found)
    # a pair naming an unknown orbit is reported once, as unknown-orbit; its
    # known end's hits count only toward that orbit's basepoint-collision
    assert not any(v.code == "basepoint-nonregular" and "'ghost'" in v.location
                   for v in found)
    assert any(v.code == "basepoint-nonregular" for v in found)
    assert any(v.code == "grading-parity" and v.location.startswith("lone") for v in found)


def set_based_assign_basepoints(sys_, seed=None):
    """The basepoints ``assign_basepoints`` drew with the set-based check."""
    rng = random.Random(seed)
    new = dict(sys_.basepoints)
    values = evaluation_values(sys_)
    denominators = [257, 263, 269, 271, 277, 281, 283, 293]
    for k, oid in enumerate(sorted(sys_.orbits)):
        for attempt in range(64):
            if seed is None:
                q = denominators[(k + attempt) % len(denominators)]
                candidate = Fraction(0) if attempt == 0 else Fraction(1 + attempt, q)
            else:
                q = denominators[attempt % len(denominators)]
                candidate = Fraction(rng.randrange(q), q)
            if circle_key(candidate) not in values[oid]:
                new[oid] = candidate
                break
        else:
            raise NonRegularValue(f"could not find a generic basepoint for {oid}")
    return new


def _drawn_or_error(draw, sys_, seed):
    try:
        return draw(sys_, seed)
    except NonRegularValue as exc:
        return ("error", str(exc))


def test_basepoint_draws_match_the_set_based_check():
    systems = [(name, fixture(name).payload) for name in fixture_names()]
    systems += [(f"{m.fixture}/{m.cls}", m.payload) for m in all_mutations()]
    for workload in ("cobordism", "mbs-lift"):
        for seed in (1, 2, 3):
            systems += [(f"{workload}/{seed}/{k}", lift)
                        for k, lift in enumerate(_bench_lifts(seed, workload))]
    systems = [(name, s) for name, s in systems if isinstance(s, MorseBottSystem)]
    assert "one-circle/basepoint-collision" in dict(systems)
    # an orbit every candidate lands on, through m0 evaluations or lift
    # breakpoints: no draw is generic
    denominators = [257, 263, 269, 271, 277, 281, 283, 293]
    everywhere = [F(r, q) for q in denominators for r in range(q)]
    orbits = {oid: Orbit(oid, 1, 0, True, F(3 - k), "", 0)
              for k, oid in enumerate("abc")}
    systems.append(("all-m0-plus", MorseBottSystem(
        orbits, m0={("a", "b"): [SignedPoint(x, F(1, 2), 1) for x in everywhere]})))
    systems.append(("all-m0-minus", MorseBottSystem(
        orbits, m0={("c", "a"): [SignedPoint(F(1, 2), x, 1) for x in everywhere]})))
    lift = [(F(k, len(everywhere)), x) for k, x in enumerate(everywhere)]
    lift.append((F(1), F(1, 2)))
    short = ((F(0), F(1, 3)), (F(1), F(2, 3)))
    systems.append(("all-m1-plus", MorseBottSystem(orbits, m1={("a", "b"): [
        PLComponent("interval", 1, short, short), PLComponent("interval", 1, lift, short)]})))
    systems.append(("all-m1-minus", MorseBottSystem(orbits, m1={("c", "a"): [
        PLComponent("interval", 1, short, lift)]})))
    for name, sys_ in systems:
        for seed in (None, 1, 2, 3, 7, 11):
            expected = _drawn_or_error(set_based_assign_basepoints, sys_, seed)
            got = _drawn_or_error(lambda s, r: assign_basepoints(s, r).basepoints,
                                  sys_, seed)
            assert got == expected, (name, seed)
            if name.startswith("all-"):
                assert got == ("error", "could not find a generic basepoint for a")



def transport_sign(orbit: Orbit, raw_sign: int, windings: int) -> int:
    """Transport a sign around the orbit circle ``windings`` times.

    Good orbits have trivial orientation monodromy; bad orbits flip per loop.
    """
    if orbit.good or windings % 2 == 0:
        return raw_sign
    return -raw_sign


def test_transport_sign():
    good = Orbit("g", 1, 1, True, F(1))
    bad = Orbit("b", 2, 0, False, F(1))
    assert transport_sign(good, 1, 5) == 1
    assert transport_sign(bad, 1, 2) == 1
    assert transport_sign(bad, 1, 3) == -1


# --- dense-sampling oracle for signed preimages -----------------------------


def _dense_crossings(comp, side, q, top, bottom, samples=1024):
    """Sample the PL lift densely and record every unit-interval crossing.

    Independent of the closed-form floor arithmetic in the library: the
    crossing positions come from scanning, and the orientation at each
    crossing is recomputed by counting basepoint crossings of both
    evaluation maps along the way.  The frames hold the library's basepoint
    keys.
    """
    q %= 1

    def level(t):
        v = comp.value(side, t)
        d = v - q
        return d.numerator // d.denominator  # floor(v - q)

    def orientation(t):
        flips = 0
        for s, (orbit, basepoint) in (("plus", top), ("minus", bottom)):
            if orbit.good:
                continue
            basepoint = F(*basepoint)
            d0 = _rational_lift(comp, s)[0][1] - basepoint
            dt = comp.value(s, t) - basepoint
            flips += dt.numerator // dt.denominator - (
                d0.numerator // d0.denominator
            )
        return comp.sign_start * (-1) ** (flips % 2)

    out = []
    prev = level(F(0))
    for i in range(1, samples + 1):
        t = F(i, samples)
        cur = level(t)
        if cur != prev:
            assert abs(cur - prev) == 1, "sampling too coarse for this lift"
            direction = 1 if cur > prev else -1
            mid = F(2 * i - 1, 2 * samples)
            out.append((mid, direction, direction * orientation(mid)))
        prev = cur
    return out


def _mbs_components():
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind != "mbs":
            continue
        for pair, comps in sorted(sc.payload.m1.items()):
            for ci, comp in enumerate(comps):
                yield name, sc.payload, pair, ci, comp


@pytest.mark.parametrize(
    "name,sys_,pair,ci,comp",
    list(_mbs_components()),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_signed_preimages_against_dense_oracle(name, sys_, pair, ci, comp):
    rng = random.Random(hash((name, ci)) & 0xFFFF)
    top = (sys_.orbit(pair[0]), sys_.basepoint(pair[0]))
    bottom = (sys_.orbit(pair[1]), sys_.basepoint(pair[1]))
    for side in ("plus", "minus"):
        tried = 0
        while tried < 5:
            q = F(rng.randrange(1, 997), 997)
            try:
                got = signed_preimages(sys_, pair, comp, side, circle_key(q))
            except NonRegularValue:
                continue
            tried += 1
            oracle = _dense_crossings(comp, side, q, top, bottom)
            assert len(got) == len(oracle)
            for pre, (mid, direction, sign) in zip(got, oracle):
                # the sampled midpoint brackets the exact crossing
                assert abs(pre.t - mid) <= F(1, 1024)
                assert pre.direction == direction
                assert pre.sign == sign


# --- exact Fraction oracle for component_preimages ---------------------------


def _fraction_orientation(comp, t, top, bottom):
    """The component orientation at t, by Fraction arithmetic."""
    flips = 0
    for side, (orbit, basepoint) in (("plus", top), ("minus", bottom)):
        if orbit.good:
            continue
        v0 = _rational_lift(comp, side)[0][1] - basepoint
        v1 = comp.value(side, t) - basepoint
        flips += v1.numerator // v1.denominator - v0.numerator // v0.denominator
    return comp.sign_start * (-1) ** (flips % 2)


def _fraction_preimages(comp, side, q, top, bottom):
    """Preimages of q found by stepping through q + Z on Fractions, as
    (t, sign, direction, residual): the library's arithmetic before it moved
    to integers."""
    q %= 1
    other = "minus" if side == "plus" else "plus"
    pts = _rational_lift(comp, side)
    for t, v in pts:
        if v % 1 == q:
            raise NonRegularValue(
                f"value {q} hit at breakpoint t={t} of a {comp.kind}"
            )
    out = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            continue
        lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
        n = (lo - q).numerator // (lo - q).denominator + 1
        while q + n < hi:
            tc = t0 + (t1 - t0) * (q + n - v0) / (v1 - v0)
            direction = 1 if v1 > v0 else -1
            sign = direction * _fraction_orientation(comp, tc, top, bottom)
            out.append((tc, sign, direction, comp.value(other, tc) % 1))
            n += 1
    out.sort()
    return out


def _library_preimages(comp, side, q, top, bottom):
    """``component_preimages`` on rationals, each crossing read back as
    (t, sign, direction, residual)."""
    frames_ = [(orbit, circle_key(p)) for orbit, p in (top, bottom)]
    return [(pre.t, pre.sign, pre.direction, pre.residual)
            for pre in component_preimages(comp, side, circle_key(q), *frames_)]


@st.composite
def _lifts(draw):
    """A lift with 1-5 segments, each rising, falling or constant."""
    inner = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=30)
                          .filter(lambda t: 0 < t < 1), max_size=4, unique=True))
    ts = [F(0)] + sorted(inner) + [F(1)]
    values = [draw(rationals)]
    for _ in ts[1:]:
        kind = draw(st.sampled_from(("rise", "fall", "flat")))
        step = draw(st.fractions(min_value=F(1, 20), max_value=4, max_denominator=20))
        values.append(values[-1] + {"rise": step, "fall": -step, "flat": 0}[kind])
    return tuple(zip(ts, values))


_frames = st.tuples(st.booleans(), st.fractions(min_value=0, max_value=F(49, 50),
                                                max_denominator=50))


@settings(max_examples=200, deadline=None)
@given(_lifts(), _lifts(), st.sampled_from((1, -1)), _frames, _frames,
       st.sampled_from(("plus", "minus")), st.data())
def test_component_preimages_match_fraction_oracle(plus, minus, sign, top, bottom,
                                                   side, data):
    comp = PLComponent("interval", sign, plus, minus)
    frames_ = tuple((Orbit(oid, 2, 0, good, F(1)), p)
                    for oid, (good, p) in (("t", top), ("b", bottom)))
    # arbitrary points, the pinned basepoints, and the lift's own values
    q = data.draw(st.one_of(
        rationals,
        st.sampled_from((top[1], bottom[1])),
        st.sampled_from([v + 1 for _t, v in _rational_lift(comp, side)]),
    ))
    try:
        expected = _fraction_preimages(comp, side, q, *frames_)
    except NonRegularValue as err:
        with pytest.raises(NonRegularValue) as got:
            _library_preimages(comp, side, q, *frames_)
        assert str(got.value) == str(err)
        return
    assert _library_preimages(comp, side, q, *frames_) == expected


def test_fraction_oracle_covers_bad_frames_and_pinned_queries():
    # a lift that crosses both basepoints several times on bad orbits
    plus = ((F(0), F(-7, 5)), (F(1, 3), F(9, 4)), (F(2, 3), F(9, 4)), (F(1), F(-1, 7)))
    minus = ((F(0), F(1, 9)), (F(1, 2), F(-13, 6)), (F(1), F(16, 5)))
    comp = PLComponent("interval", -1, plus, minus)
    for good in (True, False):
        top = (Orbit("t", 2, 0, good, F(1)), F(2, 11))
        bottom = (Orbit("b", 2, 0, False, F(1)), F(5, 13))
        for side, (_orbit, p) in (("plus", top), ("minus", bottom)):
            got = _library_preimages(comp, side, p, top, bottom)
            assert got == _fraction_preimages(comp, side, p, top, bottom)
            assert len(got) >= 3 and {sign for _t, sign, _d, _r in got} == {1, -1}


def test_net_crossings_equal_winding_on_good_circles():
    sc = fixture("one-circle")
    sys_ = sc.payload
    comp = sys_.m1[("g", "b")][0]
    rng = random.Random(11)
    for side, winding in (("plus", 2), ("minus", 1)):
        for _ in range(20):
            q = F(rng.randrange(1, 499), 499)
            try:
                pres = signed_preimages(sys_, ("g", "b"), comp, side, circle_key(q))
            except NonRegularValue:
                continue
            assert sum(p.direction for p in pres) == winding
            # trivial local systems: sign == direction everywhere
            assert sum(p.sign for p in pres) == winding


def test_nonregular_value_raises():
    sc = fixture("one-interval")
    sys_ = sc.payload
    comp = sys_.m1[("gamma", "beta")][0]
    with pytest.raises(NonRegularValue):
        # e_minus is constant at 1/3
        signed_preimages(sys_, ("gamma", "beta"), comp, "minus", (1, 3))
    with pytest.raises(NonRegularValue):
        # breakpoint value of the e_plus lift
        signed_preimages(sys_, ("gamma", "beta"), comp, "plus", (1, 7))


def test_orientation_transport_over_bad_orbit():
    sc = fixture("bad-circle")
    sys_ = sc.payload
    comp = sys_.m1[("B", "b")][0]
    top = (sys_.orbit("B"), sys_.basepoint("B"))
    bottom = (sys_.orbit("b"), sys_.basepoint("b"))
    # e_plus passes the basepoint lattice twice along the circle: the
    # orientation flips in between and returns
    assert component_orientation(comp, F(0), top, bottom) == 1
    assert component_orientation(comp, F(1, 2), top, bottom) == -1
    assert component_orientation(comp, F(1), top, bottom) == 1


def _brute_transported_sign(comp, top, bottom, plus, minus):
    """sign_start flipped once for every point of basepoint + Z that a bad
    orbit's lift passes between its start and the given value, found by
    stepping through the integers on Fractions."""
    sign = comp.sign_start
    for (orbit, basepoint), value, side in ((top, plus, "plus"),
                                            (bottom, minus, "minus")):
        if orbit.good:
            continue
        lo, hi = sorted((_rational_lift(comp, side)[0][1], value))
        k = math.floor(lo) - 2
        while basepoint + k <= hi:
            if lo < basepoint + k:
                sign = -sign
            k += 1
    return sign


@settings(max_examples=150, deadline=None)
@given(_lifts(), _lifts(), st.sampled_from((1, -1)), _frames, _frames,
       rationals, rationals,
       st.fractions(min_value=0, max_value=1, max_denominator=60))
def test_transported_sign_matches_brute_force(plus_lift, minus_lift, sign, top,
                                              bottom, plus, minus, t):
    # the one sign-transport rule, for the preimage query (any values) and
    # for the label validator (the values at a parameter t)
    comp = PLComponent("interval", sign, plus_lift, minus_lift)
    frames_ = [(Orbit(oid, 2, 0, good, F(1)), p)
               for oid, (good, p) in (("t", top), ("b", bottom))]
    keys = [(orbit, circle_key(p)) for orbit, p in frames_]
    assert transported_sign(comp, *keys, _pt(plus), _pt(minus)) == (
        _brute_transported_sign(comp, *frames_, plus, minus))
    assert component_orientation(comp, t, *keys) == _brute_transported_sign(
        comp, *frames_, comp.value("plus", t), comp.value("minus", t))


def _lowest_terms(lift):
    return tuple((t.numerator, t.denominator, v.numerator, v.denominator)
                 for t, v in lift)


def _one_component_system(comp):
    return MorseBottSystem(
        orbits={"a": Orbit("a", 1, 0, True, F(2), "", 1),
                "b": Orbit("b", 1, 0, True, F(1), "", 0)},
        m1={("a", "b"): [comp]},
    )


@settings(max_examples=60, deadline=None)
@given(_lifts(), _lifts(), rationals, rationals)
def test_integer_views_agree_with_fractions(plus, minus, e_plus, e_minus):
    # a lift is stored once, as the lowest-terms integers of the rational
    # pairs it was given, and every copy and round trip keeps that form
    comp = PLComponent("interval", 1, plus, minus)
    assert set(vars(comp)) == {f.name for f in fields(PLComponent)}
    loaded = serialize.loads(serialize.dumps(_one_component_system(comp)))
    label = BoundaryLabel("m", 0, 0, 0, F(1, 2))
    for record in (comp, copy.deepcopy(comp),
                   replace(comp, boundary_labels={0: label}),
                   loaded.m1[("a", "b")][0]):
        assert record.e_plus_lift == record.lift("plus") == _lowest_terms(plus)
        assert record.e_minus_lift == record.lift("minus") == _lowest_terms(minus)
    point = SignedPoint(e_plus, e_minus, 1)
    for record in (point, copy.deepcopy(point)):
        assert F(*record.e_plus_key) == _mod1(e_plus)
        assert F(*record.e_minus_key) == _mod1(e_minus)
        assert record.e_plus_key == circle_key(e_plus)


def test_lift_strings_load_as_lowest_terms_integers():
    doc = json.loads(serialize.dumps(_one_component_system(
        PLComponent("interval", 1, ((F(0), F(0)), (F(1), F(1))),
                    ((F(0), F(0)), (F(1), F(1)))))))
    lift = [["-0/5", "2/4"], ["2/4", "+3"], ["+1", "-6/4"]]
    doc["payload"]["m1"][0]["components"][0]["e_plus_lift"] = lift
    loaded = serialize.loads(json.dumps(doc))
    comp = loaded.m1[("a", "b")][0]
    assert comp.e_plus_lift == ((0, 1, 1, 2), (1, 2, 3, 1), (1, 1, -3, 2))
    again = json.loads(serialize.dumps(loaded))
    assert again["payload"]["m1"][0]["components"][0]["e_plus_lift"] == [
        ["0", "1/2"], ["1/2", "3"], ["1", "-3/2"]]
    # integer breakpoints must already be in lowest terms, over positive
    # denominators
    minus = ((0, 1, 0, 1), (1, 1, 1, 1))
    for start in ((0, 2, 0, 1), (0, 1, 2, 4), (0, 1, 1, -2), (0, 1, -1, -2),
                  (0, 0, 0, 1), (0, 1, 0, 0)):
        with pytest.raises(ValueError, match="lowest terms"):
            PLComponent("interval", 1, (start, (1, 1, 1, 1)), minus)


def test_breakpoints_are_stored_as_tuples():
    plus = [[0, 1, -1, 3], [1, 2, 5, 4], [1, 1, 2, 1]]
    minus = [[0, 1, 0, 1], [1, 1, 7, 2]]
    as_tuples = [tuple(map(tuple, lift)) for lift in (plus, minus)]
    as_pairs = [[(F(tn, td), F(vn, vd)) for tn, td, vn, vd in lift]
                for lift in (plus, minus)]
    built = [PLComponent("circle", -1, *lifts)
             for lifts in ((plus, minus), as_tuples, as_pairs)]
    for comp in built:
        for side, given in zip(("plus", "minus"), as_tuples):
            lift = comp.lift(side)
            assert type(lift) is tuple and all(type(p) is tuple for p in lift)
            assert lift == given and hash(lift) == hash(given)
        assert comp == built[0]
    # a breakpoint given as a 4-tuple is kept, not copied
    assert all(a is b for a, b in zip(built[1].e_plus_lift, as_tuples[0]))
    for unreduced in ((0, 2, -1, 3), [0, 2, -1, 3]):
        with pytest.raises(ValueError) as err:
            PLComponent("circle", 1, (unreduced,) + as_tuples[0][1:], minus)
        assert str(err.value) == (f"breakpoint {unreduced!r} is not in lowest "
                                  "terms with positive denominators")


def _fraction_value(comp, side, t):
    """The ``side`` lift of ``comp`` at t, interpolated on Fractions."""
    pts = _rational_lift(comp, side)
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError(t)


# each queried lift crosses q = 1/2 at t = 1/8, 3/8, 5/8 and 7/8, rising,
# falling or both; the other lift rises and falls between breakpoints at
# 1/2, 5/8 and 3/4, so one query reads two crossings in its first segment,
# one on the t of an interior breakpoint and one in a later segment
_RISING = ((F(0), F(0)), (F(1), F(4)))
_FALLING = ((F(0), F(4)), (F(1), F(0)))
_UP_AND_DOWN = ((F(0), F(0)), (F(1, 2), F(2)), (F(1), F(0)))
_ZIGZAG = ((F(0), F(1, 5)), (F(1, 2), F(3, 2)), (F(5, 8), F(1, 3)),
           (F(3, 4), F(2)), (F(1), F(-1)))


@pytest.mark.parametrize("queried", (_RISING, _FALLING, _UP_AND_DOWN),
                         ids=("rising", "falling", "up-and-down"))
@pytest.mark.parametrize("side", ("plus", "minus"))
@pytest.mark.parametrize("good", (True, False), ids=("good", "bad"))
def test_crossings_across_segments_of_the_other_lift(queried, side, good):
    lifts = (queried, _ZIGZAG) if side == "plus" else (_ZIGZAG, queried)
    comp = PLComponent("interval", -1, *lifts)
    frames_ = (Orbit("t", 2, 0, good, F(1)), F(2, 11)), (
        Orbit("b", 2, 0, False, F(1)), F(5, 13))
    other = "minus" if side == "plus" else "plus"
    got = _library_preimages(comp, side, F(1, 2), *frames_)
    assert got == _fraction_preimages(comp, side, F(1, 2), *frames_)
    assert [t for t, *_rest in got] == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
    for t, _sign, _direction, residual in got:
        assert residual == _fraction_value(comp, other, t) % 1


# segments whose ends share a denominator: a lift shaped like the
# benchmark generator's (x = p + 1/3 running to x + 2 over one segment, so
# a query at p crosses twice), one whose values share a denominator on
# segments whose ts do not, and one whose ts share a denominator on
# segments whose values do not; the last two also mix in segments with
# both or neither shared
_P, _R = F(17, 1009), F(400, 1009)
_GENERATOR_PLUS = ((F(0), _P + F(1, 3)), (F(1), _P + F(7, 3)))
_GENERATOR_MINUS = ((F(0), _R + F(1, 3) + F(1, 10007)),
                    (F(1), _R + F(7, 3) + F(1, 10007)))
_SHARED_VALUE_DEN = ((F(0), F(1, 5)), (F(1, 3), F(11, 5)), (F(3, 7), F(-4, 5)),
                     (F(5, 7), F(6, 5)), (F(1), F(3, 7)))
_SHARED_T_DEN = ((F(0), F(0)), (F(1, 5), F(1, 3)), (F(3, 5), F(5, 2)),
                 (F(4, 5), F(-1, 4)), (F(1), F(3, 4)))


def _segment_dens(lift):
    """Per segment, whether its ts and its values share a denominator."""
    return {(t0.denominator == t1.denominator, v0.denominator == v1.denominator)
            for (t0, v0), (t1, v1) in zip(lift, lift[1:])}


@pytest.mark.parametrize("lifts, q", (
    ((_GENERATOR_PLUS, _GENERATOR_MINUS), {"plus": _P, "minus": _R}),
    ((_SHARED_VALUE_DEN, _SHARED_T_DEN), {"plus": F(1, 2), "minus": F(2, 9)}),
    ((_SHARED_T_DEN, _SHARED_VALUE_DEN), {"plus": F(2, 9), "minus": F(5, 8)}),
), ids=("generator", "value-den-shared", "t-den-shared"))
@pytest.mark.parametrize("side", ("plus", "minus"))
@pytest.mark.parametrize("good", (True, False), ids=("good", "bad"))
def test_crossings_on_segments_with_shared_denominators(lifts, q, side, good):
    assert _segment_dens(_GENERATOR_PLUS) == {(True, True)}
    assert {(False, True), (True, True)} <= _segment_dens(_SHARED_VALUE_DEN)
    assert {(True, False), (False, False)} <= _segment_dens(_SHARED_T_DEN)
    comp = PLComponent("interval", -1, *lifts)
    frames_ = (Orbit("t", 2, 0, good, F(1)), q["plus"]), (
        Orbit("b", 2, 0, False, F(1)), q["minus"])
    other = "minus" if side == "plus" else "plus"
    got = _library_preimages(comp, side, q[side], *frames_)
    assert got == _fraction_preimages(comp, side, q[side], *frames_)
    assert len(got) >= 2
    if lifts[0] is _GENERATOR_PLUS:
        assert [direction for _t, _sign, direction, _r in got] == [1, 1]
    for t, sign, direction, residual in got:
        # the orientation and the other value, interpolated on Fractions
        flips = 0
        for s, (orbit, basepoint) in zip(("plus", "minus"), frames_):
            if not orbit.good:
                start = _rational_lift(comp, s)[0][1] - basepoint
                now = _fraction_value(comp, s, t) - basepoint
                flips += math.floor(now) - math.floor(start)
        assert sign == direction * comp.sign_start * (-1) ** (flips % 2)
        assert residual == _fraction_value(comp, other, t) % 1
    # t = tn / td need not be in lowest terms: Preimage.t reads it
    top, bottom = [(orbit, circle_key(p)) for orbit, p in frames_]
    for pre in component_preimages(comp, side, circle_key(q[side]), top, bottom):
        assert pre.td > 0 and pre.t == F(pre.tn, pre.td)
        assert pre.point == mbs.point_key(*pre.point)


def _two_pass_lift(lift, side):
    """One side of the ``PLComponent`` check in two passes, as an oracle:
    convert or check every breakpoint, then walk the segments.  Returns the
    ``IntLift`` or raises the constructor's ValueError."""
    pts = []
    for point in lift:
        if len(point) == 2:
            t, v = point
            pts.append((t.numerator, t.denominator, v.numerator, v.denominator))
            continue
        tn, td, vn, vd = point
        if td < 1 or vd < 1 or math.gcd(tn, td) != 1 or math.gcd(vn, vd) != 1:
            raise ValueError(f"breakpoint {point!r} is not in lowest terms "
                             "with positive denominators")
        pts.append((tn, td, vn, vd))
    if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != pts[-1][1]:
        raise ValueError("lift must run from t=0 to t=1")
    bound = 0
    for (t0n, t0d, v0n, v0d), (t1n, t1d, v1n, v1d) in zip(pts, pts[1:]):
        if t1n * t0d <= t0n * t1d:
            raise ValueError("lift parameters must strictly increase")
        bound += abs(v1n // v1d - v0n // v0d) + 1
    if bound > mbs.MAX_LIFT_CROSSINGS:
        raise ValueError(f"e_{side} lift may cross a point {bound} times, "
                         f"more than {mbs.MAX_LIFT_CROSSINGS}")
    return tuple(pts)


def _stored_or_error(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


@st.composite
def _raw_lifts(draw):
    """Breakpoints as rational pairs or integer 4-tuples: mostly a lift from
    t=0 to t=1, some with a repeated or out-of-order t, wrong ends, or one
    breakpoint unreduced or over a zero or negative denominator."""
    ts = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                       max_size=4))
    if draw(st.integers(0, 4)):
        ts = [F(0)] + sorted(t for t in ts if 0 < t < 1) + [F(1)]
    if len(ts) > 2 and not draw(st.integers(0, 4)):
        ts[1], ts[2] = ts[2], ts[1]
    out = []
    for t in ts:
        v = draw(rationals)
        out.append((t, v) if draw(st.booleans()) else
                   (t.numerator, t.denominator, v.numerator, v.denominator))
    flaw = draw(st.sampled_from((None, None, None, "unreduced", "bad denominator")))
    if flaw and out:
        k = draw(st.integers(0, len(out) - 1))
        t, v = out[k] if len(out[k]) == 2 else (F(*out[k][:2]), F(*out[k][2:]))
        point = [t.numerator, t.denominator, v.numerator, v.denominator]
        if flaw == "unreduced":
            at, by = draw(st.sampled_from((0, 2))), draw(st.integers(2, 3))
            point[at:at + 2] = [x * by for x in point[at:at + 2]]
        else:
            point[draw(st.sampled_from((1, 3)))] *= draw(st.sampled_from((0, -1)))
        out[k] = tuple(point)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(_raw_lifts(), _raw_lifts(), st.sampled_from((None, 1, 2, 3, 5, 8)))
def test_one_pass_constructor_matches_the_two_pass_check(plus, minus, bound):
    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(mbs, "MAX_LIFT_CROSSINGS", bound)
        expected = _stored_or_error(
            lambda: (_two_pass_lift(plus, "plus"), _two_pass_lift(minus, "minus")))
        got = _stored_or_error(lambda: (
            lambda c: (c.e_plus_lift, c.e_minus_lift)
        )(PLComponent("interval", 1, plus, minus)))
    assert got == expected


_GOOD_LIFT = [["0", "1/3"], ["1", "7/3"]]
_SHAPE = "lift {} is not an array of [t, value] arrays"
_ENDS = "lift must run from t=0 to t=1"
_INCREASE = "lift parameters must strictly increase"

# each malformed component as (kind, sign_start, e_plus_lift, e_minus_lift)
# in its JSON form, and the first error it reports; a shape error names the
# lift as it was given to each path.  A component with one fault, or with a
# bad kind or sign and a lift that breaks a rule, reports alike through
# both; the loader reads both lifts' shape before the kind, so a bad kind
# with a lift of the wrong shape is left out
MALFORMED_COMPONENTS = {
    "lift-not-an-array": (("circle", 1, "no", _GOOD_LIFT), _SHAPE),
    "point-not-a-pair": (("circle", 1, _GOOD_LIFT, [["0", "0"], ["1"]]), _SHAPE),
    "point-of-three": (("circle", 1, [["0", "0", "0"], ["1", "1"]], _GOOD_LIFT),
                       _SHAPE),
    "no-t-0": (("circle", 1, [["1/2", "0"], ["1", "1"]], _GOOD_LIFT), _ENDS),
    "no-t-1": (("circle", 1, _GOOD_LIFT, [["0", "0"], ["1/2", "1"]]), _ENDS),
    "t-decreases": (("circle", 1, [["0", "0"], ["1/2", "1"], ["1/3", "2"],
                                   ["1", "3"]], _GOOD_LIFT), _INCREASE),
    "t-repeats": (("interval", 1, _GOOD_LIFT, [["0", "0"], ["1/2", "1"],
                                               ["2/4", "2"], ["1", "3"]]),
                  _INCREASE),
    "plus-bound": (("circle", 1, [["0", "0"], ["1", "100000"]], _GOOD_LIFT),
                   "e_plus lift may cross a point 100001 times, more than 100000"),
    "minus-bound": (("circle", 1, _GOOD_LIFT, [["0", "1/2"], ["1/2", "-99999"],
                                               ["1", "1/2"]]),
                    "e_minus lift may cross a point 200000 times, more than 100000"),
    "bad-kind": (("torus", 1, _GOOD_LIFT, _GOOD_LIFT), "bad component kind 'torus'"),
    "bad-sign": (("interval", 2, _GOOD_LIFT, _GOOD_LIFT), "sign_start must be +-1"),
    "bad-kind-and-lift": (("torus", 1, [["0", "0"], ["1/2", "1"], ["1/3", "2"],
                                        ["1", "3"]], _GOOD_LIFT),
                          "bad component kind 'torus'"),
    "bad-sign-and-lift": (("circle", 0, _GOOD_LIFT, [["1/2", "0"], ["1", "1"]]),
                          "sign_start must be +-1"),
    "plus-rules-first": (("circle", 1, [["0", "0"], ["1/2", "1"]],
                          [["0", "0"], ["1", "100000"]]), _ENDS),
}


def _constructor_lift(lift):
    """A JSON lift as the constructor takes it: each array of rational
    strings a tuple of Fractions; anything else as it is."""
    if type(lift) is not list:
        return lift
    return [tuple(F(x) for x in point) for point in lift]


@pytest.mark.parametrize("case", list(MALFORMED_COMPONENTS))
def test_loader_and_constructor_report_the_same_component_error(case):
    (kind, sign, plus, minus), message = MALFORMED_COMPONENTS[case]
    doc = json.loads(serialize.dumps(_one_component_system(
        PLComponent("circle", 1, *[_constructor_lift(_GOOD_LIFT)] * 2))))
    doc["payload"]["m1"][0]["components"][0] = {
        "kind": kind, "sign_start": sign, "e_plus_lift": plus, "e_minus_lift": minus}
    bad = next((lift for lift in (plus, minus) if lift is not _GOOD_LIFT), None)
    with pytest.raises(InputError) as loaded:
        serialize.loads(json.dumps(doc))
    with pytest.raises(ValueError) as built:
        PLComponent(kind, sign, _constructor_lift(plus), _constructor_lift(minus))
    assert str(loaded.value) == "malformed mbs payload: " + message.format(repr(bad))
    assert str(built.value) == message.format(repr(_constructor_lift(bad)))


def test_loads_checks_each_lift_once(monkeypatch):
    # the loader's breakpoints come from its rational reader in lowest
    # terms, so each lift goes through check_lift once and through the
    # constructor's conversion not at all
    doc = serialize.dumps(trivial_cobordism(fixture("bad-circle").payload))
    checked, converted = [], []
    check, convert = mbs.check_lift, mbs._int_lift
    monkeypatch.setattr(mbs, "check_lift",
                        lambda side, pts: checked.append(pts) or check(side, pts))
    monkeypatch.setattr(mbs, "_int_lift",
                        lambda lift: converted.append(lift) or convert(lift))
    loaded = serialize.loads(doc)
    monkeypatch.undo()
    lifts = [lift for moduli in (loaded.source.m1, loaded.target.m1, loaded.phi1)
             for comps in moduli.values() for c in comps
             for lift in (c.e_plus_lift, c.e_minus_lift)]
    assert lifts and converted == []
    assert len(checked) == len(lifts)
    assert all(a is b for a, b in zip(checked, lifts))


def test_loads_builds_no_fraction_for_a_lift(monkeypatch):
    # lift strings are read straight into integers; the document's other
    # rationals (actions, basepoints, m0 points, label parameters) are
    # still Fractions
    texts = [serialize.dumps(fixture(name).payload) for name in fixture_names()
             if fixture(name).kind != "autonomous"]
    texts.append(serialize.dumps(trivial_cobordism(fixture("bad-circle").payload)))
    lift_readers = {serialize._lift_load.__code__,
                    PLComponent.__post_init__.__code__}
    in_lifts, elsewhere = [], []
    original = F.__new__

    def counting(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in lift_readers:
            frame = frame.f_back
        (elsewhere if frame is None else in_lifts).append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    loaded = [serialize.loads(text) for text in texts]
    monkeypatch.undo()
    assert in_lifts == [] and elsewhere
    assert [serialize.dumps(obj) for obj in loaded] == texts


# few actions, so ties are common, and large coprime denominators
_actions = st.one_of(
    st.sampled_from((F(0), F(-3, 2), F(5, 7), F(1, 1000003))),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(F, st.integers(-10**15, 10**15),
              st.sampled_from((1000003, 999983, 2**61 - 1, 10**9 + 7))),
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text("abxyz", min_size=1, max_size=3), _actions,
                       max_size=12))
def test_integer_action_order_matches_fractions(actions):
    orbits = {oid: Orbit(oid, 1, 0, True, action) for oid, action in actions.items()}
    expected = sorted(orbits.values(), key=lambda o: (-o.action, o.oid))
    (scaled,) = scaled_actions(orbits)
    assert by_action(orbits, scaled) == expected
    for a in orbits.values():
        for b in orbits.values():
            assert (scaled[a.oid] < scaled[b.oid]) == (a.action < b.action)


# --- validator --------------------------------------------------------------


def test_fixtures_validate_clean():
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind == "mbs":
            assert validate_system(sc.payload) == [], name


def test_validator_flags_bad_multiplicity():
    sys_ = MorseBottSystem(
        orbits={"X": Orbit("X", 3, 0, False, F(1), "", 0)}
    )
    codes = {v.code for v in validate_system(sys_)}
    assert "bad-orbit-multiplicity" in codes


def test_validator_flags_basepoint_for_unknown_orbit():
    # a misspelt orbit id would leave the intended orbit at basepoint 0
    sys_ = MorseBottSystem(
        orbits={"a": Orbit("a", 1, 0, True, F(2), "", 0)},
        basepoints={"a": F(1, 5), "nosuch": F(1, 3)},
    )
    assert [(v.code, v.location, v.message) for v in validate_system(sys_)] == [
        ("unknown-orbit", "basepoints[nosuch]",
         "basepoint for unknown orbit 'nosuch'")
    ]
    with pytest.raises(ValidationFailure):
        build_ncc(sys_)


def test_validator_flags_unknown_orbit_in_pair():
    sys_ = MorseBottSystem(
        orbits={"a": Orbit("a", 1, 0, True, F(2), "", 0)},
        m0={("a", "ghost"): [SignedPoint(F(1, 5), F(2, 5), 1)]},
    )
    codes = {v.code for v in validate_system(sys_)}
    assert "unknown-orbit" in codes


def test_validator_flags_unlabeled_interval():
    interval = PLComponent(
        "interval",
        1,
        ((F(0), F(1, 5)), (F(1), F(2, 5))),
        ((F(0), F(1, 3)), (F(1), F(2, 3))),
    )
    sys_ = MorseBottSystem(
        orbits={
            "a": Orbit("a", 1, 1, True, F(2), "", 1),
            "b": Orbit("b", 1, 0, True, F(1), "", 0),
        },
        m1={("a", "b"): [interval]},
    )
    codes = {v.code for v in validate_system(sys_)}
    assert "unlabeled-end" in codes


def test_validator_flags_open_circle():
    circle = PLComponent(
        "circle",
        1,
        ((F(0), F(1, 5)), (F(1), F(2, 5))),  # closes up to 1/5, not integer
        ((F(0), F(1, 3)), (F(1), F(4, 3))),
    )
    sys_ = MorseBottSystem(
        orbits={
            "a": Orbit("a", 1, 1, True, F(2), "", 1),
            "b": Orbit("b", 1, 0, True, F(1), "", 0),
        },
        m1={("a", "b"): [circle]},
    )
    codes = {v.code for v in validate_system(sys_)}
    assert "circle-not-closed" in codes


@pytest.mark.parametrize("table", ["m0", "m1", "m2cc"])
def test_validator_flags_class_change(table):
    # every moduli piece must join orbits of one homotopy class; build_ncc
    # rejects the system before it counts a cross-class chain
    circle = PLComponent(
        "circle",
        1,
        ((F(0), F(1, 5)), (F(1), F(6, 5))),
        ((F(0), F(1, 3)), (F(1), F(4, 3))),
    )
    dim = {"m0": 0, "m1": 1, "m2cc": 2}[table]
    pieces = {"m0": [SignedPoint(F(1, 5), F(2, 5), 1)], "m1": [circle], "m2cc": 1}
    sys_ = MorseBottSystem(
        orbits={
            "a": Orbit("a", 1, dim % 2, True, F(2), "x", dim),
            "b": Orbit("b", 1, 0, True, F(1), "y", 0),
        },
        **{table: {("a", "b"): pieces[table]}},
    )
    found = [(v.code, v.location) for v in validate_system(sys_)]
    assert found == [("class-axiom", f"{table}('a', 'b')")]
    with pytest.raises(ValidationFailure):
        build_ncc(sys_)


def test_assign_basepoints_is_generic_and_seeded():
    sys_ = fixture("one-interval").payload
    a = assign_basepoints(sys_, seed=5)
    b = assign_basepoints(sys_, seed=5)
    assert a.basepoints == b.basepoints
    assert validate_system(a) == []
    c = assign_basepoints(sys_, seed=6)
    assert validate_system(c) == []
