import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeho.cascades import build_ncc
from cascadeho.errors import NonDistinct, NonRegularValue, ValidationFailure
from cascadeho.mbs import (
    MorseBottSystem,
    Orbit,
    PLComponent,
    SignedPoint,
    assign_basepoints,
    component_orientation,
    cyclically_ordered,
    frac_mod1,
    signed_preimages,
    transport_sign,
    validate_system,
)
from cascadeho.scenarios import fixture, fixture_names


F = Fraction

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=40
)


# --- circle order -----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_cyclic_order_rotation_invariant(p, a, b, r):
    try:
        base = cyclically_ordered(p, a, b)
    except NonDistinct:
        with pytest.raises(NonDistinct):
            cyclically_ordered(p + r, a + r, b + r)
        return
    assert cyclically_ordered(p + r, a + r, b + r) == base
    # swapping the two targets flips the answer
    assert cyclically_ordered(p, b, a) != base


def test_cyclic_order_basic():
    assert cyclically_ordered(F(0), F(1, 4), F(1, 2))
    assert not cyclically_ordered(F(0), F(1, 2), F(1, 4))
    # wrap around the basepoint
    assert cyclically_ordered(F(3, 4), F(7, 8), F(1, 8))
    p, q = F(1, 3), F(1, 2)
    # a point nudged off the basepoint sits just after (+1) or before (-1) it
    assert cyclically_ordered(p, p, q, 1, 0)
    assert not cyclically_ordered(p, p, q, -1, 0)
    assert cyclically_ordered(p + 2, q, p, 0, -1)
    assert not cyclically_ordered(p, p, p, -1, 1)
    # nudges order two copies of one nominal point
    assert cyclically_ordered(p, q, q, -1, 0)
    assert cyclically_ordered(p, q - 1, q, 0, 1)
    assert not cyclically_ordered(p, q, q, 1, -1)
    # without distinct nudges coincident points stay an error
    for args in ((p, q, q, 1, 1), (p, p, q, 0, 0), (p, q, p + 1, 0, 0),
                 (p, p, p, 1, 1)):
        with pytest.raises(NonDistinct):
            cyclically_ordered(*args)


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
    evaluation maps along the way.
    """
    q = frac_mod1(q)

    def level(t):
        v = comp.value(side, t)
        d = v - q
        return d.numerator // d.denominator  # floor(v - q)

    def orientation(t):
        flips = 0
        for s, (orbit, basepoint) in (("plus", top), ("minus", bottom)):
            if orbit.good:
                continue
            d0 = comp.lift(s)[0][1] - basepoint
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
                got = signed_preimages(sys_, pair, comp, side, q)
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


def test_net_crossings_equal_winding_on_good_circles():
    sc = fixture("one-circle")
    sys_ = sc.payload
    comp = sys_.m1[("g", "b")][0]
    rng = random.Random(11)
    for side, winding in (("plus", 2), ("minus", 1)):
        for _ in range(20):
            q = F(rng.randrange(1, 499), 499)
            try:
                pres = signed_preimages(sys_, ("g", "b"), comp, side, q)
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
        signed_preimages(sys_, ("gamma", "beta"), comp, "minus", F(1, 3))
    with pytest.raises(NonRegularValue):
        # breakpoint value of the e_plus lift
        signed_preimages(sys_, ("gamma", "beta"), comp, "plus", F(1, 7))


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
    # keeps only same-class entries, so a cross-class piece would vanish
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
