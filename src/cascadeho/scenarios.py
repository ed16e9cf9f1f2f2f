"""Builders for worked examples, the fixture corpus, and mutation corpus.

``prequantization`` and ``period_doubling`` build autonomous data with known
homology; ``fixture`` returns hand-checked deterministic objects of all three
kinds; ``mutations`` returns deliberately corrupted variants together with
the violation each one must trigger.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List

from .autonomous import AutonomousData, CylinderRecord
from .errors import InputError, UnknownFixture
from .mbs import BoundaryLabel, MorseBottSystem, Orbit, PLComponent, SignedPoint
from .morphisms import MorphismData, PhiLabel, trivial_cobordism
from .serialize import kind_of


def _f(a, b=1):
    return Fraction(a, b)


def prequantization(g: int, e: int, d: int) -> AutonomousData:
    """Orbit data of a prequantization fibration over a genus-g surface.

    A perfect Morse function on the base contributes one maximum p, 2g
    saddles q_i and one minimum r; in the class of d-fold covered fibers all
    orbits are good with multiplicity d.  The Morse differential vanishes, so
    the only nonzero coefficient is the Euler-number block check p -> hat r
    with value d*e.
    """
    if g < 1 or e < 1 or d < 1:
        raise InputError("prequantization parameters must be positive")
    cls = f"{d}G"
    orbits = {
        "p": Orbit("p", d, 1, True, _f(3), cls, 1),
        "r": Orbit("r", d, 1, True, _f(1), cls, -1),
    }
    for i in range(1, 2 * g + 1):
        orbits[f"q{i}"] = Orbit(
            f"q{i}", d, 0, True, _f(2) + _f(i, 2 * g + 2), cls, 0
        )
    return AutonomousData(
        orbits=orbits,
        mj1={},
        extra={(("check", "p"), ("hat", "r")): d * e},
    )


def period_doubling(side: str, c: int = 1, allow_even: bool = False) -> AutonomousData:
    """The two sides of a period-doubling bifurcation, in the doubled class.

    Before the bifurcation (``minus``) there is one good doubled orbit E1;
    after it (``plus``) a bad double cover H1 and a good orbit e2, coupled by
    the unknown odd coefficient c in the hat block.
    """
    cls = "2G"
    if side == "minus":
        return AutonomousData(
            orbits={"E1": Orbit("E1", 2, 1, True, _f(2), cls, 1)}
        )
    if side != "plus":
        raise InputError(f"unknown side {side!r}")
    if c % 2 == 0 and not allow_even:
        raise InputError("the hat-block coefficient c must be odd")
    return AutonomousData(
        orbits={
            "H1": Orbit("H1", 2, 0, False, _f(2), cls, 2),
            "e2": Orbit("e2", 1, 1, True, _f(9, 5), cls, 1),
        },
        extra={(("hat", "H1"), ("hat", "e2")): c},
    )


# ---------------------------------------------------------------------------
# fixture corpus


@dataclass
class Scenario:
    name: str
    kind: str  # the document kind of the payload: see serialize.kind_of
    payload: object
    expected: Dict  # hand-computed reference values, consumed by tests


def _one_circle() -> MorseBottSystem:
    # winding-2 over the top orbit, winding-1 below: d(check g) = 2 check b,
    # d(hat g) = -hat b
    circle = PLComponent(
        "circle",
        1,
        ((_f(0), _f(1, 5)), (_f(1), _f(11, 5))),
        ((_f(0), _f(1, 3)), (_f(1), _f(4, 3))),
    )
    return MorseBottSystem(
        orbits={
            "g": Orbit("g", 1, 1, True, _f(2), "", 1),
            "b": Orbit("b", 1, 0, True, _f(1), "", 0),
        },
        m1={("g", "b"): [circle]},
    )


def _bad_circle() -> MorseBottSystem:
    # even e+ winding over the bad orbit keeps the monodromy consistent; the
    # two pinned e+ crossings then carry opposite transported signs and the
    # check column cancels.
    circle = PLComponent(
        "circle",
        1,
        ((_f(0), _f(1, 7)), (_f(1), _f(15, 7))),
        ((_f(0), _f(2, 5)), (_f(1), _f(7, 5))),
    )
    return MorseBottSystem(
        orbits={
            "B": Orbit("B", 2, 0, False, _f(2), "", 2),
            "b": Orbit("b", 1, 1, True, _f(1), "", 1),
        },
        m1={("B", "b"): [circle]},
    )


def _one_interval() -> MorseBottSystem:
    u = SignedPoint(_f(1, 5), _f(2, 5), 1)
    v = SignedPoint(_f(1, 5), _f(3, 5), 1)
    c1 = PLComponent(  # circle in M1(gamma, beta)
        "circle",
        1,
        ((_f(0), _f(1, 7)), (_f(1), _f(8, 7))),
        ((_f(0), _f(1, 3)), (_f(1), _f(1, 3))),
    )
    c2 = PLComponent(  # circle in M1(alpha, gammap)
        "circle",
        1,
        ((_f(0), _f(2, 7)), (_f(1), _f(2, 7))),
        ((_f(0), _f(1, 11)), (_f(1), _f(12, 11))),
    )
    interval = PLComponent(
        "interval",
        -1,
        ((_f(0), _f(1, 5)), (_f(1), _f(9, 7))),
        ((_f(0), _f(1, 3)), (_f(1), _f(3, 5))),
        boundary_labels={
            0: BoundaryLabel("gamma", 0, 0, 0, _f(9, 35)),
            1: BoundaryLabel("gammap", 1, 0, 0, _f(6, 55)),
        },
    )
    return MorseBottSystem(
        orbits={
            "alpha": Orbit("alpha", 1, 0, True, _f(4), "c", 2),
            "gamma": Orbit("gamma", 1, 0, True, _f(3), "c", 2),
            "gammap": Orbit("gammap", 1, 1, True, _f(2), "c", 1),
            "beta": Orbit("beta", 1, 1, True, _f(1), "c", 1),
        },
        m0={("alpha", "gamma"): [u], ("gammap", "beta"): [v]},
        m1={
            ("gamma", "beta"): [c1],
            ("alpha", "gammap"): [c2],
            ("alpha", "beta"): [interval],
        },
    )


def _one_bad_orbit() -> MorseBottSystem:
    return MorseBottSystem(
        orbits={"X": Orbit("X", 2, 0, False, _f(1), "", 0)}
    )


def _autonomous_chain() -> AutonomousData:
    return AutonomousData(
        orbits={
            "w": Orbit("w", 1, 0, True, _f(3), "", 2),
            "y": Orbit("y", 1, 1, True, _f(2), "", 1),
            "v": Orbit("v", 1, 1, True, _f(1), "", -1),
        },
        mj1={("w", "y"): [CylinderRecord(1, 1)]},
    )


def _morphism_interval() -> MorphismData:
    source = MorseBottSystem(
        orbits={
            "A": Orbit("A", 1, 1, True, _f(4), "", 1),
            "G": Orbit("G", 1, 1, True, _f(3), "", 1),
        },
        m0={("A", "G"): [SignedPoint(_f(1, 5), _f(2, 5), 1)]},
    )
    target = MorseBottSystem(
        orbits={
            "Bp": Orbit("Bp", 1, 1, True, _f(2), "", 1),
            "B": Orbit("B", 1, 1, True, _f(1), "", 1),
        },
        m0={("Bp", "B"): [SignedPoint(_f(1, 6), _f(5, 6), 1)]},
    )
    cphi1 = PLComponent(  # cylinder family G -> B
        "circle",
        1,
        ((_f(0), _f(3, 7)), (_f(1), _f(10, 7))),
        ((_f(0), _f(2, 9)), (_f(1), _f(11, 9))),
    )
    cphi2 = PLComponent(  # cylinder family A -> Bp
        "circle",
        1,
        ((_f(0), _f(4, 7)), (_f(1), _f(11, 7))),
        ((_f(0), _f(4, 9)), (_f(1), _f(13, 9))),
    )
    iphi = PLComponent(  # interval family A -> B, breaking at both ends
        "interval",
        -1,
        ((_f(0), _f(1, 5)), (_f(1), _f(37, 126))),
        ((_f(0), _f(61, 315)), (_f(1), _f(5, 6))),
        boundary_labels={
            0: PhiLabel("top", "G", 1, 0, 0, _f(34, 35)),
            1: PhiLabel("bottom", "Bp", 1, 0, 0, _f(13, 18)),
        },
    )
    return MorphismData(
        source=source,
        target=target,
        phi1={("G", "B"): [cphi1], ("A", "Bp"): [cphi2], ("A", "B"): [iphi]},
    )


_FIXTURES = {
    "one-circle": lambda: (
        _one_circle(),
        {
            "differential": {
                ("check:g", "check:b"): 2,
                ("hat:g", "hat:b"): -1,
            },
            "nch": {("", 0): (0, (2,))},
        },
    ),
    "bad-circle": lambda: (
        _bad_circle(),
        {
            "differential": {
                ("hat:B", "check:B"): -2,
                ("hat:B", "hat:b"): 1,
            },
            "nch": {("", 2): (1, ()), ("", 1): (1, ())},
        },
    ),
    "one-interval": lambda: (
        _one_interval(),
        {
            "differential": {
                ("hat:alpha", "check:gamma"): 1,
                ("hat:alpha", "hat:gammap"): -1,
                ("check:alpha", "check:beta"): -1,
                ("check:gamma", "check:beta"): 1,
                ("hat:gammap", "check:beta"): 1,
            },
            "nch": {("c", 3): (1, ()), ("c", 2): (2, ()), ("c", 1): (1, ())},
        },
    ),
    "one-bad-orbit": lambda: (
        _one_bad_orbit(),
        {
            "differential": {("hat:X", "check:X"): -2},
            "nch": {("", 0): (0, (2,))},
        },
    ),
    "autonomous-chain": lambda: (
        _autonomous_chain(),
        {
            "block": {
                (("check", "w"), ("check", "y")): 1,
                (("hat", "w"), ("hat", "y")): -1,
            },
        },
    ),
    "preq-112": lambda: (
        prequantization(1, 1, 2),
        {
            "nch": {
                ("2G", 2): (1, ()),
                ("2G", 1): (2, ()),
                ("2G", 0): (2, (2,)),
                ("2G", -1): (1, ()),
            },
            "egh": {("2G", 1): 1, ("2G", 0): 2, ("2G", -1): 1},
            "chs1": {
                ("2G", -1): (1, ()),
                ("2G", 0): (2, (2,)),
                ("2G", 1): (1, (2, 2)),
                ("2G", 2): (0, (2, 2)),
                ("2G", 3): (0, (2, 2)),
                ("2G", 4): (0, (2, 2)),
            },
        },
    ),
    "pd-minus": lambda: (
        period_doubling("minus"),
        {
            "chs1": {("2G", 1): (1, ())}
            | {("2G", 2 * k): (0, (2,)) for k in range(1, 5)},
            "egh": {("2G", 1): 1},
        },
    ),
    "pd-plus": lambda: (
        period_doubling("plus", 1),
        {
            "nch": {("2G", 1): (1, ()), ("2G", 2): (1, ())},
            "egh": {("2G", 1): 1},
        },
    ),
    "morphism-interval": lambda: (
        _morphism_interval(),
        {
            "map": {
                ("check:A", "check:Bp"): 1,
                ("check:G", "check:B"): 1,
                ("hat:A", "hat:Bp"): 1,
                ("hat:G", "hat:B"): 1,
            },
        },
    ),
    "trivial-cobordism": lambda: (
        trivial_cobordism(_one_interval()),
        {"identity": True},
    ),
}


def fixture_names() -> List[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> Scenario:
    try:
        builder = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(name) from None
    payload, expected = builder()
    return Scenario(name, kind_of(payload), payload, expected)


# ---------------------------------------------------------------------------
# mutation corpus


@dataclass
class Mutation:
    """One corrupted fixture and the failure it must produce.

    ``expect`` is a validator violation code, or "square-nonzero" for
    corruptions that pass static validation but break d^2 = 0.
    """

    fixture: str
    cls: str  # one of the ten corruption classes
    payload: object
    expect: str


CORRUPTION_CLASSES = (
    "parity-break",
    "action-break",
    "basepoint-collision",
    "odd-winding-bad-circle",
    "label-sign-flip",
    "label-eval-mismatch",
    "missing-broken-pair",
    "extra-slot",
    "du-nondivisor",
    "square-break",
)


def _mutate_orbit(payload, oid, **changes):
    out = copy.deepcopy(payload)
    orbits = out.orbits if not isinstance(out, MorphismData) else out.target.orbits
    orbits[oid] = replace(orbits[oid], **changes)
    return out


def mutations(name: str) -> List[Mutation]:
    base = fixture(name)
    out: List[Mutation] = []

    def add(cls, payload, expect):
        out.append(Mutation(name, cls, payload, expect))

    if base.kind == "mbs":
        sys = base.payload
        some_pair = (sys.pairs() or [None])[0]
        if some_pair:
            top, bottom = some_pair
            add("parity-break",
                _mutate_orbit(sys, bottom, parity=1 - sys.orbit(bottom).parity),
                "parity-axiom")
            big = sys.orbit(top).action + 1
            add("action-break", _mutate_orbit(sys, bottom, action=big),
                "action-axiom")
            mutated = copy.deepcopy(sys)
            comp = mutated.m1[some_pair][0]
            _tn, _td, vn, vd = comp.lift("plus")[0]
            mutated.basepoints[top] = _f(vn, vd)
            add("basepoint-collision", mutated, "basepoint-collision")
        else:
            bad = next(iter(sys.orbits))
            add("parity-break",
                _mutate_orbit(sys, bad, parity=1 - sys.orbit(bad).parity),
                "grading-parity")
    if name == "bad-circle":
        mutated = copy.deepcopy(base.payload)
        mutated.m1[("B", "b")][0] = replace(
            mutated.m1[("B", "b")][0],
            e_plus_lift=((_f(0), _f(1, 7)), (_f(1), _f(8, 7))),
        )
        add("odd-winding-bad-circle", mutated, "monodromy-parity")
    if name == "one-interval":
        flipped = copy.deepcopy(base.payload)
        flipped.m0[("alpha", "gamma")][0] = replace(
            flipped.m0[("alpha", "gamma")][0], sign=-1
        )
        add("label-sign-flip", flipped, "label-sign-mismatch")

        skew = copy.deepcopy(base.payload)
        skew.m1[("alpha", "beta")][0] = replace(
            skew.m1[("alpha", "beta")][0],
            e_minus_lift=((_f(0), _f(1, 4)), (_f(1), _f(3, 5))),
        )
        add("label-eval-mismatch", skew, "label-eval-mismatch")

        dangling = copy.deepcopy(base.payload)
        comp = dangling.m1[("alpha", "beta")][0]
        labels = dict(comp.boundary_labels)
        labels[0] = replace(labels[0], point_index=5)
        dangling.m1[("alpha", "beta")][0] = replace(
            comp, boundary_labels=labels
        )
        add("missing-broken-pair", dangling, "missing-broken-pair")
    if base.kind == "autonomous":
        data = base.payload
        oid = sorted(data.orbits)[0]
        add("parity-break",
            _mutate_orbit(data, oid, parity=1 - data.orbit(oid).parity),
            "grading-parity")
    if name == "autonomous-chain":
        data = base.payload
        withextra = copy.deepcopy(data)
        withextra.extra[(("hat", "w"), ("hat", "y"))] = 1
        add("extra-slot", withextra, "extra-slot")

        baddu = copy.deepcopy(data)
        baddu.mj1[("w", "y")] = [CylinderRecord(1, 2)]
        add("du-nondivisor", baddu, "du-divisibility")

        broken = copy.deepcopy(data)
        broken.extra[(("check", "y"), ("hat", "v"))] = 1
        add("square-break", broken, "square-nonzero")

        slow = copy.deepcopy(data)
        slow.orbits["y"] = replace(slow.orbits["y"], action=_f(5))
        add("action-break", slow, "action-axiom")
    if name == "preq-112":
        slow = _mutate_orbit(base.payload, "r", action=_f(5))
        add("action-break", slow, "action-axiom")
    if name == "morphism-interval":
        m = base.payload
        flipped = copy.deepcopy(m)
        flipped.target.m0[("Bp", "B")][0] = replace(
            flipped.target.m0[("Bp", "B")][0], sign=-1
        )
        add("label-sign-flip", flipped, "label-sign-mismatch")

        skew = copy.deepcopy(m)
        comp = skew.phi1[("A", "B")][0]
        skew.phi1[("A", "B")][0] = replace(
            comp,
            e_plus_lift=((_f(0), _f(2, 11)), (_f(1), _f(37, 126))),
        )
        add("label-eval-mismatch", skew, "label-eval-mismatch")

        dangling = copy.deepcopy(m)
        comp = dangling.phi1[("A", "B")][0]
        labels = dict(comp.boundary_labels)
        labels[1] = replace(labels[1], component_index=3)
        dangling.phi1[("A", "B")][0] = replace(comp, boundary_labels=labels)
        add("missing-broken-pair", dangling, "missing-broken-pair")

        add("action-break", _mutate_orbit(m, "B", action=_f(7)),
            "action-axiom")
        add("parity-break", _mutate_orbit(m, "B", parity=0), "parity-axiom")
    return out


def all_mutations() -> List[Mutation]:
    out: List[Mutation] = []
    for name in fixture_names():
        out.extend(mutations(name))
    return out
