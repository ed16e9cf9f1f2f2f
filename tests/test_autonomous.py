import copy
import dataclasses
import importlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from cascadeho import autonomous
from cascadeho.autonomous import (
    _check_block_identities,
    AutonomousData,
    CylinderRecord,
    block_differential,
    block_entries,
    bv_operator,
    compare_egh,
    egh_differential,
    egh_homology,
    equivariant_differential,
    equivariant_homology,
    validate_data,
)
from cascadeho.errors import CascadehoError, InputError, SquareNonzero, ValidationFailure
from cascadeho.cascades import by_action, chain_generators
from cascadeho.exact import (
    ChainComplex,
    ChainGenerator,
    IntMatrix,
    homology,
    verify_square_zero,
)
from cascadeho.mbs import Orbit, Violation
from cascadeho.scenarios import fixture, fixture_names, period_doubling, prequantization
from test_exact import blocks, record_reductions


F = Fraction


def delta(data):
    """<delta a, b> = sum of epsilon/du over simple cylinders a -> b, in
    rationals: the oracle for the integer block formulas."""
    out = {}
    for pair, cylinders in data.mj1.items():
        total = sum(F(c.epsilon, c.du) for c in cylinders)
        if total:
            out[pair] = total
    return out


# --- delta and the cylindrical complex --------------------------------------


def test_delta_formula():
    data = AutonomousData(
        orbits={
            "a": Orbit("a", 2, 1, True, F(2), "", 1),
            "b": Orbit("b", 2, 0, True, F(1), "", 0),
        },
        mj1={
            ("a", "b"): [CylinderRecord(1, 2), CylinderRecord(1, 2),
                         CylinderRecord(-1, 1)]
        },
    )
    assert delta(data) == {}  # 1/2 + 1/2 - 1 = 0
    data.mj1[("a", "b")].append(CylinderRecord(1, 2))
    assert delta(data) == {("a", "b"): F(1, 2)}
    # EGH coefficient is d(a) * delta: integral by du-divisibility
    egh = egh_differential(data)
    assert [g.gid for g in egh.generators] == ["a", "b"]
    assert egh.differential.entries == {(1, 0): 1}


def test_delta_empty():
    assert delta(AutonomousData(orbits={})) == {}


def test_prequantization_delta_vanishes():
    assert delta(prequantization(2, 1, 3)) == {}


def test_egh_homology_prequantization_grid():
    for g in (1, 2):
        for e in (1, 2):
            for d in (1, 2, 3):
                data = prequantization(g, e, d)
                cls = f"{d}G"
                assert egh_homology(data) == {
                    (cls, 1): 1,
                    (cls, 0): 2 * g,
                    (cls, -1): 1,
                }, (g, e, d)


def test_egh_homology_period_doubling():
    assert egh_homology(period_doubling("minus")) == {("2G", 1): 1}
    assert egh_homology(period_doubling("plus", 5)) == {("2G", 1): 1}


# --- block differential -----------------------------------------------------


def test_block_entries_autonomous_chain():
    sc = fixture("autonomous-chain")
    assert block_entries(sc.payload) == sc.expected["block"]


def test_block_hat_sign_uses_target_multiplicity():
    data = AutonomousData(
        orbits={
            "a": Orbit("a", 6, 1, True, F(2), "", 1),
            "b": Orbit("b", 2, 1, True, F(1), "", 0),
        },
        mj1={("a", "b"): [CylinderRecord(1, 2)]},
    )
    entries = block_entries(data)
    assert entries[(("check", "a"), ("check", "b"))] == 3  # d(a)/du
    assert entries[(("hat", "a"), ("hat", "b"))] == -1  # -d(b)/du


def rational_block_entries(data):
    """``block_entries`` from ``delta`` in rationals: the check entry is
    d(a) * delta, the hat entry -d(b) * delta, each must be an integer."""
    entries = {}
    for (a, b), val in delta(data).items():
        cc, hh = data.orbit(a).d * val, -data.orbit(b).d * val
        assert cc.denominator == hh.denominator == 1
        entries[(("check", a), ("check", b))] = int(cc)
        entries[(("hat", a), ("hat", b))] = int(hh)
    for oid, orbit in data.orbits.items():
        if not orbit.good:
            entries[(("hat", oid), ("check", oid))] = -2
    for key, coeff in data.extra.items():
        entries[key] = entries.get(key, 0) + coeff
    return {k: v for k, v in entries.items() if v}


def test_integer_block_formulas_match_the_rational_oracle(tmp_path, monkeypatch):
    # every autonomous fixture and the seed 1-3 benchmark documents
    cases = {name: fixture(name).payload for name in fixture_names()
             if fixture(name).kind == "autonomous"}
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    fixtures = len(cases)
    for seed in (1, 2, 3):
        for r in workloads.build("autonomous", seed, str(tmp_path / str(seed))):
            cases[f"{r.doc.name}@{seed}"] = r.doc.obj
    assert len(cases) == fixtures + 3 * 3
    for name, data in cases.items():
        assert block_entries(data) == rational_block_entries(data), name
        egh = egh_differential(data)
        oids = [g.gid for g in egh.generators]
        got = {(oids[j], oids[i]): v for (i, j), v in egh.differential.entries.items()}
        assert got == {(a, b): int(data.orbit(a).d * val)
                       for (a, b), val in delta(data).items()}, name


def test_du_not_dividing_the_multiplicity_raises():
    # the rational sum 1/2 + 1/2 is an integer, but no single 1/du is: the
    # integer formulas refuse such data instead of flooring d // du
    orbits = {
        "a": Orbit("a", 1, 1, True, F(2), "", 1),
        "b": Orbit("b", 2, 0, True, F(1), "", 0),
    }
    data = AutonomousData(orbits=orbits, mj1={
        ("a", "b"): [CylinderRecord(1, 2), CylinderRecord(1, 2)]})
    assert {v.code for v in validate_data(data)} == {"du-divisibility"}
    with pytest.raises(CascadehoError, match="du = 2 does not divide 1"):
        block_entries(data)
    with pytest.raises(CascadehoError, match="du = 2 does not divide 1"):
        autonomous._egh_complex(data)
    with pytest.raises(ValidationFailure):
        egh_differential(data)
    # du divides d(a) but not d(b): the hat block refuses
    data = AutonomousData(orbits={
        "a": Orbit("a", 4, 1, True, F(2), "", 1),
        "b": Orbit("b", 2, 0, True, F(1), "", 0),
    }, mj1={("a", "b"): [CylinderRecord(-1, 4)]})
    with pytest.raises(CascadehoError, match=r"du = 4 does not divide 2 at hat block \(a,b\)"):
        block_entries(data)
    # a record holds ints, so d // du is never a float division
    for epsilon, du in ((1.0, 1), (True, 1), (1, 2.0), (1, True)):
        with pytest.raises(ValueError):
            CylinderRecord(epsilon, du)


def test_one_pass_block_entries_report_the_check_block_first():
    # the first cylinder breaks only the hat block, the second the check
    # block: the check block's error comes first, as a pass per block reads
    data = AutonomousData(orbits={
        "a": Orbit("a", 4, 1, True, F(2), "", 1),
        "b": Orbit("b", 2, 0, True, F(1), "", 0),
    }, mj1={("a", "b"): [CylinderRecord(1, 4), CylinderRecord(1, 3)]})
    with pytest.raises(CascadehoError) as err:
        block_entries(data)
    assert str(err.value) == "du = 3 does not divide 4 at check block (a,b)"
    data.mj1[("a", "b")].pop()
    with pytest.raises(CascadehoError) as err:
        block_entries(data)
    assert str(err.value) == "du = 4 does not divide 2 at hat block (a,b)"


def test_non_integer_extra_coefficient_is_a_violation():
    # the block entries are ints from end to end; a float coefficient used
    # to be truncated silently (2.5 read as 2)
    data = prequantization(1, 1, 2)
    key = next(iter(data.extra))
    data.extra[key] = 2.5
    violations = validate_data(data)
    assert [v.code for v in violations] == ["extra-coefficient"]
    assert "2.5" in violations[0].message
    with pytest.raises(ValidationFailure):
        block_differential(data)


def test_bad_diagonal_forced():
    data = period_doubling("plus", 3)
    entries = block_entries(data)
    assert entries[(("hat", "H1"), ("check", "H1"))] == -2


def test_prequantization_nch_table():
    sc = fixture("preq-112")
    h = homology(block_differential(sc.payload))
    assert h.groups == sc.expected["nch"]


def test_prequantization_extra_sign_irrelevant():
    plus = prequantization(1, 1, 2)
    minus = copy.deepcopy(plus)
    minus.extra = {k: -v for k, v in plus.extra.items()}
    assert (
        homology(block_differential(plus)).groups
        == homology(block_differential(minus)).groups
    )
    k_plus, _ = equivariant_homology(plus, 3)
    k_minus, _ = equivariant_homology(minus, 3)
    assert k_plus.groups == k_minus.groups


def test_period_doubling_nch():
    for c in (1, -1, 3, 7):
        h = homology(block_differential(period_doubling("plus", c)))
        assert h.groups == {("2G", 1): (1, ()), ("2G", 2): (1, ())}, c


def test_period_doubling_even_c_changes_nch():
    h = homology(block_differential(period_doubling("plus", 2, allow_even=True)))
    assert h.group("2G", 2) == (1, (2,))


def test_square_break_raises():
    data = fixture("autonomous-chain").payload
    data.extra[(("check", "y"), ("hat", "v"))] = 1
    assert validate_data(data) == []  # statically fine
    with pytest.raises(SquareNonzero):
        block_differential(data)


def test_validator_rejects_bad_slots_and_du():
    data = fixture("autonomous-chain").payload
    data.extra[(("hat", "w"), ("hat", "y"))] = 1  # w is good
    codes = {v.code for v in validate_data(data)}
    assert "extra-slot" in codes

    data2 = fixture("autonomous-chain").payload
    data2.mj1[("w", "y")] = [CylinderRecord(1, 2)]
    codes = {v.code for v in validate_data(data2)}
    assert "du-divisibility" in codes


def eager_validate_data(data):
    """``validate_data`` as it was before it formatted only failures: every
    check goes through one closure with its location and message already
    formatted, and the actions are scaled as ``mbs.scaled_actions`` did.
    The oracle for the violation list, order and texts included."""
    v = []

    def check(ok, code, where, msg):
        if not ok:
            v.append(Violation(code, where, msg))

    for oid, orbit in data.orbits.items():
        check(orbit.grading is not None, "missing-grading", oid,
              "integer grading required")
        if orbit.grading is not None:
            check((orbit.grading - orbit.parity) % 2 == 0, "grading-parity",
                  oid, "grading parity != CZ parity")
        if not orbit.good:
            check(orbit.d % 2 == 0, "bad-orbit-multiplicity", oid,
                  "bad orbit must have even multiplicity")

    scale = lcm(*(o.action.denominator for o in data.orbits.values()))
    action = {oid: o.action.numerator * (scale // o.action.denominator)
              for oid, o in data.orbits.items()}
    for (top, bottom), cylinders in sorted(data.mj1.items()):
        where = f"mj1({top},{bottom})"
        if top not in data.orbits or bottom not in data.orbits:
            check(False, "unknown-orbit", where, "unknown orbit id")
            continue
        a, b = data.orbit(top), data.orbit(bottom)
        check(a.good and b.good, "cylinder-bad-orbit", where,
              "cylinder records live between good orbits")
        check(action[bottom] < action[top], "action-axiom", where,
              "action does not decrease")
        check(a.homotopy_class == b.homotopy_class, "class-axiom", where,
              "cylinders preserve the homotopy class")
        if a.grading is not None and b.grading is not None:
            check(a.grading - b.grading == 1, "grading-axiom", where,
                  "cylinder grading gap != 1")
        for cyl in cylinders:
            check(gcd(a.d, b.d) % cyl.du == 0, "du-divisibility", where,
                  f"du = {cyl.du} does not divide gcd({a.d}, {b.d})")

    for (src, tgt), coeff in sorted(data.extra.items()):
        where = f"extra({src[0]}:{src[1]} -> {tgt[0]}:{tgt[1]})"
        if not coeff:
            continue
        check(type(coeff) is int, "extra-coefficient", where,
              f"coefficient {coeff!r} is not an integer")
        if src[1] not in data.orbits or tgt[1] not in data.orbits:
            check(False, "unknown-orbit", where, "unknown orbit id")
            continue
        a, b = data.orbit(src[1]), data.orbit(tgt[1])
        slot = (src[0], tgt[0])
        if slot == ("check", "hat"):
            legal = True
        elif slot == ("hat", "hat"):
            legal = not a.good
        elif slot == ("check", "check"):
            legal = not b.good
        else:
            legal = False
        check(legal, "extra-slot", where,
              "coefficient sits in a slot the block formulas determine")
        check(action[tgt[1]] < action[src[1]], "action-axiom", where,
              "action does not decrease")
        check(a.homotopy_class == b.homotopy_class, "class-axiom", where,
              "extra entries preserve the homotopy class")
        try:
            gap = (data.generator_grading(a, src[0])
                   - data.generator_grading(b, tgt[0]))
            check(gap == 1, "grading-axiom", where, f"grading gap {gap} != 1")
        except ValidationFailure:
            pass  # reported above
    return v


def bench_documents(tmp_path, monkeypatch, workload, seeds=(1, 2, 3)):
    """The texts of the benchmark documents of ``workload`` at ``seeds``,
    by (seed, name)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    texts = {}
    for seed in seeds:
        for r in workloads.build(workload, seed, str(tmp_path / f"{workload}-{seed}")):
            with open(r.doc.path, encoding="utf-8") as fh:
                texts[(seed, r.doc.name)] = fh.read()
    return texts


EXTRA_SLOTS = [("check", "hat"), ("hat", "hat"), ("check", "check"), ("hat", "check")]


def corrupt(data, rng, slots):
    """``data`` with one random corruption: an orbit's grading, multiplicity,
    goodness, class or action, an mj1 pair or cylinder, or an extra entry
    (its slot recorded in ``slots``)."""
    data = copy.deepcopy(data)
    oids = list(data.orbits)
    kind = rng.randrange(7)
    if kind == 0:  # an orbit field
        oid = rng.choice(oids)
        orbit = data.orbits[oid]
        change = rng.choice([
            {"grading": None}, {"grading": (orbit.grading or 0) + 1},
            {"good": False}, {"good": False, "d": 3}, {"d": orbit.d + 1},
            {"homotopy_class": orbit.homotopy_class + "x"},
            {"action": orbit.action + rng.choice((-3, F(1, 7), 5))},
            {"action": data.orbits[rng.choice(oids)].action},
        ])
        data.orbits[oid] = dataclasses.replace(orbit, **change)
    elif kind == 1 and data.mj1:  # a cylinder whose du may divide nothing
        pair = rng.choice(sorted(data.mj1))
        data.mj1[pair] = data.mj1[pair] + [CylinderRecord(rng.choice((1, -1)),
                                                          rng.choice((1, 2, 3, 4)))]
    elif kind == 2 and data.mj1:  # a pair turned around
        top, bottom = rng.choice(sorted(data.mj1))
        data.mj1[(bottom, top)] = data.mj1.pop((top, bottom))
    elif kind == 3:  # a pair between any two orbits, or an unknown one
        top, bottom = rng.choice(oids), rng.choice(oids)
        if rng.random() < 0.25:
            top = "ghost"
        if rng.random() < 0.5:
            top, bottom = bottom, top
        data.mj1[(top, bottom)] = [CylinderRecord(1, rng.choice((1, 2)))]
    else:  # an extra entry in any slot, between any two orbits, one of
        # them perhaps made bad
        slot = rng.choice(EXTRA_SLOTS)
        slots.add(slot)
        src = (slot[0], "ghost" if kind == 4 else rng.choice(oids))
        tgt = (slot[1], rng.choice(oids))
        data.extra[(src, tgt)] = rng.choice((1, -2, 0, 2.5, F(1, 2)))
        oid = rng.choice((src[1], tgt[1], None))
        if oid in data.orbits:
            orbit = data.orbits[oid]
            data.orbits[oid] = dataclasses.replace(orbit, good=False, d=2 * orbit.d)
    return data


def test_validate_data_matches_the_eager_oracle(
        tmp_path, monkeypatch):
    # the same violations, codes, locations, messages and order, as the
    # eager oracle on every autonomous fixture and mutation and on seeded
    # corruptions of the seed 1-3 benchmark documents
    from cascadeho import serialize
    from cascadeho.scenarios import all_mutations

    cases = [fixture(name).payload for name in fixture_names()
             if fixture(name).kind == "autonomous"]
    cases += [m.payload for m in all_mutations() if isinstance(m.payload, AutonomousData)]
    fixtures = len(cases)
    docs = [serialize.loads(text) for text in
            bench_documents(tmp_path, monkeypatch, "autonomous").values()]
    rng, slots = random.Random(31), set()
    for k in range(240):
        data = docs[k % len(docs)]
        for _ in range(rng.randint(1, 3)):
            data = corrupt(data, rng, slots)
        cases.append(data)
    codes = Counter()
    for data in cases:
        found = validate_data(data)
        assert found == eager_validate_data(data)
        codes.update(v.code for v in found)
    assert fixtures >= 8 and len(cases) >= fixtures + 200
    assert set(codes) == {
        "missing-grading", "grading-parity", "bad-orbit-multiplicity",
        "unknown-orbit", "cylinder-bad-orbit", "action-axiom", "class-axiom",
        "grading-axiom", "du-divisibility", "extra-slot", "extra-coefficient"}
    assert slots == set(EXTRA_SLOTS)


# --- BV operator and structural identities ----------------------------------


def test_bv_operator_shape():
    data = period_doubling("plus", 1)
    bv = bv_operator(data)
    assert bv * bv == IntMatrix.zero(bv.rows, bv.cols)
    cx = block_differential(data)
    idx = {g.gid: i for i, g in enumerate(cx.generators)}
    assert bv.get(idx["hat:e2"], idx["check:e2"]) == 1
    # kappa vanishes on the bad orbit
    assert bv.get(idx["hat:H1"], idx["check:H1"]) == 0


def test_kappa_identities_hold_on_fixtures():
    for name in ("autonomous-chain", "preq-112", "pd-minus", "pd-plus"):
        data = fixture(name).payload
        cx = block_differential(data)  # internally checks the identities
        bv = bv_operator(data)
        d = cx.differential
        assert bv * d + d * bv == IntMatrix.zero(d.rows, d.cols), name


def dense_identity_failure(data, raw):
    """First failing identity, scanning every (orbit, orbit) pair in order."""
    kappa = {o: (x.d if x.good else 0) for o, x in data.orbits.items()}
    for a in data.orbits:
        for b in data.orbits:
            cc = raw.get((("check", a), ("check", b)), 0)
            hh = raw.get((("hat", a), ("hat", b)), 0)
            if kappa[b] * cc + hh * kappa[a]:
                return (f"kappa-block identity fails on ({a}, {b}): "
                        f"{kappa[b]}*{cc} + {hh}*{kappa[a]} != 0")
            if a != b and raw.get((("hat", a), ("check", b)), 0):
                return f"d+ has an off-diagonal entry ({a}, {b})"
        if kappa[a] and raw.get((("hat", a), ("check", a)), 0):
            return f"d+ . kappa != 0 at {a}"
    return None


def test_block_identity_failure_is_the_first_in_orbit_order():
    data = prequantization(1, 1, 2)
    oids = list(data.orbits)
    slots = [("check", "check"), ("hat", "hat"), ("hat", "check")]
    rng = random.Random(5)
    for _ in range(200):
        raw = dict(block_entries(data))
        for _ in range(rng.randint(1, 4)):
            sf, tf = rng.choice(slots)
            key = ((sf, rng.choice(oids)), (tf, rng.choice(oids)))
            raw[key] = raw.get(key, 0) + rng.choice((1, -1, 2))
        raw = {k: v for k, v in raw.items() if v}
        expected = dense_identity_failure(data, raw)
        if expected is None:
            _check_block_identities(data, raw)
            continue
        with pytest.raises(CascadehoError) as err:
            _check_block_identities(data, raw)
        assert str(err.value) == expected


def test_a_pair_with_only_a_hat_entry_is_tested():
    # the hat entry alone breaks the kappa identity: no check entry tests it
    data = prequantization(1, 1, 2)
    oids = list(data.orbits)
    a, b = oids[0], oids[-1]
    assert (("check", a), ("check", b)) not in block_entries(data)
    raw = dict(block_entries(data))
    raw[(("hat", a), ("hat", b))] = 1
    expected = dense_identity_failure(data, raw)
    assert expected.startswith(f"kappa-block identity fails on ({a}, {b}): 2*0 + 1*")
    with pytest.raises(CascadehoError) as err:
        _check_block_identities(data, raw)
    assert str(err.value) == expected


def test_a_pair_whose_two_entries_break_the_identity_is_reported_once():
    # check and hat entries of one pair, each nonzero and together breaking
    # the identity, give the one failure a dense scan finds, whichever of
    # the two entries comes first in ``raw``
    data = prequantization(1, 1, 2)
    oids = list(data.orbits)
    a, b = oids[0], oids[-1]
    check, hat = (("check", a), ("check", b)), (("hat", a), ("hat", b))
    for first, second in ((check, hat), (hat, check)):
        raw = dict(block_entries(data))
        raw[first] = 1
        raw[second] = 1
        expected = dense_identity_failure(data, raw)
        assert expected == (f"kappa-block identity fails on ({a}, {b}): "
                            "2*1 + 1*2 != 0")
        with pytest.raises(CascadehoError) as err:
            _check_block_identities(data, raw)
        assert str(err.value) == expected


def test_equivariant_truncation_zero_equals_block():
    data = fixture("autonomous-chain").payload
    block = block_differential(data)
    eq = equivariant_differential(data, 1)
    # the U^0 part of the truncated complex is the block complex
    idx = {g.gid: i for i, g in enumerate(eq.generators)}
    for i, gi in enumerate(block.generators):
        for j, gj in enumerate(block.generators):
            assert block.differential.get(i, j) == eq.differential.get(
                idx[gi.gid + ":U0"], idx[gj.gid + ":U0"]
            )


def test_equivariant_bv_tail():
    data = period_doubling("minus")
    eq = equivariant_differential(data, 2)
    idx = {g.gid: i for i, g in enumerate(eq.generators)}
    assert eq.differential.get(idx["hat:E1:U0"], idx["check:E1:U1"]) == 2
    assert eq.differential.get(idx["hat:E1:U1"], idx["check:E1:U2"]) == 2
    # U^0 check generators have no tail
    col = idx["check:E1:U0"]
    assert all(j != col for (_i, j) in eq.differential.entries)


# --- equivariant homology ---------------------------------------------------


def test_prequantization_equivariant_table():
    sc = fixture("preq-112")
    result, stable = equivariant_homology(sc.payload, 3)
    assert stable == 4
    got = {k: v for k, v in result.groups.items() if k[1] <= stable}
    assert got == sc.expected["chs1"]


def test_period_doubling_equivariant_both_sides():
    minus, stable = equivariant_homology(period_doubling("minus"), 5)
    assert stable == 8
    expected = {("2G", 1): (1, ())} | {
        ("2G", 2 * k): (0, (2,)) for k in (1, 2, 3, 4)
    }
    got = {k: v for k, v in minus.groups.items() if k[1] <= stable}
    assert got == expected
    for c in (1, 5, -3):
        plus, _ = equivariant_homology(period_doubling("plus", c), 5)
        got = {k: v for k, v in plus.groups.items() if k[1] <= stable}
        assert got == expected, c


def test_stable_range_grows_with_truncation():
    data = fixture("preq-112").payload
    small, stable_small = equivariant_homology(data, 2)
    large, stable_large = equivariant_homology(data, 4)
    assert stable_small == 2 and stable_large == 6
    assert (
        small.restricted(stable_small).groups
        == large.restricted(stable_small).groups
    )


def test_equivariant_rejects_low_truncation():
    with pytest.raises(ValueError):
        equivariant_differential(fixture("pd-minus").payload, 0)


# --- comparison -------------------------------------------------------------


def test_compare_egh_prequantization():
    report = compare_egh(prequantization(1, 1, 2), 3)
    assert report.ok
    assert len(report.steps) == 4
    lines = report.describe()
    assert all(line.startswith("[ok]") for line in lines[:-1])


def test_compare_egh_period_doubling_odd_c():
    report = compare_egh(period_doubling("plus", 5), 4)
    assert report.ok
    assert egh_homology(period_doubling("plus", 5)) == {("2G", 1): 1}


def test_compare_egh_detects_manufactured_leak(tmp_path, monkeypatch, capsys):
    """Every leak into a U^0 good check generator that data can write
    breaks d^2 = 0, so ``compare`` refuses the data with the tower's d^2
    witness, and its step (i) is a certificate that cannot fail.

    D = R (x) 1 + B (x) S enters a U^0 good check generator check q (x) U^0
    only through an R entry x -> check q at U^0, with x no good check
    generator, and then (RB + BR)[hat q, x] = d(q) R[check q, x]: B R
    carries the entry to hat q and R B has no term there, since B leaves
    only good check generators.  Each autonomous fixture gets each such
    slot within one class in turn, and for K = 1..3 ``compare_egh`` raises
    the SquareNonzero of the whole tower, built by hand.  On preq-112 the
    leak hat q2 -> check q1 also exits 2 from the CLI with that witness.
    The validators reject every leak slot, so they are switched off to
    reach the d^2 check.
    """
    from cascadeho import serialize
    from cascadeho.cli import main

    names = [name for name in fixture_names() if fixture(name).kind == "autonomous"]
    assert all(compare_egh(fixture(name).payload, 2).ok for name in names)
    monkeypatch.setattr(autonomous, "validate_data", lambda data: [])
    monkeypatch.setattr(autonomous, "_check_block_identities", lambda data, raw: None)
    slots = 0
    for name in names:
        honest = fixture(name).payload
        for q in honest.good_orbits():
            for x in chain_generators(honest)[0]:
                flavor, oid = x
                if (honest.orbit(oid).homotopy_class != q.homotopy_class
                        or (flavor == "check" and honest.orbit(oid).good)):
                    continue
                data = copy.deepcopy(honest)
                data.extra[(x, ("check", q.oid))] = 1
                assert block_entries(data)[(x, ("check", q.oid))] == 1
                for k in (1, 2, 3):
                    with pytest.raises(SquareNonzero) as whole:
                        verify_square_zero(hand_tower(data, k))
                    with pytest.raises(SquareNonzero) as compared:
                        compare_egh(data, k)
                    assert (compared.value.source, compared.value.target,
                            compared.value.value) == (
                        whole.value.source, whole.value.target,
                        whole.value.value), (name, x, q.oid, k)
                slots += 1
    # 3 x 3 on autonomous-chain, 1 on pd-minus, 3 on pd-plus (hat e2, and
    # check and hat of the bad H1), 4 x 4 on preq-112
    assert slots == 9 + 1 + 3 + 16

    data = fixture("preq-112").payload
    data.extra[(("hat", "q2"), ("check", "q1"))] = 1
    path = tmp_path / "preq-112-leak.json"
    path.write_text(serialize.dumps(data))
    for k in (1, 2, 3):
        capsys.readouterr()
        assert main(["compare", str(path), "--umax", str(k)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "error: d^2 != 0: <d d check:q2:U1, check:q1:U0> = 2\n")


def test_validation_failure_propagates():
    data = fixture("autonomous-chain").payload
    data.orbits["y"] = Orbit("y", 1, 0, True, F(2), "", 1)  # parity break
    with pytest.raises(ValidationFailure):
        block_differential(data)


def test_lower_truncation_is_the_rebuilt_complex(tmp_path, monkeypatch):
    # the certification reads the truncation K - 1 homology off the same
    # pattern as the K one: its groups are those of the K - 1 tower built
    # by hand; cases: every autonomous fixture and the seed-1 benchmark
    # documents
    cases = [
        (name, fixture(name).payload, k)
        for name in fixture_names()
        if fixture(name).kind == "autonomous"
        for k in (2, 3, 4)
    ]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    docs = {r.doc.name: r.doc for r in workloads.build("autonomous", 1, str(tmp_path))}
    cases += [(name, doc.obj, doc.umax) for name, doc in docs.items()]
    assert len(docs) == 3
    read = {}
    original = autonomous._Pattern.homology

    def recorded(self, truncation, dropped=()):
        result = original(self, truncation, dropped)
        read[truncation] = result
        return result

    monkeypatch.setattr(autonomous._Pattern, "homology", recorded)
    for name, data, k in cases:
        read.clear()
        equivariant_homology(data, k)
        assert sorted(read) == [k - 1, k], (name, k)
        assert read[k - 1].groups == homology(hand_tower(data, k - 1)).groups, (name, k)


def test_chs1_and_compare_do_no_work_that_grows_with_k(monkeypatch):
    # the windows built, the blocks reduced and the generators made are the
    # same at K = 60 and K = 960, no block is reduced twice, and no tower
    # is assembled
    data = prequantization(200, 1, 2)
    windows, made = [], []
    reductions = record_reductions(monkeypatch)
    original_window = autonomous._Pattern.window

    def window(self, rows, cols):
        if (rows, cols) not in self.windows:
            windows.append((rows, cols))
        return original_window(self, rows, cols)

    def assemble(*args):
        raise AssertionError("a tower was assembled")

    original_new = ChainGenerator.__new__

    def new(cls, *args, **kwargs):
        made.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(autonomous._Pattern, "window", window)
    monkeypatch.setattr(autonomous, "_assemble", assemble)
    monkeypatch.setattr(ChainGenerator, "__new__", new)
    base = 2 * len(data.orbits)
    good = len(data.good_orbits())
    counts = {}
    for k in (60, 960):
        for command, run, generators in (
                ("chs1", equivariant_homology, base),
                # compare also builds the EGH complex, one per good orbit
                ("compare", compare_egh, base + good)):
            for seen in (reductions, windows, made):
                seen.clear()
            run(data, k)
            assert len(made) == generators, (command, k)
            assert len(set(reductions)) == len(reductions), (command, k)
            counts.setdefault(command, []).append((len(reductions), len(windows)))
    for command, (at60, at960) in counts.items():
        assert at60 == at960, command
        assert 0 < at60[0] <= at60[1], command


def distinct_blocks(*complexes):
    """(rows, cols, entries) of each nonzero block of d, over all complexes."""
    return set(blocks(*complexes))


def test_each_distinct_block_is_reduced_once_per_command(tmp_path, monkeypatch):
    from cascadeho import exact
    from cascadeho.cli import main

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    docs = {r.doc.name: r.doc for r in workloads.build("autonomous", 1, str(tmp_path))}
    called = []

    def count(name):
        original = getattr(exact, name)

        def counted(*args):
            called.append(name)
            return original(*args)

        monkeypatch.setattr(exact, name, counted)

    count("invariant_factors")
    count("rank_mod")

    for doc in docs.values():
        data, k = doc.obj, doc.umax
        tower = hand_tower(data, k)
        lower = tower.restrict([i for i, g in enumerate(tower.generators)
                                if not g.gid.endswith(f":U{k}")])
        excluded = {f"check:{oid}:U0" for oid, o in data.orbits.items() if o.good}
        sub = tower.restrict([i for i, g in enumerate(tower.generators)
                              if g.gid not in excluded])
        egh = egh_differential(data)
        for command, complexes in (("chs1", (tower, lower)),
                                   ("compare", (sub, tower, lower, egh))):
            expected = len(distinct_blocks(*complexes))
            called.clear()
            assert main([command, doc.path, "--umax", str(k)]) == 0
            counts = (called.count("invariant_factors"), called.count("rank_mod"))
            assert counts == (expected, expected), (doc.name, command)


def seed1_documents(tmp_path, monkeypatch):
    """The seed-1 documents of the autonomous benchmark workload, by name."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    requests = workloads.build("autonomous", 1, str(tmp_path))
    return requests, {r.doc.name: r.doc for r in requests}


def test_each_command_squares_each_complex_once(tmp_path, monkeypatch, capsys):
    # validate, nch, egh and chs1 build one complex each; compare builds the
    # truncation-K complex and the EGH complex.  homology multiplies none of
    # them again.
    from cascadeho.cli import main

    requests, _docs = seed1_documents(tmp_path, monkeypatch)
    products = []
    original = IntMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    expected = {"validate": 1, "nch": 1, "egh": 1, "chs1": 1, "compare": 2}
    assert sorted({r.argv[0] for r in requests}) == sorted(expected)
    for r in requests:
        products.clear()
        assert main(r.argv) == 0
        assert len(products) == expected[r.argv[0]], (r.doc.name, r.argv[0])
    capsys.readouterr()


def test_homology_multiplies_only_unmarked_complexes(monkeypatch):
    # verify_square_zero is the one writer of the d^2 mark: the checking
    # builders return marked complexes, which homology does not multiply
    # again; the tower of equivariant_differential (checked on its base
    # generators, not marked), a restriction, a rebuilt copy and a
    # hand-built complex are unmarked, so homology multiplies each once
    from cascadeho.cascades import build_ncc
    from cascadeho.morphisms import induced_chain_map

    marked, unmarked = [], []
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind == "autonomous":
            block = block_differential(sc.payload)
            marked += [block, egh_differential(sc.payload)]
            unmarked.append(ChainComplex(block.generators, block.differential))
            for k in (1, 2, 3):
                tower = equivariant_differential(sc.payload, k)
                unmarked += [tower, tower.restrict(range(len(tower.generators))),
                             hand_tower(sc.payload, k)]
        elif sc.kind == "mbs":
            marked.append(build_ncc(sc.payload))
        else:
            chain_map = induced_chain_map(sc.payload)
            marked += [chain_map.source_complex, chain_map.target_complex]
    assert (len(marked), len(unmarked)) == (4 * 2 + 4 + 2 * 2, 4 * 10)

    products = []
    original = IntMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    counts = []
    for complex_ in marked + unmarked:
        products.clear()
        homology(complex_)
        counts.append(len(products))
    assert counts == [0] * len(marked) + [1] * len(unmarked)


# --- the tower and its base pattern --------------------------------------------


def hand_tower(data, k):
    """R (x) 1 + B (x) S on the base generators times U^0..U^k, entry by
    entry from ``block_entries`` (R) and ``bv_operator`` (B); generator
    t * (k + 1) + u is t (x) U^u."""
    keys, base = chain_generators(data)
    step = k + 1
    gens = tuple(
        ChainGenerator(f"{g.gid}:U{u}", g.grading + 2 * u, g.homotopy_class,
                       g.action, g.orbit)
        for g in base for u in range(step)
    )
    entries = {}
    for (src, tgt), v in block_entries(data).items():
        for u in range(step):
            entries[(keys[tgt] * step + u, keys[src] * step + u)] = v
    for (t, s), v in bv_operator(data).entries.items():
        for u in range(1, step):
            entries[(t * step + u - 1, s * step + u)] = v
    n = len(gens)
    return ChainComplex(gens, IntMatrix(n, n, entries))


def u0_complement(data, tower):
    """The U^0 good check generators of ``tower`` by index, with their
    orbits, and the restriction of ``tower`` to the other generators."""
    u0 = {i: g.orbit for i, g in enumerate(tower.generators)
          if g.gid.startswith("check:") and g.gid.endswith(":U0")
          and data.orbit(g.orbit).good}
    return u0, tower.restrict([i for i in range(len(tower.generators)) if i not in u0])


def tower_report(data, k):
    """``compare_egh``'s four steps read off ``hand_tower``: its entries, its
    U^0 good check complement as a restriction, and its quotient onto the
    U^0 good check generators."""
    from cascadeho.autonomous import CompareReport, CompareStep

    tower = hand_tower(data, k)
    gens = tower.generators
    u0, sub = u0_complement(data, tower)
    entries = tower.differential.entries
    stable = 2 * k - 2
    leaks = [f"{gens[j].gid} -> {gens[i].gid}" for i, j in entries
             if i in u0 and j not in u0]
    bad = sorted({g for _cls, g in homology(sub).rationalize() if g <= stable})
    egh = egh_differential(data)
    order = [g.gid for g in egh.generators]
    quotient = {(u0[j], u0[i]): v for (i, j), v in entries.items()
                if i in u0 and j in u0}
    cylindrical = {(order[j], order[i]): v
                   for (i, j), v in egh.differential.entries.items()}
    mismatches = [
        f"({a},{b}): {quotient.get((a, b), 0)} != {cylindrical.get((a, b), 0)}"
        for a in order for b in order
        if quotient.get((a, b), 0) != cylindrical.get((a, b), 0)
    ]
    left = {key: v for key, v in homology(tower).rationalize().items()
            if key[1] <= stable}
    right = {key: v for key, v in homology(egh).rationalize().items()
             if key[1] <= stable}
    return CompareReport((
        CompareStep("complement of U^0 good check generators is a subcomplex",
                    not leaks, "; ".join(leaks[:3])),
        CompareStep("subcomplex is rationally acyclic in the stable range",
                    not bad, ", ".join(map(str, bad[:4]))),
        CompareStep("quotient differential equals the cylindrical differential",
                    not mismatches, "; ".join(mismatches[:3])),
        CompareStep("rationalised equivariant homology equals cylindrical homology",
                    left == right, "" if left == right else f"{left} != {right}"),
    ), stable)


def pattern_cases(monkeypatch):
    """(name, data): every autonomous fixture, both period-doubling sides,
    prequantization data for small g, e, d, and random triangulated
    surfaces from the benchmark generators with d = 1 and d = 2."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    generators = importlib.import_module("generators")
    cases = [(name, fixture(name).payload) for name in fixture_names()
             if fixture(name).kind == "autonomous"]
    cases += [("pd-minus", period_doubling("minus")),
              ("pd-plus-3", period_doubling("plus", 3))]
    cases += [(f"preq({g},{e},{d})", prequantization(g, e, d))
              for g in (1, 2) for e in (1, 2) for d in (1, 2)]
    rng = random.Random(41)
    for d in (1, 2):
        cases.append((f"torus3-d{d}", generators.surface(
            generators.torus_triangles(3), d, f"{d}T", rng)))
        cases.append((f"sphere-d{d}", generators.surface(
            generators.OCTAHEDRON, d, f"{d}S", rng)))
    return cases


def test_pattern_homology_matches_the_materialised_tower(monkeypatch):
    # chs1 and compare read the tower off windows of R + B; the tower built
    # entry by entry gives the same groups, torsion included, the same
    # truncation certificate and the same four compare steps; each command
    # reduces exactly the distinct blocks of the towers it reads, and
    # compare also each block of the EGH complex
    checked = 0
    for name, data in pattern_cases(monkeypatch):
        egh = egh_differential(data)
        lower = None
        for k in range(1, 13):
            tower = hand_tower(data, k)
            whole = homology(tower)
            towers = (tower,) if lower is None else (tower, lower)
            if lower is not None:
                cutoff = 2 * k - 4
                assert (homology(lower).restricted(cutoff)
                        == whole.restricted(cutoff)), (name, k)
            with monkeypatch.context() as patch:
                reductions = record_reductions(patch)
                result, stable = equivariant_homology(data, k)
                assert Counter(reductions) == Counter(distinct_blocks(*towers)), (
                    name, k)
                reductions.clear()
                report = compare_egh(data, k)
                _u0, sub = u0_complement(data, tower)
                assert Counter(reductions) == Counter(
                    [*distinct_blocks(sub, *towers), *blocks(egh)]), (name, k)
            assert (result.groups, stable) == (whole.groups, 2 * k - 2), (name, k)
            assert report == tower_report(data, k), (name, k)
            lower = tower
            checked += 1
    assert checked == (4 + 2 + 8 + 4) * 12


@pytest.mark.parametrize("broken", ["R^2", "RB+BR"])
def test_core_check_raises_the_whole_towers_witness(monkeypatch, broken):
    # "R^2": an extra check c -> hat c after an entry into check c, so
    # R^2 != 0 while RB + BR = 0 (no check -> hat entry enters RB + BR);
    # "RB+BR": an extra hat a -> check a on the good orbit of highest
    # action, so (RB + BR)[check a, check a] = d(a) and D^2 has it at
    # (check a U^0, check a U^1).  The validators reject both before any
    # assembly, so they are switched off to reach the d^2 check.
    monkeypatch.setattr(autonomous, "validate_data", lambda data: [])
    monkeypatch.setattr(autonomous, "_check_block_identities", lambda data, raw: None)
    cases = shifted = 0
    for name in fixture_names():
        if fixture(name).kind != "autonomous":
            continue
        data = copy.deepcopy(fixture(name).payload)
        if broken == "R^2":
            into_check = sorted(tgt for _src, tgt in block_entries(data)
                                if tgt[0] == "check")
            if not into_check:
                continue
            c = into_check[0][1]
            data.extra[(("check", c), ("hat", c))] = 1
        else:
            a = data.good_orbits()[0]
            data.extra[(("hat", a.oid), ("check", a.oid))] = 1
        for k in range(1, 6):
            with pytest.raises(SquareNonzero) as whole:
                verify_square_zero(hand_tower(data, k))
            with pytest.raises(SquareNonzero) as core:
                equivariant_differential(data, k)
            witness = (core.value.source, core.value.target, core.value.value)
            assert witness == (
                whole.value.source, whole.value.target, whole.value.value), (name, k)
            assert str(core.value) == str(whole.value)
            if broken == "R^2":
                assert witness[0].endswith(":U0") and witness[1].endswith(":U0")
            elif by_action(data.orbits)[0].oid == a.oid:
                # nothing enters hat a, so R^2 stays 0 in row check a
                assert witness == (f"check:{a.oid}:U1", f"check:{a.oid}:U0", a.d)
                shifted += 1
        cases += 1
    # R^2 breaks where an entry enters a check generator: autonomous-chain
    # and pd-plus; RB + BR breaks on every autonomous fixture, and on all
    # but pd-plus (whose highest orbit is bad) its witness is D^2's U^1 ->
    # U^0 entry
    assert cases == (2 if broken == "R^2" else 4)
    assert shifted == (0 if broken == "R^2" else 3 * 5)


def test_chs1_and_compare_multiply_no_matrix_larger_than_the_core(
        tmp_path, monkeypatch, capsys):
    # the tower's d^2 is checked as R^2 = 0 and RB + BR = 0 on the base
    # generators, and the EGH complex has one generator per good orbit: no
    # product on the chs1 or compare path is larger than the base, 2
    # generators per orbit, and product_sum sees no index beyond it
    from cascadeho import exact
    from cascadeho.cli import main

    requests, _docs = seed1_documents(tmp_path, monkeypatch)
    sizes, indices = [], []
    original, original_sum = IntMatrix.__mul__, exact.product_sum

    def recorded(self, other):
        sizes.append(max(self.rows, self.cols, other.rows, other.cols))
        return original(self, other)

    def recorded_sum(*terms):
        indices.extend(k for _sign, a, b in terms for key in (*a, *b) for k in key)
        return original_sum(*terms)

    monkeypatch.setattr(IntMatrix, "__mul__", recorded)
    for module in (exact, autonomous):
        monkeypatch.setattr(module, "product_sum", recorded_sum)
    checked = 0
    for r in requests:
        if r.argv[0] in ("chs1", "compare"):
            sizes.clear()
            indices.clear()
            assert main(r.argv) == 0
            base = 2 * len(r.doc.obj.orbits)
            assert sizes and max(sizes) == base, (r.doc.name, r.argv[0])
            assert indices and max(indices) < base, (r.doc.name, r.argv[0])
            checked += 1
    capsys.readouterr()
    assert checked == 6


def test_compare_validates_once(monkeypatch):
    calls = []
    original = autonomous.validate_data

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(autonomous, "validate_data", counting)
    assert compare_egh(fixture("preq-112").payload, 3).ok
    assert len(calls) == 1


def _scaled_egh(monkeypatch, factor):
    """Make ``compare_egh`` read a cylindrical differential scaled by ``factor``."""
    original = autonomous._egh_complex

    def scaled(data):
        c = original(data)
        n = len(c.generators)
        entries = {k: factor * v for k, v in c.differential.entries.items()}
        return ChainComplex(c.generators, IntMatrix(n, n, entries))

    monkeypatch.setattr(autonomous, "_egh_complex", scaled)
    return scaled


@pytest.mark.parametrize("factor", [-1, 0, 2])
def test_quotient_mismatches_read_as_the_pairwise_loop(tmp_path, monkeypatch, factor):
    # a cylindrical differential scaled by ``factor`` breaks step (iii); its
    # details list the pairs as a loop over good x good in the EGH generator
    # order (decreasing action, then id) does
    _requests, docs = seed1_documents(tmp_path, monkeypatch)
    data = docs["torus3-d1"].obj
    scaled = _scaled_egh(monkeypatch, factor)
    step = compare_egh(data, 2).steps[2]

    tower = equivariant_differential(data, 2)
    index = {g.gid: k for k, g in enumerate(tower.generators)}
    egh = scaled(data)
    cylindrical = {
        (egh.generators[j].gid, egh.generators[i].gid): v
        for (i, j), v in egh.differential.entries.items()
    }
    good = [o.oid for o in data.good_orbits()]
    expected = []
    for a in good:
        for b in good:
            q = tower.differential.get(index[f"check:{b}:U0"], index[f"check:{a}:U0"])
            e = cylindrical.get((a, b), 0)
            if q != e:
                expected.append(f"({a},{b}): {q} != {e}")
    assert len(expected) > 3
    assert not step.ok
    assert step.details == "; ".join(expected[:3])


def test_quotient_mismatches_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # the same failing step (iii) in fresh interpreters with different
    # string hashing reads the same
    import os
    import subprocess
    import sys

    _requests, docs = seed1_documents(tmp_path, monkeypatch)
    script = (
        "import sys, pytest, test_autonomous as t\n"
        "from cascadeho import serialize\n"
        "from cascadeho.autonomous import compare_egh\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    t._scaled_egh(mp, 2)\n"
        "    data = serialize.loads(open(sys.argv[1]).read())\n"
        "    print(compare_egh(data, 2).steps[2].details)\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script, docs["torus3-d1"].path],
                             env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] != "\n"


def test_generator_budget(monkeypatch):
    data = fixture("autonomous-chain").payload
    k = 3
    count = 2 * len(data.orbits) * (k + 1)
    monkeypatch.setattr(autonomous, "MAX_GENERATORS", count - 1)
    for build in (equivariant_differential, equivariant_homology, compare_egh):
        with pytest.raises(InputError, match=f"truncation K = {k} .--umax."):
            build(data, k)
    monkeypatch.setattr(autonomous, "MAX_GENERATORS", count)
    assert len(equivariant_differential(data, k).generators) == count
    assert compare_egh(data, k).ok
