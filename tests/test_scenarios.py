import pytest

from cascadeho.autonomous import (
    AutonomousData,
    block_differential,
    validate_data,
)
from cascadeho.errors import InputError, SquareNonzero, UnknownFixture
from cascadeho.mbs import MorseBottSystem, validate_system
from cascadeho.morphisms import MorphismData, validate_morphism
from cascadeho.scenarios import (
    CORRUPTION_CLASSES,
    all_mutations,
    fixture,
    fixture_names,
    mutations,
    period_doubling,
    prequantization,
)


def test_registry_contents():
    names = fixture_names()
    assert "one-interval" in names and "trivial-cobordism" in names
    with pytest.raises(UnknownFixture):
        fixture("does-not-exist")


def test_fixtures_are_deterministic():
    import cascadeho.serialize as serialize

    for name in fixture_names():
        assert serialize.dumps(fixture(name).payload) == serialize.dumps(
            fixture(name).payload
        )


def test_prequantization_shape():
    data = prequantization(2, 3, 1)
    assert len(data.orbits) == 6  # p, r, 4 saddles
    assert data.extra[(("check", "p"), ("hat", "r"))] == 3
    assert data.orbits["p"].homotopy_class == "1G"
    assert prequantization(1, 1, 2).extra[(("check", "p"), ("hat", "r"))] == 2


def test_prequantization_validates_over_grid():
    for g in (1, 2, 3):
        for e in (1, 2, 3):
            for d in (1, 2, 3, 4):
                data = prequantization(g, e, d)
                assert validate_data(data) == [], (g, e, d)
                block_differential(data)


def test_prequantization_rejects_nonpositive():
    with pytest.raises(InputError):
        prequantization(0, 1, 1)


def test_period_doubling_sides():
    minus = period_doubling("minus")
    assert list(minus.orbits) == ["E1"] and minus.orbits["E1"].d == 2
    plus = period_doubling("plus", 3)
    assert not plus.orbits["H1"].good and plus.orbits["e2"].good
    with pytest.raises(InputError):
        period_doubling("sideways")
    with pytest.raises(InputError):
        period_doubling("plus", 4)
    assert period_doubling("plus", 4, allow_even=True).extra[
        (("hat", "H1"), ("hat", "e2"))
    ] == 4


def _violations(payload):
    """The (code, location) sequence the payload's validator returns."""
    if isinstance(payload, MorseBottSystem):
        found = validate_system(payload)
    elif isinstance(payload, AutonomousData):
        found = validate_data(payload)
    else:
        assert isinstance(payload, MorphismData)
        found = validate_morphism(payload)
    return [(v.code, v.location) for v in found]


def _is_rejected(mutation):
    payload = mutation.payload
    if mutation.expect == "square-nonzero":
        try:
            block_differential(payload)
        except SquareNonzero:
            return True
        return False
    return mutation.expect in {code for code, _ in _violations(payload)}


def test_every_mutation_is_rejected():
    corpus = all_mutations()
    assert corpus
    for mutation in corpus:
        assert _is_rejected(mutation), (mutation.fixture, mutation.cls)


# every violation of every mutation, in order: a validator refactor must
# neither drop, add nor reorder one
VIOLATION_SEQUENCES = {
    ("autonomous-chain", "parity-break"): [("grading-parity", "v")],
    ("autonomous-chain", "extra-slot"): [("extra-slot", "extra(hat:w -> hat:y)")],
    ("autonomous-chain", "du-nondivisor"): [("du-divisibility", "mj1(w,y)")],
    ("autonomous-chain", "square-break"): [],
    ("autonomous-chain", "action-break"): [("action-axiom", "mj1(w,y)")],
    ("bad-circle", "parity-break"): [
        ("grading-parity", "b"),
        ("parity-axiom", "m1('B', 'b')"),
    ],
    ("bad-circle", "action-break"): [("action-axiom", "m1('B', 'b')")],
    ("bad-circle", "basepoint-collision"): [
        ("basepoint-collision", "B"),
        ("basepoint-nonregular", "m1('B', 'b')[0]"),
    ],
    ("bad-circle", "odd-winding-bad-circle"): [
        ("monodromy-parity", "m1('B', 'b')[0]"),
    ],
    ("morphism-interval", "label-sign-flip"): [
        ("label-sign-mismatch", "phi1('A', 'B')[0].end1"),
    ],
    ("morphism-interval", "label-eval-mismatch"): [
        ("label-eval-mismatch", "phi1('A', 'B')[0].end0"),
    ],
    ("morphism-interval", "missing-broken-pair"): [
        ("missing-broken-pair", "phi1('A', 'B')[0].end1"),
    ],
    ("morphism-interval", "action-break"): [
        ("action-axiom", "target:m0('Bp', 'B')"),
        ("action-axiom", "phi1('A', 'B')"),
        ("action-axiom", "phi1('G', 'B')"),
    ],
    ("morphism-interval", "parity-break"): [
        ("grading-parity", "target:B"),
        ("parity-axiom", "target:m0('Bp', 'B')"),
        ("parity-axiom", "phi1('A', 'B')"),
        ("parity-axiom", "phi1('G', 'B')"),
    ],
    ("one-bad-orbit", "parity-break"): [("grading-parity", "X")],
    ("one-circle", "parity-break"): [
        ("grading-parity", "b"),
        ("parity-axiom", "m1('g', 'b')"),
    ],
    ("one-circle", "action-break"): [("action-axiom", "m1('g', 'b')")],
    ("one-circle", "basepoint-collision"): [
        ("basepoint-collision", "g"),
        ("basepoint-nonregular", "m1('g', 'b')[0]"),
    ],
    ("one-interval", "parity-break"): [
        ("grading-parity", "beta"),
        ("parity-axiom", "m0('gammap', 'beta')"),
        ("parity-axiom", "m1('alpha', 'beta')"),
        ("parity-axiom", "m1('gamma', 'beta')"),
    ],
    ("one-interval", "action-break"): [
        ("action-axiom", "m0('gammap', 'beta')"),
        ("action-axiom", "m1('alpha', 'beta')"),
        ("action-axiom", "m1('gamma', 'beta')"),
    ],
    ("one-interval", "basepoint-collision"): [
        ("basepoint-collision", "alpha"),
        ("basepoint-nonregular", "m1('alpha', 'beta')[0]"),
    ],
    ("one-interval", "label-sign-flip"): [
        ("label-sign-mismatch", "m1('alpha', 'beta')[0].end0"),
    ],
    ("one-interval", "label-eval-mismatch"): [
        ("label-eval-mismatch", "m1('alpha', 'beta')[0].end0"),
    ],
    ("one-interval", "missing-broken-pair"): [
        ("missing-broken-pair", "m1('alpha', 'beta')[0].end0"),
    ],
    ("pd-minus", "parity-break"): [("grading-parity", "E1")],
    ("pd-plus", "parity-break"): [("grading-parity", "H1")],
    ("preq-112", "parity-break"): [("grading-parity", "p")],
    ("preq-112", "action-break"): [("action-axiom", "extra(check:p -> hat:r)")],
}


def test_violation_sequences_are_pinned():
    for name in fixture_names():
        assert _violations(fixture(name).payload) == [], name
    found = {}
    for mutation in all_mutations():
        key = (mutation.fixture, mutation.cls)
        assert key not in found, key
        found[key] = _violations(mutation.payload)
    assert found == VIOLATION_SEQUENCES


def test_mutation_corpus_covers_all_classes():
    seen = {m.cls for m in all_mutations()}
    assert seen == set(CORRUPTION_CLASSES)


def test_mutations_do_not_alter_the_fixture():
    base = fixture("one-interval")
    before = {pair: len(points) for pair, points in base.payload.m0.items()}
    mutations("one-interval")
    after = fixture("one-interval")
    assert {p: len(pts) for p, pts in after.payload.m0.items()} == before
    assert validate_system(after.payload) == []
