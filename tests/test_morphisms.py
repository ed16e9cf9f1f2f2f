import copy
import importlib.util
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cascadeho import cascades, mbs, morphisms, serialize
from cascadeho.cascades import build_ncc
from cascadeho.errors import ChainMapFailure, ValidationFailure
from cascadeho.exact import ChainComplex, ChainGenerator, IntMatrix
from cascadeho.mbs import assign_basepoints, validate_system
from cascadeho.morphisms import (
    MorphismData,
    PhiLabel,
    compose,
    induced_chain_map,
    trivial_cobordism,
    validate_morphism,
)
from cascadeho.scenarios import fixture, fixture_names


F = Fraction


def map_table(cm):
    return {
        (cm.source_complex.generators[j].gid, cm.target_complex.generators[i].gid): v
        for (i, j), v in cm.matrix.entries.items()
    }


# --- trivial cobordism ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["one-circle", "bad-circle", "one-interval", "one-bad-orbit"]
)
def test_trivial_cobordism_is_identity(name):
    sys_ = fixture(name).payload
    # each identity cylinder's pinned end lands on a basepoint, so moving the
    # basepoints puts the phi walk's tie-break at many positions
    for moved in [sys_] + [assign_basepoints(sys_, seed) for seed in range(1, 6)]:
        m = trivial_cobordism(moved)
        assert validate_morphism(m) == []
        cm = induced_chain_map(m)
        assert cm.is_identity()


def test_trivial_cobordism_composes_to_identity():
    sys_ = fixture("one-interval").payload
    first = trivial_cobordism(sys_)
    cm1 = induced_chain_map(first)
    cm2 = induced_chain_map(trivial_cobordism(first.target))
    stacked = compose(cm2, cm1)
    assert stacked.is_identity()
    assert stacked.matrix == cm2.matrix * cm1.matrix


def test_trivial_cobordism_into_a_coarser_grading_is_identity(tmp_path, capsys):
    # the source keeps integer gradings and the target reduces them mod 2;
    # the map's entries must not be compared across the two conventions
    from cascadeho.cli import main

    m = trivial_cobordism(fixture("one-interval").payload)
    m.target.grading_modulus = 2
    assert induced_chain_map(m).is_identity()
    path = tmp_path / "tc.json"
    path.write_text(serialize.dumps(m))
    capsys.readouterr()
    assert main(["morphism", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["identity"] is True


def identity_by_matrix(cm):
    """``ChainMap.is_identity`` as it compared the matrix with a built
    identity matrix and the two generator lists' ids."""
    n = len(cm.source_complex.generators)
    return cm.matrix == IntMatrix.identity(n) and [
        g.gid for g in cm.source_complex.generators
    ] == [g.gid for g in cm.target_complex.generators]


def test_is_identity_matches_the_identity_matrix():
    def complex_(*gids):
        gens = tuple(ChainGenerator(gid, 0) for gid in gids)
        return ChainComplex(gens, IntMatrix(len(gens), len(gens), {}))

    abc, ab, xyz = complex_("a", "b", "c"), complex_("a", "b"), complex_("x", "y", "z")
    empty = complex_()
    diagonal = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    cases = [
        (abc, abc, diagonal, True),
        (empty, empty, {}, True),
        (abc, ab, {(0, 0): 1, (1, 1): 1}, False),  # not square
        (ab, abc, {(0, 0): 1, (1, 1): 1}, False),
        (abc, abc, diagonal | {(1, 1): -1}, False),
        (abc, abc, diagonal | {(2, 2): 2}, False),
        (abc, abc, {(0, 0): 1, (2, 2): 1}, False),  # a missing diagonal entry
        (abc, abc, diagonal | {(0, 2): 1}, False),  # an extra entry
        (abc, abc, diagonal | {(2, 1): -3}, False),
        (abc, xyz, diagonal, False),  # equal matrices, other generator names
        (abc, abc, {}, False),
        (empty, abc, {}, False),
    ]
    for source, target, entries, expected in cases:
        matrix = IntMatrix(len(target.generators), len(source.generators), entries)
        cm = morphisms.ChainMap(source, target, matrix)
        assert cm.is_identity() == identity_by_matrix(cm) == expected, entries
    for name in fixture_names():
        doc = fixture(name).payload
        if isinstance(doc, MorphismData):
            cm = induced_chain_map(doc)
            assert cm.is_identity() == identity_by_matrix(cm), name


def test_compose_rejects_mismatched_middle():
    cm1 = induced_chain_map(trivial_cobordism(fixture("one-circle").payload))
    cm2 = induced_chain_map(trivial_cobordism(fixture("one-interval").payload))
    with pytest.raises(ValueError):
        compose(cm2, cm1)


# --- hand-built morphism with phi0 and phi1 pieces --------------------------


def test_morphism_interval_fixture():
    sc = fixture("morphism-interval")
    m = sc.payload
    assert validate_morphism(m) == []
    cm = induced_chain_map(m)
    assert map_table(cm) == sc.expected["map"]
    assert not cm.is_identity()  # different generator names


def test_morphism_gradings_preserved():
    m = fixture("morphism-interval").payload
    cm = induced_chain_map(m)
    for (i, j), _v in cm.matrix.entries.items():
        src = cm.source_complex.generators[j]
        tgt = cm.target_complex.generators[i]
        assert src.grading == tgt.grading
        assert src.homotopy_class == tgt.homotopy_class


def test_chain_map_failure_witness(monkeypatch):
    m = fixture("morphism-interval").payload
    # flipping the source flow-line sign changes d_src but not the map
    m.source.m0[("A", "G")][0] = replace(m.source.m0[("A", "G")][0], sign=-1)
    monkeypatch.setattr(morphisms, "validate_morphism", lambda _m, _tables=None: [])
    with pytest.raises(ChainMapFailure) as err:
        induced_chain_map(m)
    assert err.value.source == "hat:A"
    assert err.value.target == "check:B"
    assert err.value.value != 0


def test_phi_label_mutations_rejected():
    base = fixture("morphism-interval").payload

    flipped = copy.deepcopy(base)
    flipped.target.m0[("Bp", "B")][0] = replace(
        flipped.target.m0[("Bp", "B")][0], sign=-1
    )
    codes = {v.code for v in validate_morphism(flipped)}
    assert "label-sign-mismatch" in codes

    retargeted = copy.deepcopy(base)
    comp = retargeted.phi1[("A", "B")][0]
    labels = dict(comp.boundary_labels)
    labels[0] = replace(labels[0], t=F(1, 2))
    retargeted.phi1[("A", "B")][0] = replace(comp, boundary_labels=labels)
    codes = {v.code for v in validate_morphism(retargeted)}
    assert "label-fiber-mismatch" in codes

    wrong_kind = copy.deepcopy(base)
    comp = wrong_kind.phi1[("A", "B")][0]
    labels = dict(comp.boundary_labels)
    labels[0] = PhiLabel("sideways", "G", 1, 0, 0, F(34, 35))
    wrong_kind.phi1[("A", "B")][0] = replace(comp, boundary_labels=labels)
    codes = {v.code for v in validate_morphism(wrong_kind)}
    assert "bad-label" in codes


def test_open_phi_circle_over_good_orbits_rejected():
    # G and B are good, so no winding enters the monodromy parity; the lift
    # must still close up
    m = fixture("morphism-interval").payload
    comp = m.phi1[("G", "B")][0]
    *head, (_tn, _td, vn, vd) = comp.e_plus_lift
    m.phi1[("G", "B")][0] = replace(
        comp, e_plus_lift=(*head, (F(1), F(vn, vd) + F(1, 3)))
    )
    assert m.source.orbit("G").good and m.target.orbit("B").good
    found = {(v.code, v.location) for v in validate_morphism(m)}
    assert ("circle-not-closed", "phi1('G', 'B')[0]") in found
    # an open circle still gets the remaining component checks, as in a system
    labelled = replace(m.phi1[("G", "B")][0],
                       boundary_labels=dict(m.phi1[("A", "B")][0].boundary_labels))
    m.phi1[("G", "B")][0] = labelled
    _tn, _td, vn, vd = labelled.e_plus_lift[0]
    m.source.basepoints["G"] = F(vn, vd)
    found = [(v.code, v.location) for v in validate_morphism(m)
             if v.location == "phi1('G', 'B')[0]"]
    assert found == [
        ("circle-not-closed", "phi1('G', 'B')[0]"),
        ("circle-with-labels", "phi1('G', 'B')[0]"),
        ("basepoint-nonregular", "phi1('G', 'B')[0]"),
    ]


def test_morphism_grading_gap_enforced():
    m = fixture("morphism-interval").payload
    # a phi1 family must connect equal gradings (index dim - 1)
    m.target.orbits["B"] = replace(m.target.orbits["B"], grading=-1, parity=1)
    codes = {v.code for v in validate_morphism(m)}
    assert "grading-axiom" in codes


def test_action_increase_rejected_without_waiver():
    sys_ = fixture("one-circle").payload
    m = trivial_cobordism(sys_)
    m.allow_equal_action = set()
    codes = {v.code for v in validate_morphism(m)}
    assert "action-axiom" in codes


def test_induced_map_validates_by_default():
    m = fixture("morphism-interval").payload
    m.target.orbits["B"] = replace(m.target.orbits["B"], parity=0)
    with pytest.raises(ValidationFailure):
        induced_chain_map(m)


def test_chain_map_commutes_on_all_morphism_fixtures():
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind != "morphism":
            continue
        cm = induced_chain_map(sc.payload)
        lhs = cm.target_complex.differential * cm.matrix
        rhs = cm.matrix * cm.source_complex.differential
        assert lhs == rhs, name


def test_trivial_cobordism_source_complex_matches_build_ncc():
    sys_ = fixture("one-interval").payload
    cm = induced_chain_map(trivial_cobordism(sys_))
    direct = build_ncc(sys_)
    assert cm.source_complex.differential == direct.differential
    assert [g.gid for g in cm.source_complex.generators] == [
        g.gid for g in direct.generators
    ]


def test_each_graph_asks_each_pinned_query_once(monkeypatch):
    sys_ = fixture("one-interval").payload
    m = trivial_cobordism(sys_)
    queries = []  # every mbs.component_preimages call outside the walk
    asked = []  # (graph, component, side) per query a walk makes
    graphs = []
    init, query = cascades.CascadeGraph.__init__, mbs.component_preimages

    def counted_init(self):
        graphs.append(self)
        init(self)

    def counted_query(*args):
        queries.append(args)
        return query(*args)

    def counted_walk_query(comp, side, q, top, bottom):
        # a component lies on one edge: this names (edge, component, side)
        asked.append((len(graphs), id(comp), side))
        return query(comp, side, q, top, bottom)

    monkeypatch.setattr(cascades.CascadeGraph, "__init__", counted_init)
    monkeypatch.setattr(mbs, "component_preimages", counted_query)
    monkeypatch.setattr(cascades, "component_preimages", counted_walk_query)
    assert validate_system(sys_) == []
    assert validate_morphism(m) == []
    assert queries == asked == []
    build_ncc(sys_)
    induced_chain_map(m)
    assert queries == []
    assert len(graphs) == 2
    assert len(set(asked)) == len(asked) > 0


def _bench_module(name):
    # bench/ is not a package; load its module by path
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"cascadeho_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_lifts(seed, workload="cobordism"):
    """The lifts behind the ``cobordism`` (or ``mbs-lift``) workload's
    documents for ``seed``: the rng draws surface data in this order, then
    lifts each."""
    gen = _bench_module("generators")
    rng = random.Random(seed)
    surfaces = [(gen.torus_triangles(3), 1, "1T"), (gen.OCTAHEDRON, 1, "1S"),
                (gen.OCTAHEDRON, 2, "2S")]
    if workload == "mbs-lift":
        rng.randrange(1, 1 << 30)  # the seed of its --basepoints requests
        surfaces.insert(1, (gen.torus_triangles(3), 2, "2T"))
    data = [gen.surface(*surface, rng) for surface in surfaces]
    data.append(gen.prequantization_shuffled(24, 1, 2, rng))
    return [gen.lift_to_mbs(d, rng) for d in data]


def test_one_morphism_walks_one_graph_and_asks_each_query_once(monkeypatch):
    systems = [fixture(n).payload for n in fixture_names() if fixture(n).kind == "mbs"]
    systems += _bench_lifts(seed=1)
    graphs, calls = [], []
    init, query = cascades.CascadeGraph.__init__, cascades.component_preimages

    def counted_init(self):
        graphs.append(self)
        init(self)

    def counted_query(comp, side, q, top, bottom):
        calls.append((id(comp), side, q, top, bottom))
        return query(comp, side, q, top, bottom)

    monkeypatch.setattr(cascades.CascadeGraph, "__init__", counted_init)
    monkeypatch.setattr(cascades, "component_preimages", counted_query)
    asked = []
    for sys_ in systems:
        m = trivial_cobordism(sys_)
        assert validate_morphism(m) == []
        graphs.clear()
        calls.clear()
        cm = induced_chain_map(m)
        assert len(graphs) == 1
        assert len(calls) == len(set(calls)) > 0
        asked.append(len(calls))
        assert cm.is_identity()
        for complex_, sys_side in ((cm.source_complex, m.source),
                                   (cm.target_complex, m.target)):
            direct = build_ncc(sys_side)
            assert complex_.generators == direct.generators
            assert complex_.differential.entries == direct.differential.entries
            assert complex_.grading_modulus == direct.grading_modulus
    # the torus(3, 1) lift has 540 distinct queries
    assert asked[-4] == 540


# --- basepoint changes at one or both ends of a trivial cobordism -----------

# a change of basepoint changes only the trivialisations, so the trivial
# cobordism between two basepoint choices must induce an isomorphism
RESEEDS = {
    "source": lambda m, s: replace(m, source=assign_basepoints(m.source, s)),
    "target": lambda m, s: replace(m, target=assign_basepoints(m.target, s)),
    "both": lambda m, s: replace(m, source=assign_basepoints(m.source, s),
                                 target=assign_basepoints(m.target, s + 8)),
}
BENCH_LIFTS = ("1T", "1S", "2S", "preq")


def _reseed_base(name):
    if name.startswith("bench-"):
        return _bench_lifts(seed=1)[BENCH_LIFTS.index(name[6:])]
    return fixture(name).payload


def reseeded_cobordisms(sys_):
    """The trivial cobordism over ``sys_`` with new basepoints at its source,
    its target or both ends, for seeds 1-8: (end, seed, morphism)."""
    m = trivial_cobordism(sys_)
    return [(end, seed, reseed(m, seed))
            for end, reseed in RESEEDS.items() for seed in range(1, 9)]


def assert_unitriangular(cm):
    """Each orbit's check -> check and hat -> hat entries are +1 and every
    other entry goes to a generator of strictly lower action: the map is
    unitriangular, so an isomorphism over Z."""
    src, tgt = cm.source_complex.generators, cm.target_complex.generators
    assert [g.gid for g in src] == [g.gid for g in tgt]
    diagonal = []
    for (i, j), value in sorted(cm.matrix.entries.items()):
        if i == j:
            assert value == 1, src[j].gid
            diagonal.append(j)
        else:
            assert tgt[i].action < src[j].action, (src[j].gid, tgt[i].gid, value)
    assert diagonal == list(range(len(src)))


@pytest.mark.parametrize(
    "name", ["one-circle", "one-interval"] + [f"bench-{n}" for n in BENCH_LIFTS])
def test_reseeded_trivial_cobordism_is_unitriangular(name):
    for end, seed, m in reseeded_cobordisms(_reseed_base(name)):
        try:
            assert_unitriangular(induced_chain_map(m))
        except AssertionError as err:
            raise AssertionError(f"{name}, {end} reseeded with seed {seed}") from err


@pytest.mark.xfail(strict=True, raises=ChainMapFailure,
                   reason="ROADMAP item 2: reseeding one end of a trivial "
                          "cobordism over a bad orbit gives no chain map")
@pytest.mark.parametrize("end", list(RESEEDS))
@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name", ["bad-circle", "one-bad-orbit"])
def test_reseeded_trivial_cobordism_over_a_bad_orbit(name, seed, end):
    m = RESEEDS[end](trivial_cobordism(fixture(name).payload), seed)
    assert_unitriangular(induced_chain_map(m))


def _entry_product(a, b):
    """The product of two (row, column) entry dicts, every pair of entries
    tried: a product of its own, sharing no code with ``exact``."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return out


def _two_product_witness(m):
    """The witness of the chain-map identity as it was first computed: both
    products d_tgt . phi and phi . d_src in full, diffed over the union of
    their keys, least (row, column) first.  (source gid, target gid, value),
    or None when the identity holds."""
    src, tgt = mbs.orbit_tables(m.source, m.target)
    src_keys, src_gens = cascades.chain_generators(m.source, src.action, cascades.SRC)
    tgt_keys, tgt_gens = cascades.chain_generators(m.target, tgt.action, cascades.TGT)
    graph = cascades.CascadeGraph.of_cobordism(m.source, m.target, m.phi0, m.phi1,
                                               [src.point, tgt.point])
    (d_tgt,) = cascades.sum_columns(graph, tgt_keys, [tgt_keys])
    d_src, phi = cascades.sum_columns(graph, src_keys, [src_keys, tgt_keys])
    lhs, rhs = _entry_product(d_tgt, phi), _entry_product(phi, d_src)
    diff = {key: lhs.get(key, 0) - rhs.get(key, 0) for key in lhs.keys() | rhs.keys()}
    diff = {key: value for key, value in diff.items() if value}
    if not diff:
        return None
    i, j = min(diff)
    return src_gens[j].gid, tgt_gens[i].gid, diff[(i, j)]


def _failing_cobordisms(case):
    if case == "one-interval-flipped":
        # each identity cylinder in turn with its orientation reversed
        m = trivial_cobordism(fixture("one-interval").payload)
        for pair, (comp,) in m.phi1.items():
            flipped = replace(comp, sign_start=-comp.sign_start)
            yield pair, replace(m, phi1={**m.phi1, pair: [flipped]})
    else:
        # ROADMAP item 2's defect: only the target reseeded over a bad orbit
        for seed in range(1, 9):
            yield seed, RESEEDS["target"](trivial_cobordism(fixture(case).payload), seed)


@pytest.mark.parametrize("case", ["bad-circle", "one-bad-orbit", "one-interval-flipped"])
def test_chain_map_failure_names_the_two_product_witness(case):
    # the product_sum check of induced_chain_map names the same least entry,
    # with the same value, as two full products formed in this file
    for label, m in _failing_cobordisms(case):
        expected = _two_product_witness(m)
        assert expected is not None, label
        with pytest.raises(ChainMapFailure) as info:
            induced_chain_map(m)
        err = info.value
        assert (err.source, err.target, err.value) == expected, label


@pytest.mark.parametrize("name", ["morphism-interval", "one-interval"])
def test_morphism_squares_twice_and_checks_the_identity_once(
        name, tmp_path, monkeypatch, capsys):
    # a morphism squares its two complexes (two IntMatrix products) and
    # checks d_tgt . phi = phi . d_src with one two-term product_sum, the
    # kernel both reach through their own module's binding
    from cascadeho import autonomous, exact
    from cascadeho.cli import main

    doc = fixture(name).payload
    if name == "one-interval":
        doc = trivial_cobordism(doc)
    path = tmp_path / "phi.json"
    path.write_text(serialize.dumps(doc))
    products, sums = [], []
    original, original_sum = IntMatrix.__mul__, exact.product_sum

    def counted(self, other):
        products.append(1)
        return original(self, other)

    def counted_sum(*terms):
        sums.append(len(terms))
        return original_sum(*terms)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    for module in (exact, autonomous, morphisms):
        monkeypatch.setattr(module, "product_sum", counted_sum)
    assert main(["morphism", str(path)]) == 0
    capsys.readouterr()
    assert len(products) == 2
    assert sorted(sums) == [1, 1, 2]
