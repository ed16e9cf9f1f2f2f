from fractions import Fraction

import pytest

from cascadeho import cascades, serialize
from cascadeho.cascades import (
    CascadeGraph,
    build_ncc,
    enumerate_cascades,
    nch_homology,
)
from cascadeho.cli import main
from cascadeho.errors import InputError, NonGenericConfiguration, ValidationFailure
from cascadeho.exact import verify_square_zero
from cascadeho.mbs import (
    MorseBottSystem, Orbit, PLComponent, SignedPoint, assign_basepoints,
    component_preimages, cyclically_ordered, orbit_tables, scaled_actions, validate_system,
)
from cascadeho.morphisms import (
    MorphismData, induced_chain_map, trivial_cobordism, validate_morphism,
)
from cascadeho.scenarios import fixture, fixture_names
from test_morphisms import BENCH_LIFTS, _bench_lifts, reseeded_cobordisms


F = Fraction


def _action(sys_):
    """The scaled action table of ``sys_``, as one request makes it."""
    (action,) = scaled_actions(sys_.orbits)
    return action


def _system_graph(sys_):
    """The cascade graph of ``sys_``, on its basepoint keys as one request
    makes them."""
    (table,) = orbit_tables(sys_)
    return CascadeGraph.of_system(sys_, table.point)


def _cobordism_graph(m):
    """The cascade graph of the cobordism ``m``, on the basepoint keys of
    both layers as one request makes them."""
    points = [table.point for table in orbit_tables(m.source, m.target)]
    return CascadeGraph.of_cobordism(m.source, m.target, m.phi0, m.phi1, points)


def differential_table(sys_):
    cx = build_ncc(sys_)
    return {
        (cx.generators[j].gid, cx.generators[i].gid): val
        for (i, j), val in cx.differential.entries.items()
    }


def cascades_between(sys_, src, dst):
    """The cascades of src's column that end at dst, both (flavor, orbit)."""
    graph = _system_graph(sys_)
    return [c for c in enumerate_cascades(graph, src) if graph.key(c.row) == dst]


def test_one_interval_differential_matches_hand_computation():
    sc = fixture("one-interval")
    assert differential_table(sc.payload) == sc.expected["differential"]


def test_one_circle_windings_give_coefficients():
    sc = fixture("one-circle")
    assert differential_table(sc.payload) == {
        ("check:g", "check:b"): 2,
        ("hat:g", "hat:b"): -1,
    }


def test_bad_orbit_diagonal_is_minus_two():
    table = differential_table(fixture("one-bad-orbit").payload)
    assert table == {("hat:X", "check:X"): -2}
    cascades = cascades_between(
        fixture("one-bad-orbit").payload, ("hat", "X"), ("check", "X")
    )
    assert [c.weight for c in cascades] == [-1, -1]


def test_good_orbit_has_no_diagonal():
    sys_ = fixture("one-circle").payload
    assert cascades_between(sys_, ("hat", "g"), ("check", "g")) == []


def test_square_zero_on_all_mbs_fixtures():
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind == "mbs":
            verify_square_zero(build_ncc(sc.payload))


def test_homology_independent_of_basepoints():
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind != "mbs":
            continue
        reference = nch_homology(sc.payload).groups
        for seed in range(1, 6):
            moved = assign_basepoints(sc.payload, seed=seed)
            assert nch_homology(moved).groups == reference, (name, seed)


def test_differential_not_basepoint_independent_but_homology_is():
    """Moving basepoints can change individual coefficients; only the
    homology is invariant."""
    sc = fixture("one-interval")
    tables = set()
    for seed in range(1, 6):
        moved = assign_basepoints(sc.payload, seed=seed)
        tables.add(tuple(sorted(differential_table(moved).items())))
    assert len(tables) >= 1  # at least computes; often several distinct


def test_action_bound_truncation():
    sc = fixture("one-interval")
    h = nch_homology(sc.payload, action_bound=F(7, 2))
    # only beta, gammap, gamma survive below the bound
    assert h.group("c", 3) == (1, ())
    assert h.group("c", 2) == (2, ())
    assert h.group("c", 1) == (1, ())
    assert h.group("c", 0) == (0, ())


def nongeneric_system(e_plus_bc=F(2, 5)):
    # with e_plus_bc = 2/5, e_minus of the first piece coincides with e_plus
    # of the second at the intermediate orbit: the cyclic-order test is
    # undefined
    return MorseBottSystem(
        orbits={
            "A": Orbit("A", 1, 0, True, F(3), "", 0),
            "B": Orbit("B", 1, 0, True, F(2), "", 0),
            "C": Orbit("C", 1, 0, True, F(1), "", 0),
        },
        m0={
            ("A", "B"): [SignedPoint(F(1, 5), F(2, 5), 1)],
            ("B", "C"): [SignedPoint(e_plus_bc, F(1, 2), 1)],
        },
    )


COINCIDENCE_AT_B = (
    "coincident circle points at intermediate B (m0('B', 'C')[0]): "
    "points not distinct: 0, 2/5 (eps 0), 2/5 (eps 0)"
)


def test_nongeneric_configuration_raises():
    with pytest.raises(NonGenericConfiguration):
        build_ncc(nongeneric_system())


def test_nongeneric_configuration_named_per_system_in_a_morphism():
    # a coincidence among the pieces of one system reads the same whether
    # build_ncc or the one graph of a morphism meets it
    with pytest.raises(NonGenericConfiguration) as err:
        build_ncc(nongeneric_system())
    assert str(err.value) == COINCIDENCE_AT_B
    with pytest.raises(NonGenericConfiguration) as err:
        induced_chain_map(trivial_cobordism(nongeneric_system()))
    assert str(err.value) == COINCIDENCE_AT_B
    # only the target system is nongeneric
    m = trivial_cobordism(nongeneric_system(e_plus_bc=F(3, 5)))
    m.target.m0[("B", "C")] = nongeneric_system().m0[("B", "C")]
    with pytest.raises(NonGenericConfiguration) as err:
        induced_chain_map(m)
    assert str(err.value) == COINCIDENCE_AT_B


COINCIDENCE_ACROSS_LAYERS = (
    "coincident circle points at intermediate ('tgt', 'B') "
    "(m0(('tgt', 'B'), ('tgt', 'C'))[0]): "
    "points not distinct: 0, 2/5 (eps 0), 2/5 (eps 0)"
)


def across_layers():
    """The phi0 point A -> B ends where the target's m0 point B -> C starts."""
    source = MorseBottSystem(orbits={"A": Orbit("A", 1, 0, True, F(3), "", 0)})
    target = MorseBottSystem(
        orbits={
            "B": Orbit("B", 1, 1, True, F(2), "", 1),
            "C": Orbit("C", 1, 1, True, F(1), "", 1),
        },
        m0={("B", "C"): [SignedPoint(F(2, 5), F(1, 2), 1)]},
    )
    return MorphismData(source, target,
                        phi0={("A", "B"): [SignedPoint(F(1, 5), F(2, 5), 1)]})


def test_nongeneric_configuration_across_layers_keeps_layer_names():
    # the coincidence is met at a target node by a walk from the source
    # layer, so the graph's node keys name it
    m = across_layers()
    assert validate_morphism(m) == []
    with pytest.raises(NonGenericConfiguration) as err:
        induced_chain_map(m)
    assert str(err.value) == COINCIDENCE_ACROSS_LAYERS


def _fan(m):
    """m points on A -> B and m on B -> C, every pair in cyclic order at B:
    the walk from hat:A extends m + m^2 partial chains, every other walk
    fewer."""
    return MorseBottSystem(
        orbits={
            "A": Orbit("A", 1, 0, True, F(3), "", 0),
            "B": Orbit("B", 1, 0, True, F(2), "", 0),
            "C": Orbit("C", 1, 0, True, F(1), "", 0),
        },
        m0={
            ("A", "B"): [SignedPoint(F(k, 4 * m + 1), F(k, 2 * m + 1), 1)
                         for k in range(1, m + 1)],
            ("B", "C"): [SignedPoint(F(m + k, 2 * m + 1), F(k, 4 * m + 3), 1)
                         for k in range(1, m + 1)],
        },
    )


def test_partial_chain_budget(monkeypatch, tmp_path, capsys):
    m = 4
    sys_ = _fan(m)
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m)
    assert build_ncc(sys_).differential.entries
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m - 1)
    with pytest.raises(InputError, match="from hat:A extends more than 19 "):
        build_ncc(sys_)
    path = tmp_path / "fan.json"
    path.write_text(serialize.dumps(sys_))
    assert main(["nch", str(path)]) == 3
    assert "hat:A" in capsys.readouterr().err


def test_partial_chain_budget_in_a_cobordism_layer(monkeypatch, tmp_path, capsys):
    # the walk from hat:A over the target layer extends the same m + m^2
    # chains as over the system alone, and its message names the layer
    m = 4
    cobordism = trivial_cobordism(_fan(m))
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m)
    assert induced_chain_map(cobordism).matrix.entries
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m - 1)
    with pytest.raises(InputError) as err:
        induced_chain_map(cobordism)
    assert str(err.value) == (
        "the cascade walk from hat:A (tgt layer) extends more than 19 partial chains")
    path = tmp_path / "fan-cobordism.json"
    path.write_text(serialize.dumps(cobordism))
    assert main(["morphism", str(path)]) == 3
    assert "hat:A (tgt layer)" in capsys.readouterr().err


def _cobordism_keys(m):
    """The generator keys of ``m``'s graph in the order ``induced_chain_map``
    walks them: target columns, then source columns."""
    return [key for layer, sys_ in ((cascades.TGT, m.target), (cascades.SRC, m.source))
            for key in cascades.chain_generators(sys_, _action(sys_), layer)[0]]


def _walk_error(graph, keys, trails):
    """The text of the first error the walks from ``keys`` raise."""
    with pytest.raises((InputError, NonGenericConfiguration)) as err:
        for key in keys:
            enumerate_cascades(graph, key, trails=trails)
    return str(err.value)


def test_both_forms_raise_the_same_errors(monkeypatch):
    # the budget at m + m^2 passes and one less raises, in a system and in a
    # cobordism's target layer, with the same message in both forms
    m = 4
    fan = _fan(m)
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m)
    for trails in (True, False):
        assert enumerate_cascades(_system_graph(fan), ("hat", "A"), trails)
    monkeypatch.setattr(cascades, "MAX_PARTIAL_CHAINS", m + m * m - 1)
    cobordism = trivial_cobordism(fan)
    graphs = [
        (_system_graph(fan), [("hat", "A")],
         "the cascade walk from hat:A extends more than 19 partial chains"),
        (_cobordism_graph(cobordism),
         [("hat", (cascades.TGT, "A"))],
         "the cascade walk from hat:A (tgt layer) extends more than 19 partial chains"),
    ]
    # the pinned coincidences, in one system and across a cobordism's layers
    sys_ = nongeneric_system()
    graphs.append((_system_graph(sys_), cascades.chain_generators(sys_, _action(sys_))[0],
                   COINCIDENCE_AT_B))
    m = across_layers()
    graphs.append((_cobordism_graph(m),
                   _cobordism_keys(m), COINCIDENCE_ACROSS_LAYERS))
    for graph, keys, message in graphs:
        assert _walk_error(graph, keys, True) == _walk_error(graph, keys, False) == message


def closing_system(e_minus_ab=F(3, 4)):
    """With e_minus_ab = 3/4, the m0 point A -> B arrives at B where the
    e_minus-pinned crossing of the circle B -> C leaves it: the coincidence
    is met in the walk's closing loop, not on an m0 step."""
    lift = ((F(0), F(1, 4)), (F(1), F(5, 4))), ((F(0), F(1, 2)), (F(1), F(3, 2)))
    return MorseBottSystem(
        orbits={
            "A": Orbit("A", 1, 0, True, F(3), "", 0),
            "B": Orbit("B", 1, 0, True, F(2), "", 0),
            "C": Orbit("C", 1, 1, True, F(1), "", -1),
        },
        m0={("A", "B"): [SignedPoint(F(1, 5), e_minus_ab, 1)]},
        m1={("B", "C"): [PLComponent("circle", 1, *lift)]},
    )


COINCIDENCE_CLOSING = (
    "coincident circle points at intermediate B (pre-minus('B', 'C')[0]): "
    "points not distinct: 0, 3/4 (eps 0), 3/4 (eps 0)"
)


def test_a_coincidence_in_the_closing_loop_keeps_its_text():
    # the closing e_minus-pinned crossing names its piece as pre-minus, in
    # build_ncc, in a trivial cobordism, in a morphism whose target alone is
    # nongeneric, and in both forms of the walk
    sys_ = closing_system()
    assert validate_system(sys_) == []
    only_target = trivial_cobordism(closing_system(e_minus_ab=F(3, 5)))
    only_target.target.m0[("A", "B")] = sys_.m0[("A", "B")]
    assert validate_morphism(only_target) == []
    for build, doc in ((build_ncc, sys_), (induced_chain_map, trivial_cobordism(sys_)),
                       (induced_chain_map, only_target)):
        with pytest.raises(NonGenericConfiguration) as err:
            build(doc)
        assert str(err.value) == COINCIDENCE_CLOSING
    m = only_target
    graphs = [(_system_graph(sys_), cascades.chain_generators(sys_, _action(sys_))[0]),
              (_cobordism_graph(m),
               _cobordism_keys(m))]
    for graph, keys in graphs:
        assert _walk_error(graph, keys, True) == _walk_error(graph, keys, False) \
            == COINCIDENCE_CLOSING


def test_counting_builds_no_cascade(monkeypatch):
    # build_ncc and induced_chain_map walk in the count form: not one
    # Cascade, so not one trail, is made for a fixture or its cobordism
    def refuse(_fields):
        raise AssertionError("a Cascade was built while counting")

    monkeypatch.setattr(cascades, "_cascade", refuse)
    for name in ("one-interval", "bad-circle"):
        sys_ = fixture(name).payload
        assert build_ncc(sys_).differential.entries
        assert induced_chain_map(trivial_cobordism(sys_)).is_identity()
    with pytest.raises(AssertionError, match="while counting"):
        enumerate_cascades(_system_graph(sys_), ("hat", "B"))


def test_build_ncc_rejects_invalid_system():
    sys_ = fixture("one-circle").payload
    sys_.orbits["b"] = Orbit("b", 1, 1, True, F(1), "", 0)  # parity break
    with pytest.raises(ValidationFailure) as err:
        build_ncc(sys_)
    assert any(v.code == "parity-axiom" for v in err.value.violations)


def test_unvalidated_cross_class_coefficients_fail_loudly(monkeypatch):
    # with the validator bypassed, the walk still counts the chains from g to
    # a b of another class, and the structure check rejects them instead of
    # a guard dropping them into an empty differential
    from dataclasses import replace

    from cascadeho import mbs

    sys_ = fixture("one-circle").payload
    sys_.orbits["b"] = replace(sys_.orbits["b"], homotopy_class="x")
    for module in (mbs, cascades):
        monkeypatch.setattr(module, "validate_system", lambda _sys, _table=None: [],
                            raising=False)
    with pytest.raises(ValidationFailure) as err:
        build_ncc(sys_)
    assert [(v.code, v.location) for v in err.value.violations] == [
        ("structure", "class: <d check:g, check:b> = 2"),
        ("structure", "class: <d hat:g, hat:b> = -1"),
    ]


def test_parity_graded_system():
    sys_ = MorseBottSystem(
        orbits={
            "g": Orbit("g", 1, 1, True, F(2)),
            "b": Orbit("b", 1, 0, True, F(1)),
        },
        m0={("g", "b"): []},
        grading_modulus="parity",
    )
    cx = build_ncc(sys_)
    gradings = {g.gid: g.grading for g in cx.generators}
    assert gradings == {"check:g": 1, "hat:g": 0, "check:b": 0, "hat:b": 1}
    assert cx.grading_modulus == 2


def test_cascade_pieces_recorded():
    sys_ = fixture("one-interval").payload
    cascades = cascades_between(sys_, ("check", "alpha"), ("check", "beta"))
    assert len(cascades) == 1
    (c,) = cascades
    assert c.weight == -1
    kind, pair, ci, t = c.pieces[0]
    assert (kind, pair, ci) == ("pre-plus", ("alpha", "beta"), 0)
    assert t == F(14, 19)


# --- the walk against an edge-by-edge oracle --------------------------------


def oracle_cascades(graph, src):
    """The cascades out of ``src`` walked edge by edge over the numbered
    graph: at every arrival each m0 edge, then each m1 edge's components and
    their e_minus-pinned crossings, queried afresh.  The same records, in
    the same order, as ``enumerate_cascades`` must give."""
    flavor, start = src
    start = graph.number[start]
    orbits, basepoints = graph.orbits, graph.basepoints
    out = []

    def nudge(edge, value, node, eps):
        return eps if edge.phi and value == basepoints[node] else 0

    def ordered(node, last, value, eps):
        return cyclically_ordered(basepoints[node], last[0], value, last[1], eps)

    def preimages(edge, ci, side):
        top, bottom = (graph.number[n] for n in edge.pair)
        return component_preimages(
            edge.pieces[ci], side, basepoints[top if side == "plus" else bottom],
            (orbits[top], basepoints[top]), (orbits[bottom], basepoints[bottom]))

    stack = []
    if flavor == "hat":
        if not orbits[start].good:
            trail = (("bad-diagonal", graph.nodes[start]), None)
            out += [cascades.Cascade(2 * start, -1, trail)] * 2
        stack.append((start, None, (start,), 1, None))
    else:
        for edge in graph.m1[start]:
            for ci in range(len(edge.pieces)):
                for pre in preimages(edge, ci, "plus"):
                    last = (pre.point, nudge(edge, pre.point, edge.bottom, -1))
                    stack.append((edge.bottom, last, (start, edge.bottom), pre.sign,
                                  (("pre-plus", edge.pair, ci, pre), None)))
    while stack:
        current, last, visited, sign, trail = stack.pop()
        if trail is not None:
            out.append(cascades.Cascade(2 * current, sign, trail))
        for edge in graph.m0[current]:
            if edge.bottom in visited:
                continue
            for idx, pt in enumerate(edge.pieces):
                if last is None or ordered(current, last, pt.e_plus_key, 0):
                    stack.append((edge.bottom, (pt.e_minus_key, 0),
                                  visited + (edge.bottom,), sign * pt.sign,
                                  (("m0", edge.pair, idx), trail)))
        for edge in graph.m1[current]:
            if edge.bottom in visited:
                continue
            extra = 1 if edge.phi else -1
            for ci in range(len(edge.pieces)):
                for pre in preimages(edge, ci, "minus"):
                    eps = nudge(edge, pre.point, current, 1)
                    if last is None or ordered(current, last, pre.point, eps):
                        out.append(cascades.Cascade(
                            2 * edge.bottom + 1, extra * sign * pre.sign,
                            (("pre-minus", edge.pair, ci, pre), trail)))
    if flavor == "check":
        for bottom, count, pair in graph.m2cc[start]:
            out.append(cascades.Cascade(2 * bottom + 1, count, (("m2cc", pair), None)))
    return out


def _graphs(sys_, reseeds):
    """The graph of ``sys_`` and of its trivial cobordism, with the keys of
    their generators; with ``reseeds``, also each reseeded trivial
    cobordism's."""
    keys = [(flavor, oid) for oid in sys_.orbits for flavor in ("check", "hat")]
    out = [(_system_graph(sys_), keys)]
    cobordisms = [trivial_cobordism(sys_)]
    if reseeds:
        cobordisms += [m for _end, _seed, m in reseeded_cobordisms(sys_)]
    for m in cobordisms:
        graph = _cobordism_graph(m)
        out.append((graph, [(flavor, (layer, oid)) for flavor, oid in keys
                            for layer in (cascades.SRC, cascades.TGT)]))
    return out


# the systems whose reseeded trivial cobordisms tests/test_morphisms.py checks
RESEEDED = ("one-circle", "one-interval", "bad-circle", "one-bad-orbit") + tuple(
    f"cobordism-{n}" for n in BENCH_LIFTS)
MBS_LIFTS = ("1T", "2T", "1S", "2S", "preq")


# every Morse-Bott fixture and the seed-1 lifts of both Morse-Bott workloads
WALKED = ([n for n in fixture_names() if fixture(n).kind == "mbs"]
          + [f"cobordism-{n}" for n in BENCH_LIFTS] + [f"mbs-lift-{n}" for n in MBS_LIFTS])


def _walk_system(name):
    workload, _, lift = name.rpartition("-")
    if workload == "cobordism":
        return _bench_lifts(1)[BENCH_LIFTS.index(lift)]
    if workload == "mbs-lift":
        return _bench_lifts(1, "mbs-lift")[MBS_LIFTS.index(lift)]
    return fixture(name).payload


@pytest.mark.parametrize("name", WALKED)
def test_walk_matches_the_edge_by_edge_oracle(name, monkeypatch):
    asked = []  # the walk's queries; the oracle's go through mbs instead
    query = cascades.component_preimages

    def counted(comp, side, q, top, bottom):
        # a component lies on one edge, so this names (edge, component, side)
        asked.append((id(comp), side))
        return query(comp, side, q, top, bottom)

    monkeypatch.setattr(cascades, "component_preimages", counted)
    queries = 0
    for graph, keys in _graphs(_walk_system(name), name in RESEEDED):
        asked.clear()
        for key in keys:
            walked = [(graph.key(c.row), c.weight, c.pieces)
                      for c in enumerate_cascades(graph, key)]
            expected = [(graph.key(c.row), c.weight, c.pieces)
                        for c in oracle_cascades(graph, key)]
            assert walked == expected, key
        # each node's opening and closing lists were built at most once: one
        # query per side of each component on an edge out of a built node
        assert len(asked) == len(set(asked)) == sum(
            2 * len(edge.pieces) for node, built in enumerate(graph._exits)
            if built is not None for edge in graph.m1[node])
        queries += len(asked)
    assert queries > 0  # every trivial cobordism has pinned phi pieces


@pytest.mark.parametrize("name", WALKED)
def test_count_form_matches_the_trail_form(name):
    for graph, keys in _graphs(_walk_system(name), name in RESEEDED):
        for key in keys:
            counted = enumerate_cascades(graph, key, trails=False)
            assert counted == [(c.row, c.weight) for c in enumerate_cascades(graph, key)]


def _sum_columns_oracle(graph, sources, blocks):
    """``sum_columns`` as it totalled each column's chains by target key,
    then mapped the nonzero totals to (block, row) slots and sorted them."""
    where = {key: (b, i) for b, rows in enumerate(blocks) for key, i in rows.items()}
    out = [{} for _ in blocks]
    for key, j in sources.items():
        totals = {}
        for row, weight, _trail in enumerate_cascades(graph, key):
            target = graph.key(row)
            totals[target] = totals.get(target, 0) + weight
        for (b, i), weight in sorted([(where[t], w) for t, w in totals.items() if w]):
            out[b][(i, j)] = weight
    return out


def _column_sums():
    """(name, graph, sources, blocks) of every Morse-Bott fixture's walk and
    of the three walks of each morphism: every morphism fixture, and the
    trivial cobordism over every Morse-Bott fixture and over the seed 1-3
    lifts of both Morse-Bott workloads."""
    systems, morphisms = [], []
    for name in fixture_names():
        payload = fixture(name).payload
        if isinstance(payload, MorseBottSystem):
            systems.append((name, payload))
        elif isinstance(payload, MorphismData):
            morphisms.append((name, payload))
    for workload in ("cobordism", "mbs-lift"):
        for seed in (1, 2, 3):
            systems += [(f"{workload}/{seed}/{k}", lift)
                        for k, lift in enumerate(_bench_lifts(seed, workload))]
    morphisms += [(f"trivial-{name}", trivial_cobordism(sys_)) for name, sys_ in systems]
    out = []
    for name, sys_ in systems:
        keys, _gens = cascades.chain_generators(sys_, _action(sys_))
        out.append((name, _system_graph(sys_), keys, [keys]))
    for name, m in morphisms:
        src, _gens = cascades.chain_generators(m.source, _action(m.source), cascades.SRC)
        tgt, _gens = cascades.chain_generators(m.target, _action(m.target), cascades.TGT)
        graph = _cobordism_graph(m)
        out += [(f"{name}/target", graph, tgt, [tgt]),
                (f"{name}/source", graph, src, [src, tgt])]
    return out


def test_sum_columns_matches_the_per_key_totals():
    # the same entries, inserted in the same order, column by column
    for name, graph, sources, blocks in _column_sums():
        got = cascades.sum_columns(graph, sources, blocks)
        expected = _sum_columns_oracle(graph, sources, blocks)
        assert [list(d.items()) for d in got] == [list(d.items()) for d in expected], name
        if name.endswith("/source"):  # every morphism here has a nonzero map
            assert got[1], name
