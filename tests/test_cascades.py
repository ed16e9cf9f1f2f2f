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
    MorseBottSystem, Orbit, SignedPoint, assign_basepoints, cyclically_ordered,
    signed_preimages,
)
from cascadeho.morphisms import induced_chain_map, trivial_cobordism
from cascadeho.scenarios import fixture, fixture_names
from test_morphisms import BENCH_LIFTS, _bench_lifts, reseeded_cobordisms


F = Fraction


def differential_table(sys_):
    cx = build_ncc(sys_)
    return {
        (cx.generators[j].gid, cx.generators[i].gid): val
        for (i, j), val in cx.differential.entries.items()
    }


def cascades_between(sys_, src, dst):
    """The cascades of src's column that end at dst, both (flavor, orbit)."""
    column = enumerate_cascades(CascadeGraph.of_system(sys_), src)
    return [c for c in column if c.key == dst]


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
        monkeypatch.setattr(module, "validate_system", lambda _sys: [], raising=False)
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
    """The cascades out of ``src`` walked edge by edge: at every arrival each
    m0 edge, then each m1 edge's components and their e_minus-pinned
    crossings, queried afresh.  The same records, in the same order, as
    ``enumerate_cascades`` must give."""
    flavor, start = src
    basepoints = graph.basepoints
    out = []

    def nudge(edge, value, node, eps):
        return eps if edge.phi and value == basepoints[node] else 0

    def ordered(node, last, value, eps):
        return cyclically_ordered(basepoints[node], last[0], value, last[1], eps)

    def preimages(edge, ci, side):
        node = edge.pair[0] if side == "plus" else edge.pair[1]
        return signed_preimages(graph, edge.pair, edge.pieces[ci], side,
                                basepoints[node])

    stack = []
    if flavor == "hat":
        if not graph.orbit(start).good:
            trail = (("bad-diagonal", start), None)
            out += [cascades.Cascade(("check", start), -1, trail)] * 2
        stack.append((start, None, (start,), 1, None))
    else:
        for edge in graph.m1.get(start, ()):
            for ci in range(len(edge.pieces)):
                for pre in preimages(edge, ci, "plus"):
                    last = (pre.point, nudge(edge, pre.point, edge.bottom, -1))
                    stack.append((edge.bottom, last, (start, edge.bottom), pre.sign,
                                  (("pre-plus", edge.pair, ci, pre), None)))
    while stack:
        current, last, visited, sign, trail = stack.pop()
        if trail is not None:
            out.append(cascades.Cascade(("check", current), sign, trail))
        for edge in graph.m0.get(current, ()):
            if edge.bottom in visited:
                continue
            for idx, pt in enumerate(edge.pieces):
                if last is None or ordered(current, last, pt.e_plus_key, 0):
                    stack.append((edge.bottom, (pt.e_minus_key, 0),
                                  visited + (edge.bottom,), sign * pt.sign,
                                  (("m0", edge.pair, idx), trail)))
        for edge in graph.m1.get(current, ()):
            if edge.bottom in visited:
                continue
            extra = 1 if edge.phi else -1
            for ci in range(len(edge.pieces)):
                for pre in preimages(edge, ci, "minus"):
                    eps = nudge(edge, pre.point, current, 1)
                    if last is None or ordered(current, last, pre.point, eps):
                        out.append(cascades.Cascade(
                            ("hat", edge.bottom), extra * sign * pre.sign,
                            (("pre-minus", edge.pair, ci, pre), trail)))
    if flavor == "check":
        for bottom, count in graph.m2cc.get(start, ()):
            out.append(cascades.Cascade(("hat", bottom), count,
                                        (("m2cc", (start, bottom)), None)))
    return out


def _graphs(sys_, reseeds):
    """The graph of ``sys_`` and of its trivial cobordism, with the keys of
    their generators; with ``reseeds``, also each reseeded trivial
    cobordism's."""
    keys = [(flavor, oid) for oid in sys_.orbits for flavor in ("check", "hat")]
    out = [(CascadeGraph.of_system(sys_), keys)]
    cobordisms = [trivial_cobordism(sys_)]
    if reseeds:
        cobordisms += [m for _end, _seed, m in reseeded_cobordisms(sys_)]
    for m in cobordisms:
        graph = CascadeGraph.of_cobordism(m.source, m.target, m.phi0, m.phi1)
        out.append((graph, [(flavor, (layer, oid)) for flavor, oid in keys
                            for layer in (cascades.SRC, cascades.TGT)]))
    return out


# the systems whose reseeded trivial cobordisms tests/test_morphisms.py checks
RESEEDED = ("one-circle", "one-interval", "bad-circle", "one-bad-orbit") + tuple(
    f"cobordism-{n}" for n in BENCH_LIFTS)
MBS_LIFTS = ("1T", "2T", "1S", "2S", "preq")


def _walk_system(name):
    workload, _, lift = name.rpartition("-")
    if workload == "cobordism":
        return _bench_lifts(1)[BENCH_LIFTS.index(lift)]
    if workload == "mbs-lift":
        return _bench_lifts(1, "mbs-lift")[MBS_LIFTS.index(lift)]
    return fixture(name).payload


@pytest.mark.parametrize(
    "name",
    [n for n in fixture_names() if fixture(n).kind == "mbs"]
    + [f"cobordism-{n}" for n in BENCH_LIFTS] + [f"mbs-lift-{n}" for n in MBS_LIFTS])
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
            walked = [(c.key, c.weight, c.pieces) for c in enumerate_cascades(graph, key)]
            expected = [(c.key, c.weight, c.pieces) for c in oracle_cascades(graph, key)]
            assert walked == expected, key
        # each node's opening and closing lists were built at most once: one
        # query per side of each component on an edge out of a built node
        assert len(asked) == len(set(asked)) == sum(
            2 * len(edge.pieces) for node in graph._exits
            for edge in graph.m1.get(node, ()))
        queries += len(asked)
    assert queries > 0  # every trivial cobordism has pinned phi pieces
