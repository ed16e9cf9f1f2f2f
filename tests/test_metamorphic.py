"""Changes of presentation that must not change an answer.

Each transform writes the same geometry down another way, or shifts it by a
known amount; the complex or chain map built from the transformed document
is compared with the original's.  The Morse-Bott transforms (rotating an
orbit's circle coordinate with its basepoint, shifting a lift by an
integer, subdividing lift segments, reparametrising every component) must
leave the entries of ``build_ncc`` and of ``induced_chain_map`` identical,
and so must scaling every action by one factor and renaming every orbit
(up to the renaming), which also leave every autonomous report identical.
An even shift of one class's gradings must shift NCH, and CH^{S^1} inside
its stated stable range, by the same amount.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from cascadeho import serialize
from cascadeho.autonomous import AutonomousData, block_differential, equivariant_homology
from cascadeho.cascades import SRC, TGT, build_ncc, nch_homology
from cascadeho.cli import main
from cascadeho.exact import homology
from cascadeho.mbs import MorseBottSystem, PLComponent, SignedPoint, circle_key
from cascadeho.morphisms import MorphismData, induced_chain_map, trivial_cobordism
from cascadeho.scenarios import fixture, fixture_names, prequantization
from test_morphisms import _bench_lifts


F = Fraction


def _systems():
    """(name, system): the Morse-Bott fixtures and the torus(3, 1) and
    torus(3, 2) lifts of the seed 1-2 ``mbs-lift`` documents."""
    out = [(n, fixture(n).payload) for n in fixture_names() if fixture(n).kind == "mbs"]
    for seed in (1, 2):
        t31, t32 = _bench_lifts(seed, "mbs-lift")[:2]
        out += [(f"torus31/{seed}", t31), (f"torus32/{seed}", t32)]
    return out


SYSTEMS = _systems()
MORPHISMS = [(n, fixture(n).payload) for n in fixture_names()
             if fixture(n).kind == "morphism"]
MORPHISMS += [(f"trivial-{n}", trivial_cobordism(s)) for n, s in SYSTEMS]


def _answer(doc):
    """The generators and entries that must not change: d of a system; phi,
    d_src and d_tgt of a morphism."""
    if isinstance(doc, MorseBottSystem):
        cx = build_ncc(doc)
        return cx.generators, cx.differential.entries
    cm = induced_chain_map(doc)
    return [(cx.generators, cx.differential.entries)
            for cx in (cm.source_complex, cm.target_complex)] + [cm.matrix.entries]


# --- rebuilding a document piece by piece -----------------------------------


def _pairs(lift):
    """An IntLift as (t, value) Fraction pairs."""
    return [(F(tn, td), F(vn, vd)) for tn, td, vn, vd in lift]


def _table(table, up, down, fn):
    return {(a, b): [fn(piece, (up, a), (down, b)) for piece in pieces]
            for (a, b), pieces in table.items()}


def _rebuild(doc, point=None, comp=None, basepoint=None):
    """``doc`` with each 0-dimensional point, each component and each
    basepoint replaced by ``point(pt, top, bottom)``, ``comp(c, top,
    bottom)`` and ``basepoint(value, end)``; an end is (layer, oid), the
    layer None for a system and SRC/TGT in a morphism."""
    point = point or (lambda pt, _top, _bottom: pt)
    comp = comp or (lambda c, _top, _bottom: c)
    basepoint = basepoint or (lambda value, _end: value)

    def system(sys_, layer):
        return replace(
            sys_,
            basepoints={o: basepoint(v, (layer, o)) for o, v in sys_.basepoints.items()},
            m0=_table(sys_.m0, layer, layer, point),
            m1=_table(sys_.m1, layer, layer, comp),
            m2cc=dict(sys_.m2cc),
        )

    if isinstance(doc, MorseBottSystem):
        return system(doc, None)
    return replace(doc, source=system(doc.source, SRC), target=system(doc.target, TGT),
                   phi0=_table(doc.phi0, SRC, TGT, point),
                   phi1=_table(doc.phi1, SRC, TGT, comp))


def _component(c, plus, minus, labels=None):
    return PLComponent(c.kind, c.sign_start, plus, minus,
                       dict(c.boundary_labels if labels is None else labels))


def _ends(doc):
    """Every (layer, oid) of ``doc`` with its basepoint."""
    if isinstance(doc, MorseBottSystem):
        return [((None, o), v) for o, v in doc.basepoints.items()]
    return [((layer, o), v) for layer, sys_ in ((SRC, doc.source), (TGT, doc.target))
            for o, v in sys_.basepoints.items()]


def _components(doc):
    tables = [doc.m1] if isinstance(doc, MorseBottSystem) else [
        doc.source.m1, doc.target.m1, doc.phi1]
    return [c for table in tables for pieces in table.values() for c in pieces]


# --- the transforms ---------------------------------------------------------


def rotate(doc, end, s):
    """Rotate the circle coordinate of the orbit ``end`` by s: its basepoint
    and every evaluation onto it move by s."""
    def by(at):
        return s if at == end else 0

    return _rebuild(
        doc,
        point=lambda pt, top, bottom: SignedPoint(pt.e_plus + by(top),
                                                  pt.e_minus + by(bottom), pt.sign),
        comp=lambda c, top, bottom: _component(
            c, [(t, v + by(top)) for t, v in _pairs(c.e_plus_lift)],
            [(t, v + by(bottom)) for t, v in _pairs(c.e_minus_lift)]),
        basepoint=lambda value, at: (value + by(at)) % 1,
    )


def shift_lift(doc, target, side, n):
    """Add the integer n to one lift: the ``side`` lift of the component
    ``target``."""
    def comp(c, _top, _bottom):
        if c is not target:
            return c
        plus, minus = _pairs(c.e_plus_lift), _pairs(c.e_minus_lift)
        lift = plus if side == "plus" else minus
        lift[:] = [(t, v + n) for t, v in lift]
        return _component(c, plus, minus)

    return _rebuild(doc, comp=comp)


def _label_ts(doc):
    return {label.t for c in _components(doc) for label in c.boundary_labels.values()}


def _off_basepoints(doc):
    """A test that a value lands off every basepoint of ``doc``."""
    points = {circle_key(F(v)) for _end, v in _ends(doc)}
    return lambda value: circle_key(value) not in points


RATIOS = (F(1, 3), F(2, 5), F(3, 7), F(4, 11), F(5, 13), F(1, 2))


def subdivide(doc):
    """Split every lift segment at an interior point whose value lands off
    every basepoint and whose parameter is no label's."""
    off, labels = _off_basepoints(doc), _label_ts(doc)

    def split(lift):
        out = lift[:1]
        for (t0, v0), (t1, v1) in zip(lift, lift[1:]):
            t, v = next((t0 + r * (t1 - t0), v0 + r * (v1 - v0)) for r in RATIOS
                        if off(v0 + r * (v1 - v0)) and t0 + r * (t1 - t0) not in labels)
            out += [(t, v), (t1, v1)]
        return out

    return _rebuild(doc, comp=lambda c, _top, _bottom: _component(
        c, split(_pairs(c.e_plus_lift)), split(_pairs(c.e_minus_lift))))


def reparametrise(doc, image=F(3, 5)):
    """Reparametrise every component by one PL map h of [0, 1] with one
    corner, a -> ``image``, mapping each label's t by h too.  The corner a
    is the first of RATIOS that is no label's t and at which every lift
    lands off every basepoint."""
    off, labels = _off_basepoints(doc), _label_ts(doc)
    sides = [(c, side) for c in _components(doc) for side in ("plus", "minus")]
    a = next(r for r in RATIOS if r not in labels
             and all(off(c.value(side, r)) for c, side in sides))

    def h(t):
        return t * image / a if t <= a else image + (t - a) * (1 - image) / (1 - a)

    def moved(c, side):
        lift = _pairs(c.lift(side))
        out = [(h(t), v) for t, v in lift]
        if a not in {t for t, _v in lift}:
            out.append((image, c.value(side, a)))
        return sorted(out)

    def comp(c, _top, _bottom):
        labels = {end: replace(label, t=h(label.t))
                  for end, label in c.boundary_labels.items()}
        return _component(c, moved(c, "plus"), moved(c, "minus"), labels)

    return _rebuild(doc, comp=comp)


def _transforms(doc):
    """(name, transformed document) of each Morse-Bott transform of doc."""
    ends = [end for end, _v in _ends(doc)]
    out = [(f"rotate {ends[0]}", rotate(doc, ends[0], F(3, 11))),
           (f"rotate {ends[-1]}", rotate(doc, ends[-1], F(-5, 7)))]
    if isinstance(doc, MorphismData):  # an orbit of each end at once
        target = next(end for end in ends if end[0] == TGT)
        both = rotate(rotate(doc, ends[0], F(2, 9)), target, F(1, 13))
        out.append(("rotate source and target", both))
    components = _components(doc)
    if components:
        out += [(f"shift {side} lift by {n}", shift_lift(doc, components[0], side, n))
                for side, n in (("plus", 1), ("minus", -2))]
        out += [("subdivide", subdivide(doc)), ("reparametrise", reparametrise(doc))]
    return out


DOCUMENTS = dict(SYSTEMS + MORPHISMS)


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_presentation_changes_keep_every_entry(name):
    doc = DOCUMENTS[name]
    expected = _answer(doc)
    for transform, moved in _transforms(doc):
        assert _answer(moved) == expected, (name, transform)


def test_transforms_change_the_documents():
    # each transform really rewrites the data it names: a rotation moves the
    # basepoint, a subdivision or reparametrisation adds breakpoints
    sys_ = fixture("one-interval").payload
    turned = rotate(sys_, (None, "alpha"), F(1, 3))
    assert turned.basepoints["alpha"] == F(1, 3)
    assert turned.m1[("alpha", "beta")][0].e_plus_lift != \
        sys_.m1[("alpha", "beta")][0].e_plus_lift
    for moved in (subdivide(sys_), reparametrise(sys_)):
        for pair, pieces in sys_.m1.items():
            for old, new in zip(pieces, moved.m1[pair]):
                assert len(new.e_plus_lift) > len(old.e_plus_lift)
    labels = reparametrise(sys_).m1[("alpha", "beta")][0].boundary_labels
    assert labels[0].t != sys_.m1[("alpha", "beta")][0].boundary_labels[0].t


# --- an even shift of one class's gradings ----------------------------------


def shift_class(doc, cls, shift):
    """``doc`` with the gradings of the orbits of class ``cls`` shifted."""
    orbits = {oid: replace(o, grading=o.grading + shift) if o.homotopy_class == cls else o
              for oid, o in doc.orbits.items()}
    return replace(doc, orbits=orbits)


def _union(first, second, suffix):
    """Two autonomous documents side by side, the second's orbits renamed."""
    name = {oid: oid + suffix for oid in second.orbits}
    orbits = dict(first.orbits)
    orbits.update((name[oid], replace(o, oid=name[oid])) for oid, o in second.orbits.items())
    mj1 = dict(first.mj1)
    mj1.update(((name[a], name[b]), records) for (a, b), records in second.mj1.items())
    extra = dict(first.extra)
    extra.update((((fa, name[a]), (fb, name[b])), v)
                 for ((fa, a), (fb, b)), v in second.extra.items())
    return AutonomousData(orbits, mj1, extra)


AUTONOMOUS = [(n, fixture(n).payload) for n in fixture_names()
              if fixture(n).kind == "autonomous"]
AUTONOMOUS.append(("preq-112 + preq-213",
                   _union(fixture("preq-112").payload, prequantization(2, 1, 3), "'")))
GRADED = [(n, s) for n, s in SYSTEMS if s.grading_modulus == 0]


def _shifted(groups, cls, shift):
    return {(c, g + shift if c == cls else g): v for (c, g), v in groups.items()}


def _nch(doc):
    if isinstance(doc, AutonomousData):
        return homology(block_differential(doc)).groups
    return nch_homology(doc).groups


SHIFTED = dict(AUTONOMOUS + GRADED)


@pytest.mark.parametrize("name", list(SHIFTED))
def test_an_even_grading_shift_shifts_nch_and_chs1(name):
    doc = SHIFTED[name]
    classes = sorted({o.homotopy_class for o in doc.orbits.values()})
    reference = None
    if isinstance(doc, AutonomousData):
        reference, limit = equivariant_homology(doc, 12)
    for cls in classes:
        for shift in (-4, -2, 2):
            moved = shift_class(doc, cls, shift)
            assert _nch(moved) == _shifted(_nch(doc), cls, shift), (name, cls, shift)
            if reference is None:
                continue
            expected = _shifted(reference.groups, cls, shift)
            for truncation in range(1, 6):
                result, stable = equivariant_homology(moved, truncation)
                # every degree of the stated range is inside the reference's
                assert stable - min(shift, 0) <= limit
                assert result.restricted(stable).groups == {
                    k: v for k, v in expected.items() if k[1] <= stable
                }, (name, cls, shift, truncation)


# --- scaling every action, renaming every orbit -----------------------------


LAMBDA = F(7, 3)


def _orbits(orbits, name=None, factor=1):
    """An orbit table with each orbit renamed by ``name`` and its action
    times ``factor``; with a ``name``, in reverse order."""
    items = [(name[oid] if name else oid,
              replace(o, oid=name[oid] if name else oid, action=o.action * factor))
             for oid, o in orbits.items()]
    return dict(reversed(items) if name else items)


def scale_actions(doc, factor=LAMBDA):
    """Every orbit's action times ``factor``, both layers of a morphism alike."""
    if isinstance(doc, MorphismData):
        return replace(doc, source=scale_actions(doc.source, factor),
                       target=scale_actions(doc.target, factor))
    return replace(doc, orbits=_orbits(doc.orbits, factor=factor))


def _renaming(doc):
    """A new name for every orbit of ``doc``, in the reverse sorted order."""
    layers = [doc] if not isinstance(doc, MorphismData) else [doc.source, doc.target]
    oids = sorted({oid for layer in layers for oid in layer.orbits})
    return {oid: f"r{len(oids) - 1 - k:04d}" for k, oid in enumerate(oids)}


def rename(doc, name):
    """``doc`` with every orbit renamed by ``name`` and each orbit table
    reversed."""
    def pairs(table):
        return {(name[a], name[b]): v for (a, b), v in table.items()}

    if isinstance(doc, AutonomousData):
        return AutonomousData(_orbits(doc.orbits, name), pairs(doc.mj1), {
            ((fa, name[a]), (fb, name[b])): v for ((fa, a), (fb, b)), v in doc.extra.items()})

    def comp(c, _top, _bottom):
        labels = {end: replace(label, orbit=name[label.orbit])
                  for end, label in c.boundary_labels.items()}
        return _component(c, _pairs(c.e_plus_lift), _pairs(c.e_minus_lift), labels)

    def system(sys_):
        return replace(sys_, orbits=_orbits(sys_.orbits, name),
                       basepoints={name[o]: v for o, v in sys_.basepoints.items()},
                       m0=pairs(sys_.m0), m1=pairs(_table(sys_.m1, None, None, comp)),
                       m2cc=pairs(sys_.m2cc))

    if isinstance(doc, MorseBottSystem):
        return system(doc)
    return replace(doc, source=system(doc.source), target=system(doc.target),
                   phi0=pairs(doc.phi0), phi1=pairs(_table(doc.phi1, None, None, comp)),
                   allow_equal_action={(name[a], name[b]) for a, b in doc.allow_equal_action})


def _scaled_answer(doc, factor):
    """``_answer(doc)`` with every generator's action times ``factor``."""
    def scaled(gens):
        return tuple(g._replace(action=g.action * factor) for g in gens)

    answer = _answer(doc)
    if isinstance(doc, MorseBottSystem):
        return scaled(answer[0]), answer[1]
    return [(scaled(gens), entries) for gens, entries in answer[:2]] + answer[2:]


def _named_answer(doc, name=None):
    """``_answer(doc)`` keyed by generator names, each orbit renamed by
    ``name``: the sorted generators, and each block as {(column, row): value}."""
    def keyed(gens):
        return [g._replace(gid=f"{g.gid.partition(':')[0]}:{name[g.orbit]}",
                           orbit=name[g.orbit]) if name else g for g in gens]

    def block(rows, cols, entries):
        return {(cols[j].gid, rows[i].gid): v for (i, j), v in entries.items()}

    if isinstance(doc, MorseBottSystem):
        cx = build_ncc(doc)
        gens = keyed(cx.generators)
        return sorted(gens), block(gens, gens, cx.differential.entries)
    cm = induced_chain_map(doc)
    src, tgt = keyed(cm.source_complex.generators), keyed(cm.target_complex.generators)
    return (sorted(src), block(src, src, cm.source_complex.differential.entries),
            sorted(tgt), block(tgt, tgt, cm.target_complex.differential.entries),
            block(tgt, src, cm.matrix.entries))


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_scaling_every_action_keeps_every_entry(name):
    doc = DOCUMENTS[name]
    assert _answer(scale_actions(doc)) == _scaled_answer(doc, LAMBDA)


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_renaming_every_orbit_keeps_every_entry(name):
    doc = DOCUMENTS[name]
    renaming = _renaming(doc)
    assert _named_answer(rename(doc, renaming)) == _named_answer(doc, renaming)


def test_scaling_and_renaming_change_the_documents():
    # the scale reaches every layer; the renaming reverses both the sorted
    # order of the ids and the order of the orbit table
    m = fixture("morphism-interval").payload
    scaled = scale_actions(m)
    for old, new in ((m.source, scaled.source), (m.target, scaled.target)):
        assert [o.action * LAMBDA for o in old.orbits.values()] == [
            o.action for o in new.orbits.values()]
    renaming = _renaming(m)
    moved = rename(m, renaming)
    assert sorted(renaming.values()) == [renaming[o] for o in sorted(renaming, reverse=True)]
    assert list(moved.source.orbits) == [renaming[o] for o in reversed(m.source.orbits)]
    assert moved.allow_equal_action == {(renaming[a], renaming[b])
                                        for a, b in m.allow_equal_action}


AUTONOMOUS_REQUESTS = (["nch"], ["egh"], ["chs1", "--umax", "3"], ["compare", "--umax", "3"])


def _reports(doc, tmp_path, capsys):
    """(exit code, stdout, stderr) of each autonomous request on ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(serialize.dumps(doc))
    out = []
    for argv in AUTONOMOUS_REQUESTS:
        code = main([argv[0], str(path)] + argv[1:])
        out.append((code,) + tuple(capsys.readouterr()))
    return out


@pytest.mark.parametrize("name", [n for n, _doc in AUTONOMOUS])
def test_scaling_and_renaming_keep_the_autonomous_reports(name, tmp_path, capsys):
    doc = dict(AUTONOMOUS)[name]
    expected = _reports(doc, tmp_path, capsys)
    assert _reports(scale_actions(doc), tmp_path, capsys) == expected
    assert _reports(rename(doc, _renaming(doc)), tmp_path, capsys) == expected
