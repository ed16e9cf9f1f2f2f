"""Cascade enumeration and the nonequivariant chain complex.

Generators come in pairs per orbit ("check" and "hat").  A differential
coefficient is a signed count of rigid cascades: chains of moduli pieces
through pairwise-distinct intermediate orbits, subject to a positive
cyclic-order condition at every intermediate orbit, with point constraints
at the top for check sources (e+ pinned to the source basepoint) and at the
bottom for hat targets (e- pinned to the target basepoint).

Sign conventions: a cascade weighs the product of its piece signs; a
constrained preimage weighs crossing direction times transported
orientation; an e-minus-constrained piece carries one extra factor (-1).
With these choices d^2 = 0 holds for consistently-labelled systems and the
bad-orbit diagonal is <d hat a, check a> = -2.

One walk per source generator yields its whole column.  Over the two-layer
graph of a cobordism (see ``CascadeGraph``) the walk from a source generator
yields its column of the source differential and of the induced chain map
at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, NonDistinct, NonGenericConfiguration, ValidationFailure
from .exact import (
    ChainComplex,
    ChainGenerator,
    HomologyResult,
    IntMatrix,
    homology,
    verify_square_zero,
)
from .mbs import (
    MorseBottSystem,
    Orbit,
    Point,
    Preimage,
    Violation,
    cyclically_ordered,
    scaled_actions,
    signed_preimages,
    validate_system,
)


# most partial chains one walk may extend: chains through pairwise-distinct
# orbits can grow exponentially with the orbit count, so untrusted documents
# cannot make one column unbounded work
MAX_PARTIAL_CHAINS = 10**5


Key = Tuple[str, Hashable]  # (flavor, node): a generator of a cascade graph


class Cascade(NamedTuple):
    """One counted chain: the key of its target, its weight, and its trail.

    The trail is (last piece, trail before it), back to None.  A pinned
    piece records its Preimage; ``pieces`` unwinds the trail, with each
    such piece's parameter t as a Fraction, only when a caller asks.
    """

    key: Key
    weight: int  # +-1 for honest cascades; the raw count for m2cc entries
    trail: Optional[Tuple]

    @property
    def pieces(self) -> Tuple:
        out = []
        trail = self.trail
        while trail is not None:
            piece, trail = trail
            if isinstance(piece[-1], Preimage):
                piece = piece[:-1] + (piece[-1].t,)
            out.append(piece)
        return tuple(reversed(out))


# the layers of a cobordism graph: its nodes are (SRC, oid) and (TGT, oid)
SRC, TGT = "src", "tgt"


def _layer_and_oid(node) -> Tuple[Optional[str], Hashable]:
    return node if isinstance(node, tuple) else (None, node)


@dataclass(frozen=True)
class Edge:
    """The moduli pieces of one pair, as seen from its top node."""

    bottom: Hashable
    pair: Tuple  # (top node, bottom node): the frames of preimage queries
    pieces: Sequence  # SignedPoints on an m0 edge, PLComponents on an m1 edge
    phi: bool  # a cobordism piece: index d - 1 instead of d


class CascadeGraph:
    """Orbit circles (nodes) joined by moduli pieces (edges), indexed by top.

    A system is one layer whose nodes are its orbit ids.  A cobordism is two
    layers, source orbits (SRC, oid) above target orbits (TGT, oid), joined
    by the phi pieces.  Every node is a target, so a walk from a source node
    counts the chains that stay in the source layer (its differential
    column) and those that cross one phi piece (its column of the induced
    map).  ``orbit(node)`` and ``basepoint(node)`` (a circle key, made once
    per graph) give preimage queries their frames; ``preimages`` answers
    each pinned query once per graph.
    """

    def __init__(self):
        self.orbits: Dict[Hashable, Orbit] = {}
        self.basepoints: Dict[Hashable, Point] = {}
        self.m0: Dict[Hashable, List[Edge]] = defaultdict(list)
        self.m1: Dict[Hashable, List[Edge]] = defaultdict(list)
        self.m2cc: Dict[Hashable, List[Tuple[Hashable, int]]] = defaultdict(list)
        self._preimages: Dict[Tuple, List[Preimage]] = {}

    @classmethod
    def of_system(cls, sys: MorseBottSystem) -> "CascadeGraph":
        graph = cls()
        graph._layer(sys, lambda oid: oid)
        return graph

    @classmethod
    def of_cobordism(cls, source, target, phi0, phi1) -> "CascadeGraph":
        graph = cls()
        src, tgt = (lambda oid: (SRC, oid)), (lambda oid: (TGT, oid))
        graph._layer(source, src)
        graph._layer(target, tgt)
        graph._edges(phi0, phi1, {}, src, tgt, phi=True)
        return graph

    def orbit(self, node) -> Orbit:
        return self.orbits[node]

    def basepoint(self, node) -> Point:
        return self.basepoints[node]

    def preimages(self, edge: Edge, ci: int, side: str) -> List[Preimage]:
        """Preimages of the basepoint of the queried side's own node (the top
        node for "plus", the bottom node for "minus") under component ``ci``
        of ``edge``: the only queries a walk makes, each asked once."""
        key = (edge.pair, ci, side)
        found = self._preimages.get(key)
        if found is None:
            node = edge.pair[0] if side == "plus" else edge.pair[1]
            found = self._preimages[key] = signed_preimages(
                self, edge.pair, edge.pieces[ci], side, self.basepoint(node)
            )
        return found

    def _layer(self, sys, node):
        for oid, orbit in sys.orbits.items():
            self.orbits[node(oid)] = orbit
            self.basepoints[node(oid)] = sys.basepoint(oid)
        self._edges(sys.m0, sys.m1, sys.m2cc, node, node, phi=False)

    def _edges(self, m0, m1, m2cc, top, bottom, phi):
        for table, moduli in ((self.m0, m0), (self.m1, m1)):
            for (a, b), pieces in moduli.items():
                if pieces:
                    pair = (top(a), bottom(b))
                    table[pair[0]].append(Edge(pair[1], pair, pieces, phi))
        for (a, b), count in m2cc.items():
            if count:
                self.m2cc[top(a)].append((bottom(b), count))


def enumerate_cascades(graph: CascadeGraph, src: Key) -> List[Cascade]:
    """All rigid cascades out of the generator ``src`` = (flavor, node): one
    walk gives its whole column.

    A phi piece differs from an in-system piece in two ways: an e_minus-pinned
    phi1 piece carries no extra -1, and where a pinned phi evaluation lands
    on the basepoint of the orbit it meets, it is nudged off it (just before
    the basepoint on a target orbit, just after it on a source orbit).
    Raises InputError once the walk has extended MAX_PARTIAL_CHAINS chains.
    """
    flavor, start = src
    out: List[Cascade] = []
    basepoints = graph.basepoints

    def ordered(node, last, value, eps, piece, edge):
        try:
            return cyclically_ordered(basepoints[node], last[0], value, last[1], eps)
        except NonDistinct as err:
            kind, pair, index = piece[:3]
            layer, oid = _layer_and_oid(node)
            if not edge.phi and layer == _layer_and_oid(start)[0]:
                # inside the layer the walk started in: name it as a walk
                # over that layer's system alone does
                node, pair = oid, tuple(_layer_and_oid(n)[1] for n in pair)
            raise NonGenericConfiguration(
                f"coincident circle points at intermediate {node} "
                f"({kind}{pair}[{index}]): {err}"
            ) from err

    def nudge(edge, value, node, eps):
        return eps if edge.phi and value == basepoints[node] else 0

    # partial chains (node, last e- circle key and its nudge, visited, sign,
    # trail); an explicit stack, so the walk's depth is not bounded by
    # recursion and its locals are freed when it returns
    stack = []
    if flavor == "hat":
        if not graph.orbit(start).good:
            # the forced bad-orbit diagonal; for good orbits the two candidate
            # configurations carry opposite signs and cancel
            trail = (("bad-diagonal", start), None)
            out.append(Cascade(("check", start), -1, trail))
            out.append(Cascade(("check", start), -1, trail))
        stack.append((start, None, (start,), 1, None))
    else:
        # opening e_plus-pinned pieces
        for edge in graph.m1.get(start, ()):
            for ci in range(len(edge.pieces)):
                for pre in graph.preimages(edge, ci, "plus"):
                    eps = nudge(edge, pre.point, edge.bottom, -1)
                    stack.append((
                        edge.bottom,
                        (pre.point, eps),
                        (start, edge.bottom),
                        pre.sign,
                        (("pre-plus", edge.pair, ci, pre), None),
                    ))
    walked = 0
    while stack:
        current, last, visited, sign, trail = stack.pop()
        if trail is not None:
            walked += 1
            if walked > MAX_PARTIAL_CHAINS:
                layer, oid = _layer_and_oid(start)
                where = f"{flavor}:{oid}" + (f" ({layer} layer)" if layer else "")
                raise InputError(
                    f"the cascade walk from {where} extends more than "
                    f"{MAX_PARTIAL_CHAINS} partial chains"
                )
            out.append(Cascade(("check", current), sign, trail))
        # unconstrained 0-dimensional pieces
        for edge in graph.m0.get(current, ()):
            bottom = edge.bottom
            if bottom in visited:
                continue
            for idx, pt in enumerate(edge.pieces):
                piece = ("m0", edge.pair, idx)
                if last is None or ordered(current, last, pt.e_plus_key, 0, piece,
                                           edge):
                    stack.append((
                        bottom,
                        (pt.e_minus_key, 0),
                        visited + (bottom,),
                        sign * pt.sign,
                        (piece, trail),
                    ))
        # closing e_minus-pinned pieces onto hat generators
        for edge in graph.m1.get(current, ()):
            if edge.bottom in visited:
                continue
            key = ("hat", edge.bottom)
            extra = 1 if edge.phi else -1
            for ci in range(len(edge.pieces)):
                for pre in graph.preimages(edge, ci, "minus"):
                    piece = ("pre-minus", edge.pair, ci, pre)
                    eps = nudge(edge, pre.point, current, 1)
                    if last is None or ordered(current, last, pre.point, eps,
                                               piece, edge):
                        out.append(Cascade(key, extra * sign * pre.sign, (piece, trail)))
    if flavor == "check":
        # check -> hat on one pair needs both pins on one piece: counted by m2cc
        for bottom, count in graph.m2cc.get(start, ()):
            out.append(Cascade(("hat", bottom), count, (("m2cc", (start, bottom)), None)))
    return out


def sum_columns(graph, sources, blocks) -> List[Dict[Tuple[int, int], int]]:
    """Matrix entries (row, column) of several blocks, one walk per column.

    ``sources`` maps the column keys to column indices and each block maps
    the target keys it counts to row indices; every counted chain ends at a
    key of exactly one block.  Every chain is kept: on validated pieces it
    drops the grading by 1, strictly drops the action (the bad diagonal
    stays on one orbit) and keeps the homotopy class, so it lands in a slot
    ``assemble_complex`` allows, and any that did not would fail there.
    """
    where = {key: (b, i) for b, rows in enumerate(blocks) for key, i in rows.items()}
    out = [{} for _ in blocks]
    for key, j in sources.items():
        totals: Dict[Key, int] = {}
        for c in enumerate_cascades(graph, key):
            totals[c.key] = totals.get(c.key, 0) + c.weight
        columns = [{} for _ in blocks]
        for target, weight in totals.items():
            b, i = where[target]
            columns[b][i] = weight
        for entries, column in zip(out, columns):
            for i in sorted(column):
                entries[(i, j)] = column[i]
    return out


def by_action(orbits: Dict[str, Orbit]) -> List[Orbit]:
    """The orbits of ``orbits`` in decreasing action, ties broken by id:
    exactly the order of (-action, oid), compared in integers."""
    (action,) = scaled_actions(orbits)
    ranked = sorted(orbits.items(), key=lambda item: (-action[item[0]], item[1].oid))
    return [orbit for _key, orbit in ranked]


def chain_generators(
    doc, layer: Optional[str] = None
) -> Tuple[Dict[Key, int], List[ChainGenerator]]:
    """The check and hat generator of each orbit of ``doc``, in decreasing
    action: the one list every complex on check/hat generators is built on.

    ``doc`` is a MorseBottSystem or AutonomousData; its
    ``generator_grading(orbit, flavor)`` grades each generator.  Returns
    their keys (flavor, node), mapped to their indices, and their
    ChainGenerators.  A node is the orbit id, or (layer, oid) in a
    cobordism graph.
    """
    keys: Dict[Key, int] = {}
    gens = []
    for orbit in by_action(doc.orbits):
        node = orbit.oid if layer is None else (layer, orbit.oid)
        for flavor in ("check", "hat"):
            keys[(flavor, node)] = len(gens)
            gens.append(
                ChainGenerator(
                    f"{flavor}:{orbit.oid}",
                    doc.generator_grading(orbit, flavor),
                    orbit.homotopy_class,
                    orbit.action,
                    orbit.oid,
                )
            )
    return keys, gens


def assemble_complex(sys: MorseBottSystem, gens, entries) -> ChainComplex:
    """The complex of ``sys`` on ``gens`` with differential ``entries``,
    checked for grading drop, class and action, then for d^2 = 0."""
    modulus = 2 if sys.grading_modulus == "parity" else sys.grading_modulus
    complex_ = ChainComplex(tuple(gens), IntMatrix(len(gens), len(gens), entries), modulus)
    problems = complex_.check_structure()
    if problems:
        raise ValidationFailure(
            [Violation("structure", p, "assembled differential is malformed")
             for p in problems]
        )
    verify_square_zero(complex_)
    return complex_


def build_ncc(sys: MorseBottSystem) -> ChainComplex:
    """Validate ``sys`` and assemble its nonequivariant chain complex."""
    violations = validate_system(sys)
    if violations:
        raise ValidationFailure(violations)

    keys, gens = chain_generators(sys)
    (entries,) = sum_columns(CascadeGraph.of_system(sys), keys, [keys])
    return assemble_complex(sys, gens, entries)


def nch_homology(
    sys: MorseBottSystem,
    action_bound: Optional[Fraction] = None,
) -> HomologyResult:
    """Homology of the nonequivariant complex, optionally action-truncated.

    The differential strictly decreases action between distinct orbits, so
    generators below an action bound form a subcomplex.
    """
    complex_ = build_ncc(sys)
    if action_bound is not None:
        complex_ = complex_.restrict(
            [k for k, g in enumerate(complex_.generators) if g.action < action_bound]
        )
    return homology(complex_)
