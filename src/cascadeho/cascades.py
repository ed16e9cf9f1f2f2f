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
from functools import partial
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
    component_preimages,
    cyclically_ordered,
    scaled_actions,
    validate_system,
)
# not called here; kept because bench/test_bench.py::test_wrappers_are_removed
# checks this binding
from .mbs import signed_preimages  # noqa: F401


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


# a Cascade made from its (key, weight, trail) tuple in one C call: the
# walk makes one per counted chain, and the generated ``Cascade.__new__``
# is a Python function
_cascade = partial(tuple.__new__, Cascade)


# the layers of a cobordism graph: its nodes are (SRC, oid) and (TGT, oid)
SRC, TGT = "src", "tgt"


def _layer_and_oid(node) -> Tuple[Optional[str], Hashable]:
    return node if isinstance(node, tuple) else (None, node)


class Edge(NamedTuple):
    """The moduli pieces of one pair, as seen from its top node."""

    bottom: Hashable
    pair: Tuple  # (top node, bottom node): names the pair in trails and errors
    pieces: Sequence  # SignedPoints on an m0 edge, PLComponents on an m1 edge
    phi: bool  # a cobordism piece: index d - 1 instead of d


class CascadeGraph:
    """Orbit circles (nodes) joined by moduli pieces (edges), indexed by top.

    A system is one layer whose nodes are its orbit ids.  A cobordism is two
    layers, source orbits (SRC, oid) above target orbits (TGT, oid), joined
    by the phi pieces.  Every node is a target, so a walk from a source node
    counts the chains that stay in the source layer (its differential
    column) and those that cross one phi piece (its column of the induced
    map).  ``basepoints`` holds each node's basepoint as a circle key, made
    once per graph; ``orbit(node)`` and ``basepoint(node)`` read a node's
    frame, so ``mbs.signed_preimages`` can query along a pair of the graph.

    ``exits(node)`` lists the pieces a walk leaves a node by, made once per
    graph on first use, so each pinned preimage query is asked once; it
    builds the frames of those queries once per node and edge.
    """

    def __init__(self):
        self.orbits: Dict[Hashable, Orbit] = {}
        self.basepoints: Dict[Hashable, Point] = {}
        self.m0: Dict[Hashable, List[Edge]] = defaultdict(list)
        self.m1: Dict[Hashable, List[Edge]] = defaultdict(list)
        self.m2cc: Dict[Hashable, List[Tuple[Hashable, int]]] = defaultdict(list)
        self._exits: Dict[Hashable, Tuple[List, List, List]] = {}

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

    def exits(self, node) -> Tuple[List, List, List]:
        """The (opening, steps, closing) pieces out of ``node``, in edge,
        piece and crossing order:

        * opening: each e+-pinned crossing at the basepoint of ``node``, as
          (bottom, (e- circle key, nudge), sign, trail);
        * steps: each m0 point, as (bottom, e+ key, (e- key, 0), sign, piece);
        * closing: each e--pinned crossing at the basepoint of its bottom,
          as (hat key of the bottom, weight, e+ circle key, nudge, piece).

        A pinned phi evaluation that lands on the basepoint of the orbit it
        meets is nudged off it: just before it on the target orbit of an
        opening piece (-1), just after it on the source orbit of a closing
        one (+1).  A closing weight carries the extra -1 of an e--pinned
        in-system component.

        The frame (orbit, basepoint key) of ``node`` is built once, and that
        of each m1 edge's bottom once per edge; each (edge, component, side)
        is one ``mbs.component_preimages`` query in those frames.
        """
        found = self._exits.get(node)
        if found is not None:
            return found
        orbits, basepoints = self.orbits, self.basepoints
        here = basepoints[node]
        top = (orbits[node], here)
        opening, steps, closing = [], [], []
        for edge in self.m0.get(node, ()):
            for idx, pt in enumerate(edge.pieces):
                steps.append((edge.bottom, pt.e_plus_key, (pt.e_minus_key, 0), pt.sign,
                              ("m0", edge.pair, idx)))
        for bottom, pair, pieces, phi in self.m1.get(node, ()):
            there = basepoints[bottom]
            below = (orbits[bottom], there)
            key = ("hat", bottom)
            extra = 1 if phi else -1
            for ci, comp in enumerate(pieces):
                for pre in component_preimages(comp, "plus", here, top, below):
                    eps = -1 if phi and pre.point == there else 0
                    opening.append((bottom, (pre.point, eps), pre.sign,
                                    (("pre-plus", pair, ci, pre), None)))
                for pre in component_preimages(comp, "minus", there, top, below):
                    eps = 1 if phi and pre.point == here else 0
                    closing.append((key, extra * pre.sign, pre.point, eps,
                                    ("pre-minus", pair, ci, pre)))
        found = self._exits[node] = (opening, steps, closing)
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

    The walk reads each node's ``exits``.  A phi piece differs from an
    in-system piece in two ways, both settled there: an e_minus-pinned phi1
    piece carries no extra -1, and a pinned phi evaluation on a basepoint is
    nudged off it.  Raises InputError once the walk has extended
    MAX_PARTIAL_CHAINS chains.
    """
    flavor, start = src
    out: List[Cascade] = []
    basepoints = graph.basepoints
    exits = graph.exits

    def ordered(node, last, value, eps, piece):
        try:
            return cyclically_ordered(basepoints[node], last[0], value, last[1], eps)
        except NonDistinct as err:
            kind, pair, index = piece[:3]
            layer, oid = _layer_and_oid(node)
            layers = [_layer_and_oid(n)[0] for n in pair]
            if layers[0] == layers[1] == _layer_and_oid(start)[0]:
                # an in-system piece of the layer the walk started in: name it
                # as a walk over that layer's system alone does
                node, pair = oid, tuple(_layer_and_oid(n)[1] for n in pair)
            raise NonGenericConfiguration(
                f"coincident circle points at intermediate {node} "
                f"({kind}{pair}[{index}]): {err}"
            ) from err

    # partial chains (node, last e- circle key and its nudge, visited, sign,
    # trail); an explicit stack, so the walk's depth is not bounded by
    # recursion and its locals are freed when it returns
    stack = []
    if flavor == "hat":
        if not graph.orbit(start).good:
            # the forced bad-orbit diagonal; for good orbits the two candidate
            # configurations carry opposite signs and cancel
            trail = (("bad-diagonal", start), None)
            out.append(_cascade((("check", start), -1, trail)))
            out.append(_cascade((("check", start), -1, trail)))
        stack.append((start, None, (start,), 1, None))
    else:
        for bottom, last, sign, trail in exits(start)[0]:
            stack.append((bottom, last, (start, bottom), sign, trail))
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
            out.append(_cascade((("check", current), sign, trail)))
        _opening, steps, closing = exits(current)
        # unconstrained 0-dimensional pieces
        for bottom, e_plus, e_minus, weight, piece in steps:
            if bottom not in visited and (
                last is None or ordered(current, last, e_plus, 0, piece)
            ):
                stack.append((bottom, e_minus, visited + (bottom,), sign * weight,
                              (piece, trail)))
        # closing e_minus-pinned pieces onto hat generators
        for key, weight, point, eps, piece in closing:
            if key[1] not in visited and (
                last is None or ordered(current, last, point, eps, piece)
            ):
                out.append(_cascade((key, weight * sign, (piece, trail))))
    if flavor == "check":
        # check -> hat on one pair needs both pins on one piece: counted by m2cc
        for bottom, count in graph.m2cc.get(start, ()):
            out.append(_cascade((("hat", bottom), count, (("m2cc", (start, bottom)), None))))
    return out


def sum_columns(graph, sources, blocks) -> List[Dict[Tuple[int, int], int]]:
    """The nonzero matrix entries (row, column) of several blocks, one walk
    per column, each column's entries in row order.

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
        for target, weight, _trail in enumerate_cascades(graph, key):
            totals[target] = totals.get(target, 0) + weight
        for (b, i), weight in sorted([(where[t], w) for t, w in totals.items() if w]):
            out[b][(i, j)] = weight
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
    """The complex of ``sys`` on ``gens`` with differential ``entries`` (as
    ``sum_columns`` gives them), checked for grading drop, class and action,
    then for d^2 = 0."""
    modulus = 2 if sys.grading_modulus == "parity" else sys.grading_modulus
    complex_ = ChainComplex(tuple(gens), IntMatrix._trusted(len(gens), len(gens), entries),
                            modulus)
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
