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
    orbit_tables,
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
    """One counted chain: the row of its target (``CascadeGraph.key`` names
    it), its weight, and its trail.

    The trail is (last piece, trail before it), back to None.  A pinned
    piece records its Preimage; ``pieces`` unwinds the trail, with each
    such piece's parameter t as a Fraction, only when a caller asks.
    """

    row: int
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


# a Cascade made from its (row, weight, trail) tuple in one C call: a walk
# with trails makes one per counted chain, and the generated
# ``Cascade.__new__`` is a Python function
_cascade = partial(tuple.__new__, Cascade)


# the layers of a cobordism graph: its nodes are (SRC, oid) and (TGT, oid)
SRC, TGT = "src", "tgt"


def _layer_and_oid(node) -> Tuple[Optional[str], Hashable]:
    return node if isinstance(node, tuple) else (None, node)


class Edge(NamedTuple):
    """The moduli pieces of one pair, as seen from its top node."""

    bottom: int  # the number of the bottom node
    pair: Tuple  # (top key, bottom key): names the pair in trails and errors
    pieces: Sequence  # SignedPoints on an m0 edge, PLComponents on an m1 edge
    phi: bool  # a cobordism piece: index d - 1 instead of d


# an Edge made from its field tuple in one C call
_edge = partial(tuple.__new__, Edge)


class CascadeGraph:
    """Orbit circles (nodes) joined by moduli pieces (edges), indexed by top.

    A system is one layer whose nodes are its orbit ids.  A cobordism is two
    layers, source orbits (SRC, oid) above target orbits (TGT, oid), joined
    by the phi pieces.  Every node is a target, so a walk from a source node
    counts the chains that stay in the source layer (its differential
    column) and those that cross one phi piece (its column of the induced
    map).  The nodes are numbered once, layer by layer; ``nodes`` holds
    their keys, for trails and messages, and every other table is a list
    indexed by node number.  The generator rows of node n are 2n (check)
    and 2n + 1 (hat).  ``orbits`` holds each node's orbit and
    ``basepoints`` its basepoint as a circle key: a node's frame, read from
    the request's ``OrbitTable`` of each layer.

    ``exits(node)`` lists the pieces a walk leaves a node by, made once per
    graph on first use, so each pinned preimage query is asked once; it
    builds the frames of those queries once per node and edge.
    """

    def __init__(self):
        self.nodes: List[Hashable] = []
        self.number: Dict[Hashable, int] = {}  # a node's key -> its number
        self.orbits: List[Orbit] = []
        self.basepoints: List[Point] = []
        self.m0: List[List[Edge]] = []
        self.m1: List[List[Edge]] = []
        self.m2cc: List[List[Tuple[int, int, Tuple]]] = []
        self._exits: List[Optional[Tuple[List, List, List]]] = []

    @classmethod
    def of_system(cls, sys: MorseBottSystem, point) -> "CascadeGraph":
        graph = cls()
        graph._layer(sys, lambda oid: oid, point)
        return graph

    @classmethod
    def of_cobordism(cls, source, target, phi0, phi1, points) -> "CascadeGraph":
        graph = cls()
        src = graph._layer(source, lambda oid: (SRC, oid), points[0])
        tgt = graph._layer(target, lambda oid: (TGT, oid), points[1])
        graph._edges(phi0, phi1, {}, src, tgt, phi=True)
        return graph

    def key(self, row: int) -> Key:
        """The (flavor, node key) of the generator in ``row``."""
        return ("hat" if row & 1 else "check", self.nodes[row >> 1])

    def exits(self, node: int) -> Tuple[List, List, List]:
        """The (opening, steps, closing) pieces out of ``node``, in edge,
        piece and crossing order:

        * opening: each e+-pinned crossing at the basepoint of ``node``, as
          (bottom, e- circle key, nudge, sign, pair, component index, Preimage);
        * steps: each m0 point, as (bottom, e+ key, e- key, sign, pair, index);
        * closing: each e--pinned crossing at the basepoint of its bottom, as
          (bottom, e+ circle key, nudge, weight, pair, component index, Preimage).

        An entry holds only what a counting walk reads; a walk with trails
        builds its trail pieces from them.

        A pinned phi evaluation that lands on the basepoint of the orbit it
        meets is nudged off it: just before it on the target orbit of an
        opening piece (-1), just after it on the source orbit of a closing
        one (+1).  A closing weight carries the extra -1 of an e--pinned
        in-system component.

        The frame (orbit, basepoint key) of ``node`` is built once, and that
        of each m1 edge's bottom once per edge; each (edge, component, side)
        is one ``mbs.component_preimages`` query in those frames.
        """
        found = self._exits[node]
        if found is not None:
            return found
        orbits, basepoints = self.orbits, self.basepoints
        here = basepoints[node]
        top = (orbits[node], here)
        opening, steps, closing = [], [], []
        for bottom, pair, pieces, _phi in self.m0[node]:
            for idx, pt in enumerate(pieces):
                steps.append((bottom, pt.e_plus_key, pt.e_minus_key, pt.sign, pair, idx))
        for bottom, pair, pieces, phi in self.m1[node]:
            there = basepoints[bottom]
            below = (orbits[bottom], there)
            extra = 1 if phi else -1
            for ci, comp in enumerate(pieces):
                for pre in component_preimages(comp, "plus", here, top, below):
                    eps = -1 if phi and pre.point == there else 0
                    opening.append((bottom, pre.point, eps, pre.sign, pair, ci, pre))
                for pre in component_preimages(comp, "minus", there, top, below):
                    eps = 1 if phi and pre.point == here else 0
                    closing.append((bottom, pre.point, eps, extra * pre.sign, pair, ci, pre))
        found = self._exits[node] = (opening, steps, closing)
        return found

    def _layer(self, sys, key, point) -> Dict[str, int]:
        """Add ``sys`` as a layer of nodes named ``key(oid)``, with the
        basepoint keys ``point`` (``OrbitTable.point``); returns the number
        of each oid."""
        at = {oid: len(self.nodes) + k for k, oid in enumerate(sys.orbits)}
        keys = [key(oid) for oid in sys.orbits]
        self.number.update(zip(keys, at.values()))
        self.nodes += keys
        self.orbits += sys.orbits.values()
        self.basepoints += point.values()
        for table in (self.m0, self.m1, self.m2cc):
            table += [[] for _ in keys]
        self._exits += [None] * len(keys)
        self._edges(sys.m0, sys.m1, sys.m2cc, at, at, phi=False)
        return at

    def _edges(self, m0, m1, m2cc, upper, lower, phi):
        nodes = self.nodes
        for table, moduli in ((self.m0, m0), (self.m1, m1)):
            for (a, b), pieces in moduli.items():
                if pieces:
                    top, bottom = upper[a], lower[b]
                    table[top].append(_edge((bottom, (nodes[top], nodes[bottom]),
                                             pieces, phi)))
        for (a, b), count in m2cc.items():
            if count:
                top, bottom = upper[a], lower[b]
                self.m2cc[top].append((bottom, count, (nodes[top], nodes[bottom])))


def enumerate_cascades(graph: CascadeGraph, src: Key, trails: bool = True) -> List:
    """All rigid cascades out of the generator ``src`` = (flavor, node key):
    one walk gives its whole column, each cascade naming its target by row.

    The walk reads each node's ``exits``.  A phi piece differs from an
    in-system piece in two ways, both settled there: an e_minus-pinned phi1
    piece carries no extra -1, and a pinned phi evaluation on a basepoint is
    nudged off it.  Raises InputError once the walk has extended
    MAX_PARTIAL_CHAINS chains.  With ``trails`` false it records no trail
    and gives a (row, weight) pair per counted chain, in the same order.
    """
    flavor, start = src
    start = graph.number[start]
    out = []
    basepoints, table = graph.basepoints, graph._exits

    # partial chains (node, last e- circle key and its nudge, visited, sign,
    # trail); an explicit stack, so the walk's depth is not bounded by
    # recursion and its locals are freed when it returns.  Without trails
    # the trail slot holds False past a walk's start.
    stack = []
    if flavor == "hat":
        if not graph.orbits[start].good:
            # the forced bad-orbit diagonal; for good orbits the two candidate
            # configurations carry opposite signs and cancel
            trail = trails and (("bad-diagonal", graph.nodes[start]), None)
            out += [_cascade((2 * start, -1, trail)) if trails else (2 * start, -1)] * 2
        stack.append((start, None, 0, (start,), 1, None))
    else:
        for bottom, last, eps, sign, pair, ci, pre in graph.exits(start)[0]:
            stack.append((bottom, last, eps, (start, bottom), sign,
                          trails and (("pre-plus", pair, ci, pre), None)))
    walked = 0
    while stack:
        current, last, eps, visited, sign, trail = stack.pop()
        if last is not None:  # every partial chain but a hat walk's start
            walked += 1
            if walked > MAX_PARTIAL_CHAINS:
                layer, oid = _layer_and_oid(graph.nodes[start])
                where = f"{flavor}:{oid}" + (f" ({layer} layer)" if layer else "")
                raise InputError(
                    f"the cascade walk from {where} extends more than "
                    f"{MAX_PARTIAL_CHAINS} partial chains"
                )
            out.append(_cascade((2 * current, sign, trail)) if trails
                       else (2 * current, sign))
        _opening, steps, closing = table[current] or graph.exits(current)
        here = basepoints[current]
        try:
            # unconstrained 0-dimensional pieces
            kind = "m0"
            for bottom, e_plus, e_minus, weight, pair, index in steps:
                if bottom not in visited and (
                    last is None or cyclically_ordered(here, last, e_plus, eps, 0)
                ):
                    stack.append((bottom, e_minus, 0, visited + (bottom,), sign * weight,
                                  trails and (("m0", pair, index), trail)))
            # closing e_minus-pinned pieces onto hat generators
            kind = "pre-minus"
            for bottom, point, nudge, weight, pair, index, pre in closing:
                if bottom not in visited and (
                    last is None or cyclically_ordered(here, last, point, eps, nudge)
                ):
                    out.append(_cascade((2 * bottom + 1, weight * sign,
                                         (("pre-minus", pair, index, pre), trail)))
                               if trails else (2 * bottom + 1, weight * sign))
        except NonDistinct as err:
            node = graph.nodes[current]
            layer, oid = _layer_and_oid(node)
            layers = [_layer_and_oid(n)[0] for n in pair]
            if layers[0] == layers[1] == _layer_and_oid(graph.nodes[start])[0]:
                # an in-system piece of the layer the walk started in: name it
                # as a walk over that layer's system alone does
                node, pair = oid, tuple(_layer_and_oid(n)[1] for n in pair)
            raise NonGenericConfiguration(
                f"coincident circle points at intermediate {node} "
                f"({kind}{pair}[{index}]): {err}"
            ) from err
    if flavor == "check":
        # check -> hat on one pair needs both pins on one piece: counted by m2cc
        for bottom, count, pair in graph.m2cc[start]:
            out.append(_cascade((2 * bottom + 1, count, (("m2cc", pair), None)))
                       if trails else (2 * bottom + 1, count))
    return out


def sum_columns(graph, sources, blocks) -> List[Dict[Tuple[int, int], int]]:
    """The nonzero matrix entries (row, column) of several blocks, one walk
    per column without trails, each column's entries in row order.

    ``sources`` maps the column keys to column indices and each block maps
    the target keys it counts to row indices; every counted chain ends at a
    key of exactly one block.  Every chain is kept: on validated pieces it
    drops the grading by 1, strictly drops the action (the bad diagonal
    stays on one orbit) and keeps the homotopy class, so it lands in a slot
    ``assemble_complex`` allows, and any that did not would fail there.

    The (block, row) slot of each graph row is read from one list, each
    column's chains are totalled by slot, and the slots are sorted once, so
    the entries of each block's column are inserted in row order.
    """
    slots: List[Optional[Tuple[int, int]]] = [None] * (2 * len(graph.nodes))
    for b, rows in enumerate(blocks):
        for (flavor, node), i in rows.items():
            slots[2 * graph.number[node] + (flavor == "hat")] = (b, i)
    out = [{} for _ in blocks]
    for key, j in sources.items():
        totals: Dict[Tuple[int, int], int] = {}
        for row, weight in enumerate_cascades(graph, key, trails=False):
            slot = slots[row]
            totals[slot] = totals.get(slot, 0) + weight
        for slot in sorted(totals):
            weight = totals[slot]
            if weight:
                b, i = slot
                out[b][(i, j)] = weight
    return out


def by_action(orbits: Dict[str, Orbit], action: Dict[str, int]) -> List[Orbit]:
    """The orbits of ``orbits`` in decreasing action, ties broken by id:
    exactly the order of (-action, oid), compared in the request's integer
    actions ``action`` (``mbs.scaled_actions``)."""
    ranked = sorted(orbits.items(), key=lambda item: (-action[item[0]], item[1].oid))
    return [orbit for _key, orbit in ranked]


def chain_generators(
    doc, action: Dict[str, int], layer: Optional[str] = None
) -> Tuple[Dict[Key, int], List[ChainGenerator]]:
    """The check and hat generator of each orbit of ``doc``, in decreasing
    action: the one list every complex on check/hat generators is built on.

    ``doc`` is a MorseBottSystem or AutonomousData; its
    ``generator_grading(orbit, flavor)`` grades each generator.  Returns
    their keys (flavor, node), mapped to their indices, and their
    ChainGenerators, each made in one call.  A node is the orbit id, or
    (layer, oid) in a cobordism graph.
    """
    keys: Dict[Key, int] = {}
    gens = []
    new = tuple.__new__
    for orbit in by_action(doc.orbits, action):
        oid = orbit.oid
        node = oid if layer is None else (layer, oid)
        for flavor in ("check", "hat"):
            keys[(flavor, node)] = len(gens)
            gens.append(new(ChainGenerator, (
                f"{flavor}:{oid}", doc.generator_grading(orbit, flavor),
                orbit.homotopy_class, orbit.action, oid)))
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
    (table,) = orbit_tables(sys)
    violations = validate_system(sys, table)
    if violations:
        raise ValidationFailure(violations)

    keys, gens = chain_generators(sys, table.action)
    (entries,) = sum_columns(CascadeGraph.of_system(sys, table.point), keys, [keys])
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
