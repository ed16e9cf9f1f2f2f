"""Cobordism data between two systems and the induced chain maps.

A morphism consists of signed counts of rigid cobordism moduli (``phi0``)
and PL descriptions of one-dimensional ones (``phi1``), between source
orbits (top) and target orbits (bottom).  A d-dimensional phi-moduli has
index d - 1, so the grading bookkeeping is shifted by one against the
in-system moduli: phi0 lives on pairs with grading gap -1, phi1 on gap 0.

The induced map on the nonequivariant complexes counts chains made of
source pieces, exactly one phi piece, then target pieces: the cascade
walk of the differential, run over the two-layer graph of the cobordism.
Because the index parity of phi pieces is shifted, an e_minus-pinned phi1
piece carries no extra sign (unlike an e_minus-pinned in-system component,
which carries -1).  The chain-map identity d . phi = phi . d is enforced as a hard
postcondition, and the trivial cobordism induces the identity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Set, Tuple

from .errors import ChainMapFailure, ValidationFailure
from .exact import ChainComplex, IntMatrix, product_sum
from .mbs import (
    Level,
    MorseBottSystem,
    PLComponent,
    SignedPoint,
    Violation,
    basepoint_collisions,
    check_broken_pair,
    end_where,
    orbit_tables,
    validate_moduli,
    validate_system,
)
# not called here; kept because bench/test_bench.py::test_wrappers_are_removed
# checks this binding
from .mbs import component_preimages  # noqa: F401
from .cascades import (
    SRC,
    TGT,
    CascadeGraph,
    assemble_complex,
    chain_generators,
    sum_columns,
)

Pair = Tuple[str, str]


@dataclass(frozen=True)
class PhiLabel:
    """Broken-pair label for one end of an interval phi1 component.

    ``side`` says where the breaking happens: "top" for a source-moduli
    level splitting off above (sign factor +1), "bottom" for a target level
    below (sign factor (-1)^d_phi).  ``d_phi`` is the dimension of the phi
    level in the broken configuration; the complementary in-system level has
    dimension 1 - d_phi.
    """

    side: str  # "top" | "bottom"
    orbit: str  # the intermediate orbit (source orbit for top, target for bottom)
    d_phi: int  # 0 or 1
    point_index: int
    component_index: int
    t: Fraction


@dataclass
class MorphismData:
    source: MorseBottSystem
    target: MorseBottSystem
    phi0: Dict[Pair, List[SignedPoint]] = field(default_factory=dict)
    phi1: Dict[Pair, List[PLComponent]] = field(default_factory=dict)
    # pairs allowed to have equal action across the cobordism (e.g. the
    # trivial cobordism); all others must strictly decrease
    allow_equal_action: Set[Pair] = field(default_factory=set)


def validate_morphism(m: MorphismData, tables=None) -> List[Violation]:
    """Both systems' checks, then the phi moduli's, over the request's
    ``OrbitTable``s of source and target (made here when None).

    An orbit whose basepoint a phi evaluation hits is a
    ``basepoint-collision`` at source:oid or target:oid, as a hit inside its
    own system is, reported once; these come after both systems' violations
    and before the phi moduli's."""
    tables = tables or orbit_tables(m.source, m.target)
    v: List[Violation] = []
    for name, sys, table in (("source", m.source, tables[0]),
                             ("target", m.target, tables[1])):
        for violation in validate_system(sys, table):
            v.append(
                Violation(violation.code, f"{name}:{violation.location}",
                          violation.message)
            )

    moduli: List[Violation] = []
    hits = validate_moduli(
        moduli, (("phi0", 0, m.phi0), ("phi1", 1, m.phi1)), tables,
        shift=1, modulus=0, equal_action=m.allow_equal_action,
        end_check=partial(_validate_phi_end, m, [table.frame for table in tables]),
    )
    reported = {x.location for x in v if x.code == "basepoint-collision"}
    for name, table, hit in zip(("source:", "target:"), tables, hits):
        v += [x for x in basepoint_collisions(table.frame, hit, name)
              if x.location not in reported]
    return v + moduli


def _validate_phi_end(m, frames, pair, comp, ci, end, v):
    top, bottom = pair
    label = comp.boundary_labels[end]
    if not isinstance(label, PhiLabel) or label.side not in ("top", "bottom") \
            or label.d_phi not in (0, 1):
        v.append(Violation("bad-label", end_where("phi1", pair, ci, end),
                           "phi interval ends need PhiLabel entries"))
        return
    mid = label.orbit
    src, tgt = frames
    name, layer = ("source", src) if label.side == "top" else ("target", tgt)
    if mid not in layer:
        v.append(Violation("bad-label-orbit", end_where("phi1", pair, ci, end),
                           f"unknown {name} orbit {mid!r}"))
        return
    if label.side == "top":
        # a source level splits off above the phi level
        upper = Level(m.source.m0, m.source.m1, (top, mid), (src[top], src[mid]))
        lower = Level(m.phi0, m.phi1, (mid, bottom), (src[mid], tgt[bottom]))
        d_upper, factor = 1 - label.d_phi, 1
    else:
        # a target level splits off below the phi level
        upper = Level(m.phi0, m.phi1, (top, mid), (src[top], tgt[mid]))
        lower = Level(m.target.m0, m.target.m1, (mid, bottom), (tgt[mid], tgt[bottom]))
        d_upper, factor = label.d_phi, (-1) ** label.d_phi
    check_broken_pair(v, "phi1", pair, ci, comp, (src[top], tgt[bottom]),
                      end, label, d_upper, upper, lower, factor)


# ---------------------------------------------------------------------------
# induced chain map


@dataclass(frozen=True)
class ChainMap:
    source_complex: ChainComplex
    target_complex: ChainComplex
    matrix: IntMatrix  # columns: source generators, rows: target generators

    def is_identity(self) -> bool:
        """The identity matrix between generators of equal ids, read off the
        entries: n of them, each a diagonal 1."""
        m, n = self.matrix, len(self.source_complex.generators)
        return m.rows == m.cols == n == len(m.entries) and all(
            m.entries.get((i, i)) == 1 for i in range(n)) and [
            g.gid for g in self.source_complex.generators
        ] == [g.gid for g in self.target_complex.generators]


def compose(second: ChainMap, first: ChainMap) -> ChainMap:
    """second o first; the middle complexes must agree generator-for-generator."""
    mid_a = [g.gid for g in first.target_complex.generators]
    mid_b = [g.gid for g in second.source_complex.generators]
    if mid_a != mid_b:
        raise ValueError("chain maps are not composable")
    return ChainMap(
        first.source_complex,
        second.target_complex,
        second.matrix * first.matrix,
    )


def induced_chain_map(m: MorphismData) -> ChainMap:
    """Validate ``m``, count one-phi-piece chains; enforce the chain-map
    identity."""
    tables = orbit_tables(m.source, m.target)  # one scale for both layers
    violations = validate_morphism(m, tables)
    if violations:
        raise ValidationFailure(violations)

    src_keys, src_gens = chain_generators(m.source, tables[0].action, SRC)
    tgt_keys, tgt_gens = chain_generators(m.target, tables[1].action, TGT)

    # one graph: a walk from a source generator yields its d_src column (the
    # chains ending in the source layer) and its phi column (those that cross
    # into the target layer).  Target columns go first, so that a coincidence
    # among target pieces alone is met as build_ncc(target) meets it.
    graph = CascadeGraph.of_cobordism(m.source, m.target, m.phi0, m.phi1,
                                      [table.frame for table in tables])
    (d_tgt,) = sum_columns(graph, tgt_keys, [tgt_keys])
    d_src, phi = sum_columns(graph, src_keys, [src_keys, tgt_keys])
    src_cx = assemble_complex(m.source, src_gens, d_src)
    tgt_cx = assemble_complex(m.target, tgt_gens, d_tgt)
    matrix = IntMatrix._trusted(len(tgt_gens), len(src_gens), phi)

    # d_tgt . phi - phi . d_src, named by its least (row, column) entry
    defect = product_sum((1, d_tgt, phi), (-1, phi, d_src))
    if defect:
        (i, j), value = min(defect.items())
        raise ChainMapFailure(src_gens[j].gid, tgt_gens[i].gid, value)
    return ChainMap(src_cx, tgt_cx, matrix)


# ---------------------------------------------------------------------------
# trivial cobordism


def trivial_cobordism(sys: MorseBottSystem) -> MorphismData:
    """The identity cobordism: one identity cylinder circle per orbit."""
    import copy

    target = copy.deepcopy(sys)
    phi1: Dict[Pair, List[PLComponent]] = {}
    for oid in sys.orbits:
        c = (sys.basepoints[oid] + Fraction(1, 2)) % 1
        lift = ((Fraction(0), c), (Fraction(1), c + 1))
        phi1[(oid, oid)] = [PLComponent("circle", 1, lift, lift)]
    return MorphismData(
        source=sys,
        target=target,
        phi1=phi1,
        allow_equal_action={(oid, oid) for oid in sys.orbits},
    )
