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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import NonDistinct, NonGenericConfiguration, ValidationFailure
from .exact import ChainComplex, ChainGenerator, HomologyResult, IntMatrix, homology
from .mbs import (
    MorseBottSystem,
    Violation,
    cyclically_ordered,
    signed_preimages,
)


@dataclass(frozen=True)
class CascadeGenerator:
    flavor: str  # "check" | "hat"
    orbit: str

    def __post_init__(self):
        if self.flavor not in ("check", "hat"):
            raise ValueError(f"bad flavor {self.flavor!r}")

    @property
    def gid(self) -> str:
        return f"{self.flavor}:{self.orbit}"


@dataclass(frozen=True)
class Cascade:
    source: CascadeGenerator
    target: CascadeGenerator
    pieces: Tuple
    weight: int  # +-1 for honest cascades; the raw count for m2cc entries


def _ordered(sys, orbit_id, after, before, context):
    try:
        return cyclically_ordered(sys.basepoint(orbit_id), after, before)
    except NonDistinct as err:
        raise NonGenericConfiguration(
            f"coincident circle points at intermediate {orbit_id} ({context}): {err}"
        ) from err


def enumerate_cascades(
    sys: MorseBottSystem, src: CascadeGenerator, dst: CascadeGenerator
) -> List[Cascade]:
    """All rigid cascades contributing to <d src, dst>."""
    if src.orbit == dst.orbit:
        # only the forced bad-orbit diagonal survives; for good orbits the
        # two candidate configurations carry opposite signs and cancel.
        if (
            src.flavor == "hat"
            and dst.flavor == "check"
            and not sys.orbit(src.orbit).good
        ):
            pieces = (("bad-diagonal", src.orbit),)
            return [Cascade(src, dst, pieces, -1), Cascade(src, dst, pieces, -1)]
        return []

    p_src = sys.basepoint(src.orbit)
    p_dst = sys.basepoint(dst.orbit)
    out: List[Cascade] = []

    def extend(current, last_minus, visited, sign, pieces):
        if current == dst.orbit:
            if dst.flavor == "check":
                out.append(Cascade(src, dst, tuple(pieces), sign))
            return
        # unconstrained 0-dimensional pieces
        for (top, bottom), points in sys.m0.items():
            if top != current or bottom in visited:
                continue
            if bottom == dst.orbit and dst.flavor == "hat":
                continue  # a hat target is reached only by a pinned piece
            for idx, pt in enumerate(points):
                if last_minus is not None and not _ordered(
                    sys, current, last_minus, pt.e_plus, f"m0({top},{bottom})[{idx}]"
                ):
                    continue
                extend(
                    bottom,
                    pt.e_minus,
                    visited | {bottom},
                    sign * pt.sign,
                    pieces + [("m0", (top, bottom), idx)],
                )
        # closing pinned piece for hat targets (extra factor -1)
        if dst.flavor == "hat":
            pair = (current, dst.orbit)
            for ci, comp in enumerate(sys.m1.get(pair, [])):
                for pre in signed_preimages(sys, pair, comp, "minus", p_dst):
                    if last_minus is not None and not _ordered(
                        sys, current, last_minus, pre.residual, f"m1{pair}[{ci}]"
                    ):
                        continue
                    out.append(
                        Cascade(
                            src,
                            dst,
                            tuple(pieces + [("pre-minus", pair, ci, pre.t)]),
                            -sign * pre.sign,
                        )
                    )

    if src.flavor == "hat":
        extend(src.orbit, None, {src.orbit}, 1, [])
    else:
        # pinned opening piece on a 1-dimensional component
        for (top, bottom), comps in sys.m1.items():
            if top != src.orbit:
                continue
            for ci, comp in enumerate(comps):
                for pre in signed_preimages(sys, (top, bottom), comp, "plus", p_src):
                    piece = ("pre-plus", (top, bottom), ci, pre.t)
                    if bottom == dst.orbit:
                        if dst.flavor == "check":
                            out.append(Cascade(src, dst, (piece,), pre.sign))
                        # check->hat on the same pair needs both pins on one
                        # piece; that count is supplied directly via m2cc.
                        continue
                    extend(
                        bottom,
                        pre.residual,
                        {src.orbit, bottom},
                        pre.sign,
                        [piece],
                    )
        if dst.flavor == "hat":
            count = sys.m2cc.get((src.orbit, dst.orbit), 0)
            if count:
                out.append(
                    Cascade(src, dst, (("m2cc", (src.orbit, dst.orbit)),), count)
                )
    return out


def build_ncc(sys: MorseBottSystem, validate: bool = True) -> ChainComplex:
    """Assemble the nonequivariant chain complex of a validated system."""
    from .mbs import validate_system

    if validate:
        violations = validate_system(sys)
        if violations:
            raise ValidationFailure(violations)

    order = sorted(sys.orbits.values(), key=lambda o: (-o.action, o.oid))
    gens = []
    cgens = []
    for orbit in order:
        for flavor in ("check", "hat"):
            cg = CascadeGenerator(flavor, orbit.oid)
            if sys.grading_modulus == "parity":
                grading = (orbit.parity + (flavor == "hat")) % 2
            else:
                if orbit.grading is None:
                    raise ValidationFailure(
                        [Violation("missing-grading", orbit.oid,
                                   "integer grading required unless the "
                                   "grading modulus is 'parity'")]
                    )
                grading = orbit.grading + (flavor == "hat")
                if sys.grading_modulus:
                    grading %= sys.grading_modulus
            cgens.append(cg)
            gens.append(
                ChainGenerator(
                    cg.gid,
                    grading,
                    orbit.homotopy_class,
                    orbit.action,
                    orbit.oid,
                )
            )

    index = {g.gid: k for k, g in enumerate(gens)}
    entries = {}
    for sg in cgens:
        src_orbit = sys.orbit(sg.orbit)
        for tg in cgens:
            tgt_orbit = sys.orbit(tg.orbit)
            if sg.orbit != tg.orbit and not tgt_orbit.action < src_orbit.action:
                continue
            if src_orbit.homotopy_class != tgt_orbit.homotopy_class:
                continue
            coeff = sum(c.weight for c in enumerate_cascades(sys, sg, tg))
            if coeff:
                entries[(index[tg.gid], index[sg.gid])] = coeff

    modulus = 2 if sys.grading_modulus == "parity" else sys.grading_modulus
    complex_ = ChainComplex(tuple(gens), IntMatrix(len(gens), len(gens), entries), modulus)
    problems = complex_.check_structure()
    if problems:
        raise ValidationFailure(
            [Violation("structure", p, "assembled differential is malformed")
             for p in problems]
        )
    return complex_


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
        keep = [
            k
            for k, g in enumerate(complex_.generators)
            if g.action < action_bound
        ]
        remap = {old: new for new, old in enumerate(keep)}
        keep_set = set(keep)
        entries = {
            (remap[i], remap[j]): val
            for (i, j), val in complex_.differential.entries.items()
            if i in keep_set and j in keep_set
        }
        complex_ = ChainComplex(
            tuple(complex_.generators[k] for k in keep),
            IntMatrix(len(keep), len(keep), entries),
            complex_.grading_modulus,
        )
    return homology(complex_)
