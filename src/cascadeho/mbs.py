"""Combinatorial Morse-Bott orbit systems.

An orbit is a circle; evaluation data lives on circles R/Z with rational
coordinates.  One-dimensional moduli between orbits are recorded as
piecewise-linear components (circles or intervals) whose evaluation maps are
given as PL lifts to the universal cover, so winding numbers and crossing
counts are exact integer data.  Orientation local systems are trivialised at
a basepoint on each orbit; bad orbits have monodromy -1, so transporting a
sign past the basepoint flips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import NonDistinct, NonRegularValue, ValidationFailure

Pair = Tuple[str, str]

# most crossings of one point that a lift may have: untrusted documents
# cannot make a preimage query unbounded work
MAX_LIFT_CROSSINGS = 10**5


def frac_mod1(x: Fraction) -> Fraction:
    """Representative of x in [0, 1)."""
    n, d = x.numerator, x.denominator
    if 0 <= n < d:
        return x
    return Fraction(n % d, d)


def circle_key(x: Fraction) -> Tuple[int, int]:
    """x mod 1 as the integer pair (n mod d, d) of its reduced form n/d: two
    rationals are one point of R/Z iff their keys are equal."""
    d = x.denominator
    return x.numerator % d, d


def cyclically_ordered(
    p: Fraction, a: Fraction, b: Fraction, eps_a: int = 0, eps_b: int = 0
) -> bool:
    """True iff starting at p and moving positively one meets a before b.

    All three points are taken mod 1.  ``eps_a`` / ``eps_b`` in {-1, 0, +1}
    nudge a point infinitesimally below / above its nominal position; with
    both 0 the points must be pairwise distinct.  A point nudged off p sits
    just before p (eps -1) or just after it (eps +1).
    """
    # (a - p) mod 1 = an / ad and (b - p) mod 1 = bn / bd, compared by
    # cross-multiplication; a point nudged off p moves to 1 (eps -1) or
    # stays at 0 (eps +1), and the nudge breaks ties
    pn, pd = p.numerator, p.denominator
    ad = a.denominator * pd
    an = (a.numerator * pd - pn * a.denominator) % ad
    bd = b.denominator * pd
    bn = (b.numerator * pd - pn * b.denominator) % bd
    if an == 0 and eps_a < 0:
        an = ad
    if bn == 0 and eps_b < 0:
        bn = bd
    cross = an * bd - bn * ad
    if (cross == 0 and eps_a == eps_b) or (an == 0 and not eps_a) or (
        bn == 0 and not eps_b
    ):
        raise NonDistinct(
            f"points not distinct: {frac_mod1(p)}, {frac_mod1(a)} (eps {eps_a}), "
            f"{frac_mod1(b)} (eps {eps_b})"
        )
    return cross < 0 or (cross == 0 and eps_a < eps_b)


@dataclass(frozen=True)
class Orbit:
    oid: str
    d: int  # covering multiplicity over the underlying simple orbit
    parity: int  # Conley-Zehnder parity, 0 or 1
    good: bool
    action: Fraction
    homotopy_class: str = ""
    grading: Optional[int] = None  # integer grading of the check generator

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError(f"{self.oid}: parity must be 0 or 1")
        if self.d < 1:
            raise ValueError(f"{self.oid}: multiplicity d must be >= 1")


@dataclass(frozen=True)
class SignedPoint:
    """A point of a 0-dimensional moduli space with its sign."""

    e_plus: Fraction
    e_minus: Fraction
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")


@dataclass(frozen=True)
class BoundaryLabel:
    """Broken-pair label for one end of an interval component.

    The end of an interval in M_1(g+, g-) converges to a two-level broken
    configuration through ``orbit``: with d_plus = 0 the upper level is the
    SignedPoint m0[(g+, orbit)][point_index] and the lower level is the point
    at parameter ``t`` on m1[(orbit, g-)][component_index]; with d_plus = 1
    the roles are swapped (upper level on m1[(g+, orbit)], lower level in
    m0[(orbit, g-)]).
    """

    orbit: str
    d_plus: int  # 0 or 1
    point_index: int
    component_index: int
    t: Fraction


@dataclass(frozen=True)
class PLComponent:
    """A component of a 1-dimensional moduli space, parametrised by [0, 1].

    ``e_plus_lift`` / ``e_minus_lift`` are breakpoint lists ((t, value), ...)
    of lifts of the evaluation maps to R; parameters strictly increase from
    0 to 1.  For circles the endpoints are identified, so each lift must
    close up to an integer (its winding number).  ``sign_start`` is the
    orientation sign at parameter 0, expressed in the basepoint
    trivialisations of both orientation local systems.
    """

    kind: str  # "circle" | "interval"
    sign_start: int
    e_plus_lift: Tuple[Tuple[Fraction, Fraction], ...]
    e_minus_lift: Tuple[Tuple[Fraction, Fraction], ...]
    boundary_labels: Dict[int, BoundaryLabel] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("circle", "interval"):
            raise ValueError(f"bad component kind {self.kind!r}")
        if self.sign_start not in (1, -1):
            raise ValueError("sign_start must be +-1")
        for side, lift in (("plus", self.e_plus_lift), ("minus", self.e_minus_lift)):
            if len(lift) < 2 or lift[0][0] != 0 or lift[-1][0] != 1:
                raise ValueError("lift must run from t=0 to t=1")
            # a segment meets a lattice q + Z at most |floor v1 - floor v0| + 1
            # times; bounding the sum bounds the work of every preimage query
            bound = 0
            for (t0, v0), (t1, v1) in zip(lift, lift[1:]):
                if t1.numerator * t0.denominator <= t0.numerator * t1.denominator:
                    raise ValueError("lift parameters must strictly increase")
                bound += abs(v1.numerator // v1.denominator
                             - v0.numerator // v0.denominator) + 1
            if bound > MAX_LIFT_CROSSINGS:
                raise ValueError(
                    f"e_{side} lift may cross a point {bound} times, "
                    f"more than {MAX_LIFT_CROSSINGS}"
                )

    def lift(self, side: str):
        return self.e_plus_lift if side == "plus" else self.e_minus_lift

    def value(self, side: str, t: Fraction) -> Fraction:
        """PL interpolation of the chosen lift at parameter t in [0, 1]."""
        pts = self.lift(side)
        if not 0 <= t <= 1:
            raise ValueError("parameter outside [0, 1]")
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")

    def winding(self, side: str) -> int:
        pts = self.lift(side)
        start, end = pts[0][1], pts[-1][1]
        # reduced fractions differ by an integer iff their denominators agree
        # and their numerators differ by a multiple of it
        den = start.denominator
        delta, rest = divmod(end.numerator - start.numerator, den)
        if end.denominator != den or rest:
            raise ValueError("lift does not close up to an integer")
        return delta

    def slope_sign(self, side: str, t: Fraction) -> int:
        """Direction of the lift at an interior point of a segment."""
        pts = self.lift(side)
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 < t < t1:
                return (v1 > v0) - (v1 < v0)
        raise NonRegularValue(f"parameter {t} sits on a breakpoint")


@dataclass(frozen=True)
class Preimage:
    """One transverse crossing from a signed-preimage query."""

    t: Fraction
    sign: int  # crossing direction times transported orientation
    direction: int  # +1 upward crossing, -1 downward
    residual: Fraction  # value of the *other* evaluation map at t, mod 1


@dataclass
class MorseBottSystem:
    """All combinatorial data of a Morse-Bott system of Reeb orbits."""

    orbits: Dict[str, Orbit]
    basepoints: Dict[str, Fraction] = field(default_factory=dict)
    m0: Dict[Pair, List[SignedPoint]] = field(default_factory=dict)
    m1: Dict[Pair, List[PLComponent]] = field(default_factory=dict)
    m2cc: Dict[Pair, int] = field(default_factory=dict)
    grading_modulus: object = 0  # 0, an even N >= 2, or "parity"

    def __post_init__(self):
        for oid in self.orbits:
            self.basepoints.setdefault(oid, Fraction(0))

    def orbit(self, oid: str) -> Orbit:
        return self.orbits[oid]

    def basepoint(self, oid: str) -> Fraction:
        return frac_mod1(self.basepoints[oid])

    def pairs(self):
        seen = set(self.m0) | set(self.m1) | set(self.m2cc)
        return sorted(seen)

    def generator_grading(self, orbit: Orbit, flavor: str) -> int:
        """The grading of ``orbit``'s check or hat generator."""
        if self.grading_modulus == "parity":
            return (orbit.parity + (flavor == "hat")) % 2
        if orbit.grading is None:
            raise ValidationFailure(
                [Violation("missing-grading", orbit.oid,
                           "integer grading required unless the "
                           "grading modulus is 'parity'")]
            )
        grading = orbit.grading + (flavor == "hat")
        return grading % self.grading_modulus if self.grading_modulus else grading


def _lattice_index(num: int, den: int, p: Fraction) -> int:
    """floor(num/den - p) for den > 0: which gap of the lattice p + Z holds
    num/den.  The one floor of the preimage arithmetic."""
    return (num * p.denominator - p.numerator * den) // (den * p.denominator)


def _index_of(value: Fraction, p: Fraction) -> int:
    return _lattice_index(value.numerator, value.denominator, p)


def component_orientation(
    comp: PLComponent,
    t: Fraction,
    top: Tuple[Orbit, Fraction],
    bottom: Tuple[Orbit, Fraction],
) -> int:
    """Orientation sign of ``comp`` at parameter t, in basepoint frames.

    ``top`` and ``bottom`` are (orbit, basepoint) for the two evaluation
    circles.  The sign is transported from sign_start at t=0; each net
    crossing of a basepoint by an evaluation point flips it when the
    corresponding orbit is bad.
    """
    flips = 0
    for side, (orbit, basepoint) in (("plus", top), ("minus", bottom)):
        if orbit.good:
            continue
        start = comp.lift(side)[0][1]
        flips += _index_of(comp.value(side, t), basepoint) - _index_of(start, basepoint)
    return comp.sign_start * (-1) ** (flips % 2)


def breakpoint_hit(comp: PLComponent, side: str, q: Fraction) -> Optional[str]:
    """Why q is not a regular value of the ``side`` evaluation map, or None.

    A lift meets q + Z non-transversally exactly when a breakpoint value is
    q mod 1: an interval end, a corner, or a constant segment all start at
    a breakpoint.
    """
    q = frac_mod1(q)
    den, num = q.denominator, q.numerator
    for t, v in comp.lift(side):
        if v.denominator == den and (v.numerator - num) % den == 0:
            return f"value {q} hit at breakpoint t={t} of a {comp.kind}"
    return None


class _Evaluator:
    """Exact values of one lift at increasing parameters t = tn/td, as
    unreduced integer fractions (num, den) with den > 0."""

    __slots__ = ("pts", "k")

    def __init__(self, pts):
        self.pts = pts
        self.k = 0

    def at(self, tn: int, td: int) -> Tuple[int, int]:
        pts, k = self.pts, self.k
        while k + 2 < len(pts):
            s1 = pts[k + 1][0]
            if tn * s1.denominator <= s1.numerator * td:
                break
            k += 1
        self.k = k
        (s0, w0), (s1, w1) = pts[k], pts[k + 1]
        # w0 + (w1 - w0) (t - s0) / (s1 - s0), over the common denominator
        # wd * sd * td with w = wn / wd and s = sn / sd
        sd = s0.denominator * s1.denominator
        s0n, s1n = s0.numerator * s1.denominator, s1.numerator * s0.denominator
        wd = w0.denominator * w1.denominator
        w0n, w1n = w0.numerator * w1.denominator, w1.numerator * w0.denominator
        num = w0n * (s1n - s0n) * td + (w1n - w0n) * (tn * sd - s0n * td)
        return num, wd * (s1n - s0n) * td


def component_preimages(
    comp: PLComponent,
    side: str,
    q: Fraction,
    top: Tuple[Orbit, Fraction],
    bottom: Tuple[Orbit, Fraction],
) -> List[Preimage]:
    """All transverse preimages of q (mod 1) under one evaluation map.

    Each crossing carries sign = direction x orientation, where orientation
    is the local-system-transported component orientation at the crossing.
    Raises NonRegularValue if q is hit at a breakpoint, an interval end, or
    along a constant segment.  The crossings are found, ordered and signed
    in integers; only ``t`` and ``residual`` become Fractions.
    """
    hit = breakpoint_hit(comp, side, q)
    if hit is not None:
        raise NonRegularValue(hit)
    (orbit, p), (other_orbit, other_p) = (top, bottom) if side == "plus" else (bottom, top)
    pts = comp.lift(side)
    other = _Evaluator(comp.lift("minus" if side == "plus" else "plus"))
    # a bad orbit flips the sign once per basepoint gap its lift moves from t = 0
    flips0 = 0
    if not orbit.good:
        flips0 -= _index_of(pts[0][1], p)
    if not other_orbit.good:
        flips0 -= _index_of(other.pts[0][1], other_p)
    out = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            continue  # constant segment away from q (checked above)
        # v0, v1 and q over one denominator d: crossings at q + n d strictly
        # between a0 and a1, for any representative q of its class mod 1
        d = v0.denominator * v1.denominator * q.denominator
        a0 = v0.numerator * (d // v0.denominator)
        a1 = v1.numerator * (d // v1.denominator)
        qn = q.numerator * (d // q.denominator)
        if a1 > a0:
            direction, first, last = 1, (a0 - qn) // d + 1, (a1 - qn) // d
        else:
            direction, first, last = -1, (a0 - qn) // d, (a1 - qn) // d + 1
        # t = t0 + (t1 - t0) (q + n - v0) / (v1 - v0) = tn / td, td > 0
        t0n, t1n = t0.numerator * t1.denominator, t1.numerator * t0.denominator
        td = t0.denominator * t1.denominator * (a1 - a0) * direction
        for n in range(first, last + direction, direction):
            value = qn + n * d
            tn = (t0n * (a1 - a0) + (t1n - t0n) * (value - a0)) * direction
            flips = flips0
            if not orbit.good:
                flips += _lattice_index(value, d, p)
            num, den = other.at(tn, td)
            if not other_orbit.good:
                flips += _lattice_index(num, den, other_p)
            sign = direction * comp.sign_start * (-1) ** (flips % 2)
            out.append(Preimage(Fraction(tn, td), sign, direction,
                                Fraction(num % den, den)))
    return out


def frames(upper, lower, pair: Pair):
    """(orbit, basepoint) of the top orbit of ``pair`` in ``upper`` and of the
    bottom orbit in ``lower``: the frames for orientations along that pair."""
    top, bottom = pair
    return (
        (upper.orbit(top), upper.basepoint(top)),
        (lower.orbit(bottom), lower.basepoint(bottom)),
    )


def signed_preimages(
    sys: MorseBottSystem,
    pair: Pair,
    comp: PLComponent,
    side: str,
    q: Fraction,
) -> List[Preimage]:
    """Preimages of q along ``pair``, in the frames ``sys`` gives its ends.

    ``sys`` is a system or anything else that answers ``orbit(node)`` and
    ``basepoint(node)``, such as a cascade graph.
    """
    top, bottom = frames(sys, sys, pair)
    return component_preimages(comp, side, q, top, bottom)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    location: str
    message: str


def _check(violations, ok, code, location, message):
    if not ok:
        violations.append(Violation(code, location, message))
    return ok


def evaluation_values(sys: MorseBottSystem) -> Dict[str, set]:
    """Per orbit, the ``circle_key`` of every point where a moduli evaluation
    lands on it: m0 evaluations and m1 lift breakpoints.  A basepoint is
    generic iff its key avoids its orbit's set; a preimage query is
    non-regular only at a lift breakpoint, so this also decides
    ``basepoint-nonregular``."""
    values: Dict[str, set] = {oid: set() for oid in sys.orbits}
    for (top, bottom), points in sys.m0.items():
        for pt in points:
            if top in values:
                values[top].add(circle_key(pt.e_plus))
            if bottom in values:
                values[bottom].add(circle_key(pt.e_minus))
    for (top, bottom), comps in sys.m1.items():
        for comp in comps:
            for side, oid in (("plus", top), ("minus", bottom)):
                if oid in values:
                    for _t, val in comp.lift(side):
                        values[oid].add(circle_key(val))
    return values


def validate_system(sys: MorseBottSystem) -> List[Violation]:
    """All structural axiom checks; returns machine-readable violations."""
    v: List[Violation] = []

    for oid, orbit in sys.orbits.items():
        if not orbit.good:
            _check(v, orbit.d % 2 == 0, "bad-orbit-multiplicity", oid,
                   "bad orbit must have even multiplicity")
        if orbit.grading is not None and sys.grading_modulus != "parity":
            _check(v, (orbit.grading - orbit.parity) % 2 == 0,
                   "grading-parity", oid, "grading parity != CZ parity")

    # basepoint genericity
    values = evaluation_values(sys)
    for oid in sys.orbits:
        p = sys.basepoint(oid)
        _check(v, circle_key(p) not in values[oid], "basepoint-collision", oid,
               f"basepoint {p} equals an evaluation value")

    validate_moduli(
        v, sys, sys, (("m0", 0, sys.m0), ("m1", 1, sys.m1), ("m2cc", 2, sys.m2cc)),
        shift=0, modulus=sys.grading_modulus, equal_action=(),
        end_check=partial(_validate_interval_end, sys),
    )
    return v


def validate_moduli(v, upper, lower, tables, *, shift, modulus, equal_action,
                    end_check):
    """Check moduli from orbits of ``upper`` down to orbits of ``lower``.

    ``tables`` lists (name, dimension, moduli); a piece of dimension d has
    index d - ``shift``, and its pair's grading gap must equal that index
    mod ``modulus`` (0: exactly; "parity": no check).  Action must drop
    strictly, except across pairs in ``equal_action``.  Each end of a
    1-dimensional interval goes to ``end_check(pair, comp, ci, end, v)``.
    """
    for name, dim, moduli in tables:
        index = dim - shift
        for pair, pieces in sorted(moduli.items()):
            if not pieces:
                continue
            where = f"{name}{pair}"
            top, bottom = pair
            if top not in upper.orbits or bottom not in lower.orbits:
                v.append(Violation("unknown-orbit", where, f"pair {pair}"))
                continue
            a, b = upper.orbit(top), lower.orbit(bottom)
            _check(v, (a.parity - b.parity - index) % 2 == 0, "parity-axiom",
                   where, f"CZ parity gap != {index} mod 2 for {pair}")
            if a.grading is not None and b.grading is not None and modulus != "parity":
                gap = a.grading - b.grading
                if modulus:
                    gap %= modulus
                _check(v, gap == (index % modulus if modulus else index),
                       "grading-axiom", where,
                       f"grading gap {gap} != moduli index {index} for {pair}")
            _check(v, a.homotopy_class == b.homotopy_class, "class-axiom",
                   where, f"homotopy class changes across {pair}")
            _check(v, b.action <= a.action if pair in equal_action
                   else b.action < a.action,
                   "action-axiom", where, f"action does not decrease across {pair}")
            if dim != 1:
                continue
            comp_frames = frames(upper, lower, pair)
            for ci, comp in enumerate(pieces):
                at = f"{where}[{ci}]"
                if comp.kind == "circle":
                    try:
                        windings = (comp.winding("plus"), comp.winding("minus"))
                    except ValueError:
                        _check(v, False, "circle-not-closed", at,
                               "lift does not close up to an integer")
                    else:
                        flips = sum(w for w, (orbit, _p) in zip(windings, comp_frames)
                                    if not orbit.good)
                        _check(v, flips % 2 == 0, "monodromy-parity", at,
                               "orientation not consistent around the circle: "
                               "(-1)^(w+ bad+ + w- bad-) = -1")
                    _check(v, not comp.boundary_labels, "circle-with-labels", at,
                           "circle components have no boundary")
                else:
                    for end in (0, 1):
                        if end in comp.boundary_labels:
                            end_check(pair, comp, ci, end, v)
                        else:
                            _check(v, False, "unlabeled-end", at,
                                   f"interval end {end} has no broken-pair label")
                # basepoints must be regular values of both evaluation maps
                for side, (_orbit, p) in zip(("plus", "minus"), comp_frames):
                    hit = breakpoint_hit(comp, side, p)
                    _check(v, hit is None, "basepoint-nonregular", at, hit)


def _validate_interval_end(sys, pair, comp, ci, end, v):
    top, bottom = pair
    where = f"m1{pair}[{ci}].end{end}"
    label = comp.boundary_labels[end]
    mid = label.orbit
    if mid not in sys.orbits or mid == top or mid == bottom:
        _check(v, False, "bad-label-orbit", where, f"intermediate {mid!r}")
        return
    if not isinstance(label, BoundaryLabel) or label.d_plus not in (0, 1):
        _check(v, False, "bad-label", where,
               f"system interval ends need d_plus 0 or 1 labels, got {label!r}")
        return
    upper = Level(sys.m0, sys.m1, (top, mid), frames(sys, sys, (top, mid)))
    lower = Level(sys.m0, sys.m1, (mid, bottom), frames(sys, sys, (mid, bottom)))
    check_broken_pair(v, where, comp, frames(sys, sys, pair), end, label,
                      label.d_plus, upper, lower, (-1) ** label.d_plus)


class Level(NamedTuple):
    """One level of a broken configuration: the moduli tables it lives in,
    the pair it connects and that pair's frames."""

    m0: Dict[Pair, List[SignedPoint]]
    m1: Dict[Pair, List[PLComponent]]
    pair: Pair
    frames: Tuple


def check_broken_pair(v, where, comp, comp_frames, end, label, d_upper,
                      upper, lower, factor):
    """Check that ``comp``'s end ``end`` converges to the broken pair ``label``.

    The upper level has dimension ``d_upper`` and the lower one 1 - d_upper:
    the label names the rigid point of one and the parameter ``t`` on a
    component of the other.  The boundary orientation of the end must be
    ``factor`` times the fiber-product sign of the pair.
    """
    point_level, comp_level = (upper, lower) if d_upper == 0 else (lower, upper)
    points = point_level.m0.get(point_level.pair, [])
    comps = comp_level.m1.get(comp_level.pair, [])
    if not (0 <= label.point_index < len(points)
            and 0 <= label.component_index < len(comps)):
        _check(v, False, "missing-broken-pair", where,
               "label references a moduli element that does not exist")
        return
    point = points[label.point_index]
    other = comps[label.component_index]
    t = label.t
    # the component meets the point at its e+ when it is the lower level
    # and at its e- when it is the upper one; check t before evaluating it
    fiber = "plus" if d_upper == 0 else "minus"
    try:
        direction = other.slope_sign(fiber, t)
    except NonRegularValue:
        _check(v, False, "label-nonregular", where,
               f"broken pair sits at parameter {t}, not inside a segment of "
               "its component")
        return
    if d_upper == 0:
        top_end, bottom_end = point.e_plus, other.value("minus", t)
        fiber_point = point.e_minus
    else:
        top_end, bottom_end = other.value("plus", t), point.e_minus
        fiber_point = point.e_plus
    _check(v, circle_key(comp.value("plus", Fraction(end))) == circle_key(top_end),
           "label-eval-mismatch", where,
           "top evaluation does not match broken limit")
    _check(v, circle_key(comp.value("minus", Fraction(end))) == circle_key(bottom_end),
           "label-eval-mismatch", where,
           "bottom evaluation does not match broken limit")
    _check(v, circle_key(fiber_point) == circle_key(other.value(fiber, t)),
           "label-fiber-mismatch", where,
           "broken pair is not a fiber-product point")

    fiber_sign = point.sign * direction * component_orientation(
        other, t, *comp_level.frames
    )
    boundary_sign = component_orientation(comp, Fraction(end), *comp_frames) * (
        1 if end == 1 else -1
    )
    _check(v, boundary_sign == factor * fiber_sign, "label-sign-mismatch", where,
           f"boundary sign {boundary_sign} != {factor} * fiber sign {fiber_sign}")


# ---------------------------------------------------------------------------
# basepoints


def assign_basepoints(sys: MorseBottSystem, seed: Optional[int] = None) -> MorseBottSystem:
    """Return a copy of the system with fresh generic basepoints.

    With ``seed=None`` every basepoint is 0, deterministically perturbed away
    from collisions; otherwise basepoints are drawn from a seeded RNG and
    re-drawn until the genericity checks pass.
    """
    import random

    rng = random.Random(seed)
    new = dict(sys.basepoints)
    values = evaluation_values(sys)
    denominators = [257, 263, 269, 271, 277, 281, 283, 293]
    for k, oid in enumerate(sorted(sys.orbits)):
        for attempt in range(64):
            if seed is None:
                q = denominators[(k + attempt) % len(denominators)]
                candidate = Fraction(0) if attempt == 0 else Fraction(1 + attempt, q)
            else:
                q = denominators[attempt % len(denominators)]
                candidate = Fraction(rng.randrange(q), q)
            if circle_key(candidate) not in values[oid]:
                new[oid] = candidate
                break
        else:
            raise NonRegularValue(f"could not find a generic basepoint for {oid}")
    return MorseBottSystem(
        sys.orbits, new, sys.m0, sys.m1, sys.m2cc, sys.grading_modulus
    )
