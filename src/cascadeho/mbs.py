"""Combinatorial Morse-Bott orbit systems.

An orbit is a circle; evaluation data lives on circles R/Z with rational
coordinates.  One-dimensional moduli between orbits are recorded as
piecewise-linear components (circles or intervals) whose evaluation maps are
given as PL lifts to the universal cover, so winding numbers and crossing
counts are exact integer data.  Orientation local systems are trivialised at
a basepoint on each orbit; bad orbits have monodromy -1, so transporting a
sign past the basepoint flips it.

Constructors take Fractions; each record keeps its circle coordinates as
integers from construction on (a ``PLComponent``'s lifts are ``IntLift``s,
``SignedPoint.e_plus_key``, ...), and every query and validator reads those.
``check_lift`` is the one checker of a lift's rules; the constructor and the
document loader's ``PLComponent._trusted`` run it once per lift.  Queries
keep their integers small by putting two values over their shared
denominator when they have one, so a crossing's parameter comes back as an
unreduced pair (``Preimage.t`` reads it).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import NonDistinct, NonRegularValue, ValidationFailure

Pair = Tuple[str, str]
Point = Tuple[int, int]  # a rational num / den as the integers (num, den), den > 0

# most crossings of one point that a lift may have: untrusted documents
# cannot make a preimage query unbounded work
MAX_LIFT_CROSSINGS = 10**5


def circle_key(x: Fraction) -> Point:
    """x mod 1 as the integer pair (n mod d, d) of its reduced form n/d: two
    rationals are one point of R/Z iff their keys are equal."""
    d = x.denominator
    return x.numerator % d, d


def point_key(num: int, den: int) -> Point:
    """The ``circle_key`` of num / den (den > 0), in integers."""
    num %= den
    g = gcd(num, den)
    return num // g, den // g


def _ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, in integers."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def point_str(point: Point) -> str:
    """A circle point as ``str`` of its representative in [0, 1)."""
    num, den = point
    return _ratio_str(num % den, den)


def cyclically_ordered(
    p: Point, a: Point, b: Point, eps_a: int = 0, eps_b: int = 0
) -> bool:
    """True iff starting at p and moving positively one meets a before b.

    The three points are integer pairs (num, den) taken mod 1.  ``eps_a`` /
    ``eps_b`` in {-1, 0, +1} nudge a point infinitesimally below / above its
    nominal position; with both 0 the points must be pairwise distinct.  A
    point nudged off p sits just before p (eps -1) or just after it (eps +1).
    """
    # (a - p) mod 1 = an / ad and (b - p) mod 1 = bn / bd, compared by
    # cross-multiplication; a point nudged off p moves to 1 (eps -1) or
    # stays at 0 (eps +1), and the nudge breaks ties
    pn, pd = p
    an, ad = a
    bn, bd = b
    an = (an * pd - pn * ad) % (ad * pd)
    ad *= pd
    bn = (bn * pd - pn * bd) % (bd * pd)
    bd *= pd
    if an == 0 and eps_a < 0:
        an = ad
    if bn == 0 and eps_b < 0:
        bn = bd
    cross = an * bd - bn * ad
    if (cross == 0 and eps_a == eps_b) or (an == 0 and not eps_a) or (
        bn == 0 and not eps_b
    ):
        raise NonDistinct(
            f"points not distinct: {point_str(p)}, {point_str(a)} (eps {eps_a}), "
            f"{point_str(b)} (eps {eps_b})"
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
    """A point of a 0-dimensional moduli space with its sign.

    ``e_plus_key`` / ``e_minus_key`` are the ``circle_key`` of each
    evaluation, kept on construction for the walk and the validators.
    """

    e_plus: Fraction
    e_minus: Fraction
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        object.__setattr__(self, "e_plus_key", circle_key(self.e_plus))
        object.__setattr__(self, "e_minus_key", circle_key(self.e_minus))

    def __deepcopy__(self, memo):
        return copy.copy(self)  # every attribute is immutable


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


# a lift in integers: (tn, td, vn, vd) per breakpoint (t, value) =
# (tn / td, vn / vd), each in lowest terms with a positive denominator
IntLift = Tuple[Tuple[int, int, int, int], ...]


def check_lift(side: str, pts: IntLift) -> None:
    """The one checker of a lift's rules, on its ``IntLift``: it runs from
    t=0 to t=1, t strictly increases, and no point is crossed more than
    MAX_LIFT_CROSSINGS times.  A broken rule raises ValueError, in that
    order; ``side`` ("plus" or "minus") names the lift in the bound's error.
    """
    if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != pts[-1][1]:
        raise ValueError("lift must run from t=0 to t=1")
    # a segment meets a lattice q + Z at most |floor v1 - floor v0| + 1
    # times; bounding the sum bounds the work of every preimage query
    last_tn, last_td, vn, vd = pts[0]
    last_floor, bound = vn // vd, 0
    for tn, td, vn, vd in pts[1:]:
        if tn * last_td <= last_tn * td:
            raise ValueError("lift parameters must strictly increase")
        floor = vn // vd
        bound += abs(floor - last_floor) + 1
        last_tn, last_td, last_floor = tn, td, floor
    if bound > MAX_LIFT_CROSSINGS:
        raise ValueError(
            f"e_{side} lift may cross a point {bound} times, "
            f"more than {MAX_LIFT_CROSSINGS}"
        )


def lift_shape_error(lift) -> ValueError:
    """The error for a ``lift`` that is not a list or tuple of breakpoints,
    worded alike by the constructor and the document loader."""
    return ValueError(f"lift {lift!r} is not an array of [t, value] arrays")


def _int_lift(lift) -> IntLift:
    """``lift``, a list or tuple of breakpoints, as an ``IntLift``: a
    (t, value) rational pair converted, an integer 4-tuple checked to be in
    lowest terms with positive denominators and kept as it is, an integer
    4-list checked and copied to a tuple."""
    if type(lift) not in (list, tuple):
        raise lift_shape_error(lift)
    pts = []
    for point in lift:
        size = len(point) if type(point) in (list, tuple) else 0
        if size == 2:
            t, v = point
            point = (t.numerator, t.denominator, v.numerator, v.denominator)
        elif size != 4:
            raise lift_shape_error(lift)
        else:
            tn, td, vn, vd = point
            if td < 1 or vd < 1 or gcd(tn, td) != 1 or gcd(vn, vd) != 1:
                raise ValueError(f"breakpoint {point!r} is not in lowest "
                                 "terms with positive denominators")
            if type(point) is not tuple:
                point = (tn, td, vn, vd)
        pts.append(point)
    return tuple(pts)


@dataclass(frozen=True)
class PLComponent:
    """A component of a 1-dimensional moduli space, parametrised by [0, 1].

    ``e_plus_lift`` / ``e_minus_lift`` are the breakpoints (t, value) of
    lifts of the evaluation maps to R, stored as ``IntLift``s; the
    constructor also takes them as rational pairs.  Parameters strictly
    increase from 0 to 1.  For circles the endpoints are identified, so each
    lift must close up to an integer (its winding number).  ``sign_start``
    is the orientation sign at parameter 0, expressed in the basepoint
    trivialisations of both orientation local systems.

    The constructor checks the kind, then the sign, then each lift, plus
    first: it converts each rational pair (or checks that an integer
    breakpoint is in lowest terms with positive denominators, and that a
    lift is a list or tuple of pairs and 4-tuples), then ``check_lift``
    checks the lift's rules.  ``_trusted`` builds a component from lifts
    already in lowest terms, such as the document loader reads: it runs the
    same checks except the conversion, so the loader checks no breakpoint
    twice and each lift's rules once.
    """

    kind: str  # "circle" | "interval"
    sign_start: int
    e_plus_lift: IntLift
    e_minus_lift: IntLift
    boundary_labels: Dict[int, BoundaryLabel] = field(default_factory=dict)

    def __post_init__(self):
        self._check_kind_and_sign()
        for side, name in (("plus", "e_plus_lift"), ("minus", "e_minus_lift")):
            lift = _int_lift(getattr(self, name))
            check_lift(side, lift)
            object.__setattr__(self, name, lift)

    @classmethod
    def _trusted(cls, kind: str, sign_start: int, e_plus_lift: IntLift,
                 e_minus_lift: IntLift,
                 boundary_labels: Dict[int, BoundaryLabel]) -> "PLComponent":
        """The component of these fields, for a caller whose lifts are
        ``IntLift``s already: every check of the constructor, in its order,
        except the conversion and lowest-terms check of each breakpoint."""
        comp = cls.__new__(cls)
        # one store per field, as the dataclass __init__ makes them: the
        # instance keeps the compact attribute layout, where filling
        # vars(comp) would give each component its own dict
        store = object.__setattr__
        store(comp, "kind", kind)
        store(comp, "sign_start", sign_start)
        store(comp, "e_plus_lift", e_plus_lift)
        store(comp, "e_minus_lift", e_minus_lift)
        store(comp, "boundary_labels", boundary_labels)
        comp._check_kind_and_sign()
        check_lift("plus", e_plus_lift)
        check_lift("minus", e_minus_lift)
        return comp

    def _check_kind_and_sign(self):
        if self.kind not in ("circle", "interval"):
            raise ValueError(f"bad component kind {self.kind!r}")
        if self.sign_start not in (1, -1):
            raise ValueError("sign_start must be +-1")

    def __deepcopy__(self, memo):
        # the lifts are immutable: share them
        new = copy.copy(self)
        object.__setattr__(new, "boundary_labels",
                           copy.deepcopy(self.boundary_labels, memo))
        return new

    def lift(self, side: str) -> IntLift:
        return self.e_plus_lift if side == "plus" else self.e_minus_lift

    def value(self, side: str, t: Fraction) -> Fraction:
        """PL interpolation of the chosen lift at parameter t in [0, 1]."""
        if not 0 <= t <= 1:
            raise ValueError("parameter outside [0, 1]")
        _k, num, den = _interpolate(self.lift(side), 0, t.numerator, t.denominator)
        return Fraction(num, den)

    def winding(self, side: str) -> int:
        pts = self.lift(side)
        (_t0n, _t0d, start, den), (_t1n, _t1d, end, end_den) = pts[0], pts[-1]
        # reduced fractions differ by an integer iff their denominators agree
        # and their numerators differ by a multiple of it
        delta, rest = divmod(end - start, den)
        if end_den != den or rest:
            raise ValueError("lift does not close up to an integer")
        return delta

    def slope_sign(self, side: str, t: Fraction) -> int:
        """Direction of the lift at an interior point of a segment."""
        pts = self.lift(side)
        tn, td = t.numerator, t.denominator
        for (t0n, t0d, v0n, v0d), (t1n, t1d, v1n, v1d) in zip(pts, pts[1:]):
            if t0n * td < tn * t0d and tn * t1d < t1n * td:
                rise = v1n * v0d - v0n * v1d
                return (rise > 0) - (rise < 0)
        raise NonRegularValue(f"parameter {t} sits on a breakpoint")


class Preimage(NamedTuple):
    """One transverse crossing from a signed-preimage query, in integers.

    The crossing sits at parameter t = tn / td (td > 0); ``point`` is the
    circle key of the *other* evaluation map's value there.  ``t`` and
    ``residual`` read them as Fractions.  The pair (tn, td) is not reduced,
    and which unreduced pair a query gives for a t depends on the
    denominators of its segment: compare parameters through ``t``.
    """

    tn: int
    td: int
    sign: int  # crossing direction times transported orientation
    direction: int  # +1 upward crossing, -1 downward
    point: Point

    @property
    def t(self) -> Fraction:
        return Fraction(self.tn, self.td)

    @property
    def residual(self) -> Fraction:
        return Fraction(*self.point)


# a Preimage made from its field tuple in one C call, for the per-crossing
# loop of ``component_preimages``
_preimage = partial(tuple.__new__, Preimage)


_ZERO = Fraction(0)


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
            self.basepoints.setdefault(oid, _ZERO)

    def orbit(self, oid: str) -> Orbit:
        return self.orbits[oid]

    def basepoint(self, oid: str) -> Point:
        """The ``circle_key`` of ``oid``'s basepoint."""
        return circle_key(self.basepoints[oid])

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


Frame = Tuple[Orbit, Point]  # an evaluation circle: its orbit and basepoint key


def transported_sign(comp: PLComponent, top: Frame, bottom: Frame,
                     plus: Point, minus: Point) -> int:
    """Orientation sign of ``comp`` where its e+ lift reads ``plus`` and its
    e- lift reads ``minus``, in the basepoint frames ``top`` and ``bottom``.

    The sign is transported from sign_start at t=0: it flips once for each
    gap of the lattice basepoint + Z that the lift of a bad orbit has moved
    across since t=0.  The one sign-transport rule of orientations.
    """
    sign = comp.sign_start
    for (orbit, (pn, pd)), (num, den), pts in (
        (top, plus, comp.e_plus_lift), (bottom, minus, comp.e_minus_lift)
    ):
        if not orbit.good:
            # floor(value - p) - floor(start - p)
            _tn, _td, start, sd = pts[0]
            gaps = (num * pd - pn * den) // (den * pd) - (
                start * pd - pn * sd) // (sd * pd)
            if gaps % 2:
                sign = -sign
    return sign


def component_orientation(comp: PLComponent, t: Fraction, top: Frame,
                          bottom: Frame) -> int:
    """Orientation sign of ``comp`` at parameter t, in basepoint frames: the
    ``transported_sign`` at the values of both lifts at t."""
    tn, td = t.numerator, t.denominator
    return transported_sign(comp, top, bottom,
                            _interpolate(comp.e_plus_lift, 0, tn, td)[1:],
                            _interpolate(comp.e_minus_lift, 0, tn, td)[1:])


def breakpoint_hit(comp: PLComponent, side: str, q: Point) -> Optional[str]:
    """Why the circle point q, a pair in lowest terms such as a circle key,
    is not a regular value of the ``side`` evaluation map, or None.

    A lift meets q + Z non-transversally exactly when a breakpoint value is
    q mod 1: an interval end, a corner, or a constant segment all start at
    a breakpoint.
    """
    qn, qd = q
    for tn, td, vn, vd in comp.lift(side):
        # reduced fractions are one point mod 1 iff their denominators agree
        # and their numerators are congruent
        if vd == qd and (vn - qn) % qd == 0:
            return (f"value {point_str(q)} hit at breakpoint "
                    f"t={_ratio_str(tn, td)} of a {comp.kind}")
    return None


def _interpolate(pts: IntLift, k: int, tn: int, td: int) -> Tuple[int, int, int]:
    """The value of the lift ``pts`` at t = tn/td, found from segment k on:
    (k', num, den) with value num / den unreduced, den > 0, and k' the
    segment t lies in.  Queries at increasing t pass back the k' they got,
    so a walk along the lift reads each segment once."""
    while k + 2 < len(pts):
        s1n, s1d, _wn, _wd = pts[k + 1]
        if tn * s1d <= s1n * td:
            break
        k += 1
    (s0n, s0d, w0n, w0d), (s1n, s1d, w1n, w1d) = pts[k], pts[k + 1]
    # w0 + (w1 - w0) (t - s0) / (s1 - s0), over the common denominator
    # wd * sd * td, where sd (wd) is the ends' shared denominator or else
    # their product
    if s0d == s1d:
        sd = s0d
    else:
        sd = s0d * s1d
        s0n, s1n = s0n * s1d, s1n * s0d
    if w0d == w1d:
        wd = w0d
    else:
        wd = w0d * w1d
        w0n, w1n = w0n * w1d, w1n * w0d
    num = w0n * (s1n - s0n) * td + (w1n - w0n) * (tn * sd - s0n * td)
    return k, num, wd * (s1n - s0n) * td


def component_preimages(
    comp: PLComponent,
    side: str,
    q: Point,
    top: Frame,
    bottom: Frame,
) -> List[Preimage]:
    """All transverse preimages of the circle point q (a circle key) under
    one evaluation map, in the basepoint frames ``top`` and ``bottom``.

    Each crossing carries sign = direction x orientation, where orientation
    is the local-system-transported component orientation at the crossing.
    Raises NonRegularValue if q is hit at a breakpoint, an interval end, or
    along a constant segment.  Everything is integer arithmetic.
    """
    if side == "plus":
        pts, other = comp.e_plus_lift, comp.e_minus_lift
    else:
        pts, other = comp.e_minus_lift, comp.e_plus_lift
    transport = not (top[0].good and bottom[0].good)
    qn, qd = q
    out, k = [], 0  # k: the segment of ``other`` the last crossing fell in
    for i in range(1, len(pts)):
        (t0n, t0d, v0n, v0d), (t1n, t1d, v1n, v1d) = pts[i - 1], pts[i]
        # reduced fractions are one point mod 1 iff their denominators agree
        # and their numerators are congruent; the last breakpoint is checked
        # below
        if v0d == qd and (v0n - qn) % qd == 0:
            raise NonRegularValue(breakpoint_hit(comp, side, q))
        if v0n == v1n and v0d == v1d:
            continue  # constant segment away from q (checked above)
        # v0, v1 and q over one denominator d: crossings at q + n d strictly
        # between a0 and a1, for any representative q of its class mod 1;
        # d is qd times the ends' shared denominator, or else their product
        if v0d == v1d:
            d = v0d * qd
            a0 = v0n * qd
            a1 = v1n * qd
            qnd = qn * v0d
        else:
            d = v0d * v1d * qd
            a0 = v0n * v1d * qd
            a1 = v1n * v0d * qd
            qnd = qn * v0d * v1d
        if a1 > a0:
            direction, first, last = 1, (a0 - qnd) // d + 1, (a1 - qnd) // d
        else:
            direction, first, last = -1, (a0 - qnd) // d, (a1 - qnd) // d + 1
        # t = t0 + (t1 - t0) (q + n - v0) / (v1 - v0) = tn / td, td > 0,
        # with t0 and t1 over their shared denominator or else their product
        if t0d == t1d:
            t0, t1 = t0n, t1n
            td = t0d * (a1 - a0) * direction
        else:
            t0, t1 = t0n * t1d, t1n * t0d
            td = t0d * t1d * (a1 - a0) * direction
        for n in range(first, last + direction, direction):
            value = qnd + n * d
            tn = (t0 * (a1 - a0) + (t1 - t0) * (value - a0)) * direction
            k, num, den = _interpolate(other, k, tn, td)
            sign = comp.sign_start
            if transport:
                ends = ((value, d), (num, den)) if side == "plus" else (
                    (num, den), (value, d))
                sign = transported_sign(comp, top, bottom, *ends)
            out.append(_preimage((tn, td, direction * sign, direction,
                                  point_key(num, den))))
    _tn, _td, vn, vd = pts[-1]
    if vd == qd and (vn - qn) % qd == 0:
        raise NonRegularValue(breakpoint_hit(comp, side, q))
    return out


def frames(upper, lower, pair: Pair, points):
    """(orbit, basepoint key) of the top orbit of ``pair`` in ``upper`` and
    of the bottom orbit in ``lower``, the keys read from ``points`` (upper's,
    lower's): the frames for orientations along that pair."""
    top, bottom = pair
    return (upper.orbit(top), points[0][top]), (lower.orbit(bottom), points[1][bottom])


def signed_preimages(
    sys: MorseBottSystem,
    pair: Pair,
    comp: PLComponent,
    side: str,
    q: Point,
) -> List[Preimage]:
    """Preimages of the circle point q along ``pair``, in the frames
    ``sys`` gives its ends.

    The cascade walk does not come through here: ``CascadeGraph.exits``
    builds each frame once per node and edge and calls
    ``component_preimages`` itself.
    """
    top, bottom = pair
    return component_preimages(comp, side, q, (sys.orbit(top), sys.basepoint(top)),
                               (sys.orbit(bottom), sys.basepoint(bottom)))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    location: str
    message: str


def validate_system(sys: MorseBottSystem,
                    table: Optional[OrbitTable] = None) -> List[Violation]:
    """All structural axiom checks, over the request's ``OrbitTable`` of
    ``sys`` (made here when None); returns machine-readable violations.
    A violation's text is formatted only when its check fails."""
    if table is None:
        (table,) = orbit_tables(sys)
    v: List[Violation] = []

    for oid, orbit in sys.orbits.items():
        if not orbit.good and orbit.d % 2:
            v.append(Violation("bad-orbit-multiplicity", oid,
                               "bad orbit must have even multiplicity"))
        if orbit.grading is not None and sys.grading_modulus != "parity" and (
                orbit.grading - orbit.parity) % 2:
            v.append(Violation("grading-parity", oid, "grading parity != CZ parity"))

    moduli: List[Violation] = []
    hit = validate_moduli(
        moduli, sys, sys,
        (("m0", 0, sys.m0), ("m1", 1, sys.m1), ("m2cc", 2, sys.m2cc)),
        (table, table), shift=0, modulus=sys.grading_modulus, equal_action=(),
        end_check=partial(_validate_interval_end, sys, (table.point, table.point)),
    )
    # a basepoint is generic iff no evaluation onto its orbit hits it
    for oid in sys.orbits:
        if oid in hit:
            v.append(Violation("basepoint-collision", oid, f"basepoint "
                               f"{point_str(table.point[oid])} equals an "
                               "evaluation value"))
    # a basepoint for no orbit is most likely a misspelt orbit id, which
    # would leave the intended orbit at basepoint 0
    for oid in sorted(set(sys.basepoints) - set(sys.orbits)):
        v.append(Violation("unknown-orbit", f"basepoints[{oid}]",
                           f"basepoint for unknown orbit {oid!r}"))
    v += moduli
    return v


def scaled_actions(*tables) -> List[Dict[str, int]]:
    """Each table's orbit actions as integers: every action times the lcm of
    all their denominators, so the integers compare as the actions do.
    Each action's numerator and denominator are read once."""
    ratios = [[(oid, o.action.as_integer_ratio()) for oid, o in table.items()]
              for table in tables]
    scale = lcm(*{d for table in ratios for _oid, (_n, d) in table})
    return [{oid: n * (scale // d) for oid, (n, d) in table} for table in ratios]


class OrbitTable(NamedTuple):
    """One system's orbits as one request reads them: each action as an
    integer, all layers of the request on one scale, and each basepoint's
    circle key."""

    action: Dict[str, int]
    point: Dict[str, Point]


def orbit_tables(*systems) -> List[OrbitTable]:
    """The ``OrbitTable`` of each system of one request: one
    ``scaled_actions`` call over all of them, and each basepoint key made
    once."""
    actions = scaled_actions(*(sys.orbits for sys in systems))
    return [OrbitTable(action, {oid: sys.basepoint(oid) for oid in sys.orbits})
            for sys, action in zip(systems, actions)]


def validate_moduli(v, upper, lower, tables, orbits, *, shift, modulus, equal_action,
                    end_check) -> set:
    """Check moduli from orbits of ``upper`` down to orbits of ``lower``,
    whose ``OrbitTable``s ``orbits`` holds.

    ``tables`` lists (name, dimension, moduli); a piece of dimension d has
    index d - ``shift``, and its pair's grading gap must equal that index
    mod ``modulus`` (0: exactly; "parity": no check).  Action must drop
    strictly, except across pairs in ``equal_action``.  Each end of a
    1-dimensional interval goes to ``end_check(pair, comp, ci, end, v)``.

    This is the one place where validation reads an evaluation against a
    basepoint.  Each side of a 1-dimensional component whose orbit is known
    goes through ``breakpoint_hit`` once: a hit is a ``basepoint-nonregular``
    violation, unless the pair names an unknown orbit.  Returns the orbits
    whose basepoint an evaluation hits, there or at the e+/e- key of a
    0-dimensional point: ``validate_system`` reports these as
    ``basepoint-collision``.
    """
    (up_action, up_point), (low_action, low_point) = orbits
    hit = set()
    for name, dim, moduli in tables:
        index = dim - shift
        for pair, pieces in sorted(moduli.items()):
            if not pieces:
                continue
            # messages and locations are formatted only for a violation
            top, bottom = pair
            p, q = up_point.get(top), low_point.get(bottom)
            known = p is not None and q is not None
            if not known:
                v.append(Violation("unknown-orbit", f"{name}{pair}", f"pair {pair}"))
            else:
                a, b = upper.orbit(top), lower.orbit(bottom)
                if (a.parity - b.parity - index) % 2:
                    v.append(Violation("parity-axiom", f"{name}{pair}",
                                       f"CZ parity gap != {index} mod 2 for {pair}"))
                if modulus != "parity" and None not in (a.grading, b.grading):
                    gap = a.grading - b.grading
                    if modulus:
                        gap %= modulus
                    if gap != (index % modulus if modulus else index):
                        v.append(Violation(
                            "grading-axiom", f"{name}{pair}",
                            f"grading gap {gap} != moduli index {index} for {pair}"))
                if a.homotopy_class != b.homotopy_class:
                    v.append(Violation("class-axiom", f"{name}{pair}",
                                       f"homotopy class changes across {pair}"))
                drop = up_action[top] - low_action[bottom]
                if drop < 0 or (drop == 0 and pair not in equal_action):
                    v.append(Violation("action-axiom", f"{name}{pair}",
                                       f"action does not decrease across {pair}"))
            if dim == 0:
                for pt in pieces:
                    if pt.e_plus_key == p:
                        hit.add(top)
                    if pt.e_minus_key == q:
                        hit.add(bottom)
            if dim != 1:
                continue
            for ci, comp in enumerate(pieces):
                if known and comp.kind == "circle":
                    try:
                        w_plus, w_minus = comp.winding("plus"), comp.winding("minus")
                    except ValueError:
                        v.append(Violation("circle-not-closed", f"{name}{pair}[{ci}]",
                                           "lift does not close up to an integer"))
                    else:
                        # a bad orbit flips the orientation once per turn
                        if (w_plus * (not a.good) + w_minus * (not b.good)) % 2:
                            v.append(Violation(
                                "monodromy-parity", f"{name}{pair}[{ci}]",
                                "orientation not consistent around the circle: "
                                "(-1)^(w+ bad+ + w- bad-) = -1"))
                    if comp.boundary_labels:
                        v.append(Violation("circle-with-labels", f"{name}{pair}[{ci}]",
                                           "circle components have no boundary"))
                elif known:
                    for end in (0, 1):
                        if end in comp.boundary_labels:
                            end_check(pair, comp, ci, end, v)
                        else:
                            v.append(Violation(
                                "unlabeled-end", f"{name}{pair}[{ci}]",
                                f"interval end {end} has no broken-pair label"))
                # basepoints must be regular values of both evaluation maps
                for side, point, oid in (("plus", p, top), ("minus", q, bottom)):
                    why = None if point is None else breakpoint_hit(comp, side, point)
                    if why is not None:
                        hit.add(oid)
                        if known:
                            v.append(Violation("basepoint-nonregular",
                                               f"{name}{pair}[{ci}]", why))
    return hit


def end_where(table, pair, ci, end) -> str:
    """The location of end ``end`` of ``table[pair][ci]``; validators
    format it only for a violation."""
    return f"{table}{pair}[{ci}].end{end}"


def _validate_interval_end(sys, points, pair, comp, ci, end, v):
    top, bottom = pair
    label = comp.boundary_labels[end]
    mid = label.orbit
    if mid not in sys.orbits or mid == top or mid == bottom:
        v.append(Violation("bad-label-orbit", end_where("m1", pair, ci, end),
                           f"intermediate {mid!r}"))
        return
    if not isinstance(label, BoundaryLabel) or label.d_plus not in (0, 1):
        v.append(Violation("bad-label", end_where("m1", pair, ci, end),
                           "system interval ends need d_plus 0 or 1 labels, "
                           f"got {label!r}"))
        return
    upper = Level(sys.m0, sys.m1, (top, mid), frames(sys, sys, (top, mid), points))
    lower = Level(sys.m0, sys.m1, (mid, bottom), frames(sys, sys, (mid, bottom), points))
    check_broken_pair(v, "m1", pair, ci, comp, frames(sys, sys, pair, points), end,
                      label, label.d_plus, upper, lower, (-1) ** label.d_plus)


class Level(NamedTuple):
    """One level of a broken configuration: the moduli tables it lives in,
    the pair it connects and that pair's frames."""

    m0: Dict[Pair, List[SignedPoint]]
    m1: Dict[Pair, List[PLComponent]]
    pair: Pair
    frames: Tuple


def check_broken_pair(v, table, pair, ci, comp, comp_frames, end, label,
                      d_upper, upper, lower, factor):
    """Check that end ``end`` of ``comp``, the component ``table[pair][ci]``,
    converges to the broken pair ``label``.

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
        v.append(Violation("missing-broken-pair", end_where(table, pair, ci, end),
                           "label references a moduli element that does not exist"))
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
        v.append(Violation("label-nonregular", end_where(table, pair, ci, end),
                           f"broken pair sits at parameter {t}, not inside a "
                           "segment of its component"))
        return
    tn, td = t.numerator, t.denominator
    at = {s: point_key(*_interpolate(other.lift(s), 0, tn, td)[1:])
          for s in ("plus", "minus")}
    if d_upper == 0:
        top_end, bottom_end = point.e_plus_key, at["minus"]
        fiber_point = point.e_minus_key
    else:
        top_end, bottom_end = at["plus"], point.e_minus_key
        fiber_point = point.e_plus_key
    # the values (vn, vd) of both lifts at parameter ``end`` (0 or 1)
    ends = [comp.lift(side)[-1 if end else 0][2:] for side in ("plus", "minus")]
    if point_key(*ends[0]) != top_end:
        v.append(Violation("label-eval-mismatch", end_where(table, pair, ci, end),
                           "top evaluation does not match broken limit"))
    if point_key(*ends[1]) != bottom_end:
        v.append(Violation("label-eval-mismatch", end_where(table, pair, ci, end),
                           "bottom evaluation does not match broken limit"))
    if fiber_point != at[fiber]:
        v.append(Violation("label-fiber-mismatch", end_where(table, pair, ci, end),
                           "broken pair is not a fiber-product point"))

    fiber_sign = point.sign * direction * component_orientation(
        other, t, *comp_level.frames
    )
    boundary_sign = transported_sign(comp, *comp_frames, *ends) * (
        1 if end == 1 else -1
    )
    if boundary_sign != factor * fiber_sign:
        v.append(Violation("label-sign-mismatch", end_where(table, pair, ci, end),
                           f"boundary sign {boundary_sign} != {factor} * fiber "
                           f"sign {fiber_sign}"))


# ---------------------------------------------------------------------------
# basepoints


def _lands_on(lifts: List[IntLift], point: Point) -> bool:
    """True iff a breakpoint value of one of the ``lifts`` is the circle
    point ``point``, a pair in lowest terms such as a circle key."""
    pn, pd = point
    for pts in lifts:
        for _tn, _td, vn, vd in pts:
            if vd == pd and (vn - pn) % pd == 0:
                return True
    return False


def assign_basepoints(sys: MorseBottSystem, seed: Optional[int] = None) -> MorseBottSystem:
    """Return a copy of the system with fresh generic basepoints.

    With ``seed=None`` every basepoint is 0, deterministically perturbed away
    from collisions; otherwise basepoints are drawn from a seeded RNG and
    re-drawn until the genericity checks pass.
    """
    import random

    rng = random.Random(seed)
    new = dict(sys.basepoints)
    # per orbit, the keys of the m0 evaluations and the lifts landing on it
    keys = {oid: set() for oid in sys.orbits}
    lifts = {oid: [] for oid in sys.orbits}
    for (top, bottom), points in sys.m0.items():
        for pt in points:
            if top in keys:
                keys[top].add(pt.e_plus_key)
            if bottom in keys:
                keys[bottom].add(pt.e_minus_key)
    for (top, bottom), comps in sys.m1.items():
        for comp in comps:
            if top in lifts:
                lifts[top].append(comp.e_plus_lift)
            if bottom in lifts:
                lifts[bottom].append(comp.e_minus_lift)
    denominators = [257, 263, 269, 271, 277, 281, 283, 293]
    for k, oid in enumerate(sorted(sys.orbits)):
        for attempt in range(64):
            if seed is None:
                q = denominators[(k + attempt) % len(denominators)]
                num = 0 if attempt == 0 else 1 + attempt
            else:
                q = denominators[attempt % len(denominators)]
                num = rng.randrange(q)
            key = point_key(num, q)
            if key not in keys[oid] and not _lands_on(lifts[oid], key):
                new[oid] = Fraction(num, q)
                break
        else:
            raise NonRegularValue(f"could not find a generic basepoint for {oid}")
    return MorseBottSystem(
        sys.orbits, new, sys.m0, sys.m1, sys.m2cc, sys.grading_modulus
    )
