"""Autonomous (S^1-symmetric) systems: cylinder counts and block formulas.

For autonomous data the whole differential is determined by integer counts
of simple cylinders between good orbits (``mj1``), the multiplicities of the
orbits, and a small set of user-supplied "extra" blocks that the symmetry
argument does not pin down.  From these we assemble:

* the cylindrical (EGH) differential delta.kappa on good orbits and its
  homology ranks over Q,
* the integral block differential on check/hat generators,
* the BV operator (check a -> d(a) hat a on good orbits), and
* the U-truncated equivariant complex and its homology.

``compare_egh`` re-runs the standard spectral comparison: the span of
everything except the U^0 check generators of good orbits is an acyclic
(over Q) subcomplex whose quotient is exactly the EGH complex.

Every entry is computed in integers.  <delta a, b> is the sum of
epsilon/du over the simple cylinders a -> b, and each entry multiplies it by
a multiplicity d that every du divides, so it is the integer sum of
epsilon * (d // du) (``_scaled_count``); no rational is formed.

Each public builder validates the data once.  ``block_differential`` and
``_egh_complex`` check d^2 = 0 of the complex they return with
``verify_square_zero``, which marks it, so ``homology`` does not check it
again.  A U-tower's d^2 is checked on its base generators, which decides
it (``_Pattern``).  ``equivariant_homology`` and ``compare_egh`` build no
tower: they read its homology off windows of the base pattern R + B.
``equivariant_differential`` returns its tower unmarked, so ``homology``
multiplies it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Tuple

from .cascades import by_action, chain_generators
from .errors import CascadehoError, InputError, SquareNonzero, ValidationFailure
from .exact import (
    ChainComplex,
    ChainGenerator,
    HomologyResult,
    IntMatrix,
    _groups,
    _reduce_block,
    homology,
    product_sum,
    verify_square_zero,
)
from .mbs import Orbit, Violation, scaled_actions

Pair = Tuple[str, str]
GenKey = Tuple[str, str]  # (flavor, orbit)

# the bound that keeps an untrusted --umax from making unbounded work: on
# the generators equivariant_differential assembles, 2 per orbit and U
# power, and on the (class, degree) slots whose groups _Pattern.homology
# walks and reports for chs1 and compare, which build no tower
MAX_GENERATORS = 10**6


@dataclass(frozen=True)
class CylinderRecord:
    """One simple holomorphic cylinder between good orbits.

    ``epsilon`` is its sign, ``du`` the covering multiplicity of the
    underlying somewhere-injective cylinder (du divides gcd(d+, d-)).
    """

    epsilon: int
    du: int

    def __post_init__(self):
        # the block formulas divide d by du in integers
        if type(self.epsilon) is not int or self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +-1")
        if type(self.du) is not int or self.du < 1:
            raise ValueError("du must be a positive integer")


@dataclass
class AutonomousData:
    orbits: Dict[str, Orbit]
    mj1: Dict[Pair, List[CylinderRecord]] = field(default_factory=dict)
    extra: Dict[Tuple[GenKey, GenKey], int] = field(default_factory=dict)

    def orbit(self, oid: str) -> Orbit:
        return self.orbits[oid]

    def good_orbits(self, action: Dict[str, int]) -> List[Orbit]:
        """The good orbits in decreasing action, compared as ``action``."""
        return [o for o in by_action(self.orbits, action) if o.good]

    def generator_grading(self, orbit: Orbit, flavor: str) -> int:
        """The grading of ``orbit``'s check or hat generator."""
        if orbit.grading is None:
            raise ValidationFailure(
                [Violation("missing-grading", orbit.oid,
                           "autonomous data needs gradings")]
            )
        return orbit.grading + (flavor == "hat")


def validate_data(data: AutonomousData, action=None) -> List[Violation]:
    """The violations of ``data``, in check order, over the request's
    ``scaled_actions`` table (made here when None).  A violation's location
    and message are formatted only when its check fails."""
    if action is None:
        (action,) = scaled_actions(data.orbits)
    v: List[Violation] = []
    orbits = data.orbits
    for oid, orbit in orbits.items():
        if orbit.grading is None:
            v.append(Violation("missing-grading", oid, "integer grading required"))
        elif (orbit.grading - orbit.parity) % 2 != 0:
            v.append(Violation("grading-parity", oid, "grading parity != CZ parity"))
        if not orbit.good and orbit.d % 2 != 0:
            v.append(Violation("bad-orbit-multiplicity", oid,
                               "bad orbit must have even multiplicity"))

    # the action axioms compare integers, as the generator order does
    for (top, bottom), cylinders in sorted(data.mj1.items()):
        if top not in orbits or bottom not in orbits:
            v.append(Violation("unknown-orbit", f"mj1({top},{bottom})",
                               "unknown orbit id"))
            continue
        a, b = orbits[top], orbits[bottom]
        if not (a.good and b.good):
            v.append(Violation("cylinder-bad-orbit", f"mj1({top},{bottom})",
                               "cylinder records live between good orbits"))
        if not action[bottom] < action[top]:
            v.append(Violation("action-axiom", f"mj1({top},{bottom})",
                               "action does not decrease"))
        if a.homotopy_class != b.homotopy_class:
            v.append(Violation("class-axiom", f"mj1({top},{bottom})",
                               "cylinders preserve the homotopy class"))
        if (a.grading is not None and b.grading is not None
                and a.grading - b.grading != 1):
            v.append(Violation("grading-axiom", f"mj1({top},{bottom})",
                               "cylinder grading gap != 1"))
        for cyl in cylinders:
            if gcd(a.d, b.d) % cyl.du != 0:
                v.append(Violation("du-divisibility", f"mj1({top},{bottom})",
                                   f"du = {cyl.du} does not divide gcd({a.d}, {b.d})"))

    for ((sf, s), (tf, t)), coeff in sorted(data.extra.items()):
        if not coeff:
            continue
        if type(coeff) is not int:
            v.append(Violation("extra-coefficient", f"extra({sf}:{s} -> {tf}:{t})",
                               f"coefficient {coeff!r} is not an integer"))
        if s not in orbits or t not in orbits:
            v.append(Violation("unknown-orbit", f"extra({sf}:{s} -> {tf}:{t})",
                               "unknown orbit id"))
            continue
        a, b = orbits[s], orbits[t]
        if not (sf == "check" and tf == "hat" or sf == tf == "hat" and not a.good
                or sf == tf == "check" and not b.good):
            v.append(Violation(
                "extra-slot", f"extra({sf}:{s} -> {tf}:{t})",
                "coefficient sits in a slot the block formulas determine"))
        if not action[t] < action[s]:
            v.append(Violation("action-axiom", f"extra({sf}:{s} -> {tf}:{t})",
                               "action does not decrease"))
        if a.homotopy_class != b.homotopy_class:
            v.append(Violation("class-axiom", f"extra({sf}:{s} -> {tf}:{t})",
                               "extra entries preserve the homotopy class"))
        if a.grading is not None and b.grading is not None:
            gap = (a.grading + (sf == "hat")) - (b.grading + (tf == "hat"))
            if gap != 1:
                v.append(Violation("grading-axiom", f"extra({sf}:{s} -> {tf}:{t})",
                                   f"grading gap {gap} != 1"))
    return v


def _require_valid(data: AutonomousData) -> Dict[str, int]:
    """Raise ValidationFailure unless ``data`` is valid; returns the
    request's one ``scaled_actions`` table, which validation read."""
    (action,) = scaled_actions(data.orbits)
    violations = validate_data(data, action)
    if violations:
        raise ValidationFailure(violations)
    return action


def _scaled_count(cylinders: List[CylinderRecord], d: int, block: str,
                  pair: Pair) -> int:
    """d * <delta a, b> for the simple cylinders a -> b of ``pair``: the sum
    of epsilon * (d // du).  Raises CascadehoError, naming ``block`` and the
    pair, if some du does not divide d, which ``validate_data`` rules out."""
    total = 0
    for cyl in cylinders:
        q, r = divmod(d, cyl.du)
        if r:
            raise CascadehoError(
                f"du = {cyl.du} does not divide {d} at {block}({pair[0]},{pair[1]})")
        total += cyl.epsilon * q
    return total


# ---------------------------------------------------------------------------
# cylindrical (EGH) complex


def _egh_complex(data: AutonomousData, action) -> ChainComplex:
    """``egh_differential`` of valid data, its actions scaled as ``action``."""
    gens = tuple(
        ChainGenerator(o.oid, o.grading, o.homotopy_class, o.action, o.oid)
        for o in data.good_orbits(action)
    )
    index = {g.gid: k for k, g in enumerate(gens)}
    entries = {}
    for (a, b), cylinders in data.mj1.items():
        coeff = _scaled_count(cylinders, data.orbit(a).d, "egh", (a, b))
        if coeff:
            entries[(index[b], index[a])] = coeff
    n = len(gens)
    complex_ = ChainComplex(gens, IntMatrix._trusted(n, n, entries))
    verify_square_zero(complex_)
    return complex_


def egh_differential(data: AutonomousData) -> ChainComplex:
    """delta.kappa on good orbits: <d a, b> = d(a) * <delta a, b>.

    Returns the complex on one generator per good orbit, its gid the orbit
    id, in decreasing action.  Raises SquareNonzero with a witness pair
    unless d^2 = 0.
    """
    return _egh_complex(data, _require_valid(data))


def egh_homology(data: AutonomousData) -> Dict[Tuple[str, int], int]:
    """Ranks of the cylindrical homology over Q, per (class, grading)."""
    return homology(egh_differential(data)).rationalize()


# ---------------------------------------------------------------------------
# integral block differential and the equivariant complex


def block_entries(data: AutonomousData) -> Dict[Tuple[GenKey, GenKey], int]:
    """Integer matrix entries of the nonequivariant block differential."""
    entries: Dict[Tuple[GenKey, GenKey], int] = {}
    orbits = data.orbits
    for (a, b), cylinders in data.mj1.items():
        # check block: +kappa-then-delta; hat block: -delta-then-kappa, in one
        # pass; a du not dividing d raises (_scaled_count), check block first
        da, db = orbits[a].d, orbits[b].d
        cc = hh = 0
        for cyl in cylinders:
            if da % cyl.du or db % cyl.du:
                _scaled_count(cylinders, da, "check block ", (a, b))
                _scaled_count(cylinders, db, "hat block ", (a, b))
            cc += cyl.epsilon * (da // cyl.du)
            hh -= cyl.epsilon * (db // cyl.du)
        if cc:
            entries[(("check", a), ("check", b))] = cc
        if hh:
            entries[(("hat", a), ("hat", b))] = hh

    for oid, orbit in data.orbits.items():
        if not orbit.good:
            entries[(("hat", oid), ("check", oid))] = -2

    for (src, tgt), coeff in data.extra.items():
        if coeff:
            entries[(src, tgt)] = entries.get((src, tgt), 0) + coeff
    return {k: v for k, v in entries.items() if v}


def _bv_entries(data: AutonomousData, keys) -> Dict[Tuple[int, int], int]:
    """The BV operator's entries (hat a, check a) -> d(a), one per good
    orbit a, in the generator indices ``keys``."""
    return {(keys[("hat", oid)], keys[("check", oid)]): orbit.d
            for oid, orbit in data.orbits.items() if orbit.good}


def bv_operator(data: AutonomousData) -> IntMatrix:
    """Degree-1 BV operator: check a -> d(a) hat a on good orbits."""
    keys, gens = chain_generators(data, *scaled_actions(data.orbits))
    n = len(gens)
    return IntMatrix(n, n, _bv_entries(data, keys))


def _check_block_identities(data: AutonomousData, raw):
    """kappa . check-block + hat-block . kappa = 0 and d+ . kappa = 0.

    ``raw`` is ``block_entries(data)``; only its nonzero entries can break an
    identity, and each pair (a, b) is tested once: with its check entry, or
    with its hat entry when it has none.  Of several failures, the first in
    ``data.orbits`` order is reported: pair (a, b) in row-major order (the
    kappa identity before the off-diagonal d+ test), then the diagonal of a
    after its pairs.
    """
    kappa = {oid: (orbit.d if orbit.good else 0) for oid, orbit in data.orbits.items()}
    position = {oid: k for k, oid in enumerate(data.orbits)}
    failures = []
    for (sf, a), (tf, b) in raw:
        if sf == tf:
            cc = raw.get((("check", a), ("check", b)), 0)
            if sf == "hat" and cc:
                continue  # tested with its check entry
            hh = raw.get((("hat", a), ("hat", b)), 0)
            if kappa[b] * cc + hh * kappa[a]:
                failures.append(
                    ((position[a], 0, position[b], 0),
                     f"kappa-block identity fails on ({a}, {b}): "
                     f"{kappa[b]}*{cc} + {hh}*{kappa[a]} != 0")
                )
        elif (sf, tf) == ("hat", "check"):
            if a != b:
                failures.append(((position[a], 0, position[b], 1),
                                 f"d+ has an off-diagonal entry ({a}, {b})"))
            elif kappa[a]:
                failures.append(((position[a], 1), f"d+ . kappa != 0 at {a}"))
    if failures:
        raise CascadehoError(min(failures)[1])


def _block_matrix(data: AutonomousData, action):
    """The base generators of valid data (``chain_generators``), their keys,
    and R = ``block_entries`` in their indices, (row, column) = (target,
    source), in block_entries' order, once the kappa identities hold."""
    keys, gens = chain_generators(data, action)
    raw = block_entries(data)
    _check_block_identities(data, raw)
    return keys, gens, {(keys[tgt], keys[src]): v for (src, tgt), v in raw.items()}


def block_differential(data: AutonomousData) -> ChainComplex:
    """Nonequivariant complex (check/hat generators, integral).  Raises
    SquareNonzero with a witness pair unless d^2 = 0."""
    _keys, gens, r = _block_matrix(data, _require_valid(data))
    n = len(gens)
    complex_ = ChainComplex(tuple(gens), IntMatrix._trusted(n, n, r))
    verify_square_zero(complex_)
    return complex_


class _Pattern:
    """The U-towers of valid data, on the base generators alone.

    The tower up to U^K is D = R (x) 1 + B (x) S on the base generators
    (``chain_generators``) times U^0..U^K, t (x) U^k graded gr(t) + 2k.  R
    is ``block_entries``: it keeps the U power and, as ``validate_data``
    requires, lowers the base grading by 1 within one class.  B is the BV
    operator (check a -> d(a) hat a on good orbits): it lowers the U power
    and raises the base grading by 1.  S: U^k -> U^(k-1) is the shift.
    ``r`` and ``bv`` hold R and B once, as entry dicts (row, column) ->
    value in the base indices; the windows, the d^2 check, ``_assemble``
    and ``compare_egh`` all read them.

    So the generators of class c in degree g are t (x) U^k for the base
    generators T_g of class c with gr(t) = g (mod 2) and gr(t) <= g <=
    gr(t) + 2K, one each and in base order, and the block of D from degree
    g to g - 1 is the window of M = R + B on the rows T_(g-1) and the
    columns T_g: for t in T_g and s in T_(g-1) the U powers are fixed by
    the degrees, R[s, t] can only join equal powers and B[s, t] only
    lower the power by one.  Between hi + 1 and lo + 2K, for the least and
    greatest base gradings lo and hi of the class, T_g is every base
    generator of g's parity, so the windows of those degrees repeat with
    period 2.  ``homology`` builds and reduces each distinct window once
    (``window``).

    d^2 = 0 of every tower is checked on the n base generators: B^2 = 0,
    since B goes from check to hat generators only, so

        D^2 = R^2 (x) 1 + (RB + BR) (x) S,

    and for K >= 1, where 1 and S are independent, D^2 = 0 exactly when
    R^2 = 0 and RB + BR = 0: R^2 is an n x n ``IntMatrix`` product, and
    RB + BR one two-term ``product_sum``.  The witness is the tower's too.
    Generator ``t * (K + 1) + k`` of the built tower is t (x) U^k, so D^2
    has R^2[t, s] at (t U^k, s U^k) for k <= K and (RB + BR)[t, s] at
    (t U^(k-1), s U^k) for 1 <= k <= K.  Its least nonzero (row, column) is
    therefore in row t U^0 for the least base row t of either matrix, and
    in column s U^0 or s U^1 for the least base column s of that row (U^0
    first): the least (t, s, power) over R^2 at power 0 and RB + BR at
    power 1, the same generator pair and value for every K.
    """

    def __init__(self, data: AutonomousData, action):
        self.action = action  # the request's scaled_actions table
        keys, self.base, self.r = _block_matrix(data, action)
        self.bv = _bv_entries(data, keys)
        self._verify_square()
        self.grading = [g.grading for g in self.base]
        self.classes: Dict[str, List[int]] = {}
        for t, g in enumerate(self.base):
            self.classes.setdefault(g.homotopy_class, []).append(t)
        # M = R + B by column: column t lists (s, M[s, t])
        self.columns = [[] for _ in self.base]
        for entries in (self.r, self.bv):
            for (s, t), v in entries.items():
                self.columns[t].append((s, v))
        self.windows = {}  # (rows, columns) -> (rank, torsion) or None

    def _verify_square(self):
        """Raise SquareNonzero, with every tower's witness, unless R^2 = 0
        and RB + BR = 0."""
        n = len(self.base)
        r = IntMatrix._trusted(n, n, self.r)
        found = [((t, s, 0), v) for (t, s), v in (r * r).entries.items()]
        rbbr = product_sum((1, self.r, self.bv), (1, self.bv, self.r))
        found += [((t, s, 1), v) for (t, s), v in rbbr.items()]
        if found:
            (t, s, power), value = min(found)
            raise SquareNonzero(f"{self.base[s].gid}:U{power}",
                                f"{self.base[t].gid}:U0", value)

    def window(self, rows: tuple, cols: tuple):
        """(rank, torsion) of M on the base generators ``rows`` x ``cols``,
        None when it has no entry; each window is built and reduced once."""
        key = (rows, cols)
        if key not in self.windows:
            local = {s: k for k, s in enumerate(rows)}
            block = {}
            for c, t in enumerate(cols):
                for s, v in self.columns[t]:
                    r = local.get(s)
                    if r is not None:
                        block[(r, c)] = v
            self.windows[key] = _reduce_block(
                IntMatrix._trusted(len(rows), len(cols), block)) if block else None
        return self.windows[key]

    def stable_range(self, truncation: int) -> int:
        """The greatest degree up to which the tower up to U^truncation has
        the untruncated homology in every class: T_g is the untruncated
        level exactly when g <= lo + 2K, so H_g is the limit's for g <= lo +
        2K - 1 in a class whose least base grading is lo.  Capped at 2K - 2."""
        lowest = min(self.grading, default=-1)
        return min(lowest + 2 * truncation - 1, 2 * truncation - 2)

    def homology(self, truncation: int, dropped=()) -> HomologyResult:
        """Integral homology of the tower up to U^truncation, less the U^0
        copy of each base generator in ``dropped``, read off its windows;
        the degrees of the periodic middle take the two parities' results."""
        grading = self.grading
        top = 2 * truncation
        sizes, out_of = [], {}
        for cls, members in self.classes.items():
            lo = min(grading[t] for t in members)
            hi = max(grading[t] for t in members)
            full = [tuple(t for t in members if grading[t] % 2 == p) for p in (0, 1)]

            def level(g):
                """T_g, less ``dropped`` at U^0."""
                if hi < g <= lo + top:
                    return full[g % 2]
                return tuple(t for t in full[g % 2] if g - top <= grading[t] <= g
                             and not (grading[t] == g and t in dropped))

            fill = {}  # parity -> the window of the periodic middle
            rows = level(lo - 1)
            for g in range(lo, hi + top + 1):
                cols = level(g)
                sizes.append(((cls, g), len(cols)))
                if not hi + 1 < g <= lo + top:
                    result = self.window(rows, cols)
                elif g % 2 in fill:
                    result = fill[g % 2]
                else:
                    result = fill[g % 2] = self.window(rows, cols)
                if result is not None:
                    out_of[(cls, g)] = result
                rows = cols
        return _groups(sizes, out_of, 0)


def _assemble(pattern: _Pattern, truncation: int) -> ChainComplex:
    """The complex on ``pattern``'s base generators times U^0..U^truncation:
    generator ``t * (K + 1) + k`` is t (x) U^k, graded up by 2k."""
    base = pattern.base
    step = truncation + 1
    powers = [(f":U{k}", 2 * k) for k in range(step)]
    new = tuple.__new__
    gens = tuple(
        new(ChainGenerator, (gid + suffix, grading + shift, cls, action, orbit))
        for gid, grading, cls, action, orbit in base for suffix, shift in powers
    )
    entries: Dict[Tuple[int, int], int] = {}
    for (t, s), v in pattern.r.items():
        for k in range(step):
            entries[(t * step + k, s * step + k)] = v
    # BV tail: d(check a (x) U^k) gains d(a) * hat a (x) U^{k-1}, a slot no
    # entry of R holds, since R keeps the U power
    for (hat, check), d in pattern.bv.items():
        for k in range(1, step):
            entries[(hat * step + k - 1, check * step + k)] = d
    n = len(gens)
    return ChainComplex(gens, IntMatrix._trusted(n, n, entries))


def _tower_pattern(data: AutonomousData, truncation: int) -> _Pattern:
    """The ``_Pattern`` of ``data`` for the towers up to U^truncation.

    Raises ValueError for a truncation below 1, ValidationFailure for
    invalid data, and SquareNonzero, with the tower's witness, unless every
    tower squares to zero.  Then InputError when ``homology`` would walk
    more than MAX_GENERATORS (class, degree) slots: hi - lo + 2K + 1 per
    class, for its least and greatest base gradings lo and hi.  No work so
    far depends on K.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    pattern = _Pattern(data, _require_valid(data))
    grading = pattern.grading
    count = sum(max(grading[t] for t in members) - min(grading[t] for t in members)
                + 2 * truncation + 1 for members in pattern.classes.values())
    if count > MAX_GENERATORS:
        raise InputError(
            f"truncation K = {truncation} (--umax) needs {count} (class, degree) "
            "slots (hi - lo + 2K + 1 per homotopy class), "
            f"more than {MAX_GENERATORS}"
        )
    return pattern


def equivariant_differential(data: AutonomousData, truncation: int) -> ChainComplex:
    """d (x) 1 + d_1 (x) U^{-1} on generators up to U^truncation.

    Raises InputError, before any work, when the complex would have more
    than MAX_GENERATORS generators; otherwise as ``_tower_pattern``.  d^2
    = 0 is checked on the base generators (``_Pattern``), with the tower's
    witness; the tower is not marked checked, so ``homology`` multiplies it
    out again.
    """
    count = 2 * len(data.orbits) * (truncation + 1)
    if count > MAX_GENERATORS:
        raise InputError(
            f"truncation K = {truncation} (--umax) needs {count} generators "
            f"(2 x {len(data.orbits)} orbits x (K + 1)), more than "
            f"{MAX_GENERATORS}"
        )
    return _assemble(_tower_pattern(data, truncation), truncation)


def equivariant_homology(
    data: AutonomousData, truncation: int
) -> Tuple[HomologyResult, int]:
    """Integral equivariant homology and its certified stable range
    (``_Pattern.stable_range``: 2K - 2, less where a class's least base
    grading lies below -1).

    The stable range is verified by computing the truncation K - 1
    homology too and diffing both results below the smaller range.  Both
    are read off the windows of R + B (``_Pattern``); no tower is built.
    """
    return _certified_homology(_tower_pattern(data, truncation), truncation)


def _certified_homology(pattern: _Pattern, truncation: int):
    """``equivariant_homology`` of ``pattern``; the truncation K - 1 tower
    has the same windows less the top ones, so it reads them off
    ``pattern.windows``."""
    result = pattern.homology(truncation)
    stable = pattern.stable_range(truncation)
    if truncation >= 2:
        smaller = pattern.homology(truncation - 1)
        cutoff = pattern.stable_range(truncation - 1)
        if smaller.restricted(cutoff).groups != result.restricted(cutoff).groups:
            raise CascadehoError(
                "equivariant homology is not truncation-stable below "
                f"degree {cutoff}"
            )
    return result, stable


# ---------------------------------------------------------------------------
# comparison with the cylindrical theory


@dataclass(frozen=True)
class CompareStep:
    name: str
    ok: bool
    details: str = ""


@dataclass(frozen=True)
class CompareReport:
    steps: Tuple[CompareStep, ...]
    stable_range: int

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    def describe(self) -> List[str]:
        lines = []
        for s in self.steps:
            mark = "ok" if s.ok else "FAIL"
            suffix = f" ({s.details})" if s.details else ""
            lines.append(f"[{mark}] {s.name}{suffix}")
        lines.append(f"stable range: degrees <= {self.stable_range}")
        return lines


def compare_egh(data: AutonomousData, truncation: int) -> CompareReport:
    """Four-step comparison of equivariant and cylindrical homology.

    The data is validated once and the EGH complex built once; the
    truncation-K tower is read off its base pattern (``_Pattern``), never
    built.  Its U^0 good check generators are the U^0 copies of the base
    check generators of good orbits.  D enters them only through R at U^0,
    since B lands on hat generators and R keeps the U power, so step (iii)
    reads R on the base generators, and step (ii) drops them from the
    bottom windows.
    """
    pattern = _tower_pattern(data, truncation)
    u0 = {check: pattern.base[check].orbit for _hat, check in pattern.bv}
    steps = []

    # (i) everything else is a subcomplex, a certificate of the d^2 check:
    # a leak is an R entry x -> check q, q good, x no good check generator,
    # and then (RB + BR)[hat q, x] = d(q) * R[check q, x] != 0 (B R carries
    # the entry to hat q; R B has no term there, as B leaves only good check
    # generators), which ``_Pattern`` has refused with the tower's witness
    steps.append(CompareStep(
        "complement of U^0 good check generators is a subcomplex", True))

    stable = pattern.stable_range(truncation)

    # (ii) that subcomplex is acyclic over Q in the stable range
    bad_degrees = {
        g for (_cls, g) in pattern.homology(truncation, u0).rationalize()
        if g <= stable
    }
    steps.append(CompareStep(
        "subcomplex is rationally acyclic in the stable range",
        not bad_degrees, ", ".join(map(str, sorted(bad_degrees)[:4]))))

    # (iii) the quotient differential is the cylindrical one: both read as
    # <d a, b> per pair of good orbits, listed in the EGH generator order
    egh = _egh_complex(data, pattern.action)
    quotient = {
        (u0[j], u0[i]): v for (i, j), v in pattern.r.items() if i in u0 and j in u0
    }
    oids = [g.gid for g in egh.generators]
    cylindrical = {
        (oids[j], oids[i]): v for (i, j), v in egh.differential.entries.items()
    }
    position = {oid: k for k, oid in enumerate(oids)}
    differ = {ab for ab, _v in quotient.items() ^ cylindrical.items()}
    mismatches = [
        f"({a},{b}): {quotient.get((a, b), 0)} != {cylindrical.get((a, b), 0)}"
        for a, b in sorted(differ, key=lambda ab: (position[ab[0]], position[ab[1]]))
    ]
    steps.append(CompareStep(
        "quotient differential equals the cylindrical differential",
        not mismatches, "; ".join(mismatches[:3])))

    # (iv) rationalised equivariant homology matches cylindrical ranks
    hom, stable = _certified_homology(pattern, truncation)
    left = {k: v for k, v in hom.rationalize().items() if k[1] <= stable}
    right = {k: v for k, v in homology(egh).rationalize().items() if k[1] <= stable}
    steps.append(CompareStep(
        "rationalised equivariant homology equals cylindrical homology",
        left == right, "" if left == right else f"{left} != {right}"))
    return CompareReport(tuple(steps), stable)
