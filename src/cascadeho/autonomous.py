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

Each public builder validates the data once; the checking builders
``_tower`` (the block and U-tower complexes) and ``_egh_complex`` then
check d^2 = 0 of the complex they return (a U-tower's on its two-level
core U^0 + U^1, which decides it), so ``homology`` does not check it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Tuple

from .cascades import by_action, chain_generators
from .errors import CascadehoError, InputError, ValidationFailure
from .exact import (
    ChainComplex,
    ChainGenerator,
    HomologyResult,
    IntMatrix,
    homology,
    verify_square_zero,
)
from .mbs import Orbit, Violation, scaled_actions

Pair = Tuple[str, str]
GenKey = Tuple[str, str]  # (flavor, orbit)

# most generators of one U-truncated complex: 2 per orbit and U power, so
# an untrusted --umax cannot make the assembly unbounded work
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

    def good_orbits(self) -> List[Orbit]:
        return [o for o in by_action(self.orbits) if o.good]

    def generator_grading(self, orbit: Orbit, flavor: str) -> int:
        """The grading of ``orbit``'s check or hat generator."""
        if orbit.grading is None:
            raise ValidationFailure(
                [Violation("missing-grading", orbit.oid,
                           "autonomous data needs gradings")]
            )
        return orbit.grading + (flavor == "hat")


def validate_data(data: AutonomousData) -> List[Violation]:
    v: List[Violation] = []

    def check(ok, code, where, msg):
        if not ok:
            v.append(Violation(code, where, msg))

    for oid, orbit in data.orbits.items():
        check(orbit.grading is not None, "missing-grading", oid,
              "integer grading required")
        if orbit.grading is not None:
            check((orbit.grading - orbit.parity) % 2 == 0, "grading-parity",
                  oid, "grading parity != CZ parity")
        if not orbit.good:
            check(orbit.d % 2 == 0, "bad-orbit-multiplicity", oid,
                  "bad orbit must have even multiplicity")

    # the action axioms compare integers, as the generator order does
    (action,) = scaled_actions(data.orbits)
    for (top, bottom), cylinders in sorted(data.mj1.items()):
        where = f"mj1({top},{bottom})"
        if top not in data.orbits or bottom not in data.orbits:
            check(False, "unknown-orbit", where, "unknown orbit id")
            continue
        a, b = data.orbit(top), data.orbit(bottom)
        check(a.good and b.good, "cylinder-bad-orbit", where,
              "cylinder records live between good orbits")
        check(action[bottom] < action[top], "action-axiom", where,
              "action does not decrease")
        check(a.homotopy_class == b.homotopy_class, "class-axiom", where,
              "cylinders preserve the homotopy class")
        if a.grading is not None and b.grading is not None:
            check(a.grading - b.grading == 1, "grading-axiom", where,
                  "cylinder grading gap != 1")
        for cyl in cylinders:
            check(gcd(a.d, b.d) % cyl.du == 0, "du-divisibility", where,
                  f"du = {cyl.du} does not divide gcd({a.d}, {b.d})")

    for (src, tgt), coeff in sorted(data.extra.items()):
        where = f"extra({src[0]}:{src[1]} -> {tgt[0]}:{tgt[1]})"
        if not coeff:
            continue
        check(type(coeff) is int, "extra-coefficient", where,
              f"coefficient {coeff!r} is not an integer")
        if src[1] not in data.orbits or tgt[1] not in data.orbits:
            check(False, "unknown-orbit", where, "unknown orbit id")
            continue
        a, b = data.orbit(src[1]), data.orbit(tgt[1])
        slot = (src[0], tgt[0])
        if slot == ("check", "hat"):
            legal = True
        elif slot == ("hat", "hat"):
            legal = not a.good
        elif slot == ("check", "check"):
            legal = not b.good
        else:
            legal = False
        check(legal, "extra-slot", where,
              "coefficient sits in a slot the block formulas determine")
        check(action[tgt[1]] < action[src[1]], "action-axiom", where,
              "action does not decrease")
        check(a.homotopy_class == b.homotopy_class, "class-axiom", where,
              "extra entries preserve the homotopy class")
        try:
            gap = (data.generator_grading(a, src[0])
                   - data.generator_grading(b, tgt[0]))
            check(gap == 1, "grading-axiom", where, f"grading gap {gap} != 1")
        except ValidationFailure:
            pass  # reported above
    return v


def _require_valid(data: AutonomousData):
    violations = validate_data(data)
    if violations:
        raise ValidationFailure(violations)


def _scaled_count(cylinders: List[CylinderRecord], d: int, where: str) -> int:
    """d * <delta a, b> for the simple cylinders a -> b: the sum of
    epsilon * (d // du).  Raises CascadehoError if some du does not divide
    d, which ``validate_data`` rules out."""
    total = 0
    for cyl in cylinders:
        q, r = divmod(d, cyl.du)
        if r:
            raise CascadehoError(f"du = {cyl.du} does not divide {d} at {where}")
        total += cyl.epsilon * q
    return total


# ---------------------------------------------------------------------------
# cylindrical (EGH) complex


def _egh_complex(data: AutonomousData) -> ChainComplex:
    """``egh_differential`` of valid data."""
    gens = tuple(
        ChainGenerator(o.oid, o.grading, o.homotopy_class, o.action, o.oid)
        for o in data.good_orbits()
    )
    index = {g.gid: k for k, g in enumerate(gens)}
    entries = {}
    for (a, b), cylinders in data.mj1.items():
        coeff = _scaled_count(cylinders, data.orbit(a).d, f"egh({a},{b})")
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
    _require_valid(data)
    return _egh_complex(data)


def egh_homology(data: AutonomousData) -> Dict[Tuple[str, int], int]:
    """Ranks of the cylindrical homology over Q, per (class, grading)."""
    return homology(egh_differential(data)).rationalize()


# ---------------------------------------------------------------------------
# integral block differential and the equivariant complex


def block_entries(data: AutonomousData) -> Dict[Tuple[GenKey, GenKey], int]:
    """Integer matrix entries of the nonequivariant block differential."""
    entries: Dict[Tuple[GenKey, GenKey], int] = {}

    for (a, b), cylinders in data.mj1.items():
        # check block: +kappa-then-delta; hat block: -delta-then-kappa
        cc = _scaled_count(cylinders, data.orbit(a).d, f"check block ({a},{b})")
        hh = -_scaled_count(cylinders, data.orbit(b).d, f"hat block ({a},{b})")
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


def _assemble(data, raw, truncation):
    """The complex on ``chain_generators(data)`` times U^0..U^truncation
    (U^0 alone for None): generator ``keys[key] * (K + 1) + k`` is
    ``key`` (x) U^k, graded up by 2k."""
    keys, base = chain_generators(data)
    step = 1 if truncation is None else truncation + 1
    powers = [(f":U{k}", 2 * k) for k in range(step)]
    new = tuple.__new__
    gens = base if truncation is None else [
        new(ChainGenerator, (gid + suffix, grading + shift, cls, action, orbit))
        for gid, grading, cls, action, orbit in base for suffix, shift in powers
    ]
    entries: Dict[Tuple[int, int], int] = {}
    for (src, tgt), val in raw.items():
        for k in range(step):
            entries[(keys[tgt] * step + k, keys[src] * step + k)] = val
    # BV tail: d(check a (x) U^k) gains d(a) * hat a (x) U^{k-1}, a slot no
    # raw entry holds, since every raw entry keeps the U power
    for oid, orbit in data.orbits.items():
        if orbit.good:
            check, hat = keys[("check", oid)] * step, keys[("hat", oid)] * step
            for k in range(1, step):
                entries[(hat + k - 1, check + k)] = orbit.d
    n = len(gens)
    return ChainComplex(tuple(gens), IntMatrix._trusted(n, n, entries))


def block_differential(data: AutonomousData) -> ChainComplex:
    """Nonequivariant complex (check/hat generators, integral)."""
    _require_valid(data)
    return _tower(data, None)


def bv_operator(data: AutonomousData) -> IntMatrix:
    """Degree-1 BV operator: check a -> d(a) hat a on good orbits."""
    keys, gens = chain_generators(data)
    entries = {}
    for oid, orbit in data.orbits.items():
        if orbit.good:
            entries[(keys[("hat", oid)], keys[("check", oid)])] = orbit.d
    n = len(gens)
    return IntMatrix(n, n, entries)


def _check_block_identities(data: AutonomousData, raw):
    """kappa . check-block + hat-block . kappa = 0 and d+ . kappa = 0.

    ``raw`` is ``block_entries(data)``; only its nonzero entries can break an
    identity.  Of several failures, the first in ``data.orbits`` order is
    reported: pair (a, b) in row-major order (the kappa identity before the
    off-diagonal d+ test), then the diagonal of a after its pairs.
    """
    kappa = {
        oid: (orbit.d if orbit.good else 0) for oid, orbit in data.orbits.items()
    }
    position = {oid: k for k, oid in enumerate(data.orbits)}
    failures = []
    for (sf, a), (tf, b) in raw:
        if sf == tf:
            cc = raw.get((("check", a), ("check", b)), 0)
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


def _check_truncation(data: AutonomousData, truncation: int):
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    count = 2 * len(data.orbits) * (truncation + 1)
    if count > MAX_GENERATORS:
        raise InputError(
            f"truncation K = {truncation} (--umax) needs {count} generators "
            f"(2 x {len(data.orbits)} orbits x (K + 1)), more than "
            f"{MAX_GENERATORS}"
        )


def _tower(data: AutonomousData, truncation: Optional[int]) -> ChainComplex:
    """The block complex of valid data: ``block_differential`` for
    ``truncation`` None, else ``equivariant_differential`` up to U^truncation.

    d^2 = 0 of a U-tower is checked on its two-level core U^0 + U^1, read
    off the built tower, and the tower is then marked checked.  The tower
    is D = R (x) 1 + B (x) S on the base generators times U^0..U^K: R the
    block differential (``block_entries``, which keeps the U power), B the
    BV operator (check a -> d(a) hat a) and S: U^k -> U^(k-1) the shift.
    B^2 = 0, since B goes from check to hat generators only, so

        D^2 = R^2 (x) 1 + (RB + BR) (x) S,

    and for K >= 1, where 1 and S are independent, D^2 = 0 exactly when
    R^2 = 0 and RB + BR = 0: exactly when it vanishes for K = 1, the core.
    The witness is the same too.  Generator ``t * (K + 1) + k`` is t (x)
    U^k, so D^2 has R^2[t, s] at (t U^k, s U^k) for k <= K and (RB + BR)[t, s]
    at (t U^(k-1), s U^k) for 1 <= k <= K.  Its least nonzero (row, column)
    is therefore in row t U^0 for the least base row t of either matrix,
    and in column s U^0 or s U^1 for the least base column s of that row
    (U^0 first): the same generator pair and value in the core as in the
    whole tower, so ``SquareNonzero`` reads the same.
    """
    raw = block_entries(data)
    _check_block_identities(data, raw)
    complex_ = _assemble(data, raw, truncation)
    if truncation is None:
        verify_square_zero(complex_)
    else:
        step = truncation + 1
        n = len(complex_.generators)
        verify_square_zero(complex_.restrict(
            sorted([*range(0, n, step), *range(1, n, step)])))
        object.__setattr__(complex_, "_square_zero", True)
    return complex_


def equivariant_differential(data: AutonomousData, truncation: int) -> ChainComplex:
    """d (x) 1 + d_1 (x) U^{-1} on generators up to U^truncation.

    Raises InputError, before any assembly, when the complex would have
    more than MAX_GENERATORS generators.
    """
    _check_truncation(data, truncation)
    _require_valid(data)
    return _tower(data, truncation)


def equivariant_homology(
    data: AutonomousData, truncation: int
) -> Tuple[HomologyResult, int]:
    """Integral equivariant homology and its certified stable range 2K - 2.

    The stable range is verified by restricting to the truncation K - 1
    subcomplex and diffing both results below the smaller range.
    """
    complex_ = equivariant_differential(data, truncation)
    return _certified_homology(complex_, truncation, {})


def _lower_truncation(complex_: ChainComplex, truncation: int) -> ChainComplex:
    """The truncation K - 1 complex inside the truncation-K one.

    Each (orbit, flavor) holds K + 1 consecutive generators U^0..U^K, and
    the differential never raises the U power, so dropping every U^K leaves
    a subcomplex: ``equivariant_differential(data, K - 1)`` itself.
    """
    step = truncation + 1
    return complex_.restrict(
        [i for i in range(len(complex_.generators)) if i % step != truncation]
    )


def _certified_homology(complex_, truncation: int, reduced):
    """``equivariant_homology`` of the already built truncation-K complex;
    the K - 1 subcomplex repeats its blocks, so both share ``reduced``."""
    result = homology(complex_, reduced=reduced)
    stable = 2 * truncation - 2
    if truncation >= 2:
        smaller = homology(_lower_truncation(complex_, truncation), reduced=reduced)
        cutoff = 2 * (truncation - 1) - 2
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

    The data is validated once; the truncation-K complex and the EGH
    complex are each built and checked once.
    """
    _check_truncation(data, truncation)
    _require_valid(data)
    complex_ = _tower(data, truncation)
    gens = complex_.generators
    # the U^0 check generator of each good orbit: check keys are even, so
    # its index keys[key] * (K + 1) is a multiple of 2K + 2
    u0 = {
        k: gens[k].orbit for k in range(0, len(gens), 2 * truncation + 2)
        if data.orbit(gens[k].orbit).good
    }
    steps = []

    # (i) everything else is a subcomplex
    leaks = [
        (gens[j].gid, gens[i].gid)
        for (i, j), _val in complex_.differential.entries.items()
        if j not in u0 and i in u0
    ]
    steps.append(
        CompareStep(
            "complement of U^0 good check generators is a subcomplex",
            not leaks,
            "; ".join(f"{a} -> {b}" for a, b in leaks[:3]),
        )
    )

    stable = 2 * truncation - 2
    # every homology below reduces each distinct block once
    reduced = {}

    # (ii) that subcomplex is acyclic over Q in the stable range
    sub = complex_.restrict([i for i in range(len(gens)) if i not in u0])
    bad_degrees = {
        g for (_cls, g) in homology(sub, reduced=reduced).rationalize()
        if g <= stable
    }
    steps.append(
        CompareStep(
            "subcomplex is rationally acyclic in the stable range",
            not bad_degrees,
            ", ".join(map(str, sorted(bad_degrees)[:4])),
        )
    )

    # (iii) the quotient differential is the cylindrical one: both read as
    # <d a, b> per pair of good orbits, listed in the EGH generator order
    egh = _egh_complex(data)
    quotient = {
        (u0[j], u0[i]): v
        for (i, j), v in complex_.differential.entries.items()
        if i in u0 and j in u0
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
    steps.append(
        CompareStep(
            "quotient differential equals the cylindrical differential",
            not mismatches,
            "; ".join(mismatches[:3]),
        )
    )

    # (iv) rationalised equivariant homology matches cylindrical ranks
    hom, stable = _certified_homology(complex_, truncation, reduced)
    left = {
        k: v for k, v in hom.rationalize().items() if k[1] <= stable
    }
    right = {
        k: v
        for k, v in homology(egh, reduced=reduced).rationalize().items()
        if k[1] <= stable
    }
    steps.append(
        CompareStep(
            "rationalised equivariant homology equals cylindrical homology",
            left == right,
            "" if left == right else f"{left} != {right}",
        )
    )
    return CompareReport(tuple(steps), stable)
