"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision ``int`` and ``fractions.Fraction``
only; no floating point is used anywhere.  Homology of finitely generated
chain complexes over Z, torsion included, comes from the ranks and invariant
factors of the differential's blocks (``invariant_factors``, which builds no
transforms), each rank cross-checked over F_p (``rank_mod``).
``smith_normal_form`` runs the same sparse elimination and gets its
unimodular transforms by replaying the elimination's own operations.
``product_sum`` is the one sparse product: ``IntMatrix.__mul__``, the
U-tower's RB + BR and the chain-map identity d.phi - phi.d all call it.

>>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> u, s, v = smith_normal_form(m)
>>> s.diagonal()
[2, 4]
>>> (u * m * v) == s
True
>>> invariant_factors(m), rank_mod(m, 2)
([2, 4], 0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import CascadehoError, SquareNonzero


class IntMatrix:
    """Immutable sparse integer matrix.

    Entries are stored as a dict mapping (row, col) to a nonzero int.  The
    constructor and ``from_rows`` raise TypeError for a value that is not
    an ``int`` (a ``bool`` or a ``Fraction`` is not), rather than round it.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        cleaned = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry {(i, j)} outside {rows}x{cols}")
                if type(v) is not int:
                    raise TypeError(f"entry {(i, j)} = {v!r} is not an int")
                if v:
                    cleaned[(i, j)] = v
        self.entries = cleaned

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "IntMatrix":
        """The matrix holding ``entries`` itself, unchecked: for callers whose
        entries are already nonzero ints inside ``rows`` x ``cols``."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(len(data), ncols, entries)

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def diagonal(self):
        n = min(self.rows, self.cols)
        return [self.get(i, i) for i in range(n)]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(self.rows, other.cols,
                                  product_sum((1, self.entries, other.entries)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, 0) + v
        return IntMatrix(self.rows, self.cols, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def product_sum(*terms) -> dict:
    """The nonzero (row, column) entries of the sum of sign * A * B over the
    terms (sign, A, B), A and B given as (row, column) entry dicts.

    The one sparse product of the package: each B is indexed by row, and
    one dict per row of the sum accumulates every term.
    """
    rows = {}
    for sign, a, b in terms:
        by_row = {}
        for (k, j), v in b.items():
            by_row.setdefault(k, []).append((j, v))
        for (i, k), x in a.items():
            row = by_row.get(k)
            if row:
                acc = rows.get(i)
                if acc is None:
                    acc = rows[i] = {}
                x *= sign
                for j, v in row:
                    acc[j] = acc.get(j, 0) + x * v
    return {(i, j): v for i, acc in rows.items() for j, v in acc.items() if v}


# ---------------------------------------------------------------------------
# Smith normal form


def _eliminate(m: IntMatrix, ops=None):
    """Sparse elimination over Z to at most one entry per row and column.

    Works on a dict per row.  The pivot is the first entry, in row order,
    whose absolute value is at most the last pivot's (at most 1 for the
    first), so unit entries cancel first.  Only when no entry is that small
    does a full scan take one of least absolute value, which then sets the
    bound: a block whose entries share one size (all +-2, say) is scanned
    once, not once per pivot.  Row operations clear the pivot's column; an
    entry the pivot does not divide leaves a smaller remainder, which
    becomes the pivot.  Once the column is clear, column operations touch
    the pivot row alone, so reducing that row modulo the pivot either
    empties it (the pivot is final) or leaves a smaller pivot; a +-1 pivot
    is final at once, with no remainder row built.  Any choice
    of pivot gives the same invariant factors; the rule only keeps entries
    and remainder steps small.

    Returns the pivots as (row, col, value).  When ``ops`` is a list, each
    row operation row[dst] -= q * row[src] is appended to it as
    ("row", dst, src, q) and each column operation col[dst] -= q * col[src]
    as ("col", dst, src, q); applied to ``m`` they leave only the pivots.
    """
    rows = {}
    cols = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    pivots = []
    bound = 1
    while rows:
        r = None
        for i, row in rows.items():
            for j, v in row.items():
                if -bound <= v <= bound:
                    r, c = i, j
                    break
            if r is not None:
                break
        else:
            # every entry exceeds the last pivot: one full scan for a least
            bound, r, c = min(
                (abs(v), i, j) for i, row in rows.items() for j, v in row.items()
            )
        while True:
            prow = rows[r]
            p = prow[c]
            for i in [i for i in cols[c] if i != r]:
                row = rows[i]
                q = row[c] // p
                if ops is not None:
                    ops.append(("row", i, r, q))
                for j, v in prow.items():
                    new = row.get(j, 0) - q * v
                    if new:
                        if j not in row:
                            cols[j].add(i)
                        row[j] = new
                    elif j in row:
                        del row[j]
                        cols[j].discard(i)
                if not row:
                    del rows[i]
                elif c in row:
                    r = i  # the remainder is a smaller pivot
                    break
            else:
                if ops is not None:
                    ops.extend(
                        ("col", j, c, v // p) for j, v in prow.items() if j != c
                    )
                if p == 1 or p == -1:
                    break  # a unit divides the whole row: nothing remains
                rest = {j: v % p for j, v in prow.items() if j != c and v % p}
                if not rest:
                    break
                prow.update(rest)
                for j in [j for j in prow if j != c and j not in rest]:
                    del prow[j]
                    cols[j].discard(r)
                c = min(rest, key=lambda j: abs(rest[j]))
        for j in rows.pop(r):
            cols[j].discard(r)
        pivots.append((r, c, p))
        bound = abs(p)
    return pivots


def _combine(a, s, b, t):
    """The sparse row s * a + t * b."""
    out = {k: s * a.get(k, 0) + t * b.get(k, 0) for k in a.keys() | b.keys()}
    return {k: v for k, v in out.items() if v}


def smith_with_inverse(m: IntMatrix):
    """SNF plus the inverse of the right transform.

    Returns (u, s, v, vinv) with u*m*v = s, u and v unimodular, s diagonal
    with non-negative entries in a divisibility chain, and vinv = v^-1.
    The transforms replay the operations ``_eliminate`` records on identity
    rows; the pivots are then moved onto the diagonal, least first, and
    each pair diag(a, b) with b % a != 0 becomes diag(gcd, lcm).
    """
    ops = []
    pivots = sorted(_eliminate(m, ops), key=lambda piv: abs(piv[2]))
    u = [{i: 1} for i in range(m.rows)]
    vt = [{j: 1} for j in range(m.cols)]  # the columns of v
    vinv = [{j: 1} for j in range(m.cols)]
    for kind, dst, src, q in ops:
        if kind == "row":
            u[dst] = _combine(u[dst], 1, u[src], -q)
        else:
            vt[dst] = _combine(vt[dst], 1, vt[src], -q)
            # v^-1 gains the inverse operation from the left
            vinv[src] = _combine(vinv[src], 1, vinv[dst], q)
    prow = [r for r, _, _ in pivots]
    pcol = [c for _, c, _ in pivots]
    u = [u[r] for r in prow + sorted(set(range(m.rows)) - set(prow))]
    pcol += sorted(set(range(m.cols)) - set(pcol))
    vt, vinv = [vt[c] for c in pcol], [vinv[c] for c in pcol]
    diag = [abs(p) for _, _, p in pivots]
    for k, (_, _, p) in enumerate(pivots):
        if p < 0:
            u[k] = {j: -x for j, x in u[k].items()}

    def mix(rows, i, j, a, b, c, d):
        # rows i and j become [[a, b], [c, d]] times rows i and j
        rows[i], rows[j] = (
            _combine(rows[i], a, rows[j], b), _combine(rows[i], c, rows[j], d)
        )

    # with xa + yb = g, s = xa/g and t = yb/g: U = [[x, y], [-b/g, a/g]]
    # and V = [[1, -t], [1, s]] take diag(a, b) to diag(g, ab/g), and
    # V^-1 = [[s, t], [-1, 1]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = gcd(a, b)
                x = pow(a // g, -1, b // g)
                y = (g - x * a) // b
                s, t = x * a // g, y * b // g
                mix(u, i, j, x, y, -b // g, a // g)
                mix(vt, i, j, 1, 1, -t, s)
                mix(vinv, i, j, s, t, -1, 1)
                diag[i], diag[j] = g, a // g * b

    def matrix(rows, transpose=False):
        return IntMatrix(len(rows), len(rows), {
            (j, i) if transpose else (i, j): v
            for i, row in enumerate(rows)
            for j, v in row.items()
        })

    snf = IntMatrix(m.rows, m.cols, {(k, k): d for k, d in enumerate(diag)})
    return matrix(u), snf, matrix(vt, transpose=True), matrix(vinv)


def smith_normal_form(m: IntMatrix):
    """Return (u, s, v) with u*m*v = s in Smith normal form."""
    u, s, v, _ = smith_with_inverse(m)
    return u, s, v


def invariant_factors(m: IntMatrix):
    """Nonzero diagonal of the SNF of ``m``, computed without transforms.

    The pivots of ``_eliminate`` form a diagonal equivalent to ``m``, which
    is brought into a divisibility chain by gcd/lcm.
    """
    units = 0
    others = []
    for _r, _c, p in _eliminate(m):
        if abs(p) == 1:
            units += 1
        else:
            others.append(abs(p))
    # diag(a, b) is equivalent to diag(gcd, lcm)
    others.sort()
    if all(b % a == 0 for a, b in zip(others, others[1:])):
        return [1] * units + others
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            g = gcd(others[i], others[j])
            if g != others[i]:
                others[i], others[j] = g, others[i] // g * others[j]
    return [1] * units + others


def rational_rank(m: IntMatrix) -> int:
    """Rank of ``m`` over Q: the number of its invariant factors."""
    return len(invariant_factors(m))


def rank_mod(m: IntMatrix, p: int) -> int:
    """Rank of ``m`` over F_p, ``p`` prime, by sparse row echelon form.

    It equals the number of invariant factors of ``m`` not divisible by p.
    Each row is reduced by the pivot rows, least leading column first
    (``min(row)``), and a row that keeps an entry becomes the pivot row of
    its leading column as it stands, leading value pc and all: rows are
    never normalised to a leading 1.  To clear an entry f by such a row,
    the factor is the exact quotient f // pc when pc divides f over Z,
    else f times pc's inverse mod p, computed once per pivot on first need.
    Every stored value is an int in (-p, p), so an entry is 0 mod p exactly
    when it is 0.  An exact step reduces a value mod p only when it leaves
    that range, so on the +-1 and +-2 blocks this program builds values
    stay word-sized, where a leading 1 would have made each one a residue
    as wide as p.  A factor from the inverse is itself such a residue, so
    that step reduces every value it makes.
    """
    pivots = {}  # leading column -> [pc, pivot row, pc^-1 mod p or None]
    rows = {}
    for (i, j), v in m.entries.items():
        if abs(v) >= p:
            v %= p
        if v:
            rows.setdefault(i, {})[j] = v
    for row in rows.values():
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = [row[c], row, None]
                break
            pc, prow, inv = pivot
            f = row[c]
            q, rem = divmod(f, pc)
            if rem:
                if inv is None:
                    inv = pivot[2] = pow(pc, -1, p)
                q = f * inv % p
                for j, v in prow.items():
                    new = (row.get(j, 0) - q * v) % p
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
                continue
            for j, v in prow.items():
                new = row.get(j, 0) - q * v
                if abs(new) >= p:
                    new %= p
                if new:
                    row[j] = new
                else:
                    row.pop(j, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# Chain complexes


class ChainGenerator(NamedTuple):
    """One basis element of a chain group."""

    gid: str
    grading: int
    homotopy_class: str = ""
    action: Fraction = Fraction(0)
    orbit: str = ""


@dataclass(frozen=True)
class ChainComplex:
    """Finitely generated complex over Z.

    ``differential`` columns are sources: entry (i, j) is the coefficient of
    generator i in d(generator j).  ``grading_modulus`` is 0 for a Z-grading
    or an even N >= 2 for a Z/N-grading (parity complexes use N = 2 with
    gradings 0/1).
    """

    generators: tuple
    differential: IntMatrix
    grading_modulus: int = 0
    # d o d = 0 is known: set by verify_square_zero alone, never by the
    # constructor, so a rebuilt copy or a restriction is unknown
    _square_zero: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.generators)
        if self.differential.rows != n or self.differential.cols != n:
            raise ValueError("differential shape does not match generators")
        if self.grading_modulus and (
            self.grading_modulus < 2 or self.grading_modulus % 2
        ):
            raise ValueError("grading modulus must be 0 or an even integer >= 2")

    def degree_key(self, grading: int):
        return grading % self.grading_modulus if self.grading_modulus else grading

    def restrict(self, kept) -> "ChainComplex":
        """The generators at the increasing indices ``kept`` with the entries
        among them: a subcomplex when d maps their span into itself.  The
        copy is not known to square to zero; ``homology`` checks it."""
        remap = {old: new for new, old in enumerate(kept)}
        entries = {(remap[i], remap[j]): v
                   for (i, j), v in self.differential.entries.items()
                   if i in remap and j in remap}
        n = len(remap)
        return ChainComplex(tuple(self.generators[k] for k in remap),
                            IntMatrix._trusted(n, n, entries), self.grading_modulus)

    def check_structure(self):
        """Structural sanity: grading drop 1, class preserved, action drops.

        Returns a list of human-readable violation strings (empty if clean),
        in entry order.  Actions are compared as integers: each times the
        lcm of their denominators, so they compare as the actions do.  Each
        entry is tested as it is stored; only the failing ones are sorted
        and formatted.
        """
        gens = self.generators
        modulus = self.grading_modulus
        ratios = [g.action.as_integer_ratio() for g in gens]
        scale = lcm(*{den for _num, den in ratios})
        action = [num * (scale // den) for num, den in ratios]
        failed = []
        for key, val in self.differential.entries.items():
            i, j = key
            src, tgt = gens[j], gens[i]
            grading = src.grading - 1 - tgt.grading
            if modulus:
                grading %= modulus
            moved = src.homotopy_class != tgt.homotopy_class
            drops = (src.orbit and src.orbit == tgt.orbit) or action[i] < action[j]
            if grading or moved or not drops:
                failed.append((key, val, (grading != 0, moved, not drops)))
        out = []
        for (i, j), val, broken in sorted(failed):
            for what, bad in zip(("grading", "class", "action"), broken):
                if bad:
                    out.append(f"{what}: <d {gens[j].gid}, {gens[i].gid}> = {val}")
        return out


def verify_square_zero(complex_: ChainComplex):
    """Raise SquareNonzero (with a witness pair) unless d o d = 0; a complex
    that passes is marked, so ``homology`` does not multiply it again."""
    sq = complex_.differential * complex_.differential
    if sq.entries:
        (i, j), val = min(sq.entries.items())
        gens = complex_.generators
        raise SquareNonzero(gens[j].gid, gens[i].gid, val)
    object.__setattr__(complex_, "_square_zero", True)


@dataclass(frozen=True)
class HomologyResult:
    """Homology groups split by (homotopy class, grading).

    ``groups`` maps (class, grading) to (free_rank, torsion) where torsion is
    a tuple of invariant factors > 1 in a divisibility chain.  Only nonzero
    groups are stored.
    """

    groups: dict = field(default_factory=dict)
    grading_modulus: int = 0

    def group(self, homotopy_class: str, grading: int):
        if self.grading_modulus:
            grading %= self.grading_modulus
        return self.groups.get((homotopy_class, grading), (0, ()))

    def rationalize(self):
        """Free ranks only — the result over Q."""
        out = {}
        for key, (free, _tors) in self.groups.items():
            if free:
                out[key] = free
        return out

    def restricted(self, max_grading: int):
        """Drop groups above ``max_grading`` (Z-graded results only)."""
        return HomologyResult(
            {k: v for k, v in self.groups.items() if k[1] <= max_grading},
            self.grading_modulus,
        )

    def describe(self):
        """Sorted human-readable lines like 'c | 2: Z^2 + Z/3'.

        Each run of equal invariant factors is written by one join of
        copies of one term; the factors of a divisibility chain come
        sorted, so (Z/2)^K is one run.
        """
        lines = []
        for (cls, grading), (free, tors) in sorted(
            self.groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            parts = []
            if free == 1:
                parts.append("Z")
            elif free:
                parts.append(f"Z^{free}")
            for t, run in groupby(tors):
                parts.append(" + ".join([f"Z/{t}"] * len(list(run))))
            label = f"{cls} | " if cls else ""
            lines.append(f"{label}{grading}: " + (" + ".join(parts) or "0"))
        return lines


# An independent check on every reduction: the rank of a block over F_p must
# equal the number of its invariant factors that p does not divide.
CHECK_PRIME = 2**61 - 1


def _reduce_block(m: IntMatrix):
    """(rank, invariant factors > 1) of one differential block."""
    factors = invariant_factors(m)
    prime_to_p = sum(1 for f in factors if f % CHECK_PRIME)
    rank_p = rank_mod(m, CHECK_PRIME)
    if prime_to_p != rank_p:
        raise CascadehoError(
            f"rank cross-check failed: {prime_to_p} invariant factors prime to "
            f"{CHECK_PRIME}, but rank mod {CHECK_PRIME} is {rank_p}"
        )
    return len(factors), tuple(f for f in factors if f > 1)


def _groups(sizes, out_of, grading_modulus: int) -> HomologyResult:
    """H_k = Z^(n_k - rank d_k - rank d_(k+1)) + (invariant factors > 1 of
    d_(k+1)) for each (class, grading) k: ``sizes`` yields each k with its
    n_k generators, and ``out_of`` maps k to the (rank, torsion) of d_k,
    the block of d leaving grading k, when it has an entry.  The torsion of
    ker d_k / im d_(k+1) is that of coker d_(k+1), because C_k / ker d_k is
    free."""
    groups = {}
    for key, n in sorted(sizes):
        if n:
            cls, deg = key
            above = deg + 1
            if grading_modulus:
                above %= grading_modulus
            rank_in, tors = out_of.get((cls, above), (0, ()))
            free = n - out_of.get(key, (0, ()))[0] - rank_in
            if free or tors:
                groups[key] = (free, tors)
    return HomologyResult(groups, grading_modulus)


def homology(complex_: ChainComplex) -> HomologyResult:
    """Integral homology of the complex, split by (class, grading).

    d is split into its (class, grading) blocks in one pass over its
    entries; each nonzero block is reduced once (``_reduce_block``, which
    cross-checks its rank over F_p), and the groups follow from the blocks'
    ranks and invariant factors (``_groups``).

    Raises SquareNonzero unless d o d = 0.  The product is skipped only for
    a complex that passed ``verify_square_zero``, as every complex a
    checking builder returns has (``autonomous.block_differential``,
    ``autonomous._egh_complex``, ``cascades.assemble_complex``).  A
    hand-built complex, a restriction, a rebuilt copy or the tower of
    ``autonomous.equivariant_differential`` is multiplied out here.

    Raises CascadehoError, naming both generators, for an entry of d that
    does not lower the grading by 1 within one class: such an entry lies in
    no block, and ``check_structure`` reports it too.
    """
    if not complex_._square_zero:
        verify_square_zero(complex_)
    gens = complex_.generators
    modulus = complex_.grading_modulus
    # number the (class, grading) pairs and give every generator its block
    # and its index inside it
    ids = {}
    size = []
    block_of = []
    local = []
    for g in gens:
        key = (g.homotopy_class, g.grading % modulus if modulus else g.grading)
        b = ids.get(key)
        if b is None:
            b = ids[key] = len(size)
            size.append(0)
        block_of.append(b)
        local.append(size[b])
        size[b] += 1

    # the block of d leaving each (class, grading), into the grading below
    degree_key = complex_.degree_key
    below = [ids.get((cls, degree_key(deg - 1))) for cls, deg in ids]
    blocks = [{} for _ in size]
    for (i, j), v in complex_.differential.entries.items():
        b = block_of[j]
        if block_of[i] != below[b]:
            raise CascadehoError(
                f"<d {gens[j].gid}, {gens[i].gid}> = {v} does not lower the "
                "grading by 1 within one class")
        blocks[b][(local[i], local[j])] = v
    out_of = {
        key: _reduce_block(IntMatrix._trusted(size[b_below], n, block))
        for key, n, b_below, block in zip(ids, size, below, blocks) if block
    }
    return _groups(zip(ids, size), out_of, modulus)
