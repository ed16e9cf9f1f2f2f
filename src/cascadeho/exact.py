"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision ``int`` and ``fractions.Fraction``
only; no floating point is used anywhere.  Homology of finitely generated
chain complexes over Z, torsion included, comes from the ranks and invariant
factors of the differential's blocks (``invariant_factors``, which builds no
transforms), each rank cross-checked over F_p (``rank_mod``).
``smith_normal_form`` runs the same sparse elimination and gets its
unimodular transforms by replaying the elimination's own operations.

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
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional

from .errors import CascadehoError, SquareNonzero


class IntMatrix:
    """Immutable sparse integer matrix.

    Entries are stored as a dict mapping (row, col) to a nonzero int.
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
                if v:
                    cleaned[(i, j)] = int(v)
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
                if v:
                    entries[(i, j)] = int(v)
        return cls(len(data), ncols, entries)

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def diagonal(self):
        n = min(self.rows, self.cols)
        return [self.get(i, i) for i in range(n)]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # index other's entries by row; accumulate one dict per product row
        by_row = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        rows = {}
        for (i, k), a in self.entries.items():
            terms = by_row.get(k)
            if terms:
                acc = rows.get(i)
                if acc is None:
                    acc = rows[i] = {}
                for j, b in terms:
                    acc[j] = acc.get(j, 0) + a * b
        return IntMatrix._trusted(self.rows, other.cols, {
            (i, j): v for i, acc in rows.items() for j, v in acc.items() if v
        })

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

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


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
    empties it (the pivot is final) or leaves a smaller pivot.  Any choice
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
    """
    pivots = {}  # leading column -> row scaled to a leading 1
    rows = {}
    for (i, j), v in m.entries.items():
        if v % p:
            rows.setdefault(i, {})[j] = v % p
    for row in rows.values():
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in prow.items():
                new = (row.get(j, 0) - f * v) % p
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
    # d o d = 0 is known: set by verify_square_zero and for a restriction
    # closed under d, never by the constructor, so a rebuilt copy is unknown
    _square_zero: bool = field(default=False, init=False, repr=False, compare=False)
    # a restriction remembers the complex it was read off (never itself a
    # restriction) and the indices it kept there
    _parent: Optional["ChainComplex"] = field(
        default=None, init=False, repr=False, compare=False)
    _kept: tuple = field(default=(), init=False, repr=False, compare=False)
    # homology's split of d into (class, grading) blocks, made once
    _split: Optional["_Split"] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.generators)
        if self.differential.rows != n or self.differential.cols != n:
            raise ValueError("differential shape does not match generators")
        if self.grading_modulus and (
            self.grading_modulus < 2 or self.grading_modulus % 2
        ):
            raise ValueError("grading modulus must be 0 or an even integer >= 2")

    def __getattr__(self, name):
        # only a restriction lacks a field: its generators and differential
        # are read off its parent when first asked for
        parent = self._parent
        if parent is None or name not in ("generators", "differential"):
            raise AttributeError(name)
        kept = self._kept
        if name == "generators":
            value = tuple(map(parent.generators.__getitem__, kept))
        else:
            remap = dict(zip(kept, range(len(kept))))
            value = IntMatrix._trusted(len(kept), len(kept), {
                (remap[i], remap[j]): v
                for (i, j), v in parent.differential.entries.items()
                if i in remap and j in remap
            })
        object.__setattr__(self, name, value)
        return value

    def degree_key(self, grading: int):
        return grading % self.grading_modulus if self.grading_modulus else grading

    def restrict(self, kept) -> "ChainComplex":
        """The generators at the increasing indices ``kept`` with the entries
        among them: a subcomplex when d maps their span into itself.

        The restriction remembers the complex it is read off and the kept
        indices there, and builds its generators and differential only when
        they are asked for: ``homology`` reads its blocks off the split of
        that complex.  A restriction closed under d of a complex known to
        square to zero is known to as well (its d o d is the restriction of
        d o d); any other restriction is checked again by ``homology``.
        """
        sub = object.__new__(ChainComplex)
        object.__setattr__(sub, "grading_modulus", self.grading_modulus)
        if self._parent is None:
            object.__setattr__(sub, "_parent", self)
            object.__setattr__(sub, "_kept", tuple(kept))
        else:
            object.__setattr__(sub, "_parent", self._parent)
            object.__setattr__(sub, "_kept", tuple(map(self._kept.__getitem__, kept)))
        return sub

    def check_structure(self):
        """Structural sanity: grading drop 1, class preserved, action drops.

        Returns a list of human-readable violation strings (empty if clean).
        Actions are compared as integers: each times the lcm of their
        denominators, so they compare as the actions do.
        """
        out = []
        gens = self.generators
        scale = lcm(*(g.action.denominator for g in gens))
        action = [g.action.numerator * (scale // g.action.denominator)
                  for g in gens]
        for (i, j), val in sorted(self.differential.entries.items()):
            src, tgt = gens[j], gens[i]
            dg = src.grading - 1 - tgt.grading
            if self.grading_modulus:
                dg %= self.grading_modulus
            if dg != 0:
                out.append(f"grading: <d {src.gid}, {tgt.gid}> = {val}")
            if src.homotopy_class != tgt.homotopy_class:
                out.append(f"class: <d {src.gid}, {tgt.gid}> = {val}")
            same_orbit = src.orbit and src.orbit == tgt.orbit
            if not same_orbit and not action[i] < action[j]:
                out.append(f"action: <d {src.gid}, {tgt.gid}> = {val}")
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
        """Sorted human-readable lines like 'c | 2: Z^2 + Z/3'."""
        lines = []
        for (cls, grading), (free, tors) in sorted(
            self.groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            parts = []
            if free == 1:
                parts.append("Z")
            elif free:
                parts.append(f"Z^{free}")
            parts.extend(f"Z/{t}" for t in tors)
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


class _Split:
    """A complex's differential split into (class, grading) blocks.

    Block b holds the ``size[b]`` generators of the pair ``keys[b]``: for a
    complex read off no other, the increasing indices ``members[b]``.  A
    generator's local index is its place among its block's generators.
    ``entries[b]`` is the block of d leaving block b, into block
    ``below[b]``, in local indices, and ``memo[b]`` its memo key (rows,
    cols, frozenset of its entries), None when it has no entry.  ``stray``
    lists (i, j, message) for each entry of d in no block, in d's order,
    with i and j indices in the complex read off no other.
    """

    __slots__ = ("keys", "members", "size", "below", "entries", "memo", "stray")

    def __init__(self, keys, members, size, below, entries, stray, parent=None):
        """Block b keeps the memo key of ``parent`` (a split) wherever
        ``entries[b]`` is the parent's own block."""
        self.keys, self.members, self.size = keys, members, size
        self.below, self.entries, self.stray = below, entries, stray
        self.memo = [
            parent.memo[b] if parent is not None and block is parent.entries[b]
            else (size[b_below], size[b], frozenset(block.items())) if block
            else None
            for b, (b_below, block) in enumerate(zip(below, entries))
        ]


def _split_complex(complex_: ChainComplex) -> _Split:
    """Split ``complex_`` from its generators and entries."""
    gens = complex_.generators
    modulus = complex_.grading_modulus
    # number the (class, grading) pairs and give every generator its block
    # and its index inside it
    ids = {}
    members = []
    block_of = []
    local = []
    for i, g in enumerate(gens):
        key = (g.homotopy_class, g.grading % modulus if modulus else g.grading)
        b = ids.get(key)
        if b is None:
            b = ids[key] = len(members)
            members.append([])
        m = members[b]
        block_of.append(b)
        local.append(len(m))
        m.append(i)

    # the block of d leaving each (class, grading), into the grading below
    degree_key = complex_.degree_key
    below = [ids.get((cls, degree_key(deg - 1))) for cls, deg in ids]
    entries = [{} for _ in members]
    stray = []
    for (i, j), v in complex_.differential.entries.items():
        b = block_of[j]
        if block_of[i] != below[b]:
            stray.append((i, j, f"<d {gens[j].gid}, {gens[i].gid}> = {v} does "
                                "not lower the grading by 1 within one class"))
        else:
            entries[b][(local[i], local[j])] = v
    return _Split(list(ids), members, [len(m) for m in members], below,
                  entries, stray)


def _restricted_split(parent: _Split, n: int, kept):
    """The split of the restriction of a complex on ``n`` generators, split
    as ``parent``, to the increasing indices ``kept``, and whether that
    restriction is closed under d.

    Only the blocks that lost a generator are renumbered, and only the
    blocks of d leaving or entering one of them are rebuilt and re-keyed;
    every other block keeps its entries and its memo key.  A block that
    lost every generator stays, empty.
    """
    dropped = set(range(n)).difference(kept)
    size = list(parent.size)
    renumber = {}  # block -> {old local index: new local index}
    for b, members in enumerate(parent.members):
        if not dropped.isdisjoint(members):
            places = [k for k, i in enumerate(members) if i not in dropped]
            renumber[b] = dict(zip(places, range(len(places))))
            size[b] = len(places)
    entries = list(parent.entries)
    closed = True
    for b, block in enumerate(entries):
        below = parent.below[b]
        cols, rows = renumber.get(b), renumber.get(below)
        if block and (cols is not None or rows is not None):
            if cols is None:
                cols = dict(zip(range(size[b]), range(size[b])))
            if rows is None:
                rows = dict(zip(range(size[below]), range(size[below])))
            entries[b] = {}
            for (i, j), v in block.items():
                if j in cols:
                    if i in rows:
                        entries[b][(rows[i], cols[j])] = v
                    else:
                        closed = False
    stray = []
    for i, j, text in parent.stray:
        if j not in dropped:
            if i in dropped:
                closed = False
            else:
                stray.append((i, j, text))
    split = _Split(parent.keys, None, size, parent.below, entries, stray, parent)
    return split, closed


def _split_of(complex_: ChainComplex) -> _Split:
    """The split of ``complex_``, made once: a restriction's is read off
    the split of the complex it was restricted from."""
    split = complex_._split
    if split is None:
        parent = complex_._parent
        if parent is None:
            split = _split_complex(complex_)
        else:
            split, closed = _restricted_split(
                _split_of(parent), len(parent.generators), complex_._kept)
            if closed and parent._square_zero:
                object.__setattr__(complex_, "_square_zero", True)
        object.__setattr__(complex_, "_split", split)
    return split


def homology(complex_: ChainComplex, *, reduced=None) -> HomologyResult:
    """Integral homology of the complex, split by (class, grading).

    H_k = Z^(n_k - rank d_k - rank d_(k+1)) + (invariant factors > 1 of
    d_(k+1)): the torsion of ker d_k / im d_(k+1) is that of coker d_(k+1),
    because C_k / ker d_k is free.  Each distinct nonzero block d_k is
    reduced once: ``reduced`` maps a block's (rows, cols, frozenset of its
    entries) to its (rank, torsion).  Pass one dict to several calls to
    share the reductions of blocks they have in common; a fresh one is made
    per call by default.

    A complex is split into blocks once, and the split is kept.  A
    restriction (``ChainComplex.restrict``) is split from the split of the
    complex it was read off: only the blocks that lost a generator are
    rebuilt and re-keyed.

    Raises SquareNonzero unless d o d = 0.  The product is skipped only for
    a complex already known to square to zero: one that passed
    ``verify_square_zero``, as every complex a checking builder returns has
    (``autonomous._tower``, ``autonomous._egh_complex``,
    ``cascades.assemble_complex``), or a restriction
    of one that is closed under d.  A hand-built complex, a restriction
    that is not closed, or a rebuilt copy is multiplied out here.

    Raises CascadehoError, naming both generators, for an entry of d that
    does not lower the grading by 1 within one class: such an entry lies in
    no block, and ``check_structure`` reports it too.
    """
    if reduced is None:
        reduced = {}
    split = _split_of(complex_)
    if not complex_._square_zero:
        verify_square_zero(complex_)
    if split.stray:
        raise CascadehoError(split.stray[0][2])

    out_of = {}
    for key, block, memo in zip(split.keys, split.entries, split.memo):
        if memo is not None:
            result = reduced.get(memo)
            if result is None:
                result = reduced[memo] = _reduce_block(
                    IntMatrix._trusted(memo[0], memo[1], block)
                )
            out_of[key] = result

    degree_key = complex_.degree_key
    groups = {}
    for key, n in sorted(zip(split.keys, split.size)):
        if n:
            cls, deg = key
            rank_in, tors = out_of.get((cls, degree_key(deg + 1)), (0, ()))
            free = n - out_of.get(key, (0, ()))[0] - rank_in
            if free or tors:
                groups[key] = (free, tors)
    return HomologyResult(groups, complex_.grading_modulus)
