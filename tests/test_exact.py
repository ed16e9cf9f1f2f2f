import contextlib
import io
import math
import random
import signal
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadeho import exact, serialize
from cascadeho.errors import CascadehoError, SquareNonzero
from cascadeho.exact import (
    ChainComplex,
    ChainGenerator,
    HomologyResult,
    IntMatrix,
    homology,
    invariant_factors,
    product_sum,
    rank_mod,
    smith_normal_form,
    smith_with_inverse,
    verify_square_zero,
)
from benchdocs import workloads


# --- independent oracles ----------------------------------------------------


def det_leibniz(rows):
    """Determinant straight from the Leibniz formula (oracle-grade only)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


def oracle_invariant_factors(rows, nrows, ncols):
    """Invariant factors via gcd-of-minors determinantal divisors."""
    divisors = [1]
    for size in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, det_leibniz(sub))
        divisors.append(g)
    factors = []
    for i in range(1, len(divisors)):
        if divisors[i] == 0:
            break
        factors.append(divisors[i] // divisors[i - 1])
    return factors


def to_rows(m):
    """``m`` as a dense list of rows."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def rational_rank(m):
    """Rank of ``m`` over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in to_rows(m)]
    rank = 0
    col = 0
    while rank < m.rows and col < m.cols:
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        for i in range(rank + 1, m.rows):
            if a[i][col]:
                f = a[i][col] / pr[col]
                for j in range(col, m.cols):
                    a[i][j] -= f * pr[j]
        rank += 1
        col += 1
    return rank


# --- IntMatrix basics -------------------------------------------------------


def test_matrix_multiply_and_identity():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    i = IntMatrix.identity(2)
    assert a * i == a
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert to_rows(a * b) == [[2, 1], [4, 3]]


# entries of a product_sum term: mostly zero or small, some as wide as 10^30
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**30, 10**30))


@st.composite
def product_terms(draw):
    """(n, p, terms): 1-3 terms (sign, A, B) of dense rows, A n x m and B
    m x p with m drawn per term, any size 0-4; a term may repeat an earlier
    one with the other sign, so that the two cancel exactly."""
    n, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if terms and draw(st.booleans()):
            sign, a, b = draw(st.sampled_from(terms))
            terms.append((-sign, a, b))
            continue
        m = draw(st.integers(0, 4))
        a = [[draw(_ENTRY) for _ in range(m)] for _ in range(n)]
        b = [[draw(_ENTRY) for _ in range(p)] for _ in range(m)]
        terms.append((draw(st.sampled_from([1, -1])), a, b))
    return n, p, terms


def dense_product_sum(n, p, terms):
    """The sum of sign * A * B by the triple loop of the definition."""
    out = [[0] * p for _ in range(n)]
    for sign, a, b in terms:
        for i in range(n):
            for j in range(p):
                out[i][j] += sign * sum(a[i][k] * b[k][j] for k in range(len(b)))
    return out


def entry_dict(rows):
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


@settings(max_examples=200, deadline=None)
@given(product_terms())
@example((1, 1, [(1, [[1, 1]], [[1], [-1]])]))
@example((1, 1, [(1, [[10**30]], [[-10**30]]), (-1, [[10**30]], [[-10**30]])]))
@example((2, 0, [(-1, [[], []], [])]))
def test_product_sum_matches_the_dense_triple_loop(case):
    n, p, terms = case
    got = product_sum(*((sign, entry_dict(a), entry_dict(b)) for sign, a, b in terms))
    assert got == entry_dict(dense_product_sum(n, p, terms))
    assert all(got.values())


def test_matrix_rejects_out_of_range():
    with pytest.raises(IndexError):
        IntMatrix(2, 2, {(2, 0): 1})


@pytest.mark.parametrize("value", [2.5, 2.0, 0.0, True, False, Fraction(4, 2), "3"],
                         ids=repr)
def test_matrix_rejects_entries_that_are_not_ints(value):
    # exact or fail loudly: a float, bool or Fraction is never rounded or
    # cast, even when its value is integral or zero
    with pytest.raises(TypeError, match=r"entry \(0, 1\)"):
        IntMatrix(1, 2, {(0, 0): 1, (0, 1): value})
    with pytest.raises(TypeError, match=r"entry \(0, 1\)"):
        IntMatrix.from_rows([[1, value]])
    assert IntMatrix.from_rows([[0, -3]]).entries == {(0, 1): -3}
    assert invariant_factors(IntMatrix.from_rows([[3, 0], [0, 2]])) == [1, 6]


# --- Smith normal form ------------------------------------------------------


def check_snf(m):
    u, s, v, vinv = smith_with_inverse(m)
    # factorisation holds
    assert u * m * v == s
    # transforms are unimodular
    if m.rows:
        assert abs(det_leibniz(to_rows(u))) == 1
    if m.cols:
        assert abs(det_leibniz(to_rows(v))) == 1
        assert v * vinv == IntMatrix.identity(m.cols)
    # diagonal, non-negative, divisibility chain
    diag = s.diagonal()
    for (i, j), _ in s.entries.items():
        assert i == j
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # trailing zeros only
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    return nonzero


def test_snf_known_example():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert check_snf(m) == [2, 2, 156]


def test_snf_zero_and_empty():
    assert check_snf(IntMatrix.zero(3, 2)) == []
    u, s, v = smith_normal_form(IntMatrix.zero(0, 4))
    assert s.rows == 0 and s.cols == 4


def test_snf_against_minor_oracle_corpus():
    """Acceptance-grade oracle sweep lives in test_acceptance; this is a
    quick smoke over a fixed corpus including degenerate shapes."""
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        m = IntMatrix.from_rows(rows)
        got = check_snf(m)
        assert got == oracle_invariant_factors(rows, nr, nc)
        assert invariant_factors(m) == got


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_properties(rows):
    m = IntMatrix.from_rows(rows)
    factors = check_snf(m)
    assert len(factors) == rational_rank(m)


def test_snf_transforms_on_sparse_torsion_matrices():
    # det_leibniz stops scaling near 6x6, so sympy's det is the unimodularity
    # oracle for blocks up to 16x16
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    values = (1, -1, 2, -2, 3, 4, -6)
    for _ in range(40):
        nr, nc = rng.randint(1, 16), rng.randint(1, 16)
        density = rng.choice((0.1, 0.25, 0.5))
        rows = [
            [rng.choice(values) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        m = IntMatrix.from_rows(rows)
        u, s, v, vinv = smith_with_inverse(m)
        assert abs(sympy.Matrix(to_rows(u)).det()) == 1
        assert abs(sympy.Matrix(to_rows(v)).det()) == 1
        assert v * vinv == IntMatrix.identity(nc)
        assert u * m * v == s
        assert all(i == j for i, j in s.entries)
        assert [d for d in s.diagonal() if d] == invariant_factors(m)


def test_rational_rank():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rational_rank(m) == 2
    assert rational_rank(IntMatrix.zero(3, 3)) == 0
    # the package's rank over Q counts invariant factors
    assert exact.rational_rank(m) == 2
    assert exact.rational_rank(IntMatrix.zero(3, 3)) == 0


# --- homology ---------------------------------------------------------------


def cc(gen_specs, diff_entries, modulus=0):
    gens = tuple(
        ChainGenerator(gid, grading, cls, Fraction(act), orbit)
        for gid, grading, cls, act, orbit in gen_specs
    )
    index = {g.gid: k for k, g in enumerate(gens)}
    entries = {
        (index[tgt], index[src]): val for (src, tgt), val in diff_entries.items()
    }
    d = IntMatrix(len(gens), len(gens), entries)
    return ChainComplex(gens, d, modulus)


def test_homology_single_torsion():
    # d(a) = d * b  ->  H_0 = Z/d, H_1 = 0
    for d in (1, 2, 5):
        c = cc(
            [("a", 1, "", 2, "A"), ("b", 0, "", 1, "B")],
            {("a", "b"): d},
        )
        h = homology(c)
        if d == 1:
            assert h.group("", 0) == (0, ())
        else:
            assert h.group("", 0) == (0, (d,))
        assert h.group("", 1) == (0, ())


def test_homology_two_step_with_odd_coefficient():
    # w -> y -> v with <d y, v> forced zero gives free classes; here instead:
    # d(h) = -2x + 3y, everything else closed: H_2 = Z, H_1 = Z.
    c = cc(
        [
            ("h", 2, "", 3, "H"),
            ("x", 1, "", 2, "X"),
            ("y", 1, "", 1, "Y"),
        ],
        {("h", "x"): -2, ("h", "y"): 3},
    )
    h = homology(c)
    assert h.group("", 1) == (1, ())
    assert h.group("", 2) == (0, ())


def test_homology_rank_cross_check_raises(monkeypatch):
    # the invariant factors are checked against the rank mod p with an
    # explicit error, so the check survives python -O
    c = cc(
        [("a", 1, "", 2, "A"), ("b", 0, "", 1, "B")],
        {("a", "b"): 2},
    )
    monkeypatch.setattr(
        "cascadeho.exact.rank_mod", lambda m, p: rank_mod(m, p) + 1
    )
    with pytest.raises(CascadehoError, match="rank cross-check"):
        homology(c)


def test_homology_even_coefficient_leaves_torsion():
    c = cc(
        [
            ("h", 2, "", 3, "H"),
            ("x", 1, "", 2, "X"),
            ("y", 1, "", 1, "Y"),
        ],
        {("h", "x"): -2, ("h", "y"): 2},
    )
    h = homology(c)
    assert h.group("", 1) == (1, (2,))


def test_homology_splits_classes():
    c = cc(
        [("a", 1, "u", 2, "A"), ("b", 0, "u", 1, "B"), ("c", 0, "w", 1, "C")],
        {("a", "b"): 3},
    )
    h = homology(c)
    assert h.group("u", 0) == (0, (3,))
    assert h.group("w", 0) == (1, ())
    assert h.rationalize() == {("w", 0): 1}


def test_homology_mod_n_grading():
    # Z/4-graded loop: a in degree 3, b in degree 0 behaves like degree -1+4
    c = cc(
        [("a", 0, "", 2, "A"), ("b", 3, "", 1, "B")],
        {("a", "b"): 2},
        modulus=4,
    )
    h = homology(c)
    assert h.group("", 3) == (0, (2,))
    assert h.group("", 0) == (0, ())
    assert h.group("", 4) == (0, ())  # wraps mod 4


def test_square_nonzero_witness():
    c = cc(
        [("a", 2, "", 3, "A"), ("b", 1, "", 2, "B"), ("c", 0, "", 1, "C")],
        {("a", "b"): 1, ("b", "c"): 1},
    )
    with pytest.raises(SquareNonzero) as err:
        homology(c)
    assert err.value.source == "a" and err.value.target == "c"
    ok = cc(
        [("a", 2, "", 3, "A"), ("b", 1, "", 2, "B"), ("c", 0, "", 1, "C")],
        {("a", "b"): 1},
    )
    verify_square_zero(ok)


def count_products(monkeypatch):
    """A list that gains one item per IntMatrix product."""
    calls = []
    original = IntMatrix.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    return calls


def diamond():
    """d a = b + b', d b = c, d b' = -c: d^2 = 0, but not on {a, b, c}."""
    return cc(
        [("a", 2, "", 4, "A"), ("b", 1, "", 3, "B"), ("b'", 1, "", 2, "B'"),
         ("c", 0, "", 1, "C")],
        {("a", "b"): 1, ("a", "b'"): 1, ("b", "c"): 1, ("b'", "c"): -1},
    )


def test_homology_checks_what_no_builder_checked(monkeypatch):
    products = count_products(monkeypatch)
    checked = diamond()
    homology(checked)  # hand-built: multiplied out here
    assert len(products) == 1
    homology(checked)  # now known to square to zero
    assert len(products) == 1
    # a rebuilt copy is not known to
    homology(ChainComplex(checked.generators, checked.differential))
    assert len(products) == 2
    # a restriction is a copy: checked again, even one closed under d
    assert homology(checked.restrict([1, 2, 3])).group("", 1) == (1, ())
    assert len(products) == 3
    # {a, b, c} drops b' from d a, and d^2 a = c there
    with pytest.raises(SquareNonzero) as err:
        homology(checked.restrict([0, 1, 3]))
    assert (err.value.source, err.value.target, err.value.value) == ("a", "c", 1)
    assert len(products) == 4
    # a hand-built complex with d^2 != 0 still raises
    with pytest.raises(SquareNonzero):
        homology(cc(
            [("a", 2, "", 3, "A"), ("b", 1, "", 2, "B"), ("c", 0, "", 1, "C")],
            {("a", "b"): 1, ("b", "c"): 1},
        ))


def test_the_guarantee_is_no_constructor_argument():
    c = diamond()
    verify_square_zero(c)
    with pytest.raises(TypeError):
        ChainComplex(c.generators, c.differential, 0, True)
    assert c == ChainComplex(c.generators, c.differential)  # not compared
    assert "square" not in repr(c)


def test_check_structure_flags_bad_entries():
    c = cc(
        [("a", 2, "u", 3, "A"), ("b", 0, "w", 4, "B")],
        {("a", "b"): 1},
    )
    problems = c.check_structure()
    assert any("grading" in p for p in problems)
    assert any("class" in p for p in problems)
    assert any("action" in p for p in problems)

def sorted_check_structure(complex_):
    """``check_structure`` as a sort of every entry: each entry's grading,
    class and action tests in entry order, formatted as it is tested."""
    out = []
    gens = complex_.generators
    scale = math.lcm(*(g.action.denominator for g in gens))
    action = [g.action.numerator * (scale // g.action.denominator) for g in gens]
    for (i, j), val in sorted(complex_.differential.entries.items()):
        src, tgt = gens[j], gens[i]
        dg = src.grading - 1 - tgt.grading
        if complex_.grading_modulus:
            dg %= complex_.grading_modulus
        if dg != 0:
            out.append(f"grading: <d {src.gid}, {tgt.gid}> = {val}")
        if src.homotopy_class != tgt.homotopy_class:
            out.append(f"class: <d {src.gid}, {tgt.gid}> = {val}")
        same_orbit = src.orbit and src.orbit == tgt.orbit
        if not same_orbit and not action[i] < action[j]:
            out.append(f"action: <d {src.gid}, {tgt.gid}> = {val}")
    return out


def _corrupted_complex(rng):
    """A complex on 2-9 generators whose entries, inserted in a random
    order, break the grading drop, the class or the action drop (one or
    several of them), or, one time in five, none."""
    n = rng.randrange(2, 10)
    modulus = rng.choice((0, 0, 2, 4))
    if rng.random() < 0.2:  # d g_j = sum of multiples of g_(j+1)
        gens = tuple(ChainGenerator(f"g{k}", -k, "", Fraction(n - k, 2))
                     for k in range(n))
        entries = {(j + 1, j): rng.choice((-1, 2)) for j in range(n - 1)}
        return ChainComplex(gens, IntMatrix._trusted(n, n, entries), modulus)
    gens = tuple(
        ChainGenerator(f"g{k}", rng.randrange(-2, 4), rng.choice(("", "", "u")),
                       Fraction(rng.randrange(-6, 12), rng.choice((1, 2, 3))),
                       rng.choice(("", "A", "B", "C")))
        for k in range(n))
    slots = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(slots)
    entries = {slot: rng.choice((-2, -1, 1, 3)) for slot in slots[:rng.randrange(1, 12)]}
    return ChainComplex(gens, IntMatrix._trusted(n, n, entries), modulus)


def test_check_structure_matches_the_sorted_scan():
    # check_structure tests each entry as it is stored and sorts only the
    # failing ones; a scan of every entry in sorted order gives the same list
    rng = random.Random(463)
    seen = Counter()
    for _ in range(400):
        c = _corrupted_complex(rng)
        found = c.check_structure()
        assert found == sorted_check_structure(c)
        seen.update(p.split(":")[0] for p in found)
        seen["clean"] += not found
        heads = [p.split(" = ")[0].split(": ")[1] for p in found]
        seen["two breaks in one entry"] += len(heads) > len(set(heads))
        keys = list(c.differential.entries)
        seen["out of order"] += bool(found) and keys != sorted(keys)
    assert min(seen[what] for what in ("grading", "class", "action", "clean",
                                       "two breaks in one entry", "out of order")) >= 10


def test_homology_rejects_an_entry_outside_every_block():
    # d a = 5c skips grading 1: d o d = 0, and no block holds the entry, so
    # reading the blocks alone would report the homology of d = 0
    c = cc(
        [("a", 2, "", 3, "A"), ("b", 1, "", 2, "B"), ("c", 0, "", 1, "C")],
        {("a", "c"): 5},
    )
    assert c.check_structure() == ["grading: <d a, c> = 5"]
    with pytest.raises(CascadehoError, match="<d a, c> = 5"):
        homology(c)
    # an entry that keeps the grading drop but changes the class
    c = cc([("a", 1, "u", 2, "A"), ("b", 0, "w", 1, "B")], {("a", "b"): 1})
    with pytest.raises(CascadehoError, match="<d a, b> = 1"):
        homology(c)
    # the same entries inside the blocks are read as before
    c = cc(
        [("a", 2, "", 3, "A"), ("b", 1, "", 2, "B"), ("c", 0, "", 1, "C")],
        {("b", "c"): 5},
    )
    assert homology(c).groups == {("", 0): (0, (5,)), ("", 2): (1, ())}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 3))
def test_homology_random_two_term(d, extra):
    """d(a_i) = d * b_i on several pairs: torsion per pair, split cleanly."""
    specs = []
    diff = {}
    for i in range(extra + 1):
        specs.append((f"a{i}", 1, "", 2, f"A{i}"))
        specs.append((f"b{i}", 0, "", 1, f"B{i}"))
        diff[(f"a{i}", f"b{i}")] = d
    h = homology(cc(specs, diff))
    assert h.group("", 0) == (0, tuple([d] * (extra + 1)))


def test_homology_invariance_under_unimodular_change():
    """Conjugating the differential by a unimodular degree-0 change of basis
    leaves homology unchanged."""
    rng = random.Random(3)
    base = cc(
        [
            ("a1", 1, "", 4, "A1"),
            ("a2", 1, "", 3, "A2"),
            ("b1", 0, "", 2, "B1"),
            ("b2", 0, "", 1, "B2"),
        ],
        {("a1", "b1"): 2, ("a1", "b2"): 4, ("a2", "b2"): 6},
    )
    h0 = homology(base)
    for _ in range(10):
        # random unimodular 2x2 blocks acting on {a1,a2} and {b1,b2}
        def unimod():
            b, c = rng.randint(-3, 3), rng.randint(-3, 3)
            return [[1, b], [c, 1 + b * c]]  # det = 1

        p = unimod()
        q = unimod()
        top = IntMatrix.from_rows(p)
        d_old = IntMatrix.from_rows([[2, 0], [4, 6]])
        qinv = IntMatrix.from_rows([[q[1][1], -q[0][1]], [-q[1][0], q[0][0]]])
        # change of basis: d' = Q^-1 d P  (P on sources, Q on targets)
        d_new = qinv * d_old * top
        entries = {}
        for (i, j), v in d_new.entries.items():
            entries[(f"a{j+1}", f"b{i+1}")] = v
        c2 = cc(
            [
                ("a1", 1, "", 4, "A1"),
                ("a2", 1, "", 3, "A2"),
                ("b1", 0, "", 2, "B1"),
                ("b2", 0, "", 1, "B2"),
            ],
            entries,
        )
        assert homology(c2).groups == h0.groups


def test_describe_and_restrict():
    h = HomologyResult({("", 0): (2, (2,)), ("", 5): (1, ())})
    assert h.describe() == ["0: Z^2 + Z/2", "5: Z"]
    assert h.restricted(3).groups == {("", 0): (2, (2,))}


def _describe_oracle(groups):
    """``HomologyResult.describe`` as one f-string per invariant factor."""
    lines = []
    for (cls, grading), (free, tors) in sorted(groups.items()):
        parts = ["Z"] if free == 1 else [f"Z^{free}"] if free else []
        parts.extend(f"Z/{t}" for t in tors)
        label = f"{cls} | " if cls else ""
        lines.append(f"{label}{grading}: " + (" + ".join(parts) or "0"))
    return lines


# torsion as runs (factor, length): long runs of one factor, several runs of
# small factors, and factor sequences in any order
_runs = st.lists(st.tuples(st.sampled_from((2, 3, 4, 6, 12, 10**20)),
                           st.integers(1, 300)), max_size=4)
_torsion = st.one_of(
    _runs.map(lambda runs: tuple(sorted(t for t, n in runs for _ in range(n)))),
    _runs.map(lambda runs: tuple(t for t, n in runs for _ in range(n))),
    st.lists(st.integers(2, 9), max_size=12).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.tuples(st.sampled_from(("", "c", "1T")), st.integers(-3, 5)),
    st.tuples(st.integers(0, 3), _torsion), max_size=5))
@example({("", 2): (0, (2,) * 960)})
@example({("c", 0): (1, (2, 2, 4, 4, 4, 12)), ("", 1): (0, ())})
def test_describe_matches_one_term_per_factor(groups):
    assert HomologyResult(groups).describe() == _describe_oracle(groups)


# --- the transform-free kernel ----------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 2**61 - 1])
def test_rank_mod_counts_factors_prime_to_p(p):
    rng = random.Random(p % 1000)
    for _ in range(80):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        m = IntMatrix.from_rows(rows)
        factors = check_snf(m)
        assert invariant_factors(m) == factors
        assert rank_mod(m, p) == sum(1 for f in factors if f % p)
        if p > 3:
            assert rank_mod(m, p) == rational_rank(m) == exact.rational_rank(m)
    # every entry even: full rank over Q, rank 0 mod 2
    m = IntMatrix.from_rows([[2, 4], [-6, 2]])
    assert rank_mod(m, p) == (0 if p == 2 else 2)


def normalising_rank_mod(m, p):
    """Rank of ``m`` over F_p by row echelon form with every pivot row scaled
    to a leading 1 and every value a residue in [0, p): the oracle for the
    exact-quotient elimination of ``rank_mod``."""
    pivots = {}
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


@contextlib.contextmanager
def time_limit(seconds):
    # a step that leaves its entry uncleared loops for ever: fail instead
    def expire(*_args):
        raise TimeoutError(f"rank_mod ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def oracle_blocks(p):
    rng = random.Random(p % 1000 + 41)
    blocks = []
    for _ in range(80):  # small dense matrices, as in the test above
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        blocks.append(IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]))
    for _ in range(40):  # sparse blocks with the program's small entries
        nr, nc = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.3))
        blocks.append(IntMatrix(nr, nc, {
            (i, j): rng.choice((1, -1, 2, -2, 3, -3, 4, -4, 6, -6))
            for i in range(nr) for j in range(nc) if rng.random() < density}))
    wide = (p, -p, 2 * p, -3 * p, p - 1, p + 1, 1 - p, -p - 1, 2**64 + 1,
            -(2**64) - 3, 3 * 2**70 + p, 5 * p * 2**64, 1, -1, 2)
    for _ in range(40):  # multiples of p, p +- 1 and values past 2^64
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        blocks.append(IntMatrix(nr, nc, {
            (i, j): rng.choice(wide) for i in range(nr) for j in range(nc)
            if rng.random() < 0.6}))
    return blocks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1])
def test_rank_mod_matches_the_normalising_elimination(p):
    with time_limit(20):
        for m in oracle_blocks(p):
            assert rank_mod(m, p) == normalising_rank_mod(m, p), (m.entries, p)


def test_rank_mod_inverts_a_pivot_that_does_not_divide(monkeypatch):
    # pivot 2 over entries +-3 at p = 5: no exact quotient, so the factor is
    # +-3 * 2^-1 mod 5, with the inverse computed once for the pivot; the
    # unit pivots that follow divide every entry and need none
    inverses = []

    def counted_pow(*args):
        inverses.append(args)
        return pow(*args)

    monkeypatch.setattr(exact, "pow", counted_pow, raising=False)
    m = IntMatrix.from_rows([[2, 0, 0], [3, 1, 0], [3, 0, 1], [-3, 1, 1]])
    with time_limit(10):
        assert rank_mod(m, 5) == normalising_rank_mod(m, 5) == 3
    assert inverses == [(2, -1, 5)]


def test_invariant_factors_diagonal_chain():
    # a diagonal input is brought into a divisibility chain by gcd/lcm
    m = IntMatrix.from_rows([[6, 0, 0], [0, 4, 0], [0, 0, 9]])
    assert invariant_factors(m) == [1, 6, 36]
    assert invariant_factors(IntMatrix.zero(2, 3)) == []


def random_complex(rng, modulus, coefficients, bound):
    """A random complex with d^2 = 0 and entries in [-bound, bound].

    It is a direct sum of pieces Z --c--> Z (c from ``coefficients``) and
    single Z's, written in a random basis of each (class, degree): each
    change of basis e_j -> e_j + s e_i conjugates d, so d^2 stays 0.
    """
    specs = []  # (grading, class)
    diff = {}
    for _ in range(rng.randint(2, 7)):
        cls = rng.choice("uw")
        k = rng.randint(0, 3)
        if modulus:
            k %= modulus
        specs.append((k, cls))
        if rng.random() < 0.7:
            lower = (k - 1) % modulus if modulus else k - 1
            specs.append((lower, cls))
            diff[(len(specs) - 1, len(specs) - 2)] = rng.choice(coefficients)
    rows = [[diff.get((i, j), 0) for j in range(len(specs))] for i in range(len(specs))]
    n = len(specs)
    for _ in range(6 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or specs[i] != specs[j]:
            continue
        s = rng.choice((1, -1))
        new = [row[:] for row in rows]
        for row in new:
            row[j] += s * row[i]
        for col in range(n):
            new[i][col] -= s * new[j][col]
        if all(abs(x) <= bound for row in new for x in row):
            rows = new
    gens = tuple(
        ChainGenerator(f"g{k}", grading, cls, Fraction(n - k), f"O{k}")
        for k, (grading, cls) in enumerate(specs)
    )
    return ChainComplex(gens, IntMatrix.from_rows(rows), modulus)


def sympy_homology(complex_):
    """H per (class, grading) from sympy's rank and Smith normal form."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    blocks = {}
    for idx, g in enumerate(complex_.generators):
        blocks.setdefault((g.homotopy_class, g.grading), []).append(idx)
    d = complex_.differential

    def block(key):
        cls, deg = key
        below = complex_.degree_key(deg - 1)
        rows, cols = blocks.get((cls, below), []), blocks.get(key, [])
        if not rows or not cols:
            return 0, ()
        m = sympy.Matrix([[d.get(i, j) for j in cols] for i in rows])
        diag = sympy_snf(m, domain=sympy.ZZ).diagonal()
        tors = sorted(abs(int(x)) for x in diag if abs(int(x)) > 1)
        return m.rank(), tuple(tors)

    groups = {}
    for key in sorted(blocks):
        cls, deg = key
        rank_in, tors = block((cls, complex_.degree_key(deg + 1)))
        free = len(blocks[key]) - block(key)[0] - rank_in
        if free or tors:
            groups[key] = (free, tors)
    return groups


@pytest.mark.parametrize("modulus", [0, 2])
@pytest.mark.parametrize(
    "coefficients, bound", [((1, -1, 2, 3, -4), 4), ((2, -2), 2)]
)
def test_homology_matches_sympy_oracle(modulus, coefficients, bound):
    rng = random.Random(17 + modulus + bound)
    for _ in range(25):
        c = random_complex(rng, modulus, coefficients, bound)
        verify_square_zero(c)
        assert all(abs(v) <= bound for v in c.differential.entries.values())
        assert homology(c).groups == sympy_homology(c)


def test_homology_builds_no_transforms(monkeypatch):
    from cascadeho.autonomous import (
        block_differential,
        egh_homology,
        equivariant_homology,
    )
    from cascadeho.cascades import nch_homology
    from cascadeho.scenarios import fixture, fixture_names

    def refuse(*_args):
        raise AssertionError("homology built a transform")

    monkeypatch.setattr("cascadeho.exact.smith_with_inverse", refuse)
    monkeypatch.setattr("cascadeho.exact.smith_normal_form", refuse)
    checked = 0
    for name in fixture_names():
        sc = fixture(name)
        expected = sc.expected
        if sc.kind == "mbs":
            assert nch_homology(sc.payload).groups == expected["nch"]
            checked += 1
        elif sc.kind == "autonomous":
            if "nch" in expected:
                got = homology(block_differential(sc.payload)).groups
                assert got == expected["nch"]
                checked += 1
            if "egh" in expected:
                assert egh_homology(sc.payload) == expected["egh"]
                checked += 1
            if "chs1" in expected:
                top = max(deg for _cls, deg in expected["chs1"])
                result, stable = equivariant_homology(sc.payload, top // 2 + 1)
                got = {k: v for k, v in result.groups.items() if k[1] <= stable}
                assert got == expected["chs1"]
                checked += 1
    assert checked >= 8


# --- one reduction per block ---------------------------------------------------


def direct_sum(*pieces):
    """The direct sum of complexes, the k-th piece's gradings raised by 2k:
    a U-tower without its tail, whose middle blocks repeat."""
    gens, entries, offset = [], {}, 0
    for k, c in enumerate(pieces):
        gens += [
            ChainGenerator(f"{g.gid}:{k}", g.grading + 2 * k, g.homotopy_class,
                           g.action, g.orbit)
            for g in c.generators
        ]
        for (i, j), v in c.differential.entries.items():
            entries[(i + offset, j + offset)] = v
        offset += len(c.generators)
    return ChainComplex(tuple(gens), IntMatrix(offset, offset, entries))


def counting(monkeypatch, name):
    calls = []
    original = getattr(exact, name)

    def counted(m, *args):
        calls.append(m)
        return original(m, *args)

    monkeypatch.setattr(exact, name, counted)
    return calls


def record_reductions(patch):
    """A list that gains the (rows, cols, entries) of each block reduction.
    ``_reduce_block`` is patched in every package module that holds it, so
    no caller of it goes uncounted."""
    calls = []
    original = exact._reduce_block

    def recorded(m):
        calls.append((m.rows, m.cols, frozenset(m.entries.items())))
        return original(m)

    holders = [module for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "cascadeho"
               and getattr(module, "_reduce_block", None) is original]
    assert exact in holders
    for module in holders:
        patch.setattr(module, "_reduce_block", recorded)
    return calls


def bench_requests(tmp_path, *names):
    """The seed-1 requests of the named benchmark workloads, their documents
    written under ``tmp_path``."""
    outdir = tmp_path / "bench"
    outdir.mkdir(exist_ok=True)
    return [r for name in names for r in workloads.build(name, 1, str(outdir))]


def blocks(*complexes):
    """(rows, cols, entries) of each nonzero (class, grading) block of d, in
    local indices, one item per block of each complex."""
    out = []
    for c in complexes:
        keys = [(g.homotopy_class, c.degree_key(g.grading)) for g in c.generators]
        members, local = {}, []
        for k, key in enumerate(keys):
            local.append(len(members.setdefault(key, [])))
            members[key].append(k)
        split = {}
        for (i, j), v in c.differential.entries.items():
            cls, deg = keys[j]
            if keys[i] == (cls, c.degree_key(deg - 1)):
                split.setdefault((keys[i], keys[j]), {})[(local[i], local[j])] = v
        out += [
            (len(members[tgt]), len(members[src]), frozenset(entries.items()))
            for (tgt, src), entries in split.items()
        ]
    return out


def test_direct_sums_and_towers_match_sympy(monkeypatch):
    # homology reduces each nonzero block of each complex once, a repeated
    # block once per copy: the copies of a direct sum and the middle blocks
    # of a built tower
    from cascadeho.autonomous import equivariant_differential
    from cascadeho.scenarios import prequantization

    rng = random.Random(23)
    families = []
    for _ in range(12):
        c = random_complex(rng, 0, (1, -1, 2, 3, -4), 4)
        families.append([c, direct_sum(c, c, c), direct_sum(c, c)])
    data = prequantization(2, 1, 2)
    families.append([equivariant_differential(data, k) for k in (4, 3, 2)])
    reductions = record_reductions(monkeypatch)
    repeated = 0
    for family in families:
        for c in family:
            reductions.clear()
            assert homology(c).groups == sympy_homology(c)
            assert Counter(reductions) == Counter(blocks(c))
            repeated += len(set(reductions)) < len(reductions)
    assert repeated  # the families do repeat blocks


def test_near_miss_blocks_reduce_separately(monkeypatch):
    reductions = record_reductions(monkeypatch)
    a_to_b = [("a", 1, "", 3, "A"), ("b", 0, "", 1, "B")]
    plain = cc(a_to_b, {("a", "b"): 2})
    # the same entry in a taller block
    taller = cc(a_to_b + [("z", 0, "", 2, "Z")], {("a", "b"): 2})
    # the same shape with the entry changed
    changed = cc(a_to_b, {("a", "b"): 3})
    assert homology(plain).group("", 0) == (0, (2,))
    assert homology(taller).group("", 0) == (1, (2,))
    assert homology(changed).group("", 0) == (0, (3,))
    assert homology(plain).group("", 0) == (0, (2,))
    two, three = frozenset({((0, 0), 2)}), frozenset({((0, 0), 3)})
    assert reductions == [(1, 1, two), (2, 1, two), (1, 1, three), (1, 1, two)]


def test_repeated_blocks_are_cross_checked(monkeypatch):
    # every copy of a repeated block meets the F_p rank check, and a failed
    # check raises on the first copy
    c = cc([("a", 1, "", 2, "A"), ("b", 0, "", 1, "B")], {("a", "b"): 2})
    tower = direct_sum(c, c, c)
    calls = counting(monkeypatch, "rank_mod")
    assert homology(tower).groups == {("", g): (0, (2,)) for g in (0, 2, 4)}
    assert len(calls) == 3

    def broken(m, p):
        calls.append(m)
        return rank_mod(m, p) + 1

    monkeypatch.setattr(exact, "rank_mod", broken)
    calls.clear()
    with pytest.raises(CascadehoError, match="rank cross-check"):
        homology(tower)
    assert len(calls) == 1


def test_every_reduction_is_cross_checked(tmp_path, monkeypatch, capsys):
    # nch, egh, chs1 and compare on every autonomous fixture and on the
    # seed-1 benchmark documents: each invariant_factors call of a block
    # reduction, from homology or a U-tower window, is followed by one
    # rank_mod call on the same block
    from cascadeho.cli import main
    from cascadeho.scenarios import fixture, fixture_names

    calls = []
    for name in ("invariant_factors", "rank_mod"):
        original = getattr(exact, name)

        def counted(m, *args, name=name, original=original):
            calls.append((name, m))
            return original(m, *args)

        monkeypatch.setattr(exact, name, counted)
    paths = []
    for name in fixture_names():
        if fixture(name).kind == "autonomous":
            path = tmp_path / f"{name}.json"
            path.write_text(serialize.dumps(fixture(name).payload))
            paths.append(str(path))
    runs = [[command, path, *umax] for path in paths
            for command, *umax in (("nch",), ("egh",), ("chs1", "--umax", "4"),
                                   ("compare", "--umax", "4"))]
    runs += [r.argv for r in bench_requests(tmp_path, "autonomous", "mbs-lift")
             if r.argv[0] in ("nch", "egh", "chs1", "compare")]
    checked = 0
    for argv in runs:
        calls.clear()
        assert main(argv) == 0, argv
        names = [name for name, _m in calls]
        assert names == ["invariant_factors", "rank_mod"] * (len(calls) // 2), argv
        assert all(a is b for (_, a), (_, b) in zip(calls[::2], calls[1::2])), argv
        checked += len(calls) // 2
    assert checked
    capsys.readouterr()


def test_each_command_reduces_each_distinct_block_once(tmp_path, monkeypatch):
    # every command of the golden corpus, and the seed-1 autonomous and
    # mbs-lift benchmark requests, reduces no block twice; the one repeat is
    # a 1 x 1 block of autonomous-chain whose EGH complex equals one window
    # of its U-tower, which compare reduces once in each
    from cascadeho.cli import main
    from test_golden import COMMANDS, DOCUMENTS

    reductions = record_reductions(monkeypatch)
    runs = []
    for name, text in DOCUMENTS:
        path = tmp_path / name
        path.write_text(text)
        runs += [(name, [command, str(path), *options])
                 for command, *options in COMMANDS]
    runs += [(r.doc.name, r.argv)
             for r in bench_requests(tmp_path, "autonomous", "mbs-lift")]
    repeats, total = {}, 0
    for name, argv in runs:
        reductions.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        total += len(reductions)
        seen = Counter(reductions)
        extra = [(rows, cols, n - 1) for (rows, cols, _e), n in seen.items() if n > 1]
        if extra:
            repeats[(name, argv[0], *argv[2:])] = extra
    assert total
    assert repeats == {
        ("autonomous-chain.json", "compare", "--umax", k): [(1, 1, 1)] for k in ("3", "12")
    }


# --- restrictions ----------------------------------------------------------------


def materialised(c, kept):
    """The restriction of ``c`` to the increasing indices ``kept``, built
    entry by entry as a complex of its own."""
    remap = {old: new for new, old in enumerate(kept)}
    entries = {
        (remap[i], remap[j]): v for (i, j), v in c.differential.entries.items()
        if i in remap and j in remap
    }
    return ChainComplex(tuple(c.generators[k] for k in kept),
                        IntMatrix(len(kept), len(kept), entries), c.grading_modulus)


def outcome(c):
    """``homology(c)``'s groups, or the witness of the SquareNonzero it raises."""
    try:
        return homology(c).groups
    except SquareNonzero as err:
        return err.source, err.target, err.value


def restriction_cases(rng):
    """(complex, kept index lists): random complexes, the autonomous
    fixture towers at K = 3 and prequantization(200, 1, 2) at K = 60, each
    with random kept sets; the towers also with their K - 1 truncation and
    their U^0 complement."""
    from cascadeho.autonomous import equivariant_differential
    from cascadeho.scenarios import fixture, fixture_names, prequantization

    def random_kept(n, count):
        return [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(count)]

    cases = []
    for modulus in (0, 2):
        for _ in range(15):
            c = random_complex(rng, modulus, (1, -1, 2, 3, -4), 4)
            if rng.random() < 0.5:
                verify_square_zero(c)
            cases.append((c, random_kept(len(c.generators), 4)))
    towers = [(fixture(name).payload, 3) for name in fixture_names()
              if fixture(name).kind == "autonomous"]
    towers.append((prequantization(200, 1, 2), 60))
    for data, k in towers:
        tower = equivariant_differential(data, k)
        gens = tower.generators
        lower = [i for i, g in enumerate(gens) if not g.gid.endswith(f":U{k}")]
        complement = [
            i for i, g in enumerate(gens)
            if not (g.gid.startswith("check:") and g.gid.endswith(":U0")
                    and data.orbit(g.orbit).good)
        ]
        count = 1 if len(gens) > 10**4 else 3
        cases.append((tower, [lower, complement] + random_kept(len(gens), count)))
    return cases


def test_restrictions_match_materialised_copies(monkeypatch):
    # a restriction is the complex built from the kept generators alone: the
    # same generators, entries and outcome, the same blocks reduced, and
    # the same d^2 witness when it does not square to zero
    reductions = record_reductions(monkeypatch)
    rng = random.Random(31)
    raised = 0
    for c, kept_sets in restriction_cases(rng):
        for kept in kept_sets:
            copy, sub = materialised(c, kept), c.restrict(kept)
            assert sub == copy
            reductions.clear()
            expected = outcome(copy)
            from_copy = list(reductions)
            reductions.clear()
            assert outcome(sub) == expected
            assert reductions == from_copy
            # also as a restriction of a restriction
            half = sorted(rng.sample(range(len(kept)), len(kept) // 2))
            assert outcome(sub.restrict(half)) == outcome(
                materialised(c, [kept[i] for i in half]))
            raised += not isinstance(expected, dict)
    assert raised > 0


# --- the pivot rule on blocks without units -----------------------------------


# entries of no unit size that are not all multiples of one another, so the
# elimination meets remainders (a smaller pivot in the same column or row)
# and raises its pivot bound by a full scan after a unit pivot
unit_free_blocks = st.integers(1, 12).flatmap(
    lambda nr: st.integers(1, 12).flatmap(
        lambda nc: st.lists(
            st.lists(st.sampled_from((0, 0, 2, -2, 3, -3, 4, -4, 6, -6)),
                     min_size=nc, max_size=nc),
            min_size=nr, max_size=nr,
        )
    )
)


@settings(max_examples=40, deadline=None)
@given(unit_free_blocks)
# the first pivot, 2, leaves a remainder 1 in the last row; the second pivot
# is then the 2 of the middle row, the first entry within the bound, not the 1
@example([[2, 2, 0], [0, 0, 2], [2, 3, 0]])
def test_unit_free_blocks_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = IntMatrix.from_rows(rows)
    nr, nc = m.rows, m.cols
    expected = [abs(int(x)) for x in sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
                .diagonal() if x]
    assert invariant_factors(m) == sorted(expected)
    u, s, v, vinv = smith_with_inverse(m)
    assert u * m * v == s
    assert abs(sympy.Matrix(to_rows(u)).det()) == 1
    assert abs(sympy.Matrix(to_rows(v)).det()) == 1
    assert v * vinv == IntMatrix.identity(nc)
    assert [d for d in s.diagonal() if d] == invariant_factors(m)
    # the block as the only differential of a two-term complex
    gens = tuple(
        [ChainGenerator(f"c{j}", 1, "", Fraction(2), f"C{j}") for j in range(nc)]
        + [ChainGenerator(f"r{i}", 0, "", Fraction(1), f"R{i}") for i in range(nr)]
    )
    entries = {(nc + i, j): v for (i, j), v in m.entries.items()}
    c = ChainComplex(gens, IntMatrix(nr + nc, nr + nc, entries))
    assert homology(c).groups == sympy_homology(c)
