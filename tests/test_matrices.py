import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import field_gauss_rank, random_matrix
import relmod.matrices
from relmod.matrices import ExactMatrix, _modulus, _variable_residue
from relmod.scalars import CycScalar, InexactDivision


def one(m=5):
    return CycScalar.one(m)


def rat(q, m=5):
    return CycScalar.rational(q, m)


small_matrices = st.builds(
    lambda seed, r, c: random_matrix(random.Random(seed), r, c, 5, height=4),
    st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 4))


def random_rank_matrix(rng: random.Random, rows: int, cols: int, inner: int,
                       variables: bool) -> ExactMatrix:
    """A product of rows x inner and inner x cols factors, so its rank is at
    most inner.  With variables, rows and columns are scaled by Laurent
    monomials in u, x, y, w: the rank is unchanged and every entry stays a
    field element times a monomial, which field_gauss_rank can invert."""
    m = random_matrix(rng, rows, inner, 5, height=3) @ random_matrix(rng, inner, cols, 5, height=3)
    if not variables:
        return m

    def monomial():
        out = CycScalar.one(5)
        for name in "uxyw":
            out = out * CycScalar.variable(name, 5, rng.randint(-2, 2))
        return out

    row_scale = ExactMatrix.diagonal([monomial() for _ in range(rows)], 5)
    return row_scale @ m.scale_columns([monomial() for _ in range(cols)])


class TestRank:
    def test_identity(self):
        assert ExactMatrix.identity(3, 5).rank() == 3

    def test_all_ones(self):
        assert ExactMatrix.from_rows([[one()] * 3] * 3, 5).rank() == 1

    def test_zero_matrix(self):
        assert ExactMatrix.zeros(2, 4, 5).rank() == 0

    def test_against_field_elimination_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 5)
            assert m.rank() == field_gauss_rank(m)

    @given(m=small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_rank_equals_transpose_rank(self, m):
        rows = m.to_rows()
        transpose = ExactMatrix(m.cols, m.rows, m.conductor,
                                [row[j] for j in range(m.cols) for row in rows])
        assert m.rank() == transpose.rank()

    @given(seed=st.integers(0, 10 ** 6), rows=st.integers(1, 5), cols=st.integers(1, 5),
           inner=st.integers(0, 5), variables=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rank_equals_oracle_including_deficient(self, seed, rows, cols, inner, variables):
        m = random_rank_matrix(random.Random(seed), rows, cols, inner, variables)
        assert m.rank() == field_gauss_rank(m)


def variable_residue_mod_p(name: str, conductor: int) -> CycScalar:
    p, _ = _modulus(conductor)
    return CycScalar.rational(_variable_residue(name, p), conductor)


class TestRankModPFallback:
    """Inputs on which the F_p image loses rank, so rank() must fall back to
    exact elimination."""

    def test_entry_vanishing_mod_p(self):
        x = CycScalar.variable("x", 5)
        vanishing = x - variable_residue_mod_p("x", 5)  # nonzero, but 0 in F_p
        m = ExactMatrix.diagonal([vanishing, one()], 5)
        assert m._rank_certificate() is None  # F_p rank 1, but column 0 has a pivot
        assert m.rank() == 2
        assert m._rank_and_kernel() == (2, [])
        with pytest.raises(InexactDivision):  # 1/(x - r) is not a Laurent polynomial
            m.invert()

    def test_denominator_divisible_by_p(self):
        p, _ = _modulus(5)
        tiny = rat(Fraction(1, p))
        full = ExactMatrix.from_rows([[tiny, one()], [one(), one()]], 5)
        deficient = ExactMatrix.from_rows([[tiny, tiny], [one(), one()]], 5)
        assert full._rank_certificate() is None and deficient._rank_certificate() is None
        assert full.rank() == 2
        assert deficient.rank() == 1
        with pytest.raises(ValueError, match="rank 1 < 2"):
            deficient.invert()
        rank, (kernel,) = deficient._rank_and_kernel()
        assert rank == 1
        assert not kernel[0].is_zero and kernel[1] == -kernel[0]


def proportional(a: list[CycScalar], b: list[CycScalar]) -> bool:
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def times_vector(m: ExactMatrix, v: list[CycScalar]) -> list[CycScalar]:
    return (m @ ExactMatrix(len(v), 1, m.conductor, v)).entries


class TestRankCertificate:
    """A rank deficit is certified by kernel vectors found on the columns that
    the F_p kernel names; the witness spans the same line as the one from
    eliminating the whole matrix."""

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 5), inner=st.integers(0, 5),
           variables=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_kernel_witness_matches_whole_matrix_elimination(self, seed, n, inner, variables):
        m = random_rank_matrix(random.Random(seed), n, n, inner, variables)
        rank = field_gauss_rank(m)
        got, kernel = m._rank_and_kernel()
        if rank == n:
            assert kernel == []
            return
        assert got == rank
        assert any(not x.is_zero for x in kernel[0])
        assert all(x.is_zero for x in times_vector(m, kernel[0]))
        ech, piv_cols, _ = m._bareiss()
        assert proportional(kernel[0], m._kernel_vector(ech, piv_cols))

    def test_wrong_support_mod_p_falls_back(self):
        # column 1 is t times column 0, and t vanishes mod p: the F_p kernel
        # vector of column 1 is e_1 alone, which is not an exact kernel vector
        t = CycScalar.variable("x", 5) - variable_residue_mod_p("x", 5)
        m = ExactMatrix.from_rows([[one(), t, one()], [one(), t, one()],
                                   [rat(2), t * 2, rat(2)]], 5)
        assert m._rank_certificate() is None
        assert m.rank() == 1
        rank, kernel = m._rank_and_kernel()
        assert rank == 1
        assert all(x.is_zero for x in times_vector(m, kernel[0]))
        ech, piv_cols, _ = m._bareiss()
        assert kernel == [m._kernel_vector(ech, piv_cols)] == [[-t, one(), CycScalar.zero(5)]]

    def test_vector_failing_the_product_check_is_rejected(self, monkeypatch):
        # M v = 0 is checked by a product, whatever the sub-solve returned
        m = ExactMatrix.from_rows([[one()] * 2] * 2, 5)
        monkeypatch.setattr(ExactMatrix, "_kernel_vector",
                            lambda self, ech, piv_cols: [one()] * self.cols)
        assert m._rank_certificate() is None
        assert m.rank() == 1


class TestInvert:
    def test_identity(self):
        assert ExactMatrix.identity(4, 5).invert() == ExactMatrix.identity(4, 5)

    def test_diagonal(self):
        d = ExactMatrix.diagonal([rat(2), rat(3)], 5)
        assert d.invert() == ExactMatrix.diagonal([rat(Fraction(1, 2)), rat(Fraction(1, 3))], 5)

    def test_symbolic_diagonal(self):
        d = ExactMatrix.diagonal([CycScalar.variable("d0", 5), CycScalar.variable("d1", 5)], 5)
        assert d.invert() == ExactMatrix.diagonal(
            [CycScalar.variable("d0", 5, -1), CycScalar.variable("d1", 5, -1)], 5)

    def test_singular_all_ones(self):
        m = ExactMatrix.from_rows([[one()] * 2] * 2, 5)
        with pytest.raises(ValueError, match="singular matrix: rank 1 < 2"):
            m.invert()
        assert m._rank_and_kernel() == (1, [[one(), rat(-1)]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix.zeros(2, 3, 5).invert()

    def test_inverse_outside_the_laurent_ring_is_inexact(self):
        x = CycScalar.variable("x", 5)
        with pytest.raises(InexactDivision):
            ExactMatrix.from_rows([[x, one()], [one(), x]], 5).invert()

    def test_symbolic_inverse_with_pivot_swap(self):
        x, y = CycScalar.variable("x", 5), CycScalar.variable("y", 5)
        z = CycScalar.zero(5)
        m = ExactMatrix.from_rows([[z, x, z], [y, z, z], [z, one(), x * y]], 5)
        inv = m.invert()
        assert m @ inv == ExactMatrix.identity(3, 5)

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_invert_or_kernel(self, seed, n):
        m = random_matrix(random.Random(seed), n, n, 5, height=3)
        rank, kernel = m._rank_and_kernel()
        if rank < n:
            with pytest.raises(ValueError, match=f"rank {rank} < {n}"):
                m.invert()
            assert any(not v.is_zero for v in kernel[0])
            prod = [sum((m[i, j] * kernel[0][j] for j in range(n)),
                        CycScalar.zero(5)) for i in range(n)]
            assert all(p.is_zero for p in prod)
        else:
            assert rank == n and kernel == []
            inv = m.invert()
            assert m @ inv == ExactMatrix.identity(n, 5)
            assert inv @ m == ExactMatrix.identity(n, 5)


class TestArithmetic:
    def test_matmul_shapes(self):
        a = ExactMatrix.zeros(2, 3, 5)
        b = ExactMatrix.zeros(3, 4, 5)
        assert (a @ b).rows == 2 and (a @ b).cols == 4
        with pytest.raises(ValueError):
            b @ a

    def test_scale_columns(self):
        m = ExactMatrix.identity(2, 5).scale_columns([rat(2), rat(3)])
        assert m == ExactMatrix.diagonal([rat(2), rat(3)], 5)

    def test_det_of_permutation(self):
        z = CycScalar.zero(5)
        p = ExactMatrix.from_rows([[z, one()], [one(), z]], 5)
        assert p.det() == rat(-1)


def reference_product(a: ExactMatrix, b: ExactMatrix) -> list[CycScalar]:
    """A @ B by a plain loop of CycScalar + and *, over every index."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = CycScalar.zero(a.conductor)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return out


PRODUCT_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 21)
# numerators and denominators up to 2^200, both signs
big_fractions = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))


def field_elements(m: int):
    return st.lists(st.tuples(st.integers(0, m - 1), big_fractions), min_size=1, max_size=3).map(
        lambda terms: sum((CycScalar.zeta(m, zp) * c for zp, c in terms), CycScalar.zero(m)))


@st.composite
def operands(draw, m: int, rows: int, cols: int) -> ExactMatrix:
    """A rows x cols matrix over Q(zeta_m) in which each entry is drawn as zero
    with one probability out of 0, 1/4, .., 1 (0 twice as often), so the share
    of nonzero entries falls on either side of one half."""
    zeros = draw(st.sampled_from((0, 0, 1, 2, 3, 4)))
    entries = [draw(field_elements(m)) if draw(st.integers(0, 3)) >= zeros
               else CycScalar.zero(m) for _ in range(rows * cols)]
    return ExactMatrix(rows, cols, m, entries)


@st.composite
def products(draw):
    m = draw(st.sampled_from(PRODUCT_CONDUCTORS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(operands(m, rows, inner)), draw(operands(m, inner, cols))
    if draw(st.integers(0, 3)) == 0 and (a.entries or b.entries):
        # one entry of one operand times a formal variable
        target = a if a.entries else b
        if b.entries and draw(st.booleans()):
            target = b
        k = draw(st.integers(0, len(target.entries) - 1))
        target.entries[k] = target.entries[k] * CycScalar.variable("u", m, draw(st.sampled_from([-1, 1])))
    return a, b


def _matrix(m, rows, cols, entries):
    return ExactMatrix(rows, cols, m, [CycScalar.rational(c, m) if isinstance(c, (int, Fraction))
                                       else c for c in entries])


@st.composite
def sparse_operands(draw, m: int, rows: int, cols: int) -> ExactMatrix:
    """A rows x cols matrix shaped like the E/F/K matrices of the sl(2|1)
    modules: a diagonal, a shifted diagonal or one nonzero at a drawn column
    per row, with some rows left zero.  Entries are +-1, quantum-integer-like
    sums of zeta powers, or either of these times u^+-1."""
    shape = draw(st.sampled_from(["diagonal", "shift", "one-per-row"]))
    shift = draw(st.integers(-2, 2))
    u = CycScalar.variable("u", m)
    entries = [CycScalar.zero(m)] * (rows * cols)
    for i in range(rows):
        if shape == "one-per-row":
            j = draw(st.integers(0, cols - 1)) if cols else None
        else:
            j = i + (shift if shape == "shift" else 0)
        if j is None or not 0 <= j < cols or draw(st.integers(0, 4)) == 0:
            continue
        e = draw(st.sampled_from([CycScalar.one(m), -CycScalar.one(m),
                                  CycScalar.zeta(m) + CycScalar.zeta(m, -1),
                                  CycScalar.zeta(m, 2) + 1 + CycScalar.zeta(m, -2)]))
        entries[i * cols + j] = e * draw(st.sampled_from([1, u, u ** -1]))
    return ExactMatrix(rows, cols, m, entries)


@st.composite
def sparse_products(draw):
    """Pairs with at least one E/F-shaped operand; the other is E/F-shaped
    too, or drawn as in products()."""
    m = draw(st.sampled_from((3, 5, 7, 15)))
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    a, b = draw(sparse_operands(m, rows, inner)), draw(sparse_operands(m, inner, cols))
    other = draw(st.sampled_from(["none", "left", "right"]))
    if other == "left":
        a = draw(operands(m, rows, inner))
    elif other == "right":
        b = draw(operands(m, inner, cols))
    return a, b


class TestProduct:
    """A @ B, by the packed kernel or the CycScalar loop, equals the plain
    reference loop entry by entry, in == and in str()."""

    @given(pair=products())
    @example(pair=(_matrix(2, 1, 1, [3]), _matrix(2, 1, 1, [-5])))  # the w bound is tight
    @example(pair=(_matrix(5, 1, 2, [CycScalar.zeta(5, 3)] * 2),  # powers past m - 1
                   _matrix(5, 2, 1, [CycScalar.zeta(5, 3) * 7] * 2)))
    @example(pair=(_matrix(7, 2, 2, [Fraction(1, 3), Fraction(-2, 5), 1, Fraction(7, 4)]),
                   _matrix(7, 2, 2, [Fraction(5, 9), 2, Fraction(-1, 6), Fraction(3, 11)])))
    @settings(max_examples=500, deadline=None)
    def test_product_matches_the_reference_loop(self, pair):
        a, b = pair
        got = (a @ b).entries
        want = reference_product(a, b)
        assert len(got) == len(want) == a.rows * b.cols
        for x, y in zip(got, want):
            assert x == y and str(x) == str(y), (str(x), str(y))

    @given(pair=sparse_products())
    @settings(max_examples=300, deadline=None)
    def test_sparse_product_matches_the_reference_loop(self, pair):
        a, b = pair
        got = (a @ b).entries
        want = reference_product(a, b)
        assert len(got) == len(want) == a.rows * b.cols
        for x, y in zip(got, want):
            assert x == y and str(x) == str(y), (str(x), str(y))

    def test_zero_rows_and_columns(self):
        # B's middle row and A's middle column are zero, so no term reaches
        # the middle column of the product
        z, two, u = CycScalar.zero(5), rat(2), CycScalar.variable("u", 5)
        a = ExactMatrix.from_rows([[u, z, z], [z, z, two], [z, z, z]], 5)
        b = ExactMatrix.from_rows([[z, z, u ** -1], [z, z, z], [two, z, z]], 5)
        assert (a @ b).entries == reference_product(a, b)
        assert (a @ b) == ExactMatrix.from_rows([[z, z, one()], [rat(4), z, z], [z, z, z]], 5)
        assert (b @ a).entries == reference_product(b, a)

    def test_selection_rule(self, monkeypatch):
        calls = []
        packed = relmod.matrices._packed_product

        def recording(*args):
            calls.append(args[3:])
            return packed(*args)

        monkeypatch.setattr(relmod.matrices, "_packed_product", recording)
        two, z = rat(2), CycScalar.zero(5)
        dense = ExactMatrix.from_rows([[two, z], [two, two]], 5)
        sparse = ExactMatrix.from_rows([[two, z], [z, z]], 5)
        half = ExactMatrix.from_rows([[two, z], [two, z]], 5)
        symbolic = ExactMatrix.from_rows([[two, CycScalar.variable("u", 5)], [two, two]], 5)
        for a, b, taken in ((dense, dense, True), (half, dense, True), (dense, half, True),
                            (sparse, dense, False), (dense, sparse, False),
                            (symbolic, dense, False), (dense, symbolic, False)):
            calls.clear()
            assert (a @ b).entries == reference_product(a, b)
            assert calls == ([(2, 2, 2)] if taken else [])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_scale_columns_matches_the_entrywise_loop(self, data):
        # unit, field (one term or several) and symbolic factors, on dense
        # and sparse blocks, with a formal variable in a quarter of them
        m = data.draw(st.sampled_from(PRODUCT_CONDUCTORS))
        rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        a = data.draw(operands(m, rows, cols))
        if a.entries and data.draw(st.integers(0, 3)) == 0:
            k = data.draw(st.integers(0, len(a.entries) - 1))
            a.entries[k] = a.entries[k] * CycScalar.variable("u", m)
        kind = data.draw(st.sampled_from(["ones", "field", "symbolic"]))
        if kind == "ones":
            diag = [CycScalar.one(m)] * cols
        else:
            diag = [data.draw(field_elements(m).filter(bool)) for _ in range(cols)]
            if kind == "symbolic" and diag:
                diag[0] = diag[0] * CycScalar.variable("x", m, -1)
        got = a.scale_columns(diag).entries
        want = [a[i, j] * diag[j] for i in range(a.rows) for j in range(a.cols)]
        for x, y in zip(got, want, strict=True):
            assert x == y and str(x) == str(y), (str(x), str(y))

    def test_scale_columns_packs_only_factors_of_several_terms(self, monkeypatch):
        calls = []
        packed = relmod.matrices._packed_product

        def recording(*args):
            calls.append(args[3:])
            return packed(*args)

        monkeypatch.setattr(relmod.matrices, "_packed_product", recording)
        two, z = rat(2), CycScalar.zero(5)
        several = CycScalar.zeta(5, 4)  # -1 - z5 - z5^2 - z5^3
        dense = ExactMatrix.from_rows([[two, z], [two, two]], 5)
        sparse = ExactMatrix.from_rows([[two, z], [z, z]], 5)
        wide = _matrix(5, 2, 3, [Fraction(1, 3), 2, CycScalar.zeta(5, 2), -1, 7, 1])
        for a, diag, taken in ((dense, [several, two], [(2, 1, 1)]),
                               (dense, [two, one()], []), (sparse, [several, several], []),
                               (wide, [several, rat(Fraction(-2, 3)) * several, one()],
                                [(2, 1, 1)] * 2)):
            calls.clear()
            assert a.scale_columns(diag).entries == [a[i, j] * diag[j] for i in range(a.rows)
                                                     for j in range(a.cols)]
            assert calls == taken
        assert dense.scale_columns([one(), one()]).entries == dense.entries
