import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    assert_golden,
    diagonal_matrix,
    field_gauss_rank,
    is_unread,
    perturb_block,
    planted_modularity_datum,
    perturbed_emitted_datum,
    pointed_datum,
    premetric_datum,
    random_matrix,
    su2_datum,
    zero_matrix,
)
from relmod import cli
from relmod.datum import Degree, modified_S, save_datum, scaled_block
from relmod.matrices import (ExactMatrix, ScaledBlock, _clear_mod, _gauss_jordan, _modulus,
                             _variable_residue)
from relmod.scalars import CycScalar, InexactDivision, _degree, _from_numerators, parse_scalar
from relmod.sl21 import emit_datum


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

    row_scale = diagonal_matrix([monomial() for _ in range(rows)], 5)
    return row_scale @ m.scale_columns([monomial() for _ in range(cols)])


class TestRank:
    def test_identity(self):
        assert ExactMatrix.identity(3, 5).rank() == 3

    def test_all_ones(self):
        assert ExactMatrix.from_rows([[one()] * 3] * 3, 5).rank() == 1

    def test_zero_matrix(self):
        assert zero_matrix(2, 4, 5).rank() == 0

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


class TestRankModPNextPrime:
    """Inputs on which the F_p image loses rank at the first prime, so the
    certificate does not close there and rank() takes it at the next one."""

    def test_entry_vanishing_mod_p(self):
        x = CycScalar.variable("x", 5)
        vanishing = x - variable_residue_mod_p("x", 5)  # nonzero, but 0 in F_p
        m = diagonal_matrix([vanishing, one()], 5)
        assert m._rank_certificate(*_modulus(5)) is None  # F_p rank 1, but column 0 has a pivot
        assert m._rank_certificate(*_modulus(5, 1)) == (2, [])
        assert m.rank() == 2
        assert m._rank_and_kernel() == (2, [])

    def test_denominator_divisible_by_p(self):
        p, _ = _modulus(5)
        tiny = rat(Fraction(1, p))
        full = ExactMatrix.from_rows([[tiny, one()], [one(), one()]], 5)
        deficient = ExactMatrix.from_rows([[tiny, tiny], [one(), one()]], 5)
        assert full._rank_certificate(*_modulus(5)) is None
        assert deficient._rank_certificate(*_modulus(5)) is None
        assert full.rank() == 2
        assert deficient.rank() == 1
        rank, (kernel,) = deficient._rank_and_kernel()
        assert rank == 1
        assert not kernel[0].is_zero and kernel[1] == -kernel[0]

    @staticmethod
    def primes_tried(monkeypatch, m: ExactMatrix) -> tuple[list[int], int, list]:
        """The primes rank_and_kernel tries on m, its rank and kernel vectors,
        each of which is checked by an exact product."""
        tried = []
        original = ExactMatrix._rank_certificate
        monkeypatch.setattr(ExactMatrix, "_rank_certificate",
                            lambda self, p, root: tried.append(p) or original(self, p, root))
        rank, kernel = m._rank_and_kernel()
        for vec in kernel:
            assert any(not x.is_zero for x in vec)
            assert all(x.is_zero for x in times_vector(m, vec))
        return tried, rank, kernel

    def test_failing_at_two_primes_closes_at_the_third(self, monkeypatch):
        # a = p0 p1 is 0 mod the first two primes: there column 0 of the image
        # is zero and its F_p kernel vector e_0 is no exact one
        a = rat(_modulus(5)[0] * _modulus(5, 1)[0])
        z = CycScalar.zero(5)
        m = ExactMatrix.from_rows([[a, z, a], [z, one(), one()], [a, one(), one() + a]], 5)
        tried, rank, kernel = self.primes_tried(monkeypatch, m)
        assert tried == [_modulus(5, k)[0] for k in range(3)]
        assert len(set(tried)) == 3 and all(p % 5 == 1 for p in tried)
        assert rank == field_gauss_rank(m) == 2
        assert len(kernel) == 1

    def test_emitted_datum_failing_at_two_primes_closes_at_the_third(self, monkeypatch):
        # S' row and column 1 scaled by (x - r_0)(x - r_1), r_k the residue of
        # x at the k-th prime: the rank is the unscaled S_g's, ell(ell-1)/2
        g = Degree(alpha=1)
        m = modified_S(perturbed_emitted_datum(5, primes=2), g)
        tried, rank, kernel = self.primes_tried(monkeypatch, m)
        assert tried == [_modulus(5, k)[0] for k in range(3)]
        assert rank == len(kernel) == modified_S(emit_datum(5), g).rank() == 10

    def test_unreduced_residue_vanishes_at_one_prime_only(self, monkeypatch):
        # x's residue at p0 is r_0 = H mod (p0 - 1) + 1 for a 64-bit hash H, so
        # r_0 = H + q + 1 - q p0 with q = H // (p0 - 1) < 9.  If H were one
        # hash for every prime, the unreduced c = r_0 + q p0 = H + q + 1 would
        # be x's residue mod every prime in the run where q stays fixed, and
        # x - c would vanish at each of them.
        r0 = _variable_residue("x", _modulus(5)[0])
        for q in range(9):
            c = r0 + q * _modulus(5)[0]
            assert all(c % p != _variable_residue("x", p)
                       for p in (_modulus(5, k)[0] for k in range(1, 6)))
            m = diagonal_matrix([CycScalar.variable("x", 5) - rat(c), one()], 5)
            tried, rank, kernel = self.primes_tried(monkeypatch, m)
            assert tried == [_modulus(5, k)[0] for k in range(2)]
            assert (rank, kernel) == (2, [])
            monkeypatch.undo()


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

    def test_wrong_support_mod_p_closes_at_the_next_prime(self):
        # column 1 is t times column 0, and t vanishes mod p: the F_p kernel
        # vector of column 1 is e_1 alone, which is not an exact kernel vector
        t = CycScalar.variable("x", 5) - variable_residue_mod_p("x", 5)
        m = ExactMatrix.from_rows([[one(), t, one()], [one(), t, one()],
                                   [rat(2), t * 2, rat(2)]], 5)
        assert m._rank_certificate(*_modulus(5)) is None
        assert m.rank() == 1
        rank, kernel = m._rank_and_kernel()
        assert rank == 1
        assert len(kernel) == 2
        for vec in kernel:
            assert all(x.is_zero for x in times_vector(m, vec))
        ech, piv_cols, _ = m._bareiss()
        assert kernel[0] == m._kernel_vector(ech, piv_cols) == [-t, one(), CycScalar.zero(5)]
        assert kernel[1] == [one(), CycScalar.zero(5), rat(-1)]

    def test_vector_failing_the_product_check_is_rejected(self, monkeypatch, tmp_path, capsys):
        # M v = 0 is checked by a product, whatever the sub-solve returned; a
        # sub-solve with one non-pivot column yields a kernel vector by
        # construction, so a failing one is a defect, not a prime to skip
        m = ExactMatrix.from_rows([[one()] * 2] * 2, 5)
        monkeypatch.setattr(ExactMatrix, "_kernel_vector",
                            lambda self, ech, piv_cols: [one(self.conductor)] * self.cols)
        with pytest.raises(ArithmeticError, match="gave no kernel vector"):
            m._rank_certificate(*_modulus(5))
        with pytest.raises(ArithmeticError):
            m.rank()
        path = str(tmp_path / "d.json")
        save_datum(emit_datum(3), path)
        assert cli.main(["check", "nondeg", "--g", "a", "--datum", path]) == 3
        assert "internal error: ArithmeticError" in capsys.readouterr().err


def reference_reduce_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """The reduced echelon form over F_p by two passes, in place; returns the
    pivot columns.  A forward pass clears the rows below each pivot, then
    back-substitution scales each pivot row to 1 and clears the rows above."""
    piv_cols: list[int] = []
    for c in range(ncols):
        r = len(piv_cols)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        piv_cols.append(c)
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = prow = [a * inv % p for a in rows[r]]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
    return piv_cols


@st.composite
def matrices_mod_p(draw):
    """(p, rows, ncols): a product of rows x inner and inner x cols factors
    over F_p, so of rank at most inner (0 gives rank 0), with some rows and
    columns then set to zero.  Shapes run from empty to 7 x 7, wide and tall,
    and small primes make zeros and rank deficits common."""
    p = draw(st.sampled_from([2, 3, 7, _modulus(5)[0]]))
    nrows, ncols, inner = (draw(st.integers(0, 7)) for _ in range(3))
    entries = st.integers(0, p - 1)
    left = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    rows = [[0 if i in zero_rows or j in zero_cols
             else sum(a * right[k][j] for k, a in enumerate(left[i])) % p
             for j in range(ncols)] for i in range(nrows)]
    return p, rows, ncols


class TestGaussJordanModP:
    """One Gauss-Jordan pass with the F_p update gives the pivot columns and
    the nonzero pattern of the two-pass reduced echelon form: the reduced
    form is unique, and the one pass only leaves its pivots unscaled."""

    @given(case=matrices_mod_p())
    @example(case=(7, [], 3))
    @example(case=(7, [[], []], 0))
    @example(case=(3, [[0, 0, 0], [0, 0, 0]], 3))
    @example(case=(2, [[0, 1, 1], [0, 1, 1], [0, 0, 1]], 3))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_forward_pass_and_back_substitution(self, case):
        p, rows, ncols = case
        got, want = [list(r) for r in rows], [list(r) for r in rows]
        piv_cols, _ = _gauss_jordan(got, ncols, _clear_mod(p))
        assert piv_cols == reference_reduce_mod_p(want, ncols, p)
        assert [[bool(a) for a in r] for r in got] == [[bool(a) for a in r] for r in want]
        assert all(0 <= a < p for r in got for a in r)


def _pinned_matrices():
    """(name, matrix) for each matrix whose rank and kernel vectors are pinned:
    the emitted sl(2|1) S_g at ell = 5, 7, 9, the pointed n = 7 S_g, a
    planted block, and the emitted ell = 3 S_g with one S' entry shifted by
    1/p, whose image mod the first prime p does not exist, so its certificate
    closes at the second."""
    g = Degree(alpha=1)
    for ell in (5, 7, 9):
        yield f"emitted ell={ell}", modified_S(emit_datum(ell), g)
    yield "pointed n=7", modified_S(pointed_datum(7), g)
    planted, _ = planted_modularity_datum(random.Random(3), 4)
    yield "planted size 4", modified_S(planted, g, Degree(alpha=1, shift=Fraction(1)))
    p, _ = _modulus(3)
    perturbed = perturb_block(emit_datum(3), 0, 0, 0, CycScalar.rational(Fraction(1, p), 3))
    yield "perturbed emitted ell=3", modified_S(perturbed, g)


class TestPinnedKernels:
    # kernels.txt holds, for each matrix of _pinned_matrices, a line with its
    # name and rank, then the str of every entry of each kernel vector, one
    # vector a line as a JSON list.  A change to elimination must leave every
    # kernel vector as it is, not only the first.
    def test_rank_and_every_kernel_vector_are_pinned(self):
        lines = []
        for name, s in _pinned_matrices():
            if name.startswith("perturbed"):
                assert s._rank_certificate(*_modulus(3)) is None
            rank, kernel = s._rank_and_kernel()
            lines.append(f"{name}: rank {rank}")
            lines.extend(json.dumps([str(x) for x in vec]) for vec in kernel)
        assert_golden("kernels.txt", "".join(line + "\n" for line in lines))


class TestInvert:
    def test_identity(self):
        assert ExactMatrix.identity(4, 5).invert() == ExactMatrix.identity(4, 5)

    def test_diagonal(self):
        d = diagonal_matrix([rat(2), rat(3)], 5)
        assert d.invert() == diagonal_matrix([rat(Fraction(1, 2)), rat(Fraction(1, 3))], 5)

    def test_symbolic_diagonal(self):
        d = diagonal_matrix([CycScalar.variable("d0", 5), CycScalar.variable("d1", 5)], 5)
        assert d.invert() == diagonal_matrix(
            [CycScalar.variable("d0", 5, -1), CycScalar.variable("d1", 5, -1)], 5)

    def test_singular_all_ones(self):
        m = ExactMatrix.from_rows([[one()] * 2] * 2, 5)
        with pytest.raises(ValueError, match="singular matrix: rank 1 < 2"):
            m.invert()
        assert m._rank_and_kernel() == (1, [[one(), rat(-1)]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zero_matrix(2, 3, 5).invert()

    def test_inverse_outside_the_laurent_ring_is_inexact(self):
        x = CycScalar.variable("x", 5)
        with pytest.raises(InexactDivision):
            ExactMatrix.from_rows([[x, one()], [one(), x]], 5).invert()

    def test_entry_vanishing_mod_p(self):
        # full rank past a lost F_p pivot, and 1/(x - r) is not a Laurent polynomial
        x = CycScalar.variable("x", 5)
        m = diagonal_matrix([x - variable_residue_mod_p("x", 5), one()], 5)
        with pytest.raises(InexactDivision):
            m.invert()

    def test_singular_with_denominator_divisible_by_p(self):
        tiny = rat(Fraction(1, _modulus(5)[0]))
        with pytest.raises(ValueError, match="rank 1 < 2"):
            ExactMatrix.from_rows([[tiny, tiny], [one(), one()]], 5).invert()

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
        a = zero_matrix(2, 3, 5)
        b = zero_matrix(3, 4, 5)
        assert (a @ b).rows == 2 and (a @ b).cols == 4
        with pytest.raises(ValueError):
            b @ a

    def test_scale_columns(self):
        m = ExactMatrix.identity(2, 5).scale_columns([rat(2), rat(3)])
        assert m == diagonal_matrix([rat(2), rat(3)], 5)
        # a factor of 1 leaves the entries untouched
        dense = ExactMatrix.from_rows([[rat(2), CycScalar.zero(5)], [rat(2), rat(2)]], 5)
        assert dense.scale_columns([one(), one()]).entries == dense.entries

    def test_det_of_permutation(self):
        z = CycScalar.zero(5)
        p = ExactMatrix.from_rows([[z, one()], [one(), z]], 5)
        assert p.det() == rat(-1)


def reference_product(a: ExactMatrix, b: ExactMatrix) -> tuple[CycScalar, ...]:
    """A @ B by a plain loop of CycScalar + and *, over every index, row by
    row as ExactMatrix keeps its entries."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = CycScalar.zero(a.conductor)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return tuple(out)


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
        u = CycScalar.variable("u", m, draw(st.sampled_from([-1, 1])))
        edited = _with_entry(target, k, target.entries[k] * u)
        a, b = (edited, b) if target is a else (a, edited)
    return a, b


def _with_entry(a: ExactMatrix, k: int, x: CycScalar) -> ExactMatrix:
    """a with its k-th entry (row by row) replaced by x."""
    entries = list(a.entries)
    entries[k] = x
    return ExactMatrix(a.rows, a.cols, a.conductor, entries)


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
    """A @ B, by the CycScalar loop, equals the plain reference loop entry by
    entry, in == and in str(); so does the packed kernel, the product of the
    two matrices' ScaledBlock views with unit dims, whenever neither has a
    formal variable."""

    @given(pair=products())
    @example(pair=(_matrix(2, 1, 1, [3]), _matrix(2, 1, 1, [-5])))  # the w bound is tight
    @example(pair=(_matrix(5, 1, 2, [CycScalar.zeta(5, 3)] * 2),  # powers past m - 1
                   _matrix(5, 2, 1, [CycScalar.zeta(5, 3) * 7] * 2)))
    @example(pair=(_matrix(7, 2, 2, [Fraction(1, 3), Fraction(-2, 5), 1, Fraction(7, 4)]),
                   _matrix(7, 2, 2, [Fraction(5, 9), 2, Fraction(-1, 6), Fraction(3, 11)])))
    @settings(max_examples=500, deadline=None)
    def test_product_matches_the_reference_loop(self, pair):
        a, b = pair
        want = reference_product(a, b)
        va, vb = (ScaledBlock(m, [one(m.conductor)] * m.cols) for m in pair)
        products = [a @ b] + ([va @ vb] if va.integer_form() and vb.integer_form() else [])
        for got in (m.entries for m in products):
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
            a = _with_entry(a, k, a.entries[k] * CycScalar.variable("u", m))
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


@st.composite
def laurent_sums(draw, m: int, terms: int, variable: bool = True) -> CycScalar:
    """A sum of terms c*zeta^k*u^e with small c and k below deg Phi_m, so a
    single term is a one-term scalar; e is 0 unless variable is set."""
    deg = _degree(m)
    out = CycScalar.zero(m)
    for _ in range(terms):
        e = draw(st.integers(-2, 2)) if variable else 0
        out = out + CycScalar(m, {(draw(st.integers(0, deg - 1)), (("u", e),) if e else ()):
                                  draw(st.integers(-3, 3).filter(bool))})
    return out


class TestAsymmetricPair:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_the_first_pair_of_the_scaled_matrix(self, data):
        """asymmetric_pair(d) is the first (i, j) in row-major order where
        S' diag(d) differs from its transpose.  S' is made so that S' diag(d)
        is symmetric, from one-term entries and dims (decided on keys) or
        sums and field dims (multiplied), and then edited in up to two
        entries."""
        m = data.draw(st.sampled_from(PRODUCT_CONDUCTORS))
        n = data.draw(st.integers(1, 5))
        one_term = data.draw(st.booleans())
        entry = laurent_sums(m, 1) if one_term else \
            st.integers(0, 2).flatmap(lambda t: laurent_sums(m, t))
        dim = laurent_sums(m, 1) if one_term else \
            st.integers(1, 2).flatmap(lambda t: laurent_sums(m, t, variable=False))
        diag = [data.draw(dim.filter(bool)) for _ in range(n)]
        upper = {(i, j): data.draw(entry) for i in range(n) for j in range(i, n)}
        entries = [upper[min(i, j), max(i, j)].exact_div(diag[j])
                   for i in range(n) for j in range(n)]
        for _ in range(data.draw(st.integers(0, 2))):
            k = data.draw(st.integers(0, n * n - 1))
            entries[k] = entries[k] + data.draw(laurent_sums(m, 1))
        a = ExactMatrix(n, n, m, entries)
        s = a.scale_columns(diag)
        assert a.asymmetric_pair(diag) == next(
            ((i, j) for i in range(n) for j in range(n) if s[i, j] != s[j, i]), None)

    def test_a_square_matrix_and_one_dim_per_column(self):
        with pytest.raises(ValueError, match="square"):
            ExactMatrix(1, 2, 5, [one(), one()]).asymmetric_pair([one(), one()])
        with pytest.raises(ValueError, match="square"):
            ExactMatrix.identity(2, 5).asymmetric_pair([one()])
        assert ExactMatrix.identity(2, 5).asymmetric_pair([one(), rat(2)]) is None


@st.composite
def printed_matrices(draw):
    """(conductor, rows, cols, entries): each entry zero, a field element
    whose numerals may pass the canonical reader's 18 digits, or one times a
    Laurent monomial in d, s and u."""
    m = draw(st.sampled_from(PRODUCT_CONDUCTORS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entries = []
    for _ in range(rows * cols):
        kind = draw(st.sampled_from(["zero", "field", "monomial"]))
        e = CycScalar.zero(m) if kind == "zero" else draw(field_elements(m))
        if kind == "monomial":
            for name in ("d0_1", "s2_3", "u"):
                e = e * CycScalar.variable(name, m, draw(st.integers(-4, 4)))
        entries.append(e)
    return m, rows, cols, entries


class TestTextBacked:
    """A matrix made from its entries' texts parses them on first read, and
    equals the matrix of the parsed texts."""

    @given(drawn=printed_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_matrix_of_the_parsed_texts(self, drawn):
        m, rows, cols, entries = drawn
        texts = [str(e) for e in entries]
        t = ExactMatrix.from_texts(rows, cols, m, texts)
        assert is_unread(t)
        assert [t.row_texts(i) for i in range(rows)] == \
            [texts[i * cols:(i + 1) * cols] for i in range(rows)]
        assert is_unread(t)
        parsed = ExactMatrix.from_rows([[parse_scalar(x, m) for x in texts[i * cols:(i + 1) * cols]]
                                        for i in range(rows)], m)
        assert t == parsed and parsed == t
        assert not is_unread(t) and type(t) is ExactMatrix
        assert t.entries == tuple(entries)
        assert [t.row_texts(i) for i in range(rows)] == [parsed.row_texts(i) for i in range(rows)]

    @pytest.mark.parametrize("bad", ["u*d0_1", "u + u", "z5^4", "0*u", "u +", "- u", "u**2"])
    def test_a_text_str_does_not_print_raises_on_first_read(self, bad):
        t = ExactMatrix.from_texts(1, 2, 5, ["u", bad])
        assert t.texts == ("u", bad) and is_unread(t)
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                t[0, 0]
            assert is_unread(t)

    def test_the_text_count_must_match_the_shape(self):
        with pytest.raises(ValueError, match="expected 4 texts, got 3"):
            ExactMatrix.from_texts(2, 2, 5, ["1", "u", "0"])


# The conductors of the scaled-block oracle: the trivial field, small prime,
# prime-power and composite conductors, and 2^7, whose Phi has degree 64.
VIEW_CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 128)


@st.composite
def dims(draw, m: int, n: int) -> list[CycScalar]:
    """n modified dimensions: 1, one term c*zeta^k (k may pass deg Phi_m,
    which makes several terms), a field element of several terms, or,
    rarely, 0 or a formal variable times one of those."""
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["one"] * 2 + ["term"] * 3 + ["sum"] * 2 + ["zero", "symbolic"]))
        if kind == "one":
            d = CycScalar.one(m)
        elif kind == "zero":
            d = CycScalar.zero(m)
        elif kind == "sum":
            d = draw(field_elements(m).filter(bool))
        else:
            d = CycScalar.zeta(m, draw(st.integers(0, m - 1))) * draw(big_fractions.filter(bool))
            if kind == "symbolic":
                d = d * CycScalar.variable("x", m, draw(st.sampled_from([-1, 1])))
        out.append(d)
    return out


@st.composite
def scaled_products(draw):
    """(a, da, b, db): S' blocks a (rows x inner) and b (inner x cols), with
    zero entries and Fraction coefficients, and the dims of their columns."""
    m = draw(st.sampled_from(VIEW_CONDUCTORS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(operands(m, rows, inner)), draw(operands(m, inner, cols))
    return a, draw(dims(m, inner)), b, draw(dims(m, cols))


def decoded(view: ScaledBlock) -> tuple[CycScalar, ...]:
    """The entries that the view's integer form stands for."""
    nums, den = view.integer_form()
    deg = _degree(view.conductor)
    out = []
    for e in nums:
        digits = [0] * deg
        for t, v in e:
            digits[t] = v
        out.append(_from_numerators(view.conductor, digits, den))
    return tuple(out)


def _view_families():
    """(name, datum) for every family of tests/conftest.py."""
    yield "pointed n=5", pointed_datum(5, random.Random(5))
    yield "planted size 4", planted_modularity_datum(random.Random(3), 4)[0]
    yield "pre-metric (15, 3)", premetric_datum(15, 3, random.Random(15))
    yield "Verlinde SU(2)_6", su2_datum(6)
    yield "Verlinde SU(2)_8 even", su2_datum(8, even=True)
    yield "emitted ell=3", emit_datum(3)
    yield "emitted ell=5", emit_datum(5)
    yield "perturbed emitted ell=5", perturbed_emitted_datum(5)


class TestScaledBlock:
    """The view of S = S' diag(d) gives what the whole exact matrix, the old
    route, gives: its integer form stands for the scaled entries, the product
    of two views is the product of the two scaled matrices, and its F_p
    image, exact columns and rank are the matrix's."""

    @given(drawn=scaled_products())
    @example(drawn=(_matrix(5, 1, 1, [CycScalar.zeta(5, 3)]), [CycScalar.zeta(5, 3) * 7],
                    _matrix(5, 1, 1, [Fraction(1, 3)]), [CycScalar.zeta(5, 4) * Fraction(2, 3)]))
    @example(drawn=(_matrix(128, 1, 2, [CycScalar.zeta(128, 63), 0]),
                    [CycScalar.zeta(128, 100), CycScalar.one(128)],
                    _matrix(128, 2, 1, [Fraction(-5, 7), 1]), [CycScalar.zeta(128, 1) + 1]))
    @settings(max_examples=300, deadline=None)
    def test_product_of_views_is_the_product_of_the_scaled_matrices(self, drawn):
        a, da, b, db = drawn
        va, vb = ScaledBlock(a, da), ScaledBlock(b, db)
        sa, sb = a.scale_columns(da), b.scale_columns(db)
        for view, m, scaled in ((va, a, sa), (vb, b, sb)):
            assert [view.is_zero(i, j) for i in range(m.rows) for j in range(m.cols)] == \
                [e.is_zero for e in scaled.entries]
            if any(vk for e in m.entries + view.dims for _, vk in e.coeffs):
                assert view.integer_form() is None
            else:
                assert decoded(view) == scaled.entries
        got = (va @ vb).entries
        want = reference_product(sa, sb)
        assert len(got) == len(want) == a.rows * b.cols
        for x, y, z in zip(got, want, (sa @ sb).entries):
            assert x == y == z and str(x) == str(y), (str(x), str(y))

    def test_shape_mismatch(self):
        v = ScaledBlock(ExactMatrix.identity(2, 5), [one(), one()])
        with pytest.raises(ValueError, match="shape mismatch"):
            v @ ScaledBlock(ExactMatrix.identity(3, 5), [one()] * 3)
        with pytest.raises(ValueError, match="diagonal length mismatch"):
            ScaledBlock(ExactMatrix.identity(2, 5), [one()])

    @pytest.mark.parametrize("family", [name for name, _ in _view_families()])
    def test_image_columns_and_rank_are_the_scaled_matrix_s(self, family):
        d = dict(_view_families())[family]
        for b in d.sprime:
            g, h = b.row_degree, b.col_degree
            view, s = ScaledBlock(b.matrix, d.dims[h]), modified_S(d, g, h)
            for k in (0, 1):
                modulus = _modulus(d.conductor, k)
                assert view._image_mod_p(*modulus) == s._image_mod_p(*modulus)
            assert [view.column(j) for j in range(s.cols)] == \
                [s.column(j) for j in range(s.cols)]
            assert all(view.is_zero(i, j) == s[i, j].is_zero
                       for i in range(s.rows) for j in range(s.cols))
            assert view._rank_and_kernel() == s._rank_and_kernel()
            assert view.matrix() == s
            assert scaled_block(d, g, h).matrix() is s

    def test_faces_are_kept(self):
        d = pointed_datum(3, random.Random(3))
        g = Degree(alpha=1)
        view = scaled_block(d, g)
        assert scaled_block(d, g, g) is view
        assert view.integer_form() is view.integer_form()
        assert view.column(1) is view.column(1)
        assert view.matrix() is view.matrix() is modified_S(d, g)
