"""Dense exact matrices over CycScalar with fraction-free rank and inverse.

Rank is certified by specialisation.  Modulo a prime p = 1 (mod m), zeta_m
goes to a fixed root of Phi_m mod p and each formal variable to a nonzero
residue hashed from its name and p.  That map is a ring homomorphism, so a
minor that is nonzero mod p is nonzero: the F_p rank r is a lower bound on
the exact rank, and r = min(rows, cols) proves full rank.  Below full rank, the
reduced F_p echelon form names, for each non-pivot column, the few columns
its kernel vector lives on.  Fraction-free elimination of those columns alone
gives an exact kernel vector, which is checked by an exact product M v = 0.
These cols - r independent vectors bound the rank above by r, so it is
exactly r.  A prime fails where it divides a denominator, or where a nonzero
minor vanishes at its point and a sub-solve finds a pivot too many; then the
next prime = 1 (mod m), with new residues, is tried, and the first
certificate that closes answers.  A nonzero product M v is a defect and raises
ArithmeticError.  The certificate reads a matrix through two faces only, its
F_p image and its exact columns (_certificate), so a ScaledBlock (below) is
ranked without its whole exact matrix.  The checks ask for this certificate
only for a block whose rank no exact product has settled: a product
S_{g,h} S_{h,-g} that equals zeta * Id with zeta != 0 proves both factors of
full rank (see checks.check_relative_modularity), and check all reads their
ranks from it.

Both eliminations run one Gauss-Jordan loop, _gauss_jordan: each pivot
clears the rows above it as well as the rows below; only the row update
differs.  Over F_p a row loses f times the pivot row.  The pivots stay
unscaled, so the result is the unique reduced echelon form up to one factor
per row: the same pivot columns and the same zeros.  The exact update is
Bareiss's fraction-free one: each division is by the previous pivot and is
exact in the ring (a Sylvester identity), so no fractions ever appear.  Each
pivot row then holds, in a later column, the Cramer numerator of that
column's coordinate on the pivot columns, over one common denominator d, the
latest pivot.  A kernel vector is read off directly: the numerators in the
first non-pivot column at the pivot columns to its left, and -d at the
column itself.  The inverse runs the same elimination on [A | I], followed
by one exact division by the last pivot, +-det(A).  Nothing is random, so
every answer is deterministic.

A product A @ B of two matrices multiplies and adds CycScalars row by row
(Gustavson's row-wise sparse product): each row of B is listed once as its
nonzero (column, entry) pairs, and row i of the product accumulates a * b
over the nonzero a = A[i, k] and the pairs of row k, so the inner loop
visits no zero of B.  The products that decide relative modularity are
ScaledBlock @ ScaledBlock (below), and they go through the packed kernel of
scalars.py when both blocks are free of formal variables: each block's
integer form is over one denominator, each entry's integer vector over
1, zeta, .., zeta^(deg-1) is packed into one int, a dot product is a sum of
plain int products, and each output entry is reduced modulo Phi_m and
divided once.  Those blocks are dense, since condition (2) asks for an
everywhere-nonzero row, so one reduction per entry replaces one per term.
The sparse sl(2|1) generators take neither route: the relation check works
on their nonzero entries (see sl21/reps.py).

Scaling columns, A @ diag(d), multiplies each entry of column j by d_j.  A
column whose factor is 1 (every modified dimension of pointed data) is kept
as it is, with no product.  Whether A @ diag(d) is symmetric is decided
without it (asymmetric_pair): each pair M_ij d_j, M_ji d_i is compared by
scalars.products_equal, which on one-term entries and factors compares keys
and builds neither product.

The checks read a modified S-matrix S = S' diag(d) through one view,
ScaledBlock, kept per datum and pair of degrees (datum.scaled_block).  It
holds the S' block and the dims, and makes each of its faces on first read:

* the integer form, for S' and d free of formal variables: S''s numerator
  vectors over its one denominator, each column's multiplied by its dim's
  numerator vector over the dims' one denominator at the integer level and
  reduced modulo Phi_m once (scalars._times_numerators), so no CycScalar is
  made; both modularity products that read the block take it;
* the F_p image: S''s image with column j times the image of d_j, one
  residue per dim, made afresh at each prime;
* the exact columns, S''s column times d_j, each kept once read, for the
  sub-solves of the rank certificate;
* matrix(), the whole exact S, which only datum.modified_S asks for, and
  which a product with a formal variable multiplies.

A zero test reads S' and d: S'_ij d_j is zero exactly when one factor is.

A matrix can also be made from its entries' literal texts, the strings str()
prints (ExactMatrix.from_texts).  It keeps the texts and parses none of them
until something reads ``entries``.  Until then that slot is unset and the
matrix is a _TextMatrix, whose ``__getattr__`` (which Python calls only for
an attribute that is not set) parses the texts on that first read, from an
entry lookup, a row, a product, a rank or ``==`` alike, fills the slot and
makes the object a plain ExactMatrix.  ExactMatrix itself has no
``__getattr__``: CPython does not specialise attribute reads on a class that
has one, so a matrix built from its entries, or read, pays nothing for it.
The parse is one pass through the canonical reader of scalars.py, with one
table of factor texts for the whole matrix.  That reader takes every text
str() prints; the read raises ValueError naming any text it does not take.
The canonical reader also takes a few spellings that str() does not
print, such as ``1*u`` or ``u^1``, at their values; a caller must not pass
those, since the datum writer writes the texts as they are.  The texts fix
every value, so a text-backed matrix is as immutable as any other.
``row_texts`` gives a row's kept texts without a parse, and str() of the
entries when there are none; copy, deepcopy and pickle of an unread matrix
give an unread one.  ``sl21 emit`` formats its S' entries straight into
texts and the datum writer writes them as they are, so an emitted matrix is
parsed only when a check or a caller reads it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import lru_cache
from itertools import count

from .scalars import (CycScalar, InexactDivision, _integer_form, _packed_product,
                      _read_canonical, _times_numerators, products_equal)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; these bases are exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _modulus(m: int, k: int = 0) -> tuple[int, int]:
    """(p, r): the (k+1)-th largest prime p < 2^61 with p = 1 (mod m), and r
    in F_p of multiplicative order exactly m, hence a root of Phi_m mod p."""
    p = ((1 << 61) - 2) // m * m + 1 if k == 0 else _modulus(m, k - 1)[0] - m
    while not _is_prime(p):
        p -= m
    factors = {q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)}
    g = 2
    while True:
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in factors):
            return p, r
        g += 1


def _variable_residue(name: str, p: int) -> int:
    """The nonzero residue mod p that a formal variable is sent to.  The hash
    takes p too: reduced mod p - 1, a hash of the name alone is one fixed
    integer mod every prime in a long run, where x minus it would vanish."""
    digest = hashlib.sha256(f"{name} mod {p}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (p - 1) + 1


def _witness(vec: list[CycScalar]) -> list[CycScalar]:
    """A kernel vector scaled for reporting: divided by its last nonzero entry
    (the one at its non-pivot column) when that division is exact for every
    entry, then negated if its first nonzero entry has a negative leading
    rational coefficient."""
    last = next(v for v in reversed(vec) if not v.is_zero)
    try:
        vec = [v.exact_div(last) for v in vec]
    except InexactDivision:
        pass
    lead = next(v for v in vec if not v.is_zero)
    return [-v for v in vec] if lead.coeffs[min(lead.coeffs)] < 0 else vec


def _packs(entries: list[CycScalar]) -> bool:
    """Whether entries have an integer form for the packed kernel: no formal
    variable in any of them."""
    return not any(vk for e in entries for _, vk in e.coeffs)


def _gauss_jordan(rows: list[list], ncols: int, clear) -> tuple[list[int], int]:
    """Gauss-Jordan elimination of rows in place; returns (pivot columns, swap
    sign).  At each column the first row at or below the rank with a nonzero
    (truthy) entry is swapped up, and every other row becomes clear(row,
    pivot row, column, previous pivot or None), zero in that column."""
    piv_cols: list[int] = []
    sign = 1
    prev = None
    for c in range(ncols):
        r = len(piv_cols)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
            sign = -sign
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = clear(row, prow, c, prev)
        prev = prow[c]
        piv_cols.append(c)
    return piv_cols, sign


def _clear_mod(p: int):
    """The update of _gauss_jordan over F_p: row - f * pivot row, with f the
    row's entry over the pivot, whose inverse is computed once.  The pivot
    row is zero left of column c, so only entries from c on change; adding
    (-f mod p) times it keeps each sum nonnegative, where % p is cheaper."""
    inverses: dict[int, int] = {}

    def clear(row, prow, c, _prev):
        if not row[c]:
            return row
        if c not in inverses:
            inverses[c] = pow(prow[c], -1, p)
        g = -row[c] * inverses[c] % p
        return row[:c] + [(a + g * b) % p for a, b in zip(row[c:], prow[c:])]
    return clear


def _image(entries, rows: int, cols: int, m: int, p: int, root: int,
           dims=()) -> list[list[int]] | None:
    """The rows of the F_p image of the rows x cols matrix whose entries are
    given row by row, zeta_m sent to root and each formal variable to its
    residue (see the module docstring), column j times the image of dims[j]
    when dims are given; None when a coefficient's denominator vanishes mod
    p."""
    zpow = [pow(root, k, p) for k in range(m)]
    # a variable's residue, its k-th power and den^-1 are each computed once
    # per call
    var: dict[str, int] = {}
    vpow: dict[tuple[str, int], int] = {}
    dinv: dict[int, int] = {1: 1}
    scale = [1] * cols
    out = []
    # row -1 is the image of the dims, which scales every row after it
    for i in range(-1 if dims else 0, rows):
        row = []
        for e, f in zip(dims if i < 0 else entries[i * cols:(i + 1) * cols], scale):
            acc = 0
            for (zp, vk), c in e.coeffs.items():
                den = c.denominator
                if den not in dinv:
                    if not den % p:
                        return None
                    dinv[den] = pow(den, -1, p)
                t = c.numerator * zpow[zp] * dinv[den]
                for name_k in vk:
                    x = vpow.get(name_k)
                    if x is None:
                        name, k = name_k
                        if name not in var:
                            var[name] = _variable_residue(name, p)
                        x = vpow[name_k] = pow(var[name], k, p)
                    t = t * x
                acc += t
            row.append(acc * f % p)
        if i < 0:
            scale = row
        else:
            out.append(row)
    return out


def _certificate(red: list[list[int]] | None, p: int, cols: int, conductor: int,
                 column) -> tuple[int, list[list[CycScalar]]] | None:
    """Exact rank and, when it is below min(rows, cols), one exact kernel
    vector per non-pivot column, of the matrix whose F_p image at the prime p
    has the rows red and whose exact column c is column(c); None when the
    certificate does not close at p (red is None when a denominator of the
    matrix vanishes mod p).

    The image is reduced once, in place.  Its rank r is a lower bound on the
    exact rank, and at full rank that settles it.  Otherwise each non-pivot
    column j of the reduced form has an F_p kernel vector whose support is j
    and the pivot columns q with a nonzero entry in q's row.  Those columns
    alone are read exactly and eliminated, and the kernel vector found there
    is checked by M v = 0, a product over those columns only, since v
    vanishes off them.  The vectors are independent (each is nonzero at its
    own non-pivot column only), so the rank is at most r, hence exactly r.
    A nonzero product raises ArithmeticError: the sub-solve yields a kernel
    vector by construction.
    """
    if red is None:
        return None
    rows = len(red)
    piv_cols, _ = _gauss_jordan(red, cols, _clear_mod(p))
    rank = len(piv_cols)
    if rank == min(rows, cols):
        return rank, []
    zero = CycScalar.zero(conductor)
    kernel = []
    for j in range(cols):
        if j in piv_cols:
            continue
        support = [q for r, q in enumerate(piv_cols) if red[r][j]] + [j]
        sub = ExactMatrix(rows, len(support), conductor,
                          [e for row in zip(*map(column, support)) for e in row])
        ech, sub_piv, _ = sub._bareiss()
        if len(sub_piv) != len(support) - 1:
            return None
        kv = ExactMatrix(len(support), 1, conductor, sub._kernel_vector(ech, sub_piv))
        if any(not e.is_zero for e in (sub @ kv).entries):
            raise ArithmeticError(f"the sub-solve on columns {support} gave no kernel vector")
        vec = [zero] * cols
        for c, x in zip(support, kv.entries):
            vec[c] = x
        kernel.append(vec)
    return rank, kernel


class _Certified:
    """The rank certificate of a matrix that gives its F_p image
    (_image_mod_p) and its exact columns (column): an ExactMatrix, or a
    ScaledBlock, which gives both without its whole exact matrix."""
    __slots__ = ()

    def _rank_certificate(self, p: int, root: int) -> tuple[int, list[list[CycScalar]]] | None:
        """_certificate at the prime p, with zeta sent to root."""
        return _certificate(self._image_mod_p(p, root), p, self.cols, self.conductor,
                            self.column)

    def _rank_and_kernel(self) -> tuple[int, list[list[CycScalar]]]:
        """Exact rank over the fraction field and the kernel vectors that bound
        it above ([] at full rank): the certificate above at the first of the
        primes = 1 (mod m), largest first, at which it closes (see the module
        docstring)."""
        for k in count():
            cert = self._rank_certificate(*_modulus(self.conductor, k))
            if cert is not None:
                return cert


class ExactMatrix(_Certified):
    """A rows x cols matrix over Q(zeta_conductor)[X^+-1], its entries row by
    row in a tuple: a matrix cannot be edited in place, so a value derived
    from it stays true (see datum._memo).  texts is None, or the entries'
    literal texts row by row, parsed into entries on first read (see the
    module docstring)."""
    __slots__ = ("rows", "cols", "conductor", "entries", "texts")

    def __init__(self, rows: int, cols: int, conductor: int, entries: Iterable[CycScalar]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        self.entries = entries
        self.texts = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows_data: list[list[CycScalar]], conductor: int) -> "ExactMatrix":
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        flat = []
        for row in rows_data:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return ExactMatrix(r, c, conductor, flat)

    @staticmethod
    def from_texts(rows: int, cols: int, conductor: int, texts: Iterable[str]) -> "ExactMatrix":
        """The matrix whose entries, row by row, are the values of texts, each
        the string str() prints of its value.  No text is parsed here (see
        the module docstring)."""
        texts = tuple(texts)
        if len(texts) != rows * cols:
            raise ValueError(f"expected {rows * cols} texts, got {len(texts)}")
        m = object.__new__(_TextMatrix)
        m.rows = rows
        m.cols = cols
        m.conductor = conductor
        m.texts = texts
        return m

    @staticmethod
    def identity(n: int, conductor: int) -> "ExactMatrix":
        one, zero = CycScalar.one(conductor), CycScalar.zero(conductor)
        return ExactMatrix(n, n, conductor, [one if i == j else zero for i in range(n) for j in range(n)])

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij) -> CycScalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycScalar, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[CycScalar, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[tuple[CycScalar, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def row_texts(self, i: int) -> list[str]:
        """str() of each entry of row i, as a datum document holds the row; a
        text-backed matrix gives its kept texts and parses nothing."""
        if self.texts is not None:
            return list(self.texts[i * self.cols:(i + 1) * self.cols])
        return [str(e) for e in self.row(i)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.conductor) == (other.rows, other.cols, other.conductor) \
            and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(", ".join(self.row_texts(i)) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, oc = self.cols, other.cols
        # row k of B as its nonzero (column, entry) pairs, built once
        b_rows = [[(j, b) for j, b in enumerate(other.entries[k * oc:(k + 1) * oc]) if b.coeffs]
                  for k in range(n)]
        zero = CycScalar.zero(self.conductor)
        out = []
        for i in range(self.rows):
            acc = [zero] * oc
            for a, b_row in zip(self.entries[i * n:(i + 1) * n], b_rows):
                if a.coeffs:
                    for j, b in b_row:
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return ExactMatrix(self.rows, oc, self.conductor, out)

    def scale_columns(self, diag: list[CycScalar]) -> "ExactMatrix":
        """self @ diag(diag), column by column (see the module docstring)."""
        if len(diag) != self.cols:
            raise ValueError("diagonal length mismatch")
        cols = self.cols
        out = list(self.entries)
        for j, d in enumerate(diag):
            if not d.is_one:
                out[j::cols] = [e * d for e in self.entries[j::cols]]
        return ExactMatrix(self.rows, cols, self.conductor, out)

    def asymmetric_pair(self, diag: list[CycScalar]) -> tuple[int, int] | None:
        """The first (i, j) with i < j, in row-major order, where the entries
        of self @ diag(diag) differ, M_ij d_j != M_ji d_i; None when that
        product is symmetric.  Neither product is kept (see the module
        docstring)."""
        n, e = self.cols, self.entries
        if self.rows != n or len(diag) != n:
            raise ValueError("a square matrix and one diagonal entry per column required")
        for i in range(n):
            d_i, row = diag[i], i * n
            for j in range(i + 1, n):
                if not products_equal(e[row + j], diag[j], e[j * n + i], d_i):
                    return i, j
        return None

    # -- elimination -----------------------------------------------------------

    def _bareiss(self):
        """Fraction-free Gauss-Jordan.  Returns (reduced rows, pivot cols, swap sign).

        Each pivot clears the rows above it as well as the rows below.  The
        entries right of the pivot are still minors, so every division by the
        previous pivot stays exact, and a pivot row holds Cramer numerators
        over the latest pivot (see _kernel_vector).
        """
        zero = CycScalar.zero(self.conductor)

        def clear(row, prow, c, prev):
            pivot, mic = prow[c], row[c]
            divide = prev is not None and not prev.is_one
            for j in range(c + 1, len(row)):
                num = pivot * row[j] - mic * prow[j]
                row[j] = num.exact_div(prev) if divide else num
            row[c] = zero
            return row

        m = [list(self.row(i)) for i in range(self.rows)]
        piv_cols, sign = _gauss_jordan(m, self.cols, clear)
        return m, piv_cols, sign

    def _image_mod_p(self, p: int, root: int) -> list[list[int]] | None:
        """The rows of the F_p image, zeta sent to root (see the module
        docstring); None when a coefficient's denominator vanishes mod p."""
        return _image(self.entries, self.rows, self.cols, self.conductor, p, root)

    def rank(self) -> int:
        """Exact rank over the fraction field (see _rank_and_kernel)."""
        return self._rank_and_kernel()[0]

    def det(self) -> CycScalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return CycScalar.one(self.conductor)
        ech, piv_cols, sign = self._bareiss()
        if len(piv_cols) < self.rows:
            return CycScalar.zero(self.conductor)
        d = ech[self.rows - 1][piv_cols[-1]]
        return d if sign == 1 else -d

    def _kernel_vector(self, ech, piv_cols) -> list[CycScalar]:
        """The kernel vector of the first non-pivot column, read off the
        reduced form and scaled by _witness.

        Columns 0 .. free-1 are the pivot columns of rows 0 .. free-1, and
        row r holds at column free the Cramer numerator of that column's
        coordinate over d, the last of those pivots.  So the numerators there
        and -d at free give M v = 0.
        """
        free = next(c for c in range(self.cols) if c not in piv_cols)
        d = ech[free - 1][free - 1] if free else CycScalar.one(self.conductor)
        zero = CycScalar.zero(self.conductor)
        vec = [ech[r][free] for r in range(free)] + [-d] + [zero] * (self.cols - free - 1)
        return _witness(vec)

    def invert(self):
        """Exact inverse.

        Raises ValueError on non-square or singular input, and InexactDivision
        when the matrix is invertible over the fraction field but the inverse
        does not live in the coefficient ring (possible only with formal
        variables).
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("cannot invert a non-square matrix")
        rank = self.rank()
        if rank < n:
            raise ValueError(f"cannot invert a singular matrix: rank {rank} < {n}")
        # Gauss-Jordan on [A | I] leaves d A^-1 in the right half, where
        # d = +-det(A) is the last pivot.
        ident = ExactMatrix.identity(n, self.conductor)
        aug = ExactMatrix.from_rows([self.row(i) + ident.row(i) for i in range(n)], self.conductor)
        m, _, _ = aug._bareiss()
        return ExactMatrix(n, n, self.conductor,
                           [m[i][n + j].exact_div(m[n - 1][n - 1])
                            for i in range(n) for j in range(n)])


class _TextMatrix(ExactMatrix):
    """An ExactMatrix from from_texts whose entries nobody has read yet (see
    the module docstring): __getattr__ fills the unset slot entries on its
    first read and makes the object a plain ExactMatrix, and __reduce__
    copies it unread."""
    __slots__ = ()

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError(name)
        m, factors, entries = self.conductor, {}, []
        for t in self.texts:
            e = _read_canonical(t, m, factors)
            if e is None:
                raise ValueError(f"not a literal in the form str() prints: {t!r}")
            entries.append(e)
        self.entries = tuple(entries)
        self.__class__ = ExactMatrix
        return self.entries

    def __reduce__(self):
        return ExactMatrix.from_texts, (self.rows, self.cols, self.conductor, self.texts)


class ScaledBlock(_Certified):
    """One view of the modified S-matrix S = S' diag(d), read from the S'
    block and the dims d without the whole exact S (see the module
    docstring).  Each face is made on its first read and kept: the integer
    form, the exact columns and the whole matrix."""
    __slots__ = ("sprime", "dims", "rows", "cols", "conductor", "_ints", "_columns", "_matrix")

    def __init__(self, sprime: ExactMatrix, dims: Iterable[CycScalar]):
        dims = tuple(dims)
        if len(dims) != sprime.cols:
            raise ValueError("diagonal length mismatch")
        self.sprime, self.dims = sprime, dims
        self.rows, self.cols, self.conductor = sprime.rows, sprime.cols, sprime.conductor
        self._ints = self._matrix = None
        self._columns: dict[int, tuple[CycScalar, ...]] = {}

    def integer_form(self) -> tuple[list[list[tuple[int, int]]], int] | None:
        """S in the integer form of the packed product (scalars._integer_form),
        None when S' or d has a formal variable.  Each S' numerator vector, over
        the block's one denominator, is multiplied by its column's dim's
        numerator vector over the dims' one denominator and reduced modulo
        Phi_m (scalars._times_numerators); S's denominator is the product of
        the two.  A column whose numerator vector is 1 is kept as it is."""
        if self._ints is None:
            self._ints = False
            if _packs(self.sprime.entries) and _packs(self.dims):
                nums, den = _integer_form(self.sprime.entries)
                dnums, dden = _integer_form(self.dims)
                for j, dn in enumerate(dnums):
                    if dn != [(0, 1)]:
                        nums[j::self.cols] = _times_numerators(self.conductor,
                                                               nums[j::self.cols], dn)
                self._ints = nums, den * dden
        return self._ints or None

    def _image_mod_p(self, p: int, root: int) -> list[list[int]] | None:
        """The rows of S's F_p image: S''s image with column j times the image
        of d_j; None when a denominator of either vanishes mod p."""
        return _image(self.sprime.entries, self.rows, self.cols, self.conductor, p, root,
                      self.dims)

    def column(self, j: int) -> tuple[CycScalar, ...]:
        """Column j of S, exact: S''s column j times d_j."""
        col = self._columns.get(j)
        if col is None:
            d, col = self.dims[j], self.sprime.column(j)
            if not d.is_one:
                col = tuple([e * d for e in col])
            self._columns[j] = col
        return col

    def is_zero(self, i: int, j: int) -> bool:
        """Whether S[i, j] = S'[i, j] d_j is zero, with no product."""
        return self.sprime[i, j].is_zero or self.dims[j].is_zero

    def matrix(self) -> ExactMatrix:
        """The whole exact S, S'.scale_columns(d), built once."""
        if self._matrix is None:
            self._matrix = self.sprime.scale_columns(list(self.dims))
        return self._matrix

    def __matmul__(self, other: "ScaledBlock") -> ExactMatrix:
        """The exact product of two scaled blocks: the packed kernel on their
        integer forms, or the product of the two whole matrices when either
        has a formal variable."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = self.integer_form(), other.integer_form()
        if a is None or b is None:
            return self.matrix() @ other.matrix()
        return ExactMatrix(self.rows, other.cols, self.conductor, _packed_product(
            self.conductor, a, b, self.rows, self.cols, other.cols))
