"""Dense exact matrices over CycScalar with fraction-free rank and inverse.

Rank is certified by specialisation.  Modulo a prime p = 1 (mod m), zeta_m
goes to a fixed root of Phi_m mod p and each formal variable to a nonzero
residue hashed from its name.  That map is a ring homomorphism, so a minor
that is nonzero mod p is nonzero: the F_p rank r is a lower bound on the
exact rank, and r = min(rows, cols) proves full rank.  Below full rank, the
reduced F_p echelon form names, for each non-pivot column, the few columns
its kernel vector lives on.  Fraction-free elimination of those columns alone
gives an exact kernel vector, which is checked by an exact product M v = 0.
These cols - r independent vectors bound the rank above by r, so it is
exactly r.  When any step fails -- a denominator vanishes mod p, a sub-solve
finds a pivot too many, or a product is nonzero -- the whole matrix is
eliminated instead.

Elimination is Bareiss's fraction-free Gauss-Jordan: each pivot clears the
rows above it as well as the rows below, and each division is by the previous
pivot and is exact in the ring (a Sylvester identity), so no fractions ever
appear.  Each pivot row then holds, in a later column, the Cramer numerator of
that column's coordinate on the pivot columns, over one common denominator d,
the latest pivot.  A kernel vector is read off directly: the numerators in the
first non-pivot column at the pivot columns to its left, and -d at the column
itself.  The inverse runs the same elimination on [A | I], followed by one
exact division by the last pivot, +-det(A).  Nothing is random, so every
answer is deterministic.

A product A @ B whose operands are both free of formal variables and have at
least half of their entries nonzero goes through the packed kernel of
scalars.py: each row of A and each column of B is put over one common
denominator, each entry's integer vector over 1, zeta, .., zeta^(deg-1) is
packed into one int, a dot product is a sum of plain int products, and each
output entry is reduced modulo Phi_m and divided once.  Every other product
multiplies and adds CycScalars row by row (Gustavson's row-wise sparse
product): each row of B is listed once as its nonzero (column, entry) pairs,
and row i of the product accumulates a * b over the nonzero a = A[i, k] and
the pairs of row k, so the inner loop visits no zero of B.  The rule follows
the inputs: the S' blocks whose products decide relative modularity are
dense, since condition (2) asks for an everywhere-nonzero row, so one
reduction per entry replaces one per term; the E/F/K matrices of the sl(2|1)
modules hold about one nonzero per row, where the skipped zeros make the
plain loop cheaper than packing.  Entrywise sums, differences and scaling
likewise keep an entry as it is where the other operand is zero.

Scaling columns, A @ diag(d), follows the same rule column by column.  When A
takes the packed kernel and d_j has several terms and no formal variable,
column j is the rows x 1 by 1 x 1 packed product, reduced once per entry.
Every other column multiplies its entries by d_j: a one-term factor costs one
monomial product per entry, and the factor 1 (every modified dimension of
pointed data) returns each entry itself.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .scalars import CycScalar, InexactDivision, _packed_product


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
def _modulus(m: int) -> tuple[int, int]:
    """(p, r): the largest prime p < 2^61 with p = 1 (mod m), and r in F_p of
    multiplicative order exactly m, hence a root of Phi_m mod p."""
    p = ((1 << 61) - 2) // m * m + 1
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
    """The fixed nonzero residue mod p that a formal variable is sent to."""
    digest = hashlib.sha256(name.encode()).digest()
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
    """Whether a product operand takes the packed kernel: at least half of its
    entries nonzero and no formal variable in any of them."""
    nonzero = [e for e in entries if e.coeffs]
    return 2 * len(nonzero) >= len(entries) and not any(
        vk for e in nonzero for _, vk in e.coeffs)


class ExactMatrix:
    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, rows: int, cols: int, conductor: int, entries: list[CycScalar]):
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        self.entries = entries

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
    def identity(n: int, conductor: int) -> "ExactMatrix":
        one, zero = CycScalar.one(conductor), CycScalar.zero(conductor)
        return ExactMatrix(n, n, conductor, [one if i == j else zero for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int, conductor: int) -> "ExactMatrix":
        zero = CycScalar.zero(conductor)
        return ExactMatrix(rows, cols, conductor, [zero] * (rows * cols))

    @staticmethod
    def diagonal(diag: list[CycScalar], conductor: int) -> "ExactMatrix":
        n = len(diag)
        zero = CycScalar.zero(conductor)
        return ExactMatrix(n, n, conductor, [diag[i] if i == j else zero for i in range(n) for j in range(n)])

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij) -> CycScalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[CycScalar]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[CycScalar]]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.conductor) == (other.rows, other.cols, other.conductor) \
            and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic -----------------------------------------------------------

    def _entrywise(self, other: "ExactMatrix", op) -> "ExactMatrix":
        """op(a, b) on each pair of entries where b is nonzero; a where b is zero."""
        if (self.rows, self.cols, self.conductor) != (other.rows, other.cols, other.conductor):
            raise ValueError("shape or conductor mismatch")
        return ExactMatrix(self.rows, self.cols, self.conductor,
                           [op(a, b) if b.coeffs else a
                            for a, b in zip(self.entries, other.entries)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, CycScalar.__add__)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, CycScalar.__sub__)

    def scale(self, c: CycScalar) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, self.conductor,
                           [c * e if e.coeffs else e for e in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if _packs(self.entries) and _packs(other.entries):
            return ExactMatrix(self.rows, other.cols, self.conductor, _packed_product(
                self.conductor, self.entries, other.entries, self.rows, self.cols, other.cols))
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
        rows, cols, m = self.rows, self.cols, self.conductor
        packs = _packs(self.entries)
        out = list(self.entries)
        for j, d in enumerate(diag):
            column = self.entries[j::cols]
            if packs and len(d.coeffs) > 1 and not any(vk for _, vk in d.coeffs):
                out[j::cols] = _packed_product(m, column, [d], rows, 1, 1)
            else:
                out[j::cols] = [e * d for e in column]
        return ExactMatrix(rows, cols, m, out)

    def is_symmetric(self) -> bool:
        n, e = self.cols, self.entries
        return self.rows == n and all(
            e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n))

    # -- elimination -----------------------------------------------------------

    def _bareiss(self):
        """Fraction-free Gauss-Jordan.  Returns (reduced rows, pivot cols, swap sign).

        Each pivot clears the rows above it as well as the rows below.  The
        entries right of the pivot are still minors, so every division by the
        previous pivot stays exact, and a pivot row holds Cramer numerators
        over the latest pivot (see _kernel_vector).
        """
        m = [list(self.row(i)) for i in range(self.rows)]
        zero = CycScalar.zero(self.conductor)
        prev = CycScalar.one(self.conductor)
        piv_cols: list[int] = []
        sign = 1
        for c in range(self.cols):
            r = len(piv_cols)
            if r == self.rows:
                break
            p = next((i for i in range(r, self.rows) if not m[i][c].is_zero), None)
            if p is None:
                continue
            if p != r:
                m[p], m[r] = m[r], m[p]
                sign = -sign
            pivot = m[r][c]
            for i in range(self.rows):
                if i == r:
                    continue
                mic = m[i][c]
                for j in range(c + 1, self.cols):
                    num = pivot * m[i][j] - mic * m[r][j]
                    m[i][j] = num if prev.is_one else num.exact_div(prev)
                m[i][c] = zero
            prev = pivot
            piv_cols.append(c)
        return m, piv_cols, sign

    def _image_mod_p(self) -> tuple[int, list[list[int]]] | None:
        """(p, rows of the F_p image) (see the module docstring); None when a
        coefficient's denominator vanishes mod p."""
        m = self.conductor
        p, r = _modulus(m)
        zpow = [pow(r, k, p) for k in range(m)]
        # a variable's residue, its k-th power and den^-1 are each computed once
        var: dict[str, int] = {}
        vpow: dict[tuple[str, int], int] = {}
        dinv: dict[int, int] = {1: 1}
        rows = []
        for i in range(self.rows):
            row = []
            for e in self.row(i):
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
                row.append(acc % p)
            rows.append(row)
        return p, rows

    def _rank_certificate(self) -> tuple[int, list[list[CycScalar]]] | None:
        """Exact rank and, when it is below min(rows, cols), one exact kernel
        vector per non-pivot column; None when the certificate does not close.

        The F_p image (see the module docstring) is reduced once.  Its rank r
        is a lower bound on the exact rank, and at full rank that settles it.
        Otherwise each non-pivot column j of the reduced form has an F_p
        kernel vector whose support is j and the pivot columns q with a
        nonzero entry in q's row.  Those columns alone are eliminated exactly,
        and the kernel vector found there is checked by M v = 0, a product over
        those columns only, since v vanishes off them.  The vectors
        are independent (each is nonzero at its own non-pivot column only), so
        the rank is at most r, hence exactly r.
        """
        image = self._image_mod_p()
        if image is None:
            return None
        p, red = image
        piv_cols: list[int] = []
        for c in range(self.cols):
            r = len(piv_cols)
            if r == self.rows:
                break
            piv = next((i for i in range(r, self.rows) if red[i][c]), None)
            if piv is None:
                continue
            red[r], red[piv] = red[piv], red[r]
            prow = red[r]
            inv = pow(prow[c], -1, p)
            for i in range(r + 1, self.rows):
                f = red[i][c] * inv % p
                if f:
                    red[i] = [(a - f * b) % p for a, b in zip(red[i], prow)]
            piv_cols.append(c)
        rank = len(piv_cols)
        if rank == min(self.rows, self.cols):
            return rank, []
        # back-substitute to the reduced echelon form
        for r in range(rank - 1, -1, -1):
            c = piv_cols[r]
            inv = pow(red[r][c], -1, p)
            red[r] = prow = [a * inv % p for a in red[r]]
            for i in range(r):
                f = red[i][c]
                if f:
                    red[i] = [(a - f * b) % p for a, b in zip(red[i], prow)]
        zero = CycScalar.zero(self.conductor)
        kernel = []
        for j in range(self.cols):
            if j in piv_cols:
                continue
            cols = [q for r, q in enumerate(piv_cols) if red[r][j]] + [j]
            sub = ExactMatrix(self.rows, len(cols), self.conductor,
                              [self[i, c] for i in range(self.rows) for c in cols])
            ech, sub_piv, _ = sub._bareiss()
            if len(sub_piv) != len(cols) - 1:
                return None
            kv = ExactMatrix(len(cols), 1, self.conductor, sub._kernel_vector(ech, sub_piv))
            if any(not e.is_zero for e in (sub @ kv).entries):
                return None
            vec = [zero] * self.cols
            for c, x in zip(cols, kv.entries):
                vec[c] = x
            kernel.append(vec)
        return rank, kernel

    def _rank_and_kernel(self) -> tuple[int, list[list[CycScalar]]]:
        """Exact rank over the fraction field and the kernel vectors that bound
        it above ([] at full rank): the certificate above when it closes, else
        fraction-free elimination of the whole matrix and the kernel vector of
        its first non-pivot column."""
        cert = self._rank_certificate()
        if cert is not None:
            return cert
        ech, piv_cols, _ = self._bareiss()
        rank = len(piv_cols)
        if rank == min(self.rows, self.cols):
            return rank, []
        return rank, [self._kernel_vector(ech, piv_cols)]

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
