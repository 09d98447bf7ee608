"""Dense exact matrices over CycScalar with fraction-free rank and inverse.

Full rank is first tested modulo a prime p = 1 (mod m): zeta_m goes to a
fixed root of Phi_m mod p and each formal variable to a nonzero residue
hashed from its name.  That map is a ring homomorphism, so a minor that is
nonzero mod p is nonzero, and an F_p rank of min(rows, cols) proves full
rank.  Every other answer -- every rank deficit and every kernel vector --
comes from Bareiss elimination, where each division is by the previous pivot
and is exact in the ring (a Sylvester identity), so no fractions ever appear.
The inverse is fraction-free Gauss-Jordan on [A | I] followed by one exact
division by the determinant.  Nothing is random, so every answer is
deterministic.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .scalars import CycScalar


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


class SingularReport:
    """Returned by invert() on singular input; carries a nonzero kernel vector."""

    def __init__(self, kernel: list[CycScalar], rank: int):
        self.kernel = kernel
        self.rank = rank

    def __repr__(self):
        return f"SingularReport(rank={self.rank}, kernel=[{', '.join(map(str, self.kernel))}])"


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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, self.conductor,
                           [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(self.rows, self.cols, self.conductor,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(self.rows, self.cols, self.conductor,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c: CycScalar) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, self.conductor, [c * e for e in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = CycScalar.zero(self.conductor)
        out = [zero] * (self.rows * other.cols)
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a.is_zero:
                    continue
                obase = k * oc
                for j in range(oc):
                    b = other.entries[obase + j]
                    if b.is_zero:
                        continue
                    out[i * oc + j] = out[i * oc + j] + a * b
        return ExactMatrix(self.rows, other.cols, self.conductor, out)

    def scale_columns(self, diag: list[CycScalar]) -> "ExactMatrix":
        if len(diag) != self.cols:
            raise ValueError("diagonal length mismatch")
        out = [self[i, j] * diag[j] for i in range(self.rows) for j in range(self.cols)]
        return ExactMatrix(self.rows, self.cols, self.conductor, out)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols))

    # -- elimination -----------------------------------------------------------

    def _bareiss(self):
        """Fraction-free row echelon.  Returns (echelon rows, pivot cols, swap sign)."""
        m = [list(self.row(i)) for i in range(self.rows)]
        one = CycScalar.one(self.conductor)
        zero = CycScalar.zero(self.conductor)
        prev = one
        piv_cols: list[int] = []
        sign = 1
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            p = next((i for i in range(r, self.rows) if not m[i][c].is_zero), None)
            if p is None:
                continue
            if p != r:
                m[p], m[r] = m[r], m[p]
                sign = -sign
            pivot = m[r][c]
            for i in range(r + 1, self.rows):
                mic = m[i][c]
                for j in range(c + 1, self.cols):
                    num = pivot * m[i][j] - mic * m[r][j]
                    m[i][j] = num if prev.is_one else num.exact_div(prev)
                m[i][c] = zero
            prev = pivot
            piv_cols.append(c)
            r += 1
        return m, piv_cols, sign

    def _rank_mod_p(self) -> int | None:
        """Rank of the image in F_p (see the module docstring), a lower bound on
        the exact rank; None when a coefficient's denominator vanishes mod p."""
        m = self.conductor
        p, r = _modulus(m)
        zpow = [pow(r, k, p) for k in range(m)]
        var: dict[str, int] = {}
        rows = []
        for i in range(self.rows):
            row = []
            for e in self.row(i):
                acc = 0
                for (zp, vk), c in e.coeffs.items():
                    den = c.denominator % p
                    if not den:
                        return None
                    t = c.numerator * zpow[zp] * pow(den, -1, p)
                    for name, k in vk:
                        if name not in var:
                            var[name] = _variable_residue(name, p)
                        t = t * pow(var[name], k, p)
                    acc += t
                row.append(acc % p)
            rows.append(row)
        rank = 0
        for c in range(self.cols):
            piv = next((i for i in range(rank, self.rows) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            prow = rows[rank]
            inv = pow(prow[c], -1, p)
            for i in range(rank + 1, self.rows):
                f = rows[i][c] * inv % p
                if f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
            rank += 1
            if rank == self.rows:
                break
        return rank

    def rank(self) -> int:
        """Exact rank over the fraction field.

        Full rank is proved modulo a prime; any smaller rank is computed by
        fraction-free elimination.
        """
        full = min(self.rows, self.cols)
        if self._rank_mod_p() == full:
            return full
        _, piv_cols, _ = self._bareiss()
        return len(piv_cols)

    def _singular_report(self) -> SingularReport | None:
        """None when this square matrix has full rank, else its exact rank and a
        kernel vector.  A matrix is eliminated exactly at most once, and only
        when the mod-p test does not already prove full rank."""
        if self._rank_mod_p() == self.rows:
            return None
        ech, piv_cols, _ = self._bareiss()
        if len(piv_cols) == self.rows:
            return None
        return SingularReport(self._kernel_vector(ech, piv_cols), len(piv_cols))

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
        """A nonzero kernel vector from the echelon form, denominators cleared."""
        free = next(c for c in range(self.cols) if c not in piv_cols)
        one = CycScalar.one(self.conductor)
        zero = CycScalar.zero(self.conductor)
        # back-substitute over (numerator, denominator) pairs
        x: list[tuple[CycScalar, CycScalar]] = [(zero, one)] * self.cols
        x[free] = (one, one)
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            if pc > free:
                continue
            num, den = zero, one
            for c in range(pc + 1, self.cols):
                xc_n, xc_d = x[c]
                if xc_n.is_zero or ech[r][c].is_zero:
                    continue
                # num/den += ech[r][c] * xc_n/xc_d
                num = num * xc_d + ech[r][c] * xc_n * den
                den = den * xc_d
            p = ech[r][pc]
            x[pc] = (-num, den * p)
        dens = [d for _, d in x]
        vec = []
        for i, (n, _) in enumerate(x):
            prod = n
            for j, d in enumerate(dens):
                if j != i:
                    prod = prod * d
            vec.append(prod)
        # normalize: leading rational coefficient of the first nonzero entry positive
        lead = next((v for v in vec if not v.is_zero), None)
        if lead is not None:
            c = lead.coeffs[min(lead.coeffs)]
            if c < 0:
                vec = [-v for v in vec]
        return vec

    def invert(self):
        """Exact inverse, or a SingularReport with a kernel vector.

        Raises ValueError on non-square input, and InexactDivision when the
        matrix is invertible over the fraction field but the inverse does not
        live in the coefficient ring (possible only with formal variables).
        """
        if self.rows != self.cols:
            raise ValueError("cannot invert a non-square matrix")
        report = self._singular_report()
        if report is not None:
            return report
        n = self.rows
        # Fraction-free Gauss-Jordan on [A | I]: after step k every entry is a
        # (k+1)-minor of [A | I], so dividing by the previous pivot is exact.
        # It ends with [d I | d A^-1], d = +-det(A).
        one = CycScalar.one(self.conductor)
        zero = CycScalar.zero(self.conductor)
        m = [list(self.row(i)) + [one if j == i else zero for j in range(n)]
             for i in range(n)]
        prev = one
        for k in range(n):
            p = next(i for i in range(k, n) if not m[i][k].is_zero)
            m[k], m[p] = m[p], m[k]
            pivot, prow = m[k][k], m[k]
            for i in range(n):
                if i == k:
                    continue
                row = m[i]
                f = row[k]
                for j in range(2 * n):
                    if j == k:
                        continue
                    num = pivot * row[j] - f * prow[j]
                    row[j] = num if prev.is_one else num.exact_div(prev)
                row[k] = zero
            prev = pivot
        return ExactMatrix(n, n, self.conductor,
                           [m[i][n + j].exact_div(prev) for i in range(n) for j in range(n)])
