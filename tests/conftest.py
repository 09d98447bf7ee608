"""Shared builders and independent oracles for the test suite.

The pointed family is the workhorse consistent instance: labels form Z/n for
odd n, S'[i][j] = s1 * q^(2 pi(i) pi(j)) with q = zeta_n and a relabeling
permutation pi, twists t_i = c * q^(pi(i)^2), all modified dimensions 1.
Gauss-sum algebra makes every check provably pass on it: the minus/plus
closures are the classical Gauss sums (independent of the column), and
S_{g,h} S_{h,-g} = (n * s1 * s2) Id exactly.
"""

from __future__ import annotations

import difflib
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from relmod.datum import (
    Degree,
    GradingSpec,
    ModularDatum,
    SBlock,
    SmallSubset,
    TranslationSpec,
)
from relmod.matrices import ExactMatrix, _modulus, _variable_residue
from relmod.scalars import CycScalar
from relmod.sl21.datum_gen import emit_datum


# The test inputs and golden files (see assert_golden).
DATA = Path(__file__).parent / "data"

# How many lines of unified diff a golden mismatch shows.
GOLDEN_DIFF_LINES = 40


def assert_golden(name: str, text: str) -> None:
    """Assert that text, encoded as UTF-8, is byte for byte the golden file
    DATA/name.  The file is read as bytes, so no newline is translated.  On
    a mismatch, text is written to a temporary file out of the checkout, and
    the failure names the first differing line, shows the first lines of a
    unified diff and names that file: a re-pin is an edit of the golden file,
    or a copy of the actual text over it."""
    got, want = text.encode(), (DATA / name).read_bytes()
    if got == want:
        return
    with tempfile.NamedTemporaryFile("wb", prefix="golden-", suffix="-" + name,
                                     delete=False) as f:
        f.write(got)
    old = want.decode(errors="replace").splitlines(keepends=True)
    new = text.splitlines(keepends=True)
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
    # a last line with no newline is marked as diff(1) marks it
    old, new = ([line if line.endswith("\n") else line + "\n\\ No newline at end of file\n"
                 for line in lines] for lines in (old, new))
    diff = list(difflib.unified_diff(old, new, f"tests/data/{name}", f.name, n=1))
    raise AssertionError(
        f"{name} differs from its golden file at line {first + 1}; the actual text is in "
        f"{f.name}\n" + "".join(diff[:GOLDEN_DIFF_LINES]))


# Degree texts that parse_degree rejects: each is something Degree.__str__
# never prints (an empty finite component, a shift without its sign, a decimal).
MALFORMED_DEGREES = ("", " ", "2a3", "a1/2", "1,,0|a", ",|a", "|a", "1,0|", "0.5", "1e3",
                     "a+", "a a")


def zero_matrix(rows: int, cols: int, conductor: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, conductor, [CycScalar.zero(conductor)] * (rows * cols))


def diagonal_matrix(diag: list[CycScalar], conductor: int) -> ExactMatrix:
    n = len(diag)
    zero = CycScalar.zero(conductor)
    return ExactMatrix(n, n, conductor,
                       [diag[i] if i == j else zero for i in range(n) for j in range(n)])


def random_unit(rng: random.Random, conductor: int) -> CycScalar:
    q = Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))
    return CycScalar.rational(q, conductor) * CycScalar.zeta(conductor, rng.randrange(conductor))


def random_cyclotomic(rng: random.Random, conductor: int, height: int = 10) -> CycScalar:
    out = CycScalar.zero(conductor)
    for _ in range(rng.randint(1, 3)):
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        out = out + CycScalar.rational(Fraction(num, den), conductor) \
            * CycScalar.zeta(conductor, rng.randrange(conductor))
    return out


def random_matrix(rng: random.Random, rows: int, cols: int, conductor: int,
                  height: int = 10) -> ExactMatrix:
    return ExactMatrix(rows, cols, conductor,
                       [random_cyclotomic(rng, conductor, height)
                        for _ in range(rows * cols)])


def random_invertible(rng: random.Random, n: int, conductor: int) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n, conductor, height=4)
        if m.rank() == n:
            return m


def _field_gauss_jordan(rows: list[list[CycScalar]], ncols: int) -> int:
    """Reduce rows in place on their first ncols columns by pivoted
    Gauss-Jordan elimination with exact division in the cyclotomic field (no
    fraction-free tricks): each pivot becomes 1 and is cleared above and
    below.  Returns the rank."""
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if not rows[i][c].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [inv * e for e in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def field_gauss_rank(m: ExactMatrix) -> int:
    """Independent rank oracle (see _field_gauss_jordan)."""
    return _field_gauss_jordan([list(m.row(i)) for i in range(m.rows)], m.cols)


def field_gauss_inverse(m: ExactMatrix) -> ExactMatrix:
    """Independent inverse of an invertible square matrix: _field_gauss_jordan
    on [M | I].  The inverse is unique and each entry's form canonical, so it
    is the inverse any other route gives."""
    n = m.rows
    one, zero = CycScalar.one(m.conductor), CycScalar.zero(m.conductor)
    rows = [list(m.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
    assert _field_gauss_jordan(rows, n) == n
    return ExactMatrix(n, n, m.conductor, [e for row in rows for e in row[n:]])


# ---------------------------------------------------------------------------
# consistent pointed instances
# ---------------------------------------------------------------------------

def pointed_datum(n: int, rng: random.Random | None = None) -> ModularDatum:
    """A fully consistent datum on Z/n labels (n odd), randomized by a
    relabeling permutation and global unit scales."""
    return premetric_datum(n, 1, rng)


def relabelling(n: int, rng: random.Random) -> list[int]:
    """The permutation pi of Z/n that premetric_datum draws first from rng:
    label i stands for the group element pi(i)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def premetric_datum(n: int, k: int, rng: random.Random | None = None) -> ModularDatum:
    """pointed_datum with every exponent scaled by k: the pre-metric group
    Z/n (n odd) with the quadratic form q(i) = zeta_n^(k i^2), whose
    bicharacter zeta_n^(2k ij) has the radical R = {i : n | 2ki} of order
    gcd(k, n).  Labels whose elements differ by R have equal rows, so every
    S-matrix has rank n / gcd(k, n), and k = 1 gives pointed_datum.  The
    planted zeta is that of k = 1, which the products meet only when R = 0."""
    return premetric_product_datum(((n, k),), rng)


def group_element(factors, e: int) -> tuple[int, ...]:
    """The coordinates of element e of Z/n_1 x ... x Z/n_r, numbered in mixed
    radix with the last factor running fastest."""
    out = []
    for n, _ in reversed(factors):
        e, x = divmod(e, n)
        out.append(x)
    return tuple(reversed(out))


def premetric_product_datum(factors, rng: random.Random | None = None) -> ModularDatum:
    """premetric_datum on the product Z/n_1 x ... x Z/n_r of factors
    ((n_1, k_1), ...), each n odd, with the form q(x) = prod zeta_n^(k x^2)
    over its factors, written over the conductor N = lcm(n_1, ..., n_r).  Its
    radical is the product of the factors' radicals, so every S-matrix has
    rank |G| / prod gcd(k, n).  Label i is element i's coordinates joined by
    commas ("2,7"; one factor gives "i") and stands for the element pi(i) of
    relabelling(|G|, rng).  One factor gives premetric_datum."""
    assert all(f % 2 == 1 for f, _ in factors)
    rng = rng or random.Random(0)
    n = math.prod(f for f, _ in factors)
    c = math.lcm(*(f for f, _ in factors))  # the conductor N
    perm = relabelling(n, rng)
    s1 = random_unit(rng, c)
    s2 = random_unit(rng, c)
    ct = random_unit(rng, c)
    elements = [group_element(factors, perm[i]) for i in range(n)]

    def power(i, j, m):
        # m * sum over factors of (N / f) k x_i x_j, mod N
        return m * sum(c // f * k * x * y for (f, k), x, y
                       in zip(factors, elements[i], elements[j])) % c

    q2 = lambda i, j: CycScalar.zeta(c, power(i, j, 2))
    q2inv = lambda i, j: CycScalar.zeta(c, power(i, j, -2))

    one = CycScalar.one(c)
    g = Degree(alpha=1)
    ng = Degree(alpha=-1)
    labels = tuple(",".join(map(str, group_element(factors, i))) for i in range(n))
    dims = tuple([one] * n)
    twists = tuple(ct * CycScalar.zeta(c, power(i, i, 1)) for i in range(n))

    def block(rd, cd, fn, scale):
        rows = [[scale * fn(i, j) for j in range(n)] for i in range(n)]
        return SBlock(rd, cd, ExactMatrix.from_rows(rows, c), labels, labels)

    grading = GradingSpec(cyclic_factors=(), has_generic_torus=True,
                          small=SmallSubset("list", (Degree(),)))
    translation = TranslationSpec(cyclic_factors=(), qdim_table=(((), one),),
                                  psi=(), no_self_extension=True)
    return ModularDatum(
        conductor=c, grading=grading, translation=translation,
        degrees=(g, ng),
        index_sets={g: labels, ng: labels},
        dims={g: dims, ng: dims},
        twists={g: twists, ng: twists},
        sprime=(
            block(g, g, q2, s1),
            block(ng, ng, q2, s1),
            block(ng, g, q2inv, s2),
            block(g, ng, q2inv, s2),
        ),
        orbit_count=n,
        dual_involution={g: tuple(range(n)), ng: tuple(range(n))},
        extra={"planted": {"zeta": str(CycScalar.rational(n, c) * s1 * s2)}})


def su2_datum(k: int, even: bool = False) -> ModularDatum:
    """The Verlinde data of SU(2)_k (Bakalov and Kirillov, "Lectures on tensor
    categories and modular functors", AMS 2001) over the conductor
    N = 4(k+2), with q = zeta_N^2 and the quantum integer
    [n]_q = (q^n - q^-n) / (q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n).
    Label j = 0 ... k (printed "j") has S_ij = [(i+1)(j+1)]_q, d_j = [j+1]_q
    and theta_j = zeta_N^(j(j+2)); S'_ij = S_ij / d_j is the polynomial
    [i+1]_(q^(j+1)), since [ab]_q / [b]_q = [a]_(q^b).  The four blocks at
    the degrees a and -a all carry S', and the dual involution is the
    identity.  S is real and symmetric with S^2 = D^2 Id, D^2 = sum d_j^2, so
    every check holds with zeta = D^2, and Delta_+ Delta_- = D^2; S_ij = 0
    where (k+2) | (i+1)(j+1), which rank-constancy's hypothesis excludes when
    k + 2 is composite.

    even=True (k even) keeps the even labels 0, 2, ..., k: a premodular
    subcategory whose Mueger centre is {0, k} (Mueger, "On the structure of
    modular categories", Proc. London Math. Soc. 87, 2003).  Since
    q^(k+2) = -1, S_(i,k-j) = (-1)^i S_ij, so columns j and k - j of its S
    are equal, every S-matrix has rank k/4 + 1 when 4 | k and (k+2)/4 when
    k = 2 (mod 4), the super-modular case (Bruillard et al., "Fermionic
    modular categories and the 16-fold way", J. Math. Phys. 58, 2017), and
    the kernel is spanned by the e_j - e_(k-j)."""
    assert not even or k % 2 == 0
    c = 4 * (k + 2)
    js = range(0, k + 1, 2) if even else range(k + 1)
    zero = CycScalar.zero(c)

    def qint(n, step=1):  # [n]_(q^step)
        return sum((CycScalar.zeta(c, 2 * step * (n - 1 - 2 * r)) for r in range(n)), zero)

    one = CycScalar.one(c)
    g = Degree(alpha=1)
    ng = Degree(alpha=-1)
    labels = tuple(str(j) for j in js)
    dims = tuple(qint(j + 1) for j in js)
    twists = tuple(CycScalar.zeta(c, j * (j + 2)) for j in js)
    sprime = ExactMatrix.from_rows([[qint(i + 1, j + 1) for j in js] for i in js], c)
    grading = GradingSpec(cyclic_factors=(), has_generic_torus=True,
                          small=SmallSubset("list", (Degree(),)))
    translation = TranslationSpec(cyclic_factors=(), qdim_table=(((), one),),
                                  psi=(), no_self_extension=True)
    return ModularDatum(
        conductor=c, grading=grading, translation=translation,
        degrees=(g, ng),
        index_sets={g: labels, ng: labels},
        dims={g: dims, ng: dims},
        twists={g: twists, ng: twists},
        sprime=tuple(SBlock(rd, cd, sprime, labels, labels)
                     for rd, cd in ((g, g), (ng, ng), (ng, g), (g, ng))),
        orbit_count=len(labels),
        dual_involution={g: tuple(range(len(labels))), ng: tuple(range(len(labels)))})


def pointed_zeta(datum: ModularDatum) -> CycScalar:
    from relmod.scalars import parse_scalar
    return parse_scalar(datum.extra["planted"]["zeta"], datum.conductor)


# ---------------------------------------------------------------------------
# planted P = zeta * Id instances
# ---------------------------------------------------------------------------

def planted_modularity_datum(rng: random.Random, size: int,
                             conductor: int = 5) -> tuple[ModularDatum, CycScalar]:
    """Random datum whose (g,h), (h,-g) blocks satisfy S_{g,h} S_{h,-g} = zeta Id
    by construction; returns (datum, planted zeta)."""
    g = Degree(alpha=1)
    h = Degree(alpha=1, shift=Fraction(1))
    ng = Degree(alpha=-1)
    a = random_invertible(rng, size, conductor)
    ainv = field_gauss_inverse(a)
    assert a @ ainv == diagonal_matrix([CycScalar.one(conductor)] * size, conductor)
    zeta = random_unit(rng, conductor)
    d_h = [random_unit(rng, conductor) for _ in range(size)]
    d_ng = [random_unit(rng, conductor) for _ in range(size)]
    d_g = [random_unit(rng, conductor) for _ in range(size)]
    sp_gh = a.scale_columns([x.inverse() for x in d_h])
    sp_hng = ainv.scale_columns([zeta * x.inverse() for x in d_ng])
    labels = tuple(str(i) for i in range(size))
    grading = GradingSpec(cyclic_factors=(), has_generic_torus=True,
                          small=SmallSubset("list", (Degree(),)))
    translation = TranslationSpec(cyclic_factors=(),
                                  qdim_table=(((), CycScalar.one(conductor)),), psi=())
    datum = ModularDatum(
        conductor=conductor, grading=grading, translation=translation,
        degrees=(g, h, ng),
        index_sets={g: labels, h: labels, ng: labels},
        dims={g: tuple(d_g), h: tuple(d_h), ng: tuple(d_ng)},
        twists={g: tuple(random_unit(rng, conductor) for _ in range(size)),
                h: tuple(random_unit(rng, conductor) for _ in range(size)),
                ng: tuple(random_unit(rng, conductor) for _ in range(size))},
        sprime=(SBlock(g, h, sp_gh, labels, labels),
                SBlock(h, ng, sp_hng, labels, labels)),
        orbit_count=size)
    return datum, zeta


def planted_datum(size: int, seed: int) -> ModularDatum:
    """The datum of planted_modularity_datum(random.Random(seed), size), from
    arguments that JSON can carry (tools/instances.json)."""
    return planted_modularity_datum(random.Random(seed), size)[0]


def perturb_block(datum: ModularDatum, block_index: int, i: int, j: int,
                  delta: CycScalar) -> ModularDatum:
    """Copy of datum with one S' entry shifted by delta."""
    import dataclasses
    blocks = list(datum.sprime)
    b = blocks[block_index]
    entries = list(b.matrix.entries)
    entries[i * b.matrix.cols + j] = entries[i * b.matrix.cols + j] + delta
    blocks[block_index] = SBlock(b.row_degree, b.col_degree,
                                 ExactMatrix(b.matrix.rows, b.matrix.cols,
                                             b.matrix.conductor, entries),
                                 b.row_labels, b.col_labels)
    return dataclasses.replace(datum, sprime=tuple(blocks))


def perturbed_emitted_datum(ell: int, primes: int = 1) -> ModularDatum:
    """emit_datum(ell) with row and column 1 of its S' block multiplied by
    t = (x - r_0) ... (x - r_(primes-1)), where r_k is the residue of the
    formal variable x at the k-th prime of the rank certificate (_modulus).
    Scaling both keeps S_g symmetric, so the datum loads, and changes no
    rank; but t vanishes mod each of those primes, where row and column 1 of
    the F_p image are zero, so the certificate closes only at the next one."""
    import dataclasses
    datum = emit_datum(ell)
    x = CycScalar.variable("x", ell)
    t = CycScalar.one(ell)
    for k in range(primes):
        t = t * (x - CycScalar.rational(_variable_residue("x", _modulus(ell, k)[0]), ell))
    (b,) = datum.sprime
    m = b.matrix
    scale = [t if i == 1 else CycScalar.one(ell) for i in range(m.cols)]
    entries = [e * scale[i] * scale[j] for i, row in enumerate(m.to_rows())
               for j, e in enumerate(row)]
    return dataclasses.replace(datum, sprime=(SBlock(
        b.row_degree, b.col_degree, ExactMatrix(m.rows, m.cols, ell, entries),
        b.row_labels, b.col_labels),))


def is_unread(m: ExactMatrix) -> bool:
    """Whether m is text-backed (ExactMatrix.from_texts) and its entries are
    not parsed yet.  The slot is read past __getattr__, so asking parses
    nothing."""
    try:
        ExactMatrix.entries.__get__(m)
    except AttributeError:
        return True
    return False
