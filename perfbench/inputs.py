"""Seeded input families for the benchmark, independent of the test suite.

The families follow the consistent instances used by the tests (pointed data
on Z/n and planted relative-modularity data), but are generated here so that
an edit to the tests cannot change a workload.  Every generator takes a
``random.Random`` and is deterministic in it.

The planted family is built from a triangular factorisation A = L U with
unit diagonal, so A^-1 is obtained by substitution and set-up never calls
the library's elimination or inverse.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from relmod.datum import (
    Degree,
    GradingSpec,
    ModularDatum,
    SBlock,
    SmallSubset,
    TranslationSpec,
)
from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar

G = Degree(alpha=1)
NG = Degree(alpha=-1)
H = Degree(alpha=1, shift=Fraction(1))

_UNIT_NUMS = (1, 2, 3, -1, -2, 5)
_UNIT_DENS = (1, 2, 3)


def random_unit_parts(rng: random.Random, conductor: int) -> tuple[Fraction, int]:
    """A unit q * zeta^k as (q, k), so its inverse needs no division."""
    q = Fraction(rng.choice(_UNIT_NUMS), rng.choice(_UNIT_DENS))
    return q, rng.randrange(conductor)


def unit(parts: tuple[Fraction, int], conductor: int) -> CycScalar:
    q, k = parts
    return CycScalar.rational(q, conductor) * CycScalar.zeta(conductor, k)


def unit_inverse(parts: tuple[Fraction, int], conductor: int) -> CycScalar:
    q, k = parts
    return CycScalar.rational(1 / q, conductor) * CycScalar.zeta(conductor, -k)


def random_unit(rng: random.Random, conductor: int) -> CycScalar:
    return unit(random_unit_parts(rng, conductor), conductor)


def random_cyclotomic(rng: random.Random, conductor: int) -> CycScalar:
    """One to three terms c * zeta^k with |num c|, den c <= 4."""
    out = CycScalar.zero(conductor)
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        out = out + CycScalar.rational(c, conductor) * CycScalar.zeta(conductor, rng.randrange(conductor))
    return out


def _grading() -> GradingSpec:
    return GradingSpec(cyclic_factors=(), has_generic_torus=True,
                       small=SmallSubset("list", (Degree(),)))


# ---------------------------------------------------------------------------
# pointed data on Z/n
# ---------------------------------------------------------------------------

def pointed_datum(n: int, rng: random.Random) -> tuple[ModularDatum, CycScalar]:
    """Consistent datum on Z/n labels (n odd): S'[i][j] = s1 * q^(2 pi(i) pi(j)).

    Returns the datum and its planted modularity parameter n * s1 * s2, which
    every (g, h) pair over the degrees a and -a must report.
    """
    if n % 2 == 0:
        raise ValueError(f"pointed family needs odd n, got {n}")
    perm = list(range(n))
    rng.shuffle(perm)
    s1 = random_unit(rng, n)
    s2 = random_unit(rng, n)
    ct = random_unit(rng, n)
    one = CycScalar.one(n)
    labels = tuple(str(i) for i in range(n))
    dims = tuple([one] * n)
    twists = tuple(ct * CycScalar.zeta(n, (perm[i] * perm[i]) % n) for i in range(n))

    def block(rd, cd, sign, scale):
        rows = [[scale * CycScalar.zeta(n, (sign * 2 * perm[i] * perm[j]) % n)
                 for j in range(n)] for i in range(n)]
        return SBlock(rd, cd, ExactMatrix.from_rows(rows, n), labels, labels)

    translation = TranslationSpec(cyclic_factors=(), qdim_table=(((), one),),
                                  psi=(), no_self_extension=True)
    zeta = CycScalar.rational(n, n) * s1 * s2
    datum = ModularDatum(
        conductor=n, grading=_grading(), translation=translation,
        degrees=(G, NG),
        index_sets={G: labels, NG: labels},
        dims={G: dims, NG: dims},
        twists={G: twists, NG: twists},
        sprime=(block(G, G, 1, s1), block(NG, NG, 1, s1),
                block(NG, G, -1, s2), block(G, NG, -1, s2)),
        orbit_count=n,
        dual_involution={G: tuple(range(n)), NG: tuple(range(n))})
    return datum, zeta


# ---------------------------------------------------------------------------
# planted S_{g,h} S_{h,-g} = zeta * Id
# ---------------------------------------------------------------------------

def _mat_mul(a: list[list[CycScalar]], b: list[list[CycScalar]], conductor: int):
    n, m, p = len(a), len(b), len(b[0])
    zero = CycScalar.zero(conductor)
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = zero
            for k in range(m):
                if not a[i][k].is_zero and not b[k][j].is_zero:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def planted_pair(rng: random.Random, size: int, conductor: int):
    """A random invertible A with its exact inverse, via A = L U."""
    zero, one = CycScalar.zero(conductor), CycScalar.one(conductor)
    diag = [random_unit_parts(rng, conductor) for _ in range(size)]
    lower = [[random_cyclotomic(rng, conductor) if j < i else (one if i == j else zero)
              for j in range(size)] for i in range(size)]
    upper = [[random_cyclotomic(rng, conductor) if j > i
              else (unit(diag[i], conductor) if i == j else zero)
              for j in range(size)] for i in range(size)]
    # L^-1 by forward substitution (unit diagonal, no division)
    linv = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i):
            acc = zero
            for k in range(j, i):
                acc = acc + lower[i][k] * linv[k][j]
            linv[i][j] = -acc
    # U^-1 by back substitution with the known inverses of the diagonal units
    uinv = [[zero] * size for _ in range(size)]
    for i in range(size - 1, -1, -1):
        di = unit_inverse(diag[i], conductor)
        uinv[i][i] = di
        for j in range(i + 1, size):
            acc = zero
            for k in range(i + 1, j + 1):
                acc = acc + upper[i][k] * uinv[k][j]
            uinv[i][j] = -(di * acc)
    return _mat_mul(lower, upper, conductor), _mat_mul(uinv, linv, conductor)


def planted_datum(rng: random.Random, size: int) -> tuple[ModularDatum, CycScalar]:
    """Datum over Q(zeta_5) whose (a, a+1) and (a+1, -a) blocks satisfy S S = zeta * Id."""
    conductor = 5
    a, ainv = planted_pair(rng, size, conductor)
    zeta = random_unit(rng, conductor)
    d_g = tuple(random_unit(rng, conductor) for _ in range(size))
    d_h = [random_unit_parts(rng, conductor) for _ in range(size)]
    d_ng = [random_unit_parts(rng, conductor) for _ in range(size)]
    sp_gh = [[a[i][j] * unit_inverse(d_h[j], conductor) for j in range(size)]
             for i in range(size)]
    sp_hng = [[zeta * ainv[i][j] * unit_inverse(d_ng[j], conductor) for j in range(size)]
              for i in range(size)]
    labels = tuple(str(i) for i in range(size))
    translation = TranslationSpec(cyclic_factors=(),
                                  qdim_table=(((), CycScalar.one(conductor)),), psi=())
    datum = ModularDatum(
        conductor=conductor, grading=_grading(), translation=translation,
        degrees=(G, H, NG),
        index_sets={G: labels, H: labels, NG: labels},
        dims={G: d_g, H: tuple(unit(p, conductor) for p in d_h),
              NG: tuple(unit(p, conductor) for p in d_ng)},
        twists={deg: tuple(random_unit(rng, conductor) for _ in range(size))
                for deg in (G, H, NG)},
        sprime=(SBlock(G, H, ExactMatrix.from_rows(sp_gh, conductor), labels, labels),
                SBlock(H, NG, ExactMatrix.from_rows(sp_hng, conductor), labels, labels)),
        orbit_count=size)
    return datum, zeta


# ---------------------------------------------------------------------------
# full-rank principal blocks of the emitted sl(2|1) datum
# ---------------------------------------------------------------------------

def principal_block_datum(datum: ModularDatum, positions: list[int]) -> ModularDatum:
    """The datum restricted to the labels at ``positions`` of its one degree."""
    (g,) = datum.degrees
    block = datum.sprime[0]
    rows = [[block.matrix[i, j] for j in positions] for i in positions]
    labels = tuple(datum.index_sets[g][p] for p in positions)
    return dataclasses.replace(
        datum,
        index_sets={g: labels},
        dims={g: tuple(datum.dims[g][p] for p in positions)},
        twists={g: tuple(datum.twists[g][p] for p in positions)},
        sprime=(SBlock(g, g, ExactMatrix.from_rows(rows, datum.conductor), labels, labels),),
        extra={})


def orbit_representatives(datum: ModularDatum) -> list[int]:
    """Positions of the rows that carry no partner factor in an emitted datum.

    Their principal blocks hold distinct symmetric unknowns, so they have
    full rank.
    """
    (g,) = datum.degrees
    names = datum.index_sets[g]
    pos = {name: i for i, name in enumerate(names)}
    reps = []
    for a, b in datum.extra["x-sl21"]["row_pairs"]:
        rep = min(tuple(a), tuple(b))
        reps.append(pos[f"{rep[0]}_{rep[1]}"])
    return sorted(reps)
