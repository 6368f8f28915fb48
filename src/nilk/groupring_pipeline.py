"""Construction of the explicit NK1(Z[Z/4]) representative.

Evaluate the words Y and Z over Z[i][x]; the product YZ is congruent to the
identity mod (2) and has determinant 1.  Reducing via i -> 1+eps recovers
the identity over F2[eps,x]/(eps^2) (the symbol lives in K2).  Lifting
through sigma -> i produces the 2x2 block over Z[Z/4][x]; the Kahler
differential map D certifies the symbol <eps, x+eps> is nontrivial.
`construct()` builds YZ and its lift once, each verified when built; the
identities `ledger.require` proves are recorded in the `checks` ledger of
the record (a NamedTuple), which the report reads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .ledger import Check, recording, require
from .matrices import Matrix
from .rings import (F2_X, PRINCIPAL_ONE_MINUS_SIGMA_SQ, PRINCIPAL_TWO, Z4_X,
                    ZI_X, GaussianInt, GroupRingZ4, Poly,
                    group_ring_from_gauss, ideal_member, psi, rho)
from .words import StWord, eval_word


def word_Y() -> StWord:
    """Y = e21(-x+1-i+(1-i)x^2) e12(1-i) e21(x+i-1) e12(i-1) over Z[i][x]."""
    x = ZI_X.var("x")
    i = ZI_X.const(GaussianInt(0, 1))
    one = ZI_X.one()
    return StWord(ZI_X, [
        (2, 1, -x + one - i + (one - i) * x * x),
        (1, 2, one - i),
        (2, 1, x + i - one),
        (1, 2, i - one),
    ])


def word_Z() -> StWord:
    """Z = e12(1) e21(-1) e12(1) e12((i-1)x-1) e21(1+(i-1)x) e12((i-1)x-1)."""
    x = ZI_X.var("x")
    i = ZI_X.const(GaussianInt(0, 1))
    one = ZI_X.one()
    c = (i - one) * x - one
    return StWord(ZI_X, [
        (1, 2, one), (2, 1, -one), (1, 2, one),
        (1, 2, c), (2, 1, one + (i - one) * x), (1, 2, c),
    ])


def yz_matrix() -> Matrix:
    """YZ over Z[i][x], verified to have det 1 and to be the identity mod (2)."""
    m = eval_word(word_Y(), 2) @ eval_word(word_Z(), 2)
    require("yz.det", "det(YZ) = 1", m.det(), m.ring.one())
    require("yz.congruent", "YZ - I entrywise in (2)",
            (m - Matrix.identity(m.ring, m.rows)).all_entries(
                lambda x: ideal_member(x, PRINCIPAL_TWO)))
    return m


def reduce_to_dual(m: Matrix) -> Matrix:
    """Entrywise i -> 1+eps, coefficients mod 2."""
    return m.map_entries(rho, rho(m.ring.zero()).ring)


def _halve(c: GaussianInt) -> GaussianInt:
    if c.re % 2 or c.im % 2:
        raise ValueError(f"coefficient {c} is not divisible by 2")
    return GaussianInt(c.re // 2, c.im // 2)


def lift_to_group_ring(m: Matrix) -> Matrix:
    """Lift through the isomorphism sigma -> i carrying (1-sigma^2) onto (2).

    Entrywise: entry - delta = 2g, return delta + (1-sigma^2)*ghat where
    ghat is the canonical lift g0 + g1*i -> g0 + g1*sigma.  Well-defined
    because (1-sigma^2)(1+sigma^2) = 0.  The map 2g -> (1-sigma^2)*ghat is
    additive, so it is applied to the nonzero entries of m - I.
    """
    one_minus_s2 = Z4_X.const(GroupRingZ4(1, 0, -1, 0))

    def lift_entry(d: Poly) -> Poly:
        ghat = d.coefficient_map(_halve, m.ring).coefficient_map(group_ring_from_gauss, Z4_X)
        return one_minus_s2 * ghat

    lifted = ((m - Matrix.identity(m.ring, m.rows)).map_entries(lift_entry, Z4_X)
              + Matrix.identity(Z4_X, m.rows))
    require("lift42.psi", "psi(lift) = YZ", lifted.map_entries(psi, m.ring), m)
    require("lift42.det", "det(lift) = 1", lifted.det(), Z4_X.one())
    return lifted


class Construction(NamedTuple):
    """YZ and its lift, the Theorem 4.2 block, each verified once when
    built, and the ledger of those checks by id."""

    yz: Matrix
    block: Matrix
    checks: dict[str, Check]


def construct() -> Construction:
    """Y, Z -> YZ -> the lift over Z[Z/4][x]."""
    with recording() as checks:
        yz = yz_matrix()
        block = lift_to_group_ring(yz)
    return Construction(yz, block, checks)


def theorem42_block() -> Matrix:
    """End-to-end: the lifted 2x2 block over Z[Z/4][x]."""
    return construct().block


def _z4_poly(spec: dict[int, tuple[int, int]]) -> Poly:
    """Polynomial in x with coefficients a + b*sigma given as {deg: (a, b)}."""
    return Poly(Z4_X, {(k,): GroupRingZ4(a, b, 0, 0) for k, (a, b) in spec.items()})


def theorem42_display() -> Matrix:
    """The stated A, B, C, D block, built verbatim from the displayed
    polynomials for entrywise comparison."""
    one = Z4_X.one()
    pos = Z4_X.const(GroupRingZ4(1, 0, -1, 0))    # 1 - sigma^2
    negp = Z4_X.const(GroupRingZ4(-1, 0, 1, 0))   # sigma^2 - 1
    a = one - pos * _z4_poly({0: (0, -1), 1: (1, 1), 2: (-2, 1), 3: (2, 0)})
    b = negp * _z4_poly({0: (1, 1), 1: (2, -1), 2: (-1, -2), 3: (-1, -3),
                         4: (-2, 2)})
    c = negp * _z4_poly({0: (-1, -1), 1: (2, 2), 2: (-5, 0), 3: (7, -2),
                         4: (-3, 3), 5: (2, -2)})
    d = one - pos * _z4_poly({0: (2, 1), 1: (1, -3), 2: (-2, -1), 3: (0, -4),
                              4: (-4, 6), 5: (-2, -4), 6: (0, 4)})
    return Matrix.from_rows(Z4_X, [[a, b], [c, d]])


def entry_shapes_ok(m: Matrix) -> bool:
    """Diagonal entries in 1 + (1-sigma^2)*R, off-diagonal in (1-sigma^2)*R."""
    return (m - Matrix.identity(m.ring, m.rows)).all_entries(
        lambda x: ideal_member(x, PRINCIPAL_ONE_MINUS_SIGMA_SQ))


def kahler_D(f: Poly, g: Poly) -> Poly:
    """D(<f eps, g + g' eps>) = f dg: the dx-coefficient over F2[x]."""
    if f.ring != F2_X or g.ring != F2_X:
        raise ValueError("Kahler map is defined over F2[x]")
    return f * g.derivative("x")


def symbol_D(a: Poly, b: Poly) -> Poly:
    """D(<a, b>) for a = f eps, b = g + g' eps over F2[eps,x]/(eps^2): f dg."""
    return kahler_D(a.coefficient_map(attrgetter("b"), F2_X),
                    b.coefficient_map(attrgetter("a"), F2_X))
