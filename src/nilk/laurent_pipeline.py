"""Construction of the explicit NK1(Q[t^2,t^3,z,z^-1]) representative.

The chain: lift the unit 1+st of Q[t,s]/(t^2) to an invertible A over
Q[t,s]; form the clutching idempotent pair B over the double ring; transport
by excision to the idempotent e2 over Q[t^2,t^3,s]; apply the loop map
Q |-> I + (z-1)Q; normalize away the diag(z,1) factor; finally convert the
result to a nilpotent block companion via Higman's trick.

`construct()` runs the chain once, through N.  Each stage proves its
defining identities with `ledger.require` as it builds them, and under
`construct()` every identity is recorded in the `checks` ledger of the
record, which the report reads instead of recomputing it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ledger import Check, recording, require
from .matrices import Matrix, block_companion
from .rings import (MONOMIAL_T2, Frozen, Poly, Q_TS, Q_TSZ, Q_TZ, Var, cached_field,
                    ideal_member, subring_member, truncate_t2)


def _st(k: int) -> Poly:
    """(st)^k over Q[t,s]."""
    return Q_TS.var("t", k) * Q_TS.var("s", k) if k else Q_TS.one()


def projector_P() -> Matrix:
    return Matrix.diag(Q_TS, [Q_TS.one(), Q_TS.zero()])


def _lift(a: Fraction, b: Fraction) -> Matrix:
    """The invertible lift over Q[t,s] of diag(u, u^{-1}) for the unit
    u = a + b*st of Q[t,s]/(t^2), a != 0: the rank-correction form
    [[u(1+w), -w], [w, v]] with v = a^{-1} - a^{-2} b st and w = 1 - uv.
    The verification gate, not the formula, is the contract."""
    if a == 0:
        raise ValueError("constant coefficient must be a nonzero rational")
    one = Q_TS.one()
    u = Q_TS.const(a) + Q_TS.const(b) * _st(1)
    v = Q_TS.const(Fraction(1, 1) / a) - Q_TS.const(b / (a * a)) * _st(1)
    w = one - u * v
    lift = Matrix.from_rows(Q_TS, [[u * (one + w), -w], [w, v]])
    red = lift.map_entries(truncate_t2, truncate_t2(one).ring)
    require("lift.reduction", "pi(A) = diag(1+st, 1-st)",
            red, Matrix.diag(red.ring, [truncate_t2(u), truncate_t2(v)]))
    require("lift.det", "det(A) = 1", lift.det(), one)
    return lift


def lift_A() -> Matrix:
    """The lift of diag(1+st, 1-st):
    [[1+st+s^2t^2+s^3t^3, -s^2t^2], [s^2t^2, 1-st]]."""
    return _lift(Fraction(1), Fraction(1))


def lift_A_stated_factors() -> list[Matrix]:
    """The four displayed elementary factors next to A.  Their product does
    not reproduce A in either order convention; recorded, not asserted."""
    u = Q_TS.one() + _st(1)
    return [
        Matrix.from_rows(Q_TS, [[1, u], [0, 1]]),
        Matrix.from_rows(Q_TS, [[1, 0], [-u, 1]]),
        Matrix.from_rows(Q_TS, [[1, u], [0, 1]]),
        Matrix.from_rows(Q_TS, [[0, -1], [1, 0]]),
    ]


class DoublePair(Frozen):
    """A pair of matrices (first, second) with first - second entrywise in
    I = (t^2): an element of the double ring D(R, I)."""

    _fields = ("first", "second")

    def __init__(self, first: Matrix, second: Matrix):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @cached_field
    def valid(self) -> bool:
        """first - second entrywise in (t^2), computed once per pair."""
        return (self.first - self.second).all_entries(
            lambda a: ideal_member(a, MONOMIAL_T2))


def double_idempotent_B() -> DoublePair:
    """The idempotent pair (B1, P) over D(Q[t,s], t^2 Q[t,s]) representing
    the clutched module of the unit 1+st."""
    b1 = Matrix.from_rows(Q_TS, [
        [Q_TS.one() - _st(4), -_st(2) * (Q_TS.one() + _st(1) + _st(2) + _st(3))],
        [_st(3) - _st(2), _st(4)],
    ])
    pair = DoublePair(b1, projector_P())
    require("clutch.B1_idempotent", "B1^2 = B1", b1.is_idempotent())
    require("clutch.B2_idempotent", "B2^2 = B2", pair.second.is_idempotent())
    require("clutch.pair_in_double", "B1 - B2 entrywise in (t^2)", pair.valid)
    return pair


def clutch_projector(a: Matrix, p: Matrix) -> Matrix:
    """e2 = (A^T)^{-1} P A^T (transposes: the clutching isomorphism acts on
    row vectors)."""
    at = a.transpose()
    e2 = at.inverse() @ p @ at
    require("excision.e2_idempotent", "e2^2 = e2", e2.is_idempotent())
    return e2


def excision_transport(b: DoublePair, e2: Matrix) -> None:
    """The excision transport [B] - [P,P]  ->  [e2-P, P] - [0, P]  ->
    [P, e2] - [P, P], verified stage by stage.  Stage 2 is e2 - P in (t^2);
    stage 3 is the pair (P, e2) in the double ring, the same membership (the
    ideal is closed under negation), with e2 over the subring.  Each of the
    two predicates is computed once and recorded under its own id too."""
    require("excision.stage1", "stage1: pair lies in the double ring", b.valid)
    congruent = (e2 - projector_P()).all_entries(lambda x: ideal_member(x, MONOMIAL_T2))
    in_subring = e2.all_entries(subring_member)
    require("excision.e2_congruent", "e2 - P entrywise in (t^2)", congruent)
    require("excision.e2_subring", "e2 entries lie in Q[t^2,t^3,s]", in_subring)
    require("excision.stage2", "stage2: unitized ideal part in (t^2)", congruent)
    require("excision.stage3", "stage3: pair over the t^2,t^3 subring",
            congruent and in_subring)


def loop_z(q: Matrix) -> Matrix:
    """The loop map [Q] -> [I + (z-1)Q], adjoining z as a Laurent variable.
    The inverse check proves Q^2 = Q too: (I + (z-1)Q)(I + (z^-1 - 1)Q) =
    I + (z + z^-1 - 2)(Q - Q^2), and z + z^-1 - 2 is a non-zero-divisor."""
    ring = q.ring.extend(Var("z", laurent=True))
    z = ring.var("z")
    qz = q.into(ring)
    out = Matrix.identity(ring, q.rows) + qz.scale(z - ring.one())
    inv = Matrix.identity(ring, q.rows) + qz.scale(z.invert() - ring.one())
    require("loop.invertible", "I + (z-1)Q invertible with inverse I + (z^-1 - 1)Q",
            out @ inv, Matrix.identity(ring, q.rows))
    return out


class K1Rep(NamedTuple):
    """Invertible matrix whose class dies under s -> 0."""

    matrix: Matrix

    def verify(self) -> Poly:
        """Check the defining properties; returns the determinant."""
        m = self.matrix
        d = m.det()
        require("rep31.det_unit", "determinant a recognized unit", d.is_unit())
        k = m.ring.index("s")  # a negative power of s has no value at 0: None fails
        regular = m.all_entries(lambda p: all(e[k] >= 0 for e in p.terms))
        require("rep31.s_to_zero", "maps to [I] under s -> 0",
                m.substitute("s") if regular else None,
                Matrix.identity(m.ring.drop("s"), m.rows))
        require("rep31.subring", "entries lie in Q[t^2,t^3,z,z^-1,s]",
                m.all_entries(subring_member))
        return d


def _represent(lift: Matrix) -> tuple[Matrix, K1Rep]:
    """The tail every unit shares: clutch, loop, then scale the first column
    by z^-1 to remove the diag(z,1) factor (the normalization the stated
    display and the companion blocks agree with; a row scaling would flip z
    and z^-1 off the diagonal), and verify.  Returns e2 and the rep."""
    e2 = clutch_projector(lift, projector_P())
    loops = loop_z(e2)
    zero, zinv = loops.ring.zero(), loops.ring.var("z").invert()
    rep = K1Rep(Matrix.from_rows(loops.ring, [[r.get(0, zero) * zinv, r.get(1, zero)]
                                              for r in loops.nonzero]))
    require("rep31.det", "det = 1", rep.verify(), rep.matrix.ring.one())
    return e2, rep


class Construction(NamedTuple):
    """Every artifact of one run of the chain, the blocks M_i and the
    Higman companion N included, each verified once when built, and the
    ledger of those checks by id."""

    lift: Matrix
    pair: DoublePair
    e2: Matrix
    rep: K1Rep
    blocks: list[Matrix]
    n10: Matrix
    checks: dict[str, Check]


def construct() -> Construction:
    """A -> pair B -> e2 -> transport stages -> representative -> N."""
    with recording() as checks:
        a = lift_A()
        pair = double_idempotent_B()
        e2, rep = _represent(a)
        excision_transport(pair, e2)
        blocks = decompose_M(rep)
        n10 = higman_companion(blocks)
    return Construction(a, pair, e2, rep, blocks, n10, checks)


def theorem31_matrix() -> K1Rep:
    """The 2x2 representative of Theorem 3.1."""
    return construct().rep


def e2_display() -> Matrix:
    """The stated form of e2, which carries an s^2t^3 where the conjugation
    yields s^2t^2; kept verbatim for the discrepancy report."""
    s, t = Q_TS.var("s"), Q_TS.var("t")
    return Matrix.from_rows(Q_TS, [
        [Q_TS.one() - _st(4), _st(2) - _st(3)],
        [_st(2) * (Q_TS.one() + _st(1) + s ** 2 * t ** 3 + _st(3)), _st(4)],
    ])


def theorem31_display() -> Matrix:
    """The stated final 2x2 display, verbatim: its (1,1) entry reads
    1 - (1+z^-1)s^4t^4, while the construction yields 1 - (1-z^-1)s^4t^4."""
    ring = Q_TSZ
    one = ring.one()
    s, t, z = ring.var("s"), ring.var("t"), ring.var("z")
    zi = z.invert()
    st = lambda k: s ** k * t ** k
    return Matrix.from_rows(ring, [
        [one - (one + zi) * st(4), (z - one) * (st(2) - st(3))],
        [(one - zi) * st(2) * (one + st(1) + st(2) + st(3)),
         one + (z - one) * st(4)],
    ])


def decompose_M(rep: K1Rep) -> list[Matrix]:
    """I - rep as sum_{i >= 1} s^i M_i: M_i is the coefficient of s^i."""
    m = Matrix.identity(rep.matrix.ring, rep.matrix.rows) - rep.matrix
    k = m.ring.index("s")
    degrees = {e[k] for row in m.nonzero for p in row.values() for e in p.terms}
    if degrees and min(degrees) < 1:
        raise ValueError("I - rep has a term of s-degree below 1: not an s -> 0 trivial class")
    tgt = m.ring.drop("s")
    return [m.map_entries(lambda p: p.coefficient("s", i), tgt)
            for i in range(1, max(degrees, default=0) + 1)]


def higman_companion(blocks: list[Matrix]) -> Matrix:
    """Block companion [[M1 .. Md], [I sub-diagonal]] of at least one block
    (block_companion checks their shapes); verified nilpotent within
    `Matrix.nilpotency_bound`, which holds over non-reduced rings too."""
    require("higman.s_part", "I - rep has a term in s", bool(blocks))
    comp = block_companion(blocks)
    require("higman.companion_nilpotent",
            "N nilpotent within Matrix.nilpotency_bound()",
            comp.nilpotency is not None)
    return comp


def n10_display() -> Matrix:
    """The stated 10x10 nilpotent companion, verbatim: the nonzero entries
    of its top two rows by column, over ones on the sub-diagonal."""
    ring = Q_TZ
    one = ring.one()
    z = ring.var("z")
    zi = z.invert()
    t = lambda k: ring.var("t", k)
    top = ({3: (one - z) * t(2), 5: (z - one) * t(3), 6: (one - zi) * t(4)},
           {2: (zi - one) * t(2), 4: (zi - one) * t(3), 6: (zi - one) * t(4),
            7: (one - z) * t(4), 8: (zi - one) * t(5)})
    return Matrix(ring, 10, 10, top + tuple({k: one} for k in range(8)))


def generalized_unit_rep(a: Fraction, b: Fraction) -> K1Rep:
    """Run the construction from the unit a + b*st of Q[t,s]/(t^2), a != 0;
    a = b = 1 gives the Theorem 3.1 representative."""
    return _represent(_lift(a, b))[1]
