"""Formal words in elementary/Steinberg generators x_ij(a), and their
evaluation to matrices.

Words are never rewritten with Steinberg relations; any claimed equality of
words is checked at the evaluation level only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .matrices import Matrix
from .rings import (F2E_X, DualF2, NotAUnitError, Poly, Ring, RingMismatchError,
                    add_products)


@dataclass(frozen=True)
class Letter:
    i: int
    j: int
    param: Poly
    inverted: bool = False

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("generator indices must differ")


@dataclass(frozen=True)
class StWord:
    ring: Ring
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for l in self.letters:
            if l.param.ring is not self.ring and l.param.ring != self.ring:
                raise RingMismatchError("letter parameter in wrong ring")

    def __mul__(self, other: "StWord") -> "StWord":
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError("concatenating words over different rings")
        return StWord(self.ring, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "StWord":
        return StWord(self.ring, tuple(
            Letter(l.i, l.j, l.param, not l.inverted)
            for l in reversed(self.letters)))


def word(ring: Ring, letters: Iterable[tuple[int, int, object]]) -> StWord:
    out = []
    for i, j, a in letters:
        if not isinstance(a, Poly):
            a = ring.const(a)
        out.append(Letter(i, j, a))
    return StWord(ring, tuple(out))


def eval_word(w: StWord, n: int) -> Matrix:
    """Ordered product of elementary matrices in GL_n.

    Right multiplication by x_ij(a) adds column i times a to column j, so
    each letter is applied as that column operation.  An inverted letter
    contributes x_ij(-a); no unit condition needed.  The column operations
    act on the matrix's {column: entry} rows, and drop an entry that cancels.
    """
    one, zero = w.ring.one(), w.ring.zero()
    rows = [{i: one} for i in range(n)]
    for l in w.letters:
        if not (1 <= l.i <= n and 1 <= l.j <= n):
            raise ValueError(f"letter indices ({l.i}, {l.j}) out of range for size {n}")
        i, j = l.i - 1, l.j - 1
        a = -l.param if l.inverted else l.param
        for r in rows:
            if i in r:
                r[j] = Poly(w.ring, add_products(dict(r.get(j, zero).terms), r[i], a))
                if not r[j].terms:
                    del r[j]
    return Matrix(w.ring, n, n, tuple(rows))


def expand_h(i: int, j: int, a: Poly, ainv: Optional[Poly] = None) -> StWord:
    """h_ij(a) = x_ij(a) x_ji(-a^{-1}) x_ij(a) x_ij(-1) x_ji(1) x_ij(-1);
    evaluates to the diagonal matrix with a at i and a^{-1} at j.  A caller
    that has inverted a already passes a^{-1} as ainv."""
    ring = a.ring
    if ainv is None:
        ainv = a.try_invert()
    if ainv is None:
        raise NotAUnitError(f"h_ij needs a unit, got {a}")
    one = ring.one()
    return word(ring, [
        (i, j, a), (j, i, -ainv), (i, j, a),
        (i, j, -one), (j, i, one), (i, j, -one),
    ])


def dennis_stein_word(i: int, j: int, a: Poly, b: Poly) -> StWord:
    """The symbol <a, b>, defined when 1 - ab is a unit:

        x_ji(-b(1-ab)^{-1}) x_ij(-a) x_ji(b) x_ij((1-ab)^{-1} a) h_ij(1-ab)^{-1}

    Its evaluation in GL is always the identity matrix.
    """
    ring = a.ring
    u = ring.one() - a * b
    uinv = u.try_invert()
    if uinv is None:
        raise NotAUnitError(f"1 - ab = {u} is not a recognized unit")
    head = word(ring, [
        (j, i, -(b * uinv)), (i, j, -a), (j, i, b), (i, j, uinv * a),
    ])
    return head * expand_h(i, j, u, uinv).inverse()


def dual_symbol_args() -> tuple[Poly, Poly]:
    """(eps, x + eps), the arguments of the symbol <eps, x + eps>."""
    eps = F2E_X.const(DualF2(0, 1))
    return eps, F2E_X.var("x") + eps


def dual_symbol_word() -> StWord:
    """<eps, x + eps>, with (i, j) = (1, 2)."""
    return dennis_stein_word(1, 2, *dual_symbol_args())


def reduced_X_word() -> StWord:
    """The relation-reduced form of <a, b> = <eps, x + eps>, using a^2 = 0 and
    (1 - ab)^{-1} = 1 + ab with ab = eps x:

        x_21(-x-eps-eps x^2) x_12(-eps) x_21(x+eps) x_12(eps) h_12(1-eps x)^{-1}
    """
    a, b = dual_symbol_args()
    head = word(F2E_X, [
        (2, 1, -b - a * b * b), (1, 2, -a),
        (2, 1, b), (1, 2, a),
    ])
    return head * expand_h(1, 2, F2E_X.one() - a * b).inverse()
