"""Formal words in elementary/Steinberg generators x_ij(a), and their
evaluation to matrices.

A StWord, a plain class on Frozen, holds a ring and a tuple of letters, each
the triple (i, j, a) for x_ij(a).  Its constructor is the one place a letter
is checked: i != j, and a taken through Ring.element.  x_ij(a)^-1 is
x_ij(-a), so inverse() negates each parameter.  eval_word applies each
letter as a column operation on term maps with the ring's product kernel
(Ring.products), as Matrix.__matmul__ does, and builds one Poly per changed
entry; a letter x_ij(0) = I does no work.

Words are never rewritten with Steinberg relations; any claimed equality of
words is checked at the evaluation level only.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .matrices import Matrix
from .rings import F2E_X, DualF2, Frozen, NotAUnitError, Poly, Ring


class StWord(Frozen):
    """The product of the letters x_ij(a), each stored as (i, j, a) with a a
    Poly over ring; copy and pickle build the word here again."""

    _fields = ("ring", "letters")

    def __init__(self, ring: Ring, letters: Iterable[tuple[int, int, object]] = ()):
        checked = []
        for i, j, a in letters:
            if i == j:
                raise ValueError("generator indices must differ")
            checked.append((i, j, ring.element(a)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "letters", tuple(checked))

    def __mul__(self, other: "StWord") -> "StWord":
        # ring.element refuses a letter of another ring
        return StWord(self.ring, self.letters + other.letters)

    def inverse(self) -> "StWord":
        return StWord(self.ring, ((i, j, -a) for i, j, a in reversed(self.letters)))


def eval_word(w: StWord, n: int) -> Matrix:
    """Ordered product of elementary matrices in GL_n.

    Right multiplication by x_ij(a) adds column i times a to column j, so
    each letter is applied as that column operation; no unit condition needed.
    The column operations act on the matrix's {column: entry} rows: each
    row with an entry in column i sums entry_j + entry_i * a on term maps
    with the ring's kernel, builds one Poly of the sum, and drops the entry
    when it cancels.  A letter x_ij(0) is the identity: its indices are
    checked as any letter's, and then it is skipped, with no kernel call
    and no Poly.
    """
    ring = w.ring
    products = ring.products
    rows = [{i: ring.one()} for i in range(n)]
    for i, j, a in w.letters:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"letter indices ({i}, {j}) out of range for size {n}")
        i, j, a = i - 1, j - 1, a.terms
        if not a:  # x_ij(0) = I, checked above like any letter
            continue
        for r in rows:
            if i in r:
                e = Poly(ring, products(dict(r[j].terms) if j in r else {}, r[i].terms, a))
                if e.terms:
                    r[j] = e
                else:
                    r.pop(j, None)
    return Matrix(ring, n, n, tuple(rows))


def expand_h(i: int, j: int, a: Poly, ainv: Optional[Poly] = None) -> StWord:
    """h_ij(a) = x_ij(a) x_ji(-a^{-1}) x_ij(a) x_ij(-1) x_ji(1) x_ij(-1);
    evaluates to the diagonal matrix with a at i and a^{-1} at j.  A caller
    that has a^{-1} already passes it as ainv."""
    ring = a.ring
    if ainv is None:
        ainv = a.try_invert()
    if ainv is None:
        raise NotAUnitError(f"h_ij needs a unit, got {a}")
    one = ring.one()
    return StWord(ring, [
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
    head = StWord(ring, [
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
    head = StWord(F2E_X, [
        (2, 1, -b - a * b * b), (1, 2, -a),
        (2, 1, b), (1, 2, a),
    ])
    return head * expand_h(1, 2, F2E_X.one() - a * b).inverse()
