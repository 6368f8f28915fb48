"""Exact matrices over the rings in nilk.rings.

Storage is sparse: per row, a dict {column: Poly} of its nonzero entries
(Matrix.nonzero); no zero is stored, so equal matrices have equal rows, and
the dense view Matrix.entries is derived.  Every walk visits nonzeros only:
the entrywise maps (Matrix.map_entries of one matrix, Matrix._entrywise of
two) send zeros to zero, and the product multiplies each A[i, k] into row
k of B, summing each output entry's products in one term map
(rings.add_products, the generated kernel for the ring's exponent arity,
whose source depends on the arity only), normalized once.
block_companion is the one block builder; it checks its blocks: at least
one, each n x n, all over one ring.  det and the Cayley-Hamilton adjugate
inverse both come from one division-free Berkowitz characteristic
polynomial, summed the same way.

Over Q the repeated products run on int coefficients.  For d the lcm of
the denominators of A's coefficients (_denominator), d*A has int
coefficients (_times on each entry), and
    c_i(dA) = d^i c_i(A),    det(dA) = d^n det(A),
    index(dA) = index(A),    (xX)(yY) = xy XY  for integers x, y,
so charpoly divides each c_i of d*A by d^i, det divides only c_n by d^n,
nilpotency_index searches d*A as it is, inverse builds the adjugate from
d*A and scales it once by d det(dA)^-1, and each product of power's
ladder is the int product of its cleared factors divided once.  power
does not divide the ladder of d*A by d^k: (dA)^k grows with k even where
A^k stays small (zero, or an idempotent), while each cleared product is
in lowest terms, so the work grows with log k.  An integral quotient is
an int.  With no Fraction coefficient, over Q or another base, d = 1 and
A is used as it is.  Values are immutable; entries compare canonically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Iterable, Optional, Sequence

from .rings import (Poly, Ring, RingMismatchError, add_products, int_from_json,
                    ladder, poly_latex, poly_terms_from_json, poly_terms_to_json,
                    ring_from_json, ring_to_json)


class NotInvertibleError(ValueError):
    """Determinant is not a recognized unit."""


def _as_entry(ring: Ring, x) -> Poly:
    if isinstance(x, Poly):
        if x.ring is not ring and x.ring != ring:
            raise RingMismatchError(f"entry over {x.ring}, matrix over {ring}")
        return x
    return ring.const(x)


@dataclass(frozen=True)
class Matrix:
    ring: Ring
    rows: int
    cols: int
    nonzero: tuple  # per row, a dict {column: Poly} of its nonzero entries

    # -- constructors

    @staticmethod
    def from_rows(ring: Ring, rows: Sequence[Sequence],
                  cols: Optional[int] = None) -> "Matrix":
        """The matrix with these rows, each of length cols.  cols defaults to
        the first row's length, so a matrix with no rows needs it given."""
        nr = len(rows)
        nc = cols if cols is not None else len(rows[0]) if nr else 0
        out = []
        for r in rows:
            if len(r) != nc:
                raise ValueError(f"a row of length {len(r)} in a matrix of {nc} columns")
            out.append(_nonzero(enumerate(_as_entry(ring, x) for x in r)))
        return Matrix(ring, nr, nc, tuple(out))

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        one = ring.one()
        return Matrix(ring, n, n, tuple({i: one} for i in range(n)))

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, tuple({} for _ in range(rows)))

    @staticmethod
    def diag(ring: Ring, elems: Sequence) -> "Matrix":
        n = len(elems)
        return Matrix(ring, n, n, tuple(_nonzero([(i, _as_entry(ring, e))])
                                        for i, e in enumerate(elems)))

    @cached_property
    def entries(self) -> tuple:
        """The dense view: a tuple of row tuples of Poly, zeros included."""
        zero, cols = self.ring.zero(), range(self.cols)
        return tuple(tuple(r.get(j, zero) for j in cols) for r in self.nonzero)

    def __getitem__(self, rc) -> Poly:
        r, c = rc
        return self.entries[r][c]

    # -- arithmetic

    def _check(self, other: "Matrix", same_shape: bool):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other, True)
        return self._entrywise(Poly.__add__, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other, True)
        return self._entrywise(Poly.__sub__, other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other, False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        ring, brows = self.ring, other.nonzero
        out = []
        for ra in self.nonzero:
            acc = defaultdict(dict)  # column -> term map of the entry's products
            for k, a in ra.items():
                for j, b in brows[k].items():
                    add_products(acc[j], a, b)
            out.append(_nonzero((j, Poly(ring, t)) for j, t in acc.items()))
        return Matrix(ring, self.rows, other.cols, tuple(out))

    def scale(self, u) -> "Matrix":
        return self.map_entries(_as_entry(self.ring, u).__mul__, self.ring)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzero):
            for j, a in r.items():
                cols[j][i] = a
        return Matrix(self.ring, self.cols, self.rows, tuple(cols))

    def power(self, k: int) -> "Matrix":
        """self^k by square-and-multiply, each product cleared (see
        _matmul_cleared); self^0 is the identity."""
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        if not k:
            return Matrix.identity(self.ring, self.rows)
        return ladder(self, k, _matmul_cleared)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def all_entries(self, pred) -> bool:
        """pred holds at every entry: at each nonzero one, and at zero (asked
        once) when some entry is zero."""
        full = sum(map(len, self.nonzero)) == self.rows * self.cols
        return ((full or pred(self.ring.zero()))
                and all(pred(a) for r in self.nonzero for a in r.values()))

    def is_idempotent(self) -> bool:
        return self.rows == self.cols and self @ self == self

    def nilpotency_bound(self) -> int:
        """A k with m^k = 0 for every nilpotent n x n matrix m over this ring:
        over the reduced quotient by the nilradical J a nilpotent m has
        m^n = 0, so m^n has entries in J, and J^e = 0 for e = the ring's
        nilradical exponent.  k = n * e, and at least 1, the index of the
        0 x 0 matrix."""
        return max(1, self.rows * self.ring.nilradical_exponent)

    @cached_property
    def nilpotency(self) -> Optional[int]:
        """The nilpotency index searched up to nilpotency_bound(), so None
        means not nilpotent; computed once per matrix."""
        return self.nilpotency_index(self.nilpotency_bound())

    def nilpotency_index(self, max_k: int) -> Optional[int]:
        """Least k <= max_k with m^k = 0, or None, in about 2 log2(k)
        products: square up to the first zero power m^(2^J), then bisect
        (2^(J-1), 2^J] with the saved squares.  Squaring stops at a nonzero
        m^(2^j) with 2^j >= max_k, and at one with 2^j >= n outside the
        nilradical, which no nilpotent m has (see nilpotency_bound).
        The search runs on d*m, whose coefficients are ints and whose
        powers vanish where m's do."""
        if self.rows != self.cols:
            raise ValueError("nilpotency of non-square matrix")
        squares = [self._cleared()[1]]  # squares[j] = m^(2^j); all but the last nonzero
        while not squares[-1].is_zero():
            p, e = squares[-1], 1 << (len(squares) - 1)
            if e >= max_k or (e >= self.rows and not p.all_entries(Poly.in_nilradical)):
                return None
            squares.append(p @ p)
        if len(squares) == 1:
            return 1 if max_k >= 1 else None
        # m^k != 0 with k a sum of distinct 2^j, grown greedily from the top
        p, k = squares[-2], 1 << (len(squares) - 2)
        for j in range(len(squares) - 3, -1, -1):
            q = p @ squares[j]
            if not q.is_zero():
                p, k = q, k + (1 << j)
        return k + 1 if k + 1 <= max_k else None

    # -- characteristic polynomial, determinant, inverse

    def charpoly(self) -> list[Poly]:
        """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A): those of d*A
        divided by d^i."""
        d, m = self._cleared()
        return [_quotient(c, d ** i) for i, c in enumerate(m._berkowitz())]

    def _berkowitz(self) -> list[Poly]:
        """The characteristic polynomial's coefficients, by Berkowitz's
        division-free recurrence: bordering the leading block A_r by the
        column C, the row R and the corner a multiplies its char poly by the
        Toeplitz matrix with first column 1, -a, -RC, -RA_rC, ..., -RA_r^(r-1)C.
        It walks rows, as the row RA_r^j times [A_r C] is [RA_r^(j+1), RA_r^jC].
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        ring, rows = self.ring, self.nonzero

        cs = [ring.one()]
        for r in range(self.rows):
            vec = {k: x for k, x in rows[r].items() if k < r}  # R, then R A_r^j
            d = [rows[r].get(r, ring.zero())]  # the Toeplitz column negated, without its 1
            for j in range(r):
                acc = defaultdict(dict)  # vec [A_r C]: R A_r^(j+1), and R A_r^j C at r
                low = r if j + 1 == r else 0  # the last step needs only column r
                for k, y in vec.items():
                    for i, x in rows[k].items():
                        if low <= i <= r:
                            add_products(acc[i], x, y)
                d.append(Poly(ring, acc.pop(r, {})))
                vec = _nonzero((i, Poly(ring, t)) for i, t in acc.items())
            nxt = [cs[0]]
            for i in range(1, r + 2):
                acc = dict(d[i - 1].terms)
                for j in range(1, min(i, r + 1)):
                    if cs[j].terms and d[i - j - 1].terms:
                        add_products(acc, d[i - j - 1], cs[j])
                acc = Poly(ring, acc)
                nxt.append(cs[i] - acc if i <= r else -acc)
            cs = nxt
        return cs

    def det(self) -> Poly:
        """(-1)^n c_n of the characteristic polynomial: c_n of d*A divided by
        d^n, the other c_i left undivided."""
        d, m = self._cleared()
        c = _quotient(m._berkowitz()[-1], d ** self.rows)
        return -c if self.rows % 2 else c

    def inverse(self) -> "Matrix":
        """Cayley-Hamilton adjugate (-1)^(n-1) (A^(n-1) + c_1 A^(n-2) + ...
        + c_(n-1) I) scaled by det^-1; raises NotInvertibleError unless det
        is a recognized unit.  Built from B = d*A, as A^-1 = d adj(B) det(B)^-1.
        Exact: self @ inverse == identity."""
        if self.rows != self.cols:
            raise NotInvertibleError("non-square matrix")
        ring, n = self.ring, self.rows
        d, b = self._cleared()
        cs = b._berkowitz()
        det = -cs[n] if n % 2 else cs[n]
        dinv = det.try_invert()
        if dinv is None:
            raise NotInvertibleError(
                f"determinant {_quotient(det, d ** n)} is not a recognized unit")
        adj = Matrix.identity(ring, n)
        for c in cs[1:n]:
            adj = b @ adj + Matrix.diag(ring, [c] * n)
        return adj.scale(d * (dinv if n % 2 else -dinv))

    # -- entrywise helpers

    def _entrywise(self, f, other: "Matrix") -> "Matrix":
        """The matrix of f(a, b) over the entries a of self and b of other,
        of self's shape.  f(0, 0) = 0, so it visits only the columns where
        a or b is nonzero."""
        zero = self.ring.zero()
        return Matrix(self.ring, self.rows, self.cols, tuple(
            _nonzero((j, f(r.get(j, zero), s.get(j, zero))) for j in r.keys() | s.keys())
            for r, s in zip(self.nonzero, other.nonzero)))

    def _cleared(self) -> tuple[int, "Matrix"]:
        """(d, d*self) for d the _denominator of the entries; (1, self)
        when they have no Fraction coefficient."""
        d = _denominator([a for r in self.nonzero for a in r.values()])
        return (1, self) if d is None else (d, self.map_entries(partial(_times, d), self.ring))

    def map_entries(self, f, ring: Ring) -> "Matrix":
        """The matrix of f(a) over ring, for an additive f, so f(0) = 0: f
        is applied to the nonzero entries only.  The one entrywise map of
        one matrix (scale, the Q clearing and the homomorphisms)."""
        return Matrix(ring, self.rows, self.cols, tuple(
            _nonzero((j, _as_entry(ring, f(a))) for j, a in r.items()) for r in self.nonzero))

    def into(self, ring: Ring) -> "Matrix":
        return self.map_entries(lambda a: a.into(ring), ring)

    def substitute(self, assignments) -> "Matrix":
        return self.map_entries(lambda a: a.substitute(assignments),
                                self.ring.drop(*assignments))

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r)
                               for r in self.entries) + "]"


def _nonzero(pairs: Iterable[tuple[int, Poly]]) -> dict:
    """The row {column: entry} of the (column, entry) pairs whose entry is
    nonzero."""
    return {j: a for j, a in pairs if a.terms}


def _denominator(polys: Iterable[Poly]) -> Optional[int]:
    """The lcm of the denominators of the polys' Fraction coefficients, or
    None when there are none, as over every base but Q."""
    dens = {c.denominator for p in polys for c in p.terms.values() if type(c) is Fraction}
    return lcm(*dens) if dens else None


def _times(d: int, p: Poly) -> Poly:
    """d*p with int coefficients, for d a multiple of the denominators of
    p's Q coefficients: each c becomes c.numerator * (d // c.denominator),
    with no Fraction built."""
    return Poly(p.ring, {e: c.numerator * (d // c.denominator)
                         for e, c in p.terms.items()}) if p.terms else p


def _quotient(p: Poly, q: int) -> Poly:
    """p / q for p with int coefficients; a coefficient q divides stays an int."""
    if q == 1:
        return p
    return Poly(p.ring, {e: c // q if not c % q else Fraction(c, q)
                         for e, c in p.terms.items()})


def _matmul_cleared(x: Matrix, y: Matrix) -> Matrix:
    """x @ y as (d_x x)(d_y y) / (d_x d_y): the products are int products
    and each entry is divided once.  The result is in lowest terms, so a
    power ladder over it holds coefficients no larger than A^k's own."""
    dx, cx = x._cleared()
    dy, cy = y._cleared() if y is not x else (dx, cx)
    return _divided(cx @ cy, dx * dy)


def _divided(m: Matrix, q: int) -> Matrix:
    """m / q entrywise, for m with int coefficients (see _quotient)."""
    return m if q == 1 else m.map_entries(lambda a: _quotient(a, q), m.ring)


def block_companion(blocks: Sequence[Matrix]) -> Matrix:
    """[[B_1 .. B_d], [I on the block sub-diagonal]] for d >= 1 n x n
    blocks B_i over one ring, built row by row: the top block row from the
    blocks' rows, then as row n + j the identity row {j: 1}."""
    if not blocks:
        raise ValueError("no blocks")
    ring, n, dn = blocks[0].ring, blocks[0].rows, len(blocks) * blocks[0].rows
    if any(b.rows != n or b.cols != n or b.ring != ring for b in blocks):
        raise ValueError("blocks must be square, equal-sized, over one ring")
    top = tuple({k * n + j: a for k, b in enumerate(blocks) for j, a in b.nonzero[i].items()}
                for i in range(n))
    return Matrix(ring, dn, dn, top + tuple({j: ring.one()} for j in range(dn - n)))


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(m: Matrix) -> dict:
    """The dense JSON format, zeros included, written from the rows: a zero
    entry is [] and only the stored entries are encoded."""
    cols = range(m.cols)
    return {
        "ring": ring_to_json(m.ring),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[poly_terms_to_json(r[j]) if j in r else [] for j in cols]
                    for r in m.nonzero],
    }


def matrix_from_json(j: dict) -> Matrix:
    ring = ring_from_json(j["ring"])
    rows = [[poly_terms_from_json(ring, e) for e in r] for r in j["entries"]]
    nr, nc = int_from_json(j["rows"], "rows"), int_from_json(j["cols"], "cols")
    if nr != len(rows) or nc < 0:
        raise ValueError("inconsistent matrix dimensions")
    return Matrix.from_rows(ring, rows, nc)


def matrix_latex(m: Matrix) -> str:
    body = " \\\\\n".join(" & ".join(poly_latex(a) for a in r) for r in m.entries)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
