"""Exact matrices over the rings in nilk.rings.

Storage is sparse: per row, a dict {column: Poly} of its nonzero entries
(Matrix.nonzero); no zero is stored, so equal matrices have equal rows.
Each entry or scalar a caller hands in (from_rows, diag, scale,
map_entries) becomes a ring element by Ring.element, the rings' one rule.
The writers walk the rows too: matrix_json_text writes the bytes of
json.dumps(matrix_to_json(m), indent=2) row by row, with a constant line
per zero entry, and matrix_latex and str write "0" for one; the reader
matrix_from_json builds each row's dict directly.  The derived dense view
Matrix.entries is left for __getitem__, the tests and the benchmark's
matmul counter.  Every walk visits nonzeros only: the entrywise maps
(Matrix.map_entries of one matrix, Matrix._entrywise of two) send zeros to
zero, and the product multiplies each A[i, k] into row k of B, summing
each output entry's products in one term map (Ring.products, the ring's
generated kernel), normalized once.
block_companion is the one block builder; it checks its blocks: at least
one, each n x n, all over one ring.  det and the Cayley-Hamilton adjugate
inverse both come from one division-free Berkowitz characteristic
polynomial, summed the same way.  Berkowitz takes the char poly of the
leading 2 x 2 block in closed form, then borders each leading r x r block
by row r's part R left of the diagonal and column r's part C above it, and
needs the r values R A_r^j C; when R or C is empty each is an empty sum,
so it appends r zeros and runs no Krylov step.  A diagonal cI, c constant
and n >= 4, is left out and put back by a shift of the char poly:
det(I - s V_3(N)) makes 302 products, not 5096.  The inverse's Horner loop
starts at B + c_1 I, its first step B I + c_1 I, so it makes no product by I.

Every product runs on a matrix's cleared form (Matrix._cleared_rows), made
once per matrix: (d, d*A's rows as {column: term map}), d the lcm of the
denominators of A's Fraction coefficients, so d*A's are ints; d = 1 and
A's own term maps without a Fraction, as over every base but Q, which is
not scanned.  A @ B sums the products of d_A*A and d_B*B and divides each
entry once by d_A d_B, an integral quotient as an int.  As c_i(dA) =
d^i c_i(A), charpoly divides c_i of d*A by d^i and det only c_n;
nilpotency_index searches d*A, whose powers vanish where A's do; inverse
scales d*A's adjugate once by d det(dA)^-1.  A Matrix is a plain class on
rings.Frozen: immutable, equal by fields, unhashable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from operator import matmul, mul
from typing import Iterable, Optional, Sequence

from .rings import (Frozen, Poly, Ring, RingMismatchError, cached_field, int_from_json, ladder,
                    poly_latex, poly_terms_from_json, poly_terms_to_json, ring_from_json,
                    ring_to_json)

_set = object.__setattr__  # looked up once: a Matrix is built per product


class NotInvertibleError(ValueError):
    """Determinant is not a recognized unit."""


class Matrix(Frozen):
    _fields = ("ring", "rows", "cols", "nonzero")

    def __init__(self, ring: Ring, rows: int, cols: int, nonzero: tuple):
        _set(self, "ring", ring)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "nonzero", nonzero)  # per row, a dict {column: Poly} of its nonzero entries

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
            out.append(_nonzero(enumerate(map(ring.element, r))))
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
        return Matrix(ring, n, n, tuple(_nonzero([(i, ring.element(e))])
                                        for i, e in enumerate(elems)))

    @cached_field
    def entries(self) -> tuple:
        """The dense view: a tuple of row tuples of Poly, zeros included."""
        zero, cols = self.ring.zero(), range(self.cols)
        return tuple(tuple(r.get(j, zero) for j in cols) for r in self.nonzero)

    def __getitem__(self, rc) -> Poly:
        r, c = rc
        return self.entries[r][c]

    @cached_field
    def _cleared_rows(self) -> tuple[int, list]:
        """The cleared form (d, d*self's rows as {column: term map}): d the
        lcm of the denominators of self's Fraction coefficients, each c
        written as the int c.numerator * (d // c.denominator); (1, self's own
        term maps) without a Fraction, and off Q without a scan."""
        dens = {c.denominator for r in self.nonzero for a in r.values()
                for c in a.terms.values() if type(c) is Fraction} if self.ring.base == "Q" else ()
        if not dens:
            return 1, [{k: a.terms for k, a in r.items()} for r in self.nonzero]
        d, rows = lcm(*dens), []
        for r in self.nonzero:  # loops, not comprehensions: the maps are often tiny
            row = {}
            for k, a in r.items():
                row[k] = t = {}
                for e, c in a.terms.items():
                    t[e] = c.numerator * (d // c.denominator)
            rows.append(row)
        return d, rows

    # -- arithmetic

    def _check(self, other: "Matrix", same_shape: bool):
        if self.ring is not other.ring and self.ring != other.ring:
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
        """On the cleared forms d_x x and d_y y, each entry divided by d_x d_y."""
        self._check(other, False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        ring, products = self.ring, self.ring.products
        (dx, xs), (dy, ys) = self._cleared_rows, other._cleared_rows
        q, out = dx * dy, []
        for ra in xs:
            acc = defaultdict(dict)  # column -> term map of the entry's products
            for k, a in ra.items():
                for j, b in ys[k].items():
                    products(acc[j], a, b)
            row = {}
            for j, t in acc.items():
                a = Poly(ring, t if q == 1 else _quotient(t, q))
                if a.terms:
                    row[j] = a
            out.append(row)
        return Matrix(ring, self.rows, other.cols, tuple(out))

    def scale(self, u) -> "Matrix":
        return self.map_entries(self.ring.element(u).__mul__, self.ring)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzero):
            for j, a in r.items():
                cols[j][i] = a
        return Matrix(self.ring, self.cols, self.rows, tuple(cols))

    def power(self, k: int) -> "Matrix":
        """self^k by square-and-multiply under @; self^0 is the identity."""
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        return ladder(self, k, matmul) if k else Matrix.identity(self.ring, self.rows)

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

    @cached_field
    def nilpotency(self) -> Optional[int]:
        """The nilpotency index searched up to nilpotency_bound(), so None
        means not nilpotent; computed once per matrix."""
        return self.nilpotency_index(self.nilpotency_bound())

    def nilpotency_index(self, max_k: int) -> Optional[int]:
        """Least k <= max_k with m^k = 0, or None, in about 2 log2(k)
        products, none of a power above max_k: square while 2^(j+1) <= max_k,
        up to the first zero square, then grow k from the top nonzero square
        m^(2^J) by each smaller 2^j with k + 2^j <= max_k and m^(k+2^j) != 0.
        If k < max_k, m^(k+1) = 0 is proven: k + 1 is the power tested zero
        at k's lowest missing bit, or the zero square m^(2^(J+1)) (a skipped
        step or an unformed square would put k + 1 above max_k).  A nonzero
        m^(2^j) with 2^j >= n outside the nilradical, which no nilpotent m
        has (see nilpotency_bound), stops the search.  It searches d*m,
        whose powers vanish where m's do."""
        if self.rows != self.cols:
            raise ValueError("nilpotency of non-square matrix")
        squares, p = [], self._cleared()[1]  # squares[j] = m^(2^j) != 0
        while not p.is_zero():
            squares.append(p)
            e = 1 << (len(squares) - 1)
            if e >= self.rows and not p.all_entries(Poly.in_nilradical):
                return None
            if 2 * e > max_k:
                break
            p = p @ p
        if not squares:
            return 1 if max_k >= 1 else None
        # m^k != 0 with k a sum of distinct 2^j, grown greedily from the top
        p, k = squares[-1], 1 << (len(squares) - 1)
        for j in range(len(squares) - 2, -1, -1):
            if k + (1 << j) <= max_k:
                q = p @ squares[j]
                if not q.is_zero():
                    p, k = q, k + (1 << j)
        return k + 1 if k < max_k else None

    # -- characteristic polynomial, determinant, inverse

    def charpoly(self) -> list[Poly]:
        """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A): those of d*A
        divided by d^i."""
        d, cs = self._berkowitz()
        return cs if d == 1 else [Poly(self.ring, _quotient(c.terms, d ** i))
                                  for i, c in enumerate(cs)]

    def _berkowitz(self) -> tuple[int, list[Poly]]:
        """(d, the char poly's coefficients of d*A) on the cleared form, by
        Berkowitz's division-free recurrence: bordering the leading block A_r
        by the column C, the row R and the corner a multiplies its char poly
        by the Toeplitz matrix with first column 1, -a, -RC, -RA_rC, ...,
        -RA_r^(r-1)C, over its nonzero pairs.  It walks rows, as the row RA_r^j
        times [A_r C] is [RA_r^(j+1), RA_r^jC].  Where R or C is empty every
        RA_r^jC is an empty sum: the column is a and r zeros, and no Krylov step
        runs.  It seeds with the closed-form char poly of the leading m x m
        block, m = min(n, 2): 1, -(a + e), ae - bc.  When n >= 4 (at n = 3 the
        one bordered row saves less than the shift costs) and d*A's diagonal
        is cI, c a constant, it runs on B = d*A - cI, whose Krylov vectors take
        no self-loop, and shifts back: p(x) = p_B(x - c), so c_k = sum over
        i <= k of b_i C(n - i, k - i) (-c)^(k - i)."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        ring, products, n = self.ring, self.ring.products, self.rows
        d, rows = self._cleared_rows
        zero, diag = (0,) * len(ring.vars), rows[0].get(0) if n > 3 else None
        shift = diag is not None and diag.keys() == {zero} and all(
            r.get(i) == diag for i, r in enumerate(rows))
        rows = [{k: r[k] for k in r if k != i} for i, r in enumerate(rows)] if shift else rows

        m = min(n, 2)
        (a, b), (c, e) = [[r.get(j, {}) for j in (0, 1)] for r in (*rows[:2], {}, {})[:2]]
        trace = {k: -x for k, x in a.items()}
        for k, x in e.items():
            trace[k] = trace[k] + -x if k in trace else -x
        minor = products(products({}, a, e), {k: -x for k, x in b.items()}, c)
        cs = [ring.one(), Poly(ring, trace), Poly(ring, minor)][:m + 1]
        for r in range(m, n):
            vec = {k: x for k, x in rows[r].items() if k < r}  # R, then R A_r^j
            col = [rows[r].get(r, {})]  # the Toeplitz column negated, without its 1
            if not vec or not any(r in rows[k] for k in range(r)):
                col += [{}] * r  # R or C empty: every R A_r^j C is 0
            else:
                for j in range(r):
                    acc = defaultdict(dict)  # vec [A_r C]: R A_r^(j+1), and R A_r^j C at r
                    low = r if j + 1 == r else 0  # the last step needs only column r
                    for k, y in vec.items():
                        for i, x in rows[k].items():
                            if low <= i <= r:
                                products(acc[i], x, y)
                    col.append(Poly(ring, acc.pop(r, {})).terms)
                    vec = {i: t for i, t in ((i, Poly(ring, t).terms) for i, t in acc.items())
                           if t}
            nz, out = [(j, y.terms) for j, y in enumerate(cs) if y.terms], {}
            cs.append(ring.zero())
            for t, x in [(t, {k: -v for k, v in x.items()}) for t, x in enumerate(col) if x]:
                for j, y in nz:  # -col[t] c_j adds into the new c_(t+j+1)
                    i = t + j + 1
                    if i <= r + 1:
                        o = out[i] if i in out else out.setdefault(i, dict(cs[i].terms))
                        if j:
                            products(o, x, y)
                        else:
                            for k, v in x.items():
                                o[k] = o[k] + v if k in o else v
            cs = [Poly(ring, out[i]) if i in out else y for i, y in enumerate(cs)]
        if shift:  # c_k of p_B(x - c), each summed in one term map; pw[j] = (-c)^j
            ops, pw = ring.ops, list(accumulate([-diag[zero]] * n, mul, initial=ring.ops.one))
            nz, bs, cs = [(i, y.terms) for i, y in enumerate(cs) if y.terms][1:], cs, [cs[0]]
            for k in range(1, n + 1):  # b_k, then b_0 = 1 and each nonzero b_i, i < k
                acc, w = dict(bs[k].terms), ops.from_int(comb(n, k)) * pw[k]
                acc[zero] = acc[zero] + w if zero in acc else w
                for i, y in nz:
                    if i < k:
                        products(acc, y, {zero: ops.from_int(comb(n - i, k - i)) * pw[k - i]})
                cs.append(Poly(ring, acc))
        return d, cs

    def det(self) -> Poly:
        """(-1)^n c_n of the characteristic polynomial; of d*A's, only c_n is divided."""
        d, cs = self._berkowitz()
        c = cs[-1] if d == 1 else Poly(self.ring, _quotient(cs[-1].terms, d ** self.rows))
        return -c if self.rows % 2 else c

    def inverse(self) -> "Matrix":
        """Cayley-Hamilton adjugate (-1)^(n-1) (A^(n-1) + c_1 A^(n-2) + ...
        + c_(n-1) I) scaled by det^-1; raises NotInvertibleError unless det
        is a recognized unit.  Built from B = d*A, as A^-1 = d adj(B) det(B)^-1,
        by Horner from B + c_1 I (the first step's B I + c_1 I), so an n x n
        inverse makes max(0, n - 2) products.  Exact: self @ inverse == identity."""
        if self.rows != self.cols:
            raise NotInvertibleError("non-square matrix")
        ring, n = self.ring, self.rows
        d, cs = self._berkowitz()
        det = -cs[n] if n % 2 else cs[n]
        dinv = det.try_invert()
        if dinv is None:  # det(A) = det(B) / d^n
            det = det if d == 1 else Poly(ring, _quotient(det.terms, d ** n))
            raise NotInvertibleError(f"determinant {det} is not a recognized unit")
        b = self._cleared()[1]
        adj = b + Matrix.diag(ring, [cs[1]] * n) if n > 1 else Matrix.identity(ring, n)
        for c in cs[2:n]:
            adj = b @ adj + Matrix.diag(ring, [c] * n)
        return adj.scale(d * (dinv if n % 2 else -dinv))

    # -- entrywise helpers

    def _entrywise(self, f, other: "Matrix") -> "Matrix":
        """The matrix of f(a, b) over the entries a of self and b of other,
        of self's shape, for f(a, 0) = a: it copies self's rows and visits
        only other's stored entries."""
        zero = self.ring.zero()
        return Matrix(self.ring, self.rows, self.cols, tuple(
            _nonzero({**r, **{j: f(r.get(j, zero), b) for j, b in s.items()}}.items())
            for r, s in zip(self.nonzero, other.nonzero)))

    def _cleared(self) -> tuple[int, "Matrix"]:
        """(d, d*self) for the cleared form's d; (1, self) when d = 1."""
        d, rows = self._cleared_rows
        return (1, self) if d == 1 else (d, Matrix(self.ring, self.rows, self.cols, tuple(
            {k: Poly(self.ring, t) for k, t in r.items()} for r in rows)))

    def map_entries(self, f, ring: Ring) -> "Matrix":
        """The matrix of f(a) over ring, for an additive f, so f(0) = 0: f
        is applied to the nonzero entries only.  The one entrywise map of
        one matrix (scale and the homomorphisms)."""
        element = ring.element
        return Matrix(ring, self.rows, self.cols, tuple(
            _nonzero((j, element(f(a))) for j, a in r.items()) for r in self.nonzero))

    def into(self, ring: Ring) -> "Matrix":
        return self.map_entries(lambda a: a.into(ring), ring)

    def substitute(self, name: str) -> "Matrix":
        """The value at name = 0, entrywise, over the ring without name."""
        return self.map_entries(lambda a: a.substitute(name), self.ring.drop(name))

    def __str__(self):
        return "[" + "; ".join(", ".join(_dense_row(self, r, "0", str))
                               for r in self.nonzero) + "]"


def _nonzero(pairs: Iterable[tuple[int, Poly]]) -> dict:
    """The row {column: entry} of the (column, entry) pairs whose entry is
    nonzero."""
    return {j: a for j, a in pairs if a.terms}


def _quotient(t: dict, q: int) -> dict:
    """The int term map t divided by q, as a new term map; a coefficient q
    divides stays an int."""
    out = {}
    for e, c in t.items():
        out[e] = c // q if not c % q else Fraction(c, q)
    return out


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


def _dense_row(m: Matrix, r: dict, zero: str, write) -> list:
    """Row r of m as text, one item per column: zero where r stores nothing,
    write(a) for each stored entry a."""
    line = [zero] * m.cols
    for j, a in r.items():
        line[j] = write(a)
    return line


def _json_entry(a: Poly) -> str:
    """A stored entry's lines in a matrix file: its JSON at indent 2, six
    spaces deep."""
    return "      " + json.dumps(poly_terms_to_json(a), indent=2).replace("\n", "\n      ")


def matrix_json_text(m: Matrix) -> str:
    """json.dumps(matrix_to_json(m), indent=2), written row by row: the
    head (ring, rows, cols) by json.dumps, a zero entry as the line
    "      []", and each stored entry's JSON re-indented to its depth."""
    head = json.dumps({"ring": ring_to_json(m.ring), "rows": m.rows, "cols": m.cols},
                      indent=2)[:-2] + ',\n  "entries": '
    if not m.rows:
        return head + "[]\n}"
    rows = ("    [\n" + ",\n".join(_dense_row(m, r, "      []", _json_entry)) + "\n    ]"
            if m.cols else "    []" for r in m.nonzero)
    return head + "[\n" + ",\n".join(rows) + "\n  ]\n}"


def matrix_from_json(j: dict, ring: Optional[Ring] = None) -> Matrix:
    """The matrix of a JSON document, each row's {column: Poly} built
    directly: an entry [] is the ring's zero, read without a parse, and
    every other entry goes through poly_terms_from_json.  ring, when given,
    is ring_from_json(j["ring"]), read already."""
    if ring is None:
        ring = ring_from_json(j["ring"])
    entries = j["entries"]
    rows = tuple(_nonzero((k, poly_terms_from_json(ring, e)) for k, e in enumerate(r) if e != [])
                 for r in entries)
    nr, nc = int_from_json(j["rows"], "rows"), int_from_json(j["cols"], "cols")
    if nr != len(rows) or nc < 0:
        raise ValueError("inconsistent matrix dimensions")
    for r in entries:
        if len(r) != nc:
            raise ValueError(f"a row of length {len(r)} in a matrix of {nc} columns")
    return Matrix(ring, nr, nc, rows)


def matrix_latex(m: Matrix) -> str:
    body = " \\\\\n".join(" & ".join(_dense_row(m, r, "0", poly_latex)) for r in m.nonzero)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
