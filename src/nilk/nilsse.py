"""Nil-group operator maps (Verschiebung, Frobenius) and the strong shift
equivalence witness verifier.

The verifier only checks supplied witnesses (NamedTuples, as Verdict is); it
never searches for chains (whether a nilpotent matrix admits any chain to
zero is exactly the non-computable content the explicit examples certify).
"""

from __future__ import annotations

from typing import NamedTuple

from .matrices import Matrix, block_companion
from .rings import Checked


def verschiebung(n: Matrix, k: int) -> Matrix:
    """The block companion of (0, .., 0, N): N in the top-right block over an
    identity sub-diagonal.  Sends [1 - tN] to [1 - t^k N]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return block_companion([Matrix.zeros(n.ring, n.rows, n.rows)] * (k - 1) + [n])


def frobenius(n: Matrix, k: int) -> Matrix:
    """N -> N^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return n.power(k)


def verschiebung_index(n: Matrix, k: int) -> int:
    """The nilpotency index of verschiebung(n, k) for a nilpotent n of index
    m, without a search: k*m.  V_k(N)^k is the block diagonal of k copies of
    N, so V_k(N)^(km) = 0, while V_k(N)^(k(m-1)+i) for i < k is V_k(N)^i,
    which has an identity block, times that diagonal of N^(m-1) != 0.  A
    0 x 0 n has a 0 x 0 image, of index 1."""
    return k * n.nilpotency if n.rows else 1


def frobenius_index(n: Matrix, k: int) -> int:
    """The nilpotency index of frobenius(n, k) for a nilpotent n of index m,
    without a search: ceil(m/k), as (N^k)^j = N^(kj) vanishes exactly when
    kj >= m.  It is 1 for k >= m."""
    return -(-n.nilpotency // k)


class Verdict(NamedTuple):
    ok: bool
    failed: int | str | None = None  # first bad link (1-based) or identity name


def _check_shapes(a: Matrix, b: Matrix, w) -> None:
    if (w.u.rows, w.u.cols) != (a.rows, b.rows) or (w.v.rows, w.v.cols) != (b.rows, a.rows):
        raise ValueError("witness shapes incompatible with A, B")


class ESSEWitness(NamedTuple):
    u: Matrix
    v: Matrix


def verify_esse(a: Matrix, b: Matrix, w: ESSEWitness) -> bool:
    """A = UV and B = VU, exactly."""
    _check_shapes(a, b, w)
    return w.u @ w.v == a and w.v @ w.u == b


class _SSEChainFields(NamedTuple):
    matrices: tuple[Matrix, ...]
    witnesses: tuple[ESSEWitness, ...]


class SSEChain(Checked, _SSEChainFields):
    """Matrices A_0 .. A_l with a witness linking each consecutive pair."""

    __slots__ = ()

    def __new__(cls, matrices: tuple[Matrix, ...], witnesses: tuple[ESSEWitness, ...]):
        if len(matrices) != len(witnesses) + 1:
            raise ValueError("chain needs one more matrix than witnesses")
        return tuple.__new__(cls, (matrices, witnesses))


def verify_sse_chain(chain: SSEChain) -> Verdict:
    for k, w in enumerate(chain.witnesses):
        if not verify_esse(chain.matrices[k], chain.matrices[k + 1], w):
            return Verdict(False, k + 1)
    return Verdict(True)


class SEWitness(NamedTuple):
    u: Matrix
    v: Matrix
    lag: int


def verify_se(a: Matrix, b: Matrix, w: SEWitness) -> Verdict:
    """A^l = UV, B^l = VU, AU = UB, VA = BV, exactly."""
    if w.lag < 1:
        raise ValueError("lag must be >= 1")
    _check_shapes(a, b, w)
    checks = [
        ("A^l = UV", a.power(w.lag) == w.u @ w.v),
        ("B^l = VU", b.power(w.lag) == w.v @ w.u),
        ("AU = UB", a @ w.u == w.u @ b),
        ("VA = BV", w.v @ a == b @ w.v),
    ]
    for name, ok in checks:
        if not ok:
            return Verdict(False, name)
    return Verdict(True)
