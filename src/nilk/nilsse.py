"""Nil-group operator maps (Verschiebung, Frobenius) and the strong shift
equivalence witness verifier.

The verifier only checks supplied witnesses; it never searches for chains
(whether a nilpotent matrix admits any chain to zero is exactly the
non-computable content the explicit examples certify).
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix, block_companion


def verschiebung(n: Matrix, k: int) -> Matrix:
    """The block companion of (0, .., 0, N): N in the top-right block over an
    identity sub-diagonal.  Sends [1 - tN] to [1 - t^k N]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zero = Matrix.zeros(n.ring, n.rows, n.rows)
    return block_companion([zero] * (k - 1) + [n])


def frobenius(n: Matrix, k: int) -> Matrix:
    """N -> N^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return n.power(k)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failed: int | str | None = None  # first bad link (1-based) or identity name


def _check_shapes(a: Matrix, b: Matrix, w) -> None:
    if (w.u.rows, w.u.cols) != (a.rows, b.rows) or (w.v.rows, w.v.cols) != (b.rows, a.rows):
        raise ValueError("witness shapes incompatible with A, B")


@dataclass(frozen=True)
class ESSEWitness:
    u: Matrix
    v: Matrix


def verify_esse(a: Matrix, b: Matrix, w: ESSEWitness) -> bool:
    """A = UV and B = VU, exactly."""
    _check_shapes(a, b, w)
    return w.u @ w.v == a and w.v @ w.u == b


@dataclass(frozen=True)
class SSEChain:
    """Matrices A_0 .. A_l with a witness linking each consecutive pair."""

    matrices: tuple[Matrix, ...]
    witnesses: tuple[ESSEWitness, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.witnesses) + 1:
            raise ValueError("chain needs one more matrix than witnesses")


def verify_sse_chain(chain: SSEChain) -> Verdict:
    for k, w in enumerate(chain.witnesses):
        if not verify_esse(chain.matrices[k], chain.matrices[k + 1], w):
            return Verdict(False, k + 1)
    return Verdict(True)


@dataclass(frozen=True)
class SEWitness:
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
