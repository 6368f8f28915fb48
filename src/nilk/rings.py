"""Exact arithmetic for the ring tower used by the NK1 constructions.

Every element is a multivariate (optionally Laurent) polynomial over one of
a handful of exact coefficient domains:

    Q    rationals: int when integral, else Fraction (see BASE)
    Z    integers
    Zi   Gaussian integers  a + b*i
    Z4   group ring Z[Z/4]  c0 + c1*sigma + c2*sigma^2 + c3*sigma^3
    F2   field with two elements
    F2e  dual numbers over F2:  a + b*eps, eps^2 = 0

Quotients (eps^2 = 0, sigma^4 = 1, mod-2 coefficients, t-degree truncation)
are enforced by normalization after every operation.  Polynomials are kept
in canonical form: no zero coefficients, fixed variable order, so equality
is literal equality of term maps.  Poly(ring, terms) is the one constructor;
outside input is checked where it enters (poly_terms_from_json for JSON,
Ring.const for a scalar).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import add, attrgetter, mul
from typing import Callable, Mapping, Optional


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class NotAUnitError(ValueError):
    """An inverse was required but the element is not a recognized unit."""


# ---------------------------------------------------------------------------
# coefficient domains
#
# The three algebras share one protocol: equality by type and coordinates,
# + and * between two elements of one algebra, and JSON as the coordinate
# list.  Their unit rule is _invert_unit, shared with Z and F2.


class CoeffAlgebra:
    """Base of the coefficient algebras: subclasses name their coordinates
    in __slots__ and write __init__, __add__, __neg__, __mul__ and __str__,
    whose operands are elements of the same algebra (Ring.const turns an int
    into one).  An element is false exactly when it is zero."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.coords = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"{type(self).__name__}{self.coords}"

    def to_json(self) -> list:
        return list(self.coords)

    @classmethod
    def from_json(cls, j: list):
        if type(j) is not list or len(j) != len(cls.__slots__):
            raise ValueError(f"coefficient must be a list of {len(cls.__slots__)} "
                             f"integers, got {json.dumps(j)}")
        return cls(*(int_from_json(x, "coefficient") for x in j))


class GaussianInt(CoeffAlgebra):
    """a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __add__(self, o):
        return GaussianInt(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, o):
        return GaussianInt(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    def __str__(self):
        return f"({self.re}{self.im:+}i)"


class GroupRingZ4(CoeffAlgebra):
    """Integer group ring of the cyclic group of order 4, generator sigma."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0, c3: int = 0):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3

    def __add__(self, o):
        return GroupRingZ4(self.c0 + o.c0, self.c1 + o.c1,
                           self.c2 + o.c2, self.c3 + o.c3)

    def __neg__(self):
        return GroupRingZ4(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, o):
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = o.coords
        return GroupRingZ4(a0 * b0 + a1 * b3 + a2 * b2 + a3 * b1,
                           a0 * b1 + a1 * b0 + a2 * b3 + a3 * b2,
                           a0 * b2 + a1 * b1 + a2 * b0 + a3 * b3,
                           a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coords):
            if c:
                parts.append(f"{c:+}" + ("" if k == 0 else f"σ^{k}" if k > 1 else "σ"))
        return "(" + ("".join(parts) or "0") + ")"


class DualF2(CoeffAlgebra):
    """a + b*eps over F2, with eps^2 = 0; built reduced mod 2."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = a % 2
        self.b = b % 2

    def __add__(self, o):
        return DualF2(self.a ^ o.a, self.b ^ o.b)

    def __neg__(self):
        return self

    def __mul__(self, o):
        return DualF2(self.a & o.a, (self.a & o.b) ^ (self.b & o.a))

    def __str__(self):
        return {(0, 0): "0", (1, 0): "1", (0, 1): "ε", (1, 1): "(1+ε)"}[self.coords]


def int_from_json(x, what: str) -> int:
    """x where a JSON format holds an integer: a JSON integer, not a number
    such as 2.9 (which int() would truncate) nor true/false (whose Python
    type is a subclass of int)."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


# integers in strings: ASCII digits only, where int() and Fraction() also
# take "1_000", " 7 " and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + "(/[0-9]+)?")


def _q_from_json(x):
    """A rational as the format writes it: "p/q" (or "p") with integers p, q;
    an int when q divides p."""
    if type(x) is not str or not _RATIONAL.fullmatch(x):
        raise ValueError(f'rational coefficient must be "p/q", got {json.dumps(x)}')
    try:
        q = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"rational coefficient {x} has denominator 0") from None
    return q.numerator if q.denominator == 1 else q


def _z_from_json(x) -> int:
    if type(x) is str and _INTEGER.fullmatch(x):
        return int(x)
    return int_from_json(x, "coefficient")


def _invert_q(c):
    if not c:
        return None
    q = Fraction(1, 1) / c
    return q.numerator if q.denominator == 1 else q


def _invert_unit(u):
    """u^-1 = u^3 when u^4 = 1, else None: the unit rule of every base but
    Q.  The units of Z (+/-1), F2 (1), Z[i] (+/-1, +/-i), Z[Z/4] (+/-sigma^k,
    by Higman's theorem on the units of Z[C_4]) and F2[eps] (1, 1 + eps)
    are exactly their u with u^4 = 1."""
    sq = u * u
    return sq * u if sq * sq == type(u)(1) else None


@dataclass(frozen=True)
class BaseOps:
    zero: object
    one: object
    from_int: Callable
    invert: Callable
    to_json: Callable
    from_json: Callable
    latex: Callable


def _algebra_ops(cls, latex: Callable) -> BaseOps:
    return BaseOps(cls(), cls(1), cls, _invert_unit, cls.to_json, cls.from_json, latex)


# An integral Q coefficient is stored as an int, which skips Fraction's gcd
# normalization; int has .numerator and .denominator, so JSON and LaTeX
# write both types alike.  Ring.const, _invert_q and _q_from_json turn a
# Fraction with denominator 1 into an int, and int arithmetic keeps it one.
# Fraction arithmetic may still leave a Fraction(3, 1), which equals 3;
# normalizing it in Poly.__init__ too slowed the verify workload.
BASE: dict[str, BaseOps] = {
    "Q": BaseOps(0, 1, int, _invert_q,
                 lambda c: f"{c.numerator}/{c.denominator}", _q_from_json,
                 lambda c: (str(c.numerator) if c.denominator == 1
                            else rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}")),
    "Z": BaseOps(0, 1, int, _invert_unit, str, _z_from_json, str),
    "Zi": _algebra_ops(GaussianInt, str),
    "Z4": _algebra_ops(GroupRingZ4, lambda c: "(" + "+".join(
        f"{v}" + ("" if k == 0 else rf"\sigma^{{{k}}}" if k > 1 else r"\sigma")
        for k, v in enumerate(c.coords) if v).replace("+-", "-") + ")"),
    "F2": BaseOps(0, 1, lambda n: n % 2, _invert_unit, lambda c: c,
                  lambda j: int_from_json(j, "coefficient") % 2, str),
    "F2e": _algebra_ops(DualF2, lambda c: str(c).replace("ε", r"\epsilon")),
}


# ---------------------------------------------------------------------------
# rings and polynomials


@dataclass(frozen=True)
class Var:
    name: str
    laurent: bool = False
    trunc: Optional[int] = None  # exponents >= trunc are discarded

    def __post_init__(self):
        # Ring.nilradical_exponent relies on t^trunc = 0 with trunc >= 1, which
        # has no meaning for a Laurent variable
        if self.trunc is not None and (type(self.trunc) is not int or self.trunc < 1
                                       or self.laurent):
            raise ValueError(f"variable {self.name}: trunc must be an integer >= 1 on a "
                             f"non-Laurent variable, got trunc={self.trunc!r}, "
                             f"laurent={self.laurent!r}")


@dataclass(frozen=True)
class Ring:
    base: str
    vars: tuple[Var, ...] = ()

    def __post_init__(self):
        if self.base not in BASE:
            raise ValueError(f"unknown base ring {self.base!r}")
        # the one zero, built with the ring: reading zero() never builds a Poly
        object.__setattr__(self, "_zero", Poly(self, {}))

    @property
    def ops(self) -> BaseOps:
        return BASE[self.base]

    @cached_property
    def truncated(self) -> tuple[tuple[int, int], ...]:
        """(index, trunc) of each truncated variable."""
        return tuple((k, v.trunc) for k, v in enumerate(self.vars) if v.trunc is not None)

    @cached_property
    def nilradical_exponent(self) -> int:
        """An m with J^m = 0 for the nilradical J: J is generated by the
        truncated variables and eps, and any product of sum(trunc - 1)
        + [eps] + 1 of those is zero.  The quotient by J is reduced."""
        return sum(t - 1 for _, t in self.truncated) + (self.base == "F2e") + 1

    def index(self, name: str) -> int:
        for k, v in enumerate(self.vars):
            if v.name == name:
                return k
        raise KeyError(f"no variable {name!r} in {self}")

    def const(self, c) -> "Poly":
        if isinstance(c, int):
            c = self.ops.from_int(c)
        elif type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        return Poly(self, {(0,) * len(self.vars): c})

    @cached_property
    def _one(self) -> "Poly":
        return self.const(self.ops.one)

    def zero(self) -> "Poly":
        """The ring's one zero Poly, shared by every caller."""
        return self._zero

    def one(self) -> "Poly":
        """The ring's one unit Poly, shared by every caller."""
        return self._one

    def var(self, name: str, power: int = 1) -> "Poly":
        k = self.index(name)
        exps = [0] * len(self.vars)
        exps[k] = power
        return Poly(self, {tuple(exps): self.ops.one})

    @cache
    def extend(self, *new_vars: Var) -> "Ring":
        return Ring(self.base, self.vars + tuple(new_vars))

    @cache
    def drop(self, *names: str) -> "Ring":
        return Ring(self.base, tuple(v for v in self.vars if v.name not in names))

    def __str__(self):
        vs = ",".join(v.name + ("±" if v.laurent else "") +
                      (f"<{v.trunc}" if v.trunc is not None else "")
                      for v in self.vars)
        return f"{self.base}[{vs}]"


class Poly:
    """Canonical-form polynomial; immutable; equality is term-map equality."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        """The Poly of a term map whose exponent vectors are tuples of the
        ring's length, with no negative power of an ordinary variable, and
        whose coefficients lie in the base (JSON input is checked by
        poly_terms_from_json, a scalar is coerced by Ring.const): zero
        coefficients and exponents >= trunc are dropped, and F2 coefficients
        (int arithmetic) reduced mod 2.  The Poly takes terms as its own, so
        the caller hands over a map nothing else holds; a second map is
        built only when there is something to drop or reduce."""
        if ring.base == "F2":
            terms = {e: 1 for e, c in terms.items() if c % 2}
        elif not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        trunc = ring.truncated
        if trunc and any(e[k] >= t for e in terms for k, t in trunc):
            terms = {e: c for e, c in terms.items() if all(e[k] < t for k, t in trunc)}
        self.ring = ring
        self.terms = terms

    # -- basics

    def is_zero(self) -> bool:
        return not self.terms

    def _terms_outside_nilradical(self):
        """The terms (exps, c) outside the nilradical J, which the truncated
        variables and eps generate: a term is in J when it has a truncated
        variable or an eps-multiple coefficient."""
        trunc = [k for k, _ in self.ring.truncated]
        eps = self.ring.base == "F2e"
        return ((exps, c) for exps, c in self.terms.items()
                if not (any(exps[k] for k in trunc) or (eps and not c.a)))

    def in_nilradical(self) -> bool:
        """Membership in J: no term outside it."""
        return next(self._terms_outside_nilradical(), None) is None

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(f"{other.ring} vs {self.ring}")
            return other
        if isinstance(other, (int, Fraction, CoeffAlgebra)):
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        if other is self:
            return True
        o = self._coerce(other) if not isinstance(other, Poly) else other
        if o is None or not isinstance(o, Poly):
            return NotImplemented
        return ((self.ring is o.ring or self.ring == o.ring)
                and self.terms == o.terms)

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out[e] + c if e in out else c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            c = -c
            out[e] = out[e] + c if e in out else c
        return Poly(self.ring, out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ring, add_products({}, self, o))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return ladder(self, n, mul) if n else self.ring.one()

    # -- units

    def _unit_term(self) -> Optional[tuple]:
        """(exps, m^-1) for self = m(1 - n), m = c x^exps a unit monomial and
        n in the nilradical J; else None.  m is the one term outside J: a unit
        monomial is not in J (it has no truncated variable, and over F2[eps] a
        unit coefficient), and m, m^-1 map J-terms one to one to J-terms."""
        outside = self._terms_outside_nilradical()
        term = next(outside, None)
        if term is None or next(outside, None) is not None:
            return None
        m_inv = _monomial_inverse(self.ring, *term)
        return None if m_inv is None else (term[0], m_inv)

    def is_unit(self) -> bool:
        """Whether try_invert recognizes self, without building the inverse."""
        return self._unit_term() is not None

    def try_invert(self) -> Optional["Poly"]:
        """Inverse, or None.  Recognizes a unit monomial m times 1 - n, n in
        the nilradical (see _unit_term), and inverts it as
        m^-1 (1 + n)(1 + n^2)(1 + n^4)... up to the first n^(2^i) = 0, which
        comes within ceil(log2 e) squarings for e the ring's nilradical
        exponent."""
        unit = self._unit_term()
        if unit is None:
            return None
        exps, m_inv = unit
        if len(self.terms) == 1:
            return m_inv
        n = m_inv * Poly(self.ring, {e: -c for e, c in self.terms.items() if e != exps})
        one = self.ring.one()
        acc, n = one + n, n * n
        while not n.is_zero():
            acc, n = acc * (one + n), n * n
        q = m_inv * acc
        return q if self * q == one else None

    def invert(self) -> "Poly":
        inv = self.try_invert()
        if inv is None:
            raise NotAUnitError(f"{self} is not a recognized unit of {self.ring}")
        return inv

    # -- structure maps

    def into(self, ring: Ring) -> "Poly":
        """Re-express in a ring containing (at least) the same variables."""
        if ring.base != self.ring.base:
            raise RingMismatchError(f"base {self.ring.base} vs {ring.base}")
        pos = [ring.index(v.name) for v in self.ring.vars]
        out = {}
        for exps, c in self.terms.items():
            e = [0] * len(ring.vars)
            for p, x in zip(pos, exps):
                e[p] = x
            out[tuple(e)] = c
        return Poly(ring, out)

    def coefficient(self, name: str, k: int) -> "Poly":
        """The coefficient of name^k, over the ring without name."""
        i = self.ring.index(name)
        return Poly(self.ring.drop(name), {
            e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == k})

    def substitute(self, assignments: Mapping[str, object]) -> "Poly":
        """Specialize each named variable to 0, into the ring without them: the
        coefficient of their zeroth powers.  Only the value 0 is accepted, and
        a negative power of a named variable has no value there."""
        out = self
        for name, val in assignments.items():
            if val != 0:
                raise ValueError(f"only the specialization {name} -> 0 is supported")
            if any(e[self.ring.index(name)] < 0 for e in self.terms):
                raise NotAUnitError(f"{self} has a negative power of {name}, no value at 0")
            out = out.coefficient(name, 0)
        return out

    def derivative(self, name: str) -> "Poly":
        k = self.ring.index(name)
        if self.ring.vars[k].laurent:
            raise ValueError(f"formal derivative in Laurent variable {name} unsupported")
        out = {}
        for exps, c in self.terms.items():
            e = exps[k]
            if e == 0:
                continue
            ne = list(exps)
            ne[k] = e - 1
            out[tuple(ne)] = self.ring.ops.from_int(e) * c
        return Poly(self.ring, out)

    def coefficient_map(self, f: Callable, target: Ring) -> "Poly":
        """Apply f to every coefficient, reinterpreting in target (same vars)."""
        if [v.name for v in target.vars] != [v.name for v in self.ring.vars]:
            raise RingMismatchError("coefficient_map requires identical variables")
        return Poly(target, {e: f(c) for e, c in self.terms.items()})

    # -- display

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if self.is_zero():
            return "0"
        names = [v.name for v in self.ring.vars]
        parts = []
        for exps, c in self.sorted_terms():
            factors = [f"{n}^{e}" if e != 1 else n
                       for n, e in zip(names, exps) if e]
            if factors and c == self.ring.ops.one:
                parts.append("*".join(factors))
            elif factors:
                parts.append(f"{c}*" + "*".join(factors))
            else:
                parts.append(str(c))
        return " + ".join(parts)

    __repr__ = __str__


def ladder(x, k: int, mul):
    """x^k for k >= 1 by square-and-multiply under the product mul, with no
    square after the last bit and no product into one."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


def add_products(out: dict, x: Poly, y: Poly) -> dict:
    """Add the terms of x*y into the term map out, in place, and return it.
    A sum of products is built in one map and normalized once by
    Poly(ring, out): truncation, the mod-2 reduction and dropping zeros are
    linear, so one pass over the sum equals one pass per product.  out may
    hold zero coefficients and exponents >= trunc until then; it must not be
    the terms of a Poly."""
    ys = y.terms.items()
    for e1, c1 in x.terms.items():
        for e2, c2 in ys:
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return out


def _monomial_inverse(ring: Ring, exps: tuple, c) -> Optional[Poly]:
    """Inverse of c * x^exps: c a unit, nonzero exponents only on Laurent
    variables; else None."""
    cinv = ring.ops.invert(c)
    if cinv is None:
        return None
    if any(e != 0 and not v.laurent for e, v in zip(exps, ring.vars)):
        return None
    return Poly(ring, {tuple(-e for e in exps): cinv})


# ---------------------------------------------------------------------------
# homomorphisms


@cache
def _hom_target(src: Ring, base: str, t_trunc: Optional[int] = None) -> Ring:
    """src's variables over base, t truncated at t_trunc when given: one
    target ring per source ring for truncate_t2, psi and rho."""
    return Ring(base, tuple(Var(v.name, v.laurent, t_trunc) if v.name == "t" and t_trunc
                            else v for v in src.vars))


def truncate_t2(p: Poly) -> Poly:
    """Quotient map from Q[t,...] onto the t-degree < 2 normal form."""
    src = p.ring
    k = src.index("t")
    if src.vars[k].trunc is not None:
        return p
    return Poly(_hom_target(src, src.base, 2), dict(p.terms))


def gauss_from_group_ring(c: GroupRingZ4) -> GaussianInt:
    return GaussianInt(c.c0 - c.c2, c.c1 - c.c3)


def group_ring_from_gauss(c: GaussianInt) -> GroupRingZ4:
    """Canonical lift a + b*i -> a + b*sigma."""
    return GroupRingZ4(c.re, c.im, 0, 0)


def dual_from_gauss(c: GaussianInt) -> DualF2:
    # i -> 1 + eps, coefficients mod 2
    return DualF2(c.re + c.im, c.im)


def psi(p: Poly) -> Poly:
    """Z[Z/4][vars] -> Z[i][vars], sigma -> i."""
    if p.ring.base != "Z4":
        raise RingMismatchError("psi expects a Z[Z/4] coefficient ring")
    return p.coefficient_map(gauss_from_group_ring, _hom_target(p.ring, "Zi"))


def rho(p: Poly) -> Poly:
    """Z[i][vars] -> F2[eps][vars]/(eps^2), i -> 1 + eps."""
    if p.ring.base != "Zi":
        raise RingMismatchError("rho expects a Z[i] coefficient ring")
    return p.coefficient_map(dual_from_gauss, _hom_target(p.ring, "F2e"))


HOMS: dict[str, Callable[[Poly], Poly]] = {
    "pi_t2": truncate_t2,
    "psi": psi,
    "rho": rho,
}


def hom_apply(name: str, p: Poly) -> Poly:
    try:
        h = HOMS[name]
    except KeyError:
        raise KeyError(f"unknown homomorphism {name!r}") from None
    return h(p)


# ---------------------------------------------------------------------------
# ideals and the index-2 monomial subring


@dataclass(frozen=True)
class IdealSpec:
    kind: str  # "t2" | "two" | "one_minus_sigma_sq"


MONOMIAL_T2 = IdealSpec("t2")
PRINCIPAL_TWO = IdealSpec("two")
PRINCIPAL_ONE_MINUS_SIGMA_SQ = IdealSpec("one_minus_sigma_sq")


def ideal_member(p: Poly, ideal: IdealSpec) -> bool:
    if ideal.kind == "t2":
        if p.ring.base != "Q":
            raise RingMismatchError("the (t^2) ideal lives over Q[t,...]")
        k = p.ring.index("t")
        return all(exps[k] >= 2 for exps in p.terms)
    if ideal.kind == "two":
        if p.ring.base != "Zi":
            raise RingMismatchError("the ideal (2) lives over Z[i][...]")
        return all(c.re % 2 == 0 and c.im % 2 == 0 for c in p.terms.values())
    if ideal.kind == "one_minus_sigma_sq":
        if p.ring.base != "Z4":
            raise RingMismatchError("the ideal (1-sigma^2) lives over Z[Z/4][...]")
        return all(c.c2 == -c.c0 and c.c3 == -c.c1 for c in p.terms.values())
    raise ValueError(f"unknown ideal {ideal.kind!r}")


def subring_member(p: Poly) -> bool:
    """True iff no stored monomial has t-exponent exactly 1
    (membership in Q[t^2,t^3,...] inside Q[t,...])."""
    k = p.ring.index("t")
    return all(exps[k] != 1 for exps in p.terms)


# ---------------------------------------------------------------------------
# serialization


def ring_to_json(ring: Ring) -> dict:
    vs = []
    for v in ring.vars:
        d = {"name": v.name, "laurent": v.laurent}
        if v.trunc is not None:
            d["trunc"] = v.trunc
        vs.append(d)
    return {"base": ring.base, "vars": vs}


def ring_from_json(j: dict) -> Ring:
    vs = tuple(Var(v["name"], v.get("laurent", False), v.get("trunc")) for v in j["vars"])
    seen = set()
    for v in vs:
        if type(v.name) is not str or type(v.laurent) is not bool:
            raise ValueError(f"variable name must be a string and laurent a bool, got "
                             f"name={json.dumps(v.name)}, laurent={json.dumps(v.laurent)}")
        if v.name in seen:
            raise ValueError(f"variable {v.name} is declared twice")
        seen.add(v.name)
    return Ring(j["base"], vs)


def poly_terms_to_json(p: Poly) -> list:
    enc = p.ring.ops.to_json
    return [[list(exps), enc(c)] for exps, c in p.sorted_terms()]


def poly_terms_from_json(ring: Ring, j: list) -> Poly:
    """The Poly of an entry's JSON terms.  This is where outside input
    becomes a Poly, so the exponent vectors Poly takes on trust are checked
    here: the ring's length, and no negative power of an ordinary variable."""
    dec = ring.ops.from_json
    terms = {}
    for exps, c in j:
        key = tuple(int_from_json(e, "exponent") for e in exps)
        if key in terms:
            raise ValueError(f"exponent vector {list(key)} appears twice in one entry")
        terms[key] = dec(c)
    for key in terms:
        if len(key) != len(ring.vars):
            raise ValueError("exponent vector has wrong length")
        for e, v in zip(key, ring.vars):
            if e < 0 and not v.laurent:
                raise ValueError(f"negative exponent for ordinary variable {v.name}")
    return Poly(ring, terms)


def poly_latex(p: Poly) -> str:
    if p.is_zero():
        return "0"
    names = [v.name for v in p.ring.vars]
    coeff, one = p.ring.ops.latex, p.ring.ops.one
    parts = []
    for exps, c in p.sorted_terms():
        mono = "".join(f"{n}^{{{e}}}" if e != 1 else n
                       for n, e in zip(names, exps) if e)
        if mono and c == one:
            parts.append(mono)
        elif mono and c == -one:
            parts.append("-" + mono)
        else:
            parts.append(coeff(c) + mono)
    out = parts[0]
    for q in parts[1:]:
        out += q if q.startswith("-") else "+" + q
    return out


# ---------------------------------------------------------------------------
# the rings the constructions live in (global variable order t, s, z, x)

Q_TS = Ring("Q", (Var("t"), Var("s")))
Q_TS_MOD_T2 = Ring("Q", (Var("t", trunc=2), Var("s")))
Q_TSZ = Ring("Q", (Var("t"), Var("s"), Var("z", laurent=True)))
Q_TZ = Ring("Q", (Var("t"), Var("z", laurent=True)))
ZI_X = Ring("Zi", (Var("x"),))
Z4_X = Ring("Z4", (Var("x"),))
F2E_X = Ring("F2e", (Var("x"),))
F2_X = Ring("F2", (Var("x"),))
