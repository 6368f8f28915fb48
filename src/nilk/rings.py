"""Exact arithmetic for the ring tower used by the NK1 constructions.

Every element is a multivariate (optionally Laurent) polynomial over one of
a handful of exact coefficient domains:

    Q    rationals: int when integral, else Fraction (rational, BASE)
    Z    integers
    Zi   Gaussian integers  a + b*i
    Z4   group ring Z[Z/4]  c0 + c1*sigma + c2*sigma^2 + c3*sigma^3
    F2   field with two elements
    F2e  dual numbers over F2:  a + b*eps, eps^2 = 0

Each value rule is written once, here.  A coefficient's equality, truth
and negation come from its coordinates (CoeffAlgebra).  F2[eps] has four
values, each one shared DualF2 instance that refuses writes: its + and *
are lookups in a table of the four, its equality is identity, and its zero
test is identity with the shared zero.

Quotients (eps^2 = 0, sigma^4 = 1, mod-2 coefficients, t-degree truncation)
are enforced by Poly(ring, terms), the one constructor, through Ring.normal,
generated per base and truncation.  Polynomials are kept in canonical form:
no zero coefficients, fixed variable order, so equality is literal equality
of term maps.  Outside input is checked where it enters, one rule per
decision: poly_terms_from_json for JSON terms, Ring.element for a Python
value (a Poly of the ring, an int, a Fraction or a base element), Var and
Ring for a variable list.  Every product is summed by Ring.products, a
kernel generated per exponent arity and base: in Poly.__mul__, in matrices
on each matrix's cleared term maps, and in words.eval_word.  generate
compiles all generated code, once per key and never at import, and no
variable name enters it.  Every nilk record is a NamedTuple (Var, BaseOps),
whose _make runs its check when Checked is its first base, or a plain class
on Frozen (Ring), equal, copied and pickled by its _fields.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter, mul, neg
from typing import Callable, NamedTuple, Optional


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class NotAUnitError(ValueError):
    """An inverse was required but the element is not a recognized unit."""


# ---------------------------------------------------------------------------
# the value rules: records and coefficients


class cached_field:
    """A field func(instance), computed on first access and written into the
    instance's __dict__, which later reads find before this non-data
    descriptor: functools.cached_property without its lock (to 3.11)."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.func(obj)
        return value


class Frozen:
    """Base of the plain-class records, which name their fields in _fields
    (two or more) and set them in __init__ by object.__setattr__; after it,
    only a cached_field (writing __dict__) adds an attribute.  Records
    are equal when they have the same type and field values, and are copied
    and pickled from those values (__reduce__)."""

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, name, *_):
        raise AttributeError(f"a {type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __reduce__(self):
        # built from the fields, not the cached values: a cached generated
        # function (Ring.normal, Ring.products) cannot be pickled
        return type(self), self._values


class Checked:
    """First base of a NamedTuple whose __new__ checks its fields:
    NamedTuple's _make, behind _replace too, would skip the check."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))


class CoeffAlgebra:
    """Base of the coefficient algebras: subclasses name their coordinates
    in __slots__ and write __add__, __mul__ and __str__ on those slots,
    whose operands are elements of the same algebra (Ring.const turns an
    int into one); + and * return NotImplemented for an operand they cannot
    read, so a Poly on the right takes the operation (Poly.__radd__,
    Poly.__rmul__) and any other value ends in TypeError.  Each is a try
    around the one expression, which costs nothing when it does not raise.
    Equality, truth, negation and JSON come from the coordinates (coords):
    two elements are equal when they have the same type and coordinates,
    and an element is false exactly when it is zero.  The unit rule is
    _invert_unit, shared with Z and F2.  F2[eps] has four values, each one
    shared instance, so DualF2 states object's identity __eq__ and __hash__,
    its -x is x, and its + and * are lookups in a table of the four."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.coords = property(attrgetter(*cls.__slots__))

    def __eq__(self, o):
        return self.coords == o.coords if type(o) is type(self) else NotImplemented

    def __bool__(self):
        return any(self.coords)

    def __neg__(self):
        return type(self)(*map(neg, self.coords))

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
        try:
            return GaussianInt(self.re + o.re, self.im + o.im)
        except AttributeError:  # not a Gaussian integer: Poly.__radd__ may take it
            return NotImplemented

    def __mul__(self, o):
        try:
            return GaussianInt(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)
        except AttributeError:
            return NotImplemented

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
        try:
            return GroupRingZ4(self.c0 + o.c0, self.c1 + o.c1,
                               self.c2 + o.c2, self.c3 + o.c3)
        except AttributeError:
            return NotImplemented

    def __mul__(self, o):
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        try:
            b0, b1, b2, b3 = o.c0, o.c1, o.c2, o.c3
        except AttributeError:
            return NotImplemented
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
    """a + b*eps over F2, with eps^2 = 0.  F2[eps] has four values, and
    DualF2(a, b) returns the one shared instance for (a mod 2, b mod 2), so
    equal values are one object, compared and hashed by identity, and each
    refuses writes, as a Frozen record does.  + and * look their result up
    in a table of the four (_DUAL_SUM, _DUAL_PRODUCT); a copy, a deep copy
    and a pickle give back the shared instance (__reduce__)."""

    __slots__ = ("a", "b")

    # the tables are keyed by the four values, and _invert_unit's
    # sq * sq == one is then a C-level identity test
    __eq__, __hash__ = object.__eq__, object.__hash__
    __setattr__ = __delattr__ = Frozen.__setattr__

    def __new__(cls, a: int = 0, b: int = 0):
        return _DUAL[a % 2][b % 2]

    def __reduce__(self):
        return DualF2, (self.a, self.b)

    def __add__(self, o):
        try:
            return _DUAL_SUM[self][o]
        except (KeyError, TypeError):  # not one of the four (a Poly is unhashable)
            return NotImplemented

    def __neg__(self):  # -c = c, with no coefficient built
        return self

    def __mul__(self, o):
        try:
            return _DUAL_PRODUCT[self][o]
        except (KeyError, TypeError):
            return NotImplemented

    def __str__(self):
        return {(0, 0): "0", (1, 0): "1", (0, 1): "ε", (1, 1): "(1+ε)"}[self.coords]


def _dual_value(a: int, b: int) -> DualF2:
    v = object.__new__(DualF2)
    object.__setattr__(v, "a", a)
    object.__setattr__(v, "b", b)
    return v


# _DUAL[a][b] is a + b*eps; the tables hold (a + b eps) + (c + d eps) =
# (a + c) + (b + d) eps and (a + b eps)(c + d eps) = ac + (ad + bc) eps
_DUAL = [[_dual_value(a, b) for b in (0, 1)] for a in (0, 1)]
_FOUR = [v for row in _DUAL for v in row]
_DUAL_SUM = {x: {y: _DUAL[x.a ^ y.a][x.b ^ y.b] for y in _FOUR} for x in _FOUR}
_DUAL_PRODUCT = {x: {y: _DUAL[x.a & y.a][(x.a & y.b) ^ (x.b & y.a)] for y in _FOUR}
                 for x in _FOUR}


def int_from_json(x, what: str) -> int:
    """x where a JSON format holds an integer: a JSON integer, not a number
    such as 2.9 (which int() would truncate) nor true/false (whose Python
    type is a subclass of int)."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(x, default=repr)}")
    return x


# integers in strings: ASCII digits only, where int() and Fraction() also
# take "1_000", " 7 " and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + "(/[0-9]+)?")


def rational(q: Fraction):
    """q as Q stores it (see BASE): the numerator when q is integral, else q."""
    return q.numerator if q.denominator == 1 else q


def _q_from_json(x):
    """A rational as the format writes it: "p/q" (or "p"), p and q read by int()."""
    if type(x) is not str or not _RATIONAL.fullmatch(x):
        raise ValueError(f'rational coefficient must be "p/q", got {json.dumps(x)}')
    p, _, q = x.partition("/")
    try:
        return rational(Fraction(int(p), int(q or 1)))
    except ZeroDivisionError:
        raise ValueError(f"rational coefficient {x} has denominator 0") from None


def _z_from_json(x) -> int:
    if type(x) is str and _INTEGER.fullmatch(x):
        return int(x)
    return int_from_json(x, "coefficient")


def _invert_q(c):
    return rational(Fraction(1, 1) / c) if c else None


def _invert_unit(u):
    """u^-1 = u^3 when u^4 = 1, else None: the unit rule of every base but
    Q.  The units of Z (+/-1), F2 (1), Z[i] (+/-1, +/-i), Z[Z/4] (+/-sigma^k,
    by Higman's theorem on the units of Z[C_4]) and F2[eps] (1, 1 + eps)
    are exactly their u with u^4 = 1."""
    sq = u * u
    return sq * u if sq * sq == type(u)(1) else None


class BaseOps(NamedTuple):
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
# normalization: every Fraction that enters passes through rational, and
# int arithmetic keeps an int one.  int has .numerator and .denominator, so
# JSON and LaTeX write both types alike.  Fraction arithmetic may still
# leave a Fraction(3, 1), which equals 3; normalizing it in Poly.__init__
# too slowed the verify workload.
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


# the bases where -c = c
_CHARACTERISTIC_2 = frozenset(("F2", "F2e"))


# ---------------------------------------------------------------------------
# rings and polynomials


class _VarFields(NamedTuple):
    name: str
    laurent: bool = False
    trunc: Optional[int] = None  # exponents >= trunc are discarded


class Var(Checked, _VarFields):
    __slots__ = ()

    def __new__(cls, name: str, laurent: bool = False, trunc: Optional[int] = None):
        # Ring.nilradical_exponent relies on t^trunc = 0 with trunc >= 1, which
        # has no meaning for a Laurent variable
        if trunc is not None and (type(trunc) is not int or trunc < 1 or laurent):
            raise ValueError(f"variable {name}: trunc must be an integer >= 1 on a non-Laurent "
                             f"variable, got trunc={trunc!r}, laurent={laurent!r}")
        try:
            str(trunc)  # Ring.__str__ and generate's filenames write the bound
        except ValueError:
            raise ValueError(f"variable {name}: trunc has more than {sys.get_int_max_str_digits()}"
                             " digits, past sys.get_int_max_str_digits()") from None
        if type(name) is not str or type(laurent) is not bool:
            raise ValueError(f"variable name must be a string and laurent a bool, got "
                             f"name={json.dumps(name, default=repr)}, "
                             f"laurent={json.dumps(laurent, default=repr)}")
        return tuple.__new__(cls, (name, laurent, trunc))


class Ring(Frozen):
    _fields = ("base", "vars")

    def __init__(self, base: str, vars: tuple[Var, ...] = ()):
        names = tuple(v.name for v in vars)
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"variable {name} is declared twice")
        if base not in BASE:
            raise ValueError(f"unknown base ring {base!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vars", vars)
        # the variable names in order, computed once: index and the
        # homomorphisms read them per call
        object.__setattr__(self, "names", names)
        # the one zero, built with the ring: reading zero() never builds a Poly
        object.__setattr__(self, "_zero", Poly(self, {}))
        # the hash, computed once: the caches keyed by a ring hash it per call
        object.__setattr__(self, "_hash", hash((base, vars)))

    def __hash__(self):
        return self._hash

    @property
    def ops(self) -> BaseOps:
        return BASE[self.base]

    @cached_field
    def truncated(self) -> tuple[tuple[int, int], ...]:
        """(index, trunc) of each truncated variable."""
        return tuple((k, v.trunc) for k, v in enumerate(self.vars) if v.trunc is not None)

    @cached_field
    def normal(self) -> Callable[[dict], dict]:
        """normal(terms), the canonical form of a term map of this ring: the
        generated function for its base and truncation (_normalizer)."""
        return _normalizer(self.base, self.truncated)

    @cached_field
    def products(self) -> Callable[[dict, dict, dict], dict]:
        """products(out, xs, ys) adds the terms of xs*ys, two term maps of
        this ring, into the term map out, in place, and returns it: the kernel
        generated for the ring's exponent arity and base (_product_kernel).  A
        sum of products is built in one map and normalized once by Poly(ring,
        out): truncation, the mod-2 reduction and dropping zeros are linear, so
        one pass over the sum equals one pass per product.  out may hold zero
        coefficients and exponents >= trunc until then; it is never the terms
        of a Poly."""
        return _product_kernel(len(self.vars), self.base)

    @cached_field
    def nilradical_exponent(self) -> int:
        """An m with J^m = 0 for the nilradical J: J is generated by the
        truncated variables and eps, and any product of sum(trunc - 1)
        + [eps] + 1 of those is zero.  The quotient by J is reduced."""
        return sum(t - 1 for _, t in self.truncated) + (self.base == "F2e") + 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def element(self, x) -> "Poly":
        """x as an element of this ring, the one rule for a Python value: a
        Poly over the ring as it is, a Poly over another ring refused, and
        any other value the constant x (const)."""
        if isinstance(x, Poly):
            if x.ring is not self and x.ring != self:
                raise RingMismatchError(f"{x.ring} vs {self}")
            return x
        return self.const(x)

    def const(self, c) -> "Poly":
        """The constant c, which is an int (not a bool), a Fraction, which
        off Q must be integral, or an element of the base: the values the
        JSON reader admits.  Any other value raises TypeError."""
        if type(c) is Fraction:
            c = rational(c)
            if type(c) is Fraction and self.base != "Q":
                raise ValueError(f"the rational {c} is not in the base {self.base}")
        if type(c) is int:
            c = self.ops.from_int(c)
        elif type(c) is not type(self.ops.one) and type(c) is not Fraction:
            raise TypeError(f"{c!r} is not an element of the base {self.base}")
        return Poly(self, {(0,) * len(self.vars): c})

    @cached_field
    def _one(self) -> "Poly":
        return self.const(self.ops.one)

    def zero(self) -> "Poly":
        """The ring's one zero Poly, shared by every caller."""
        return self._zero

    def one(self) -> "Poly":
        """The ring's one unit Poly, shared by every caller."""
        return self._one

    def var(self, name: str, power: int = 1) -> "Poly":
        """name^power, power an exponent poly_terms_from_json admits."""
        k = self.index(name)
        if int_from_json(power, "exponent") < 0 and not self.vars[k].laurent:
            raise ValueError(f"negative exponent for ordinary variable {name}")
        exps = [0] * len(self.vars)
        exps[k] = power
        return Poly(self, {tuple(exps): self.ops.one})

    @cache
    def extend(self, *new_vars: Var) -> "Ring":
        return Ring(self.base, self.vars + tuple(new_vars))

    @cache
    def drop(self, name: str) -> "Ring":
        """The ring without the variable name, which it must have."""
        k = self.index(name)
        return Ring(self.base, self.vars[:k] + self.vars[k + 1:])

    def __str__(self):
        vs = ",".join(v.name + ("±" if v.laurent else "") +
                      (f"<{v.trunc}" if v.trunc is not None else "")
                      for v in self.vars)
        return f"{self.base}[{vs}]"


class Poly:
    """Canonical-form polynomial; immutable; equality is term-map equality."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        """The Poly of a term map with exponent vectors of the ring's length,
        no negative power of an ordinary variable and coefficients in the base
        (as poly_terms_from_json and Ring.element check), in normal form
        (Ring.normal).  The Poly takes terms as its own: the caller hands over
        a map nothing else holds, which Ring.normal copies only when there is
        something to drop or reduce.  An empty map is normal as it is, so the
        zero each Ring builds generates nothing."""
        self.ring = ring
        self.terms = ring.normal(terms) if terms else terms

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
        """other as an element of self's ring (Ring.element), or None for a
        value that is not one, so the operator returns NotImplemented."""
        try:
            return self.ring.element(other)
        except TypeError:
            return None

    def __eq__(self, other):
        if other is self:
            return True
        try:
            other = self.ring.element(other)
        except (TypeError, ValueError):  # not an element of this ring
            return NotImplemented
        return self.terms == other.terms

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
        if self.ring.base in _CHARACTERISTIC_2:  # -c = c, and a Poly is immutable
            return self
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
        return Poly(self.ring, self.ring.products({}, self.terms, o.terms))

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

    def substitute(self, name: str) -> "Poly":
        """The value at name = 0, over the ring without name: the coefficient
        of name^0.  A negative power of name has no value there."""
        if any(e[self.ring.index(name)] < 0 for e in self.terms):
            raise NotAUnitError(f"{self} has a negative power of {name}, no value at 0")
        return self.coefficient(name, 0)

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
        if target.names != self.ring.names:
            raise RingMismatchError("coefficient_map requires identical variables")
        return Poly(target, {e: f(c) for e, c in self.terms.items()})

    # -- display

    def __str__(self):
        if self.is_zero():
            return "0"
        names = self.ring.names
        parts = []
        for exps, c in sorted(self.terms.items()):
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


_WRITERS: dict[str, Callable] = {}


def generated(kind: str):
    """Decorator: a writer of (source, namespace) becomes partial(generate, kind)."""
    def register(write):
        _WRITERS[kind] = write
        return partial(generate, kind)
    return register


@cache
def generate(kind: str, *key) -> Callable:
    """The function named kind that _WRITERS[kind](*key) writes, compiled
    under the filename <kind, key...>; this cache is the one registry."""
    source, namespace = _WRITERS[kind](*key)
    exec(compile(source, f"<{', '.join(map(str, (kind, *key)))}>", "exec"), namespace)
    return namespace[kind]


def _tuple_display(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


@generated("kernel")
def _product_kernel(n: int, base: str) -> tuple[str, dict]:
    """The term-product loop of Ring.products for exponent tuples of
    length n over base, as kernel(out, xs, ys) over two term maps.  Its for
    targets unpack both exponent tuples and it writes their sum as a tuple
    display, so the exponent sum of a term product makes no function call:

        for (a0, a1), c1 in xs.items():
            for (b0, b1), c2 in ys:
                e = (a0 + b0, a1 + b1)

    Over F2[eps] the product and sum are lookups in _DUAL_PRODUCT and
    _DUAL_SUM.  The source depends on n and whether base is F2e only; no
    variable name enters it."""
    dual = base == "F2e"
    src = "\n".join((
        "def kernel(out, xs, ys):",
        "    ys = ys.items()",
        f"    for {_tuple_display(f'a{k}' for k in range(n))}, c1 in xs.items():",
        *(["        p = P[c1]"] if dual else []),
        f"        for {_tuple_display(f'b{k}' for k in range(n))}, c2 in ys:",
        f"            e = {_tuple_display(f'a{k} + b{k}' for k in range(n))}",
        "            c = p[c2]" if dual else "            c = c1 * c2",
        f"            out[e] = {'S[out[e]][c]' if dual else 'out[e] + c'} if e in out else c",
        "    return out",
    ))
    return src, {"P": _DUAL_PRODUCT, "S": _DUAL_SUM}


@generated("normal")
def _normalizer(base: str, truncated: tuple[tuple[int, int], ...]) -> tuple[str, dict]:
    """Ring.normal for a ring over base with the truncated (position,
    bound) pairs.  normal(terms) tests each term once with the base's zero
    test (on F2[eps] identity with the shared zero, on F2 c == 1) and each
    bound written in, as `if not ((c.re or c.im) and e[0] < t0): break` over
    Zi[t<n].  It returns terms itself when every term stays, else one
    filtered copy (on F2, of c % 2 as 1).  Only positions and these tests
    enter the source; the bounds, outside input, enter by the namespace."""
    test = {"Q": "c", "Z": "c", "Zi": "(c.re or c.im)", "Z4": "(c.c0 or c.c1 or c.c2 or c.c3)",
            "F2e": "c is not ZERO", "F2": "c == 1"}[base]
    bounds = [f"e[{k}] < t{k}" for k, _ in truncated]
    keep = " and ".join([test, *bounds])
    check = (["if all(terms.values()):"] if base in ("Q", "Z") and not bounds else
             ["for e, c in terms.items():", f"    if not ({keep}):", "        break", "else:"])
    value, cond = ("1", " and ".join(["c % 2", *bounds])) if base == "F2" else ("c", keep)
    src = "\n    ".join(["def normal(terms):", *check, "    return terms",
                         f"return {{e: {value} for e, c in terms.items() if {cond}}}"])
    return src, {"ZERO": _DUAL[0][0], **{f"t{k}": t for k, t in truncated}}


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
    """src's variables over base, t truncated at t_trunc when given (or lower,
    as src has it): one target ring per source for truncate_t2, psi and rho.
    A t_trunc asks for a t: a src without one raises KeyError."""
    if t_trunc is not None:
        src.index("t")
    return Ring(base, tuple(Var(v.name, v.laurent, min(v.trunc or t_trunc, t_trunc))
                            if v.name == "t" and t_trunc else v for v in src.vars))


def truncate_t2(p: Poly) -> Poly:
    """Quotient map from Q[t,...] or Q[t<n,...] onto the t-degree < 2 form."""
    return Poly(_hom_target(p.ring, p.ring.base, 2), dict(p.terms))


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


# the names of the ideals ideal_member decides
MONOMIAL_T2 = "t2"
PRINCIPAL_TWO = "two"
PRINCIPAL_ONE_MINUS_SIGMA_SQ = "one_minus_sigma_sq"


def ideal_member(p: Poly, ideal: str) -> bool:
    if ideal == MONOMIAL_T2:
        if p.ring.base != "Q":
            raise RingMismatchError("the (t^2) ideal lives over Q[t,...]")
        k = p.ring.index("t")
        return all(exps[k] >= 2 for exps in p.terms)
    if ideal == PRINCIPAL_TWO:
        if p.ring.base != "Zi":
            raise RingMismatchError("the ideal (2) lives over Z[i][...]")
        return all(c.re % 2 == 0 and c.im % 2 == 0 for c in p.terms.values())
    if ideal == PRINCIPAL_ONE_MINUS_SIGMA_SQ:
        if p.ring.base != "Z4":
            raise RingMismatchError("the ideal (1-sigma^2) lives over Z[Z/4][...]")
        return all(c.c2 == -c.c0 and c.c3 == -c.c1 for c in p.terms.values())
    raise ValueError(f"unknown ideal {ideal!r}")


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
    return Ring(j["base"], tuple(Var(v["name"], v.get("laurent", False), v.get("trunc"))
                                 for v in j["vars"]))


def poly_terms_to_json(p: Poly) -> list:
    enc = p.ring.ops.to_json
    return [[list(exps), enc(c)] for exps, c in sorted(p.terms.items())]


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
    names = p.ring.names
    coeff, one = p.ring.ops.latex, p.ring.ops.one
    minus_one = -one
    parts = []
    for exps, c in sorted(p.terms.items()):
        mono = "".join(f"{n}^{{{e}}}" if e != 1 else n
                       for n, e in zip(names, exps) if e)
        if mono and c == one:
            parts.append(mono)
        elif mono and c == minus_one:
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
