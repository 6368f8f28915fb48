import copy
import itertools
import json
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest

from nilk.rings import (BASE, F2E_X, F2_X, MONOMIAL_T2, PRINCIPAL_ONE_MINUS_SIGMA_SQ,
                        PRINCIPAL_TWO, Q_TS, Q_TS_MOD_T2, Q_TSZ, Q_TZ, Z4_X, ZI_X,
                        DualF2, GaussianInt, GroupRingZ4, NotAUnitError, Poly,
                        Ring, RingMismatchError, Var, generate, group_ring_from_gauss,
                        hom_apply, ideal_member, poly_latex, poly_terms_from_json, poly_terms_to_json,
                        psi, rho, ring_from_json, ring_to_json,
                        rational, subring_member, truncate_t2)
from nilk.sampling import randint, random_poly

from helpers import assert_canonical, reference_normal, reference_try_invert


# the most digits str() writes of an int
LIMIT = sys.get_int_max_str_digits()


def st(k):
    return Q_TS.var("s", k) * Q_TS.var("t", k)


# -- arithmetic examples


def test_difference_of_squares():
    one = Q_TS.one()
    assert (one + st(1)) * (one - st(1)) == one - st(2)


def test_sigma_squared_annihilator():
    r = Ring("Z4")
    a = r.const(GroupRingZ4(1, 0, -1, 0))
    b = r.const(GroupRingZ4(1, 0, 1, 0))
    assert (a * b).is_zero()  # sigma^4 = 1 forces (1-s^2)(1+s^2) = 0


def test_eps_truncation():
    eps = F2E_X.const(DualF2(0, 1))
    x = F2E_X.var("x")
    assert eps * (x + eps) == eps * x


def test_power_squares_no_more_than_it_needs(monkeypatch):
    # 64 = 2^6: six squarings, no square after the last bit, no product with one
    mul, products = Poly.__mul__, []
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert (Q_TS.one() + Q_TS.var("s")) ** 64 is not None
    assert len(products) == 6


@pytest.mark.parametrize("p", [
    Q_TS.const(Fraction(1, 2)) + st(1) - Q_TS.var("t", 2),
    Z4_X.const(GroupRingZ4(1, 2, 0, -1)) + Z4_X.const(GroupRingZ4(0, 1)) * Z4_X.var("x"),
], ids=["Q[t,s]", "Z[Z/4][x]"])
def test_power_is_repeated_product(p):
    expected = p.ring.one()
    for n in range(10):
        assert p ** n == expected
        expected = expected * p


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(RingMismatchError):
        Q_TS.one() + ZI_X.one()


@pytest.mark.parametrize("ring", [F2_X, F2E_X], ids=["F2_X", "F2E_X"])
def test_negation_in_characteristic_2_is_the_poly_itself(ring):
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng, ring, 3, 3)
        assert -p is p and (p + (-p)).is_zero()


@pytest.mark.parametrize("ring", [Q_TS, ZI_X, Z4_X], ids=["Q_TS", "ZI_X", "Z4_X"])
def test_negation_elsewhere_is_an_additive_inverse(ring):
    rng = random.Random(5)
    nonzero = 0
    for _ in range(100):
        p = random_poly(rng, ring, 3, 3)
        assert (p + (-p)).is_zero() and -(-p) == p
        if not p.is_zero():
            nonzero += 1
            assert -p != p
    assert nonzero > 50


# -- coefficient algebras

# a coordinate box of each base, with the coordinates of its units
ALGEBRA_BOXES = {
    "Q": ([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)],
          {1, -1, 2, Fraction(1, 2), Fraction(-2, 3)}),
    "Z": (list(range(-3, 4)), {1, -1}),
    "F2": ([0, 1], {1}),
    "Zi": ([GaussianInt(a, b) for a, b in itertools.product(range(-3, 4), repeat=2)],
           {(1, 0), (-1, 0), (0, 1), (0, -1)}),
    "Z4": ([GroupRingZ4(*c) for c in itertools.product(range(-2, 3), repeat=4)],
           {tuple(v if i == k else 0 for i in range(4))
            for k in range(4) for v in (1, -1)}),
    "F2e": ([DualF2(a, b) for a, b in itertools.product((0, 1), repeat=2)],
            {(1, 0), (1, 1)}),
}


@pytest.mark.parametrize("base", sorted(ALGEBRA_BOXES))
def test_unit_rule_on_a_box(base):
    box, units = ALGEBRA_BOXES[base]
    one = BASE[base].one
    inverted = set()
    for u in box:
        inv = BASE[base].invert(u)
        if inv is not None:
            assert u * inv == one and inv * u == one
            inverted.add(_coords(u))
    assert inverted == units


def _coords(u):
    return getattr(u, "coords", u)  # an int or Fraction is its own coordinate


@pytest.mark.parametrize("base", sorted(ALGEBRA_BOXES))
def test_truth_is_nonzero_on_a_box(base):
    box, _ = ALGEBRA_BOXES[base]
    assert [c for c in box if not c] == [BASE[base].zero]


def test_rational_is_an_int_when_integral():
    assert [(type(q), q) for q in map(rational, (Fraction(6, 3), Fraction(-2, 4)))] == [
        (int, 2), (Fraction, Fraction(-1, 2))]
    assert type(BASE["Q"].invert(Fraction(1, 2))) is int
    assert type(Q_TS.const(Fraction(4, 2)).terms[(0, 0)]) is int


def test_an_integral_fraction_is_the_int_on_every_base():
    assert ZI_X.const(Fraction(4, 2)) == ZI_X.const(2)
    for ring in (Ring("Z", (Var("x"),)), F2_X, Z4_X, F2E_X, Q_TS):
        assert ring.const(Fraction(-6, 2)) == ring.const(-3)
        assert ring.one() * Fraction(4, 2) == ring.const(2)


def test_reflected_subtraction():
    t = Q_TS.var("t")
    assert 1 - t == Q_TS.one() - t
    assert Fraction(1, 2) - t == Q_TS.const(Fraction(1, 2)) - t


def test_coefficient_repr():
    assert repr(GaussianInt(1, -2)) == "GaussianInt(1, -2)"
    assert repr(DualF2(1, 1)) == "DualF2(1, 1)"


def test_coefficient_equality():
    assert GaussianInt(1, 0) != DualF2(1, 0)
    assert (DualF2(1, 0) == GaussianInt(1, 0)) is False
    assert (DualF2(1, 0) != GaussianInt(1, 0)) is True
    assert GaussianInt(1, 0) != GroupRingZ4(1, 0)
    assert GroupRingZ4(1, 0) != DualF2(1, 0)
    assert DualF2(3, 2) == DualF2(1, 0)
    for c in (GaussianInt(2, -1), GroupRingZ4(1, 0, -1, 2), DualF2(3, 2)):
        twin = type(c)(*c.coords)
        assert twin == c


DUAL_COORDS = [(a, b) for a in (0, 1) for b in (0, 1)]


def test_dual_numbers_are_four_shared_values():
    for a, b in itertools.product(range(-3, 4), repeat=2):
        v = DualF2(a, b)
        assert v is DualF2(a % 2, b % 2) and v.coords == (a % 2, b % 2)


@pytest.mark.parametrize("a, b", DUAL_COORDS)
def test_shared_dual_numbers_refuse_writes(a, b):
    # a write would change the value for every reader of .a and .b, while
    # the tables still treat the instance as the old value
    v = DualF2(a, b)
    for name in ("a", "b", "extra"):
        with pytest.raises(AttributeError, match=f"^a DualF2 is immutable: cannot set '{name}'$"):
            setattr(v, name, 1 - a)
        with pytest.raises(AttributeError, match=f"^a DualF2 is immutable: cannot set '{name}'$"):
            delattr(v, name)
    assert v.coords == (a, b) and v is DualF2(a, b)


def test_dual_number_tables_match_a_plus_b_eps():
    # (a + b eps) + (c + d eps) = (a + c) + (b + d) eps and
    # (a + b eps)(c + d eps) = ac + (ad + bc) eps, mod 2
    for (a, b), (c, d) in itertools.product(DUAL_COORDS, repeat=2):
        x, y = DualF2(a, b), DualF2(c, d)
        assert (x + y).coords == ((a + c) % 2, (b + d) % 2)
        assert (x * y).coords == (a * c % 2, (a * d + b * c) % 2)
        assert -x is x


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_dual_numbers_are_the_shared_values(clone):
    x, eps = F2E_X.var("x"), F2E_X.const(DualF2(0, 1))
    p = x * F2E_X.const(DualF2(1, 1)) + eps + x * x * eps
    for a, b in DUAL_COORDS:
        assert clone(DualF2(a, b)) is DualF2(a, b)
    q = clone(p)
    assert q == p and q.ring == F2E_X
    assert all(c is DualF2(*c.coords) for c in q.terms.values())
    # no copy wrote into a shared value
    assert [DualF2(a, b).coords for a, b in DUAL_COORDS] == DUAL_COORDS


def test_var_check_runs_on_replace_make_and_unpickle():
    # a Var is a tuple: only tuple.__new__ builds one past the trunc check
    bad = tuple.__new__(Var, ("t", True, 2))
    for build in (lambda: Var("t")._replace(trunc=0), lambda: Var._make(("t", True, 2)),
                  lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad)):
        with pytest.raises(ValueError, match="^variable t: trunc must be an integer >= 1 on a"):
            build()
    assert Var("t")._replace(trunc=3) == Var("t", trunc=3)


@pytest.mark.parametrize("c, text, latex", [
    (GaussianInt(2, -1), "(2-1i)", "(2-1i)"),
    (GroupRingZ4(1, 0, -1, 2), "(+1-1σ^2+2σ^3)", r"(1-1\sigma^{2}+2\sigma^{3})"),
    (DualF2(1, 1), "(1+ε)", r"(1+\epsilon)"),
], ids=["Zi", "Z4", "F2e"])
def test_coefficient_display_and_json(c, text, latex):
    base = {GaussianInt: "Zi", GroupRingZ4: "Z4", DualF2: "F2e"}[type(c)]
    ops = BASE[base]
    x = Ring(base, (Var("x"),)).var("x")
    assert str(c) == text and ops.latex(c) == latex
    assert str(x * c) == f"{text}*x" and poly_latex(x * c) == f"{latex}x"
    assert json.dumps(ops.to_json(c)) == json.dumps(list(c.coords))
    assert ops.from_json(json.loads(json.dumps(ops.to_json(c)))) == c


@pytest.mark.parametrize("base", sorted(BASE))
def test_unit_coefficient_is_omitted(base):
    x = Ring(base, (Var("x"),)).var("x")
    assert str(x) == "x" and poly_latex(x) == "x"
    assert poly_latex(-x) == ("x" if -x == x else "-x")  # -1 = 1 in F2, F2[eps]


# -- units


def test_invert_dual_unit():
    eps = F2E_X.const(DualF2(0, 1))
    x = F2E_X.var("x")
    u = F2E_X.one() - eps * x
    assert u.try_invert() == F2E_X.one() + eps * x


def test_invert_laurent_monomial():
    z = Q_TSZ.var("z")
    assert z.try_invert() == Q_TSZ.var("z", -1)
    assert (Q_TSZ.const(Fraction(2)) * z ** 3).try_invert() == \
        Q_TSZ.const(Fraction(1, 2)) * z ** -3
    # a unit monomial other than the constant term, times 1 - nilpotent
    r = Ring("F2e", (Var("z", laurent=True),))
    z, eps = r.var("z"), r.const(DualF2(0, 1))
    assert (z + eps).try_invert() == z ** -1 + eps * z ** -2
    assert (r.one() + z).try_invert() is None
    assert (z + z * z).try_invert() is None


def test_invert_nonunit():
    assert Q_TS.var("t").try_invert() is None
    assert Q_TS.zero().try_invert() is None


def test_invert_truncated_unit():
    r = Ring("Q", (Var("t", trunc=2), Var("s")))
    u = r.one() + r.var("s") * r.var("t")
    v = u.try_invert()
    assert v == r.one() - r.var("s") * r.var("t")
    assert u * v == r.one()


def test_invert_series_bound_from_ring():
    r = Ring("Q", (Var("t", trunc=100),))
    u = r.one() + r.var("t")
    v = u.try_invert()
    assert v is not None and u * v == r.one()
    # (t + eps*x)^3 = t^2*eps*x != 0: the bound is 2 (t) + 1 (eps) + 1 = 4
    r = Ring("F2e", (Var("t", trunc=3), Var("x")))
    u = r.one() + r.var("t") + r.const(DualF2(0, 1)) * r.var("x")
    v = u.try_invert()
    assert v is not None and u * v == r.one()
    assert (Q_TS.one() + Q_TS.var("s")).try_invert() is None
    assert (Q_TSZ.one() + Q_TSZ.var("z")).try_invert() is None
    # 1 + s is no unit however long the series may run: s is outside (t)
    deep = Ring("Q", (Var("t", trunc=10 ** 12), Var("s")))
    assert (deep.one() + deep.var("s")).try_invert() is None


# -- substitution


def test_substitute_s_to_zero():
    one = Q_TSZ.one()
    z = Q_TSZ.var("z")
    p = one + (z - one) * Q_TSZ.var("s", 4) * Q_TSZ.var("t", 4)
    q = p.substitute("s")
    assert q == q.ring.one()


def test_substitute_laurent_requires_unit():
    # z^-1 has no value at z = 0
    with pytest.raises(NotAUnitError):
        Q_TSZ.var("z", -1).substitute("z")


def evaluate_termwise(p: Poly, assignments: dict) -> Poly:
    """Reference specialization: each term evaluated with every assigned
    variable replaced by the constant given for it, the terms summed."""
    target = p.ring
    for name in assignments:
        target = target.drop(name)
    out = target.zero()
    for exps, c in p.terms.items():
        term = target.const(c)
        for v, e in zip(p.ring.vars, exps):
            img = target.const(assignments[v.name]) if v.name in assignments \
                else target.var(v.name)
            term = term * img ** e
        out = out + term
    return out


@pytest.mark.parametrize("ring", [Q_TSZ, Q_TS_MOD_T2, ZI_X, Z4_X, F2E_X],
                         ids=["Q_TSZ", "Q_TS_MOD_T2", "ZI_X", "Z4_X", "F2E_X"])
def test_coefficient_and_specialization_against_termwise(ring):
    rng = random.Random(f"coefficient:{ring}")
    names = [v.name for v in ring.vars]
    for _ in range(150):
        p = random_poly(rng, ring, 5, 3)
        for name in names:
            # sum_i name^i * coefficient(name, i) reassembles p
            k = ring.index(name)
            back = ring.zero()
            for i in {e[k] for e in p.terms}:
                back = back + p.coefficient(name, i).into(ring) * ring.var(name, i)
            assert back == p
            negative = any(e[k] < 0 for e in p.terms)
            if negative:
                with pytest.raises(NotAUnitError):
                    p.substitute(name)
                with pytest.raises(NotAUnitError):
                    evaluate_termwise(p, {name: 0})
            else:
                assert p.substitute(name) == evaluate_termwise(p, {name: 0})
        if len(names) > 1 and not any(e[-1] < 0 for e in p.terms):
            pair = {names[0]: 0, names[-1]: 0}
            assert p.substitute(names[0]).substitute(names[-1]) == evaluate_termwise(p, pair)


# -- homomorphisms


def test_pi_t2_truncates():
    p = Q_TS.one() + st(1) + st(2) + st(3)
    q = truncate_t2(p)
    assert q == truncate_t2(Q_TS.one() + st(1))


def test_pi_t2_truncates_a_truncated_t_further():
    q_t3s = Ring("Q", (Var("t", trunc=3), Var("s")))
    q = truncate_t2(q_t3s.var("t", 2) + q_t3s.var("s"))
    assert q == Q_TS_MOD_T2.var("s") and q.ring == Q_TS_MOD_T2
    p = Q_TS_MOD_T2.var("t") + Q_TS_MOD_T2.var("s")
    assert truncate_t2(p) == p and truncate_t2(p).ring == Q_TS_MOD_T2
    q_t1 = Ring("Q", (Var("t", trunc=1),))
    assert truncate_t2(q_t1.one()).ring == q_t1


def test_psi_one_minus_sigma_sq():
    p = Z4_X.const(GroupRingZ4(1, 0, -1, 0))
    assert psi(p) == ZI_X.const(GaussianInt(2, 0))


def test_rho_i_to_one_plus_eps():
    p = ZI_X.const(GaussianInt(0, 1))
    assert rho(p) == F2E_X.const(DualF2(1, 1))


def test_hom_apply_unknown():
    with pytest.raises(KeyError):
        hom_apply("nope", Q_TS.one())


GUARDS = {
    "index": (lambda: Q_TS.index("z"), KeyError, "\"no variable 'z' in Q[t,s]\""),
    "drop": (lambda: Q_TS.drop("z"), KeyError, "\"no variable 'z' in Q[t,s]\""),
    "pi_t2_without_t": (lambda: truncate_t2(ZI_X.one()), KeyError,
                        "\"no variable 't' in Zi[x]\""),
    "into": (lambda: Q_TS.one().into(ZI_X), RingMismatchError, "base Q vs Zi"),
    "coefficient_map": (lambda: Q_TS.one().coefficient_map(lambda c: c, Q_TZ),
                        RingMismatchError, "coefficient_map requires identical variables"),
    "psi": (lambda: psi(ZI_X.one()), RingMismatchError, "psi expects a Z[Z/4] coefficient ring"),
    "rho": (lambda: rho(Z4_X.one()), RingMismatchError, "rho expects a Z[i] coefficient ring"),
    "ideal_t2": (lambda: ideal_member(ZI_X.one(), MONOMIAL_T2), RingMismatchError,
                 "the (t^2) ideal lives over Q[t,...]"),
    "ideal_two": (lambda: ideal_member(Q_TS.one(), PRINCIPAL_TWO), RingMismatchError,
                  "the ideal (2) lives over Z[i][...]"),
    "ideal_one_minus_sigma_sq": (lambda: ideal_member(ZI_X.one(), PRINCIPAL_ONE_MINUS_SIGMA_SQ),
                                 RingMismatchError,
                                 "the ideal (1-sigma^2) lives over Z[Z/4][...]"),
    "ideal_unknown": (lambda: ideal_member(Q_TS.one(), "nope"), ValueError,
                      "unknown ideal 'nope'"),
    "poly_plus_str": (lambda: Q_TS.one() + "x", TypeError,
                      "unsupported operand type(s) for +: 'Poly' and 'str'"),
    "poly_minus_str": (lambda: Q_TS.one() - "x", TypeError,
                       "unsupported operand type(s) for -: 'Poly' and 'str'"),
    "str_minus_poly": (lambda: "x" - Q_TS.one(), TypeError,
                       "unsupported operand type(s) for -: 'str' and 'Poly'"),
    "poly_times_str": (lambda: Q_TS.one() * "x", TypeError,
                       "can't multiply sequence by non-int of type 'Poly'"),
    "const_half_over_Z": (lambda: Ring("Z", (Var("x"),)).const(Fraction(1, 2)), ValueError,
                          "the rational 1/2 is not in the base Z"),
    "const_half_over_F2": (lambda: F2_X.const(Fraction(1, 2)), ValueError,
                           "the rational 1/2 is not in the base F2"),
    "const_half_over_F2e": (lambda: F2E_X.const(Fraction(-1, 2)), ValueError,
                            "the rational -1/2 is not in the base F2e"),
    "zi_times_half": (lambda: ZI_X.one() * Fraction(1, 2), ValueError,
                      "the rational 1/2 is not in the base Zi"),
    "z4_plus_third": (lambda: Z4_X.one() + Fraction(2, 3), ValueError,
                      "the rational 2/3 is not in the base Z4"),
    "q_plus_gauss": (lambda: Q_TS.var("t") + GaussianInt(1, 0), TypeError,
                     "unsupported operand type(s) for +: 'Poly' and 'GaussianInt'"),
    "gauss_times_z4_poly": (lambda: GaussianInt(0, 1) * Z4_X.var("x"), TypeError,
                            "unsupported operand type(s) for *: 'GaussianInt' and 'Poly'"),
    "z4_plus_zi_poly": (lambda: GroupRingZ4(0, 1) + ZI_X.var("x"), TypeError,
                        "unsupported operand type(s) for +: 'GroupRingZ4' and 'Poly'"),
    "dual_times_q_poly": (lambda: DualF2(0, 1) * Q_TS.var("t"), TypeError,
                          "unsupported operand type(s) for *: 'DualF2' and 'Poly'"),
    "gauss_plus_z4": (lambda: GaussianInt(0, 1) + GroupRingZ4(0, 1), TypeError,
                      "unsupported operand type(s) for +: 'GaussianInt' and 'GroupRingZ4'"),
    "z4_times_gauss": (lambda: GroupRingZ4(0, 1) * GaussianInt(0, 1), TypeError,
                       "unsupported operand type(s) for *: 'GroupRingZ4' and 'GaussianInt'"),
    "dual_plus_int": (lambda: DualF2(0, 1) + 1, TypeError,
                      "unsupported operand type(s) for +: 'DualF2' and 'int'"),
    "repeated_var": (lambda: Ring("Q", (Var("t"), Var("t"))), ValueError,
                     "variable t is declared twice"),
    "extend_by_a_declared_var": (lambda: Q_TSZ.extend(Var("z", laurent=True)), ValueError,
                                 "variable z is declared twice"),
    "trunc_past_str": (lambda: Var("t", trunc=10 ** LIMIT), ValueError,
                       f"variable t: trunc has more than {LIMIT} digits, "
                       "past sys.get_int_max_str_digits()"),
    "laurent_not_bool": (lambda: Var("t", laurent="no"), ValueError,
                         'variable name must be a string and laurent a bool, '
                         'got name="t", laurent="no"'),
    "var_negative_power": (lambda: Q_TS.var("t", -1), ValueError,
                           "negative exponent for ordinary variable t"),
    "var_float_power": (lambda: Q_TS.var("t", 1.5), ValueError,
                        "exponent must be an integer, got 1.5"),
    "var_bool_power": (lambda: Q_TS.var("t", True), ValueError,
                       "exponent must be an integer, got true"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_ring_guards(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_var_takes_a_negative_power_on_a_laurent_variable():
    z_inv = Q_TSZ.var("z", -1)
    assert z_inv.terms == {(0, 0, -1): 1} and z_inv * Q_TSZ.var("z") == Q_TSZ.one()


# a base element that is not the constant 1 or 0, over each coefficient algebra
ALGEBRA_ELEMENTS = {"Zi": (ZI_X, GaussianInt(0, 1)), "Z4": (Z4_X, GroupRingZ4(0, 1, 0, 0)),
                    "F2e": (F2E_X, DualF2(0, 1))}


@pytest.mark.parametrize("base", sorted(ALGEBRA_ELEMENTS))
@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
def test_a_base_element_on_the_left_of_a_poly(base, op):
    # the algebra's operator gives way, and Poly's reflected one takes c
    ring, c = ALGEBRA_ELEMENTS[base]
    p = ring.var("x") + ring.one()
    assert op(c, p) == op(p, c) == op(ring.const(c), p)
    assert op(c, p).ring is ring


def test_poly_is_not_equal_to_a_foreign_value():
    assert (Q_TS.one() == "x") is False and (Q_TS.one() != "x") is True
    # a rational outside the base is no constant of the ring either
    assert (ZI_X.one() == Fraction(1, 2)) is False and (ZI_X.one() != Fraction(1, 2)) is True


# -- ideals and subring


def test_monomial_t2_members():
    assert ideal_member(st(3) - st(2), MONOMIAL_T2)
    assert not ideal_member(st(1), MONOMIAL_T2)
    assert not ideal_member(Q_TS.one(), MONOMIAL_T2)


def test_one_minus_sigma_sq_member():
    gen = Z4_X.const(GroupRingZ4(1, 0, -1, 0))
    h = Z4_X.one() + Z4_X.var("x")
    assert ideal_member(gen * -h, PRINCIPAL_ONE_MINUS_SIGMA_SQ)


def test_one_minus_sigma_sq_characterization_brute_force():
    # enumerate (1-sigma^2)*h over bounded h; the membership predicate must
    # agree with direct generation in both directions
    gen = GroupRingZ4(1, 0, -1, 0)
    generated = set()
    rng = range(-2, 3)
    for c0 in rng:
        for c1 in rng:
            for c2 in rng:
                for c3 in rng:
                    generated.add((gen * GroupRingZ4(c0, c1, c2, c3)).coords)
    for c in generated:
        assert c[2] == -c[0] and c[3] == -c[1]
    for c0 in rng:
        for c1 in rng:
            assert (c0, c1, -c0, -c1) in generated


def test_principal_two():
    p = ZI_X.const(GaussianInt(2, -4)) * ZI_X.var("x")
    assert ideal_member(p, PRINCIPAL_TWO)
    assert not ideal_member(p + ZI_X.one(), PRINCIPAL_TWO)


def test_subring_member():
    assert subring_member(st(2) - st(3))
    assert not subring_member(st(1))
    assert subring_member(Q_TS.one())


# -- derivative


def test_formal_derivative():
    x = F2_X.var("x")
    assert x.derivative("x") == F2_X.one()
    assert (x * x).derivative("x").is_zero()  # coefficient 2 = 0
    assert F2_X.one().derivative("x").is_zero()
    with pytest.raises(ValueError):
        Q_TSZ.var("z").derivative("z")


# -- canonical form, properties, serialization


RINGS = [Q_TS, Q_TSZ, ZI_X, Z4_X, F2E_X, Ring("Q", (Var("t", trunc=2), Var("s")))]


def test_canonical_rebuild():
    rng = random.Random(11)
    for _ in range(300):
        ring = rng.choice(RINGS)
        p = random_poly(rng, ring)
        items = list(p.terms.items())
        rng.shuffle(items)
        rebuilt = ring.zero()
        for exps, c in items:
            rebuilt = rebuilt + Poly(ring, {exps: c})
        assert rebuilt == p


def test_ring_axioms_randomized():
    rng = random.Random(12)
    for _ in range(1200):
        ring = rng.choice(RINGS)
        a, b, c = (random_poly(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ring.one() == a
        assert a + ring.zero() == a


@pytest.mark.parametrize("ring", RINGS + [F2_X], ids=[
    "Q_TS", "Q_TSZ", "ZI_X", "Z4_X", "F2E_X", "Q_TS_MOD_T2", "F2_X"])
def test_arithmetic_results_are_canonical(ring):
    # the results of +, -, unary - and * are canonical: no zero coefficient
    # stored, no exponent >= trunc, coefficients of the base's type
    rng = random.Random(16)
    for _ in range(200):
        a, b = random_poly(rng, ring), random_poly(rng, ring)
        assert (a - a).is_zero()
        for r in (a + b, a - b, -a, a * b):
            assert_canonical(r)


# planted zeros and other coefficients of each base, for the normal form
NORMAL_COEFFS = {
    "Q": [Fraction(0, 1), 0, 1, -2, Fraction(1, 2), Fraction(3, 1)],
    "Z": [0, 1, -3],
    "Zi": [GaussianInt(0, 0), GaussianInt(1, 0), GaussianInt(0, -2), GaussianInt(3, 1)],
    "Z4": [GroupRingZ4(0, 0, 0, 0), GroupRingZ4(0, 0, 0, 1), GroupRingZ4(1, 0, -1, 0)],
    "F2e": [DualF2(0, 0), DualF2(1, 0), DualF2(0, 1), DualF2(1, 1)],
    "F2": [0, 1, 2, 3, -1],
}
NORMAL_RINGS = {
    **dict(zip(["Q_TS", "Q_TSZ", "ZI_X", "Z4_X", "F2E_X", "Q_TS_MOD_T2"], RINGS)),
    "F2_X": F2_X,
    "Z[x±]": Ring("Z", (Var("x", laurent=True),)),
    "Zi[t<1,u<2]": Ring("Zi", (Var("t", trunc=1), Var("u", trunc=2))),
    # the largest bound Var admits: exactly LIMIT digits
    f"Q[t<10^{LIMIT}-1]": Ring("Q", (Var("t", trunc=10 ** LIMIT - 1),)),
}


def test_largest_admitted_trunc_prints_and_draws():
    ring = NORMAL_RINGS[f"Q[t<10^{LIMIT}-1]"]
    assert str(ring) == f"Q[t<{'9' * LIMIT}]"
    p = random_poly(random.Random(1), ring)
    assert p.ring is ring and str(p)


def _normal_exponents(v: Var) -> list[int]:
    """Exponents of v to draw: just below and at its truncation, and
    negative on a Laurent variable."""
    if v.trunc is not None:
        return [0, v.trunc - 1, v.trunc]
    return [-2, 0, 1] if v.laurent else [0, 1, 3]


@pytest.mark.parametrize("ring", NORMAL_RINGS.values(), ids=NORMAL_RINGS)
def test_normal_form_matches_the_generic_rule(ring):
    # Poly keeps an already-normal map as the same object, else builds one
    # copy equal to the generic rule's, and never changes the caller's map
    rng, exps = random.Random(41), [_normal_exponents(v) for v in ring.vars]
    coeffs = NORMAL_COEFFS[ring.base]
    kept = copied = 0
    for _ in range(400):
        m = {tuple(rng.choice(es) for es in exps): rng.choice(coeffs)
             for _ in range(rng.randint(0, 4))}
        want, terms = reference_normal(ring, dict(m)), dict(m)
        got = Poly(ring, terms).terms
        assert got == want and terms == m, (m, got, want)
        assert all(c is m[e] for e, c in got.items()) or ring.base == "F2"
        if want == m:
            assert got is terms
            kept += 1
        else:
            assert got is not terms
            copied += 1
    assert kept and copied


def test_dual_kernel_matches_the_coefficient_operators():
    # the F2[eps] kernel's table lookups against DualF2's * and +, which the
    # kernel of any other base calls: every (out, x, y) of the four values,
    # then random maps; eps + eps cancels to the shared zero
    four = [DualF2(a, b) for a in (0, 1) for b in (0, 1)]
    dual, generic = generate("kernel", 2, "F2e"), generate("kernel", 2, "Z")
    for z, x, y in itertools.product(four, repeat=3):
        assert dual({(1, 1): z}, {(0, 1): x}, {(1, 0): y})[(1, 1)] is z + x * y
    eps = DualF2(0, 1)
    assert dual({(0, 0): eps}, {(0, 0): eps}, {(0, 0): DualF2(1, 0)})[(0, 0)] is DualF2(0, 0)
    rng = random.Random(42)
    for _ in range(200):
        xs, ys, out = ({(randint(rng, 0, 2), randint(rng, 0, 2)): rng.choice(four)
                        for _ in range(randint(rng, 0, 4))} for _ in range(3))
        assert dual(dict(out), xs, ys) == generic(dict(out), xs, ys)


def _random_unit_monomial(rng: random.Random, ring: Ring) -> Poly:
    """c x^e with c a unit of the base and e nonzero only on Laurent variables."""
    if ring.base == "Q":
        c = 0
        while not c:
            c = rational(Fraction(randint(rng, -6, 6), randint(rng, 1, 4)))
    else:
        box, units = ALGEBRA_BOXES[ring.base]
        c = rng.choice([u for u in box if _coords(u) in units])
    return Poly(ring, {tuple(rng.randint(-3, 3) if v.laurent else 0 for v in ring.vars): c})


def _random_nilradical_element(rng: random.Random, ring: Ring) -> Poly:
    """A random combination of the nilradical's generators: the truncated
    variables and, over F2[eps], eps."""
    gens = [ring.var(v.name) for v in ring.vars if v.trunc is not None]
    if ring.base == "F2e":
        gens.append(ring.const(DualF2(0, 1)))
    return sum((random_poly(rng, ring) * g for g in gens), ring.zero())


UNIT_RINGS = [Q_TS_MOD_T2, F2E_X, Q_TSZ, ZI_X, Z4_X,
              Ring("Q", (Var("t", trunc=4), Var("z", laurent=True)))]


@pytest.mark.parametrize("ring", UNIT_RINGS, ids=str)
def test_unit_recognition_matches_the_candidate_loop(ring):
    # random polys, mostly non-units, and built units m(1 - n), m a unit
    # monomial and n in the nilradical, which the recognition must invert
    rng = random.Random(17)
    for k in range(400):
        if k % 2:
            p = random_poly(rng, ring)
        else:
            m = _random_unit_monomial(rng, ring)
            p = m * (ring.one() - _random_nilradical_element(rng, ring))
        inv = p.try_invert()
        assert inv == reference_try_invert(p), p
        assert p.is_unit() == (inv is not None), p
        assert k % 2 or inv is not None, p


def test_invert_contract_randomized():
    rng = random.Random(13)
    for _ in range(500):
        ring = rng.choice(RINGS)
        p = random_poly(rng, ring)
        inv = p.try_invert()
        if inv is not None:
            assert p * inv == ring.one()


def test_psi_surjective_on_samples():
    rng = random.Random(14)
    for _ in range(300):
        g = random_poly(rng, ZI_X)
        lifted = g.coefficient_map(group_ring_from_gauss, Z4_X)
        assert psi(lifted) == g


def test_json_round_trip():
    rng = random.Random(15)
    for ring in RINGS + [F2_X]:
        ring_back = ring_from_json(json.loads(json.dumps(ring_to_json(ring))))
        assert ring_back == ring
        for _ in range(50):
            p = random_poly(rng, ring)
            terms = json.loads(json.dumps(poly_terms_to_json(p)))
            assert poly_terms_from_json(ring_back, terms) == p
