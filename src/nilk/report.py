"""Ordered verification report, the one registry of checks: every
assertion the two constructions make, run exactly, each with its
source-display anchor and its computed and expected values, in the order
of the calls below.  A stage's identities are read from the
construction's `checks` ledger; the report computes only the checks no
stage makes, by `check`, `Check` or a row of SUITES.  A display mismatch
is reported, never normalized: a "discrepancy" for an id of
`ledger.KNOWN_DISCREPANCIES`, else a "fail".
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import groupring_pipeline as grp
from . import laurent_pipeline as lp
from . import nilsse
from .ledger import FAIL, PASS, Check, PipelineError, check
from .matrices import Matrix
from .rings import (F2E_X, F2_X, MONOMIAL_T2, PRINCIPAL_ONE_MINUS_SIGMA_SQ,
                    PRINCIPAL_TWO, Q_TS, Q_TS_MOD_T2, Q_TSZ, Z4_X, ZI_X,
                    DualF2, GaussianInt, GroupRingZ4, hom_apply, ideal_member,
                    subring_member)
from .sampling import choice, randint, random_poly
from .words import (StWord, dennis_stein_word, dual_symbol_args, dual_symbol_word,
                    eval_word, reduced_X_word)

# ---------------------------------------------------------------------------
# the Laurent-polynomial construction


def laurent_checks(con: lp.Construction | None = None) -> list[Check]:
    """Check the construction handed in, or a fresh one."""
    con = con or lp.construct()
    led = con.checks
    a = con.lift
    f = lp.lift_A_stated_factors()
    ltr = f[0] @ f[1] @ f[2] @ f[3]
    rtl = f[3] @ f[2] @ f[1] @ f[0]
    cs = [led["lift.reduction"], led["lift.det"], check(
        "lift.stated_factors",
        "A = e12(1+st) e21(-(1+st)) e12(1+st) rot (either order convention)",
        ltr if ltr == a else rtl, a)]

    pair, e2 = con.pair, con.e2
    cs += [led["clutch.B1_idempotent"], led["clutch.pair_in_double"],
           check("clutch.B2", "B2 = diag(1, 0)", pair.second, lp.projector_P()),
           led["excision.e2_idempotent"], led["excision.e2_congruent"],
           led["excision.e2_subring"],
           check("excision.e2_display",
                 "e2 = (A^T)^{-1} diag(1,0) A^T vs its stated display "
                 "(which carries s^2t^3 for s^2t^2)",
                 e2, lp.e2_display()),
           led["excision.stage1"], led["excision.stage2"], led["excision.stage3"]]

    loop_p = lp.loop_z(lp.projector_P())
    zring = loop_p.ring
    cs.append(check("loop.on_P", "loop map sends P to diag(z, 1)",
                    loop_p, Matrix.diag(zring, [zring.var("z"), zring.one()])))

    m = con.rep.matrix
    disp = lp.theorem31_display()
    agree = all(m[r, c] == disp[r, c] for r, c in [(0, 1), (1, 0), (1, 1)])
    cs.append(Check("rep31.off_entries",
                    "entries (1,2), (2,1), (2,2) match the stated display",
                    PASS if agree else FAIL, m, True))
    one = m.ring.one()
    s, t, z = m.ring.var("s"), m.ring.var("t"), m.ring.var("z")
    self_consistent = one - (one - z.invert()) * (s * t) ** 4
    cs += [check("rep31.entry11_self_consistent",
                 "(1,1) = z^-1 + (1-z^-1)(1-s^4t^4) = 1-(1-z^-1)s^4t^4",
                 m[0, 0], self_consistent),
           check("rep31.entry11_vs_display", "(1,1) stated as 1-(1+z^-1)s^4t^4",
                 m[0, 0], disp[0, 0]),
           led["rep31.det"], led["rep31.s_to_zero"], led["rep31.subring"]]

    reassembled = Matrix.identity(m.ring, 2)
    for i, blk in enumerate(con.blocks, start=1):
        reassembled = reassembled - blk.into(m.ring).scale(s ** i)
    cs.append(check("higman.reassembly", "I - sum s^i M_i = the representative",
                    reassembled, m))
    n10 = con.n10
    cs.append(check("higman.N_display", "N matches the stated 10x10 display",
                    n10, lp.n10_display()))
    cs.append(check("higman.nilpotent", "N^10 = 0", n10.nilpotency, 10))
    # det(I - sN) is the reversed char poly sum_k c_k(N) s^k
    det_linear = m.ring.zero()
    for k, c in enumerate(n10.charpoly()):
        det_linear = det_linear + c.into(m.ring) * s ** k
    cs.append(check("higman.det_linear", "det(I - sN) = 1", det_linear, one))
    cs.append(check("higman.N_subring", "N entries lie in Q[t^2,t^3,z,z^-1]",
                    n10.all_entries(subring_member)))

    v2 = nilsse.verschiebung(n10, 2)
    cs.append(check("maps.verschiebung2", "V_2(N) is a 20x20 nilpotent",
                    v2.rows == 20 and v2.nilpotency_index(20) is not None))
    cs.append(check("maps.verschiebung1", "V_1(N) = N",
                    nilsse.verschiebung(n10, 1), n10))
    cs.append(check("maps.frobenius10", "F_10(N) = N^10 = 0",
                    nilsse.frobenius(n10, 10).is_zero()))
    return cs


# ---------------------------------------------------------------------------
# the group-ring construction


def groupring_checks(con: grp.Construction | None = None) -> list[Check]:
    """Check the construction handed in, or a fresh one."""
    con = con or grp.construct()
    led = con.checks
    eye2 = Matrix.identity(F2E_X, 2)
    lifted = con.block
    # x -> 0, recorded: its K1-triviality is part of the non-computable membership argument
    spec0 = lifted.substitute("x")
    one_f2, x_f2 = F2_X.one(), F2_X.var("x")
    return [
        check("symbol.dennis_stein", "<eps, x+eps> evaluates to the identity in GL",
              eval_word(dual_symbol_word(), 2), eye2),
        check("symbol.reduced_X", "X evaluates to the identity in GL",
              eval_word(reduced_X_word(), 2), eye2),
        led["yz.det"], led["yz.congruent"],
        check("yz.reduce_to_dual", "applying i -> 1+eps to YZ gives the identity",
              grp.reduce_to_dual(con.yz), eye2),
        led["lift42.psi"], led["lift42.det"],
        check("lift42.entry_shapes",
              "diagonal 1-(1-sigma^2)(..), off-diagonal (sigma^2-1)(..)",
              grp.entry_shapes_ok(lifted)),
        check("lift42.display", "lift matches the stated A, B, C, D block",
              lifted, grp.theorem42_display()),
        check("lift42.x_zero_det", "x -> 0 specialization has det 1 (recorded)",
              spec0.det(), spec0.ring.one()),
        check("kahler.nonzero", "D(<eps, x+eps>) = dx != 0",
              grp.symbol_D(*dual_symbol_args()), one_f2),
        check("kahler.zero", "D for (x, x^2) vanishes in char 2",
              grp.kahler_D(x_f2, x_f2 * x_f2), F2_X.zero()),
    ]


# ---------------------------------------------------------------------------
# strong shift equivalence witnesses


def sse_checks(con: lp.Construction | None = None) -> list[Check]:
    """Check witnesses, one on N of the construction handed in (or a fresh one)."""
    con = con or lp.construct()
    zring = Q_TS
    n = Matrix.from_rows(zring, [[0, 1], [0, 0]])
    u = Matrix.from_rows(zring, [[1], [0]])
    v = Matrix.from_rows(zring, [[0, 1]])
    a = Matrix.from_rows(zring, [[1, 2], [3, 4]])
    n10 = con.n10
    w = nilsse.SEWitness(Matrix.zeros(n10.ring, 10, 1),
                         Matrix.zeros(n10.ring, 1, 10), 10)
    return [
        check("sse.esse_rank_one", "N = UV, (0) = VU for the rank-one nilpotent",
              nilsse.verify_esse(n, Matrix.zeros(zring, 1, 1), nilsse.ESSEWitness(u, v))),
        check("sse.esse_identity_split", "A = A*I and A = I*A",
              nilsse.verify_esse(a, a, nilsse.ESSEWitness(a, Matrix.identity(zring, 2)))),
        check("sse.se_to_zero", "nilpotent N is SE to (0) via the trivial witness",
              nilsse.verify_se(n10, Matrix.zeros(n10.ring, 1, 1), w).ok),
    ]


# ---------------------------------------------------------------------------
# randomized property suites (seeded, deterministic)


def _suite(seed: int, cases: int, case, domains=((),)) -> int:
    """Failed identities over exactly `cases` calls case(rng, *domain), all
    drawing from one random.Random(seed): the domains in order, the first
    cases % len(domains) of them one case more than the rest."""
    rng = random.Random(seed)
    per, extra = divmod(cases, len(domains))
    return sum(case(rng, *domain) for k, domain in enumerate(domains)
               for _ in range(per + (k < extra)))


def suite_ring_axioms(cases: int, seed: int) -> int:
    def case(rng, ring):
        a, b, c = (random_poly(rng, ring) for _ in range(3))
        ab, bc = a * b, b + c
        return (((a + b) + c != a + bc)
                + (ab != b * a or ab * c != a * (b * c))
                + (a * bc != ab + a * c)
                + (a * ring.one() != a or a + ring.zero() != a))
    rings = (Q_TSZ, Q_TS, ZI_X, Z4_X, F2E_X, Q_TS_MOD_T2)
    return _suite(seed, cases, case, [(ring,) for ring in rings])


def suite_hom_multiplicative(cases: int, seed: int) -> int:
    # hom(1) = 1 draws nothing, so it is decided once per domain and its
    # verdict counts in every case of the domain
    def case(rng, name, ring, unit_fails):
        a, b = random_poly(rng, ring), random_poly(rng, ring)
        ha, hb = hom_apply(name, a), hom_apply(name, b)
        return ((hom_apply(name, a * b) != ha * hb)
                + (hom_apply(name, a + b) != ha + hb)
                + unit_fails)
    return _suite(seed, cases, case, [
        (name, ring, hom_apply(name, ring.one()) != target.one())
        for name, ring, target in (("pi_t2", Q_TS, Q_TS_MOD_T2), ("psi", Z4_X, ZI_X),
                                   ("rho", ZI_X, F2E_X))])


def suite_ideal_closure(cases: int, seed: int) -> int:
    def case(rng, ideal, ring, gen):
        a = gen * random_poly(rng, ring)
        b = gen * random_poly(rng, ring)
        r = random_poly(rng, ring)
        return not (ideal_member(a, ideal) and ideal_member(a + b, ideal)
                    and ideal_member(r * a, ideal))
    return _suite(seed, cases, case, [
        (MONOMIAL_T2, Q_TS, Q_TS.var("t", 2)),
        (PRINCIPAL_TWO, ZI_X, ZI_X.const(GaussianInt(2, 0))),
        (PRINCIPAL_ONE_MINUS_SIGMA_SQ, Z4_X, Z4_X.const(GroupRingZ4(1, 0, -1, 0)))])


def suite_det_multiplicative(cases: int, seed: int) -> int:
    def case(rng):
        a, b = (Matrix.from_rows(Q_TS, [[random_poly(rng, Q_TS, 2, 2) for _ in range(2)]
                                        for _ in range(2)]) for _ in range(2))
        return (a @ b).det() != a.det() * b.det()
    return _suite(seed, cases, case)


def _random_word(rng: random.Random) -> StWord:
    letters = []
    for _ in range(randint(rng, 0, 3)):
        i = choice(rng, (1, 2))
        letters.append((i, 3 - i, random_poly(rng, F2E_X, 2, 2)))
    return StWord(F2E_X, letters)


def suite_eval_homomorphism(cases: int, seed: int) -> int:
    def case(rng):
        w1, w2 = _random_word(rng), _random_word(rng)
        return ((eval_word(w1 * w2, 2) != eval_word(w1, 2) @ eval_word(w2, 2))
                + (eval_word(w1 * w1.inverse(), 2) != Matrix.identity(F2E_X, 2)))
    return _suite(seed, cases, case)


def suite_dennis_stein_identity(cases: int, seed: int) -> int:
    eps = F2E_X.const(DualF2(0, 1))
    eye = Matrix.identity(F2E_X, 2)

    def case(rng):
        a = eps * random_poly(rng, F2E_X, 2, 3)  # guarantees 1 - ab is a unit
        b = random_poly(rng, F2E_X, 2, 3)
        return eval_word(dennis_stein_word(1, 2, a, b), 2) != eye
    return _suite(seed, cases, case)


def suite_generalized_units(cases: int, seed: int) -> int:
    def case(rng):
        a = Fraction(randint(rng, 1, 9) * choice(rng, (1, -1)), randint(rng, 1, 5))
        b = Fraction(randint(rng, -9, 9), randint(rng, 1, 5))
        try:
            lp.generalized_unit_rep(a, b)
        except PipelineError:
            return 1
        return 0
    return _suite(seed, cases, case)


# (id, anchor, suite, cases, seed): the one place the report's random suites
# get their case counts and seeds
SUITES = (
    ("random.generalized_units",
     "any unit a + bst yields a class passing the same checks",
     suite_generalized_units, 50, 7),
    ("random.ring_axioms", "ring axioms on randomized elements",
     suite_ring_axioms, 1000, 1),
    ("random.hom_multiplicative", "homomorphisms additive and multiplicative",
     suite_hom_multiplicative, 1000, 2),
    ("random.ideal_closure", "ideal membership closed under + and ring multiples",
     suite_ideal_closure, 1000, 3),
    ("random.det_multiplicative", "det(AB) = det(A) det(B)",
     suite_det_multiplicative, 1000, 4),
    ("random.eval_homomorphism", "eval(w1 w2) = eval(w1) eval(w2)",
     suite_eval_homomorphism, 1000, 5),
    ("random.dennis_stein_identity", "Dennis-Stein words evaluate to the identity",
     suite_dennis_stein_identity, 1000, 6),
)


def random_checks() -> list[Check]:
    out = []
    for cid, anchor, fn, cases, seed in SUITES:
        fails = fn(cases, seed)
        out.append(Check(cid, anchor, PASS if fails == 0 else FAIL,
                         f"{fails} failures / {cases} cases", "0 failures"))
    return out


def run_all_checks() -> list[Check]:
    con = lp.construct()
    return (laurent_checks(con) + groupring_checks(grp.construct()) + sse_checks(con)
            + random_checks())
