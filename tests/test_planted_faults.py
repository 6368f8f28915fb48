"""Planted faults: one table, one runner.  Each row breaks the input of a
check (a word, a display, a map, a stage output or a block, never `check`
or `require`).  Under the plant, every check the two constructions and
their report reach keeps its no-plant status but the row's ids, which take
the row's statuses; a failed stage identity ends its construction at the
ledger its PipelineError carries.  The command exits 1 exactly when a row
id is FAIL, naming a failed stage identity on one stderr line or printing
a failed report check, never a traceback; only exit 0 writes into --out.
A known discrepancy's display made to agree passes, and one perturbed
further stays a discrepancy."""

import json

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import nilsse, report
from nilk.cli import main
from nilk.ledger import DISCREPANCY, FAIL, KNOWN_DISCREPANCIES, PASS, PipelineError
from nilk.matrices import Matrix, matrix_to_json
from nilk.rings import F2E_X, Q_TS, Z4_X, ZI_X, GroupRingZ4, Poly, Ring
from nilk.words import StWord


def _plus_e(r: int, c: int):
    """m -> m + the elementary matrix e_rc, rows and columns counted from 0."""
    return lambda m: m + Matrix.from_rows(m.ring, [[int((i, j) == (r, c)) for j in range(m.cols)]
                                                   for i in range(m.rows)])


_plus_e11 = _plus_e(0, 0)


def _plus_identity(m: Matrix) -> Matrix:
    # m + I for a nilpotent m is not nilpotent: its powers keep I's constant term
    return m + Matrix.identity(m.ring, m.rows)


def _display_as(module, name: str, value):
    """Plant: the stated display module.<name>() replaced by value(), which
    is taken before the patch."""
    def plant(monkeypatch):
        monkeypatch.setattr(module, name, lambda v=value(): v)
    return plant


def _loop_z_doubled(monkeypatch):
    loop_z = lp.loop_z
    monkeypatch.setattr(lp, "loop_z", lambda q: loop_z(q).scale(2))


def _word_z_empty(monkeypatch):
    # the product is then Y, which has det 1 but is not I mod (2)
    monkeypatch.setattr(grp, "word_Z", lambda: StWord(ZI_X))


def _companion_plus_identity(monkeypatch):
    build = lp.block_companion
    monkeypatch.setattr(lp, "block_companion", lambda blocks: _plus_identity(build(blocks)))


def _det_plus_one_over_q_ts(monkeypatch):
    # only the lift is over Q[t,s]: det(YZ) = 1 and the representative's det = 1 still hold
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda m: det(m) + int(m.ring == Q_TS))


def _det_plus_one_over_z(monkeypatch):
    # only the representative's ring has z: the lift's det = 1 still holds
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda m: det(m) + int("z" in m.ring.names))


def _never_in_subring_over_z(monkeypatch):
    # only the representative's entries have z: e2's subring check still holds
    member = lp.subring_member
    monkeypatch.setattr(lp, "subring_member", lambda p: "z" not in p.ring.names and member(p))


def _never_in_subring_without_z(monkeypatch):
    # only e2's entries lack z: the representative's subring check still holds
    member = lp.subring_member
    monkeypatch.setattr(lp, "subring_member", lambda p: "z" in p.ring.names and member(p))


def _clutch_of_2P(monkeypatch):
    # (A^T)^{-1} 2P A^T squares to twice itself
    clutch = lp.clutch_projector
    monkeypatch.setattr(lp, "clutch_projector", lambda a, p: clutch(a, p.scale(2)))


def _transport_pair_plus_e12(monkeypatch):
    # B1 - (P + e12) has an entry with a constant term, outside (t^2); the
    # pair the clutch stage proved in the double ring is left as it is
    transport = lp.excision_transport
    monkeypatch.setattr(lp, "excision_transport", lambda b, e2: transport(
        lp.DoublePair(b.first, _plus_e(0, 1)(b.second)), e2))


def _transport_e2_plus_e12(monkeypatch):
    # e2 + e12 - P has an entry with a constant term, outside (t^2); e2 + e12
    # still lies in the subring
    transport = lp.excision_transport
    monkeypatch.setattr(lp, "excision_transport", lambda b, e2: transport(b, _plus_e(0, 1)(e2)))


def _never_idempotent(monkeypatch):
    monkeypatch.setattr(Matrix, "is_idempotent", lambda m: False)


def _reduced_mod_t3(monkeypatch):
    # pi read mod t^3 keeps the lift's s^2 t^2 terms, which pi(u) = 1 + st and
    # pi(v) = 1 - st do not have
    def mod_t3(p):
        ring = Ring(p.ring.base, tuple(v._replace(trunc=3) if v.name == "t" else v
                                       for v in p.ring.vars))
        return Poly(ring, dict(p.terms))
    monkeypatch.setattr(lp, "truncate_t2", mod_t3)


def _never_in_ideal(monkeypatch):
    # B1 - B2 is read as outside (t^2) entrywise
    monkeypatch.setattr(lp, "ideal_member", lambda p, ideal: False)


def _last_letter_dropped(name):
    """Plant: the report's word report.<name>() without its last letter."""
    def plant(monkeypatch):
        build = getattr(report, name)
        monkeypatch.setattr(report, name, lambda: StWord(F2E_X, build().letters[:-1]))
    return plant


def _yz_output_times_e12(monkeypatch):
    # the report reduces YZ e12(1), which is not I mod (2), the kernel of
    # i -> 1 + eps; the stage identities held on the YZ they were proved on
    construct, e12 = grp.construct, Matrix.from_rows(ZI_X, [[1, 1], [0, 1]])

    def shifted():
        con = construct()
        return grp.Construction(con.yz @ e12, con.block, con.checks)
    monkeypatch.setattr(grp, "construct", shifted)


def _one_plus_2x():
    return ZI_X.one() + 2 * ZI_X.var("x")


def _y_and_z_blocks_scaled(monkeypatch):
    # Y and Z evaluate to (1 + 2x) times their blocks: YZ is still I mod (2),
    # but det(YZ) = (1 + 2x)^4
    ev = grp.eval_word
    monkeypatch.setattr(grp, "eval_word", lambda w, n: ev(w, n).scale(_one_plus_2x()))


def _i_lifted_to_sigma_cubed(monkeypatch):
    # psi(sigma^3) = -i, so psi(lift) is no longer YZ
    monkeypatch.setattr(grp, "group_ring_from_gauss", lambda c: GroupRingZ4(c.re, 0, 0, c.im))


def _yz_output_scaled(monkeypatch):
    # the lift stage gets (1 + 2x) YZ, whose lift is exact (psi holds) and
    # whose det maps to (1 + 2x)^2 under psi
    yz = grp.yz_matrix
    monkeypatch.setattr(grp, "yz_matrix", lambda: yz().scale(_one_plus_2x()))


def _b2_shifted(monkeypatch):
    # B2 = P + t^2 e12 is still idempotent and congruent to B1 mod t^2, but
    # it is not diag(1, 0)
    build = lp.double_idempotent_B
    shift = Matrix.from_rows(Q_TS, [[0, Q_TS.var("t", 2)], [0, 0]])
    monkeypatch.setattr(lp, "double_idempotent_B",
                        lambda: lp.DoublePair(build().first, lp.projector_P() + shift))


def _frobenius_one_short(monkeypatch):
    # F_9(N) = N^9 is not zero
    frob = nilsse.frobenius
    monkeypatch.setattr(nilsse, "frobenius", lambda m, k: frob(m, k - 1))


def _verschiebung_changed(k, change):
    """Plant: nilsse.verschiebung at k, and at k alone, passed through change."""
    def plant(monkeypatch):
        versch = nilsse.verschiebung
        monkeypatch.setattr(nilsse, "verschiebung",
                            lambda m, j: change(versch(m, j)) if j == k else versch(m, j))
    return plant


def _loop_of_P_plus_e12(monkeypatch):
    # the stage's loop_z(e2) is left as it is: e2 is not P
    loop_z = lp.loop_z
    monkeypatch.setattr(lp, "loop_z",
                        lambda q: _plus_e(0, 1)(loop_z(q)) if q == lp.projector_P() else loop_z(q))


def _charpoly_c1_plus_one(monkeypatch):
    # only the report reads charpoly; det and inverse read _berkowitz
    charpoly = Matrix.charpoly
    monkeypatch.setattr(Matrix, "charpoly",
                        lambda m: (lambda c: [c[0], c[1] + 1, *c[2:]])(charpoly(m)))


def _subring_read_plus_t(monkeypatch):
    # p + t has a t^1 term for every entry p of N, which has none
    member = report.subring_member
    monkeypatch.setattr(report, "subring_member", lambda p: member(p + p.ring.var("t")))


def _into_plus_e11_without_s(monkeypatch):
    # the blocks M_i have no s; the stage's q.into(ring) in loop_z has one
    into = Matrix.into
    monkeypatch.setattr(Matrix, "into", lambda m, ring: (
        into(m, ring) if "s" in m.ring.names else _plus_e11(into(m, ring))))


def _index_one_too_high(monkeypatch):
    # every nilpotent still reads as nilpotent: only an index compared fails
    index = Matrix.nilpotency_index
    monkeypatch.setattr(Matrix, "nilpotency_index",
                        lambda m, max_k: (lambda k: k if k is None else k + 1)(index(m, max_k)))


def _symbol_b_squared(monkeypatch):
    # <eps, (x+eps)^2> = <eps, x^2>: D = d(x^2) = 2x dx = 0 in characteristic 2
    args = report.dual_symbol_args
    monkeypatch.setattr(report, "dual_symbol_args", lambda: (args()[0], args()[1] ** 2))


def _derivative_without_the_exponent(monkeypatch):
    # d(x^e) taken as x^(e-1), without the factor e: D(x, x^2) = x * x, where
    # x * 2x = 0 over F2; D(1, x) is still 1
    def derivative(p, name):
        k = p.ring.index(name)
        return Poly(p.ring, {e[:k] + (e[k] - 1,) + e[k + 1:]: c
                             for e, c in p.terms.items() if e[k]})
    monkeypatch.setattr(Poly, "derivative", derivative)


def _se_lag_one_short(monkeypatch):
    # N^9 is not zero = UV: the zero witness needs N's nilpotency index 10 as its lag
    witness = nilsse.SEWitness
    monkeypatch.setattr(nilsse, "SEWitness", lambda u, v, lag: witness(u, v, lag - 1))


def _esse_v_doubled(monkeypatch):
    # UV and VU are both doubled: neither witness factors its pair any more
    witness = nilsse.ESSEWitness
    monkeypatch.setattr(nilsse, "ESSEWitness", lambda u, v: witness(u, v.scale(2)))


def _entry11_read_plus_one(monkeypatch):
    # every (1,1) entry the report reads is one more: the representative's no
    # longer fits z^-1 + (1-z^-1)(1-s^4t^4), and the display's still differs
    getitem = Matrix.__getitem__
    monkeypatch.setattr(Matrix, "__getitem__", lambda m, rc: getitem(m, rc) + int(rc == (0, 0)))


def _shapes_read_with_e12(monkeypatch):
    # the shape test reads the block plus e12(1), and 1 is not in (1 - sigma^2)
    shapes, e12 = grp.entry_shapes_ok, Matrix.from_rows(Z4_X, [[0, 1], [0, 0]])
    monkeypatch.setattr(grp, "entry_shapes_ok", lambda m: shapes(m + e12))


def _x_specialization_doubled(monkeypatch):
    # the block at x = 0 read as twice itself, of det 4; s -> 0 on the
    # Theorem 3.1 representative is left as it is
    substitute = Matrix.substitute
    monkeypatch.setattr(Matrix, "substitute", lambda m, name: (
        substitute(m, name).scale(2) if name == "x" else substitute(m, name)))


VERIFY_ALL = "verify-all --allow-known-typos"
# test name: {row: (plant, the command that prints the ids, {id: its status
# under the plant})}.  Each row runs as test_<test name>[row], with the one
# body of fault_test.  REP31 in a command reads as a file holding the
# Theorem 3.1 representative.
FAULTS = {
    "failed_stage_identity_exits_1": {
        "verify_all-loop_z_doubled": (_loop_z_doubled, VERIFY_ALL, {"rep31.s_to_zero": FAIL}),
        "theorem3-loop_z_doubled": (_loop_z_doubled, "theorem3", {"rep31.s_to_zero": FAIL}),
        "theorem3-reduced_mod_t3": (_reduced_mod_t3, "theorem3", {"lift.reduction": FAIL}),
        "theorem3-det_plus_one": (_det_plus_one_over_q_ts, "theorem3", {"lift.det": FAIL}),
        "theorem3-det_plus_one_over_z": (_det_plus_one_over_z, "theorem3", {"rep31.det": FAIL}),
        "theorem3-never_in_subring_over_z": (_never_in_subring_over_z, "theorem3",
                                             {"rep31.subring": FAIL}),
        "theorem3-never_in_subring_without_z": (_never_in_subring_without_z, "theorem3",
                                                {"excision.e2_subring": FAIL}),
        "theorem3-clutch_of_2P": (_clutch_of_2P, "theorem3", {"excision.e2_idempotent": FAIL}),
        "theorem3-transport_pair_plus_e12": (_transport_pair_plus_e12, "theorem3",
                                             {"excision.stage1": FAIL}),
        "theorem3-transport_e2_plus_e12": (_transport_e2_plus_e12, "theorem3",
                                           {"excision.e2_congruent": FAIL}),
        "theorem3-never_idempotent": (_never_idempotent, "theorem3",
                                      {"clutch.B1_idempotent": FAIL}),
        "theorem3-never_in_ideal": (_never_in_ideal, "theorem3", {"clutch.pair_in_double": FAIL}),
        "theorem4-word_z_empty": (_word_z_empty, "theorem4", {"yz.congruent": FAIL}),
        "higman-companion_plus_identity": (_companion_plus_identity, "higman REP31",
                                           {"higman.companion_nilpotent": FAIL}),
    },
    "planted_fault_fails_its_check_only": {
        "symbol.dennis_stein": (_last_letter_dropped("dual_symbol_word"), "theorem4",
                                {"symbol.dennis_stein": FAIL}),
        "symbol.reduced_X": (_last_letter_dropped("reduced_X_word"), "theorem4",
                             {"symbol.reduced_X": FAIL}),
        "yz.reduce_to_dual": (_yz_output_times_e12, "theorem4", {"yz.reduce_to_dual": FAIL}),
        "yz.det": (_y_and_z_blocks_scaled, "theorem4", {"yz.det": FAIL}),
        "lift42.psi": (_i_lifted_to_sigma_cubed, "theorem4", {"lift42.psi": FAIL}),
        "lift42.det": (_yz_output_scaled, "theorem4", {"lift42.det": FAIL}),
        "lift42.entry_shapes": (_shapes_read_with_e12, "theorem4", {"lift42.entry_shapes": FAIL}),
        "lift42.x_zero_det": (_x_specialization_doubled, "theorem4", {"lift42.x_zero_det": FAIL}),
        "lift42.display": (_display_as(grp, "theorem42_display",
                                       lambda: _plus_identity(grp.theorem42_display())),
                           "theorem4", {"lift42.display": FAIL}),
        "kahler.nonzero": (_symbol_b_squared, "theorem4", {"kahler.nonzero": FAIL}),
        "kahler.zero": (_derivative_without_the_exponent, "theorem4", {"kahler.zero": FAIL}),
        "clutch.B2": (_b2_shifted, "theorem3", {"clutch.B2": FAIL}),
        "rep31.entry11_self_consistent": (_entry11_read_plus_one, "theorem3",
                                          {"rep31.entry11_self_consistent": FAIL}),
        "higman.N_display": (_display_as(lp, "n10_display", lambda: _plus_e11(lp.n10_display())),
                             "theorem3", {"higman.N_display": FAIL}),
        "rep31.off_entries": (_display_as(lp, "theorem31_display",
                                          lambda: _plus_e(1, 0)(lp.theorem31_display())),
                              "theorem3", {"rep31.off_entries": FAIL}),
        "maps.frobenius10": (_frobenius_one_short, "theorem3", {"maps.frobenius10": FAIL}),
        "maps.verschiebung1": (_verschiebung_changed(1, lambda v: v.scale(2)), "theorem3",
                               {"maps.verschiebung1": FAIL}),
        "maps.verschiebung2": (_verschiebung_changed(2, _plus_identity), "theorem3",
                               {"maps.verschiebung2": FAIL}),
        "loop.on_P": (_loop_of_P_plus_e12, "theorem3", {"loop.on_P": FAIL}),
        "higman.det_linear": (_charpoly_c1_plus_one, "theorem3", {"higman.det_linear": FAIL}),
        "higman.N_subring": (_subring_read_plus_t, "theorem3", {"higman.N_subring": FAIL}),
        "higman.reassembly": (_into_plus_e11_without_s, "theorem3", {"higman.reassembly": FAIL}),
        "higman.nilpotent": (_index_one_too_high, "theorem3", {"higman.nilpotent": FAIL}),
        "sse.se_to_zero": (_se_lag_one_short, VERIFY_ALL, {"sse.se_to_zero": FAIL}),
        "sse.esse_witnesses": (_esse_v_doubled, VERIFY_ALL,
                               {"sse.esse_rank_one": FAIL, "sse.esse_identity_split": FAIL}),
    },
    # each known discrepancy's display made to agree, then perturbed further;
    # f(A) and three identities multiply to f(A) in either order
    "discrepancy_rule_reads_the_id": {
        f"{cid}-{how}": (_display_as(lp, name, lambda built=built, f=f: built(f)), "theorem3",
                         {cid: status})
        for cid, name, built in (
            ("lift.stated_factors", "lift_A_stated_factors",
             lambda f: [f(lp.lift_A()), *[Matrix.identity(Q_TS, 2)] * 3]),
            ("excision.e2_display", "e2_display", lambda f: f(lp.construct().e2)),
            ("rep31.entry11_vs_display", "theorem31_display",
             lambda f: f(lp.theorem31_matrix().matrix)))
        for how, f, status in (("agreeing", lambda m: m, PASS),
                               ("plus_e11", _plus_e11, DISCREPANCY))},
}


def _reached() -> tuple[dict[str, str], set[str]]:
    """Status by id of every check the two constructions and their report
    checks reach, suites aside, and the ids of the failed stage identities.
    A construction reaches its ledger and the report's own checks; a failed
    identity ends it at the ledger its PipelineError carries."""
    reached, failed = {}, set()
    for build, *checks in ((lp.construct, report.laurent_checks, report.sse_checks),
                           (grp.construct, report.groupring_checks)):
        try:
            con = build()
            ledger = {**con.checks, **{c.id: c for run in checks for c in run(con)}}
        except PipelineError as e:
            ledger = e.ledger
            failed |= {cid for cid, c in ledger.items() if c.status == FAIL}
        reached.update(ledger)
    return {cid: c.status for cid, c in reached.items()}, failed


@pytest.fixture(scope="session")
def baseline(report_checks):
    """The no-plant statuses, which cover every report id but the suites'."""
    statuses, failed = _reached()
    assert not failed
    assert {c.id for c in report_checks} - set(statuses) == {cid for cid, *_ in report.SUITES}
    return statuses


def fault_test(rows):
    @pytest.mark.parametrize("plant, cmd, moved", rows.values(), ids=rows)
    def test(plant, cmd, moved, baseline, report_checks, monkeypatch, tmp_path, capsys):
        """Only the row's ids move, to the row's statuses; the command exits
        1 exactly when one is FAIL, naming a failed stage identity on its one
        stderr line or printing a failed report check, and only exit 0 writes
        into --out."""
        argv, out = cmd.split(), tmp_path / "out"
        if argv[0] == "verify-all":  # the suites read no binding a row patches
            suites = [c for c in report_checks if c.id.startswith("random.")]
            monkeypatch.setattr(report, "random_checks", lambda: suites)
        else:
            argv = [*argv, "--out", str(out)]
        if "REP31" in argv:
            rep = tmp_path / "rep31.json"
            rep.write_text(json.dumps(matrix_to_json(lp.theorem31_matrix().matrix)))
            argv = [str(rep) if a == "REP31" else a for a in argv]
        plant(monkeypatch)
        statuses, failed = _reached()
        assert statuses == {**{cid: baseline.get(cid) for cid in statuses}, **moved}
        code = main(argv)
        printed, err = capsys.readouterr()
        assert code == int(FAIL in moved.values())
        assert out.exists() == (code == 0 and "--out" in argv)
        if failed:
            (cid,) = failed
            assert err.startswith(f"verification failure: verification failed: {cid} (")
            assert err.count("\n") == 1 and printed == ""
        else:
            assert err == ""
            for cid, status in moved.items():
                assert f"[{status.upper():11s}] {cid}  (" in printed
    return test


for _test, _rows in FAULTS.items():
    globals()["test_" + _test] = fault_test(_rows)


# The report ids whose status no row moves, suite ids aside: each is a FOUND
# line in CHANGES.md.  The set may only shrink, by adding rows.
UNPLANTED = {"excision.stage2", "excision.stage3"}


def test_unplanted_ids_are_named(report_checks):
    moved = {cid for rows in FAULTS.values() for *_, ids in rows.values() for cid in ids}
    suites = {cid for cid, *_ in report.SUITES}
    assert {c.id for c in report_checks} - moved - suites == UNPLANTED


def test_agreeing_displays_pass_without_allowing_typos(report_checks, monkeypatch, capsys):
    # the suites read no display: the session's suite entries stand in for them
    for cid in KNOWN_DISCREPANCIES:
        plant, *_ = FAULTS["discrepancy_rule_reads_the_id"][f"{cid}-agreeing"]
        plant(monkeypatch)
    monkeypatch.setattr(report, "random_checks",
                        lambda: [c for c in report_checks if c.id.startswith("random.")])
    code = main(["verify-all"])
    printed, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert printed.splitlines()[-1] == "50 checks: 50 pass, 0 known discrepancies, 0 failures"
