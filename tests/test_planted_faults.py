"""Planted faults: a stage identity broken by a monkeypatch must end the CLI
with exit 1 and one stderr line naming the check, never a traceback, and
with nothing written into --out.  Each row of FAULTS breaks the input of a
check (a word, a display, a map, a stage output or a block, never `check`
or `require`) and shows that the check, and no other, turns FAIL.  The three
known discrepancies keep their own rule: a display made to agree passes, one
perturbed further stays a discrepancy."""

import json

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import nilsse, report
from nilk.cli import main
from nilk.ledger import DISCREPANCY, FAIL, PASS, PipelineError, recording
from nilk.matrices import Matrix, matrix_to_json
from nilk.rings import F2E_X, Q_TS, Q_TSZ, Q_TZ, Z4_X, ZI_X, GroupRingZ4, Poly
from nilk.words import StWord


def _loop_z_doubled(monkeypatch):
    loop_z = lp.loop_z
    monkeypatch.setattr(lp, "loop_z", lambda q: loop_z(q).scale(2))


def _word_z_empty(monkeypatch):
    # the product is then Y, which has det 1 but is not I mod (2)
    monkeypatch.setattr(grp, "word_Z", lambda: StWord(ZI_X))


def _companion_plus_identity(monkeypatch):
    # N + I is not nilpotent: its powers keep I's constant term
    build = lp.block_companion

    def shifted(blocks):
        n = build(blocks)
        return n + Matrix.identity(n.ring, n.rows)
    monkeypatch.setattr(lp, "block_companion", shifted)


# REP31 in argv reads as a file holding the Theorem 3.1 representative
PLANTS = {
    "verify_all-loop_z_doubled": (_loop_z_doubled, ["verify-all", "--allow-known-typos"],
                                  "rep31.s_to_zero"),
    "theorem3-loop_z_doubled": (_loop_z_doubled, ["theorem3"], "rep31.s_to_zero"),
    "theorem4-word_z_empty": (_word_z_empty, ["theorem4"], "yz.congruent"),
    "higman-companion_plus_identity": (_companion_plus_identity, ["higman", "REP31"],
                                       "higman.companion_nilpotent"),
}


@pytest.mark.parametrize("plant, argv, cid", PLANTS.values(), ids=PLANTS)
def test_failed_stage_identity_exits_1(plant, argv, cid, monkeypatch, tmp_path, capsys):
    if "REP31" in argv:
        rep = tmp_path / "rep31.json"
        rep.write_text(json.dumps(matrix_to_json(lp.theorem31_matrix().matrix)))
        argv = [str(rep) if a == "REP31" else a for a in argv]
    plant(monkeypatch)
    out_dir = tmp_path / "out"
    opts = ["--out", str(out_dir)] if argv[0] != "verify-all" else []
    code = main([*argv, *opts])
    printed, err = capsys.readouterr()
    assert code == 1
    assert err.startswith(f"verification failure: verification failed: {cid} (")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert printed == ""
    assert not out_dir.exists()


def test_failed_report_check_writes_nothing(monkeypatch, tmp_path, capsys):
    # lift42.display is a report check, not a stage identity: theorem4 prints
    # the report with it failed and exits 1, and only exit 0 writes into --out
    shown = grp.theorem42_display()
    monkeypatch.setattr(grp, "theorem42_display",
                        lambda: shown + Matrix.identity(shown.ring, shown.rows))
    out_dir = tmp_path / "out"
    code = main(["theorem4", "--out", str(out_dir)])
    printed, err = capsys.readouterr()
    assert code == 1
    assert "[FAIL       ] lift42.display" in printed and err == ""
    assert not out_dir.exists()


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


def _display_plus(name, ring, rows, r, c):
    """Plant: the display lp.<name>() plus the elementary matrix e_rc."""
    def plant(monkeypatch):
        shown = getattr(lp, name)()
        e = Matrix.from_rows(ring, [[int((i, j) == (r, c)) for j in range(rows)]
                                    for i in range(rows)])
        monkeypatch.setattr(lp, name, lambda: shown + e)
    return plant


def _frobenius_one_short(monkeypatch):
    # F_9(N) = N^9 is not zero
    frob = nilsse.frobenius
    monkeypatch.setattr(nilsse, "frobenius", lambda m, k: frob(m, k - 1))


def _verschiebung1_doubled(monkeypatch):
    versch = nilsse.verschiebung
    monkeypatch.setattr(nilsse, "verschiebung",
                        lambda m, k: versch(m, k).scale(2) if k == 1 else versch(m, k))


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


# id: (plant, the command that prints the check, the check ids that turn FAIL)
FAULTS = {
    "symbol.dennis_stein": (_last_letter_dropped("dual_symbol_word"), "theorem4",
                            ["symbol.dennis_stein"]),
    "symbol.reduced_X": (_last_letter_dropped("reduced_X_word"), "theorem4",
                         ["symbol.reduced_X"]),
    "yz.reduce_to_dual": (_yz_output_times_e12, "theorem4", ["yz.reduce_to_dual"]),
    "yz.det": (_y_and_z_blocks_scaled, "theorem4", ["yz.det"]),
    "lift42.psi": (_i_lifted_to_sigma_cubed, "theorem4", ["lift42.psi"]),
    "lift42.det": (_yz_output_scaled, "theorem4", ["lift42.det"]),
    "lift42.entry_shapes": (_shapes_read_with_e12, "theorem4", ["lift42.entry_shapes"]),
    "lift42.x_zero_det": (_x_specialization_doubled, "theorem4", ["lift42.x_zero_det"]),
    "kahler.nonzero": (_symbol_b_squared, "theorem4", ["kahler.nonzero"]),
    "kahler.zero": (_derivative_without_the_exponent, "theorem4", ["kahler.zero"]),
    "clutch.B2": (_b2_shifted, "theorem3", ["clutch.B2"]),
    "higman.N_display": (_display_plus("n10_display", Q_TZ, 10, 0, 0), "theorem3",
                         ["higman.N_display"]),
    "rep31.off_entries": (_display_plus("theorem31_display", Q_TSZ, 2, 1, 0), "theorem3",
                          ["rep31.off_entries"]),
    "maps.frobenius10": (_frobenius_one_short, "theorem3", ["maps.frobenius10"]),
    "maps.verschiebung1": (_verschiebung1_doubled, "theorem3", ["maps.verschiebung1"]),
}


def _statuses() -> dict[str, str]:
    """Status by id of every report check but the random suites, which read
    no binding a row patches.  A failed stage identity ends the group-ring
    construction; its part is then the ledger of the stages up to it."""
    con = lp.construct()
    checks = report.laurent_checks(con) + report.sse_checks(con)
    try:
        checks += report.groupring_checks(grp.construct())
    except PipelineError:
        with recording() as ledger, pytest.raises(PipelineError):
            grp.lift_to_group_ring(grp.yz_matrix())
        checks += ledger.values()
    return {c.id: c.status for c in checks}


@pytest.mark.parametrize("plant, cmd, cids", FAULTS.values(), ids=FAULTS)
def test_planted_fault_fails_its_check_only(plant, cmd, cids, report_checks, monkeypatch,
                                            tmp_path, capsys):
    stage_ids = set(lp.construct().checks) | set(grp.construct().checks)
    before = {c.id: c.status for c in report_checks}
    plant(monkeypatch)
    after = _statuses()
    assert [after[cid] for cid in cids] == [FAIL] * len(cids)
    assert {cid: s for cid, s in after.items() if cid not in cids} == {
        cid: before[cid] for cid in after if cid not in cids}
    out_dir = tmp_path / "out"
    code = main([cmd, "--out", str(out_dir)])
    printed, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    assert not out_dir.exists()
    for cid in cids:
        if cid in stage_ids:
            assert err.startswith(f"verification failure: verification failed: {cid} (")
        else:
            assert f"[FAIL       ] {cid}  (" in printed and err == ""


# The report ids no plant turns FAIL: neither a FAULTS row, a stage plant of
# PLANTS, the lift42.display plant nor a suite's planted fault in
# test_report_suites.py.  The set may only shrink, by adding FAULTS rows.
UNPLANTED = {
    "lift.reduction", "lift.det", "lift.stated_factors",
    "clutch.B1_idempotent", "clutch.pair_in_double",
    "excision.e2_idempotent", "excision.e2_congruent", "excision.e2_subring",
    "excision.e2_display", "excision.stage1", "excision.stage2", "excision.stage3",
    "loop.on_P",
    "rep31.entry11_self_consistent", "rep31.entry11_vs_display", "rep31.det",
    "rep31.subring",
    "higman.reassembly", "higman.nilpotent", "higman.det_linear", "higman.N_subring",
    "maps.verschiebung2",
    "sse.esse_rank_one", "sse.esse_identity_split", "sse.se_to_zero",
}


def test_unplanted_ids_are_named(report_checks):
    planted = ({*FAULTS, "lift42.display"} | {cid for _, _, cid in PLANTS.values()}
               | {cid for cid, *_ in report.SUITES})
    assert {c.id for c in report_checks} - planted == UNPLANTED


def _plus_e11(m: Matrix) -> Matrix:
    return m + Matrix.from_rows(m.ring, [[int(i == j == 0) for j in range(m.cols)]
                                         for i in range(m.rows)])


# id: (the display lp.<name> of a known discrepancy, its value from construction
# `con` with f applied to the matrix compared: made to agree when f is the identity)
AGREEING = {
    "lift.stated_factors": ("lift_A_stated_factors", lambda con, f: [
        f(con.lift), *[Matrix.identity(con.lift.ring, 2)] * 3]),
    "excision.e2_display": ("e2_display", lambda con, f: f(con.e2)),
    "rep31.entry11_vs_display": ("theorem31_display", lambda con, f: f(con.rep.matrix)),
}


def _as_built(m: Matrix) -> Matrix:
    return m


@pytest.mark.parametrize("f, status", [(_as_built, PASS), (_plus_e11, DISCREPANCY)],
                         ids=["agreeing", "plus_e11"])
@pytest.mark.parametrize("cid", AGREEING)
def test_discrepancy_rule_reads_the_id(cid, f, status, report_checks, monkeypatch):
    """A stated display made to agree turns its id, and no other, to PASS;
    one perturbed further stays a DISCREPANCY and never turns FAIL."""
    name, shown = AGREEING[cid]
    monkeypatch.setattr(lp, name, lambda v=shown(lp.construct(), f): v)
    before = {c.id: c.status for c in report_checks}
    after = _statuses()
    assert before[cid] == DISCREPANCY
    assert after == {**{k: before[k] for k in after}, cid: status}


def test_agreeing_displays_pass_without_allowing_typos(report_checks, monkeypatch, capsys):
    # the suites read no display: the session's suite entries stand in for them
    con = lp.construct()
    for name, shown in AGREEING.values():
        monkeypatch.setattr(lp, name, lambda v=shown(con, _as_built): v)
    monkeypatch.setattr(report, "random_checks",
                        lambda: [c for c in report_checks if c.id.startswith("random.")])
    code = main(["verify-all"])
    printed, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert printed.splitlines()[-1] == "50 checks: 50 pass, 0 known discrepancies, 0 failures"
