"""Acceptance gate: the nine end-to-end criteria, each exact (tolerance zero),
one printed pass/fail line per criterion.  A criterion names id families
(`rep31.` for every report id before its first dot) or, outranking its
family, an exact id; it asserts each report check it names passes, or is a
discrepancy when its id is one of ledger.KNOWN_DISCREPANCIES.  The report
runs once per session, and its ids and order are the ones read here."""

import hashlib
import json

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import ledger
from nilk import report
from nilk.cli import main
from nilk.matrices import Matrix
from nilk.nilsse import ESSEWitness, SEWitness, verify_esse, verify_se
from nilk.rings import Q_TS

CRITERIA = {
    1: ("representative matches display (known (1,1) discrepancy), det 1, "
        "trivial at s=0, subring entries", ("rep31.", "loop.")),
    2: ("pi(A) = diag(1+st, 1-st); det(A) = 1; B1 and e2 idempotent, "
        "congruent to P mod (t^2); e2 in the subring; excision stages",
        ("lift.", "clutch.", "excision.")),
    3: ("M_1..M_5 and N match the displays; N^10 = 0; det(I - sN) = 1", ("higman.",)),
    4: ("V_2(N) is 20x20 nilpotent; F_10(N) = 0; V_1(N) = N", ("maps.",)),
    5: ("symbol words evaluate to I; YZ det 1, = I mod (2), trivial over "
        "the dual numbers; psi(lift) = YZ; lift det 1, shaped as stated",
        ("symbol.", "yz.", "lift42.")),
    6: ("D(<eps, x+eps>) = dx != 0; D for (x, x^2) vanishes", ("kahler.",)),
    7: ("50 randomized units a + bst pass det-unit, s -> 0 = I, subring",
        ("random.generalized_units",)),
    8: ("six property suites, >=1000 cases each, no failures", ("random.",)),
    9: ("verifier accepts the three trivial witnesses and rejects "
        "single-entry perturbations of U or V", ("sse.",)),
}
NAMED = {name: num for num, (_, names) in CRITERIA.items() for name in names}


def _name(cid: str) -> str:
    """The name a criterion gives cid: cid itself if named, else its family."""
    return cid if cid in NAMED else cid.split(".")[0] + "."


def _criterion(num: int, checks, extra_ok: bool = True) -> None:
    desc = CRITERIA[num][0]
    off = {c.id: c.status for c in checks if NAMED.get(_name(c.id)) == num
           and c.status != (ledger.DISCREPANCY if c.id in ledger.KNOWN_DISCREPANCIES
                            else ledger.PASS)}
    ok = not off and extra_ok
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}; checks off: {off}"


def _criterion_test(num: int):
    def test(report_checks):
        _criterion(num, report_checks)
    return test


test_criterion_1_laurent_end_to_end = _criterion_test(1)
test_criterion_2_lift_and_idempotents = _criterion_test(2)
test_criterion_3_higman = _criterion_test(3)
test_criterion_4_operator_maps = _criterion_test(4)
test_criterion_5_groupring_end_to_end = _criterion_test(5)
test_criterion_6_kahler = _criterion_test(6)
test_criterion_7_generalized_units = _criterion_test(7)
test_criterion_8_property_suites = _criterion_test(8)


def _perturb(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + m.ring.one()
    return Matrix.from_rows(m.ring, rows)


def test_criterion_9_sse_verifier(report_checks):
    # the report checks that the trivial witnesses pass; here each
    # single-entry perturbation of U or V must fail
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    u1 = Matrix.from_rows(Q_TS, [[1], [0]])
    v1 = Matrix.from_rows(Q_TS, [[0, 1]])
    a = Matrix.from_rows(Q_TS, [[1, 2], [3, 4]])
    eye = Matrix.identity(Q_TS, 2)
    # the built N equals its display (check higman.N_display)
    n10 = lp.n10_display()
    u, v = Matrix.zeros(n10.ring, 10, 1), Matrix.zeros(n10.ring, 1, 10)
    z10 = Matrix.zeros(n10.ring, 1, 1)
    # perturbation indices chosen where N has a nonzero column / row, so the
    # intertwining identities break
    col = next(j for j in range(10)
               if any(not n10[i, j].is_zero() for i in range(10)))
    row = next(i for i in range(10)
               if any(not n10[i, j].is_zero() for j in range(10)))
    accepted = [
        verify_esse(n, zero1, ESSEWitness(_perturb(u1, 1, 0), v1)),
        verify_esse(n, zero1, ESSEWitness(u1, _perturb(v1, 0, 0))),
        verify_esse(a, a, ESSEWitness(_perturb(a, 0, 0), eye)),
        verify_esse(a, a, ESSEWitness(a, _perturb(eye, 0, 1))),
        verify_se(n10, z10, SEWitness(_perturb(u, col, 0), v, 10)).ok,
        verify_se(n10, z10, SEWitness(u, _perturb(v, 0, row), 10)).ok,
    ]
    _criterion(9, report_checks, extra_ok=not any(accepted))


def test_criteria_cover_the_report(report_checks):
    # each report id once, each under one criterion's name, and no name
    # that no report id falls under
    ids = [c.id for c in report_checks]
    assert len(ids) == len(set(ids)) == 50
    assert {_name(cid) for cid in ids} == set(NAMED)
    assert sum(len(names) for _, names in CRITERIA.values()) == len(NAMED)


REPORT_SHA256 = "6e16fd23ee3281d7ef9313fc6c06408fb36d32022df69ab5b904b4d29385155d"


def test_report_bytes_pinned(report_checks):
    text = json.dumps([c.to_json() for c in report_checks])
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def test_report_reads_the_stage_ledger(report_checks):
    # every stage entry the report prints, all 22 but the five stage-only
    # ones, is the ledger's own Check
    ids, read = {c.id for c in report_checks}, 0
    for module, checks_of in ((lp, report.laurent_checks), (grp, report.groupring_checks)):
        con = module.construct()
        by_id = {c.id: c for c in checks_of(con)}
        for cid in con.checks.keys() & ids:
            assert by_id[cid] is con.checks[cid], cid
            read += 1
    assert read == 17


def test_theorem42_display_mismatch_fails(monkeypatch):
    # lift42.display matches the paper: a changed display is a failure, not
    # a tolerated discrepancy
    shown = grp.theorem42_display()
    monkeypatch.setattr(grp, "theorem42_display",
                        lambda: shown + Matrix.identity(shown.ring, shown.rows))
    by_id = {c.id: c for c in report.groupring_checks(grp.construct())}
    assert by_id["lift42.display"].status == ledger.FAIL


# the calls one build makes to each stage
LAURENT_STAGES = dict.fromkeys(("lift_A", "double_idempotent_B", "clutch_projector",
                                "excision_transport", "decompose_M",
                                "higman_companion"), 1)
GROUPRING_STAGES = {"yz_matrix": 1, "lift_to_group_ring": 1,
                    "eval_word": 2}  # the pipeline's: Y and Z, once each


def test_each_stage_runs_once(monkeypatch, tmp_path, capsys):
    """One build per run.  The random suites are left out: each
    generalized unit clutches its own lift, a different construction."""
    calls = dict.fromkeys({**LAURENT_STAGES, **GROUPRING_STAGES}, 0)
    for module, stages in ((lp, LAURENT_STAGES), (grp, GROUPRING_STAGES)):
        for name in stages:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(report, "random_checks", lambda: [])
    report.run_all_checks()
    assert calls == {**LAURENT_STAGES, **GROUPRING_STAGES}
    for command, stages in (("theorem3", LAURENT_STAGES), ("theorem4", GROUPRING_STAGES)):
        calls.update(dict.fromkeys(calls, 0))
        assert main([command, "--out", str(tmp_path)]) == 0
        assert calls == {**dict.fromkeys(calls, 0), **stages}
