"""Planted faults: a stage identity broken by a monkeypatch must end the CLI
with exit 1 and one stderr line naming the check, never a traceback, and
with nothing written into --out."""

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk.cli import main
from nilk.matrices import Matrix
from nilk.rings import ZI_X
from nilk.words import StWord


def _loop_z_doubled(monkeypatch):
    loop_z = lp.loop_z
    monkeypatch.setattr(lp, "loop_z", lambda q: loop_z(q).scale(2))


def _word_z_empty(monkeypatch):
    # the product is then Y, which has det 1 but is not I mod (2)
    monkeypatch.setattr(grp, "word_Z", lambda: StWord(ZI_X))


PLANTS = {
    "verify_all-loop_z_doubled": (_loop_z_doubled, ["verify-all", "--allow-known-typos"],
                                  "rep31.s_to_zero"),
    "theorem3-loop_z_doubled": (_loop_z_doubled, ["theorem3"], "rep31.s_to_zero"),
    "theorem4-word_z_empty": (_word_z_empty, ["theorem4"], "yz.congruent"),
}


@pytest.mark.parametrize("plant, argv, cid", PLANTS.values(), ids=PLANTS)
def test_failed_stage_identity_exits_1(plant, argv, cid, monkeypatch, tmp_path, capsys):
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
