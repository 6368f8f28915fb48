import json

import pytest

from nilk import laurent_pipeline as lp
from nilk.cli import main
from nilk.matrices import (Matrix, matrix_from_json, matrix_to_json)
from nilk.rings import Q_TS, Q_TZ


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_theorem3_emits_files(tmp_path, capsys):
    code, out, _ = run(["theorem3", "--out", str(tmp_path)], capsys)
    assert code == 0
    m = matrix_from_json(json.loads(
        (tmp_path / "theorem31_matrix.json").read_text()))
    assert m == lp.theorem31_matrix().matrix
    n = matrix_from_json(json.loads((tmp_path / "N10.json").read_text()))
    assert n.rows == 10 and n.nilpotency_index(10) == 10
    assert "PASS" in out


def test_theorem3_latex(tmp_path, capsys):
    code, _, _ = run(["theorem3", "--emit", "latex", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    tex = (tmp_path / "theorem31_matrix.tex").read_text()
    assert tex.startswith("\\begin{pmatrix}")
    assert (tmp_path / "N10.tex").exists()


def test_theorem4_emits_files(tmp_path, capsys):
    code, _, _ = run(["theorem4", "--out", str(tmp_path)], capsys)
    assert code == 0
    for name in ("yz_matrix.json", "theorem42_matrix.json"):
        j = json.loads((tmp_path / name).read_text())
        matrix_from_json(j)  # parses back


def test_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["theorem3", "--out", str(a)], capsys)
    run(["theorem3", "--out", str(b)], capsys)
    for name in ("theorem31_matrix.json", "N10.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unwritable_out_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # out dir path collides with an existing file -> OSError -> exit 2
    code, _, err = run(["theorem3", "--out", str(blocker / "sub")], capsys)
    assert code == 2
    assert "i/o error" in err


def test_higman_roundtrip(tmp_path, capsys):
    src = tmp_path / "rep.json"
    src.write_text(json.dumps(matrix_to_json(lp.theorem31_matrix().matrix)))
    code, out, _ = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "nilpotency index 10" in out
    assert (tmp_path / "N10.json").exists()


def test_higman_rejects_identity(tmp_path, capsys):
    src = tmp_path / "eye.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.identity(Q_TS, 2))))
    code, _, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "verification failure" in err


def test_higman_missing_file(tmp_path, capsys):
    code, _, _ = run(["higman", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path)], capsys)
    assert code == 2


def test_higman_rejects_empty_and_s_free_input(tmp_path, capsys):
    for name, m in (("empty.json", Matrix.zeros(Q_TS, 0, 0)),
                    ("no_s.json", Matrix.identity(Q_TZ, 2))):
        src = tmp_path / name
        src.write_text(json.dumps(matrix_to_json(m)))
        code, _, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["versch", "frob"])
@pytest.mark.parametrize("k", ["0", "-1", "two"])
def test_bad_k_is_usage_error(tmp_path, capsys, cmd, k):
    src = tmp_path / "n.json"
    src.write_text(json.dumps(matrix_to_json(
        Matrix.from_rows(Q_TS, [[0, 1], [0, 0]]))))
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(src), "-k", k, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "argument -k" in err
    assert "Traceback" not in err


def test_versch_and_frob(tmp_path, capsys):
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    src = tmp_path / "n.json"
    src.write_text(json.dumps(matrix_to_json(n)))
    code, out, _ = run(["versch", str(src), "-k", "3",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    v = matrix_from_json(json.loads((tmp_path / "versch3.json").read_text()))
    assert v.rows == 6 and v.nilpotency_index(6) is not None
    code, out, _ = run(["frob", str(src), "-k", "2",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    f = matrix_from_json(json.loads((tmp_path / "frob2.json").read_text()))
    assert f.is_zero()


def test_frob_rejects_non_nilpotent(tmp_path, capsys):
    src = tmp_path / "eye.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.identity(Q_TS, 2))))
    code, _, err = run(["frob", str(src), "-k", "1",
                        "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "not nilpotent" in err


def _chain_file(path, corrupt=False):
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    u = Matrix.from_rows(Q_TS, [[1], [0]])
    v = Matrix.from_rows(Q_TS, [[0, 1]])
    if corrupt:
        v = Matrix.from_rows(Q_TS, [[1, 1]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)

    def emat(m):
        j = matrix_to_json(m)
        return {k: j[k] for k in ("rows", "cols", "entries")}

    doc = {
        "ring": matrix_to_json(n)["ring"],
        "steps": [
            {"matrix": emat(n)},
            {"matrix": emat(zero1), "U": emat(u), "V": emat(v)},
        ],
    }
    path.write_text(json.dumps(doc))


def test_sse_verify_chain(tmp_path, capsys):
    f = tmp_path / "chain.json"
    _chain_file(f)
    code, out, _ = run(["sse-verify", str(f)], capsys)
    assert code == 0
    assert "SSE chain verified" in out


def test_sse_verify_corrupt_chain(tmp_path, capsys):
    f = tmp_path / "chain.json"
    _chain_file(f, corrupt=True)
    code, _, err = run(["sse-verify", str(f)], capsys)
    assert code == 1
    assert "link 1" in err


def test_sse_verify_se_witness(tmp_path, capsys):
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    u = Matrix.zeros(Q_TS, 2, 1)
    v = Matrix.zeros(Q_TS, 1, 2)
    j = matrix_to_json(n)

    def emat(m):
        d = matrix_to_json(m)
        return {k: d[k] for k in ("rows", "cols", "entries")}

    doc = {"ring": j["ring"], "A": emat(n), "B": emat(zero1),
           "U": emat(u), "V": emat(v), "lag": 2}
    f = tmp_path / "se.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(["sse-verify", str(f)], capsys)
    assert code == 0
    assert "lag 2" in out
    doc["lag"] = 1
    f.write_text(json.dumps(doc))
    code, _, err = run(["sse-verify", str(f)], capsys)
    assert code == 1
    assert "A^l = UV" in err


def test_sse_verify_malformed(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(["sse-verify", str(f)], capsys)
    assert code == 2
    assert "cannot parse" in err
    f.write_text(json.dumps({"ring": {"base": "Q", "vars": []}}))
    code, _, _ = run(["sse-verify", str(f)], capsys)
    assert code == 2


def test_verify_all(capsys):
    code, out, _ = run(["verify-all", "--allow-known-typos"], capsys)
    assert code == 0
    assert "0 failures" in out
    code, _, _ = run(["verify-all"], capsys)
    assert code == 1


def test_verify_all_json(capsys):
    code, out, _ = run(["verify-all", "--allow-known-typos", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert all(c["status"] in ("pass", "discrepancy") for c in data)


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["bogus"])
