import errno
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nilk
from nilk import laurent_pipeline as lp
from nilk import report
from nilk.cli import main
from nilk.matrices import (Matrix, matrix_from_json, matrix_to_json)
from nilk.rings import F2E_X, Q_TS, Q_TS_MOD_T2, Q_TZ, DualF2, Ring, Var


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


def test_higman_searches_the_index_once(tmp_path, capsys, monkeypatch):
    calls = []
    index = Matrix.nilpotency_index
    monkeypatch.setattr(Matrix, "nilpotency_index",
                        lambda m, max_k: calls.append(max_k) or index(m, max_k))
    src = tmp_path / "rep.json"
    src.write_text(json.dumps(matrix_to_json(lp.theorem31_matrix().matrix)))
    code, out, _ = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert (code, out) == (0, "companion size 10, nilpotency index 10\n")
    assert calls == [10]


def test_higman_rejects_identity(tmp_path, capsys):
    src = tmp_path / "eye.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.identity(Q_TS, 2))))
    code, _, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "verification failure" in err


def test_higman_checks_a_long_series_unit_in_bounded_work(tmp_path, capsys):
    # det [[1 - t]] over Q[t]/(t^(10^12))[s] is a unit whose inverse series
    # has 10^12 terms: rep31.det_unit recognizes it without the series, and
    # rep31.s_to_zero then fails
    src = tmp_path / "one_minus_t.json"
    src.write_text('{"ring": {"base": "Q", "vars": [{"name": "t", "trunc": 1000000000000}, '
                   '{"name": "s"}]}, "rows": 1, "cols": 1, '
                   '"entries": [[[[[0, 0], "1"], [[1, 0], "-1"]]]]}')
    start = time.perf_counter()
    code, _, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "rep31.s_to_zero" in err and "Traceback" not in err


@pytest.mark.parametrize("ring, nil", [
    (Ring("F2e", (Var("t"), Var("s"))), lambda r: r.const(DualF2(0, 1))),
    (Ring("Q", (Var("t"), Var("s"), Var("e", trunc=2))), lambda r: r.var("e")),
], ids=["eps", "e_mod_e2"])
def test_higman_over_non_reduced_ring(tmp_path, capsys, ring, nil):
    # [1 + eps s] has companion [eps], of index 2 although it is 1x1
    src = tmp_path / "rep.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.from_rows(
        ring, [[ring.one() + nil(ring) * ring.var("s")]]))))
    code, out, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (0, "companion size 1, nilpotency index 2\n", "")


def test_higman_missing_file(tmp_path, capsys):
    code, _, _ = run(["higman", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path)], capsys)
    assert code == 2


def test_higman_rejects_empty_and_s_free_input(tmp_path, capsys):
    q_s = Ring("Q", (Var("s"),))
    for name, m in (("empty.json", Matrix.zeros(Q_TS, 0, 0)),
                    ("no_s.json", Matrix.identity(Q_TZ, 2)),
                    ("no_t.json", Matrix.from_rows(q_s, [[1, q_s.var("s")], [0, 1]]))):
        src = tmp_path / name
        src.write_text(json.dumps(matrix_to_json(m)))
        code, _, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["versch", "frob"])
@pytest.mark.parametrize("k", ["0", "-1", "two", "\u0662", "\uff10\uff11"])
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


@pytest.mark.parametrize("argv", [["versch", "-k", "2"], ["frob", "-k", "2"],
                                  ["higman"]], ids=["versch", "frob", "higman"])
def test_non_square_input_is_input_error(tmp_path, capsys, argv):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.zeros(Q_TS, 2, 3))))
    code, _, err = run([argv[0], str(src), *argv[1:], "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert err.startswith("i/o error: cannot read matrix from") and \
        err.endswith("expected a square matrix, got 2x3\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["versch", "-k", "2"], ["frob", "-k", "2"],
                                  ["higman"]], ids=["versch", "frob", "higman"])
def test_json_flag_is_usage_error_on_matrix_commands(tmp_path, capsys, argv):
    # --json is a report option: only theorem3, theorem4 and verify-all print a report
    src = tmp_path / "n.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.from_rows(Q_TS, [[0, 1], [0, 0]]))))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(src), *argv[1:], "--out", str(tmp_path), "--json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "unrecognized arguments: --json" in err
    assert [f.name for f in tmp_path.iterdir()] == ["n.json"]  # nothing written


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


def test_versch_of_n10_at_k8(tmp_path, capsys):
    src = tmp_path / "n10.json"
    src.write_text(json.dumps(matrix_to_json(lp.construct().n10)))
    code, out, err = run(["versch", str(src), "-k", "8", "--out", str(tmp_path)],
                         capsys)
    assert (code, out, err) == (0, "80x80, nilpotency index 80\n", "")


@pytest.mark.parametrize("cmd", ["versch", "frob"])
@pytest.mark.parametrize("entry", [F2E_X.const(DualF2(0, 1)), Q_TS_MOD_T2.var("t")],
                         ids=["eps", "t_mod_t2"])
def test_nilpotent_over_non_reduced_ring(tmp_path, capsys, cmd, entry):
    # [eps] and [t] are 1x1 with index 2: the bound is not the size alone
    src = tmp_path / "m.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.from_rows(entry.ring, [[entry]]))))
    code, out, err = run([cmd, str(src), "-k", "1", "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (0, "1x1, nilpotency index 2\n", "")


@pytest.mark.parametrize("argv", [["frob", "-k", "1"], ["versch", "-k", "2"]],
                         ids=["frob", "versch"])
def test_empty_matrix_is_nilpotent(tmp_path, capsys, argv):
    # the 0x0 matrix has index 1, within a bound of at least 1
    src = tmp_path / "e0.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.zeros(Q_TS, 0, 0))))
    code, out, err = run([argv[0], str(src), *argv[1:], "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (0, "0x0, nilpotency index 1\n", "")


@pytest.mark.parametrize("argv, out", [
    (["frob", "-k", "1"], "1x1, nilpotency index 1000000000000\n"),
    (["versch", "-k", "2"], "2x2, nilpotency index 2000000000000\n"),
], ids=["frob", "versch"])
def test_index_of_ten_to_the_twelve(tmp_path, capsys, argv, out):
    # [t] over Q[t]/(t^(10^12)): squaring and bisection find the index in
    # about 2 log2(10^12) products, where one product a step would take 10^12
    deep = Ring("Q", (Var("t", trunc=10 ** 12),))
    src = tmp_path / "t.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.from_rows(deep, [[deep.var("t")]]))))
    code, printed, err = run([argv[0], str(src), *argv[1:], "--out", str(tmp_path)],
                             capsys)
    assert (code, printed, err) == (0, out, "")


@pytest.mark.parametrize("var", [{"trunc": 0}, {"trunc": 2.5}, {"trunc": True},
                                 {"trunc": 2, "laurent": True}],
                         ids=["zero", "float", "bool", "laurent"])
def test_bad_truncation_is_input_error(tmp_path, capsys, var):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"ring": {"base": "Q", "vars": [{"name": "t", **var}]},
                               "rows": 1, "cols": 1, "entries": [[[[[1], "1/1"]]]]}))
    code, out, err = run(["frob", str(src), "-k", "1", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: cannot read matrix from") and \
        "trunc must be an integer >= 1" in err and err.count("\n") == 1


@pytest.mark.parametrize("vars_, message", [
    ([{"name": "t", "laurent": "no"}], 'got name="t", laurent="no"'),
    ([{"name": "t", "laurent": 1}], 'got name="t", laurent=1'),
    ([{"name": 5}], "variable name must be a string"),
    ([{"name": None}], "variable name must be a string"),
    ([{"name": "t"}, {"name": "t"}], "variable t is declared twice"),
    ([{"name": "t"}, {"name": "t", "laurent": True}], "variable t is declared twice"),
], ids=["laurent_str", "laurent_int", "name_int", "name_null", "repeated",
        "repeated_laurent"])
def test_bad_ring_var_is_input_error(tmp_path, capsys, vars_, message):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"ring": {"base": "Q", "vars": vars_}, "rows": 1, "cols": 1,
                               "entries": [[[[[0] * len(vars_), "1/1"]]]]}))
    code, out, err = run(["frob", str(src), "-k", "1", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: cannot read matrix from") and \
        message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["frob", "-k", "1"], ["versch", "-k", "1"], ["higman"]],
                         ids=["frob", "versch", "higman"])
def test_repeated_exponent_is_input_error(tmp_path, capsys, argv):
    # read into a dict, the second term would replace the first: t - t as -t
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"ring": {"base": "Q", "vars": [{"name": "t"}, {"name": "s"}]},
                               "rows": 1, "cols": 1,
                               "entries": [[[[[1, 0], "1/1"], [[1, 0], "-1/1"]]]]}))
    code, out, err = run([argv[0], str(src), *argv[1:], "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: cannot read matrix from") and \
        "exponent vector [1, 0] appears twice in one entry" in err and err.count("\n") == 1


@pytest.mark.parametrize("exps, message", [
    ([1], "exponent vector has wrong length"),
    ([-1, 1], "negative exponent for ordinary variable t"),
], ids=["wrong_length", "negative"])
def test_bad_exponent_vector_is_input_error(tmp_path, capsys, exps, message):
    # the JSON gate is the one place these are checked: Poly takes its
    # exponent vectors on trust
    doc = {"ring": {"base": "Q", "vars": [{"name": "t"}, {"name": "s"}]},
           "rows": 1, "cols": 1, "entries": [[[[exps, "1/1"]]]]}
    with pytest.raises(ValueError, match=message):
        matrix_from_json(doc)
    src = tmp_path / "m.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: cannot read matrix from") and \
        message in err and err.count("\n") == 1


def test_frob_rejects_non_nilpotent(tmp_path, capsys):
    # t^(10^12) = 0 bounds the search at 2 * 10^12 steps; I^2 lies outside
    # the nilradical (t), so it ends after two
    deep = Ring("Q", (Var("t", trunc=10 ** 12), Var("s")))
    for ring in (Q_TS, deep):
        src = tmp_path / "eye.json"
        src.write_text(json.dumps(matrix_to_json(Matrix.identity(ring, 2))))
        code, _, err = run(["frob", str(src), "-k", "1",
                            "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "not nilpotent" in err


@pytest.mark.parametrize("emit", ["json", "latex"])
def test_output_past_int_digit_limit_is_input_error(tmp_path, capsys, emit):
    # F_k([2t]) = [2^k t^k]; 2^k has more decimal digits than Python writes
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python writes ints of any length")
    k = 4 * limit  # 2^k has about 1.2 * limit digits
    deep = Ring("Q", (Var("t", trunc=10 ** 6),))
    src = tmp_path / "t.json"
    src.write_text(json.dumps(matrix_to_json(Matrix.from_rows(deep, [[2 * deep.var("t")]]))))
    out_dir = tmp_path / "out"
    code, out, err = run(["frob", str(src), "-k", str(k), "--emit", emit,
                          "--out", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write frob{k}: ") and f"({limit} digits)" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out_dir.exists()


DEEP = 200000


@pytest.mark.parametrize("text", ["[" * DEEP + "]" * DEEP,
                                  '{"a": ' * DEEP + "1" + "}" * DEEP],
                         ids=["array", "object"])
@pytest.mark.parametrize("argv", [["higman"], ["versch", "-k", "2"], ["frob", "-k", "2"],
                                  ["sse-verify"]],
                         ids=["higman", "versch", "frob", "sse_verify"])
def test_deep_nesting_is_input_error(tmp_path, capsys, argv, text):
    # json.loads raises RecursionError here, which is bad input like any
    # other file that does not parse
    src = tmp_path / "deep.json"
    src.write_text(text)
    out_dir = [] if argv[0] == "sse-verify" else ["--out", str(tmp_path)]
    code, out, err = run([argv[0], str(src), *argv[1:], *out_dir], capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("\n") == 1
    assert "maximum recursion depth exceeded" in err


def _bare(m):
    """A matrix object as witness files hold it, without the ring."""
    j = matrix_to_json(m)
    return {k: j[k] for k in ("rows", "cols", "entries")}


def _chain_doc(corrupt=False, u_rows=2):
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    u = Matrix.from_rows(Q_TS, [[1], [0], [0]][:u_rows])
    v = Matrix.from_rows(Q_TS, [[1, 1] if corrupt else [0, 1]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    return {
        "ring": matrix_to_json(n)["ring"],
        "steps": [
            {"matrix": _bare(n)},
            {"matrix": _bare(zero1), "U": _bare(u), "V": _bare(v)},
        ],
    }


def _se_doc(u_rows=2, lag=2, b_size=1):
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    return {"ring": matrix_to_json(n)["ring"], "A": _bare(n),
            "B": _bare(Matrix.zeros(Q_TS, b_size, b_size)),
            "U": _bare(Matrix.zeros(Q_TS, u_rows, b_size)),
            "V": _bare(Matrix.zeros(Q_TS, b_size, 2)), "lag": lag}


def _bad_entry_doc(base, exps, coeff, *more_terms, **shape):
    """_se_doc over base with the term [exps, coeff] and more_terms as A's
    (1,2) entry, and A's rows and cols overridden by shape."""
    doc = _se_doc()
    doc["ring"] = {**doc["ring"], "base": base}
    doc["A"] = {**doc["A"], "entries": [[[], [[exps, coeff], *more_terms]], [[], []]],
                **shape}
    return doc


def _sse_verify(tmp_path, capsys, doc):
    f = tmp_path / "witness.json"
    f.write_text(json.dumps(doc))
    return run(["sse-verify", str(f)], capsys)


def test_sse_verify_chain(tmp_path, capsys):
    code, out, _ = _sse_verify(tmp_path, capsys, _chain_doc())
    assert code == 0
    assert "SSE chain verified" in out


def test_sse_verify_corrupt_chain(tmp_path, capsys):
    code, _, err = _sse_verify(tmp_path, capsys, _chain_doc(corrupt=True))
    assert code == 1
    assert "link 1" in err


def test_sse_verify_se_witness(tmp_path, capsys):
    code, out, _ = _sse_verify(tmp_path, capsys, _se_doc())
    assert code == 0
    assert "lag 2" in out
    code, _, err = _sse_verify(tmp_path, capsys, _se_doc(lag=1))
    assert code == 1
    assert "A^l = UV" in err
    # A^l by squaring: a lag of 10^12 takes 51 matrix products
    code, out, _ = _sse_verify(tmp_path, capsys, _se_doc(lag=10 ** 12))
    assert code == 0
    assert "lag 1000000000000" in out


def test_fraction_matrix_at_huge_lag_and_k(tmp_path, capsys):
    # A = [[0, 1/2], [0, 0]]: A^l and F_k(A) by squaring stay small at 10^12
    half = Matrix.from_rows(Q_TS, [[0, Fraction(1, 2)], [0, 0]])
    code, out, err = _sse_verify(tmp_path, capsys, {**_se_doc(lag=10 ** 12), "A": _bare(half)})
    assert (code, out, err) == (0, "shift equivalence verified (lag 1000000000000)\n", "")
    src = tmp_path / "half.json"
    src.write_text(json.dumps(matrix_to_json(half)))
    code, out, err = run(["frob", str(src), "-k", str(10 ** 12), "--out", str(tmp_path)],
                         capsys)
    assert (code, out, err) == (0, "2x2, nilpotency index 1\n", "")


def test_sse_verify_se_to_empty_matrix(tmp_path, capsys):
    # [[0,1],[0,0]] is SE to the 0x0 matrix with U 2x0, V 0x2 and lag 2
    code, out, err = _sse_verify(tmp_path, capsys, _se_doc(b_size=0))
    assert (code, out, err) == (0, "shift equivalence verified (lag 2)\n", "")
    code, out, err = _sse_verify(tmp_path, capsys, _se_doc(b_size=0, lag=1))
    assert (code, out, err) == (1, "", "identity failed: A^l = UV\n")


def test_sse_verify_malformed(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(["sse-verify", str(f)], capsys)
    assert code == 2
    assert "cannot parse" in err
    f.write_text(json.dumps({"ring": {"base": "Q", "vars": []}}))
    code, _, _ = run(["sse-verify", str(f)], capsys)
    assert code == 2


@pytest.mark.parametrize("doc, prefix", [
    (_se_doc(u_rows=3), "invalid witness:"),
    (_se_doc(lag=0), "invalid witness:"),
    (_chain_doc(u_rows=3), "invalid witness:"),
    (_se_doc(lag=2.7), "cannot parse witness file: lag must be an integer"),
    (_se_doc(lag=True), "cannot parse witness file: lag must be an integer"),
    (_bad_entry_doc("Q", [0, 0], "1/0"),
     "cannot parse witness file: rational coefficient 1/0 has denominator 0"),
    (_bad_entry_doc("Q", [0, 0], float("inf")),
     'cannot parse witness file: rational coefficient must be "p/q", got Infinity'),
    (_bad_entry_doc("Zi", [0, 0], [1.7, 0]),
     "cannot parse witness file: coefficient must be an integer, got 1.7"),
    (_bad_entry_doc("Z", [0, 0], 2.9),
     "cannot parse witness file: coefficient must be an integer, got 2.9"),
    (_bad_entry_doc("F2", [0, 0], 1.5),
     "cannot parse witness file: coefficient must be an integer, got 1.5"),
    (_bad_entry_doc("Zi", [0, 0], [1]),
     "cannot parse witness file: coefficient must be a list of 2 integers, got [1]"),
    (_bad_entry_doc("Zi", [0, 0], []),
     "cannot parse witness file: coefficient must be a list of 2 integers, got []"),
    (_bad_entry_doc("Z4", [0, 0], [1, 2]),
     "cannot parse witness file: coefficient must be a list of 4 integers, got [1, 2]"),
    (_bad_entry_doc("Z", [0, 0], "1_000"),
     'cannot parse witness file: coefficient must be an integer, got "1_000"'),
    (_bad_entry_doc("Z", [0, 0], " 7 "),
     'cannot parse witness file: coefficient must be an integer, got " 7 "'),
    (_bad_entry_doc("Z", [0, 0], "\u0663"),
     'cannot parse witness file: coefficient must be an integer, got "\\u0663"'),
    (_bad_entry_doc("Q", [0, 0], "\u0661/\u0662"),
     'cannot parse witness file: rational coefficient must be "p/q", got "\\u0661/\\u0662"'),
    (_bad_entry_doc("Q", [0, 0], " 1/2"),
     'cannot parse witness file: rational coefficient must be "p/q", got " 1/2"'),
    (_bad_entry_doc("Q", [0, 0.5], "1/1"),
     "cannot parse witness file: exponent must be an integer, got 0.5"),
    (_bad_entry_doc("Q", [1, 0], "1/1", [[1, 0], "-1/1"]),
     "cannot parse witness file: exponent vector [1, 0] appears twice in one entry"),
    (_bad_entry_doc("Q", [0, 0], "1/1", rows=2.0),
     "cannot parse witness file: rows must be an integer, got 2.0"),
    (_bad_entry_doc("Q", [0, 0], "1/1", cols=True),
     "cannot parse witness file: cols must be an integer, got true"),
], ids=["se_shapes", "se_lag_zero", "chain_shapes", "se_lag_float", "se_lag_bool",
        "q_zero_denominator", "q_infinity", "zi_float", "z_float", "f2_float",
        "zi_short", "zi_empty", "z4_short", "z_underscore", "z_spaces", "z_arabic_digit",
        "q_arabic_digits", "q_leading_space",
        "exponent_float", "exponent_repeated", "rows_float", "cols_bool"])
def test_sse_verify_bad_witness_is_input_error(tmp_path, capsys, doc, prefix):
    code, out, err = _sse_verify(tmp_path, capsys, doc)
    assert code == 2
    assert out == "" and err.startswith(prefix) and err.count("\n") == 1


@pytest.fixture
def reported(monkeypatch, report_checks):
    """verify-all on the session's report instead of a second run."""
    monkeypatch.setattr(report, "run_all_checks", lambda: report_checks)
    return report_checks


def test_verify_all(reported, capsys):
    code, out, _ = run(["verify-all", "--allow-known-typos"], capsys)
    assert code == 0
    assert out.splitlines()[:-2] == [line for c in reported
                                     for line in c.line().splitlines()]
    assert out.splitlines()[-1] == \
        "50 checks: 47 pass, 3 known discrepancies, 0 failures"
    code, _, _ = run(["verify-all"], capsys)
    assert code == 1


def test_verify_all_json(reported, capsys):
    code, out, _ = run(["verify-all", "--allow-known-typos", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == [c.to_json() for c in reported]
    assert all(c["status"] in ("pass", "discrepancy") for c in data)


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_verify_all_into_closed_stdout(reported, monkeypatch, capsys):
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", _ClosedStdout())
        code = main(["verify-all", "--allow-known-typos"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "i/o error: stdout closed\n"


def test_theorem3_into_closed_pipe(tmp_path):
    """`nilk theorem3 | head -1`, with the reader gone before any line.
    stdout is block-buffered, so the error shows when main flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(nilk.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilk.cli", "theorem3", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "i/o error: stdout closed\n"


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["bogus"])
