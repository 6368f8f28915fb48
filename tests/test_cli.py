import errno
import hashlib
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
from nilk import cli, nilsse, report
from nilk import laurent_pipeline as lp
from nilk.cli import main
from nilk.ledger import DISCREPANCY, FAIL, PASS, Check
from nilk.matrices import Matrix, matrix_from_json, matrix_to_json
from nilk.rings import F2E_X, Q_TS, Q_TS_MOD_T2, Q_TZ, DualF2, Ring, Var

from helpers import bare
from test_cli_fuzz import TIME_LIMIT_S


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


EXPECTED = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("cmd", ["theorem3", "theorem4"])
@pytest.mark.parametrize("emit, ext", [("json", ".json"), ("latex", ".tex")])
def test_emitted_bytes_match_stored_digests(cmd, emit, ext, tmp_path, capsys):
    code, _, _ = run([cmd, "--emit", emit, "--out", str(tmp_path)], capsys)
    assert code == 0
    want = {k.split("/")[1]: v for k, v in EXPECTED["digests"].items()
            if k.startswith(cmd + "/") and k.endswith(ext)}
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == want


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


def test_higman_searches_the_index_once(tmp_path, capsys, monkeypatch):
    # the rep file is written first: building it builds and proves N too
    src = tmp_path / "rep.json"
    src.write_text(json.dumps(matrix_to_json(lp.theorem31_matrix().matrix)))
    calls = []
    index = Matrix.nilpotency_index
    monkeypatch.setattr(Matrix, "nilpotency_index",
                        lambda m, max_k: calls.append(max_k) or index(m, max_k))
    code, out, _ = run(["higman", str(src), "--out", str(tmp_path)], capsys)
    assert (code, out) == (0, "companion size 10, nilpotency index 10\n")
    assert calls == [10]
    assert (tmp_path / "N10.json").exists()


@pytest.mark.parametrize("cmd, k, out", [("versch", 3, "30x30, nilpotency index 30\n"),
                                          ("frob", 3, "10x10, nilpotency index 4\n")])
def test_nilpotent_maps_search_only_their_input(tmp_path, capsys, monkeypatch, cmd, k, out):
    # the output's index is derived from the input's, not searched
    src = tmp_path / "n10.json"
    src.write_text(json.dumps(matrix_to_json(lp.n10_display())))
    calls = []
    index = Matrix.nilpotency_index
    monkeypatch.setattr(Matrix, "nilpotency_index",
                        lambda m, max_k: calls.append(m.rows) or index(m, max_k))
    assert run([cmd, str(src), "-k", str(k), "--out", str(tmp_path)], capsys)[:2] == (0, out)
    assert calls == [10]


def one_entry(vars_, *terms, base="Q"):
    """A 1x1 matrix document over base[vars_] whose entry is the terms."""
    return {"ring": {"base": base, "vars": vars_}, "rows": 1, "cols": 1,
            "entries": [[list(terms)]]}


TS = [{"name": "t"}, {"name": "s"}]
BAD_EXPONENTS = {"wrong_length": ([1], "exponent vector has wrong length"),
                 "negative": ([-1, 1], "negative exponent for ordinary variable t")}


@pytest.mark.parametrize("exps, message", BAD_EXPONENTS.values(), ids=BAD_EXPONENTS)
def test_bad_exponent_vector_is_input_error(exps, message):
    # the JSON gate is the one place these are checked: Poly takes its
    # exponent vectors on trust
    with pytest.raises(ValueError, match=message):
        matrix_from_json(one_entry(TS, [exps, "1/1"]))


N2 = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])


def _chain_doc(corrupt=False, u_rows=2):
    u = Matrix.from_rows(Q_TS, [[1], [0], [0]][:u_rows])
    v = Matrix.from_rows(Q_TS, [[1, 1] if corrupt else [0, 1]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    return {
        "ring": matrix_to_json(N2)["ring"],
        "steps": [
            {"matrix": bare(N2)},
            {"matrix": bare(zero1), "U": bare(u), "V": bare(v)},
        ],
    }


def _se_doc(u_rows=2, lag=2, b_size=1, a=N2):
    return {"ring": matrix_to_json(a)["ring"], "A": bare(a),
            "B": bare(Matrix.zeros(Q_TS, b_size, b_size)),
            "U": bare(Matrix.zeros(Q_TS, u_rows, b_size)),
            "V": bare(Matrix.zeros(Q_TS, b_size, 2)), "lag": lag}


def _bad_entry_doc(base, exps, coeff, *more_terms, **shape):
    """_se_doc over base with the term [exps, coeff] and more_terms as A's
    (1,2) entry, and A's rows and cols overridden by shape."""
    doc = _se_doc()
    doc["ring"] = {**doc["ring"], "base": base}
    doc["A"] = {**doc["A"], "entries": [[[], [[exps, coeff], *more_terms]], [[], []]],
                **shape}
    return doc


# A lag-3 shift equivalence over Q[t,s] with Fraction coefficients: for R
# 3x2 and S 2x3, A = RS, B = SR, U = R and V = S A^2
SE_Q_LAG3 = (Path(__file__).parent / "data" / "se_q_lag3.json").read_text()
# A 2-link SSE chain over Q[t,s] with Fraction coefficients: R S, S R = G V,
# then V G, for R 3x2, S 2x3, G invertible 2x2 and V = G^-1 S R
SSE_CHAIN_Q = (Path(__file__).parent / "data" / "sse_chain_q.json").read_text()


def _se_q_lag3_changed_v():
    """SE_Q_LAG3 with the first coefficient of V's (1, 1) entry changed."""
    doc = json.loads(SE_Q_LAG3)
    doc["V"]["entries"][0][0][0][1] = "1/7"
    return doc


def matrix_doc(ring, rows):
    return matrix_to_json(Matrix.from_rows(ring, rows))


def case(id, argv, doc, code, out, err, marks=(), test="exit_code_contract"):
    """One row of the CLI contract: `nilk argv[0] IN argv[1:]`, with IN a
    file holding doc (a dict as JSON, a str as is, None for no file), exits
    code, prints out (None: unchecked) and writes err into stderr, where the
    input path reads as IN. The row runs as test_<test>[id]."""
    return "test_" + test, pytest.param(argv, doc, code, out, err, id=id, marks=marks)


NIL = matrix_to_json(N2)
Q_T = Ring("Q", (Var("t"),))
T12 = Ring("Q", (Var("t", trunc=10 ** 12),))
T12S = Ring("Q", (Var("t", trunc=10 ** 12), Var("s")))
T6 = Ring("Q", (Var("t", trunc=10 ** 6),))
HALF = Matrix.from_rows(Q_TS, [[0, Fraction(1, 2)], [0, 0]])
Q_S = Ring("Q", (Var("s"),))
Q_TS_LAURENT = Ring("Q", (Var("t"), Var("s", laurent=True)))
NON_REDUCED = {"eps": (Ring("F2e", (Var("t"), Var("s"))), lambda r: r.const(DualF2(0, 1))),
               "e_mod_e2": (Ring("Q", (Var("t"), Var("s"), Var("e", trunc=2))),
                            lambda r: r.var("e"))}
NILPOTENTS = {"eps": F2E_X.const(DualF2(0, 1)), "t_mod_t2": Q_TS_MOD_T2.var("t")}
MATRIX_CMDS = {"versch": ["versch", "-k", "2"], "frob": ["frob", "-k", "2"],
               "higman": ["higman"]}
BAD_K = ("0", "-1", "two", "\u0662", "\uff10\uff11")
BAD_TRUNC = {"zero": {"trunc": 0}, "float": {"trunc": 2.5}, "bool": {"trunc": True},
             "laurent": {"trunc": 2, "laurent": True}}
NOT_BOOL = "variable name must be a string and laurent a bool, got "
BAD_VARS = {"laurent_str": ([{"name": "t", "laurent": "no"}],
                            NOT_BOOL + 'name="t", laurent="no"'),
            "laurent_int": ([{"name": "t", "laurent": 1}], NOT_BOOL + 'name="t", laurent=1'),
            "name_int": ([{"name": 5}], "variable name must be a string"),
            "name_null": ([{"name": None}], "variable name must be a string"),
            "repeated": ([{"name": "t"}, {"name": "t"}], "variable t is declared twice"),
            "repeated_laurent": ([{"name": "t"}, {"name": "t", "laurent": True}],
                                 "variable t is declared twice")}
# 2^K for F_K([2t]) has about 1.2 times as many decimal digits as Python writes
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
K = 4 * LIMIT
DEEP = 200000
DEEP_TEXTS = {"array": "[" * DEEP + "]" * DEEP, "object": '{"a": ' * DEEP + "1" + "}" * DEEP}
READ = "i/o error: cannot read matrix from IN: "
WITNESS = "cannot parse witness file: "
RUN_10 = "companion size 10, nilpotency index 10\n"

CASES = [
    case("higman-rep31", ["higman"], matrix_to_json(lp.theorem31_matrix().matrix),
         0, RUN_10, ""),
    case("higman-fraction_rep", ["higman"], matrix_to_json(
        lp.generalized_unit_rep(Fraction(-2, 3), Fraction(5, 9)).matrix), 0, RUN_10, ""),
    # I - I has no term in s, so there is no block to build a companion of
    case("higman-identity", ["higman"], matrix_doc(Q_TS, [[1, 0], [0, 1]]), 1, "",
         "verification failure: verification failed: higman.s_part ("),
    # det [[1 - t]] over Q[t]/(t^(10^12))[s] is a unit whose inverse has 10^12
    # terms: rep31.det_unit recognizes it without them, then rep31.s_to_zero fails
    case("higman-one_minus_t12", ["higman"],
         one_entry([{"name": "t", "trunc": 10 ** 12}, {"name": "s"}],
                   [[0, 0], "1"], [[1, 0], "-1"]), 1, "", "rep31.s_to_zero"),
    # s^-1 has no value at s = 0: rep31.s_to_zero fails instead of raising
    case("higman-negative_s_power", ["higman"],
         matrix_doc(Q_TS_LAURENT, [[Q_TS_LAURENT.var("s").invert()]]), 1, "",
         "rep31.s_to_zero"),
    # [1 + eps s] has companion [eps], of index 2 although it is 1x1
    *[case(name, ["higman"], matrix_doc(r, [[r.one() + nil(r) * r.var("s")]]), 0,
           "companion size 1, nilpotency index 2\n", "", test="higman_over_non_reduced_ring")
      for name, (r, nil) in NON_REDUCED.items()],
    case("higman-missing_file", ["higman"], None, 2, None,
         READ + "[Errno 2] No such file or directory"),
    *[case(f"higman-{name}", ["higman"], d, 2, None,
           "higman needs a nonempty matrix over a ring with the variables s and t")
      for name, d in (("empty", matrix_doc(Q_TS, [])), ("no_s", matrix_doc(Q_TZ, [[1, 0], [0, 1]])),
                      ("no_t", matrix_doc(Q_S, [[1, Q_S.var("s")], [0, 1]])))],
    # the ring is checked before any entry is parsed: this entry's exponent
    # vector has the wrong length, and the ring message still comes first
    case("higman-no_s_before_entries", ["higman"], one_entry([{"name": "t"}], [[0, 0], "1"]),
         2, None, "higman needs a nonempty matrix over a ring with the variables s and t"),
    case("higman-zi_short", ["higman"], one_entry(TS, [[0, 0], [1]], base="Zi"), 2, None,
         READ + "coefficient must be a list of 2 integers, got [1]"),
    *[case(f"higman-bad_exponent-{name}", ["higman"], one_entry(TS, [exps, "1/1"]),
           2, None, READ + message) for name, (exps, message) in BAD_EXPONENTS.items()],
    *[case(f"{k}-{cmd}", [cmd, "-k", k], NIL, 2, None,
           f"argument -k: expected an integer >= 1, got {k!r}", test="bad_k_is_usage_error")
      for cmd in ("versch", "frob") for k in BAD_K],
    *[case(cmd, argv, matrix_doc(Q_TS, [[0, 0, 0], [0, 0, 0]]), 2, None,
           READ + "expected a square matrix, got 2x3", test="non_square_input_is_input_error")
      for cmd, argv in MATRIX_CMDS.items()],
    # --json is a report option: only theorem3, theorem4 and verify-all print a report
    *[case(cmd, [*argv, "--json"], NIL, 2, None, "unrecognized arguments: --json",
           test="json_flag_is_usage_error_on_matrix_commands")
      for cmd, argv in MATRIX_CMDS.items()],
    # read into a dict, the second term would replace the first: t - t as -t
    *[case(cmd, argv, one_entry(TS, [[1, 0], "1/1"], [[1, 0], "-1/1"]), 2, None,
           READ + "exponent vector [1, 0] appears twice in one entry",
           test="repeated_exponent_is_input_error")
      for cmd, argv in MATRIX_CMDS.items()],
    *[case(f"{cmd}-{name}", argv, text, 2, None, "maximum recursion depth exceeded",
           test="deep_nesting_is_input_error")
      for cmd, argv in {**MATRIX_CMDS, "sse_verify": ["sse-verify"]}.items()
      for name, text in DEEP_TEXTS.items()],
    # the reader's two shape checks
    case("frob-ragged_row", ["frob", "-k", "1"], {**NIL, "entries": [[[], []], [[]]]}, 2, None,
         READ + "a row of length 1 in a matrix of 2 columns"),
    case("frob-rows_disagree", ["frob", "-k", "1"], {**NIL, "rows": 3}, 2, None,
         READ + "inconsistent matrix dimensions"),
    case("versch-k3", ["versch", "-k", "3"], NIL, 0, "6x6, nilpotency index 6\n", ""),
    case("frob-k2", ["frob", "-k", "2"], NIL, 0, "2x2, nilpotency index 1\n", ""),
    case("versch-n10_k8", ["versch", "-k", "8"], matrix_to_json(lp.construct().n10), 0,
         "80x80, nilpotency index 80\n", ""),
    # [eps] and [t] are 1x1 with index 2: the bound is not the size alone
    *[case(f"{name}-{cmd}", [cmd, "-k", "1"], matrix_doc(x.ring, [[x]]), 0,
           "1x1, nilpotency index 2\n", "", test="nilpotent_over_non_reduced_ring")
      for cmd in ("versch", "frob") for name, x in NILPOTENTS.items()],
    # the 0x0 matrix has index 1, within a bound of at least 1
    *[case(argv[0], argv, matrix_doc(Q_TS, []), 0, "0x0, nilpotency index 1\n", "",
           test="empty_matrix_is_nilpotent")
      for argv in (["frob", "-k", "1"], ["versch", "-k", "2"])],
    # [t] over Q[t]/(t^(10^12)): squaring and bisection find the index in
    # about 2 log2(10^12) products, where one product a step would take 10^12
    case("frob", ["frob", "-k", "1"], matrix_doc(T12, [[T12.var("t")]]), 0,
         "1x1, nilpotency index 1000000000000\n", "", test="index_of_ten_to_the_twelve"),
    case("versch", ["versch", "-k", "2"], matrix_doc(T12, [[T12.var("t")]]), 0,
         "2x2, nilpotency index 2000000000000\n", "", test="index_of_ten_to_the_twelve"),
    # A = [[0, 1/2], [0, 0]]: F_k(A) by squaring stays small at k = 10^12
    case("frob-fraction_k1e12", ["frob", "-k", str(10 ** 12)], matrix_to_json(HALF), 0,
         "2x2, nilpotency index 1\n", ""),
    # a Z coefficient is read from a JSON integer or, as Z writes it, a string
    case("frob-z_string_coefficient", ["frob", "-k", "1"],
         one_entry([{"name": "t", "trunc": 2}], [[1], "7"], base="Z"), 0,
         "1x1, nilpotency index 2\n", ""),
    # t^(10^12) = 0 bounds the search at 2 * 10^12 steps; I^2 lies outside
    # the nilradical (t), so it ends after two
    case("frob-not_nilpotent", ["frob", "-k", "1"], matrix_doc(Q_TS, [[1, 0], [0, 1]]), 1, "",
         "frob input is not nilpotent within 2 steps"),
    case("frob-not_nilpotent_t1e12", ["frob", "-k", "1"], matrix_doc(T12S, [[1, 0], [0, 1]]),
         1, "", "frob input is not nilpotent within 2000000000000 steps"),
    # the input is searched before the map is applied, so a huge k costs
    # nothing when the input is not nilpotent
    *[case(f"{cmd}-not_nilpotent_k1e12", [cmd, "-k", str(10 ** 12)],
           matrix_doc(Q_T, [[2]]), 1, "", f"{cmd} input is not nilpotent within 1 steps")
      for cmd in ("frob", "versch")],
    *[case(name, ["frob", "-k", "1"], one_entry([{"name": "t", **var}], [[1], "1/1"]), 2,
           None, READ + "variable t: trunc must be an integer >= 1",
           test="bad_truncation_is_input_error") for name, var in BAD_TRUNC.items()],
    *[case(name, ["frob", "-k", "1"], one_entry(vars_, [[0] * len(vars_), "1/1"]), 2, None,
           READ + message, test="bad_ring_var_is_input_error")
      for name, (vars_, message) in BAD_VARS.items()],
    # F_K([2t]) = [2^K t^K]
    *[case(emit, ["frob", "-k", str(K), "--emit", emit],
           matrix_doc(T6, [[2 * T6.var("t")]]), 2, None,
           f"cannot write frob{K}: an integer has more than {LIMIT} digits\n",
           pytest.mark.skipif(not LIMIT, reason="this Python writes ints of any length"),
           test="output_past_int_digit_limit_is_input_error") for emit in ("json", "latex")],
    case("sse-chain", ["sse-verify"], _chain_doc(), 0, "SSE chain verified (1 links)\n", ""),
    case("sse-chain_corrupt", ["sse-verify"], _chain_doc(corrupt=True), 1, "",
         "chain fails at link 1"),
    case("sse-se", ["sse-verify"], _se_doc(), 0, "shift equivalence verified (lag 2)\n", ""),
    case("sse-se_lag1", ["sse-verify"], _se_doc(lag=1), 1, "", "identity failed: A^l = UV\n"),
    case("sse-se_q_lag3", ["sse-verify"], SE_Q_LAG3, 0, "shift equivalence verified (lag 3)\n",
         ""),
    case("sse-chain_q", ["sse-verify"], SSE_CHAIN_Q, 0, "SSE chain verified (2 links)\n", ""),
    case("sse-se_q_lag3_changed_v", ["sse-verify"], _se_q_lag3_changed_v(), 1, "",
         "identity failed: A^l = UV\n"),
    # A^l by squaring: a lag of 10^12 takes 51 matrix products
    *[case(f"sse-se_lag1e12-{name}", ["sse-verify"], _se_doc(lag=10 ** 12, a=a), 0,
           "shift equivalence verified (lag 1000000000000)\n", "")
      for name, a in (("nil", N2), ("half", HALF))],
    # [[0,1],[0,0]] is SE to the 0x0 matrix with U 2x0, V 0x2 and lag 2
    case("sse-se_to_empty", ["sse-verify"], _se_doc(b_size=0), 0,
         "shift equivalence verified (lag 2)\n", ""),
    case("sse-se_to_empty_lag1", ["sse-verify"], _se_doc(b_size=0, lag=1), 1, "",
         "identity failed: A^l = UV\n"),
    case("sse-not_json", ["sse-verify"], "{not json", 2, None, WITNESS + "Expecting"),
    case("sse-no_witness", ["sse-verify"], {"ring": {"base": "Q", "vars": []}}, 2, None,
         WITNESS + "'A'"),
    # the ring is read before any matrix, so its error comes first
    case("sse-unknown_base_before_matrices", ["sse-verify"], {"ring": {"base": "R", "vars": []}},
         2, None, WITNESS + "unknown base ring 'R'"),
    *[case(name, ["sse-verify"], d, 2, None, err, test="sse_verify_bad_witness_is_input_error")
      for name, d, err in (
        ("se_shapes", _se_doc(u_rows=3), "invalid witness:"),
        ("se_lag_zero", _se_doc(lag=0), "invalid witness:"),
        ("chain_shapes", _chain_doc(u_rows=3), "invalid witness:"),
        ("se_lag_float", _se_doc(lag=2.7), WITNESS + "lag must be an integer"),
        ("se_lag_bool", _se_doc(lag=True), WITNESS + "lag must be an integer"),
        ("q_zero_denominator", _bad_entry_doc("Q", [0, 0], "1/0"),
         WITNESS + "rational coefficient 1/0 has denominator 0"),
        ("q_infinity", _bad_entry_doc("Q", [0, 0], float("inf")),
         WITNESS + 'rational coefficient must be "p/q", got Infinity'),
        ("zi_float", _bad_entry_doc("Zi", [0, 0], [1.7, 0]),
         WITNESS + "coefficient must be an integer, got 1.7"),
        ("z_float", _bad_entry_doc("Z", [0, 0], 2.9),
         WITNESS + "coefficient must be an integer, got 2.9"),
        ("f2_float", _bad_entry_doc("F2", [0, 0], 1.5),
         WITNESS + "coefficient must be an integer, got 1.5"),
        ("zi_short", _bad_entry_doc("Zi", [0, 0], [1]),
         WITNESS + "coefficient must be a list of 2 integers, got [1]"),
        ("zi_empty", _bad_entry_doc("Zi", [0, 0], []),
         WITNESS + "coefficient must be a list of 2 integers, got []"),
        ("z4_short", _bad_entry_doc("Z4", [0, 0], [1, 2]),
         WITNESS + "coefficient must be a list of 4 integers, got [1, 2]"),
        ("z_underscore", _bad_entry_doc("Z", [0, 0], "1_000"),
         WITNESS + 'coefficient must be an integer, got "1_000"'),
        ("z_spaces", _bad_entry_doc("Z", [0, 0], " 7 "),
         WITNESS + 'coefficient must be an integer, got " 7 "'),
        ("z_arabic_digit", _bad_entry_doc("Z", [0, 0], "\u0663"),
         WITNESS + 'coefficient must be an integer, got "\\u0663"'),
        ("q_arabic_digits", _bad_entry_doc("Q", [0, 0], "\u0661/\u0662"),
         WITNESS + 'rational coefficient must be "p/q", got "\\u0661/\\u0662"'),
        ("q_leading_space", _bad_entry_doc("Q", [0, 0], " 1/2"),
         WITNESS + 'rational coefficient must be "p/q", got " 1/2"'),
        ("exponent_float", _bad_entry_doc("Q", [0, 0.5], "1/1"),
         WITNESS + "exponent must be an integer, got 0.5"),
        ("exponent_repeated", _bad_entry_doc("Q", [1, 0], "1/1", [[1, 0], "-1/1"]),
         WITNESS + "exponent vector [1, 0] appears twice in one entry"),
        ("rows_float", _bad_entry_doc("Q", [0, 0], "1/1", rows=2.0),
         WITNESS + "rows must be an integer, got 2.0"),
        ("cols_bool", _bad_entry_doc("Q", [0, 0], "1/1", cols=True),
         WITNESS + "cols must be an integer, got true"))],
    case("unknown_command", ["bogus"], NIL, 2, None, "invalid choice: 'bogus'"),
]


def contract_test(rows):
    @pytest.mark.parametrize("argv, doc, code, out, err", rows)
    def test(tmp_path, capsys, argv, doc, code, out, err):
        """The exit-code contract: 0 verified, 1 an identity failed, 2 bad input
        (one stderr line, or argparse's usage message), never a traceback; only
        exit 0 writes into --out."""
        src, out_dir = tmp_path / "in.json", tmp_path / "out"
        if doc is not None:
            src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        opts = [] if argv[0] == "sse-verify" else ["--out", str(out_dir)]
        start = time.perf_counter()
        try:
            got, usage = main([argv[0], str(src), *argv[1:], *opts]), False
        except SystemExit as e:
            got, usage = e.code, True
        elapsed = time.perf_counter() - start
        printed, errs = capsys.readouterr()
        errs = errs.replace(str(src), "IN")
        assert got == code, errs
        assert out is None or printed == out
        assert err in errs and "Traceback" not in errs
        if code == 0:
            assert errs == ""
        elif code == 2:
            assert printed == ""
            assert errs.startswith("usage: nilk ") if usage else errs.count("\n") == 1
        assert elapsed < TIME_LIMIT_S
        assert out_dir.exists() == (code == 0 and bool(opts))
    return test


# every row runs under the test name it gives, with the one body above
for _name in dict.fromkeys(name for name, _ in CASES):
    globals()[_name] = contract_test([row for name, row in CASES if name == _name])


@pytest.mark.parametrize("links", [1, 2])
def test_witness_matrices_share_one_ring(links, tmp_path, capsys, monkeypatch):
    # a file's ring is read once: every matrix parsed from it is over that Ring
    seen = []
    verify = nilsse.verify_sse_chain
    monkeypatch.setattr(nilsse, "verify_sse_chain",
                        lambda chain: seen.append(chain) or verify(chain))
    src = tmp_path / "chain.json"
    src.write_text(SSE_CHAIN_Q if links == 2 else json.dumps(_chain_doc()))
    code, out, _ = run(["sse-verify", str(src)], capsys)
    assert (code, out) == (0, f"SSE chain verified ({links} links)\n")
    [chain] = seen
    mats = [*chain.matrices, *(m for w in chain.witnesses for m in (w.u, w.v))]
    assert len(mats) == 3 * links + 1
    assert len({id(m.ring) for m in mats}) == 1


def test_second_main_call_gets_a_fresh_namespace(tmp_path, capsys):
    # one parser serves every call in a process: the first call's command
    # and options leave nothing behind for the second
    src = tmp_path / "in.json"
    src.write_text(json.dumps(NIL))
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(["versch", str(src), "-k", "3", "--emit", "latex",
                        "--out", str(tmp_path / "a")], capsys)
    assert (code, out) == (0, "6x6, nilpotency index 6\n")
    code, out, _ = run(["frob", str(src), "-k", "2", "--out", str(tmp_path / "b")], capsys)
    assert (code, out) == (0, "2x2, nilpotency index 1\n")
    assert [f.name for f in (tmp_path / "a").iterdir()] == ["versch3.tex"]
    assert [f.name for f in (tmp_path / "b").iterdir()] == ["frob2.json"]


def test_main_looks_the_command_up_when_it_runs(monkeypatch):
    # main calls whatever cli.cmd_<command> is bound to at call time, so a
    # wrapper put there after the parser was built is the one that runs
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_frob", lambda args: seen.append(vars(args)) or 0)
    assert main(["frob", "in.json", "-k", "2"]) == 0
    assert seen == [{"command": "frob", "input": "in.json", "k": 2, "emit": "json",
                     "out": "."}]


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


@pytest.mark.parametrize("statuses, strict, tolerant", [
    ((), 0, 0),
    ((PASS, PASS), 0, 0),
    ((PASS, FAIL), 1, 1),
    ((PASS, DISCREPANCY), 1, 0),
    ((DISCREPANCY, FAIL), 1, 1),
])
def test_report_exit_rule(statuses, strict, tolerant, monkeypatch, tmp_path, capsys):
    """verify-all exits 1 on a FAIL, and on a DISCREPANCY unless
    --allow-known-typos; theorem3 exits 1 on a FAIL alone, and only its exit
    0 writes into --out.  No checks at all pass."""
    checks = [Check(f"probe.{k}", "probe anchor", s, k, k) for k, s in enumerate(statuses)]
    monkeypatch.setattr(report, "run_all_checks", lambda: checks)
    monkeypatch.setattr(report, "laurent_checks", lambda con: checks)
    assert run(["verify-all"], capsys)[0] == strict
    assert run(["verify-all", "--allow-known-typos"], capsys)[0] == tolerant
    out_dir = tmp_path / "out"
    assert run(["theorem3", "--out", str(out_dir)], capsys)[0] == tolerant
    assert out_dir.exists() is (tolerant == 0)


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
