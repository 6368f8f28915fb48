"""The benchmark's three workloads.

Each `setup_*` function imports nilk, builds the workload's inputs from the
seed, and returns the op list that one pass runs.  An op is one call into a
public entry point of nilk; its check says whether the output is right.

Ops reach nilk only through module and class attributes looked up at call
time, so the traced run's wrappers (see spans.py) see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# verify-all's suites, in its order, with their default case counts and the
# seeds it uses; a workload seed s shifts every suite seed by 7*s.
SUITES = (
    ("suite_generalized_units", 50, 7),
    ("suite_ring_axioms", 1000, 1),
    ("suite_hom_multiplicative", 1000, 2),
    ("suite_ideal_closure", 1000, 3),
    ("suite_det_multiplicative", 1000, 4),
    ("suite_eval_homomorphism", 1000, 5),
    ("suite_dennis_stein_identity", 1000, 6),
)

# eval_word calls one verify pass makes, derived from the op list:
# groupring_checks evaluates the two symbol words and builds YZ twice;
# each eval_homomorphism case evaluates four words, each Dennis-Stein case one.
VERIFY_EVAL_WORD_CALLS = 4 + 4 * SUITES[5][1] + SUITES[6][1]

# Seconds one pass takes at the reference speed (see run.py), measured when
# the benchmark was defined; a run makes --seconds / PASS_S passes.
PASS_S = {"verify": 2.5, "companion": 15.5, "cli": 0.46}

NILPOTENCY_INDEX_N = 10  # the paper's N and every seeded N have N^10 = 0, N^9 != 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None if right, else what is wrong
    # Wrong at the commit that defined the benchmark; reported on its own
    # line instead of in `failed`, so the defect stays visible.
    known_defect: bool = False


def _expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


def _seeded_unit(rng: random.Random) -> tuple[Fraction, Fraction]:
    """a + b*st with a != 0 and b != 0, as suite_generalized_units draws a."""
    a = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 5))
    b = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 5))
    return a, b


def _paper_and_seeded_N(rng: random.Random):
    from nilk import laurent_pipeline as lp
    paper = lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))
    seeded_rep = lp.generalized_unit_rep(*_seeded_unit(rng))
    return paper, seeded_rep, lp.higman_companion(lp.decompose_M(seeded_rep))


# ---------------------------------------------------------------------------
# verify: the 50-check report, op by op


def setup_verify(seed: int, workdir: Path) -> list[Op]:
    from nilk import report

    def fixed(fn_name):
        expected = [tuple(p) for p in EXPECTED["checks"][fn_name]]

        def check(checks):
            got = [(c.id, c.status) for c in checks]
            return _expect(got == expected, f"check ids/statuses {got} != {expected}")
        return Op(fn_name, lambda: getattr(report, fn_name)(), check)

    def suite(fn_name, cases, suite_seed):
        return Op(f"{fn_name}(cases={cases}, seed={suite_seed})",
                  lambda: getattr(report, fn_name)(cases, suite_seed),
                  lambda fails: _expect(fails == 0, f"{fails} failures"))

    ops = [fixed(n) for n in ("laurent_checks", "groupring_checks", "sse_checks")]
    ops += [suite(n, cases, s + 7 * seed) for n, cases, s in SUITES]
    return ops


# ---------------------------------------------------------------------------
# companion: dense linear algebra on two 10x10 nilpotents


def setup_companion(seed: int, workdir: Path) -> list[Op]:
    from nilk import nilsse
    from nilk.matrices import Matrix
    from nilk.rings import Q_TSZ

    paper, _, seeded = _paper_and_seeded_N(random.Random(f"companion:{seed}"))
    s = Q_TSZ.var("s")
    one = Q_TSZ.one()

    def i_minus_s(m):
        return Matrix.identity(Q_TSZ, m.rows) - m.into(Q_TSZ).scale(s)

    ops = []
    for label, n in (("paper", paper), ("seeded", seeded)):
        for k in range(2, 7):
            v = nilsse.verschiebung(n, k)
            want = k * NILPOTENCY_INDEX_N
            ops.append(Op(f"{label}.nilpotency_index(V_{k})",
                          lambda v=v: v.nilpotency_index(v.rows),
                          lambda got, want=want: _expect(got == want, f"index {got} != {want}")))
        ops.append(Op(f"{label}.frobenius({NILPOTENCY_INDEX_N})",
                      lambda n=n: nilsse.frobenius(n, NILPOTENCY_INDEX_N),
                      lambda f: _expect(f.is_zero(), "F_10(N) != 0")))
        for k in (1, 2, 3):
            m = i_minus_s(nilsse.verschiebung(n, k))
            ops.append(Op(f"{label}.det(I-sV_{k})", lambda m=m: m.det(),
                          lambda d: _expect(d == one, f"det {d} != 1")))
        m = i_minus_s(n)
        eye = Matrix.identity(Q_TSZ, m.rows)
        ops.append(Op(f"{label}.inverse(I-sN)", lambda m=m: m.inverse(),
                      lambda inv, m=m, eye=eye: _expect(inv @ m == eye,
                                                        "inverse @ (I-sN) != I")))
        w = nilsse.SEWitness(Matrix.zeros(n.ring, n.rows, 1),
                             Matrix.zeros(n.ring, 1, n.rows), NILPOTENCY_INDEX_N)
        zero1 = Matrix.zeros(n.ring, 1, 1)
        ops.append(Op(f"{label}.verify_se(lag={NILPOTENCY_INDEX_N})",
                      lambda n=n, w=w, z=zero1: nilsse.verify_se(n, z, w),
                      lambda r: _expect(r.ok, f"SE witness fails at {r.failed}")))
    return ops


# ---------------------------------------------------------------------------
# cli: a command script through nilk.cli.main, on files written here


def _random_matrix(rng, ring, rows, cols):
    from nilk.matrices import Matrix
    from nilk.sampling import random_poly
    return Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 2) for _ in range(cols)]
                                   for _ in range(rows)])


def _bare(m) -> dict:
    """A matrix object as witness files hold it: the ring is stated once, on top."""
    from nilk.matrices import matrix_to_json
    j = matrix_to_json(m)
    del j["ring"]
    return j


def setup_cli(seed: int, workdir: Path) -> list[Op]:
    from nilk import cli, nilsse
    from nilk.matrices import Matrix, matrix_from_json, matrix_to_json
    from nilk.rings import Q_TS, Q_TSZ, ring_to_json

    rng = random.Random(f"cli:{seed}")
    paper, seeded_rep, seeded = _paper_and_seeded_N(rng)
    v2 = nilsse.verschiebung(paper, 2)

    # A shift equivalence of lag 3 from an elementary one, A = RS, B = SR:
    # U = R, V = S A^2.  An SSE chain RS -> SR -> RS with witnesses (R, S), (S, R).
    r, s_ = _random_matrix(rng, Q_TS, 3, 2), _random_matrix(rng, Q_TS, 2, 3)
    a = r @ s_
    se = {"ring": ring_to_json(Q_TS), "A": _bare(a), "B": _bare(s_ @ r),
          "U": _bare(r), "V": _bare(s_ @ a @ a), "lag": 3}
    r, s_ = _random_matrix(rng, Q_TS, 2, 3), _random_matrix(rng, Q_TS, 3, 2)
    chain = {"ring": ring_to_json(Q_TS), "steps": [
        {"matrix": _bare(r @ s_)},
        {"matrix": _bare(s_ @ r), "U": _bare(r), "V": _bare(s_)},
        {"matrix": _bare(r @ s_), "U": _bare(s_), "V": _bare(r)},
    ]}

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {"seeded_rep.json": matrix_to_json(seeded_rep.matrix),
              "identity.json": matrix_to_json(Matrix.identity(Q_TSZ, 2)),
              "se.json": se, "chain.json": chain}
    for name, obj in inputs.items():
        (workdir / name).write_text(json.dumps(obj) + "\n")

    def path(*parts) -> str:
        return str(workdir.joinpath(*parts))

    def take(*parts) -> bytes:
        """An output file's bytes; the file is removed, so that a pass that
        fails to write it cannot pass on the previous pass's copy."""
        f = workdir.joinpath(*parts)
        data = f.read_bytes()
        f.unlink()
        return data

    def run(*argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as e:
                    code = e.code
            return code, out.getvalue(), err.getvalue()
        return call

    def exit_code(want, then=None):
        def check(res):
            code, _, err = res
            if code != want:
                return f"exit {code} != {want}; stderr: {err.strip()[-200:]}"
            return then(res) if then else None
        return check

    def digests(cmd, subdir, ext):
        want = {k.split("/")[1]: v for k, v in EXPECTED["digests"].items()
                if k.startswith(cmd + "/") and k.endswith(ext)}

        def check(_):
            bad = [name for name, digest in want.items()
                   if hashlib.sha256(take(subdir, name)).hexdigest() != digest]
            return _expect(not bad, f"bytes differ from the stored digests: {bad}")
        return check

    def emitted(subdir, name, want):
        def check(_):
            got = matrix_from_json(json.loads(take(subdir, name)))
            return _expect(got == want, f"{subdir}/{name} is not the expected matrix")
        return check

    def says(text):
        return lambda res: _expect(text in res[1], f"stdout lacks {text!r}")

    n10 = path("t3_json", "N10.json")
    zero10 = Matrix.zeros(paper.ring, 10, 10)
    return [
        Op("theorem3 --emit json", run("theorem3", "--out", path("t3_json")),
           exit_code(0, digests("theorem3", "t3_json", ".json"))),
        Op("theorem3 --emit latex", run("theorem3", "--emit", "latex", "--out", path("t3_tex")),
           exit_code(0, digests("theorem3", "t3_tex", ".tex"))),
        Op("theorem4 --emit json", run("theorem4", "--out", path("t4_json")),
           exit_code(0, digests("theorem4", "t4_json", ".json"))),
        Op("theorem4 --emit latex", run("theorem4", "--emit", "latex", "--out", path("t4_tex")),
           exit_code(0, digests("theorem4", "t4_tex", ".tex"))),
        Op("higman theorem31_matrix.json",
           run("higman", path("t3_json", "theorem31_matrix.json"), "--out", path("higman_paper")),
           exit_code(0, emitted("higman_paper", "N10.json", paper))),
        Op("higman seeded_rep.json",
           run("higman", path("seeded_rep.json"), "--out", path("higman_seeded")),
           exit_code(0, emitted("higman_seeded", "N10.json", seeded))),
        Op("versch -k 2", run("versch", n10, "-k", "2", "--out", path("versch")),
           exit_code(0, emitted("versch", "versch2.json", v2))),
        Op("frob -k 10", run("frob", n10, "-k", "10", "--out", path("frob")),
           exit_code(0, emitted("frob", "frob10.json", zero10))),
        Op("sse-verify se.json", run("sse-verify", path("se.json")),
           exit_code(0, says("shift equivalence verified (lag 3)"))),
        Op("sse-verify chain.json", run("sse-verify", path("chain.json")),
           exit_code(0, says("SSE chain verified (2 links)"))),
        Op("higman identity.json (exit 1)",
           run("higman", path("identity.json"), "--out", path("higman_identity")),
           exit_code(1)),
        Op("higman missing.json (exit 2)",
           run("higman", path("missing.json"), "--out", path("higman_missing")),
           exit_code(2)),
        Op("versch -k 0 (exit 2)", run("versch", n10, "-k", "0", "--out", path("versch0")),
           exit_code(2), known_defect=True),
    ]


WORKLOADS = {"verify": setup_verify, "companion": setup_companion, "cli": setup_cli}
