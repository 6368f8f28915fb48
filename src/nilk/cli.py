"""Command-line surface.

Commands: theorem3, theorem4, higman, versch, frob, sse-verify, verify-all.
Exit codes: 0 pass, 1 verification failure, 2 input or I/O error.  A failed
identity raises PipelineError and bad input raises _BadInput; `main` is the
one place that prints either as one stderr line and returns 1 or 2.
`_read_json` is the one reader of input files: it reads a file's ring once,
before anything else, and every matrix of the file shares that one Ring.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from . import groupring_pipeline as grp
from . import laurent_pipeline as lp
from . import nilsse, report
from .ledger import DISCREPANCY, FAIL, PipelineError, summarize
from .matrices import Matrix, matrix_from_json, matrix_json_text, matrix_latex
from .rings import int_from_json, ring_from_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2


class _BadInput(Exception):
    """Bad input or an I/O error; main prints the message as one line, exits 2."""


def _read_json(path: str, what: str, parse):
    """parse(j, ring) for the JSON j of the file at path and its top-level
    ring, read before anything else: the one Ring of all the file's
    matrices.  Any failure, deep nesting too, is bad input."""
    try:
        j = json.loads(Path(path).read_text())
        return parse(j, ring_from_json(j["ring"]))
    except (OSError, ValueError, KeyError, IndexError, TypeError, RecursionError) as e:
        raise _BadInput(f"{what}: {e}") from e


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise _BadInput(f"i/o error: {e}") from e


def _emit_matrix(m: Matrix, out: Path, name: str, emit: str) -> None:
    try:
        text = matrix_latex(m) if emit == "latex" else matrix_json_text(m)
    except ValueError as e:  # an int past sys.get_int_max_str_digits()
        raise _BadInput(f"cannot write {name}: {e}") from e
    _write(out / f"{name}.{'tex' if emit == 'latex' else 'json'}", text + "\n")


def _print_checks(checks, as_json: bool) -> None:
    if as_json:
        print(json.dumps([c.to_json() for c in checks], indent=2))
    else:
        for c in checks:
            print(c.line())


def _emit_theorem(args, checks, matrices: dict) -> int:
    ok = summarize(checks, allow_known_discrepancies=True)
    if ok:  # only exit 0 writes into --out
        for name, m in matrices.items():
            _emit_matrix(m, Path(args.out), name, args.emit)
    _print_checks(checks, args.json)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_theorem3(args) -> int:
    con = lp.construct()
    return _emit_theorem(args, report.laurent_checks(con),
                         {"theorem31_matrix": con.rep.matrix, "N10": con.n10})


def cmd_theorem4(args) -> int:
    con = grp.construct()
    return _emit_theorem(args, report.groupring_checks(con),
                         {"yz_matrix": con.yz, "theorem42_matrix": con.block})


def _square(j, ring) -> Matrix:
    m = matrix_from_json(j, ring)
    if m.rows != m.cols:
        raise ValueError(f"expected a square matrix, got {m.rows}x{m.cols}")
    return m


def _read_matrix(path: str, parse=_square) -> Matrix:
    return _read_json(path, f"i/o error: cannot read matrix from {path}", parse)


def _higman_input(j, ring) -> Matrix:
    """A nonempty square matrix over a ring with s and t; the ring is
    checked before any entry is parsed."""
    m = _square(j, ring) if {"s", "t"} <= {v.name for v in ring.vars} else None
    if m is None or m.rows == 0:
        raise _BadInput("higman needs a nonempty matrix over a ring with the variables s and t")
    return m


def cmd_higman(args) -> int:
    rep = lp.K1Rep(_read_matrix(args.input, _higman_input))
    rep.verify()
    n = lp.higman_companion(lp.decompose_M(rep))
    _emit_matrix(n, Path(args.out), f"N{n.rows}", args.emit)
    print(f"companion size {n.rows}, nilpotency index {n.nilpotency}")
    return EXIT_OK


def _nilpotent_map(args, fn, index, name: str) -> int:
    """fn(m, k) for an input m found nilpotent first: the output of either
    map is nilpotent exactly when m is, and index(m, k) is its index,
    derived from m's instead of searched."""
    m = _read_matrix(args.input)
    if m.nilpotency is None:
        raise PipelineError(f"{name} input is not nilpotent within "
                            f"{m.nilpotency_bound()} steps")
    out = fn(m, args.k)
    _emit_matrix(out, Path(args.out), f"{name}{args.k}", args.emit)
    print(f"{out.rows}x{out.cols}, nilpotency index {index(m, args.k)}")
    return EXIT_OK


def cmd_versch(args) -> int:
    return _nilpotent_map(args, nilsse.verschiebung, nilsse.verschiebung_index, "versch")


def cmd_frob(args) -> int:
    return _nilpotent_map(args, nilsse.frobenius, nilsse.frobenius_index, "frob")


def _witness_from_json(j: dict, ring):
    mat = functools.partial(matrix_from_json, ring=ring)
    if "steps" in j:
        steps = j["steps"]
        mats, wits = [mat(steps[0]["matrix"])], []
        for st in steps[1:]:
            mats.append(mat(st["matrix"]))
            wits.append(nilsse.ESSEWitness(mat(st["U"]), mat(st["V"])))
        return nilsse.SSEChain(tuple(mats), tuple(wits))
    return (mat(j["A"]), mat(j["B"]),
            nilsse.SEWitness(mat(j["U"]), mat(j["V"]), int_from_json(j["lag"], "lag")))


def cmd_sse_verify(args) -> int:
    parsed = _read_json(args.input, "cannot parse witness file", _witness_from_json)
    try:
        if isinstance(parsed, nilsse.SSEChain):
            res = nilsse.verify_sse_chain(parsed)
            passed = f"SSE chain verified ({len(parsed.witnesses)} links)"
            failed = f"chain fails at link {res.failed}"
        else:
            a, b, w = parsed
            res = nilsse.verify_se(a, b, w)
            passed = f"shift equivalence verified (lag {w.lag})"
            failed = f"identity failed: {res.failed}"
    except ValueError as e:  # shapes that do not fit, or lag < 1
        raise _BadInput(f"invalid witness: {e}") from e
    if not res.ok:
        raise PipelineError(failed)
    print(passed)
    return EXIT_OK


def cmd_verify_all(args) -> int:
    checks = report.run_all_checks()
    _print_checks(checks, args.json)
    ok = summarize(checks, allow_known_discrepancies=args.allow_known_typos)
    if not args.json:
        n_fail = sum(1 for c in checks if c.status == FAIL)
        n_disc = sum(1 for c in checks if c.status == DISCREPANCY)
        print(f"\n{len(checks)} checks: {len(checks) - n_fail - n_disc} pass, "
              f"{n_disc} known discrepancies, {n_fail} failures")
    return EXIT_OK if ok else EXIT_VERIFY


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:  # [0-9]+
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main call.  The
    cache pays only where main runs more than once in one process (the
    tests, perfbench's in-process cli workload, a Python caller); a `nilk`
    process calls main once and builds one parser either way.  The parser
    holds no command function: main looks cmd_<command> up when it runs, so
    a wrapper bound to cli.cmd_* after the first call is the one called."""
    p = argparse.ArgumentParser(
        prog="nilk",
        description="Rebuild and verify the explicit NK1/Nil0 representatives "
                    "over Q[t^2,t^3,z,z^-1] and Z[Z/4].")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--emit", choices=["json", "latex"], default="json")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("theorem3", help="Laurent-polynomial representative "
                        "and its 10x10 nilpotent companion")
    common(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("theorem4", help="group-ring representative over Z[Z/4]")
    common(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("higman", help="nilpotent companion of a K1 representative")
    sp.add_argument("input")
    common(sp)

    sp = sub.add_parser("versch", help="Verschiebung companion of a nilpotent")
    sp.add_argument("input")
    sp.add_argument("-k", type=_positive_int, required=True)
    common(sp)

    sp = sub.add_parser("frob", help="Frobenius power of a nilpotent")
    sp.add_argument("input")
    sp.add_argument("-k", type=_positive_int, required=True)
    common(sp)

    sp = sub.add_parser("sse-verify", help="verify an SSE chain or SE witness file")
    sp.add_argument("input")

    sp = sub.add_parser("verify-all", help="run the full verification report")
    sp.add_argument("--allow-known-typos", action="store_true",
                    help="tolerate the recorded display discrepancies")
    sp.add_argument("--json", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except PipelineError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except _BadInput as e:
        print(e, file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:  # stdout closed early, e.g. piped into head
        # point stdout at devnull so the interpreter's last flush cannot raise
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("i/o error: stdout closed", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
