"""The module layout of src/nilk, read with ast: the two constructions share
only the ledger, matrices is linear algebra alone, no module reaches into
another's private names, and the CLI writes stderr in `main` alone."""

import ast
from pathlib import Path

import pytest

import nilk

SOURCES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(Path(nilk.__file__).parent.glob("*.py"))}

LEDGER_NAMES = ("PipelineError", "PASS", "FAIL", "DISCREPANCY", "Check", "check",
                "require", "recording", "summarize")


def _imports(tree):
    """(module, name) for each name a `from ... import` brings in, a relative
    module written without its leading dots, and (module, "") for each
    `import module`."""
    return [(node.module or "", alias.name) if isinstance(node, ast.ImportFrom)
            else (alias.name, "")
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def _defined(tree):
    """The names a module binds at top level by def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


@pytest.mark.parametrize("module", SOURCES)
def test_no_private_name_crosses_modules(module):
    assert [(m, n) for m, n in _imports(SOURCES[module]) if n.startswith("_")] == []


def test_groupring_pipeline_does_not_import_the_laurent_pipeline():
    assert [(m, n) for m, n in _imports(SOURCES["groupring_pipeline"])
            if "laurent_pipeline" in (n, *m.split("."))] == []


def test_matrices_knows_no_ideals():
    names = {n for _, n in _imports(SOURCES["matrices"])}
    assert names.isdisjoint({"IdealSpec", "ideal_member"})


@pytest.mark.parametrize("name, home", [*((n, "ledger") for n in LEDGER_NAMES),
                                        ("DoublePair", "laurent_pipeline")])
def test_defined_in_one_module(name, home):
    assert [m for m, tree in SOURCES.items() if name in _defined(tree)] == [home]


def test_only_cli_main_writes_stderr():
    # every exit 1 and exit 2 leaves through main's except branches
    writers = {fn.name for fn in ast.walk(SOURCES["cli"]) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "stderr"}
    assert writers == {"main"}
