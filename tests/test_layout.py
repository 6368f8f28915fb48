"""The module layout of src/nilk, read with ast: the two constructions share
only the ledger, matrices is linear algebra alone, no module imports or
reads another's private names, the CLI writes stderr in `main` alone, no
module imports dataclasses or functools' cached_property, only rings asks
whether a value is a Poly, only rings.generate compiles code, only the
ledger makes a Check, and each check id is written once, at the call that
proves or computes it."""

import ast
from pathlib import Path

import pytest

import nilk
from nilk import report

SOURCES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(Path(nilk.__file__).parent.glob("*.py"))}

LEDGER_NAMES = ("PipelineError", "PASS", "FAIL", "DISCREPANCY", "KNOWN_DISCREPANCIES",
                "Check", "check", "require", "recording")

# the ids a stage proves with `require` that the report never prints
STAGE_ONLY = {"clutch.B2_idempotent", "higman.companion_nilpotent", "higman.s_part",
              "loop.invertible", "rep31.det_unit"}


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


def _own_names(tree):
    """Every name a module defines anywhere: by def or class, as an
    assignment or attribute-store target, or as a string constant, as in
    object.__setattr__(self, "_zero", ...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@pytest.mark.parametrize("module", SOURCES)
def test_no_private_name_crosses_modules(module):
    assert [(m, n) for m, n in _imports(SOURCES[module]) if n.startswith("_")] == []


@pytest.mark.parametrize("module", SOURCES)
def test_no_private_attribute_crosses_modules(module):
    # each x._name a module reads, dunders aside, is a name it defines itself
    tree = SOURCES[module]
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load) and n.attr.startswith("_")
             and not (n.attr.startswith("__") and n.attr.endswith("__"))}
    assert sorted(reads - _own_names(tree)) == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or plain classes: importing nilk builds no
    # dataclass, and a fresh process does not load dataclasses or inspect
    assert [name for name, tree in SOURCES.items()
            if any("dataclasses" in (m, n) for m, n in _imports(tree))] == []


def test_no_module_imports_functools_cached_property():
    # a derived field is a rings.cached_field, which takes no lock per first access
    assert [name for name, tree in SOURCES.items()
            if ("functools", "cached_property") in _imports(tree)] == []


def test_groupring_pipeline_does_not_import_the_laurent_pipeline():
    assert [(m, n) for m, n in _imports(SOURCES["groupring_pipeline"])
            if "laurent_pipeline" in (n, *m.split("."))] == []


def test_matrices_knows_no_ideals():
    names = {n for _, n in _imports(SOURCES["matrices"])}
    assert names.isdisjoint({"ideal_member", "MONOMIAL_T2", "PRINCIPAL_TWO",
                             "PRINCIPAL_ONE_MINUS_SIGMA_SQ"})


def _function(tree, path):
    """The def at path ("Class.method" or "function") in a module's tree."""
    *cls, name = path.split(".")
    body = tree.body
    for c in cls:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == c).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_matrix_product_has_no_base_ring_fork():
    # every base multiplies on the one cleared form; only that form asks Q
    fn = _function(SOURCES["matrices"], "Matrix.__matmul__")
    assert [n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
            and n.attr == "base"] == []


def test_sampling_stores_rationals_by_the_rings_rule():
    tree = SOURCES["sampling"]
    assert ("rings", "rational") in _imports(tree)
    assert [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and n.attr in ("numerator", "denominator")] == []


@pytest.mark.parametrize("name, home", [*((n, "ledger") for n in LEDGER_NAMES),
                                        ("DoublePair", "laurent_pipeline"),
                                        ("cached_field", "rings"), ("generated", "rings")])
def test_defined_in_one_module(name, home):
    assert [m for m, tree in SOURCES.items() if name in _defined(tree)] == [home]


# the rings classes whose body defines or assigns each value-rule member: a
# plain-class record's equality and copying live on Frozen, a checked
# NamedTuple's _make on Checked, a coefficient's equality, truth and
# negation on CoeffAlgebra.  DualF2 (one shared instance per value), Ring
# (its hash computed once) and Poly (equal to any element of its ring) state
# their own.
VALUE_RULE_HOMES = {
    "__eq__": {"Frozen", "CoeffAlgebra", "DualF2", "Poly"},
    "__bool__": {"CoeffAlgebra"},
    "__neg__": {"CoeffAlgebra", "DualF2", "Poly"},
    "__reduce__": {"Frozen", "DualF2"},
    "__hash__": {"DualF2", "Ring"},
    "_make": {"Checked"},
}


def _class_members(cls):
    """The names a class body binds by def or by assignment."""
    return {st.name for st in cls.body if isinstance(st, ast.FunctionDef)} | {
        n.id for st in cls.body if isinstance(st, ast.Assign)
        for t in st.targets for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("member", VALUE_RULE_HOMES)
def test_each_value_rule_is_written_at_its_home(member):
    # a new record or coefficient inherits the rule instead of growing a copy
    owners = {(module, cls.name) for module, tree in SOURCES.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and member in _class_members(cls)}
    assert owners == {("rings", home) for home in VALUE_RULE_HOMES[member]}


def _compile_and_exec_calls(tree):
    """The calls of the builtins compile and exec in tree; re.compile and
    other attributes named compile are not builtins."""
    return sorted(node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id in ("compile", "exec"))


def test_only_the_registry_compiles_generated_code():
    # rings.generate compiles and runs every generated function, so one
    # cache holds them all and one place names their files
    calls = {name: _compile_and_exec_calls(tree) for name, tree in SOURCES.items()}
    assert {name: c for name, c in calls.items() if c} == {"rings": ["compile", "exec"]}
    assert _compile_and_exec_calls(_function(SOURCES["rings"], "generate")) == ["compile", "exec"]


def test_only_cli_main_writes_stderr():
    # every exit 1 and exit 2 leaves through main's except branches
    writers = {fn.name for fn in ast.walk(SOURCES["cli"]) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "stderr"}
    assert writers == {"main"}


def test_only_rings_asks_whether_a_value_is_a_poly():
    # which Python value becomes a ring element is Ring.element's decision
    askers = [name for name, tree in SOURCES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and "Poly" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}]
    assert set(askers) <= {"rings"}


def _written_ids(*callees):
    """The check id of each call to one of `callees` in src/nilk that passes
    its id as a literal, once per call."""
    return [node.args[0].value for tree in SOURCES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in callees
            and isinstance(node.args[0], ast.Constant)]


def _registry_ids():
    """Every check id src/nilk writes: at a require or check call, or in a
    row of report.SUITES."""
    return _written_ids("require", "check") + [row[0] for row in report.SUITES]


def test_only_the_ledger_makes_a_check():
    # every entry goes through ledger.check, which decides its status by
    # the one rule: PASS, else DISCREPANCY for a known id, else FAIL
    makers = [name for name, tree in SOURCES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Check"]
    assert makers == ["ledger"]


def test_each_check_id_is_written_once():
    ids = _registry_ids()
    assert sorted({cid for cid in ids if ids.count(cid) > 1}) == []


@pytest.mark.parametrize("module", ["laurent_pipeline", "groupring_pipeline"])
def test_construct_records_every_identity_its_module_proves(module):
    # N's two identities included: no stage identity is proved outside the
    # construction's ledger, on a later first use
    proved = {node.args[0].value for node in ast.walk(SOURCES[module])
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require"}
    assert set(getattr(nilk, module).construct().checks) == proved


def test_the_report_prints_every_written_id_but_the_stage_only_ones(report_checks):
    printed = {c.id for c in report_checks}
    assert set(_written_ids("require")) - printed == STAGE_ONLY
    assert set(_registry_ids()) == printed | STAGE_ONLY
