"""Names that live outside the library's own code: the benchmark's traced
mode looks them up by string, the README's library example calls them, and
the README and the cli docstring name the commands that take --budget.
An API cut that drops one of them must fail here.  Also the source rules
no test run shows: the Python floor pyproject.toml declares, the one
lock that every memo table fills under, memo tables that live in modules
and a cold() that empties every one, checked constructors only at the
boundary, interning ids read only inside the cold census, and no seeded
search."""

import argparse
import ast
import importlib
import importlib.util
import pathlib
import re

import posetrep as pr
from posetrep import cli
from posetrep.linalg import ExactMatrix

from conftest import cold

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCES = sorted((ROOT / "src" / "posetrep").glob("**/*.py"))


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"posetrep.{mod}"), name, None))]
    assert missing == []
    # the elimination spans wrap this method and split it by field kind
    assert callable(ExactMatrix.rref)
    assert pr.GF(2).kind == "gf" and pr.QQ.kind != "gf"


def test_readme_library_example():
    """The python block under `## Library` runs, and each line whose comment
    starts with a literal evaluates to that literal."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        claim = re.match(r"\s*(\w+)", comment)
        if "=" in code or claim is None:
            continue
        try:
            expected = ast.literal_eval(claim.group(1))
        except ValueError:
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 4


def test_budgeted_commands_take_budget_flag(tmp_path, capsys):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name in cli._BUDGETED:
        required = [a.option_strings[0] for a in commands[name]._actions if a.required]
        argv = [name, *(x for flag in required for x in (flag, "-")), "--budget", "1"]
        assert parser.parse_args(argv).budget == 1, name
    # the flag reaches the library, which rejects a negative budget
    poset = tmp_path / "a3.json"
    poset.write_text('{"elements": ["x", "y", "z"], "relations": []}')
    rep = tmp_path / "u.json"
    rep.write_text('{"field": {"p": 2}, "d0": 2, '
                   '"blocks": {"x": [[1], [0]], "y": [[0], [1]], "z": [[1], [1]]}}')
    argv = ["decompose", "--poset", str(poset), "--rep", str(rep), "--budget", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sources_parse_at_declared_floor():
    """pyproject.toml declares the oldest Python it supports, and every
    source file parses with that version's grammar."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, minor))


LOCK_TYPES = ("Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition")


def test_one_lock_and_no_globals():
    """Every cache fills through poset.memo under poset.LOCK: no module
    assigns a lazy global, and nothing else constructs a lock."""
    globals_, locks = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                globals_.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call)
                  and ast.unparse(node.func).rsplit(".", 1)[-1] in LOCK_TYPES):
                locks.append(path.name)
    assert globals_ == []
    assert locks == ["poset.py"]


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module assigns at its top level."""
    return {target.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}


def module_memo_tables():
    """(module, name) of every module-level table that src/ passes to memo()."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = top_level_names(tree)
        found.update((f"posetrep.{path.stem}", node.args[0].id) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and ast.unparse(node.func) == "memo"
                     and isinstance(node.args[0], ast.Name) and node.args[0].id in names)
    return sorted(found)


def test_cold_empties_every_memo_table():
    """A test that patches a builder must start from cold tables, or a value
    an earlier test stored stands in for the patched call: cold() has to
    reach every table, and one construction and one census fill them all."""
    tables = module_memo_tables()
    assert {name for _, name in tables} >= {"_SPACES", "_CENSUS_CACHE", "_SUPPORTS",
                                            "_EMBEDDINGS", "_BOUNDS", "_DERIVED",
                                            "_SUBORDINATE_ROOTS", "_ROOTS"}

    def sizes():
        return {f"{mod}.{name}": len(getattr(importlib.import_module(mod), name))
                for mod, name in tables}

    cold()
    a3 = pr.build_poset(["x", "y", "z"], [])
    d = pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1})
    assert pr.construct_indecomposable(a3, d, pr.GF(2)) is not None
    assert pr.count_iso_classes(a3, d, pr.GF(2)) > 0
    assert all(sizes().values()), sizes()
    cold()
    assert not any(sizes().values()), sizes()


CHECKED = ("ExactMatrix", "MatrixRep", "SubspaceRep", "Poset")

# Every place src/ calls a checked public constructor, with the reason it
# checks; every other value the package builds goes through _of.
BOUNDARY = {
    ("linalg", "ExactMatrix.from_rows", "ExactMatrix"): "rows a caller gives, once coerced",
    ("jsonio", "rep_from_json", "ExactMatrix"): "blocks read from a file",
    ("jsonio", "rep_from_json", "MatrixRep"): "an element read from a file",
}


def scoped_nodes():
    """(module, enclosing classes and functions, node) for every node in src/."""
    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, module, scope + [child.name])
                continue
            yield module, scope, child
            yield from visit(child, module, scope)

    for path in SOURCES:
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])


def scoped_calls():
    """(module, enclosing classes and functions, call) for every call in src/."""
    return ((module, scope, node) for module, scope, node in scoped_nodes()
            if isinstance(node, ast.Call))


def checked_constructions() -> set[tuple[str, str, str]]:
    """(module, enclosing function, type) of every call of a checked
    constructor in src/, cls(...) in a classmethod included."""
    found = set()
    for module, scope, call in scoped_calls():
        if isinstance(call.func, ast.Name):
            name = call.func.id
            if name == "cls" and len(scope) > 1:
                name = scope[0]
            if name in CHECKED:
                found.add((module, ".".join(scope), name))
    return found


def test_checked_constructors_only_at_the_boundary():
    """A check that creeps back onto a hot path must be named here first."""
    assert checked_constructions() == set(BOUNDARY)


def test_memo_tables_live_in_modules():
    """Every memo table is a module-level name, or a table of a SubspaceSpace,
    whose spaces _SPACES owns: no value object carries a table of its own,
    so cold() reaches every one."""
    names = {path.stem: top_level_names(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    tables, stray = [], []
    for module, scope, call in scoped_calls():
        if ast.unparse(call.func) != "memo":
            continue
        table = call.args[0]
        tables.append(table)
        in_module = isinstance(table, ast.Name) and table.id in names[module]
        in_space = (scope[:1] == ["SubspaceSpace"] and isinstance(table, ast.Attribute)
                    and ast.unparse(table.value) == "self")
        if not (in_module or in_space):
            stray.append(f"{module}.{'.'.join(scope)}: {ast.unparse(table)}")
    assert stray == [] and len(tables) >= 10


# The only code that sees a subspace's interning id: the interning tables,
# the stabilizers acting on them, and the cold census that enumerates and
# walks its orbits on ids, then hands every caller echelon rows.
INTERNING = {"SubspaceSpace", "_Stabilizer", "_enumerate_fibre", "_orbit_representatives",
             "_cold_census"}


def test_interning_ids_stay_in_the_cold_census():
    """_space and .basis_rows, which turn an id into rows, are reached only
    inside the interning code: a census core holds rows, so dropping the
    spaces leaves every cached census liftable."""
    def reads_an_id(node):
        return (isinstance(node, ast.Name) and node.id == "_space"
                or isinstance(node, ast.Attribute) and node.attr == "basis_rows")

    reads = [f"{module}.{'.'.join(scope)}: {ast.unparse(node)}"
             for module, scope, node in scoped_nodes()
             if reads_an_id(node) and not INTERNING & set(scope[:1])]
    assert reads == []


def test_no_seeded_search():
    """No decision in src/ draws at random: the idempotent search and the
    isomorphism certificates are deterministic, so src/ imports no random
    module and calls nothing random."""
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
    assert "random" not in imported
    drawn = [(module, ".".join(scope)) for module, scope, call in scoped_calls()
             if "random" in ast.unparse(call.func).lower()]
    assert drawn == []
