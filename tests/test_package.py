"""The package exports nothing itself: every name lives in its module."""

import ast

import pytest

from conftest import SRC, run_python
from ontosem import samples

# what `import ontosem.cli` loads: every module but `__main__`, `evaluate`,
# which only `eval` imports, and `serialize`, which only the commands that
# write XML or TSV import
CLI_MODULES = [
    "ontosem", "ontosem._input", "ontosem.annotate", "ontosem.buckwalter", "ontosem.cli",
    "ontosem.corpus", "ontosem.interpret", "ontosem.normalize",
    "ontosem.ontology", "ontosem.ontology_io", "ontosem.samples",
]
WRITER_MODULES = sorted(CLI_MODULES + ["ontosem.serialize"])

# each subcommand, run on the bundled sample: its arguments and the package
# modules loaded when it returns. This bounds modules, not wall time.
CORPUS, GOLD = str(samples.corpus_path()), str(samples.gold_path())
COMMANDS = {
    "annotate": (["--in", CORPUS], WRITER_MODULES),
    "interpret": (["--in", CORPUS, "--format", "tsv"], WRITER_MODULES),
    "eval": (["--in", CORPUS, "--gold", GOLD], sorted(CLI_MODULES + ["ontosem.evaluate"])),
    "validate": ([], CLI_MODULES),
    "export-owl": ([], WRITER_MODULES),
    "stats": (["--in", CORPUS], CLI_MODULES),
}


def loaded_after(statement: str) -> list[str]:
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('ontosem')))"
    return ast.literal_eval(run_python(code))


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import ontosem") == ["ontosem"]


def test_samples_loads_no_other_submodule():
    assert loaded_after("from ontosem import samples") == ["ontosem", "ontosem.samples"]


def test_stage_names_of_the_package_are_modules():
    code = """
import sys
import ontosem.normalize as N
from ontosem import annotate, interpret, normalize
print(N is normalize is sys.modules["ontosem.normalize"], hasattr(N, "load_tables"))
print(annotate is sys.modules["ontosem.annotate"], interpret is sys.modules["ontosem.interpret"])
"""
    assert run_python(code) == "True True\nTrue True\n"


def test_cli_loads_each_module_once_and_nothing_else():
    assert loaded_after("import ontosem.cli") == CLI_MODULES


def test_cli_import_loads_neither_dataclasses_nor_logging():
    code = """
import sys
before = set(sys.modules)
import ontosem.cli
print(sorted(m for m in ("dataclasses", "logging", "inspect") if m in set(sys.modules) - before))
"""
    assert run_python(code) == "[]\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    args, modules = COMMANDS[command]
    argv = [command, *args, "--out", str(tmp_path / "out")]
    code = f"""
import sys
from ontosem import cli
code = cli.main({argv!r})
print(code, sorted(m for m in sys.modules if m.startswith("ontosem")))
"""
    assert run_python(code) == f"0 {modules}\n"
    assert (tmp_path / "out").stat().st_size > 0


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore is its module's own; a module that
    # needs another's should find it public, or live next to it
    imported = [
        f"{path.name}: {alias.name}"
        for path in sorted((SRC / "ontosem").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ontosem"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []


def test_no_module_imports_a_name_it_does_not_use():
    # no linter runs on the package: each imported name is read in its
    # module, except on a line marked `# noqa: F401` (kept for other code)
    unused = []
    for path in sorted((SRC / "ontosem").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in "".join(source.splitlines()[node.lineno - 1:node.end_lineno]):
                continue
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


def test_only_the_input_module_assigns_an_exit_code():
    # a refusal's exit code follows from its findings, in `InputError`
    assigning = sorted({
        path.name
        for path in (SRC / "ontosem").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(getattr(node, "ctx", None), ast.Store)
        and "exit_code" in (getattr(node, "id", None), getattr(node, "attr", None))
    })
    assert assigning == ["_input.py"]
