"""The package exports nothing itself: every name lives in its module."""

import ast

from conftest import run_python

# what `import ontosem.cli` loads: every module but `__main__`
CLI_MODULES = [
    "ontosem", "ontosem._input", "ontosem.annotate", "ontosem.buckwalter", "ontosem.cli",
    "ontosem.corpus", "ontosem.evaluate", "ontosem.interpret", "ontosem.normalize",
    "ontosem.ontology", "ontosem.ontology_io", "ontosem.samples", "ontosem.serialize",
]


def loaded_after(statement: str) -> list[str]:
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('ontosem')))"
    return ast.literal_eval(run_python(code))


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import ontosem") == ["ontosem"]


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
