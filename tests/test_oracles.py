"""The oracle table is complete: every function that runs a fixed-table
primitive has a row, every code generator of a signed table has a proof
row on formal operands, every name a row gives exists, and every row runs."""

import ast
from functools import cache
from pathlib import Path

import hyperclifford
from oracles import ORACLES

SRC = Path(hyperclifford.__file__).parent
TESTS = Path(__file__).parent

# the generated-code compiler, the sign map, the coordinate-table gather and
# scatter, the generator of their maps, the matrix product kernel with its
# exact halves, and the rotor series' compiled complex kernels
PRIMITIVES = {"_compiled", "_signed", "_gather", "_scatter", "_linear", "_product", "_locate", "_contract", "_kernels"}


@cache
def library_functions() -> dict:
    """Each function of the package as ``module.qualname``, with the names
    it calls; a nested function or lambda counts as its enclosing one."""
    functions = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                         for call in ast.walk(child) if isinstance(call, ast.Call)}
                functions[f"{prefix}{child.name}"] = calls

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return functions


def named_kernels() -> set:
    return {name for rows in ORACLES.values() for row in rows for name in row.kernel.split()}


def test_every_function_that_runs_a_fixed_table_primitive_has_a_row():
    callers = {name for name, calls in library_functions().items() if calls & PRIMITIVES}
    # 5 functions run _compiled (6 call sites), 7 _signed, 2 _gather, 2 _scatter, 2 _linear, 4 _product,
    # 2 _locate, 3 _contract and 2 _kernels
    assert len(callers) >= 27
    assert sorted(callers - named_kernels()) == []


def test_every_table_kernel_is_proved_on_formal_operands():
    # the blade products (product, joined, restricted) and the coordinate
    # maps (_linear, under gather and scatter) that algebra generates
    generators = {name for name, calls in library_functions().items()
                  if name.startswith("algebra.") and calls & {"_compiled", "_linear"}}
    proved = {name for test, rows in ORACLES.items() if test.endswith("_on_formal_operands")
              for row in rows for name in row.kernel.split()}
    assert len(generators) >= 6
    assert sorted(generators - proved) == []


def test_every_function_a_row_names_exists():
    assert sorted(named_kernels() - set(library_functions())) == []


def test_every_row_runs_under_a_test_of_its_module():
    for module in {test.partition("::")[0] for test in ORACLES}:
        assert "globals().update(oracle_tests(__name__))" in (TESTS / f"{module}.py").read_text(), module
