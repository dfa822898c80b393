"""Import layering: every import sits at module level, the tape, the
metrics and the graph load no other linkgae module, and nothing loads
``scipy.linalg``.
The benchmark's tracer wraps callables by name, so each (owner, attribute)
it lists must exist."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkgae
# Every layer is imported, so spans._targets finds each one on the package.
from linkgae import engine, evaluation, graph, heuristics, model, synth, train  # noqa: F401
from perfbench import spans

PACKAGE = Path(linkgae.__file__).parent


def test_no_import_below_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


@pytest.mark.parametrize("module", ["linkgae.engine", "linkgae.evaluation", "linkgae.graph"])
def test_leaf_module_loads_no_other_linkgae_module(module):
    code = (f"import sys, {module}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'linkgae')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True, timeout=60)
    assert proc.stdout.split() == ["linkgae", module]


def test_building_a_model_loads_no_second_blas_runtime():
    # scipy.linalg loads scipy's own bundled OpenBLAS next to numpy's, and its
    # buffers stay resident: a solve_triangular init cost 9 MB of peak RSS on
    # the train-masked benchmark and 36 MB on eval-rank. Dense linear algebra
    # goes through numpy.linalg.
    code = ("import sys\n"
            "import linkgae.checks, linkgae.cli\n"
            "from linkgae.config import ModelConfig\n"
            "from linkgae.model import GAEModel\n"
            "from linkgae.synth import structure_dominant_graph\n"
            "GAEModel(structure_dominant_graph(400), "
            "ModelConfig(input_mode='learnable-orthogonal'))\n"
            "print('scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True, timeout=60)
    assert proc.stdout.split() == ["False"]


def _traced(owner, attr):
    # Tape methods get bare ids (matmul), every other target owner.attr ids.
    name = attr if owner is engine.Tape else f"{owner.__name__.rpartition('.')[2]}.{attr}"
    return pytest.param(owner, attr, id=name)


@pytest.mark.parametrize("owner, attr", [_traced(owner, attr)
                                         for owner, attr, _, _ in spans._targets(linkgae)])
def test_every_traced_tape_op_is_a_tape_method(owner, attr):
    # Tracer.install reads owner.__dict__[attr], so an inherited name is missing too.
    assert attr in owner.__dict__, f"perfbench traces a missing {owner.__name__}.{attr}"
