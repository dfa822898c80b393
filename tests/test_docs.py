"""The README names only attributes that exist in the code."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

from linkgae.engine import Tape
from linkgae.evaluation import MetricSpec
from linkgae.graph import EdgeSplit, SparseOperator
from linkgae.model import GAEModel

README = Path(__file__).resolve().parents[1] / "README.md"
CLASSES = {cls.__name__: cls for cls in (Tape, GAEModel, SparseOperator, EdgeSplit, MetricSpec)}


def _attributes(cls) -> set[str]:
    """The class's own names, its dataclass fields and every ``self.<name>``
    its methods assign."""
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    names |= {node.attr for node in ast.walk(ast.parse(inspect.getsource(cls)))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return names


def test_readme_names_only_attributes_the_classes_have():
    pattern = re.compile(rf"\b({'|'.join(CLASSES)})\.([A-Za-z_]\w*)")
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = {match for span in spans for match in pattern.findall(span)}
    assert len(named) >= 5, "the README's backticked Class.attribute names were not found"
    missing = sorted(f"{c}.{a}" for c, a in named if a not in _attributes(CLASSES[c]))
    assert not missing, f"the README names attributes the code does not have: {missing}"
