"""The package's modules share private names only through a short list.

A module reads another's private helper only where the two must agree on
one rule: the argument validators, and the orbit function that the CLI and
``iterate_dynamics`` both run.  A new cross-module private import fails here
until it is either made public or added to ``SHARED`` with a reason.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemajority"

# the private names a module may import from a sibling
SHARED = {"_as_int", "_check_int", "_check_prob", "_trajectory_request"}


def _private_imports(path: Path) -> list:
    """(line, module, name) of every private name a ``from .x import`` in the file reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((node.lineno, node.module, alias.name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_cross_module_private_imports_are_shared_names(path):
    unlisted = [item for item in _private_imports(path) if item[2] not in SHARED]
    assert unlisted == [], f"{path.name} imports private names of sibling modules: {unlisted}"


def test_the_shared_names_are_imported():
    # every listed name is in use, so the list does not outgrow the code
    used = {name for path in PACKAGE.glob("*.py") for _, _, name in _private_imports(path)}
    assert used == SHARED
