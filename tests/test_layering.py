"""Only contracts wires a pairwise condition to its level key and verdict rule.

Every other module of the package reaches a condition through its row
(contracts.Condition) and the public accessors beside it: verdicts,
minimal_constant and the checkers.  A module that names a private part
of that wiring, as contracts.X or in a from-import of contracts, fails
here, and so does one that defines a verdict rule or a level key of its
own.  Likewise only mapkit reads mapkit.Lanes' bit layout, its full, width
and every_lane attributes.  The modules are read with ast, not imported.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "digitop"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "contracts.py")
RULES = ("_bound", "_kannan", "_strictly_below", "_rational_bound")
PRIVATE = re.compile(
    r"_\w+_terms|" + "|".join(RULES) + r"|_keys|_constant|_witness|_verdicts|_Verdicts"
)


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(), filename=module)


def private_names(module: str) -> list:
    """(line, name) of each private contracts name the module uses."""
    found = []
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "contracts" and PRIVATE.fullmatch(node.attr):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("contracts"):
            found += [(node.lineno, a.name) for a in node.names if PRIVATE.fullmatch(a.name)]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_other_module_names_a_private_part_of_a_condition(module):
    assert private_names(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_other_module_defines_a_rule_or_a_level_key(module):
    defined = [
        (node.lineno, node.name)
        for node in ast.walk(tree(module))
        if isinstance(node, ast.FunctionDef)
        and (node.name in RULES or re.fullmatch(r"_\w+_terms", node.name))
    ]
    assert defined == []


def test_the_rules_and_level_keys_live_in_contracts():
    nodes = ast.walk(tree("contracts.py"))
    defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
    assert set(RULES) <= defined
    assert len([name for name in defined if re.fullmatch(r"_\w+_terms", name)]) == 7


@pytest.mark.parametrize("module", [m for m in (*MODULES, "contracts.py") if m != "mapkit.py"])
def test_only_mapkit_reads_the_bit_layout_of_lanes(module):
    read = [
        (node.lineno, node.attr)
        for node in ast.walk(tree(module))
        if isinstance(node, ast.Attribute) and node.attr in ("full", "width", "every_lane")
    ]
    assert read == []
