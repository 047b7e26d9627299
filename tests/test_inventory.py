"""Every public function, class and method of the package has a caller in
``src/``, or is held by the benchmark under ``perfbench/`` alone and listed
in ``HELD`` with its holder: ROADMAP item 8 as a checked list. A name that
only tests call fails here; delete it, or move what a test still needs into
``tests/conftest.py``.

A function or class counts as called wherever ``src/`` reads its name, as a
name or an attribute, and a method wherever ``src/`` reads an attribute of
its name. So a method shares its callers with every attribute of the same
name: ``GroupTable.mul`` passes through ``operator.mul``."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbitforge"

#: Public names with no caller in src/, each with the perfbench file that uses it.
HELD = {
    "auto_orbits.automorphism_group": "tracing.py",
    "cocycle_split.coboundary": "inputs.py",
    "cocycle_split.extension_multiply": "tracing.py",
    "exact_linear.minimal_polynomial": "tracing.py",
    "group_core.GroupTable.conjugate": "tracing.py",
    "group_core.GroupTable.inv": "tracing.py",
    "group_core.GroupTable.table": "inputs.py",
    "group_core.derived_subgroup": "tracing.py",
    "group_core.direct_product": "workloads.py",
    "group_core.element_order": "tracing.py",
    "group_core.order_profile": "tracing.py",
    "group_core.trivial_action": "workloads.py",
}


def _uncalled(sources: dict[str, str]) -> set[str]:
    """The "module.name" and "module.Class.method" of every public
    module-level function and class, and every public method of a public
    class, that no module of ``sources`` calls."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    read = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in read:
                out.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(f"{module}.{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                           and m.name not in attrs)
    return out


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_source_caller_or_a_benchmark_holder():
    assert _uncalled(_package_sources()) == set(HELD)


@pytest.mark.parametrize("name, holder", sorted(HELD.items()))
def test_each_held_name_is_used_by_its_benchmark_holder(name, holder):
    last = name.rsplit(".", 1)[1]
    assert re.search(rf"\b{last}\b", (ROOT / "perfbench" / holder).read_text(encoding="utf-8"))


def test_a_name_that_only_tests_call_is_found():
    sources = _package_sources()
    sources["exact_linear"] += "\n\ndef only_tests():\n    pass\n\n\nclass Spare:\n    def helper(self):\n        pass\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.only_tests", "exact_linear.Spare",
                                              "exact_linear.Spare.helper"}
    # a method is not called by a local variable of its name, only by an attribute
    sources["cli"] += "\nhelper = exact_linear.only_tests()\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.Spare", "exact_linear.Spare.helper"}
    sources["cli"] += "\nSpare().helper()\n"
    assert _uncalled(sources) - set(HELD) == set()
