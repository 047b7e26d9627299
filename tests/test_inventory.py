"""Every public function, class and method of the package has a caller in
``src/``, or is held by the benchmark under ``perfbench/`` alone and listed
in ``HELD`` with its holder: ROADMAP item 8 as a checked list. A name that
only tests call fails here; delete it, or move what a test still needs into
``tests/conftest.py``.

A function or class counts as called only through its own name: wherever
``src/`` reads it as a name that is not a local of the function that reads
it, or as an attribute of an imported module (``gc.cyclic``). A method
counts wherever ``src/`` reads an attribute of its name whose object is not
an imported module. So the local variable ``power`` of
``minimal_polynomial`` does not call ``mixed_group.power``, the method read
``basis.inverse()`` calls no module-level ``inverse``, and ``operator.mul``
does not call ``GroupTable.mul``. A read inside a ``HELD`` function calls
nothing, since only the benchmark calls that function: so
``derived_subgroup`` does not call ``subgroup_closure``.

Every private module-level function and class must likewise be read by
``src/`` code outside its own body, and outside a ``HELD`` function, so a
helper that its callers no longer reach is found too.

A method read is class-blind, as the class of ``x`` in ``x.to_json()`` is
not known from the source, except for a held method: only a read on its own
class (``Cocycle.to_json``, ``cs.Cocycle.to_json``) calls it. So
``Cocycle.to_json``, which only the benchmark calls, and
``GroupTable.to_json``, which only ``Cocycle.to_json`` calls, are listed in
``HELD``, though ``src/`` reads ``.to_json()`` on other classes.

Every rational enters ``src/`` through one reader: ``Fraction``'s parts are
read only where ``exact_linear._line`` writes an entry as text, numpy's text
parser is called only by ``exact_linear._text_table``, the reader of JSON
array text that ``exact_linear._rationals`` also calls, and no ``Fraction``
is built from one non-literal argument, which it would parse by its own,
looser rule (a float, "1e1", " 1/2 ").

The Light test ``group_core._first_failure`` runs once per certified
object: only ``_validate_table``, ``FiniteAction.__post_init__`` and
``verify_cocycle`` call it. Every other identity, such as the relation of
``trivialize``, is derived from theirs."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbitforge"

#: Public names with no caller in src/, each with the perfbench file that uses it.
HELD = {
    "auto_orbits.automorphism_group": "tracing.py",
    "cocycle_split.Cocycle.to_json": "inputs.py",
    "cocycle_split.coboundary": "inputs.py",
    "cocycle_split.extension_multiply": "tracing.py",
    "exact_linear.QMatrix.det": "tracing.py",
    "exact_linear.minimal_polynomial": "tracing.py",
    "group_core.GroupTable.conjugate": "tracing.py",
    "group_core.GroupTable.inv": "tracing.py",
    "group_core.GroupTable.mul": "tracing.py",
    "group_core.GroupTable.to_json": "inputs.py",
    "group_core.GroupTable.table": "inputs.py",
    "group_core.derived_subgroup": "tracing.py",
    "group_core.direct_product": "workloads.py",
    "group_core.element_order": "tracing.py",
    "group_core.order_profile": "tracing.py",
    "group_core.subgroup_closure": "tracing.py",
    "group_core.trivial_action": "workloads.py",
    "mixed_group.power": "tracing.py",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes under scope that are not inside a nested function."""
    out, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _locals(scope: ast.AST, nodes: list[ast.AST]) -> set[str]:
    """The names that a function binds in its own scope: its parameters, and
    every name it assigns, defines, imports or catches, but those it
    declares global or nonlocal."""
    args = scope.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                             args.kwarg) if a}
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (*_SCOPES[:2], ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound - {x for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
                    for x in node.names}


def _names_read(tree: ast.Module) -> set[str]:
    """Every name that tree reads where it is not a local of the enclosing
    function, or of a function around that."""
    read = set()

    def visit(scope: ast.AST, outer: frozenset[str]) -> None:
        nodes = _own_nodes(scope)
        local = outer | _locals(scope, nodes) if isinstance(scope, _SCOPES) else outer
        read.update(node.id for node in nodes if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load) and node.id not in local)
        for node in nodes:
            if isinstance(node, _SCOPES):
                visit(node, frozenset(local))

    visit(tree, frozenset())
    return read


def _modules(tree: ast.Module) -> set[str]:
    """The names that tree binds to a module: by ``import x`` or
    ``import x as y`` anywhere, and by ``from . import x``."""
    return {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and not node.module)
            for a in node.names}


def _defs(module: str, tree: ast.Module):
    """("module.name", node) of every module-level function and class of
    tree, and ("module.Class.method", node) of every method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef))


def _trees(sources: dict[str, str]) -> dict[str, ast.Module]:
    """The parsed modules of ``sources``, with the body of every ``HELD``
    function emptied, since only the benchmark calls it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    for module, tree in trees.items():
        for name, node in _defs(module, tree):
            if name in HELD and isinstance(node, ast.FunctionDef):
                node.body = [ast.Pass()]
    return trees


def _uncalled(sources: dict[str, str]) -> set[str]:
    """The "module.name" and "module.Class.method" of every public
    module-level function and class, and every public method of a public
    class, that no module of ``sources`` calls outside a ``HELD`` function."""
    trees = _trees(sources)
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    methods, read = set(), set()
    for tree in trees.values():
        modules = _modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                on_module = isinstance(node.value, ast.Name) and owner in modules
                (read if on_module else methods).add(node.attr)
                if owner in classes:
                    methods.add(f"{owner}.{node.attr}")
        read |= _names_read(tree)

    def called(name: str, node: ast.AST) -> bool:
        if name.count(".") < 2:
            return node.name in read
        return (name.split(".", 1)[1] if name in HELD else node.name) in methods

    return {name for module, tree in trees.items() for name, node in _defs(module, tree)
            if not any(part.startswith("_") for part in name.split(".")[1:]) and not called(name, node)}


def _unread_private(sources: dict[str, str]) -> set[str]:
    """The "module._name" of every private module-level function and class
    that no module of ``sources`` reads, as a name or an attribute, outside
    its own definition and outside a ``HELD`` function."""
    readers: dict[str, list[ast.stmt]] = {}
    helpers = []
    for module, tree in _trees(sources).items():
        for stmt in tree.body:
            read = _names_read(ast.Module(body=[stmt], type_ignores=[]))
            for name in read | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}:
                readers.setdefault(name, []).append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                helpers.append((f"{module}.{stmt.name}", stmt))
    return {name for name, stmt in helpers if not any(r is not stmt for r in readers.get(stmt.name, ()))}


#: The one function that may read each attribute behind a rational entry:
#: a Fraction's two parts, and numpy's text parser.
_READERS = {"numerator": "exact_linear._line", "denominator": "exact_linear._line",
            "fromstring": "exact_linear._text_table"}


def _places(sources: dict[str, str], hit) -> set[str]:
    """The "module.Class.function" (or "module" for module-level code) of
    every place in sources that holds a node for which ``hit(node, place)``
    is true."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child, where):
                found.add(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for module, text in sources.items():
        visit(ast.parse(text), module)
    return found


def _rational_reads(sources: dict[str, str]) -> set[str]:
    """Every place in sources that reads a rational outside the one entry
    rule of ``exact_linear._text_table``: an attribute of ``_READERS``
    anywhere but in its function there, or a ``Fraction`` call with other
    than two arguments or one literal, which would parse its argument
    itself."""
    def hit(node: ast.AST, where: str) -> bool:
        if isinstance(node, ast.Attribute):
            return _READERS.get(node.attr, where) != where
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction" \
            and len(node.args) != 2 and not (len(node.args) == 1 and isinstance(node.args[0], ast.Constant))

    return _places(sources, hit)


#: The functions that may run the Light test: one pass per certified object.
_LIGHT_TEST_CALLERS = {"group_core._validate_table", "group_core.FiniteAction.__post_init__",
                       "cocycle_split.verify_cocycle"}


def _light_test_callers(sources: dict[str, str]) -> set[str]:
    """Every place in sources that reads ``_first_failure``, as a name or an
    attribute."""
    return _places(sources, lambda node, where: isinstance(node, ast.Name) and node.id == "_first_failure"
                   or isinstance(node, ast.Attribute) and node.attr == "_first_failure")


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_source_caller_or_a_benchmark_holder():
    assert _uncalled(_package_sources()) == set(HELD)


def test_every_private_helper_is_read_outside_its_own_body():
    assert _unread_private(_package_sources()) == set()


@pytest.mark.parametrize("name, holder", sorted(HELD.items()))
def test_each_held_name_is_used_by_its_benchmark_holder(name, holder):
    last = name.rsplit(".", 1)[1]
    assert re.search(rf"\b{last}\b", (ROOT / "perfbench" / holder).read_text(encoding="utf-8"))


def test_a_name_that_only_tests_call_is_found():
    sources = _package_sources()
    sources["exact_linear"] += "\n\ndef only_tests():\n    pass\n\n\nclass Spare:\n    def helper(self):\n        pass\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.only_tests", "exact_linear.Spare",
                                              "exact_linear.Spare.helper"}
    # a function is not called by a local variable of its name in the
    # function that reads it, or in one nested in that
    sources["cli"] += "\n\ndef _local(x):\n    only_tests = x\n    return only_tests, lambda: only_tests\n"
    # nor a method by an attribute of its name on an imported module, nor a
    # function by a method read of its name (``basis.inverse()`` is no call
    # of a module-level ``inverse``)
    sources["cli"] += "\n\ndef _module_attribute():\n    import json\n    return json.helper, Spare\n"
    sources["cli"] += "\n\ndef _method_read(x):\n    return x.only_tests()\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.only_tests", "exact_linear.Spare.helper"}
    # a method is not called by a local variable of its name, only by an
    # attribute; a function is called through its imported module
    sources["cli"] += "\nfrom . import exact_linear\nhelper = exact_linear.only_tests()\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.Spare.helper"}
    sources["cli"] += "\nSpare().helper()\n"
    assert _uncalled(sources) - set(HELD) == set()
    # a read inside a held function calls nothing: the benchmark alone calls it
    sources["exact_linear"] += "\n\ndef only_held():\n    pass\n"
    sources["mixed_group"] += "\n\ndef power(x):\n    return only_held(x)\n"
    assert _uncalled(sources) - set(HELD) == {"exact_linear.only_held"}
    sources["cli"] += "\n\ndef _not_held():\n    return only_held()\n"
    assert _uncalled(sources) - set(HELD) == set()
    # a held method is not called by a read of its name on another class's
    # object, only by one on its own class
    sources["cli"] += "\n\ndef _other(part):\n    return part.to_json()\n"
    assert "cocycle_split.Cocycle.to_json" in _uncalled(sources)
    sources["cli"] += "\n\ndef _own(c):\n    return cocycle_split.Cocycle.to_json(c)\n"
    assert "cocycle_split.Cocycle.to_json" not in _uncalled(sources)
    # a private helper is found when only its own body reads it, or only a
    # held function, and is read once code outside both reads it
    unread = _unread_private(sources)  # the private functions added above
    sources["exact_linear"] += "\n\ndef _helper(n):\n    return _helper(n - 1) if n else 0\n"
    sources["exact_linear"] += "\n\nclass _Spare:\n    pass\n"
    sources["mixed_group"] += "\n\ndef power(x):\n    return _helper(x), _Spare\n"
    assert _unread_private(sources) - unread == {"exact_linear._helper", "exact_linear._Spare"}
    sources["cli"] += "\n\nREAD = exact_linear._helper(1), _Spare\n"
    assert _unread_private(sources) == unread


def test_rationals_enter_through_one_reader():
    assert _rational_reads(_package_sources()) == set()


def test_the_light_test_runs_once_per_certified_object():
    assert _light_test_callers(_package_sources()) == _LIGHT_TEST_CALLERS


def test_a_light_test_call_outside_the_certified_objects_is_found():
    sources = _package_sources()
    sources["cocycle_split"] += ("\n\ndef _again(c):\n    return _first_failure(c.base.generators, 1, None)\n"
                                 "\n\ndef _through_module(b):\n    return group_core._first_failure((), 0, None)\n")
    assert _light_test_callers(sources) - _LIGHT_TEST_CALLERS == {"cocycle_split._again",
                                                                  "cocycle_split._through_module"}


def test_a_rational_read_outside_the_one_reader_is_found():
    sources = _package_sources()
    sources["cli"] += ("\n\nclass _Spare:\n    def of(self, e):\n        return Fraction(e)\n"
                       "\n\ndef _numerator(f):\n    return f.numerator, Fraction(-1), Fraction(1, 2), Fraction('1/3')\n"
                       "\n\ndef _parse(text):\n    return np.fromstring(text, sep=' ')\n")
    assert _rational_reads(sources) == {"cli._Spare.of", "cli._numerator", "cli._parse"}
