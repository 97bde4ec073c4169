"""Static hygiene of src/hermlift, read with the stdlib ast module.

Eight rules: a module uses every name it imports (``__init__`` imports
only to re-export); every private module-level function or class is
referenced by some module of the package; every function, method and class
is referenced by name outside its own body somewhere in src, tests, demos
or perfbench; every public module-level function and class is referenced
outside tests/, in src (``__init__`` aside), demos or perfbench; ``exec``,
``eval`` and ``compile`` are named only inside ``ring._product_kernel``; a
scaled determinant is computed from raw coordinates only where coordinates
enter the library; an Euler factor's s-shift becomes a power of its norm
only where X-coefficients are read; and src/hermlift stays within
``LINE_CAP`` lines.  A helper left behind by a refactor fails here rather
than lingering.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "hermlift"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _annotation_names(node):
    """Names inside a string annotation such as ``"Getter"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def used_names(tree):
    """Every identifier a module reads: names, attributes and string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _annotation_names(node.returns)
    return names


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name != "__init__":
            used = used_names(tree)
            unused += [f"{name}: {imported}" for imported in imported_names(tree) if imported not in used]
    assert not unused, unused


def test_every_private_function_and_class_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    dead = [
        f"{name}.{node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert not dead, dead


IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def name_references(tree):
    """How often each name is referenced in a tree.

    A reference is a name, an attribute, an imported name, or a component of
    a string constant that reads as a dotted identifier path, since the CLI
    and the benchmark's tracer look functions up by string.
    """
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER_PATH.fullmatch(node.value):
                refs.update(node.value.split("."))
    return refs


def test_every_definition_is_referenced_outside_its_own_body():
    everywhere = Counter()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            everywhere += name_references(ast.parse(path.read_text(), str(path)))
    unreferenced = [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] <= name_references(node)[node.name]
    ]
    assert not unreferenced, unreferenced


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # the library, the demos or the benchmark must reach each public
    # module-level definition; one that only tests reach belongs in tests/
    # (a test reference, like percoset's) or nowhere.  __init__'s
    # re-exports are not callers
    outside = Counter()
    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    for path in paths + sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        outside += name_references(ast.parse(path.read_text(), str(path)))
    uncalled = [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and outside[node.name] <= name_references(node)[node.name]
    ]
    assert not uncalled, uncalled


DYNAMIC_CODE = {"exec", "eval", "compile"}


def test_code_is_compiled_only_by_the_product_kernel_builder():
    # ring._product_kernel compiles each ring's product from its integer
    # modulus; no other place in the package builds code from strings
    kernel = next(
        node for node in MODULES["ring"].body if isinstance(node, ast.FunctionDef) and node.name == "_product_kernel"
    )
    allowed = {id(node) for node in ast.walk(kernel)}
    found = [
        f"{module}: {node.id} (line {node.lineno})"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in DYNAMIC_CODE and id(node) not in allowed
    ]
    assert not found, found


def _names(node):
    """The identifiers (names and attribute names) a subtree reads."""
    nodes = ast.walk(node)
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


def _innermost(tree, match):
    """The innermost function around each node that ``match`` accepts, by line."""
    found = {}
    for func in ast.walk(tree):  # outer functions come first, inner ones overwrite
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if match(node):
                    found[node.lineno] = func.name
    return found.values()


def _is_scaled_det(node):
    """D t1 t3 - N(w): a difference whose left side is a product reading D, t1 and t3."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and {"D", "t1", "t3"} <= _names(node.left))


def test_scaled_determinant_is_computed_only_where_coordinates_enter():
    # the library reads points by the lattice key (det, t1, t3, w.a, w.b);
    # a det is derived from coordinates only for a table file's point lines
    # and for a HermPoint built at the public boundary, each function once
    allowed = {("cli", "read_table"), ("hermitian", "det_scaled")}
    found = [(module, func) for module, tree in MODULES.items() for func in _innermost(tree, _is_scaled_det)]
    assert sorted(found) == sorted(allowed), found


def test_shift_powers_are_taken_only_where_x_coefficients_are_read():
    # an Euler factor keeps its s-shift as a tag; lfun._times_power, which
    # divides for a negative shift, runs only where X-coefficients are read,
    # never in the builders, substitute or the product
    allowed = {"poly", "discrepancy"}
    found = list(_innermost(MODULES["lfun"], lambda node: isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name) and node.func.id == "_times_power"))
    assert sorted(found) == sorted(allowed), found


LINE_CAP = 3544  # ROADMAP item 5: 10% under the 3938 lines of the initial import


def test_source_stays_within_the_line_cap():
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_CAP, (
        f"src/hermlift has {lines} lines, over the cap of {LINE_CAP} set by ROADMAP item 5 "
        f"(less code for the same behaviour); offset new code before adding it"
    )
