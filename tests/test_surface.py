"""Every module-level function and class of racdnn has a caller.

A name counts as used when code in ``src/racdnn`` or ``perfbench/`` loads
it: bare inside its own module, through an import, as an attribute of a
module alias, or as the string beside a module alias in a tuple or call,
the way ``perfbench/tracing.py`` lists the ops it wraps and ``getattr``
reads them. Aliases are resolved to the modules they name, so
``np.matmul`` is not a use of ``racdnn.tensor.matmul``. Tests do not
count: an API that only its tests call belongs in a test helper. The
rule holds for ``_``-prefixed helpers too, so a helper that a change
leaves behind is found, not only a public name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "racdnn"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def module_name(path: Path) -> str:
    if path.parent == PACKAGE:
        return "racdnn" if path.stem == "__init__" else f"racdnn.{path.stem}"
    return path.stem    # perfbench modules import each other by bare name


def imports(name: str, tree: ast.Module) -> dict:
    """Local name -> dotted target of every import in module `name`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = name.rsplit(".", node.level)[0] if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            for a in node.names:
                out[a.asname or a.name] = f"{base}.{a.name}"
    return out


def surface_and_uses():
    trees = {module_name(p): ast.parse(p.read_text()) for p in SOURCES}
    bound = {name: imports(name, tree) for name, tree in trees.items()}
    defs = {name: {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for name, tree in trees.items()}

    def resolve(dotted: str) -> str:
        """Follow re-exports: `workloads.T` is whatever workloads bound T to."""
        while True:
            mod, _, attr = dotted.rpartition(".")
            if attr not in bound.get(mod, {}):
                return dotted
            dotted = bound[mod][attr]

    used = set()
    for name, tree in trees.items():
        def target(node):
            if isinstance(node, ast.Name):
                if node.id in bound[name]:
                    return resolve(bound[name][node.id])
                return f"{name}.{node.id}" if node.id in defs[name] else None
            if isinstance(node, ast.Attribute):
                base = target(node.value)
                return base and f"{base}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                used.add(target(node))
            pairs = node.elts if isinstance(node, ast.Tuple) else (
                node.args if isinstance(node, ast.Call) else [])
            for owner, attr in zip(pairs, pairs[1:]):
                if isinstance(attr, ast.Constant) and isinstance(attr.value, str) and target(owner):
                    used.add(f"{target(owner)}.{attr.value}")
    surface = {f"{name}.{d}" for name in trees if name.startswith("racdnn") for d in defs[name]}
    return surface, used


def private(dotted: str) -> bool:
    return dotted.rpartition(".")[2].startswith("_")


def test_every_public_name_has_a_caller():
    surface, used = surface_and_uses()
    unused = sorted(n for n in surface - used if not private(n))
    assert not unused, f"no caller in src/racdnn or perfbench/: {unused}"


def test_every_private_helper_has_a_caller():
    surface, used = surface_and_uses()
    helpers = {n for n in surface if private(n)}
    assert "racdnn.nn._scatter_taps" in helpers
    unused = sorted(helpers - used)
    assert not unused, f"no caller in src/racdnn or perfbench/: {unused}"


def test_aliases_resolve_to_their_modules():
    surface, used = surface_and_uses()
    assert "numpy.matmul" in used                  # nn.conv2d's np.matmul
    assert "racdnn.nn.unpool" in used              # only through tracing.OPS
    assert "racdnn.tensor.masked_add" in used      # only through tracing.OPS
    assert "racdnn.attention.inverse_support" in used  # only through tracing.OPS
    assert "racdnn.tensor.backward" in used        # through workloads' re-exported T
