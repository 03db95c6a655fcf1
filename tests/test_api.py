"""The library exports only what its own modules, its CLI or the benchmark
harness call: a public function or ``FieldSpec`` method that only the tests
reach belongs in tests/oracle.py instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defs(tree: ast.Module):
    """Each module-level function, class and constant (one name assigned)
    and each method of FieldSpec; a decorated module-level function (a CLI
    command) is registered by its decorator, so it has a caller."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or \
                isinstance(node, ast.FunctionDef) and not node.decorator_list or \
                isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            yield node
        if isinstance(node, ast.ClassDef) and node.name == "FieldSpec":
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef))


def _name(node: ast.AST) -> str:
    return node.targets[0].id if isinstance(node, ast.Assign) else node.name


def _reads(tree: ast.Module, owners: set) -> list[tuple[str, ast.AST | None]]:
    """(name, owner) for every name and attribute read in tree: owner is
    the node of owners whose body holds the read, or None."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        owner = node if node in owners else owner
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, owner))
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def _bench_reads() -> set[str]:
    """The library names the benchmark harness reads: those it imports from
    tdcodes and the attributes it reads, less any name a harness file
    defines itself (its own checker has an ext_mul and a beta_power)."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        own = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tdcodes."):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and node.attr not in own:
                found.add(node.attr)
    return found


def _orphans(private: bool) -> list[str]:
    """The public names, or the private module-level ones, that nothing in
    src/ outside their own body nor the benchmark harness reads."""
    paths = sorted((ROOT / "src" / "tdcodes").glob("*.py"))
    trees = [_parse(path) for path in paths]
    defs = {node: f"{path.stem}.{_name(node)}" for path, tree in zip(paths, trees)
            for node in _defs(tree)
            if _name(node).startswith("_") == private and not _name(node).startswith("__")
            and (not private or node in tree.body)}
    reads = [read for tree in trees for read in _reads(tree, defs.keys())]
    bench = _bench_reads()
    # a name read only in its own body or inside another orphan is an
    # orphan too, so the search repeats until a pass finds no new one
    orphans: set[ast.AST] = set()
    while True:
        used = bench | {name for name, owner in reads
                        if owner not in orphans and (owner is None or _name(owner) != name)}
        new = {node for node in defs.keys() - orphans if _name(node) not in used}
        if not new:
            break
        orphans |= new
    return sorted(defs[node] for node in orphans)


def test_every_public_name_has_a_caller_outside_the_tests():
    names = _orphans(private=False)
    assert names == [], "called only from the tests: " + ", ".join(names)


def test_every_private_helper_has_a_caller_outside_the_tests():
    # a leftover helper of a deleted engine is read by nothing but its tests
    names = _orphans(private=True)
    assert names == [], "read only by the tests, or by nothing: " + ", ".join(names)
