"""Source hygiene: every imported name is used, every `__all__` entry
resolves, no function takes a size-cap knob, no function re-imports a
sibling module the file already imports at the top, a function imports a
sibling only to break an import cycle and every module constant is read,
checked on the syntax tree of each package module; every public function
and class has a caller outside the tests; and every `module.name` that
README.md cites names an attribute of that package module."""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "compound_fsc"
MODULES = sorted(PACKAGE.glob("*.py"))
README = PACKAGE.parent.parent / "README.md"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Public names that no package module and no benchmark code references, kept
# on purpose. An entry that gains a caller must leave the list.
KEPT = {
    # results the roadmap's next experiments call
    "capacity.compute_Cn_markovian": "C_n from each member's stationary state law",
    "capacity.ge_feedback_gap": "the paper's feedback corollary on Gilbert-Elliot families",
    "channel.quantize_family": "the finite cover of a continuum family",
    "channel.nearest_member": "the cover member that stands in for a channel",
    "exponents.random_coding_bound": "the achievability bound simulated error rates meet",
    "estimation.mutual_info_continuity_bound": "tau(delta), the bound the mismatch loss is checked against",
    # file formats
    "channel.save_family": "writes the family file that README documents and load_family reads",
    # scalar oracles that the vectorised paths are checked against
    "causal.input_prob": "one path's policy weight",
    "causal.joint_and_output_probs": "the exact path joint and output law the entropy oracles read",
    "causal.mixture_policy": "the convex combination in path space",
    "codetree.sample_codetree": "one tree drawn, the stream sample_symbols reproduces",
    "codetree.tree_prob": "the law of sample_codetree",
    "decoder.tree_log_likelihood": "one tree and one output row through the codebook scorer",
}


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _dunder_all(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _top_level(tree: ast.Module) -> set:
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    exported = set(_dunder_all(tree))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in used and name not in exported
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dunder_all_resolves(path):
    tree = ast.parse(path.read_text())
    missing = sorted(set(_dunder_all(tree)) - _top_level(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {', '.join(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cap_parameters(path):
    """Size limits are module constants behind their guards, never per-call knobs."""
    knobs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            knobs += [
                f"{getattr(node, 'name', 'lambda')}({p.arg}) (line {node.lineno})"
                for p in params
                if p.arg == "cap" or p.arg.endswith("_cap")
            ]
    assert not knobs, f"{path.name} has size-cap parameters: {', '.join(knobs)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_function_level_imports(path):
    """A function-level import is only for breaking an import cycle, so it must
    not name a sibling module that the file already imports at module level."""
    tree = ast.parse(path.read_text())
    top = {(n.level, n.module) for n in tree.body if isinstance(n, ast.ImportFrom)}
    late = sorted(
        f".{node.module} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level and (node.level, node.module) in top
    )
    assert not late, f"{path.name} re-imports inside functions: {', '.join(late)}"


def _sibling(node) -> str | None:
    """The package module a relative import statement names, if any."""
    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
        return node.module.split(".")[0]
    return None


def _reaches(start: str, goal: str) -> bool:
    """Whether importing `start` imports `goal` through module-level sibling imports."""
    graph = {p.stem: {_sibling(n) for n in ast.parse(p.read_text()).body} - {None} for p in MODULES}
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == goal:
            return True
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_level_imports_break_cycles(path):
    """A function may import a sibling module only when that module imports
    this one back at module level, so the import could not move to the top."""
    tree = ast.parse(path.read_text())
    late = sorted(
        f".{_sibling(node)} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _sibling(node) and not _reaches(_sibling(node), path.stem)
    )
    assert not late, f"{path.name} imports inside functions with no cycle to break: {', '.join(late)}"


def test_module_constants_are_read():
    """Every module-level UPPER_CASE constant is read somewhere in the
    package: by name in its own module, by name in a module that imports it
    from there, or as an attribute. Re-exporting it does not count."""
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    attrs = {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    read = set()
    for stem, tree in trees.items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {(stem, name) for name in loaded}
        for node in ast.walk(tree):
            if _sibling(node):
                read |= {(_sibling(node), a.name) for a in node.names if (a.asname or a.name) in loaded}
    unread = sorted(
        f"{stem}.{t.id} (line {node.lineno})"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name) and t.id.isupper() and (stem, t.id) not in read and t.id not in attrs
    )
    assert not unread, f"module constants never read: {', '.join(unread)}"


def _references(nodes, strings=False) -> set:
    """Names read in `nodes`, bare or as attributes, and with `strings` every
    identifier-like string constant too (the benchmark's tracer looks
    functions up by name)."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def test_public_names_have_callers():
    """Every public top-level function and class is referenced by another
    package module (re-exports in __init__ do not count), by its own module
    outside its definition, or by perfbench/; the rest are KEPT, each with
    its reason. Names that only the tests reach are deleted with their tests."""
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    bench = _references([ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py")], strings=True)
    orphans = set()
    for stem, tree in trees.items():
        others = _references(t for s, t in trees.items() if s not in (stem, "__init__"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = _references(n for n in tree.body if n is not node)
                if node.name not in others | own | bench:
                    orphans.add(f"{stem}.{node.name}")
    assert not orphans - KEPT.keys(), f"public names only the tests reach: {', '.join(sorted(orphans - KEPT.keys()))}"
    assert not KEPT.keys() - orphans, f"KEPT names that now have callers: {', '.join(sorted(KEPT.keys() - orphans))}"


def test_readme_module_references_resolve():
    """A backticked `module.name` in README.md whose module is a package
    module must name an attribute of it, so a deletion cannot leave the
    docs citing a name that is gone."""
    stems = {p.stem for p in MODULES}
    refs = set(re.findall(r"`(\w+)\.(\w+)`", README.read_text()))
    cited = sorted((m, name) for m, name in refs if m in stems)
    assert cited, "README.md cites no package module names"
    stale = [f"{m}.{name}" for m, name in cited if not hasattr(importlib.import_module(f"compound_fsc.{m}"), name)]
    assert not stale, f"README.md cites names that do not exist: {', '.join(stale)}"
