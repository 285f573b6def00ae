"""Static checks over the package source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import siefring_kit

SOURCES = sorted(Path(siefring_kit.__file__).parent.glob("*.py"))


def test_no_bare_assert():
    # python -O strips assert statements, so none may guard an invariant
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _imported_packages(node) -> set:
    """Top-level packages an import statement names; none for a relative one."""
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.partition(".")[0]}
    return set()


def test_no_sympy_import():
    # sympy is a test dependency only; an import inside a function counts too
    package = Path(siefring_kit.__file__).parent
    modules = sorted(package.rglob("*.py"))
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "sympy" in _imported_packages(node)
    ]
    assert package / "germs.py" in modules and found == []


def test_runtime_imports_only_numpy_and_the_standard_library():
    # the declared runtime is numpy alone: scipy, sympy or any other package
    # installed beside it must not be imported, inside a function neither
    package = Path(siefring_kit.__file__).parent
    allowed = sys.stdlib_module_names | {"numpy", "siefring_kit"}
    found = [
        f"{path.relative_to(package)}:{node.lineno}: {name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in sorted(_imported_packages(node) - allowed)
    ]
    assert found == []


def test_traced_names_are_bound_by_the_cli_import():
    # the traced benchmark run imports siefring_kit.cli alone, then wraps every
    # name in perfbench/spans.py TRACED; a fresh interpreter keeps this
    # process's own imports (sympy among them) out of the check
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    )
    script = (
        "import json, sys, siefring_kit.cli\n"
        f"traced = {traced!r}\n"
        "modules = {layer: sys.modules.get('siefring_kit.' + layer) for layer in traced}\n"
        "print(json.dumps({layer: m and [n for n in traced[layer] if not hasattr(m, n)]\n"
        "                  for layer, m in modules.items()}))\n"
    )
    package_root = Path(siefring_kit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # null: the module is not imported; a list: the names it lacks
    assert json.loads(done.stdout) == {layer: [] for layer in traced}


def _integer_rules(node) -> bool:
    """An integer test of its own: numbers.Integral, np.integer or an
    isinstance against bool."""
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) in {"numbers.Integral", "np.integer", "numpy.integer"}
    if isinstance(node, ast.ImportFrom) and node.module == "numbers":
        return any(alias.name == "Integral" for alias in node.names)
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(ast.unparse(name) == "bool" for name in names)
    return False


def test_one_integer_rule():
    # what counts as an integer is decided by jsonio.typed alone
    package = Path(siefring_kit.__file__).parent
    modules = sorted(path for path in package.rglob("*.py") if path.name != "jsonio.py")
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _integer_rules(node)
    ]
    assert package / "spectrum.py" in modules and found == []


def _uses(node, name: str):
    """Line numbers where ``node`` names ``name``: a name, an attribute, an
    import alias, or a string constant as ``getattr`` would take it."""
    for sub in ast.walk(node):
        if (
            (isinstance(sub, ast.Name) and sub.id == name)
            or (isinstance(sub, ast.Attribute) and sub.attr == name)
            or (isinstance(sub, ast.alias) and name in (sub.name, sub.asname))
            or (isinstance(sub, ast.Constant) and sub.value == name)
        ):
            yield getattr(sub, "lineno", node.lineno)


def test_trusted_builder_only_in_shift_scene():
    # core._trusted builds objects without validating them; only the shift of
    # a valid scene may use it, so no input reader gets a second path
    package = Path(siefring_kit.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)  # the top-level def or class, if any
            if not (path.name == "core.py" and owner == "_trusted"):
                found += [(path.name, owner, line) for line in _uses(node, "_trusted")]
    assert found and {(module, owner) for module, owner, _ in found} == {("core.py", "shift_scene")}, found


def _cover_rules(node) -> bool:
    """alpha_plus - alpha_minus, alpha_minus + alpha_plus (either operand
    order) or math.gcd: the parity, CZ and sigma_bar rules of a cover."""
    if isinstance(node, ast.Attribute) and ast.unparse(node) == "math.gcd":
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        names = [getattr(side, "attr", getattr(side, "id", None)) for side in (node.left, node.right)]
        if isinstance(node.op, ast.Sub):
            return names == ["alpha_plus", "alpha_minus"]
        return set(names) == {"alpha_minus", "alpha_plus"}
    return False


def test_cover_rules_only_in_cover_data():
    # the scene layer states parity, CZ and sigma_bar once, in CoverData, so
    # intersection and audit read them and cannot restate the gcd
    package = Path(siefring_kit.__file__).parent
    found = []
    for name in ("core.py", "intersection.py", "audit.py"):
        for node in ast.parse((package / name).read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            found += [(name, owner) for sub in ast.walk(node) if _cover_rules(sub)]
    assert sorted(set(found)) == [("core.py", "CoverData")], found
    for name in ("intersection.py", "audit.py"):
        assert list(_uses(ast.parse((package / name).read_text(encoding="utf-8")), "gcd")) == []


def test_one_oracle_resultant_path():
    # the oracle samples, factors and transforms its resultant in one place,
    # _ResultantPlan, so a second resultant path cannot come back beside it
    source = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    found = {}
    for node in source.body:
        owner = getattr(node, "name", None)
        for name in ("det", "vander", "fft"):
            # np.fft.fft names fft twice on one line
            found.setdefault(name, set()).update((owner, line) for line in _uses(node, name))
    assert {name: [owner for owner, _ in sites] for name, sites in found.items()} == {
        name: ["_ResultantPlan"] for name in ("det", "vander", "fft")
    }, found


def test_one_counting_disk():
    # the radius pre-check runs where a disk is planned, and that plan is the
    # one cache per disk, so a second disk cache cannot come back beside it
    source = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    found = {"_embedded_radius_check": set(), "lru_cache": set(), "cache": set()}
    for node in source.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            continue
        owner = getattr(node, "name", None)
        for name, owners in found.items():
            owners.update(owner for _ in _uses(node, name))
    assert found == {
        "_embedded_radius_check": {"_disk_plan"},
        "lru_cache": {"_pair_resultant", "_disk_plan"},
        "cache": set(),
    }, found


def test_one_stuck_reason():
    # the double-point draw returns the stuck reason and _redraw ends a cell
    # on it: both read one constant, spelled once in the package
    from siefring_kit import germs

    package = Path(siefring_kit.__file__).parent
    spelled = sum(path.read_text(encoding="utf-8").count(germs.STUCK_AT_THE_ORIGIN) for path in SOURCES)
    owners = {
        getattr(node, "name", None)
        for node in ast.parse((package / "germs.py").read_text(encoding="utf-8")).body
        for _ in _uses(node, "STUCK_AT_THE_ORIGIN")
    }
    assert spelled == 1 and owners == {None, "numeric_double_point_oracle", "_redraw"}, (spelled, owners)


def test_one_certification_path():
    # the exact engine certifies an order in one place, _resultant: the
    # Newton-polygon bound where the edge check finds the edges apart, else
    # the Hadamard prime set, so no caller reads a prime's order, the bound
    # or the edge check on its own
    package = Path(siefring_kit.__file__).parent
    found = {"_order_modulo": set(), "_order_bound": set(), "_edges_apart": set()}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for name, owners in found.items():
                owners.update((path.name, owner) for _ in _uses(node, name))
    assert found == {name: {("germs.py", "_resultant")} for name in found}, found


def test_integer_layers_import_no_numpy():
    # audit draws its twists from the standard library and names no numpy;
    # spectrum binds numpy and core lazily, so importing it, or refusing a
    # loop file by the JSON rules, runs neither
    package = Path(siefring_kit.__file__).parent
    audit = ast.parse((package / "audit.py").read_text(encoding="utf-8"))
    assert [line for name in ("numpy", "np") for line in _uses(audit, name)] == []
    spectrum = ast.parse((package / "spectrum.py").read_text(encoding="utf-8"))
    eager = [
        f"spectrum.py:{node.lineno}: {ast.unparse(node)}"
        for node in spectrum.body
        if "numpy" in _imported_packages(node)
        or (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "core")
    ]
    assert eager == []
