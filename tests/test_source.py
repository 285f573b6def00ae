"""Static checks over the package source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import siefring_kit
from siefring_kit.core import CoverData

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
            yield sub.lineno if hasattr(sub, "lineno") else node.lineno


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


def test_one_form_per_cover_rule():
    # a per-cover rule is a CoverData method and nothing else: no module binds
    # a top-level function or name after one, so no second form can come back
    rules = {name for name, value in vars(CoverData).items() if callable(value) and not name.startswith("_")}
    package = Path(siefring_kit.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            found += [f"{path.relative_to(package)}:{node.lineno}: {n}" for n in names if n in rules]
    assert "sigma_bar" in rules and found == []


def test_one_oracle_resultant_path():
    # the oracle samples, factors and transforms its resultant in one place,
    # _ResultantPlan, so a second resultant path cannot come back beside it;
    # every winding samples its coefficients by one inverse transform, in
    # winding.arcs, on one line that names np.fft and ifft
    package = Path(siefring_kit.__file__).parent
    found = {}
    for name in ("germs.py", "winding.py"):
        for node in ast.parse((package / name).read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for word in ("det", "vander", "fft", "ifft"):
                # np.fft.fft names fft twice on one line
                found.setdefault(word, set()).update((name, owner, line) for line in _uses(node, word))
    assert {word: sorted((name, owner) for name, owner, _ in sites) for word, sites in found.items()} == {
        "det": [("germs.py", "_ResultantPlan")],
        "vander": [("germs.py", "_ResultantPlan")],
        "fft": [("germs.py", "_ResultantPlan"), ("winding.py", "arcs")],
        "ifft": [("winding.py", "arcs")],
    }, found


def _winding_calls(source, name: str = "_winding") -> list:
    """(owner, number of arguments) of every call of germs._winding, or of
    the function ``name``, one entry per call."""
    return sorted(
        (node.name, len(call.args) + len(call.keywords))
        for node in source.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name
    )


def test_one_counting_disk():
    # the radius pre-check, the one winding, runs where a disk is planned, and that plan is the one cache per disk, so a second disk
    # cache cannot come back beside it; the pair oracle's order memo is the
    # only other cache, so the exact calculators hash no germ
    source = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    found = {"lru_cache": set(), "cache": set()}
    for node in source.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            continue
        owner = getattr(node, "name", None)
        for name, owners in found.items():
            owners.update(owner for _ in _uses(node, name))
    assert found == {"lru_cache": {"_oracle_order", "_disk_plan"}, "cache": set()}, found
    assert {owner for owner, args in _winding_calls(source) if args == 2} == {"_disk_plan"}


def test_one_winding_count():
    # the radius pre-check counts zeros through one certified winding, the
    # winding module's, and each oracle cell's draw, read off the disk's
    # expansion or planned afresh, is checked against it by Rouche's test
    # alone, which takes its samples by the module's arcs.  No eigensolve,
    # root finder, characteristic polynomial by roots or trim of the
    # companion rule is left to count a second way, and no redraw loop or
    # seeded generator to draw a second time
    source = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    gone = ("eigvals", "roots", "poly", "_roots", "_hits_edge", "ROOT_EDGE_TOL", "STUCK_AT_THE_ORIGIN", "_trimmed")
    gone += ("_redraw", "_turns", "MAX_EPSILON_REDRAWS", "default_rng")
    assert {name: list(_uses(source, name)) for name in gone} == {name: [] for name in gone}
    assert _winding_calls(source) == [("_disk_plan", 2)]
    # the draw's coefficients, R_0 and its arcs, and the terms of the disk's expansion
    assert _winding_calls(source, "_rouche") == [("numeric_double_point_oracle", 3), ("numeric_intersection_oracle", 3)]
    assert _winding_calls(source, "windings") == [("_winding", 2)]
    # None: the name's one binding, an import from the winding module
    arcs = {getattr(node, "name", None) for node in source.body for _ in _uses(node, "_arcs")}
    assert arcs == {None, "_rouche"}, arcs
    bindings = [
        (node.module, alias.name)
        for node in source.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname == "_arcs"
    ]
    assert bindings == [("winding", "arcs")], bindings


def test_one_winding_rule():
    # both floating-point engines read every winding through the winding
    # module's certificate: germs in _winding, spectrum in _window, and no
    # other function reads a count off angles (the other two take a phase:
    # the real eigenfunction's and a Householder reflection's); the sampled
    # rule's ratio guard and its public one-row form are gone
    package = Path(siefring_kit.__file__).parent
    angles = {
        (path.name, node.name)
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and list(_uses(node, "angle"))
    }
    assert angles == {("winding.py", "windings"), ("spectrum.py", "_real_coefficients"), ("germs.py", "_characteristic")}, angles
    for name, owner in (("germs.py", "_winding"), ("spectrum.py", "_window")):
        source = ast.parse((package / name).read_text(encoding="utf-8"))
        imports = [ast.unparse(node) for node in source.body if isinstance(node, ast.ImportFrom) and node.module == "winding"]
        assert any("windings" in line for line in imports), (name, imports)
        assert [call_owner for call_owner, _ in _winding_calls(source, "windings")] == [owner]
    assert _owners(("RESOLVED_SAMPLE_RATIO", "_windings")) == {"RESOLVED_SAMPLE_RATIO": set(), "_windings": set()}
    from siefring_kit import spectrum

    assert not hasattr(spectrum, "winding")
    # numpy is bound lazily, as in germs and spectrum
    winding = ast.parse((package / "winding.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in winding.body if "numpy" in _imported_packages(node)] == []
    assert "np = lazy_import('numpy')" in [ast.unparse(node) for node in winding.body]


def test_one_decomposition_path():
    # spectrum.py decomposes every discretization at one np.linalg.eigh call
    # site, in OperatorDiscretization.eigh: a Floquet block and the dense
    # B(0, 1) as one matrix, the residue classes of a loop whose frequencies
    # share a factor as stacks of blocks; no second eigensolver beside it
    source = ast.parse((Path(siefring_kit.__file__).parent / "spectrum.py").read_text(encoding="utf-8"))
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(source)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(("eigh", "eigvalsh"))
    ]
    assert calls == ["np.linalg.eigh"], calls
    (method,) = [node for node in ast.walk(source) if isinstance(node, ast.FunctionDef) and node.name == "eigh"]
    assert [ast.unparse(node.func) for node in ast.walk(method) if isinstance(node, ast.Call)].count("np.linalg.eigh") == 1


def test_one_determinant_path_per_disk():
    # every counting disk is one stack of Sylvester determinants with epsilon
    # on the plan's second array: no closed form for a polynomial free of w,
    # no switch of the array epsilon moves and no chunks of the stack; one
    # np.linalg.det call, in _ResultantPlan.resultant, and one winding, in
    # _disk_plan, which leaves R_0's samples in the memo of the plan's base
    source = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    gone = ("_closed_form", "moving", "_WORK_CELLS", "chunk", "polypow")
    assert {name: list(_uses(source, name)) for name in gone} == {name: [] for name in gone}
    dets = [
        (node.name, call)
        for node in ast.walk(source)
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "np.linalg.det"
    ]
    assert [owner for owner, _ in dets] == ["resultant"] and list(_uses(source, "det")) == [dets[0][1].lineno]
    disk = _germs_function("_disk_plan")
    (call,) = [c for c in ast.walk(disk) if isinstance(c, ast.Call) and ast.unparse(c.func) == "_winding"]
    # base, arcs = plan.base; ... _winding(base, arcs)
    (memo,) = [
        node
        for node in ast.walk(disk)
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == "plan.base"
    ]
    assert ast.unparse(memo.targets[0]) == "(base, arcs)" and ast.unparse(call) == "_winding(base, arcs)"


def test_one_adjunction_record():
    # the closed commands print the adjunction data of one builder, which
    # the cli and the cp2 table extend with their genus or degree
    assert _owners(("embedded",)) == {"embedded": {("closed.py", "adjunction_record")}}


def test_one_characteristic_polynomial():
    # La Budde's recurrence runs for the disk's expansion alone: one call of
    # _characteristic, in _ResultantPlan.expansion, and nowhere else
    found = _owners(["_characteristic"])["_characteristic"]
    calls = _winding_calls(ast.parse(ast.unparse(_germs_function("expansion"))), "_characteristic")
    assert found == {("germs.py", "_ResultantPlan")} and calls == [("expansion", 1)], (found, calls)


def test_one_certification_path():
    # the exact orders are settled in one place, _resultant: the
    # Newton-polygon bound where the edge check finds the edges apart, else
    # Fulton's algorithm, so no caller reads the bound, the edge check or
    # the algorithm on its own
    package = Path(siefring_kit.__file__).parent
    found = {"_fiber_order": set(), "_order_bound": set(), "_edges_apart": set()}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for name, owners in found.items():
                owners.update((path.name, owner) for _ in _uses(node, name))
    assert found == {name: {("germs.py", "_resultant")} for name in found}, found
    # and _resultant answers with the certified bound, Fulton's algorithm or
    # None for an empty difference, so no closed form sits beside the two
    resultant = _germs_function("_resultant")
    nodes = list(ast.walk(resultant))
    returns = [ast.unparse(node.value) for node in nodes if isinstance(node, ast.Return)]
    bound = [
        ast.unparse(node.value)
        for node in nodes
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["bound"]
    ]
    assert sorted(returns) == ["_fiber_order(f, g) if f and g else None", "bound"], returns
    assert bound == ["_order_bound(*polygons)"], bound


def _owners(names) -> dict:
    """{name: {(file, top-level definition or None)}} of every package
    module line that names each of ``names``."""
    package = Path(siefring_kit.__file__).parent
    found = {name: set() for name in names}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for name, owners in found.items():
                owners.update((path.name, owner) for _ in _uses(node, name))
    return found


def _germs_function(name):
    """The one definition of ``name`` in germs.py, a method included."""
    germs = ast.parse((Path(siefring_kit.__file__).parent / "germs.py").read_text(encoding="utf-8"))
    (node,) = [node for node in ast.walk(germs) if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_prime_engine_read_only_by_the_fallback():
    # one prime is left, read in one place: _nonzero_resultant_mod maps
    # both polynomials through _residues and takes the scalar resultant,
    # and the edge check and the far-zero check call it; Fulton's algorithm
    # takes no prime, and the far-zero check takes no _resultant
    assert _owners(("PRIME", "IOTA")) == {
        "PRIME": {("germs.py", None), ("germs.py", "_residues"), ("germs.py", "_nonzero_resultant_mod")},
        "IOTA": {("germs.py", None), ("germs.py", "_residues")},
    }
    assert list(_uses(_germs_function("_far_zero_free"), "_resultant")) == []


def test_one_division_over_q_i():
    # one polynomial division over Q(i), Fulton's _remainder: Euclid in the
    # far-zero check runs on it, and only it and _weierstrass divide
    # Gaussian rationals by _quotient
    package = Path(siefring_kit.__file__).parent
    defined = {
        node.name
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_remainder" in defined and "_gcd" not in defined
    assert _owners(("_quotient",)) == {"_quotient": {("germs.py", "_remainder"), ("germs.py", "_weierstrass")}}
    assert list(_uses(_germs_function("_far_zero_free"), "_remainder"))


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


def _discarded_tangents(tree) -> list:
    """Lines of the calls of ``critical_order`` whose tangent is dropped:
    a ``_`` in the tangent's unpacking slot, or a ``[0]`` subscript."""

    def is_call(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "critical_order"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_call(node.value):
            pairs = [t for t in node.targets if isinstance(t, (ast.Tuple, ast.List)) and len(t.elts) == 2]
            tangents = [t.elts[1] for t in pairs]
            if any(isinstance(t, ast.Name) and t.id == "_" for t in tangents):
                found.append(node.lineno)
        elif isinstance(node, ast.Subscript) and is_call(node.value):
            if isinstance(node.slice, ast.Constant) and node.slice.value == 0:
                found.append(node.lineno)
    return found


def test_no_discarded_tangent():
    # critical_order divides in Q(i) for the tangent; a caller that needs
    # only the vanishing order reads min(u.exponents)
    sample = (
        "k, _ = critical_order(u)\n"
        "k = germs.critical_order(u)[0]\n"
        "k, t = critical_order(u)\n"
        "_, t = critical_order(u)\n"
    )
    assert _discarded_tangents(ast.parse(sample)) == [1, 2]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _discarded_tangents(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert SOURCES and found == []


def test_one_grid_evaluator_and_no_winding_guard():
    # eigenfunctions reach their samples by one inverse real FFT, _on_grid;
    # a closed loop's angle increments sum to 2 pi n up to rounding, so no
    # off-integer refusal is kept beside the resolution one
    assert _owners(("irfft",)) == {"irfft": {("spectrum.py", "_on_grid")}}
    package = Path(siefring_kit.__file__).parent
    files = [path for path in package.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    assert package / "spectrum.py" in files
    assert [path.name for path in files if b"grid too coarse" in path.read_bytes()] == []


def test_no_module_getattr():
    # no module forwards names it does not define: a layer is reached by
    # its own name, and _lazy.lazy_import is the one lazy mechanism
    package = Path(siefring_kit.__file__).parent
    modules = sorted(package.rglob("*.py"))
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    assert package / "__init__.py" in modules and found == []


def _json_decoding(node) -> bool:
    """``node`` reaches json's decoder: ``json.load``, ``json.loads`` or
    ``json.JSONDecoder``, or an import of one of them from ``json``."""
    decoders = {"load", "loads", "JSONDecoder", "decoder"}
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in decoders
    if isinstance(node, ast.ImportFrom) and node.module and node.module.partition(".")[0] == "json":
        return node.module != "json" or any(alias.name in decoders for alias in node.names)
    return False


def test_only_read_json_decodes_json():
    # every input file is decoded by jsonio.read_json, so its refusals of
    # undecodable text and repeated keys cover them all
    package = Path(siefring_kit.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            found.update((path.name, owner) for node in ast.walk(top) if _json_decoding(node))
    assert found == {("jsonio.py", "read_json")}, found


def test_no_hermitian_refusal():
    # C and D are read exactly symmetric, so the assembled matrix is
    # exactly Hermitian and no tolerance or refusal checks it
    package = Path(siefring_kit.__file__).parent
    files = [path for path in package.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    assert package / "spectrum.py" in files
    spelled = [path.name for path in files for word in (b"HERMITIAN_TOL", b"not Hermitian") if word in path.read_bytes()]
    assert spelled == []


def test_frozen_objects_set_only_in_post_init():
    # object.__setattr__ appears only inside __post_init__, and no
    # dataclass field is declared init=False: what a frozen object keeps
    # after construction is a cached_property
    package = Path(siefring_kit.__file__).parent
    setters, inside, hidden = set(), set(), []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                setters.add((path.name, node.lineno))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("field", "dataclasses.field"):
                hidden += [f"{path.name}:{node.lineno}" for k in node.keywords if k.arg == "init" and ast.unparse(k.value) != "True"]
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                inside.update(
                    (path.name, sub.lineno)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "object.__setattr__"
                )
    assert sorted(setters - inside) == [] and hidden == [], hidden
