"""The package's import surface and the benchmark tracer's contract with it.

Each name is imported from its own module; `import eqslice` only loads the
modules.  The traced benchmark pass looks up every `module.name` in
bench/tracer.py's TRACED, so a renamed or removed one breaks it.  Only
classes_over, which the TorsionClass constructor calls, makes a class.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import eqslice

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ["catalog", "involution", "laurent", "matrices", "modules", "obstruction", "pairing", "witt"]


def test_package_exports_its_submodules_only():
    # a fresh interpreter: other tests import eqslice.cli, which binds it
    # on the package
    probe = (
        "import json, sys, eqslice; "
        "print(json.dumps([sorted(n for n in vars(eqslice) if not n.startswith('_')), "
        "'eqslice.cli' in sys.modules]))"
    )
    src = str(Path(eqslice.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    names, cli_loaded = json.loads(out)
    assert names == SUBMODULES
    assert not cli_loaded


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for qualname in tracer.TRACED:
        module_name, attr = qualname.split(".")
        if not hasattr(importlib.import_module(f"eqslice.{module_name}"), attr):
            missing.append(qualname)
    assert tracer.TRACED and missing == []


def test_only_classes_over_makes_a_torsion_class():
    # an instance is made by a __new__ call on TorsionClass, with it as the
    # first argument, or inside the class itself: only classes_over, which
    # decides the canonical form, and the module-level zero may do that
    uses = []

    def makes_a_class(call, where):
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "__new__"):
            return False
        named = [func.value, *call.args[:1]]
        return where.startswith("laurent.TorsionClass") or any(
            isinstance(n, ast.Name) and n.id == "TorsionClass" for n in named
        )

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and makes_a_class(child, where):
                uses.append(where)
            if isinstance(child, ast.Attribute) and child.attr == "__new__" and isinstance(child.value, ast.Name):
                if child.value.id == "TorsionClass":
                    uses.append(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "eqslice").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert uses == ["laurent", "laurent.classes_over"]
