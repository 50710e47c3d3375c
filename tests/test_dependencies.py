import ast
import importlib
import os
import re
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import wignerlab

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import wignerlab, wignerlab.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_leaves_the_environment_as_it_was():
    # the BLAS thread count is the user's to set, before Python starts:
    # importing the package writes no environment variable, whatever is set
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in blas}
    env.update(PYTHONPATH=str(ROOT / "src"), WIGNERLAB_THREADS="3")
    code = (
        "import os; before = dict(os.environ); import wignerlab; "
        "print(dict(os.environ) == before)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True"


def test_validation_imports_no_random_generator():
    # the range basis of a kernel's spectrum is sketched in closed form:
    # importing numpy.random would cost the CLI several MB and milliseconds
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, numpy as np, wignerlab as wl; "
        "W = wl.wigner(wl.coherent_state(wl.make_grid(-10.0, 10.0, 128), 1.0)); "
        "wl.eta_scan(W, [0.5, 1.0, 1.5]); "
        "wl.reconstruct_density(wl.radon(W, np.linspace(0.0, np.pi, 90, endpoint=False)), 1.0); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_readme_examples_run():
    # the README's python blocks build on one another: run them as one script
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.MULTILINE | re.DOTALL
    )
    assert len(blocks) == 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['mixed', 'pure', 'inadmissible']"


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private name is a module's own business; what siblings share is public
    offenders = []
    for path in sorted((ROOT / "src" / "wignerlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("wignerlab")
            ):
                offenders += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert offenders == []


def _modules():
    return {path.stem: path for path in sorted((ROOT / "src" / "wignerlab").glob("*.py"))}


def test_readme_lists_exactly_the_modules():
    section = (ROOT / "README.md").read_text().split("## What's inside", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(name for name in _modules() if name != "__init__")


def test_every_exported_name_is_defined_in_its_module():
    # a name in __all__ that the module only imports, or no longer has,
    # belongs to another module or to none
    offenders = []
    for name, path in _modules().items():
        tree = ast.parse(path.read_text())
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        exported = ast.literal_eval(node.value)
                    elif isinstance(target, ast.Name):
                        defined.add(target.id)
        offenders += [f"{name}: {entry}" for entry in exported if entry not in defined]
    assert offenders == []


def test_package_exports_each_module_all_once():
    # the public API is declared once, in the module that defines each name:
    # the package republishes every __all__, and nothing else but submodules
    owners, missing = {}, []
    for name in _modules():
        if name in ("__init__", "__main__", "cli"):
            continue
        module = importlib.import_module(f"wignerlab.{name}")
        for entry in getattr(module, "__all__", []):
            assert entry not in owners, f"{entry} in {owners.get(entry)} and {name}"
            owners[entry] = name
            if getattr(wignerlab, entry, None) is not getattr(module, entry):
                missing.append(f"{name}.{entry}")
    assert missing == []
    others = [
        name for name in dir(wignerlab)
        if not name.startswith("_") and name not in owners
        and not isinstance(getattr(wignerlab, name), types.ModuleType)
    ]
    assert others == []


def test_every_exported_name_has_a_reader():
    # the public-API rule: a name is exported when the CLI, the bench or the
    # acceptance gate reads it, or the README names it in backticks as a
    # paper object; every other name stays in its module, or in the oracles
    readers = [
        ROOT / "src" / "wignerlab" / "cli.py",
        *sorted((ROOT / "bench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    read = set()
    for path in readers:
        with open(path) as handle:
            tokens = tokenize.generate_tokens(handle.readline)
            read |= {token.string for token in tokens if token.type == tokenize.NAME}
    prose = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        read |= set(re.findall(r"\w+", span))
    exported = [
        name for name in dir(wignerlab)
        if not name.startswith("_") and not isinstance(getattr(wignerlab, name), types.ModuleType)
    ]
    assert [name for name in exported if name not in read] == []
