"""Every import under ``src/``, ``tests/``, ``scripts/`` and ``perfbench/`` is declared.

``pyproject.toml`` declares numpy, and pytest for the tests. Anything else
must come from the standard library, the package itself or a module beside
the importing one (a test module, or a benchmark module): an installed but
undeclared package (scipy, say) would pass locally and fail on a clean
install, or in the benchmark's fresh checkout. The benchmark's traced
stages are read from its source, not imported, so that this guard holds too.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"
SCRIPTS = ROOT / "scripts"
DECLARED = set(sys.stdlib_module_names) | {"numpy", "pytest", "specgrad"}
ALLOWED = DECLARED | {path.stem for path in TESTS.glob("*.py")}


def foreign_imports(source: str, allowed: set = ALLOWED) -> list[str]:
    """The absolute imports of ``source``, at any depth, whose top package is not ``allowed``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in allowed]


def test_guard_sees_every_import_form():
    source = (
        "import scipy\n"
        "import numpy.linalg as la\n"
        "from scipy.linalg import expm\n"
        "from . import core\n"
        "def f():\n"
        "    import sklearn\n"
    )
    assert foreign_imports(source) == ["scipy", "scipy.linalg", "sklearn"]


def test_src_and_tests_import_only_declared_packages():
    files = sorted([*(ROOT / "src").rglob("*.py"), *TESTS.rglob("*.py")])
    assert len(files) > 20
    foreign = {str(path.relative_to(ROOT)): foreign_imports(path.read_text()) for path in files}
    assert {path: names for path, names in foreign.items() if names} == {}


def test_scripts_import_only_declared_packages():
    files = sorted(SCRIPTS.glob("*.py"))
    assert SCRIPTS / "output_digest.py" in files
    foreign = {path.name: foreign_imports(path.read_text(), DECLARED) for path in files}
    assert {name: names for name, names in foreign.items() if names} == {}


def test_perfbench_imports_only_declared_packages_and_its_siblings():
    files = sorted(PERFBENCH.glob("*.py"))
    assert {"run", "workloads", "spans"} <= {path.stem for path in files}
    allowed = DECLARED | {path.stem for path in files}
    foreign = {path.name: foreign_imports(path.read_text(), allowed) for path in files}
    assert {name: names for name, names in foreign.items() if names} == {}


def _spans_targets() -> tuple:
    """``perfbench/spans.py``'s ``TARGETS``, read from its source without importing it."""
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_every_traced_stage_is_called_where_the_benchmark_patches_it():
    # the benchmark times a stage by replacing the named attribute of the
    # module that calls it; an alias or a dropped call would time nothing
    targets = _spans_targets()
    assert len(targets) > 10
    problems = []
    for module_name, attr, span in targets:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            problems.append(f"{module_name} has no {attr} ({span})")
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        if attr in imported and attr not in called:
            problems.append(f"{module_name} imports {attr} but never calls it ({span})")
    assert problems == []


#: the stage kernels, each with the module that defines it; they trust their
#: arrays, so the package does not export them
STAGE_KERNELS = {
    "covariance": "core",
    "eigh": "core",
    "clamp_eigenvalues": "core",
    "count_clamped": "core",
    "matrix_power": "core",
    "condition_number": "core",
    "ns_forward": "newton_schulz",
    "ns_backward": "newton_schulz",
    "ns_gradient_of_x": "newton_schulz",
    "k_matrix": "schemes",
    "grad_covariance": "schemes",
}


def test_package_exports_no_stage_kernel_and_every_export_resolves():
    import specgrad

    tree = ast.parse((ROOT / "src" / "specgrad" / "__init__.py").read_text())
    exports = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exports) > 30
    for module, name in exports:
        assert getattr(specgrad, name) is getattr(importlib.import_module(f"specgrad.{module}"), name)

    hidden = set(STAGE_KERNELS) | {"EigenDecomposition", "NewtonSchulzTrace"}
    assert len(hidden) == 13
    public = {name for name in vars(specgrad) if not name.startswith("_")}
    assert {name for _, name in exports} & hidden == set()
    assert public & hidden == set()
    for name, module in STAGE_KERNELS.items():
        assert callable(getattr(importlib.import_module(f"specgrad.{module}"), name))
    assert not hasattr(importlib.import_module("specgrad.core"), "EigenDecomposition")
