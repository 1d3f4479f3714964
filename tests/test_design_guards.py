"""Design guards over the source tree: no environment knobs, no optional numpy.

numpy is a declared dependency, and the program's behaviour is set by its
arguments and ``InferenceConfig`` alone.  These tests parse every module
under ``src/repro`` and fail on a read of the process environment or on
an ``except ImportError`` that guards a numpy import, so neither an
environment switch nor a numpy-less fallback path creeps back in.  One
more guard runs a cold request in a fresh interpreter: it must not import
``numpy.ma``, which costs every one-shot run tens of milliseconds.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}


def environment_reads(tree):
    """Line numbers of ``os.environ`` / ``os.getenv`` uses (or imports)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv", "environb") for alias in node.names):
                lines.append(node.lineno)
    return lines


def _imports_numpy(statements):
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "numpy" for alias in node.names
            ):
                return True
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                return True
    return False


def _catches_import_error(handler):
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(name, ast.Name) and name.id in IMPORT_ERRORS for name in caught)


def optional_numpy_imports(tree):
    """Line numbers of ``try: import numpy ... except ImportError`` blocks."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and _imports_numpy(node.body)
        and any(_catches_import_error(handler) for handler in node.handlers)
    ]


def source_modules():
    return sorted(SOURCE_ROOT.rglob("*.py"))


def test_source_tree_is_found():
    names = {path.relative_to(SOURCE_ROOT).as_posix() for path in source_modules()}
    assert {"cli.py", "inference/state.py", "rdbms/executor.py"} <= names


@pytest.mark.parametrize(
    "check", [environment_reads, optional_numpy_imports], ids=["environment", "numpy-guard"]
)
def test_no_module_violates_the_guard(check):
    violations = []
    for path in source_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(
            f"{path.relative_to(SOURCE_ROOT)}:{line}" for line in check(tree)
        )
    assert violations == []


@pytest.mark.parametrize(
    "source",
    [
        "import os\nflag = os.environ.get('X')\n",
        "import os\nflag = os.environ['X']\n",
        "import os\nflag = os.getenv('X')\n",
        "from os import environ\n",
        "from os import getenv as read\n",
    ],
)
def test_environment_reads_are_detected(source):
    assert environment_reads(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    import numpy as np\nexcept ImportError:\n    np = None\n",
        "try:\n    import numpy\nexcept (ImportError, OSError):\n    numpy = None\n",
        "try:\n    from numpy import ndarray\nexcept ModuleNotFoundError:\n    pass\n",
        "def f():\n    try:\n        import numpy\n    except ImportError:\n        return None\n",
    ],
)
def test_optional_numpy_imports_are_detected(source):
    assert optional_numpy_imports(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nimport os\npath = os.path.join('a', 'b')\n",
        "try:\n    import numpy\nexcept ValueError:\n    pass\n",
        "try:\n    import fcntl\nexcept ImportError:\n    fcntl = None\n",
    ],
)
def test_clean_sources_pass(source):
    tree = ast.parse(source)
    assert environment_reads(tree) == [] and optional_numpy_imports(tree) == []


COLD_REQUEST = """
import sys
from repro.core import InferenceConfig, TuffyEngine
from repro.datasets import DatasetScale, load_dataset

program = load_dataset("RC", DatasetScale(factor=0.5, seed=0)).program
with TuffyEngine(program, InferenceConfig(max_flips=2000)) as engine:
    engine.ground()
    engine.run_map()
print("numpy.ma" in sys.modules)
"""


def test_cold_request_does_not_import_numpy_ma():
    completed = subprocess.run(
        [sys.executable, "-c", COLD_REQUEST],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SOURCE_ROOT.parent)},
        timeout=120,
    )
    assert completed.stdout.strip() == "False"
