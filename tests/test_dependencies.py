"""The package runs on the standard library alone.

NumPy is not a dependency of the package: every method subscribes,
publishes and round-trips a checkpoint without it ever being imported
(``import numpy`` alone costs a server process about 14 MB of RSS).  A
fresh interpreter is used because the test process may have imported it
for other reasons.  No module under ``src/repro`` imports it either,
checked on the source so the check does not depend on what is installed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import repro

SCRIPT = """
import sys

import repro.experiments.cli
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.persistence.checkpoint import checkpoint, restore
from repro.stream.document import Document

STREAM = (["alpha"], ["beta", "gamma"], ["alpha", "beta"], ["beta"], ["alpha"])
for method in ("GIFilter", "IFilter", "BIRT", "IRT"):
    engine = DasEngine.for_method(method, k=2, block_size=2)
    engine.subscribe(DasQuery(0, ["alpha", "beta"]))
    for doc_id, tokens in enumerate(STREAM):
        engine.publish(Document.from_tokens(doc_id, tokens, float(doc_id)))
    clone = restore(checkpoint(engine))
    later = Document.from_tokens(len(STREAM), ["alpha", "beta"], 9.0)
    for replica in (engine, clone):
        replica.publish(later)
    assert [d.doc_id for d in clone.results(0)] == [
        d.doc_id for d in engine.results(0)
    ], method
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_engine_never_imports_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_no_module_under_src_imports_numpy():
    """Read from the source, so it holds whether or not NumPy is
    installed and whichever modules the interpreter has loaded."""
    package = os.path.dirname(os.path.abspath(repro.__file__))
    offenders = []
    for directory, _, names in os.walk(package):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "numpy" for m in modules):
                    offenders.append(
                        f"{os.path.relpath(path, package)}:{node.lineno}"
                    )
    assert offenders == []
