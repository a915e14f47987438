"""The package root: its documented names, and what importing it costs."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import sortbench

README = Path(__file__).resolve().parents[1] / "README.md"
# the layers perfbench/run.py imports, and times the import of, as setup_s
LAYERS = ("sorting", "merge", "coranking", "rotation", "comparator", "datagen", "instrumentation")


def test_readme_library_example_runs_from_the_package_root():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert code.startswith("from sortbench import (")
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        # statement by statement, as typed at the prompt: a bare expression
        # prints its value
        for stmt in ast.parse(code).body:
            exec(compile(ast.Interactive([stmt]), "README.md", "single"), namespace)
    assert out.getvalue().splitlines() == ["[2, 2, 5, 7, 9] 15 2", "(2, 2)", "2"]


def test_importing_the_layers_leaves_the_harness_and_the_cli_unloaded():
    # perfbench's setup_s times this import, so a package root that imported
    # bench or cli would add their compile time to every setup
    imports = "; ".join(f"import sortbench.{name}" for name in LAYERS)
    script = (
        f"import sys, sortbench; {imports}; "
        "print(sorted(m for m in sys.modules if m in ('sortbench.bench', 'sortbench.cli')))"
    )
    src = str(Path(sortbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
