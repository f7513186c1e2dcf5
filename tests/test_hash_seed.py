"""The mock artifacts do not depend on the interpreter's string hash seed.

The digest test's shape runs again in a child interpreter whose
``PYTHONHASHSEED`` differs from this one's, and every output file's digest is
compared with the committed table. A set or dict iterated in hash order
anywhere on the way to a file would show here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_output_digests import RESUMED, TABLE, _python

TESTS = Path(__file__).resolve().parent
CHILD = """
import json, sys
from pathlib import Path
from test_output_digests import run_shape
print(json.dumps(run_shape(Path(sys.argv[1]))))
"""


def test_mock_artifacts_match_the_table_under_another_hash_seed(tmp_path):
    table = json.loads(TABLE.read_text("utf-8"))
    if table["python"] != _python():
        pytest.skip(f"digests were recorded on Python {table['python']}, "
                    f"this is Python {_python()}")
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "4242" else "4242"
    path = os.pathsep.join([str(TESTS), str(TESTS.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True,
                           text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    differing = []
    for name, files in json.loads(child.stdout).items():
        expected = table["digests"][name.removesuffix(RESUMED)]
        differing.extend(f"{name}/{file}" for file in sorted(set(files) | set(expected))
                         if files.get(file) != expected.get(file))
    assert not differing, f"under PYTHONHASHSEED={seed}: {', '.join(differing)}"
