"""The package runs on the standard library alone.

``import repro`` and a whole inline advise must not import numpy: the package
declares no dependencies, and the import alone would cost every process
(CLI runs, pool workers, daemons) its set-up time and memory.  The check runs
in a fresh interpreter, so modules other tests imported cannot mask it.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import repro
from repro import AdvisingSession, request_for_case

result = AdvisingSession().advise(request_for_case("rodinia/gaussian:thread_increase"))
assert result.ok, result.error
print("numpy" in sys.modules)
"""


def test_import_and_advise_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "False"
