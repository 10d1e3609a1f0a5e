"""An advising process loads the advising stack alone, on the stdlib alone.

``import repro`` and a whole inline advise must not import numpy: the package
declares no dependencies, and the import alone would cost every process
(CLI runs, pool workers, daemons) its set-up time and memory.  For the same
reason advising must not load the daemon, the lint, the SASS front end or the
harnesses, nor the stdlib modules only they use (SQLite, TLS, the HTTP
server, process pools).  The checks run in a fresh interpreter, so modules
other tests imported cannot mask them; what the interpreter loaded before the
script's first line (``site`` and ``.pth`` files) is the baseline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

baseline = set(sys.modules)
loaded = {}

import repro

loaded["import repro"] = sorted(set(sys.modules) - baseline)

from repro import AdvisingSession, request_for_case

result = AdvisingSession().advise(request_for_case("rodinia/gaussian:thread_increase"))
assert result.ok, result.error
loaded["an inline advise"] = sorted(set(sys.modules) - baseline)

import repro.advisor.cli

loaded["import repro.advisor.cli"] = sorted(set(sys.modules) - baseline)

import json

print(json.dumps({"numpy": "numpy" in sys.modules, "loaded": loaded}))
"""

#: Packages an advising process has no use for.
UNUSED_PACKAGES = ("repro.service", "repro.staticcheck", "repro.sass", "repro.evaluation")

#: Stdlib modules only the daemon, its client or a process pool use.
UNUSED_MODULES = (
    "sqlite3", "ssl", "http.client", "http.server", "socketserver",
    "multiprocessing", "concurrent.futures.process",
)


@pytest.fixture(scope="module")
def cold_start():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


def test_import_and_advise_never_load_numpy(cold_start):
    assert cold_start["numpy"] is False


@pytest.mark.parametrize(
    "step", ["import repro", "an inline advise", "import repro.advisor.cli"]
)
def test_advising_loads_neither_the_daemon_nor_the_lint(cold_start, step):
    unused = [
        module for module in cold_start["loaded"][step]
        if module in UNUSED_MODULES
        or any(module == package or module.startswith(package + ".")
               for package in UNUSED_PACKAGES)
    ]
    assert unused == []
