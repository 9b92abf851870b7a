"""What a plain ``import repro`` loads, and what it leaves for first use.

The package has no runtime dependencies.  The serving layer (with
``http.*``) loads only when one of its names is first touched, and the
worker substrate (``repro.exec``, ``multiprocessing``) only when a
parallel batch or a portfolio race needs it.  Each check runs in a fresh
interpreter, since this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SERVE_NAMES = ("Client", "QueueFullError", "SynthesisService", "WorkerCrash", "start_server")


def run_python(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


REGISTRIES = """
from repro.registries import BINDERS, LIBRARIES, SCHEDULERS, SELECTORS
names = {r: list(reg.names()) for r, reg in
         [("schedulers", SCHEDULERS), ("binders", BINDERS),
          ("selectors", SELECTORS), ("libraries", LIBRARIES)]}
"""


def test_import_repro_leaves_networkx_and_the_http_stack_unloaded():
    loaded = run_python(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for module in (
        "networkx",
        "repro.serve",
        "http.server",
        "http.client",
        "concurrent.futures.process",
        "multiprocessing",
        "repro.exec",
    ):
        assert module not in loaded, module


def test_parallel_portfolio_batch_leaves_the_serving_layer_unloaded():
    loaded = run_python(
        "import json, sys\n"
        "from repro import run_batch\n"
        "from repro.api.task import SynthesisTask\n"
        "from repro.portfolio import portfolio_task\n"
        "tasks = [portfolio_task('hal', latency=17, power_budget=12.0,\n"
        "                        strategies=['engine', 'pasap']),\n"
        "         SynthesisTask(graph='hal', latency=17, power_budget=10.0)]\n"
        "records = run_batch(tasks, jobs=2)\n"
        "assert records[0].winner == 'engine', records[0]\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.exec" in loaded
    for module in ("repro.serve", "http.server"):
        assert module not in loaded, module


def test_registries_do_not_depend_on_the_serving_layer():
    lazy = run_python(
        "import json\nimport repro\n" + REGISTRIES + "print(json.dumps(names))\n"
    )
    eager = run_python(
        "import json\nimport repro\nimport repro.serve\n" + REGISTRIES + "print(json.dumps(names))\n"
    )
    assert lazy == eager
    assert all(lazy.values())


def test_serve_names_resolve_lazily_and_stay_exported():
    result = run_python(
        "import json, sys\n"
        "import repro\n"
        f"names = {SERVE_NAMES!r}\n"
        "before = 'repro.serve' in sys.modules\n"
        "listed = [n in repro.__all__ and n in dir(repro) for n in names]\n"
        "import repro.serve as serve\n"
        "same = [getattr(repro, n) is getattr(serve, n) for n in names]\n"
        "from repro import Client\n"
        "print(json.dumps({'before': before, 'listed': listed, 'same': same,\n"
        "                  'client': Client.__module__}))\n"
    )
    assert result["before"] is False
    assert all(result["listed"]) and all(result["same"])
    assert result["client"] == "repro.serve.client"


def test_unknown_attribute_still_raises():
    result = run_python(
        "import json\n"
        "import repro\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert "no_such_name" in result
