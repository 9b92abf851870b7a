"""The worker substrate: ``ProcessWorker`` and ``WorkerPool``.

Entries are module-level functions; workers are forked, so they (and
any scheduler registered in this process) reach the children as-is.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api.batch import run_batch
from repro.api.task import SynthesisTask
from repro.exec import ProcessWorker, WorkerCrash, WorkerPool
from repro.ir.validate import ValidationError
from repro.registries import SCHEDULERS, UnknownStrategyError
from repro.verify.certificate import CertificateError, CertificateReport, Violation

SRC = Path(__file__).resolve().parents[1] / "src"


def echo_after(payload):
    time.sleep(payload["sleep"])
    return payload["value"]


def raise_value_error(payload):
    raise ValueError(f"bad payload {payload['value']}")


def exit_hard(_payload):
    os._exit(1)


def fork_sleeper(payload):
    """Fork a grandchild that sleeps 30 s and return its pid, or sleep."""
    if payload != "fork":
        time.sleep(payload)
        return None
    pid = os.fork()
    if pid == 0:
        time.sleep(30.0)
        os._exit(0)
    return pid


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_map_keeps_input_order_when_tasks_finish_out_of_order():
    sleeps = [0.3, 0.0, 0.2, 0.0, 0.1, 0.0, 0.0]
    payloads = [{"sleep": s, "value": i} for i, s in enumerate(sleeps)]
    with WorkerPool(2, echo_after) as pool:
        assert pool.map(payloads) == list(range(len(sleeps)))
    assert multiprocessing.active_children() == []


def test_concurrent_runs_each_get_their_own_answer():
    # more threads than workers, more workers than cores, frequent switches:
    # a reply handed to the wrong caller breaks the equality
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        payloads = [{"sleep": 0.0, "value": i} for i in range(200)]
        with WorkerPool(3, echo_after) as pool, ThreadPoolExecutor(8) as threads:
            assert list(threads.map(pool.run, payloads, timeout=60)) == list(range(200))
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []


def test_entry_exceptions_keep_their_type():
    with WorkerPool(1, raise_value_error) as pool:
        with pytest.raises(ValueError, match="bad payload 7"):
            pool.run({"value": 7})
    with pytest.raises(ValueError, match="bad payload 3"):
        with WorkerPool(2, raise_value_error) as pool:
            pool.map([{"value": 3}])
    assert multiprocessing.active_children() == []


def test_run_raises_worker_crash_and_respawns_the_slot():
    with WorkerPool(1, exit_hard) as pool:
        (first,) = pool.pids()
        with pytest.raises(WorkerCrash) as crash:
            pool.run({})
        assert crash.value.pid == first and crash.value.exitcode == 1
        (second,) = pool.pids()
        assert second != first
    assert multiprocessing.active_children() == []


def test_unclosed_workers_do_not_hang_interpreter_exit():
    code = (
        "import time\n"
        "from repro.exec import ProcessWorker, WorkerPool\n"
        "pool = WorkerPool(2, time.sleep)\n"
        "worker = ProcessWorker(time.sleep)\n"
        "worker.submit(60)\n"
        "print(pool.pids(), worker.pid, flush=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 5.0


def test_killed_worker_crashes_at_once_while_its_grandchild_lives():
    worker = ProcessWorker(fork_sleeper)
    grandchild = worker.run("fork")
    try:
        worker.submit(60.0)
        os.kill(worker.pid, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(WorkerCrash):
            worker.receive()
        assert time.monotonic() - started < 2.0
        assert not _gone(grandchild)
    finally:
        worker.kill()
        os.kill(grandchild, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while not _gone(grandchild) and time.monotonic() < deadline:
            time.sleep(0.01)
    assert _gone(grandchild)


def _kill_and_await(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _gone(pid)


def test_stop_does_not_wait_for_a_grandchild():
    worker = ProcessWorker(fork_sleeper)
    grandchild = worker.run("fork")
    try:
        started = time.monotonic()
        worker.stop()
        assert time.monotonic() - started < 1.0
        assert not worker.alive and not _gone(grandchild)
    finally:
        worker.kill()
        _kill_and_await(grandchild)


def test_pool_close_does_not_wait_for_a_grandchild():
    pool = WorkerPool(2, fork_sleeper)
    grandchild = pool.run("fork")
    try:
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 1.0
        assert pool.pids() == [] and not _gone(grandchild)
    finally:
        _kill_and_await(grandchild)
    assert multiprocessing.active_children() == []


_REPORT = CertificateReport(
    graph="hal", checks=["latency"], violations=[Violation("latency", "t", "late")]
)


@pytest.mark.parametrize(
    "error",
    [
        UnknownStrategyError("scheduler", "nope", ["engine", "ilp"]),
        CertificateError(_REPORT),
        ValidationError(["a", "b"]),
    ],
    ids=lambda error: type(error).__name__,
)
def test_repro_exceptions_cross_the_pipe_intact(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, "report", None) == getattr(error, "report", None)
    assert getattr(copy, "problems", None) == getattr(error, "problems", None)


@pytest.fixture()
def crashing_scheduler():
    def crash(_ctx):
        os._exit(1)

    SCHEDULERS.register("crash_for_test", crash)
    yield "crash_for_test"
    SCHEDULERS.unregister("crash_for_test")


def test_a_dead_batch_worker_raises_worker_crash(crashing_scheduler):
    tasks = [
        SynthesisTask(graph="hal", latency=17, power_budget=12.0),
        SynthesisTask(graph="hal", latency=17, scheduler=crashing_scheduler),
        SynthesisTask(graph="hal", latency=17, power_budget=10.0),
    ]
    with pytest.raises(WorkerCrash):
        run_batch(tasks, jobs=2, keep_results=False)
    assert multiprocessing.active_children() == []


def test_process_worker_stop_and_kill():
    worker = ProcessWorker(echo_after)
    assert worker.run({"sleep": 0.0, "value": "x"}) == "x"
    worker.stop()
    assert not worker.alive
    busy = ProcessWorker(echo_after)
    busy.submit({"sleep": 60.0, "value": None})
    busy.kill()
    assert not busy.alive
