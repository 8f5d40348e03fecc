"""Fixtures every test under `tests/` runs with."""

import pytest

from nliexpl import autodiff as ad

# how long the worker may take to reach a no-op given to it after a test
IDLE_WAIT_S = 5.0


@pytest.fixture(autouse=True)
def worker_left_idle():
    """Fails the test if it leaves `autodiff._worker` with queued work or
    a running task: a no-op given to it afterwards must finish in time."""
    yield
    probe = ad._worker.submit(lambda: None)
    try:
        probe.result(timeout=IDLE_WAIT_S)
    except TimeoutError:
        pytest.fail(f"the worker thread was still busy {IDLE_WAIT_S} s after "
                    "the test: it left work queued or a task running")
