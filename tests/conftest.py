import os

# one BLAS thread: OpenBLAS threads the training forward on small matrices,
# which doubles the suite's CPU time for no wall-clock gain; the variable is
# read once, when numpy loads, so it is set before the imports below
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

import _criteria  # noqa: E402
from offloadlab.channel import ChannelModel  # noqa: E402
from offloadlab.cost import SystemParams  # noqa: E402
from offloadlab.queueing import QueueModel  # noqa: E402
from offloadlab.scenario import GeneratorParams, generate_synthetic  # noqa: E402


def pytest_terminal_summary(terminalreporter):
    if _criteria.LINES:
        terminalreporter.section("acceptance checks")
        for line in _criteria.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def params():
    return SystemParams()


@pytest.fixture
def channel():
    return ChannelModel(sigma=8.0)


@pytest.fixture
def queue():
    return QueueModel()


@pytest.fixture(scope="session")
def small_trace():
    # 300 frames is enough for behavioral checks and keeps module tests fast
    return generate_synthetic(GeneratorParams(), 300, seed=11)
