import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Verdict lines collected by test_acceptance; one per criterion.
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_leftover_child():
    # Every process a test starts, a forked Monte Carlo worker included,
    # must be reaped by the time the test ends.
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (pid {pid or 'running'})")
