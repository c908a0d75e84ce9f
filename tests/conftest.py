import os

import pytest

# The reports of skipped tests and modules in this session
_SKIPPED = []


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the package sources in
    # .hypothesis/ under the working directory, while tests are collected;
    # keep that cache inside pytest's own cache directory instead.
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(cache.mkdir("hypothesis")))


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _SKIPPED.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport  # a module skipped while collected


def pytest_sessionfinish(session):
    # No test skips silently: a skip, of a test or of a whole module, fails the run
    if _SKIPPED and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _SKIPPED:
        terminalreporter.write_sep("=", f"{len(_SKIPPED)} skipped, and a skip fails the run",
                                   red=True)
        for nodeid in _SKIPPED:
            terminalreporter.write_line(nodeid)
