import os


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the package sources in
    # .hypothesis/ under the working directory, while tests are collected;
    # keep that cache inside pytest's own cache directory instead.
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(cache.mkdir("hypothesis")))
