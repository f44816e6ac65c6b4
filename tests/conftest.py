"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_result_cache(tmp_path_factory):
    """Point the default result cache at a per-session temporary store.

    CLI tests run ``experiment``/``osu``/``app`` without ``--cache-dir``;
    left alone they would fill the user's ``~/.cache/repro``, and later
    runs would be served those cells even after a result-changing edit.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _private_working_dir(tmp_path_factory):
    """Run the suite from a per-session temporary working directory.

    ``experiment``/``osu``/``app`` write cwd-relative outputs
    (``results/last_sweep.json``, ``results/governor.json``); run from
    the checkout they would overwrite the user's last sweep, and
    ``repro bench-report`` would then report a test's sweep.  Tests
    anchor their own files on ``__file__`` or ``tmp_path``.
    """
    previous = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    os.chdir(previous)
