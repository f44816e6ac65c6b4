"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_result_cache(tmp_path_factory):
    """Point the default result cache at a per-session temporary store.

    CLI tests run ``experiment``/``osu``/``app`` without ``--cache-dir``;
    left alone they would fill the user's ``~/.cache/repro``, and later
    runs would be served those cells even after a result-changing edit.
    Subprocesses (campaign shard drivers) inherit the variable.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
