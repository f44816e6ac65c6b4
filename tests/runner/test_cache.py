"""Content-addressed cache: key derivation and the on-disk store."""

import hashlib
import json

from repro.runner import (
    CellResult,
    ResultCache,
    SweepCell,
    cache_key,
    environment_signature,
)
from repro.runner.cache import CACHE_SCHEMA, _canonical


def _cell(experiment="test", label="", **overrides):
    params = {"op": "alltoall", "nbytes": 1024, "n_ranks": 16}
    params.update(overrides)
    return SweepCell(experiment, "collective", params, label=label)


# -- key derivation ---------------------------------------------------
def test_key_is_stable_and_hex():
    key = cache_key(_cell())
    assert key == cache_key(_cell())
    assert len(key) == 64
    int(key, 16)  # valid hex


def test_key_ignores_experiment_and_label():
    """fig9 and table1 request the same app runs — they must share
    entries, so provenance fields stay out of the key."""
    assert cache_key(_cell(experiment="fig9", label="a")) == cache_key(
        _cell(experiment="table1", label="b")
    )


def test_key_sensitive_to_params():
    assert cache_key(_cell(nbytes=1024)) != cache_key(_cell(nbytes=2048))
    assert cache_key(_cell(n_ranks=16)) != cache_key(_cell(n_ranks=32))


def test_key_ignores_param_insertion_order():
    a = SweepCell("t", "collective", {"op": "bcast", "nbytes": 64, "n_ranks": 8})
    b = SweepCell("t", "collective", {"n_ranks": 8, "nbytes": 64, "op": "bcast"})
    assert cache_key(a) == cache_key(b)


def test_environment_signature_pins_testbed_and_schema():
    sig = environment_signature()
    assert sig["schema"] == CACHE_SCHEMA
    # The implicit inputs every cell closes over: a recalibration of any
    # of these must invalidate old entries.
    assert set(sig) >= {"version", "cluster", "network", "power"}
    json.dumps(sig)  # must itself be canonicalisable


def test_environment_signature_is_pinned():
    """Literal digest, not a within-process stability check: a refactor
    that changes any implicit input's dict form (e.g. drops a key from
    ``NetworkSpec.to_dict()``) orphans every cached cell, and must bump
    ``CACHE_SCHEMA`` and re-pin here instead of slipping through."""
    payload = _canonical(environment_signature()).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == (
        "c14c79180510023343fda357da03b2fbb5de38cb8b2e7772388a670a4b70c163"
    )


def test_every_registered_plan_keeps_its_cell_keys():
    """The keys of all cells of all registered plans, in ``sorted(CELL_PLANS)``
    order and plan order, hash to a pinned digest (232 keys, 165 unique)."""
    from repro.bench import CELL_PLANS

    keys = [
        cache_key(cell)
        for name in sorted(CELL_PLANS)
        for cell in CELL_PLANS[name]().cells
    ]
    assert (len(keys), len(set(keys))) == (232, 165)
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
    assert digest == (
        "2058582f47d29dc1ef0993bf514d413583d3855c045ed4d7a2138c399319b7c2"
    )


# -- the disk store ---------------------------------------------------
def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    key = cache_key(cell)
    result = CellResult(duration_s=1.0, energy_j=2.0, extra={"m": 3})

    assert cache.get(key) is None  # cold
    cache.put(key, cell, result)
    assert cache.get(key) == result
    assert cache.stats() == {
        "hits": 1, "misses": 1, "writes": 1, "write_errors": 0,
    }


def test_entries_are_sharded_by_key_prefix(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    key = cache_key(cell)
    cache.put(key, cell, CellResult())
    entry = tmp_path / key[:2] / f"{key}.json"
    assert entry.is_file()
    # Entry carries provenance for humans poking at the cache dir.
    payload = json.loads(entry.read_text())
    assert payload["key"] == key
    assert payload["spec"] == cell.spec()


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cell = _cell()
    key = cache_key(cell)
    cache.put(key, cell, CellResult(duration_s=1.0))
    (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
    assert cache.get(key) is None
    assert cache.misses == 1


def test_unwritable_cache_degrades_silently(tmp_path):
    # Root of the cache is a *file*: every mkdir/replace fails with
    # OSError.  put() must swallow it — a broken cache dir can make the
    # sweep slower, never make it fail.
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    cache = ResultCache(blocker)
    cell = _cell()
    cache.put(cache_key(cell), cell, CellResult())
    assert cache.writes == 0
    assert cache.get(cache_key(cell)) is None


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    from repro.runner.cache import default_cache_dir

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"
