"""Tests for the persistent result cache (repro.runner.cache)."""

import enum
import os
import pickle
import subprocess
import sys

import pytest

import repro.runner.cache as cache_module
from repro.core.experiments import BASELINE_EXPERIMENTS, DDOS_EXPERIMENTS
from repro.runner import (
    MISS,
    ClearStats,
    DiskCache,
    baseline_request,
    cache_key,
    code_fingerprint,
    ddos_request,
    glue_request,
)


def test_code_fingerprint_stable_within_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def test_source_digest_covers_c_sources(tmp_path):
    # The compiled event kernel's C source decides results as much as the
    # Python tree does: editing it must change the fingerprint.
    (tmp_path / "events.py").write_text("X = 1\n")
    kernel = tmp_path / "simcore" / "_ckernel.c"
    kernel.parent.mkdir()
    kernel.write_text("int x = 1;\n")
    before = cache_module.source_digest(tmp_path)
    kernel.write_text("int x = 2;\n")
    assert cache_module.source_digest(tmp_path) != before
    (tmp_path / "notes.txt").write_text("not source\n")
    kernel.write_text("int x = 1;\n")
    assert cache_module.source_digest(tmp_path) == before


def test_cache_key_is_stable_for_equal_requests():
    first = ddos_request(DDOS_EXPERIMENTS["A"], probe_count=100, seed=1)
    second = ddos_request(DDOS_EXPERIMENTS["A"], probe_count=100, seed=1)
    assert cache_key(first) == cache_key(second)


def test_cache_key_differs_across_request_fields():
    base = ddos_request(DDOS_EXPERIMENTS["A"], probe_count=100, seed=1)
    keys = {
        cache_key(base),
        cache_key(ddos_request(DDOS_EXPERIMENTS["B"], probe_count=100, seed=1)),
        cache_key(ddos_request(DDOS_EXPERIMENTS["A"], probe_count=101, seed=1)),
        cache_key(ddos_request(DDOS_EXPERIMENTS["A"], probe_count=100, seed=2)),
        cache_key(
            baseline_request(BASELINE_EXPERIMENTS["60"], probe_count=100, seed=1)
        ),
        cache_key(glue_request(probe_count=100, seed=1, rounds=3)),
    }
    assert len(keys) == 6


def test_cache_key_changes_with_code_fingerprint(monkeypatch):
    request = ddos_request(DDOS_EXPERIMENTS["A"])
    before = cache_key(request)
    monkeypatch.setattr(cache_module, "_FINGERPRINT", "0" * 16)
    after = cache_key(request)
    assert before != after


def test_disk_cache_roundtrip(tmp_path):
    cache = DiskCache(tmp_path)
    assert cache.get("deadbeef") is MISS
    cache.put("deadbeef", {"value": 42})
    assert cache.get("deadbeef") == {"value": 42}
    assert "deadbeef" in cache
    assert cache.hits == 1 and cache.misses == 1


def test_disk_cache_none_is_a_hit_not_a_miss(tmp_path):
    # The regression MISS exists for: a cached ``None`` must not read as
    # a miss and trigger a re-run.
    cache = DiskCache(tmp_path)
    cache.put("nullkey", None)
    value = cache.get("nullkey")
    assert value is None
    assert value is not MISS
    assert cache.hits == 1 and cache.misses == 0


def test_miss_sentinel_is_falsy_and_reprs():
    assert not MISS
    assert repr(MISS) == "<MISS>"


def test_disk_cache_treats_corruption_as_miss(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("key", [1, 2, 3])
    cache.path_for("key").write_bytes(b"not a pickle")
    assert cache.get("key") is MISS
    cache.put("key", [4, 5])
    assert cache.get("key") == [4, 5]


def test_disk_cache_write_is_atomic(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("key", list(range(100)))
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["key.pkl"]
    with cache.path_for("key").open("rb") as stream:
        assert pickle.load(stream) == list(range(100))


def test_disk_cache_clear(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("a", 1)
    cache.put("b", 2)
    stats = cache.clear()
    assert stats == ClearStats(entries=2, temps=0)
    assert cache.get("a") is MISS


def _plant_temp(tmp_path, name, age_seconds):
    temp = tmp_path / name
    temp.write_bytes(b"partial write")
    old = temp.stat().st_mtime - age_seconds
    os.utime(temp, (old, old))
    return temp


def test_clear_counts_orphaned_temp_files(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("a", 1)
    _plant_temp(tmp_path, f"{cache_module.TEMP_PREFIX}orphan.pkl", 0)
    stats = cache.clear()
    assert stats == ClearStats(entries=1, temps=1)
    assert list(tmp_path.iterdir()) == []


def test_put_sweeps_aged_temp_orphans_only(tmp_path):
    cache = DiskCache(tmp_path)
    aged = _plant_temp(
        tmp_path,
        f"{cache_module.TEMP_PREFIX}old.pkl",
        cache_module.TEMP_SWEEP_AGE_SECONDS * 2,
    )
    young = _plant_temp(tmp_path, f"{cache_module.TEMP_PREFIX}new.pkl", 0)
    cache.put("entry", 7)
    # The aged orphan (a killed put()) is gone; the young staging file
    # could belong to a concurrent put() and must survive.
    assert not aged.exists()
    assert young.exists()
    assert cache.get("entry") == 7


def test_sweep_temps_honors_min_age(tmp_path):
    cache = DiskCache(tmp_path)
    _plant_temp(tmp_path, f"{cache_module.TEMP_PREFIX}a.pkl", 7200)
    _plant_temp(tmp_path, f"{cache_module.TEMP_PREFIX}b.pkl", 0)
    assert cache.sweep_temps(min_age_seconds=3600) == 1
    assert cache.sweep_temps() == 1  # no age filter: removes the rest


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path / "runs"))
    assert cache_module.default_cache_dir() == tmp_path / "runs"


def test_canonical_encoding_handles_nested_dataclasses():
    request = ddos_request(DDOS_EXPERIMENTS["A"], probe_count=10, seed=3)
    encoded = cache_module._canonical(request)
    assert encoded["__dataclass__"] == "RunRequest"
    assert encoded["spec"]["__dataclass__"] == "DDoSSpec"
    assert encoded["spec"]["ttl"] == 3600


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


class _Priority(enum.IntEnum):
    LOW = 1
    HIGH = 2


def test_canonical_sets_are_order_independent():
    first = cache_module._canonical({"servers", "both", "ns1", "ns2"})
    second = cache_module._canonical({"ns2", "ns1", "both", "servers"})
    assert first == second
    assert set(first) == {"__set__"}
    assert first["__set__"] == sorted(first["__set__"])


def test_canonical_frozenset_matches_set():
    members = frozenset({3, 1, 2})
    assert cache_module._canonical(members) == cache_module._canonical(
        {1, 2, 3}
    )


def test_canonical_enum_is_tagged_not_scalar():
    encoded = cache_module._canonical(_Color.RED)
    assert encoded == {"__enum__": "_Color.RED"}
    # An IntEnum must not collapse to its integer value: _Priority.LOW
    # and the plain int 1 mean different requests.
    assert cache_module._canonical(_Priority.LOW) != cache_module._canonical(1)


def test_canonical_bytes_roundtrip_to_hex():
    assert cache_module._canonical(b"\x00\xff") == {"__bytes__": "00ff"}
    assert cache_module._canonical(bytearray(b"\x00\xff")) == {
        "__bytes__": "00ff"
    }


def test_canonical_rejects_types_without_stable_encoding():
    with pytest.raises(TypeError, match="stable cache key"):
        cache_module._canonical(object())


def _subprocess_key(hash_seed):
    """Compute a cache key in a child process with its own hash seed."""
    program = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.core.experiments import DDOS_EXPERIMENTS\n"
        "from repro.runner import cache_key, ddos_request\n"
        "import repro.runner.cache as cache_module\n"
        "cache_module._FINGERPRINT = 'f' * 16\n"
        "request = ddos_request(DDOS_EXPERIMENTS['A'], probe_count=10, seed=3)\n"
        "payload = {'options': frozenset({'rrl', 'filter', 'capacity'}),\n"
        "           'request': request}\n"
        "print(cache_key(payload))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return result.stdout.strip()


def test_cache_key_stable_across_processes_and_hash_seeds():
    # Set iteration order follows the per-process string hash seed; the
    # canonical encoding must erase that, or a warm cache goes cold on
    # every new interpreter.
    keys = {_subprocess_key(seed) for seed in (0, 1, 42)}
    assert len(keys) == 1, keys
