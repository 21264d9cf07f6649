"""FSM port differential: replay vs pre-refactor goldens.

``tests/goldens/fsm_port.json`` was captured immediately *before* the
resolver lifecycle moved onto the table-driven machines (DESIGN.md
§14). These tests replay the identical experiment batteries on the
ported code and require digest-identical output — answer streams and
authoritative query logs are compared as sha256 digests over every
timestamped observation, so even a one-packet or one-microsecond drift
fails. Regenerate the goldens (``scripts/capture_fsm_goldens.py``) only
when a behavior change is intentional.
"""

import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GOLDENS = (
    pathlib.Path(__file__).resolve().parent / "goldens" / "fsm_port.json"
)


@pytest.fixture(scope="module")
def capture_module():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import capture_fsm_goldens

        yield capture_fsm_goldens
    finally:
        sys.path.remove(str(SCRIPTS))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


def canonical(value):
    """JSON round-trip so int dict keys compare equal to the stored
    (string-keyed) golden."""
    return json.loads(json.dumps(value, sort_keys=True))


def test_ddos_batteries_byte_identical(capture_module, golden):
    for key, probes, seed in (
        ("H", 24, 42),
        ("A", 16, 7),
        ("I", 16, 42),
    ):
        name = f"ddos_{key}_p{probes}_s{seed}"
        replay = canonical(capture_module.capture_ddos(key, probes, seed))
        assert replay == golden[name], f"{name} diverged from golden"


def test_baseline_battery_byte_identical(capture_module, golden):
    replay = canonical(capture_module.capture_baseline("3600", 24, 42))
    assert replay == golden["baseline_3600_p24_s42"]


def test_software_study_byte_identical(capture_module, golden):
    """BIND/Unbound query counts — the §6 calibration surface itself."""
    replay = canonical(capture_module.capture_software())
    assert replay == golden["software"]


def test_glue_experiment_byte_identical(capture_module, golden):
    replay = canonical(capture_module.capture_glue())
    assert replay == golden["glue"]


def test_probe_case_byte_identical(capture_module, golden):
    """Appendix F's Table 7 rows on the hand-built single-probe chain."""
    replay = canonical(capture_module.capture_probe_case())
    assert replay == golden["probe_case_s11"]


def test_cache_dump_byte_identical(capture_module, golden):
    """§A.3 cache dumps for both software personalities."""
    replay = canonical(capture_module.capture_cache_dump())
    assert replay == golden["cache_dump"]


def test_anycast_study_byte_identical(capture_module, golden):
    """Per-catchment answer streams, with and without route withdrawal."""
    replay = canonical(capture_module.capture_anycast())
    assert replay == golden["anycast_p120"]
