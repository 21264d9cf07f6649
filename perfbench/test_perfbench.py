"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it runs the
``--smoke`` set twice, which takes about a minute and a half.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete ``--smoke`` sets of the same commit and seed."""
    directory = tmp_path_factory.mktemp("smoke")
    documents = []
    for index in range(2):
        path = directory / f"smoke{index}.json"
        done = subprocess.run(
            RUN + ["--smoke", "--out", str(path)], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        with open(path, "r", encoding="utf-8") as stream:
            documents.append((path, json.load(stream)))
    return documents


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        item["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for item in contract[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    )
    layer_names = {m["name"].rsplit(".", 1)[0] for m in contract["per_layer"]}
    assert set(layers.LAYERS) <= layer_names


def test_every_workload_and_metric_is_emitted(contract, smoke_runs):
    _path, document = smoke_runs[0]
    assert set(document["workloads"]) == {w["name"] for w in contract["workloads"]}
    measured = set()
    for name, record in document["workloads"].items():
        assert record["failed"] == 0, (name, record["failures"])
        for metric in contract["end_to_end"]:
            entry = record["end_to_end"][metric["name"]]
            assert entry["value"] is not None and entry["value"] > 0, (name, metric)
            assert entry["unit"] == metric["unit"]
        for metric in contract["per_layer"]:
            entry = record["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            if entry["value"] is None:
                assert entry["reason"], (name, metric)
            else:
                measured.add(metric["name"])
    # Null is for a metric that does not apply to a workload, never for
    # one the benchmark cannot produce at all.
    assert measured == {m["name"] for m in contract["per_layer"]}


def test_layer_shares_sum_to_one(smoke_runs):
    _path, document = smoke_runs[0]
    for name, record in document["workloads"].items():
        total = sum(
            record["per_layer"][f"{layer}.self_frac"]["value"] for layer in layers.LAYERS
        )
        assert abs(total - 1.0) <= 0.01, (name, total)
        assert record["per_layer"]["trace.unattributed_frac"]["value"] < 0.05


def test_predicted_contrasts(smoke_runs):
    _path, document = smoke_runs[0]
    share = lambda workload, layer: document["workloads"][workload]["per_layer"][
        f"{layer}.self_frac"
    ]["value"]
    assert share("ddos_H", "obs") < 0.001 < 0.05 < share("ddos_H_telemetry", "obs")
    for workload in document["workloads"]:
        armed = share(workload, "defense") + share(workload, "attackload")
        assert (armed > 0) == (workload == "flood_defended"), workload
        assert (share(workload, "runner") > 0) == (workload == "report_battery"), workload


def test_exact_counts_repeat(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for name, record in first["workloads"].items():
        other = second["workloads"][name]
        assert record["sim_digest"] == other["sim_digest"], name
        assert record["result_mb"] == other["result_mb"], name
        for metric in ("simcore.events", "netem.sent", "runner.result_mb", "dnscore.calls"):
            assert record["per_layer"][metric]["value"] == other["per_layer"][metric]["value"], (
                name,
                metric,
            )
    telemetry = first["workloads"]["ddos_H_telemetry"]
    assert telemetry["sim_digest"] == first["workloads"]["ddos_H"]["sim_digest"]


def test_compare_with_itself_is_unchanged(contract, smoke_runs):
    path, document = smoke_runs[0]
    result = compare.compare(document, document, contract)
    assert result["rows"] and not result["flags"]
    assert {row["verdict"] for row in result["rows"]} == {"unchanged"}
    done = subprocess.run(RUN + ["--compare", str(path), str(path)], capture_output=True, text=True)
    assert done.returncode == 0 and "unchanged" in done.stdout


def test_compare_verdicts():
    def entry(value, q1, q3):
        return {"value": value, "median": value, "q1": q1, "q3": q3, "n": 6}

    steady = entry(1.0, 0.99, 1.01)
    assert compare.verdict(steady, entry(1.2, 1.19, 1.21), "lower", 0.1) == "regressed"
    assert compare.verdict(steady, entry(0.8, 0.79, 0.81), "lower", 0.1) == "improved"
    assert compare.verdict(steady, entry(1.2, 1.19, 1.21), "higher", 0.1) == "improved"
    assert compare.verdict(steady, entry(1.05, 1.04, 1.06), "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, entry(1.2, 1.0, 1.4), "lower", 0.1) == "unresolved"


def test_compare_flags_differences(contract, smoke_runs):
    _path, document = smoke_runs[0]
    other = json.loads(json.dumps(document))
    other["env"]["python"] = "0.0.0"
    other["workloads"]["ddos_H"]["sim_digest"] = "changed"
    flags = compare.compare(document, other, contract)["flags"]
    assert any("python differs" in flag for flag in flags)
    assert any("ddos_H: simulated results changed" in flag for flag in flags)


def test_fold_charges_stdlib_time_to_the_calling_layer():
    root = "/x/repro"
    send = (f"{root}/netem/transport.py", 10, "send")
    get = (f"{root}/resolvers/cache.py", 20, "get")
    crc = ("~", 0, "<built-in method zlib.crc32>")
    helper = ("/usr/lib/python3/ipaddress.py", 5, "_parse")
    inner = ("/usr/lib/python3/ipaddress.py", 9, "_hextet")
    harness = ("/bench/worker.py", 1, "main")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        send: (4, 4, 2.0, 6.0, {harness: (4, 4, 2.0, 6.0)}),
        get: (2, 2, 1.0, 1.0, {send: (2, 2, 1.0, 1.0)}),
        crc: (4, 4, 1.0, 1.0, {send: (3, 3, 0.75, 0.75), get: (1, 1, 0.25, 0.25)}),
        helper: (2, 2, 1.0, 2.0, {send: (2, 2, 1.0, 2.0)}),
        inner: (8, 8, 1.0, 1.0, {helper: (8, 8, 1.0, 1.0)}),
    }
    folded = layers.fold(stats, root)
    rows = folded["layers"]
    assert rows["netem"]["self_s"] == pytest.approx(2.0 + 0.75 + 1.0 + 1.0)
    assert rows["resolvers.cache"]["self_s"] == pytest.approx(1.0 + 0.25)
    assert rows["resolvers"]["self_s"] == 0.0
    assert rows["netem"]["calls_in"] == 4 and rows["resolvers.cache"]["calls_in"] == 2
    assert sum(row["self_frac"] for row in rows.values()) == pytest.approx(1.0)
    assert folded["unattributed_frac"] == pytest.approx(0.5 / 6.5)
    assert layers.calls_into_file(stats, "/ipaddress.py") == 2


def test_driver_line_and_bare_directory(contract, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "ddos_A", "--seed", "7", "--smoke", "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in contract[section]]
        for metric in contract[section]:
            value = line["metrics"][metric["name"]]
            assert set(value) == {"value", "unit"} and value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
    # Without the program there is nothing to measure: refuse, print no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ddos_A", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
