"""Tests for the command-line interface."""

import re

import pytest

from repro.__main__ import build_parser, main


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["ddos", "Z"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_cli_software(capsys):
    assert main(["software"]) == 0
    output = capsys.readouterr().out
    assert "bind" in output and "unbound" in output
    assert "resolved=True" in output


def test_cli_software_attack(capsys):
    assert main(["software", "--attack"]) == 0
    output = capsys.readouterr().out
    assert "resolved=False" in output


def test_cli_ddos_small(capsys):
    assert main(["ddos", "E", "--probes", "60"]) == 0
    output = capsys.readouterr().out
    assert "failures during attack" in output
    assert "amplification" in output


def test_cli_baseline_small(capsys):
    assert main(["baseline", "60", "--probes", "60"]) == 0
    output = capsys.readouterr().out
    assert "cache-miss rate" in output
    assert "Table 3" in output


def test_cli_probe_case(capsys):
    assert main(["probe-case"]) == 0
    output = capsys.readouterr().out
    assert "queries per client query" in output


def test_cli_glue_small(capsys):
    assert main(["glue", "--probes", "80"]) == 0
    output = capsys.readouterr().out
    assert "child-TTL fraction" in output
    assert "bind cache" in output


def test_cli_export_and_analyze_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["ddos", "E", "--probes", "50", "--export-trace", str(trace_path)]) == 0
    assert trace_path.exists()
    capsys.readouterr()
    assert main(["analyze-trace", str(trace_path), "--ttl", "1800"]) == 0
    output = capsys.readouterr().out
    assert "Trace analysis" in output
    assert "Total queries" in output


def test_cli_report_tiny(tmp_path, capsys):
    def report(name):
        output = tmp_path / name
        assert main(
            [
                "report",
                "--baseline-probes", "60",
                "--ddos-probes", "60",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(output),
            ]
        ) == 0
        *body, footer = output.read_text().rstrip("\n").split("\n")
        return body, footer

    body, footer = report("cold.md")
    text = "\n".join(body)
    assert "# EXPERIMENTS — paper vs measured" in text
    assert "Table 3 miss attribution" in text
    assert "Figure 16" in text
    # The footer says how much of the battery the run cache served.
    runs = int(re.search(r": (\d+) runs simulated, 0 read from the run cache", footer)[1])
    assert runs > 20
    warm_body, warm_footer = report("warm.md")
    assert warm_body == body
    assert f": 0 runs simulated, {runs} read from the run cache._" in warm_footer


def test_cli_sweep_tiny(tmp_path, capsys):
    csv_path = tmp_path / "surface.csv"
    assert main(
        [
            "sweep",
            "--losses", "0.9",
            "--ttls", "60,1800",
            "--probes", "60",
            "--csv", str(csv_path),
        ]
    ) == 0
    output = capsys.readouterr().out
    assert "failure fraction during attack" in output
    assert csv_path.read_text().startswith("loss,ttl,")


def test_parser_accepts_runner_flags():
    parser = build_parser()
    for argv in (
        ["report", "--jobs", "4", "--cache-dir", "/tmp/x"],
        ["sweep", "--jobs", "2", "--cache-dir", "/tmp/x"],
        ["ddos", "E", "--jobs", "1", "--cache-dir", "/tmp/x"],
        ["baseline", "60", "--jobs", "1", "--cache-dir", "/tmp/x"],
    ):
        args = parser.parse_args(argv)
        assert args.jobs is not None
        assert args.cache_dir == "/tmp/x"
        assert args.keep_going is False


def test_parser_accepts_keep_going_everywhere():
    parser = build_parser()
    for argv in (
        ["report", "--keep-going"],
        ["sweep", "--keep-going"],
        ["defense-study", "--keep-going"],
        ["ddos", "E", "--keep-going"],
        ["baseline", "60", "--keep-going"],
    ):
        assert parser.parse_args(argv).keep_going is True


def test_cli_baseline_with_cache_dir(tmp_path, capsys):
    cache_dir = str(tmp_path / "runcache")
    argv = ["baseline", "60", "--probes", "40", "--cache-dir", cache_dir]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert list((tmp_path / "runcache").glob("*.pkl"))
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold


def test_cli_ddos_with_jobs_and_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "runcache")
    argv = [
        "ddos", "G", "--probes", "30", "--jobs", "2", "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    assert "failures during attack" in warm
