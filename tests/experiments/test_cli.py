"""CLI tests (fast paths only; figure regeneration is covered by benchmarks)."""

import json

import pytest

from repro.cli import main


def test_config_prints_table1(capsys):
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert "Fetch width" in out
    assert "Issue queue size per cluster" in out
    assert "Point to point links" in out


def test_pool_summary(capsys):
    assert main(["pool", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "ISPEC-FSPEC" in out and "total workloads" in out


def test_run_text_output(capsys):
    code = main(
        ["run", "--policy", "cssp", "--category", "DH", "--scale", "smoke"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "cssp" in out


def test_run_json_output(capsys):
    code = main(
        ["run", "--policy", "icount", "--category", "DH", "--scale", "smoke",
         "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "imbalance_breakdown" in data


def test_run_with_telemetry_export(capsys, tmp_path):
    out_dir = tmp_path / "tel"
    code = main(
        ["run", "--policy", "cdprf", "--category", "mixes", "--scale",
         "smoke", "--telemetry-out", str(out_dir), "--sample-interval",
         "256", "--trace-events", "--json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # --json stdout stays clean JSON
    assert "telemetry" in captured.err
    for name in ("samples.csv", "samples.jsonl", "events.jsonl",
                 "trace.json", "meta.json"):
        assert (out_dir / name).is_file(), name
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["traceEvents"]


def test_run_rejects_bad_sample_interval():
    with pytest.raises(ValueError):
        main(
            ["run", "--scale", "smoke", "--category", "DH",
             "--telemetry-out", "/tmp/unused", "--sample-interval", "0"]
        )


def test_run_unknown_category(capsys):
    assert main(["run", "--category", "nope", "--scale", "smoke"]) == 1


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "bogus"])


def test_figure_requires_known_name():
    with pytest.raises(SystemExit):
        main(["figure", "42"])


@pytest.mark.parametrize("retired", ["numpy", "compiled"])
def test_retired_backend_rejected(capsys, retired):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--backend", retired, "--scale", "smoke"])
    assert exc.value.code == 2  # argparse: invalid choice
    assert "invalid choice" in capsys.readouterr().err
