"""
Smoke test of the benchmark itself.

Runs every workload at toy size (``--toy``) through the same code path
as a measured run, untraced and traced, and checks that the last line
of output names every metric of BENCHMARK.json with its unit and that
the output checks pass; traced, that the layer self times cover all
but a few percent of the stages' time. Also checks the reference
meter's scaling on made-up ticks, and that the benchmark refuses to run
without the program's sources.

    python3 -m pytest -q ssmbench/smoke.py      # or: python3 ssmbench/smoke.py

Takes about a minute. The file is not named test_*.py, so the
repository's own test run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, workload, trace, toy=True):
    cmd = [sys.executable, os.path.join(root, "ssmbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def test_every_workload_reports_every_metric():
    bench = _declared()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"]
            assert result["correct"], (workload, trace, proc.stdout)
            assert result["failed"] == 0 and result["attempted"] >= 1
            for metric in bench[kind]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], metric["name"]
                assert isinstance(got["value"], (int, float))
            if trace:
                # the layer self times cover nearly all of the stages
                untraced = result["metrics"]["trace.untraced_frac"]["value"]
                assert 0.0 <= untraced < 0.05, (workload, untraced)


def test_meter_scales_by_the_ticks_around_a_span():
    meter = reference.Meter()
    meter.starts = [0.00, 0.02, 0.04, 0.06, 0.08, 0.10]
    meter.busy = [0.001] * 6
    meter.times = [2 * reference.REF_S] * 6  # the machine at half speed
    # [0.01, 0.05] holds the ticks at 0.02 and 0.04
    net = meter.net(0.01, 0.05)
    assert abs(net - 0.038) < 1e-12
    assert abs(meter.scaled(0.01, 0.05) - net / 2) < 1e-12


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "ssmbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, "frc_chain", 0, toy=False)
        assert proc.returncode == 2
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_workload_reports_every_metric()
    test_meter_scales_by_the_ticks_around_a_span()
    test_refuses_without_sources()
    print("smoke: ok")
