"""The benchmark's own tests: smoke runs of every workload, the correctness
gate and the span recorder.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import expect
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as _handle:
    LAYER_MAP = json.load(_handle)
KNOWN_FAILURES = {(f["workload"], f["op"]) for f in LAYER_MAP["known_failures_at_seed"]}


def _run(*argv: str, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *argv],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_schema_and_gate(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    missed = {line.split("miss ", 1)[1].split(":", 1)[0] for line in lines if line.startswith("  miss ")}
    assert {(workload, label) for label in missed} <= KNOWN_FAILURES
    assert result["failed"] == len(missed) * (4 if trace else 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "build-standard", "--seed", "1", "--seconds", "1", "--trace", "0",
                root=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize(
    "genus, complement, found",
    [
        (3, "auto", None),
        (4, "nonorientable", None),
        (4, "auto", ("even_orientable", 3)),
        (6, "orientable", ("even_orientable", 5)),
        (9, "nonorientable", ("odd", 7)),
        (10, "nonorientable", ("even_nonorientable", 7)),
    ],
)
def test_verdict_table(genus, complement, found):
    assert expect.verdict_table(genus, complement) == found


def test_gate_flags_wrong_and_unclean_outputs():
    want = expect.expect_verify(hybrid=True, degree=5, genuine=True)
    good = json.dumps({"verdict": "verified", "degree": 5, "checks": want["checks"]})
    assert expect.check_cli(want, 0, good, "") == []
    assert expect.check_cli(want, 2, good, "")[0].startswith("exit:")
    wrong = json.dumps({"verdict": "verified", "degree": 5,
                        "checks": dict(want["checks"], homology="pass")})
    assert expect.check_cli(want, 0, wrong, "")[0].startswith("verdict:")
    crash = "Traceback (most recent call last):\n  ...\nValueError: bad\n"
    misses = expect.check_cli(expect.EXPECT_INPUT_ERROR, 1, "", crash)
    assert misses and not any(expect.is_wrong(m) for m in misses)
    assert expect.check_cli(expect.EXPECT_INPUT_ERROR, 1, "", "error: bad letter\n") == []


def test_tracer_wraps_every_lookup_site_and_restores_them():
    import mcgroots.cli
    from mcgroots import cli, presentation, representations, roots

    originals = (presentation.apply_step, roots.apply_step, cli._ORACLES["homology"],
                 representations.IntMatrix.__pow__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert roots.apply_step is presentation.apply_step is not originals[0]
        assert cli._ORACLES["homology"] is representations.homology_of is cli.homology_of
        result = roots.construct_root(roots.RootRequest(5, "u", "auto"))
        spans = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert (presentation.apply_step, roots.apply_step, cli._ORACLES["homology"],
            representations.IntMatrix.__pow__) == originals
    assert mcgroots.cli.main is cli.main
    assert spans["presentation.apply_step.calls"] >= len(result.certificate.steps)
    assert spans["representations.IntMatrix.pow.calls"] > 0
    assert spans["roots.construct_root.s"] >= spans["roots.construct_root.self_s"] > 0


def test_reset_empties_the_program_caches(tmp_path):
    import workloads
    from mcgroots import representations

    prog = workloads.Program(ROOT, str(tmp_path))
    representations.derive_generator_matrices(5)
    assert representations.derive_generator_matrices.cache_info().currsize > 0
    prog.reset()
    assert representations.derive_generator_matrices.cache_info().currsize == 0
