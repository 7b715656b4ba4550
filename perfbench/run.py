"""mcgroots benchmark: four workloads, end-to-end metrics, per-layer traces.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-standard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke --trace 0

Each workload run is a fresh interpreter.  It makes a fixed number of
whole passes over the workload's operations: ``--seconds`` divided by the
workload's nominal pass length (``workloads.NOMINAL_PASS_S``), at least
one, so every commit makes the same passes.  Between passes it times
fresh interpreters importing ``mcgroots.cli`` (``setup_s``, median of
about ``SETUP_SAMPLES``).  Times are medians over passes; the certificate
counts must repeat exactly in every pass.  ``--trace 1`` alternates
untraced passes and traced passes, with span recorders around every
public function of the program's modules, and reports the per-layer
metrics instead.  ``--smoke`` runs one pass (two pairs when traced) over
the lowest rungs and one call of each exit class.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when any output is wrong (a verdict, degree, check
or exit code against the paper's verdict table, or counts that differ
between passes).  ``failed`` counts every operation with a miss of any
kind, a Python traceback behind a correct exit code included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import expect  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("build-standard", "build-hybrid-braid", "verify-replay", "cli-cold")
SETUP_SAMPLES = 9
IMPORT_PROBE = "import time; t = time.perf_counter(); import mcgroots.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "top_s": "s",
    "peak_rss_mb": "MB",
    "cert_bytes": "bytes",
}

# Span metrics: <module>.<function>.{calls,s,self_s}, from tracing.Tracer.
SPAN_METRICS = (
    "presentation.instantiate.calls",
    "presentation.instantiate.s",
    "presentation.apply_step.calls",
    "presentation.apply_step.s",
    "presentation.check_certificate.s",
    "presentation.check_certificate.self_s",
    "presentation.replay_certificate.self_s",
    "presentation.certificate_to_text.s",
    "presentation.certificate_from_text.s",
    "presentation.relation_catalog.s",
    "representations.homology_of.calls",
    "representations.homology_of.s",
    "representations.IntMatrix.pow.s",
    "representations.perm_of.s",
    "representations.sign_of.s",
    "roots.construct_root.s",
    "roots.construct_root.self_s",
    "roots.construct_braid_root.self_s",
    "roots.build_report.self_s",
    "roots.is_nontrivial.s",
    "words.parse_word.calls",
    "words.parse_word.s",
    "words.format_word.s",
    "cli.main.calls",
    "cli.main.self_s",
    "small_genus.certify_no_root_g3.s",
    "small_genus.gl2_torsion_scan.s",
    "small_genus.mn2_root_search.s",
)
PER_LAYER_UNITS = {
    "presentation.cert_steps": "count",
    "words.start_syllables": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "bench.ops_failed_ratio": "ratio",
}
PER_LAYER = dict(
    {name: ("count" if name.endswith(".calls") else "s") for name in SPAN_METRICS},
    **PER_LAYER_UNITS,
)


class MissingProgram(Exception):
    pass


class SetupProbe:
    """Fresh interpreters importing ``mcgroots.cli``: their wall time
    (``setup_s``) and the import time each measures inside itself
    (``cli.import_s``).  The samples are spread between passes, so one
    noisy stretch of the host does not set them all.  An unrecorded run
    first compiles the bytecode caches, which an installed package ships warm."""

    def __init__(self, env: dict):
        self.env = env
        self.walls: list[float] = []
        self.imports: list[float] = []
        self._run()

    def _run(self) -> tuple[float, float]:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise MissingProgram(f"importing mcgroots.cli failed: {done.stderr.strip()[-300:]}")
        return wall, float(done.stdout)

    def sample(self, count: int) -> None:
        for _ in range(count):
            wall, imported = self._run()
            self.walls.append(wall)
            self.imports.append(imported)


class Pass:
    """Latencies, misses and exact counts of one pass over a plan's ops.

    ``reset`` runs untimed before every op, so each starts in the state of
    a fresh ``mcgroots`` call (``workloads.Program.reset``)."""

    def __init__(self, ops, reset):
        self.tally = workloads.Tally()
        self.latency: dict[str, float] = {}
        self.misses: dict[str, list[str]] = {}
        for op in ops:
            reset()
            t0 = time.perf_counter()
            try:
                outcome = op.call()
            except Exception as exc:  # a crash is a result to record, not to abort on
                self.latency[op.label] = time.perf_counter() - t0
                self.misses[op.label] = [f"exception: {exc!r}"]
                continue
            self.latency[op.label] = time.perf_counter() - t0
            misses = op.check(outcome, self.tally)
            # a genus-25 result still alive under the next op would raise peak_rss_mb
            del outcome
            if misses:
                self.misses[op.label] = misses
        # the program's time only; the gate's checks between calls are not timed
        self.wall = sum(self.latency.values())


def pass_count(args) -> int:
    """Passes in a run: ``--seconds`` over the workload's nominal pass length."""
    if args.smoke:
        return 1
    return max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With 20 samples or fewer that percentile would not lie above the
    median, so the maximum stands in (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def count_misses(passes: list[Pass]) -> list[str]:
    """Counts must repeat exactly; a difference is a wrong output."""
    counts = {p.tally.counts() for p in passes}
    if len(counts) > 1:
        return [f"count: cert_bytes/cert_steps/start_syllables differ between passes: {sorted(counts)}"]
    return []


def provenance(name: str, args, passes: list[Pass], extra: dict) -> dict:
    def git(*argv):
        try:
            done = subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    toplevel = git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return dict(
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        git_sha=git("rev-parse", "HEAD") if in_repo else None,
        git_dirty=bool(git("status", "--porcelain")) if in_repo else None,
        python=platform.python_version(),
        numpy=getattr(numpy, "__version__", None),
        nproc=os.cpu_count(),
        cpu_model=cpu,
        passes=len(passes),
        ops_per_pass=len(passes[0].latency),
        rungs=passes[0].tally.rungs,
        **extra,
    )


def result_line(passes: list[Pass], extra_misses: list[str], metrics: dict, units: dict) -> dict:
    misses = [m for p in passes for ms in p.misses.values() for m in ms] + extra_misses
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.misses) for p in passes) + (1 if extra_misses else 0)
    return {
        "correct": not any(expect.is_wrong(m) for m in misses),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_untraced(plan, prog, args, probe: SetupProbe, peak_of_children: bool):
    count = pass_count(args)
    per_gap = 1 if args.smoke else -(-SETUP_SAMPLES // (count + 1))
    passes = []
    for _ in range(count):
        probe.sample(per_gap)
        passes.append(Pass(plan.ops, prog.reset))
    probe.sample(per_gap)
    latencies = [v for p in passes for v in p.latency.values()]
    top_samples = [p.latency[label] for p in passes for label in plan.top]
    tail_pct, tail_value = tail(latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if peak_of_children else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": statistics.median(probe.walls),
        "wall_s": statistics.median(p.wall for p in passes),
        "top_s": statistics.median(top_samples),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cert_bytes": passes[0].tally.cert_bytes,
    }
    extra = {"op_p50_s": statistics.median(latencies), "op_tail_s": tail_value,
             "op_tail_percentile": round(tail_pct, 2), "op_samples": len(latencies),
             "top": plan.top, "pass_wall_s": [p.wall for p in passes],
             "top_s_samples": top_samples, "setup_s_samples": probe.walls}
    return passes, count_misses(passes), metrics, END_TO_END, extra


def run_traced(plan, prog, args, probe: SetupProbe):
    """Untraced and traced passes in turn, one pair fewer than an untraced
    run makes passes and at least two, so that call counts can be compared
    and a drift of the host's speed does not set the tracing overhead."""
    ops = plan.traced_ops or plan.ops
    probe.sample(1 if args.smoke else SETUP_SAMPLES)
    tracer = tracing.Tracer()
    untraced, passes, snapshots = [], [], []
    for _ in range(max(2, pass_count(args) - 1)):
        untraced.append(Pass(ops, prog.reset))
        tracer.reset()
        tracer.install()
        try:
            passes.append(Pass(ops, prog.reset))
        finally:
            tracer.uninstall()
        snapshots.append(tracer.snapshot())
    everything = untraced + passes
    misses = count_misses(everything)
    for name in SPAN_METRICS:
        if name.endswith(".calls") and len({s.get(name, 0) for s in snapshots}) > 1:
            misses.append(f"count: {name} differs between traced passes")
    metrics = {  # counts repeat exactly (checked above), times are medians
        name: snapshots[0].get(name, 0) if name.endswith(".calls")
        else statistics.median(s.get(name, 0) for s in snapshots)
        for name in SPAN_METRICS
    }
    attempted = sum(len(p.latency) for p in everything)
    metrics.update({
        "presentation.cert_steps": passes[0].tally.cert_steps,
        "words.start_syllables": passes[0].tally.start_syllables,
        "cli.import_s": statistics.median(probe.imports),
        "trace.overhead_s": (statistics.median(p.wall for p in passes)
                             - statistics.median(p.wall for p in untraced)),
        "bench.ops_failed_ratio": sum(len(p.misses) for p in everything) / attempted,
    })
    extra = {"untraced_wall_s": [p.wall for p in untraced], "traced_passes": len(passes), "top": plan.top,
             "spans": {k: v for s in snapshots[-1:] for k, v in sorted(s.items())}}
    return everything, misses, metrics, PER_LAYER, extra


def prepare_child(prog, args) -> str:
    """verify-replay set-up in a separate interpreter, so the certificate
    builds stay out of this process's time and peak memory."""
    manifest = prog.path("manifest.json")
    argv = [sys.executable, os.path.abspath(__file__), "--prepare", manifest, "--seed", str(args.seed)]
    done = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"verify-replay set-up failed: {done.stderr.strip()[-500:]}")
    return manifest


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "mcgroots", "cli.py")):
        print(f"error: no mcgroots sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    if args.prepare:
        prog = workloads.Program(ROOT, os.path.dirname(args.prepare))
        with open(args.prepare, "w", encoding="utf-8") as handle:
            json.dump(workloads.prepare_verify(prog, random.Random(args.seed), args.smoke), handle)
        return 0
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        prog = workloads.Program(ROOT, workdir)
        probe = SetupProbe(prog.child_env())
        rng = random.Random(args.seed)
        if args.workload == "verify-replay":
            plan = workloads.verify_replay(prog, prepare_child(prog, args))
        else:
            build = {
                "build-standard": workloads.build_standard,
                "build-hybrid-braid": workloads.build_hybrid_braid,
                "cli-cold": workloads.cli_cold,
            }[args.workload]
            plan = build(prog, rng, args.smoke)
        if args.trace:
            passes, misses, metrics, units, extra = run_traced(plan, prog, args, probe)
        else:
            passes, misses, metrics, units, extra = run_untraced(
                plan, prog, args, probe, peak_of_children=args.workload == "cli-cold")
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            os.rmdir(os.path.dirname(workdir))
    result = result_line(passes, misses, metrics, units)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6f} {unit}")
    if "op_p50_s" in extra:
        print(f"  {'op_p50_s':40s} {extra['op_p50_s']:>16.6f} s (median of {extra['op_samples']} ops)")
        print(f"  {'op_tail_s':40s} {extra['op_tail_s']:>16.6f} s"
              f" (p{extra['op_tail_percentile']} of {extra['op_samples']} ops)")
    print(f"  {'ops_failed_ratio':40s} {result['failed'] / result['attempted']:>16.6f}"
          f" ({result['failed']}/{result['attempted']})")
    for label, ms in sorted({lb: ms for p in passes for lb, ms in p.misses.items()}.items()):
        print(f"  miss {label}: {'; '.join(ms)}")
    for m in misses:
        print(f"  miss {m}")
    print("provenance " + json.dumps(provenance(args.workload, args, passes, extra)))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="lowest rungs, one pass")
    parser.add_argument("--prepare", metavar="MANIFEST", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.prepare:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
