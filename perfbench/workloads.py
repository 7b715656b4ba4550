"""The four workloads: inputs drawn from the seed, one pass of operations each.

The seed picks targets (``u``/``y``) of the lower rungs, braid indices,
which certificate of a verify-replay pair is tampered with and how, and
the order of operations.  It never changes the ladders.  A ``u`` and a
``y`` root of one genus differ in size by a few percent, so the seed
moves the work of the lower rungs a little; the items that set
``top_s`` are built or verified for both targets in every pass, so their
work does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import traceback
from typing import Callable

import expect

# The ROADMAP ladder is standard genus 5..25, hybrid 4..20 and braids on
# 5..11 punctures.  One full standard ladder takes about 26 s on a 2-core
# Xeon, so the rungs between the lower ones and the top are left out; the
# top rungs (standard 25, hybrid 20) stay and are built for both targets.
# Each ladder is (lower rungs, top rung).
STANDARD_LADDER = (tuple(range(5, 14)), 25)
HYBRID_LADDER = ((4, 6, 8, 10, 12), 20)
# About the length of one pass at the seed commit on a 2-core Xeon whose
# speed varied by up to 2x over minutes; ``--seconds`` fixes the number of
# passes through it, so the parent and a change always make the same
# number of passes (and so the same percentiles).
NOMINAL_PASS_S = {
    "build-standard": 12.0,
    "build-hybrid-braid": 6.5,
    "verify-replay": 10.0,
    "cli-cold": 8.5,
}
BRAID_PUNCTURES = tuple(range(5, 12))
# verify-replay: lower rungs for both targets plus one tampered copy, the
# standard top rung for both targets (two top samples a pass) and hybrid
# 20.  Standard genus 25 is left out: its one verify takes 13-22 s, a
# single sample a run whose spread over ten seeds (27%) exceeded the 25%
# bound; genus 25 stays the top rung of build-standard.
VERIFY_STANDARD = (5, 7, 9, 11, 13)
VERIFY_STANDARD_TOP = 17
VERIFY_HYBRID = (4, 8, 12)
VERIFY_HYBRID_TOP = 20
RELATION_GENERA = (6, 9, 12)

SMOKE = {
    "standard": ((5,), 6),
    "hybrid": ((4,), 6),
    "braids": (5, 6),
    "verify_standard": (5,),
    "verify_hybrid": (4,),
    "relation_genera": (6,),
}

CHILD_TIMEOUT_S = 120


@dataclasses.dataclass
class Tally:
    """Exact sizes of the certificate text one pass wrote or read."""

    cert_bytes: int = 0
    cert_steps: int = 0
    start_syllables: int = 0
    rungs: dict = dataclasses.field(default_factory=dict)

    def add(self, label: str, size: dict) -> None:
        self.cert_bytes += size["bytes"]
        self.cert_steps += size["steps"]
        self.start_syllables += size["start_syllables"]
        self.rungs[label] = size

    def counts(self) -> tuple[int, int, int]:
        return self.cert_bytes, self.cert_steps, self.start_syllables


def certificate_size(certificate, text: str) -> dict:
    """Steps and start syllables of a certificate, bytes of its text."""
    return {
        "steps": len(certificate.steps),
        "start_syllables": len(certificate.start.syllables),
        "bytes": len(text.encode()),
    }


@dataclasses.dataclass
class Op:
    """One user-visible operation: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object, Tally], list[str]]


@dataclasses.dataclass
class Plan:
    ops: list[Op]
    top: tuple[str, ...]  # labels of the largest item
    # cli-cold replays its argv list in-process when traced
    traced_ops: list[Op] | None = None


class Program:
    """The mcgroots package of one checkout, imported from its ``src``."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        sys.path.insert(0, self.src)
        import mcgroots.cli  # noqa: F401  (loads every layer module)

        pkg = sys.modules["mcgroots"]
        self.cli, self.roots = pkg.cli, pkg.roots
        self.presentation, self.words = pkg.presentation, pkg.words
        # Module-level memo caches (functools.lru_cache and the like), found
        # before any tracer wraps them; ``reset`` empties them.
        caches = {}
        for name, module in list(sys.modules.items()):
            if name == "mcgroots" or name.startswith("mcgroots."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        caches[id(value)] = value.cache_clear
        self._cache_clears = list(caches.values())

    def reset(self) -> None:
        """Put the process in the state of a fresh ``mcgroots`` call before an
        operation: empty memo caches (the per-genus homology tables, say) and
        no garbage left by the operation before."""
        for cache_clear in self._cache_clears:
            cache_clear()
        gc.collect()

    def child_env(self, extra: dict | None = None) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "MCGROOTS_SCAN_BOUND"}
        env["PYTHONPATH"] = self.src
        env.update(extra or {})
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run_cold(self, argv: list[str], env: dict | None = None) -> tuple[int, str, str]:
        done = subprocess.run(
            [sys.executable, "-m", "mcgroots.cli", *argv],
            cwd=self.root,
            env=self.child_env(env),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return done.returncode, done.stdout, done.stderr

    def run_inproc(self, argv: list[str], env: dict | None = None) -> tuple[int, str, str]:
        """``cli.main`` in this process; an escaping exception maps to what
        the interpreter would do with it: a traceback and exit code 1."""
        env = env or {}
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # the CLI boundary: record, never abort the run
            code = 1
            err.write(traceback.format_exc())
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return code, out.getvalue(), err.getvalue()


def _build_op(prog: Program, genus: int, target: str, complement: str) -> Op:
    label = f"root {complement} g{genus} {target}1"

    def call():
        result = prog.roots.construct_root(prog.roots.RootRequest(genus, target, complement))
        return result, prog.presentation.certificate_to_text(result.certificate)

    def check(outcome, tally):
        result, text = outcome
        tally.add(label, certificate_size(result.certificate, text))
        return expect.check_root_result(result, genus, f"{target}1", complement)

    return Op(label, call, check)


def _braid_op(prog: Program, punctures: int, index: int) -> Op:
    label = f"braid n{punctures} i{index}"

    def call():
        result = prog.roots.construct_braid_root(punctures, index)
        return result, prog.presentation.certificate_to_text(result.certificate)

    def check(outcome, tally):
        result, text = outcome
        tally.add(label, certificate_size(result.certificate, text))
        return expect.check_root_result(result, punctures, f"u{index}", "nonorientable")

    return Op(label, call, check)


def _ladder_ops(prog: Program, rng, ladder, complement: str) -> tuple[list[Op], tuple]:
    """A seed-chosen target on each lower rung, both targets on the top one."""
    lower, top_genus = ladder
    ops = [_build_op(prog, g, rng.choice("uy"), complement) for g in lower]
    tops = [_build_op(prog, top_genus, target, complement) for target in "uy"]
    return ops + tops, tuple(op.label for op in tops)


def build_standard(prog: Program, rng, smoke: bool) -> Plan:
    ops, top = _ladder_ops(prog, rng, SMOKE["standard"] if smoke else STANDARD_LADDER, "nonorientable")
    rng.shuffle(ops)
    return Plan(ops, top)


def build_hybrid_braid(prog: Program, rng, smoke: bool) -> Plan:
    ops, top = _ladder_ops(prog, rng, SMOKE["hybrid"] if smoke else HYBRID_LADDER, "orientable")
    punctures = SMOKE["braids"] if smoke else BRAID_PUNCTURES
    ops += [_braid_op(prog, n, rng.randint(1, n - 1)) for n in punctures]
    rng.shuffle(ops)
    return Plan(ops, top)


def _cli_op(prog: Program, label: str, argv: list[str], want: dict, size=None, env=None, cold=False,
            emits: str | None = None) -> Op:
    """One ``mcgroots`` call.  ``size`` is the certificate it reads or
    writes; ``emits`` is the text its ``--emit-certificate`` file must hold."""
    run = prog.run_cold if cold else prog.run_inproc

    def check(outcome, tally):
        misses = expect.check_cli(want, *outcome)
        if size is not None:
            tally.add(label, size)
        if emits is not None:
            path = argv[argv.index("--emit-certificate") + 1]
            try:
                with open(path, encoding="utf-8") as handle:
                    emitted = handle.read()
                os.remove(path)
            except OSError:
                emitted = None
            if emitted != emits:
                misses.append("certificate: the emitted certificate differs from construct_root's")
        return misses

    return Op(label, lambda: run(argv, env), check)


def _certificate_case(prog: Program, genus: int, target: str, complement: str, path: str) -> dict:
    """Build a root, write its certificate, and return the ``verify`` call for it."""
    result = prog.roots.construct_root(prog.roots.RootRequest(genus, target, complement))
    text = prog.presentation.certificate_to_text(result.certificate)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    hybrid = result.case == "even_orientable"
    fmt = prog.words.format_word
    argv = [
        "verify", "--genus", str(genus), "--model", "hybrid" if hybrid else "standard",
        "--word", fmt(result.root), "--power", str(result.degree),
        "--equals", fmt(result.target), "--certificate", path, "--json",
    ]
    return {
        "label": f"verify {'hybrid' if hybrid else 'standard'} g{genus} {target}1",
        "argv": argv,
        "expect": expect.expect_verify(hybrid, result.degree, True),
        "size": certificate_size(result.certificate, text),
        "text": text,
    }


def _tamper(case: dict, rng, how: str) -> dict:
    """A copy whose certificate must be refuted: one schema step runs the
    wrong way (no relation has equal sides, so the window cannot match),
    or the end word is changed."""
    lines = case["text"].splitlines()
    if how == "end":
        lines[3] = f"end {lines[3].split()[1]}^3"
    else:
        k = rng.choice([n for n, line in enumerate(lines) if line.startswith("step ")])
        words = lines[k].split(" ")
        words[-1] = "bwd" if words[-1] == "fwd" else "fwd"
        lines[k] = " ".join(words)
    text = "\n".join(lines) + "\n"
    argv = list(case["argv"])
    path = argv[argv.index("--certificate") + 1].replace(".cert", f".{how}.cert")
    argv[argv.index("--certificate") + 1] = path
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    hybrid = "hybrid" in argv
    return {
        "label": f"{case['label']} tampered-{how}",
        "argv": argv,
        "expect": expect.expect_verify(hybrid, int(argv[argv.index("--power") + 1]), False),
        "size": dict(case["size"], bytes=len(text.encode())),
    }


def prepare_verify(prog: Program, rng, smoke: bool) -> dict:
    """Set-up of verify-replay (run in a child process, untimed): the
    certificates, their ``verify`` calls and the label of the top item.

    Each lower rung is verified for both targets, and a copy of one of the
    two (the seed picks which, and whether a step or the end word is
    edited) is tampered with; the standard top rung is verified for both
    targets and the hybrid one for a seed-chosen target.
    """
    standard = SMOKE["verify_standard"] if smoke else VERIFY_STANDARD
    hybrid = SMOKE["verify_hybrid"] if smoke else VERIFY_HYBRID
    cases = []
    rungs = [(g, "nonorientable") for g in standard] + [(g, "orientable") for g in hybrid]
    for genus, complement in rungs:
        pair = [_certificate_case(prog, genus, target, complement,
                                  prog.path(f"{complement}-{genus}-{target}.cert"))
                for target in "uy"]
        cases += pair + [_tamper(rng.choice(pair), rng, rng.choice(("step", "end")))]
    if smoke:
        top = [cases[0]["label"]]
    else:
        tops = [_certificate_case(prog, VERIFY_STANDARD_TOP, target, "nonorientable",
                                  prog.path(f"top-{target}.cert")) for target in "uy"]
        top = [case["label"] for case in tops]
        cases += tops + [_certificate_case(prog, VERIFY_HYBRID_TOP, rng.choice("uy"), "orientable",
                                           prog.path("hybrid-top.cert"))]
    for genus in SMOKE["relation_genera"] if smoke else RELATION_GENERA:
        cases.append({
            "label": f"relations g{genus}",
            "argv": ["relations", "--genus", str(genus), "--json"],
            "expect": expect.EXPECT_RELATIONS,
            "size": None,
        })
    rng.shuffle(cases)
    return {
        "top": top,
        "cases": [{key: value for key, value in case.items() if key != "text"} for case in cases],
    }


def verify_replay(prog: Program, manifest: str) -> Plan:
    with open(manifest, encoding="utf-8") as handle:
        manifest_data = json.load(handle)
    ops = [_cli_op(prog, c["label"], c["argv"], c["expect"], c["size"])
           for c in manifest_data["cases"]]
    return Plan(ops, tuple(manifest_data["top"]))


def cli_cold(prog: Program, rng, smoke: bool) -> Plan:
    """A fixed list of cold ``mcgroots`` calls: every exit class, input errors
    included.  ``MCGROOTS_SCAN_BOUND=abc`` prints a traceback at the seed
    commit (a known defect), which the gate counts as a failed operation."""
    t = lambda: rng.choice("uy")  # noqa: E731
    calls: list[tuple[str, list[str], dict, dict | None]] = []

    def add(label, argv, want, env=None):
        calls.append((label, argv + ["--json"], want, env))

    if not smoke:
        add("small-genus g2", ["small-genus", "--genus", "2", "--target", t()], expect.EXPECT_NO_ROOT)
    # every scan bound 2..6 (5 is the default), so the seed never changes
    # how much scanning a pass does; the largest, the top item, for both
    # targets, so a run has twice as many top samples
    scans = ((None, t()), (2, t()), (3, t()), (4, t()), (6, "u"), (6, "y"))
    for bound, target in (() if smoke else scans):
        extra = [] if bound is None else ["--scan-bound", str(bound)]
        add(f"small-genus g3 bound{bound or 5} {target}1",
            ["small-genus", "--genus", "3", "--target", target] + extra, expect.EXPECT_NO_ROOT)
    sizes, emits = {}, {}
    for genus, complement in (((3, "auto"), (5, "auto")) if smoke else
                              ((2, "auto"), (3, "auto"), (4, "nonorientable"), (5, "auto"),
                               (6, "orientable"), (7, "auto"), (9, "auto"))):
        label, target = f"root g{genus} {complement}", t()
        argv = ["root", "--genus", str(genus), "--target", target, "--complement", complement]
        if genus in (5, 9):  # the emitted certificate must be the library's
            argv += ["--emit-certificate", prog.path(f"cold-root-{genus}.cert")]
            result = prog.roots.construct_root(prog.roots.RootRequest(genus, target, complement))
            emits[label] = prog.presentation.certificate_to_text(result.certificate)
            sizes[label] = certificate_size(result.certificate, emits[label])
        add(label, argv, expect.expect_root(genus, complement))
    for n in (() if smoke else (3, 4, 5, 8)):
        argv = ["braid-root", "--punctures", str(n), "--index", str(rng.randint(1, n - 1))]
        add(f"braid-root n{n}", argv, expect.expect_braid(n))
    for genus, complement in (() if smoke else ((7, "nonorientable"), (6, "orientable"))):
        case = _certificate_case(prog, genus, t(), complement, prog.path(f"cold-verify-{genus}.cert"))
        sizes[case["label"]] = case["size"]
        calls.append((case["label"], case["argv"], case["expect"], None))
    bad = "verify --genus 5 --power 3 --equals u1 --word".split()
    add("bad letter", bad + ["u1 x2"], expect.EXPECT_INPUT_ERROR)
    if not smoke:
        add("unmatched paren", bad + ["(u1 u3"], expect.EXPECT_INPUT_ERROR)
        add("genus 1", ["root", "--genus", "1"], expect.EXPECT_INPUT_ERROR)
    add("MCGROOTS_SCAN_BOUND=abc", ["small-genus", "--genus", "3"], expect.EXPECT_INPUT_ERROR,
        {"MCGROOTS_SCAN_BOUND": "abc"})
    rng.shuffle(calls)

    def ops(cold: bool) -> list[Op]:
        return [_cli_op(prog, label, argv, want, sizes.get(label), env, cold, emits.get(label))
                for label, argv, want, env in calls]

    top = ("root g5 auto",) if smoke else ("small-genus g3 bound6 u1", "small-genus g3 bound6 y1")
    return Plan(ops(True), top, traced_ops=ops(False))
