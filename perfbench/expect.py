"""Correctness gate: expected outcomes derived from the paper's verdict table.

| genus     | complement    | root degree | case               |
|-----------|---------------|-------------|--------------------|
| 2, 3      | -             | none        | -                  |
| 4         | nonorientable | none        | -                  |
| even >= 4 | orientable    | g - 1       | even_orientable    |
| odd >= 5  | nonorientable | g - 2       | odd                |
| even >= 6 | nonorientable | g - 3       | even_nonorientable |

Every check function returns a list of misses, each prefixed with its
kind.  ``traceback`` misses (an operation ended with the right exit code
but printed a Python traceback) count as failed operations without
making the output wrong; every other kind does both.
"""

from __future__ import annotations

import json

PASS, FAIL, NA = "pass", "fail", "n/a"
TRACEBACK = "Traceback (most recent call last)"


def is_wrong(miss: str) -> bool:
    """True for misses that make an output wrong, not merely unclean."""
    return not miss.startswith("traceback:")


def verdict_table(genus: int, complement: str) -> tuple[str, int] | None:
    """``(case, degree)`` of the root of u1/y1, or None where none exists.

    ``complement`` is ``auto``, ``nonorientable`` or ``orientable``; auto
    resolves as the ``root`` command does (genus 4 has only the
    orientable-complement root).
    """
    if genus <= 3:
        return None
    if complement == "auto":
        complement = "orientable" if genus == 4 else "nonorientable"
    if complement == "orientable":
        return ("even_orientable", genus - 1) if genus % 2 == 0 else None
    if genus == 4:
        return None
    return ("odd", genus - 2) if genus % 2 else ("even_nonorientable", genus - 3)


def expected_checks(hybrid: bool, certificate: str = PASS, nontriviality: str = PASS) -> dict:
    """All five checks pass; ``n/a`` exactly for hybrid permutation and homology."""
    oracle = NA if hybrid else PASS
    return {
        "sign": PASS,
        "permutation": oracle,
        "homology": oracle,
        "certificate": certificate,
        "nontriviality": nontriviality,
    }


def _word_text(word) -> str:
    # not words.format_word: the gate must add no spans to a traced run
    return " ".join(str(letter) if exp == 1 else f"{letter}^{exp}" for letter, exp in word.syllables)


def check_root_result(result, genus: int, target: str, complement: str) -> list[str]:
    """A library ``RootResult`` against the verdict table (target like ``u1``)."""
    expected = verdict_table(genus, complement)
    misses = []
    if expected is None:
        return [f"verdict: genus {genus} {complement} built a root the paper rules out"]
    if (result.case, result.degree) != expected:
        misses.append(f"verdict: case/degree {(result.case, result.degree)} != {expected}")
    if _word_text(result.target) != target:
        misses.append(f"verdict: target {_word_text(result.target)} != {target}")
    checks = result.report.checks()
    if checks != expected_checks(result.case == "even_orientable"):
        misses.append(f"verdict: checks {checks}")
    return misses


# Expectations for one ``mcgroots`` call: exit code plus, for 0 and 2, the
# fields the JSON report must carry.
def expect_root(genus: int, complement: str) -> dict:
    found = verdict_table(genus, complement)
    if found is None:
        return {"exit": 2, "verdict": "no-nontrivial-root"}
    return {
        "exit": 0,
        "verdict": "root-exists",
        "degree": found[1],
        "checks": expected_checks(found[0] == "even_orientable"),
    }


def expect_braid(punctures: int) -> dict:
    return expect_root(punctures, "nonorientable") if punctures >= 5 else {
        "exit": 2,
        "verdict": "no-nontrivial-root",
    }


def expect_verify(hybrid: bool, degree: int, genuine: bool) -> dict:
    return {
        "exit": 0 if genuine else 2,
        "verdict": "verified" if genuine else "refuted",
        "degree": degree,
        "checks": expected_checks(hybrid, PASS if genuine else FAIL, NA),
    }


EXPECT_NO_ROOT = {"exit": 0, "verdict": "no-nontrivial-root"}
EXPECT_RELATIONS = {"exit": 0, "verdict": "all-relations-hold"}
EXPECT_INPUT_ERROR = {"exit": 1}


def check_cli(expect: dict, code: int, out: str, err: str) -> list[str]:
    """One ``mcgroots ... --json`` outcome against its expectation."""
    misses = []
    if TRACEBACK in err:
        misses.append(f"traceback: {err.strip().splitlines()[-1]}")
    if code != expect["exit"]:
        return misses + [f"exit: got {code}, expected {expect['exit']}"]
    if code == 1:
        if not misses and "error" not in err:
            misses.append("verdict: exit 1 without an error message")
        return misses
    try:
        report = json.loads(out)
    except ValueError:
        return misses + ["verdict: report is not JSON"]
    for key in ("verdict", "degree", "checks"):
        if key in expect and report.get(key) != expect[key]:
            misses.append(f"verdict: {key} {report.get(key)!r} != {expect[key]!r}")
    if report.get("failures"):
        misses.append(f"verdict: relation failures {report['failures'][:3]}")
    return misses
