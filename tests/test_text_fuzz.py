"""Fuzzed text inputs end in a value or a clean error, never a stray exception."""

from __future__ import annotations

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcgroots.cli import main
from mcgroots.presentation import (
    Certificate,
    CertificateError,
    certificate_from_text,
    certificate_to_text,
)
from mcgroots.roots import (
    FAIL,
    PASS,
    RootRequest,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from mcgroots.words import SurfaceModel, Word, WordError, parse_word

# Pieces of the word grammar, and look-alikes it must refuse: non-ASCII digits,
# underscores, plus signs, a non-ASCII space and a numeral over the int limit.
_PIECES = (
    "t", "u", "y", "c", "u1", "t2", "^", "^-", "1", "2", "0", "(", ")", " ",
    "\u00b2", "\u0663", "_0", "+1", "\u00a0", "9" * 5000,
)
TEXT = st.text(max_size=24) | st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
_NUMERALS = st.sampled_from(("7", "-3", "0", "01", "-0", " 1", "+1", "1_0", "\u00b2", "\u0663", "9" * 5000))

GENUINE = certificate_to_text(construct_root(RootRequest(5, "u", "auto")).certificate)
LINES = GENUINE.splitlines()
# A braid certificate with block lines: one block insert and two block deletes.
BRAID_LINES = certificate_to_text(construct_braid_root(7, 3).certificate).splitlines()
BLOCK_LINES = [k for k, line in enumerate(BRAID_LINES) if line.startswith("block ")]


@st.composite
def mutated_certificates(draw):
    """A genuine genus-5 root or genus-7 braid certificate with one line changed.

    Header lines, and the braid's block lines, are drawn more often.
    """
    if draw(st.booleans()):
        lines = list(BRAID_LINES)
        n = draw(st.integers(1, 3) | st.integers(0, len(lines) - 1) | st.sampled_from(BLOCK_LINES))
    else:
        lines = list(LINES)
        n = draw(st.integers(1, 3) | st.integers(0, len(lines) - 1))
    line = lines[n]
    numerals = [m.span() for m in re.finditer("[0-9]+", line)]
    how = draw(st.sampled_from(("numeral", "rest", "insert", "truncate")))
    if how == "numeral" and numerals:
        a, b = draw(st.sampled_from(numerals))
        lines[n] = line[:a] + draw(_NUMERALS) + line[b:]
    elif how == "rest":
        # keep the line's tag, fuzz the rest
        lines[n] = line.split(" ")[0] + " " + draw(TEXT)
    else:
        k = draw(st.integers(0, len(line)))
        lines[n] = line[:k] + draw(st.sampled_from(_PIECES)) + line[k:] if how == "insert" else line[:k]
    return "\n".join(lines) + "\n"


# Fields of a move line: positions and lengths in and out of range, numerals
# ``str(int)`` never writes, and directions.
_MOVE_FIELDS = st.sampled_from(
    ("0", "1", "2", "3", "5", "7", "-1", "01", "+1", "x", "9" * 5000, "fwd", "bwd", "fwx", "")
)


@st.composite
def move_certificates(draw):
    """A genuine genus-5 certificate with one step line replaced by a drawn move line."""
    lines = list(LINES)
    n = draw(st.integers(4, len(lines) - 1))
    fields = draw(
        st.tuples(_MOVE_FIELDS, _MOVE_FIELDS, st.sampled_from(("fwd", "bwd"))).map(list)
        | st.lists(_MOVE_FIELDS, max_size=4)
    )
    lines[n] = " ".join(["move"] + fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(move_certificates())
def test_move_lines_parse_and_replay_to_a_verdict_or_a_clean_error(text):
    try:
        certificate = certificate_from_text(text)
    except CertificateError as exc:
        assert re.match(r"line \d+: ", str(exc))
        return
    report = verify_identity(certificate.start, 1, certificate.end, certificate)
    assert report.certificate in (PASS, FAIL)


# The gather line of the genus-5 root certificate, and its fields.
GATHER_LINE = next(k for k, line in enumerate(LINES) if line.startswith("gather "))
_GATHER = LINES[GATHER_LINE].split(" ")[1:]


def _edited_numeral(value: str) -> st.SearchStrategy:
    """A numeral near ``value``, far from it, or one ``str(int)`` never writes."""
    near = st.integers(-2, 2).map(lambda d: str(int(value) + d))
    return near | st.integers(-1, 10**6).map(str) | _MOVE_FIELDS | _NUMERALS


@st.composite
def gather_certificates(draw):
    """The genus-5 root certificate with its gather line's fields edited, or the
    line moved to another step's place: position, length, copies and direction."""
    lines = list(LINES)
    fields = [draw(_edited_numeral(value)) for value in _GATHER[:3]]
    fields.append(draw(st.sampled_from(("fwd", "bwd", "fwx", ""))))
    if draw(st.integers(0, 4)) == 0:  # a field left out or one too many
        k = draw(st.integers(0, 3))
        fields = fields[:k] + fields[k + 1 :] if draw(st.booleans()) else fields + [fields[k]]
    n = GATHER_LINE if draw(st.integers(0, 3)) else draw(st.integers(4, len(lines) - 1))
    lines[n] = " ".join(["gather"] + fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gather_certificates())
def test_cli_verify_of_an_edited_gather_ends_in_a_verdict_or_exit_one(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--genus", "5", "--word", "u4^-1 u3^-1 u1", "--power", "3",
                "--equals", "u1", "--certificate", path]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert re.match(r"error: line \d+: ", err.getvalue()), err.getvalue()
    else:
        assert ("verdict: verified" if code == 0 else "verdict: refuted") in out.getvalue()


@st.composite
def step_and_free_certificates(draw):
    """A genuine certificate with one field of a ``step``, ``free`` or ``block`` line redrawn.

    Returns the text and the 1-based number of the changed line.
    """
    lines = list(draw(st.sampled_from((LINES, BRAID_LINES))))
    tags = ("step ", "free ", "block ")
    n = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith(tags)]))
    tokens = lines[n].split(" ")
    k = draw(st.integers(1, len(tokens) - 1))
    tokens[k] = draw(
        _MOVE_FIELDS
        | _NUMERALS
        | st.sampled_from(("u01", "u0", "x1", "u8", "(u1", "R2", "insrt", "merge"))
    )
    lines[n] = " ".join(tokens)
    return "\n".join(lines) + "\n", n + 1


@settings(max_examples=300)
@given(step_and_free_certificates())
def test_a_bad_step_or_free_line_is_named(case):
    text, n = case
    try:
        certificate_from_text(text)
    except CertificateError as exc:
        assert str(exc).startswith(f"line {n}: "), exc


@settings(max_examples=300)
@given(TEXT, st.sampled_from((SurfaceModel.standard(5), SurfaceModel.hybrid(6))))
def test_parse_word_yields_a_word_or_a_word_error(text, model):
    try:
        word = parse_word(text, model)
    except WordError:
        return
    assert isinstance(word, Word)


@settings(max_examples=500)
@given(TEXT | mutated_certificates())
def test_certificate_text_yields_a_certificate_or_a_clean_error(text):
    try:
        certificate = certificate_from_text(text)
    except (WordError, CertificateError):
        return
    assert isinstance(certificate, Certificate)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(TEXT)
def test_cli_verify_word_ends_in_an_exit_code(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--genus", "5", "--word", text, "--power", "1", "--equals", "u1"])
    assert code in (0, 1, 2)
    if code == 1 and not err.getvalue().startswith("usage:"):
        # the word is the only free input, so the parser refused it, and the
        # CLI prints the parser's message
        with pytest.raises(WordError) as info:
            parse_word(text, SurfaceModel.standard(5))
        assert err.getvalue() == f"error: {info.value}\n"


def _mostly(good: st.SearchStrategy, bad: st.SearchStrategy) -> st.SearchStrategy:
    """Draws from ``good``, and one time in five from ``bad``."""
    return st.tuples(st.integers(0, 4), good, bad).map(lambda t: t[1] if t[0] else t[2])


# Numerals ``str(int)`` never writes, for every integer flag and the variable.
_BAD_NUMERALS = st.sampled_from(("+5", "05", "\u0665", "1_0", "-0", " 7", "", "x"))
# Word text with grouped powers up to ^9, or pieces that may not parse.
_EXPONENTS = st.sampled_from(("", "^2", "^-1", "^9", "^-9"))
_LETTERS = _mostly(
    st.sampled_from(("u1", "u2", "u3", "t1", "y1")), st.sampled_from(("c1", "c3", "u12"))
)
_TERMS = st.tuples(_LETTERS, _EXPONENTS).map("".join)
_GROUPS = st.tuples(st.lists(_TERMS, min_size=1, max_size=3).map(" ".join), _EXPONENTS).map(
    lambda pair: f"({pair[0]}){pair[1]}"
)
_WORDS = _mostly(
    st.lists(_TERMS | _GROUPS, max_size=4).map(" ".join),
    st.lists(st.sampled_from(("u1", "(", ")", "^9", "^-", "^0")), max_size=6).map("".join),
)


def _numerals(low: int, high: int) -> st.SearchStrategy:
    return _mostly(st.integers(low, high).map(str), _BAD_NUMERALS)


@st.composite
def _argv(draw, paths):
    """argv for one subcommand: genus <= 13, |power| <= 60, scan bound <= 6, files in ``paths``."""
    genus = _numerals(0, 13)
    path = st.sampled_from(paths)
    flags = {
        "root": (
            ("--genus", genus, True),
            ("--target", _mostly(st.sampled_from(("u", "y")), st.just("t")), False),
            ("--complement", st.sampled_from(("auto", "nonorientable", "orientable")), False),
            ("--emit-certificate", path, False),
        ),
        "relations": (("--genus", genus, True),),
        "small-genus": (
            ("--genus", _numerals(1, 4), True),
            ("--target", st.sampled_from(("u", "y")), False),
            ("--scan-bound", _numerals(-1, 6), False),
        ),
        "braid-root": (
            ("--punctures", genus, True),
            ("--index", _numerals(-1, 13), False),
            ("--emit-certificate", path, False),
        ),
        "verify": (
            ("--genus", genus, True),
            ("--model", st.sampled_from(("standard", "hybrid")), False),
            ("--word", _WORDS, True),
            ("--power", _numerals(-60, 60), True),
            ("--equals", _WORDS, True),
            ("--certificate", path, False),
        ),
    }
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, values, required in flags[command]:
        # a required flag is rarely left out, an optional one often
        if draw(st.integers(0, 19)) < (19 if required else 8):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def test_cli_main_ends_in_an_exit_code(tmp_path):
    cert = str(tmp_path / "cert.txt")
    paths = (cert, cert, str(tmp_path / "missing" / "cert.txt"), str(tmp_path))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(paths), st.none() | _numerals(-1, 6))
    def run(argv, scan_bound):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("MCGROOTS_SCAN_BOUND", None)
            if scan_bound is not None:
                os.environ["MCGROOTS_SCAN_BOUND"] = scan_bound
            code = main(argv)
        assert code in (0, 1, 2), (argv, scan_bound, err.getvalue())

    run()
