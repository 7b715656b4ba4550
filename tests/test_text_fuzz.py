"""Fuzzed text inputs end in a value or a clean error, never a stray exception."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

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
from mcgroots.roots import RootRequest, construct_root
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


@st.composite
def mutated_certificates(draw):
    """A genuine genus-5 certificate with one line changed; header lines are drawn more often."""
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
