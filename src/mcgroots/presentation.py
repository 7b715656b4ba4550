"""Relation schemas and replayable rewrite certificates.

Schemas
-------

Each schema names a family of relation instances ``lhs = rhs`` between
words of one model, parameterized by generator indices (and, for the
commutation schemas, by the two syllable exponents, since ``xz = zx``
entails ``x^a z^b = z^b x^a``):

==================  =======================  =====================================
id                  params                   instance
==================  =======================  =====================================
R1                  i j a b                  u_i^a u_j^b = u_j^b u_i^a, j - i > 1
R2                  i                        u_i u_{i+1} u_i = u_{i+1} u_i u_{i+1}
R3                  --                       (u_1 .. u_{g-1})^g = 1
R4a                 i j a b                  t_i^a u_j^b = u_j^b t_i^a, |i-j| > 1
R4b                 i j a b                  y_i^a u_j^b = u_j^b y_i^a, |i-j| > 1
R5                  --                       (u_1^2 u_2 .. u_{g-1})^{g-1} = 1
R6closed-odd        --                       u_1^2 = (u_3 .. u_{g-1})^{g-2}, g odd
R6closed-even       --                       u_1^2 = (u_3^2 u_4 .. u_{g-1})^{g-3},
                                             g even >= 6
R7chain             --                       u_1^2 = (c_1 .. c_{g-2})^{2g-2}
SlideDef            i                        y_i = t_i u_i
UsquaredYsquared    i                        u_i^2 = y_i^2
ChainCommute        kind k a b               x_1^a c_k^b = c_k^b x_1^a, x in t/u/y
==================  =======================  =====================================

R6closed-odd/-even express the boundary twist of the Klein bottle around
crosscaps 1, 2 through the transposition chain of the nonorientable
complement; R7chain expresses the same twist through the twist chain of
the orientable complement (hybrid model).  R6closed-odd degenerates at
genus 3 to ``u_1^2 = 1``, the triviality of the twist about a curve
bounding a Moebius band.

Certificates
------------

A :class:`Certificate` carries a start word, an end word, and a step list.
Replaying the steps transforms the start syllable sequence into the end
syllable sequence exactly.  Steps address syllables by position in the
current (not necessarily reduced) working sequence and come in two forms:

* schema steps replace a literal occurrence of one side of a relation
  instance by the other side (``forward``: lhs -> rhs); an occurrence of
  the formal inverse of the pattern is likewise accepted and replaced by
  the inverse of the other side, which is sound since ``L = R`` entails
  ``L^-1 = R^-1``;
* free steps perform free-group bookkeeping: ``insert``/``delete`` a
  canceling syllable pair, ``merge`` two adjacent equal-letter syllables,
  ``split`` one syllable in two.  ``merge`` and ``split`` carry the
  exponent of the first fragment, which makes every step invertible with
  its own parameters, so a certificate replays backwards mechanically.

Text format (one item per line, words in the module grammar)::

    model standard          | model hybrid
    genus <g>
    start <word>
    end <word>
    step <pos> <schemaId> <params...> <fwd|bwd>
    free <insert|delete|merge|split> <pos> <letter> <exp>

Serialization round-trips bit-exactly.
"""

from __future__ import annotations

import dataclasses
import re
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .words import (
    GeneratorLetter,
    SurfaceModel,
    Syllable,
    Word,
    WordError,
    format_word,
    parse_word,
)

__all__ = [
    "Certificate",
    "CertificateError",
    "FreeStep",
    "RelationInstance",
    "RewriteStep",
    "SCHEMA_IDS",
    "SchemaError",
    "SchemaStep",
    "apply_step",
    "certificate_from_text",
    "certificate_to_text",
    "commute_step",
    "instantiate",
    "invert_step",
    "relation_catalog",
    "replay_certificate",
]

SCHEMA_IDS = (
    "R1",
    "R2",
    "R3",
    "R4a",
    "R4b",
    "R5",
    "R6closed-odd",
    "R6closed-even",
    "R7chain",
    "SlideDef",
    "UsquaredYsquared",
    "ChainCommute",
)

# Parameter layout per schema: i = integer, k = letter kind character.
_PARAM_SPEC = {
    "R1": "iiii",
    "R2": "i",
    "R3": "",
    "R4a": "iiii",
    "R4b": "iiii",
    "R5": "",
    "R6closed-odd": "",
    "R6closed-even": "",
    "R7chain": "",
    "SlideDef": "i",
    "UsquaredYsquared": "i",
    "ChainCommute": "kiii",
}

_FREE_OPS = ("insert", "delete", "merge", "split")


class SchemaError(ValueError):
    """Unknown schema, bad arity, or violated side condition."""


class CertificateError(ValueError):
    """A certificate step that cannot be applied to the working sequence."""


@dataclasses.dataclass(frozen=True)
class RelationInstance:
    """One concrete relation ``lhs = rhs`` of a model's presentation."""

    schema: str
    params: tuple
    model: SurfaceModel
    lhs: Word
    rhs: Word


def _gen(kind: str, index: int) -> GeneratorLetter:
    return GeneratorLetter(kind, index)


def _word(model: SurfaceModel, syllables: Iterable[Syllable]) -> Word:
    return Word(model, tuple(syllables))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def instantiate(schema: str, params, model: SurfaceModel) -> RelationInstance:
    """Build a relation instance, validating all side conditions.

    Instances are memoized per ``(schema, params, genus, kind)``; they are
    frozen, so callers share them safely.  Integer parameters are stored
    as ``int``, so a ``bool`` shares the entry of its integer; keys compare
    by value, so a float equal to an integer also hits that integer's entry
    once it is cached.  Unhashable parameters are validated and built
    without the memo, and a call that raises :class:`SchemaError` raises
    again on every call.
    """
    params = tuple(params)
    try:
        return _cached_instance(schema, params, model.genus, model.kind)
    except TypeError:
        return _build_instance(schema, params, model)


@lru_cache(maxsize=4096)
def _cached_instance(schema: str, params: tuple, genus: int, kind: str) -> RelationInstance:
    return _build_instance(schema, params, SurfaceModel(genus, kind))


def _build_instance(schema: str, params: tuple, model: SurfaceModel) -> RelationInstance:
    spec = _PARAM_SPEC.get(schema)
    if spec is None:
        raise SchemaError(f"unknown schema {schema!r}")
    if len(params) != len(spec):
        raise SchemaError(f"{schema} takes {len(spec)} parameters, got {len(params)}")
    for value, code in zip(params, spec):
        if code == "i":
            _require(isinstance(value, int), f"{schema}: integer parameter expected, got {value!r}")
        else:
            _require(value in ("t", "u", "y"), f"{schema}: letter kind t/u/y expected, got {value!r}")
    params = tuple(int(v) if code == "i" else v for v, code in zip(params, spec))
    g = model.genus
    hybrid = model.is_hybrid

    if schema == "R1":
        i, j, a, b = params
        _require(not hybrid, "R1 belongs to the standard model")
        _require(1 <= i < j <= g - 1, f"R1 needs 1 <= i < j <= {g - 1}")
        _require(j - i > 1, "R1 needs j - i > 1")
        _require(a != 0 and b != 0, "R1 exponents must be nonzero")
        lhs = _word(model, ((_gen("u", i), a), (_gen("u", j), b)))
        rhs = _word(model, ((_gen("u", j), b), (_gen("u", i), a)))
    elif schema == "R2":
        (i,) = params
        _require(not hybrid, "R2 belongs to the standard model")
        _require(1 <= i <= g - 2, f"R2 needs 1 <= i <= {g - 2}")
        lhs = _word(model, ((_gen("u", i), 1), (_gen("u", i + 1), 1), (_gen("u", i), 1)))
        rhs = _word(model, ((_gen("u", i + 1), 1), (_gen("u", i), 1), (_gen("u", i + 1), 1)))
    elif schema == "R3":
        _require(not hybrid, "R3 belongs to the standard model")
        chain = _word(model, tuple((_gen("u", k), 1) for k in range(1, g)))
        lhs = chain ** g
        rhs = _word(model, ())
    elif schema in ("R4a", "R4b"):
        i, j, a, b = params
        kind = "t" if schema == "R4a" else "y"
        _require(not hybrid, f"{schema} belongs to the standard model")
        _require(1 <= i <= g - 1 and 1 <= j <= g - 1, f"{schema} indices must lie in 1..{g - 1}")
        _require(abs(i - j) > 1, f"{schema} needs |i - j| > 1")
        _require(a != 0 and b != 0, f"{schema} exponents must be nonzero")
        lhs = _word(model, ((_gen(kind, i), a), (_gen("u", j), b)))
        rhs = _word(model, ((_gen("u", j), b), (_gen(kind, i), a)))
    elif schema == "R5":
        _require(not hybrid, "R5 belongs to the standard model")
        base = _word(model, ((_gen("u", 1), 2),) + tuple((_gen("u", k), 1) for k in range(2, g)))
        lhs = base ** (g - 1)
        rhs = _word(model, ())
    elif schema == "R6closed-odd":
        _require(not hybrid, "R6closed-odd belongs to the standard model")
        _require(g % 2 == 1, "R6closed-odd needs odd genus")
        lhs = _word(model, ((_gen("u", 1), 2),))
        chain = _word(model, tuple((_gen("u", k), 1) for k in range(3, g)))
        rhs = chain ** (g - 2)
    elif schema == "R6closed-even":
        _require(not hybrid, "R6closed-even belongs to the standard model")
        _require(g % 2 == 0 and g >= 6, "R6closed-even needs even genus >= 6")
        lhs = _word(model, ((_gen("u", 1), 2),))
        base = _word(model, ((_gen("u", 3), 2),) + tuple((_gen("u", k), 1) for k in range(4, g)))
        rhs = base ** (g - 3)
    elif schema == "R7chain":
        _require(hybrid, "R7chain belongs to the hybrid model")
        lhs = _word(model, ((_gen("u", 1), 2),))
        chain = _word(model, tuple((_gen("c", k), 1) for k in range(1, g - 1)))
        rhs = chain ** (2 * g - 2)
    elif schema == "SlideDef":
        (i,) = params
        _require(model.admits(_gen("y", i)), f"SlideDef index {i} is not admissible")
        lhs = _word(model, ((_gen("y", i), 1),))
        rhs = _word(model, ((_gen("t", i), 1), (_gen("u", i), 1)))
    elif schema == "UsquaredYsquared":
        (i,) = params
        _require(model.admits(_gen("u", i)), f"UsquaredYsquared index {i} is not admissible")
        lhs = _word(model, ((_gen("u", i), 2),))
        rhs = _word(model, ((_gen("y", i), 2),))
    elif schema == "ChainCommute":
        kind, k, a, b = params
        _require(hybrid, "ChainCommute belongs to the hybrid model")
        _require(1 <= k <= g - 2, f"ChainCommute needs 1 <= k <= {g - 2}")
        _require(a != 0 and b != 0, "ChainCommute exponents must be nonzero")
        lhs = _word(model, ((_gen(kind, 1), a), (_gen("c", k), b)))
        rhs = _word(model, ((_gen("c", k), b), (_gen(kind, 1), a)))
    else:  # pragma: no cover - SCHEMA_IDS and dispatch agree
        raise SchemaError(f"unhandled schema {schema!r}")
    return RelationInstance(schema, params, model, lhs, rhs)


def relation_catalog(model: SurfaceModel) -> tuple[RelationInstance, ...]:
    """Every relation instance of the model's presentation, deterministically ordered.

    Commutation schemas are enumerated with unit exponents; certificate
    steps may instantiate them with arbitrary nonzero exponents.
    """
    g = model.genus
    out: list[RelationInstance] = []
    if not model.is_hybrid:
        for i in range(1, g):
            for j in range(i + 2, g):
                out.append(instantiate("R1", (i, j, 1, 1), model))
        for i in range(1, g - 1):
            out.append(instantiate("R2", (i,), model))
        out.append(instantiate("R3", (), model))
        for schema in ("R4a", "R4b"):
            for i in range(1, g):
                for j in range(1, g):
                    if abs(i - j) > 1:
                        out.append(instantiate(schema, (i, j, 1, 1), model))
        out.append(instantiate("R5", (), model))
        if g % 2 == 1:
            out.append(instantiate("R6closed-odd", (), model))
        elif g >= 6:
            out.append(instantiate("R6closed-even", (), model))
        for i in range(1, g):
            out.append(instantiate("SlideDef", (i,), model))
        for i in range(1, g):
            out.append(instantiate("UsquaredYsquared", (i,), model))
    else:
        out.append(instantiate("R7chain", (), model))
        for kind in ("t", "u", "y"):
            for k in range(1, g - 1):
                out.append(instantiate("ChainCommute", (kind, k, 1, 1), model))
        out.append(instantiate("SlideDef", (1,), model))
        out.append(instantiate("UsquaredYsquared", (1,), model))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class SchemaStep:
    """Replace one side of a relation instance by the other at a position."""

    position: int
    schema: str
    params: tuple
    forward: bool = True


@dataclasses.dataclass(frozen=True)
class FreeStep:
    """Free-group bookkeeping: insert/delete a canceling pair, merge/split syllables."""

    op: str
    position: int
    letter: GeneratorLetter
    exponent: int

    def __post_init__(self):
        if self.op not in _FREE_OPS:
            raise CertificateError(f"unknown free op {self.op!r}")


RewriteStep = Union[SchemaStep, FreeStep]


def invert_step(step: RewriteStep) -> RewriteStep:
    """The step that undoes ``step`` at the same position."""
    if isinstance(step, SchemaStep):
        return dataclasses.replace(step, forward=not step.forward)
    paired = {"insert": "delete", "delete": "insert", "merge": "split", "split": "merge"}
    return dataclasses.replace(step, op=paired[step.op])


def _invert_syllables(syllables: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    return tuple((letter, -exp) for letter, exp in reversed(syllables))


def _fmt(syllables) -> str:
    parts = [str(l) if e == 1 else f"{l}^{e}" for l, e in syllables]
    return " ".join(parts) if parts else "(empty)"


def _apply_schema_step(state: list[Syllable], step: SchemaStep, model: SurfaceModel) -> None:
    try:
        inst = instantiate(step.schema, step.params, model)
    except SchemaError as exc:
        raise CertificateError(f"invalid schema step: {exc}") from None
    pattern, replacement = (
        (inst.lhs.syllables, inst.rhs.syllables)
        if step.forward
        else (inst.rhs.syllables, inst.lhs.syllables)
    )
    pos = step.position
    if pos < 0 or pos > len(state):
        raise CertificateError(f"step position {pos} out of range 0..{len(state)}")
    found = tuple(state[pos : pos + len(pattern)])
    if found == pattern:
        state[pos : pos + len(pattern)] = list(replacement)
        return
    inverse_pattern = _invert_syllables(pattern)
    if pattern and found == inverse_pattern:
        state[pos : pos + len(pattern)] = list(_invert_syllables(replacement))
        return
    raise CertificateError(
        f"occurrence mismatch at position {pos}: expected {_fmt(pattern)}"
        f" or its inverse, found {_fmt(found)}"
    )


def _apply_free_step(state: list[Syllable], step: FreeStep, model: SurfaceModel) -> None:
    pos, letter, e = step.position, step.letter, step.exponent
    if not model.admits(letter):
        raise CertificateError(f"letter {letter} is not admissible in the {model.describe()}")
    if e == 0:
        raise CertificateError("free-op exponent must be nonzero")
    if step.op == "insert":
        if not 0 <= pos <= len(state):
            raise CertificateError(f"insert position {pos} out of range 0..{len(state)}")
        state[pos:pos] = [(letter, e), (letter, -e)]
        return
    if step.op == "delete":
        found = tuple(state[pos : pos + 2])
        if pos < 0 or found != ((letter, e), (letter, -e)):
            raise CertificateError(
                f"delete mismatch at position {pos}: expected"
                f" {_fmt(((letter, e), (letter, -e)))}, found {_fmt(found)}"
            )
        del state[pos : pos + 2]
        return
    if step.op == "split":
        if not 0 <= pos < len(state):
            raise CertificateError(f"split position {pos} out of range")
        cur_letter, cur_exp = state[pos]
        if cur_letter != letter or cur_exp == e:
            raise CertificateError(
                f"split mismatch at position {pos}: cannot split {_fmt([state[pos]])}"
                f" off a {letter}^{e} fragment"
            )
        state[pos : pos + 1] = [(letter, e), (letter, cur_exp - e)]
        return
    # merge
    found = tuple(state[pos : pos + 2])
    if (
        pos < 0
        or len(found) != 2
        or found[0] != (letter, e)
        or found[1][0] != letter
        or found[0][1] + found[1][1] == 0
    ):
        raise CertificateError(
            f"merge mismatch at position {pos}: expected {letter}^{e} {letter}^<exp>"
            f" with nonzero sum, found {_fmt(found)}"
        )
    state[pos : pos + 2] = [(letter, e + found[1][1])]


def apply_step(state: list[Syllable], step: RewriteStep, model: SurfaceModel) -> None:
    """Apply one step to the working syllable sequence in place."""
    if isinstance(step, SchemaStep):
        _apply_schema_step(state, step, model)
    elif isinstance(step, FreeStep):
        _apply_free_step(state, step, model)
    else:
        raise CertificateError(f"unknown step type {type(step).__name__}")


@dataclasses.dataclass(frozen=True)
class Certificate:
    """A replayable derivation transforming ``start`` into ``end``."""

    start: Word
    end: Word
    steps: tuple[RewriteStep, ...] = ()

    def __post_init__(self):
        if self.start.model != self.end.model:
            raise WordError("certificate endpoints must share one model")

    @property
    def model(self) -> SurfaceModel:
        return self.start.model

    def reverse(self) -> "Certificate":
        """The certificate deriving ``start`` from ``end``."""
        return Certificate(
            self.end, self.start, tuple(invert_step(s) for s in reversed(self.steps))
        )


def replay_certificate(certificate: Certificate) -> tuple[Syllable, ...]:
    """Replay all steps from ``start``; returns the final raw syllable sequence.

    Raises :class:`CertificateError` with the 1-based step number on the
    first step that does not apply.
    """
    state = list(certificate.start.syllables)
    for number, step in enumerate(certificate.steps, 1):
        try:
            apply_step(state, step, certificate.model)
        except CertificateError as exc:
            raise CertificateError(f"step {number}: {exc}") from None
    return tuple(state)


def commute_step(state: Sequence[Syllable], position: int, model: SurfaceModel) -> SchemaStep:
    """The schema step that swaps the syllables ``state[position]``, ``state[position + 1]``.

    The pair must commute by one of the commutation schemas (R1, R4a, R4b,
    or ChainCommute), and ``position`` must have a right neighbour;
    otherwise :class:`SchemaError` is raised.
    """
    if not 0 <= position < len(state) - 1:
        raise SchemaError(f"position {position} has no right neighbour in {len(state)} syllables")
    (first, first_exp), (second, second_exp) = state[position], state[position + 1]
    ka, kb = first.kind, second.kind
    if model.is_hybrid:
        if kb == "c" and ka in ("t", "u", "y"):
            step = SchemaStep(position, "ChainCommute", (ka, second.index, first_exp, second_exp), True)
        elif ka == "c" and kb in ("t", "u", "y"):
            step = SchemaStep(position, "ChainCommute", (kb, first.index, second_exp, first_exp), False)
        else:
            raise SchemaError(f"no commutation schema for the pair {first}, {second}")
    elif ka == "u" and kb == "u":
        if first.index < second.index:
            step = SchemaStep(position, "R1", (first.index, second.index, first_exp, second_exp), True)
        else:
            step = SchemaStep(position, "R1", (second.index, first.index, second_exp, first_exp), False)
    elif ka in ("t", "y") and kb == "u":
        schema = "R4a" if ka == "t" else "R4b"
        step = SchemaStep(position, schema, (first.index, second.index, first_exp, second_exp), True)
    elif ka == "u" and kb in ("t", "y"):
        schema = "R4a" if kb == "t" else "R4b"
        step = SchemaStep(position, schema, (second.index, first.index, second_exp, first_exp), False)
    else:
        raise SchemaError(f"no commutation schema for the pair {first}, {second}")
    instantiate(step.schema, step.params, model)  # surface side-condition violations now
    return step


_LETTER_RE = re.compile(r"^([tuyc])([1-9][0-9]*)$")


def certificate_to_text(certificate: Certificate) -> str:
    """Serialize a certificate to its line-oriented text form."""
    model = certificate.model
    lines = [f"model {model.kind}", f"genus {model.genus}"]
    for tag, word in (("start", certificate.start), ("end", certificate.end)):
        text = format_word(word)
        lines.append(f"{tag} {text}" if text else tag)
    for step in certificate.steps:
        if isinstance(step, SchemaStep):
            parts = ["step", str(step.position), step.schema]
            parts.extend(str(p) for p in step.params)
            parts.append("fwd" if step.forward else "bwd")
        else:
            parts = ["free", step.op, str(step.position), str(step.letter), str(step.exponent)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_letter(token: str) -> GeneratorLetter:
    m = _LETTER_RE.match(token)
    if not m:
        raise CertificateError(f"bad letter token {token!r}")
    return GeneratorLetter(m.group(1), int(m.group(2)))


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CertificateError(f"bad {what} {token!r}") from None


def certificate_from_text(text: str) -> Certificate:
    """Parse the line-oriented certificate format; inverse of serialization."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise CertificateError("certificate needs model, genus, start, and end lines")

    def header(n: int, tag: str) -> str:
        line = lines[n]
        if line != tag and not line.startswith(tag + " "):
            raise CertificateError(f"line {n + 1}: expected {tag!r}")
        return line[len(tag) :].strip()

    kind = header(0, "model")
    genus = _parse_int(header(1, "genus"), "genus")
    model = SurfaceModel(genus, kind)
    start = parse_word(header(2, "start"), model)
    end = parse_word(header(3, "end"), model)
    steps: list[RewriteStep] = []
    for n, line in enumerate(lines[4:], 5):
        tokens = line.split(" ")
        if tokens[0] == "step":
            if len(tokens) < 4:
                raise CertificateError(f"line {n}: malformed schema step")
            position = _parse_int(tokens[1], "position")
            schema = tokens[2]
            spec = _PARAM_SPEC.get(schema)
            if spec is None:
                raise CertificateError(f"line {n}: unknown schema {schema!r}")
            if len(tokens) != 4 + len(spec):
                raise CertificateError(f"line {n}: {schema} step needs {len(spec)} parameters")
            params = tuple(
                token if code == "k" else _parse_int(token, "parameter")
                for token, code in zip(tokens[3 : 3 + len(spec)], spec)
            )
            if tokens[-1] not in ("fwd", "bwd"):
                raise CertificateError(f"line {n}: direction must be fwd or bwd")
            steps.append(SchemaStep(position, schema, params, tokens[-1] == "fwd"))
        elif tokens[0] == "free":
            if len(tokens) != 5:
                raise CertificateError(f"line {n}: malformed free step")
            op = tokens[1]
            if op not in _FREE_OPS:
                raise CertificateError(f"line {n}: unknown free op {op!r}")
            steps.append(
                FreeStep(
                    op,
                    _parse_int(tokens[2], "position"),
                    _parse_letter(tokens[3]),
                    _parse_int(tokens[4], "exponent"),
                )
            )
        else:
            raise CertificateError(f"line {n}: expected a step or free line")
    return Certificate(start, end, tuple(steps))
