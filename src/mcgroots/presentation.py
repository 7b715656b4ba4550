"""Relation schemas and replayable rewrite certificates.

Schemas
-------

Each schema names a family of relation instances ``lhs = rhs`` between
words of one model.  Its parameters are coded ``i`` (generator index),
``k`` (letter kind t/u/y) and ``e`` (syllable exponent, nonzero; the
commutation schemas carry the two exponents, since ``xz = zx`` entails
``x^a z^b = z^b x^a``):

==================  ========  ======  =====================================
id                  params    codes   instance
==================  ========  ======  =====================================
R1                  i j a b   iiee    u_i^a u_j^b = u_j^b u_i^a, j - i > 1
R2                  i         i       u_i u_{i+1} u_i = u_{i+1} u_i u_{i+1}
R3                  --                (u_1 .. u_{g-1})^g = 1
R4a                 i j a b   iiee    t_i^a u_j^b = u_j^b t_i^a, |i-j| > 1
R4b                 i j a b   iiee    y_i^a u_j^b = u_j^b y_i^a, |i-j| > 1
R5                  --                (u_1^2 u_2 .. u_{g-1})^{g-1} = 1
R6closed-odd        --                u_1^2 = D^m, boundary identity
R6closed-even       --                u_1^2 = D^m, boundary identity
R7chain             --                u_1^2 = D^m, boundary identity
SlideDef            i         i       y_i = t_i u_i
UsquaredYsquared    i         i       u_i^2 = y_i^2
ChainCommute        x k a b   kiee    x_1^a c_k^b = c_k^b x_1^a
==================  ========  ======  =====================================

The boundary identity ``u_1^2 = D^m`` writes the twist about the
boundary of the Klein bottle around crosscaps 1, 2 through its
complement.  :func:`boundary_identity` gives each model's schema, block
``D`` (disjoint from crosscaps 1, 2) and odd degree ``m``:

=======================  ==============  ========================  =====
model                    schema          ``D``                     ``m``
=======================  ==============  ========================  =====
standard, g odd          R6closed-odd    ``u_3 .. u_{g-1}``        g-2
standard, g even >= 6    R6closed-even   ``u_3^2 u_4 .. u_{g-1}``  g-3
hybrid                   R7chain         ``(c_1 .. c_{g-2})^2``    g-1
=======================  ==============  ========================  =====

The standard model has none at genus 2 and 4.  R6closed-odd degenerates
at genus 3 to ``u_1^2 = 1``, the triviality of the twist about a curve
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
import itertools
import re
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .words import (
    GeneratorLetter,
    SurfaceModel,
    Syllable,
    Word,
    WordError,
    _format_syllables,
    _inverse_syllables,
    _letter,
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
    "boundary_identity",
    "certificate_from_text",
    "certificate_to_text",
    "commute_step",
    "instantiate",
    "invert_step",
    "relation_catalog",
    "replay_certificate",
]

# Parameter layout per schema: i = index, e = exponent, k = letter kind.
_PARAM_SPEC = {
    "R1": "iiee",
    "R2": "i",
    "R3": "",
    "R4a": "iiee",
    "R4b": "iiee",
    "R5": "",
    "R6closed-odd": "",
    "R6closed-even": "",
    "R7chain": "",
    "SlideDef": "i",
    "UsquaredYsquared": "i",
    "ChainCommute": "kiee",
}

SCHEMA_IDS = tuple(_PARAM_SPEC)

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


def _word(model: SurfaceModel, syllables: Iterable[Syllable]) -> Word:
    return Word(model, tuple(syllables))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def boundary_identity(model: SurfaceModel) -> tuple[str, Word, int] | None:
    """``(schema, D, m)`` of the model's boundary identity ``u_1^2 = D^m``, if any."""
    g = model.genus
    if model.is_hybrid:
        chain = _word(model, ((_letter("c", k), 1) for k in range(1, g - 1)))
        return "R7chain", chain ** 2, g - 1
    if g % 2:
        return "R6closed-odd", _word(model, ((_letter("u", k), 1) for k in range(3, g))), g - 2
    if g >= 6:
        head = ((_letter("u", 3), 2),)
        tail = tuple((_letter("u", k), 1) for k in range(4, g))
        return "R6closed-even", _word(model, head + tail), g - 3
    return None


# The parameter types the instance memo takes.
_MEMO_TYPES = frozenset((int, bool, str))

# The model a schema belongs to; the schemas not named here belong to both.
_HOME_MODEL = dict.fromkeys(("R1", "R2", "R3", "R4a", "R4b", "R5"), "standard")
_HOME_MODEL["ChainCommute"] = "hybrid"


def instantiate(schema: str, params, model: SurfaceModel) -> RelationInstance:
    """Build a relation instance, validating all side conditions.

    Instances are memoized per ``(schema, params, genus, kind)``; they are
    frozen, so callers share them safely.  Integer parameters are stored
    as ``int``, so a ``bool`` shares the entry of its integer.  Parameters
    of other types than ``int``, ``bool`` and ``str`` (a float equal to an
    integer among them) are validated and built without the memo, so their
    verdict never depends on what is cached.  A call that raises
    :class:`SchemaError` raises again on every call.
    """
    params = tuple(params)
    if _MEMO_TYPES.issuperset(map(type, params)):
        return _build_instance(schema, params, model.genus, model.kind)
    return _build_instance.__wrapped__(schema, params, model.genus, model.kind)


@lru_cache(maxsize=4096)
def _build_instance(schema: str, params: tuple, genus: int, model_kind: str) -> RelationInstance:
    # The checks that need no model come first and build no message unless
    # they fail, so a rejected candidate of relation_catalog stays cheap.
    spec = _PARAM_SPEC.get(schema)
    if spec is None:
        raise SchemaError(f"unknown schema {schema!r}")
    if len(params) != len(spec):
        raise SchemaError(f"{schema} takes {len(spec)} parameters, got {len(params)}")
    values = []
    for value, code in zip(params, spec):
        if code == "k":
            if value not in ("t", "u", "y"):
                raise SchemaError(f"{schema}: letter kind t/u/y expected, got {value!r}")
        elif isinstance(value, int):
            value = int(value)
        else:
            raise SchemaError(f"{schema}: integer parameter expected, got {value!r}")
        values.append(value)
    params = tuple(values)
    home = _HOME_MODEL.get(schema, model_kind)
    if home != model_kind:
        raise SchemaError(f"{schema} belongs to the {home} model")
    model = SurfaceModel(genus, model_kind)
    g = model.genus

    if schema == "R1":
        i, j, a, b = params
        _require(1 <= i < j <= g - 1, f"R1 needs 1 <= i < j <= {g - 1}")
        _require(j - i > 1, "R1 needs j - i > 1")
        _require(a != 0 and b != 0, "R1 exponents must be nonzero")
        lhs = _word(model, ((_letter("u", i), a), (_letter("u", j), b)))
        rhs = _word(model, ((_letter("u", j), b), (_letter("u", i), a)))
    elif schema == "R2":
        (i,) = params
        _require(1 <= i <= g - 2, f"R2 needs 1 <= i <= {g - 2}")
        lhs = _word(model, ((_letter("u", i), 1), (_letter("u", i + 1), 1), (_letter("u", i), 1)))
        rhs = _word(model, ((_letter("u", i + 1), 1), (_letter("u", i), 1), (_letter("u", i + 1), 1)))
    elif schema == "R3":
        chain = _word(model, tuple((_letter("u", k), 1) for k in range(1, g)))
        lhs = chain ** g
        rhs = _word(model, ())
    elif schema in ("R4a", "R4b"):
        i, j, a, b = params
        kind = "t" if schema == "R4a" else "y"
        _require(1 <= i <= g - 1 and 1 <= j <= g - 1, f"{schema} indices must lie in 1..{g - 1}")
        _require(abs(i - j) > 1, f"{schema} needs |i - j| > 1")
        _require(a != 0 and b != 0, f"{schema} exponents must be nonzero")
        lhs = _word(model, ((_letter(kind, i), a), (_letter("u", j), b)))
        rhs = _word(model, ((_letter("u", j), b), (_letter(kind, i), a)))
    elif schema == "R5":
        base = _word(model, ((_letter("u", 1), 2),) + tuple((_letter("u", k), 1) for k in range(2, g)))
        lhs = base ** (g - 1)
        rhs = _word(model, ())
    elif schema in ("R6closed-odd", "R6closed-even", "R7chain"):
        identity = boundary_identity(model)
        _require(
            identity is not None and identity[0] == schema,
            f"{schema} is not the boundary identity of the {model.describe()}",
        )
        _, block, m = identity
        lhs = _word(model, ((_letter("u", 1), 2),))
        rhs = block ** m
    elif schema == "SlideDef":
        (i,) = params
        _require(model.admits(_letter("y", i)), f"SlideDef index {i} is not admissible")
        lhs = _word(model, ((_letter("y", i), 1),))
        rhs = _word(model, ((_letter("t", i), 1), (_letter("u", i), 1)))
    elif schema == "UsquaredYsquared":
        (i,) = params
        _require(model.admits(_letter("u", i)), f"UsquaredYsquared index {i} is not admissible")
        lhs = _word(model, ((_letter("u", i), 2),))
        rhs = _word(model, ((_letter("y", i), 2),))
    elif schema == "ChainCommute":
        kind, k, a, b = params
        _require(1 <= k <= g - 2, f"ChainCommute needs 1 <= k <= {g - 2}")
        _require(a != 0 and b != 0, "ChainCommute exponents must be nonzero")
        lhs = _word(model, ((_letter(kind, 1), a), (_letter("c", k), b)))
        rhs = _word(model, ((_letter("c", k), b), (_letter(kind, 1), a)))
    else:  # pragma: no cover - SCHEMA_IDS and dispatch agree
        raise SchemaError(f"unhandled schema {schema!r}")
    return RelationInstance(schema, params, model, lhs, rhs)


def relation_catalog(model: SurfaceModel) -> tuple[RelationInstance, ...]:
    """Every relation instance of the model's presentation, deterministically ordered.

    Each schema in :data:`SCHEMA_IDS` order is tried with every index in
    ``1..g-1``, every letter kind and unit exponents; the instances whose
    side conditions hold are kept.  Certificate steps may instantiate the
    commutation schemas with arbitrary nonzero exponents.
    """
    choices = {"i": range(1, model.genus), "e": (1,), "k": ("t", "u", "y")}
    out: list[RelationInstance] = []
    for schema, spec in _PARAM_SPEC.items():
        for params in itertools.product(*(choices[code] for code in spec)):
            try:
                out.append(instantiate(schema, params, model))
            except SchemaError:
                pass
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
    if pattern and found == _inverse_syllables(pattern):
        state[pos : pos + len(pattern)] = list(_inverse_syllables(replacement))
        return
    raise CertificateError(
        f"occurrence mismatch at position {pos}: expected {_format_syllables(pattern)}"
        f" or its inverse, found {_format_syllables(found)}"
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
                f" {_format_syllables(((letter, e), (letter, -e)))},"
                f" found {_format_syllables(found)}"
            )
        del state[pos : pos + 2]
        return
    if step.op == "split":
        if not 0 <= pos < len(state):
            raise CertificateError(f"split position {pos} out of range")
        cur_letter, cur_exp = state[pos]
        if cur_letter != letter or cur_exp == e:
            raise CertificateError(
                f"split mismatch at position {pos}: cannot split {_format_syllables([state[pos]])}"
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
            f" with nonzero sum, found {_format_syllables(found)}"
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


# At most four index digits: far above MAX_GENUS, and never past the int() limit.
_LETTER_RE = re.compile(r"^([tuyc])([1-9][0-9]{0,3})$")


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
    return _letter(m.group(1), int(m.group(2)))


def _parse_int(token: str, what: str) -> int:
    """Exactly the numerals ``str(int)`` writes: no ``+``, ``_``, padding or non-ASCII digit."""
    try:
        value = int(token)
    except ValueError:  # also past the interpreter's limit on integer-string digits
        pass
    else:
        if str(value) == token:
            return value
    raise CertificateError(f"bad {what} {token[:40]!r}")


def _schema_fields(tokens: list[str], n: int) -> tuple[str, tuple, bool]:
    """Schema, parameters and direction from the tokens after a step's position."""
    schema = tokens[0]
    spec = _PARAM_SPEC.get(schema)
    if spec is None:
        raise CertificateError(f"line {n}: unknown schema {schema!r}")
    if len(tokens) != 2 + len(spec):
        raise CertificateError(f"line {n}: {schema} step needs {len(spec)} parameters")
    params = tuple(
        token if code == "k" else _parse_int(token, "parameter")
        for token, code in zip(tokens[1:-1], spec)
    )
    if tokens[-1] not in ("fwd", "bwd"):
        raise CertificateError(f"line {n}: direction must be fwd or bwd")
    return schema, params, tokens[-1] == "fwd"


def certificate_from_text(text: str) -> Certificate:
    """Parse the line-oriented certificate format; inverse of serialization."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise CertificateError("certificate needs model, genus, start, and end lines")

    def header(n: int, tag: str) -> str:
        line = lines[n]
        if line != tag and not line.startswith(tag + " "):
            raise CertificateError(f"line {n + 1}: expected {tag!r}")
        return line[len(tag) + 1 :]

    kind = header(0, "model")
    genus = _parse_int(header(1, "genus"), "genus")
    model = SurfaceModel(genus, kind)
    start = parse_word(header(2, "start"), model)
    end = parse_word(header(3, "end"), model)
    steps: list[RewriteStep] = []
    # The fields after a line's position, read once per distinct text: a
    # certificate repeats a few hundred tails over thousands of steps.  The
    # position is read on every line, after the shape checks and before the
    # tail, so each error is the one the fields in line order give.
    schema_tails: dict[str, tuple[str, tuple, bool]] = {}
    free_tails: dict[tuple[str, str], tuple[GeneratorLetter, int]] = {}
    for n, line in enumerate(lines[4:], 5):
        tag, _, rest = line.partition(" ")
        if tag == "step":
            position, _, tail = rest.partition(" ")
            fields = schema_tails.get(tail)
            if fields is None and line.count(" ") < 3:
                raise CertificateError(f"line {n}: malformed schema step")
            number = _parse_int(position, "position")
            if fields is None:
                fields = schema_tails[tail] = _schema_fields(tail.split(" "), n)
            steps.append(SchemaStep(number, *fields))
        elif tag == "free":
            op, _, rest = rest.partition(" ")
            position, _, tail = rest.partition(" ")
            fields = free_tails.get((op, tail))
            if fields is None:
                if line.count(" ") != 4:
                    raise CertificateError(f"line {n}: malformed free step")
                if op not in _FREE_OPS:
                    raise CertificateError(f"line {n}: unknown free op {op!r}")
            number = _parse_int(position, "position")
            if fields is None:
                letter, exponent = tail.split(" ")
                fields = free_tails[op, tail] = (
                    _parse_letter(letter),
                    _parse_int(exponent, "exponent"),
                )
            steps.append(FreeStep(op, number, *fields))
        else:
            raise CertificateError(f"line {n}: expected a step or free line")
    return Certificate(start, end, tuple(steps))
