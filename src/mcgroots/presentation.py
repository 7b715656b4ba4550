"""Relation schemas and replayable rewrite certificates.

Schemas
-------

Each schema names a family of relation instances ``lhs = rhs`` between
words of one model.  Its parameters are coded ``i`` (generator index,
at least 1), ``k`` (letter kind t/u/y) and ``e`` (syllable exponent,
nonzero).  The commutation schemas state one fact: letters ``x``, ``z``
with disjoint supports commute, so ``x^a z^b = z^b x^a``.  Standard
letters ``x_i``, ``z_j`` live near crosscaps ``i, i+1`` and ``j, j+1``
and are disjoint when ``|i - j| > 1``; a hybrid chain twist misses the
Klein bottle of ``t_1``, ``u_1``, ``y_1``.

==================  ========  ======  =====================================
id                  params    codes   instance
==================  ========  ======  =====================================
R1                  i j a b   iiee    commutation, x = u_i, z = u_j, i < j
R4a                 i j a b   iiee    commutation, x = t_i, z = u_j
R4b                 i j a b   iiee    commutation, x = y_i, z = u_j
ChainCommute        x k a b   kiee    commutation, x = x_1, z = c_k
R2                  i         i       u_i u_{i+1} u_i = u_{i+1} u_i u_{i+1}
R3                  --                (u_1 .. u_{g-1})^g = 1
R5                  --                (u_1^2 u_2 .. u_{g-1})^{g-1} = 1
R6closed-odd        --                u_1^2 = D^m, boundary identity
R6closed-even       --                u_1^2 = D^m, boundary identity
R7chain             --                u_1^2 = D^m, boundary identity
SlideDef            i         i       y_i = t_i u_i
UsquaredYsquared    i         i       u_i^2 = y_i^2
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
current (not necessarily reduced) working sequence and come in five forms:

* schema steps replace a literal occurrence of one side of a relation
  instance by the other side (``forward``: lhs -> rhs); an occurrence of
  the formal inverse of the pattern is likewise accepted and replaced by
  the inverse of the other side, which is sound since ``L = R`` entails
  ``L^-1 = R^-1``;
* free steps perform free-group bookkeeping: ``insert``/``delete`` a
  canceling syllable pair, ``merge`` two adjacent equal-letter syllables,
  ``split`` one syllable in two.  ``merge`` and ``split`` carry the
  exponent of the first fragment, which makes every step invertible with
  its own parameters, so a certificate replays backwards mechanically;
* block steps ``insert``/``delete`` a canceling block ``w w^-1`` of a
  reduced word ``w`` of two or more syllables: exactly the nested pairs
  of its syllables, inserted outermost first at ``pos, pos + 1, ...`` or
  deleted innermost first.  A pair is the block of one syllable and
  replays on the same path, but is written as a free step;
* move steps carry one syllable past a block of ``len`` syllables:
  ``fwd`` moves the syllable at ``pos`` right past the next ``len``, and
  ``bwd`` moves the syllable at ``pos + len`` left to ``pos``.  Replay
  checks the moving syllable against each one it passes with
  :func:`commute_step`, so a move is exactly the run of commutation
  steps it abbreviates; flipping the direction inverts it;
* gather steps collect ``copies`` periods ``A x^e``, ``A`` being the
  ``len`` syllables at ``pos``: ``fwd`` turns ``(A x^e)^copies`` into
  ``A^copies x^(e·copies)``, checked by one comparison with the first
  period and a :func:`commute_step` check of ``x`` against each
  distinct letter of ``A``; ``bwd`` turns ``A^copies x^E`` back into
  ``(A x^(E/copies))^copies``.  A gather is exactly its rounds ``move
  pos+kL L fwd``, ``free merge pos+(k+1)L x k·e`` (``L = len``, ``k =
  1 .. copies-1``), so it needs no further axiom; flipping the
  direction inverts it.

Text format (one item per line, words in the module grammar)::

    model standard          | model hybrid
    genus <g>
    start <word>
    end <word>
    step <pos> <schemaId> <params...> <fwd|bwd>
    move <pos> <len> <fwd|bwd>
    gather <pos> <len> <copies> <fwd|bwd>
    free <insert|delete|merge|split> <pos> <letter> <exp>
    block <insert|delete> <pos> <word>

The start and end lines write a word ``w c w^-1`` whose core ``c`` is a
proper power ``b^r`` as ``w (b)^r w^-1``, in the same grammar: the start
``root^m`` of a standard or hybrid root certificate reads ``(root)^m``.
A block's word is written the same way, and read only in that form.
Serialization round-trips bit-exactly.
"""

from __future__ import annotations

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
    _Record,
    _format_syllables,
    _grouped_text,
    _inverse_syllables,
    _letter,
    _reduce_syllables,
    parse_word,
)

__all__ = [
    "BlockStep",
    "Certificate",
    "CertificateError",
    "FreeStep",
    "GatherStep",
    "MoveStep",
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

# Each schema's parameter codes (i = index, e = exponent, k = letter kind)
# and the model it belongs to (None: both).
_SCHEMAS = {
    "R1": ("iiee", "standard"),
    "R2": ("i", "standard"),
    "R3": ("", "standard"),
    "R4a": ("iiee", "standard"),
    "R4b": ("iiee", "standard"),
    "R5": ("", "standard"),
    "R6closed-odd": ("", None),
    "R6closed-even": ("", None),
    "R7chain": ("", None),
    "SlideDef": ("i", None),
    "UsquaredYsquared": ("i", None),
    "ChainCommute": ("kiee", "hybrid"),
}

SCHEMA_IDS = tuple(_SCHEMAS)

# The commutation schema of ``x^a z^b = z^b x^a``, keyed by the kinds of x and z.
_COMMUTING = {
    ("u", "u"): "R1",
    ("t", "u"): "R4a",
    ("y", "u"): "R4b",
    ("t", "c"): "ChainCommute",
    ("u", "c"): "ChainCommute",
    ("y", "c"): "ChainCommute",
}

# The letter kinds of each commutation schema; a ``k`` parameter overrides the first.
_COMMUTING_KINDS = {schema: kinds for kinds, schema in _COMMUTING.items()}

# The commutation schemas of each model kind: those a move step may stand for.
_MODEL_COMMUTATIONS = {
    kind: tuple(schema for schema in _COMMUTING_KINDS if _SCHEMAS[schema][1] == kind)
    for kind in ("standard", "hybrid")
}

_FREE_OPS = ("insert", "delete", "merge", "split")
_INVERSE_OPS = {"insert": "delete", "delete": "insert", "merge": "split", "split": "merge"}


class SchemaError(ValueError):
    """Unknown schema, bad arity, or violated side condition."""


class CertificateError(ValueError):
    """A certificate step that cannot be applied to the working sequence."""


class RelationInstance(_Record):
    """One concrete relation ``lhs = rhs`` of a model's presentation."""

    __slots__ = ("schema", "params", "model", "lhs", "rhs")

    def __init__(self, schema: str, params: tuple, model: SurfaceModel, lhs: Word, rhs: Word):
        super().__init__(schema, params, model, lhs, rhs)


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
    spec, home = _SCHEMAS.get(schema, (None, None))
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
            if code == "i" and value < 1:
                raise SchemaError(f"{schema}: index parameter must be >= 1, got {value}")
        else:
            raise SchemaError(f"{schema}: integer parameter expected, got {value!r}")
        values.append(value)
    params = tuple(values)
    if home not in (None, model_kind):
        raise SchemaError(f"{schema} belongs to the {home} model")
    model = SurfaceModel(genus, model_kind)
    g = model.genus

    kinds = _COMMUTING_KINDS.get(schema)
    if kinds is not None:
        p, q, a, b = params
        x = _letter(p, 1) if spec[0] == "k" else _letter(kinds[0], p)
        z = _letter(kinds[1], q)
        _require(model.admits(x) and model.admits(z), f"{schema}: {x} or {z} is not admissible")
        # a chain twist misses the Klein bottle; other letters need |i - j| > 1
        disjoint = (x.kind == "c") != (z.kind == "c") or abs(x.index - z.index) > 1
        _require(disjoint, f"{schema} needs disjoint supports, but {x} and {z} meet")
        _require(x.kind != z.kind or x.index < z.index, f"{schema} needs i < j")
        _require(a != 0 and b != 0, f"{schema} exponents must be nonzero")
        lhs = _word(model, ((x, a), (z, b)))
        rhs = _word(model, ((z, b), (x, a)))
    elif schema == "R2":
        (i,) = params
        _require(i <= g - 2, f"R2 needs 1 <= i <= {g - 2}")
        lhs = _word(model, ((_letter("u", i), 1), (_letter("u", i + 1), 1), (_letter("u", i), 1)))
        rhs = _word(model, ((_letter("u", i + 1), 1), (_letter("u", i), 1), (_letter("u", i + 1), 1)))
    elif schema == "R3":
        chain = _word(model, tuple((_letter("u", k), 1) for k in range(1, g)))
        lhs = chain ** g
        rhs = _word(model, ())
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
    else:  # pragma: no cover - SCHEMA_IDS and dispatch agree
        raise SchemaError(f"unhandled schema {schema!r}")
    return RelationInstance(schema, params, model, lhs, rhs)


def relation_catalog(model: SurfaceModel) -> tuple[RelationInstance, ...]:
    """Every relation instance of the model's presentation, deterministically ordered.

    Each schema of the model in :data:`SCHEMA_IDS` order is tried with every index in
    ``1..g-1``, every letter kind and unit exponents; the instances whose
    side conditions hold are kept.  Certificate steps may instantiate the
    commutation schemas with arbitrary nonzero exponents.
    """
    choices = {"i": range(1, model.genus), "e": (1,), "k": ("t", "u", "y")}
    out: list[RelationInstance] = []
    for schema, (spec, home) in _SCHEMAS.items():
        if home not in (None, model.kind):
            continue
        for params in itertools.product(*(choices[code] for code in spec)):
            try:
                out.append(instantiate(schema, params, model))
            except SchemaError:
                pass
    return tuple(out)


class SchemaStep(_Record):
    """Replace one side of a relation instance by the other at a position."""

    __slots__ = ("position", "schema", "params", "forward")

    def __init__(self, position: int, schema: str, params: tuple, forward: bool = True):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "forward", forward)


class FreeStep(_Record):
    """Free-group bookkeeping: insert/delete a canceling pair, merge/split syllables."""

    __slots__ = ("op", "position", "letter", "exponent")

    def __init__(self, op: str, position: int, letter: GeneratorLetter, exponent: int):
        if op not in _FREE_OPS:
            raise CertificateError(f"unknown free op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "exponent", exponent)


class MoveStep(_Record):
    """Carry one syllable past the ``length`` syllables after ``position``.

    Forward, the syllable at ``position`` moves right to ``position +
    length``; backward, the syllable at ``position + length`` moves left to
    ``position``.
    """

    __slots__ = ("position", "length", "forward")

    def __init__(self, position: int, length: int, forward: bool = True):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "forward", forward)


class GatherStep(_Record):
    """Gather ``copies`` periods ``A x^e`` at ``position``, ``A`` being ``length`` syllables.

    Forward, the window ``(A x^e)^copies`` becomes ``A^copies
    x^(e·copies)``; backward, ``A^copies x^E`` becomes ``(A
    x^(E/copies))^copies``.  ``length`` is at least 1, ``copies`` at
    least 2, and ``position`` is not negative.
    """

    __slots__ = ("position", "length", "copies", "forward")

    def __init__(self, position: int, length: int, copies: int, forward: bool = True):
        if position < 0:
            raise CertificateError(f"gather position {position} is negative")
        if length < 1:
            raise CertificateError(f"gather length must be >= 1, got {length}")
        if copies < 2:
            raise CertificateError(f"gather copies must be >= 2, got {copies}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "forward", forward)


class BlockStep(_Record):
    """Insert or delete the canceling block ``w w^-1`` at ``position``.

    ``syllables`` is ``w``: reduced, of two or more syllables (one is a
    :class:`FreeStep` pair), and ``position`` is not negative.
    """

    __slots__ = ("op", "position", "syllables")

    def __init__(self, op: str, position: int, syllables: tuple[Syllable, ...]):
        syllables = tuple(syllables)
        if op not in ("insert", "delete"):
            raise CertificateError(f"unknown block op {op!r}")
        if position < 0:
            raise CertificateError(f"block position {position} is negative")
        if len(syllables) < 2:
            raise CertificateError(f"a block needs 2 or more syllables, got {len(syllables)}")
        if _reduce_syllables(syllables) != syllables:
            raise CertificateError(f"block word {_format_syllables(syllables)} is not reduced")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "syllables", syllables)


RewriteStep = Union[SchemaStep, FreeStep, MoveStep, GatherStep, BlockStep]


def invert_step(step: RewriteStep) -> RewriteStep:
    """The step that undoes ``step`` at the same position."""
    if isinstance(step, SchemaStep):
        return SchemaStep(step.position, step.schema, step.params, not step.forward)
    if isinstance(step, MoveStep):
        return MoveStep(step.position, step.length, not step.forward)
    if isinstance(step, GatherStep):
        return GatherStep(step.position, step.length, step.copies, not step.forward)
    if isinstance(step, BlockStep):
        return BlockStep(_INVERSE_OPS[step.op], step.position, step.syllables)
    return FreeStep(_INVERSE_OPS[step.op], step.position, step.letter, step.exponent)


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


def _check_syllables(syllables: Iterable[Syllable], model: SurfaceModel) -> None:
    for letter, e in syllables:
        if not model.admits(letter):
            raise CertificateError(f"letter {letter} is not admissible in the {model.describe()}")
        if e == 0:
            raise CertificateError("free-op exponent must be nonzero")


def _apply_block(
    state: list[Syllable], op: str, pos: int, syllables: tuple[Syllable, ...], model: SurfaceModel
) -> None:
    """Insert or delete ``w w^-1`` at ``pos``, ``w`` being ``syllables``: a block or a pair."""
    _check_syllables(syllables, model)
    block = syllables + _inverse_syllables(syllables)
    if op == "insert":
        if not 0 <= pos <= len(state):
            raise CertificateError(f"insert position {pos} out of range 0..{len(state)}")
        state[pos:pos] = block
        return
    found = tuple(state[pos : pos + len(block)])
    if pos < 0 or found != block:
        raise CertificateError(
            f"delete mismatch at position {pos}: expected {_format_syllables(block)},"
            f" found {_format_syllables(found)}"
        )
    del state[pos : pos + len(block)]


def _apply_free_step(state: list[Syllable], step: FreeStep, model: SurfaceModel) -> None:
    pos, letter, e = step.position, step.letter, step.exponent
    if step.op in ("insert", "delete"):
        _apply_block(state, step.op, pos, ((letter, e),), model)
        return
    _check_syllables(((letter, e),), model)
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


@lru_cache(maxsize=4096)
def _check_commuting(x: GeneratorLetter, z: GeneratorLetter, genus: int, model_kind: str) -> None:
    """Raise the :class:`SchemaError` of :func:`commute_step` unless the pair ``x z`` swaps.

    A working state has no zero exponent, and commutation asks nothing more
    of the exponents, so the pair's letters decide.
    """
    commute_step(((x, 1), (z, 1)), 0, SurfaceModel(genus, model_kind))


def _blocked(
    x: GeneratorLetter, passed: Sequence[Syllable], forward: bool, model: SurfaceModel
) -> tuple[int, str] | None:
    """The index in ``passed`` of a syllable ``x`` cannot pass, and why; ``None`` if none.

    ``forward`` puts ``x`` first in each pair checked.  Each distinct
    letter is checked once (shared letters are one object each), in order
    of first occurrence, so for syllables in the order ``x`` meets them
    the first failing letter is the first failing swap.
    """
    letters = {id(letter): letter for letter, _ in passed}
    for letter in letters.values():
        try:
            _check_commuting(*((x, letter) if forward else (letter, x)), model.genus, model.kind)
        except SchemaError as exc:
            return next(k for k, (other, _) in enumerate(passed) if other is letter), str(exc)
    return None


def _apply_move_step(state: list[Syllable], step: MoveStep, model: SurfaceModel) -> None:
    pos, length = step.position, step.length
    if length < 1:
        raise CertificateError(f"move length must be >= 1, got {length}")
    end = pos + length
    if pos < 0 or end >= len(state):
        raise CertificateError(
            f"move of {length} from position {pos} out of range: {len(state)} syllables"
        )
    # the syllables passed, in the order the commutation steps meet them
    if step.forward:
        moving, passed = state[pos], state[pos + 1 : end + 1]
    else:
        moving, passed = state[end], state[end - 1 : pos - 1 if pos else None : -1]
    blocked = _blocked(moving[0], passed, step.forward, model)
    if blocked:
        k, reason = blocked
        at = pos + 1 + k if step.forward else end - 1 - k
        raise CertificateError(f"move mismatch at position {at}: {reason}")
    if step.forward:
        state[pos : end + 1] = passed + [moving]
    else:
        state[pos : end + 1] = [moving] + state[pos:end]


def _gather_mismatch(at: int, message: str) -> CertificateError:
    return CertificateError(f"gather mismatch at position {at}: {message}")


def _apply_gather_step(state: list[Syllable], step: GatherStep, model: SurfaceModel) -> None:
    pos, length, copies = step.position, step.length, step.copies
    size = length + step.forward  # forward, the period is A x^e; backward, A, before x^E
    period = state[pos : pos + size]
    if len(period) < size:
        raise CertificateError(
            f"gather of {length} from position {pos} out of range: {len(state)} syllables"
        )
    found = state[pos : pos + copies * size]
    expected = period * min(copies, len(found) // size + 1)  # no longer than the state allows
    if found != expected:
        k = next((k for k, (a, b) in enumerate(zip(found, expected)) if a != b), len(found))
        raise _gather_mismatch(
            pos + k,
            f"expected {_format_syllables(expected[k : k + 1])} of copy {k // size + 1},"
            f" found {_format_syllables(found[k : k + 1], 'the end')}",
        )
    end = pos + len(found)  # backward, the position of x^E
    if step.forward:
        block, (x, e) = period[:-1], period[-1]
    elif end == len(state):
        raise _gather_mismatch(end, "expected the syllable to share out, found the end")
    else:
        block, (x, e) = period, state[end]
        if e % copies:
            raise _gather_mismatch(end, f"{x}^{e} does not split into {copies} equal powers")
    blocked = _blocked(x, block, step.forward, model)
    if blocked:
        raise _gather_mismatch(pos + blocked[0], blocked[1])
    if step.forward:
        state[pos:end] = block * copies + [(x, e * copies)]
    else:
        state[pos : end + 1] = (block + [(x, e // copies)]) * copies


def apply_step(state: list[Syllable], step: RewriteStep, model: SurfaceModel) -> None:
    """Apply one step to the working syllable sequence in place."""
    if isinstance(step, MoveStep):
        _apply_move_step(state, step, model)
    elif isinstance(step, SchemaStep):
        _apply_schema_step(state, step, model)
    elif isinstance(step, FreeStep):
        _apply_free_step(state, step, model)
    elif isinstance(step, BlockStep):
        _apply_block(state, step.op, step.position, step.syllables, model)
    elif isinstance(step, GatherStep):
        _apply_gather_step(state, step, model)
    else:
        raise CertificateError(f"unknown step type {type(step).__name__}")


class Certificate(_Record):
    """A replayable derivation transforming ``start`` into ``end``."""

    __slots__ = ("start", "end", "steps")

    def __init__(self, start: Word, end: Word, steps: tuple[RewriteStep, ...] = ()):
        if start.model != end.model:
            raise WordError("certificate endpoints must share one model")
        super().__init__(start, end, steps)

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

    The kinds of the pair, in order, name its commutation schema of the
    model; kinds that do so only reversed, or an R1 pair with the higher
    index first, give the backward step.  ``position`` must have a right
    neighbour and the instance must meet its side conditions; otherwise
    :class:`SchemaError` is raised.
    """
    if not 0 <= position < len(state) - 1:
        raise SchemaError(f"position {position} has no right neighbour in {len(state)} syllables")
    first, second = state[position], state[position + 1]
    (x, a), (z, b) = first, second
    schema = _COMMUTING.get((x.kind, z.kind))
    forward = schema is not None and (x.kind != z.kind or x.index < z.index)
    if not forward:
        (x, a), (z, b) = second, first
        schema = _COMMUTING.get((x.kind, z.kind))
    spec, home = _SCHEMAS.get(schema, ("", None))
    if home != model.kind:
        raise SchemaError(f"no commutation schema for the pair {first[0]}, {second[0]}")
    step = SchemaStep(position, schema, (x.kind if spec[0] == "k" else x.index, z.index, a, b), forward)
    instantiate(step.schema, step.params, model)  # surface side-condition violations now
    return step


# At most four index digits: far above MAX_GENUS, and never past the int() limit.
_LETTER_RE = re.compile(r"^([tuyc])([1-9][0-9]{0,3})$")


def certificate_to_text(certificate: Certificate) -> str:
    """Serialize a certificate to its line-oriented text form."""
    model = certificate.model
    lines = [f"model {model.kind}", f"genus {model.genus}"]
    for tag, word in (("start", certificate.start), ("end", certificate.end)):
        text = _grouped_text(word.syllables)
        lines.append(f"{tag} {text}" if text else tag)
    for step in certificate.steps:
        if isinstance(step, SchemaStep):
            params = "".join([f" {p}" for p in step.params])
            way = "fwd" if step.forward else "bwd"
            lines.append(f"step {step.position} {step.schema}{params} {way}")
        elif isinstance(step, MoveStep):
            lines.append(f"move {step.position} {step.length} {'fwd' if step.forward else 'bwd'}")
        elif isinstance(step, GatherStep):
            way = "fwd" if step.forward else "bwd"
            lines.append(f"gather {step.position} {step.length} {step.copies} {way}")
        elif isinstance(step, BlockStep):
            lines.append(f"block {step.op} {step.position} {_grouped_text(step.syllables)}")
        else:
            lines.append(f"free {step.op} {step.position} {step.letter._text} {step.exponent}")
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


def _schema_fields(tokens: list[str]) -> tuple[str, tuple, bool]:
    """Schema, parameters and direction from the tokens after a step's position."""
    schema = tokens[0]
    spec, _ = _SCHEMAS.get(schema, (None, None))
    if spec is None:
        raise CertificateError(f"unknown schema {schema!r}")
    if len(tokens) != 2 + len(spec):
        raise CertificateError(f"{schema} step needs {len(spec)} parameters")
    params = tuple(
        token if code == "k" else _parse_int(token, "parameter")
        for token, code in zip(tokens[1:-1], spec)
    )
    if tokens[-1] not in ("fwd", "bwd"):
        raise CertificateError("direction must be fwd or bwd")
    return schema, params, tokens[-1] == "fwd"


def _parse_step(line: str, model: SurfaceModel) -> RewriteStep:
    """One step line, of any form; the caller names the line in an error."""
    tag, _, rest = line.partition(" ")
    if tag == "step":
        if line.count(" ") < 3:
            raise CertificateError("malformed schema step")
        position, _, tail = rest.partition(" ")
        return SchemaStep(_parse_int(position, "position"), *_schema_fields(tail.split(" ")))
    if tag == "free":
        if line.count(" ") != 4:
            raise CertificateError("malformed free step")
        op, position, letter, exponent = rest.split(" ")
        if op not in _FREE_OPS:
            raise CertificateError(f"unknown free op {op!r}")
        number = _parse_int(position, "position")
        return FreeStep(op, number, _parse_letter(letter), _parse_int(exponent, "exponent"))
    if tag == "move":
        fields = rest.split(" ")
        if len(fields) != 3 or fields[2] not in ("fwd", "bwd"):
            raise CertificateError("malformed move step")
        number, length = _parse_int(fields[0], "position"), _parse_int(fields[1], "length")
        return MoveStep(number, length, fields[2] == "fwd")
    if tag == "gather":
        fields = rest.split(" ")
        if len(fields) != 4 or fields[3] not in ("fwd", "bwd"):
            raise CertificateError("malformed gather step")
        number, length, copies = (
            _parse_int(token, what) for token, what in zip(fields, ("position", "length", "copies"))
        )
        return GatherStep(number, length, copies, fields[3] == "fwd")
    if tag == "block":
        op, _, rest = rest.partition(" ")
        position, _, text = rest.partition(" ")
        number = _parse_int(position, "position")
        try:
            syllables = parse_word(text, model).syllables
        except WordError as exc:
            raise CertificateError(f"bad block word: {exc}") from None
        if _grouped_text(syllables) != text:
            raise CertificateError(f"block word {text[:40]!r} is not in its written form")
        return BlockStep(op, number, syllables)
    raise CertificateError("expected a step, move, gather, free or block line")


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

    def word_line(n: int, tag: str) -> Word:
        try:
            return parse_word(header(n, tag), model)
        except WordError as exc:
            raise CertificateError(f"line {n + 1}: {exc}") from None

    kind = header(0, "model")
    genus = _parse_int(header(1, "genus"), "genus")
    model = SurfaceModel(genus, kind)
    start = word_line(2, "start")
    end = word_line(3, "end")
    steps: list[RewriteStep] = []
    for n, line in enumerate(lines[4:], 5):
        try:
            steps.append(_parse_step(line, model))
        except CertificateError as exc:
            raise CertificateError(f"line {n}: {exc}") from None
    return Certificate(start, end, tuple(steps))
