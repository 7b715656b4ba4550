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
Klein bottle of ``t_1``, ``u_1``, ``y_1``.  :func:`instantiate` is the one
place where parameters become letters, memoized per ``(schema, params,
model)``.

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
  ``L^-1 = R^-1``.  The inverse sides are stored with the instance the
  first time a step compares a window with them, so a replay inverts
  each side at most once while the instance memo holds it;
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
  checks the moving letter against each distinct letter it passes with
  :func:`_commutation`, memoized per pair of letters and model: the
  check of :func:`commute_step`, which builds no step, so a move is
  exactly the run of commutation steps it abbreviates; flipping the
  direction inverts it;
* gather steps collect ``copies`` periods ``A x^e``, ``A`` being the
  ``len`` syllables at ``pos``: ``fwd`` turns ``(A x^e)^copies`` into
  ``A^copies x^(e·copies)``, checked by one comparison with the first
  period and the same commutation check of ``x`` against each
  distinct letter of ``A``; ``bwd`` turns ``A^copies x^E`` back into
  ``(A x^(E/copies))^copies``.  A gather is exactly its rounds ``move
  pos+kL L fwd``, ``free merge pos+(k+1)L x k·e`` (``L = len``, ``k =
  1 .. copies-1``), so it needs no further axiom; flipping the
  direction inverts it.

Replay keeps a start built by ``**`` as its power's parts
(:func:`~.words._power_parts`): a head, ``count`` copies of one unit, a
tail.  A forward gather of exactly the copies, and a schema step at
their start whose pattern is whole copies, act on the count; any other
step acts on the head, or on the state written out once a step reads
past the head.  So a root's replay writes out O(g^2) of the about g^3
syllables of its start ``root^m``; a braid certificate, whose first
gather is not aligned with the copies, replays written out.

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

The start and end lines write each word as it was built, in the same
grammar (see :class:`~mcgroots.words.Word`): a parsed word as its text,
``base ** n`` as ``(base)^n`` and a product as its factors side by
side, so the start ``(D^p X^q)^m`` of a root certificate reads
``((D)^p X^q)^m``.  A block's word is written flat, syllable by
syllable, and read only in that form.  Serialization round-trips
bit-exactly.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from operator import itemgetter
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
    _is_power,
    _letter,
    _model_kind,
    _power_parts,
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
    """One concrete relation ``lhs = rhs`` of a model's presentation.

    The private slot ``_inverses`` keeps the syllables of ``lhs^-1`` and
    ``rhs^-1`` once a step first compares a window with them (see
    :func:`_inverse_sides`); it is not a field.
    """

    __slots__ = ("schema", "params", "model", "lhs", "rhs", "_inverses")

    def __init__(self, schema: str, params: tuple, model: SurfaceModel, lhs: Word, rhs: Word):
        super().__init__(schema, params, model, lhs, rhs)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


@lru_cache(maxsize=None)  # a root build asks three times
def boundary_identity(model: SurfaceModel) -> tuple[str, Word, int] | None:
    """``(schema, D, m)`` of the model's boundary identity ``u_1^2 = D^m``, if any."""
    # every block letter lies in the model's alphabet, and no two neighbours share one
    g = model.genus
    if model.is_hybrid:
        chain = Word._of(model, tuple((_letter("c", k), 1) for k in range(1, g - 1)))
        return "R7chain", chain ** 2, g - 1
    if g % 2:
        chain = Word._of(model, tuple((_letter("u", k), 1) for k in range(3, g)))
        return "R6closed-odd", chain, g - 2
    if g >= 6:
        head = ((_letter("u", 3), 2),)
        tail = tuple((_letter("u", k), 1) for k in range(4, g))
        return "R6closed-even", Word._of(model, head + tail), g - 3
    return None


def instantiate(schema: str, params, model: SurfaceModel) -> RelationInstance:
    """Build a relation instance, validating all side conditions.

    Instances are memoized per ``(schema, params, model)``, equal models
    sharing an entry; they are frozen, so callers share them safely.
    Integer parameters are stored as ``int``, so a ``bool`` shares the
    entry of its integer.  A parameter of another type than ``int``,
    ``bool`` and ``str`` (a float equal to an integer among them) is
    refused before the memo is asked, so the verdict never depends on what
    is cached.  A call that raises :class:`SchemaError` raises again on
    every call.
    """
    params = tuple(params)
    for value in params:
        if type(value) not in (int, bool, str):
            raise SchemaError(f"{schema}: integer parameter expected, got {value!r}")
    return _build_instance(schema, params, model)


@lru_cache(maxsize=4096)
def _build_instance(schema: str, params: tuple, model: SurfaceModel) -> RelationInstance:
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
    if home not in (None, model.kind):
        raise SchemaError(f"{schema} belongs to the {home} model")
    g = model.genus

    if schema in _COMMUTING_KINDS:
        p, q, a, b = params
        kinds = _COMMUTING_KINDS[schema]
        x = _letter(p, 1) if spec[0] == "k" else _letter(kinds[0], p)
        z = _letter(kinds[1], q)
        _commuting_letters(schema, x, z, model)
        _require(a != 0 and b != 0, f"{schema} exponents must be nonzero")
        lhs = Word._of(model, ((x, a), (z, b)))
        rhs = Word._of(model, ((z, b), (x, a)))
    elif schema == "R2":
        (i,) = params
        _require(i <= g - 2, f"R2 needs 1 <= i <= {g - 2}")
        lhs = Word(model, ((_letter("u", i), 1), (_letter("u", i + 1), 1), (_letter("u", i), 1)))
        rhs = Word(model, ((_letter("u", i + 1), 1), (_letter("u", i), 1), (_letter("u", i + 1), 1)))
    elif schema == "R3":
        chain = Word(model, ((_letter("u", k), 1) for k in range(1, g)))
        lhs = chain ** g
        rhs = Word(model, ())
    elif schema == "R5":
        base = Word(model, ((_letter("u", 1), 2),) + tuple((_letter("u", k), 1) for k in range(2, g)))
        lhs = base ** (g - 1)
        rhs = Word(model, ())
    elif schema in ("R6closed-odd", "R6closed-even", "R7chain"):
        identity = boundary_identity(model)
        _require(
            identity is not None and identity[0] == schema,
            f"{schema} is not the boundary identity of the {model.describe()}",
        )
        _, block, m = identity
        lhs = Word(model, ((_letter("u", 1), 2),))
        rhs = block ** m
    elif schema == "SlideDef":
        (i,) = params
        _require(model.admits(_letter("y", i)), f"SlideDef index {i} is not admissible")
        lhs = Word(model, ((_letter("y", i), 1),))
        rhs = Word(model, ((_letter("t", i), 1), (_letter("u", i), 1)))
    elif schema == "UsquaredYsquared":
        (i,) = params
        _require(model.admits(_letter("u", i)), f"UsquaredYsquared index {i} is not admissible")
        lhs = Word(model, ((_letter("u", i), 2),))
        rhs = Word(model, ((_letter("y", i), 2),))
    else:  # pragma: no cover - SCHEMA_IDS and dispatch agree
        raise SchemaError(f"unhandled schema {schema!r}")
    return RelationInstance(schema, params, model, lhs, rhs)


def _commuting_letters(
    schema: str, x: GeneratorLetter, z: GeneratorLetter, model: SurfaceModel
) -> None:
    """Raise the :class:`SchemaError` of ``schema`` unless ``x z = z x`` is its instance.

    Both letters must be admissible, their supports disjoint and, for one
    kind, ``x`` must have the lower index: the one statement of when two
    letters commute.  A message is built only when its check fails.
    """
    if not (model.admits(x) and model.admits(z)):
        raise SchemaError(f"{schema}: {x} or {z} is not admissible")
    # a chain twist misses the Klein bottle; other letters need |i - j| > 1
    if (x.kind == "c") == (z.kind == "c") and abs(x.index - z.index) <= 1:
        raise SchemaError(f"{schema} needs disjoint supports, but {x} and {z} meet")
    if x.kind == z.kind and x.index >= z.index:
        raise SchemaError(f"{schema} needs i < j")


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


def _check_position(tag: str, position: int) -> None:
    """Refuse a negative step position, naming the step's line tag."""
    if position < 0:
        raise CertificateError(f"{tag} position {position} is negative")


class SchemaStep(_Record):
    """Replace one side of a relation instance by the other at a position."""

    __slots__ = ("position", "schema", "params", "forward")

    def __init__(self, position: int, schema: str, params: tuple, forward: bool = True):
        _check_position("step", position)
        super().__init__(position, schema, params, forward)


class FreeStep(_Record):
    """Free-group bookkeeping: insert/delete a canceling pair, merge/split syllables."""

    __slots__ = ("op", "position", "letter", "exponent")

    def __init__(self, op: str, position: int, letter: GeneratorLetter, exponent: int):
        if op not in _FREE_OPS:
            raise CertificateError(f"unknown free op {op!r}")
        _check_position("free", position)
        if exponent == 0:
            raise CertificateError("free exponent must be nonzero")
        super().__init__(op, position, letter, exponent)


class MoveStep(_Record):
    """Carry one syllable past the ``length`` syllables after ``position``.

    Forward, the syllable at ``position`` moves right to ``position +
    length``; backward, the syllable at ``position + length`` moves left to
    ``position``.  ``length`` is at least 1; ``position`` is not negative.
    """

    __slots__ = ("position", "length", "forward")

    def __init__(self, position: int, length: int, forward: bool = True):
        _check_position("move", position)
        if length < 1:
            raise CertificateError(f"move length must be >= 1, got {length}")
        super().__init__(position, length, forward)


class GatherStep(_Record):
    """Gather ``copies`` periods ``A x^e`` at ``position``, ``A`` being ``length`` syllables.

    Forward, the window ``(A x^e)^copies`` becomes ``A^copies
    x^(e·copies)``; backward, ``A^copies x^E`` becomes ``(A
    x^(E/copies))^copies``.  ``length`` is at least 1, ``copies`` at
    least 2, and ``position`` is not negative.
    """

    __slots__ = ("position", "length", "copies", "forward")

    def __init__(self, position: int, length: int, copies: int, forward: bool = True):
        _check_position("gather", position)
        if length < 1:
            raise CertificateError(f"gather length must be >= 1, got {length}")
        if copies < 2:
            raise CertificateError(f"gather copies must be >= 2, got {copies}")
        super().__init__(position, length, copies, forward)


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
        _check_position("block", position)
        if len(syllables) < 2:
            raise CertificateError(f"a block needs 2 or more syllables, got {len(syllables)}")
        if _reduce_syllables(syllables) != syllables:
            raise CertificateError(f"block word {_format_syllables(syllables)} is not reduced")
        super().__init__(op, position, syllables)


RewriteStep = Union[SchemaStep, FreeStep, MoveStep, GatherStep, BlockStep]


def invert_step(step: RewriteStep) -> RewriteStep:
    """The step that undoes ``step`` at the same position."""
    if isinstance(step, (FreeStep, BlockStep)):
        return step._replace(op=_INVERSE_OPS[step.op])
    return step._replace(forward=not step.forward)


def _inverse_sides(inst: RelationInstance) -> tuple[tuple[Syllable, ...], tuple[Syllable, ...]]:
    """The syllables of ``lhs^-1`` and ``rhs^-1``, inverted at the first call and kept.

    They live as long as the instance, so the instance memo keeps them too.
    """
    inverses = getattr(inst, "_inverses", None)
    if inverses is None:
        inverses = (_inverse_syllables(inst.lhs.syllables), _inverse_syllables(inst.rhs.syllables))
        object.__setattr__(inst, "_inverses", inverses)
    return inverses


def _window_mismatch(
    what: str, pos: int, name: str, expected: tuple, found: tuple, inverse: str = ""
) -> CertificateError:
    """The mismatch of the window ``found`` at ``pos`` with the ``expected`` side.

    A side of more than 12 syllables is named by its length, with the first
    syllable where the window differs; a shorter one is written out, as is the window.
    """
    if len(expected) <= 12:
        return CertificateError(
            f"{what} mismatch at position {pos}: expected {_format_syllables(expected)}{inverse},"
            f" found {_format_syllables(found)}"
        )
    k = next((k for k, (a, b) in enumerate(zip(found, expected)) if a != b), len(found))
    return CertificateError(
        f"{what} mismatch at position {pos}: expected a {name} of {len(expected)} syllables"
        f"{inverse}, found {_format_syllables(found[k : k + 1], 'the end')} at position"
        f" {pos + k}, where the {name} has {_format_syllables(expected[k : k + 1])}"
    )


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
    if pos > len(state):
        raise CertificateError(f"step position {pos} out of range 0..{len(state)}")
    end = pos + len(pattern)
    found = tuple(state[pos:end])
    if found == pattern:
        state[pos:end] = replacement
        return
    inverse_lhs, inverse_rhs = _inverse_sides(inst)
    inverse_pattern, inverse_replacement = (
        (inverse_lhs, inverse_rhs) if step.forward else (inverse_rhs, inverse_lhs)
    )
    if found == inverse_pattern:
        state[pos:end] = inverse_replacement
        return
    raise _window_mismatch("occurrence", pos, "pattern", pattern, found, " or its inverse")


def _check_syllables(syllables: Iterable[Syllable], model: SurfaceModel) -> None:
    for letter, _ in syllables:
        if not model.admits(letter):
            raise CertificateError(f"letter {letter} is not admissible in the {model.describe()}")


def _apply_block(
    state: list[Syllable], op: str, pos: int, syllables: tuple[Syllable, ...], model: SurfaceModel
) -> None:
    """Insert or delete ``w w^-1`` at ``pos``, ``w`` being ``syllables``: a block or a pair."""
    _check_syllables(syllables, model)
    block = syllables + _inverse_syllables(syllables)
    if op == "insert":
        if pos > len(state):
            raise CertificateError(f"insert position {pos} out of range 0..{len(state)}")
        state[pos:pos] = block
        return
    found = tuple(state[pos : pos + len(block)])
    if found != block:
        raise _window_mismatch("delete", pos, "block", block, found)
    del state[pos : pos + len(block)]


def _apply_free_step(state: list[Syllable], step: FreeStep, model: SurfaceModel) -> None:
    pos, letter, e = step.position, step.letter, step.exponent
    if step.op in ("insert", "delete"):
        _apply_block(state, step.op, pos, ((letter, e),), model)
        return
    _check_syllables(((letter, e),), model)
    if step.op == "split":
        if pos >= len(state):
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
        len(found) != 2
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
def _commutation(
    x: GeneratorLetter, z: GeneratorLetter, model: SurfaceModel
) -> tuple[str, bool, GeneratorLetter, GeneratorLetter]:
    """The commutation schema that swaps ``x z``, its direction and the pair in schema order.

    The kinds of the pair, in order, name the schema; kinds that do so only
    reversed, or an R1 pair with the higher index first, give the backward
    step, of the pair ``z x``.  Raises :class:`SchemaError` unless the model
    has the schema and the pair meets its side conditions
    (:func:`_commuting_letters`).  The exponents of a working state are
    nonzero and ask nothing more, so the letters decide: this is the one
    check of moves, gathers and :func:`commute_step`, and builds no word.
    """
    schema = _COMMUTING.get((x.kind, z.kind))
    forward = schema is not None and (x.kind != z.kind or x.index < z.index)
    first, second = (x, z) if forward else (z, x)
    if not forward:
        schema = _COMMUTING.get((first.kind, second.kind))
    if _SCHEMAS.get(schema, ("", None))[1] != model.kind:
        raise SchemaError(f"no commutation schema for the pair {x}, {z}")
    _commuting_letters(schema, first, second, model)
    return schema, forward, first, second


def _blocked(
    x: GeneratorLetter, passed: Sequence[Syllable], forward: bool, model: SurfaceModel
) -> tuple[int, str] | None:
    """The index in ``passed`` of a syllable ``x`` cannot pass, and why; ``None`` if none.

    ``forward`` puts ``x`` first in each pair checked.  Each distinct
    letter is checked once (shared letters are one object each), in order
    of first occurrence, so for syllables in the order ``x`` meets them
    the first failing letter is the first failing swap.
    """
    letters = list(map(itemgetter(0), passed))
    for letter in dict(zip(map(id, letters), letters)).values():
        try:
            _commutation(*((x, letter) if forward else (letter, x)), model)
        except SchemaError as exc:
            return next(k for k, other in enumerate(letters) if other is letter), str(exc)
    return None


def _apply_move_step(state: list[Syllable], step: MoveStep, model: SurfaceModel) -> None:
    pos, length = step.position, step.length
    end = pos + length
    if end >= len(state):
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


def _apply_flat(state: list[Syllable], step: RewriteStep, model: SurfaceModel) -> None:
    """Apply one step to the written-out syllable list in place."""
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


class _Run(list):
    """A replay state: this list, its head at position 0, then ``count`` copies of ``unit``
    and ``tail``.  ``last`` is the last pattern found to be copies of ``unit``, and their unit."""

    __slots__ = ("unit", "count", "tail", "last")

    def __init__(self, head: Sequence[Syllable], unit: tuple, count: int, tail: tuple):
        super().__init__(head)
        self.unit, self.count, self.tail, self.last = unit, count, tail, (None, None)
        if not count:
            self.written()

    def written(self) -> "_Run":
        """The whole state, written out into this list for good."""
        self += self.unit * self.count
        self += self.tail
        self.unit, self.count, self.tail = (), 0, ()
        return self


def _apply_on_run(run: _Run, step: RewriteStep, model: SurfaceModel) -> bool:
    """Apply a step on whole copies of the run; False, changing nothing, for any other step.

    A forward gather of exactly the copies needs only the letter check.  A
    schema step at their start whose pattern, or its inverse, is ``k``
    copies of a unit ``v`` of the run's unit (whose length divides both
    lengths, so their gcd does) counts the run in ``v`` and takes ``k`` off.
    """
    at, unit, count = len(run), run.unit, run.count
    if step.__class__ is GatherStep:
        if step.forward and (step.position, step.copies, step.length + 1) == (at, count, len(unit)):
            block, (x, e) = unit[:-1], unit[-1]
            if not _blocked(x, block, True, model):  # else the flat step names the letter
                run.unit, run.tail = block, ((x, e * count),) + run.tail
                return True
        return False
    if step.__class__ is not SchemaStep or step.position != at:
        return False
    try:
        inst = instantiate(step.schema, step.params, model)
    except SchemaError:
        return False
    for sides in ((inst.lhs.syllables, inst.rhs.syllables), None):  # as the flat step
        pattern, replacement = (sides or _inverse_sides(inst))[:: 1 if step.forward else -1]
        if run.last[0] is not pattern or run.last[1] is not unit:  # else compared already
            d = math.gcd(len(pattern), len(unit))
            v, k = unit[:d], len(pattern) // d
            if pattern[:d] != v or pattern != v * k or unit != v * (len(unit) // d):
                continue
            run.last = (pattern, v)
        v = run.last[1]
        if len(pattern) > count * len(unit):
            return False
        run.unit, run.count = v, (count * len(unit) - len(pattern)) // len(v)
        run += replacement
        if not run.count:
            run.written()
        return True
    return False


def apply_step(state: list[Syllable], step: RewriteStep, model: SurfaceModel) -> None:
    """Apply one step to the working state in place: a syllable list or a :class:`_Run`.

    A run takes a step on its copies there (:func:`_apply_on_run`), and any
    other on its head, at position 0.  A step that reads past the head fails
    at its end; a failed step acts again on the state written out, so the
    results and messages are those of the list.
    """
    if state.__class__ is _Run and state.count:
        if _apply_on_run(state, step, model):
            return
        try:
            _apply_flat(state, step, model)
            return
        except CertificateError:
            state.written()
    _apply_flat(state, step, model)


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

    A start built by ``**`` replays as a :class:`_Run` of its power's parts,
    from its record and checked against its length; any other is written
    out.  Raises :class:`CertificateError` with the 1-based step number on
    the first step that does not apply.
    """
    start = certificate.start
    source = getattr(start, "_source", None)
    try:
        parts = _power_parts(source[0].syllables, source[1]) if _is_power(source) else ()
    except WordError:  # a power of a power near the cap
        parts = ()
    head, unit, count, tail = parts or (start.syllables, (), 0, ())
    if len(head) + len(unit) * count + len(tail) != len(start.syllables):
        head, unit, count, tail = start.syllables, (), 0, ()
    state = _Run(head, unit, count, tail)
    for number, step in enumerate(certificate.steps, 1):
        try:
            apply_step(state, step, certificate.model)
        except CertificateError as exc:
            raise CertificateError(f"step {number}: {exc}") from None
    return tuple(state.written())


def commute_step(state: Sequence[Syllable], position: int, model: SurfaceModel) -> SchemaStep:
    """The schema step that swaps the syllables ``state[position]``, ``state[position + 1]``.

    The schema and direction are those of :func:`_commutation`.
    ``position`` must have a right neighbour and the instance must meet
    its side conditions; otherwise :class:`SchemaError` is raised.
    """
    if not 0 <= position < len(state) - 1:
        raise SchemaError(f"position {position} has no right neighbour in {len(state)} syllables")
    (x, a), (z, b) = state[position], state[position + 1]
    schema, forward, first, second = _commutation(x, z, model)
    p = first.kind if _SCHEMAS[schema][0][0] == "k" else first.index
    exponents = (a, b) if forward else (b, a)
    step = SchemaStep(position, schema, (p, second.index, *exponents), forward)
    instantiate(step.schema, step.params, model)  # the exponents' side conditions, now
    return step


# At most four index digits: far above MAX_GENUS, and never past the int() limit.
_LETTER_RE = re.compile(r"^([tuyc])([1-9][0-9]{0,3})$")


def certificate_to_text(certificate: Certificate) -> str:
    """Serialize a certificate to its line-oriented text form."""
    model = certificate.model
    lines = [f"model {model.kind}", f"genus {model.genus}"]
    for tag, word in (("start", certificate.start), ("end", certificate.end)):
        text = _grouped_text(word)
        lines.append(f"{tag} {text}" if text else tag)
    for step in certificate.steps:
        if isinstance(step, BlockStep):
            lines.append(f"block {step.op} {step.position} {_format_syllables(step.syllables)}")
        elif isinstance(step, FreeStep):
            lines.append(f"free {step.op} {step.position} {step.letter._text} {step.exponent}")
        else:
            way = "fwd" if step.forward else "bwd"
            if isinstance(step, SchemaStep):
                params = "".join([f" {p}" for p in step.params])
                lines.append(f"step {step.position} {step.schema}{params} {way}")
            elif isinstance(step, MoveStep):
                lines.append(f"move {step.position} {step.length} {way}")
            else:
                lines.append(f"gather {step.position} {step.length} {step.copies} {way}")
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
        number = _parse_int(position, "position")
        return FreeStep(op, number, _parse_letter(letter), _parse_int(exponent, "exponent"))
    step_type = {"move": MoveStep, "gather": GatherStep}.get(tag)
    if step_type:  # integer fields, named as the step names them, then the direction
        names, fields = step_type._fields[:-1], rest.split(" ")
        if len(fields) != len(names) + 1 or fields[-1] not in ("fwd", "bwd"):
            raise CertificateError(f"malformed {tag} step")
        numbers = (_parse_int(token, name) for token, name in zip(fields, names))
        return step_type(*numbers, fields[-1] == "fwd")
    if tag == "block":
        op, _, rest = rest.partition(" ")
        position, _, text = rest.partition(" ")
        number = _parse_int(position, "position")
        try:
            syllables = parse_word(text, model).syllables
        except WordError as exc:
            raise CertificateError(f"bad block word: {exc}") from None
        if _format_syllables(syllables, "") != text:
            raise CertificateError(f"block word {text[:40]!r} is not in its written form")
        return BlockStep(op, number, syllables)
    raise CertificateError("expected a step, move, gather, free or block line")


def certificate_from_text(text: str) -> Certificate:
    """Parse the line-oriented certificate format; inverse of serialization."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise CertificateError("certificate needs model, genus, start, and end lines")

    def header(n: int, tag: str, read):
        """Line ``n`` read by ``read`` after its ``tag``; an error names the line."""
        line = lines[n]
        if line != tag and not line.startswith(tag + " "):
            raise CertificateError(f"line {n + 1}: expected {tag!r}")
        try:
            return read(line[len(tag) + 1 :])
        except (WordError, CertificateError) as exc:
            raise CertificateError(f"line {n + 1}: {exc}") from None

    kind = header(0, "model", _model_kind)
    model = header(1, "genus", lambda text: SurfaceModel(_parse_int(text, "genus"), kind))
    start = header(2, "start", lambda text: parse_word(text, model))
    end = header(3, "end", lambda text: parse_word(text, model))
    steps: list[RewriteStep] = []
    for n, line in enumerate(lines[4:], 5):
        try:
            steps.append(_parse_step(line, model))
        except CertificateError as exc:
            raise CertificateError(f"line {n}: {exc}") from None
    return Certificate(start, end, tuple(steps))
