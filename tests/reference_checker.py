"""An independent checker of certificate text, for differential tests of replay.

It imports nothing from ``mcgroots``.  The word grammar, the model
alphabets, the relation schemas and the five step kinds are written
again here from README's statements of them, and a certificate is
replayed flat: the state is a tuple of syllables, every step builds a
new one, and every schema step builds its relation instance afresh.
Nothing is memoized and no power is kept unwritten, so this replay shares
no code and no shortcut with the package's.

A letter is a pair ``(kind, index)`` and a syllable ``(letter, exponent)``.
:func:`read` parses a certificate, :func:`replay` applies its steps and
returns the final syllables; both raise :class:`Refused` at the first
fault, with a message that is not meant to match the package's.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Refused(Exception):
    """The text is no certificate, or one of its steps does not apply."""


class Model(NamedTuple):
    kind: str  # "standard" or "hybrid"
    genus: int


class Step(NamedTuple):
    tag: str  # step, move, gather, free or block
    position: int
    fields: tuple  # the fields after the position, as read


class Certificate(NamedTuple):
    model: Model
    start: tuple
    end: tuple
    steps: tuple


def _refuse(condition: bool, message: str) -> None:
    if not condition:
        raise Refused(message)


# --- words -----------------------------------------------------------------

# A term is a generator with an optional exponent; a group closes with an
# optional exponent; anything else that is not whitespace is an error.
_TOKEN = re.compile(r"([tuyc])([1-9][0-9]*)(?:\^(-?[0-9]+))?|(\()|\)(?:\^(-?[0-9]+))?|(\S)")


def admits(model: Model, letter: tuple) -> bool:
    """Standard: ``t``, ``u``, ``y`` of index 1..g-1.  Hybrid: ``t1``, ``u1``,
    ``y1`` of the Klein bottle and the chain twists ``c1 .. c_{g-2}``."""
    kind, index = letter
    if model.kind == "hybrid":
        return 1 <= index <= model.genus - 2 if kind == "c" else index == 1
    return kind != "c" and 1 <= index <= model.genus - 1


def reduce(syllables) -> tuple:
    """Free reduction: merge neighbours of one letter, drop exponent 0."""
    out: list = []
    for letter, e in syllables:
        if out and out[-1][0] == letter:
            e += out.pop()[1]
        if e:
            out.append((letter, e))
    return tuple(out)


def inverse(syllables) -> tuple:
    return tuple((letter, -e) for letter, e in reversed(syllables))


def power(syllables, n: int) -> tuple:
    return reduce((syllables if n >= 0 else inverse(syllables)) * abs(n))


def parse_word(text: str, model: Model) -> tuple:
    """The reduced syllables of word text: terms side by side, ``(T)^n`` a power."""
    groups: list[list] = [[]]
    for match in _TOKEN.finditer(text):
        kind, index, exponent, opening, closing, junk = match.groups()
        _refuse(junk is None, f"unexpected {junk!r} in word {text!r}")
        if opening:
            groups.append([])
        elif kind:
            letter = (kind, int(index))
            _refuse(admits(model, letter), f"letter {kind}{index} is not in the {model}")
            groups[-1].append((letter, int(exponent or 1)))
        else:
            _refuse(len(groups) > 1, f"unmatched ')' in word {text!r}")
            group = reduce(groups.pop())
            groups[-1].extend(power(group, int(closing or 1)))
    _refuse(len(groups) == 1, f"unclosed '(' in word {text!r}")
    return reduce(groups[0])


def format_syllables(syllables) -> str:
    return " ".join(f"{k}{i}" + (f"^{e}" if e != 1 else "") for (k, i), e in syllables)


# --- relations -------------------------------------------------------------

# Each schema's parameter codes: i an index (at least 1), e a nonzero
# exponent, k a letter kind t/u/y.
PARAMETERS = {
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

# The commutation schemas by the kinds of the pair ``x z`` they swap, ``x z = z x``.
COMMUTING = {
    ("u", "u"): "R1",
    ("t", "u"): "R4a",
    ("y", "u"): "R4b",
    ("t", "c"): "ChainCommute",
    ("u", "c"): "ChainCommute",
    ("y", "c"): "ChainCommute",
}


def _chain(kind: str, first: int, last: int) -> tuple:
    return tuple(((kind, k), 1) for k in range(first, last + 1))


def commutes(x: tuple, z: tuple, model: Model) -> bool:
    """Whether ``x z = z x`` is an instance of a commutation schema of the model.

    The kinds, in one order or the other, must name a schema of the model
    (R1, R4a, R4b standard, ChainCommute hybrid); both letters must be
    admissible, and their supports disjoint: a chain twist misses the Klein
    bottle of ``t1``, ``u1``, ``y1``, and letters near crosscaps ``i, i+1``
    and ``j, j+1`` are disjoint when ``|i - j| > 1``.
    """
    schema = COMMUTING.get((x[0], z[0])) or COMMUTING.get((z[0], x[0]))
    if schema is None or (schema == "ChainCommute") != (model.kind == "hybrid"):
        return False
    if not (admits(model, x) and admits(model, z)):
        return False
    return "c" in (x[0], z[0]) or abs(x[1] - z[1]) > 1


def instance(schema: str, params: tuple, model: Model) -> tuple[tuple, tuple]:
    """The sides ``(lhs, rhs)`` of a relation instance, built from README's table."""
    codes = PARAMETERS.get(schema)
    _refuse(codes is not None, f"unknown schema {schema}")
    _refuse(len(params) == len(codes), f"{schema} takes {len(codes)} parameters")
    for value, code in zip(params, codes):
        if code == "k":
            _refuse(value in ("t", "u", "y"), f"{schema}: bad letter kind {value!r}")
        else:
            _refuse(type(value) is int, f"{schema}: bad parameter {value!r}")
            _refuse(value >= 1 if code == "i" else value != 0, f"{schema}: bad parameter {value}")
    g, standard = model.genus, model.kind == "standard"
    if codes in ("iiee", "kiee"):
        p, q, a, b = params
        if schema == "ChainCommute":
            x, z = (p, 1), ("c", q)
        else:
            x, z = ({"R1": "u", "R4a": "t", "R4b": "y"}[schema], p), ("u", q)
            _refuse(schema != "R1" or p < q, "R1 needs i < j")
        _refuse(COMMUTING[x[0], z[0]] == schema and commutes(x, z, model), f"{x}, {z} meet")
        return ((x, a), (z, b)), ((z, b), (x, a))
    if schema == "R2":
        (i,) = params
        _refuse(standard and i <= g - 2, "R2 needs 1 <= i <= g-2")
        a, b = (("u", i), 1), (("u", i + 1), 1)
        return (a, b, a), (b, a, b)
    if schema in ("R3", "R5"):
        _refuse(standard, f"{schema} is a relation of the standard model")
        base = _chain("u", 1, g - 1) if schema == "R3" else ((("u", 1), 2),) + _chain("u", 2, g - 1)
        return power(base, g if schema == "R3" else g - 1), ()
    if schema in ("R6closed-odd", "R6closed-even", "R7chain"):
        # u1^2 = D^m, the twist about the boundary of the Klein bottle at crosscaps 1, 2
        if schema == "R6closed-odd":
            _refuse(standard and g % 2 == 1, "R6closed-odd needs odd standard genus")
            block, m = _chain("u", 3, g - 1), g - 2
        elif schema == "R6closed-even":
            _refuse(standard and g % 2 == 0 and g >= 6, "R6closed-even needs even genus >= 6")
            block, m = ((("u", 3), 2),) + _chain("u", 4, g - 1), g - 3
        else:
            _refuse(not standard, "R7chain is the hybrid model's")
            block, m = power(_chain("c", 1, g - 2), 2), g - 1
        return ((("u", 1), 2),), power(block, m)
    (i,) = params
    if schema == "SlideDef":
        _refuse(admits(model, ("y", i)), f"SlideDef index {i}")
        return ((("y", i), 1),), ((("t", i), 1), (("u", i), 1))
    _refuse(admits(model, ("u", i)), f"UsquaredYsquared index {i}")
    return ((("u", i), 2),), ((("y", i), 2),)


# --- certificates ----------------------------------------------------------


def _number(token: str) -> int:
    """Exactly the numerals ``str(int)`` writes."""
    _refuse(re.fullmatch(r"0|-?[1-9][0-9]*", token) is not None, f"bad number {token!r}")
    return int(token)


def _direction(token: str) -> bool:
    _refuse(token in ("fwd", "bwd"), f"bad direction {token!r}")
    return token == "fwd"


def read_step(line: str, model: Model) -> Step:
    """One step line of any of the five kinds."""
    tag, *tokens = line.split(" ")
    _refuse(len(tokens) >= 3, f"short step line {line!r}")
    if tag in ("free", "block"):  # the op comes before the position
        op, position, rest = tokens[0], tokens[1], tokens[2:]
    else:
        position, rest = tokens[0], tokens[1:]
    if tag == "step":
        schema, codes = rest[0], PARAMETERS.get(rest[0])
        _refuse(codes is not None and len(rest) == len(codes) + 2, f"bad schema step {line!r}")
        params = tuple(t if c == "k" else _number(t) for t, c in zip(rest[1:-1], codes))
        fields: tuple = (schema, params, _direction(rest[-1]))
    elif tag in ("move", "gather"):
        _refuse(len(rest) == (2 if tag == "move" else 3), f"bad {tag} step {line!r}")
        numbers = tuple(map(_number, rest[:-1]))  # the length, and a gather's copies
        _refuse(numbers[0] >= 1 and (tag == "move" or numbers[1] >= 2), f"bad {tag} {line!r}")
        fields = numbers + (_direction(rest[-1]),)
    elif tag == "free":
        word = parse_word(rest[0], model)
        _refuse(len(rest) == 2 and len(word) == 1 and word[0][1] == 1, f"bad free step {line!r}")
        _refuse(op in ("insert", "delete", "merge", "split"), f"bad free op {line!r}")
        fields = (op, word[0][0], _number(rest[1]))
        _refuse(fields[2] != 0, f"zero free exponent {line!r}")
    elif tag == "block":
        text, word = " ".join(rest), parse_word(" ".join(rest), model)
        _refuse(op in ("insert", "delete"), f"bad block op {line!r}")
        _refuse(format_syllables(word) == text and len(word) >= 2, f"bad block word {text!r}")
        fields = (op, word)
    else:
        raise Refused(f"unknown step line {line!r}")
    _refuse(_number(position) >= 0, f"negative position {line!r}")
    return Step(tag, int(position), fields)


def read(text: str) -> Certificate:
    """Parse certificate text: the model, genus, start and end lines, then the steps."""
    lines = text.splitlines()
    _refuse(len(lines) >= 4, "a certificate has four header lines")
    tags = [line.partition(" ") for line in lines[:4]]
    _refuse([t[0] for t in tags] == ["model", "genus", "start", "end"], "bad header")
    kind, genus = tags[0][2], _number(tags[1][2])
    _refuse(kind in ("standard", "hybrid") and 2 <= genus <= 50, "bad model")
    _refuse(kind == "standard" or (genus >= 4 and genus % 2 == 0), "bad hybrid genus")
    model = Model(kind, genus)
    start, end = (parse_word(t[2], model) for t in tags[2:])
    return Certificate(model, start, end, tuple(read_step(line, model) for line in lines[4:]))


def _window(state: tuple, pos: int, expected: tuple) -> None:
    _refuse(state[pos : pos + len(expected)] == expected, f"mismatch at {pos}")


def apply(state: tuple, step: Step, model: Model) -> tuple:
    """The state after one step."""
    pos = step.position
    _refuse(pos <= len(state), f"position {pos} past the end")
    if step.tag == "step":
        schema, params, forward = step.fields
        lhs, rhs = instance(schema, params, model)
        pattern, replacement = (lhs, rhs) if forward else (rhs, lhs)
        end = pos + len(pattern)
        if state[pos:end] == pattern:
            return state[:pos] + replacement + state[end:]
        _window(state, pos, inverse(pattern))
        return state[:pos] + inverse(replacement) + state[end:]
    if step.tag in ("free", "block") and step.fields[0] in ("insert", "delete"):
        if step.tag == "free":
            op, letter, e = step.fields
            word = ((letter, e),)
        else:
            op, word = step.fields
        _refuse(all(admits(model, letter) for letter, _ in word), "letter not admitted")
        block = word + inverse(word)
        if op == "insert":
            return state[:pos] + block + state[pos:]
        _window(state, pos, block)
        return state[:pos] + state[pos + len(block) :]
    if step.tag == "free":
        op, letter, e = step.fields
        _refuse(admits(model, letter), "letter not admitted")
        if op == "split":
            _refuse(pos < len(state) and state[pos][0] == letter and state[pos][1] != e, "split")
            return state[:pos] + ((letter, e), (letter, state[pos][1] - e)) + state[pos + 1 :]
        _refuse(pos + 1 < len(state) and state[pos] == (letter, e), "merge")
        _refuse(state[pos + 1][0] == letter and state[pos + 1][1] != -e, "merge")
        return state[:pos] + ((letter, e + state[pos + 1][1]),) + state[pos + 2 :]
    if step.tag == "move":
        length, forward = step.fields
        end = pos + length
        _refuse(end < len(state), "move past the end")
        moving = state[pos] if forward else state[end]
        passed = state[pos + 1 : end + 1] if forward else state[pos:end]
        _refuse(all(commutes(moving[0], letter, model) for letter, _ in passed), "move")
        moved = passed + (moving,) if forward else (moving,) + passed
        return state[:pos] + moved + state[end + 1 :]
    length, copies, forward = step.fields
    size = length + forward
    period = state[pos : pos + size]
    _refuse(len(period) == size, "gather past the end")
    _window(state, pos, period * copies)
    end = pos + size * copies
    if forward:
        block, (x, e) = period[:-1], period[-1]
        gathered = block * copies + ((x, e * copies),)
    else:
        _refuse(end < len(state) and state[end][1] % copies == 0, "gather share")
        block, (x, e) = period, state[end]
        gathered, end = (block + ((x, e // copies),)) * copies, end + 1
    _refuse(all(commutes(x, letter, model) for letter, _ in block), "gather")
    return state[:pos] + gathered + state[end:]


def replay(certificate: Certificate) -> tuple:
    """The final syllables of the certificate's steps, applied to its start."""
    state = certificate.start
    for number, step in enumerate(certificate.steps, 1):
        try:
            state = apply(state, step, certificate.model)
        except Refused as exc:
            raise Refused(f"step {number}: {exc}") from None
    return state
