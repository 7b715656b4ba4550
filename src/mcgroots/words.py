"""Words over the generator alphabet of a nonorientable-surface mapping class group.

The alphabet is parameterized by the genus ``g >= 2`` of a closed
nonorientable surface, presented as a connected sum of ``g`` projective
planes whose crosscaps are numbered ``1 .. g``.  Two alphabet models are
supported:

* ``standard`` -- letters ``t<i>``, ``u<i>``, ``y<i>`` for ``1 <= i <= g-1``:
  the Dehn twist about the two-sided curve running through crosscaps ``i``
  and ``i+1``, the crosscap transposition interchanging those crosscaps,
  and the crosscap slide supported in the same Klein-bottle neighborhood
  (the slide equals twist times transposition).
* ``hybrid`` -- the surface split into a Klein bottle with one boundary
  hole (supporting ``t1``, ``u1``, ``y1``) and an orientable complement
  carrying a chain of two-sided curves with twists ``c1 .. c<g-2>``.
  Requires even genus ``g >= 4``; only index 1 is admissible for the
  ``t``/``u``/``y`` kinds.

A :class:`Word` stores a run-length-encoded sequence of syllables
``(letter, exponent)`` with nonzero integer exponents.  Free reduction
(merging adjacent equal letters, dropping zero exponents) is applied
eagerly on every construction, so two words that are equal in the free
group compare equal structurally and hash alike.

Text grammar, shared by the parser, the printer and the certificate files::

    word   := term { term }
    term   := atom [ '^' int ]
    atom   := gen | '(' word ')'
    gen    := ('t'|'u'|'y'|'c') posint
    int    := ['-'] posint
    posint := [1-9][0-9]*

Terms are separated by whitespace; the empty string denotes the empty word.
Printing emits one space between syllables and an exponent suffix only when
the exponent differs from 1.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

__all__ = [
    "MAX_GENUS",
    "MAX_POWER_SYLLABLES",
    "GeneratorLetter",
    "ParseError",
    "SurfaceModel",
    "Syllable",
    "Word",
    "WordError",
    "format_word",
    "normalize_slides",
    "parse_word",
]

_KIND_NAMES = {
    "t": "two-sided twist",
    "u": "crosscap transposition",
    "y": "crosscap slide",
    "c": "chain twist",
}


# The largest genus a model may have.  The homology tables grow like g^3 and
# the root certificates like g^4; the largest root it admits (genus 50,
# orientable complement) takes about 30 s and 700 MB peak memory.
MAX_GENUS = 50

# The most syllables a power of a multi-syllable word may write out.  It sits
# above the start word of a genus-100 root (451 729 syllables); larger powers
# raise WordError before anything is written out.
MAX_POWER_SYLLABLES = 1 << 20


class WordError(ValueError):
    """Malformed letter, inadmissible word, or model mismatch."""


class ParseError(WordError):
    """Syntax error in word text; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


@dataclasses.dataclass(frozen=True)
class SurfaceModel:
    """Alphabet selector for a closed nonorientable surface of genus >= 2.

    ``kind`` is ``"standard"`` or ``"hybrid"``; the hybrid decomposition
    exists only for even genus >= 4.
    """

    genus: int
    kind: str = "standard"

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 2:
            raise WordError(f"genus must be an integer >= 2, got {self.genus!r}")
        if self.genus > MAX_GENUS:
            raise WordError(f"genus {self.genus} is over the cap of MAX_GENUS = {MAX_GENUS}")
        if self.kind not in ("standard", "hybrid"):
            raise WordError(f"unknown model kind {self.kind!r}")
        if self.kind == "hybrid" and (self.genus < 4 or self.genus % 2):
            raise WordError("hybrid model requires even genus >= 4")

    @classmethod
    def standard(cls, genus: int) -> "SurfaceModel":
        return cls(genus, "standard")

    @classmethod
    def hybrid(cls, genus: int) -> "SurfaceModel":
        return cls(genus, "hybrid")

    @property
    def is_hybrid(self) -> bool:
        return self.kind == "hybrid"

    def describe(self) -> str:
        return f"{self.kind} genus-{self.genus} model"

    def admits(self, letter: "GeneratorLetter") -> bool:
        """True iff the letter belongs to this model's alphabet."""
        if self.is_hybrid:
            if letter.kind == "c":
                return 1 <= letter.index <= self.genus - 2
            return letter.index == 1
        return letter.kind != "c" and 1 <= letter.index <= self.genus - 1

    def check(self, letter: "GeneratorLetter") -> None:
        if not self.admits(letter):
            raise WordError(f"letter {letter} is not admissible in the {self.describe()}")

    def letters(self) -> tuple["GeneratorLetter", ...]:
        """All admissible letters, in a fixed deterministic order."""
        out: list[GeneratorLetter] = []
        if self.is_hybrid:
            out.extend(GeneratorLetter(k, 1) for k in ("t", "u", "y"))
            out.extend(GeneratorLetter("c", i) for i in range(1, self.genus - 1))
        else:
            for kind in ("t", "u", "y"):
                out.extend(GeneratorLetter(kind, i) for i in range(1, self.genus))
        return tuple(out)


@dataclasses.dataclass(frozen=True, order=True)
class GeneratorLetter:
    """A single generator symbol: kind in {t, u, y, c} plus a 1-based index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise WordError(f"unknown letter kind {self.kind!r}")
        if not isinstance(self.index, int) or self.index < 1:
            raise WordError(f"letter index must be a positive integer, got {self.index!r}")

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


Syllable = tuple[GeneratorLetter, int]


def _reduce_syllables(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list] = []
    for letter, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == letter:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return tuple((letter, exp) for letter, exp in stack)


@dataclasses.dataclass(frozen=True)
class Word:
    """A free-reduced word over the model's alphabet.

    Construction validates every letter against the model, drops zero
    exponents, and merges adjacent syllables with equal letters, so the
    stored form is canonical: no syllable has exponent 0 and no two
    adjacent syllables share a letter.
    """

    model: SurfaceModel
    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        for letter, exp in self.syllables:
            if not isinstance(letter, GeneratorLetter):
                raise WordError(f"syllable letter must be a GeneratorLetter, got {letter!r}")
            if not isinstance(exp, int):
                raise WordError(f"syllable exponent must be an int, got {exp!r}")
            self.model.check(letter)
        reduced = _reduce_syllables(self.syllables)
        if reduced != tuple(self.syllables):
            object.__setattr__(self, "syllables", reduced)
        elif not isinstance(self.syllables, tuple):
            object.__setattr__(self, "syllables", tuple(self.syllables))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    @property
    def letter_count(self) -> int:
        """Total letter occurrences, counted with absolute exponents."""
        return sum(abs(exp) for _, exp in self.syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.model != self.model:
            raise WordError(
                f"cannot compose words from the {self.model.describe()} "
                f"and the {other.model.describe()}"
            )
        return Word(self.model, self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(self.model, tuple((letter, -exp) for letter, exp in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        if len(self.syllables) == 1:
            ((letter, exp),) = self.syllables
            return Word(self.model, ((letter, exp * n),))
        _check_power_size(len(self.syllables), n)
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.model, self.syllables * n)

    def __str__(self) -> str:
        return format_word(self)


def normalize_slides(word: Word) -> Word:
    """Rewrite every slide syllable ``y<i>^e`` as ``(t<i> u<i>)^e``.

    The result contains no ``y`` letters and is equal to ``word`` in any
    group where the slide is twist times transposition.  Like a power, the
    result may write out at most ``MAX_POWER_SYLLABLES`` syllables.
    """
    size = sum(2 * abs(exp) if letter.kind == "y" else 1 for letter, exp in word.syllables)
    _check_written_size("normalizing the slides", size)
    out: list[Syllable] = []
    for letter, exp in word.syllables:
        if letter.kind == "y":
            t = GeneratorLetter("t", letter.index)
            u = GeneratorLetter("u", letter.index)
            if exp > 0:
                out.extend(((t, 1), (u, 1)) * exp)
            else:
                out.extend(((u, -1), (t, -1)) * (-exp))
        else:
            out.append((letter, exp))
    return Word(word.model, tuple(out))


def format_word(word: Word) -> str:
    """Canonical text of a word; inverse of :func:`parse_word` on reduced words.

    >>> m = SurfaceModel.standard(5)
    >>> format_word(parse_word("(u3 u4)^-1 u1", m))
    'u4^-1 u3^-1 u1'
    """
    parts = []
    for letter, exp in word.syllables:
        parts.append(str(letter) if exp == 1 else f"{letter}^{exp}")
    return " ".join(parts)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _KIND_NAMES:
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1 : j]
            if not digits:
                raise ParseError(f"generator {c!r} is missing its index", i)
            if digits[0] == "0":
                raise ParseError("generator index must not start with 0", i + 1)
            tokens.append(("gen", (c, int(digits)), i))
            i = j
        elif c == "(":
            tokens.append(("lp", None, i))
            i += 1
        elif c == ")":
            tokens.append(("rp", None, i))
            i += 1
        elif c == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and text[k].isdigit():
                k += 1
            digits = text[j:k]
            if not digits:
                raise ParseError("'^' must be followed by an integer exponent", i)
            if digits[0] == "0":
                raise ParseError("exponent must be a nonzero integer without leading 0", j)
            tokens.append(("exp", int(text[i + 1 : k]), i))
            i = k
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _check_power_size(syllables: int, n: int) -> None:
    _check_written_size(f"the power {n} of a {syllables}-syllable word", syllables * abs(n))


def _check_written_size(what: str, size: int) -> None:
    if size > MAX_POWER_SYLLABLES:
        raise WordError(
            f"{what} would write out {size} syllables, over the cap of {MAX_POWER_SYLLABLES}"
        )


def _power_list(body: list[Syllable], e: int) -> list[Syllable]:
    body = list(_reduce_syllables(body))
    if len(body) <= 1:
        # a single syllable powers by scaling its exponent, in O(1)
        return [(letter, exp * e) for letter, exp in body]
    _check_power_size(len(body), e)
    if e > 0:
        return body * e
    inverse = [(letter, -exp) for letter, exp in reversed(body)]
    return inverse * (-e)


def _parse_term(tokens, k: int, model: SurfaceModel) -> tuple[list[Syllable], int]:
    kind, value, pos = tokens[k]
    if kind == "gen":
        letter = GeneratorLetter(*value)
        if not model.admits(letter):
            raise ParseError(f"letter {letter} is not admissible in the {model.describe()}", pos)
        body: list[Syllable] = [(letter, 1)]
        k += 1
    elif kind == "lp":
        body, k = _parse_sequence(tokens, k + 1, model)
        if tokens[k][0] != "rp":
            raise ParseError("unclosed '('", pos)
        k += 1
    else:
        raise ParseError("expected a generator or '('", pos)
    if tokens[k][0] == "exp":
        body = _power_list(body, tokens[k][1])
        k += 1
    return body, k


def _parse_sequence(tokens, k: int, model: SurfaceModel) -> tuple[list[Syllable], int]:
    out: list[Syllable] = []
    while tokens[k][0] in ("gen", "lp"):
        part, k = _parse_term(tokens, k, model)
        out.extend(part)
    return out, k


def parse_word(text: str, model: SurfaceModel) -> Word:
    """Parse word text into a free-reduced :class:`Word`.

    >>> m = SurfaceModel.standard(5)
    >>> parse_word("u1", m).syllables
    ((GeneratorLetter(kind='u', index=1), 1),)
    >>> str(parse_word("t1 t1 u2^-1 u2", m))
    't1^2'
    """
    tokens = _tokenize(text)
    try:
        syllables, k = _parse_sequence(tokens, 0, model)
    except RecursionError:
        first = next(pos for kind, _, pos in tokens if kind == "lp")
        raise ParseError("parentheses are nested too deeply", first) from None
    kind, _, pos = tokens[k]
    if kind != "end":
        message = "unmatched ')'" if kind == "rp" else "unexpected token"
        raise ParseError(message, pos)
    return Word(model, tuple(syllables))
