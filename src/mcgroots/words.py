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
group compare equal structurally and hash alike.  Powers and inverses of
a word are built reduced (see :func:`_power`), from letters the word has
already had checked, so they skip the checks of construction.

Letters are shared.  One table holds a :class:`GeneratorLetter` for each
kind and index up to ``MAX_GENUS``; the parser, a model's alphabet, the
relation instances and the root builders all take their letters from it.
Equal shared letters are then the same object, so comparing syllables and
words of them settles by identity, and a :class:`Word` of them is checked
and found reduced in one cheap pass.  The table is filled at import and
never grows: a larger index, which no model admits, makes a fresh letter.
A letter built directly is equal to the shared one and works everywhere,
only more slowly.

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

import re
from math import isqrt
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, Iterator, Sequence

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
    "parse_word",
]

_KIND_NAMES = {
    "t": "two-sided twist",
    "u": "crosscap transposition",
    "y": "crosscap slide",
    "c": "chain twist",
}


# The largest genus a model may have.  Only the start words of root certificates
# grow with it, like g^3 syllables (no homology table is built), and their text
# is the grouped power (root)^m with the root's repeated blocks grouped inside
# it, O(g) (at most 340 bytes at genus 50); the largest root it admits (genus
# 50, orientable complement) takes about 0.09 s and 18 MB peak memory in a cold
# `mcgroots root` call (best of 5, 2-vCPU Xeon, Python 3.11).
MAX_GENUS = 50

# The most syllables a power may write out: 2|w| + |c|·|e| for the power e of
# w c w^-1, whose core c alone is repeated (see _power).  It sits above the
# start word of a genus-100 root (451 729 syllables); larger powers raise
# WordError before anything is written out.  Word text may write out no more
# in all, at any level of its groups (see _parse_sequence).
MAX_POWER_SYLLABLES = 1 << 20


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields, in order, in ``__slots__`` (a name with a
    leading underscore holds a cached value, not a field); its ``__init__``
    checks the values and passes them to this ``__init__``.  Assigning or
    deleting a field afterwards raises ``AttributeError``.  Records of one
    class are equal, and hash alike, when their fields are; ``repr`` and
    pickling go through the fields.  The records built most (letters,
    models, words and certificate steps) set their fields through
    ``object.__setattr__`` themselves, and letters, compared most, write
    their own ``__eq__`` and ``__hash__``: the generic methods here, shared
    by every class, run about 1.5 times slower.

    These are plain classes, not frozen dataclasses, because importing
    :mod:`dataclasses` and generating the records' methods took about 25 ms
    of every cold ``mcgroots`` call.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _ordering(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), self._key(other))

    return compare


class _OrderedRecord(_Record):
    """A record ordered by its fields, compared in order."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_ordering, (lt, le, gt, ge))


class WordError(ValueError):
    """Malformed letter, inadmissible word, or model mismatch."""


class ParseError(WordError):
    """Syntax error in word text; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class SurfaceModel(_Record):
    """Alphabet selector for a closed nonorientable surface of genus >= 2.

    ``kind`` is ``"standard"`` or ``"hybrid"``; the hybrid decomposition
    exists only for even genus >= 4.
    """

    __slots__ = ("genus", "kind")

    def __init__(self, genus: int, kind: str = "standard"):
        if not isinstance(genus, int) or genus < 2:
            raise WordError(f"genus must be an integer >= 2, got {genus!r}")
        if genus > MAX_GENUS:
            raise WordError(f"genus {genus} is over the cap of MAX_GENUS = {MAX_GENUS}")
        if kind not in ("standard", "hybrid"):
            raise WordError(f"unknown model kind {kind!r}")
        if kind == "hybrid" and (genus < 4 or genus % 2):
            raise WordError("hybrid model requires even genus >= 4")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "kind", kind)

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
        if self.is_hybrid:
            out = [_letter(kind, 1) for kind in ("t", "u", "y")]
            out.extend(_letter("c", i) for i in range(1, self.genus - 1))
        else:
            out = [_letter(kind, i) for kind in ("t", "u", "y") for i in range(1, self.genus)]
        return tuple(out)


class GeneratorLetter(_OrderedRecord):
    """A single generator symbol: kind in {t, u, y, c} plus a 1-based index.

    The hash is computed on first use and kept: memo caches keyed by
    letters hash them on every lookup.  The text is kept too, since words
    are printed a letter at a time.
    """

    __slots__ = ("kind", "index", "_hash", "_text")

    def __init__(self, kind: str, index: int):
        if kind not in _KIND_NAMES:
            raise WordError(f"unknown letter kind {kind!r}")
        if not isinstance(index, int) or index < 1:
            raise WordError(f"letter index must be a positive integer, got {index!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_text", f"{kind}{index}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.index == other.index

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.kind, self.index)))
            return self._hash

    def __str__(self) -> str:
        return self._text


# The shared letters (see the module docstring), keyed by their text.
_LETTERS = {
    f"{kind}{index}": GeneratorLetter(kind, index)
    for kind in _KIND_NAMES
    for index in range(1, MAX_GENUS + 1)
}


def _letter(kind: str, index: int) -> GeneratorLetter:
    """The shared letter ``kind``/``index``, or a fresh one past the table."""
    return _LETTERS.get(f"{kind}{index}") or GeneratorLetter(kind, index)


Syllable = tuple[GeneratorLetter, int]


def _reduce_syllables(
    syllables: Iterable[Syllable], trace: list | None = None
) -> tuple[Syllable, ...]:
    """Free reduction on a stack; ``trace`` receives each merge as a free step.

    A step is ``(op, position, letter, exponent)`` on the partly reduced
    sequence, ``op`` being ``"delete"`` when the pair cancels and
    ``"merge"`` otherwise, with the left syllable's exponent.  Positions
    hold for input without zero exponents.
    """
    stack: list[list] = []
    for letter, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == letter:
            top = stack[-1]
            if trace is not None:
                op = "delete" if top[1] + exp == 0 else "merge"
                trace.append((op, len(stack) - 1, letter, top[1]))
            top[1] += exp
            if top[1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return tuple((letter, exp) for letter, exp in stack)


def _inverse_syllables(syllables: Sequence[Syllable]) -> tuple[Syllable, ...]:
    """The formal inverse: reversed order, negated exponents."""
    return tuple((letter, -exp) for letter, exp in reversed(syllables))


def _syllable_texts(syllables: Iterable[Syllable]) -> list[str]:
    """The text of each syllable in the text grammar."""
    return [letter._text if exp == 1 else f"{letter._text}^{exp}" for letter, exp in syllables]


def _format_syllables(syllables: Iterable[Syllable], empty: str = "(empty)") -> str:
    """Syllables in the text grammar; ``empty`` stands for no syllables."""
    return " ".join(_syllable_texts(syllables)) or empty


class Word(_Record):
    """A free-reduced word over the model's alphabet.

    Construction validates every letter against the model, drops zero
    exponents, and merges adjacent syllables with equal letters, so the
    stored form is canonical: no syllable has exponent 0 and no two
    adjacent syllables share a letter.
    """

    __slots__ = ("model", "syllables")

    def __init__(self, model: SurfaceModel, syllables: Iterable[Syllable] = ()):
        syllables = tuple(syllables)
        letters: dict[int, GeneratorLetter] = {}  # each letter object, checked once
        reduced, previous = True, None
        for letter, exp in syllables:
            if id(letter) not in letters or not isinstance(exp, int):
                if not isinstance(letter, GeneratorLetter):
                    raise WordError(f"syllable letter must be a GeneratorLetter, got {letter!r}")
                if not isinstance(exp, int):
                    raise WordError(f"syllable exponent must be an int, got {exp!r}")
                model.check(letter)
                letters[id(letter)] = letter
            if letter is previous or not exp:
                reduced = False
            previous = letter
        # Adjacent letters that are equal but not the same object need the
        # full reduction; with shared letters that never happens.
        if not reduced or len(set(letters.values())) < len(letters):
            syllables = _reduce_syllables(syllables)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "syllables", syllables)

    @classmethod
    def _of(cls, model: SurfaceModel, syllables: tuple[Syllable, ...]) -> "Word":
        """The word of reduced ``syllables`` of admitted letters, with no checks."""
        word = object.__new__(cls)
        object.__setattr__(word, "model", model)
        object.__setattr__(word, "syllables", syllables)
        return word

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

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
        return Word._of(self.model, _inverse_syllables(self.syllables))

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        return Word._of(self.model, _power(self.syllables, n))

    def __str__(self) -> str:
        return format_word(self)


def format_word(word: Word) -> str:
    """Canonical text of a word; inverse of :func:`parse_word` on reduced words.

    >>> m = SurfaceModel.standard(5)
    >>> format_word(parse_word("(u3 u4)^-1 u1", m))
    'u4^-1 u3^-1 u1'
    """
    return _format_syllables(word.syllables, "")


def _to_int(numeral: str, position: int) -> int:
    try:
        return int(numeral)
    except ValueError:  # over the interpreter's limit on integer-string digits
        raise ParseError(f"integer of {len(numeral)} characters is too long", position) from None


# One match per token with the whitespace before it, left to right; only
# trailing whitespace matches alone, at the end.  A generator carries its
# exponent, so a term ``gen ['^' int]`` is one token; a separate '^' follows
# ')' or stands where no term ends.  The last branch takes '(', ')' and any
# character no token starts with.  ASCII only: [0-9] and this space class,
# unlike \d, \s, str.isdigit and str.isspace.
_TOKEN_RE = re.compile(
    r"[ \t\n\r\f\v]*(?:"
    r"(([tuyc])([0-9]*))(?:[ \t\n\r\f\v]*\^(-?)([0-9]*))?"
    r"|\^(-?)([0-9]*)"
    r"|(.)"
    r"|\Z)",
    re.DOTALL,
)


def _exponent(sign: str, digits: str, caret: int) -> int:
    """The exponent written ``^<sign><digits>`` with its '^' at column ``caret``."""
    if not digits:
        raise ParseError("'^' must be followed by an integer exponent", caret)
    start = caret + 1 + len(sign)
    if digits[0] == "0":
        raise ParseError("exponent must be a nonzero integer without leading 0", start)
    return _to_int(sign + digits, start)


def _tokenize(text: str, model: SurfaceModel) -> list[tuple[str, object, int]]:
    """Tokens ``(kind, value, column)``.

    A generator term is one token whose value is its syllable: ``syl`` when
    the model admits the letter, ``gen`` when not.  Each distinct term text
    is read once; its later copies reuse the syllable.
    """
    tokens: list[tuple[str, object, int]] = []
    terms: dict[str, tuple[str, Syllable]] = {}
    for match in _TOKEN_RE.finditer(text):
        branch = match.lastindex
        if branch is None:  # trailing whitespace
            continue
        if branch <= 5:
            pos = match.start(1)
            term = match.group()
            known = terms.get(term)
            if known is None:
                name, kind, digits, sign, exp_digits = match.group(1, 2, 3, 4, 5)
                if not digits:
                    raise ParseError(f"generator {kind!r} is missing its index", pos)
                if digits[0] == "0":
                    raise ParseError("generator index must not start with 0", pos + 1)
                letter = _LETTERS.get(name) or GeneratorLetter(kind, _to_int(digits, pos + 1))
                exp = 1 if sign is None else _exponent(sign, exp_digits, match.start(4) - 1)
                known = terms[term] = ("syl" if model.admits(letter) else "gen", (letter, exp))
            tokens.append((known[0], known[1], pos))
        elif branch <= 7:
            pos = match.start(6) - 1
            tokens.append(("exp", _exponent(match.group(6), match.group(7), pos), pos))
        else:
            pos = match.start(8)
            char = match.group(8)
            if char not in "()":
                raise ParseError(f"unexpected character {char!r}", pos)
            tokens.append(("lp" if char == "(" else "rp", None, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def _conjugator_length(syllables: Sequence[Syllable]) -> int:
    """The length of the longest prefix ``w`` whose inverse is the suffix.

    The reduced ``syllables`` are then ``w c w^-1`` with a core ``c`` that
    is nonempty unless the word is.
    """
    k, n = 0, len(syllables)
    while 2 * k + 2 < n:
        letter, exp = syllables[k]
        if syllables[n - 1 - k] != (letter, -exp):
            break
        k += 1
    return k


def _power(syllables: tuple[Syllable, ...], e: int) -> tuple[Syllable, ...]:
    """The power ``e`` of reduced ``syllables``, itself reduced, as ``w c^e w^-1``.

    With ``syllables = w c w^-1`` (see :func:`_conjugator_length`) only the
    core ``c`` is written out ``|e|`` times, inverted for ``e < 0``; a
    core of one syllable powers by scaling its exponent.  A core
    ``x^a m x^b`` whose end syllables share the letter ``x`` has its
    copies joined by the one syllable ``x^(a+b)``, never trivial, since
    ``a + b = 0`` would have put ``x`` into ``w``; no other seam merges.
    What is written out, at most ``2|w| + |c|·|e|`` syllables, may be at
    most ``MAX_POWER_SYLLABLES``, except for the powers +-1, which write
    out no more than the word itself.
    """
    if e == 0 or not syllables:
        return ()
    k = _conjugator_length(syllables)
    conjugator, core = syllables[:k], syllables[k : len(syllables) - k]
    if len(core) == 1:
        ((letter, exp),) = core
        return conjugator + ((letter, exp * e),) + _inverse_syllables(conjugator)
    size = 2 * k + len(core) * abs(e)
    if abs(e) > 1 and size > MAX_POWER_SYLLABLES:
        raise WordError(
            f"the power {e} of a {len(syllables)}-syllable word would write out {size}"
            f" syllables, over the cap of {MAX_POWER_SYLLABLES}"
        )
    if e < 0:
        core = _inverse_syllables(core)
    (first, a), (last, b) = core[0], core[-1]
    if first == last:
        middle = core[1:-1]
        core = core[:1] + (middle + ((first, a + b),)) * (abs(e) - 1) + middle + core[-1:]
    else:
        core *= abs(e)
    return conjugator + core + _inverse_syllables(conjugator)


def _divisors(n: int) -> list[int]:
    """The divisors of ``n`` from 2 to ``n/2``, increasing."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small[1:] + [n // d for d in reversed(small) if d * d != n][:-1]


def _power_base(core: Sequence[Syllable]) -> tuple[Sequence[Syllable], int]:
    """The shortest ``b`` and the ``r`` with ``core`` the power ``b^r`` as :func:`_power` writes it.

    ``core`` is reduced, with no conjugator.  Either the copies of ``b``
    stand side by side, or ``b = x^a m x^c`` has end syllables of one
    letter and its copies are joined by the syllable ``x^(a+c)``; when
    neither holds, ``b`` is ``core`` and ``r`` is 1.
    """
    n = len(core)
    for d in _divisors(n):
        if core[d : 2 * d] == core[:d] and core[d:] == core[:-d]:
            return core[:d], n // d
    if n > 2 and core[0][0] == core[-1][0]:
        seam = (core[0][0], core[0][1] + core[-1][1])
        for d in _divisors(n - 1):
            if core[d] == seam and core[d + 1 : n - 1] == core[1 : n - 1 - d]:
                return core[:d] + core[-1:], (n - 1) // d
    return core, 1


def _grouped_text(syllables: Sequence[Syllable]) -> str:
    """The text of reduced ``syllables``, with repeated blocks grouped at every level.

    For ``syllables = w c w^-1`` whose core is the power ``b^r`` of
    :func:`_power_base` with ``r >= 2``, the text is ``w (b)^r w^-1``;
    otherwise ``b`` is the core and ``r = 1`` writes no group.  Each of
    ``w``, ``b`` and ``w^-1`` is then written by :func:`_blocks_text`,
    which groups adjacent copies of blocks of at most ``_MAX_BLOCK``
    syllables, and blocks inside them.  Parsing the text gives back the
    same syllables: :func:`_power` writes ``(b)^r`` out as the core, and
    every group of :func:`_blocks_text` is a slice of a reduced word whose
    copies are adjacent in it, so its ends have different letters, it has
    no conjugator, and :func:`_power` writes it out as it stands.
    """
    k = _conjugator_length(syllables)
    block, copies = _power_base(syllables[k : len(syllables) - k])
    body = _blocks_text(_syllable_texts(block))
    if copies > 1:
        body = f"({body})^{copies}"
    if not k:
        return body
    head = _blocks_text(_syllable_texts(syllables[:k]))
    return f"{head} {body} {_blocks_text(_syllable_texts(syllables[len(syllables) - k :]))}"


# The most syllables of a block that _blocks_text repeats in a group.
_MAX_BLOCK = 64


def _blocks_text(texts: list[str]) -> str:
    """The syllable ``texts`` of a reduced slice joined, adjacent copies of a block grouped.

    Left to right, at each position the block of at most ``_MAX_BLOCK``
    syllables whose adjacent copies cover the most syllables is written
    ``(block)^copies``, the shortest block on ties, and the block's text is
    grouped the same way; where no block has two copies, one syllable is
    written.  A group of two or more copies of a block of two or more
    syllables (one syllable has no adjacent copy in a reduced word) is
    always shorter than the copies written out.  The work is on the texts,
    which hash and compare without calls into letter methods; equal texts
    are equal syllables.

    A block's copies start with its first syllable, so the block lengths
    tried at a position are the distances to the next copies of that
    syllable within reach, which ``list.index`` finds; a slice in which no
    syllable repeats is joined unscanned.  At most ``_MAX_BLOCK / 2``
    lengths are tried at a position (adjacent syllables differ), each
    counting its copies in slices of at most ``_MAX_BLOCK`` syllables, and
    none covers more than the group the position starts; so a slice costs
    at most about ``_MAX_BLOCK^2 / 2`` comparisons of syllable texts per
    syllable, all of them in slice compares and searches.
    """
    n = len(texts)
    if len(set(texts)) == n:
        return " ".join(texts)
    parts: list[str] = []
    i = run = 0
    while i < n:
        reach = min(_MAX_BLOCK, (n - i) // 2)  # the longest block with two copies
        first = texts[i]
        ahead = texts[i : i + reach + 1]
        ahead.append(first)  # so each search ends, at reach + 1 when nothing is within reach
        cover = size = 0
        d = ahead.index(first, 1)
        while d <= reach:
            block, end = ahead[:d], i + 2 * d
            while texts[end - d : end] == block:
                end += d
            copies = (end - i) // d - 1
            if copies > 1 and copies * d > cover:
                cover, size = copies * d, d
            d = ahead.index(first, d + 1)
        if cover:
            if run < i:
                parts.append(" ".join(texts[run:i]))
            parts.append(f"({_blocks_text(texts[i : i + size])})^{cover // size}")
            i = run = i + cover
        else:
            i += 1
    if run < n:
        parts.append(" ".join(texts[run:]))
    return " ".join(parts)


def _parse_sequence(
    tokens, k: int, model: SurfaceModel, held: int = 0
) -> tuple[list[Syllable], int]:
    """The syllables from token ``k`` to the next ')' or the end, and that token's index.

    What the text writes out, ``held`` syllables of the enclosing groups
    and the powers of groups included, may be at most
    ``MAX_POWER_SYLLABLES``: the syllable or group that passes the cap is
    refused, so at most about twice the cap is ever held.
    """
    out: list[Syllable] = []
    while True:
        kind, value, pos = tokens[k]
        if kind == "syl":
            out.append(value)
            k += 1
        elif kind == "gen":
            raise ParseError(f"letter {value[0]} is not admissible in the {model.describe()}", pos)
        elif kind == "lp":
            body, k = _parse_sequence(tokens, k + 1, model, held + len(out))
            if tokens[k][0] != "rp":
                raise ParseError("unclosed '('", pos)
            k += 1
            if tokens[k][0] == "exp":
                body = _power(_reduce_syllables(body), tokens[k][1])
                k += 1
            out.extend(body)
        else:
            return out, k
        if held + len(out) > MAX_POWER_SYLLABLES:
            raise ParseError(
                f"the word writes out {held + len(out)} syllables up to here,"
                f" over the cap of {MAX_POWER_SYLLABLES}",
                pos,
            )


def parse_word(text: str, model: SurfaceModel) -> Word:
    """Parse word text into a free-reduced :class:`Word`.

    >>> m = SurfaceModel.standard(5)
    >>> parse_word("u1", m).syllables
    ((GeneratorLetter(kind='u', index=1), 1),)
    >>> str(parse_word("t1 t1 u2^-1 u2", m))
    't1^2'
    """
    tokens = _tokenize(text, model)
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
