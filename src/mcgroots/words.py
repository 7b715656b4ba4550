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
a word are built reduced (see :func:`_power`), and so are products of
two words (see :func:`_joined`), from letters the words have already had
checked, so they skip the checks of construction.

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
the exponent differs from 1.  Certificates write a word as it was built
instead (see :class:`Word` and :func:`_grouped_text`).
"""

from __future__ import annotations

import re
from operator import attrgetter
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
# is the power ((D)^p X^q)^m as the builder wrote it, O(g) (at most 204 bytes at
# genus 50); the largest root it admits (genus 50, orientable complement) takes
# about 0.09 s and 18 MB peak memory in a cold `mcgroots root` call (best of 5,
# 2-vCPU Xeon, Python 3.11).
MAX_GENUS = 50

# The most syllables a power may write out: 2|w| + |c|·|e| for the power e of
# w c w^-1, whose core c alone is repeated (see _power_parts).  It sits above the
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
    pickling go through the fields.  The records built most (models and
    words) set their fields through ``object.__setattr__`` themselves, and
    letters, compared most, write their own ``__eq__`` and ``__hash__``:
    the generic methods here, shared by every class, run about 1.5 times
    slower.

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

    def _replace(self, **changes):
        """This record with ``changes`` to its fields, built through the class's checks."""
        fields = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**fields, **changes})


class WordError(ValueError):
    """Malformed letter, inadmissible word, or model mismatch."""


class ParseError(WordError):
    """Syntax error in word text; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


def _model_kind(kind: str) -> str:
    """``kind`` if it names a model kind; otherwise :class:`WordError`."""
    if kind not in ("standard", "hybrid"):
        raise WordError(f"unknown model kind {kind!r}")
    return kind


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
        _model_kind(kind)
        if kind == "hybrid" and (genus < 4 or genus % 2):
            raise WordError("hybrid model requires even genus >= 4")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "kind", kind)

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

    def letters(self) -> tuple["GeneratorLetter", ...]:
        """All admissible letters, in a fixed deterministic order."""
        if self.is_hybrid:
            out = [_letter(kind, 1) for kind in ("t", "u", "y")]
            out.extend(_letter("c", i) for i in range(1, self.genus - 1))
        else:
            out = [_letter(kind, i) for kind in ("t", "u", "y") for i in range(1, self.genus)]
        return tuple(out)


class GeneratorLetter(_Record):
    """A single generator symbol: kind in {t, u, y, c} plus a 1-based index.

    The hash is kept: memo caches keyed by letters hash them on every
    lookup.  The text is kept too, since words are printed a letter at a
    time.
    """

    __slots__ = ("kind", "index", "_hash", "_text")

    def __init__(self, kind: str, index: int):
        if kind not in _KIND_NAMES:
            raise WordError(f"unknown letter kind {kind!r}")
        if not isinstance(index, int) or index < 1:
            raise WordError(f"letter index must be a positive integer, got {index!r}")
        super().__init__(kind, index)
        object.__setattr__(self, "_hash", hash((kind, index)))
        object.__setattr__(self, "_text", f"{kind}{index}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.index == other.index

    def __hash__(self):
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


def _reduce_syllables(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Free reduction on a stack: merge equal neighbours, drop zero exponents."""
    stack: list[list] = []
    for letter, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == letter:
            top = stack[-1]
            top[1] += exp
            if top[1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return tuple((letter, exp) for letter, exp in stack)


def _inverse_syllables(syllables: Sequence[Syllable]) -> tuple[Syllable, ...]:
    """The formal inverse: reversed order, negated exponents."""
    return tuple((letter, -exp) for letter, exp in reversed(syllables))


def _joined(left: tuple[Syllable, ...], right: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    """The reduced product of reduced ``left`` and ``right``: only their seam reduces.

    Syllables of one letter at the seam cancel or merge; a merge ends the
    reduction, since the syllables beside it have other letters.
    """
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        exp = left[i - 1][1] + right[j][1]
        if exp:
            return left[: i - 1] + ((left[i - 1][0], exp),) + right[j + 1 :]
        i, j = i - 1, j + 1
    return left[:i] + right[j:]


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

    A word built by :func:`parse_word`, ``*``, ``**`` or :meth:`inverse`
    also keeps how it was built, in the private slot ``_source``: the text
    it was parsed from, with each run of whitespace written as one space;
    ``(base, n)`` for ``base ** n`` (``inverse()`` is the power -1, and a
    power of a power multiplies the exponents); or the flat tuple of the
    factors of a product, a product of products extending it.  A product
    keeps that tuple only while it has no more factors than the product
    has syllables, and has no record past that, so it is written flat and
    a loop of products copies a record no longer than its words; the
    builders' products have at most 3 factors of many syllables each.  The
    record is not a field: ``==``, ``hash``, ``repr`` and pickling ignore
    it.  :func:`_grouped_text` writes it.
    """

    __slots__ = ("model", "syllables", "_source")

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
                if not model.admits(letter):
                    raise WordError(f"letter {letter} is not admissible in the {model.describe()}")
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
        product = Word._of(self.model, _joined(self.syllables, other.syllables))
        factors = _factors(self) + _factors(other)
        if len(factors) <= len(product.syllables):
            object.__setattr__(product, "_source", factors)
        return product

    def inverse(self) -> "Word":
        return self._powered(_inverse_syllables(self.syllables), -1)

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        return self._powered(_power(self.syllables, n), n)

    def _powered(self, syllables: tuple[Syllable, ...], n: int) -> "Word":
        """The word of ``syllables``, the power ``n`` of this word, with its record."""
        power = Word._of(self.model, syllables)
        source = getattr(self, "_source", None)
        base, e = source if _is_power(source) else (self, 1)
        object.__setattr__(power, "_source", (base, e * n))
        return power

    def __str__(self) -> str:
        return format_word(self)


def format_word(word: Word) -> str:
    """Canonical text of a word; inverse of :func:`parse_word` on reduced words.

    >>> m = SurfaceModel(5)
    >>> format_word(parse_word("(u3 u4)^-1 u1", m))
    'u4^-1 u3^-1 u1'
    """
    return _format_syllables(word.syllables, "")


def _is_power(source) -> bool:
    """True iff ``source`` is the record ``(base, n)`` of a power."""
    return source.__class__ is tuple and source[1].__class__ is int


def _factors(word: Word) -> tuple[Word, ...]:
    """The factors of ``word`` as a product records them: its own, or itself."""
    source = getattr(word, "_source", None)
    return source if source.__class__ is tuple and not _is_power(source) else (word,)


def _grouped_text(word: Word, depth: int = 8) -> str:
    """The text of ``word`` as it was built (see :class:`Word`); it parses back to ``word``.

    A parsed word is written as its text, a power ``(base)^n`` (``base``
    alone for ``n = 1``) and a product as its factors side by side, each
    written the same way, down to ``depth`` levels of the record.  A word
    past that depth, with no record, or with at most one syllable, is
    written by :func:`format_word`.  The builders' words nest at most 4
    levels (the root start ``((D)^p X^q)^m``), and a record built in a
    loop is written flat below the depth, far under the parser's nesting
    limit.  Parsing the text gives back the same syllables: the parser
    reads ``(T)^n`` as the power and juxtaposition as the product of what
    it reads, and free reduction is canonical, so it ends where ``**`` and
    ``*`` ended.
    """
    source = getattr(word, "_source", None)
    if source is None or len(word.syllables) < 2 or not depth:
        return format_word(word)
    if source.__class__ is str:
        return source
    if not _is_power(source):
        return " ".join(filter(None, (_grouped_text(factor, depth - 1) for factor in source)))
    base, n = source
    text = _grouped_text(base, depth - 1)
    return text if n == 1 else f"({text})^{n}"


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


def _power_parts(syllables: tuple[Syllable, ...], e: int) -> tuple[tuple, tuple, int, tuple]:
    """``(head, unit, count, tail)``: the power ``e`` of reduced ``syllables``, reduced,
    is ``head + unit * count + tail``.

    With ``syllables = w c w^-1`` (see :func:`_conjugator_length`) it is
    ``w c^e w^-1``, and only the core ``c``, inverted for ``e < 0``, is
    repeated; a core of one syllable scales its exponent.  A core ``x^a m
    x^b`` whose end syllables share the letter ``x`` has its copies joined
    by ``x^(a+b)``, never trivial (``a + b = 0`` would have put ``x`` into
    ``w``): its unit ``m x^(a+b)`` comes ``|e| - 1`` times between the head
    ``w x^a`` and the tail ``m x^b w^-1``.  What is written out, at most
    ``2|w| + |c|·|e|`` syllables, may be at most ``MAX_POWER_SYLLABLES``,
    except for the powers +-1, which write out no more than the word.
    """
    if e == 0 or not syllables:
        return (), (), 0, ()
    k = _conjugator_length(syllables)
    conjugator, core = syllables[:k], syllables[k : len(syllables) - k]
    tail = _inverse_syllables(conjugator)
    if len(core) == 1:
        ((letter, exp),) = core
        return conjugator + ((letter, exp * e),), (), 0, tail
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
        unit = middle + ((first, a + b),)
        return conjugator + core[:1], unit, abs(e) - 1, middle + core[-1:] + tail
    return conjugator, core, abs(e), tail


def _power(syllables: tuple[Syllable, ...], e: int) -> tuple[Syllable, ...]:
    """The power ``e`` of reduced ``syllables``, reduced: its :func:`_power_parts` joined."""
    head, unit, count, tail = _power_parts(syllables, e)
    return head + unit * count + tail


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

    >>> m = SurfaceModel(5)
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
    word = Word(model, tuple(syllables))
    object.__setattr__(word, "_source", " ".join(text.split()))
    return word
