"""Exact representation oracles for generator words.

Three independent oracles, all in exact integer arithmetic:

* sign character -- the determinant-parity homomorphism to {+1, -1}; each
  transposition or slide occurrence contributes -1, twists contribute +1.
* crosscap permutation -- the induced permutation of the g crosscaps;
  ``u<i>`` and ``y<i>`` map to the transposition (i, i+1), twists to the
  identity.  Standard model only.
* homology action -- the induced automorphism of the rank-(g-1) first
  homology of the closed surface with real coefficients, written as an
  integer matrix in the crosscap-class basis ``mu_1 .. mu_{g-1}`` (the
  remaining class satisfies ``mu_1 + ... + mu_g = 0`` and is eliminated).

The homology matrices are derived, not transcribed: each generator acts on
the rank-g span of all crosscap classes (transpositions permute the two
classes, the twist about the curve through crosscaps i, i+1 is the
transvection ``x -> x + <x, a> a`` with ``a = mu_i + mu_{i+1}``), and the
action is projected to the quotient by the relation class.  The free sign
choice in the transvection is fixed so that slide = twist * transposition
holds matrix-wise; every relation of the presentation is then validated
against these matrices by the test suite.

Composition follows word order with the column-vector convention: the
matrix of ``a b`` is ``M(a) M(b)``, and the permutation of ``a b`` is
``perm(a)`` composed after ``perm(b)``.

The homology product is column-sparse.  Every generator matrix, its
inverse and each of their powers differ from the identity in at most two
columns (those of crosscaps ``i``, ``i+1``; projecting can make one of
them dense).  ``homology_of`` keeps the running product as a list of
integer columns and, per letter, rewrites only those columns as integer
combinations of the old ones: O(g^2) work per letter instead of the
O(g^3) of a dense product.  A syllable with a large exponent applies the
binary power of its letter's matrix once.  The inverses are derived in
integers: a transposition is an involution, a twist is ``t = I + N``
with ``N^2 = 0`` so ``t^-1 = 2I - t``, and a slide ``y = t u`` has
``y^-1 = u t^-1``; each is checked against ``M M^-1 = I`` when the
per-genus table is built.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .words import GeneratorLetter, SurfaceModel, Word, WordError

__all__ = [
    "CrosscapPermutation",
    "IntMatrix",
    "derive_generator_matrices",
    "gl2_image",
    "homology_of",
    "perm_of",
    "sign_of",
]


def _binary_power(base, e: int):
    """``base ** e`` for ``e >= 1`` by repeated squaring.

    The accumulator starts at the first factor it needs, not at the
    identity, so ``e = 1`` returns ``base`` itself with no product.
    """
    acc = None
    while True:
        if e & 1:
            acc = base if acc is None else acc * base
        e >>= 1
        if not e:
            return acc
        base = base * base


@dataclasses.dataclass(frozen=True)
class IntMatrix:
    """A square matrix over the integers, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"matrix entries must be ints, got {v!r}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __pow__(self, e: int) -> "IntMatrix":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("no negative IntMatrix powers; power the inverse word's image")
        return _binary_power(self, e) if e else IntMatrix.identity(self.size)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.size
        if n == 0:
            return 1
        m = [list(row) for row in self.rows]
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k]:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[-1][-1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


@dataclasses.dataclass(frozen=True)
class CrosscapPermutation:
    """A permutation of the crosscaps 1..g, stored 0-based: images[k] = image of k."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images!r}")

    @classmethod
    def identity(cls, g: int) -> "CrosscapPermutation":
        return cls(tuple(range(g)))

    @classmethod
    def transposition(cls, g: int, i: int) -> "CrosscapPermutation":
        """The swap of crosscaps i and i+1 (1-based), 1 <= i <= g-1."""
        if not 1 <= i <= g - 1:
            raise ValueError(f"transposition index {i} out of range for {g} crosscaps")
        images = list(range(g))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __mul__(self, other: "CrosscapPermutation") -> "CrosscapPermutation":
        """Composition ``self`` after ``other``."""
        if not isinstance(other, CrosscapPermutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return CrosscapPermutation(tuple(self.images[k] for k in other.images))

    def inverse(self) -> "CrosscapPermutation":
        out = [0] * len(self.images)
        for k, v in enumerate(self.images):
            out[v] = k
        return CrosscapPermutation(tuple(out))

    def __pow__(self, n: int) -> "CrosscapPermutation":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _binary_power(self, n) if n else CrosscapPermutation.identity(self.degree)

    def order(self) -> int:
        acc = self
        n = 1
        while not acc.is_identity:
            acc = acc * self
            n += 1
        return n


def sign_of(word: Word) -> int:
    """The sign character: (-1) per transposition/slide letter, counted with |exponent|."""
    flips = sum(abs(exp) for letter, exp in word.syllables if letter.kind in ("u", "y"))
    return -1 if flips % 2 else 1


def perm_of(word: Word) -> CrosscapPermutation:
    """Induced permutation of the crosscaps; rejects hybrid-model words."""
    if word.model.is_hybrid:
        raise WordError("the crosscap permutation oracle is defined for the standard model only")
    g = word.model.genus
    acc = CrosscapPermutation.identity(g)
    for letter, exp in word.syllables:
        if letter.kind in ("u", "y") and exp % 2:
            acc = acc * CrosscapPermutation.transposition(g, letter.index)
    return acc


def _unit(g: int, k: int) -> list[int]:
    col = [0] * g
    col[k] = 1
    return col


def _project(cols: list[list[int]], g: int) -> IntMatrix:
    # Quotient by the relation class: [e_g] = -([e_1] + ... + [e_{g-1}]).
    rows = tuple(
        tuple(cols[c][r] - cols[c][g - 1] for c in range(g - 1)) for r in range(g - 1)
    )
    return IntMatrix(rows)


def _swap_cols(g: int, i: int) -> list[list[int]]:
    cols = [_unit(g, k) for k in range(g)]
    cols[i - 1], cols[i] = cols[i], cols[i - 1]
    return cols

def _twist_cols(g: int, i: int) -> list[list[int]]:
    # Transvection along a = mu_i + mu_{i+1} with <mu_i, a> = 1, <mu_{i+1}, a> = -1.
    cols = [_unit(g, k) for k in range(g)]
    col = [0] * g
    col[i - 1], col[i] = 2, 1
    cols[i - 1] = col
    col = [0] * g
    col[i - 1] = -1
    cols[i] = col
    return cols


def _columns(m: IntMatrix) -> list[tuple[int, ...]]:
    return list(zip(*m.rows))


def _column_delta(m: IntMatrix) -> tuple:
    """The columns in which ``m`` differs from the identity, as sparse terms.

    Each entry is ``(c, ((r, m[r][c]), ...))`` over the nonzero entries of
    column ``c``.
    """
    return tuple(
        (c, tuple((r, v) for r, v in enumerate(col) if v))
        for c, col in enumerate(zip(*m.rows))
        if any(v != int(r == c) for r, v in enumerate(col))
    )


def _times_delta(cols: list[tuple[int, ...]], delta: tuple) -> None:
    """Right-multiply the matrix held as ``cols`` by the one ``delta`` describes.

    Column ``c`` of the product is ``sum(v * cols[r])`` over the terms of
    column ``c``; the other columns are unchanged.  All new columns are read
    from the old ones before any is written.
    """
    new = []
    for c, terms in delta:
        if len(terms) == 1:
            ((r, v),) = terms
            new.append((c, cols[r] if v == 1 else tuple(v * x for x in cols[r])))
        else:
            coeffs = [v for _, v in terms]
            new.append(
                (c, tuple(sum(map(mul, coeffs, row)) for row in zip(*(cols[r] for r, _ in terms))))
            )
    for c, col in new:
        cols[c] = col


def _sparse_product(m: IntMatrix, k: IntMatrix) -> IntMatrix:
    """``m * k`` for a ``k`` that differs from the identity in few columns."""
    cols = _columns(m)
    _times_delta(cols, _column_delta(k))
    return IntMatrix(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def derive_generator_matrices(genus: int) -> Mapping[GeneratorLetter, IntMatrix]:
    """Homology matrices of every standard-model letter at the given genus.

    Derived once per genus and cached; the returned mapping is read-only.
    """
    if not isinstance(genus, int) or genus < 2:
        raise WordError(f"genus must be an integer >= 2, got {genus!r}")
    table: dict[GeneratorLetter, IntMatrix] = {}
    for i in range(1, genus):
        table[GeneratorLetter("u", i)] = _project(_swap_cols(genus, i), genus)
        table[GeneratorLetter("t", i)] = _project(_twist_cols(genus, i), genus)
    for i in range(1, genus):
        table[GeneratorLetter("y", i)] = _sparse_product(
            table[GeneratorLetter("t", i)], table[GeneratorLetter("u", i)]
        )
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _generator_actions(genus: int) -> Mapping[GeneratorLetter, tuple]:
    """Per letter: ``(matrix, inverse, column delta, inverse column delta)``.

    The inverses are derived in integers (``u^-1 = u``, ``t^-1 = 2I - t``,
    ``y^-1 = u t^-1``) and each is checked against ``M M^-1 = I``.
    """
    table = derive_generator_matrices(genus)
    identity = IntMatrix.identity(genus - 1)
    inverses: dict[GeneratorLetter, IntMatrix] = {}
    for i in range(1, genus):
        u, t = table[GeneratorLetter("u", i)], table[GeneratorLetter("t", i)]
        t_inv = IntMatrix(
            tuple(
                tuple(2 * int(r == c) - v for c, v in enumerate(row))
                for r, row in enumerate(t.rows)
            )
        )
        inverses[GeneratorLetter("u", i)] = u
        inverses[GeneratorLetter("t", i)] = t_inv
        inverses[GeneratorLetter("y", i)] = _sparse_product(u, t_inv)
    actions = {}
    for letter, m in table.items():
        inverse = inverses[letter]
        if _sparse_product(m, inverse) != identity:
            raise ArithmeticError(f"derived inverse of {letter} at genus {genus} fails M M^-1 = I")
        actions[letter] = (m, inverse, _column_delta(m), _column_delta(inverse))
    return MappingProxyType(actions)


# Up to this |exponent| a syllable applies its letter's column delta once per
# unit; beyond it, the delta of the binary-powered matrix is applied once.
_POWER_LOOP_MAX = 8


def homology_of(word: Word) -> IntMatrix:
    """Induced integer matrix on first homology; rejects hybrid-model words."""
    if word.model.is_hybrid:
        raise WordError("the homology oracle is defined for the standard model only")
    g = word.model.genus
    actions = _generator_actions(g)
    cols = _columns(IntMatrix.identity(g - 1))
    for letter, exp in word.syllables:
        m, inverse, delta, inverse_delta = actions[letter]
        if abs(exp) <= _POWER_LOOP_MAX:
            step = delta if exp > 0 else inverse_delta
            for _ in range(abs(exp)):
                _times_delta(cols, step)
        else:
            _times_delta(cols, _column_delta((m if exp > 0 else inverse) ** abs(exp)))
    return IntMatrix(tuple(zip(*cols)))


def gl2_image(word: Word) -> IntMatrix:
    """The 2x2 integer matrix of a genus-3 standard-model word.

    At genus 3 the homology action identifies the mapping class group with
    the full group of 2x2 integer matrices of determinant +-1.
    """
    if word.model.is_hybrid or word.model.genus != 3:
        raise WordError("gl2_image requires a standard-model word at genus 3")
    return homology_of(word)
