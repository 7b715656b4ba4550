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

The homology matrices are derived, not transcribed.  Each letter with index
``i`` moves only the two crosscap classes ``mu_i``, ``mu_{i+1}`` of the
rank-g span of all crosscap classes, by one of three 2x2 blocks: the
transposition swaps them, the twist about the curve through crosscaps i,
i+1 is the transvection ``x -> x + <x, a> a`` with ``a = mu_i + mu_{i+1}``,
and the slide is ``y = t u``.  The free sign choice in the transvection is
fixed so that slide = twist * transposition holds matrix-wise; every
relation of the presentation is validated against these matrices by the
test suite.

``homology_of`` keeps the running product on the rank-g span as g integer
columns.  A syllable ``x_i^e`` rewrites columns ``i-1``, ``i`` (0-based)
with the block power ``B^e``: O(g) column work and O(log |e|) 2x2
products.  A negative exponent powers the inverse block, ``det *
adjugate``, each checked against ``M M^-1 = I`` at import.  The product is
projected to the quotient by the relation class once, at the end.  That is
exact: every letter fixes ``mu_1 + ... + mu_g``, so the projection is a
homomorphism and commutes with products.

Composition follows word order with the column-vector convention: the
matrix of ``a b`` is ``M(a) M(b)``, and the permutation of ``a b`` is
``perm(a)`` composed after ``perm(b)``.

:data:`mcgroots.roots.ORACLES` lists the three oracles in report order,
one row each; ``verify_identity`` reads only that table.  Images are
powered with nonnegative exponents only: a claim ``w^n = v`` compares
``image(w) ** n`` for ``n >= 0`` and ``image(w^-1) ** |n|`` otherwise
with ``image(v)``, so no image type needs an inverse.  At genus 3 the
homology image is a 2x2 matrix, which identifies the mapping class group
with GL(2, Z).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .words import GeneratorLetter, SurfaceModel, Word, WordError

__all__ = [
    "CrosscapPermutation",
    "IntMatrix",
    "derive_generator_matrices",
    "homology_of",
    "perm_of",
    "sign_of",
]


def _binary_power(base, e: int, times):
    """``base ** e`` for ``e >= 1`` by repeated squaring with the product ``times``.

    The accumulator starts at the first factor it needs, not at the
    identity, so ``e = 1`` returns ``base`` itself with no product.
    """
    acc = None
    while True:
        if e & 1:
            acc = base if acc is None else times(acc, base)
        e >>= 1
        if not e:
            return acc
        base = times(base, base)


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
        return _binary_power(self, e, IntMatrix.__mul__) if e else IntMatrix.identity(self.size)

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

    def __pow__(self, n: int) -> "CrosscapPermutation":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("no negative permutation powers; power the inverse word's image")
        if not n:
            return CrosscapPermutation.identity(self.degree)
        return _binary_power(self, n, CrosscapPermutation.__mul__)

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


def _times(x, y):
    """Product of two 2x2 matrices given as row tuples."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inverse_block(block):
    """``det * adjugate``, the integer inverse of a determinant +-1 block."""
    (a, b), (c, d) = block
    det = a * d - b * c
    inverse = ((det * d, -det * b), (-det * c, det * a))
    if _times(block, inverse) != ((1, 0), (0, 1)):
        raise ArithmeticError(f"derived inverse of {block} fails M M^-1 = I")
    return inverse


# The action of u_i, t_i, y_i on the columns of mu_i, mu_{i+1}, as rows.  The
# twist is the transvection along a = mu_i + mu_{i+1} with <mu_i, a> = 1,
# <mu_{i+1}, a> = -1.
_BLOCKS = {
    "u": ((0, 1), (1, 0)),
    "t": ((2, -1), (1, 0)),
    "y": ((-1, 2), (0, 1)),
}
_INVERSE_BLOCKS = {kind: _inverse_block(block) for kind, block in _BLOCKS.items()}


def _project(cols: list[tuple[int, ...]], g: int) -> IntMatrix:
    # Quotient by the relation class: [e_g] = -([e_1] + ... + [e_{g-1}]).
    rows = tuple(
        tuple(cols[c][r] - cols[c][g - 1] for c in range(g - 1)) for r in range(g - 1)
    )
    return IntMatrix(rows)


def homology_of(word: Word) -> IntMatrix:
    """Induced integer matrix on first homology; rejects hybrid-model words."""
    if word.model.is_hybrid:
        raise WordError("the homology oracle is defined for the standard model only")
    g = word.model.genus
    cols = [tuple(int(r == c) for r in range(g)) for c in range(g)]
    for letter, exp in word.syllables:
        block = _BLOCKS[letter.kind] if exp > 0 else _INVERSE_BLOCKS[letter.kind]
        (a, b), (c, d) = _binary_power(block, abs(exp), _times)
        left, right = cols[letter.index - 1], cols[letter.index]
        cols[letter.index - 1] = tuple(a * x + c * z for x, z in zip(left, right))
        cols[letter.index] = tuple(b * x + d * z for x, z in zip(left, right))
    return _project(cols, g)


@lru_cache(maxsize=None)
def derive_generator_matrices(genus: int) -> Mapping[GeneratorLetter, IntMatrix]:
    """Homology matrices of every standard-model letter at the given genus.

    A dense view of :func:`homology_of` on single letters, cached per genus
    and read-only; the oracle itself never builds it.
    """
    model = SurfaceModel.standard(genus)
    return MappingProxyType(
        {letter: homology_of(Word(model, ((letter, 1),))) for letter in model.letters()}
    )
