"""Exact representation oracles for generator words.

Three oracles in exact integer arithmetic, all read from the letter blocks:

* sign character -- the determinant; each occurrence of a letter whose
  block has determinant -1 (``u``, ``y``) contributes -1, others +1.
* crosscap permutation -- the action on H1(N_g; Z/2), the blocks mod 2:
  ``t<i>`` and ``u<i>`` swap crosscaps i, i+1 and ``y<i>`` fixes them.
  Standard model only; from genus 3 on the homology image determines it.
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

An :class:`IntMatrix` is stored as the columns that differ from the
identity, each a ``{row: value}`` map of its nonzero entries.
``homology_of`` keeps the running product on the rank-g span in that form,
except that a column it has moved may equal the identity's.  A syllable
``x_i^e`` rewrites only columns ``i-1``, ``i`` (0-based) with the block
power ``B^e``, using O(log |e|) 2x2 products, so the work grows with the
entries a word moves, not with g^2.  A negative exponent powers the
inverse block, ``det * adjugate``, each checked against ``M M^-1 = I`` at
import.  The transposition's block is the swap: ``u_i`` to an odd power
exchanges the two columns as they are, and to an even power it is the
identity and is skipped, so neither does any arithmetic.  At the end
only the moved columns are projected to the quotient by the relation
class, which also makes the image canonical.  That is exact: every letter
fixes ``mu_1 + ... + mu_g``, so the projection is a homomorphism and
commutes with products.  A product of matrices computes column j only
from the nonzero entries of the right factor's column j, copies the
columns the right factor leaves alone, and takes the left factor's
column k as it is for a unit column ``e_k``; the image of a ``u``-word
has at most one column that is not a unit column.

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

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .words import GeneratorLetter, SurfaceModel, Word, WordError, _Record

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


class IntMatrix:
    """A square matrix over the integers, stored by the columns that differ from the identity.

    ``cols`` maps a column index to that column's nonzero entries as a
    ``{row: value}`` dict; a column equal to the identity's is absent, so
    the identity is the empty map.  That form is canonical, and equality
    and hashing compare it.  ``rows`` is a dense view built on demand.
    Instances are immutable: no method changes ``cols`` or a column in it.
    """

    __slots__ = ("size", "cols")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"matrix entries must be ints, got {v!r}")
        cols: dict[int, dict[int, int]] = {}
        for c in range(n):
            _store(cols, c, {r: row[c] for r, row in enumerate(rows)})
        self.size, self.cols = n, cols

    @classmethod
    def _of(cls, size: int, cols: dict[int, dict[int, int]]) -> "IntMatrix":
        """The matrix of canonical ``cols``, with no checks."""
        m = object.__new__(cls)
        m.size, m.cols = size, cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(n, {})

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        cols, n = self.cols, self.size
        return tuple(
            tuple(cols[c].get(r, 0) if c in cols else int(r == c) for c in range(n))
            for r in range(n)
        )

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.size == other.size and self.cols == other.cols

    def __hash__(self):
        columns = frozenset((c, frozenset(col.items())) for c, col in self.cols.items())
        return hash((self.size, columns))

    def __repr__(self):
        return f"IntMatrix({self.rows!r})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Column j of the product is ``self`` applied to column j of ``other``.

        A column ``other`` leaves alone is ``self``'s column j as it is, and
        a unit column ``e_k`` of ``other`` is ``self``'s column k as it is;
        any other column is summed over its nonzero entries only.
        """
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("size mismatch")
        cols = dict(self.cols)
        for j, col in other.cols.items():
            if len(col) == 1:
                ((k, v),) = col.items()
                if v == 1:
                    _place(cols, j, self.cols.get(k, col))
                    continue
            _store(cols, j, _apply(self.cols, col))
        return IntMatrix._of(self.size, cols)

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


class CrosscapPermutation(_Record):
    """A permutation of the crosscaps 1..g, stored 0-based: images[k] = image of k."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images!r}")
        super().__init__(images)

    @classmethod
    def identity(cls, g: int) -> "CrosscapPermutation":
        return cls(tuple(range(g)))

    def __mul__(self, other: "CrosscapPermutation") -> "CrosscapPermutation":
        """Composition ``self`` after ``other``."""
        if not isinstance(other, CrosscapPermutation):
            return NotImplemented
        if len(other.images) != len(self.images):
            raise ValueError("degree mismatch")
        return CrosscapPermutation(tuple(self.images[k] for k in other.images))

    def __pow__(self, n: int) -> "CrosscapPermutation":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("no negative permutation powers; power the inverse word's image")
        if not n:
            return CrosscapPermutation.identity(len(self.images))
        return _binary_power(self, n, CrosscapPermutation.__mul__)


def sign_of(word: Word) -> int:
    """The sign character: (-1) per occurrence of a letter whose block has determinant -1."""
    flips = sum(abs(exp) for letter, exp in word.syllables if letter.kind in _FLIPS)
    return -1 if flips % 2 else 1


def perm_of(word: Word) -> CrosscapPermutation:
    """The action on H1(N_g; Z/2); standard model only.

    ``t_i`` and ``u_i`` swap crosscaps i and i+1, and ``y_i`` fixes them.
    """
    if word.model.is_hybrid:
        raise WordError("the crosscap permutation oracle is defined for the standard model only")
    images = list(range(word.model.genus))
    for letter, exp in word.syllables:
        if letter.kind in _SWAPS and exp % 2:
            i = letter.index
            images[i - 1], images[i] = images[i], images[i - 1]
    return CrosscapPermutation(tuple(images))


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
# The kinds whose block has determinant -1, and those whose block is the swap mod 2.
_FLIPS = frozenset(k for k, ((a, b), (c, d)) in _BLOCKS.items() if a * d - b * c == -1)
_SWAPS = frozenset(
    k for k, m in _BLOCKS.items() if [v % 2 for row in m for v in row] == [0, 1, 1, 0]
)
# The kinds whose block is the swap itself, which exchanges two columns.
_EXCHANGES = frozenset(k for k, m in _BLOCKS.items() if m == ((0, 1), (1, 0)))


def _store(cols: dict[int, dict[int, int]], j: int, col: dict[int, int]) -> None:
    """Set column ``j`` of canonical ``cols``: zeros dropped, an identity column absent."""
    _place(cols, j, {r: v for r, v in col.items() if v})


def _place(cols: dict[int, dict[int, int]], j: int, col: dict[int, int]) -> None:
    """Set column ``j`` of canonical ``cols`` to ``col``, which has no zeros, as it is."""
    if len(col) == 1 and col.get(j) == 1:
        cols.pop(j, None)
    else:
        cols[j] = col


def _apply(cols: dict[int, dict[int, int]], col: dict[int, int]) -> dict[int, int]:
    """The column ``M col`` for the matrix ``M`` of canonical ``cols``, over ``col``'s entries."""
    out: dict[int, int] = {}
    for k, v in col.items():
        for r, x in cols.get(k, {k: 1}).items():
            out[r] = out.get(r, 0) + v * x
    return out


def homology_of(word: Word) -> IntMatrix:
    """Induced integer matrix on first homology; rejects hybrid-model words."""
    if word.model.is_hybrid:
        raise WordError("the homology oracle is defined for the standard model only")
    g = word.model.genus
    cols: dict[int, dict[int, int]] = {}
    for letter, exp in word.syllables:
        i = letter.index
        if letter.kind in _EXCHANGES:  # the swap to an odd power, the identity to an even one
            if exp & 1:
                cols[i - 1], cols[i] = cols.get(i, {i: 1}), cols.get(i - 1, {i - 1: 1})
            continue
        block = _BLOCKS[letter.kind] if exp > 0 else _INVERSE_BLOCKS[letter.kind]
        (a, b), (c, d) = _binary_power(block, abs(exp), _times)
        left, right = _apply(cols, {i - 1: a, i: c}), _apply(cols, {i - 1: b, i: d})
        _store(cols, i - 1, left)
        _store(cols, i, right)
    # Quotient by the relation class: [e_g] = -([e_1] + ... + [e_{g-1}]), so a
    # column with e_g entry s loses s from each of its first g-1 rows.
    image: dict[int, dict[int, int]] = {}
    for c, col in cols.items():
        if c < g - 1:
            s = col.get(g - 1, 0)
            _store(image, c, {r: col.get(r, 0) - s for r in range(g - 1)} if s else col)
    return IntMatrix._of(g - 1, image)


@lru_cache(maxsize=None)
def derive_generator_matrices(genus: int) -> Mapping[GeneratorLetter, IntMatrix]:
    """Homology matrices of every standard-model letter at the given genus.

    A dense view of :func:`homology_of` on single letters, cached per genus
    and read-only; the oracle itself never builds it.
    """
    model = SurfaceModel(genus)
    return MappingProxyType(
        {letter: homology_of(Word(model, ((letter, 1),))) for letter in model.letters()}
    )
