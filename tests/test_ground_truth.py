"""Ground truth for the oracles: words known to be equal, or different, in the group.

Each layer names its source:

* genus 2 -- M(N_2) is the Klein four-group (Lickorish), and
  :func:`~mcgroots.small_genus.klein_element_of` gives each letter's
  image, independently of the oracles;
* genus 3 -- M(N_3) acts faithfully on first homology, as GL(2, Z)
  (Birman--Chillingworth), the premise of the genus-3 refusal, so words
  with one homology image are equal;
* the relation catalog -- every instance of
  :func:`~mcgroots.presentation.relation_catalog`, in both models.

The catalog is not a complete presentation, so passing it alone proves
little; the two small-genus layers check every short word.  Every row of
:data:`~mcgroots.roots.ORACLES` must give one image on each class of
equal words.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from mcgroots.presentation import relation_catalog
from mcgroots.representations import homology_of, perm_of, sign_of
from mcgroots.roots import FAIL, ORACLES, PASS, verify_identity
from mcgroots.small_genus import KleinFourElement, klein_element_of
from mcgroots.words import SurfaceModel, Word, format_word


def _reduced_words(model: SurfaceModel, length: int) -> list[Word]:
    """Every word of at most ``length`` letters ``x^+-1``, once each: the reduced ones."""
    units = [(letter, e) for letter in model.letters() for e in (1, -1)]
    layer: list[tuple] = [()]
    out = list(layer)
    for _ in range(length):
        layer = [w + (u,) for w in layer for u in units if not w or w[-1] != (u[0], -u[1])]
        out += layer
    return [Word(model, w) for w in out]


def _classes(words, image_of) -> dict:
    """The words grouped by ``image_of``, in first-seen order."""
    classes = defaultdict(list)
    for word in words:
        classes[image_of(word)].append(word)
    return classes


def _conflicts(classes) -> list[tuple[str, str, str]]:
    """Every ``(row, word, word)`` where an oracle row splits a class of equal words."""
    out = []
    for words in classes.values():
        for key, image in ORACLES.items():
            first = image(words[0])
            out += [
                (key, format_word(words[0]), format_word(w)) for w in words[1:] if image(w) != first
            ]
    return out


def _klein_image(word: Word) -> KleinFourElement:
    image = KleinFourElement("1")
    for letter, exp in word.syllables:
        image = image * klein_element_of(letter.kind) ** exp
    return image


class TestGenus2:
    """Every word of up to 6 letters over ``t1``, ``u1``, ``y1``, by its Klein four image."""

    @pytest.fixture(scope="class")
    def classes(self):
        return _classes(_reduced_words(SurfaceModel(2), 6), _klein_image)

    def test_every_row_agrees_within_a_class(self, classes):
        conflicts = _conflicts(classes)
        assert len(classes) == 4 and not conflicts, conflicts[:1]

    def test_permutation_and_sign_separate_the_classes(self, classes):
        images = {(perm_of(words[0]), sign_of(words[0])) for words in classes.values()}
        assert len(images) == 4


class TestGenus3:
    """Every word of up to 4 letters over the 12 letters, by its homology image."""

    def test_every_row_agrees_within_a_class(self):
        classes = _classes(_reduced_words(SurfaceModel(3), 4), homology_of)
        conflicts = _conflicts(classes)
        assert len(classes) == 398 and not conflicts, conflicts[:1]


@pytest.mark.parametrize("genus", range(2, 14))
def test_relation_catalog_passes_every_applicable_row(genus):
    models = [SurfaceModel(genus)]
    if genus >= 4 and genus % 2 == 0:
        models.append(SurfaceModel(genus, "hybrid"))
    for model in models:
        for inst in relation_catalog(model):
            oracles = dict(verify_identity(inst.lhs, 1, inst.rhs).oracles)
            assert oracles["sign"] == PASS and FAIL not in oracles.values(), inst
            assert model.is_hybrid or set(oracles.values()) == {PASS}, inst
