"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from mcgroots.words import SurfaceModel, Word


def standard_models(min_genus: int = 2, max_genus: int = 8) -> st.SearchStrategy:
    return st.integers(min_genus, max_genus).map(
        lambda g: SurfaceModel(genus=g, kind="standard")
    )


def hybrid_models(max_genus: int = 8) -> st.SearchStrategy:
    return st.integers(2, max_genus // 2).map(
        lambda h: SurfaceModel(genus=2 * h, kind="hybrid")
    )


def letters_for(model: SurfaceModel) -> st.SearchStrategy:
    return st.sampled_from(model.letters())


def syllables_for(model: SurfaceModel, max_exp: int = 3) -> st.SearchStrategy:
    exps = st.integers(-max_exp, max_exp).filter(lambda e: e != 0)
    return st.tuples(letters_for(model), exps)


def words_for(model: SurfaceModel, max_len: int = 6) -> st.SearchStrategy:
    return st.lists(syllables_for(model), max_size=max_len).map(
        lambda items: Word(model=model, syllables=tuple(items))
    )


def model_word_pairs(max_genus: int = 8) -> st.SearchStrategy:
    return standard_models(2, max_genus).flatmap(
        lambda m: st.tuples(st.just(m), words_for(m), words_for(m))
    )


def conjugates(max_genus: int = 6) -> st.SearchStrategy:
    """Reduced words ``w c w^-1``, some with a core ``c`` whose end syllables share a letter."""

    def build(model: SurfaceModel) -> st.SearchStrategy:
        def conjugate(w: Word, c: Word, letter, ends: tuple[int, int] | None) -> Word:
            if ends is not None:
                c = Word(model, ((letter, ends[0]),) + c.syllables + ((letter, ends[1]),))
            return w * c * w.inverse()

        exps = st.integers(-3, 3).filter(lambda e: e != 0)
        return st.builds(
            conjugate,
            words_for(model),
            words_for(model),
            letters_for(model),
            st.none() | st.tuples(exps, exps),
        )

    return standard_models(2, max_genus).flatmap(build)


def random_word(rng: random.Random, model: SurfaceModel, max_syllables: int = 4) -> Word:
    """Deterministic random word for seeded bulk checks outside hypothesis."""
    letters = model.letters()
    n = rng.randint(0, max_syllables)
    syllables = []
    for _ in range(n):
        letter = rng.choice(letters)
        exp = rng.choice([-2, -1, 1, 2])
        syllables.append((letter, exp))
    return Word(model=model, syllables=tuple(syllables))


@pytest.fixture
def std5() -> SurfaceModel:
    return SurfaceModel(genus=5, kind="standard")


@pytest.fixture
def std3() -> SurfaceModel:
    return SurfaceModel(genus=3, kind="standard")


@pytest.fixture
def hyb6() -> SurfaceModel:
    return SurfaceModel(genus=6, kind="hybrid")
