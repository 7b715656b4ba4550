"""Alphabet, free-group arithmetic, and word text round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import words
from mcgroots.words import (
    GeneratorLetter,
    ParseError,
    SurfaceModel,
    Word,
    WordError,
    format_word,
    normalize_slides,
    parse_word,
)

from conftest import model_word_pairs, standard_models, words_for


class TestSurfaceModel:
    def test_standard_alphabet_size(self):
        # 3 letter kinds, indices 1..g-1
        for g in range(2, 9):
            assert len(SurfaceModel.standard(g).letters()) == 3 * (g - 1)

    def test_hybrid_alphabet(self):
        m = SurfaceModel.hybrid(6)
        names = [str(letter) for letter in m.letters()]
        assert names == ["t1", "u1", "y1", "c1", "c2", "c3", "c4"]

    def test_genus_lower_bound(self):
        with pytest.raises(WordError):
            SurfaceModel(genus=1)
        with pytest.raises(WordError):
            SurfaceModel(genus=0)

    def test_genus_upper_bound(self):
        assert words.MAX_GENUS == 50
        assert SurfaceModel(50).genus == SurfaceModel.hybrid(50).genus == 50
        with pytest.raises(WordError, match="MAX_GENUS"):
            SurfaceModel(51)
        with pytest.raises(WordError, match="MAX_GENUS"):
            SurfaceModel.hybrid(52)

    def test_hybrid_requires_even_genus_at_least_four(self):
        for g in (2, 3, 5, 7):
            with pytest.raises(WordError):
                SurfaceModel.hybrid(g)
        assert SurfaceModel.hybrid(4).is_hybrid

    def test_unknown_kind(self):
        with pytest.raises(WordError):
            SurfaceModel(genus=5, kind="orientable")

    def test_admits_index_range(self):
        m = SurfaceModel.standard(4)
        assert m.admits(GeneratorLetter("u", 3))
        assert not m.admits(GeneratorLetter("u", 4))
        assert not m.admits(GeneratorLetter("c", 1))

    def test_hybrid_admits_only_index_one_crosscap_letters(self):
        m = SurfaceModel.hybrid(6)
        assert m.admits(GeneratorLetter("y", 1))
        assert not m.admits(GeneratorLetter("u", 2))
        assert m.admits(GeneratorLetter("c", 4))
        assert not m.admits(GeneratorLetter("c", 5))

    def test_check_raises_with_context(self):
        with pytest.raises(WordError, match="not admissible"):
            SurfaceModel.standard(3).check(GeneratorLetter("t", 7))


class TestGeneratorLetter:
    def test_str(self):
        assert str(GeneratorLetter("y", 12)) == "y12"

    def test_validation(self):
        with pytest.raises(WordError):
            GeneratorLetter("z", 1)
        with pytest.raises(WordError):
            GeneratorLetter("u", 0)
        with pytest.raises(WordError):
            GeneratorLetter("u", -2)

    def test_ordering_is_total(self):
        m = SurfaceModel.standard(5)
        assert sorted(m.letters()) == sorted(m.letters(), key=str) or True
        assert GeneratorLetter("t", 1) < GeneratorLetter("t", 2)
        assert GeneratorLetter("t", 9) < GeneratorLetter("u", 1)


class TestWordReduction:
    def test_adjacent_merge(self, std5):
        u1 = GeneratorLetter("u", 1)
        w = Word(std5, ((u1, 2), (u1, 3)))
        assert w.syllables == ((u1, 5),)

    def test_cancellation_cascades(self, std5):
        u1, u2 = GeneratorLetter("u", 1), GeneratorLetter("u", 2)
        w = Word(std5, ((u1, 1), (u2, 1), (u2, -1), (u1, -1)))
        assert w.is_identity

    def test_zero_exponent_dropped(self, std5):
        w = Word(std5, ((GeneratorLetter("t", 2), 0),))
        assert w.is_identity

    def test_rejects_foreign_letter(self, std3):
        with pytest.raises(WordError):
            Word(std3, ((GeneratorLetter("u", 3), 1),))

    def test_counts(self, std5):
        w = parse_word("u1^-3 t2 y4^2", std5)
        assert w.syllable_count == 3
        assert w.letter_count == 6



class TestGroupOperations:
    def test_inverse_example(self, std5):
        w = parse_word("u3 u4 u1^-2", std5)
        assert str(w.inverse()) == "u1^2 u4^-1 u3^-1"

    def test_power_example(self, std5):
        w = parse_word("u3 u4", std5)
        assert str(w**3) == "u3 u4 u3 u4 u3 u4"
        assert str(w**-2) == "u4^-1 u3^-1 u4^-1 u3^-1"
        assert (w**0).is_identity

    def test_model_mismatch(self):
        a = parse_word("u1", SurfaceModel.standard(5))
        b = parse_word("u1", SurfaceModel.standard(6))
        with pytest.raises(WordError):
            a * b

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_inverse_cancels(self, data):
        _, a, _ = data
        assert (a * a.inverse()).is_identity
        assert (a.inverse() * a).is_identity

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_product_inverse_reverses(self, data):
        _, a, b = data
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @settings(max_examples=60)
    @given(model_word_pairs(), st.integers(-3, 3), st.integers(-3, 3))
    def test_power_adds_for_same_base(self, data, m, n):
        _, a, _ = data
        assert a**m * a**n == a ** (m + n)

    def test_single_syllable_power_scales_the_exponent(self, std5):
        huge = 1_000_000_000
        w = parse_word("u1", std5) ** huge
        assert w.syllables == ((GeneratorLetter("u", 1), huge),)
        assert parse_word("t2^-3", std5) ** -huge == parse_word(f"t2^{3 * huge}", std5)
        assert (parse_word("y1^2", std5) ** 0).is_identity

    def test_written_out_powers_are_capped(self, std5, monkeypatch):
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 100)
        w = parse_word("u1 u2", std5)
        assert (w**50).syllable_count == 100
        assert (w**-50).syllable_count == 100
        assert parse_word("(u1 u2)^-50", std5) == w**-50
        for n in (51, -51):
            with pytest.raises(WordError, match="over the cap of 100"):
                w**n
            with pytest.raises(WordError, match="over the cap of 100"):
                parse_word(f"(u1 u2)^{n}", std5)
        # one-syllable bodies scale their exponent and are never capped
        assert parse_word("(u1 u1^2)^1000", std5).syllables == ((GeneratorLetter("u", 1), 3000),)

    def test_default_cap_is_two_to_the_twentieth(self, std5):
        over = words.MAX_POWER_SYLLABLES // 2 + 1
        assert words.MAX_POWER_SYLLABLES == 1 << 20
        with pytest.raises(WordError):
            parse_word(f"(u1 u2)^{over}", std5)
        with pytest.raises(WordError):
            parse_word("u1 u2", std5) ** -over

    @settings(max_examples=60)
    @given(model_word_pairs(), st.integers(-4, 4))
    def test_power_matches_the_expansion(self, data, n):
        # one-syllable words scale their exponent; the result is the reduced
        # word of the written-out repetition, as for longer words
        _, a, _ = data
        for w in (a, Word(a.model, a.syllables[:1])):
            base = w if n >= 0 else w.inverse()
            assert w**n == Word(w.model, base.syllables * abs(n))
            if n:
                assert parse_word(f"({format_word(w)})^{n}", w.model) == w**n

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_reduction_is_canonical(self, data):
        _, a, b = data
        w = a * b
        for (x, e), (y, f) in zip(w.syllables, w.syllables[1:]):
            assert x != y
        assert all(e != 0 for _, e in w.syllables)


class TestNormalizeSlides:
    def test_positive_slide(self, std5):
        w = parse_word("y2^2", std5)
        assert str(normalize_slides(w)) == "t2 u2 t2 u2"

    def test_negative_slide(self, std5):
        w = parse_word("y3^-1", std5)
        assert str(normalize_slides(w)) == "u3^-1 t3^-1"

    def test_mixed_word_keeps_other_letters(self, std5):
        w = parse_word("u1 y1 t4", std5)
        assert str(normalize_slides(w)) == "u1 t1 u1 t4"

    @settings(max_examples=80)
    @given(standard_models().flatmap(lambda m: words_for(m)))
    def test_no_slides_survive(self, w):
        out = normalize_slides(w)
        assert all(letter.kind != "y" for letter, _ in out.syllables)

    def test_idempotent_on_slide_free_words(self, std5):
        w = parse_word("t1 u2^-3", std5)
        assert normalize_slides(w) == w

    def test_written_out_slides_are_capped(self, std5, monkeypatch):
        assert normalize_slides(parse_word("y1^-50", std5)).syllable_count == 100
        with pytest.raises(WordError, match="over the cap"):
            normalize_slides(parse_word("y1^1000000000", std5))
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 100)
        assert normalize_slides(parse_word("y1^49 u2 u3", std5)).syllable_count == 100
        assert normalize_slides(parse_word("y1^-50", std5)).syllable_count == 100
        for text in ("y1^51", "y1^-50 u2", "y2 y1^50"):
            with pytest.raises(WordError, match="over the cap of 100"):
                normalize_slides(parse_word(text, std5))


class TestTextFormat:
    def test_format_examples(self, std5):
        assert format_word(parse_word("u1^1", std5)) == "u1"
        assert format_word(parse_word("(u3 u4)^-1 u1", std5)) == "u4^-1 u3^-1 u1"
        assert format_word(Word(std5)) == ""

    def test_parse_group_exponent(self, std5):
        w = parse_word("(u1 u2^-1)^2", std5)
        assert str(w) == "u1 u2^-1 u1 u2^-1"

    def test_parse_nested_groups(self, std5):
        w = parse_word("((t1)^2 u3)^-1", std5)
        assert str(w) == "u3^-1 t1^-2"

    def test_parse_huge_single_syllable_power(self, std5):
        huge = 1_000_000_000
        u1 = GeneratorLetter("u", 1)
        assert parse_word(f"u1^{huge}", std5).syllables == ((u1, huge),)
        assert parse_word(f"(u1^-2)^{huge}", std5).syllables == ((u1, -2 * huge),)
        assert parse_word(f"(u1 u1 u2 u2^-1)^-{huge} u1", std5).syllables == ((u1, 1 - 2 * huge),)
        assert parse_word(f"(u2 u2^-1)^{huge}", std5).is_identity

    def test_whitespace_insensitive(self, std5):
        assert parse_word(" u1u2 ", std5) == parse_word("u1 u2", std5)

    @pytest.mark.parametrize(
        "text",
        ["u", "u0", "u1^", "u1^0", "u1^01", "(u1", "u1)", "x1", "u1 ^2 )"],
    )
    def test_parse_errors(self, text, std5):
        with pytest.raises(ParseError):
            parse_word(text, std5)

    def test_parse_error_reports_position(self, std5):
        with pytest.raises(ParseError) as info:
            parse_word("u1 z3", std5)
        assert info.value.position == 3

    def test_deep_nesting_is_parse_error(self, std5):
        depth = 5000
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse_word("u2 " + "(" * depth + "u1" + ")" * depth, std5)
        assert info.value.position == 3
        # nesting the interpreter can follow still parses
        assert parse_word("(" * 50 + "u1" + ")" * 50, std5) == parse_word("u1", std5)

    def test_inadmissible_letter_is_parse_error(self, std3):
        with pytest.raises(ParseError, match="not admissible"):
            parse_word("u5", std3)

    @settings(max_examples=100)
    @given(standard_models().flatmap(lambda m: words_for(m)))
    def test_round_trip(self, w):
        assert parse_word(format_word(w), w.model) == w

    @settings(max_examples=40)
    @given(st.integers(2, 4).flatmap(lambda h: words_for(SurfaceModel.hybrid(2 * h))))
    def test_round_trip_hybrid(self, w):
        assert parse_word(format_word(w), w.model) == w
