"""Alphabet, free-group arithmetic, and word text round-trips."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import words
from mcgroots.presentation import (
    Certificate,
    CertificateError,
    FreeStep,
    GatherStep,
    MoveStep,
    RelationInstance,
    SchemaStep,
    certificate_from_text,
    instantiate,
)
from mcgroots.representations import CrosscapPermutation, IntMatrix
from mcgroots.roots import RootRequest, RootResult, VerificationReport, construct_braid_root
from mcgroots.small_genus import Gl2Certification, KleinFourElement, TorsionScan
from mcgroots.words import (
    GeneratorLetter,
    ParseError,
    SurfaceModel,
    Word,
    WordError,
    format_word,
    parse_word,
)

from conftest import conjugates, model_word_pairs, standard_models, words_for


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
        # letters order by (kind, index), not by text: at genus 12, t10 < t2 as text
        letters = SurfaceModel.standard(12).letters()
        assert sorted(letters) == sorted(letters, key=lambda x: (x.kind, x.index))
        assert sorted(letters) != sorted(letters, key=str)
        assert GeneratorLetter("t", 1) < GeneratorLetter("t", 2)
        assert GeneratorLetter("t", 9) < GeneratorLetter("u", 1)


def _records():
    """Per record class: a factory, a field to assign, and a larger record or None."""
    model = SurfaceModel(5, "standard")
    letter = GeneratorLetter("u", 3)
    word = lambda: Word(model, ((letter, 2), (GeneratorLetter("t", 1), -1)))
    inst = instantiate("R2", (1,), model)
    step = lambda: SchemaStep(3, "R1", (1, 3, 1, 1), False)
    report = lambda: VerificationReport((("sign", "pass"),), "pass", "n/a", ("d",), ("a",), True)
    scan = lambda: TorsionScan(1, 10, {2: 3}, ((0, -1),))
    return {
        "SurfaceModel": (lambda: SurfaceModel(5, "standard"), "genus", None),
        "GeneratorLetter": (
            lambda: GeneratorLetter("u", 3), "index", lambda: GeneratorLetter("u", 12)
        ),
        "Word": (word, "syllables", None),
        "RelationInstance": (
            lambda: RelationInstance(inst.schema, inst.params, model, inst.lhs, inst.rhs),
            "lhs",
            None,
        ),
        "SchemaStep": (step, "forward", None),
        "FreeStep": (lambda: FreeStep("merge", 3, letter, 1), "op", None),
        "MoveStep": (lambda: MoveStep(3, 10, False), "length", None),
        "GatherStep": (lambda: GatherStep(3, 10, 4, False), "copies", None),
        "Certificate": (lambda: Certificate(word(), word(), (step(),)), "steps", None),
        "CrosscapPermutation": (lambda: CrosscapPermutation((1, 0, 2)), "images", None),
        "RootRequest": (lambda: RootRequest(5, "y", "nonorientable"), "target", None),
        "VerificationReport": (report, "proved", None),
        "RootResult": (
            lambda: RootResult(word(), word(), 3, "odd", Certificate(word(), word()), report()),
            "degree",
            None,
        ),
        "KleinFourElement": (
            lambda: KleinFourElement("t"), "label", lambda: KleinFourElement("ty")
        ),
        "TorsionScan": (scan, "checked", None),
        "Gl2Certification": (
            lambda: Gl2Certification(word(), IntMatrix(((0, 1), (1, 0))), scan(), ("a",)),
            "scan",
            None,
        ),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_are_immutable_values(name):
    make, field, make_larger = _records()[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    if name in ("TorsionScan", "Gl2Certification"):
        with pytest.raises(TypeError):  # the order_counts dict is unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)
    value = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is value and a == b
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    if make_larger is None:
        with pytest.raises(TypeError):
            a < b
    else:
        larger = make_larger()
        assert a < larger and a <= b and larger > a and larger >= a and not larger < a
        with pytest.raises(TypeError):
            a < SurfaceModel(5)


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

    def test_equal_letters_that_are_distinct_objects_merge(self, std5):
        shared, fresh = parse_word("u1", std5).syllables[0][0], GeneratorLetter("u", 1)
        assert shared == fresh and shared is not fresh
        assert Word(std5, ((shared, 2), (fresh, 3))).syllables == ((shared, 5),)
        u2 = GeneratorLetter("u", 2)
        assert Word(std5, ((fresh, 1), (u2, 1), (u2, -1), (shared, -1))).is_identity

    def test_each_syllable_exponent_is_checked(self, std5):
        u1, u2 = GeneratorLetter("u", 1), GeneratorLetter("u", 2)
        with pytest.raises(WordError, match="exponent must be an int"):
            Word(std5, ((u1, 1), (u2, 1), (u1, 1.0)))
        with pytest.raises(WordError, match="not admissible"):
            Word(std5, ((u1, 1), (GeneratorLetter("u", 9), 1), (u1, 1.0)))


class TestSharedLetters:
    def test_parsed_and_alphabet_letters_are_one_object(self, std5):
        parsed = [letter for letter, _ in parse_word("u1 t2^-3 (y4 u1)^2 u2 ^-1", std5)]
        alphabet = {str(letter): letter for letter in std5.letters()}
        assert all(letter is alphabet[str(letter)] for letter in parsed)
        assert parse_word("u1", std5) == Word(std5, ((GeneratorLetter("u", 1), 1),))

    def test_generator_terms_keep_their_exponent(self, std5):
        assert str(parse_word("u1 ^2 u1^-3 (u2 u3)^-1", std5)) == "u1^-1 u3^-1 u2^-1"
        with pytest.raises(ParseError, match="unexpected token") as info:
            parse_word("u1^2^3", std5)
        assert info.value.position == 4
        with pytest.raises(ParseError, match="unclosed") as info:
            parse_word("(u1^2 ^3)", std5)
        assert info.value.position == 0

    @settings(max_examples=200)
    @given(st.lists(
        st.tuples(st.sampled_from("tuyc"), st.integers(1, 10**4), st.integers(-3, 3)), max_size=8
    ))
    def test_large_indices_leave_the_letter_table_alone(self, terms):
        text = " ".join(f"{kind}{index}^{exp}" if exp else f"{kind}{index}" for kind, index, exp in terms)
        for model in (SurfaceModel.standard(words.MAX_GENUS), SurfaceModel.hybrid(6)):
            try:
                parse_word(text, model)
            except WordError:
                pass
        assert len(words._LETTERS) <= 4 * words.MAX_GENUS



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
        # the powers +-1 write out no more than the word, even past the cap
        long = w**50 * parse_word("u3", std5)
        assert long**1 == long and long**-1 == long.inverse()
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

    @settings(max_examples=100)
    @given(model_word_pairs(), st.integers(-60, 60).filter(lambda e: e != 0))
    def test_grouped_power_text_matches_the_word_power(self, data, e):
        # under a small cap, the parser and Word.__pow__ agree on the result
        # or on the cap error, since both power through one helper
        _, a, _ = data
        text = f"({format_word(a)})^{e}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words, "MAX_POWER_SYLLABLES", 40)
            try:
                expected = a**e
            except WordError as exc:
                assert "over the cap of 40" in str(exc)
                with pytest.raises(WordError) as info:
                    parse_word(text, a.model)
                assert str(info.value) == str(exc)
            else:
                assert parse_word(text, a.model) == expected

    @settings(max_examples=100)
    @given(conjugates(), st.booleans())
    def test_core_power_is_the_written_out_power(self, word, fresh):
        # _power writes w c^e w^-1, reduced.  Word.__pow__ and Word.inverse()
        # skip the checks of Word(...), so their syllables must already be
        # the reduced written-out word, also in letters built directly
        # rather than taken from the shared table
        model = word.model
        if fresh:
            word = Word(model, tuple((GeneratorLetter(x.kind, x.index), e) for x, e in word))
        s = word.syllables
        k = words._conjugator_length(s)
        assert words._inverse_syllables(s[:k]) == s[len(s) - k :]
        assert len(s) - 2 * k >= min(len(s), 1)  # a nonempty core unless s is empty
        built = [(word.inverse(), words._inverse_syllables(s))]
        for n in range(-6, 7):
            built.append((word**n, (s if n >= 0 else words._inverse_syllables(s)) * abs(n)))
        for result, written in built:
            assert result.model == model
            assert result.syllables == Word(model, written).syllables
            assert all(e != 0 for _, e in result.syllables)
            assert all(x != y for (x, _), (y, _) in zip(result.syllables, result.syllables[1:]))

    def test_copies_of_a_core_join_where_its_ends_share_a_letter(self):
        # the braid root (6, 2): its core begins and ends with u3^-1, so the
        # copies of the core join in u3^-2
        root = construct_braid_root(6, 2).root
        assert str(root) == "u1 u2 u3^-1 u1 u5^-1 u4^-1 u3^-1 u2^-1 u1^-1"
        assert str(root**3) == (
            "u1 u2 u3^-1 u1 u5^-1 u4^-1 u3^-2 u1 u5^-1 u4^-1 u3^-2 u1 u5^-1 u4^-1"
            " u3^-1 u2^-1 u1^-1"
        )
        assert (root**3).syllables == Word(root.model, root.syllables * 3).syllables
        assert (root**-3).syllables == Word(root.model, root.inverse().syllables * 3).syllables

    def test_the_cap_counts_what_is_written_out(self, std5, monkeypatch):
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 100)
        w = parse_word("(u1 u2)^20", std5)
        conjugate = w * parse_word("u3 t4", std5) * w.inverse()  # 82 syllables
        # 2·40 + 2·5 = 90 syllables written out, where 82·5 = 410 once were
        assert conjugate**5 == w * parse_word("(u3 t4)^5", std5) * w.inverse()
        assert parse_word(f"({conjugate})^-5", std5) == conjugate.inverse() ** 5
        with pytest.raises(WordError, match="would write out 102 syllables, over the cap of 100"):
            conjugate**11

    def test_the_cap_counts_the_whole_word(self, std5, monkeypatch):
        # each group is under the cap, the word is not: refused at the
        # syllable or group that passes the cap, at any level of groups
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 100)
        assert parse_word("(u1 u2)^25 (u1 u2)^25", std5) == parse_word("(u1 u2)^50", std5)
        cases = [
            ("(u1 u2)^30 (u1 u2)^30", 120, 11),
            ("u3 (u1 u2)^50", 101, 3),
            ("((u1 u2)^30 t1 (u1 u2)^30)^1", 121, 15),
            ("(u1 u2)^30 ((u1 u2)^30 t1)^-1", 120, 12),
            # what enclosing groups hold counts too
            ("(u1 u2)^20 ((u1 u2)^20 ((u1 u2)^20)^2)^1", 120, 24),
            ("u1 u2 " * 51, 101, 300),
        ]
        for text, count, column in cases:
            with pytest.raises(ParseError) as info:
                parse_word(text, std5)
            assert str(info.value) == (
                f"the word writes out {count} syllables up to here, over the cap of 100"
                f" (column {column})"
            )
            assert info.value.position == column
        # a certificate names the line, and a short line is refused
        with pytest.raises(CertificateError) as info:
            certificate_from_text("model standard\ngenus 5\nstart (u1 u2)^30 (u1 u2)^30\nend\n")
        assert str(info.value).startswith("line 3: the word writes out 120 syllables up to here")
        with pytest.raises(CertificateError, match="^line 4: the word writes out 101 "):
            certificate_from_text("model standard\ngenus 5\nstart\nend " + "u1 u2 " * 51 + "\n")

    def test_three_groups_under_the_default_cap_are_refused(self, std5):
        # each (u1 u2)^500000 writes out 10^6 syllables, under the cap of 2^20
        text = " ".join(["(u1 u2)^500000"] * 3)
        with pytest.raises(ParseError, match="writes out 2000000 syllables up to here") as info:
            parse_word(text, std5)
        assert info.value.position == 15
        with pytest.raises(CertificateError, match="^line 3: the word writes out 2000000 "):
            certificate_from_text(f"model standard\ngenus 5\nstart {text}\nend\n")

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_reduction_is_canonical(self, data):
        _, a, b = data
        w = a * b
        for (x, e), (y, f) in zip(w.syllables, w.syllables[1:]):
            assert x != y
        assert all(e != 0 for _, e in w.syllables)


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
        [
            "u", "u0", "u1^", "u1^0", "u1^01", "(u1", "u1)", "x1", "u1 ^2 )",
            "u\u00b2", "u1^\u00b2", "u\u0663", "u1^\u0663", "u1_0", "u1^+2", "u1^1_0",
            "u1\u00a0u2", "u1\u3000u2",
            pytest.param("u" + "1" * 5000, id="index-over-the-int-limit"),
            pytest.param("u1^-" + "9" * 5000, id="exponent-over-the-int-limit"),
        ],
    )
    def test_parse_errors(self, text, std5):
        with pytest.raises(ParseError):
            parse_word(text, std5)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("u1 u\u00b2", 3),
            ("u1^\u00b2", 2),
            pytest.param("t2 u" + "1" * 5000, 4, id="index-over-the-int-limit"),
            pytest.param("u1^-" + "9" * 5000, 4, id="exponent-over-the-int-limit"),
        ],
    )
    def test_numeral_errors_report_their_column(self, text, column, std5):
        with pytest.raises(ParseError) as info:
            parse_word(text, std5)
        assert info.value.position == column

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
