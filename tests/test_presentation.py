"""Relation schemas, rewrite steps, certificates, and their text form."""

from __future__ import annotations

import hashlib
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import presentation
from mcgroots.presentation import (
    SCHEMA_IDS,
    BlockStep,
    Certificate,
    CertificateError,
    FreeStep,
    GatherStep,
    MoveStep,
    SchemaError,
    SchemaStep,
    apply_step,
    certificate_from_text,
    certificate_to_text,
    commute_step,
    instantiate,
    invert_step,
    relation_catalog,
    replay_certificate,
)
from mcgroots.cli import main
from mcgroots.roots import (
    FAIL,
    PASS,
    RootRequest,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from mcgroots.words import (
    _LETTERS,
    GeneratorLetter,
    SurfaceModel,
    Word,
    WordError,
    _grouped_text,
    _inverse_syllables,
    format_word,
    parse_word,
)

from conftest import (
    conjugates,
    hybrid_models,
    letters_for,
    standard_models,
    syllables_for,
    words_for,
)


def _w(text, model):
    return parse_word(text, model)


class TestInstantiate:
    def test_r1_sides(self, std5):
        inst = instantiate("R1", (1, 3, 2, -1), std5)
        assert str(inst.lhs) == "u1^2 u3^-1"
        assert str(inst.rhs) == "u3^-1 u1^2"

    @pytest.mark.parametrize(
        "params",
        [(1, 2, 1, 1), (3, 1, 1, 1), (1, 3, 0, 1), (1, 9, 1, 1), (0, 2, 1, 1)],
    )
    def test_r1_side_conditions(self, params, std5):
        with pytest.raises(SchemaError):
            instantiate("R1", params, std5)

    def test_r2_braid(self, std5):
        inst = instantiate("R2", (3,), std5)
        assert str(inst.lhs) == "u3 u4 u3"
        assert str(inst.rhs) == "u4 u3 u4"
        with pytest.raises(SchemaError):
            instantiate("R2", (4,), std5)

    def test_r3_full_rotation(self, std5):
        inst = instantiate("R3", (), std5)
        assert inst.lhs == _w("(u1 u2 u3 u4)^5", std5)
        assert not inst.rhs.syllables

    def test_r4_twist_and_slide_variants(self, std5):
        a = instantiate("R4a", (1, 4, 1, 2), std5)
        assert str(a.lhs) == "t1 u4^2"
        b = instantiate("R4b", (4, 1, -1, 1), std5)
        assert str(b.lhs) == "y4^-1 u1"
        for schema in ("R4a", "R4b"):
            with pytest.raises(SchemaError):
                instantiate(schema, (2, 3, 1, 1), std5)

    def test_r5(self, std5):
        inst = instantiate("R5", (), std5)
        assert inst.lhs == _w("(u1^2 u2 u3 u4)^4", std5)
        assert not inst.rhs.syllables

    def test_r6_odd(self, std5):
        inst = instantiate("R6closed-odd", (), std5)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(u3 u4)^3", std5)

    def test_r6_odd_degenerates_at_genus_three(self, std3):
        inst = instantiate("R6closed-odd", (), std3)
        assert str(inst.lhs) == "u1^2"
        assert not inst.rhs.syllables

    def test_r6_odd_rejects_even_genus(self):
        with pytest.raises(SchemaError):
            instantiate("R6closed-odd", (), SurfaceModel(6))

    def test_r6_even(self):
        m = SurfaceModel(6)
        inst = instantiate("R6closed-even", (), m)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(u3^2 u4 u5)^3", m)
        with pytest.raises(SchemaError):
            instantiate("R6closed-even", (), SurfaceModel(4))
        with pytest.raises(SchemaError):
            instantiate("R6closed-even", (), SurfaceModel(7))

    def test_r7_chain(self):
        m = SurfaceModel(4, "hybrid")
        inst = instantiate("R7chain", (), m)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(c1 c2)^6", m)
        with pytest.raises(SchemaError):
            instantiate("R7chain", (), SurfaceModel(4))

    def test_slide_definition(self, std5):
        inst = instantiate("SlideDef", (2,), std5)
        assert str(inst.lhs) == "y2"
        assert str(inst.rhs) == "t2 u2"

    def test_transposition_slide_squares(self, std5):
        inst = instantiate("UsquaredYsquared", (4,), std5)
        assert str(inst.lhs) == "u4^2"
        assert str(inst.rhs) == "y4^2"
        with pytest.raises(SchemaError):
            instantiate("UsquaredYsquared", (5,), std5)

    def test_chain_commute(self, hyb6):
        inst = instantiate("ChainCommute", ("y", 3, -2, 1), hyb6)
        assert str(inst.lhs) == "y1^-2 c3"
        assert str(inst.rhs) == "c3 y1^-2"
        with pytest.raises(SchemaError):
            instantiate("ChainCommute", ("u", 5, 1, 1), hyb6)
        with pytest.raises(SchemaError):
            instantiate("ChainCommute", ("c", 1, 1, 1), hyb6)

    def test_unknown_schema_and_arity(self, std5):
        with pytest.raises(SchemaError):
            instantiate("R9", (), std5)
        with pytest.raises(SchemaError):
            instantiate("R2", (1, 2), std5)
        with pytest.raises(SchemaError):
            instantiate("R1", (1, 3, 1, "x"), std5)

    def test_repeated_calls_give_equal_instances(self, std5, hyb6):
        assert instantiate("R1", (1, 3, 2, -1), std5) == instantiate("R1", [1, 3, 2, -1], std5)
        assert instantiate("R3", (), std5) == instantiate("R3", (), std5)
        assert instantiate("ChainCommute", ("y", 3, -2, 1), hyb6) == instantiate(
            "ChainCommute", ("y", 3, -2, 1), hyb6
        )

    def test_parameter_types_are_kept_apart(self, std5):
        # a bool parameter is stored as its int, so both calls share one entry
        with_bool = instantiate("R1", (1, 3, True, 1), std5)
        with_int = instantiate("R1", (1, 3, 1, 1), std5)
        assert with_bool == with_int
        assert all(type(value) is int for value in with_bool.params)
        assert str(with_bool.lhs) == "u1 u3"

    @pytest.mark.parametrize(
        "schema, params",
        [("R1", (1, 2, 1, 1)), ("R1", (1, 3, 1, [1])), ("R2", (9,)), ("R9", ())],
    )
    def test_invalid_call_raises_every_time(self, schema, params, std5):
        for _ in range(2):
            with pytest.raises(SchemaError):
                instantiate(schema, params, std5)

    @pytest.mark.parametrize("warm_first", (False, True))
    def test_float_parameter_is_rejected_cold_and_warm(self, warm_first, std5):
        presentation._build_instance.cache_clear()
        if warm_first:
            assert str(instantiate("R2", (1,), std5).lhs) == "u1 u2 u1"
        # an unsupported type is refused before the memo is asked
        memo = presentation._build_instance.cache_info()
        for value in (1.0, 1.0, [1]):
            message = f"^R2: integer parameter expected, got {re.escape(repr(value))}$"
            with pytest.raises(SchemaError, match=message):
                instantiate("R2", (value,), std5)
        assert presentation._build_instance.cache_info() == memo
        assert instantiate("R2", (True,), std5) == instantiate("R2", (1,), std5)

    def test_equal_models_share_one_memo_entry(self):
        presentation._build_instance.cache_clear()
        first, second = SurfaceModel(6), SurfaceModel(6)
        assert first is not second
        instance = instantiate("R2", (1,), first)
        assert instantiate("R2", (1,), second) is instance
        memo = presentation._build_instance.cache_info()
        assert (memo.hits, memo.misses, memo.currsize) == (1, 1, 1)

    @pytest.mark.parametrize(
        "schema, params, kind",
        [
            ("SlideDef", (0,), "standard"),
            ("UsquaredYsquared", (-1,), "standard"),
            ("R2", (0,), "standard"),
            ("R1", (0, 2, 1, 1), "standard"),
            ("R4b", (3, -1, 1, 1), "standard"),
            ("SlideDef", (0,), "hybrid"),
            ("ChainCommute", ("u", 0, 1, 1), "hybrid"),
        ],
    )
    def test_index_below_one_is_a_schema_error(self, schema, params, kind):
        for _ in range(2):
            with pytest.raises(SchemaError, match="index"):
                instantiate(schema, params, SurfaceModel(6, kind))

    def test_standard_schemas_reject_hybrid_model(self, hyb6):
        for schema, params in [("R1", (1, 3, 1, 1)), ("R2", (1,)), ("R3", ()), ("R5", ())]:
            with pytest.raises(SchemaError):
                instantiate(schema, params, hyb6)


class TestCatalog:
    def test_standard5_r1_instances(self, std5):
        r1 = [inst for inst in relation_catalog(std5) if inst.schema == "R1"]
        assert [inst.params for inst in r1] == [(1, 3, 1, 1), (1, 4, 1, 1), (2, 4, 1, 1)]

    def test_standard3_has_no_commuting_pairs(self, std3):
        schemas = {inst.schema for inst in relation_catalog(std3)}
        assert "R1" not in schemas
        assert "R4a" not in schemas and "R4b" not in schemas

    # counts fixed by the schema side conditions at each genus
    @pytest.mark.parametrize(
        "genus,kind,count",
        [
            (2, "standard", 4),
            (3, "standard", 8),
            (4, "standard", 15),
            (5, "standard", 29),
            (6, "standard", 47),
            (7, "standard", 70),
            (12, "standard", 260),
            (13, "standard", 313),
            (25, "standard", 1339),
            (50, "standard", 5789),
            (4, "hybrid", 9),
            (6, "hybrid", 15),
            (12, "hybrid", 33),
            (50, "hybrid", 147),
        ],
    )
    def test_catalog_sizes(self, genus, kind, count):
        assert len(relation_catalog(SurfaceModel(genus, kind))) == count

    # sha256 of repr(sorted((schema, params))) over the catalog: the set of
    # instances, whatever their order
    @pytest.mark.parametrize(
        "genus, kind, digest",
        [
            (12, "standard", "9a582362fca11b586d0827665aeb3dc949b8dc84051d21936e0571fd4d4f5461"),
            (13, "standard", "75b9449ad0ca9f2fc718726f10cc4a20a6ea62310fe1c910eabdb406f42fbefc"),
            (12, "hybrid", "fa4862532812dc11002b7ff45bbee28f25af6bf101e8a74162c43b2507a7e6eb"),
            (50, "standard", "f3291d278dc4f28ca6fe7e2d752e6a3563bd2d4ac02b4346e25ddcccf2c1f694"),
            (50, "hybrid", "6afd75e5c405638eefc943a593db4cccc31d76f5b6a12d7df079901a8b8d1b6b"),
        ],
    )
    def test_catalog_instance_sets(self, genus, kind, digest):
        catalog = relation_catalog(SurfaceModel(genus, kind))
        pairs = sorted((inst.schema, inst.params) for inst in catalog)
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ("standard", "hybrid"))
    def test_catalog_asks_only_for_schemas_of_its_model(self, kind, monkeypatch):
        model = SurfaceModel(8, kind)
        asked = set()
        real = presentation.instantiate

        def spy(schema, params, model):
            asked.add(schema)
            return real(schema, params, model)

        monkeypatch.setattr(presentation, "instantiate", spy)
        relation_catalog(model)
        other = {"standard": {"ChainCommute"}, "hybrid": {"R1", "R2", "R3", "R4a", "R4b", "R5"}}
        assert asked and asked.isdisjoint(other[kind])

    def test_deterministic(self, std5):
        assert relation_catalog(std5) == relation_catalog(std5)

    def test_instances_reconstruct(self, std5, hyb6):
        for model in (std5, hyb6):
            for inst in relation_catalog(model):
                again = instantiate(inst.schema, inst.params, model)
                assert (again.lhs, again.rhs) == (inst.lhs, inst.rhs)
                assert inst.schema in SCHEMA_IDS

    def test_r6_variant_selection(self):
        def ids(g):
            return {inst.schema for inst in relation_catalog(SurfaceModel(g))}

        assert "R6closed-odd" in ids(7) and "R6closed-even" not in ids(7)
        assert "R6closed-even" in ids(8) and "R6closed-odd" not in ids(8)
        assert ids(4).isdisjoint({"R6closed-odd", "R6closed-even"})


class TestSchemaSteps:
    def test_forward_literal(self, std5):
        state = list(_w("u1^2 t3", std5).syllables)
        apply_step(state, SchemaStep(0, "R6closed-odd", (), True), std5)
        assert tuple(state) == _w("u3 u4 u3 u4 u3 u4 t3", std5).syllables

    def test_backward_literal(self, std5):
        state = list(_w("t2 u2", std5).syllables)
        apply_step(state, SchemaStep(0, "SlideDef", (2,), False), std5)
        assert tuple(state) == _w("y2", std5).syllables

    def test_inverse_occurrence_matching(self, std5):
        # pattern u1^2 u3 is absent, but its formal inverse is present
        state = list(_w("u3^-1 u1^-2", std5).syllables)
        apply_step(state, SchemaStep(0, "R1", (1, 3, 2, 1), True), std5)
        assert tuple(state) == _w("u1^-2 u3^-1", std5).syllables

    def test_occurrence_mismatch(self, std5):
        state = list(_w("u1 u2", std5).syllables)
        with pytest.raises(CertificateError, match="occurrence mismatch"):
            apply_step(state, SchemaStep(0, "R2", (2,), True), std5)

    def test_position_out_of_range(self, std5):
        state = list(_w("u1^2", std5).syllables)
        with pytest.raises(CertificateError, match="out of range"):
            apply_step(state, SchemaStep(5, "R6closed-odd", (), True), std5)

    def test_invalid_parameters_surface_as_certificate_error(self, std5):
        state = list(_w("u1 u2", std5).syllables)
        with pytest.raises(CertificateError, match="invalid schema step"):
            apply_step(state, SchemaStep(0, "R1", (1, 2, 1, 1), True), std5)

    def test_an_empty_pattern_inserts_at_the_end(self, std3):
        # R3 backward matches the empty word at every position, the end included
        state = list(_w("t1", std3).syllables)
        apply_step(state, SchemaStep(len(state), "R3", (), False), std3)
        assert tuple(state) == _w("t1 (u1 u2)^3", std3).syllables

    def test_an_unknown_step_type_is_refused(self, std5):
        with pytest.raises(CertificateError, match="^unknown step type object$"):
            apply_step([], object(), std5)

    @pytest.mark.parametrize(
        "text, step, expected",
        [
            # backward: the inverse of D^m becomes the inverse of u1^2
            ("t1 (u3 u4)^-3 t1", SchemaStep(1, "R6closed-odd", (), False), "t1 u1^-2 t1"),
            # forward: the inverse of u1^2 becomes the inverse of D^m
            ("t1 u1^-2 t1", SchemaStep(1, "R6closed-odd", (), True), "t1 (u3 u4)^-3 t1"),
            ("u3^-1 u1^-2", SchemaStep(0, "R1", (1, 3, 2, 1), True), "u1^-2 u3^-1"),
        ],
    )
    def test_an_inverse_match_replays_the_same_after_the_memo_is_refilled(
        self, text, step, expected
    ):
        # the inverse sides are kept on the memoized instance, so they go
        # when the memo is cleared; another genus in between has other sides
        std5, std7 = SurfaceModel(5), SurfaceModel(7)
        other = SchemaStep(0, "R6closed-odd", (), False)
        for _ in range(2):
            presentation._build_instance.cache_clear()
            for _ in range(2):  # the first replay inverts the sides, the second reads them back
                state = list(_w(text, std5).syllables)
                apply_step(state, step, std5)
                assert tuple(state) == _w(expected, std5).syllables
            state = list(_w("(u3 u4 u5 u6)^-5", std7).syllables)
            apply_step(state, other, std7)
            assert tuple(state) == _w("u1^-2", std7).syllables

    @pytest.mark.parametrize(
        "text, forward, found",
        [
            # the inverse of the other side, not of the pattern
            ("u4^-1 u3^-1 u4^-1 u3^-1 u4^-1 u3^-1", True, "u4^-1"),
            ("u1^-2 t1", False, "u1^-2 t1"),
            ("u3 u4 u3 u4 u3 t1 u4", False, "u3 u4 u3 u4 u3 t1"),
        ],
    )
    def test_a_window_matching_neither_side_is_refused(self, std5, text, forward, found):
        state = list(_w(text, std5).syllables)
        before = list(state)
        pattern = "u1^2" if forward else "u3 u4 u3 u4 u3 u4"
        for _ in range(2):  # before and after the instance keeps its inverse sides
            with pytest.raises(CertificateError) as info:
                apply_step(state, SchemaStep(0, "R6closed-odd", (), forward), std5)
            assert str(info.value) == (
                f"occurrence mismatch at position 0: expected {pattern} or its inverse,"
                f" found {found}"
            )
            assert state == before


class TestFreeSteps:
    def test_insert_and_delete(self, std5):
        u2 = GeneratorLetter("u", 2)
        state = list(_w("t1", std5).syllables)
        apply_step(state, FreeStep("insert", 1, u2, -3), std5)
        assert tuple(state) == ((GeneratorLetter("t", 1), 1), (u2, -3), (u2, 3))
        apply_step(state, FreeStep("delete", 1, u2, -3), std5)
        assert tuple(state) == _w("t1", std5).syllables

    def test_delete_mismatch(self, std5):
        state = list(_w("u1 u2", std5).syllables)
        with pytest.raises(CertificateError, match="delete mismatch"):
            apply_step(state, FreeStep("delete", 0, GeneratorLetter("u", 1), 1), std5)

    def test_merge_keys_on_first_exponent(self, std5):
        u1 = GeneratorLetter("u", 1)
        state = [(u1, 2), (u1, 3)]
        apply_step(state, FreeStep("merge", 0, u1, 2), std5)
        assert state == [(u1, 5)]

    def test_merge_rejects_wrong_first_exponent(self, std5):
        u1 = GeneratorLetter("u", 1)
        with pytest.raises(CertificateError, match="merge mismatch"):
            apply_step([(u1, 2), (u1, 3)], FreeStep("merge", 0, u1, 3), std5)

    def test_merge_rejects_zero_sum(self, std5):
        u1 = GeneratorLetter("u", 1)
        with pytest.raises(CertificateError, match="merge mismatch"):
            apply_step([(u1, 2), (u1, -2)], FreeStep("merge", 0, u1, 2), std5)

    def test_split(self, std5):
        u1 = GeneratorLetter("u", 1)
        state = [(u1, 5)]
        apply_step(state, FreeStep("split", 0, u1, 2), std5)
        assert state == [(u1, 2), (u1, 3)]

    def test_split_past_full_exponent(self, std5):
        u1 = GeneratorLetter("u", 1)
        state = [(u1, 5)]
        apply_step(state, FreeStep("split", 0, u1, 7), std5)
        assert state == [(u1, 7), (u1, -2)]

    def test_split_rejects_noop(self, std5):
        u1 = GeneratorLetter("u", 1)
        with pytest.raises(CertificateError, match="split mismatch"):
            apply_step([(u1, 5)], FreeStep("split", 0, u1, 5), std5)

    def test_split_past_the_end_is_refuted_with_its_step(self, std5):
        u1 = GeneratorLetter("u", 1)
        start = Word(std5, ((u1, 5),))
        steps = (FreeStep("split", 0, u1, 2), FreeStep("split", 2, u1, 1))
        with pytest.raises(CertificateError, match=r"^step 2: split position 2 out of range$"):
            replay_certificate(Certificate(start, start, steps))

    def test_zero_exponent_rejected(self, std5):
        with pytest.raises(CertificateError, match="nonzero"):
            apply_step([], FreeStep("insert", 0, GeneratorLetter("u", 1), 0), std5)

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(CertificateError):
            FreeStep("swap", 0, GeneratorLetter("u", 1), 1)

    def test_inadmissible_letter(self, std3):
        with pytest.raises(CertificateError, match="not admissible"):
            apply_step([], FreeStep("insert", 0, GeneratorLetter("u", 7), 1), std3)


_STD5 = SurfaceModel(5)


@st.composite
def block_cases(draw):
    """A raw working state and a block step on it, at the place its word cancels or near it."""
    w = draw(words_for(_STD5, max_len=5).filter(lambda w: len(w.syllables) >= 2)).syllables
    raw = st.lists(syllables_for(_STD5, max_exp=2), max_size=4)
    before = draw(raw)
    middle = list(w + _inverse_syllables(w)) if draw(st.booleans()) else draw(raw)
    state = before + middle + draw(raw)
    position = draw(st.just(len(before)) | st.integers(0, len(state) + 1))
    return state, BlockStep(draw(st.sampled_from(("insert", "delete"))), position, w)


class TestBlockSteps:
    def test_insert_and_delete(self, std5):
        state = list(_w("t1", std5).syllables)
        step = BlockStep("insert", 1, _w("u2^-3 t4", std5).syllables)
        apply_step(state, step, std5)
        assert tuple(state) == _w("t1", std5).syllables + _w("u2^-3 t4", std5).syllables + (
            _w("t4^-1 u2^3", std5).syllables
        )
        apply_step(state, invert_step(step), std5)
        assert tuple(state) == _w("t1", std5).syllables

    def test_delete_mismatch_names_the_block(self, std5):
        state = [(_LETTERS[name], e) for name, e in (("u1", 1), ("u2", 1), ("u2", -1), ("u3", 1))]
        with pytest.raises(CertificateError) as info:
            apply_step(state, BlockStep("delete", 0, _w("u1 u2", std5).syllables), std5)
        assert str(info.value) == (
            "delete mismatch at position 0: expected u1 u2 u2^-1 u1^-1, found u1 u2 u2^-1 u3"
        )

    def test_insert_out_of_range(self, std5):
        with pytest.raises(CertificateError, match="insert position 2 out of range 0..1"):
            step = BlockStep("insert", 2, _w("u1 u2", std5).syllables)
            apply_step([(_LETTERS["u1"], 1)], step, std5)

    def test_inadmissible_letter(self, std3):
        block = BlockStep("insert", 0, ((_LETTERS["u1"], 1), (_LETTERS["u7"], 1)))
        with pytest.raises(CertificateError, match="letter u7 is not admissible"):
            apply_step([], block, std3)

    @pytest.mark.parametrize(
        "op, position, syllables, message",
        [
            ("swap", 0, (("u1", 1), ("u2", 1)), "unknown block op 'swap'"),
            ("merge", 0, (("u1", 1), ("u2", 1)), "unknown block op 'merge'"),
            ("insert", -1, (("u1", 1), ("u2", 1)), "block position -1 is negative"),
            ("insert", 0, (("u1", 1),), "a block needs 2 or more syllables, got 1"),
            ("delete", 0, (), "a block needs 2 or more syllables, got 0"),
            ("insert", 0, (("u1", 1), ("u1", 2)), "block word u1 u1^2 is not reduced"),
            ("insert", 0, (("u1", 1), ("u2", 0)), "block word u1 u2^0 is not reduced"),
        ],
    )
    def test_bad_block_rejected_at_construction(self, op, position, syllables, message):
        with pytest.raises(CertificateError) as info:
            BlockStep(op, position, tuple((_LETTERS[name], e) for name, e in syllables))
        assert str(info.value) == message

    @settings(max_examples=300)
    @given(block_cases())
    def test_block_applies_exactly_when_its_pairs_do(self, case):
        # a block is its free pairs: inserted outermost first at p, p+1, ...,
        # deleted innermost first at p+|w|-1, ..., p
        state, step = case
        outcomes = []
        for steps in ([step], _pair_steps(step)):
            work = list(state)
            try:
                for each in steps:
                    apply_step(work, each, _STD5)
            except CertificateError:
                work = None
            outcomes.append(work)
        assert outcomes[0] == outcomes[1]
        if step.op == "insert":
            assert outcomes[0] is not None or step.position > len(state)


class TestStepInversion:
    # raw working states, since mid-derivation sequences need not be reduced
    CASES = [
        ([("u", 1, 2), ("t", 3, 1)], SchemaStep(0, "R6closed-odd", (), True)),
        ([("y", 2, 1), ("u", 4, 1)], SchemaStep(0, "SlideDef", (2,), True)),
        ([("u", 3, -1), ("u", 1, -2)], SchemaStep(0, "R1", (1, 3, 2, 1), True)),
        ([("t", 1, 1), ("u", 2, 1)], FreeStep("insert", 1, GeneratorLetter("u", 4), -2)),
        ([("u", 1, 2), ("u", 1, 3)], FreeStep("merge", 0, GeneratorLetter("u", 1), 2)),
        ([("u", 1, 5)], FreeStep("split", 0, GeneratorLetter("u", 1), 2)),
        ([("u", 1, 2), ("u", 3, 1), ("t", 4, -1)], MoveStep(0, 2, True)),
        ([("t", 4, -1), ("u", 3, 1), ("u", 1, 2), ("y", 2, 1)], MoveStep(0, 2, False)),
        ([("t", 1, 1)], BlockStep("insert", 1, ((_LETTERS["u4"], -2), (_LETTERS["t1"], 1)))),
        (
            [("u", 1, 1), ("u", 2, 1), ("u", 2, -1), ("u", 1, -1)],
            BlockStep("delete", 0, ((_LETTERS["u1"], 1), (_LETTERS["u2"], 1))),
        ),
    ]

    @pytest.mark.parametrize("raw,step", CASES)
    def test_inverse_undoes(self, raw, step, std5):
        before = [(GeneratorLetter(k, i), e) for k, i, e in raw]
        state = list(before)
        apply_step(state, step, std5)
        apply_step(state, invert_step(step), std5)
        assert state == before

    def test_involution(self):
        for _, step in self.CASES:
            assert invert_step(invert_step(step)) == step


class TestCertificates:
    def test_contract_example(self, std5):
        cert = Certificate(
            _w("u1^2", std5),
            _w("(u3 u4)^3", std5),
            (SchemaStep(0, "R6closed-odd", (), True),),
        )
        assert replay_certificate(cert) == cert.end.syllables
        assert verify_identity(cert.start, 1, cert.end, cert).certificate == PASS

    def test_empty_certificate_is_reflexive(self, std5):
        w = _w("u1 t2", std5)
        assert verify_identity(w, 1, w, Certificate(w, w)).certificate == PASS
        other = _w("t2 u1", std5)
        assert verify_identity(w, 1, other, Certificate(w, other)).certificate == FAIL

    def test_model_mismatch_rejected(self):
        a = _w("u1", SurfaceModel(5))
        b = _w("u1", SurfaceModel(6))
        with pytest.raises(WordError):
            Certificate(a, b)

    def test_error_carries_step_number(self, std5):
        cert = Certificate(
            _w("u1^2", std5),
            _w("u1^2", std5),
            (
                SchemaStep(0, "R6closed-odd", (), True),
                SchemaStep(0, "R2", (1,), True),
            ),
        )
        with pytest.raises(CertificateError, match="step 2:"):
            replay_certificate(cert)

    def test_reverse_replays_and_is_involutive(self, std5):
        cert = Certificate(
            _w("u1^2 u1^3", std5),
            _w("u3 u4 u3 u4 u3 u4 u1^3", std5),
            (
                FreeStep("split", 0, GeneratorLetter("u", 1), 2),
                SchemaStep(0, "R6closed-odd", (), True),
            ),
        )
        # sanity: start state here pre-reduces to u1^5, so split it apart first
        assert cert.start.syllables == ((GeneratorLetter("u", 1), 5),)
        assert verify_identity(cert.start, 1, cert.end, cert).certificate == PASS
        rev = cert.reverse()
        assert verify_identity(rev.start, 1, rev.end, rev).certificate == PASS
        assert rev.reverse() == cert

    def test_check_is_exact_not_up_to_reduction(self, std5):
        # replay ends at the raw pair (u1^1, u1^1); end word stores u1^2
        cert = Certificate(
            _w("u1^2", std5),
            _w("u1^2", std5),
            (FreeStep("split", 0, GeneratorLetter("u", 1), 1),),
        )
        assert replay_certificate(cert) != cert.end.syllables
        assert verify_identity(cert.start, 1, cert.end, cert).certificate == FAIL


class TestCommuteDisjoint:
    def test_basic_swap(self, std5):
        w = _w("u1 u3 t2", std5)
        step = commute_step(w.syllables, 0, std5)
        assert step == SchemaStep(0, "R1", (1, 3, 1, 1), True)
        state = list(w.syllables)
        apply_step(state, step, std5)
        assert tuple(state) == _w("u3 u1 t2", std5).syllables

    def test_descending_pair_uses_backward_direction(self, std5):
        w = _w("u4^2 u1^-1", std5)
        step = commute_step(w.syllables, 0, std5)
        assert step == SchemaStep(0, "R1", (1, 4, -1, 2), False)
        state = list(w.syllables)
        apply_step(state, step, std5)
        assert tuple(state) == _w("u1^-1 u4^2", std5).syllables

    def test_slide_pair(self, std5):
        w = _w("y1^2 u4^-1", std5)
        step = commute_step(w.syllables, 0, std5)
        assert step.schema == "R4b" and step.forward

    def test_transposition_then_twist(self, std5):
        w = _w("u1 t4^3", std5)
        step = commute_step(w.syllables, 0, std5)
        assert step.schema == "R4a" and not step.forward
        state = list(w.syllables)
        apply_step(state, step, std5)
        assert tuple(state) == _w("t4^3 u1", std5).syllables

    def test_hybrid_chain_pairs(self, hyb6):
        fwd = commute_step(_w("u1 c3", hyb6).syllables, 0, hyb6)
        assert fwd == SchemaStep(0, "ChainCommute", ("u", 3, 1, 1), True)
        bwd = commute_step(_w("c3 u1", hyb6).syllables, 0, hyb6)
        assert bwd == SchemaStep(0, "ChainCommute", ("u", 3, 1, 1), False)

    def test_rejects_noncommuting_pairs(self, std5):
        for text in ("u1 u2", "t1 t3", "u1 y2"):
            with pytest.raises(SchemaError):
                commute_step(_w(text, std5).syllables, 0, std5)

    def test_rejects_adjacent_indices_via_side_condition(self, std5):
        with pytest.raises(SchemaError):
            commute_step(_w("t2 u3", std5).syllables, 0, std5)

    def test_position_validation(self, std5):
        w = _w("u1 u3", std5)
        for position in (-1, len(w.syllables) - 1):
            with pytest.raises(SchemaError):
                commute_step(w.syllables, position, std5)

    @pytest.mark.parametrize("kind", ["standard", "hybrid"])
    def test_the_word_free_check_agrees_with_commute_step(self, kind):
        # presentation._commutation, which gathers and moves run, builds no
        # step, instance or word, and passes or raises as commute_step does;
        # the hybrid t/u/y letters of index 2..3, which the model does not
        # admit, are refused by both
        check = presentation._commutation.__wrapped__
        memo = presentation._build_instance.cache_info
        refused = 0
        for genus in range(2, 10):
            if kind == "hybrid" and (genus < 4 or genus % 2):
                continue
            model = SurfaceModel(genus, kind)
            letters = model.letters()
            if kind == "hybrid":
                letters += tuple(GeneratorLetter(k, i) for k in "tuy" for i in (2, 3))
            for x in letters:
                for z in letters:
                    try:
                        commute_step(((x, 1), (z, 1)), 0, model)
                    except SchemaError as exc:
                        expected = str(exc)
                    else:
                        expected = None
                    assert expected or (model.admits(x) and model.admits(z)), (x, z)
                    calls = memo().hits + memo().misses
                    try:
                        check(x, z, model)
                    except SchemaError as exc:
                        assert str(exc) == expected, (genus, x, z)
                        refused += 1
                    else:
                        assert expected is None, (genus, x, z, expected)
                    assert memo().hits + memo().misses == calls
        # each model has pairs of every verdict: the check decides something
        assert refused > 0

    def test_a_hybrid_crosscap_letter_of_index_two_is_refused(self, hyb6):
        # ChainCommute's letter-kind parameter has no index: the pair t2 c1
        # must not be swapped as t1 c1
        t2, c1 = GeneratorLetter("t", 2), GeneratorLetter("c", 1)
        message = "^ChainCommute: t2 or c1 is not admissible$"
        with pytest.raises(SchemaError, match=message):
            commute_step(((t2, 1), (c1, 1)), 0, hyb6)
        with pytest.raises(SchemaError, match=message):
            presentation._commutation(t2, c1, hyb6)

    # sha256 of the table of commute_step over every ordered pair of
    # admissible letters (equal letters included) with exponents (1, 1),
    # (-2, 1) and (1, 3): each row holds the step's schema, parameters and
    # direction, or whether the refusal is "no commutation schema" (True)
    # or a side condition (False)
    @pytest.mark.parametrize(
        "genus, kind, accepted, digest",
        [
            (7, "standard", 300, "9b749ada3167b8f971e749a427849c68abbe8751ac1b14cc9fd9dccf6d3ee415"),
            (8, "hybrid", 108, "6d603c77b80dcb03fe7a1f7c8b2daf1ca5335e2a5ee7a533c06eb680555b3e6d"),
        ],
    )
    def test_exhaustive_table(self, genus, kind, accepted, digest):
        model = SurfaceModel(genus, kind)
        rows = []
        for x in model.letters():
            for z in model.letters():
                for a, b in ((1, 1), (-2, 1), (1, 3)):
                    try:
                        step = commute_step(((x, a), (z, b)), 0, model)
                    except SchemaError as exc:
                        no_schema = str(exc) == f"no commutation schema for the pair {x}, {z}"
                        rows.append((str(x), str(z), a, b, no_schema))
                    else:
                        assert step.position == 0
                        rows.append((str(x), str(z), a, b, step.schema, step.params, step.forward))
        assert sum(len(row) == 7 for row in rows) == accepted
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def _swaps_of_move(state, step, model):
    """Apply a move as the commute_step swaps it stands for, and return those steps."""
    swaps = []
    for k in range(step.length):
        pos = step.position + k if step.forward else step.position + step.length - 1 - k
        swap = commute_step(state, pos, model)
        apply_step(state, swap, model)
        swaps.append(swap)
    return swaps


class TestMoveStep:
    def test_forward_and_backward(self, std5):
        state = list(_w("u1^2 u3 t4^-1 u2", std5).syllables)
        apply_step(state, MoveStep(0, 2, True), std5)
        assert tuple(state) == _w("u3 t4^-1 u1^2 u2", std5).syllables
        apply_step(state, MoveStep(0, 2, False), std5)
        assert tuple(state) == _w("u1^2 u3 t4^-1 u2", std5).syllables

    @settings(max_examples=300)
    @given(st.data())
    def test_a_move_is_its_commutation_steps(self, data):
        # a move applies exactly when the swaps it stands for do, with the same result
        model = data.draw(standard_models(3, 7) | hybrid_models(8))
        word = data.draw(words_for(model, 7).filter(lambda w: len(w.syllables) >= 2))
        position = data.draw(st.integers(0, len(word.syllables) - 2))
        length = data.draw(st.integers(1, len(word.syllables) - 1 - position))
        step = MoveStep(position, length, data.draw(st.booleans()))
        moved, swapped = list(word.syllables), list(word.syllables)
        try:
            apply_step(moved, step, model)
        except CertificateError:
            moved = None
        try:
            _swaps_of_move(swapped, step, model)
        except SchemaError:
            swapped = None
        assert moved == swapped

    @pytest.mark.parametrize(
        "text, step, message",
        [
            ("u1 u3 u2", MoveStep(0, 2, True), "move mismatch at position 2: R1 needs disjoint"
             " supports, but u1 and u2 meet"),
            ("u2 u4 t2 u1", MoveStep(0, 3, False), "move mismatch at position 2: R4a needs disjoint"
             " supports, but t2 and u1 meet"),
            ("t1 u1", MoveStep(0, 1, True), "move mismatch at position 1: R4a needs disjoint"
             " supports, but t1 and u1 meet"),
            ("u1 u3", MoveStep(1, 1, True), "move of 1 from position 1 out of range: 2 syllables"),
        ],
    )
    def test_refusals_name_the_position_and_the_pair(self, std5, text, step, message):
        state = list(_w(text, std5).syllables)
        with pytest.raises(CertificateError) as info:
            apply_step(state, step, std5)
        assert str(info.value) == message
        assert tuple(state) == _w(text, std5).syllables

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: MoveStep(0, 0, True), "move length must be >= 1, got 0"),
            (lambda: MoveStep(0, -1, False), "move length must be >= 1, got -1"),
            (lambda: MoveStep(-1, 1, True), "move position -1 is negative"),
            (lambda: SchemaStep(-1, "R2", (1,), True), "step position -1 is negative"),
            (lambda: FreeStep("split", -1, _LETTERS["u1"], 1), "free position -1 is negative"),
            (lambda: FreeStep("insert", 0, _LETTERS["u2"], 0), "free exponent must be nonzero"),
        ],
    )
    def test_fields_are_refused_at_construction(self, make, message):
        # a field's check lives in its record, so replay keeps only those on the state
        with pytest.raises(CertificateError) as info:
            make()
        assert str(info.value) == message

    def test_chain_letters_do_not_pass_each_other(self, hyb6):
        with pytest.raises(CertificateError, match="no commutation schema for the pair c1, c2"):
            apply_step(list(_w("c1 u1 c2", hyb6).syllables), MoveStep(0, 2, True), hyb6)

    def test_replay_names_the_step(self, std5):
        cert = Certificate(
            _w("u1 u3 u2", std5), _w("u3 u2 u1", std5), (MoveStep(0, 1, True), MoveStep(1, 1, True))
        )
        with pytest.raises(CertificateError, match="^step 2: move mismatch at position 2: "):
            replay_certificate(cert)

    def test_text_round_trip(self, std5):
        cert = Certificate(
            _w("u1^2 u3 t4^-1", std5), _w("u3 t4^-1 u1^2", std5), (MoveStep(0, 2, True),)
        )
        text = certificate_to_text(cert)
        assert text.endswith("\nmove 0 2 fwd\n")
        assert certificate_from_text(text) == cert
        assert certificate_to_text(cert.reverse()).endswith("\nmove 0 2 bwd\n")


def _gather_rounds(state, step):
    """The move and merge rounds a gather stands for, with ``x^e`` read from ``state``.

    Forward, round ``k = 1 .. copies-1`` is ``move pos+kL L fwd; free merge
    pos+(k+1)L x k·e``; backward, the inverted rounds in reverse order, with
    ``e = E/copies`` for the ``x^E`` after the copies of ``A``.
    """
    pos, length, copies = step.position, step.length, step.copies
    if step.forward:
        x, e = state[pos + length]
    else:
        x, total = state[pos + copies * length]
        e = total // copies
    rounds = []
    for k in range(1, copies):
        rounds += [
            MoveStep(pos + k * length, length, True),
            FreeStep("merge", pos + (k + 1) * length, x, k * e),
        ]
    return rounds if step.forward else [invert_step(s) for s in reversed(rounds)]


def _commutes(x, z, model):
    try:
        commute_step(((x, 1), (z, 1)), 0, model)
    except SchemaError:
        return False
    return True


@st.composite
def gather_cases(draw):
    """A state holding the window of a gather, one of its syllables redrawn sometimes.

    Forward, the window is ``(A x^e)^copies``; backward, ``A^copies
    x^(e·copies)``.  Half the time ``A`` takes only letters that commute
    with ``x``, so that most such windows gather.
    """
    model = draw(standard_models(3, 7) | hybrid_models(8))
    x = draw(letters_for(model))
    e = draw(st.integers(-3, 3).filter(bool))
    near = [z for z in model.letters() if _commutes(x, z, model)]
    letters = st.sampled_from(near) if near and draw(st.booleans()) else letters_for(model)
    block = draw(st.lists(st.tuples(letters, st.integers(-3, 3).filter(bool)), min_size=1, max_size=4))
    copies = draw(st.integers(2, 4))
    forward = draw(st.booleans())
    prefix = draw(st.lists(syllables_for(model), max_size=3))
    suffix = draw(st.lists(syllables_for(model), max_size=3))
    window = (block + [(x, e)]) * copies if forward else block * copies + [(x, e * copies)]
    state = prefix + window + suffix
    if draw(st.booleans()):
        state[len(prefix) + draw(st.integers(0, len(window) - 1))] = draw(syllables_for(model))
    return model, state, GatherStep(len(prefix), len(block), copies, forward)


class TestGatherStep:
    def test_forward_and_backward(self, std5):
        state = list(_w("t1 u3 t4^-1 u1^2 u3 t4^-1 u1^2 u3 t4^-1 u1^2 t2", std5).syllables)
        apply_step(state, GatherStep(1, 2, 3, True), std5)
        assert tuple(state) == _w("t1 u3 t4^-1 u3 t4^-1 u3 t4^-1 u1^6 t2", std5).syllables
        apply_step(state, GatherStep(1, 2, 3, False), std5)
        assert tuple(state) == _w("t1 (u3 t4^-1 u1^2)^3 t2", std5).syllables

    @settings(max_examples=400)
    @given(gather_cases())
    def test_a_gather_is_its_move_and_merge_rounds(self, case):
        # on a window of copies of one period (backward: copies of A, then
        # x^E with E divisible by copies) a gather applies exactly when its
        # rounds do, with the same state; on any other window it is refused
        model, state, step = case
        pos, length, copies = step.position, step.length, step.copies
        size = length + step.forward
        window = state[pos : pos + copies * size]
        periodic = window == window[:size] * copies
        if not step.forward:
            periodic = periodic and state[pos + copies * length][1] % copies == 0
        gathered, expanded = list(state), list(state)
        try:
            apply_step(gathered, step, model)
        except CertificateError:
            gathered = None
        if not periodic:
            assert gathered is None
            return
        try:
            for round_step in _gather_rounds(state, step):
                apply_step(expanded, round_step, model)
        except CertificateError:
            expanded = None
        assert gathered == expanded

    @pytest.mark.parametrize(
        "text, step, message",
        [
            ("u3 u1 u3 u2", GatherStep(0, 1, 2, True),
             "gather mismatch at position 3: expected u1 of copy 2, found u2"),
            ("u3 u1 u3", GatherStep(0, 1, 2, True),
             "gather mismatch at position 3: expected u1 of copy 2, found the end"),
            ("u3 u1 u3 u1 u3 u1", GatherStep(0, 1, 4, True),
             "gather mismatch at position 6: expected u3 of copy 4, found the end"),
            ("u2 u1 u2 u1", GatherStep(0, 1, 2, True),
             "gather mismatch at position 0: R1 needs disjoint supports, but u1 and u2 meet"),
            ("u3 u4 t2 u1 u3 u4 t2 u1", GatherStep(0, 3, 2, True),
             "gather mismatch at position 2: R4a needs disjoint supports, but t2 and u1 meet"),
            ("u3 t4 u3 u1^2", GatherStep(0, 2, 2, False),
             "gather mismatch at position 3: expected t4 of copy 2, found u1^2"),
            ("u3 t4 u3 t4 u1^3", GatherStep(0, 2, 2, False),
             "gather mismatch at position 4: u1^3 does not split into 2 equal powers"),
            ("u3 t4 u3 t4", GatherStep(0, 2, 2, False),
             "gather mismatch at position 4: expected the syllable to share out, found the end"),
            ("u3 t2 u3 t2 u1^2", GatherStep(0, 2, 2, False),
             "gather mismatch at position 1: R4a needs disjoint supports, but t2 and u1 meet"),
            ("u1 u3", GatherStep(1, 1, 2, True), "gather of 1 from position 1 out of range: 2 syllables"),
            ("u1 u3", GatherStep(2, 1, 2, False), "gather of 1 from position 2 out of range: 2 syllables"),
        ],
    )
    def test_refusals_name_the_position_or_the_pair(self, std5, text, step, message):
        state = list(_w(text, std5).syllables)
        with pytest.raises(CertificateError) as info:
            apply_step(state, step, std5)
        assert str(info.value) == message
        assert tuple(state) == _w(text, std5).syllables

    def test_a_huge_copy_count_is_refused_without_writing_it_out(self, std5):
        state = list(_w("u3 u1 u3 u1", std5).syllables)
        with pytest.raises(CertificateError) as info:
            apply_step(state, GatherStep(0, 1, 10**18, True), std5)
        assert str(info.value) == "gather mismatch at position 4: expected u3 of copy 3, found the end"

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 1, 2), "gather position -1 is negative"),
            ((0, 0, 2), "gather length must be >= 1, got 0"),
            ((0, -3, 2), "gather length must be >= 1, got -3"),
            ((0, 1, 1), "gather copies must be >= 2, got 1"),
            ((0, 1, 0), "gather copies must be >= 2, got 0"),
        ],
    )
    def test_constructor_refusals(self, args, message):
        with pytest.raises(CertificateError) as info:
            GatherStep(*args)
        assert str(info.value) == message

    def test_replay_names_the_step(self, std5):
        cert = Certificate(
            _w("(u3 u1)^2", std5), _w("u3^2 u1^2", std5),
            (FreeStep("insert", 4, _LETTERS["u2"], 1), GatherStep(0, 1, 3, True)),
        )
        with pytest.raises(CertificateError, match="^step 2: gather mismatch at position 4: "):
            replay_certificate(cert)

    def test_text_round_trip(self, std5):
        cert = Certificate(
            _w("(u3 t4^-1 u1^2)^3", std5), _w("(u3 t4^-1)^3 u1^6", std5), (GatherStep(0, 2, 3, True),)
        )
        text = certificate_to_text(cert)
        assert text.endswith("\ngather 0 2 3 fwd\n")
        assert certificate_from_text(text) == cert
        assert replay_certificate(cert) == cert.end.syllables
        reverse = cert.reverse()
        assert certificate_to_text(reverse).endswith("\ngather 0 2 3 bwd\n")
        assert replay_certificate(reverse) == cert.start.syllables


class TestCertificateText:
    def _sample(self, std5):
        return Certificate(
            _w("u1^5", std5),
            _w("u3 u4 u3 u4 u3 u4 u1^3", std5),
            (
                FreeStep("split", 0, GeneratorLetter("u", 1), 2),
                SchemaStep(0, "R6closed-odd", (), True),
            ),
        )

    def test_exact_serialization(self, std5):
        assert certificate_to_text(self._sample(std5)) == (
            "model standard\n"
            "genus 5\n"
            "start u1^5\n"
            "end u3 u4 u3 u4 u3 u4 u1^3\n"
            "free split 0 u1 2\n"
            "step 0 R6closed-odd fwd\n"
        )

    def test_round_trip(self, std5, hyb6):
        cert = self._sample(std5)
        assert certificate_from_text(certificate_to_text(cert)) == cert
        hybrid = Certificate(
            _w("u1 c2", hyb6),
            _w("c2 u1", hyb6),
            (SchemaStep(0, "ChainCommute", ("u", 2, 1, 1), True),),
        )
        assert certificate_from_text(certificate_to_text(hybrid)) == hybrid

    def test_readme_example_replays_and_fails_as_quoted(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Certificate format", 1)[1]
        text = section.split("```\n", 2)[1]
        assert text.startswith("model standard\ngenus 5\nstart u1^5 u3 u4\n")
        cert = certificate_from_text(text)
        assert verify_identity(cert.start, 1, cert.end, cert).proved
        assert "move 1 2 fwd\n" in text
        cert = certificate_from_text(text.replace("move 1 2 fwd", "move 1 2 bwd"))
        report = verify_identity(cert.start, 1, cert.end, cert)
        assert not report.proved and report.certificate == FAIL
        quote = " ".join(re.search(r"replay stops at `([^`]*)`", section).group(1).split())
        assert quote == (
            "step 2: move mismatch at position 2: R1 needs disjoint supports, but u3 and u4 meet"
        )
        assert report.details[-1].endswith(quote)

    def test_readme_gather_example_fails_as_quoted(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Certificate format", 1)[1]
        section = " ".join(section.split())
        text = certificate_to_text(construct_root(RootRequest(5, "u", "auto")).certificate)
        assert "start ((u3 u4)^-1 u1)^3\n" in text and "\ngather 0 2 3 fwd\n" in text
        cert = certificate_from_text(text.replace("gather 0 2 3 fwd", "gather 0 2 4 fwd"))
        report = verify_identity(cert.start, 1, cert.end, cert)
        quote = re.search(r"with `gather 0 2 4 fwd` instead, replay stops at `([^`]*)`", section)
        assert report.certificate == FAIL and report.details[-1].endswith(quote.group(1))
        refused = re.search(r"such as `gather 0 2 1 fwd` is refused as input \(`([^`]*)`", section)
        with pytest.raises(CertificateError) as info:
            certificate_from_text(text.replace("gather 0 2 3 fwd", "gather 0 2 1 fwd"))
        assert str(info.value) == refused.group(1)

    def test_empty_word_uses_bare_tag(self, std5):
        cert = Certificate(_w("", std5), _w("", std5))
        text = certificate_to_text(cert)
        assert text == "model standard\ngenus 5\nstart\nend\n"
        assert certificate_from_text(text) == cert

    @pytest.mark.parametrize(
        "text",
        [
            "model standard\ngenus 5\nstart u1",
            "kind standard\ngenus 5\nstart\nend\n",
            "model standard\ngenus x\nstart\nend\n",
            "model standard\ngenus 5\nstart\nend\nstep 0 R9 fwd\n",
            "model standard\ngenus 5\nstart\nend\nstep 0 R2 fwd\n",
            "model standard\ngenus 5\nstart\nend\nstep 0 R2 1 sideways\n",
            "model standard\ngenus 5\nstart\nend\nfree insert 0 u1\n",
            "model standard\ngenus 5\nstart\nend\nfree swap 0 u1 1\n",
            "model standard\ngenus 5\nstart\nend\nfree insert 0 q1 1\n",
            "model standard\ngenus 5\nstart\nend\nwibble\n",
            "model standard\ngenus 1_0\nstart\nend\n",
            "model standard\ngenus +5\nstart\nend\n",
            "model standard\ngenus 05\nstart\nend\n",
            "model standard\ngenus  5\nstart\nend\n",
            "model standard\ngenus 5\u00a0\nstart\nend\n",
            "model standard\ngenus \u0665\nstart\nend\n",
            "model standard\ngenus 5\nstart\nend\nstep 0 R2 \u0661 fwd\n",
            "model standard\ngenus 5\nstart\nend\nfree insert 0 u1 1_0\n",
            "model standard\ngenus 5\nstart\nend\nfree insert +0 u1 1\n",
            "model standard\ngenus 5\nstart\nend\nfree insert 0\t u1 1\n",
            pytest.param("model standard\ngenus " + "5" * 5000 + "\nstart\nend\n",
                         id="genus-over-the-int-limit"),
            pytest.param("model standard\ngenus 5\nstart\nend\nfree insert 0 u" + "1" * 5000 + " 1\n",
                         id="letter-index-over-the-int-limit"),
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(CertificateError):
            certificate_from_text(text)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("model klein\ngenus 6", "line 1: unknown model kind 'klein'"),
            ("model klein\ngenus 51", "line 1: unknown model kind 'klein'"),
            ("model standard\ngenus 51", "line 2: genus 51 is over the cap of MAX_GENUS = 50"),
            ("model standard\ngenus 1", "line 2: genus must be an integer >= 2, got 1"),
            ("model standard\ngenus x", "line 2: bad genus 'x'"),
            ("model hybrid\ngenus 5", "line 2: hybrid model requires even genus >= 4"),
            ("model\ngenus 5", "line 1: unknown model kind ''"),
            ("model standard\nkind 5", "line 2: expected 'genus'"),
        ],
    )
    def test_a_header_fault_names_its_line(self, header, message):
        with pytest.raises(CertificateError) as info:
            certificate_from_text(f"{header}\nstart\nend\n")
        assert str(info.value) == message

    # u1 u2 u1 -> u2 u1 u2 -> u1 u2 u1; later lines repeat an earlier line's fields
    _HEAD = "model standard\ngenus 5\nstart u1 u2 u1\nend u2 u1 u2\n"
    _STEPS = "step 0 R2 1 fwd\nstep 0 R2 1 bwd\nfree insert 1 u1 2\nfree delete 1 u1 2\n"

    def test_repeated_fields_parse_once_per_line(self):
        cert = certificate_from_text(self._HEAD + self._STEPS + "step 0 R2 1 fwd\n")
        assert replay_certificate(cert) == cert.end.syllables
        assert cert.steps[0] == cert.steps[4] and cert.steps[2].letter is cert.steps[3].letter

    def test_bad_position_of_a_repeated_step_fails_on_its_own_line(self):
        with pytest.raises(CertificateError, match=r"^line 9: bad position '0x'$"):
            certificate_from_text(self._HEAD + self._STEPS + "step 0x R2 1 fwd\n")
        with pytest.raises(CertificateError, match=r"^line 9: bad position '-0'$"):
            certificate_from_text(self._HEAD + self._STEPS + "free insert -0 u1 2\n")
        cert = certificate_from_text(self._HEAD + self._STEPS + "step 9 R2 1 fwd\n")
        with pytest.raises(CertificateError, match=r"^step 5: step position 9 out of range 0\.\.3$"):
            replay_certificate(cert)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("step 0 R2 1 fwx", "line 9: direction must be fwd or bwd"),
            ("step 0 R2 1 fwd x", "line 9: R2 step needs 1 parameters"),
            ("step 0 R2 01 fwd", "line 9: bad parameter '01'"),
            ("step 0 R22 1 fwd", "line 9: unknown schema 'R22'"),
            ("step 0 R2", "line 9: malformed schema step"),
            ("free insert 1 u1 2 x", "line 9: malformed free step"),
            ("free insrt 1 u1 2", "line 9: unknown free op 'insrt'"),
            ("free insert 1 u01 2", "line 9: bad letter token 'u01'"),
            ("free insert 1 u1 +2", "line 9: bad exponent '+2'"),
            ("move 0 2", "line 9: malformed move step"),
            ("move 0 2 fwd x", "line 9: malformed move step"),
            ("move 0  2 fwd", "line 9: malformed move step"),
            ("move 0 2 fwx", "line 9: malformed move step"),
            ("move 0x 2 fwd", "line 9: bad position '0x'"),
            ("move 0 02 bwd", "line 9: bad length '02'"),
            ("move 0 +2 bwd", "line 9: bad length '+2'"),
            ("move -1 2 fwd", "line 9: move position -1 is negative"),
            ("move 0 0 fwd", "line 9: move length must be >= 1, got 0"),
            ("step -1 R2 1 fwd", "line 9: step position -1 is negative"),
            ("free merge -1 u1 2", "line 9: free position -1 is negative"),
            ("free insert 0 u2 0", "line 9: free exponent must be nonzero"),
            ("mv 0 2 fwd", "line 9: expected a step, move, gather, free or block line"),
            ("gather 0 2 3", "line 9: malformed gather step"),
            ("gather 0 2 3 fwd x", "line 9: malformed gather step"),
            ("gather 0  2 3 fwd", "line 9: malformed gather step"),
            ("gather 0 2 3 fwx", "line 9: malformed gather step"),
            ("gather 0x 2 3 fwd", "line 9: bad position '0x'"),
            ("gather 0 02 3 bwd", "line 9: bad length '02'"),
            ("gather 0 2 +3 fwd", "line 9: bad copies '+3'"),
            ("gather 0 2 \u0663 fwd", "line 9: bad copies '\u0663'"),
            ("gather -0 2 3 fwd", "line 9: bad position '-0'"),
            ("gather -1 2 3 fwd", "line 9: gather position -1 is negative"),
            ("gather 0 0 3 fwd", "line 9: gather length must be >= 1, got 0"),
            ("gather 0 2 1 bwd", "line 9: gather copies must be >= 2, got 1"),
            ("block insrt 1 u1 u2", "line 9: unknown block op 'insrt'"),
            ("block merge 1 u1 u2", "line 9: unknown block op 'merge'"),
            ("block insert 1 u1", "line 9: a block needs 2 or more syllables, got 1"),
            ("block insert 1 u1^2", "line 9: a block needs 2 or more syllables, got 1"),
            ("block insert 1", "line 9: a block needs 2 or more syllables, got 0"),
            ("block insert 1 ", "line 9: a block needs 2 or more syllables, got 0"),
            ("block insert 1 u1 u1 u2", "line 9: block word 'u1 u1 u2' is not in its written form"),
            (
                "block delete 1 u1 u3 u3^-1 u2",
                "line 9: block word 'u1 u3 u3^-1 u2' is not in its written form",
            ),
            ("block insert 1 u1 u2 ", "line 9: block word 'u1 u2 ' is not in its written form"),
            (
                "block insert 1 (u1 u2)^1",
                "line 9: block word '(u1 u2)^1' is not in its written form",
            ),
            (
                "block insert 1 (u1 u2)^2",
                "line 9: block word '(u1 u2)^2' is not in its written form",
            ),
            (
                "block insert 1 u1 u9",
                "line 9: bad block word: letter u9 is not admissible"
                " in the standard genus-5 model (column 3)",
            ),
            (
                "block insert 1 u1 c2",
                "line 9: bad block word: letter c2 is not admissible"
                " in the standard genus-5 model (column 3)",
            ),
            (
                "block insert 1 u1 u2^0",
                "line 9: bad block word: exponent must be a nonzero integer"
                " without leading 0 (column 6)",
            ),
            ("block insert -1 u1 u2", "line 9: block position -1 is negative"),
            ("block delete 01 u1 u2", "line 9: bad position '01'"),
            ("block delete +1 u1 u2", "line 9: bad position '+1'"),
        ],
    )
    def test_tampered_copy_of_a_parsed_tail_is_rejected(self, line, message):
        with pytest.raises(CertificateError) as info:
            certificate_from_text(self._HEAD + self._STEPS + line + "\n")
        assert str(info.value) == message

    @settings(max_examples=50)
    @given(standard_models(3, 6).flatmap(lambda m: st.tuples(words_for(m), words_for(m))))
    def test_endpoint_round_trip_any_words(self, pair):
        a, b = pair
        cert = Certificate(a, b)
        assert certificate_from_text(certificate_to_text(cert)) == cert

    @settings(max_examples=80)
    @given(
        conjugates(max_genus=6).flatmap(
            lambda x: st.tuples(st.just(x), words_for(x.model), st.integers(2, 4), words_for(x.model))
        )
    )
    def test_grouped_endpoints_round_trip(self, data):
        # start and end words w b^r w^-1 read back as the same certificate
        conjugate, b, r, w = data
        a = w * conjugate**r * w.inverse()
        c = w * b**r * w.inverse()
        cert = Certificate(a, c)
        assert certificate_from_text(certificate_to_text(cert)) == cert

    @settings(max_examples=150)
    @given(
        standard_models(3, 6).flatmap(
            lambda m: st.tuples(
                words_for(m),
                words_for(m),
                words_for(m),
                st.integers(2, 4),
                st.integers(1, 4),
                words_for(m, max_len=30),
            )
        )
    )
    def test_nested_groups_round_trip(self, data):
        # w ((a)^p b)^r w^-1, whose groups nest, and random words read back
        # as the same word
        w, a, b, p, r, other = data
        nested = w * (a**p * b) ** r * w.inverse()
        for word in (nested, other):
            assert parse_word(_grouped_text(word), word.model) == word

    @settings(max_examples=150)
    @given(
        (standard_models(3, 7) | hybrid_models(8)).flatmap(
            lambda m: st.tuples(_built_words(m), _built_words(m))
        )
    )
    def test_words_are_written_as_built(self, pair):
        # each word reads back from the record of how it was built, and a
        # certificate of two such words reads back to the same text
        for word in pair:
            assert parse_word(_grouped_text(word), word.model) == word
        cert = Certificate(*pair)
        text = certificate_to_text(cert)
        assert certificate_from_text(text) == cert
        assert certificate_to_text(certificate_from_text(text)) == text

    def test_parsed_text_is_written_on_one_line(self, std5):
        cert = Certificate(_w("u1\n u2", std5), _w("u2 \t u1", std5))
        text = certificate_to_text(cert)
        assert text == "model standard\ngenus 5\nstart u1 u2\nend u2 u1\n"
        assert certificate_from_text(text) == cert

    def test_long_product_loop_is_written_flat(self, std5):
        # a product keeps no more factors than it has syllables, so the
        # loop's record never grows past the 2-syllable word it leaves
        block = _w("u1 u2", std5)
        word = block
        for k in range(5000):
            word = word * (block.inverse() if k % 2 == 0 else block)
        assert word == block
        text = _grouped_text(word)
        assert text == "u1 u2"
        assert parse_word(text, std5) == block


def _built_words(model):
    """Words built by nesting ``*``, ``**`` (-4..4), ``inverse()`` and parse_word of their text."""

    @st.composite
    def build(draw):
        pool = [draw(words_for(model, max_len=3)) for _ in range(2)]
        for _ in range(draw(st.integers(1, 6))):
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            op = draw(st.sampled_from(("*", "**", "inverse", "parse")))
            if op == "*":
                pool.append(a * b)
            elif op == "**":
                pool.append(a ** draw(st.integers(-4, 4)))
            elif op == "inverse":
                pool.append(a.inverse())
            else:
                pool.append(parse_word(_grouped_text(a), model))
        return pool[-1]

    return build()


def _pair_steps(step):
    """The free pairs a block step stands for: inserts outermost first, deletes innermost first."""
    if not isinstance(step, BlockStep):
        return [step]
    pairs = [FreeStep(step.op, step.position + j, *s) for j, s in enumerate(step.syllables)]
    return pairs if step.op == "insert" else pairs[::-1]


def _expanded(certificate):
    """The certificate with each gather step written out as its move and merge rounds."""
    state, steps = list(certificate.start.syllables), []
    for step in certificate.steps:
        steps += _gather_rounds(state, step) if isinstance(step, GatherStep) else [step]
        apply_step(state, step, certificate.model)
    return Certificate(certificate.start, certificate.end, tuple(steps))


def _written_out_text(certificate):
    """certificate_to_text with the start and end lines written out by format_word,
    each gather step written out as its rounds and each block step as its free pairs."""
    steps = tuple(pair for step in _expanded(certificate).steps for pair in _pair_steps(step))
    lines = certificate_to_text(Certificate(certificate.start, certificate.end, steps)).split("\n")
    for n, (tag, word) in enumerate((("start", certificate.start), ("end", certificate.end)), 2):
        lines[n] = f"{tag} {format_word(word)}".rstrip()
    return "\n".join(lines)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of _written_out_text for the roots of u1 and y1: standard model at
# genus 5..13 (nonorientable complement), hybrid model at genus 4..12.  These
# are the digests of certificate_to_text from before grouped start lines, so
# they pin every step line and the end line byte for byte.
CERTIFICATE_SHA256 = {
    ("standard", 5, "u"): "08bfb05c8e2fe02acc8f118aa95ab0d459589ef4bd258376fc77d4e62ce78e53",
    ("standard", 5, "y"): "69abbe13fb79772d07a8233e243bae8a8a4e54f9727665f354a4e578c07fcd8e",
    ("standard", 6, "u"): "b00c076b9e483ff23a5f0417f0ddc0299c9160e0c3be47258dd79641318625d7",
    ("standard", 6, "y"): "07c0d8c67e363f8c91dab752b1bacac284de65ab243aeabaa2228917a72bdfaf",
    ("standard", 7, "u"): "1e8bde8a07b4e967f9d61a30ef39ad26e79b7db583d5121cf9839ac75a0f7d6a",
    ("standard", 7, "y"): "375f4527a51970f05e06d6bc93587d897fe10eabef6f684a942543607592e5bc",
    ("standard", 8, "u"): "7538a3641119586a07919da62fc2ae20686ed4ea377ea962876c37deb54b32d2",
    ("standard", 8, "y"): "c76adb749c5fee65dc62562aa1dae8d5cab57b08cc6d3138741581d3ca89292b",
    ("standard", 9, "u"): "3cbe4ac0a5c3d9bd525d52a153bf91e0db75723c0fb5dcbac115b4463b357658",
    ("standard", 9, "y"): "c2d3448c1f2ea5265623ec56540a2c07690ede475ea8dbbb9c01f689df2d36f1",
    ("standard", 10, "u"): "02245613419db0f239cf3997301891503a032951d7cf68a32d63b64347a3b10c",
    ("standard", 10, "y"): "f1b016a24951430cc0f49bde19b723cbdb423e1300705fa72a4aea78dad495b1",
    ("standard", 11, "u"): "ec8316200248ece8b293754c81aceda8990ca66b1eb60c1ea63aa1103ddd2b71",
    ("standard", 11, "y"): "f8d3d8428dd0de5d5c38476fa9501eed20b320956a12ce9ec4d01f38380668ae",
    ("standard", 12, "u"): "22d74939ab22602c08213619dc3dacb2a93915c01b8e9acf2f31603ba4c1b04b",
    ("standard", 12, "y"): "2d3be6cdbf299e086975b504f039ccb859efbb94c0073fede8eff4b7c50ab634",
    ("standard", 13, "u"): "58a3863ad0947ee1c9858758973ea34260faab52d5d769663e7eef153d5f280e",
    ("standard", 13, "y"): "be483f350d06f43db78fbb6d3b0c088a74084eca0757c8e92e0dc82ed0ff40bd",
    ("hybrid", 4, "u"): "262b5c593a1a65ac6ddcb45edd8435ae250a0d48874801a4c37e2db921b597e5",
    ("hybrid", 4, "y"): "2a65517325dc0f6c8be899eac3383a14502e239b9fc4f84e628ccda13f58c501",
    ("hybrid", 6, "u"): "09116fd159391051d30ab1d46c3066d91337472e89be81ffaae692765c4eb4cf",
    ("hybrid", 6, "y"): "dc8f7279fcc5d89896b05f87657a20b8601134bf961be984734313cd88e2cf00",
    ("hybrid", 8, "u"): "fb5b104de5412037268c3fef2504ef0d6d4c531ee57f0e1b56e945b995fe5e96",
    ("hybrid", 8, "y"): "f5fec9efa4b3ab2b3e7b74991ed250507c6bd9a08faf580281cad7669ba5eefb",
    ("hybrid", 10, "u"): "9aee6455d1133e2f30ec78d6266774060031a6440e88c279b1167ec27d090800",
    ("hybrid", 10, "y"): "efc01b93e00a699e0c11910de3dfc48d208c0128b406c53f5ce2ef4a036a247c",
    ("hybrid", 12, "u"): "d50ce39c5f6411de7270596c49cabd97dabfafc840f10d8c877a18790f6b5e89",
    ("hybrid", 12, "y"): "c7ceeb13d69d4182a4769f42c280d3c0675de219085fb6623d58355e2a30bc12",
}


# sha256 of certificate_to_text, each word written as it was built, for the
# same roots.
GROUPED_CERTIFICATE_SHA256 = {
    ("standard", 5, "u"): "bcdbcb493f3a2d637e749828502084bb03b3404562631f968a475a5fd3daa168",
    ("standard", 5, "y"): "bea88a53ed0fe37d7095f07d040f1593ec9376e53eae0824251b1faeeda77859",
    ("standard", 6, "u"): "46ba5004fff6efc04114dc88a7cec274935e0770127518e1fd585a3b5c962a74",
    ("standard", 6, "y"): "81536ed5583ed0b2e3bb5c6560d21f56efb105761e603b3e92da30300a2496e8",
    ("standard", 7, "u"): "e6ad44c6f88dde62e901cfa30ccc15e72a887191e6ea08f77148718f3530b8c4",
    ("standard", 7, "y"): "38c1b46f43169bad204bcb772bcf25b2ea55a1d35eea680848519f7def2724de",
    ("standard", 8, "u"): "9555f0d7a483f12ffb0549a236550439e19c8798d064928b46ebd2375a6c96af",
    ("standard", 8, "y"): "7cb5ec1ff3b07ec6ac7e0a8304768386ed91525147a8a97ded6be02d2822208e",
    ("standard", 9, "u"): "d8f4eae2e675e1f761408ad3485e50898ea74cebf5c7ac46d75e8f27c3b98774",
    ("standard", 9, "y"): "7ae369590a23c2ef6dd51600ee39ca8b08b7dad8ffe1e5934d73f2a7e4eff0b7",
    ("standard", 10, "u"): "0b3c86c79ee3bb9414727f461e2fdeb02b6e3eca98d434a4b9153d15759eb447",
    ("standard", 10, "y"): "46e48344d6012b9d6f2d1fda8e75803225a81928cab45abddd5531060c1fa4b4",
    ("standard", 11, "u"): "73b78a8b2a70bcc849608d419778710ba5fe31981ba831b152bcbefd411167c9",
    ("standard", 11, "y"): "328161583b31e68663bdb87d73c0e5eeb5bc47114e2ac55c42adafe42c8a5725",
    ("standard", 12, "u"): "34e6738dae631d6bf94943e80825083b733894f11e029c88ea19ac2fbd23c71a",
    ("standard", 12, "y"): "093dab0c7c9c3d884120b62ab72bb1cfdd85bfdce6df80ddb70af8b5d1bde29f",
    ("standard", 13, "u"): "5c5ef84110e4d8234ea464a53c445a61fb2244862d4e6d2d85d23782068938da",
    ("standard", 13, "y"): "38fd65318172fa60103de68cfe159d53a60123c837bd10f4e50226f87f229631",
    ("hybrid", 4, "u"): "84328ac13b34d7710363575e9c09aa5111bcc38089bfb6cdf476c252c4145c3c",
    ("hybrid", 4, "y"): "9041403a9675f17eead5626b729db4c06b39e4614c579c6840712da66b7e70ec",
    ("hybrid", 6, "u"): "04ef07519cef72ea035722a244bb6fbe1a19e3e5dde9aa00166567904ea7b657",
    ("hybrid", 6, "y"): "759525b599756eea85a755a78921b50997278c97b9346c07e7bdba5892204fb0",
    ("hybrid", 8, "u"): "1dc4ea973a76bd37f5ed3ad510fc2193dc966c550a9f357ccecdd20fc2ae6900",
    ("hybrid", 8, "y"): "a7986c3e6a2a38957533bd3f94b2318cd1771c72ac8dc0be99a6db69aa61560c",
    ("hybrid", 10, "u"): "6d21f25542d6c469953efd91351d80e8413346da4b78817567e1b2c335989d22",
    ("hybrid", 10, "y"): "bc57ec297428df6b26df3f20baf64f927a9b4b2f1621e99695afb7787229969f",
    ("hybrid", 12, "u"): "87503aa92e7bd3ed6467fa7b5358fe1a578aad2d27b0cb77c2bf1c709d6bd4a3",
    ("hybrid", 12, "y"): "9d1e4cad3d925d00304b2c117df7681a74acd3a04fdf2aed7c2a3b519e53a059",
}


@pytest.mark.parametrize("kind, genus, target", sorted(CERTIFICATE_SHA256))
def test_certificate_text_is_byte_stable(kind, genus, target):
    complement = "orientable" if kind == "hybrid" else "nonorientable"
    certificate = construct_root(RootRequest(genus, target, complement)).certificate
    key = kind, genus, target
    assert _sha256(_written_out_text(certificate)) == CERTIFICATE_SHA256[key]
    assert _sha256(certificate_to_text(certificate)) == GROUPED_CERTIFICATE_SHA256[key]


# sha256 of _written_out_text(construct_braid_root(n, i).certificate) for
# n = 5..8 punctures and every index; index 1 is the standard root of u1.
BRAID_CERTIFICATE_SHA256 = {
    (5, 1): "08bfb05c8e2fe02acc8f118aa95ab0d459589ef4bd258376fc77d4e62ce78e53",
    (5, 2): "1009100988c11c499a27165821dbef893674358d4e0a3205f4d896c765ac7f1f",
    (5, 3): "c984e9a7210c3a55aecc39f1fac30ddc6b09256b733a00b5a7242ea4e1f30df2",
    (5, 4): "5356c3beb1219750b58db883b44e24a65465ee60c960a7afa8359e0520ae7c01",
    (6, 1): "b00c076b9e483ff23a5f0417f0ddc0299c9160e0c3be47258dd79641318625d7",
    (6, 2): "596317a935647b140f49ceec3e5e13a8d505bf27a00b32ddebe88b4ac1fd3292",
    (6, 3): "80959c9c1caf4c0aef93ee979a9b055674aac06feec9c40ce3f3da29c32b7eb5",
    (6, 4): "9a14a77baa7b0fac088f684a8227306fd22acd9b7ab25dc7e57b3b5cc596923e",
    (6, 5): "f9df0789eab978df5ae729c26e91aae58185df8f84bdac49eb2dc737011e4cca",
    (7, 1): "1e8bde8a07b4e967f9d61a30ef39ad26e79b7db583d5121cf9839ac75a0f7d6a",
    (7, 2): "ffa0895c8e1ef9a449cb125de63431bf3cd2d867c4862909bb463e107fefcac6",
    (7, 3): "c13cf4a5f213e49d52691684ad351ff905e13c15247b6bf79096093ea16ae498",
    (7, 4): "76851b27ae5c5cc0e6a79e189c515300949d4fc32cd0f72d1bfe65c90f0123cd",
    (7, 5): "728bf482f568a5e1ece32eb36be38d33ac54bda1a95cc244fa39c4afa122ea09",
    (7, 6): "b7dcde690e3cf3c0aca235eeb4bc2a6d89124df2de489430778409ba68a828f4",
    (8, 1): "7538a3641119586a07919da62fc2ae20686ed4ea377ea962876c37deb54b32d2",
    (8, 2): "582334551b58310ff497d2ab9a0947a239252a232e2dbecfea6a1f4516fe1c0d",
    (8, 3): "006043fac00af702bfc827bf2140d42e25ba2222a4359f609d7e4c8a93c89c17",
    (8, 4): "95618921f689dc55e5d94cc691713a0c601106a1ef10269f0264fdfbf3985cf9",
    (8, 5): "120663b0958964baccff5b3d78fe964a8d209d2d730ee9047d9127d7a86bd5cd",
    (8, 6): "395efd62ab3e2afdf852bd594b337e20e5c17e36de30e2a5902aac609e7f0953",
    (8, 7): "ea97a78c9ec0c6530ee0fe2548303b1b8c034a97ebc1aaa0903193620e1bdfcc",
}


# sha256 of certificate_to_text, as written, for the same braid roots.
GROUPED_BRAID_CERTIFICATE_SHA256 = {
    (5, 1): "bcdbcb493f3a2d637e749828502084bb03b3404562631f968a475a5fd3daa168",
    (5, 2): "3f72822ef37d6015ad1c6e17916b308ab0cddb7025614dc6d8d792a1e19acedb",
    (5, 3): "392a34049dc8f1a1a96de706b23d908379b152759fb4bb8c23573a75fefdb732",
    (5, 4): "668deb4664058db496850249700a0c9ae1db3b41461a354b6facf5e0c92436ba",
    (6, 1): "46ba5004fff6efc04114dc88a7cec274935e0770127518e1fd585a3b5c962a74",
    (6, 2): "d8bb83981c346af604944f84bec25c7354b3d699b17940f080bd1f6d937c6a8a",
    (6, 3): "c4c27af9d47441fae9b74f9be08f627f64b1e6be00105580bc6b491928999310",
    (6, 4): "44eddc4d2ff2c6b592a3f7f7b3aad590485557d5f85045826b59f2fc5089347c",
    (6, 5): "3ec7d271e8d19627d1030539729a8844b40dd6f26519c8ae3d9715827028c27f",
    (7, 1): "e6ad44c6f88dde62e901cfa30ccc15e72a887191e6ea08f77148718f3530b8c4",
    (7, 2): "9a6bd6cc0d8d12297d1df343311b3f1164ac56179cb3b137af708d8b555fa774",
    (7, 3): "40d7c34417db6884f147881a1066de13f8e896d3e8569a19c8e5d914de58361f",
    (7, 4): "c1e9cd7c65ecdb5b00a208c2cfa37d41a5d9faebcbef8e8ee006ee4a3d0fc94a",
    (7, 5): "2a03251dcfb19a4e0b4f54d145b40d0af859a80826bfead72f6f3e2b61558a88",
    (7, 6): "3bebb46b7ac3ee29906bb7b8ebad1c67754f670ca8baba4b21996bd5d5beb2ce",
    (8, 1): "9555f0d7a483f12ffb0549a236550439e19c8798d064928b46ebd2375a6c96af",
    (8, 2): "aed10bdfdae0e47021bf01826a1877615a5849766e1af80ab5392142a98a8681",
    (8, 3): "d9eab9fd2fa6b39c1ca1e118405f76acf0042b42513898a7e68ae16eb5605cd5",
    (8, 4): "6770467d2cdbdca84163bd77d4edca1c779d6eb1cfa19fafbefe3f973b576b3a",
    (8, 5): "404874a507eb8d8f79e78b039494a0b47b5d280acf802bf3de44eb104e1f1eaf",
    (8, 6): "d78e254c96061239f410f6c58ded864987946a9058d211f49453d308edfa1dcc",
    (8, 7): "936f32fa534cf204906451250163710fc3846e209a083d71b437f494258ab9b9",
}


@pytest.mark.parametrize("punctures, index", sorted(BRAID_CERTIFICATE_SHA256))
def test_braid_certificate_text_is_byte_stable(punctures, index):
    certificate = construct_braid_root(punctures, index).certificate
    key = punctures, index
    assert _sha256(_written_out_text(certificate)) == BRAID_CERTIFICATE_SHA256[key]
    assert _sha256(certificate_to_text(certificate)) == GROUPED_BRAID_CERTIFICATE_SHA256[key]


@pytest.mark.parametrize(
    "certificate, line",
    [
        (lambda: construct_root(RootRequest(5, "u", "nonorientable")), "start ((u3 u4)^-1 u1)^3"),
        (
            lambda: construct_root(RootRequest(7, "u", "nonorientable")),
            "start ((u3 u4 u5 u6)^-2 u1)^5",
        ),
        (lambda: construct_root(RootRequest(6, "u", "orientable")), "start ((c1 c2 c3 c4)^6 u1^-1)^5"),
        (
            lambda: construct_braid_root(5, 2),
            "start (u1 u2 u3 u4 (u3 u4)^-1 u1 (u1 u2 u3 u4)^-1)^3",
        ),
        (
            lambda: construct_braid_root(6, 2),
            "start (u1 u2 u3 u4 u5 (u3^2 u4 u5)^-1 u1 (u1 u2 u3 u4 u5)^-1)^3",
        ),
        (
            lambda: construct_braid_root(11, 10),
            "start ((u1 u2 u3 u4 u5 u6 u7 u8 u9 u10)^9 (u3 u4 u5 u6 u7 u8 u9 u10)^-4 u1"
            " (u1 u2 u3 u4 u5 u6 u7 u8 u9 u10)^-9)^9",
        ),
    ],
    ids=["standard-5-u", "standard-7-u", "hybrid-6-u", "braid-5-2", "braid-6-2", "braid-11-10"],
)
def test_grouped_start_lines(certificate, line):
    assert certificate_to_text(certificate().certificate).split("\n")[2] == line


def _per_swap(certificate):
    """The certificate with each gather and move written out as its commute_step swaps."""
    state, steps = list(certificate.start.syllables), []
    for step in _expanded(certificate).steps:
        if isinstance(step, MoveStep):
            steps += _swaps_of_move(state, step, certificate.model)
        else:
            apply_step(state, step, certificate.model)
            steps.append(step)
    return Certificate(certificate.start, certificate.end, tuple(steps))


# sha256 of _written_out_text as written before move steps, one swap a
# line; writing out the moves of today's certificates gives the same text
PER_SWAP_SHA256 = {
    ("standard", 5, "u"): "24cd35507e610dbf022ce5168cc674c5b37a2b01bee6c8ddda70866bb6ed22e5",
    ("standard", 6, "y"): "71d358991964dddd94007e11cb67b834b1e7e631c0492ac857b417a1db437212",
    ("hybrid", 4, "y"): "1739f84665dcc7cdde66ac5c63a0d88c217d1377daa81278d7e204104ce993b2",
    ("braid", 6, 3): "ea0de2f84346d28bac331b1c1e759725da70d3d3844580d0cbfbb986d8b1f98c",
}


# sha256 of certificate_to_text of the same per-swap certificates, as written.
GROUPED_PER_SWAP_SHA256 = {
    ("standard", 5, "u"): "892ac3e274c259c95249865e68253cbe97a740258568e03c8901c275a75d6ed0",
    ("standard", 6, "y"): "1d357d39578166e256d05ff71f5280024b8f3847f7383724deb18cce8db5df3e",
    ("hybrid", 4, "y"): "85bc4f31f51d0fedfd403fb7535292516117556eef38f50a296225d182026022",
    ("braid", 6, 3): "397b3e72b6b3b2c0ca80f6579a1ab51b0b110bf03ddac31f33749761ff7a91dd",
}


@pytest.mark.parametrize("kind, genus, target", sorted(PER_SWAP_SHA256))
def test_per_swap_form_still_verifies(kind, genus, target):
    if kind == "braid":
        result = construct_braid_root(genus, target)
    else:
        complement = "orientable" if kind == "hybrid" else "nonorientable"
        result = construct_root(RootRequest(genus, target, complement))
    per_swap = _per_swap(result.certificate)
    assert _sha256(_written_out_text(per_swap)) == PER_SWAP_SHA256[kind, genus, target]
    text = certificate_to_text(per_swap)
    assert _sha256(text) == GROUPED_PER_SWAP_SHA256[kind, genus, target]
    assert "move " not in text
    parsed = certificate_from_text(text)
    assert len(parsed.steps) > len(result.certificate.steps)
    assert verify_identity(result.root, result.degree, result.target, parsed).proved


# certificate_to_text of braid (7, 3) as written with one free line per
# cancelled pair, before block steps
BRAID_7_3_PER_PAIR = (
    'model standard\n'
    'genus 7\n'
    'start u1 u2 u3 u4 u5 u6 u1 u2 (u6^-1 u5^-1 u4^-1 u3^-1 u1 u6^-1 u5^-1 u4^-1 u3^-1)^5 u2^-1 u1^-1 u6^-1 u5^-1 u4^-1 u3^-1 u2^-1 u1^-1\n'
    'end u3\n'
    'free insert 8 u3 1\n'
    'free insert 9 u4 1\n'
    'free insert 10 u5 1\n'
    'free insert 11 u6 1\n'
    'move 20 8 fwd\n'
    'free merge 28 u1 1\n'
    'move 28 8 fwd\n'
    'free merge 36 u1 2\n'
    'move 36 8 fwd\n'
    'free merge 44 u1 3\n'
    'move 44 8 fwd\n'
    'free merge 52 u1 4\n'
    'step 12 R6closed-odd bwd\n'
    'step 13 R6closed-odd bwd\n'
    'free merge 12 u1 -2\n'
    'free merge 12 u1 -4\n'
    'move 8 4 bwd\n'
    'step 6 R2 1 fwd\n'
    'free delete 12 u6 1\n'
    'free delete 11 u5 1\n'
    'free delete 10 u4 1\n'
    'free delete 9 u3 1\n'
    'free delete 8 u2 1\n'
    'free delete 7 u1 1\n'
    'move 3 3 bwd\n'
    'step 1 R2 2 fwd\n'
    'move 0 1 bwd\n'
    'free delete 6 u6 1\n'
    'free delete 5 u5 1\n'
    'free delete 4 u4 1\n'
    'free delete 3 u3 1\n'
    'free delete 2 u2 1\n'
    'free delete 1 u1 1\n'
)


def test_per_pair_braid_text_still_verifies(tmp_path):
    result = construct_braid_root(7, 3)
    parsed = certificate_from_text(BRAID_7_3_PER_PAIR)
    assert not any(isinstance(step, BlockStep) for step in parsed.steps)
    assert verify_identity(result.root, result.degree, result.target, parsed).proved
    # today's certificate is the same derivation, its pairs grouped in blocks
    # and its gather rounds in one gather step
    steps = tuple(pair for step in _expanded(result.certificate).steps for pair in _pair_steps(step))
    assert steps == parsed.steps and len(result.certificate.steps) < len(steps)
    path = tmp_path / "braid73.txt"
    path.write_text(BRAID_7_3_PER_PAIR)
    argv = ["verify", "--genus", "7", "--word", str(result.root), "--power", "5"]
    assert main(argv + ["--equals", "u3", "--certificate", str(path)]) == 0


@pytest.mark.parametrize("punctures, index", [(5, 4), (7, 3), (8, 4), (12, 11), (50, 49)])
def test_braid_certificates_with_blocks_round_trip(punctures, index):
    certificate = construct_braid_root(punctures, index).certificate
    text = certificate_to_text(certificate)
    assert "\nblock delete " in text and "\nblock insert " in text
    assert certificate_from_text(text) == certificate


def test_largest_braid_certificate_is_short():
    # braid (50, 49): 2 679 steps and 75 644 bytes with one line per pair,
    # 330 steps and 16 871 bytes with one move and one merge line per gather
    # round; the start (rho D^p u1 rho^-1)^m, written as built, is 587
    # bytes (1 217 when grouped by a search for repeated blocks)
    certificate = construct_braid_root(50, 49).certificate
    text = certificate_to_text(certificate)
    assert len(certificate.steps) == 239
    assert len(text.split("\n")[2]) <= 600 and len(text) == 14309

