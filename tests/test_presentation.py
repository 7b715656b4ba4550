"""Relation schemas, rewrite steps, certificates, and their text form."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import presentation
from mcgroots.presentation import (
    SCHEMA_IDS,
    Certificate,
    CertificateError,
    FreeStep,
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
from mcgroots.roots import (
    FAIL,
    PASS,
    RootRequest,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from mcgroots.words import GeneratorLetter, SurfaceModel, WordError, parse_word

from conftest import standard_models, words_for


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
        assert inst.rhs.is_identity

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
        assert inst.rhs.is_identity

    def test_r6_odd(self, std5):
        inst = instantiate("R6closed-odd", (), std5)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(u3 u4)^3", std5)

    def test_r6_odd_degenerates_at_genus_three(self, std3):
        inst = instantiate("R6closed-odd", (), std3)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs.is_identity

    def test_r6_odd_rejects_even_genus(self):
        with pytest.raises(SchemaError):
            instantiate("R6closed-odd", (), SurfaceModel.standard(6))

    def test_r6_even(self):
        m = SurfaceModel.standard(6)
        inst = instantiate("R6closed-even", (), m)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(u3^2 u4 u5)^3", m)
        with pytest.raises(SchemaError):
            instantiate("R6closed-even", (), SurfaceModel.standard(4))
        with pytest.raises(SchemaError):
            instantiate("R6closed-even", (), SurfaceModel.standard(7))

    def test_r7_chain(self):
        m = SurfaceModel.hybrid(4)
        inst = instantiate("R7chain", (), m)
        assert str(inst.lhs) == "u1^2"
        assert inst.rhs == _w("(c1 c2)^6", m)
        with pytest.raises(SchemaError):
            instantiate("R7chain", (), SurfaceModel.standard(4))

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
        for _ in range(2):
            with pytest.raises(SchemaError, match="integer parameter expected"):
                instantiate("R2", (1.0,), std5)
        assert instantiate("R2", (True,), std5) == instantiate("R2", (1,), std5)

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
            return {inst.schema for inst in relation_catalog(SurfaceModel.standard(g))}

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

    def test_zero_exponent_rejected(self, std5):
        with pytest.raises(CertificateError, match="nonzero"):
            apply_step([], FreeStep("insert", 0, GeneratorLetter("u", 1), 0), std5)

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(CertificateError):
            FreeStep("swap", 0, GeneratorLetter("u", 1), 1)

    def test_inadmissible_letter(self, std3):
        with pytest.raises(CertificateError, match="not admissible"):
            apply_step([], FreeStep("insert", 0, GeneratorLetter("u", 7), 1), std3)


class TestStepInversion:
    # raw working states, since mid-derivation sequences need not be reduced
    CASES = [
        ([("u", 1, 2), ("t", 3, 1)], SchemaStep(0, "R6closed-odd", (), True)),
        ([("y", 2, 1), ("u", 4, 1)], SchemaStep(0, "SlideDef", (2,), True)),
        ([("u", 3, -1), ("u", 1, -2)], SchemaStep(0, "R1", (1, 3, 2, 1), True)),
        ([("t", 1, 1), ("u", 2, 1)], FreeStep("insert", 1, GeneratorLetter("u", 4), -2)),
        ([("u", 1, 2), ("u", 1, 3)], FreeStep("merge", 0, GeneratorLetter("u", 1), 2)),
        ([("u", 1, 5)], FreeStep("split", 0, GeneratorLetter("u", 1), 2)),
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
        a = _w("u1", SurfaceModel.standard(5))
        b = _w("u1", SurfaceModel.standard(6))
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

    # u1 u2 u1 -> u2 u1 u2 -> u1 u2 u1; later lines repeat an earlier line's fields
    _HEAD = "model standard\ngenus 5\nstart u1 u2 u1\nend u2 u1 u2\n"
    _STEPS = "step 0 R2 1 fwd\nstep 0 R2 1 bwd\nfree insert 1 u1 2\nfree delete 1 u1 2\n"

    def test_repeated_fields_parse_once_per_line(self):
        cert = certificate_from_text(self._HEAD + self._STEPS + "step 0 R2 1 fwd\n")
        assert replay_certificate(cert) == cert.end.syllables
        assert cert.steps[0] == cert.steps[4] and cert.steps[2].letter is cert.steps[3].letter

    def test_bad_position_of_a_repeated_step_fails_on_its_own_line(self):
        with pytest.raises(CertificateError, match="bad position '0x'"):
            certificate_from_text(self._HEAD + self._STEPS + "step 0x R2 1 fwd\n")
        with pytest.raises(CertificateError, match="bad position '-0'"):
            certificate_from_text(self._HEAD + self._STEPS + "free insert -0 u1 2\n")
        cert = certificate_from_text(self._HEAD + self._STEPS + "step 9 R2 1 fwd\n")
        with pytest.raises(CertificateError, match=r"^step 5: step position 9 out of range 0\.\.3$"):
            replay_certificate(cert)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("step 0 R2 1 fwx", "line 9: direction must be fwd or bwd"),
            ("step 0 R2 1 fwd x", "line 9: R2 step needs 1 parameters"),
            ("step 0 R2 01 fwd", "bad parameter '01'"),
            ("step 0 R22 1 fwd", "line 9: unknown schema 'R22'"),
            ("step 0 R2", "line 9: malformed schema step"),
            ("free insert 1 u1 2 x", "line 9: malformed free step"),
            ("free insrt 1 u1 2", "line 9: unknown free op 'insrt'"),
            ("free insert 1 u01 2", "bad letter token 'u01'"),
            ("free insert 1 u1 +2", "bad exponent '+2'"),
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


# sha256 of certificate_to_text for the roots of u1 and y1: standard model at
# genus 5..13 (nonorientable complement), hybrid model at genus 4..12.
CERTIFICATE_SHA256 = {
    ("standard", 5, "u"): "24cd35507e610dbf022ce5168cc674c5b37a2b01bee6c8ddda70866bb6ed22e5",
    ("standard", 5, "y"): "3a7afc831cc7f0965de75c38953873b0a37a1f782c953b25bfa47ea7ed3b3ea3",
    ("standard", 6, "u"): "11fd8b1f8049ddcb8d3189ac40a31adb855e9e661bd0b91e0e7cbd25134efbab",
    ("standard", 6, "y"): "71d358991964dddd94007e11cb67b834b1e7e631c0492ac857b417a1db437212",
    ("standard", 7, "u"): "1778ee121a9b7f77f9831bff0bee39651af494f18c53e58d39fc1bf172fc315b",
    ("standard", 7, "y"): "77748f152b8491a4c255479fcd945627a54eb315aafa9ee9426d11cf2a97eaf2",
    ("standard", 8, "u"): "410896bb3e30d1667be98529a7f0ad6c082ba26fcf43f06cee35ccd2c3ebff7e",
    ("standard", 8, "y"): "9870f9176ef594c0c4aeaed9968d8d62b7d6b518597a154d263d1d5d26e90a1b",
    ("standard", 9, "u"): "93fdefba0c8af24128aa4249994976305dc3f1fa6d8cde28a3f0dfb9c3954e1b",
    ("standard", 9, "y"): "40beeb22c32e912d81eb8171924c7b081bd29442a97ba0908fdec8bd0423e657",
    ("standard", 10, "u"): "884e6a79ca8da200ddfca341ce922eeeb12dfb4779f54d1f0fb0b4395c81e723",
    ("standard", 10, "y"): "05a7acd99ffe69337ef1369fe98acd48725f81a9b68f381bb3309eca32f0e3cb",
    ("standard", 11, "u"): "fe8a5bffd3a3ffb96f26e9858020efb9e20c346577c39040619a050b3e9fd1bc",
    ("standard", 11, "y"): "4457a3103b1c561e131f4e4f80a32a6afcc0e57111112340d794737fedee058b",
    ("standard", 12, "u"): "a064e5ced4e6278cfb07e5549d844af56b9265aeb1108f96420c047ec348bd6f",
    ("standard", 12, "y"): "27772b173bfa33aae83f516374d98711e2545e6fee4369c772a3ef4d41d1a195",
    ("standard", 13, "u"): "ff3214befa7a790a9fcd26867506b1ed694bea9a1e8f3c97ba3bf0d0ce4f085c",
    ("standard", 13, "y"): "da464b2d48849319ef8a8791508e99a44439fc27ab8d121d4b6a35c54bc63fcb",
    ("hybrid", 4, "u"): "8f9588f6a48912760dd209569f0b8d886e4d5f472d26a0009b49abc4a7e0fd47",
    ("hybrid", 4, "y"): "1739f84665dcc7cdde66ac5c63a0d88c217d1377daa81278d7e204104ce993b2",
    ("hybrid", 6, "u"): "7704fbfad8ad80ad9bf928e6aaea40cfd2d226541f16c6ec374036f6ef359d55",
    ("hybrid", 6, "y"): "acef82f7bfa3109d5f14fc65bca3b12b6f700c62a3bfe4be90555a0cf3db4015",
    ("hybrid", 8, "u"): "6285241d2b990e680fcaa6d8eba4076ecd4421915642646026b76aa38d4ed89e",
    ("hybrid", 8, "y"): "0258cc7aad936b6e397b471d9e60472a0559ffecf0975de4c70aaa749581507e",
    ("hybrid", 10, "u"): "a412740d24eb417a4c8a4be384419d457d68fd4ca28b451ecebffc09e244aa36",
    ("hybrid", 10, "y"): "ae656d999071aed0a2f81be7e51e808418047d92adbfb62dfb9ed5323a995b56",
    ("hybrid", 12, "u"): "311e2d275ade9ba9e30497e6d567c7b050c41a48ae678cc063687b07e5697596",
    ("hybrid", 12, "y"): "1b9a0a469be4ce97e1e1bcf246439296cdda9d9513b847e15dc48e88a38b10c1",
}


@pytest.mark.parametrize("kind, genus, target", sorted(CERTIFICATE_SHA256))
def test_certificate_text_is_byte_stable(kind, genus, target):
    complement = "orientable" if kind == "hybrid" else "nonorientable"
    result = construct_root(RootRequest(genus, target, complement))
    text = certificate_to_text(result.certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[kind, genus, target]


# sha256 of certificate_to_text(construct_braid_root(n, i).certificate) for
# n = 5..8 punctures and every index; index 1 is the standard root of u1.
BRAID_CERTIFICATE_SHA256 = {
    (5, 1): "24cd35507e610dbf022ce5168cc674c5b37a2b01bee6c8ddda70866bb6ed22e5",
    (5, 2): "e2cdf59ea332c66989f00489812fc3582309325c3b4c8646e36071f98e29bd7d",
    (5, 3): "3615c52350bcd901bd48350e2218de4f77ff542139611c35d27c62963aa78130",
    (5, 4): "bf1756adf459d02b8abdfbd6fedbafcda7d70bac24ac9f1f3bc9aee166581376",
    (6, 1): "11fd8b1f8049ddcb8d3189ac40a31adb855e9e661bd0b91e0e7cbd25134efbab",
    (6, 2): "230974cd000c67e78176f2f0b8139c645fcbb83d1fe13a7f7b466ecf33e4acfc",
    (6, 3): "ea0de2f84346d28bac331b1c1e759725da70d3d3844580d0cbfbb986d8b1f98c",
    (6, 4): "70ee45fd3052c402c1259df2fb3e935dcd079325fe3d8567b29135e9ed0db904",
    (6, 5): "aca970cbb42e9e5b68b4bab02a676590d695b78dd724558939aea01f647dd070",
    (7, 1): "1778ee121a9b7f77f9831bff0bee39651af494f18c53e58d39fc1bf172fc315b",
    (7, 2): "cd47a1fb0d09ecb3bf4cc2713d53cc569edcc9e19d3d0acffa98ca990747e2b1",
    (7, 3): "da88d59f1153c3f86cad69f4e9ac36d8dfefe41612916d1c39772d2ad3ddc5b1",
    (7, 4): "c5f75e6b1db63fb3bf7d0ad5199d6e35d8e6441cc597dfea83490d4471c4406a",
    (7, 5): "1a9a13d386376589d265c3170387639176dd1e808868af1cc2459a2eac871f37",
    (7, 6): "a7536e571f9e03dcf7d42d9a192806b548358ab79054d0f6c2509d08e3b67493",
    (8, 1): "410896bb3e30d1667be98529a7f0ad6c082ba26fcf43f06cee35ccd2c3ebff7e",
    (8, 2): "9965d6a43f988b510548a3f1895e9331c57f2d117a1f249f2835b83f6acadaa1",
    (8, 3): "39010adf7689bd460d0400e0719f7ba75ad98af64db23dfa7c0cc3dc2c6a3042",
    (8, 4): "9a915509176b8b044ce4966647b400e8b3bd08ed787b0b1c10279bcc414837f5",
    (8, 5): "b46f4d60756c45a71d68fac4e4b098c0c75f806ba461d2f34caa85008a2f76b8",
    (8, 6): "0535c413d41e1103a608e644470040e8075e31f1e247b36bc17edf299fd3c7b7",
    (8, 7): "fe4b7fe2d8772bf9893f56fb7773622fba5b364adf1a331a309f95234bb6b1cb",
}


@pytest.mark.parametrize("punctures, index", sorted(BRAID_CERTIFICATE_SHA256))
def test_braid_certificate_text_is_byte_stable(punctures, index):
    text = certificate_to_text(construct_braid_root(punctures, index).certificate)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BRAID_CERTIFICATE_SHA256[punctures, index]
