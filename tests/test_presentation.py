"""Relation schemas, rewrite steps, certificates, and their text form."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mcgroots.roots import FAIL, PASS, RootRequest, construct_root, verify_identity
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
            (4, "hybrid", 9),
            (6, "hybrid", 15),
        ],
    )
    def test_catalog_sizes(self, genus, kind, count):
        assert len(relation_catalog(SurfaceModel(genus, kind))) == count

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
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(CertificateError):
            certificate_from_text(text)

    @settings(max_examples=50)
    @given(standard_models(3, 6).flatmap(lambda m: st.tuples(words_for(m), words_for(m))))
    def test_endpoint_round_trip_any_words(self, pair):
        a, b = pair
        cert = Certificate(a, b)
        assert certificate_from_text(certificate_to_text(cert)) == cert


# sha256 of certificate_to_text for the roots of u1 and y1: standard model at
# genus 5..13 (nonorientable complement), hybrid model at genus 4..12.
CERTIFICATE_SHA256 = {
    ("standard", 5, "u"): "8385f638f4d964599715ddad55aec2100baf6a2ed8f91e74ea3b127ef6a44031",
    ("standard", 5, "y"): "2af97d37b99d588bd9bd1db0aa010df56ca46a0f0756e5003f3d88e5def93733",
    ("standard", 6, "u"): "27fd4e6ee866fbea61fa57d84a939d6e718ec694401cd98310591382fc04e798",
    ("standard", 6, "y"): "51e155d861bf9ce4ff7f8a9e01188c8d681aad34651bf279784332ef0bcb548c",
    ("standard", 7, "u"): "4e26c2c747990c926a1d094d8eb0caf7359cd7ad488e1dc0400787d52b265619",
    ("standard", 7, "y"): "7498bc351fbdd286c4bf0c2b9712597f754e8437078e7cc71266059a174753e0",
    ("standard", 8, "u"): "ffb0cc50b43abb0a22e272f0137f110110424fc489cec098f876b1d0ff7ce731",
    ("standard", 8, "y"): "978f40959ed73a034d8c77a1c852cc246e20c49820f38df4c5c50ff9af45f107",
    ("standard", 9, "u"): "1d9d7b9ef28592312c3eae18f2d6069b63da7334cde8e8985dafea87854e7965",
    ("standard", 9, "y"): "7835ab6e34568741c06af6dc62f379787d5b55679b5f34eb77681b3e82b8242e",
    ("standard", 10, "u"): "d8fcb056085e58383afa1020c2b6936bcd061680e3783d612536113fd49ee8b9",
    ("standard", 10, "y"): "007bc1da69a1d75d2c5f46fdaea25fd92455c57dd7758ece9a28bd0690a4a4b4",
    ("standard", 11, "u"): "6925e3f4c2f6b09cfb3dd2357446b7143553371e6f0da5831a72308b75988f19",
    ("standard", 11, "y"): "d9643ae1e1f81a63be4e14afce341e98f83a456e3eaed550ed97e2c46388ce87",
    ("standard", 12, "u"): "0157d958dffb8c4fb14d7f8c3b304535f3e0a6039fcd8373520377bfdcf9753c",
    ("standard", 12, "y"): "0d056ce58176acd1ef85fa3d6e15975db85488ac72c3885756447e9ec87620ae",
    ("standard", 13, "u"): "a70d1d13677ac1f3148135a8c57a9d1109bff5af595ef1aece0011d2e1370263",
    ("standard", 13, "y"): "aacce30006f130231e14c77587d4106a220e5616acd07c54b4f24b948634c8b0",
    ("hybrid", 4, "u"): "2c054ccc05849c11e82e6e2f32b191f8429129faa4e3963851c6e780f803b2be",
    ("hybrid", 4, "y"): "ae387d47b878410cbf3ccc3dd6ac3933cc7085786b2f4a91981389b7c2dff73a",
    ("hybrid", 6, "u"): "84d05128a3184c04972c70e9baa58a9d1dcd9915bc5c12fd3267abc84597803d",
    ("hybrid", 6, "y"): "18d97e00dceeeed7e2964e84eb32caeefe280bc096c4e3e339469d3f13873b6d",
    ("hybrid", 8, "u"): "5366cfd03fc84eeb726fd726a040a9dc85943857eb9fb311dd7a1bf6b3c6da45",
    ("hybrid", 8, "y"): "97ffec3bfbf7f4a018db7f08930a68cd8ab877f47309577ce4d17b71103f6578",
    ("hybrid", 10, "u"): "e3f076713f2e2e03df27aa39ffeb83124a0fba97c79c873e23f78bdf89b6003f",
    ("hybrid", 10, "y"): "f9b38b9ecac2948d352ae7b893efef2d96e9b4d0a702991286c2cf65ff6f2e00",
    ("hybrid", 12, "u"): "9695b30f96f22added4b26f22aa7f912111d8a87de4914b2529b35f80d38a5f7",
    ("hybrid", 12, "y"): "8bc4f53a733168dbacf55526b1ef5a42de3e1f860745a957859f046f8588ed8a",
}


@pytest.mark.parametrize("kind, genus, target", sorted(CERTIFICATE_SHA256))
def test_certificate_text_is_byte_stable(kind, genus, target):
    complement = "orientable" if kind == "hybrid" else "nonorientable"
    result = construct_root(RootRequest(genus, target, complement))
    text = certificate_to_text(result.certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[kind, genus, target]
