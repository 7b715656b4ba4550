"""Root construction, verification reports, and nonexistence verdicts."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import presentation, roots
from mcgroots.presentation import (
    BlockStep,
    Certificate,
    FreeStep,
    GatherStep,
    MoveStep,
    SchemaStep,
    boundary_identity,
    certificate_from_text,
    certificate_to_text,
    commute_step,
    instantiate,
    invert_step,
    replay_certificate,
)
from mcgroots.roots import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    NonexistenceError,
    RootRequest,
    build_report,
    certificate_assumptions,
    construct_braid_root,
    construct_root,
    is_nontrivial,
    verify_identity,
)
from mcgroots.representations import homology_of, perm_of, sign_of
from mcgroots.words import GeneratorLetter, SurfaceModel, Word, WordError, parse_word

from conftest import hybrid_models, standard_models, words_for


def _w(text, model):
    return parse_word(text, model)


class TestRootRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RootRequest(5, target="t")
        with pytest.raises(ValueError):
            RootRequest(5, complement="open")
        assert RootRequest(5).complement == "auto"


def _verdict_table(genus, complement):
    """README's verdict table: ``(case, degree)``, a nonexistence case, or None."""
    if genus in (2, 3):
        return f"g{genus}"
    if genus % 2:
        return None if complement == "orientable" else ("odd", genus - 2)
    if complement == "orientable" or (genus == 4 and complement == "auto"):
        return ("even_orientable", genus - 1)
    if genus == 4:
        return "g4_nonorientable"
    return ("even_nonorientable", genus - 3)


@pytest.mark.parametrize("complement", ("auto", "nonorientable", "orientable"))
@pytest.mark.parametrize("genus", range(2, 12))
def test_case_choice_follows_the_verdict_table(genus, complement):
    expected = _verdict_table(genus, complement)
    request = RootRequest(genus, "u", complement)
    if expected is None:
        with pytest.raises(ValueError, match="even genus") as info:
            construct_root(request)
        assert not isinstance(info.value, NonexistenceError)
    elif isinstance(expected, str):
        with pytest.raises(NonexistenceError) as info:
            construct_root(request)
        assert info.value.case == expected
    else:
        result = construct_root(request)
        assert (result.case, result.degree) == expected
        assert result.report.all_passed


@pytest.mark.parametrize(
    "model",
    [SurfaceModel(g) for g in range(3, 51) if g != 4]
    + [SurfaceModel(g, "hybrid") for g in range(4, 51, 2)],
    ids=lambda model: f"{model.kind}{model.genus}",
)
def test_boundary_identity_gives_a_root(model):
    # m odd makes 2p + qm = 1 solvable; D commutes with every target letter
    schema, block, m = boundary_identity(model)
    assert m % 2 == 1
    for letter, _ in block:
        for kind in ("t", "u", "y"):
            commute_step(((GeneratorLetter(kind, 1), 1), (letter, 1)), 0, model)
    assert instantiate(schema, (), model).rhs == block ** m


def test_no_boundary_identity_at_standard_genus_2_and_4():
    assert boundary_identity(SurfaceModel(2)) is None
    assert boundary_identity(SurfaceModel(4)) is None


class TestOddGenus:
    @pytest.mark.parametrize("genus", (5, 7, 9, 11))
    @pytest.mark.parametrize("target", ("u", "y"))
    def test_full_battery(self, genus, target):
        result = construct_root(RootRequest(genus, target))
        assert result.case == "odd"
        assert result.degree == genus - 2
        assert result.degree % 2 == 1
        assert result.report.all_passed
        assert result.report.checks() == {
            "sign": PASS,
            "permutation": PASS,
            "homology": PASS,
            "certificate": PASS,
            "nontriviality": PASS,
        }
        assert result.certificate.start == result.root ** result.degree
        assert result.certificate.end == result.target
        assert str(result.target) == f"{target}1"

    def test_frozen_genus5(self, std5):
        result = construct_root(RootRequest(5, "u"))
        assert str(result.root) == "u4^-1 u3^-1 u1"
        assert result.root ** 3 != result.target  # free inequality, group equality
        assert str(construct_root(RootRequest(5, "y")).root) == "u4^-1 u3^-1 y1"

    def test_frozen_genus7(self):
        result = construct_root(RootRequest(7, "u"))
        assert str(result.root) == "u6^-1 u5^-1 u4^-1 u3^-1 u6^-1 u5^-1 u4^-1 u3^-1 u1"
        assert result.degree == 5

    def test_assumptions_name_boundary_axiom(self):
        u_result = construct_root(RootRequest(5, "u"))
        assert len(u_result.report.assumptions) == 1
        assert "R6closed-odd" in u_result.report.assumptions[0]
        y_result = construct_root(RootRequest(5, "y"))
        assert len(y_result.report.assumptions) == 2
        assert any("UsquaredYsquared" in note for note in y_result.report.assumptions)


class TestEvenGenusNonorientable:
    @pytest.mark.parametrize("genus", (6, 8, 10, 12))
    @pytest.mark.parametrize("target", ("u", "y"))
    def test_full_battery(self, genus, target):
        result = construct_root(RootRequest(genus, target))
        assert result.case == "even_nonorientable"
        assert result.degree == genus - 3
        assert result.report.all_passed
        assert result.certificate.start == result.root ** result.degree
        assert result.certificate.end == result.target

    def test_frozen_genus6(self):
        result = construct_root(RootRequest(6, "u"))
        assert str(result.root) == "u5^-1 u4^-1 u3^-2 u1"
        assert result.degree == 3
        assert "R6closed-even" in result.report.assumptions[0]


class TestEvenGenusOrientable:
    @pytest.mark.parametrize("genus", (4, 6, 8))
    @pytest.mark.parametrize("target", ("u", "y"))
    def test_full_battery(self, genus, target):
        result = construct_root(RootRequest(genus, target, complement="orientable"))
        assert result.case == "even_orientable"
        assert result.degree == genus - 1
        checks = result.report.checks()
        assert checks["sign"] == PASS
        assert result.report.certificate == PASS
        assert result.report.nontriviality == PASS
        assert checks["permutation"] == NOT_APPLICABLE
        assert checks["homology"] == NOT_APPLICABLE
        assert result.report.all_passed

    def test_frozen_genus4(self):
        result = construct_root(RootRequest(4, "u", complement="orientable"))
        assert str(result.root) == "c1 c2 c1 c2 c1 c2 c1 c2 u1^-1"
        assert result.degree == 3
        assert certificate_to_text(result.certificate).splitlines()[4:] == [
            "gather 0 8 3 fwd",
            "step 0 R7chain bwd",
            "step 1 R7chain bwd",
            "free merge 0 u1 2",
            "free merge 0 u1 4",
        ]
        notes = " ".join(result.report.assumptions)
        assert "R7chain" in notes and "ChainCommute" in notes

    def test_genus4_auto_resolves_to_orientable(self):
        auto = construct_root(RootRequest(4, "u"))
        explicit = construct_root(RootRequest(4, "u", complement="orientable"))
        assert auto.root == explicit.root and auto.case == explicit.case

    def test_odd_genus_rejects_orientable_complement(self):
        with pytest.raises(ValueError, match="even genus"):
            construct_root(RootRequest(5, "u", complement="orientable"))


class TestNonexistence:
    @pytest.mark.parametrize("target", ("u", "y"))
    def test_genus2_is_machine_certified(self, target):
        with pytest.raises(NonexistenceError) as info:
            construct_root(RootRequest(2, target))
        assert info.value.case == "g2"
        assert info.value.machine_certified is True

    @pytest.mark.parametrize("target", ("u", "y"))
    def test_genus3_is_machine_certified(self, target):
        with pytest.raises(NonexistenceError) as info:
            construct_root(RootRequest(3, target))
        assert info.value.case == "g3"
        assert info.value.machine_certified is True
        assert "bounded" not in str(info.value)
        assert "no nontrivial root at genus 3, of any degree" in str(info.value)
        assert "pair of determinant -1 is (0, -1), of order 2" in str(info.value)

    def test_genus4_nonorientable_is_structural(self):
        with pytest.raises(NonexistenceError) as info:
            construct_root(RootRequest(4, "u", complement="nonorientable"))
        assert info.value.case == "g4_nonorientable"
        assert info.value.machine_certified is False

    def test_genus_must_be_at_least_two(self):
        with pytest.raises(WordError):
            construct_root(RootRequest(1, "u"))


class TestNontriviality:
    def test_constructed_roots_are_not_target_powers(self):
        result = construct_root(RootRequest(5, "u"))
        assert is_nontrivial(result.root, result.target)

    def test_target_itself_fails(self, std5):
        u1 = _w("u1", std5)
        assert not is_nontrivial(u1, u1)

    def test_actual_powers_are_caught(self, std5):
        u1 = _w("u1", std5)
        assert not is_nontrivial(_w("u1^3", std5), u1)

    def test_witness_is_conservative(self, std5):
        # t1 u1 has the same crosscap permutation as u1, so no witness exists
        assert not is_nontrivial(_w("t1 u1", std5), _w("u1", std5))

    @pytest.mark.parametrize("genus, target, other", [(5, "y1", "u2"), (6, "u3", "u1 u3")])
    def test_both_exits_of_the_power_walk(self, genus, target, other):
        # y1 fixes every crosscap, so the walk over its powers stops at once;
        # u3 swaps crosscaps 3 and 4, so its powers cycle back after two
        model = SurfaceModel(genus)
        x = _w(target, model)
        for k in range(-3, 4):
            assert not is_nontrivial(x**k, x)
        assert is_nontrivial(_w(other, model), x)

    def test_hybrid_uses_chain_letters(self, hyb6):
        u1 = _w("u1", hyb6)
        assert is_nontrivial(_w("c1 u1", hyb6), u1)
        assert not is_nontrivial(_w("u1^3", hyb6), u1)


class TestReports:
    def test_checks_key_order(self):
        report = construct_root(RootRequest(5, "u")).report
        assert list(report.checks()) == [
            "sign",
            "permutation",
            "homology",
            "certificate",
            "nontriviality",
        ]

    def test_details_cover_every_check(self):
        report = construct_root(RootRequest(6, "y")).report
        joined = "\n".join(report.details)
        for key in ("sign", "permutation", "homology", "certificate", "nontriviality"):
            assert key in joined

    def test_trivial_claim_fails_nontriviality_only(self, std5):
        u1 = _w("u1", std5)
        report = build_report(u1, u1, 1, Certificate(u1, u1))
        checks = report.checks()
        assert report.nontriviality == FAIL
        assert checks["sign"] == checks["permutation"] == checks["homology"] == PASS
        assert not report.all_passed

    def test_oracles_refute_a_wrong_degree(self, std5):
        result = construct_root(RootRequest(5, "u"))
        report = build_report(result.root, result.target, 5, result.certificate)
        # sign still matches (odd degree) but exact oracles do not
        checks = report.checks()
        assert checks["sign"] == PASS
        assert FAIL in (checks["permutation"], checks["homology"])
        assert report.certificate == FAIL  # start word no longer matches root^degree


def _words_of_either_model():
    return st.one_of(standard_models(2, 8), hybrid_models(8)).flatmap(
        lambda m: st.tuples(words_for(m), words_for(m))
    )


def _dense_verdicts(word, power, equals):
    """The oracle verdicts by comparing the images of the written-out power."""
    written = word**power
    verdicts = {"sign": PASS if sign_of(written) == sign_of(equals) else FAIL}
    for key, oracle in (("permutation", perm_of), ("homology", homology_of)):
        if word.model.is_hybrid:
            verdicts[key] = NOT_APPLICABLE
        else:
            verdicts[key] = PASS if oracle(written) == oracle(equals) else FAIL
    return verdicts


class TestVerifyIdentity:
    @settings(max_examples=80, deadline=None)
    @given(_words_of_either_model(), st.integers(-6, 6))
    def test_a_power_equals_its_written_out_word(self, words, n):
        word, _ = words
        report = verify_identity(word, n, word**n)
        assert report.all_passed and report.proved
        checks = report.checks()
        assert checks["sign"] == PASS
        expected = NOT_APPLICABLE if word.model.is_hybrid else PASS
        assert checks["permutation"] == checks["homology"] == expected
        assert report.certificate == report.nontriviality == NOT_APPLICABLE

    @settings(max_examples=80, deadline=None)
    @given(_words_of_either_model(), st.integers(-4, 4))
    def test_verdicts_match_the_dense_comparison(self, words, n):
        word, equals = words
        checks = verify_identity(word, n, equals).checks()
        dense = _dense_verdicts(word, n, equals)
        assert {key: checks[key] for key in dense} == dense

    def test_negative_power_keeps_the_sign_an_int(self, std5):
        report = verify_identity(_w("u1 t2", std5), -3, _w("(t2^-1 u1^-1)^3", std5))
        assert report.details[0] == "sign: root^-3 vs target agree = True"
        assert report.all_passed

    def test_huge_power_is_not_written_out(self, std5):
        checks = verify_identity(_w("u1 u2", std5), -1_000_000_001, _w("u2 u1", std5)).checks()
        assert checks["sign"] == PASS
        # (u1 u2) has order 3 in the crosscap permutation, and -1000000001 = 1 mod 3
        assert checks["permutation"] == FAIL
        assert verify_identity(_w("u1 u2", std5), 3_000_000_000, _w("", std5)).all_passed

    def test_refuted_certificate_names_its_step(self):
        result = construct_root(RootRequest(5, "u"))
        cert = result.certificate
        index, step = next(
            (k, s) for k, s in enumerate(cert.steps) if isinstance(s, SchemaStep)
        )
        flipped = invert_step(step)
        bad = Certificate(
            cert.start, cert.end, cert.steps[:index] + (flipped,) + cert.steps[index + 1 :]
        )
        report = verify_identity(result.root, result.degree, result.target, bad)
        assert report.certificate == FAIL
        assert f"step {index + 1}: " in report.details[-1]
        assert "mismatch at position" in report.details[-1]

    def test_certificate_endpoints_must_match_the_claim(self):
        result = construct_root(RootRequest(5, "u"))
        cert = result.certificate
        report = verify_identity(result.root, 5, result.target, cert)
        assert report.certificate == FAIL
        assert report.details[-1] == "certificate: start is not root^5"
        report = verify_identity(result.root, 3, result.root, cert)
        assert report.details[-1] == "certificate: end is not the target"
        report = verify_identity(result.root, 3, result.target, cert)
        assert report.all_passed and report.assumptions == result.report.assumptions

    def test_certificate_model_must_match_the_claim(self):
        # a genus-6 certificate against a genus-5 claim names both models
        cert = construct_root(RootRequest(6, "u")).certificate
        model = SurfaceModel(5)
        report = verify_identity(_w("u1 u2", model), 2, _w("u1 u2 u1 u2", model), cert)
        assert report.certificate == FAIL and not report.proved
        assert report.details[-1] == (
            "certificate: its standard genus-6 model is not the claim's standard genus-5 model"
        )

    def test_power_over_the_cap_leaves_the_certificate_unchecked(self, std5):
        # (u1 u3)^10000000 passes every oracle but is over the syllable cap
        cert = construct_root(RootRequest(5, "u")).certificate
        report = verify_identity(_w("u1 u3", std5), 10_000_000, _w("", std5), cert)
        assert report.checks()["certificate"] == NOT_APPLICABLE and report.all_passed
        assert not report.proved and report.assumptions == ()
        assert report.details[-1] == (
            "certificate: not checked, the power 10000000 of a 2-syllable word would write"
            " out 20000000 syllables, over the cap of 1048576"
        )

    @pytest.mark.parametrize("certificate", ["genuine", "other-model", "tampered-step"])
    def test_only_a_certificate_that_replays_lends_its_axioms(self, certificate):
        result = construct_root(RootRequest(5, "u"))
        cert, word, power, target = result.certificate, result.root, result.degree, result.target
        if certificate == "other-model":
            cert = construct_root(RootRequest(6, "u")).certificate
            word, power = _w("u1 u2", result.root.model), 2
            target = _w("u1 u2 u1 u2", result.root.model)
        elif certificate == "tampered-step":
            index = next(k for k, s in enumerate(cert.steps) if isinstance(s, SchemaStep))
            steps = cert.steps[:index] + (invert_step(cert.steps[index]),) + cert.steps[index + 1 :]
            cert = Certificate(cert.start, cert.end, steps)
        report = verify_identity(word, power, target, cert)
        if certificate == "genuine":
            assert report.certificate == PASS
            assert report.assumptions == result.report.assumptions != ()
        else:
            assert report.certificate == FAIL and report.assumptions == ()


def test_a_root_and_its_certificate_do_not_check_the_start_again(monkeypatch):
    # the start root^m and the report's root^m are powers of a checked word,
    # so Word(...) never sees their 6 859 syllables, let alone twice
    checked = []
    init = Word.__init__

    def counting(word, model, syllables=()):
        syllables = tuple(syllables)
        checked.append(len(syllables))
        init(word, model, syllables)

    monkeypatch.setattr(Word, "__init__", counting)
    result = construct_root(RootRequest(20, "u", "orientable"))
    certificate_to_text(result.certificate)
    assert result.certificate.model == SurfaceModel(20, "hybrid")
    assert len(result.certificate.start.syllables) == 6859
    assert sum(checked) < 6859


def _complements(genus):
    if genus % 2:
        return ("auto",)
    return ("nonorientable", "orientable") if genus > 4 else ("orientable",)


@pytest.mark.parametrize(
    "genus, complement, target",
    [(g, c, t) for g in range(4, 17) for c in _complements(g) for t in "uy"]
    + [(50, c, "u") for c in _complements(50)],
)
def test_gather_takes_one_round_of_span_swaps_per_copy(genus, complement, target):
    # root = D^p X^q with 2p + qm = 1: one gather of the m copies of span + 1
    # syllables (the (m-1) rounds of one move past span syllables and one
    # merge), |p| boundary steps (and |p| u^2 -> y^2 steps), |p| final merges
    result = construct_root(RootRequest(genus, target, complement))
    m, span = result.degree, len(result.root.syllables) - 1
    p = abs(1 - result.root.syllables[-1][1] * m) // 2
    steps = result.certificate.steps
    assert len(steps) == 1 + 2 * p + p * (target == "y")
    assert steps[0] == GatherStep(0, span, m, True)
    assert not any(isinstance(step, (GatherStep, MoveStep)) for step in steps[1:])
    assert result.report.proved


@pytest.mark.parametrize("genus", range(4, 51))
def test_every_root_reverses_to_its_start(genus):
    for complement in _complements(genus):
        for target in "uy":
            result = construct_root(RootRequest(genus, target, complement))
            assert result.report.proved
            cert = result.certificate
            rev = cert.reverse()
            assert replay_certificate(rev) == cert.start.syllables
            assert rev.reverse() == cert


@pytest.mark.parametrize("punctures", (*range(5, 17), 50))
def test_every_braid_root_reverses_to_its_start(punctures):
    for index in (49,) if punctures == 50 else range(1, punctures):
        result = construct_braid_root(punctures, index)
        assert result.report.proved
        cert = result.certificate
        assert replay_certificate(cert.reverse()) == cert.start.syllables


def test_each_certificate_is_replayed_once(monkeypatch):
    """Builders only write steps: the report's replay applies each step once."""
    original = presentation.apply_step
    calls = []

    def counting(state, step, model):
        calls.append(step)
        original(state, step, model)

    monkeypatch.setattr(presentation, "apply_step", counting)
    monkeypatch.setattr(roots, "apply_step", counting)
    requests = [RootRequest(g, t) for g in (5, 6, 25, 50) for t in "uy"]
    requests += [RootRequest(g, t, "orientable") for g in (4, 20, 50) for t in "uy"]
    builds = [functools.partial(construct_root, request) for request in requests]
    builds += [
        functools.partial(construct_braid_root, n, i) for n, i in ((7, 4), (11, 10), (50, 49))
    ]
    for build in builds:
        calls.clear()
        result = build()
        assert result.report.proved
        assert len(calls) == len(result.certificate.steps), build


def test_a_construction_fault_fails_the_certificate_check(monkeypatch):
    """Nothing checks a step at build time; a wrong one fails the report's replay by number."""
    shift_steps = roots._shift_steps
    monkeypatch.setattr(roots, "_shift_steps", lambda genus, shifts: shift_steps(genus, shifts)[1:])
    report = construct_braid_root(7, 4).report
    assert report.certificate == FAIL and not report.proved and not report.all_passed
    assert any(detail.startswith("certificate:") and "step " in detail for detail in report.details)


class TestCertificates:
    def test_replay_and_reverse(self):
        for request in (RootRequest(5, "y"), RootRequest(6, "u")):
            cert = construct_root(request).certificate
            assert verify_identity(cert.start, 1, cert.end, cert).certificate == PASS
            rev = cert.reverse()
            assert verify_identity(rev.start, 1, rev.end, rev).certificate == PASS
            assert rev.reverse() == cert

    def test_text_round_trip(self):
        cert = construct_root(RootRequest(7, "u")).certificate
        assert certificate_from_text(certificate_to_text(cert)) == cert

    def test_hybrid_genus_50_text_round_trip_shares_letters(self):
        cert = construct_root(RootRequest(50, "u", "orientable")).certificate
        parsed = certificate_from_text(certificate_to_text(cert))
        assert parsed == cert
        assert all(a is b for (a, _), (b, _) in zip(parsed.start.syllables, cert.start.syllables))

    def test_tampered_direction_is_rejected(self):
        cert = construct_root(RootRequest(5, "u")).certificate
        index, step = next(
            (k, s) for k, s in enumerate(cert.steps) if isinstance(s, SchemaStep)
        )
        steps = cert.steps[:index] + (invert_step(step),) + cert.steps[index + 1 :]
        bad = Certificate(cert.start, cert.end, steps)
        assert verify_identity(bad.start, 1, bad.end, bad).certificate == FAIL

    def test_tampered_endpoint_is_rejected(self, std5):
        cert = construct_root(RootRequest(5, "u")).certificate
        bad = Certificate(cert.start, _w("u2", std5), cert.steps)
        assert verify_identity(bad.start, 1, bad.end, bad).certificate == FAIL

    def test_a_gather_lends_the_commutation_schemas(self, hyb6):
        c1 = _w("c1", hyb6).syllables[0][0]
        steps = (GatherStep(0, 1, 2), FreeStep("merge", 0, c1, 1))
        cert = Certificate(_w("c1 u1 c1 u1", hyb6), _w("c1^2 u1^2", hyb6), steps)
        assert replay_certificate(cert) == cert.end.syllables
        notes = certificate_assumptions(cert)
        assert len(notes) == 1 and notes[0].startswith("axiom ChainCommute:")
        assert certificate_assumptions(cert.reverse()) == notes

    def test_assumptions_listed_in_first_use_order(self):
        cert = construct_root(RootRequest(4, "y", complement="orientable")).certificate
        notes = certificate_assumptions(cert)
        assert len(notes) == 3
        assert "ChainCommute" in notes[0]
        assert "R7chain" in notes[1]
        assert "UsquaredYsquared" in notes[2]


class TestBraidRoots:
    @pytest.mark.parametrize("punctures", (5, 6, 7))
    def test_all_indices(self, punctures):
        expected_degree = punctures - 2 if punctures % 2 else punctures - 3
        for index in range(1, punctures):
            result = construct_braid_root(punctures, index)
            assert result.degree == expected_degree
            assert result.degree % 2 == 1
            assert result.report.all_passed
            assert str(result.target) == f"u{index}"
            assert all(letter.kind == "u" for letter, _ in result.root.syllables)
            assert result.certificate.start == result.root ** result.degree
            assert result.certificate.end == result.target

    def test_index_one_is_the_base_construction(self):
        braid = construct_braid_root(5, 1)
        base = construct_root(RootRequest(5, "u"))
        assert (braid.root, braid.degree, braid.case) == (base.root, base.degree, base.case)

    @pytest.mark.parametrize(
        "punctures, index", [(n, i) for n in (5, 6, 25, 26, 49, 50) for i in (2, n - 1)]
    )
    def test_opening_writes_out_the_one_seam(self, punctures, index):
        # the rotation's tail u3 .. u_{n-1} (u4 .. at even n, after a split of u3)
        # cancels against the head of the index-1 start
        steps = construct_braid_root(punctures, index).certificate.steps
        opening = steps[: next(k for k, step in enumerate(steps) if isinstance(step, GatherStep))]
        u = lambda j: GeneratorLetter("u", j)
        tail = tuple((u(j), 1) for j in range(3 if punctures % 2 else 4, punctures))
        seam = (index - 1) * (punctures - 1) - len(tail)
        expected = (BlockStep("insert", seam, tail),)
        if punctures % 2 == 0:
            expected = (FreeStep("split", seam - 1, u(3), 1),) + expected
        assert opening == expected

    def test_frozen_conjugated_root(self):
        result = construct_braid_root(5, 2)
        assert str(result.root) == "u1 u2 u1 u4^-1 u3^-1 u2^-1 u1^-1"
        assert str(result.target) == "u2"
        assert result.degree == 3

    @pytest.mark.parametrize("punctures", (2, 3, 4))
    def test_few_punctures_refused(self, punctures):
        with pytest.raises(NonexistenceError) as info:
            construct_braid_root(punctures, 1)
        assert info.value.case == "braid_small_n"
        assert info.value.machine_certified is False

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            construct_braid_root(1, 1)
        with pytest.raises(ValueError):
            construct_braid_root(6, 0)
        with pytest.raises(ValueError):
            construct_braid_root(6, 6)
