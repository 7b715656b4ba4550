"""Acceptance battery: one test and one printed pass/fail line per criterion.

Each criterion covers an end-to-end guarantee of the package: catalog
soundness under the exact oracles, every existence case with its full
verification battery, the parity obstruction, both small-genus
nonexistence certifications, the punctured-sphere braid cases, and bulk
coherence of
the oracles on random words.  Runtime tolerances are asserted where a
criterion states one.
"""

from __future__ import annotations

import random
import time

from mcgroots.cli import main as cli_main
from mcgroots.presentation import relation_catalog, replay_certificate
from mcgroots.representations import IntMatrix, homology_of, perm_of, sign_of
from mcgroots.roots import (
    NonexistenceError,
    RootRequest,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from mcgroots.small_genus import (
    KLEIN_ELEMENTS,
    TORSION_ORDERS,
    certify_no_root_g3,
    klein_element_of,
    mn2_nontrivial_roots,
)
from mcgroots.words import SurfaceModel, Word, parse_word

from conftest import random_word


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_relation_catalogs():
    started = time.perf_counter()
    instances = 0
    ok = True
    for genus in range(2, 13):
        models = [SurfaceModel(genus)]
        if genus % 2 == 0 and genus >= 4:
            models.append(SurfaceModel(genus, "hybrid"))
        for model in models:
            for inst in relation_catalog(model):
                instances += 1
                if not verify_identity(inst.lhs, 1, inst.rhs).all_passed:
                    ok = False
    elapsed = time.perf_counter() - started
    ok = ok and instances > 0 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"all {instances} relation instances at genus 2..12 hold under the"
        f" exact oracles in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_odd_genus_roots():
    cases = 0
    ok = True
    worst = 0.0
    for genus in (5, 7, 9, 11):
        for target in ("u", "y"):
            started = time.perf_counter()
            result = construct_root(RootRequest(genus, target))
            elapsed = time.perf_counter() - started
            worst = max(worst, elapsed)
            cases += 1
            ok = ok and result.degree == genus - 2
            ok = ok and result.case == "odd"
            ok = ok and result.report.all_passed
            ok = ok and all(v == "pass" for v in result.report.checks().values())
            ok = ok and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"odd genus 5/7/9/11 roots of u1 and y1: {cases} cases, degree g-2,"
        f" all five checks pass, worst case {worst * 1000:.0f}ms (< 1s each)",
    )


def test_criterion_3_even_genus_nonorientable_roots():
    cases = 0
    ok = True
    for genus in (6, 8, 10, 12):
        for target in ("u", "y"):
            result = construct_root(RootRequest(genus, target))
            cases += 1
            ok = ok and result.degree == genus - 3
            ok = ok and result.case == "even_nonorientable"
            ok = ok and all(v == "pass" for v in result.report.checks().values())
    _verdict(
        3,
        ok,
        f"even genus 6/8/10/12 nonorientable-complement roots: {cases} cases,"
        " degree g-3, full verification battery passes",
    )


def test_criterion_4_even_genus_orientable_roots():
    cases = 0
    ok = True
    for genus in (4, 6, 8):
        for target in ("u", "y"):
            result = construct_root(RootRequest(genus, target, complement="orientable"))
            cases += 1
            checks = result.report.checks()
            ok = ok and result.degree == genus - 1
            ok = ok and result.case == "even_orientable"
            ok = ok and checks["sign"] == "pass"
            ok = ok and checks["certificate"] == "pass"
            ok = ok and checks["nontriviality"] == "pass"
            ok = ok and checks["permutation"] == "n/a"
            ok = ok and checks["homology"] == "n/a"
    _verdict(
        4,
        ok,
        f"even genus 4/6/8 orientable-complement roots: {cases} cases, degree g-1,"
        " sign/certificate/nontriviality pass with permutation and homology n/a",
    )


def test_criterion_5_parity_obstruction():
    model = SurfaceModel(6)
    ok = True
    for target in ("u1", "y1"):
        word = parse_word(target, model)
        ok = ok and sign_of(word) == -1
        # an even power has sign +1 and can never equal a sign -1 target
        ok = ok and all(sign_of(word) ** d == 1 != -1 for d in (2, 4, 6, 8, 10))
    _verdict(
        5,
        ok,
        "every even degree up to 10 is rejected for u1 and y1 by the sign"
        " character (targets have sign -1)",
    )


def test_criterion_6_genus2_exhaustion():
    ok = True
    for kind in ("u", "y"):
        ok = ok and mn2_nontrivial_roots(klein_element_of(kind)) == []
    # the search space really is the whole group times degrees 2..4
    ok = ok and len(KLEIN_ELEMENTS) == 4
    for target in (2, 3):
        with_raises = False
        try:
            construct_root(RootRequest(target, "u"))
        except NonexistenceError as exc:
            with_raises = exc.machine_certified
        ok = ok and with_raises
    _verdict(
        6,
        ok,
        "genus 2 exhaustive Klein-four search finds no nontrivial root of u1"
        " or y1, and construction re-certifies the refusal (genus 3 alike)",
    )


def test_criterion_7_genus3_torsion_certification():
    started = time.perf_counter()
    model = SurfaceModel(3)
    finite = {pair: order for pair, order in TORSION_ORDERS.items() if order is not None}
    ok = len(TORSION_ORDERS) == 10
    ok = ok and finite == {(-1, 1): 3, (0, 1): 4, (1, 1): 6, (0, -1): 2}
    for target in ("u1", "y1"):
        certification = certify_no_root_g3(parse_word(target, model), scan_bound=5)
        ok = ok and certification.passed()
    t1t2 = homology_of(parse_word("t1 t2", model))
    identity = IntMatrix.identity(2)
    ok = ok and t1t2**6 == identity and all(t1t2**k != identity for k in range(1, 6))
    ok = ok and finite[t1t2.rows[0][0] + t1t2.rows[1][1], t1t2.det()] == 6
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _verdict(
        7,
        ok,
        f"genus 3: of the ten trace/determinant pairs only (0, -1) is finite with"
        f" determinant -1 (order 2), so u1 and y1 have no nontrivial root of any"
        f" degree (table cross-checked on entries <= 5); t1 t2 has order 6;"
        f" {elapsed:.2f}s (< 60s)",
    )


def test_criterion_8_braid_roots(capsys):
    cases = 0
    ok = True
    for punctures in (5, 6, 7):
        for index in range(1, punctures):
            result = construct_braid_root(punctures, index)
            cases += 1
            ok = ok and result.degree % 2 == 1
            ok = ok and all(l.kind == "u" for l, _ in result.root.syllables)
            ok = ok and str(result.target) == f"u{index}"
            ok = ok and result.report.all_passed
    refused = True
    for punctures in (2, 3, 4):
        code = cli_main(["braid-root", "--punctures", str(punctures)])
        refused = refused and code == 2
    capsys.readouterr()
    ok = ok and refused
    _verdict(
        8,
        ok,
        f"braid roots on 5/6/7 punctures, every index ({cases} cases): odd degree,"
        " transposition letters only, full battery passes; 2/3/4 punctures exit 2",
    )


def test_criterion_9_random_word_coherence():
    rng = random.Random(20260823)
    ok = True
    words_per_genus = 1000
    total = 0
    for genus in range(2, 9):
        model = SurfaceModel(genus)
        # every oracle respects the slide law y_i = t_i u_i, so with the
        # homomorphism checks below it is invariant under writing slides out
        for i in range(1, genus):
            y, tu = parse_word(f"y{i}", model), parse_word(f"t{i} u{i}", model)
            for oracle in (homology_of, perm_of, sign_of):
                ok = ok and oracle(y) == oracle(tu)
        previous = Word(model)
        for _ in range(words_per_genus):
            w = random_word(rng, model)
            total += 1
            h = homology_of(w)
            # sign character equals the homology determinant
            ok = ok and h.det() == sign_of(w)
            # composition and inversion are respected by every oracle
            ok = ok and homology_of(previous * w) == homology_of(previous) * h
            ok = ok and perm_of(previous * w) == perm_of(previous) * perm_of(w)
            ok = ok and sign_of(previous * w) == sign_of(previous) * sign_of(w)
            ok = ok and homology_of(w.inverse()) * h == IntMatrix.identity(genus - 1)
            previous = w
            if not ok:
                break
        if not ok:
            break
    # certificate soundness: replayed endpoints agree under the oracles
    for genus in (5, 6, 7, 8):
        result = construct_root(RootRequest(genus, "y"))
        cert = result.certificate
        final = Word(cert.model, replay_certificate(cert))
        ok = ok and final == cert.end
        ok = ok and verify_identity(cert.start, 1, cert.end).all_passed
    _verdict(
        9,
        ok,
        f"{total} random words across genus 2..8 satisfy the homomorphism and"
        " determinant-sign laws, every oracle respects y_i = t_i u_i; root certificates"
        " replay to oracle-equal endpoints",
    )
