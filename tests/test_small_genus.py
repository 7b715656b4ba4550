"""Genus-2 exhaustion over Klein four and the genus-3 torsion certification."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from mcgroots.representations import IntMatrix, gl2_image
from mcgroots.small_genus import (
    KLEIN_ELEMENTS,
    Gl2Certification,
    KleinFourElement,
    certify_no_root_g3,
    gl2_order,
    gl2_torsion_scan,
    klein_element_of,
    mn2_nontrivial_roots,
    mn2_root_search,
    _bounded_conjugates,
    _conjugators,
)
from mcgroots.words import SurfaceModel, parse_word


def _w(text, genus=3):
    return parse_word(text, SurfaceModel.standard(genus))


class TestKleinFour:
    def test_group_axioms_exhaustively(self):
        e = KleinFourElement("1")
        for a, b, c in itertools.product(KLEIN_ELEMENTS, repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
        for a in KLEIN_ELEMENTS:
            assert a * e == a and e * a == a
            assert a * a.inverse() == e
            assert a * a == e  # every element is an involution

    def test_orders(self):
        assert KleinFourElement("1").order() == 1
        for label in ("t", "y", "ty"):
            assert KleinFourElement(label).order() == 2

    def test_powers(self):
        ty = KleinFourElement("ty")
        assert ty**0 == KleinFourElement("1")
        assert ty**5 == ty
        assert ty**-2 == KleinFourElement("1")

    def test_products(self):
        t, y, ty = (KleinFourElement(s) for s in ("t", "y", "ty"))
        assert t * y == ty
        assert t * ty == y
        assert str(y * ty) == "t"

    def test_label_validation(self):
        with pytest.raises(ValueError):
            KleinFourElement("u")
        with pytest.raises(ValueError):
            KleinFourElement("yt")

    def test_generator_images(self):
        assert klein_element_of("t") == KleinFourElement("t")
        assert klein_element_of("y") == KleinFourElement("y")
        # u = t^-1 y in the genus-2 group
        assert klein_element_of("u") == KleinFourElement("ty")
        assert klein_element_of("u") == klein_element_of("t").inverse() * klein_element_of("y")
        with pytest.raises(ValueError):
            klein_element_of("c")


class TestGenus2Search:
    @pytest.mark.parametrize("label", ("t", "y", "ty"))
    def test_involutions_have_only_themselves_at_odd_degree(self, label):
        target = KleinFourElement(label)
        assert mn2_root_search(target) == [(target, 3)]

    @pytest.mark.parametrize("label", ("t", "y", "ty"))
    def test_no_nontrivial_roots(self, label):
        assert mn2_nontrivial_roots(KleinFourElement(label)) == []

    def test_identity_has_involution_roots(self):
        one = KleinFourElement("1")
        assert len(mn2_root_search(one)) == 9
        nontrivial = mn2_nontrivial_roots(one)
        assert len(nontrivial) == 6
        assert all(x.order() == 2 and d % 2 == 0 for x, d in nontrivial)

    def test_search_is_exhaustive_over_the_group(self):
        found = {x for x, _ in mn2_root_search(KleinFourElement("1"))}
        assert found == set(KLEIN_ELEMENTS)


class TestGl2Order:
    def test_small_orders(self):
        assert gl2_order(IntMatrix.identity(2)) == 1
        assert gl2_order(IntMatrix.from_rows([[-1, 0], [0, -1]])) == 2
        assert gl2_order(IntMatrix.from_rows([[0, 1], [1, 0]])) == 2
        assert gl2_order(IntMatrix.from_rows([[0, -1], [1, -1]])) == 3
        assert gl2_order(IntMatrix.from_rows([[0, -1], [1, 0]])) == 4
        assert gl2_order(IntMatrix.from_rows([[0, -1], [1, 1]])) == 6

    def test_infinite_orders(self):
        assert gl2_order(IntMatrix.from_rows([[1, 1], [0, 1]])) is None
        assert gl2_order(IntMatrix.from_rows([[2, 1], [1, 1]])) is None
        assert gl2_order(IntMatrix.from_rows([[1, 1], [1, 0]])) is None

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            gl2_order(IntMatrix.from_rows([[2, 0], [0, 2]]))
        with pytest.raises(ValueError):
            gl2_order(IntMatrix.identity(3))

    def test_frozen_order_six_class_representative(self):
        assert gl2_order(gl2_image(_w("t1 t2"))) == 6


class TestTorsionScan:
    def test_bound1_frozen_table(self):
        table = gl2_torsion_scan(1)
        assert table.order_counts() == {1: 1, 2: 13, 3: 4, 4: 2, 6: 4}
        assert len(table.classes) == 7
        assert table.max_order == 6
        assert table.conjugator_bound == 2

    def test_bound2_frozen_table(self):
        table = gl2_torsion_scan(2)
        assert table.order_counts() == {1: 1, 2: 21, 3: 4, 4: 10, 6: 4}
        assert len(table.classes) == 7

    def test_single_order_six_class_of_determinant_one(self):
        for bound in (1, 2):
            table = gl2_torsion_scan(bound)
            sixes = table.classes_of_order(6)
            assert len(sixes) == 1
            assert table.determinants_of_order(6) == (1,)
            assert sixes[0].representative == IntMatrix.from_rows([[0, -1], [1, 1]])

    def test_order_two_spans_both_determinants(self):
        assert gl2_torsion_scan(1).determinants_of_order(2) == (-1, 1)

    def test_members_respect_bounds_and_orders(self):
        table = gl2_torsion_scan(2)
        for cls in table.classes:
            assert cls.representative in cls.members
            for m in cls.members:
                assert max(abs(v) for row in m.rows for v in row) <= 2
                assert gl2_order(m) == cls.order

    def test_growing_bound_only_adds_members(self):
        small = set(gl2_torsion_scan(1).all_members())
        large = set(gl2_torsion_scan(2).all_members())
        assert small <= large

    def test_deterministic(self):
        assert gl2_torsion_scan(1) == gl2_torsion_scan(1)

    @staticmethod
    def _class_rows(table):
        return [(cls.order, cls.representative.rows, cls.size) for cls in table.classes]

    def test_bound5_frozen_classes(self):
        # the default bound splits the order-2, determinant -1, trace 0 class
        # of GL(2, Z) in two: 8 classes where the group has 7
        table = gl2_torsion_scan(5)
        assert table.conjugator_bound == 10
        assert table.order_counts() == {1: 1, 2: 69, 3: 12, 4: 26, 6: 12}
        assert self._class_rows(table) == [
            (1, ((1, 0), (0, 1)), 1),
            (2, ((-4, -5), (3, 4)), 40),
            (2, ((-4, -3), (5, 4)), 2),
            (2, ((-3, -4), (2, 3)), 26),
            (2, ((-1, 0), (0, -1)), 1),
            (3, ((-2, -3), (1, 1)), 12),
            (4, ((-3, -5), (2, 3)), 26),
            (6, ((-1, -3), (1, 2)), 12),
        ]

    def test_bound6_frozen_classes(self):
        table = gl2_torsion_scan(6)
        assert table.conjugator_bound == 12
        assert table.order_counts() == {1: 1, 2: 85, 3: 12, 4: 26, 6: 12}
        assert self._class_rows(table) == [
            (1, ((1, 0), (0, 1)), 1),
            (2, ((-5, -6), (4, 5)), 42),
            (2, ((-4, -5), (3, 4)), 42),
            (2, ((-1, 0), (0, -1)), 1),
            (3, ((-2, -3), (1, 1)), 12),
            (4, ((-3, -5), (2, 3)), 26),
            (6, ((-1, -3), (1, 2)), 12),
        ]

    @pytest.mark.parametrize("conjugator_bound", (1, 2, 3))
    def test_bounded_conjugates_match_brute_force(self, conjugator_bound):
        # n is a bounded conjugate of m iff some P in the full box (both of
        # each pair +-P) has P m == n P
        def times(x, y):
            (a, b), (c, d) = x
            (e, f), (g, h) = y
            return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

        span = range(-conjugator_bound, conjugator_bound + 1)
        box = [
            ((a, b), (c, d))
            for a, b, c, d in itertools.product(span, repeat=4)
            if a * d - b * c in (1, -1)
        ]
        torsion = gl2_torsion_scan(2).all_members()
        conjugators = _conjugators(conjugator_bound)
        for m in torsion:
            conjugates = _bounded_conjugates(m, conjugators)
            for n in torsion:
                expected = any(times(p, m.rows) == times(n.rows, p) for p in box)
                assert (n.rows in conjugates) == expected, (m.rows, n.rows)

    def test_entry_bound_validation(self):
        with pytest.raises(ValueError):
            gl2_torsion_scan(0)


# sha256 of json.dumps(certify_no_root_g3(target, 9, bound).to_dict()),
# recorded when the conjugacy search still ran on numpy
_FROZEN_CERTIFICATIONS = {
    ("u1", 1): "12a9affd0df8691a956a363f0da44a7e2725e8a1cfb28222ad12f0567c805a7c",
    ("u1", 2): "bca4b1f4064c0b2368ac701d8eff6a8636b18c45635b1151d2fb55c00f354fce",
    ("u1", 3): "0a51dfd31639ada8f84df2e001ee0cb766b002073ec64daf29dc7a021534c19a",
    ("u1", 4): "9b5e984d101dec11f03dad17e76bc3679f759499c144d1f4d81be955ef5e37a8",
    ("u1", 5): "1dcefd3884d92e1c0b0b5bb91d2db88d23029f4b6c32cdf8198001ea3dcc4584",
    ("u1", 6): "ac46de8b119d0c8503593248e5406e3bd2afb8af21f88a0bacb4075dcff2f4ee",
    ("y1", 1): "f64d3c92e086b90a3860abdc28259f29c2cab8710c0d4d0d186bb73e7b96cc2f",
    ("y1", 2): "0f9cc1f203691b8a9d0e2121d61e2e1a44f21a5eaae2a6870e4cd9a8cd27c6a5",
    ("y1", 3): "f49fc86152378a5a36776790ff47e83364a000aed528b3ae3a095250ee8c8d11",
    ("y1", 4): "e3260d640f09a430e78c90c8bb396fc5bee3b7c2b36d3be871457818f6cc3d6c",
    ("y1", 5): "f818b00873e6bffc311dfbfe7e65de19d138e5707feb02207e222c5436c8318d",
    ("y1", 6): "bd2f769b6c87894c3ceeb29c7a67f2eae7945ef0543b9788911e8e190fac4c4e",
}


class TestGenus3Certification:
    @pytest.mark.parametrize("target,bound", sorted(_FROZEN_CERTIFICATIONS))
    def test_frozen_certification(self, target, bound):
        payload = certify_no_root_g3(_w(target), max_degree=9, scan_bound=bound).to_dict()
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == _FROZEN_CERTIFICATIONS[target, bound]

    @pytest.mark.parametrize("target", ("u1", "y1"))
    def test_certifies_both_targets(self, target):
        cert = certify_no_root_g3(_w(target), max_degree=9, scan_bound=2)
        assert isinstance(cert, Gl2Certification)
        assert cert.passed()
        assert [f.degree for f in cert.findings] == [3, 5, 7, 9]

    def test_allowed_orders_follow_degree_arithmetic(self):
        cert = certify_no_root_g3(_w("u1"), max_degree=9, scan_bound=1)
        allowed = {f.degree: f.allowed_orders for f in cert.findings}
        assert allowed == {3: (2, 6), 5: (2,), 7: (2,), 9: (2, 6)}

    def test_brute_force_finds_only_the_target(self):
        cert = certify_no_root_g3(_w("u1"), max_degree=5, scan_bound=2)
        u = gl2_image(_w("u1"))
        for finding in cert.findings:
            assert finding.solutions == (u,)
            assert finding.nontrivial_solutions == ()

    def test_target_matrices(self):
        assert certify_no_root_g3(_w("u1"), 3, scan_bound=1).target_matrix == IntMatrix.from_rows(
            [[0, 1], [1, 0]]
        )
        assert certify_no_root_g3(_w("y1"), 3, scan_bound=1).target_matrix == IntMatrix.from_rows(
            [[-1, 2], [0, 1]]
        )

    def test_text_and_dict_serialization(self):
        cert = certify_no_root_g3(_w("y1"), max_degree=3, scan_bound=1)
        text = cert.to_text()
        assert "verdict: no nontrivial root" in text
        assert "degree 3" in text
        payload = cert.to_dict()
        assert payload["verdict"] == "no-nontrivial-root"
        assert json.loads(json.dumps(payload)) == payload

    def test_assumptions_are_stated(self):
        cert = certify_no_root_g3(_w("u1"), 3, scan_bound=1)
        assert len(cert.assumptions) == 2
        assert any("faithful" in note for note in cert.assumptions)

    @pytest.mark.parametrize(
        "text,genus",
        [("t1", 3), ("u2", 3), ("u1^2", 3), ("u1 y2", 3)],
    )
    def test_rejects_other_targets(self, text, genus):
        with pytest.raises(ValueError):
            certify_no_root_g3(_w(text, genus), 3, scan_bound=1)

    def test_rejects_wrong_models(self):
        with pytest.raises(ValueError):
            certify_no_root_g3(parse_word("u1", SurfaceModel.standard(5)), 3, scan_bound=1)
        with pytest.raises(ValueError):
            certify_no_root_g3(parse_word("u1", SurfaceModel.hybrid(4)), 3, scan_bound=1)

    def test_rejects_bad_degrees(self):
        for bad in (1, 2, 4):
            with pytest.raises(ValueError):
                certify_no_root_g3(_w("u1"), bad, scan_bound=1)
