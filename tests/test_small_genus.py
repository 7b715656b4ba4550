"""Genus-2 exhaustion over Klein four and the genus-3 torsion certification."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import small_genus
from mcgroots.representations import IntMatrix, gl2_image
from mcgroots.small_genus import (
    KLEIN_ELEMENTS,
    Gl2Certification,
    KleinFourElement,
    certify_no_root_g3,
    gl2_torsion_scan,
    klein_element_of,
    mn2_nontrivial_roots,
    mn2_root_search,
    _class_key,
    _normal_form_witness,
    _order_by_invariants,
)
from mcgroots.words import SurfaceModel, parse_word


def _w(text, genus=3):
    return parse_word(text, SurfaceModel.standard(genus))


def _times(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inverse(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    assert det in (1, -1)
    return ((det * d, -det * b), (-det * c, det * a))


# one normal form per torsion class of GL(2, Z): +-I, diag(1, -1), and the
# companion matrices of orders 2 (determinant -1), 3, 4 and 6
_NORMAL_FORMS = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, -1), (1, -1)),
    ((0, -1), (1, 0)),
    ((0, -1), (1, 1)),
)
_GL2_GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((0, 1), (1, 0)))


class TestKleinFour:
    def test_group_axioms_exhaustively(self):
        e = KleinFourElement("1")
        for a, b, c in itertools.product(KLEIN_ELEMENTS, repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
        for a in KLEIN_ELEMENTS:
            assert a * e == a and e * a == a
            assert a * a**-1 == e
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
        assert klein_element_of("u") == klein_element_of("t") ** -1 * klein_element_of("y")
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
        assert _order_by_invariants(((1, 0), (0, 1))) == 1
        assert _order_by_invariants(((-1, 0), (0, -1))) == 2
        assert _order_by_invariants(((0, 1), (1, 0))) == 2
        assert _order_by_invariants(((0, -1), (1, -1))) == 3
        assert _order_by_invariants(((0, -1), (1, 0))) == 4
        assert _order_by_invariants(((0, -1), (1, 1))) == 6

    def test_infinite_orders(self):
        assert _order_by_invariants(((1, 1), (0, 1))) is None
        assert _order_by_invariants(((2, 1), (1, 1))) is None
        assert _order_by_invariants(((1, 1), (1, 0))) is None

    def test_frozen_order_six_class_representative(self):
        assert _order_by_invariants(gl2_image(_w("t1 t2")).rows) == 6


class TestTorsionScan:
    def test_bound1_frozen_table(self):
        table = gl2_torsion_scan(1)
        assert table.order_counts() == {1: 1, 2: 13, 3: 4, 4: 2, 6: 4}
        assert len(table.classes) == 7
        assert table.max_order == 6

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
            assert sixes[0].representative == IntMatrix(((0, -1), (1, 1)))

    def test_order_two_spans_both_determinants(self):
        assert gl2_torsion_scan(1).determinants_of_order(2) == (-1, 1)

    def test_members_respect_bounds_and_orders(self):
        table = gl2_torsion_scan(2)
        for cls in table.classes:
            assert cls.representative in cls.members
            for m in cls.members:
                assert max(abs(v) for row in m.rows for v in row) <= 2
                assert m**cls.order == IntMatrix.identity(2)
                assert all(m**k != IntMatrix.identity(2) for k in range(1, cls.order))

    def test_growing_bound_only_adds_members(self):
        small = {m for cls in gl2_torsion_scan(1).classes for m in cls.members}
        large = {m for cls in gl2_torsion_scan(2).classes for m in cls.members}
        assert small <= large

    def test_deterministic(self):
        assert gl2_torsion_scan(1) == gl2_torsion_scan(1)

    @staticmethod
    def _class_rows(table):
        return [(cls.order, cls.representative.rows, cls.size) for cls in table.classes]

    def test_bound5_frozen_classes(self):
        table = gl2_torsion_scan(5)
        assert table.order_counts() == {1: 1, 2: 69, 3: 12, 4: 26, 6: 12}
        assert self._class_rows(table) == [
            (1, ((1, 0), (0, 1)), 1),
            (2, ((-4, -5), (3, 4)), 42),
            (2, ((-3, -4), (2, 3)), 26),
            (2, ((-1, 0), (0, -1)), 1),
            (3, ((-2, -3), (1, 1)), 12),
            (4, ((-3, -5), (2, 3)), 26),
            (6, ((-1, -3), (1, 2)), 12),
        ]

    def test_bound6_frozen_classes(self):
        table = gl2_torsion_scan(6)
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

    def test_seven_classes_at_every_bound(self):
        for bound in range(1, 9):
            assert len(gl2_torsion_scan(bound).classes) == 7, bound

    def test_class_key_matches_brute_force_conjugacy(self):
        # two torsion matrices share a key iff some unimodular P with
        # entries in [-2, 2] has P m == n P
        span = range(-2, 3)
        box = [
            ((a, b), (c, d))
            for a, b, c, d in itertools.product(span, repeat=4)
            if a * d - b * c in (1, -1)
        ]
        torsion = [m.rows for cls in gl2_torsion_scan(2).classes for m in cls.members]
        assert len(torsion) == 40
        for m in torsion:
            for n in torsion:
                expected = any(_times(p, m) == _times(n, p) for p in box)
                assert (_class_key(m) == _class_key(n)) == expected, (m, n)

    @settings(max_examples=200, deadline=None)
    @given(
        normal=st.sampled_from(_NORMAL_FORMS),
        word=st.lists(st.sampled_from(_GL2_GENERATORS), max_size=8),
    )
    def test_conjugates_of_normal_forms_return_to_them(self, normal, word):
        p = ((1, 0), (0, 1))
        for generator in word:
            p = _times(p, generator)
        a = _times(_times(p, normal), _inverse(p))
        assert _class_key(a) == _class_key(normal)
        conjugator, found = _normal_form_witness(a)
        assert found == normal
        assert _times(_times(_inverse(conjugator), a), conjugator) == normal

    def test_merged_key_fails_the_conjugator_check(self, monkeypatch):
        # without the mod-2 bit the two order-2 classes of determinant -1
        # share a key, and their normal forms differ
        class_key = small_genus._class_key
        monkeypatch.setattr(small_genus, "_class_key", lambda rows: class_key(rows)[:3])
        with pytest.raises(RuntimeError, match="normal form"):
            gl2_torsion_scan(6)

    @pytest.mark.parametrize(
        "fake",
        [
            # P = I conjugates nothing but the normal forms themselves
            lambda p, n: (((1, 0), (0, 1)), n),
            # 2P satisfies A (2P) = (2P) N but is not invertible over Z
            lambda p, n: (tuple(tuple(2 * v for v in row) for row in p), n),
        ],
    )
    def test_wrong_conjugator_fails_the_scan(self, monkeypatch, fake):
        witness = small_genus._normal_form_witness
        monkeypatch.setattr(small_genus, "_normal_form_witness", lambda rows: fake(*witness(rows)))
        with pytest.raises(RuntimeError, match="does not take"):
            gl2_torsion_scan(2)

    def test_entry_bound_cap(self):
        assert small_genus.MAX_SCAN_BOUND == 20
        assert len(gl2_torsion_scan(20).classes) == 7
        with pytest.raises(ValueError, match="<= 20"):
            gl2_torsion_scan(21)

    def test_entry_bound_validation(self):
        with pytest.raises(ValueError):
            gl2_torsion_scan(0)


# sha256 of json.dumps(certify_no_root_g3(target, 9, bound).to_dict()),
# recorded from the exact class tables; apart from the dropped
# scan.conjugator_bound, they equal the earlier bounded search's payloads
# at every bound except 5, where its two split order-2 classes are one
_FROZEN_CERTIFICATIONS = {
    ("u1", 1): "65dace86c4ca110c73007b912ca081d314a930dc539f04b07de83b019aafe284",
    ("u1", 2): "f163bfefce3227014060bbaedcee4c09aafa57f042e27e869a64bdab2cb007f6",
    ("u1", 3): "b008d357298db2916d622e6ac79f47c330f6a7fefd6765d53d60732ad0f9170b",
    ("u1", 4): "6dee084118d35020ec5dd54eea03c62a128a76e0de2c7fd49a22d79071d96f7c",
    ("u1", 5): "e3250f08cf864a874425d28befd2012cc4fb161b13140e42f13a51f681486baf",
    ("u1", 6): "4d577ac2a39e9827b344e47572b17f0663b49affec5e7be1681535e5c69c9212",
    ("y1", 1): "5e7ecb6effe6d206cb0e912a5a056944c6abe1ec51472b65c1236afe78eabfe0",
    ("y1", 2): "f6c1fca96bc61bae6966bbd4c5c1579b85cd34d1a5b21ee9c4b0c8e1995dd1fa",
    ("y1", 3): "9dbc4a64ab7929c7baa9c1d1d854fb257987cac8e2506ced45363af5de6e6e5c",
    ("y1", 4): "0405da6e9bd34537cfbefc9dbc83833c87030c09dead33172a496b2131f36734",
    ("y1", 5): "52e1a3a76c8127c5b6ed290aa210e35cc206d834cfbbb28331bd91b6a5f38c92",
    ("y1", 6): "2859339790f11cae330402dd6397037910d8c7a117dade7091111a44d1513bee",
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
        target = certify_no_root_g3(_w("u1"), 3, scan_bound=1).target_matrix
        assert target == IntMatrix(((0, 1), (1, 0)))
        target = certify_no_root_g3(_w("y1"), 3, scan_bound=1).target_matrix
        assert target == IntMatrix(((-1, 2), (0, 1)))

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

    def test_degree_cap(self):
        assert small_genus.MAX_DEGREE == 99
        assert certify_no_root_g3(_w("u1"), 99, scan_bound=1).passed()
        with pytest.raises(ValueError, match="<= 99"):
            certify_no_root_g3(_w("u1"), 101, scan_bound=1)

    def test_degrees_twelve_apart_have_equal_findings(self):
        cert = certify_no_root_g3(_w("y1"), 27, scan_bound=2)
        by_degree = {f.degree: f for f in cert.findings}
        for degree in range(3, 16, 2):
            same, later = by_degree[degree], by_degree[degree + 12]
            assert same.allowed_orders == later.allowed_orders
            assert same.conclusions == later.conclusions
            assert same.solutions == later.solutions
