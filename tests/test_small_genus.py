"""Genus-2 exhaustion over Klein four and the genus-3 torsion certification."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from mcgroots import small_genus
from mcgroots.representations import IntMatrix, homology_of
from mcgroots.small_genus import (
    KLEIN_ELEMENTS,
    TORSION_ORDERS,
    Gl2Certification,
    KleinFourElement,
    certify_no_root_g3,
    gl2_torsion_scan,
    klein_element_of,
    mn2_nontrivial_roots,
    mn2_root_search,
    _order_by_iteration,
    _pair_order,
    _predicted_order,
)
from mcgroots.words import SurfaceModel, parse_word


def _w(text, genus=3):
    return parse_word(text, SurfaceModel(genus))


def _times(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _power(x, n):
    result = ((1, 0), (0, 1))
    for _ in range(n):
        result = _times(result, x)
    return result


def _unimodular(bound):
    span = range(-bound, bound + 1)
    return [
        ((a, b), (c, d))
        for a, b, c, d in itertools.product(span, repeat=4)
        if a * d - b * c in (1, -1)
    ]


def _iterated_order(x, cap=12):
    return next((n for n in range(1, cap + 1) if _power(x, n) == ((1, 0), (0, 1))), None)


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
    # each matrix's order by the table (its trace and determinant) and by
    # iteration agree
    def test_small_orders(self):
        for rows, order in (
            (((1, 0), (0, 1)), 1),
            (((-1, 0), (0, -1)), 2),
            (((0, 1), (1, 0)), 2),
            (((0, -1), (1, -1)), 3),
            (((0, -1), (1, 0)), 4),
            (((0, -1), (1, 1)), 6),
        ):
            assert _predicted_order(rows) == order, rows
            assert _order_by_iteration(rows) == order, rows

    def test_infinite_orders(self):
        for rows in (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 0)), ((-1, 1), (0, -1))):
            assert _predicted_order(rows) is None, rows
            assert _order_by_iteration(rows) is None, rows

    def test_frozen_order_six_class_representative(self):
        rows = homology_of(_w("t1 t2")).rows
        assert _predicted_order(rows) == _order_by_iteration(rows) == 6


class TestTorsionTable:
    def test_ten_pairs(self):
        assert TORSION_ORDERS == {
            (-2, 1): None, (-1, 1): 3, (0, 1): 4, (1, 1): 6, (2, 1): None,
            (-2, -1): None, (-1, -1): None, (0, -1): 2, (1, -1): None, (2, -1): None,
        }

    def test_table_matches_brute_iteration_on_the_box(self):
        # every unimodular matrix with entries <= 6: iteration to 12 finds the
        # order the table gives its trace and determinant (+-I have their own)
        scalars = {((1, 0), (0, 1)): 1, ((-1, 0), (0, -1)): 2}
        realized = set()
        for x in _unimodular(6):
            (a, b), (c, d) = x
            pair = (a + d, a * d - b * c)
            expected = scalars[x] if x in scalars else TORSION_ORDERS.get(pair)
            assert _iterated_order(x) == expected, x
            if x not in scalars:
                realized.add(pair)
        # the box realizes every pair, so each table entry is checked
        assert realized >= set(TORSION_ORDERS)

    def test_frozen_order_six_class_representative(self):
        (a, b), (c, d) = homology_of(_w("t1 t2")).rows
        assert TORSION_ORDERS[a + d, a * d - b * c] == 6

    @pytest.mark.parametrize("pair", sorted(TORSION_ORDERS))
    def test_companion_matrix_has_the_pair_order(self, pair):
        # the companion matrix of x^2 - t x + d realizes the pair and is not
        # scalar, so the recursion's order is its order
        trace, det = pair
        companion = ((0, -det), (1, trace))
        assert _pair_order(trace, det) == _iterated_order(companion)


class TestTorsionScan:
    def test_bound1_frozen_table(self):
        assert gl2_torsion_scan(1).order_counts == {1: 1, 2: 13, 3: 4, 4: 2, 6: 4}

    def test_bound2_frozen_table(self):
        scan = gl2_torsion_scan(2)
        assert scan.order_counts == {1: 1, 2: 21, 3: 4, 4: 10, 6: 4}
        assert scan.checked == len(_unimodular(2))

    def test_bound5_frozen_table(self):
        scan = gl2_torsion_scan(5)
        assert scan.order_counts == {1: 1, 2: 69, 3: 12, 4: 26, 6: 12}
        assert scan.checked == len(_unimodular(5))

    def test_bound6_frozen_table(self):
        scan = gl2_torsion_scan(6)
        assert scan.order_counts == {1: 1, 2: 85, 3: 12, 4: 26, 6: 12}
        assert scan.checked == len(_unimodular(6))

    def test_deterministic(self):
        assert gl2_torsion_scan(1) == gl2_torsion_scan(1)

    def test_growing_bound_only_adds_members(self):
        for bound in range(1, 6):
            small, large = gl2_torsion_scan(bound), gl2_torsion_scan(bound + 1)
            assert small.checked < large.checked
            assert set(small.order_counts) == set(large.order_counts) == {1, 2, 3, 4, 6}
            assert all(n <= large.order_counts[k] for k, n in small.order_counts.items())

    def test_order_two_spans_both_determinants(self):
        # -I is the one order-2 matrix of determinant +1
        box = _unimodular(2)
        twos = [x for x in box if _iterated_order(x) == 2]
        dets = {a * d - b * c for (a, b), (c, d) in twos}
        assert dets == {-1, 1}
        assert [x for x in twos if x[0][0] * x[1][1] - x[0][1] * x[1][0] == 1] == [
            ((-1, 0), (0, -1))
        ]

    def test_single_order_six_pair_of_determinant_one(self):
        assert [pair for pair, order in TORSION_ORDERS.items() if order == 6] == [(1, 1)]
        for (a, b), (c, d) in _unimodular(3):
            if _iterated_order(((a, b), (c, d))) == 6:
                assert (a + d, a * d - b * c) == (1, 1)

    @pytest.mark.parametrize(
        "pair,wrong",
        [
            ((1, 1), 3),  # a finite order misread
            ((0, -1), None),  # a finite pair read as infinite
            ((2, -1), 2),  # an infinite pair read as finite
        ],
    )
    def test_wrong_table_fails_the_scan(self, monkeypatch, pair, wrong):
        # the box of bound 2 realizes every pair; (2, -1) needs an entry 2
        monkeypatch.setitem(small_genus.TORSION_ORDERS, pair, wrong)
        with pytest.raises(RuntimeError, match="disagrees with iteration"):
            gl2_torsion_scan(2)

    def test_entry_bound_cap(self):
        assert small_genus.MAX_SCAN_BOUND == 20
        assert gl2_torsion_scan(20).order_counts == {1: 1, 2: 389, 3: 60, 4: 74, 6: 60}
        with pytest.raises(ValueError, match="<= 20"):
            gl2_torsion_scan(21)

    def test_entry_bound_validation(self):
        with pytest.raises(ValueError):
            gl2_torsion_scan(0)


# sha256 of json.dumps(certify_no_root_g3(target, bound).to_dict()),
# recorded from the ten-pair table and its cross-check on the box of
# entry bound ``bound``
_FROZEN_CERTIFICATIONS = {
    ("u1", 1): "c7eb8ee5184f15aa1998699b7db9485d44eba6e901db5522b01021955764b211",
    ("u1", 2): "36a78a8ac40c87ee04111c72b1e80c94e7e5eccdf97fb471cd84c8fda828c72d",
    ("u1", 3): "d7f244094cae81521101e7d4473edc563eff22e488af27e12cddfe7a3a2401e8",
    ("u1", 4): "6b799814ddd83adfefcf69d2d16277501714ce8fd1d7f4cdd5e157a30febc783",
    ("u1", 5): "73d417bae541f6850e5cc895caaa90e8c66b3716cbee841482f39747267b5799",
    ("u1", 6): "92ab60bb6f7e9ee5c7785d6cd4332a50a0bca75989b1dcfa11e733e47c0594ff",
    ("y1", 1): "7b36f5ef89720223e09a745643c6d6decaf0e094f2f850c9cb589d18de667a90",
    ("y1", 2): "b626e45016d75742c9ee5dfed4e4a0a7b25b0287a3d5c34289ed72e8bde0140f",
    ("y1", 3): "22a10cd7bb02eed10f6660b39e70df4be26f5eaa9a56c63456725d7dbe93ddb2",
    ("y1", 4): "d780d1cf3f4f167bd5d7e6319dabfb5985acc4a8a25a8676a3c1fd5e07c6013f",
    ("y1", 5): "ad6db5a883756e03081d1707a642646c01d6dd96227696a3c3871752a6f71a3f",
    ("y1", 6): "af52f0a4a6868b4b8f3521aeebba3b47b95f9fa26df8e62d60be7db581d5162d",
}


class TestGenus3Certification:
    @pytest.mark.parametrize("target,bound", sorted(_FROZEN_CERTIFICATIONS))
    def test_frozen_certification(self, target, bound):
        payload = certify_no_root_g3(_w(target), scan_bound=bound).to_dict()
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == _FROZEN_CERTIFICATIONS[target, bound]

    @pytest.mark.parametrize("target", ("u1", "y1"))
    def test_certifies_both_targets(self, target):
        cert = certify_no_root_g3(_w(target), scan_bound=2)
        assert isinstance(cert, Gl2Certification)
        assert cert.passed()

    @pytest.mark.parametrize("target", ("u1", "y1"))
    def test_odd_powers_hit_the_target_only_from_itself(self, target):
        # the per-degree sweep the table replaces, kept as a reference
        u = homology_of(_w(target)).rows
        for x in _unimodular(3):
            for degree in range(3, 26, 2):
                if _power(x, degree) == u:
                    assert x == u, (x, degree)

    @pytest.mark.parametrize("target", ("u1", "y1"))
    def test_even_powers_never_hit_the_target(self, target):
        # an even power has determinant +1 and the target -1
        u = homology_of(_w(target)).rows
        for x in _unimodular(3):
            for degree in range(2, 25, 2):
                assert _power(x, degree) != u, (x, degree)

    def test_a_second_finite_negative_pair_is_inconclusive(self, monkeypatch):
        cert = certify_no_root_g3(_w("u1"), scan_bound=1)
        monkeypatch.setitem(small_genus.TORSION_ORDERS, (1, -1), 6)
        assert not cert.passed()
        assert cert.to_dict()["verdict"] == "inconclusive"

    def test_target_matrices(self):
        target = certify_no_root_g3(_w("u1"), scan_bound=1).target_matrix
        assert target == IntMatrix(((0, 1), (1, 0)))
        target = certify_no_root_g3(_w("y1"), scan_bound=1).target_matrix
        assert target == IntMatrix(((-1, 2), (0, 1)))

    def test_text_and_dict_serialization(self):
        cert = certify_no_root_g3(_w("y1"), scan_bound=1)
        text = cert.to_text()
        assert "verdict: no nontrivial root" in text
        assert "trace 0, det -1: order 2" in text
        payload = cert.to_dict()
        assert payload["verdict"] == "no-nontrivial-root"
        assert payload["cross_check"] == {
            "entry_bound": 1,
            "checked": 40,
            "order_counts": {"1": 1, "2": 13, "3": 4, "4": 2, "6": 4},
            "pairs_realized": [[-2, 1], [-1, 1], [0, 1], [1, 1], [2, 1], [-1, -1], [0, -1], [1, -1]],
        }
        assert json.loads(json.dumps(payload)) == payload

    def test_cross_check_names_the_pairs_its_box_leaves_unchecked(self):
        # a trace +-2 with determinant -1 needs an entry 2
        cert = certify_no_root_g3(_w("u1"), scan_bound=1)
        assert set(small_genus.TORSION_ORDERS) - set(cert.scan.pairs) == {(-2, -1), (2, -1)}
        assert "realizes 8 of the 10 pairs; unchecked: (-2, -1), (2, -1)" in cert.to_text()
        for bound in (2, 3):
            cert = certify_no_root_g3(_w("u1"), scan_bound=bound)
            assert cert.scan.pairs == tuple(small_genus.TORSION_ORDERS)
            assert "realizes 10 of the 10 pairs\n" in cert.to_text()

    def test_dict_lists_the_ten_pairs(self):
        rows = certify_no_root_g3(_w("u1"), scan_bound=1).to_dict()["torsion_orders"]
        assert len(rows) == 10
        finite = {(r["trace"], r["det"]): r["order"] for r in rows if r["order"] is not None}
        assert finite == {(-1, 1): 3, (0, 1): 4, (1, 1): 6, (0, -1): 2}
        notes = {(r["trace"], r["det"]): r["note"] for r in rows if r["note"]}
        assert notes == {(2, 1): "the scalar I has order 1", (-2, 1): "the scalar -I has order 2"}

    def test_assumptions_are_stated(self):
        cert = certify_no_root_g3(_w("u1"), scan_bound=1)
        assert len(cert.assumptions) == 1
        assert "faithful" in cert.assumptions[0]

    @pytest.mark.parametrize(
        "text,genus",
        [("t1", 3), ("u2", 3), ("u1^2", 3), ("u1 y2", 3)],
    )
    def test_rejects_other_targets(self, text, genus):
        with pytest.raises(ValueError):
            certify_no_root_g3(_w(text, genus), scan_bound=1)

    def test_rejects_wrong_models(self):
        with pytest.raises(ValueError):
            certify_no_root_g3(parse_word("u1", SurfaceModel(5)), scan_bound=1)
        with pytest.raises(ValueError):
            certify_no_root_g3(parse_word("u1", SurfaceModel(4, "hybrid")), scan_bound=1)
