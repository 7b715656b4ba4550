"""Nonexistence certifications at genus 2 and genus 3.

Genus 2: the mapping class group is the Klein four-group generated by the
twist ``t`` and the slide ``y`` (both involutions, commuting), with the
transposition ``u = t y``.  Root searching is a finite exhaustion.

Genus 3: the action on first homology identifies the mapping class group
with GL(2, Z), where ``u_1`` and ``y_1`` are involutions of determinant -1.
A finite-order matrix has roots of unity as eigenvalues, so its
characteristic polynomial x^2 - t x + d has d = +-1 and |t| <= 2: ten
pairs (t, d), each of which fixes the order of every matrix but +-I
(Cayley-Hamilton; :data:`TORSION_ORDERS`).  A root x of even degree would
have determinant +1.  A root of odd degree d has det x = -1 and
x^{2d} = 1, and the one finite pair of determinant -1 is (0, -1), of
order 2, so x = x^d is the target itself.  That covers every degree at
once; :func:`gl2_torsion_scan` cross-checks the table by brute iteration
on a box of matrices.
"""

from __future__ import annotations

import itertools

from .representations import IntMatrix, _times, homology_of
from .words import Word, _Record

__all__ = [
    "Gl2Certification",
    "KLEIN_ELEMENTS",
    "KleinFourElement",
    "MAX_SCAN_BOUND",
    "TORSION_ORDERS",
    "TorsionScan",
    "certify_no_root_g3",
    "gl2_torsion_scan",
    "klein_element_of",
    "mn2_nontrivial_roots",
    "mn2_root_search",
]

_KLEIN_LABELS = ("1", "t", "y", "ty")


class KleinFourElement(_Record):
    """Element of Z2 x Z2 written multiplicatively over generators t, y."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if label not in _KLEIN_LABELS:
            raise ValueError(f"label must be one of {_KLEIN_LABELS}, got {label!r}")
        super().__init__(label)

    def __mul__(self, other: "KleinFourElement") -> "KleinFourElement":
        if not isinstance(other, KleinFourElement):
            return NotImplemented
        letters = set(self.label.replace("1", "")) ^ set(other.label.replace("1", ""))
        label = "".join(k for k in "ty" if k in letters) or "1"
        return KleinFourElement(label)

    def __pow__(self, n: int) -> "KleinFourElement":
        # every element is an involution
        return self if n % 2 else KleinFourElement("1")

    def order(self) -> int:
        return 1 if self.label == "1" else 2

    def __str__(self) -> str:
        return self.label


KLEIN_ELEMENTS = tuple(KleinFourElement(label) for label in _KLEIN_LABELS)


def klein_element_of(kind: str) -> KleinFourElement:
    """Image of the genus-2 generator: t -> t, y -> y, u = t^-1 y = t y."""
    table = {"t": "t", "y": "y", "u": "ty"}
    if kind not in table:
        raise ValueError(f"kind must be t, u, or y, got {kind!r}")
    return KleinFourElement(table[kind])


def mn2_root_search(target: KleinFourElement) -> list[tuple[KleinFourElement, int]]:
    """All pairs (x, d) with x^d = target, 2 <= d <= 4, in deterministic order.

    >>> [(str(x), d) for x, d in mn2_root_search(KleinFourElement("ty"))]
    [('ty', 3)]
    """
    return [
        (x, d)
        for d in range(2, 5)
        for x in KLEIN_ELEMENTS
        if x ** d == target
    ]


def mn2_nontrivial_roots(target: KleinFourElement) -> list[tuple[KleinFourElement, int]]:
    """Root-search hits that are not powers of the target; empty for t, y, ty."""
    powers = {target ** k for k in range(target.order())}
    return [(x, d) for x, d in mn2_root_search(target) if x not in powers]


_IDENTITY_ROWS = ((1, 0), (0, 1))

# every finite order in GL(2, Z) divides 12: an eigenvalue is a root of
# unity of degree at most 2 over Q, so its order is 1, 2, 3, 4 or 6
_ORDER_CAP = 12


def _pair_order(trace: int, det: int) -> int | None:
    """Order of every X != +-I with characteristic polynomial x^2 - trace x + det.

    Cayley-Hamilton, X^2 = trace X - det I, gives X^n = a X + b I with
    (a, b) <- (trace a + b, -det a) from (1, 0).  X and I are independent
    unless X = +-I, so X^n = I exactly when (a, b) = (0, 1); a finite order
    divides 12, so no hit by n = 12 means infinite order.
    """
    a, b = 1, 0
    for n in range(1, _ORDER_CAP + 1):
        if (a, b) == (0, 1):
            return n
        a, b = trace * a + b, -det * a
    return None


# the ten characteristic polynomials of finite-order matrices: roots of
# unity as eigenvalues force det = +-1 and |trace| <= 2
TORSION_ORDERS = {(t, d): _pair_order(t, d) for d in (1, -1) for t in range(-2, 3)}

# +-I, the scalar matrices the table leaves out, by their pair
_SCALAR_ORDERS = {(2, 1): 1, (-2, 1): 2}


def _predicted_order(rows) -> int | None:
    (a, b), (c, d) = rows
    pair = (a + d, a * d - b * c)
    if b == c == 0 and a == d:
        return _SCALAR_ORDERS[pair]
    return TORSION_ORDERS.get(pair)


def _order_by_iteration(rows) -> int | None:
    power = rows
    for n in range(1, _ORDER_CAP + 1):
        if power == _IDENTITY_ROWS:
            return n
        power = _times(power, rows)
    return None


class TorsionScan(_Record):
    """The table checked on every unimodular matrix with entries in [-B, B].

    ``pairs`` lists the table's pairs, in table order, that the box
    realizes by a matrix other than +-I: the scan checked only those.
    """

    __slots__ = ("entry_bound", "checked", "order_counts", "pairs")

    def __init__(
        self,
        entry_bound: int,
        checked: int,
        order_counts: dict[int, int],
        pairs: tuple[tuple[int, int], ...],
    ):
        super().__init__(entry_bound, checked, order_counts, pairs)


# the grid has (2B + 1)^4 candidates
MAX_SCAN_BOUND = 20


def gl2_torsion_scan(entry_bound: int) -> TorsionScan:
    """Cross-check :data:`TORSION_ORDERS` by brute iteration on a box.

    Every unimodular matrix with entries in [-B, B] has its order found by
    iteration (up to 12) and compared with the order its trace and
    determinant predict; the counts are of the finite orders found.  ``B``
    is at most ``MAX_SCAN_BOUND``.  The box of ``B = 1`` does not realize
    the pairs (+-2, -1), which need an entry 2.
    """
    if entry_bound < 1:
        raise ValueError(f"entry bound must be >= 1, got {entry_bound}")
    if entry_bound > MAX_SCAN_BOUND:
        raise ValueError(f"entry bound must be <= {MAX_SCAN_BOUND}, got {entry_bound}")
    span = range(-entry_bound, entry_bound + 1)
    checked = 0
    counts: dict[int, int] = {}
    met = set()
    for a, b, c, d in itertools.product(span, repeat=4):
        det = a * d - b * c
        if det not in (1, -1):
            continue
        rows = ((a, b), (c, d))
        order = _order_by_iteration(rows)
        if order != _predicted_order(rows):
            raise RuntimeError(f"trace/determinant table disagrees with iteration on {rows}")
        checked += 1
        if order is not None:
            counts[order] = counts.get(order, 0) + 1
        if b or c or a != d:
            met.add((a + d, det))
    pairs = tuple(pair for pair in TORSION_ORDERS if pair in met)
    return TorsionScan(entry_bound, checked, dict(sorted(counts.items())), pairs)


def _pair_note(pair) -> str | None:
    if pair not in _SCALAR_ORDERS:
        return None
    sign = "-" if pair[0] < 0 else ""
    return f"the scalar {sign}I has order {_SCALAR_ORDERS[pair]}"


class Gl2Certification(_Record):
    """Machine-checked nonexistence of nontrivial roots of any degree at genus 3."""

    __slots__ = ("target", "target_matrix", "scan", "assumptions")

    def __init__(
        self,
        target: Word,
        target_matrix: IntMatrix,
        scan: TorsionScan,
        assumptions: tuple[str, ...],
    ):
        super().__init__(target, target_matrix, scan, assumptions)

    def passed(self) -> bool:
        """The argument holds: (0, -1) is the one finite pair of determinant -1, of order 2."""
        finite = {pair: order for pair, order in TORSION_ORDERS.items() if order and pair[1] == -1}
        return finite == {(0, -1): 2}

    def to_text(self) -> str:
        lines = [
            f"target {self.target} at genus 3, every degree",
            f"homology image {self.target_matrix.rows}, order 2, determinant"
            f" {self.target_matrix.det()}",
        ]
        for (trace, det), order in TORSION_ORDERS.items():
            note = _pair_note((trace, det))
            found = f"order {order}" if order else "infinite order"
            lines.append(
                f"trace {trace}, det {det:+d}: {found}" + (f"; {note}" if note else "")
            )
        unchecked = [pair for pair in TORSION_ORDERS if pair not in self.scan.pairs]
        lines += [
            f"cross-check: {self.scan.checked} unimodular matrices with entries"
            f" <= {self.scan.entry_bound} agree with iteration; finite orders"
            f" {self.scan.order_counts}",
            f"cross-check box realizes {len(self.scan.pairs)} of the {len(TORSION_ORDERS)} pairs"
            + (f"; unchecked: {', '.join(map(str, unchecked))}" if unchecked else ""),
            "even degree d: det(x^d) = +1, so x^d is not the target",
            "odd degree d: det x = -1 and x^(2d) = identity, so x has trace 0 and"
            " order 2, and x = x^d = target",
        ]
        lines.extend(f"assumption: {note}" for note in self.assumptions)
        verdict = "no nontrivial root" if self.passed() else "INCONCLUSIVE"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": str(self.target),
            "target_matrix": [list(row) for row in self.target_matrix.rows],
            "torsion_orders": [
                {"trace": trace, "det": det, "order": order, "note": _pair_note((trace, det))}
                for (trace, det), order in TORSION_ORDERS.items()
            ],
            "cross_check": {
                "entry_bound": self.scan.entry_bound,
                "checked": self.scan.checked,
                "order_counts": {str(k): v for k, v in self.scan.order_counts.items()},
                "pairs_realized": [list(pair) for pair in self.scan.pairs],
            },
            "assumptions": list(self.assumptions),
            "verdict": "no-nontrivial-root" if self.passed() else "inconclusive",
        }


_G3_ASSUMPTIONS = (
    "the genus-3 mapping class group is identified with GL(2, Z) through the"
    " derived homology action, and that identification is faithful",
)


def certify_no_root_g3(target: Word, scan_bound: int = 5) -> Gl2Certification:
    """Certify that u_1/y_1 has no nontrivial root of any degree.

    The target's homology image is an involution of determinant -1.  An
    even power has determinant +1; a root x of odd degree d has det x = -1
    and x^(2d) = 1, so by :data:`TORSION_ORDERS` it has trace 0 and order
    2, and x = x^d is the target.  :func:`gl2_torsion_scan` cross-checks the
    table on the box of entry bound ``scan_bound``.
    """
    model = target.model
    if model.is_hybrid or model.genus != 3:
        raise ValueError("certification applies to standard genus-3 words")
    allowed_targets = {(("u", 1),), (("y", 1),)}
    shape = tuple((letter.kind, exp) for letter, exp in target.syllables)
    if shape not in allowed_targets or target.syllables[0][0].index != 1:
        raise ValueError(f"target must be u1 or y1, got {target}")

    u = homology_of(target)
    if u.det() != -1 or _times(u.rows, u.rows) != _IDENTITY_ROWS:
        raise RuntimeError(f"target image {u.rows} is not the expected involution")
    return Gl2Certification(target, u, gl2_torsion_scan(scan_bound), _G3_ASSUMPTIONS)
