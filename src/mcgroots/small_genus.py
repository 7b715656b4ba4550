"""Nonexistence certifications at genus 2 and genus 3.

Genus 2: the mapping class group is the Klein four-group generated by the
twist ``t`` and the slide ``y`` (both involutions, commuting), with the
transposition ``u = t y``.  Root searching is a finite exhaustion.

Genus 3: the action on first homology identifies the mapping class group
with GL(2, Z).  A root ``x^d = u_1`` of odd degree ``d`` would give
``x^{2d} = u_1^2 = 1``, so ``x`` maps to a torsion matrix.  Torsion in
GL(2, Z) has order at most 6 (classified by determinant and trace via the
characteristic polynomial; re-checked here by brute iteration over a
scanned grid), and order bookkeeping plus the determinant rules every
allowed order out except the trivial solution ``x = u_1`` itself.  The
same argument word-for-word covers ``y_1``.  The scan groups its torsion
matrices into the exact conjugacy classes of GL(2, Z): the grouping key
is a conjugacy invariant, and every member is conjugated to its class's
normal form by an explicit conjugator that the scan checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

from .representations import IntMatrix, gl2_image
from .words import Word

__all__ = [
    "DegreeFinding",
    "Gl2Certification",
    "KLEIN_ELEMENTS",
    "KleinFourElement",
    "MAX_DEGREE",
    "MAX_SCAN_BOUND",
    "TorsionClass",
    "TorsionClassTable",
    "certify_no_root_g3",
    "gl2_order",
    "gl2_torsion_scan",
    "klein_element_of",
    "mn2_nontrivial_roots",
    "mn2_root_search",
]

_KLEIN_LABELS = ("1", "t", "y", "ty")


@dataclasses.dataclass(frozen=True, order=True)
class KleinFourElement:
    """Element of Z2 x Z2 written multiplicatively over generators t, y."""

    label: str

    def __post_init__(self):
        if self.label not in _KLEIN_LABELS:
            raise ValueError(f"label must be one of {_KLEIN_LABELS}, got {self.label!r}")

    def __mul__(self, other: "KleinFourElement") -> "KleinFourElement":
        if not isinstance(other, KleinFourElement):
            return NotImplemented
        letters = set(self.label.replace("1", "")) ^ set(other.label.replace("1", ""))
        label = "".join(k for k in "ty" if k in letters) or "1"
        return KleinFourElement(label)

    def __pow__(self, n: int) -> "KleinFourElement":
        # every element is an involution
        return self if n % 2 else KleinFourElement("1")

    def inverse(self) -> "KleinFourElement":
        return self

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


_IDENTITY2 = IntMatrix.identity(2)
_IDENTITY_ROWS = ((1, 0), (0, 1))
_MINUS_IDENTITY_ROWS = ((-1, 0), (0, -1))


def _require_gl2(matrix: IntMatrix) -> None:
    if matrix.size != 2:
        raise ValueError(f"expected a 2x2 matrix, got size {matrix.size}")
    det = matrix.det()
    if det not in (1, -1):
        raise ValueError(f"matrix must have determinant +-1, got {det}")


def _times(x, y):
    """Product of two 2x2 matrices given as row tuples."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _order_by_iteration(rows, cap: int) -> int | None:
    power = rows
    for k in range(1, cap + 1):
        if power == _IDENTITY_ROWS:
            return k
        power = _times(power, rows)
    return None


def gl2_order(matrix: IntMatrix) -> int | None:
    """Multiplicative order of a GL(2, Z) matrix; None means infinite.

    Iterating to 6 suffices: torsion orders in GL(2, Z) are bounded by 6,
    which the classification below states and :func:`gl2_torsion_scan`
    re-verifies on every scanned matrix.
    """
    _require_gl2(matrix)
    return _order_by_iteration(matrix.rows, 6)


def _order_by_invariants(rows) -> int | None:
    """Order of a determinant +-1 matrix predicted by determinant and trace.

    A finite-order matrix has eigenvalues that are roots of unity, which
    for an integer characteristic polynomial x^2 - tr x + det pins the
    handful of cases below; anything else has an eigenvalue off the unit
    circle or is a nontrivial unipotent, hence infinite order.
    """
    (a, b), (c, d) = rows
    det = a * d - b * c
    trace = a + d
    if det == -1:
        # x^2 - tr x - 1 has a real root off the unit circle unless tr = 0
        return 2 if trace == 0 else None
    if trace == 2:
        return 1 if rows == _IDENTITY_ROWS else None
    if trace == -2:
        return 2 if rows == _MINUS_IDENTITY_ROWS else None
    if trace == 0:
        return 4
    if trace == 1:
        return 6
    if trace == -1:
        return 3
    return None


def _class_key(rows) -> tuple[int | None, int, int, bool]:
    """Conjugacy invariants ``(order, det, trace, A = I mod 2)``: different keys, not conjugate."""
    (a, b), (c, d) = rows
    identity_mod2 = (a % 2, b % 2, c % 2, d % 2) == (1, 0, 0, 1)
    return (_order_by_invariants(rows), a * d - b * c, a + d, identity_mod2)


def _eigenvector(rows, value: int) -> tuple[int, int]:
    """Primitive v with A v = value v: (-q, p) / gcd for a nonzero row (p, q) of A - value I."""
    (a, b), (c, d) = rows
    p, q = (a - value, b) if (a - value, b) != (0, 0) else (c, d - value)
    g = math.gcd(p, q)
    return -q // g, p // g


def _normal_form_witness(rows):
    """``(P, N)`` with ``P^-1 A P = N``, the normal form of the torsion matrix ``A``'s class."""
    (a, b), (c, d) = rows
    if rows in (_IDENTITY_ROWS, _MINUS_IDENTITY_ROWS):
        return _IDENTITY_ROWS, rows
    det = a * d - b * c
    # with det = -1, even b and c force odd a and d, so A = I mod 2
    if det == -1 and b % 2 == c % 2 == 0:
        (p, q), (r, s) = _eigenvector(rows, 1), _eigenvector(rows, -1)
        return ((p, r), (q, s)), ((1, 0), (0, -1))
    # P = [v | Av] with det(v, Av) = +-1 gives the companion matrix.  For orders
    # 3, 4, 6 that form is definite (discriminant -3, -4): |v| <= sqrt(4 max|A| / 3).
    # For order 2, |v| <= (max|A| + 1) / 2 held for all entries up to 60.
    radius = max(abs(a), abs(b), abs(c), abs(d))
    for r in range(1, radius + 1):
        for x, y in itertools.product(range(-r, r + 1), repeat=2):
            if c * x * x + (d - a) * x * y - b * y * y in (1, -1):
                return ((x, a * x + b * y), (y, c * x + d * y)), ((0, -det), (1, a + d))
    raise RuntimeError(f"no v with det(v, Av) = +-1 and entries up to {radius} for {rows}")


@dataclasses.dataclass(frozen=True)
class TorsionClass:
    """One conjugacy class of GL(2, Z) torsion, restricted to the scanned grid."""

    order: int
    representative: IntMatrix
    members: tuple[IntMatrix, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclasses.dataclass(frozen=True)
class TorsionClassTable:
    """Scan result: every torsion matrix in the entry grid, grouped by conjugacy."""

    entry_bound: int
    classes: tuple[TorsionClass, ...]

    @property
    def max_order(self) -> int:
        return max(cls.order for cls in self.classes)

    def classes_of_order(self, order: int) -> tuple[TorsionClass, ...]:
        return tuple(cls for cls in self.classes if cls.order == order)

    def members_of_order(self, order: int) -> tuple[IntMatrix, ...]:
        return tuple(
            matrix for cls in self.classes_of_order(order) for matrix in cls.members
        )

    def determinants_of_order(self, order: int) -> tuple[int, ...]:
        return tuple(sorted({matrix.det() for matrix in self.members_of_order(order)}))

    def order_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for cls in self.classes:
            counts[cls.order] = counts.get(cls.order, 0) + cls.size
        return dict(sorted(counts.items()))


# the grid has (2B + 1)^4 candidates
MAX_SCAN_BOUND = 20


def gl2_torsion_scan(entry_bound: int) -> TorsionClassTable:
    """Enumerate all finite-order matrices with entries in [-B, B], classed by conjugacy.

    Every candidate's invariant-predicted order is cross-checked by brute
    iteration (to 24), so a wrong classification cannot slip through.
    Classes are exact: members are grouped by :func:`_class_key`, a
    conjugacy invariant, and each member's conjugator to the class's
    normal form (:func:`_normal_form_witness`) is checked as ``A P = P N``
    with ``det P = +-1``.  The representative is the smallest member by
    rows.  The table is checked for the expected global shape: maximal
    order exactly 6, and a single class of order 6.  ``B`` is at most
    ``MAX_SCAN_BOUND``.
    """
    if entry_bound < 1:
        raise ValueError(f"entry bound must be >= 1, got {entry_bound}")
    if entry_bound > MAX_SCAN_BOUND:
        raise ValueError(f"entry bound must be <= {MAX_SCAN_BOUND}, got {entry_bound}")
    span = range(-entry_bound, entry_bound + 1)

    buckets: dict[tuple, tuple[tuple, list[IntMatrix]]] = {}
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        rows = ((a, b), (c, d))
        order = _order_by_invariants(rows)
        if order != _order_by_iteration(rows, 24):
            raise RuntimeError(
                f"trace/determinant torsion classification disagrees with iteration on {rows}"
            )
        if order is None:
            continue
        conjugator, normal = _normal_form_witness(rows)
        (p, q), (r, s) = conjugator
        if p * s - q * r not in (1, -1) or _times(rows, conjugator) != _times(conjugator, normal):
            raise RuntimeError(f"conjugator {conjugator} does not take {rows} to {normal}")
        key = _class_key(rows)
        class_normal, members = buckets.setdefault(key, (normal, []))
        if normal != class_normal:
            raise RuntimeError(f"{rows} and {members[0].rows} share key {key}, not a normal form")
        members.append(IntMatrix(rows))

    classes = sorted(
        (TorsionClass(key[0], members[0], tuple(members)) for key, (_, members) in buckets.items()),
        key=lambda cls: (cls.order, cls.representative.rows),
    )
    table = TorsionClassTable(entry_bound, tuple(classes))

    if table.max_order != 6:
        raise RuntimeError(f"expected maximal torsion order 6, scan found {table.max_order}")
    if len(table.classes_of_order(6)) != 1:
        raise RuntimeError(
            f"expected a single conjugacy class of order 6, scan found"
            f" {len(table.classes_of_order(6))}"
        )
    return table


@dataclasses.dataclass(frozen=True)
class DegreeFinding:
    """The genus-3 argument specialized to one odd degree."""

    degree: int
    allowed_orders: tuple[int, ...]
    conclusions: tuple[str, ...]
    solutions: tuple[IntMatrix, ...]
    nontrivial_solutions: tuple[IntMatrix, ...]

    @property
    def passed(self) -> bool:
        return not self.nontrivial_solutions


@dataclasses.dataclass(frozen=True)
class Gl2Certification:
    """Machine-checked nonexistence of nontrivial roots at genus 3."""

    target: Word
    target_matrix: IntMatrix
    max_degree: int
    scan: TorsionClassTable
    findings: tuple[DegreeFinding, ...]
    assumptions: tuple[str, ...]

    def passed(self) -> bool:
        return all(finding.passed for finding in self.findings)

    def to_text(self) -> str:
        lines = [
            f"target {self.target} at genus 3, degrees 3..{self.max_degree} (odd)",
            f"homology image {self.target_matrix.rows}, order 2, determinant"
            f" {self.target_matrix.det()}",
            f"torsion scan: entries <= {self.scan.entry_bound}, {len(self.scan.classes)}"
            f" classes, max order {self.scan.max_order}",
        ]
        for finding in self.findings:
            lines.append(f"degree {finding.degree}: allowed orders {finding.allowed_orders}")
            lines.extend(f"  {conclusion}" for conclusion in finding.conclusions)
        lines.extend(f"assumption: {note}" for note in self.assumptions)
        verdict = "no nontrivial root" if self.passed() else "INCONCLUSIVE"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": str(self.target),
            "target_matrix": [list(row) for row in self.target_matrix.rows],
            "max_degree": self.max_degree,
            "scan": {
                "entry_bound": self.scan.entry_bound,
                "max_order": self.scan.max_order,
                "order_counts": {str(k): v for k, v in self.scan.order_counts().items()},
                "classes": [
                    {
                        "order": cls.order,
                        "representative": [list(row) for row in cls.representative.rows],
                        "size": cls.size,
                    }
                    for cls in self.scan.classes
                ],
            },
            "findings": [
                {
                    "degree": finding.degree,
                    "allowed_orders": list(finding.allowed_orders),
                    "conclusions": list(finding.conclusions),
                    "solutions": [[list(r) for r in m.rows] for m in finding.solutions],
                    "nontrivial_solutions": [
                        [list(r) for r in m.rows] for m in finding.nontrivial_solutions
                    ],
                    "passed": finding.passed,
                }
                for finding in self.findings
            ],
            "assumptions": list(self.assumptions),
            "verdict": "no-nontrivial-root" if self.passed() else "inconclusive",
        }


_G3_ASSUMPTIONS = (
    "the genus-3 mapping class group is identified with GL(2, Z) through the"
    " derived homology action, and that identification is faithful",
    "torsion orders in GL(2, Z) are classified by determinant and trace;"
    " the scan re-checks the classification by iteration on every grid matrix",
)


# every torsion order in GL(2, Z) divides 12, so degrees d and d + 12 have
# the same findings and the cap loses nothing
MAX_DEGREE = 99


def certify_no_root_g3(target: Word, max_degree: int, scan_bound: int = 5) -> Gl2Certification:
    """Certify that u_1/y_1 has no nontrivial root of any odd degree <= max_degree.

    For each degree the report records the order bookkeeping (a root must
    be torsion of order 2 or, when 3 divides the degree, order 6), the
    reason each order yields nothing nontrivial, and a brute-force sweep
    of the scanned torsion matrices as a cross-check.  Every scanned order
    divides 12, so the findings for ``d`` and ``d + 12`` are identical and
    ``max_degree`` is capped at ``MAX_DEGREE`` without loss; the scan
    bound is capped at ``MAX_SCAN_BOUND``.
    """
    model = target.model
    if model.is_hybrid or model.genus != 3:
        raise ValueError("certification applies to standard genus-3 words")
    allowed_targets = {(("u", 1),), (("y", 1),)}
    shape = tuple((letter.kind, exp) for letter, exp in target.syllables)
    if shape not in allowed_targets or target.syllables[0][0].index != 1:
        raise ValueError(f"target must be u1 or y1, got {target}")
    if max_degree < 3 or max_degree % 2 == 0:
        raise ValueError(f"max degree must be odd and >= 3, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max degree must be <= {MAX_DEGREE}, got {max_degree}")

    u = gl2_image(target)
    if u * u != _IDENTITY2 or u == _IDENTITY2 or u.det() != -1:
        raise RuntimeError(f"target image {u.rows} is not the expected involution")

    scan = gl2_torsion_scan(scan_bound)
    if scan.determinants_of_order(6) != (1,):
        raise RuntimeError("scan found an order-6 matrix of determinant -1")

    scanned = sum(cls.size for cls in scan.classes)
    findings = []
    for degree in range(3, max_degree + 1, 2):
        # order o of a root satisfies x^{2d} = 1 and x^d != 1, so o = 2 gcd(o, d)
        allowed = tuple(
            o for o in range(1, 7) if o == 2 * math.gcd(o, degree)
        )
        conclusions = [
            "a root x with x^degree = target satisfies x^(2 degree) = identity,"
            " so x is torsion of order at most 6",
            f"order bookkeeping leaves orders {allowed}",
            "order 2: x^degree = x for odd degree, so x equals the target itself"
            " - a power of the target, hence trivial",
        ]
        if 6 in allowed:
            conclusions.append(
                "order 6: determinant would be +1 (trace/determinant classification,"
                " confirmed on every scanned order-6 matrix), contradicting the"
                " target determinant -1"
            )
        # sound: the scan checked x^order = I for every member by iteration
        solutions = tuple(
            x for cls in scan.classes for x in cls.members if x ** (degree % cls.order) == u
        )
        powers_of_target = (_IDENTITY2, u)
        nontrivial = tuple(x for x in solutions if x not in powers_of_target)
        conclusions.append(
            f"brute force over {scanned} scanned torsion matrices:"
            f" {len(solutions)} solution(s), {len(nontrivial)} nontrivial"
        )
        findings.append(
            DegreeFinding(degree, allowed, tuple(conclusions), solutions, nontrivial)
        )

    return Gl2Certification(
        target, u, max_degree, scan, tuple(findings), _G3_ASSUMPTIONS
    )
