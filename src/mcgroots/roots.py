"""Roots of crosscap transpositions and crosscap slides, with certificates.

Existence cases
---------------

Every root comes from one scheme.  A boundary-twist identity ``X^2 = D^m``
holds for the target ``X`` in ``{u_1, y_1}`` and a block ``D`` of letters
disjoint from it; with ``2p + qm = 1`` the root of degree ``m`` is
``D^p X^q``, because the commuting factors gather, the boundary identity
converts the gathered block power into a power of ``X``, and the
exponents sum to 1.  The cases differ only in ``D``, ``m``, the boundary
schema and ``(p, q)``:

==================  ==========================  =====  ==============  ============
case                ``D``                       ``m``  schema          ``(p, q)``
==================  ==========================  =====  ==============  ============
odd                 ``u_3 .. u_{g-1}``          g-2    R6closed-odd    ((1-m)/2, 1)
even_nonorientable  ``u_3^2 u_4 .. u_{g-1}``    g-3    R6closed-even   ((1-m)/2, 1)
even_orientable     ``(c_1 .. c_{g-2})^2``      g-1    R7chain         (g/2, -1)
==================  ==========================  =====  ==============  ============

The last case lives in the hybrid model.  Each construction emits a
:class:`~.presentation.Certificate` replaying exactly that computation,
plus a report from the exact oracles.

No root exists at genus 2 (the group is Klein four and the targets are
primitive there) or genus 3 (torsion bounds in GL(2, Z) rule every odd
degree out); ``construct_root`` raises :class:`NonexistenceError` for
those, re-running the machine certifications from
:mod:`~mcgroots.small_genus`.  At genus 4 a root exists only when the
complement of the supporting Klein bottle is orientable; the
nonorientable-complement verdict is reported as not machine-certified.

Braid pullback
--------------

The transpositions ``u_1 .. u_{g-1}`` satisfy the braid relations, and
blowing up punctures to crosscaps matches them with the elementary braids
of a sphere with ``g`` punctures.  The standard constructions above use
only ``u``-letters, so for ``n >= 5`` punctures they restrict to roots of
elementary braids; ``construct_braid_root`` serves index ``i > 1`` by
conjugating the index-1 root with the rotation ``(u_1 .. u_{n-1})^{i-1}``
and certifying the shift ``delta u_j delta^-1 = u_{j+1}`` step by step.
"""

from __future__ import annotations

import dataclasses

from . import small_genus
from .presentation import (
    Certificate,
    CertificateError,
    FreeStep,
    RewriteStep,
    SchemaStep,
    apply_step,
    commute_step,
    invert_step,
    replay_certificate,
)
from .representations import homology_of, perm_of, sign_of
from .words import GeneratorLetter, SurfaceModel, Syllable, Word

__all__ = [
    "NonexistenceError",
    "PASS",
    "FAIL",
    "NOT_APPLICABLE",
    "RootRequest",
    "RootResult",
    "VerificationReport",
    "build_report",
    "certificate_assumptions",
    "check_degree_parity",
    "construct_braid_root",
    "construct_root",
    "is_nontrivial",
    "verify_identity",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"

_TARGET_NAMES = {"u": "crosscap transposition u1", "y": "crosscap slide y1"}

# Statements a certificate may lean on beyond pure free-group bookkeeping
# and the commutation/braid schemas; reports list the ones actually used.
_AXIOM_NOTES = {
    "R6closed-odd": (
        "axiom R6closed-odd: u1^2 equals the complementary transposition chain"
        " to the power g-2 (boundary twist of the Klein bottle neighborhood, odd genus)"
    ),
    "R6closed-even": (
        "axiom R6closed-even: u1^2 equals (u3^2 u4 .. u_{g-1})^{g-3}"
        " (boundary twist of the Klein bottle neighborhood, even genus)"
    ),
    "R7chain": (
        "axiom R7chain: u1^2 equals the twist chain of the orientable complement"
        " to the power 2g-2 (chain identity)"
    ),
    "ChainCommute": (
        "axiom ChainCommute: t1, u1, y1 commute with every chain twist"
        " (disjoint supports)"
    ),
    "UsquaredYsquared": (
        "axiom UsquaredYsquared: u_i^2 = y_i^2, both being the boundary twist"
        " of the supporting Klein bottle"
    ),
    "SlideDef": "axiom SlideDef: y_i = t_i u_i (slide equals twist times transposition)",
}


class NonexistenceError(ValueError):
    """The requested root provably does not exist.

    ``case`` names the regime; ``machine_certified`` tells whether this
    process re-verified the verdict (exhaustive search or torsion
    certification) or is reporting a structural classification it does
    not re-check.
    """

    def __init__(self, message: str, *, case: str, machine_certified: bool):
        super().__init__(message)
        self.case = case
        self.machine_certified = machine_certified


def check_degree_parity(degree: int) -> bool:
    """True iff ``degree`` can be a root degree of a transposition or slide.

    Targets have sign character -1 while an even power has sign +1, so
    even degrees are rejected outright.
    """
    if degree < 2:
        raise ValueError(f"root degrees start at 2, got {degree}")
    return degree % 2 == 1


@dataclasses.dataclass(frozen=True)
class RootRequest:
    """What to take a root of: ``u`` -> u_1, ``y`` -> y_1 at the given genus."""

    genus: int
    target: str = "u"
    complement: str = "auto"

    def __post_init__(self):
        if self.target not in ("u", "y"):
            raise ValueError(f"target must be 'u' or 'y', got {self.target!r}")
        if self.complement not in ("auto", "nonorientable", "orientable"):
            raise ValueError(f"unknown complement choice {self.complement!r}")


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Per-oracle verdicts for one claimed identity ``word^power = equals``."""

    sign: str
    permutation: str
    homology: str
    certificate: str
    nontriviality: str
    details: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = ()

    def checks(self) -> dict[str, str]:
        return {
            "sign": self.sign,
            "permutation": self.permutation,
            "homology": self.homology,
            "certificate": self.certificate,
            "nontriviality": self.nontriviality,
        }

    @property
    def all_passed(self) -> bool:
        return all(verdict != FAIL for verdict in self.checks().values())


@dataclasses.dataclass(frozen=True)
class RootResult:
    """A constructed root with its certificate and verification report."""

    root: Word
    target: Word
    degree: int
    case: str
    certificate: Certificate
    report: VerificationReport


def certificate_assumptions(certificate: Certificate) -> tuple[str, ...]:
    """Axiom notes for the schemas a certificate actually uses, in first-use order."""
    seen: list[str] = []
    for step in certificate.steps:
        if isinstance(step, SchemaStep):
            note = _AXIOM_NOTES.get(step.schema)
            if note and note not in seen:
                seen.append(note)
    return tuple(seen)


def is_nontrivial(root: Word, target: Word, degree: int) -> bool:
    """Soundly witness that ``root`` is not a power of ``target``.

    Standard model: the crosscap permutation of ``root`` is compared with
    every power of the target's permutation; a miss proves the root is no
    power of the target.  Hybrid model: targets contain no chain letters,
    so a chain letter in the root separates it from every target power as
    a reduced word.  ``degree`` only documents the claimed identity.
    """
    if root == target:
        return False
    if root.model.is_hybrid:
        return any(letter.kind == "c" for letter, _ in root.syllables)
    p_root = perm_of(root)
    p_target = perm_of(target)
    return all(p_root != p_target ** k for k in range(p_target.order()))


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def verify_identity(
    word: Word, power: int, equals: Word, certificate: Certificate | None = None
) -> VerificationReport:
    """Check the claimed identity ``word^power = equals``.

    The sign, permutation and homology oracles power the images of
    ``word``, never the written-out word, so any exponent costs O(log
    |power|) products.  The hybrid model has no permutation or homology
    oracle (``n/a``).  A given certificate must run from ``word^power`` to
    ``equals`` and replay step by step; a failing step is named in the
    details.  Nontriviality is ``n/a``: the claim is an identity, not a root.
    """
    details: list[str] = []

    s_word, s_equals = sign_of(word), sign_of(equals)
    s_power = s_word ** abs(power)  # an int for negative powers too
    sign = _verdict(s_power == s_equals)
    details.append(f"sign: ({s_word:+d})^{power} = {s_power:+d}, target {s_equals:+d}")

    if word.model.is_hybrid:
        permutation = homology = NOT_APPLICABLE
        details.append("permutation: n/a (hybrid model has no crosscap numbering)")
        details.append("homology: n/a (no derived matrices for chain twists)")
    else:
        p_ok = perm_of(word) ** power == perm_of(equals)
        permutation = _verdict(p_ok)
        details.append(f"permutation: root^{power} vs target agree = {p_ok}")
        base = word if power >= 0 else word.inverse()
        h_ok = homology_of(base) ** abs(power) == homology_of(equals)
        homology = _verdict(h_ok)
        details.append(f"homology: root^{power} vs target agree = {h_ok}")

    cert = NOT_APPLICABLE
    assumptions: tuple[str, ...] = ()
    if certificate is not None:
        cert_ok = False
        count = len(certificate.steps)
        if certificate.start != word ** power:
            details.append(f"certificate: start is not root^{power}")
        elif certificate.end != equals:
            details.append("certificate: end is not the target")
        else:
            try:
                cert_ok = replay_certificate(certificate) == certificate.end.syllables
            except CertificateError as exc:
                details.append(f"certificate: {count} steps, {exc}")
            else:
                details.append(
                    f"certificate: {count} steps replay root^{power} -> target = {cert_ok}"
                )
        cert = _verdict(cert_ok)
        assumptions = certificate_assumptions(certificate)

    return VerificationReport(
        sign=sign,
        permutation=permutation,
        homology=homology,
        certificate=cert,
        nontriviality=NOT_APPLICABLE,
        details=tuple(details),
        assumptions=assumptions,
    )


def build_report(
    root: Word, target: Word, degree: int, certificate: Certificate
) -> VerificationReport:
    """:func:`verify_identity` on ``root^degree = target`` plus the nontriviality witness."""
    report = verify_identity(root, degree, target, certificate)
    nontrivial = is_nontrivial(root, target, degree)
    return dataclasses.replace(
        report,
        nontriviality=_verdict(nontrivial),
        details=report.details
        + (f"nontriviality: root is no power of the target = {nontrivial}",),
    )


def _reduction_trace(raw: tuple[Syllable, ...]) -> tuple[tuple[Syllable, ...], list[FreeStep]]:
    """Free steps reducing ``raw`` to its canonical form, with that form."""
    state = list(raw)
    steps: list[FreeStep] = []
    k = 0
    while k + 1 < len(state):
        (la, ea), (lb, eb) = state[k], state[k + 1]
        if la != lb:
            k += 1
            continue
        if ea + eb == 0:
            steps.append(FreeStep("delete", k, la, ea))
            del state[k : k + 2]
        else:
            steps.append(FreeStep("merge", k, la, ea))
            state[k : k + 2] = [(la, ea + eb)]
        k = max(k - 1, 0)
    return tuple(state), steps


class _CertBuilder:
    """Records certificate steps while replaying them on a working state.

    Every helper validates its step by applying it immediately, so a
    finished certificate replays by construction; ``finish`` additionally
    checks the final state against the stated end word.
    """

    def __init__(self, start: Word):
        self.start = start
        self.model = start.model
        self.state: list[Syllable] = list(start.syllables)
        self.steps: list[RewriteStep] = []

    def _push(self, step: RewriteStep) -> None:
        apply_step(self.state, step, self.model)
        self.steps.append(step)

    def swap(self, pos: int) -> None:
        self._push(commute_step(self.state, pos, self.model))

    def move_right(self, pos: int, count: int) -> None:
        for k in range(count):
            self.swap(pos + k)

    def move_left(self, pos: int, count: int) -> None:
        for k in range(count):
            self.swap(pos - 1 - k)

    def schema(self, pos: int, schema_id: str, params=(), forward: bool = True) -> None:
        self._push(SchemaStep(pos, schema_id, tuple(params), forward))

    def merge_at(self, pos: int) -> None:
        letter, exp = self.state[pos]
        self._push(FreeStep("merge", pos, letter, exp))

    def merge_run(self, pos: int, count: int) -> None:
        for _ in range(count):
            self.merge_at(pos)

    def delete_at(self, pos: int) -> None:
        letter, exp = self.state[pos]
        self._push(FreeStep("delete", pos, letter, exp))

    def expand_to(self, raw: tuple[Syllable, ...]) -> None:
        """Free-expand the current state into ``raw``, whose reduction it must be."""
        reduced, steps = _reduction_trace(raw)
        if tuple(self.state) != reduced:
            raise CertificateError("expansion target does not reduce to the current state")
        for step in reversed(steps):
            self._push(invert_step(step))

    def splice(self, steps, offset: int) -> None:
        """Replay foreign steps shifted right by ``offset`` positions."""
        for step in steps:
            self._push(dataclasses.replace(step, position=step.position + offset))

    def finish(self, end: Word) -> Certificate:
        if tuple(self.state) != end.syllables:
            raise CertificateError("certificate construction did not reach the stated end word")
        return Certificate(self.start, end, tuple(self.steps))


def _target_word(model: SurfaceModel, target: str) -> Word:
    return Word(model, ((GeneratorLetter(target, 1), 1),))


def _gathered_root(model: SurfaceModel, target: str, case: str) -> RootResult:
    """The root ``D^p X^q`` of degree ``m`` from the boundary identity ``X^2 = D^m``.

    Each case supplies the block ``D`` (disjoint from the target ``X``),
    the degree ``m``, the boundary schema and exponents with
    ``2p + qm = 1``.  The certificate gathers the ``m`` copies of ``X^q``
    to the right of ``D^(pm)``, turns that into ``|p|`` boundary twists
    ``X^(+-2)`` and merges everything into ``X``.
    """
    g = model.genus
    if case == "even_orientable":
        chain = Word(model, tuple((GeneratorLetter("c", k), 1) for k in range(1, g - 1)))
        block, m, boundary, p, q = chain ** 2, g - 1, "R7chain", g // 2, -1
    else:
        m = g - 2 if case == "odd" else g - 3
        head = ((GeneratorLetter("u", 3), 1 if case == "odd" else 2),)
        block = Word(model, head + tuple((GeneratorLetter("u", k), 1) for k in range(4, g)))
        boundary = "R6closed-odd" if case == "odd" else "R6closed-even"
        p, q = (1 - m) // 2, 1
    if 2 * p + q * m != 1:
        raise ValueError(f"2*{p} + {q}*{m} != 1; not a valid exponent pair")
    target_word = _target_word(model, target)
    root = block ** p * target_word ** q
    start = root ** m

    builder = _CertBuilder(start)
    span = abs(p) * block.syllable_count  # block syllables per root copy
    for k in range(m - 2, -1, -1):
        builder.move_right((k + 1) * span + k, (m - 1 - k) * span)
    applications = abs(p)
    for j in range(applications):
        builder.schema(j, boundary, (), forward=False)
    if target == "y":
        for j in range(applications):
            builder.schema(j, "UsquaredYsquared", (1,), forward=True)
    # either order reaches X; the order is part of each case's recorded certificate text
    if q > 0:
        builder.merge_run(applications, m - 1)
        builder.merge_run(0, applications - 1)
    else:
        builder.merge_run(0, applications - 1)
        builder.merge_run(1, m - 1)
    builder.merge_at(0)
    certificate = builder.finish(target_word)

    report = build_report(root, target_word, m, certificate)
    return RootResult(root, target_word, m, case, certificate, report)


def _raise_small_genus(genus: int, target: str) -> None:
    name = _TARGET_NAMES[target]
    if genus == 2:
        element = small_genus.klein_element_of(target)
        witnesses = small_genus.mn2_nontrivial_roots(element)
        raise NonexistenceError(
            f"the {name} has no nontrivial root at genus 2: the mapping class group"
            " is Klein four and exhaustive search over all elements and degrees 2..4"
            f" found {len(witnesses)} nontrivial solutions",
            case="g2",
            machine_certified=not witnesses,
        )
    certification = small_genus.certify_no_root_g3(
        _target_word(SurfaceModel.standard(3), target), max_degree=3, scan_bound=2
    )
    raise NonexistenceError(
        f"the {name} has no nontrivial root at genus 3: any odd-degree root would be"
        " a torsion element of the homology image GL(2, Z) of order 2 (forcing the"
        " trivial root) or order 6 (excluded by determinant), and the torsion scan"
        " finds no other solutions; degree 3 covers every odd degree d, since the"
        " allowed orders are {2} when 3 does not divide d and {2, 6} when it does,"
        " and degree 3 has the larger set",
        case="g3",
        machine_certified=certification.passed(),
    )


def construct_root(request: RootRequest) -> RootResult:
    """Construct and verify a root of u_1 or y_1 per the existence cases.

    Raises :class:`NonexistenceError` at genus 2 and 3 (re-certified on
    the spot) and for the genus-4 nonorientable complement (structural
    verdict, not machine-certified); raises ``ValueError`` for complement
    choices incompatible with the genus.
    """
    g = request.genus
    target = request.target
    if g in (2, 3):
        _raise_small_genus(g, target)
    if request.complement == "orientable" and g % 2:
        raise ValueError("an orientable complement of the Klein bottle needs even genus")
    if g == 4 and request.complement == "nonorientable":
        raise NonexistenceError(
            f"the {_TARGET_NAMES[target]} with nonorientable complement has no nontrivial"
            " root at genus 4; structural classification, not machine-certified here",
            case="g4_nonorientable",
            machine_certified=False,
        )
    # odd genus is forced; genus 4 only has the orientable-complement root
    if g % 2:
        case = "odd"
    elif request.complement == "orientable" or g == 4:
        case = "even_orientable"
    else:
        case = "even_nonorientable"
    kind = "hybrid" if case == "even_orientable" else "standard"
    return _gathered_root(SurfaceModel(g, kind), target, case)


def _shift_certificate(
    builder: _CertBuilder, genus: int, shifts: int
) -> None:
    """From ``delta^shifts u_1 delta^-shifts`` down to ``u_{shifts+1}``.

    Each round applies ``delta u_j = u_{j+1} delta`` on the innermost
    rotation (commutations + one braid step), then cancels the freed
    ``delta delta^-1`` pair.
    """
    g = genus
    for j in range(1, shifts + 1):
        o = (shifts - j) * (g - 1)
        builder.move_left(o + g - 1, g - 2 - j)
        builder.schema(o + j - 1, "R2", (j,), forward=True)
        builder.move_left(o + j - 1, j - 1)
        for r in range(g - 1, 0, -1):
            builder.delete_at(o + r)


def construct_braid_root(punctures: int, index: int) -> RootResult:
    """Root of the elementary braid ``sigma_index`` on a sphere with punctures.

    Blowing punctures up to crosscaps matches elementary braids with the
    crosscap transpositions, and the standard-model constructions use
    ``u``-letters only, so they restrict to the braid setting; index > 1
    is reached by conjugating with the crosscap rotation.  Refuses
    ``punctures <= 4``, where no nontrivial root exists.
    """
    n = punctures
    if n < 2:
        raise ValueError(f"a braid group needs at least 2 punctures, got {n}")
    if not 1 <= index <= n - 1:
        raise ValueError(f"braid index must lie in 1..{n - 1}, got {index}")
    if n <= 4:
        raise NonexistenceError(
            f"elementary braids on {n} punctures have no nontrivial roots"
            " (possible only from 5 punctures on); structural verdict for the"
            " sphere with few punctures, not machine-certified here",
            case="braid_small_n",
            machine_certified=False,
        )
    base = construct_root(RootRequest(n, "u", "auto"))
    if index == 1:
        return base

    model = base.root.model
    g = model.genus
    delta = Word(model, tuple((GeneratorLetter("u", k), 1) for k in range(1, g)))
    rotation = delta ** (index - 1)
    root = rotation * base.root * rotation.inverse()
    target_word = Word(model, ((GeneratorLetter("u", index), 1),))
    degree = base.degree
    start = root ** degree

    builder = _CertBuilder(start)
    builder.expand_to(
        rotation.syllables + base.certificate.start.syllables + rotation.inverse().syllables
    )
    builder.splice(base.certificate.steps, len(rotation.syllables))
    _shift_certificate(builder, g, index - 1)
    certificate = builder.finish(target_word)

    report = build_report(root, target_word, degree, certificate)
    return RootResult(root, target_word, degree, base.case, certificate, report)
