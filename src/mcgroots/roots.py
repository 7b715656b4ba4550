"""Roots of crosscap transpositions and crosscap slides, with certificates.

Existence cases
---------------

Every root comes from one scheme.  The model's boundary identity
``X^2 = D^m`` (:func:`~.presentation.boundary_identity`, with
UsquaredYsquared for ``X = y_1``) holds for the target ``X`` in
``{u_1, y_1}`` and a block ``D`` of letters disjoint from it, with ``m``
odd; with ``2p + qm = 1`` the root of degree ``m`` is ``D^p X^q``,
because the commuting factors gather, the boundary identity converts the
gathered block power into a power of ``X``, and the exponents sum to 1.
The cases differ only in the model and its boundary schema:

==================  ========  ==============  =====  ============
case                model     schema          ``m``  ``(p, q)``
==================  ========  ==============  =====  ============
odd                 standard  R6closed-odd    g-2    ((1-m)/2, 1)
even_nonorientable  standard  R6closed-even   g-3    ((1-m)/2, 1)
even_orientable     hybrid    R7chain         g-1    (g/2, -1)
==================  ========  ==============  =====  ============

Each construction writes a :class:`~.presentation.Certificate` of
exactly that computation from closed-form positions, without replaying
it; the report (:func:`build_report`) replays it once, so a construction
fault shows as a failed ``certificate`` check naming the step.

No root exists at genus 2 (the group is Klein four and the targets are
primitive there) or genus 3 (the trace/determinant pairs of torsion in
GL(2, Z) rule every degree out); ``construct_root`` raises :class:`NonexistenceError` for
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
and certifying the shift ``delta u_j delta^-1 = u_{j+1}`` step by step;
each freed ``delta delta^-1`` is one block step.
"""

from __future__ import annotations

from . import small_genus
from .presentation import (
    BlockStep,
    Certificate,
    CertificateError,
    FreeStep,
    GatherStep,
    MoveStep,
    RewriteStep,
    SchemaStep,
    _MODEL_COMMUTATIONS,
    apply_step,  # noqa: F401  (a lookup site perfbench traces)
    boundary_identity,
    replay_certificate,
)
from .representations import homology_of, perm_of, sign_of
from .words import (
    MAX_GENUS,
    SurfaceModel,
    Syllable,
    Word,
    WordError,
    _letter,
    _Record,
    _reduce_syllables,
)

__all__ = [
    "NonexistenceError",
    "ORACLES",
    "PASS",
    "FAIL",
    "NOT_APPLICABLE",
    "RootRequest",
    "RootResult",
    "VerificationReport",
    "build_report",
    "certificate_assumptions",
    "construct_braid_root",
    "construct_root",
    "is_nontrivial",
    "verify_identity",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"

# The exact oracles, in report order: each sends a word to its image in a
# group where ``**`` (nonnegative exponents) and ``==`` are exact.  The
# hybrid model has only ``sign``; every other oracle is ``n/a`` there.
ORACLES = {"sign": sign_of, "permutation": perm_of, "homology": homology_of}

_TARGET_NAMES = {"u": "crosscap transposition u1", "y": "crosscap slide y1"}

# The existence case each boundary identity gives.
_CASES = {
    "R6closed-odd": "odd",
    "R6closed-even": "even_nonorientable",
    "R7chain": "even_orientable",
}

# Statements a certificate may lean on beyond pure free-group bookkeeping
# and the commutation/braid schemas; reports list the ones actually used.
_AXIOM_NOTES = {
    "R3": (
        "axiom R3: (u1 u2 .. u_{g-1})^g = 1"
        " (global relation of the crosscap transpositions)"
    ),
    "R5": (
        "axiom R5: (u1^2 u2 .. u_{g-1})^{g-1} = 1"
        " (global relation of the crosscap transpositions)"
    ),
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


class RootRequest(_Record):
    """What to take a root of: ``u`` -> u_1, ``y`` -> y_1 at the given genus."""

    __slots__ = ("genus", "target", "complement")

    def __init__(self, genus: int, target: str = "u", complement: str = "auto"):
        if target not in ("u", "y"):
            raise ValueError(f"target must be 'u' or 'y', got {target!r}")
        if complement not in ("auto", "nonorientable", "orientable"):
            raise ValueError(f"unknown complement choice {complement!r}")
        super().__init__(genus, target, complement)


class VerificationReport(_Record):
    """Per-check verdicts for one claimed identity ``word^power = equals``.

    ``oracles`` holds one ``(key, verdict)`` pair per row of
    :data:`ORACLES`, in table order.  The oracles map into small groups, so
    a pass refutes nothing but proves nothing either; ``proved`` is true
    only when no check fails and the certificate replays or ``word^power``
    reduces to ``equals``.
    """

    __slots__ = ("oracles", "certificate", "nontriviality", "details", "assumptions", "proved")

    def __init__(
        self,
        oracles: tuple[tuple[str, str], ...],
        certificate: str,
        nontriviality: str,
        details: tuple[str, ...] = (),
        assumptions: tuple[str, ...] = (),
        proved: bool = False,
    ):
        super().__init__(oracles, certificate, nontriviality, details, assumptions, proved)

    def checks(self) -> dict[str, str]:
        return {
            **dict(self.oracles),
            "certificate": self.certificate,
            "nontriviality": self.nontriviality,
        }

    @property
    def all_passed(self) -> bool:
        return all(verdict != FAIL for verdict in self.checks().values())


class RootResult(_Record):
    """A constructed root with its certificate and verification report."""

    __slots__ = ("root", "target", "degree", "case", "certificate", "report")

    def __init__(
        self,
        root: Word,
        target: Word,
        degree: int,
        case: str,
        certificate: Certificate,
        report: VerificationReport,
    ):
        super().__init__(root, target, degree, case, certificate, report)


def certificate_assumptions(certificate: Certificate) -> tuple[str, ...]:
    """Axiom notes for the schemas a certificate actually uses, in first-use order.

    A move or gather step stands for commutations, so it uses the model's
    commutation schemas.
    """
    moves = _MODEL_COMMUTATIONS[certificate.model.kind]
    seen: list[str] = []
    for step in certificate.steps:
        if isinstance(step, SchemaStep):
            schemas = (step.schema,)
        elif isinstance(step, (MoveStep, GatherStep)):
            schemas = moves
        else:
            continue
        for schema in schemas:
            note = _AXIOM_NOTES.get(schema)
            if note and note not in seen:
                seen.append(note)
    return tuple(seen)


def is_nontrivial(root: Word, target: Word) -> bool:
    """Witness that ``root`` is not a power of ``target``.

    Standard model: the crosscap permutation of ``root`` is compared with
    every power of the target's permutation; a miss soundly proves the
    root is no power of the target.  Hybrid model: targets contain no
    chain letters, so a chain letter in the root separates it from every
    target power as a reduced word only.  That is no proof in the group:
    at genus 6, ``(c1 c2 c3 c4)^10`` passes, yet R7chain makes it equal
    ``u1^2``.
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


def _certificate_check(
    certificate: Certificate, word: Word, power: int, equals: Word
) -> tuple[str, str]:
    """The certificate's verdict on ``word^power = equals`` and its detail line.

    A power over the syllable cap leaves the certificate unchecked: ``n/a``.
    """
    if certificate.model != word.model:
        return FAIL, (
            f"certificate: its {certificate.model.describe()}"
            f" is not the claim's {word.model.describe()}"
        )
    try:
        start = word ** power
    except WordError as exc:
        return NOT_APPLICABLE, f"certificate: not checked, {exc}"
    if certificate.start != start:
        return FAIL, f"certificate: start is not root^{power}"
    if certificate.end != equals:
        return FAIL, "certificate: end is not the target"
    count = len(certificate.steps)
    try:
        ok = replay_certificate(certificate) == certificate.end.syllables
    except CertificateError as exc:
        return FAIL, f"certificate: {count} steps, {exc}"
    return _verdict(ok), f"certificate: {count} steps replay root^{power} -> target = {ok}"


def verify_identity(
    word: Word, power: int, equals: Word, certificate: Certificate | None = None
) -> VerificationReport:
    """Check the claimed identity ``word^power = equals``.

    Each row of :data:`ORACLES` compares ``image(base) ** |power|`` with
    ``image(equals)``, where ``base`` is ``word`` for ``power >= 0`` and
    its inverse otherwise: the image of ``word`` is powered, never the
    written-out word, so any exponent costs O(log |power|) products.  A
    given certificate must run from ``word^power`` to ``equals`` and
    replay step by step; a failing step is named in the details, and only
    a certificate that replays lends its axioms to ``assumptions``.
    Without a certificate a claim no oracle refutes is proved only when
    ``word^power`` and ``equals`` are equal as reduced words.  A power over
    the syllable cap proves nothing, with or without a certificate, and
    says so in the details.  Nontriviality is ``n/a``: the claim is an
    identity, not a root.
    """
    details: list[str] = []
    proved = False

    base = word if power >= 0 else word.inverse()
    oracles: list[tuple[str, str]] = []
    for key, image in ORACLES.items():
        if word.model.is_hybrid and key != "sign":
            oracles.append((key, NOT_APPLICABLE))
            details.append(f"{key}: n/a (the hybrid model has only sign)")
        else:
            ok = image(base) ** abs(power) == image(equals)
            oracles.append((key, _verdict(ok)))
            details.append(f"{key}: root^{power} vs target agree = {ok}")

    refuted = any(verdict == FAIL for _, verdict in oracles)
    cert = NOT_APPLICABLE
    assumptions: tuple[str, ...] = ()
    if certificate is None:
        if not refuted:
            try:
                proved = word ** power == equals
            except WordError as exc:
                details.append(f"proof: not attempted, {exc}")
            else:
                details.append(f"proof: root^{power} reduces to the target = {proved}")
    else:
        cert, detail = _certificate_check(certificate, word, power, equals)
        details.append(detail)
        proved = cert == PASS
        if proved:
            assumptions = certificate_assumptions(certificate)

    return VerificationReport(
        oracles=tuple(oracles),
        certificate=cert,
        nontriviality=NOT_APPLICABLE,
        details=tuple(details),
        assumptions=assumptions,
        proved=proved and not refuted,
    )


def build_report(
    root: Word, target: Word, degree: int, certificate: Certificate
) -> VerificationReport:
    """:func:`verify_identity` on ``root^degree = target`` plus the nontriviality witness."""
    report = verify_identity(root, degree, target, certificate)
    nontrivial = is_nontrivial(root, target)
    return VerificationReport(
        report.oracles,
        report.certificate,
        _verdict(nontrivial),
        report.details + (f"nontriviality: root is no power of the target = {nontrivial}",),
        report.assumptions,
        report.proved,
    )


def _target_word(model: SurfaceModel, target: str) -> Word:
    return Word(model, ((_letter(target, 1), 1),))


def _gathered_root(model: SurfaceModel, target: str) -> tuple[Word, Word, int, str, Certificate]:
    """The root ``D^p X^q`` of degree ``m`` from the boundary identity ``X^2 = D^m``.

    Returns the root, the target, the degree, the case and the certificate.
    The model's boundary identity supplies the block ``D`` (disjoint from
    the target ``X``), the odd degree ``m`` and the boundary schema; ``q``
    is -1 in the hybrid model and 1 otherwise, and ``p = (1 - qm)/2``.
    The certificate opens with one gather step: the start ``(D^p X^q)^m``
    becomes ``D^(pm) X^(qm)``, the ``(m-1)`` rounds that carry the running
    ``X^(kq)`` past the next copy of ``D^p`` and merge it with the next
    ``X^q``.  The boundary identity then turns ``D^(pm)`` into ``|p|``
    boundary twists ``X^(+-2)`` (each followed by UsquaredYsquared for
    ``X = y_1``), and ``|p|`` merges reach ``X``: ``1 + 2|p|`` steps, plus
    ``|p|`` for ``y_1``.  Every step is written from these closed-form
    positions; nothing is replayed here.
    """
    boundary, block, m = boundary_identity(model)
    q = -1 if model.is_hybrid else 1
    p = (1 - q * m) // 2
    x = _letter(target, 1)
    target_word = _target_word(model, target)
    root = block ** p * target_word ** q

    span = abs(p) * block.syllable_count  # block syllables per root copy
    steps: list[RewriteStep] = [GatherStep(0, span, m, True)]
    for j in range(abs(p)):
        steps.append(SchemaStep(j, boundary, (), False))
        if target == "y":
            steps.append(SchemaStep(j, "UsquaredYsquared", (1,), True))
    twist = 2 if p > 0 else -2  # the exponent of X one boundary step leaves
    steps += [FreeStep("merge", 0, x, (j + 1) * twist) for j in range(abs(p))]
    certificate = Certificate(root ** m, target_word, tuple(steps))
    return root, target_word, m, _CASES[boundary], certificate


def _reported(
    root: Word, target: Word, degree: int, case: str, certificate: Certificate
) -> RootResult:
    """The result with its report, whose :func:`verify_identity` is the one replay."""
    report = build_report(root, target, degree, certificate)
    return RootResult(root, target, degree, case, certificate, report)


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
        _target_word(SurfaceModel.standard(3), target), scan_bound=2
    )
    raise NonexistenceError(
        f"the {name} has no nontrivial root at genus 3, of any degree: its homology"
        " image in GL(2, Z) is an involution of determinant -1, so a root of even"
        " degree is impossible by determinant, and a root x of odd degree d has"
        " determinant -1 and x^(2d) = 1; the only finite-order trace/determinant"
        " pair of determinant -1 is (0, -1), of order 2, so x = x^d is the target"
        " itself",
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
    # genus 4 only has the orientable-complement root
    hybrid = request.complement == "orientable" or (request.complement == "auto" and g == 4)
    model = SurfaceModel(g, "hybrid" if hybrid else "standard")
    if boundary_identity(model) is None:  # the standard model at genus 4
        raise NonexistenceError(
            f"the {_TARGET_NAMES[target]} with nonorientable complement has no nontrivial"
            " root at genus 4; structural classification, not machine-certified here",
            case="g4_nonorientable",
            machine_certified=False,
        )
    return _reported(*_gathered_root(model, target))


def _shift_steps(genus: int, shifts: int) -> list[RewriteStep]:
    """From ``delta^shifts u_1 delta^-shifts`` down to ``u_{shifts+1}``.

    Round ``j`` works on the innermost rotation, which starts at ``o``:
    it carries ``u_j`` left to ``u_{j+1}``, applies ``delta u_j =
    u_{j+1} delta`` (one braid step), carries ``u_{j+1}`` left out of the
    rotation, then deletes the freed ``delta delta^-1`` at ``o + 1`` in
    one block step.
    """
    g = genus
    delta = tuple((_letter("u", r), 1) for r in range(1, g))
    steps: list[RewriteStep] = []
    for j in range(1, shifts + 1):
        o = (shifts - j) * (g - 1)
        if g - 2 - j:
            steps.append(MoveStep(o + j + 1, g - 2 - j, False))
        steps.append(SchemaStep(o + j - 1, "R2", (j,), True))
        if j - 1:
            steps.append(MoveStep(o, j - 1, False))
        steps.append(BlockStep("delete", o + 1, delta))
    return steps


def _unreduction_steps(trace: list) -> list[RewriteStep]:
    """The inverse of the free reduction ``trace`` of :func:`_reduce_syllables`.

    Its merges become splits, and each nested run of its deletes one insert
    of the block (a pair for one syllable).  A nested run deletes at
    positions ``p + k - 1, ..., p`` of a reduced stack, so the block word
    is reduced.
    """
    steps: list[RewriteStep] = []
    run: list[Syllable] = []  # the inserts at start, start + 1, ... not yet written

    def write_run() -> None:
        if len(run) > 1:
            steps.append(BlockStep("insert", start, tuple(run)))
        elif run:
            steps.append(FreeStep("insert", start, *run[0]))
        run.clear()

    for op, position, letter, exp in reversed(trace):
        if run and (op != "delete" or position != start + len(run)):
            write_run()
        if op == "merge":
            steps.append(FreeStep("split", position, letter, exp))
            continue
        if not run:
            start = position
        run.append((letter, exp))
    write_run()
    return steps


def _shifted(step: RewriteStep, offset: int) -> RewriteStep:
    """``step`` at a position ``offset`` syllables further right."""
    position = step.position + offset
    if isinstance(step, SchemaStep):
        return SchemaStep(position, step.schema, step.params, step.forward)
    if isinstance(step, MoveStep):
        return MoveStep(position, step.length, step.forward)
    if isinstance(step, GatherStep):
        return GatherStep(position, step.length, step.copies, step.forward)
    return FreeStep(step.op, position, step.letter, step.exponent)


def construct_braid_root(punctures: int, index: int) -> RootResult:
    """Root of the elementary braid ``sigma_index`` on a sphere with punctures.

    Blowing punctures up to crosscaps matches elementary braids with the
    crosscap transpositions, and the standard-model constructions use
    ``u``-letters only, so they restrict to the braid setting; index > 1
    is reached by conjugating with the crosscap rotation.  The index-1
    certificate is taken from :func:`_gathered_root` unreported; a larger
    index prefixes the inverted free reduction of the conjugated start
    (:func:`_unreduction_steps`), splices the index-1 steps in one
    rotation to the right and ends with :func:`_shift_steps`, so the
    report's replay is the only one.  Refuses
    more than ``MAX_GENUS`` punctures, and ``punctures <= 4``, where no
    nontrivial root exists.
    """
    n = punctures
    if n > MAX_GENUS:
        raise ValueError(f"{n} punctures are over the cap of MAX_GENUS = {MAX_GENUS} punctures")
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
    model = SurfaceModel.standard(n)
    base_root, base_target, degree, case, base = _gathered_root(model, "u")
    if index == 1:
        return _reported(base_root, base_target, degree, case, base)

    delta = Word(model, tuple((_letter("u", k), 1) for k in range(1, n)))
    rotation = delta ** (index - 1)
    root = rotation * base_root * rotation.inverse()
    trace: list = []
    _reduce_syllables(
        rotation.syllables + base.start.syllables + rotation.inverse().syllables, trace
    )
    offset = len(rotation.syllables)
    steps = _unreduction_steps(trace)
    steps += [_shifted(step, offset) for step in base.steps]
    steps += _shift_steps(n, index - 1)
    target_word = Word(model, ((_letter("u", index), 1),))
    certificate = Certificate(root ** degree, target_word, tuple(steps))
    return _reported(root, target_word, degree, case, certificate)
