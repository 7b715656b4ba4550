"""Replay against the independent checker of ``reference_checker``.

The two must agree on whether each certificate replays and, when it
does, on its final syllables; their messages are not compared.  The
package replays each root from ``root ** degree``, on its power's parts.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker as reference
from mcgroots import presentation
from mcgroots.presentation import (
    BlockStep,
    Certificate,
    CertificateError,
    FreeStep,
    GatherStep,
    MoveStep,
    SchemaStep,
    certificate_from_text,
    certificate_to_text,
    relation_catalog,
    replay_certificate,
)
from mcgroots.roots import RootRequest, construct_braid_root, construct_root
from mcgroots.words import SurfaceModel, Word
from test_roots import _complements, _tampered

from conftest import words_for


def _letter(letter) -> tuple:
    return letter.kind, letter.index


def _letters(syllables) -> tuple:
    return tuple((_letter(letter), e) for letter, e in syllables)


def _package(certificate: Certificate):
    """The package's final syllables, or None where it refuses a step."""
    try:
        return _letters(replay_certificate(certificate))
    except CertificateError:
        return None


def _reference(certificate: reference.Certificate):
    try:
        return reference.replay(certificate)
    except reference.Refused:
        return None


def _agree(result) -> None:
    """The package and the reference agree on the root's certificate and each of its
    faults of ``test_roots._tampered``."""
    certificate, power = result.certificate, result.root ** result.degree
    read = reference.read(certificate_to_text(certificate))
    assert read.start == _letters(power.syllables) and read.end == _letters(result.target)
    for steps in _tampered(certificate.steps):
        lines = certificate_to_text(certificate._replace(steps=steps)).splitlines()[4:]
        try:
            theirs = reference.replay(
                read._replace(steps=tuple(reference.read_step(line, read.model) for line in lines))
            )
        except reference.Refused:
            theirs = None
        assert _package(Certificate(power, certificate.end, steps)) == theirs, lines
        if steps == certificate.steps:
            assert theirs == read.end


@pytest.mark.parametrize("genus", range(4, 31))
def test_roots_replay_as_the_reference(genus):
    for complement in _complements(genus):
        for target in "uy":
            _agree(construct_root(RootRequest(genus, target, complement)))


@pytest.mark.parametrize("punctures", range(5, 21))
def test_braids_replay_as_the_reference(punctures):
    for index in range(1, punctures):
        _agree(construct_braid_root(punctures, index))


@pytest.mark.parametrize(
    "model",
    [SurfaceModel(g) for g in range(2, 14)] + [SurfaceModel(g, "hybrid") for g in range(4, 14, 2)],
    ids=lambda model: f"{model.kind}{model.genus}",
)
def test_relation_catalogs_replay_as_the_reference(model):
    """Every candidate of the catalog is an instance of both or of neither, and each
    instance, written out by the reference, replays alike forward and backward."""
    catalog = {(inst.schema, inst.params): inst for inst in relation_catalog(model)}
    checker = reference.Model(model.kind, model.genus)
    choices = {"i": range(1, model.genus), "e": (1,), "k": ("t", "u", "y")}
    instances = 0
    for schema, codes in reference.PARAMETERS.items():
        for params in itertools.product(*(choices[code] for code in codes)):
            try:
                sides = reference.instance(schema, params, checker)
            except reference.Refused:
                assert (schema, params) not in catalog
                continue
            inst = catalog.pop((schema, params))
            assert (_letters(inst.lhs), _letters(inst.rhs)) == sides
            instances += 1
            for forward in (True, False):
                start, end = sides if forward else sides[::-1]
                step = " ".join(("step 0", schema, *map(str, params), "fwd" if forward else "bwd"))
                words = (f"{tag} {reference.format_syllables(word)}".rstrip() for tag, word in (
                    ("start", start), ("end", end)
                ))
                text = "\n".join((f"model {model.kind}", f"genus {model.genus}", *words, step))
                ours = _package(certificate_from_text(text))
                assert ours == _reference(reference.read(text)) == end
    assert not catalog and instances


@st.composite
def _power_starts(draw):
    """A model and a start ``(w B x^e w^-1)^n``, the letters of ``B`` commuting with ``x``,
    so that a gather of the copies can apply; ``w`` may cancel into the core."""
    models = [SurfaceModel(g) for g in (5, 6, 7, 8)] + [SurfaceModel(6, "hybrid")]
    model = draw(st.sampled_from(models))
    checker = reference.Model(model.kind, model.genus)
    x = draw(st.sampled_from([letter for letter in model.letters() if letter.index == 1]))
    commuting = [
        z for z in model.letters() if reference.commutes(_letter(x), _letter(z), checker)
    ]
    exps = st.sampled_from((-2, -1, 1, 2))
    block = draw(st.lists(st.tuples(st.sampled_from(commuting), exps), min_size=1, max_size=4))
    w = draw(words_for(model, max_len=2))
    core = Word(model, (*block, (x, draw(exps))))
    return model, (w * core * w.inverse()) ** draw(st.integers(2, 5))


@st.composite
def _random_step(draw, model, size: int, copies: tuple[int, int, int]):
    """A step near the syllables of a state of ``size`` syllables, most of which do not
    apply; a gather is drawn near the ``copies``: where they begin, their unit's length
    and their count."""
    pos = draw(st.integers(0, size + 1))
    forward = draw(st.booleans())
    kind = draw(st.sampled_from(["gather", "gather", "schema", "move", "free", "block"]))
    if kind == "gather":
        at, length, count = copies
        at = draw(st.sampled_from((pos, *range(max(at - 2, 0), at + 2))))
        length = draw(st.integers(max(length - 1, 1), max(length + 1, 1)))
        count = draw(st.integers(max(count - 1, 2), max(count + 1, 2)))
        return GatherStep(at, length, count, forward)
    if kind == "schema":
        inst = draw(st.sampled_from(relation_catalog(model)))
        return SchemaStep(pos, inst.schema, inst.params, forward)
    if kind == "move":
        return MoveStep(pos, draw(st.integers(1, 4)), forward)
    letter, exponent = draw(st.sampled_from(model.letters())), draw(st.sampled_from((-2, -1, 1, 2)))
    op = draw(st.sampled_from(["insert", "delete", "merge", "split"]))
    if kind == "free":
        return FreeStep(op, pos, letter, exponent)
    inst = draw(st.sampled_from(relation_catalog(model)))
    side = (inst.lhs if forward else inst.rhs).syllables
    if len(side) < 2:
        return FreeStep("insert", pos, letter, exponent)
    return BlockStep("insert" if op in ("insert", "split") else "delete", pos, side)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_steps_on_a_power_replay_as_the_reference(data):
    """From a start built by ``**``, which the package replays on its power's parts,
    random steps are drawn until the reference refuses one; the package must refuse the
    same step or end on the same syllables."""
    model, start = data.draw(_power_starts())
    checker = reference.Model(model.kind, model.genus)
    state, steps = reference.read(certificate_to_text(Certificate(start, start))).start, []
    assert state == _letters(start.syllables)
    parts = presentation._Replay(start)
    copies = (len(parts.head), len(parts.unit) - 1, parts.count)
    for k in range(data.draw(st.integers(1, 8))):
        if k == 0 and parts.count > 1 and data.draw(st.booleans()):  # a gather of the copies
            step = GatherStep(*copies, True)
        else:
            step = data.draw(_random_step(model, len(state), copies))
        steps.append(step)
        line = certificate_to_text(Certificate(start, start, (step,))).splitlines()[4]
        try:
            state = reference.apply(state, reference.read_step(line, checker), checker)
        except reference.Refused:
            state = None
            break
    assert _package(Certificate(start, start, tuple(steps))) == state
