"""Command-line interface.

Subcommands::

    root         construct and verify a root of u1 or y1
    relations    run the presentation catalog through the exact oracles
    small-genus  certify nonexistence at genus 2 or 3
    braid-root   root of an elementary braid on a punctured sphere
    verify       check a claimed identity word^power = equals

Exit codes: 0 success or verified; 1 usage or input error; 2 negative
mathematical verdict (no root exists, a check failed, a claim refuted) or
a claim no check refutes and nothing proves (``verify`` says ``unproven``).
Reports print as plain lines or, with ``--json``, as one stable JSON
object: ``{command, genus, target, root, degree, checks, assumptions,
verdict, citation, ...}`` with ``timing_seconds`` appended last.  The
environment variable ``MCGROOTS_SCAN_BOUND`` overrides the default entry
bound 5 of the box on which the genus-3 small-genus certification
cross-checks its GL(2, Z) torsion table; like ``--scan-bound`` it is
capped at ``small_genus.MAX_SCAN_BOUND``.  Integer arguments and the
variable take exactly the numerals ``str(int)`` writes, as certificates do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .presentation import (
    CertificateError,
    SchemaError,
    _parse_int,
    certificate_from_text,
    certificate_to_text,
    relation_catalog,
)
from .representations import homology_of  # noqa: F401  (a lookup site perfbench traces)
from .roots import (
    FAIL,
    NOT_APPLICABLE,
    ORACLES as _ORACLES,
    PASS,
    NonexistenceError,
    RootRequest,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from .small_genus import (
    certify_no_root_g3,
    klein_element_of,
    mn2_nontrivial_roots,
    mn2_root_search,
)
from .words import SurfaceModel, WordError, format_word, parse_word

__all__ = ["build_parser", "entry", "main"]

_CASE_CITATIONS = {
    "odd": "odd genus: transposition-chain boundary identity, degree g-2",
    "even_nonorientable": (
        "even genus, nonorientable complement: squared transposition-chain"
        " boundary identity, degree g-3"
    ),
    "even_orientable": "even genus, orientable complement: twist-chain identity, degree g-1",
}

_NONEXISTENCE_CITATIONS = {
    "g2": "genus 2: the targets are primitive in the Klein four-group",
    "g3": "genus 3: torsion bounds in GL(2, Z) under the homology identification",
    "g4_nonorientable": (
        "genus 4, nonorientable complement: structural classification,"
        " not machine-certified"
    ),
    "braid_small_n": "fewer than 5 punctures: no nontrivial root of an elementary braid",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1, reserving 2 for verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _na_checks() -> dict[str, str]:
    return dict.fromkeys((*_ORACLES, "certificate", "nontriviality"), NOT_APPLICABLE)


def _report(command: str, **fields) -> dict:
    data = {
        "command": command,
        "genus": fields.pop("genus", None),
        "target": fields.pop("target", None),
        "root": fields.pop("root", None),
        "degree": fields.pop("degree", None),
        "checks": fields.pop("checks", None) or _na_checks(),
        "assumptions": list(fields.pop("assumptions", ())),
        "verdict": fields.pop("verdict"),
        "citation": fields.pop("citation"),
    }
    details = fields.pop("details", None)
    if details is not None:
        data["details"] = list(details)
    data.update(fields)
    return data


def _emit_certificate(path: str, certificate) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certificate_to_text(certificate))


def _root_command(
    command: str, args, build, genus: int, target: str, extra: dict
) -> tuple[int, dict]:
    """Report of ``build()``, a root construction; ``extra`` keys go last."""
    try:
        result = build()
    except NonexistenceError as exc:
        report = _report(
            command,
            genus=genus,
            target=target,
            verdict="no-nontrivial-root",
            citation=_NONEXISTENCE_CITATIONS.get(exc.case, exc.case),
            details=(str(exc),),
            machine_certified=exc.machine_certified,
            **extra,
        )
        return 2, report
    if args.emit_certificate:
        _emit_certificate(args.emit_certificate, result.certificate)
    report = _report(
        command,
        genus=result.root.model.genus,
        target=format_word(result.target),
        root=format_word(result.root),
        degree=result.degree,
        checks=result.report.checks(),
        assumptions=result.report.assumptions,
        verdict="root-exists" if result.report.all_passed else "verification-failed",
        citation=_CASE_CITATIONS[result.case],
        details=result.report.details,
        **extra,
    )
    return (0 if result.report.all_passed else 2), report


def cmd_root(args) -> tuple[int, dict]:
    request = RootRequest(args.genus, args.target, args.complement)
    return _root_command(
        "root", args, lambda: construct_root(request), args.genus, args.target + "1", {}
    )


def cmd_braid_root(args) -> tuple[int, dict]:
    return _root_command(
        "braid-root",
        args,
        lambda: construct_braid_root(args.punctures, args.index),
        args.punctures,
        f"u{args.index}",
        {"punctures": args.punctures, "index": args.index},
    )


# ``relations`` names the permutation oracle ``perm`` (``checked``, failure text).
_RELATION_NAMES = {"permutation": "perm"}


def _catalog_models(genus: int) -> list[SurfaceModel]:
    models = [SurfaceModel(genus)]
    if genus >= 4 and genus % 2 == 0:
        models.append(SurfaceModel(genus, "hybrid"))
    return models


def cmd_relations(args) -> tuple[int, dict]:
    checks = _na_checks()
    counts = {_RELATION_NAMES.get(key, key): 0 for key in _ORACLES}
    failures: list[str] = []
    instances = 0
    for model in _catalog_models(args.genus):
        for instance in relation_catalog(model):
            instances += 1
            verdicts = verify_identity(instance.lhs, 1, instance.rhs).checks()
            for key in _ORACLES:
                name, verdict = _RELATION_NAMES.get(key, key), verdicts[key]
                if verdict == PASS:
                    counts[name] += 1
                elif verdict == FAIL:
                    failures.append(
                        f"{model.describe()} {instance.schema}{instance.params}: {name}"
                        f" oracle distinguishes lhs from rhs"
                    )
                if checks[key] != FAIL and verdict != NOT_APPLICABLE:
                    checks[key] = verdict
    report = _report(
        "relations",
        genus=args.genus,
        checks=checks,
        verdict="all-relations-hold" if not failures else "relation-failures",
        citation="presentation relation catalog under the exact oracles",
        instances=instances,
        checked=counts,
        failures=failures,
    )
    return (0 if not failures else 2), report


def _scan_bound(args) -> int:
    """``--scan-bound`` if given, else ``MCGROOTS_SCAN_BOUND``, else 5."""
    if args.scan_bound is not None:
        return args.scan_bound
    text = os.environ.get("MCGROOTS_SCAN_BOUND", "5")
    try:
        return _parse_int(text, "integer")
    except CertificateError:
        raise ValueError(f"MCGROOTS_SCAN_BOUND must be an integer, got {text!r}") from None


def cmd_small_genus(args) -> tuple[int, dict]:
    target_name = args.target + "1"
    if args.genus == 2:
        element = klein_element_of(args.target)
        hits = mn2_root_search(element)
        nontrivial = mn2_nontrivial_roots(element)
        details = [
            f"x^d = {element} solutions over the Klein four-group, degrees 2..4:"
            f" {[(str(x), d) for x, d in hits]}",
            f"nontrivial among them: {[(str(x), d) for x, d in nontrivial]}",
        ]
        report = _report(
            "small-genus",
            genus=2,
            target=target_name,
            verdict="no-nontrivial-root" if not nontrivial else "nontrivial-roots-found",
            citation=_NONEXISTENCE_CITATIONS["g2"],
            details=details,
            solutions=[[str(x), d] for x, d in hits],
            nontrivial_solutions=[[str(x), d] for x, d in nontrivial],
        )
        return (0 if not nontrivial else 2), report

    word = parse_word(target_name, SurfaceModel(3))
    certification = certify_no_root_g3(word, _scan_bound(args))
    report = _report(
        "small-genus",
        genus=3,
        target=target_name,
        assumptions=certification.assumptions,
        verdict="no-nontrivial-root" if certification.passed() else "inconclusive",
        citation=_NONEXISTENCE_CITATIONS["g3"],
        details=certification.to_text().splitlines(),
        certification=certification.to_dict(),
    )
    return (0 if certification.passed() else 2), report


def cmd_verify(args) -> tuple[int, dict]:
    model = SurfaceModel(args.genus, args.model)
    word = parse_word(args.word, model)
    equals = parse_word(args.equals, model)
    certificate = None
    if args.certificate:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            certificate = certificate_from_text(handle.read())
    result = verify_identity(word, args.power, equals, certificate)
    if not result.all_passed:
        code, verdict = 2, "refuted"
    elif result.proved:
        code, verdict = 0, "verified"
    else:
        code, verdict = 2, "unproven"
    report = _report(
        "verify",
        genus=args.genus,
        target=format_word(equals),
        root=format_word(word),
        degree=args.power,
        checks=result.checks(),
        assumptions=result.assumptions,
        verdict=verdict,
        citation="exact oracles" + (" and certificate replay" if certificate else ""),
        details=result.details,
    )
    return code, report


def _integer(text: str) -> int:
    """An integer argument, written exactly as ``str(int)`` writes it."""
    try:
        return _parse_int(text, "integer")
    except CertificateError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcgroots",
        description="Roots of crosscap transpositions and slides, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    root = sub.add_parser(
        "root", help="construct and verify a root of u1 or y1", parents=[common]
    )
    root.add_argument("--genus", type=_integer, required=True)
    root.add_argument("--target", choices=("u", "y"), default="u")
    root.add_argument(
        "--complement", choices=("auto", "nonorientable", "orientable"), default="auto"
    )
    root.add_argument("--emit-certificate", metavar="PATH")
    root.set_defaults(handler=cmd_root)

    relations = sub.add_parser(
        "relations", help="check the relation catalog under oracles", parents=[common]
    )
    relations.add_argument("--genus", type=_integer, required=True)
    relations.set_defaults(handler=cmd_relations)

    small = sub.add_parser(
        "small-genus", help="certify nonexistence at genus 2 or 3", parents=[common]
    )
    small.add_argument("--genus", type=_integer, choices=(2, 3), required=True)
    small.add_argument("--target", choices=("u", "y"), default="u")
    small.add_argument("--scan-bound", type=_integer)
    small.set_defaults(handler=cmd_small_genus)

    braid = sub.add_parser(
        "braid-root",
        help="root of an elementary braid (punctured sphere)",
        parents=[common],
    )
    braid.add_argument("--punctures", type=_integer, required=True)
    braid.add_argument("--index", type=_integer, default=1)
    braid.add_argument("--emit-certificate", metavar="PATH")
    braid.set_defaults(handler=cmd_braid_root)

    verify = sub.add_parser(
        "verify", help="check word^power = equals under the oracles", parents=[common]
    )
    verify.add_argument("--genus", type=_integer, required=True)
    verify.add_argument("--model", choices=("standard", "hybrid"), default="standard")
    verify.add_argument("--word", required=True)
    verify.add_argument("--power", type=_integer, required=True)
    verify.add_argument("--equals", required=True)
    verify.add_argument("--certificate", metavar="PATH")
    verify.set_defaults(handler=cmd_verify)

    return parser


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if value is None:
            continue
        if key == "checks":
            print("checks: " + " ".join(f"{k}={v}" for k, v in value.items()))
        elif isinstance(value, (list, tuple)):
            if not value:
                continue
            print(f"{key}:")
            for item in value:
                print(f"  {item if not isinstance(item, (dict, list)) else json.dumps(item)}")
        elif isinstance(value, dict):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    started = time.perf_counter()
    try:
        code, report = args.handler(args)
    except (WordError, SchemaError, CertificateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["timing_seconds"] = round(time.perf_counter() - started, 6)
    _print_report(report, args.json)
    return code


def entry() -> None:
    """Run :func:`main` and exit with its code; a reader that closes stdout early gets exit 1.

    The flush inside the ``try`` raises a closed pipe here, not at
    interpreter exit, and pointing stdout at ``os.devnull`` keeps the
    exit's own flush quiet (the recipe of the Python ``signal`` docs).
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
