"""Command-line interface: exit codes, JSON reports, certificate files."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcgroots
from mcgroots import cli, roots, words
from mcgroots.cli import main
from mcgroots.presentation import RelationInstance
from mcgroots.words import SurfaceModel, format_word, parse_word

from conftest import words_for


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "root", "--genus", "7")
        assert code == 0
        assert "verdict: root-exists" in out

    def test_nonexistence_is_two(self, capsys):
        for args in (
            ["root", "--genus", "2"],
            ["root", "--genus", "3", "--target", "y"],
            ["root", "--genus", "4", "--complement", "nonorientable"],
            ["braid-root", "--punctures", "4"],
        ):
            code, out, _ = run(capsys, *args)
            assert code == 2, args
            assert "no-nontrivial-root" in out

    def test_usage_errors_are_one(self, capsys):
        for args in (
            [],
            ["root"],
            ["root", "--genus", "seven"],
            ["frobnicate"],
            ["root", "--genus", "5", "--target", "z"],
            ["small-genus", "--genus", "4"],
            # an unrecognized argument: the genus-3 proof has no degree to cap
            ["small-genus", "--genus", "3", "--max-degree", "9"],
        ):
            code, _, err = run(capsys, *args)
            assert code == 1, args
            assert err

    def test_domain_errors_are_one(self, capsys):
        code, _, err = run(capsys, "root", "--genus", "1")
        assert code == 1 and "error:" in err
        code, _, err = run(capsys, "verify", "--genus", "5", "--word", "x?", "--power", "2", "--equals", "u1")
        assert code == 1 and "error:" in err
        code, _, err = run(capsys, "verify", "--genus", "5", "--word", "u1", "--power", "3",
                           "--equals", "u1", "--certificate", "/nonexistent/cert.txt")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "args",
        (
            ["root", "--genus", "51"],
            ["root", "--genus", "52", "--complement", "orientable"],
            ["verify", "--genus", "51", "--word", "u1", "--power", "1", "--equals", "u1"],
            ["relations", "--genus", "51"],
            ["braid-root", "--punctures", "51"],
        ),
    )
    def test_genus_over_the_cap_is_one(self, capsys, args):
        started = time.perf_counter()
        code, _, err = run(capsys, *args)
        assert time.perf_counter() - started < 1.0
        assert code == 1 and "error:" in err and "MAX_GENUS" in err
        assert args[0] != "braid-root" or "punctures" in err

    def test_certificate_over_the_genus_cap_is_one(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("model standard\ngenus 51\nstart u1\nend u1\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--genus", "5", "--word", "u1", "--power", "1",
                           "--equals", "u1", "--certificate", str(path))
        assert code == 1 and "error:" in err and "MAX_GENUS" in err

    @pytest.mark.parametrize(
        "word",
        [
            "u\u00b2", "u1^\u00b2", "u\u0663", "u1_0", "u1^+2",
            pytest.param("u" + "1" * 5000, id="index-over-the-int-limit"),
        ],
    )
    def test_bad_numeral_in_a_word_is_one(self, capsys, word):
        code, out, err = run(capsys, "verify", "--genus", "5", "--word", word, "--power", "1",
                             "--equals", "u1")
        assert code == 1 and not out
        assert err.startswith("error:") and "column" in err

    @pytest.mark.parametrize(
        "header, step",
        [
            ("genus 1_0", ""),
            ("genus +5", ""),
            ("genus \u0665", ""),
            pytest.param("genus " + "5" * 5000, "", id="genus-over-the-int-limit"),
            ("genus 5", "free insert 0 u1 1_0"),
            ("genus 5", "free insert +0 u1 1"),
            ("genus 5", "step 0 R2 \u0661 fwd"),
            pytest.param("genus 5", "free insert 0 u" + "1" * 5000 + " 1", id="index-over-the-int-limit"),
        ],
    )
    def test_bad_numeral_in_a_certificate_is_one(self, capsys, tmp_path, header, step):
        path = tmp_path / "cert.txt"
        path.write_text(f"model standard\n{header}\nstart u1\nend u1\n{step}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--genus", "5", "--word", "u1", "--power", "1",
                             "--equals", "u1", "--certificate", str(path))
        assert code == 1 and not out
        assert err.startswith("error:") and "bad " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["root", "--genus", "{}"],
            ["relations", "--genus", "{}"],
            ["braid-root", "--punctures", "6", "--index", "{}"],
            ["small-genus", "--genus", "3", "--scan-bound", "{}"],
            ["verify", "--genus", "5", "--word", "u1", "--power", "{}", "--equals", "u1"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "numeral",
        ["\u0665", "\uff15", "+5", "05", " 5", "5 ", "5_0", "-0",
         pytest.param("5" * 5000, id="over-the-int-limit")],
    )
    def test_bad_numeral_in_an_integer_flag_is_one(self, capsys, argv, numeral):
        code, out, err = run(capsys, *(numeral if a == "{}" else a for a in argv))
        assert code == 1 and not out
        assert "bad integer" in err

    def test_a_word_over_the_syllable_cap_is_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 100)
        big = "(u1 u2)^30 (u1 u2)^30"
        code, out, err = run(capsys, "verify", "--genus", "5", "--word", big, "--power", "1",
                             "--equals", "u1")
        assert (code, out) == (1, "")
        assert err == (
            "error: the word writes out 120 syllables up to here, over the cap of 100 (column 11)\n"
        )
        path = tmp_path / "cert.txt"
        path.write_text(f"model standard\ngenus 5\nstart {big}\nend u1\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--genus", "5", "--word", "u1", "--power", "1",
                             "--equals", "u1", "--certificate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: the word writes out 120 syllables up to here")

    def test_help_is_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "root" in out


def run_cold(*argv):
    """Run ``python -m mcgroots.cli`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcgroots.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60,
    )


def test_cli_import_leaves_numpy_unloaded():
    # the genus-3 scan is pure Python; no CLI path needs numpy
    done = run_cold(
        "-c",
        "import sys; from mcgroots import cli;"
        " code = cli.main(['small-genus', '--genus', '3', '--scan-bound', '2']);"
        " print(code, 'numpy' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are plain slotted classes: importing dataclasses (and the
    # inspect, ast and dis it pulls in) cost every cold call about 25 ms
    done = run_cold(
        "-c",
        "import sys; import mcgroots.cli;"
        " print('dataclasses' in sys.modules, 'inspect' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


class TestDeepNesting:
    DEPTH = 5000
    WORD = "(" * DEPTH + "u1" + ")" * DEPTH

    def test_word_argument(self):
        done = run_cold(
            "-m", "mcgroots.cli", "verify", "--genus", "5",
            "--word", self.WORD, "--power", "1", "--equals", "u1",
        )
        assert done.returncode == 1
        assert "error: parentheses are nested too deeply" in done.stderr
        assert "Traceback" not in done.stderr

    def test_certificate_start_line(self, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text(f"model standard\ngenus 5\nstart {self.WORD}\nend u1\n")
        done = run_cold(
            "-m", "mcgroots.cli", "verify", "--genus", "5", "--word", "u1",
            "--power", "1", "--equals", "u1", "--certificate", str(path),
        )
        assert done.returncode == 1
        assert "error: line 3: parentheses are nested too deeply" in done.stderr
        assert "Traceback" not in done.stderr


class TestRootCommand:
    def test_json_shape(self, capsys):
        code, report, _ = run_json(capsys, "root", "--genus", "5", "--target", "y")
        assert code == 0
        assert report["command"] == "root"
        assert report["genus"] == 5
        assert report["target"] == "y1"
        assert report["root"] == "u4^-1 u3^-1 y1"
        assert report["degree"] == 3
        assert report["checks"] == {
            "sign": "pass",
            "permutation": "pass",
            "homology": "pass",
            "certificate": "pass",
            "nontriviality": "pass",
        }
        assert report["verdict"] == "root-exists"
        assert "degree g-2" in report["citation"]
        assert report["assumptions"]
        assert isinstance(report["timing_seconds"], float)
        assert list(report)[-1] == "timing_seconds"

    def test_json_key_order_stable(self, capsys):
        _, report, _ = run_json(capsys, "root", "--genus", "6")
        assert list(report)[:9] == [
            "command",
            "genus",
            "target",
            "root",
            "degree",
            "checks",
            "assumptions",
            "verdict",
            "citation",
        ]

    def test_json_round_trips_byte_exact(self, capsys):
        code, out, _ = run(capsys, "root", "--genus", "5", "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_nonexistence_report_carries_certification_flag(self, capsys):
        for genus, target in (("2", "u"), ("3", "u"), ("3", "y")):
            code, report, _ = run_json(capsys, "root", "--genus", genus, "--target", target)
            assert code == 2
            assert report["verdict"] == "no-nontrivial-root"
            assert report["machine_certified"] is True
        _, report, _ = run_json(capsys, "root", "--genus", "4", "--complement", "nonorientable")
        assert report["machine_certified"] is False

    def test_orientable_complement(self, capsys):
        code, report, _ = run_json(capsys, "root", "--genus", "8", "--complement", "orientable")
        assert code == 0
        assert report["degree"] == 7
        assert report["checks"]["permutation"] == "n/a"
        assert report["checks"]["homology"] == "n/a"

    def test_human_output_lists_checks(self, capsys):
        code, out, _ = run(capsys, "root", "--genus", "9")
        assert code == 0
        assert "checks: sign=pass permutation=pass homology=pass" in out
        assert "citation:" in out


class TestOracleTable:
    def test_one_row_adds_an_oracle_to_every_report(self, capsys, monkeypatch):
        # a constant image: every claim passes it, and the hybrid model has only sign
        monkeypatch.setitem(roots.ORACLES, "constant", lambda word: 1)
        keys = ["sign", "permutation", "homology", "constant", "certificate", "nontriviality"]
        std5 = SurfaceModel.standard(5)
        report = roots.verify_identity(parse_word("u1", std5), -2, parse_word("u1^-2", std5))
        assert list(report.checks()) == keys and report.checks()["constant"] == "pass"
        hyb6 = SurfaceModel.hybrid(6)
        report = roots.verify_identity(parse_word("c1", hyb6), 1, parse_word("c1", hyb6))
        assert report.checks()["constant"] == "n/a"

        argv = ("verify", "--genus", "5", "--word", "u1", "--power", "2", "--equals", "u1^2")
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and list(report["checks"]) == keys
        assert report["checks"]["constant"] == "pass"
        code, report, _ = run_json(capsys, "root", "--genus", "2")
        assert code == 2 and list(report["checks"].items()) == [(key, "n/a") for key in keys]
        code, report, _ = run_json(capsys, "relations", "--genus", "5")
        assert code == 0
        assert report["checked"] == {"sign": 29, "perm": 29, "homology": 29, "constant": 29}
        assert list(report["checks"]) == keys


class TestRelationsCommand:
    def test_all_oracles_genus6(self, capsys):
        code, report, _ = run_json(capsys, "relations", "--genus", "6")
        assert code == 0
        assert report["verdict"] == "all-relations-hold"
        assert report["instances"] == 62  # standard 47 + hybrid 15
        assert report["checked"] == {"sign": 62, "perm": 47, "homology": 47}
        assert report["failures"] == []
        assert report["checks"]["sign"] == "pass"
        assert report["checks"]["permutation"] == "pass"

    def test_largest_catalog_genus50(self, capsys):
        code, report, _ = run_json(capsys, "relations", "--genus", "50")
        assert code == 0
        assert report["verdict"] == "all-relations-hold"
        assert report["instances"] == 5936
        assert report["checked"] == {"sign": 5936, "perm": 5789, "homology": 5789}

    def test_odd_genus_has_no_hybrid_catalog(self, capsys):
        _, report, _ = run_json(capsys, "relations", "--genus", "5")
        assert report["instances"] == 29

    def test_flags_and_failures_come_from_the_verdicts(self, capsys, monkeypatch):
        model = SurfaceModel.standard(5)
        bogus = RelationInstance(
            "R1", (1, 2), model, parse_word("u1", model), parse_word("u2", model)
        )
        monkeypatch.setattr(
            cli, "relation_catalog", lambda m: [bogus] if m == model else []
        )
        code, report, _ = run_json(capsys, "relations", "--genus", "5")
        assert code == 2
        assert report["verdict"] == "relation-failures"
        assert report["checked"] == {"sign": 1, "perm": 0, "homology": 0}
        assert report["checks"]["sign"] == "pass"
        assert report["checks"]["permutation"] == report["checks"]["homology"] == "fail"
        assert report["failures"] == [
            f"standard genus-5 model R1(1, 2): {name} oracle distinguishes lhs from rhs"
            for name in ("perm", "homology")
        ]


class TestSmallGenusCommand:
    def test_genus2_exhaustion(self, capsys):
        code, report, _ = run_json(capsys, "small-genus", "--genus", "2")
        assert code == 0
        assert report["verdict"] == "no-nontrivial-root"
        assert report["solutions"] == [["ty", 3]]
        assert report["nontrivial_solutions"] == []

    def test_genus2_slide_target(self, capsys):
        code, report, _ = run_json(capsys, "small-genus", "--genus", "2", "--target", "y")
        assert code == 0
        assert report["solutions"] == [["y", 3]]

    def test_genus3_certification(self, capsys):
        code, report, _ = run_json(capsys, "small-genus", "--genus", "3", "--scan-bound", "1")
        assert code == 0
        assert report["verdict"] == "no-nontrivial-root"
        cert = report["certification"]
        assert list(cert) == [
            "target", "target_matrix", "torsion_orders", "cross_check", "assumptions", "verdict"
        ]
        assert [(r["trace"], r["order"]) for r in cert["torsion_orders"] if r["det"] == -1] == [
            (-2, None), (-1, None), (0, 2), (1, None), (2, None)
        ]
        assert cert["cross_check"]["entry_bound"] == 1
        assert report["assumptions"]

    def test_scan_bound_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MCGROOTS_SCAN_BOUND", "1")
        code, report, _ = run_json(capsys, "small-genus", "--genus", "3")
        assert code == 0
        assert report["certification"]["cross_check"]["entry_bound"] == 1

    def test_non_integer_env_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MCGROOTS_SCAN_BOUND", "abc")
        code, out, err = run(capsys, "small-genus", "--genus", "3")
        assert code == 1
        assert not out
        assert err == "error: MCGROOTS_SCAN_BOUND must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("text", [" \u0663 ", "\u0663", "+3", "03", "3_0", " 3", ""])
    def test_env_takes_only_plain_numerals(self, capsys, monkeypatch, text):
        monkeypatch.setenv("MCGROOTS_SCAN_BOUND", text)
        code, out, err = run(capsys, "small-genus", "--genus", "3")
        assert code == 1
        assert not out
        assert err == f"error: MCGROOTS_SCAN_BOUND must be an integer, got {text!r}\n"

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MCGROOTS_SCAN_BOUND", "1")
        code, report, _ = run_json(capsys, "small-genus", "--genus", "3", "--scan-bound", "2")
        assert code == 0
        assert report["certification"]["cross_check"]["entry_bound"] == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--scan-bound", "21"), "error: entry bound must be <= 20, got 21\n"),
            (("--scan-bound", "0"), "error: entry bound must be >= 1, got 0\n"),
        ],
    )
    def test_caps_are_input_errors(self, capsys, flags, message):
        code, out, err = run(capsys, "small-genus", "--genus", "3", *flags)
        assert code == 1
        assert not out
        assert err == message

    def test_env_scan_bound_is_capped(self, capsys, monkeypatch):
        monkeypatch.setenv("MCGROOTS_SCAN_BOUND", "21")
        code, out, err = run(capsys, "small-genus", "--genus", "3")
        assert code == 1
        assert err == "error: entry bound must be <= 20, got 21\n"

    def test_largest_capped_call(self, capsys):
        code, report, _ = run_json(capsys, "small-genus", "--genus", "3", "--scan-bound", "20")
        assert code == 0
        assert report["verdict"] == "no-nontrivial-root"
        assert report["certification"]["cross_check"]["entry_bound"] == 20


class TestBraidRootCommand:
    def test_success_with_extras(self, capsys):
        code, report, _ = run_json(capsys, "braid-root", "--punctures", "6", "--index", "3")
        assert code == 0
        assert report["command"] == "braid-root"
        assert report["punctures"] == 6
        assert report["index"] == 3
        assert report["target"] == "u3"
        assert report["degree"] == 3
        assert report["verdict"] == "root-exists"

    def test_refusal_below_five_punctures(self, capsys):
        code, report, _ = run_json(capsys, "braid-root", "--punctures", "3")
        assert code == 2
        assert report["machine_certified"] is False
        assert "fewer than 5 punctures" in report["citation"]

    def test_bad_index_is_usage_error(self, capsys):
        code, _, err = run(capsys, "braid-root", "--punctures", "6", "--index", "6")
        assert code == 1 and "error:" in err


class TestVerifyCommand:
    def test_identity_verified(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text(
            "model standard\ngenus 3\nstart u1^2\nend y1^2\nstep 0 UsquaredYsquared 1 fwd\n",
            encoding="utf-8",
        )
        code, report, _ = run_json(
            capsys, "verify", "--genus", "3", "--word", "u1", "--power", "2", "--equals", "y1^2",
            "--certificate", str(path),
        )
        assert code == 0
        assert report["verdict"] == "verified"
        assert report["checks"]["homology"] == "pass"
        assert report["checks"]["certificate"] == "pass"

    @pytest.mark.parametrize(
        "schema, word, power", [("R3", "u1 u2 u3 u4", 5), ("R5", "u1^2 u2 u3 u4", 4)]
    )
    def test_global_relation_is_listed_as_an_assumption(self, capsys, tmp_path, schema, word, power):
        path = tmp_path / "cert.txt"
        path.write_text(
            f"model standard\ngenus 5\nstart ({word})^{power}\nend\nstep 0 {schema} fwd\n",
            encoding="utf-8",
        )
        code, report, _ = run_json(
            capsys, "verify", "--genus", "5", "--word", word, "--power", str(power), "--equals", "",
            "--certificate", str(path),
        )
        assert code == 0
        assert report["verdict"] == "verified"
        assert [note.split(":")[0] for note in report["assumptions"]] == [f"axiom {schema}"]

    def test_identity_unproven_without_certificate(self, capsys):
        # true, but the oracles only fail to refute it and the words differ
        code, report, _ = run_json(
            capsys, "verify", "--genus", "3", "--word", "u1", "--power", "2", "--equals", "y1^2"
        )
        assert code == 2
        assert report["verdict"] == "unproven"
        assert report["checks"]["homology"] == "pass"
        assert report["checks"]["certificate"] == "n/a"

    @pytest.mark.parametrize(
        "argv",
        [
            # u1^2 is a boundary twist of infinite order from genus 4 on
            ["--genus", "5", "--word", "u1", "--power", "2", "--equals", ""],
            ["--genus", "50", "--word", "u49", "--power", "1000000001", "--equals", "u49"],
            # only the sign oracle runs in the hybrid model
            ["--model", "hybrid", "--genus", "6", "--word", "c1", "--power", "1", "--equals", "c2"],
            ["--model", "hybrid", "--genus", "6", "--word", "c1 t1", "--power", "99999999999",
             "--equals", "c1"],
        ],
        ids=["u1-squared", "genus-50", "hybrid-c1-c2", "hybrid-over-the-cap"],
    )
    def test_false_identities_are_unproven(self, capsys, argv):
        code, report, _ = run_json(capsys, "verify", *argv)
        assert code == 2
        assert report["verdict"] == "unproven"
        assert "fail" not in report["checks"].values()

    def test_power_over_the_cap_proves_nothing(self, capsys):
        # (u1 u2)^3 = 1 at genus 3 (R3), but writing the power out is over the cap
        code, report, _ = run_json(
            capsys, "verify", "--genus", "3", "--word", "u1 u2", "--power", "3000000",
            "--equals", "",
        )
        assert code == 2
        assert report["verdict"] == "unproven"
        assert set(report["checks"].values()) == {"pass", "n/a"}
        assert any(d.startswith("proof: not attempted") and "cap" in d for d in report["details"])

    @pytest.mark.parametrize(
        "word, equals, verdict", [("u1 u2", "u1", "refuted"), ("u1 u3", "", "unproven")]
    )
    def test_power_over_the_cap_leaves_the_certificate_unchecked(
        self, capsys, tmp_path, word, equals, verdict
    ):
        # a report, not an input error: the oracles refute (u1 u2)^10000000 = u1
        # and pass (u1 u3)^10000000 = 1, which no certificate check can prove
        path = tmp_path / "cert5.txt"
        run(capsys, "root", "--genus", "5", "--emit-certificate", str(path))
        code, report, err = run_json(
            capsys, "verify", "--genus", "5", "--word", word, "--power", "10000000",
            "--equals", equals, "--certificate", str(path),
        )
        assert code == 2 and err == ""
        assert report["verdict"] == verdict
        assert report["checks"]["certificate"] == "n/a"
        assert report["assumptions"] == []
        assert report["details"][-1] == (
            "certificate: not checked, the power 10000000 of a 2-syllable word would write"
            " out 20000000 syllables, over the cap of 1048576"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((SurfaceModel.standard(4), SurfaceModel.standard(7), SurfaceModel.hybrid(6)))
        .flatmap(lambda m: st.tuples(words_for(m, 4), words_for(m, 4))),
        st.integers(-4, 4),
        st.booleans(),
    )
    def test_exit_zero_without_a_certificate_only_for_the_reduced_power(self, words, power, same):
        word, other = words
        equals = word**power if same else other
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([
                "verify", "--genus", str(word.model.genus), "--model", word.model.kind,
                "--word", format_word(word), "--power", str(power),
                "--equals", format_word(equals), "--json",
            ])
        assert code in (0, 2)
        assert (code == 0) == (equals == word**power)
        assert (json.loads(out.getvalue())["verdict"] == "verified") == (code == 0)

    @pytest.mark.parametrize(
        "word, equals, step",
        [("y1", "t1 u1", "SlideDef 0"), ("u1^2", "y1^2", "UsquaredYsquared -1")],
    )
    def test_step_index_below_one_is_refuted(self, capsys, tmp_path, word, equals, step):
        path = tmp_path / "cert.txt"
        path.write_text(
            f"model standard\ngenus 5\nstart {word}\nend {equals}\nstep 0 {step} fwd\n",
            encoding="utf-8",
        )
        code, report, err = run_json(
            capsys, "verify", "--genus", "5", "--word", word, "--power", "1", "--equals", equals,
            "--certificate", str(path),
        )
        assert code == 2 and err == ""
        assert report["verdict"] == "refuted"
        assert report["checks"]["certificate"] == "fail"

    def test_refuted(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--genus", "5", "--word", "u1", "--power", "3", "--equals", "u2"
        )
        assert code == 2
        assert report["verdict"] == "refuted"
        assert report["checks"]["permutation"] == "fail"

    def test_huge_power_returns_without_writing_the_word_out(self, capsys):
        started = time.perf_counter()
        code, report, _ = run_json(
            capsys, "verify", "--genus", "5", "--word", "u1 u2",
            "--power", "-1000000001", "--equals", "u2 u1",
        )
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert report["checks"]["sign"] == "pass"
        assert report["checks"]["permutation"] == "fail"

    def test_power_over_the_size_cap_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--genus", "5", "--word", "(u1 u2)^2000000",
            "--power", "1", "--equals", "u1",
        )
        assert code == 1
        assert not out
        assert err.startswith("error:") and "cap" in err

    def test_hybrid_model_skips_exact_oracles(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--genus", "4", "--model", "hybrid",
            "--word", "c1", "--power", "2", "--equals", "c1^2",
        )
        assert code == 0
        assert report["checks"]["sign"] == "pass"
        assert report["checks"]["permutation"] == "n/a"
        assert report["checks"]["homology"] == "n/a"


class TestCertificateCycle:
    def test_emit_then_verify(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "root", "--genus", "6", "--emit-certificate", str(path))
        assert code == 0
        assert path.read_text().startswith("model standard\ngenus 6\n")
        code, report, _ = run_json(
            capsys, "verify", "--genus", "6",
            "--word", "u5^-1 u4^-1 u3^-2 u1", "--power", "3", "--equals", "u1",
            "--certificate", str(path),
        )
        assert code == 0
        assert report["verdict"] == "verified"
        assert report["checks"]["certificate"] == "pass"
        assert report["assumptions"]

    def test_wrong_word_fails_endpoint_match(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        run(capsys, "root", "--genus", "6", "--emit-certificate", str(path))
        code, report, _ = run_json(
            capsys, "verify", "--genus", "6",
            "--word", "u5^-1 u4^-1 u3^-2 u2", "--power", "3", "--equals", "u1",
            "--certificate", str(path),
        )
        assert code == 2
        assert report["checks"]["certificate"] == "fail"

    VERIFY6 = ("verify", "--genus", "6", "--word", "u5^-1 u4^-1 u3^-2 u1", "--power", "3",
               "--equals", "u1", "--certificate")

    def test_flipped_step_is_refuted_with_its_number(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        run(capsys, "root", "--genus", "6", "--emit-certificate", str(path))
        lines = path.read_text().splitlines()
        # every schema step of this certificate runs bwd; the gather runs fwd
        k = next(n for n, line in enumerate(lines) if line.startswith("gather ") and line.endswith(" fwd"))
        lines[k] = lines[k][: -len("fwd")] + "bwd"
        path.write_text("\n".join(lines) + "\n")
        code, report, _ = run_json(capsys, *self.VERIFY6, str(path))
        assert code == 2
        assert report["verdict"] == "refuted"
        assert report["checks"]["certificate"] == "fail"
        header = 4  # model, genus, start, end
        assert any(re.search(rf"step {k - header + 1}: gather mismatch at position 3: ", d)
                   for d in report["details"])

    def _edited(self, capsys, tmp_path, lines_for):
        """The genus-6 root certificate with its gather line (line 5) replaced by ``lines_for``."""
        path = tmp_path / "cert.txt"
        run(capsys, "root", "--genus", "6", "--emit-certificate", str(path))
        lines = path.read_text().splitlines()
        assert lines[4] == "gather 0 3 3 fwd"
        lines[4:5] = lines_for
        path.write_text("\n".join(lines) + "\n")
        return path

    # the gather line as written before gather steps: one move and one merge a round
    ROUNDS = ["move 3 3 fwd", "free merge 6 u1 1", "move 6 3 fwd", "free merge 9 u1 2"]

    def test_move_form_still_verifies(self, capsys, tmp_path):
        path = self._edited(capsys, tmp_path, self.ROUNDS)
        code, report, _ = run_json(capsys, *self.VERIFY6, str(path))
        assert (code, report["verdict"]) == (0, "verified")
        assert "certificate: 6 steps replay" in " ".join(report["details"])

    def _verdict(self, capsys, path, code, message):
        if code == 1:
            assert run(capsys, *self.VERIFY6, str(path)) == (1, "", message)
            return
        got, report, _ = run_json(capsys, *self.VERIFY6, str(path))
        assert (got, report["verdict"]) == (2, "refuted")
        assert f"step 1: {message}" in " ".join(report["details"])

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("move 3 0 fwd", 2, "move length must be >= 1, got 0"),
            ("move 3 -2 bwd", 2, "move length must be >= 1, got -2"),
            ("move 3 99 fwd", 2, "move of 99 from position 3 out of range: 12 syllables"),
            ("move 3 3 bwd", 2, "move mismatch at position 5: R1 needs disjoint supports,"
             " but u3 and u4 meet"),
            ("move 3 x fwd", 1, "error: line 5: bad length 'x'\n"),
            ("move 3 fwd", 1, "error: line 5: malformed move step\n"),
        ],
    )
    def test_edited_move_line(self, capsys, tmp_path, line, code, message):
        # a move that does not apply is refuted; one that does not parse is an input error
        path = self._edited(capsys, tmp_path, [line] + self.ROUNDS[1:])
        self._verdict(capsys, path, code, message)

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("gather 0 3 4 fwd", 2, "gather mismatch at position 12: expected u5^-1 of copy 4,"
             " found the end"),
            ("gather 0 2 3 fwd", 2, "gather mismatch at position 3: expected u5^-1 of copy 2,"
             " found u1"),
            ("gather 0 3 3 bwd", 2, "gather mismatch at position 3: expected u5^-1 of copy 2,"
             " found u1"),
            ("gather 1 3 2 fwd", 2, "gather mismatch at position 1: R1 needs disjoint supports,"
             " but u4 and u5 meet"),
            ("gather 12 3 2 fwd", 2, "gather of 3 from position 12 out of range: 12 syllables"),
            ("gather 0 3 1 fwd", 1, "error: line 5: gather copies must be >= 2, got 1\n"),
            ("gather 0 0 3 fwd", 1, "error: line 5: gather length must be >= 1, got 0\n"),
            ("gather -1 3 3 fwd", 1, "error: line 5: gather position -1 is negative\n"),
            ("gather 0 3 x fwd", 1, "error: line 5: bad copies 'x'\n"),
            ("gather 0 3 03 fwd", 1, "error: line 5: bad copies '03'\n"),
            ("gather 0 3 fwd", 1, "error: line 5: malformed gather step\n"),
        ],
    )
    def test_edited_gather_line(self, capsys, tmp_path, line, code, message):
        # a gather that does not apply is refuted; one that does not parse is an input error
        self._verdict(capsys, self._edited(capsys, tmp_path, [line]), code, message)

    def test_braid_emit_then_verify(self, capsys, tmp_path):
        path = tmp_path / "braid.txt"
        code, report, _ = run_json(
            capsys, "braid-root", "--punctures", "5", "--index", "2",
            "--emit-certificate", str(path),
        )
        assert code == 0
        code, verify_report, _ = run_json(
            capsys, "verify", "--genus", "5",
            "--word", report["root"], "--power", str(report["degree"]),
            "--equals", report["target"], "--certificate", str(path),
        )
        assert code == 0
        assert verify_report["checks"]["certificate"] == "pass"
