"""Command-line contract: exit codes, output formats, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from specmul import cli, linalg
from specmul.asm import AsmReport, _arc_defects, _stack, pair_defect
from specmul.cli import main
from specmul.linalg import Dense, matrix_from_json, matrix_to_json
from specmul.circle import _point_from_json
from specmul.constructions import (
    SrParams,
    TadpoleParams,
    _cmul,
    _tadpole_cases,
    cycle_matrix,
    default_miller_moreno,
    miller_moreno,
    random_det1_diagonal,
    sr_sampler,
    tadpole_case,
    tadpole_sampler,
)


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_failed_allocation_is_one_line(self, capsys, monkeypatch):
        def measure_asm(*args, **kw):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "measure_asm", measure_asm)
        assert run(capsys, "measure", "--builtin", "q8") == (
            1, "", "error: out of memory. Unable to allocate 745. GiB for an array\n")

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_measure_needs_a_source(self, capsys):
        assert run(capsys, "measure")[0] == 1

    def test_bad_builtin(self, capsys):
        assert run(capsys, "measure", "--builtin", "nope")[0] == 1

    def test_success(self, capsys):
        assert run(capsys, "measure", "--builtin", "q8", "--deterministic")[0] == 0

    def test_assertion_pass_and_fail(self, capsys):
        ok, _, _ = run(capsys, "measure", "--builtin", "q8",
                       "--assert-le", "1/4", "--deterministic")
        assert ok == 0
        code, out, err = run(capsys, "measure", "--builtin", "q8",
                             "--assert-le", "1/5", "--deterministic")
        assert code == 2
        assert "assertion failed" in err
        assert out  # the report is still printed

    def test_assertion_exact_comparison(self, capsys):
        # 0.25 <= 0.25 exactly; a float threshold just below must fail
        assert run(capsys, "measure", "--builtin", "q8",
                   "--assert-le", "0.2499999", "--deterministic")[0] == 2

    def test_continuous_family_needs_pairs(self, capsys):
        code, _, err = run(capsys, "measure", "--builtin", "tadpole",
                           "--deterministic")
        assert code == 1 and "--pairs" in err

    @pytest.mark.parametrize("source", [
        ("--builtin", "miller-moreno", "--p", "3", "--q", "7"),
        ("--builtin", "q8"),
        ("--builtin", "cyclic", "--p", "5"),
    ], ids=["miller-moreno", "q8", "cyclic"])
    @pytest.mark.parametrize("pairs", ["5", "0"])
    def test_exhaustive_source_refuses_pairs(self, capsys, source, pairs):
        code, out, err = run(capsys, "measure", *source, "--pairs", pairs,
                             "--deterministic")
        assert code == 1 and not out
        assert err == "error: --pairs applies to sampled builtins only\n"

    @pytest.mark.parametrize("builtin", ["tadpole", "sr"])
    def test_zero_sampled_pairs_exits_1(self, capsys, builtin):
        code, out, err = run(capsys, "measure", "--builtin", builtin,
                             "--pairs", "0", "--deterministic")
        assert code == 1 and not out
        assert err == "error: need at least one pair\n"

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_below_one_is_a_usage_error(self, capsys, workers):
        code, out, err = run(capsys, "measure", "--builtin", "tadpole",
                             "--pairs", "5", "--workers", workers,
                             "--deterministic")
        assert code == 1 and not out
        assert err.startswith("usage: ")
        assert err.endswith("argument --workers: expected a count of 1 or "
                            f"more, not {workers!r}\n")

    @pytest.mark.parametrize("bins", ["0", "-3", "two"])
    def test_bins_below_one_is_a_usage_error(self, capsys, monkeypatch, bins):
        # refused while parsing, before any closure is built
        def close(*args, **kw):
            raise AssertionError("closure built")

        monkeypatch.setattr(cli, "close", close)
        code, out, err = run(capsys, "measure", "--builtin", "q8",
                             "--bins", bins, "--deterministic")
        assert code == 1 and not out
        assert err.startswith("usage: ")
        assert err.endswith("argument --bins: expected a count of 1 or "
                            f"more, not {bins!r}\n")

    @pytest.mark.parametrize("argv", [
        ("measure", "--builtin", "q8", "--assert-le", "1/0"),
        ("qset", "--p", "5", "--eps", "1/0"),
        ("qset", "--p", "5", "--eps", "1/0_0"),
    ], ids=["assert-le", "eps", "eps-underscores"])
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--deterministic")
        assert code == 1 and not out
        assert err.endswith(f": zero denominator in {argv[-1]!r}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("measure", "--builtin", "q8", "--assert-le", "abc"),
        ("qset", "--p", "5", "--eps", "abc"),
        ("qset", "--p", "5", "--eps", "1/2/3"),
        ("qset", "--p", "5", "--eps", "1/0/0"),
    ], ids=["assert-le", "eps", "two-slashes", "zero-slash-zero"])
    def test_unreadable_level_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--deterministic")
        assert code == 1 and not out
        assert err.endswith(": expected a fraction num/den or a decimal, "
                            f"not {argv[-1]!r}\n")
        assert "_fraction_or_float" not in err

    @pytest.mark.parametrize("level", ["nan", "NaN", "inf", "Infinity", "1e400"])
    @pytest.mark.parametrize("flag", ["--assert-le", "--eps"])
    def test_non_finite_level_is_a_usage_error(self, capsys, flag, level):
        # nan would fail every --assert-le and inf pass every one
        argv = (("measure", "--builtin", "q8") if flag == "--assert-le"
                else ("qset", "--p", "3"))
        code, out, err = run(capsys, *argv, flag, level, "--deterministic")
        assert code == 1 and not out
        assert err.startswith("usage: ")
        assert err.endswith(f"argument {flag}: expected a finite level, "
                            f"not {level!r}\n")

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_closure_cut_before_its_generators_exits_1(self, capsys, budget):
        code, out, err = run(capsys, "measure", "--builtin", "q8",
                             "--max-elements", budget, "--deterministic")
        assert code == 1 and not out
        assert err.startswith("error: closure is incomplete")

    def test_config_error_from_library(self, capsys):
        code, _, err = run(capsys, "qset", "--p", "5", "--eps", "1/2",
                           "--deterministic")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("spec", [
        {"generators": 5},
        {"generators": [{"variant": "dense", "dim": 1, "entries": [[1]]}]},
        # a declared dim that the entries do not have
        {"generators": [{"variant": "dense", "dim": 5,
                         "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        {"generators": [{"variant": "diagonal", "dim": 3,
                         "entries": [{"num": 1, "den": 2}]}]},
        # JSON text: an infinite integer field
        pytest.param('{"generators": [{"variant": "diagonal",'
                     ' "entries": [{"num": Infinity, "den": 2}]}]}', id="num-inf"),
        pytest.param('{"generators": [{"variant": "diagonal",'
                     ' "entries": [{"num": 1, "den": -Infinity}]}]}', id="den-inf"),
        pytest.param('{"generators": [{"variant": "monomial_cycle",'
                     ' "d": [{"num": 0, "den": 1}], "k": Infinity}]}', id="k-inf"),
        pytest.param({"generators": [{"variant": "monomial_cycle", "d": [], "k": 0}]},
                     id="empty-cycle"),
        pytest.param({"generators": [{"variant": "diagonal", "entries": []}]},
                     id="empty-diagonal"),
        pytest.param({"generators": [{"variant": "diagonal",
                                      "entries": [{"num": 0.5, "den": 2}]}]},
                     id="num-float"),
        pytest.param({"generators": [{"variant": "diagonal",
                                      "entries": [{"num": 1, "den": 2.5}]}]},
                     id="den-float"),
        pytest.param({"generators": [{"variant": "monomial_cycle",
                                      "d": [{"num": 0, "den": 1}] * 2, "k": True}]},
                     id="k-bool"),
        pytest.param('{"generators": [%s{"variant": "diagonal", "entries": '
                     '[{"num": 0, "den": 1}]}%s]}'
                     % ('{"variant": "block_diag", "blocks": [' * 600, "]}" * 600),
                     id="nested-600"),
        pytest.param("[" * 5000 + "]" * 5000, id="nested-array"),
        pytest.param("[]", id="list"),
        pytest.param("{", id="truncated"),
    ])
    def test_malformed_spec_is_a_config_error(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec),
                        encoding="utf-8")
        code, out, err = run(capsys, "measure", "--spec", str(path),
                             "--deterministic")
        assert code == 1 and not out
        assert err.startswith("error: malformed ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("tadpole-bound", "--pairs", "0"),
         "error: --pairs 0 leaves tadpole-bound nothing to check"),
        (("sr-bound", "--samples", "0"),
         "error: --samples 0 leaves sr-bound nothing to check"),
        (("lemma-spectrum", "--trials", "0"),
         "error: --trials 0 leaves lemma-spectrum nothing to check"),
        (("tadpole-bound", "--pairs", "-3"),
         "argument --pairs: expected a count of 0 or more, not '-3'"),
        (("lemma-spectrum", "--trials", "-1"),
         "argument --trials: expected a count of 0 or more, not '-1'"),
        (("conversions", "--trials", "-1"),
         "argument --trials: expected a count of 0 or more, not '-1'"),
        (("sr-bound", "--samples", "1e3"),
         "argument --samples: expected a count of 0 or more, not '1e3'"),
    ], ids=["tadpole-zero", "sr-zero", "lemma-zero", "tadpole-negative",
            "lemma-negative", "conversions-negative", "not-digits"])
    def test_verify_that_would_check_nothing_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv, "--deterministic")
        assert code == 1 and not out
        assert err.endswith(message + "\n")

    def test_conversions_without_trials_still_checks_the_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "conversions", "--trials", "0",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["report"]["evidence"]["pairs"] == 60 * 60

    def test_verify_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._VERIFY_TABLE, "conversions",
                            lambda args: (False, {"detail": "forced"}))
        code, out, _ = run(capsys, "verify", "conversions", "--deterministic")
        assert code == 2
        assert json.loads(out)["report"]["pass"] is False


def _write_dense_mm_spec(path, seed=7):
    """MM(7, 43) conjugated by a seeded unitary into dense matrices
    (n = 301), written as a ``--spec`` file."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    path.write_text(json.dumps({"generators": [
        Dense(u @ g.to_dense() @ u.conj().T, unitary=True).to_json_dict()
        for g in miller_moreno(default_miller_moreno(7, 43))]}))


# sha256 of the stdout of ``measure --spec dense.json --deterministic
# --workers 1`` plus the extra arguments, for ``_write_dense_mm_spec``'s file,
# with every spectrum its class representative's.
DENSE_SPEC_GOLDEN = {
    "--collect-pairs":
        "a0fa690f1737174babb5c950f3953de2546c00a3d58be4ff37bbda16b7e44ae3",
    "--format csv":
        "380fa4bbe34190bbcb40c5d865b9a7594a53cbec25e6e85a21983363ac7e9aa9",
}


class TestMeasureOutput:
    def test_json_shape_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "measure", "--builtin", "q8", "--deterministic")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"config", "report"}
        assert data["config"]["builtin"] == "q8"
        rep = AsmReport.from_json_dict(data["report"])
        assert rep.epsilon_exact == Fraction(1, 4)

    def test_timestamp_toggle(self, capsys):
        _, out, _ = run(capsys, "measure", "--builtin", "q8")
        assert "generated_at" in json.loads(out)
        _, out, _ = run(capsys, "measure", "--builtin", "q8", "--deterministic")
        assert "generated_at" not in json.loads(out)

    def test_deterministic_output_is_byte_stable(self, capsys):
        argv = ("measure", "--builtin", "tadpole", "--pairs", "300",
                "--seed", "11", "--deterministic")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_worker_flag_does_not_change_bytes(self, capsys, tmp_path):
        spec = tmp_path / "dense.json"
        _write_dense_mm_spec(spec)
        for source in (("--builtin", "miller-moreno"), ("--spec", str(spec))):
            base = ("measure", *source, "--deterministic")
            _, out1, _ = run(capsys, *base, "--workers", "1")
            _, out2, _ = run(capsys, *base, "--workers", "3")
            # workers is part of the echoed config; compare reports
            assert json.loads(out1)["report"] == json.loads(out2)["report"]

    @pytest.mark.parametrize("extra", sorted(DENSE_SPEC_GOLDEN))
    def test_dense_spec_report_matches_golden(self, capsys, tmp_path,
                                              monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        _write_dense_mm_spec(tmp_path / "dense.json")
        code, out, _ = run(capsys, "measure", "--spec", "dense.json",
                           "--deterministic", "--workers", "1", *extra.split())
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == DENSE_SPEC_GOLDEN[extra])

    @pytest.mark.parametrize("fmt", ["json", "human", "csv"])
    def test_only_the_asked_format_is_rendered(self, capsys, monkeypatch, fmt):
        calls = []

        def spy(name, real):
            def render(rep):
                calls.append((name, len(rep.pair_rows)))
                return real(rep)
            return render

        monkeypatch.setattr(cli, "_report_csv", spy("csv", cli._report_csv))
        monkeypatch.setattr(AsmReport, "to_json_dict",
                            spy("json", AsmReport.to_json_dict))
        code, out, _ = run(capsys, "measure", "--builtin", "q8", "--format",
                           fmt, "--collect-pairs", "--deterministic")
        assert code == 0
        assert calls == ([] if fmt == "human" else [(fmt, 64)])
        assert out.startswith({"json": "{", "human": "kind: asm",
                               "csv": "i,j,defect\n"}[fmt])

    def test_dense_spectrum_off_the_circle_exits_1(self, capsys, tmp_path,
                                                   monkeypatch):
        spec = tmp_path / "dense.json"
        _write_dense_mm_spec(spec)
        monkeypatch.setattr(linalg, "MODULUS_TOL", -1.0)
        code, out, err = run(capsys, "measure", "--spec", str(spec),
                             "--deterministic")
        assert code == 1 and not out
        assert err.startswith("error: ") and "modulus" in err

    @pytest.mark.parametrize("entry", [1.5, float("nan")], ids=["1.5", "nan"])
    def test_non_unitary_dense_block_exits_1(self, capsys, tmp_path, entry):
        # a dense block is checked once the generator is flattened to dense
        spec = tmp_path / "block.json"
        spec.write_text(json.dumps({"generators": [matrix_to_json(
            linalg.BlockDiag((Dense(np.array([[entry]])), cycle_matrix(3))))]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "measure", "--spec", str(spec),
                                 "--deterministic")
        assert code == 1 and not out
        assert err == "error: dense generator fails the unitarity check\n"

    @pytest.mark.parametrize("entry", ["NaN", "1e400", "1e200"])
    def test_non_finite_dense_generator_exits_1_quietly(self, capsys, tmp_path,
                                                        entry):
        # 1e400 reads as inf; 1e200 overflows A^H A
        spec = tmp_path / "dense.json"
        spec.write_text('{"generators": [{"variant": "dense", "entries": '
                        f'[[[{entry}, 0], [0, 0]], [[0, 0], [1, 0]]]}}]}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "measure", "--spec", str(spec),
                                 "--deterministic")
        assert code == 1 and not out
        assert err == "error: dense generator fails the unitarity check\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_human_format(self, capsys):
        _, out, _ = run(capsys, "measure", "--builtin", "q8",
                        "--format", "human", "--deterministic")
        assert "epsilon_star: 1/4" in out
        assert "group order: 8" in out

    def test_csv_collects_pairs(self, capsys):
        _, out, _ = run(capsys, "measure", "--builtin", "q8",
                        "--format", "csv", "--deterministic")
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,defect"
        assert len(lines) == 1 + 64

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rep.json"
        code, out, _ = run(capsys, "measure", "--builtin", "cyclic", "--p", "5",
                           "--deterministic", "--out", str(target))
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert data["report"]["epsilon_exact"] == "0/1"

    def test_sampled_sub_family(self, capsys):
        _, out, _ = run(capsys, "measure", "--builtin", "sr", "--r", "0.5",
                        "--pairs", "50", "--seed", "3", "--deterministic")
        rep = json.loads(out)["report"]
        assert rep["kind"] == "sub" and rep["gamma_convention"] == "nonzero"

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "gens.json"
        spec.write_text(json.dumps(
            {"generators": [matrix_to_json(cycle_matrix(5))]}))
        _, out, _ = run(capsys, "measure", "--spec", str(spec), "--deterministic")
        rep = json.loads(out)["report"]
        assert rep["group_order"] == 5 and rep["epsilon_exact"] == "0/1"

    def test_spec_file_refuses_pairs(self, capsys, tmp_path):
        spec = tmp_path / "gens.json"
        spec.write_text(json.dumps(
            {"generators": [matrix_to_json(cycle_matrix(5))]}))
        for pairs in ("10", "0"):
            code, out, err = run(capsys, "measure", "--spec", str(spec),
                                 "--pairs", pairs, "--deterministic")
            assert code == 1 and not out
            assert err == "error: --pairs applies to sampled builtins only\n"

    def test_missing_spec_file(self, capsys):
        assert run(capsys, "measure", "--spec", "/no/such/file.json",
                   "--deterministic")[0] == 1


class TestQset:
    def test_members_json(self, capsys):
        _, out, _ = run(capsys, "qset", "--p", "3", "--eps", "11/75",
                        "--deterministic")
        rep = json.loads(out)["report"]
        assert rep["members"] == [3, 5, 7]
        assert rep["cutoff"] == 25 and rep["delta"] == "1/50"

    def test_csv_shape(self, capsys):
        _, out, _ = run(capsys, "qset", "--p", "3", "--eps", "11/75",
                        "--format", "csv", "--deterministic")
        lines = out.strip().splitlines()
        assert lines[0] == "q,member,witness"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["2", "3", "5", "7", "11", "13", "17", "19", "23"]
        assert all(r[1] in {"0", "1"} for r in rows)
        assert any(r[2] for r in rows if r[1] == "0")

    def test_decimal_eps_accepted(self, capsys):
        code, out, _ = run(capsys, "qset", "--p", "3", "--eps", "0.1466",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["report"]["members"] == [3, 5, 7]

    def test_guard_requires_cap(self, capsys):
        code, _, err = run(capsys, "qset", "--p", "3", "--eps", "9997/60000",
                           "--deterministic")
        assert code == 1 and "--q-max" in err
        code, out, _ = run(capsys, "qset", "--p", "3", "--eps", "9997/60000",
                           "--q-max", "50", "--deterministic")
        assert code == 0
        assert all(v["q"] <= 50 for v in json.loads(out)["report"]["verdicts"])

    def test_guard_after_a_large_prime_p(self, capsys):
        # p = 10^18 + 3 is prime; the check must not stall before the guard
        code, out, err = run(capsys, "qset", "--p", "1000000000000000003",
                             "--eps", "1/10000000000000000000000",
                             "--deterministic")
        assert code == 1 and not out and "--q-max" in err

    def test_p_past_the_primality_bound_exits_1(self, capsys):
        code, out, err = run(capsys, "qset", "--p", str(10**25),
                             "--eps", f"1/{10**26}",
                             "--deterministic")
        assert code == 1 and not out and err.startswith("error: primality")


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ("verify", "lemma-spectrum", "--trials", "20"),
        ("verify", "tadpole-closure",),
        ("verify", "tadpole-bound", "--pairs", "300"),
        ("verify", "mm-gap",),
        ("verify", "mm-gap", "--q", "151"),
        ("verify", "sr-bound", "--samples", "2000"),
        ("verify", "conversions", "--trials", "500"),
    ])
    def test_suites_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--deterministic")
        assert code == 0
        assert json.loads(out)["report"]["pass"] is True

    def test_human_verdict(self, capsys):
        _, out, _ = run(capsys, "verify", "conversions", "--trials", "100",
                        "--format", "human", "--deterministic")
        assert out.startswith("conversions: pass")

    def test_closure_budget_guard(self, capsys):
        code, _, err = run(capsys, "verify", "tadpole-closure", "--p", "5",
                           "--deterministic")
        assert code == 1 and "budget" in err

    @pytest.mark.parametrize("p", [1009, 1000003])
    def test_closure_budget_guard_at_large_p(self, capsys, p):
        # the order p^(3p-2) is compared with the budget, never built or
        # printed in full: at p = 1009 it has over 4,300 digits
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "tadpole-closure", "--p", str(p),
                           "--deterministic")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and f"would have {p}^{3 * p - 2} elements" in err
        assert "budget" in err

    @pytest.mark.parametrize("p, trials", [
        pytest.param(p, trials, id=str(p))
        for p, trials in ((103, None), (10**18 + 3, 1), (101, None))])
    def test_lemma_spectrum_refuses_p_past_its_bound(self, capsys, p, trials):
        # all are prime: 101 and 103 at the default 100 trials would run for
        # minutes, and the first trial at 10^18 + 3 would ask for a
        # (1, 10^18 + 2) array
        start = time.perf_counter()
        more = () if trials is None else ("--trials", str(trials))
        code, out, err = run(capsys, "verify", "lemma-spectrum", "--p", str(p),
                             *more, "--deterministic")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out
        assert err == ("error: lemma-spectrum checks trials * p^4 up to "
                       f"{cli.LEMMA_WORK_MAX}\n")

    def test_lemma_spectrum_bound_is_on_the_whole_run(self, capsys, monkeypatch):
        # at a bound of 2 * 3^4, p = 3 runs 2 trials and refuses 3
        monkeypatch.setattr(cli, "LEMMA_WORK_MAX", 2 * 3**4)
        code, _, _ = run(capsys, "verify", "lemma-spectrum", "--p", "3",
                         "--trials", "2", "--deterministic")
        assert code == 0
        code, out, err = run(capsys, "verify", "lemma-spectrum", "--p", "3",
                             "--trials", "3", "--deterministic")
        assert code == 1 and not out and "up to 162" in err

    def test_lemma_counterexample_keeps_exact_points(self):
        # a negative tolerance turns the first trial, an exact one, into a
        # counterexample
        args = argparse.Namespace(p=3, seed=0, trials=1, tol=-1.0)
        ok, evidence = cli._verify_lemma_spectrum(args)
        assert not ok
        d = json.loads(json.dumps(evidence))["counterexample"]["d"]
        assert all(set(x) == {"num", "den"} for x in d)
        want = random_det1_diagonal(3, np.random.default_rng(0), exact=True)
        assert tuple(_point_from_json(x) for x in d) == want


# sha256 of the stdout of ``specmul verify tadpole-bound ARGS --deterministic``
# and its exit code, as recorded when each batch became numpy's own array
# draws; the counterexample re-derives through pair_defect.
TADPOLE_BOUND_GOLDEN = {
    "--p 3 --pairs 3000 --seed 4":
        ("94f0e5ef76ca5430ccdaf8c1212a8d6e1cd83c821c165877bbe9d98225ba0567", 0),
    "--p 5":
        ("5301d2a587b58b885660a42e0bde1e9d293e9bcf3346e87d0799cb98c8e58b73", 0),
    "--p 7":
        ("2229ed95d974fb44badfc8125d9943bc05861874e95369fb61c827fd68ff0414", 0),
    # a negative tolerance makes a sampled pair the counterexample
    "--p 5 --pairs 500 --seed 1 --tol -0.001":
        ("a57e08b85940984a4ea061262d353f0bcbc4e8b33ad29eae01f400394dc27412", 2),
}


class TestVerifyTadpoleBound:
    @pytest.mark.parametrize("args", sorted(TADPOLE_BOUND_GOLDEN))
    def test_output_matches_golden(self, capsys, args):
        code, out, _ = run(capsys, "verify", "tadpole-bound", *args.split(),
                           "--deterministic")
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
            TADPOLE_BOUND_GOLDEN[args]

    def test_blocks_merge_into_the_evidence(self, monkeypatch):
        # each block is one batch: the evidence is that of the seeded blocks
        # stacked, whose first float pair past the bound lies in block 1
        monkeypatch.setattr(cli, "VERIFY_BLOCK", 128)
        args = argparse.Namespace(p=3, seed=4, pairs=700, tol=-0.0002)
        ok, evidence = cli._verify_tadpole_bound(args)
        rng = np.random.default_rng(4)
        merged = _stack([tadpole_sampler(3).batch(rng, count)
                         for count in (128,) * 5 + (60,)])
        vals = _arc_defects(*merged.spectra())
        t = int(np.flatnonzero(vals > 1 / 18 - 0.0002)[0])
        assert not ok and t >= 128
        assert evidence["max_defect"] == float(vals.max())
        assert evidence["counterexample"] == {
            "defect": float(vals[t]), "a": merged.params(t, 0).to_json_dict(),
            "b": merged.params(t, 1).to_json_dict()}
        cases = _tadpole_cases(*tadpole_sampler(3, exact=True).batch(rng, 700).k.T, 3)
        assert evidence["exact_cases"] == {str(c): int((cases == c).sum())
                                           for c in (1, 2, 3, 4)}

    def test_first_exact_failure_is_the_counterexample(self, monkeypatch):
        # exact pairs 5 and 9 get a defect just past the bound 1/18; the
        # float pairs keep theirs
        real = cli._arc_defects

        def broken(*args):
            nums = real(*args)
            if nums.dtype == np.int64:
                nums[[5, 9]] = 4
            return nums

        monkeypatch.setattr(cli, "_arc_defects", broken)
        args = argparse.Namespace(p=3, seed=4, pairs=700, tol=0.0)
        ok, evidence = cli._verify_tadpole_bound(args)
        assert not ok
        rng = np.random.default_rng(4)
        tadpole_sampler(3).batch(rng, 700)
        drawn = tadpole_sampler(3, exact=True).batch(rng, 700)
        a, b = drawn.params(5, 0), drawn.params(5, 1)
        assert evidence["counterexample"] == {
            "case": tadpole_case(a, b), "defect": "2/27",
            "a": a.to_json_dict(), "b": b.to_json_dict()}
        assert all(x.is_exact for x in a.d + b.d)
        monkeypatch.setattr(cli, "_arc_defects", real)
        assert cli._verify_tadpole_bound(args)[1]["counterexample"] is None


class TestVerifySrBound:
    ARGS = argparse.Namespace(r=0.6, dim=5, seed=9, samples=700)

    def test_blocks_merge_into_the_evidence(self, monkeypatch):
        # each block is one batch: the evidence is that of the seeded blocks
        # stacked, whose first ratio past 0.8 is sample 367, in block 2
        monkeypatch.setattr(cli, "VERIFY_BLOCK", 128)
        monkeypatch.setattr(cli, "sr_ratio_bound", lambda r: 0.8)
        ok, evidence = cli._verify_sr_bound(self.ARGS)
        rng = np.random.default_rng(9)
        sampler = sr_sampler(SrParams(0.6, 5))
        merged = _stack([sampler.batch(rng, count)
                         for count in (128,) * 5 + (60,)])
        alpha, beta, gamma = merged.eigenvalues()
        quot = gamma / _cmul(alpha, beta)
        ratio = np.hypot(quot.real - 1.0, quot.imag)
        t = int(np.flatnonzero(ratio > 0.8)[0])
        assert not ok and t == 367
        assert evidence["max_ratio"] == float(ratio.max())
        assert evidence["counterexample"] == {
            "ratio": float(ratio[t]), "bound": 0.8, "sample": t}
        assert evidence["dense_cross_checks"] == 500

    def test_first_violation_is_reported(self, monkeypatch):
        monkeypatch.setattr(cli, "sr_ratio_bound", lambda r: 0.26)
        monkeypatch.setattr(cli, "VERIFY_BLOCK", 2)
        args = argparse.Namespace(r=0.5, dim=4, seed=3, samples=10)
        ok, evidence = cli._verify_sr_bound(args)
        assert not ok
        # sample 5 of this stream, the second of block 2, is the first whose
        # ratio exceeds 0.26 (|sr_pair_gamma / (alpha beta) - 1| agrees)
        assert evidence["counterexample"] == {
            "ratio": 0.26951284964814487, "bound": 0.26, "sample": 5}


class TestPlotdata:
    def test_sets_present(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        run(capsys, "measure", "--builtin", "q8", "--deterministic",
            "--out", str(rep))
        code, out, _ = run(capsys, "plotdata", str(rep))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "set_name,angle,exact"
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert names == {"sigma_a", "sigma_b", "sigma_ab", "product",
                         "witness_gamma", "witness_alpha", "witness_beta"}

    def test_empty_report_gives_header_only(self, capsys, tmp_path):
        rep = tmp_path / "empty.json"
        rep.write_text(json.dumps({"report": {"worst": None}}))
        code, out, _ = run(capsys, "plotdata", str(rep))
        assert code == 0
        assert out == "set_name,angle,exact\n"

    def test_missing_file(self, capsys):
        assert run(capsys, "plotdata", "/no/such/report.json")[0] == 1

    @pytest.mark.parametrize("payload", [
        [1, 2],
        "x",
        {"worst": [1]},
        {"worst": {"spectra": {"a": [5]}}},
        {"report": {"worst": {"witness": []}}},
    ], ids=["list", "string", "worst-list", "int-point", "witness-list"])
    def test_malformed_report_exits_1(self, capsys, tmp_path, payload):
        rep = tmp_path / "bad.json"
        rep.write_text(json.dumps(payload))
        code, out, err = run(capsys, "plotdata", str(rep))
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        '{"report": {"worst": %s}}' % ("[" * 5000 + "]" * 5000),
        '{"report": {"worst": {"spectra": {"a": [{"num": 0.5, "den": 2}]}}}}',
        '{"report": {"worst": {"witness": {"gamma": {"num": 1, "den": true}}}}}',
    ], ids=["nested", "num-float", "den-bool"])
    def test_report_refused_with_one_line(self, capsys, tmp_path, text):
        rep = tmp_path / "bad.json"
        rep.write_text(text)
        code, out, err = run(capsys, "plotdata", str(rep))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed ") and err.count("\n") == 1

    # JSON text, since json.dumps cannot write an overflowing literal
    @pytest.mark.parametrize("point", [
        '{"angle": NaN}',
        '{"angle": 1e400}',
        '{"angle": 0.25, "err": Infinity}',
        '{"re": NaN, "im": 0.0}',
        '{"re": 1.0, "im": -1e400}',
        '{"num": Infinity, "den": 4}',
        '{"num": 1, "den": -Infinity}',
    ], ids=["angle-nan", "angle-overflow", "err-inf", "re-nan", "im-overflow",
            "num-inf", "den-inf"])
    @pytest.mark.parametrize("where", ["spectrum", "witness"])
    def test_non_finite_point_exits_1(self, capsys, tmp_path, point, where):
        worst = ('{"spectra": {"a": [%s]}}' if where == "spectrum"
                 else '{"witness": {"gamma": %s}}') % point
        rep = tmp_path / "bad.json"
        rep.write_text('{"report": {"worst": %s}}' % worst)
        code, out, err = run(capsys, "plotdata", str(rep))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed eigenvalue")

    # sha256 of the CSV of an exact, a float-angle and a complex-eigenvalue
    # report, recorded before non-finite points were rejected (the sampled
    # two again when each batch became numpy's own array draws)
    @pytest.mark.parametrize("argv,digest", [
        (("--builtin", "q8"),
         "82ea9c946ed707150ab669fd222632c8e8ff6d9f45a95424e484b0b9fd4a1e13"),
        (("--builtin", "tadpole", "--p", "3", "--pairs", "50", "--seed", "3"),
         "a1f831a0bb08d1cf8df13fc15efdc7d480984bfced367d20ca620e772fc8fdac"),
        (("--builtin", "sr", "--pairs", "50", "--seed", "3"),
         "6b81503b6a446f0d1711c3cba990abbea7a5b3e14f31a3ae129976da151358ba"),
    ], ids=["q8", "tadpole", "sr"])
    def test_valid_report_csv_is_unchanged(self, capsys, tmp_path, argv, digest):
        rep = tmp_path / "rep.json"
        assert run(capsys, "measure", *argv, "--deterministic",
                   "--out", str(rep))[0] == 0
        code, out, _ = run(capsys, "plotdata", str(rep))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBuild:
    def test_tadpole_pair_round_trips(self, capsys):
        _, out, _ = run(capsys, "build", "tadpole-pair", "--p", "5", "--k", "2",
                        "--deterministic")
        rep = json.loads(out)["report"]
        a, b = (matrix_from_json(g) for g in rep["generators"])
        assert pair_defect(a, b).defect_exact == Fraction(1, 50)

    def test_q8_and_cyclic(self, capsys):
        _, out, _ = run(capsys, "build", "q8", "--deterministic")
        gens = [matrix_from_json(g)
                for g in json.loads(out)["report"]["generators"]]
        assert all(g.dim == 2 for g in gens)
        _, out, _ = run(capsys, "build", "cyclic", "--p", "7", "--deterministic")
        assert json.loads(out)["report"]["p"] == 7

    @pytest.mark.parametrize("argv", [
        ("q8",), ("cyclic", "--p", "7"), ("tadpole-pair", "--p", "5", "--k", "2"),
        ("miller-moreno", "--p", "7", "--q", "43"),
    ], ids=["q8", "cyclic", "tadpole-pair", "miller-moreno"])
    def test_every_target_reads_back_equal(self, capsys, argv):
        _, out, _ = run(capsys, "build", *argv, "--deterministic")
        rep = json.loads(out)["report"]
        for g in rep["generators"]:
            assert matrix_to_json(matrix_from_json(g)) == g
        for params in rep.get("params", {}).values():
            assert TadpoleParams.from_json_dict(params).to_json_dict() == params

    def test_miller_moreno_payload(self, capsys):
        _, out, _ = run(capsys, "build", "miller-moreno", "--deterministic")
        rep = json.loads(out)["report"]
        assert rep["n"] == 3
        assert len(rep["generators"]) == 2


class TestWorkersDefault:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SPECMUL_WORKERS", "2")
        assert cli._default_workers() == 2
        monkeypatch.setenv("SPECMUL_WORKERS", "junk")
        assert cli._default_workers() >= 1


def test_installed_entry_point_smoke():
    # the child interpreter gets ``src/`` too, as the test process does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "specmul.cli", "measure", "--builtin", "q8",
         "--deterministic"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["epsilon_exact"] == "1/4"
