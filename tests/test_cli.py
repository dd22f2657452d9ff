"""CLI: exit codes, output formats, determinism, infinity serialization."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equicount import cli, montecarlo, sphere_field
from equicount.cli import main
from equicount.errors import EigensolverError
from equicount.rates import rate_lagrange_window


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


class TestRatesCommand:
    def test_hand_value_row(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "r.csv", ["rates", "--b", "0.5", "--tau", "0", "--m", "1"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "b,tau,gamma_or_c,branch,rate"
        rate = float(lines[2].split(",")[-1])
        assert rate == pytest.approx(-0.8068528194400547, abs=1e-12)

    def test_constraint_violation_exit_2(self, capsys):
        assert main(["rates", "--b", "1.5", "--tau", "0"]) == 2
        assert "constraint" in capsys.readouterr().err

    def test_single_point_grid_one_row(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "g.csv", ["rates", "--b-grid", "0.5:0.5:1", "--tau", "0.2"]
        )
        assert len(text.strip().splitlines()) == 3  # config + header + 1 row

    def test_gamma_half_rate_is_log_inverse_b(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "gg.csv",
            ["rates", "--b", "0.5", "--tau", "0.2", "--gamma-grid", "0.5:0.5:1"],
        )
        row = text.strip().splitlines()[-1].split(",")
        assert row[3] == "diverging"
        assert float(row[4]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_missing_b_exit_2(self):
        assert main(["rates", "--tau", "0.2"]) == 2

    def test_json_format_schema(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "r.json", ["rates", "--b", "0.5", "--tau", "0", "--format", "json"]
        )
        record = json.loads(text)
        assert set(record) == {"op", "params", "results", "version"}
        assert record["results"][0]["rate"] == pytest.approx(-0.8068528194400547)

    def test_json_tagged_infinity(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "l.json",
            ["lagrange-rates", "--b", "0.5", "--tau", "0.2", "--dphi1", "2",
             "--m", "1", "--c=-inf", "--d", "1.0", "--format", "json"],
        )
        record = json.loads(text)
        assert record["results"][0]["rate"] == {"kind": "-inf"}


class TestThresholdCurveCommand:
    def test_row_count_and_identity(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "t.csv", ["threshold-curve", "--b-grid", "0.05:0.95:100"]
        )
        assert code == 0
        rows = text.strip().splitlines()[2:]
        assert len(rows) == 100
        assert all(abs(float(r.split(",")[2])) < 1e-12 for r in rows)


class TestLagrangeRatesCommand:
    def test_minus_inf_literal(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "l.csv",
            ["lagrange-rates", "--b", "0.5", "--tau", "0.2", "--dphi1", "2",
             "--m", "1", "--c=-inf", "--d", "1.0"],
        )
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[-1] == "-inf"

    def test_cutoff_when_the_threshold_quotient_rounds_low(self, tmp_path):
        # (1 + tau) sqrt(7) / sqrt(7) rounds below 1 + tau = 1.9; the cutoff
        # search must still start from the fixed-index rate there.
        code, text = run_to_file(
            tmp_path, "l.csv",
            ["lagrange-rates", "--b", "0.5", "--tau", "0.9", "--dphi1", "7", "--m", "1",
             "--c", "3", "--with-cutoff"],
        )
        assert code == 0
        cutoff = text.strip().splitlines()[-1].split(",")
        assert cutoff[3] == "cutoff" and float(cutoff[2]) > 1.9 * math.sqrt(7.0)

    def test_cutoff_at_huge_dphi1(self, tmp_path):
        # The cutoff, about 1.5e6, has a float spacing above the bisection's
        # tol; the search still ends.
        code, text = run_to_file(
            tmp_path, "l.csv",
            ["lagrange-rates", "--b", "0.3", "--tau", "0.5", "--dphi1", "1e12", "--with-cutoff"],
        )
        assert code == 0
        cutoff = text.strip().splitlines()[-1].split(",")
        assert cutoff[3] == "cutoff" and float(cutoff[2]) == pytest.approx(1529588.7702846)

    def test_overflowing_window_start_rate_is_minus_inf(self, tmp_path):
        # (c / sqrt(dphi1))^2 overflows; the rate function is then +inf, not NaN.
        code, text = run_to_file(
            tmp_path, "l.csv",
            ["lagrange-rates", "--b", "0.5", "--tau", "0.3", "--dphi1", "2", "--c", "1e200"],
        )
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[3:] == ["lagrange_above", "-inf"]

    def test_straddle_matches_rates_command(self, tmp_path):
        _, straddle = run_to_file(
            tmp_path, "a.csv",
            ["lagrange-rates", "--b", "0.5", "--tau", "0.2", "--dphi1", "2",
             "--m", "0", "--c=-inf", "--d", "inf"],
        )
        _, fixed = run_to_file(tmp_path, "b.csv", ["rates", "--b", "0.5", "--tau", "0.2"])
        assert straddle.splitlines()[-1].split(",")[-1] == fixed.splitlines()[-1].split(",")[-1]


class TestEstimateCommand:
    def test_json_schema_and_determinism(self, tmp_path):
        argv = [
            "estimate", "--n", "2", "--m", "0", "--phi1", "1", "--dphi1", "2",
            "--phi2", "0", "--sigma2", "0.25", "--trials", "20000", "--seed", "9",
        ]
        code1, text1 = run_to_file(tmp_path, "e1.json", argv)
        code2, text2 = run_to_file(tmp_path, "e2.json", argv)
        assert code1 == code2 == 0
        assert text1 == text2  # byte-identical reruns
        record = json.loads(text1)
        assert record["op"] == "estimate"
        assert record["params"]["tau"] == 0.0
        assert record["params"]["b"] == pytest.approx(math.sqrt(0.625))
        assert record["n_trials"] == 20000
        assert record["mean"] > 0.0 and record["stderr"] > 0.0

    def test_sidecar_log_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "e.json"
        main([
            "estimate", "--n", "2", "--m", "0", "--phi1", "1", "--dphi1", "2",
            "--phi2", "0", "--sigma2", "0.25", "--trials", "1000", "--seed", "9",
            "--out", str(out),
        ])
        log = (tmp_path / "e.json.log").read_text().splitlines()
        assert f"eigensolve workers at n >= 4: {montecarlo.eig_workers(4)}" in log
        assert "OMP_NUM_THREADS=1" in log and "MKL_NUM_THREADS=(unset)" in log
        assert any(line.startswith("OPENBLAS_NUM_THREADS=") for line in log)
        if cli.resource is not None:  # both lines are skipped without it
            assert any(line.startswith("peak resident memory MiB: ") for line in log)
            assert any(line.startswith("cpu seconds: ") for line in log)

    def test_numbers_pinned(self, tmp_path):
        # Recorded while the command still took --index-variant (default m+1)
        # and wrote it into params; the numbers must not move. The paired
        # estimator leaves them as they were: at n = 3 the mirror of rank 2
        # is rank 2, so on the whole line m = 1 averages one reading with itself.
        code, text = run_to_file(tmp_path, "e.json", [
            "estimate", "--n", "3", "--m", "1", "--phi1", "1", "--dphi1", "2", "--phi2", "0",
            "--sigma2", "0.25", "--trials", "20000", "--seed", "1",
        ])
        assert code == 0
        record = json.loads(text)
        assert "index_variant" not in record["params"]
        assert (record["mean"], record["stderr"], record["n_trials"]) == (
            1.2468963075758928, 0.012256077235647998, 20000)

    def test_bad_model_params_exit_2(self):
        code = main([
            "estimate", "--n", "2", "--m", "0", "--phi1", "1", "--dphi1", "2",
            "--phi2", "2.5", "--sigma2", "0.25", "--trials", "100",
        ])
        assert code == 2


class TestSampleGeeCommand:
    def test_spectra_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "s.csv",
            ["sample-gee", "--n", "3", "--tau", "0.2", "--trials", "4", "--seed", "3"],
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[1] == "trial_index,j,re,im,is_real"
        assert len(lines) == 2 + 4 * 3

    def test_trial_index_runs_across_batches(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "s.csv",
            ["sample-gee", "--n", "4", "--tau", "0.2", "--trials", "2100", "--seed", "3"],
        )
        assert code == 0
        trials = [int(line.split(",")[0]) for line in text.strip().splitlines()[2:]]
        assert trials == [t for t in range(2100) for _ in range(4)]


    def test_streamed_csv_bytes_pinned(self, tmp_path):
        # Three batches written one at a time; digest recorded when the whole
        # table was built in memory before writing.
        out = tmp_path / "s.csv"
        assert main(["sample-gee", "--n", "4", "--tau", "0.2", "--trials", "2100", "--seed", "3",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fb16f8d1292455158fb60dc11dfdd8ea30bf0e7fce9e9c67f8745aaf1e595588")

    @pytest.mark.parametrize("n, digest", [
        ("2", "5b1e74513e9b442405658a2088c883fb9770e5f920303de13dc396648ac6e1f0"),
        ("3", "426f4900a7bbe13c3721bb61997e2c17bca131f0aea89b9999de9b5be8b4d8e2"),
    ])
    def test_closed_form_spectra_bytes_pinned(self, tmp_path, n, digest):
        # Every ordered eigenvalue of the n <= 3 closed forms, signs of zero
        # included; digests recorded while those spectra were argsorted.
        out = tmp_path / "s.csv"
        assert main(["sample-gee", "--n", n, "--tau", "0.2", "--trials", "5000", "--seed", "3",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_failure_after_first_batch_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        batch = montecarlo._eig_batch

        def second_batch_fails(n, tau, seed, index, *rest):
            if index == 1:
                raise EigensolverError("no convergence")
            return batch(n, tau, seed, index, *rest)

        monkeypatch.setattr(montecarlo, "_eig_batch", second_batch_fails)
        out = tmp_path / "s.csv"
        code = main(["sample-gee", "--n", "3", "--tau", "0.2", "--trials", "2100", "--seed", "3",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 6 and "numerical failure" in err and "no convergence" in err
        assert not out.exists()


class TestVerifyCommand:
    def test_gate_passes_on_identity(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "v.json",
            ["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0.0",
             "--trials", "40000", "--seed", "7"],
        )
        assert code == 0
        assert json.loads(text)["z_score"] < 3.0

    def test_window_without_support_fails_gate(self, tmp_path, capsys):
        # No spectrum reaches [10, 11): both sides are exactly 0 with zero
        # standard error, a z-score of 0 that must not pass.
        code, text = run_to_file(
            tmp_path, "v.json",
            ["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0.3", "--lo", "10",
             "--hi", "11", "--trials", "1000", "--seed", "1"],
        )
        assert code == 5
        assert json.loads(text)["z_score"] == 0.0
        err = capsys.readouterr().err
        assert "0 lhs and 0 rhs contributing trials" in err

    def test_mirror_reading_needs_its_own_support(self, tmp_path, monkeypatch, capsys):
        # Pairing must not loosen the gate: a right side whose mirror reading
        # has 29 contributing trials fails however many the direct one has.
        real = cli.verify_dimension_lift

        def short_mirror(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), rhs_mirror_support=29)

        monkeypatch.setattr(cli, "verify_dimension_lift", short_mirror)
        code, _ = run_to_file(
            tmp_path, "v.json",
            ["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0.3",
             "--trials", "20000", "--seed", "7"],
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "29 on the rhs mirror reading; needs >= 30 on each" in err

    def test_bytes_pinned(self, tmp_path):
        # Digest recorded once the right side averaged each trial with its mirror.
        out = tmp_path / "v.json"
        assert main(["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0.3",
                     "--trials", "20000", "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3c322ebc8f33cd75be19159adae65d100c30f4988cceaf56574d014e86cd3776")


class TestOracleCompareCommand:
    def test_equilibria_dump_schema(self, tmp_path):
        dump = tmp_path / "eq.csv"
        out = tmp_path / "oc.json"
        code = main([
            "oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "60",
            "--trials", "60000", "--seed", "4",
            "--dump-equilibria", str(dump), "--out", str(out),
        ])
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[1] == "sample_index,eq_index,m,lagrange,x0,x1,residual"
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert abs(float(first[4]) ** 2 + float(first[5]) ** 2 - 2.0) < 1e-9
        record = json.loads(out.read_text())
        assert record["flagged_rate"] < 0.01

    def test_flag_reasons_go_to_sidecar(self, tmp_path, monkeypatch):
        # A Jacobian eigenvalue floor far above rounding flags the samples
        # with a shallow root; the record keeps only the rate.
        monkeypatch.setattr(sphere_field, "_JACOBIAN_EIG_FLOOR", 0.5)
        out = tmp_path / "oc.json"
        code = main(["oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "200",
                     "--trials", "1000", "--seed", "4", "--out", str(out)])
        assert code in (0, 3)
        flagged = round(json.loads(out.read_text())["flagged_rate"] * 200)
        assert 0 < flagged < 200
        log = (tmp_path / "oc.json.log").read_text().splitlines()
        assert [line for line in log if line.startswith("flagged ")] == [
            f"flagged near-zero-jacobian-eigenvalue: {flagged}"]
        assert "flagged" not in out.read_text().replace("flagged_rate", "")

    def test_every_sample_flagged_is_a_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(sphere_field, "_JACOBIAN_EIG_FLOOR", math.inf)
        code = main(["oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "20",
                     "--trials", "1000", "--seed", "4"])
        err = capsys.readouterr().err
        assert code == 6 and "numerical failure" in err and "all-samples-flagged" in err

    @pytest.mark.parametrize("flag, value, bound", [
        ("--samples", "0", "--samples >= 2"),
        ("--samples", "1", "--samples >= 2"),
        ("--trials", "0", "--trials >= 1"),
    ])
    def test_bad_sizes_rejected_before_work(self, monkeypatch, capsys, flag, value, bound):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the inputs were checked")

        monkeypatch.setattr(cli, "oracle_mean_counts", no_oracle)
        argv = ["oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "50",
                "--trials", "1000", "--seed", "4"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "constraint" in err and bound in err


class TestSeedEnvironment:
    """EQUICOUNT_SEED is the default of --seed: only a command that takes a
    seed and is run without --seed reads it."""

    SAMPLE = ["sample-gee", "--n", "2", "--tau", "0", "--trials", "3"]

    def test_bad_value_leaves_other_commands_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EQUICOUNT_SEED", "abc")
        code, _ = run_to_file(tmp_path, "r.csv", ["rates", "--b", "0.5", "--tau", "0"])
        assert code == 0
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_bad_value_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("EQUICOUNT_SEED", "abc")
        with pytest.raises(SystemExit) as info:
            main(self.SAMPLE)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "EQUICOUNT_SEED" in err and "'abc'" in err

    def test_flag_overrides_bad_value(self, tmp_path, monkeypatch):
        want = run_to_file(tmp_path, "want.csv", self.SAMPLE + ["--seed", "3"])
        monkeypatch.setenv("EQUICOUNT_SEED", "abc")
        assert run_to_file(tmp_path, "got.csv", self.SAMPLE + ["--seed", "3"]) == want

    def test_valid_value_matches_flag(self, tmp_path, monkeypatch):
        out = tmp_path / "flag.csv"
        assert main(self.SAMPLE + ["--seed", "7", "--out", str(out)]) == 0
        monkeypatch.setenv("EQUICOUNT_SEED", "7")
        code, text = run_to_file(tmp_path, "env.csv", self.SAMPLE)
        assert code == 0 and text.encode() == out.read_bytes()
        assert text != run_to_file(tmp_path, "zero.csv", self.SAMPLE + ["--seed", "0"])[1]


class TestSGammaCommand:
    def test_round_trip(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "g.csv", ["s-gamma", "--gamma", "0.25", "--tau", "0.3"]
        )
        assert code == 0
        row = text.strip().splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(0.25, abs=1e-10)


class TestLdpTailCommand:
    def test_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "d.csv",
            ["ldp-tail", "--n-list", "6,8", "--m", "1", "--x", "1.3", "--tau", "0",
             "--trials", "2000", "--seed", "5"],
        )
        assert code == 0
        rows = text.strip().splitlines()[2:]
        assert len(rows) == 2
        assert rows[0].split(",")[0] == "6"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sidecar_counts_eigensolves_and_leaves_data_alone(self, tmp_path, capsys, fmt):
        """The data file carries the bytes printed without a sidecar; the
        sidecar says how many trials per size went to the eigensolver: all at
        the closed-form size 3, fewer where the screen rules trials out."""
        argv = ["ldp-tail", "--n-list", "3,8", "--x", "1.2", "--tau", "0", "--trials", "3000",
                "--seed", "2", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        code, written = run_to_file(tmp_path, "t", argv)
        assert code == 0 and written == printed
        log = (tmp_path / "t.log").read_text()
        assert "n=3: eigensolved 3000 of 3000\n" in log
        eigensolved = int(re.search(r"^n=8: eigensolved (\d+) of 3000$", log, re.M).group(1))
        assert 0 < eigensolved < 3000

    def test_pooled_bytes_pinned(self, tmp_path):
        # Three 4096-trial batches per size at n >= 4 go through the thread
        # pool; digest recorded while every estimator took a batch_size.
        out = tmp_path / "l.csv"
        assert main(["ldp-tail", "--n-list", "5,8", "--x", "1.2", "--tau", "0",
                     "--trials", "9000", "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7b138ee67fbe69fafad4bf23b11a2d977fb75e6e339e8d58cbeb40a00ee4057d")

    def test_near_edge_bytes_pinned(self, tmp_path):
        # x = 1.02 lies just past the edge, where the screen rules out fewer
        # trials; digest recorded while those sizes were all eigensolved.
        out = tmp_path / "e.csv"
        assert main(["ldp-tail", "--n-list", "20,40", "--x", "1.02", "--tau", "0",
                     "--trials", "5000", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6dd5796754ec8ed50a6da875a5ae14f2d2ed9da3398a024238e228754698f48e")
        log = (tmp_path / "e.csv.log").read_text()
        counts = re.findall(r"^n=\d+: eigensolved (\d+) of 5000$", log, re.M)
        assert len(counts) == 2 and all(0 < int(c) < 5000 for c in counts)


@pytest.mark.parametrize("detached, attached", [
    (["lagrange-rates", "--b", "0.2", "--tau", "-1e-05", "--dphi1", "2", "--m", "1",
      "--c", "-inf", "--d", "1.0"],
     ["lagrange-rates", "--b", "0.2", "--tau=-1e-05", "--dphi1", "2", "--m", "1",
      "--c=-inf", "--d", "1.0"]),
    (["sample-gee", "--n", "5", "--tau", "-1e-05", "--trials", "30", "--seed", "-2"],
     ["sample-gee", "--n", "5", "--tau=-1e-05", "--trials", "30", "--seed=-2"]),
    (["rates", "--b", "0.5", "--tau", "-2E-1", "--format", "json"],
     ["rates", "--b", "0.5", "--tau=-2E-1", "--format", "json"]),
    (["rates", "--b-grid", "0.5:0.9:5", "--tau-grid", "-0.2:0.5:5"],
     ["rates", "--b-grid", "0.5:0.9:5", "--tau-grid=-0.2:0.5:5"]),
], ids=["lagrange-rates", "sample-gee", "rates", "rates-grid"])
def test_detached_negative_value_reads_like_attached(tmp_path, detached, attached):
    code1, text1 = run_to_file(tmp_path, "detached", detached)
    code2, text2 = run_to_file(tmp_path, "attached", attached)
    assert code1 == code2 == 0
    assert text1 == text2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
@pytest.mark.parametrize("argv", [
    ["sample-gee", "--n", "6", "--tau", "0.3", "--trials", "2100"],
    ["ldp-tail", "--n-list", "5,8", "--x", "1.2", "--tau", "0", "--trials", "9000"],
], ids=["sample-gee", "ldp-tail"])
def test_data_bytes_do_not_depend_on_cpu_count(tmp_path, argv):
    mask = os.sched_getaffinity(0)
    code_pool, pooled = run_to_file(tmp_path, "pool", argv + ["--seed", "8"])
    os.sched_setaffinity(0, {min(mask)})
    try:
        code_one, single = run_to_file(tmp_path, "one", argv + ["--seed", "8"])
        one_log = (tmp_path / "one.log").read_text()
    finally:
        os.sched_setaffinity(0, mask)
    assert code_pool == code_one == 0
    assert pooled == single
    assert f"eigensolve workers at n >= 4: {len(mask)}\n" in (tmp_path / "pool.log").read_text()
    assert "eigensolve workers at n >= 4: 1\n" in one_log


def _refuse_sampling(monkeypatch):
    """Make every ensemble draw fail, so a command that starts work is caught."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("matrices were sampled before the inputs were checked")

    monkeypatch.setattr(montecarlo, "sample_gee_entries", no_sampling)


ESTIMATE = ["estimate", "--n", "3", "--m", "0", "--phi1", "1", "--dphi1", "2",
            "--phi2", "0", "--sigma2", "0.25"]
LAGRANGE = ["lagrange-rates", "--b", "0.8", "--tau", "0", "--dphi1", "2"]


@pytest.mark.parametrize("argv, keys", [
    (["spectral-test", "--n", "50", "--tau", "0.3", "--trials", "2"], {"ks_distance"}),
    (ESTIMATE + ["--trials", "1000"], {"mean", "stderr", "n_trials"}),
    (["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0", "--trials", "2000"],
     {"results", "z_score"}),
    (["oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "10", "--trials", "1000"],
     {"results", "total", "flagged_rate"}),
    (["ldp-tail", "--n-list", "4", "--x", "1.3", "--tau", "0", "--trials", "100",
      "--format", "json"], {"results"}),
], ids=["spectral-test", "estimate", "verify-uppingdim", "oracle-compare", "ldp-tail"])
def test_json_record_top_level_keys(tmp_path, argv, keys):
    code, text = run_to_file(tmp_path, "r.json", argv + ["--seed", "3"])
    assert code == 0
    record = json.loads(text)
    assert set(record) == {"op", "params", "seed", "version"} | keys
    assert record["op"] == argv[0] and record["seed"] == 3
    assert not {"command", "seed"} & set(record["params"])  # each said once, at the top


@pytest.mark.parametrize("argv, bound", [
    (["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0", "--trials", "1"],
     "--trials >= 2"),
    (ESTIMATE + ["--trials", "0"], "--trials >= 1"),
    (["ldp-tail", "--n-list", "10", "--x", "1.3", "--tau", "0", "--trials", "0"],
     "--trials >= 1"),
    (["ldp-tail", "--n-list", "10,x", "--x", "1.3", "--tau", "0", "--trials", "10"],
     "comma-separated integers"),
    (["ldp-tail", "--n-list", "10,0", "--x", "1.3", "--tau", "0", "--trials", "10"],
     "m <= n"),
    (["sample-gee", "--n", "0", "--tau", "0.2", "--trials", "4"], "--n >= 1"),
    (["spectral-test", "--n", "60", "--tau", "1.0", "--trials", "2"], "-1 < tau < 1"),
    (ESTIMATE + ["--trials", "10", "--index-variant", "m"],
     "unrecognized arguments: --index-variant m"),
    (ESTIMATE + ["--trials", "10", "--m", "3"], "requires 0 <= m <= n-1, got m=3, n=3"),
    (["rates", "--b-grid", "0.1:0.9:0", "--tau", "0"], "'0.1:0.9:0'; requires count >= 1"),
    (["rates", "--b", "0.5", "--tau-grid", "0:0.5:0"], "'0:0.5:0'; requires count >= 1"),
    (["rates", "--b", "0.5", "--tau", "0", "--gamma-grid", "0.1:0.5:0"],
     "'0.1:0.5:0'; requires count >= 1"),
    (["threshold-curve", "--b-grid", "0.1:0.9:0"], "'0.1:0.9:0'; requires count >= 1"),
    (LAGRANGE + ["--c", "abc"], "argument --c: invalid float value: 'abc'"),
    (ESTIMATE + ["--trials", "10", "--lo", "abc"], "argument --lo: invalid float value: 'abc'"),
    (["ldp-tail", "--n-list", "10", "--x", "inf", "--tau", "0", "--trials", "10"],
     "argument --x: 'inf' is not a finite number"),
    (ESTIMATE + ["--trials", "10", "--sigma2", "inf"],
     "argument --sigma2: 'inf' is not a finite number"),
    (LAGRANGE + ["--dphi1", "inf"], "argument --dphi1: 'inf' is not a finite number"),
    (["s-gamma", "--gamma", "0.25", "--tau", "0.3", "--tol", "nan"],
     "argument --tol: 'nan' is not a finite number"),
    (["rates", "--b", "0.5", "--tau-grid", "0:inf:3"],
     "'0:inf:3'; requires finite start and stop"),
    (["threshold-curve", "--b-grid", "0.1:nan:2"], "'0.1:nan:2'; requires finite start and stop"),
], ids=["verify-trials-1", "estimate-trials-0", "ldp-trials-0", "ldp-n-list-junk",
        "ldp-n-below-m", "sample-gee-n-0", "spectral-tau-1", "estimate-index-variant",
        "estimate-m-above-n-1", "rates-b-grid-0", "rates-tau-grid-0", "rates-gamma-grid-0",
        "threshold-b-grid-0", "lagrange-c-junk", "estimate-lo-junk", "ldp-x-inf",
        "estimate-sigma2-inf", "lagrange-dphi1-inf", "s-gamma-tol-nan", "rates-tau-grid-inf",
        "threshold-b-grid-nan"])
def test_bad_arguments_rejected_before_work(monkeypatch, capsys, argv, bound):
    _refuse_sampling(monkeypatch)
    seedless = ("rates", "threshold-curve", "s-gamma", "lagrange-rates")
    seed = [] if argv[0] in seedless else ["--seed", "4"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the message
            code = main(argv + seed)
        kind = "parameter constraint violated"
    except SystemExit as exc:  # argparse's usage error
        code, kind = exc.code, "usage: equicount"
    assert code == 2
    err = capsys.readouterr().err
    assert kind in err and bound in err


def test_readme_commands_parse():
    # Every line of the README's command block must parse as written, so a
    # documented flag that the CLI drops fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("equicount ")]
    parser = cli._build_parser()
    for argv in lines:
        parser.parse_args(cli._attach_negative_values(argv[1:]))
    assert {argv[1] for argv in lines} == set(cli._COMMAND_STREAMS)


_TAUS = st.one_of(st.floats(-1.2, 1.2), st.sampled_from(["1.0", "-1.0", "nan", "inf"]))
_N_LISTS = st.one_of(
    st.lists(st.integers(-1, 6), max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["", ",", "4,x", "2.5", "1e1"]),
)


@st.composite
def _small_argv(draw):
    trials = str(draw(st.integers(-2, 3)))
    n = str(draw(st.integers(-1, 5)))
    tau = str(draw(_TAUS))
    return draw(st.sampled_from([
        ["sample-gee", "--n", n, "--tau", tau, "--trials", trials],
        ["spectral-test", "--n", str(draw(st.sampled_from([n, "50"]))), "--tau", tau,
         "--trials", trials],
        ESTIMATE[:2] + [n] + ESTIMATE[3:] + ["--trials", trials],
        ["verify-uppingdim", "--n", n, "--m", "1", "--tau", tau, "--trials", trials],
        ["ldp-tail", "--n-list", draw(_N_LISTS), "--x", "1.3", "--tau", tau,
         "--trials", trials],
    ]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_argv())
def test_fuzzed_sizes_end_in_documented_exit_codes(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--seed", "1"])
        except SystemExit as exc:  # argparse's usage error, e.g. "--trials 1.5"
            code = exc.code
    assert code in (0, 2, 3, 4, 5, 6)


def _reject_constant(name):
    raise AssertionError(f"JSON output holds the non-standard constant {name}")


@pytest.mark.parametrize("argv, path, value", [
    (ESTIMATE + ["--trials", "100", "--lo", "-inf", "--hi", "1"], ["params", "lo"],
     {"kind": "-inf"}),
    (LAGRANGE + ["--c=-inf", "--d", "1.0"], ["c"], {"kind": "-inf"}),
    (LAGRANGE + ["--c=-inf", "--d", "1.0", "--format", "json"], ["params", "c"],
     {"kind": "-inf"}),
    (["ldp-tail", "--n-list", "4", "--x", "1e200", "--tau", "0", "--trials", "50",
      "--format", "json"], ["results", 0, "reference"], {"kind": "inf"}),
], ids=["estimate", "lagrange-csv-config", "lagrange-json", "ldp-tail-json"])
def test_json_is_strict_with_tagged_infinities(argv, path, value):
    # A record, or a CSV table's config comment, is standard JSON: infinite
    # parameters and cells are tagged, and no NaN or Infinity appears.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    if text.startswith("# config: "):
        text = text.splitlines()[0].removeprefix("# config: ")
    found = json.loads(text, parse_constant=_reject_constant)
    for key in path:
        found = found[key]
    assert found == value


def _table_both_ways(argv):
    """Run a table command in CSV and in JSON; return its exit code and the
    two tables decoded back to typed rows, or None when it failed.

    CSV cells go through float() where they parse (so "inf" and "-inf" come
    back as infinities); JSON must be strict, with infinities tagged."""
    tables = []
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--format", fmt])
        if code != 0:
            return code, None
        if fmt == "csv":
            header, *rows = csv.reader(out.getvalue().splitlines()[1:])
            tables.append([{k: _csv_value(v) for k, v in zip(header, row)} for row in rows])
        else:
            record = json.loads(out.getvalue(), parse_constant=_reject_constant)
            tables.append([{k: float(v["kind"]) if isinstance(v, dict) else v
                            for k, v in row.items()} for row in record["results"]])
    return 0, tables


def _csv_value(cell):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


_WINDOW_ENDS = st.one_of(st.just(-math.inf), st.just(math.inf), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b=st.floats(0.05, 0.95), tau=st.floats(-0.9, 0.9), dphi1=st.floats(0.5, 4.0),
       m=st.integers(0, 3), c=_WINDOW_ENDS, d=_WINDOW_ENDS)
@example(b=0.5, tau=0.2, dphi1=2.0, m=1, c=-math.inf, d=1.0)  # rate -inf
@example(b=0.5, tau=0.2, dphi1=2.0, m=0, c=-math.inf, d=math.inf)
def test_lagrange_rates_infinities_round_trip(b, tau, dphi1, m, c, d):
    assume(c < d)
    argv = ["lagrange-rates", f"--b={b!r}", f"--tau={tau!r}", f"--dphi1={dphi1!r}",
            f"--m={m}", f"--c={c!r}", f"--d={d!r}"]
    code, tables = _table_both_ways(argv)
    assume(code == 0)
    want = rate_lagrange_window(b, tau, dphi1, m, c, d)
    for rows in tables:
        assert rows == [{"b": b, "tau": tau, "gamma_or_c": c, "branch": want.branch,
                         "rate": want.rate}]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(x=st.floats(1.5, 6.0), trials=st.integers(1, 40), seed=st.integers(0, 2**31))
@example(x=5.0, trials=5, seed=1)  # no hits: rate_hat = inf
def test_ldp_tail_infinities_round_trip(x, trials, seed):
    argv = ["ldp-tail", "--n-list", "4,6", "--m", "1", f"--x={x!r}", "--tau", "0",
            "--trials", str(trials), "--seed", str(seed)]
    code, tables = _table_both_ways(argv)
    assert code == 0
    from_csv, from_json = tables
    assert from_csv == from_json
    for row in from_csv:
        assert math.isinf(row["rate_hat"]) == (row["hits"] == 0)
