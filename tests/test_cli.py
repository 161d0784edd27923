"""End-to-end tests for the command line interface, run in-process (one
also runs a fresh process to compare its manifest)."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compound_fsc
from compound_fsc import CompoundFamily, bsc, ge_gap_family, save_family
from compound_fsc.channel import make_memoryless
from compound_fsc.capacity import GAP_TOL
from compound_fsc.cli import build_parser, main
from compound_fsc.verify import random_family
from compound_fsc.util import binary_entropy_nats


def read_csv(path):
    # first line is the manifest pointer comment, second is the header
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# manifest: manifest.json"
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def write_pair_family(tmp_path, name="pair.json"):
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("p10", "p20"))
    path = tmp_path / name
    save_family(fam, path)
    return path


def assert_rerun_reproduces(out, replay, rc=0):
    """rerun of out's manifest into replay exits rc and rewrites every
    result file byte for byte."""
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == rc
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert names and names == sorted(p.name for p in replay.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


class TestCapacity:
    def test_bsc_pair_report(self, tmp_path, capsys):
        fam = write_pair_family(tmp_path)
        out = tmp_path / "run"
        rc = main(["capacity", "--family", str(fam), "--n", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "C_1" in text and "bits" in text

        body = json.loads((out / "capacity_report.json").read_text())
        assert body["manifest"] == "manifest.json"
        expected = math.log(2.0) - binary_entropy_nats(0.2)
        assert abs(body["C_n_nats_per_symbol"] - expected) < 1e-3
        assert body["worst_case"][1] == "p20"

        header, rows = read_csv(out / "convergence.csv")
        assert header == ["iteration", "value_nats_per_symbol"]
        assert len(rows) >= 1

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "capacity"
        assert "--family" in manifest["argv"]

    def test_manifest_timings_and_rerun_reproduces_report(self, tmp_path):
        fam = write_pair_family(tmp_path)
        out = tmp_path / "run"
        rc = main(["capacity", "--family", str(fam), "--n", "2", "--seed", "3", "--out", str(out)])
        assert rc in (0, 4)
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["peak_rss_mb"] > 0
        assert 0 <= metrics["solve_s"] and 0 <= metrics["write_s"]
        assert metrics["solve_s"] + metrics["write_s"] <= metrics["wall_clock_s"]
        # the timings stay out of what rerun must reproduce
        replay = tmp_path / "replay"
        assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == rc
        for name in ("capacity_report.json", "convergence.csv"):
            assert (replay / name).read_bytes() == (out / name).read_bytes()

    def test_ge_gap_certified_exits_zero(self, tmp_path, capsys):
        for n in range(1, 7):
            out = tmp_path / f"n{n}"
            argv = ["capacity", "--preset", "ge-gap", "--n", str(n), "--feedback", "identity", "--out", str(out)]
            assert main(argv) == 0
            assert f"C_{n}    in [" in capsys.readouterr().out
            body = json.loads((out / "capacity_report.json").read_text())
            assert body["C_n_upper_nats_per_symbol"] - body["C_n_nats_per_symbol"] <= GAP_TOL

    def test_uncertified_solve_exits_four_and_reruns(self, tmp_path, capsys):
        # the uniform start does not certify this family, so the ascent runs
        fam = tmp_path / "fam.json"
        save_family(random_family(np.random.default_rng(1), 2, 2), fam)
        out = tmp_path / "run"
        rc = main(["capacity", "--family", str(fam), "--n", "2", "--out", str(out)])
        assert rc == 4
        assert "GAP_TOL" in capsys.readouterr().err
        body = json.loads((out / "capacity_report.json").read_text())
        assert body["C_n_upper_nats_per_symbol"] > body["C_n_nats_per_symbol"] + GAP_TOL
        replay = tmp_path / "replay"
        assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 4
        for name in ("capacity_report.json", "convergence.csv"):
            assert (replay / name).read_bytes() == (out / name).read_bytes()

    def test_feedback_none_matches_identity_for_n1(self, tmp_path):
        # one-shot capacity cannot use feedback, so the two runs agree
        fam = write_pair_family(tmp_path)
        vals = {}
        for fb in ("identity", "none"):
            out = tmp_path / fb
            rc = main(
                [
                    "capacity",
                    "--family",
                    str(fam),
                    "--n",
                    "1",
                    "--feedback",
                    fb,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            body = json.loads((out / "capacity_report.json").read_text())
            vals[fb] = body["C_n_nats_per_symbol"]
        assert abs(vals["identity"] - vals["none"]) < 1e-6

    def test_missing_family_file(self, tmp_path, capsys):
        rc = main(
            [
                "capacity",
                "--family",
                str(tmp_path / "nope.json"),
                "--n",
                "1",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_feedback_table_not_an_object(self, tmp_path, capsys):
        fam = write_pair_family(tmp_path)
        fb_path = tmp_path / "fb.json"
        fb_path.write_text(json.dumps([0, 1]))
        rc = main(
            ["capacity", "--family", str(fam), "--feedback", f"table:{fb_path}", "--n", "1",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_family_member_not_an_object(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps([1, 2]))
        rc = main(["capacity", "--family", str(fam_path), "--n", "1", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_family_field_of_wrong_type(self, tmp_path, capsys):
        # a string alphabet must not be split into one state per character
        for states in (5, "ab", "a"):
            member = dict(bsc(0.1).to_dict(), states=states)
            fam_path = tmp_path / "fam.json"
            fam_path.write_text(json.dumps([member]))
            rc = main(["capacity", "--family", str(fam_path), "--n", "1", "--out", str(tmp_path / "run")])
            assert rc == 2, states
            assert "error:" in capsys.readouterr().err

    def test_family_non_finite_kernel(self, tmp_path, capsys):
        # NaN > tol is False, so a NaN entry must be rejected on its own
        for bad in (math.nan, math.inf):
            member = bsc(0.1).to_dict()
            member["kernel"][0][0][0][0] = bad
            fam_path = tmp_path / "fam.json"
            fam_path.write_text(json.dumps([member]))
            rc = main(["capacity", "--family", str(fam_path), "--n", "1", "--out", str(tmp_path / "run")])
            assert rc == 2, bad
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_feedback_field_of_wrong_type(self, tmp_path, capsys):
        fam = write_pair_family(tmp_path)
        fb_path = tmp_path / "fb.json"
        for table in (
            {"z_alphabet": 3, "map": [0, 1]},
            {"z_alphabet": "ab", "map": [0, 1]},
            {"z_alphabet": [0, 1], "map": [0.5, 1]},  # must not truncate to [0, 1]
        ):
            fb_path.write_text(json.dumps(table))
            rc = main(
                ["capacity", "--family", str(fam), "--feedback", f"table:{fb_path}", "--n", "1",
                 "--out", str(tmp_path / "run")]
            )
            assert rc == 2, table
            assert "error:" in capsys.readouterr().err

    def test_table_cap_exit_code(self, tmp_path, capsys):
        # the pair's shape, with each member's crossover differing by input,
        # so the solve takes the path-table solver, which refuses n = 13
        skewed = CompoundFamily(
            members=(make_memoryless([[0.9, 0.1], [0.15, 0.85]]), make_memoryless([[0.8, 0.2], [0.25, 0.75]])),
            labels=("p10", "p20"),
        )
        fam = tmp_path / "skewed.json"
        save_family(skewed, fam)
        rc = main(
            ["capacity", "--family", str(fam), "--n", "13", "--out", str(tmp_path / "run")]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_additive_pair_solves_past_the_path_tables(self, tmp_path, capsys):
        # the bsc pair adds input-independent noise, so n = 13 takes the
        # closed form: C_13 = ln 2 - h(0.2), the noisier member's, and the
        # uniform policy is written as one row a step
        fam = write_pair_family(tmp_path)
        out = tmp_path / "run"
        assert main(["capacity", "--family", str(fam), "--n", "13", "--out", str(out)]) == 0
        body = json.loads((out / "capacity_report.json").read_text())
        assert body["C_n_nats_per_symbol"] == pytest.approx(math.log(2) - binary_entropy_nats(0.2), rel=0, abs=1e-12)
        assert body["C_n_upper_nats_per_symbol"] == body["C_n_nats_per_symbol"]
        assert body["worst_case"] == ["s", "p20"]
        assert body["policy"]["shared_steps"] == list(range(13))
        assert body["policy"]["conditionals"] == [0.5] * 26
        assert_rerun_reproduces(out, tmp_path / "replay")

    def test_additive_horizon_past_the_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        import compound_fsc.capacity as capmod

        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the budget")

        # the closed form's charge is checked before its first array
        monkeypatch.setattr(capmod, "_as_prior", refuse)
        rc = main(["capacity", "--preset", "ge-gap", "--n", "40", "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "additive-noise solver" in capsys.readouterr().err

    def test_horizon_below_one_exit_code(self, tmp_path, capsys):
        for n in ("0", "-1"):
            rc = main(
                ["capacity", "--preset", "ge-gap", "--feedback", "identity", "--n", n,
                 "--out", str(tmp_path / "run")]
            )
            assert rc == 2, n
            assert "horizon" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        import compound_fsc.cli as climod
        from compound_fsc.capacity import SolverConfig, compute_Cn
        from compound_fsc.channel import identity_feedback

        fam_path = write_pair_family(tmp_path)
        family = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("p10", "p20"))
        report = compute_Cn(family, identity_feedback((0, 1)), 1, SolverConfig(max_iters=40, restarts=1))
        bad_diag = dataclasses.replace(report.diagnostics, converged=False)
        bad = dataclasses.replace(report, diagnostics=bad_diag)
        monkeypatch.setattr(climod, "compute_Cn", lambda *a, **k: bad)

        out = tmp_path / "run"
        rc = main(["capacity", "--family", str(fam_path), "--n", "1", "--out", str(out)])
        assert rc == 4
        assert "converge" in capsys.readouterr().err
        # the report is still written so the run can be inspected
        assert (out / "capacity_report.json").exists()


class TestVerify:
    def test_single_suite(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["verify", "--suite", "kim-identity", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "kim-identity" in text and "pass" in text

        header, rows = read_csv(out / "verify_results.csv")
        assert header == ["check", "passed", "instances", "violations", "worst", "detail"]
        assert rows[0][0] == "kim-identity"
        assert rows[0][1] == "True"

    def test_seed_reaches_suites_and_rerun_reproduces(self, tmp_path):
        from compound_fsc.verify import suite_state_gap

        def run(seed, out):
            assert main(["verify", "--suite", "state-gap", "--seed", str(seed), "--out", str(out)]) == 0
            return (out / "verify_results.csv").read_bytes()

        seeded = run(1, tmp_path / "s1")
        assert seeded != run(0, tmp_path / "s0")
        # built-in seed 22 plus 100 x --seed
        _, rows = read_csv(tmp_path / "s1" / "verify_results.csv")
        assert float(rows[0][4]) == suite_state_gap(seed=122).worst

        rc = main(["rerun", str(tmp_path / "s1" / "manifest.json"), "--out", str(tmp_path / "replay")])
        assert rc == 0
        assert (tmp_path / "replay" / "verify_results.csv").read_bytes() == seeded

    def test_unknown_suite(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "bogus", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_example1_files_and_rerun(self, tmp_path):
        out = tmp_path / "a"
        argv = [
            "simulate",
            "--preset",
            "example1",
            "--n",
            "3",
            "--trials",
            "400",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        csv_a = (out / "simulate_results.csv").read_bytes()
        log_a = (out / "trials.jsonl").read_bytes()
        assert csv_a and log_a
        # the trial log recorded when the result tables were int64: narrow
        # tables must not change a byte of it
        assert hashlib.sha256(log_a).hexdigest() == "d903d3885d00298ed54ed765f8a4857a0385e447b958dd344b65e80a1f9d6f3a"

        # byte-identical when rerun from the recorded manifest
        out2 = tmp_path / "b"
        rc = main(["rerun", str(out / "manifest.json"), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "simulate_results.csv").read_bytes() == csv_a
        assert (out2 / "trials.jsonl").read_bytes() == log_a

    def test_trial_log_written_in_blocks_is_the_same(self, tmp_path, monkeypatch):
        argv = ["simulate", "--preset", "example1", "--n", "3", "--trials", "400", "--seed", "11", "--out"]
        assert main(argv + [str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(compound_fsc.cli, "_RECORD_ROWS", 7)  # 58 blocks, the last one partial
        assert main(argv + [str(tmp_path / "blocks")]) == 0
        assert (tmp_path / "blocks" / "trials.jsonl").read_bytes() == (tmp_path / "whole" / "trials.jsonl").read_bytes()

    def test_noiseless_config_zero_error(self, tmp_path):
        spec = bsc(0.0).to_dict()
        spec["label"] = "clean"
        cfg = {
            "family": [spec],
            "n": 2,
            "messages": 2,
            "codebook": "constant",
            "trials": 100,
            "seed": 3,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "simulate_results.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["error_rate"]) == 0.0
        assert int(row["trials"]) == 100

    def test_config_without_feedback_reruns(self, tmp_path):
        spec = bsc(0.15).to_dict()
        spec["label"] = "p15"
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"family": [spec], "n": 3, "codebook": {"sample_seed": 2}}))
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(cfg_path), "--feedback", "none", "--trials", "300",
                "--seed", "9", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["feedback"] == "none"
        assert_rerun_reproduces(out, tmp_path / "replay")

    def test_flags_override_config(self, tmp_path):
        spec = bsc(0.1).to_dict()
        spec["label"] = "p10"
        cfg = {"family": [spec], "n": 2, "trials": 50, "seed": 5}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))

        out1 = tmp_path / "cfg"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        header, rows = read_csv(out1 / "simulate_results.csv")
        assert int(dict(zip(header, rows[0]))["trials"]) == 50

        out2 = tmp_path / "flag"
        rc = main(
            ["simulate", "--config", str(cfg_path), "--trials", "20", "--out", str(out2)]
        )
        assert rc == 0
        header, rows = read_csv(out2 / "simulate_results.csv")
        assert int(dict(zip(header, rows[0]))["trials"]) == 20

    def test_out_of_range_initial_state_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"s0": 7}))
        rc = main(
            ["simulate", "--preset", "ge-gap", "--config", str(cfg_path), "--n", "2",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [[1], {"s0": True}, {"n": "3"}, {"trials": "10"}, {"messages": "2"}, {"feedback": 3},
         {"seed": 1.5}, {"seed": True}, {"codebook": {"sample_seed": None}},
         {"codebook": {"sample_seed": True}}, {"codebook": {"sample_seed": 1.5}}],
        ids=["array", "bool-s0", "str-n", "str-trials", "str-messages", "int-feedback",
             "float-seed", "bool-seed", "null-sample-seed", "bool-sample-seed", "float-sample-seed"],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, body):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(body))
        # --n is given only when the config does not set it
        n_flag = [] if isinstance(body, dict) and "n" in body else ["--n", "2"]
        rc = main(
            ["simulate", "--preset", "ge-gap", "--config", str(cfg_path), *n_flag,
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_string_family_path_exit_code(self, tmp_path, capsys):
        # open() would take an int as a file descriptor; this one is not open,
        # so only the message tells the check from the failed read
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"family_path": 2**30}))
        rc = main(["simulate", "--config", str(cfg_path), "--n", "2", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "'family_path' must be a string" in capsys.readouterr().err

    def test_simulate_without_inputs(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--preset",
                "example1",
                "--n",
                "2",
                "--trials",
                "100",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        body = json.loads((out / "simulate_results.json").read_text())
        assert body["manifest"] == "manifest.json"
        assert 0.0 <= body["error_rate"] <= 1.0
        assert "all_bad_freq" in body

    @pytest.mark.parametrize("option", ["--config", "--feedback", "--family"])
    def test_example1_refuses_options_it_would_ignore(self, tmp_path, capsys, option):
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "example1", "--n", "2", "--trials", "10", option, "none", "--out", str(out)]
        assert main(argv) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_stateful_family_rejected(self, tmp_path, capsys):
        fam_path = tmp_path / "ge.json"
        save_family(ge_gap_family(), fam_path)
        rc = main(
            ["estimate", "--family", str(fam_path), "--n", "1000", "--out", str(tmp_path / "r")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_trials_exit_code(self, tmp_path, capsys):
        fam = write_pair_family(tmp_path)
        rc = main(
            ["estimate", "--family", str(fam), "--n", "1000", "--trials", "0", "--out", str(tmp_path / "r")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_rate_and_sanov_tables(self, tmp_path):
        fam = write_pair_family(tmp_path)
        out = tmp_path / "run"
        rc = main(
            [
                "estimate",
                "--family",
                str(fam),
                "--n",
                "1000",
                "--trials",
                "3",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0

        header, rows = read_csv(out / "estimate_rates.csv")
        assert "train_symbols" in header[0]
        assert any("nats" in h for h in header)
        # sweep points below n: 100 and 316
        assert [r[0] for r in rows] == ["100", "316"]

        header2, rows2 = read_csv(out / "sanov_table.csv")
        assert any("bound" in h for h in header2)
        assert len(rows2) >= 1

    def test_rerun_reproduces(self, tmp_path):
        fam = write_pair_family(tmp_path)
        out = tmp_path / "run"
        argv = ["estimate", "--family", str(fam), "--n", "400", "--trials", "2", "--seed", "4",
                "--true-label", "p20", "--out", str(out)]
        assert main(argv) == 0
        assert_rerun_reproduces(out, tmp_path / "replay")


def full_argv(subcommand, tmp_path):
    """An argv that sets every option of the subcommand, none at its default."""
    fam = str(write_pair_family(tmp_path))
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"messages": 2}))
    out = str(tmp_path / "run")
    options = {
        "capacity": {"--family": fam, "--preset": "bsc-pair", "--n": "2", "--seed": "1", "--out": out,
                     "--feedback": "none"},
        "simulate": {"--family": fam, "--preset": "bsc-pair", "--n": "2", "--seed": "1", "--out": out,
                     "--feedback": "none", "--trials": "50", "--config": str(cfg), "--format": "json"},
        "verify": {"--suite": "kim-identity", "--seed": "1", "--out": out, "--format": "json"},
        "estimate": {"--family": fam, "--preset": "bsc-pair", "--n": "400", "--seed": "1", "--out": out,
                     "--trials": "2", "--true-label": "p20"},
    }[subcommand]
    return [subcommand, *(s for pair in options.items() for s in pair)], options


@pytest.mark.parametrize("subcommand", ["capacity", "simulate", "verify", "estimate"])
def test_manifest_records_every_option_and_the_run_metrics(tmp_path, subcommand):
    argv, options = full_argv(subcommand, tmp_path)
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "subcommand").choices[subcommand]
    assert set(options) == {s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
    assert main(argv) == 0
    out = tmp_path / "run"
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = manifest["argv"]
    assert recorded[0] == subcommand
    assert dict(zip(recorded[1::2], recorded[2::2])) == options
    metrics = manifest["metrics"]
    assert {"wall_clock_s", "write_s", "peak_rss_mb"} <= set(metrics)
    assert 0 <= metrics["write_s"] <= metrics["wall_clock_s"] and metrics["peak_rss_mb"] > 0
    assert_rerun_reproduces(out, tmp_path / "replay")


def test_one_parser_serves_every_call_without_carrying_options(tmp_path):
    # the parser is built once a process; a --seed given to one call must not
    # reach the next call's manifest, which records what a fresh process does
    assert build_parser() is build_parser()
    cap, sim = tmp_path / "cap", tmp_path / "sim"
    assert main(["capacity", "--preset", "bsc-pair", "--n", "2", "--seed", "5", "--out", str(cap)]) == 0
    sim_argv = ["simulate", "--preset", "example1", "--n", "3", "--trials", "500", "--out", str(sim)]
    assert main(sim_argv) == 0
    in_process = json.loads((sim / "manifest.json").read_text())["argv"]
    assert "--seed" not in in_process
    src = Path(compound_fsc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "compound_fsc", *sim_argv], env=env, capture_output=True)
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads((sim / "manifest.json").read_text())["argv"] == in_process
    assert_rerun_reproduces(cap, tmp_path / "cap-replay")
    assert_rerun_reproduces(sim, tmp_path / "sim-replay")


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "compound-fsc" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", ["capacity", "estimate"])
    def test_format_only_where_read(self, tmp_path, capsys, subcommand):
        # only simulate and verify write a JSON summary, so only they take --format
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--preset", "bsc-pair", "--n", "1", "--format", "json",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m, path: [],
            lambda m, path: {k: v for k, v in m.items() if k != "subcommand"},
            lambda m, path: dict(m, argv=["rerun", str(path)]),
            lambda m, path: dict(m, argv=["verify", "--suite", 5]),
        ],
        ids=["not-an-object", "without-subcommand", "reruns-itself", "argv-not-strings"],
    )
    def test_rerun_rejects_malformed_manifest(self, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert main(["verify", "--suite", "kim-identity", "--out", str(out)]) == 0
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()), path)))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "replay")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "run"
        main(["verify", "--suite", "kim-identity", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "verify"
        assert manifest["argv"][0] == "verify"
        assert "--suite" in manifest["argv"]
        assert "version" in manifest
