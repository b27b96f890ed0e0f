import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import srmkit
from srmkit import CohortProfile
from srmkit import cohort as cohort_module
from srmkit.cli import run

CSV_FIXTURE = "author_id,citations\nX1,8;6;4;2\nX2,4;2;2;2;2\n"


@pytest.fixture
def cohort_csv(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(CSV_FIXTURE)
    return path


@pytest.fixture
def power_cohort_json(tmp_path):
    authors = [
        {"id": f"a{i:02d}", "citations": [(60.0 + i) / r**1.62 for r in range(1, 16)]}
        for i in range(20)
    ]
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps({"authors": authors}))
    return path


class TestCompute:
    def test_staircase_fixture_column(self, cohort_csv, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run(["compute", "--input", str(cohort_csv), "--indices", "h,w",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "author_id,h,w"
        assert lines[1] == "X1,3,4"
        assert lines[2] == "X2,2,3"

    def test_stdout_when_no_output(self, cohort_csv, capsys):
        assert run(["compute", "--input", str(cohort_csv), "--indices", "w"]) == 0
        assert "X1,4" in capsys.readouterr().out

    def test_json_format_from_suffix(self, cohort_csv, tmp_path):
        out = tmp_path / "table.json"
        assert run(["compute", "--input", str(cohort_csv), "--indices", "h",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["indices"] == ["h"]

    def test_bare_phi_requires_profile(self, cohort_csv, capsys):
        code = run(["compute", "--input", str(cohort_csv), "--indices", "phi"])
        assert code == 2

    def test_unknown_index_is_usage_error(self, cohort_csv):
        assert run(["compute", "--input", str(cohort_csv), "--indices", "zindex"]) == 2

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(["compute", "--input", str(tmp_path / "nope.csv"),
                    "--indices", "h"]) == 1

    def test_bad_data_is_data_error_and_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("author_id,citations\nx,-3\n")
        out = tmp_path / "table.csv"
        assert run(["compute", "--input", str(bad), "--indices", "h",
                    "--output", str(out)]) == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".srm-tmp-*"))


class TestCalibrate:
    def test_noiseless_cohort_recovers_exponent(self, power_cohort_json, tmp_path):
        profile_path = tmp_path / "profile.json"
        code = run(["calibrate", "--input", str(power_cohort_json),
                    "--profile", str(profile_path)])
        assert code == 0
        profile = CohortProfile.from_json(profile_path.read_text())
        assert profile.beta_bar == pytest.approx(1.62, abs=1e-9)
        assert profile.cohort_size == 20

    def test_profile_feeds_bare_phi(self, power_cohort_json, cohort_csv, tmp_path):
        profile_path = tmp_path / "profile.json"
        run(["calibrate", "--input", str(power_cohort_json), "--profile", str(profile_path)])
        out = tmp_path / "table.csv"
        code = run(["compute", "--input", str(cohort_csv), "--indices", "phi",
                    "--profile", str(profile_path), "--output", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("author_id,phi:1.62")

    def test_q_hat_beyond_the_float_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("author_id,citations\na,1e308;1e308;1e308;1\nb,5;3;1\n")
        profile_path = tmp_path / "profile.json"
        assert run(["calibrate", "--input", str(path), "--profile", str(profile_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("srm: error: author 'a': the fitted q_hat, exp(839.44")
        assert err.count("\n") == 1 and not profile_path.exists()


class TestRank:
    def test_ranking_with_merit_classes(self, cohort_csv, tmp_path):
        out = tmp_path / "rank.csv"
        code = run(["rank", "--input", str(cohort_csv), "--index", "w",
                    "--classes", "0.5", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "author_id,value,rank,merit_class"
        assert lines[1] == "X1,4,1,class-1"
        assert lines[2] == "X2,3,2,class-2"

    def test_json_output(self, cohort_csv, tmp_path):
        out = tmp_path / "rank.json"
        assert run(["rank", "--input", str(cohort_csv), "--index", "h",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["index"] == "h"
        assert doc["ranking"][0]["rank"] == 1

    def test_json_output_matches_csv_cells(self, cohort_csv, tmp_path):
        base = ["rank", "--input", str(cohort_csv), "--index", "w", "--classes", "0.5"]
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert run([*base, "--output", str(csv_out)]) == 0
        assert run([*base, "--output", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        lines = csv_out.read_text().splitlines()
        assert doc["index"] == "w" and doc["cutoffs"] == [0.5]
        assert len(doc["ranking"]) == len(lines) - 1
        for entry, line in zip(doc["ranking"], lines[1:]):
            author, value, rank, merit_class = line.split(",")
            assert entry == {"id": author, "value": float(value), "rank": int(rank),
                             "merit_class": merit_class}

    def test_bad_cutoffs_are_usage_errors(self, cohort_csv):
        assert run(["rank", "--input", str(cohort_csv), "--index", "h",
                    "--classes", "0.5,0.2"]) == 2
        assert run(["rank", "--input", str(cohort_csv), "--index", "h",
                    "--classes", "zero"]) == 2


class TestCalibrateOptions:
    @pytest.mark.parametrize("flag, value", [("--output", "o.csv"), ("--format", "csv")])
    def test_output_flags_are_usage_errors(self, power_cohort_json, tmp_path, monkeypatch,
                                           flag, value, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["calibrate", "--input", str(power_cohort_json),
                    "--profile", "profile.json", flag, value]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists("profile.json") and not os.path.exists("o.csv")


class TestDualCheck:
    def test_cmax_gap_is_zero_at_the_minimizer(self, cohort_csv, tmp_path):
        out = tmp_path / "dual.csv"
        code = run(["dual-check", "--input", str(cohort_csv), "--index", "c_max",
                    "--deltas", "1,0.1", "--samples", "10", "--seed", "7",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "author_id,value,n_densities,min_margin,gap"
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[4]) == 0.0
            assert float(fields[3]) >= -1e-9

    def test_h_gaps_shrink_with_delta(self, cohort_csv, tmp_path):
        out = tmp_path / "dual.csv"
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                    "--deltas", "1,0.1,0.01", "--samples", "5", "--seed", "3",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "author_id,value,n_densities,min_margin,gap_1,gap_0.1,gap_0.01"
        for line in lines[1:]:
            fields = line.split(",")
            gaps = [float(g) for g in fields[4:]]
            assert gaps[0] > gaps[1] > gaps[2] >= 0.0

    def test_margins_nonnegative_for_calibrated_index(self, cohort_csv, tmp_path):
        out = tmp_path / "dual.csv"
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "phi:1.62",
                    "--samples", "50", "--seed", "11", "--output", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) >= -1e-9

    def test_seed_is_mandatory(self, cohort_csv):
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h"]) == 2

    @pytest.mark.parametrize("index", ["c_max", "h", "phi:1.62"])
    def test_json_output_matches_csv_cells(self, cohort_csv, tmp_path, index):
        base = ["dual-check", "--input", str(cohort_csv), "--index", index,
                "--deltas", "1,0.1", "--samples", "5", "--seed", "3"]
        csv_out, by_flag, by_suffix = (tmp_path / n for n in ("d.csv", "flag.out", "d.json"))
        assert run([*base, "--output", str(csv_out)]) == 0
        assert run([*base, "--format", "json", "--output", str(by_flag)]) == 0
        assert run([*base, "--output", str(by_suffix)]) == 0
        assert by_flag.read_bytes() == by_suffix.read_bytes()
        doc = json.loads(by_suffix.read_text())
        lines = csv_out.read_text().splitlines()
        header = lines[0].split(",")
        assert doc["index"] == index
        assert len(doc["authors"]) == len(lines) - 1
        for entry, line in zip(doc["authors"], lines[1:]):
            cells = dict(zip(header, line.split(",")))
            assert set(entry) == set(header)
            assert entry["author_id"] == cells["author_id"]
            assert entry["n_densities"] == int(cells["n_densities"])
            for key in header[1:]:
                if key != "n_densities":
                    assert entry[key] == float(cells[key])

    def test_json_without_samples_has_null_margin(self, cohort_csv, tmp_path):
        out = tmp_path / "d.json"
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                    "--samples", "0", "--seed", "3", "--output", str(out)]) == 0
        for entry in json.loads(out.read_text())["authors"]:
            assert entry["n_densities"] == 0 and entry["min_margin"] is None

    @pytest.mark.parametrize("citations, index, samples", [
        ("1e20;3", "h", "1"),
        ("1e308;3", "h_alpha:0.5", "3"),
    ])
    def test_huge_citations_keep_margins_nonnegative(self, tmp_path, citations, index, samples):
        path = tmp_path / "huge.csv"
        path.write_text(f"author_id,citations\na,{citations}\nb,5;4;1\n")
        out = tmp_path / "dual.csv"
        assert run(["dual-check", "--input", str(path), "--index", index,
                    "--samples", samples, "--seed", "1", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["2", "2"]
        for line in lines[1:]:
            assert float(line.split(",")[3]) >= -1e-9

    def test_a_level_beyond_the_float_range_warns_nothing(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("author_id,citations\na,1.7e308;1.7e308;1.7e308\n")
        out = tmp_path / "dual.csv"
        assert run(["dual-check", "--input", str(path), "--index", "phi:1.62",
                    "--samples", "5", "--seed", "1", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1].split(",")[3] == "inf"


def _srm_env(**extra):
    """The environment of an srm subprocess that imports this checkout's srmkit,
    with stdout buffered as by default, plus ``extra``."""
    src = str(Path(srmkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


class TestOutputFiles:
    def test_output_mode_follows_the_umask(self, cohort_csv, tmp_path):
        out = tmp_path / "table.csv"
        old = os.umask(0o022)
        try:
            assert run(["compute", "--input", str(cohort_csv), "--indices", "h",
                        "--output", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
            os.umask(0o077)
            assert run(["compute", "--input", str(cohort_csv), "--indices", "h",
                        "--output", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o600
        finally:
            os.umask(old)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_gets_the_output_file_bytes_under_an_ascii_locale(self, tmp_path, fmt):
        path = tmp_path / "cohort.csv"
        path.write_text("author_id,citations\ncafé,3;2;1\n", encoding="utf-8")
        env = _srm_env(PYTHONIOENCODING="ascii")
        argv = [sys.executable, "-m", "srmkit.cli", "compute", "--input", str(path),
                "--indices", "h", "--format", fmt]
        shown = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert shown.returncode == 0, shown.stderr
        out = tmp_path / "table"
        subprocess.run(argv + ["--output", str(out)], env=env, timeout=60, check=True)
        assert shown.stdout == out.read_bytes()

    @pytest.mark.parametrize("unbuffered", [None, "1"])
    def test_a_closed_pipe_is_one_data_error(self, cohort_csv, unbuffered):
        """A reader that went away ends srm like a data error, whether
        stdout is buffered (the write fails at the flush) or not."""
        env = _srm_env(**({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {}))
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write to the pipe fails with EPIPE
        try:
            done = subprocess.run([sys.executable, "-m", "srmkit.cli", "compute", "--input",
                                   str(cohort_csv), "--indices", "h,w"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        lines = done.stderr.decode().splitlines()
        assert (done.returncode, lines) == (1, ["srm: error: [Errno 32] Broken pipe"])

    @pytest.mark.skipif(os.name != "posix", reason="closes stdout through sh")
    def test_a_closed_stdout_asks_for_an_output_file(self, cohort_csv):
        argv = [sys.executable, "-m", "srmkit.cli", "compute", "--input", str(cohort_csv),
                "--indices", "h"]
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                              capture_output=True, env=_srm_env(), timeout=60)
        lines = done.stderr.decode().splitlines()
        assert (done.returncode, lines) == (
            1, ["srm: error: there is no standard output; write to a file with --output"])

    def test_boolean_citation_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"authors": [{"id": "a", "citations": [True, 3, False]}]}))
        assert run(["compute", "--input", str(path), "--indices", "pubs"]) == 1
        assert "not a number" in capsys.readouterr().err


class TestDeterminismAndConfig:
    def test_repeated_runs_are_byte_identical(self, cohort_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                        "--deltas", "0.5", "--samples", "25", "--seed", "42",
                        "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_defaults(self, cohort_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"# defaults\ninput = {cohort_csv}\nindices = 'h,w'\n"
        )
        out = tmp_path / "t.csv"
        assert run(["compute", "--config", str(config), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "author_id,h,w"

    def test_flags_beat_config(self, cohort_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"input = {cohort_csv}\nindices = h,w\n")
        out = tmp_path / "t.csv"
        assert run(["compute", "--config", str(config), "--indices", "pubs",
                    "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "author_id,pubs"

    def test_malformed_config_is_usage_error(self, cohort_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        assert run(["compute", "--config", str(config), "--indices", "h",
                    "--input", str(cohort_csv)]) == 2

    def test_unknown_config_key_is_usage_error(self, cohort_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 4\nsampels = 5\n")
        out = tmp_path / "d.csv"
        assert run(["dual-check", "--config", str(config), "--input", str(cohort_csv),
                    "--index", "h", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"srm: error: {config}:2: unknown key 'sampels'\n"
        assert not out.exists()

    def test_config_key_of_another_subcommand_is_accepted(self, cohort_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"input = {cohort_csv}\nindices = h\nclasses = 0.2\n")
        out = tmp_path / "t.csv"
        assert run(["compute", "--config", str(config), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "author_id,h"

    def test_help_exits_zero(self, capsys):
        assert run(["compute", "--help"]) == 0
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


class TestRejectedOptions:
    @pytest.mark.parametrize("deltas", ["inf", "nan", "1,-inf", "0.5,nan"])
    def test_nonfinite_deltas_are_usage_errors(self, cohort_csv, deltas, capsys):
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                    "--seed", "1", "--samples", "2", "--deltas", deltas]) == 2
        assert "--deltas must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("deltas, label", [("1,1", "gap_1"),
                                               ("0.30000000000000004,0.3", "gap_0.3"),
                                               ("2,0.5,2.0", "gap_2")])
    @pytest.mark.parametrize("index", ["h", "pubs", "c_max", "w"])
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_deltas_sharing_a_gap_label_are_usage_errors(self, cohort_csv, tmp_path, deltas,
                                                         label, index, suffix, capsys):
        output = tmp_path / f"dual.{suffix}"
        missing = tmp_path / "missing.csv"
        for path in (cohort_csv, missing):  # an unread input cannot be the error
            assert run(["dual-check", "--input", str(path), "--index", index, "--seed", "1",
                        "--samples", "2", "--deltas", deltas, "--output", str(output)]) == 2
            out = capsys.readouterr()
            assert out.out == "" and not output.exists()
            assert out.err == f"srm: error: --deltas gives two widths the column label {label}\n"
        assert list(tmp_path.iterdir()) == [cohort_csv]

    @pytest.mark.parametrize("indices, label", [("h,H", "h"),
                                                ("h_alpha:2,h-alpha:2", "h_alpha:2"),
                                                ("phi,phi:1.62", "phi:1.62")])
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_indices_sharing_a_label_are_usage_errors(self, cohort_csv, power_cohort_json,
                                                      tmp_path, indices, label, suffix, capsys):
        profile = tmp_path / "profile.json"
        assert run(["calibrate", "--input", str(power_cohort_json),
                    "--profile", str(profile)]) == 0
        assert CohortProfile.from_json(profile.read_bytes()).beta_bar == pytest.approx(1.62)
        output = tmp_path / f"table.{suffix}"
        missing = tmp_path / "missing.csv"
        for path in (cohort_csv, missing):  # an unread input cannot be the error
            assert run(["compute", "--input", str(path), "--indices", indices,
                        "--profile", str(profile), "--output", str(output)]) == 2
            out = capsys.readouterr()
            assert out.out == "" and not output.exists()
            assert out.err == f"srm: error: --indices gives two indices the column label {label}\n"
        assert sorted(tmp_path.iterdir()) == sorted([cohort_csv, power_cohort_json, profile])

    @pytest.mark.parametrize("index, samples, option, value", [
        # 1e13 rank cells take 80 TB: the first allocation fails at once
        ("h", "0", "--extent", "1e13"),
        ("h", "2", "--extent", "1e13"),
        ("phi:1.62", "2", "--extent", "1e13"),
        # more rank cells than numpy can index: rejected before any is allocated
        ("h", "2", "--extent", "1e300"),
        ("h", "2", "--deltas", "1e308"),
        ("h", "0", "--extent", "1e300"),
        ("phi:1.5", "2", "--extent", "1e300"),
    ])
    def test_extent_too_large_to_allocate_is_an_error(self, cohort_csv, index, samples, option,
                                                      value, tmp_path, capsys):
        output = tmp_path / "dual.csv"
        assert run(["dual-check", "--input", str(cohort_csv), "--index", index, "--seed", "1",
                    "--samples", samples, option, value, "--output", str(output)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and not output.exists()
        assert out.err.startswith("srm: error: out of memory") and out.err.count("\n") == 1
        if value != "1e13":
            assert out.err.endswith(" has more rank cells than an array can hold\n")

    @pytest.mark.parametrize("extent", ["nan", "inf"])
    def test_nonfinite_extent_is_usage_error(self, cohort_csv, extent, capsys):
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                    "--seed", "1", "--samples", "2", "--extent", extent]) == 2
        assert "--extent must be a finite number" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, cohort_csv, capsys):
        assert run(["dual-check", "--input", str(cohort_csv), "--index", "h",
                    "--seed", "-5"]) == 2
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, cohort_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"indices = h\xff\xfe\n")
        assert run(["compute", "--config", str(config), "--input", str(cohort_csv)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"version": 1, "fits": []},
        {"version": 1, "beta_bar": 1.5, "fits": [{"beta_hat": 1.5}]},
        {"version": 1, "beta_bar": "1.5", "fits": []},
        {"version": 1, "beta_bar": True, "fits": []},
        {"version": True, "beta_bar": 1.5, "fits": []},
        {"beta_bar": 1.5, "version": 1},
        {"beta_bar": 1.5, "version": 1, "fits": []},
    ])
    def test_malformed_profile_is_data_error(self, cohort_csv, tmp_path, doc, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(doc))
        assert run(["compute", "--input", str(cohort_csv), "--indices", "phi",
                    "--profile", str(profile)]) == 1
        assert "malformed profile" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["compute", "--indices", "h"],
        ["rank", "--index", "h"],
        ["dual-check", "--index", "h", "--seed", "1", "--samples", "2"],
    ], ids=["compute", "rank", "dual-check"])
    def test_bad_format_in_config_is_usage_error(self, cohort_csv, tmp_path, argv, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("format = xml\n")
        out = tmp_path / "out.json"
        assert run([*argv, "--input", str(cohort_csv), "--config", str(config),
                    "--output", str(out)]) == 2
        assert "--format must be 'csv' or 'json', got 'xml'" in capsys.readouterr().err
        assert not out.exists()


class TestIngestErrorsAtTheCommandLine:
    @pytest.mark.parametrize("name, data", [
        ("deep.json", b"[" * 100_000 + b"]" * 100_000),
        ("huge.json", b'{"authors": [{"id": "a", "citations": [1' + b"0" * 400 + b"]}]}"),
        ("cr.csv", b"author_id,citations\na,1\rb,2\n"),
        ("id.json", b'{"authors": [{"id": 17, "citations": [1]}]}'),
    ], ids=["deep", "huge", "cr", "id"])
    def test_bad_input_is_data_error(self, tmp_path, name, data, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["compute", "--input", str(path), "--indices", "h"]) == 1
        assert "srm: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compute", "--indices", "h", "--format", "csv"],
        ["compute", "--indices", "h", "--format", "json"],
        ["rank", "--index", "h", "--output", "r.csv"],
        ["calibrate", "--profile", "p.json"],
        ["dual-check", "--index", "h", "--seed", "1"],
    ], ids=" ".join)
    def test_id_that_utf8_cannot_encode_is_data_error(self, tmp_path, argv, capsys):
        path = tmp_path / "cohort.json"
        path.write_text('{"authors": [{"id": "\\ud800x", "citations": [3, 2, 1]}]}')
        argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
        assert run([argv[0], "--input", str(path), *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            "srm: error: author id '\\ud800x' cannot be written as UTF-8\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_long_csv_record_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("author_id,citations\nbig," + ";".join(["12345"] * 30_000) + "\n")
        assert run(["compute", "--input", str(path), "--indices", "pubs,h"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "big,30000,12345"


_FUZZ_TOKENS = [b";", b",", b"\n", b"\r", b"-", b"nan", b"inf", b"\xff", b'"', b"[", b"]",
                b"{", b"}", b"1e400", b"true", b"null", b"0", b"\x00", b":", b"9" * 30]

_FUZZ_OPTIONS = {
    "--indices": ["h", "h,w", "phi", "phi:0", "h_alpha", "zz", "h,h", "", ",", "phi:nan",
                  "c_max,pubs,h,h2,h_alpha:2,w,h_r,phi:1.62", "h_alpha:-1"],
    "--index": ["h", "w", "phi", "phi:1.62", "c_max", "pubs", "h_r", "h2", "bogus", ""],
    "--classes": ["0.1,0.3", "0.5", "1", "0", "nan", "x", "0.3,0.1", ""],
    "--deltas": ["1,0.1", "inf", "nan", "-1", "0", "1e-300", "x", "", "20"],
    "--samples": ["0", "3", "-1", "x", "1e3", ""],
    "--seed": ["1", "-5", "x", "", "123456789012345678901234567890"],
    "--extent": ["60", "nan", "inf", "-1", "0", "1", "x"],
    "--format": ["csv", "json", "xml"],
}

_FUZZ_SUBCOMMANDS = {
    "compute": ["--indices", "--profile"],
    "calibrate": [],
    "rank": ["--index", "--profile", "--classes"],
    "dual-check": ["--index", "--profile", "--deltas", "--samples", "--seed", "--extent"],
}

_FUZZ_PROFILE = json.dumps({"version": 1, "beta_bar": 1.62, "fits": [
    {"author_id": "a", "beta_hat": 1.62, "q_hat": 40.0, "r2": 0.9, "n_points": 4, "n_excluded": 0},
], "metadata": {}})


def _mutated(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 6))):
        pos = int(rng.integers(len(out) + 1))
        op = int(rng.integers(3))
        if op == 0 and out:
            out[min(pos, len(out) - 1)] = int(rng.integers(256))
        elif op == 1:
            out[pos:pos] = _FUZZ_TOKENS[int(rng.integers(len(_FUZZ_TOKENS)))]
        else:
            del out[pos:pos + int(rng.integers(1, 4))]
    return bytes(out)


def _fuzz_bytes(rng, valid: bytes) -> bytes:
    kind = int(rng.integers(3))
    if kind == 0:
        return valid
    if kind == 1:
        return _mutated(rng, valid)
    return rng.integers(0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8).tobytes()


def test_cli_fuzz_never_tracebacks(tmp_path, capsys):
    """Random inputs, options and config files end in exit 0, 1 or 2."""
    rng = np.random.default_rng(6101)
    valid_json = json.dumps({"authors": [
        {"id": "a", "citations": [5, 3, 3, 1], "annotations": {"x": 1}},
        {"id": "b", "citations": [2, 0, 7]},
    ]}).encode()
    for trial in range(300):
        sub = list(_FUZZ_SUBCOMMANDS)[int(rng.integers(len(_FUZZ_SUBCOMMANDS)))]
        suffix = ".json" if rng.integers(2) else ".csv"
        data = _fuzz_bytes(rng, valid_json if suffix == ".json" else CSV_FIXTURE.encode())
        path = tmp_path / f"in{trial}{suffix}"
        path.write_bytes(data)
        argv = [sub, "--input", str(path)]
        if rng.integers(5) == 0:
            argv[2] = str(tmp_path / "missing.csv")
        for flag in _FUZZ_SUBCOMMANDS[sub]:
            if rng.integers(8) == 0:
                continue
            if flag == "--profile":
                profile = tmp_path / f"profile{trial}.json"
                if sub != "calibrate":
                    profile.write_bytes(_fuzz_bytes(rng, _FUZZ_PROFILE.encode()))
                argv += [flag, str(profile)]
            else:
                choices = _FUZZ_OPTIONS[flag]  # the first choice is valid; take it half the time
                pick = 0 if rng.integers(2) else int(rng.integers(len(choices)))
                argv += [flag, choices[pick]]
        if sub == "calibrate":
            argv += ["--profile", str(tmp_path / f"profile{trial}.json")]
        if rng.integers(3) == 0:
            config = tmp_path / f"run{trial}.cfg"
            config.write_bytes(_fuzz_bytes(rng, b"samples = 2\nseed = 4\nindices = h,w\n"))
            argv += ["--config", str(config)]
        if rng.integers(2):
            argv += ["--format", _FUZZ_OPTIONS["--format"][int(rng.integers(3))]]
        if rng.integers(2):
            argv += ["--output", str(tmp_path / f"out{trial}{suffix}")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


_SWAPS = [3, 2.5, "7", " 4 ", None, True, {}, [], {"x": 1}, [1, 2], ""]
_NEAR_MAX = [1.7976931348623157e308, 1.7e308, 1e308, 8.9e307]
_NUMBER_TEXTS = ["01", "007", "0", "-0", "-3", "1e3", "1E+2", "1.0", "2.5", "+5", "1_0", " 5 ",
                 "\t5", "", "1000000000000000", "999999999999999", "9007199254740993", "\u0663"]

_MUTANT_ARGS = {
    "compute": ["--indices", "c_max,pubs,h,h2,h_alpha:2,w,h_r,phi:1.62"],
    "calibrate": [],
    "rank": ["--index", "w", "--classes", "0.2,0.5"],
    "dual-check": ["--index", "h", "--samples", "2", "--seed", "3"],
}


def _pick(rng, choices):
    return choices[int(rng.integers(len(choices)))]


def _cohort_mutant(rng, fmt):
    """A small cohort file of ``fmt`` with one seeded mutation: a value
    near the float maximum, a duplicate id, a duplicate JSON key, a JSON
    value of another type, an id of another JSON type, a byte flip, a
    truncation or other text for one citation.  Most mutants stay valid."""
    authors = [[("id", f"a{k}"), ("citations", rng.integers(40, size=rng.integers(7)).tolist())]
               for k in range(int(rng.integers(1, 6)))]
    for entry in authors:
        if rng.random() < 0.3:
            entry.append(("annotations", {"field": "probability"}))
    top = [("authors", authors)]
    entry = _pick(rng, authors)
    citations = entry[1][1]
    kind = int(rng.integers(9))
    if kind <= 1:
        citations.insert(int(rng.integers(len(citations) + 1)), _pick(rng, _NEAR_MAX))
    elif kind == 2:
        entry[0] = ("id", authors[0][0][1])
    elif kind == 3 and fmt == "csv":
        authors.append(entry)
    elif kind == 3:
        twin = _pick(rng, [("id", "b"), ("citations", [5, 1]), ("annotations", {}),
                           ("authors", [{"id": "b", "citations": [9]}])])
        where = top if twin[0] == "authors" else entry
        where.insert(int(rng.integers(len(where) + 1)), twin)
    elif kind == 4:
        if citations and rng.random() < 0.5:
            citations[int(rng.integers(len(citations)))] = _pick(rng, _SWAPS)
        else:
            slot = int(rng.integers(len(entry)))
            entry[slot] = (entry[slot][0], _pick(rng, _SWAPS))
    elif kind == 5:
        entry[0] = ("id", _pick(rng, [*_SWAPS, 'say "hi"', "x,y", "two\nlines", "\ud800"]))

    def obj(pairs):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in pairs)

    def encode(value):
        return "[%s]" % ", ".join(map(obj, value)) if value is authors else json.dumps(value)

    if fmt == "json":
        text = obj(top)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["author_id", "citations"])
        for record in authors:
            fields = dict(record)
            cells = fields["citations"]
            cells = cells if isinstance(cells, list) else [cells]
            writer.writerow([fields["id"], ";".join(map(str, cells))])
        text = buf.getvalue()
    if kind == 8:  # the text of one citation, in a form one of the two readers might misread
        numbers = list(re.finditer(r"(?<=[\[ ])\d+(?=[,\]])" if fmt == "json"
                                   else r"(?<=[,;])\d+(?=[;\n])", text))
        if numbers:
            number = _pick(rng, numbers)
            text = text[:number.start()] + _pick(rng, _NUMBER_TEXTS) + text[number.end():]
    data = text.encode("utf-8", "surrogatepass")
    if kind == 6:
        return _mutated(rng, data)
    if kind == 7:
        return data[:int(rng.integers(len(data) + 1))]
    return data


def test_cohort_mutants_end_cleanly_and_both_readers_agree(tmp_path, capsys, monkeypatch):
    """Seeded mutants of small cohorts, through every subcommand: an
    error is one message and no output file; a success writes nothing to
    stderr, and the same bytes as the scalar reader's parse of the file."""
    rng = np.random.default_rng(6102)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def outcome(argv):
        code = run(argv)
        err = capsys.readouterr().err
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        for p in out_dir.iterdir():
            p.unlink()
        return code, err, written

    codes = []
    for trial in range(300):
        fmt = _pick(rng, ["csv", "json"])
        path = tmp_path / f"in.{fmt}"
        path.write_bytes(_cohort_mutant(rng, fmt))
        sub = list(_MUTANT_ARGS)[trial % 4]
        out = out_dir / f"out.{_pick(rng, ['csv', 'json'])}"
        flag = "--profile" if sub == "calibrate" else "--output"
        argv = [sub, "--input", str(path), *_MUTANT_ARGS[sub], flag, str(out)]
        code, err, written = outcome(argv)
        assert code in (0, 1, 2), argv
        if code:
            assert err.startswith("srm: error: ") and err.count("\n") == 1, (argv, err)
            assert written == {}, argv
        else:
            assert err == "" and list(written) == [out.name], argv
        with monkeypatch.context() as scalar:
            scalar.setattr(cohort_module, "_plain_csv", lambda cells: None)
            scalar.setattr(cohort_module, "_plain_json", lambda text: None)
            assert outcome(argv) == (code, err, written), (argv, path.read_bytes())
        codes.append(code)
    assert min(codes.count(0), codes.count(1)) > 100


_SPECIALS = [math.nan, math.inf, -1.5, 0, 7.5, 1e300, -0.0, 2**70, "1.62"]


def _profile_mutant(rng, profile: bytes) -> bytes:
    """A profile that ``srm calibrate`` wrote, with one seeded mutation:
    a top-level or fit field of another value or type (NaN and Infinity
    tokens included), a key dropped or added, a fit duplicated, a byte
    flip or a truncation.  Some mutants stay valid."""
    doc = json.loads(profile)
    fit = _pick(rng, doc["fits"])
    kind = int(rng.integers(8))
    if kind <= 1:
        where = doc if kind == 0 else fit
        key = _pick(rng, sorted(where))
        where[key] = _pick(rng, _SPECIALS + _SWAPS)
    elif kind == 2:
        where = _pick(rng, [doc, fit])
        del where[_pick(rng, sorted(where))]
    elif kind == 3:
        _pick(rng, [doc, fit])["extra"] = _pick(rng, _SWAPS)
    elif kind == 4:
        doc["fits"].append(dict(fit))
    text = json.dumps(doc).encode()  # NaN and Infinity as Python's json writes them
    if kind == 5:
        return _mutated(rng, text)
    if kind == 6:
        return text[:int(rng.integers(len(text) + 1))]
    return text


_CONFIG_VALUES = {
    "indices": ["h,w,phi", "phi:1.62", "h", "", "zz", "phi:0"],
    "index": ["phi", "pubs", "w", "h", "c_max", "bogus", ""],
    "classes": ["0.2,0.5", "0.5", "1", "x", "0.3,0.1"],
    "deltas": ["1,0.1", "0.5", "nan", "-1", "x"],
    "samples": ["2", "0", "-1", "x", "1e3"],
    "seed": ["3", "0", "-5", "x", ""],
    "extent": ["40", "5", "nan", "0", "-1", "x"],
    "format": ["csv", "json", "xml", ""],
}


def _config_mutant(rng) -> bytes:
    """A valid --config file with one seeded mutation: one value from a
    short list of good and bad ones, a key renamed or unknown, a value
    quoted or commented, an '=' dropped, a line dropped or added, a byte
    that UTF-8 cannot decode, or a truncation.  Values stay small, so a
    valid mutant runs in milliseconds.  Some mutants stay valid."""
    lines = [[key, choices[0]] for key, choices in _CONFIG_VALUES.items()]
    line = _pick(rng, lines)
    kind = int(rng.integers(9))
    if kind <= 1:
        line[1] = _pick(rng, _CONFIG_VALUES[line[0]])
    elif kind == 2:
        line[0] = _pick(rng, [line[0].upper(), line[0].replace("e", "-e", 1), "bogus"])
    elif kind == 3:
        line[1] = _pick(rng, [f'"{line[1]}"', f"'{line[1]}", f"{line[1]} # note"])
    elif kind == 4:
        lines.remove(line)
    elif kind == 5:
        lines.insert(int(rng.integers(len(lines) + 1)), _pick(rng, [[""], ["# x"], ["="], ["k"]]))
    data = "\n".join(" = ".join(parts) for parts in lines).encode()
    if kind == 6:
        return data.replace(b" = ", b" ", 1)
    if kind == 7:
        pos = int(rng.integers(len(data) + 1))
        return data[:pos] + b"\xff" + data[pos:]
    if kind == 8:
        return data[:int(rng.integers(len(data) + 1))]
    return data


def test_profile_and_config_mutants_end_cleanly(tmp_path, capsys, monkeypatch):
    """Seeded mutants of a profile that ``srm calibrate`` wrote, through
    ``compute`` and ``rank`` with a bare ``phi``, and of ``--config``
    files, through every subcommand: an error is one message and no
    output file; a success writes nothing to stderr and one file."""
    monkeypatch.chdir(tmp_path)  # no mutant may write where the test runs from
    rng = np.random.default_rng(6103)
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(CSV_FIXTURE + "X3,9;7;5;3;1\nX4,12;1\n")
    valid = tmp_path / "valid.json"
    assert run(["calibrate", "--input", str(cohort), "--profile", str(valid)]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    profile = tmp_path / "profile.json"
    config = tmp_path / "run.cfg"
    codes = {"profile": [], "config": []}
    for trial in range(400):
        kind = "profile" if trial % 2 else "config"
        out = out_dir / f"out.{_pick(rng, ['csv', 'json'])}"
        if kind == "profile":
            profile.write_bytes(_profile_mutant(rng, valid.read_bytes()))
            sub = _pick(rng, ["compute", "rank"])
            extra = ["--indices", "h,phi"] if sub == "compute" else ["--index", "phi"]
            argv = [sub, "--input", str(cohort), *extra, "--profile", str(profile)]
        else:
            config.write_bytes(_config_mutant(rng))
            sub = list(_MUTANT_ARGS)[trial // 2 % 4]
            argv = [sub, "--input", str(cohort), "--config", str(config)]
            argv += ["--profile", str(out if sub == "calibrate" else valid)]
        if sub != "calibrate":
            argv += ["--output", str(out)]
        code = run(argv)
        err = capsys.readouterr().err
        written = sorted(p.name for p in out_dir.iterdir())
        for p in out_dir.iterdir():
            p.unlink()
        assert code in (0, 1, 2), argv
        if code:
            assert err.startswith("srm: error: ") and err.count("\n") == 1, (argv, err)
            assert written == [], argv
        else:
            assert err == "" and written == [out.name], (argv, err)
        codes[kind].append(code)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cohort.csv", "out", "profile.json", "run.cfg", "valid.json"]
    assert min(codes["profile"].count(0), codes["profile"].count(1)) > 40
    assert min(codes["config"].count(0), codes["config"].count(2)) > 40


_GOLDEN_ARGS = {
    "compute": ["--indices", "h,w,phi:1.62"],
    "rank": ["--index", "w"],
    "dual-check": ["--index", "h", "--samples", "3", "--seed", "1"],
}

_GOLDEN = {
    ("compute", "csv"): """\
author_id,h,w,phi:1.62
X1,3,4,8
X2,2,3,4
""",
    ("compute", "json"): """\
{
  "authors": [
    {
      "id": "X1",
      "values": {
        "h": {
          "attained": true,
          "level": 3.0
        },
        "phi:1.62": {
          "attained": true,
          "level": 8.0
        },
        "w": {
          "attained": true,
          "level": 4.0
        }
      }
    },
    {
      "id": "X2",
      "values": {
        "h": {
          "attained": true,
          "level": 2.0
        },
        "phi:1.62": {
          "attained": true,
          "level": 4.0
        },
        "w": {
          "attained": true,
          "level": 3.0
        }
      }
    }
  ],
  "indices": [
    "h",
    "w",
    "phi:1.62"
  ]
}
""",
    ("rank", "csv"): """\
author_id,value,rank,merit_class
X1,4,1,class-1
X2,3,2,class-3
""",
    ("rank", "json"): """\
{
  "cutoffs": [
    0.1,
    0.3
  ],
  "index": "w",
  "ranking": [
    {
      "id": "X1",
      "merit_class": "class-1",
      "rank": 1,
      "value": 4.0
    },
    {
      "id": "X2",
      "merit_class": "class-3",
      "rank": 2,
      "value": 3.0
    }
  ]
}
""",
    ("dual-check", "csv"): """\
author_id,value,n_densities,min_margin,gap_1,gap_0.1,gap_0.01
X1,3,3,1,0.561552813,0.0652475842,0.00665191733
X2,2,3,1.21098828,0.732050808,0.095445115,0.00995049384
""",
    ("dual-check", "json"): """\
{
  "authors": [
    {
      "author_id": "X1",
      "gap_0.01": 0.00665191733,
      "gap_0.1": 0.0652475842,
      "gap_1": 0.561552813,
      "min_margin": 1.0,
      "n_densities": 3,
      "value": 3.0
    },
    {
      "author_id": "X2",
      "gap_0.01": 0.00995049384,
      "gap_0.1": 0.095445115,
      "gap_1": 0.732050808,
      "min_margin": 1.21098828,
      "n_densities": 3,
      "value": 2.0
    }
  ],
  "index": "h"
}
""",
    ("calibrate", "fitted"): """\
{
  "beta_bar": 0.667505419900654,
  "cohort_size": 2,
  "fits": [
    {
      "author_id": "X1",
      "beta_hat": 0.9241833528564696,
      "n_excluded": 0,
      "n_points": 4,
      "q_hat": 9.225180436700724,
      "r2": 0.8541148696970258
    },
    {
      "author_id": "X2",
      "beta_hat": 0.41082748694483845,
      "n_excluded": 0,
      "n_points": 5,
      "q_hat": 3.4046537882188224,
      "r2": 0.7093851264991965
    }
  ],
  "metadata": {},
  "version": 1
}
""",
    ("calibrate", "skipped"): """\
{
  "beta_bar": 0.667505419900654,
  "cohort_size": 2,
  "fits": [
    {
      "author_id": "X1",
      "beta_hat": 0.9241833528564696,
      "n_excluded": 0,
      "n_points": 4,
      "q_hat": 9.225180436700724,
      "r2": 0.8541148696970258
    },
    {
      "author_id": "X2",
      "beta_hat": 0.41082748694483845,
      "n_excluded": 0,
      "n_points": 5,
      "q_hat": 3.4046537882188224,
      "r2": 0.7093851264991965
    }
  ],
  "metadata": {
    "skipped": [
      "X3"
    ]
  },
  "version": 1
}
""",
}


@pytest.mark.parametrize("command, fmt", sorted(k for k in _GOLDEN if k[0] != "calibrate"),
                         ids="-".join)
def test_output_bytes_are_pinned(cohort_csv, capsys, command, fmt):
    """Layout, key order, indentation and number rendering of each output."""
    assert run([command, "--input", str(cohort_csv), *_GOLDEN_ARGS[command],
                "--format", fmt]) == 0
    assert capsys.readouterr().out == _GOLDEN[command, fmt]


@pytest.mark.parametrize("case, extra", [("fitted", ""), ("skipped", "X3,5;0\n")])
def test_profile_bytes_are_pinned(tmp_path, case, extra):
    """Full-precision floats, and the metadata with and without skipped authors."""
    path = tmp_path / "cohort.csv"
    path.write_text(CSV_FIXTURE + extra)
    profile = tmp_path / "profile.json"
    assert run(["calibrate", "--input", str(path), "--profile", str(profile)]) == 0
    assert profile.read_text() == _GOLDEN["calibrate", case]
