import json
import math
import os
import stat

import numpy as np

import pytest

from srmkit import CohortProfile
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

    def test_bad_cutoffs_are_usage_errors(self, cohort_csv):
        assert run(["rank", "--input", str(cohort_csv), "--index", "h",
                    "--classes", "0.5,0.2"]) == 2
        assert run(["rank", "--input", str(cohort_csv), "--index", "h",
                    "--classes", "zero"]) == 2


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
    ])
    def test_malformed_profile_is_data_error(self, cohort_csv, tmp_path, doc, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(doc))
        assert run(["compute", "--input", str(cohort_csv), "--indices", "phi",
                    "--profile", str(profile)]) == 1
        assert "malformed profile" in capsys.readouterr().err


class TestIngestErrorsAtTheCommandLine:
    @pytest.mark.parametrize("name, data", [
        ("deep.json", b"[" * 100_000 + b"]" * 100_000),
        ("huge.json", b'{"authors": [{"id": "a", "citations": [1' + b"0" * 400 + b"]}]}"),
        ("cr.csv", b"author_id,citations\na,1\rb,2\n"),
    ], ids=["deep", "huge", "cr"])
    def test_bad_input_is_data_error(self, tmp_path, name, data, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["compute", "--input", str(path), "--indices", "h"]) == 1
        assert "srm: error:" in capsys.readouterr().err

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

_FUZZ_PROFILE = json.dumps({"version": 1, "beta_bar": 1.62, "fits": [], "metadata": {}})


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
