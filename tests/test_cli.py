"""End-to-end command behavior: composition, exit codes, manifests."""

import ast
import errno
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pesignal.cli
from pesignal.backtest import BacktestConfig, read_predictions, run, run_scopes, write_predictions
from pesignal.cli import RunConfig, main, resolve_config
from pesignal.errors import NumericalError, UsageError
from pesignal.evaluation import roc, scored_pairs
from pesignal.features import read_feature_table
from pesignal.ingest import SECTOR_NAMES, parse_deals, parse_prices
from pesignal.response import Label, build_labels
from pesignal.synthetic import SyntheticSpec, generate_dataset

SMALL = {
    "n_quarters": 24,
    "n_sectors": 2,
    "t": 6,
    "ne": 4,
    "max_iter": 200,
    "seed": 11,
}

SMALL_SCOPES = ["Market", "Commercial Services", "Communications"]

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, settings, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(settings), encoding="utf-8")
    return str(path)


def run_pipeline(tmp_path, settings):
    config = write_config(tmp_path, settings)
    out = str(tmp_path / "out")
    for command in ("synth", "features", "backtest", "evaluate"):
        code = main([command, "--config", config, "--out", out, "--scopes", ",".join(SMALL_SCOPES)])
        assert code == 0, command
    return tmp_path / "out"


class TestSmokePath:
    def test_pipeline_completes_with_all_files(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        slugs = ["market", "commercial_services", "communications"]
        expected = ["deals.csv", "prices.csv", "pe.csv", "scores.jsonl"]
        expected += [f"manifest_{c}.json" for c in ("synth", "features", "backtest", "evaluate")]
        for slug in slugs:
            expected += [
                f"features_{slug}.csv",
                f"zscores_{slug}.csv",
                f"predictions_{slug}.csv",
                f"scatter_{slug}.csv",
            ]
        for name in expected:
            assert (out / name).is_file(), name

    def test_prediction_row_count_matches_schedule(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        lines = (out / "predictions_market.csv").read_text().splitlines()
        assert len(lines) - 1 == SMALL["n_quarters"] - SMALL["t"] - SMALL["ne"] + 1

    def test_scores_include_each_scope_and_pooled_all(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert [row["scope"] for row in rows] == SMALL_SCOPES + ["ALL"]
        # ALL scores the concatenated pairs of every scope, not an average of AUCs
        pooled = []
        for slug in ("market", "commercial_services", "communications"):
            with open(out / f"predictions_{slug}.csv", encoding="utf-8") as handle:
                pooled += scored_pairs(read_predictions(handle))
        assert rows[-1]["n"] == len(pooled) == sum(row["n"] for row in rows[:-1])
        assert rows[-1]["auc"] == pytest.approx(roc(pooled).auc, abs=5e-7)
        assert (out / "roc_all.csv").is_file()
        assert not (out / "scatter_all.csv").exists()

    def test_evaluate_scores_the_labels_backtest_predicted(self, tmp_path):
        # backtest classifies at 0.3 and evaluate runs on the defaults; the
        # counts in scores.jsonl are the table's, as its scatter shows them
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        for command, flags in (("synth", []), ("features", []), ("backtest", ["--threshold", "0.3"]), ("evaluate", [])):
            assert main([command, "--config", config, "--out", str(out), "--scopes", "Market", *flags]) == 0, command
        with open(out / "predictions_market.csv", encoding="utf-8") as handle:
            records = read_predictions(handle)
        # an UP below 0.5 is a label evaluate's default threshold would not give
        assert any(rec.predicted is Label.UP and rec.p_up < 0.5 for rec in records if rec.actual is not None)
        pairs = Counter((rec.predicted, rec.actual) for rec in records)
        up, down = Label.UP, Label.DOWN
        tally = {"tp": pairs[up, up], "fp": pairs[up, down], "tn": pairs[down, down], "fn": pairs[down, up]}
        (row,) = [json.loads(line) for line in (out / "scores.jsonl").read_text(encoding="utf-8").splitlines()]
        assert {key: row[key] for key in tally} == tally

    def test_rerun_is_byte_identical(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(tmp_path, SMALL)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == before

    def test_rerun_from_manifests_is_byte_identical(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for command in ("synth", "features", "backtest", "evaluate"):
            manifest = str(out / f"manifest_{command}.json")
            assert main([command, "--config", manifest]) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == before

    def test_manifests_hash_each_input_as_read_once_and_no_output_is_read_back(self, tmp_path, monkeypatch):
        from pesignal import cli

        out = run_pipeline(tmp_path, SMALL)
        config = write_config(tmp_path, SMALL)
        opened = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: opened.append(str(path)) or read_bytes(path))
        monkeypatch.setattr(
            cli, "open", lambda path, *a, **k: opened.append(str(path)) or open(path, *a, **k), raising=False
        )
        for command in ("features", "backtest", "evaluate"):
            opened.clear()
            assert main([command, "--config", config, "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]) == 0
            manifest = json.loads(read_bytes(out / f"manifest_{command}.json"))
            assert sorted(path for path in opened if path != config) == sorted(manifest["inputs"]), command
            for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
                assert hashlib.sha256(read_bytes(Path(path))).hexdigest() == digest, path

    def test_every_manifest_is_strict_json(self, tmp_path):
        # NaN and Infinity are not JSON (RFC 8259)
        out = run_pipeline(tmp_path, SMALL)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        for command in ("synth", "features", "backtest", "evaluate"):
            json.loads((out / f"manifest_{command}.json").read_text(encoding="utf-8"), parse_constant=refuse)

    def test_downstream_stage_can_use_its_own_out_dir(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        data = tmp_path / "data"
        work = tmp_path / "work"
        assert main(["synth", "--config", config, "--out", str(data)]) == 0
        assert main(["features", "--config", str(data / "manifest_synth.json"), "--out", str(work)]) == 0
        assert (data / "deals.csv").is_file()
        assert (work / "features_market.csv").is_file()
        assert not (work / "deals.csv").exists()


class TestSynth:
    def test_scopes_recorded_in_manifest(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["synth", "--out", out, "--seed", "3", "--config", write_config(tmp_path, SMALL)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["scopes"] == SMALL_SCOPES
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["deals"] == str(tmp_path / "out" / "deals.csv")
        assert manifest["inputs"] == {}
        assert set(map(str, manifest["outputs"])) == {
            str(tmp_path / "out" / name) for name in ("deals.csv", "prices.csv", "pe.csv")
        }

    def test_flag_overrides_config_seed(self, tmp_path):
        config = write_config(tmp_path, dict(SMALL, seed=1))
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["synth", "--config", config, "--out", out_a]) == 0
        assert main(["synth", "--config", config, "--out", out_b, "--seed", "2"]) == 0
        deals_a = (tmp_path / "a" / "deals.csv").read_bytes()
        deals_b = (tmp_path / "b" / "deals.csv").read_bytes()
        assert deals_a != deals_b

    @pytest.mark.parametrize(
        "scopes, message",
        [
            ("Tulips", "unknown scope 'Tulips'"),
            ("Market,Market", "scope 'Market' is listed more than once"),
            (",", "scope list is empty"),
            # SMALL synthesizes the first two sectors only
            ("Market,Finance", "scope 'Finance' is not synthesized with n_sectors = 2"),
        ],
    )
    def test_bad_scopes_are_usage_errors(self, tmp_path, capsys, scopes, message):
        out = tmp_path / "out"
        assert main(["synth", "--config", write_config(tmp_path, SMALL), "--out", str(out), "--scopes", scopes]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "file, row, command, line",
        [
            pytest.param("deals.csv", 2, "features", "deal file line 3", id="deal-body"),
            pytest.param("deals.csv", 0, "features", "deal file line 1", id="deal-header"),
            pytest.param("prices.csv", 2, "backtest", "price file line 3", id="price-body"),
        ],
    )
    def test_a_cell_past_the_csv_field_limit_is_a_data_error_naming_its_line(
        self, tmp_path, capsys, file, row, command, line
    ):
        # the csv module refuses a field over 131072 characters
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        study = ["--config", config, "--out", str(out), "--scopes", "Market"]
        assert main(["synth", *study]) == 0
        assert main(["features", *study]) == 0
        path = out / file
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        parts = lines[row].split(",")
        parts[1] = "x" * 200_000
        lines[row] = ",".join(parts)
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([command, *study]) == 2
        assert capsys.readouterr().err == f"pesignal: data error: {path}: {line}: field larger than field limit (131072)\n"

    def test_insufficient_history_names_required_quarters(self, tmp_path, capsys):
        settings = dict(SMALL, n_quarters=10, t=8, ne=4)
        config = write_config(tmp_path, settings)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert main(["features", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["backtest", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "insufficient history" in err
        assert "at least 12 quarters" in err

    def test_evaluate_rejects_prediction_rows_of_another_scope(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, SMALL)
        market = out / "predictions_market.csv"
        ours = market.read_text().splitlines(keepends=True)
        theirs = (out / "predictions_communications.csv").read_text().splitlines(keepends=True)
        study = ["evaluate", "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", "Market"]
        market.write_text("".join(ours + theirs[1:2]))
        assert main(study) == 2
        err = capsys.readouterr().err
        assert f"{market}: prediction table line {len(ours) + 1}: scope Communications, but the table is Market's" in err
        market.write_text("".join(theirs))
        assert main(study) == 2
        assert "holds Communications predictions, not Market's" in capsys.readouterr().err

    def test_backtest_rejects_a_feature_table_of_another_scope(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, SMALL)
        market = out / "features_market.csv"
        market.write_bytes((out / "features_commercial_services.csv").read_bytes())
        study = ["backtest", "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", "Market"]
        assert main(study) == 2
        assert f"data error: {market} holds Commercial Services features, not Market's" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["features", "backtest"])
    def test_rerun_that_fails_on_a_later_scope_leaves_every_output(self, tmp_path, capsys, command):
        # the second scope's input breaks, and the rerun changes a setting
        # that would rewrite the first scope's output had it been written
        out = run_pipeline(tmp_path, SMALL)
        if command == "features":
            pe = out / "pe.csv"
            lines = pe.read_text().splitlines(keepends=True)
            pe.write_text("".join(line for line in lines if not line.startswith("Commercial Services,")))
            changed, message = ["--t", "5"], "has no series named 'Commercial Services'"
        else:
            table = out / "features_commercial_services.csv"
            table.write_text("".join(table.read_text().splitlines(keepends=True)[:9]))
            changed, message = ["--eta", "0.002"], "insufficient history"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        study = [command, "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]
        assert main(study + changed) == 2
        assert message in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "command, second, code, message",
        [
            ("features", "Communications", 2, "has no series named 'Communications'"),
            ("backtest", "Commercial Services", 1, "input file not found"),
            ("evaluate", "Commercial Services", 1, "input file not found"),
        ],
        ids=["features", "backtest", "evaluate"],
    )
    def test_rerun_that_fails_on_its_second_scope_leaves_every_file_and_manifest(
        self, tmp_path, capsys, command, second, code, message
    ):
        # a Market-only study of one synthetic sector, then a rerun whose second
        # scope has no P/E series, or no table the study wrote for it
        config = write_config(tmp_path, {**SMALL, "n_sectors": 1})
        out = tmp_path / "out"
        for step in ("synth", "features", "backtest", "evaluate"):
            assert main([step, "--config", config, "--out", str(out), "--scopes", "Market"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main([command, "--config", config, "--out", str(out), "--scopes", f"Market,{second}"]) == code
        assert message in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["features", "--out", str(tmp_path / "nowhere")]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config_is_a_directory", "input_is_a_directory", "out_is_a_file"])
    def test_unusable_path_is_a_usage_error(self, tmp_path, case):
        if case == "config_is_a_directory":
            path = tmp_path / "settings"
            path.mkdir()
            argv, code = ["synth", "--config", str(path)], errno.EISDIR
        elif case == "input_is_a_directory":
            path = tmp_path / "d" / "deals.csv"
            path.mkdir(parents=True)
            argv, code = ["features", "--out", str(path.parent)], errno.EISDIR
        else:
            path = tmp_path / "afile"
            path.write_text("")
            argv, code = ["synth", "--config", write_config(tmp_path, SMALL), "--out", str(path)], errno.EEXIST
        result = subprocess.run([sys.executable, "-m", "pesignal", *argv], capture_output=True, text=True, check=False)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "usage error" in result.stderr and str(path) in result.stderr
        assert os.strerror(code) in result.stderr

    def test_input_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        deals = out / "deals.csv"
        text = deals.read_text(encoding="utf-8")
        # a Latin-1 export: everything before the first name is ASCII
        deals.write_bytes(text.replace("Synthetic", "Caf\u00e9", 1).encode("latin-1"))
        offset = text.index("Synthetic") + 3
        assert main(["features", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {deals} is not UTF-8: byte 0xe9 at offset {offset}" in err
        assert not (out / "manifest_features.json").exists()

    def test_config_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": "caf\xe9"}')
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"usage error: config file {path} is not UTF-8: byte 0xe9 at offset 13" in capsys.readouterr().err

    def test_manifest_whose_config_is_not_an_object_is_a_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"command": "synth", "config": [1]})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f'usage error: config file {config}: a manifest\'s "config" must be a JSON object' in err

    @pytest.mark.parametrize("key", ["first", "last", "start"])
    # year 0 matches the quarter pattern but has no end date; a year in
    # fullwidth or Arabic-Indic digits is no quarter
    @pytest.mark.parametrize(
        "value", ["2001Q5", "garbage", 2001, "0000Q1", "\uff12\uff10\uff10\uff14Q3", "\u0662\u0660\u0660\u0664Q3"]
    )
    def test_quarter_that_does_not_parse_is_a_usage_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, dict(SMALL, **{key: value}))
        for command in ("synth", "features"):
            assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
            assert f"usage error: bad value for {key!r}: {value!r}" in capsys.readouterr().err

    def test_non_finite_feature_cell_is_a_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        assert main(["features", "--config", config, "--out", str(out)]) == 0
        path = out / "features_market.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for column, cell, problem in (
            (3, "nan", "avg_aum is not finite"),
            (3, "inf", "avg_aum is not finite"),
            (3, "-inf", "avg_aum is not finite"),
            (2, "NA", "deal_count is not a count"),
        ):
            parts = lines[3].split(",")
            parts[column] = cell
            path.write_text("".join(lines[:3] + [",".join(parts)] + lines[4:]), encoding="utf-8")
            capsys.readouterr()
            assert main(["backtest", "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"data error: {path}: feature table line 4: {problem}: {cell!r}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, name, line, column, cell, message",
        [
            pytest.param(
                "features", "pe.csv", 2, 2, "-4", "price file line 3: index level must be finite and > 0, got -4.0",
                id="pe-level",
            ),
            pytest.param(
                "backtest", "prices.csv", 2, 2, "-4", "price file line 3: index level must be finite and > 0, got -4.0",
                id="prices-level",
            ),
            pytest.param(
                "backtest", "prices.csv", 2, 2, "abc", "price file line 3: cannot parse index level 'abc'",
                id="prices-level-text",
            ),
            pytest.param("backtest", "prices.csv", 2, 0, "", "price file line 3: empty index name", id="prices-name"),
            pytest.param(
                "backtest", "prices.csv", 2, 1, "2000-13-45", "price file line 3: cannot parse date '2000-13-45'",
                id="prices-date",
            ),
            # the cell None deletes the column's cell
            pytest.param(
                "backtest", "prices.csv", 2, 2, None, "price file line 3: row has no value cell", id="prices-short-row"
            ),
            pytest.param(
                "evaluate", "predictions_market.csv", 2, 5, None, "prediction table line 3: expected 6 columns",
                id="prediction-five-cells",
            ),
            # a column past the last appends a cell, here to the header (line 0)
            pytest.param(
                "features", "deals.csv", 0, 7, "sector", "deal file header repeats columns: sector",
                id="deals-repeated-column",
            ),
            pytest.param(
                "backtest", "prices.csv", 0, 3, "value", "price file header repeats columns: value",
                id="prices-repeated-column",
            ),
            # the column None empties the file
            pytest.param("features", "deals.csv", 0, None, None, "deal file has no header row", id="deals-headerless"),
        ],
    )
    def test_defective_input_is_a_data_error_naming_the_file(
        self, tmp_path, capsys, command, name, line, column, cell, message
    ):
        out = run_pipeline(tmp_path, SMALL)
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if column is None:
            lines = []
        else:
            parts = lines[line].rstrip("\n").split(",")
            parts[column : column + 1] = [] if cell is None else [cell]
            lines[line] = ",".join(parts) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        study = [command, "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]
        assert main(study) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "scope, levels, message",
        [
            # (P1 / P0) ** 4 is past the float range
            pytest.param(
                "Market",
                {"Market": ("1", "1e100")},
                "forward return of Market at 2000Q3 overflows: level 1.0 to 1e+100",
                id="market-power",
            ),
            # P1 / P0 is inf in both series; inf - inf made the label DOWN
            pytest.param(
                "Commercial Services",
                {"Market": ("1e-200", "1e200"), "Commercial Services": ("1e-200", "1e200")},
                "forward return of Commercial Services at 2000Q3 overflows: level 1e-200 to 1e+200",
                id="sector-ratio",
            ),
        ],
    )
    def test_overflowing_forward_return_is_a_data_error(self, tmp_path, capsys, scope, levels, message):
        out = run_pipeline(tmp_path, SMALL)
        path = out / "prices.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for index, (before, after) in levels.items():
            for date, value in (("2000-09-30", before), ("2000-12-31", after)):
                at = lines.index(next(line for line in lines if line.startswith(f"{index},{date},")))
                lines[at] = f"{index},{date},{value}\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        study = ["backtest", "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", scope]
        assert main(study) == 2
        err = capsys.readouterr().err
        assert f"data error: {message}" in err
        assert "Traceback" not in err

    def _study_with_first_aum(self, tmp_path, capsys, aum):
        """Run synth, give the first deal this AUM, then run features and
        backtest; both must exit 0 and write only finite numbers."""
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        deals = out / "deals.csv"
        lines = deals.read_text(encoding="utf-8").splitlines(keepends=True)
        # a quoted company name may hold commas, so count from the end
        parts = lines[1].split(",")
        assert parts[-4].startswith("2000-")
        parts[-2] = aum
        deals.write_text("".join(lines[:1] + [",".join(parts)] + lines[2:]), encoding="utf-8")
        capsys.readouterr()
        for command in ("features", "backtest"):
            assert main([command, "--config", config, "--out", str(out)]) == 0, command
            assert "Traceback" not in capsys.readouterr().err
        written = sorted(set(out.glob("*.csv")) - {deals, out / "prices.csv", out / "pe.csv"})
        assert {path.name for path in written} >= {"features_market.csv", "zscores_market.csv"}
        for path in written:
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, line)
        return out

    def test_feature_too_large_for_unscaled_squares_standardizes(self, tmp_path, capsys):
        # unscaled, a squared deviation of 1e200 overflows; the window is
        # scaled by a power of two first, so the z exists and is finite
        out = self._study_with_first_aum(tmp_path, capsys, "1e200")
        header, *rows = (out / "zscores_market.csv").read_text(encoding="utf-8").splitlines()
        column = header.split(",").index("z_avg_aum")
        # the first 6-quarter window, which ends at 2001Q2, opens with the
        # value; beside it the other five are negligible, so z = -1/sqrt(6)
        assert rows[0].split(",")[1] == "2001-06-30"
        assert float(rows[0].split(",")[column]) == pytest.approx(-1 / math.sqrt(6), abs=1e-6)

    def test_aum_whose_weight_overflows_is_aggregated(self, tmp_path, capsys):
        # 1.5 * 1.5e308 is inf; the weighted mean is taken in scaled units
        out = self._study_with_first_aum(tmp_path, capsys, "1.5e308")
        header, first, *_ = (out / "features_market.csv").read_text(encoding="utf-8").splitlines()
        cells = dict(zip(header.split(","), first.split(",")))
        assert 1e307 < float(cells["weighted_avg_aum"]) < 1.5e308

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            pytest.param("synth", "n_quarters", 4, "need at least std_window + 2 = 8 quarters", id="n_quarters-4"),
            pytest.param("synth", "n_quarters", 1e30, "quarters 2000Q1 to 2500000", id="n_quarters-1e30"),
            pytest.param("synth", "seed", math.inf, "bad value for 'seed': inf", id="seed-inf"),
            pytest.param("synth", "noise_scale", math.nan, "bad value for 'noise_scale': nan", id="noise_scale-nan"),
            pytest.param(
                "synth", "base_deal_intensity", math.nan, "bad value for 'base_deal_intensity': nan",
                id="base_deal_intensity-nan",
            ),
            pytest.param(
                "synth", "planted_w", [math.inf, 0, 0, 0, 0], "bad value for 'planted_w': [inf, 0, 0, 0, 0]",
                id="planted_w-inf",
            ),
            pytest.param("synth", "planted_b", math.nan, "bad value for 'planted_b': nan", id="planted_b-nan"),
            pytest.param("features", "t", 1, "std_window must be at least 2 quarters", id="t-1"),
            pytest.param("backtest", "eta", math.nan, "bad value for 'eta': nan", id="eta-nan"),
            pytest.param("backtest", "tolerance", math.inf, "bad value for 'tolerance': inf", id="tolerance-inf"),
            pytest.param("evaluate", "threshold", math.nan, "bad value for 'threshold': nan", id="threshold-nan"),
            pytest.param("backtest", "threshold", 7, "threshold must lie in [0, 1]", id="threshold-7"),
            pytest.param("synth", "out", None, "bad value for 'out': None", id="out-null"),
            pytest.param("synth", "start", None, "bad value for 'start': None", id="start-null"),
            pytest.param("synth", "planted_w", "12345", "bad value for 'planted_w': '12345'", id="planted_w-string"),
            pytest.param(
                "synth", "planted_w", [True, False, 1, 2, 3], "bad value for 'planted_w': [True, False, 1, 2, 3]",
                id="planted_w-booleans",
            ),
            pytest.param("synth", "scopes", {"Market": 3}, "bad value for 'scopes': {'Market': 3}", id="scopes-object"),
            # a float setting takes a finite JSON number only, so no manifest holds NaN or Infinity
            pytest.param("backtest", "eta", "1e-3", "bad value for 'eta': '1e-3'", id="eta-string"),
            pytest.param("features", "planted_b", math.nan, "bad value for 'planted_b': nan", id="features-planted_b-nan"),
            pytest.param(
                "features", "noise_scale", "inf", "bad value for 'noise_scale': 'inf'", id="features-noise_scale-string"
            ),
            pytest.param("backtest", "max_iter", True, "bad value for 'max_iter': True", id="max_iter-true"),
            pytest.param("backtest", "eta", True, "bad value for 'eta': True", id="eta-true"),
            # an empty path names no file; it read as <key>.csv in out
            pytest.param("features", "deals", "", "bad value for 'deals': ''", id="deals-empty"),
            pytest.param("backtest", "prices", "", "bad value for 'prices': ''", id="prices-empty"),
            pytest.param("features", "pe", "", "bad value for 'pe': ''", id="pe-empty"),
            # an empty out names the working directory
            pytest.param("synth", "out", "", "bad value for 'out': ''", id="out-empty"),
            # a line break ends the row it would separate, so features could not read what synth wrote
            pytest.param("synth", "delimiter", "\n", "bad value for 'delimiter': '\\n'", id="delimiter-newline"),
            pytest.param("synth", "delimiter", "\r", "bad value for 'delimiter': '\\r'", id="delimiter-return"),
            # a column named twice is read for both fields, so features could not read what synth wrote
            pytest.param(
                "synth", "deal_columns", {"date": "investor_aum"},
                "DealFileFormat fields date and aum both name column 'investor_aum'", id="deal_columns-repeated",
            ),
            pytest.param(
                "synth", "price_columns", {"date": "value"},
                "PriceFileFormat fields date and value both name column 'value'", id="price_columns-repeated",
            ),
            # numpy reads a key word past the int64 range as a float, so such seeds collide
            pytest.param("synth", "seed", 2**63, "seed must be < 2**63", id="seed-2**63"),
        ],
    )
    def test_bad_setting_is_a_usage_error(self, tmp_path, capsys, command, key, value, message):
        config = write_config(tmp_path, dict(SMALL, **{key: value}))
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_first_after_last_is_a_usage_error(self, tmp_path, capsys):
        # exit 1 before any input is read: the out directory with the inputs does not exist
        config = write_config(tmp_path, dict(SMALL, first="2005Q1", last="2003-03-31"))
        out = tmp_path / "out"
        assert main(["features", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "pesignal: usage error: first 2005Q1 comes after last 2003Q1\n"
        assert not out.exists()
        # a bound the P/E file gives is data, so a first after it stays a data error
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        assert main(["features", "--config", write_config(tmp_path, dict(SMALL, first="2030Q1")), "--out", str(out)]) == 2
        message = f"{out / 'pe.csv'}: first 2030Q1 lies outside the market P/E series, 2000Q1 to 2005Q4"
        assert capsys.readouterr().err.endswith(f"pesignal: data error: {message}\n")
        # first equal to last passes the check, and falls short of t quarters later
        settings = dict(SMALL, first="2004Q1", last="2004Q1")
        assert main(["features", "--config", write_config(tmp_path, settings), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("standardization needs 6 quarters, series has 1\n")

    @pytest.mark.parametrize(
        "key, quarter",
        [
            pytest.param("first", "1990Q1", id="first-before"),
            pytest.param("last", "1990Q1", id="last-before"),
            pytest.param("last", "2030Q1", id="last-after"),
        ],
    )
    def test_a_bound_outside_the_pe_series_is_a_data_error_naming_the_pe_file(self, tmp_path, capsys, key, quarter):
        out = tmp_path / "out"
        assert main(["synth", "--config", write_config(tmp_path, SMALL), "--out", str(out)]) == 0
        config = write_config(tmp_path, dict(SMALL, **{key: quarter}))
        assert main(["features", "--config", config, "--out", str(out)]) == 2
        message = f"{out / 'pe.csv'}: {key} {quarter} lies outside the market P/E series, 2000Q1 to 2005Q4"
        assert capsys.readouterr().err.endswith(f"pesignal: data error: {message}\n")

    def test_a_sector_pe_series_that_ends_early_is_a_data_error_naming_the_pe_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, SMALL)
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        pe = out / "pe.csv"
        lines = pe.read_text(encoding="utf-8").splitlines(keepends=True)
        pe.write_text("".join(line for line in lines if not line.startswith("Communications,2005-12-31")), encoding="utf-8")
        assert main(["features", "--config", config, "--out", str(out), "--scopes", "Market,Communications"]) == 2
        message = f"{pe}: sector P/E series for Communications does not cover 2005Q4"
        assert capsys.readouterr().err.endswith(f"pesignal: data error: {message}\n")

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(None, "config file not found: {path}", id="missing"),
            pytest.param("[1]", "config file {path} must hold a JSON object", id="list"),
        ],
    )
    def test_config_file_that_is_missing_or_not_an_object_is_a_usage_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert f"usage error: {message.format(path=path)}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_config_path_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--config", "", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "pesignal: usage error: bad value for 'config': ''\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"windows": 9})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_scope(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert main(["features", "--config", config, "--out", out, "--scopes", "Tulips"]) == 1
        assert "unknown scope" in capsys.readouterr().err

    def test_repeated_scope(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert main(["features", "--config", config, "--out", out, "--scopes", "Market,Communications,Market"]) == 1
        assert "scope 'Market' is listed more than once" in capsys.readouterr().err

    def test_empty_scope_list(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert main(["features", "--config", config, "--out", out, "--scopes", ","]) == 1
        assert "scope list is empty" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["replay"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, capsys):
        from pesignal import cli

        monkeypatch.setitem(cli._COMMANDS, "backtest", lambda config, files: (_ for _ in ()).throw(NumericalError("boom")))
        assert main(["backtest"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, code, line",
        [
            pytest.param("usage", 1, "pesignal: usage error: unknown scope 'Tulips'", id="usage"),
            pytest.param(
                "history",
                2,
                "pesignal: insufficient history: walk-forward needs at least 26 quarters"
                " (6 to standardize, 20 to estimate, predicting the one after), got 24",
                id="insufficient-history",
            ),
            pytest.param(
                "data", 2, "pesignal: data error: {path} holds Communications features, not Market's", id="data"
            ),
            pytest.param("numerical", 3, "pesignal: numerical failure: boom", id="numerical"),
            pytest.param(
                "prices", 2, "pesignal: data error: {path}: price file line 3: 2000-05-31 is not a quarter-end date",
                id="prices-row",
            ),
            pytest.param(
                "strict", 2, "pesignal: data error: {path}: line 3, column sector: unknown sector 'Zeppelins'",
                id="strict-deal-row",
            ),
            pytest.param(
                "market", 2, "pesignal: data error: {path}: line 3, column sector: unknown sector 'Market'",
                id="strict-market-deal-row",
            ),
            pytest.param(
                "short", 2,
                "pesignal: data error: {path}: line 3, column investor_performance: row has no investor_performance cell",
                id="strict-short-deal-row",
            ),
        ],
    )
    def test_failing_command_prints_one_line_and_its_exit_code(self, tmp_path, capsys, monkeypatch, case, code, line):
        out = run_pipeline(tmp_path, SMALL)
        study = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", "Market"]
        path = out
        if case == "usage":
            argv = ["features", *study[:-1], "Tulips"]
        elif case == "history":
            argv = ["backtest", *study, "--ne", "20"]
        elif case == "data":
            path = out / "features_market.csv"
            path.write_bytes((out / "features_communications.csv").read_bytes())
            argv = ["backtest", *study]
        elif case == "numerical":
            monkeypatch.setitem(pesignal.cli._COMMANDS, "backtest", lambda config, files: (_ for _ in ()).throw(NumericalError("boom")))
            argv = ["backtest", *study]
        else:
            path = out / ("prices.csv" if case == "prices" else "deals.csv")
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            parts = lines[2].split(",")
            if case == "prices":
                parts[1] = "2000-05-31"
                argv = ["backtest", *study]
            elif case == "short":
                parts[-2:] = [parts[-2] + "\n"]  # the rank cell goes, the line end stays
                argv = ["features", *study, "--strict"]
            else:
                parts[2] = "Market" if case == "market" else "Zeppelins"
                argv = ["features", *study, "--strict"]
            lines[2] = ",".join(parts)
            path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().err == line.format(path=path) + "\n"

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0


class TestCommandLog:
    def test_backtest_logs_one_line_of_counts_per_scope_and_one_per_skipped_window(self, tmp_path, capsys):
        # prices cut to start at 2003Q4 leave the first windows without
        # labels; a large step and a loose tolerance stop some fits early
        settings = {"seed": 0, "n_sectors": 1, "max_iter": 20, "eta": 0.5, "tolerance": 0.05}
        scopes = ["Market", "Commercial Services"]
        out = tmp_path / "out"
        study = ["--config", write_config(tmp_path, settings), "--out", str(out), "--scopes", ",".join(scopes)]
        assert main(["synth", *study]) == 0
        assert main(["features", *study]) == 0
        path = out / "prices.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [row for row in rows if row.split(",")[-2] >= "2003-12-31"]
        path.write_text("".join([header, *kept]), encoding="utf-8")
        capsys.readouterr()
        assert main(["backtest", *study]) == 0
        err = capsys.readouterr().err
        with open(path, encoding="utf-8") as handle:
            prices = parse_prices(handle)
        expected = []
        for name in scopes:
            with open(out / f"features_{name.lower().replace(' ', '_')}.csv", encoding="utf-8") as handle:
                table = read_feature_table(handle)
            labels = build_labels(table.scope, prices["Market"], None if table.scope.is_broad else prices[name])
            result = run(table, labels, resolve_config(settings, {}).backtest_config())
            fitted, skipped = len(result.records), len(result.skipped)
            capped = sum(not record.fit.converged for record in result.records)
            assert (fitted + skipped, skipped) == (50, 4) and 0 < capped < fitted, name
            expected += [f"{name} {skip.quarter}: skipped, {skip.reason}" for skip in result.skipped]
            expected.append(f"{name}: {fitted} windows fitted, {capped} stopped at the iteration cap, {skipped} skipped")
        assert err.splitlines() == expected
        assert "converged=" not in err

    def test_evaluate_scores_a_single_class_scope_without_a_roc_curve(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, SMALL)
        path = out / "predictions_market.csv"
        with open(path, encoding="utf-8") as handle:
            records = read_predictions(handle)
        assert any(record.actual is Label.DOWN for record in records)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_predictions([r._replace(actual=None if r.actual is None else Label.UP) for r in records], handle)
        (out / "roc_market.csv").unlink()
        capsys.readouterr()
        study = ["evaluate", "--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", "Market"]
        assert main(study) == 0
        err = capsys.readouterr().err.splitlines()
        assert "Market: single_class_auc" in err
        assert "Market: no ROC curve, AUC undefined: need at least one UP and one DOWN outcome" in err
        assert not (out / "roc_market.csv").exists()
        (row,) = [json.loads(line) for line in (out / "scores.jsonl").read_text(encoding="utf-8").splitlines()]
        assert row["scope"] == "Market" and row["auc"] is None


class TestStrictMode:
    def _break_a_row(self, out):
        path = out / "deals.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "Zeppelins"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_lenient_run_skips_bad_rows(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        self._break_a_row(tmp_path / "out")
        assert main(["features", "--config", config, "--out", out]) == 0

    def test_strict_run_fails_on_bad_rows(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0
        self._break_a_row(tmp_path / "out")
        assert main(["features", "--config", config, "--out", out, "--strict"]) == 2
        assert "data error" in capsys.readouterr().err


class TestByteOrderMark:
    def test_inputs_and_config_with_a_bom_give_the_same_outputs(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export opens with the UTF-8 byte-order mark
        out = run_pipeline(tmp_path, SMALL)
        produced = sorted(out.glob("features_*")) + sorted(out.glob("zscores_*")) + sorted(out.glob("predictions_*"))
        assert len(produced) == 3 * len(SMALL_SCOPES)
        before = {path.name: path.read_bytes() for path in produced}
        marked = [out / "deals.csv", out / "prices.csv", out / "pe.csv", tmp_path / "config.json"]
        for path in marked:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for path in produced:
            path.unlink()
        study = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]
        for command in ("features", "backtest"):
            assert main([command, *study]) == 0, command
        assert {path.name: path.read_bytes() for path in produced} == before
        # manifests hash the bytes read, mark included
        inputs = json.loads((out / "manifest_features.json").read_text(encoding="utf-8"))["inputs"]
        assert inputs[str(out / "deals.csv")] == hashlib.sha256((out / "deals.csv").read_bytes()).hexdigest()
        # a bad byte's offset counts from the start of the file, mark included
        (tmp_path / "config.json").write_bytes(b'\xef\xbb\xbf{"seed": "caf\xe9"}')
        capsys.readouterr()
        assert main(["synth", *study]) == 1
        err = capsys.readouterr().err
        assert err == f"pesignal: usage error: config file {tmp_path / 'config.json'} is not UTF-8: byte 0xe9 at offset 16\n"


class TestWindowsLineEnds:
    # a table saved on Windows ends each line with \r\n
    def test_each_table_reads_the_same_with_crlf_line_ends(self, tmp_path):
        out = run_pipeline(tmp_path, SMALL)
        files = pesignal.cli._Files(resolve_config({}, {}))
        for name, reader in (
            ("deals.csv", parse_deals),
            ("prices.csv", parse_prices),
            ("pe.csv", parse_prices),
            ("features_market.csv", read_feature_table),
            ("features_communications.csv", read_feature_table),
            ("predictions_market.csv", read_predictions),
        ):
            crlf = tmp_path / name
            crlf.write_bytes((out / name).read_bytes().replace(b"\n", b"\r\n"))
            assert files.parse(crlf, reader) == files.parse(out / name, reader), name


class TestColumnMappings:
    def test_renamed_deal_columns_parse_identically(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        assert main(["features", "--config", config, "--out", str(out)]) == 0
        baseline = (out / "features_market.csv").read_bytes()
        deals = out / "deals.csv"
        text = deals.read_text().splitlines()
        text[0] = "id,name,industry,first_investment_date,investor,investor_aum,investor_performance"
        deals.write_text("\n".join(text) + "\n", encoding="utf-8")
        remapped = write_config(
            tmp_path,
            dict(SMALL, deal_columns={"company_id": "id", "company_name": "name", "sector": "industry"}),
            name="remapped.json",
        )
        assert main(["features", "--config", remapped, "--out", str(out)]) == 0
        assert (out / "features_market.csv").read_bytes() == baseline

    def test_unknown_column_mapping_key(self, tmp_path, capsys):
        for key, columns in (("deal_columns", {"ticker": "id"}), ("deal_columns", {"delimiter": ";"})):
            config = write_config(tmp_path, dict(SMALL, **{key: columns}))
            assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
            assert f"unknown {key} entry" in capsys.readouterr().err
        for key in ("deal_columns", "price_columns"):
            for columns in ([], "date", 3):
                config = write_config(tmp_path, dict(SMALL, **{key: columns}))
                assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
                assert f"usage error: bad value for {key!r}: {columns!r}" in capsys.readouterr().err

    def test_delimiter_must_be_one_character(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(SMALL, delimiter=";;"))
        assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "bad value for 'delimiter'" in capsys.readouterr().err

    def test_synth_writes_the_configured_format(self, tmp_path):
        custom = dict(
            SMALL,
            delimiter=";",
            deal_columns={"date": "when", "sector": "industry"},
            price_columns={"index_name": "index", "value": "level"},
        )
        for name, settings in (("default", SMALL), ("custom", custom)):
            out = tmp_path / name
            config = write_config(tmp_path, settings, name=f"{name}.json")
            assert main(["synth", "--config", config, "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]) == 0
            for command, previous in (("features", "synth"), ("backtest", "features"), ("evaluate", "backtest")):
                assert main([command, "--config", str(out / f"manifest_{previous}.json")]) == 0, command
        custom_out = tmp_path / "custom"
        assert (custom_out / "deals.csv").read_text().splitlines()[0] == (
            "company_id;company_name;industry;when;investor;investor_aum;investor_performance"
        )
        assert (custom_out / "pe.csv").read_text().splitlines()[0] == "index;date;level"
        prefixes = ("features_", "zscores_", "predictions_")
        tables = sorted(p.name for p in custom_out.glob("*.csv") if p.name.startswith(prefixes))
        assert len(tables) == 3 * len(SMALL_SCOPES)
        for name in tables:
            assert (custom_out / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name


class TestConfigResolution:
    def test_flags_beat_file_beats_defaults(self):
        config = resolve_config({"t": 9, "eta": 0.5}, {"t": 4})
        assert config.t == 4
        assert config.eta == 0.5
        assert config.ne == 7

    def test_scopes_string_splits(self):
        config = resolve_config({}, {"scopes": "Market, Finance"})
        assert config.scopes == ("Market", "Finance")

    def test_defaults_are_the_library_defaults(self):
        assert RunConfig().backtest_config() == BacktestConfig()
        assert RunConfig().synthetic_spec() == SyntheticSpec()

    def test_readme_configuration_names_every_flag_key_and_method_default(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        ticked = re.findall(r"`([^`]+)`", section)
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        flags = re.findall(r"\[(--[^\]]+)\]", capsys.readouterr().out)
        assert [tick for tick in ticked if tick.startswith("--")] == flags
        assert set(RunConfig._fields) <= {tick.split()[0].lstrip("-") for tick in ticked}
        paragraph = section.split("Method defaults:", 1)[1].split("\n\n", 1)[0]
        stated = {key: json.loads(text) for key, text in re.findall(r"`(\w+) = ([^`]+)`", paragraph)}
        assert set(stated) == {row.key for row in pesignal.cli._SETTINGS if BacktestConfig in row.feeds}
        assert stated == {key: RunConfig._field_defaults[key] for key in stated}

    def test_bad_values_rejected(self):
        with pytest.raises(UsageError):
            resolve_config({"t": "a dozen"}, {})
        with pytest.raises(UsageError):
            resolve_config({"strict": "yes"}, {})
        with pytest.raises(UsageError):
            resolve_config({"planted_w": "strong"}, {})
        for settings in (
            {"out": None},
            {"start": None},
            {"planted_w": "12345"},
            {"planted_w": [True, False, 1, 2, 3]},
            {"scopes": {"Market": 3}},
            {"eta": "1e-3"},
            {"planted_b": math.nan},
            {"noise_scale": "inf"},
            {"planted_w": [math.inf, 0, 0, 0, 0]},
        ):
            with pytest.raises(UsageError):
                resolve_config(settings, {})


class TestPaperShapedRun:
    def test_68_quarters_yield_50_predictions_per_scope(self, tmp_path):
        settings = {
            "n_quarters": 68,
            "n_sectors": 1,
            "t": 12,
            "ne": 7,
            "max_iter": 60,
            "seed": 4,
        }
        config = write_config(tmp_path, settings)
        out = str(tmp_path / "out")
        scopes = "Market,Commercial Services"
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert main(["features", "--config", config, "--out", out, "--scopes", scopes]) == 0
        assert main(["backtest", "--config", config, "--out", out, "--scopes", scopes]) == 0
        for slug in ("market", "commercial_services"):
            lines = (tmp_path / "out" / f"predictions_{slug}.csv").read_text().splitlines()
            rows = lines[1:]
            assert len(rows) == 50
            assert rows[0].split(",")[1] == "2004-09-30"
            assert rows[-1].split(",")[1] == "2016-12-31"


class TestCliMatchesLibrary:
    def test_six_decimal_features_give_the_library_predictions(self, tmp_path):
        # the CLI backtests on feature tables and prices read back at 6
        # decimals, the library on the generator's full floats; at this
        # seed the two agree on every predicted label and p_up moves by
        # well under 1e-5 (2 of 200 cells differ, by at most 5.3e-7)
        settings = {"seed": 7, "n_sectors": 3, "max_iter": 2000}
        config = write_config(tmp_path, settings)
        out = tmp_path / "out"
        resolved = resolve_config(settings, {})
        spec = resolved.synthetic_spec()
        scopes = ",".join(scope.name for scope in spec.scopes())
        for command in ("synth", "features", "backtest"):
            assert main([command, "--config", config, "--out", str(out), "--scopes", scopes]) == 0, command
        data = generate_dataset(spec)
        compared = 0
        for scope in spec.scopes():
            slug = scope.name.lower().replace(" ", "_")
            with open(out / f"predictions_{slug}.csv", encoding="utf-8") as handle:
                cli_records = read_predictions(handle)
            lib_records = run(data.features[scope.name], data.labels[scope.name], resolved.backtest_config()).records
            assert [r.quarter for r in cli_records] == [r.quarter for r in lib_records], scope.name
            for got, want in zip(cli_records, lib_records):
                assert got.predicted is want.predicted, (scope.name, want.quarter)
                assert abs(got.p_up - want.p_up) <= 1e-5, (scope.name, want.quarter)
                compared += 1
        assert compared == 200


    def test_pooled_backtest_gives_each_scope_its_run_records(self, tmp_path, monkeypatch):
        # backtest fits Market (5 features) and the sectors (6) in one
        # zero-padded batch; each scope's records, fit reports included,
        # must be what run gives that scope alone
        out = run_pipeline(tmp_path, SMALL)
        results = []

        def spy(scoped, config):
            results.extend(run_scopes(scoped, config))
            return results

        monkeypatch.setattr(pesignal.cli, "run_scopes", spy)
        config = resolve_config(SMALL, {})
        study = ["backtest", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        assert main(study + ["--scopes", ",".join(SMALL_SCOPES)]) == 0
        with open(out / "prices.csv", encoding="utf-8") as handle:
            prices = parse_prices(handle)
        assert [result.scope.name for result in results] == SMALL_SCOPES
        for result in results:
            scope = result.scope
            slug = scope.name.lower().replace(" ", "_")
            with open(out / f"features_{slug}.csv", encoding="utf-8") as handle:
                table = read_feature_table(handle)
            labels = build_labels(scope, prices["Market"], None if scope.is_broad else prices[scope.name])
            alone = run(table, labels, config.backtest_config())
            assert result.records == alone.records and result.skipped == alone.skipped, scope.name
            assert {len(r.fit.params.weights) for r in result.records} == {len(table.names)}


class TestDefaultIterationCap:
    def test_market_at_default_max_iter_matches_pinned_predictions(self, tmp_path):
        # max_iter stays at its default of 100000: 15 Market windows of 4
        # points each, which all run to the cap. The digest was pinned
        # from the sequential one-window-at-a-time fit; the batched
        # kernel must reproduce it byte for byte.
        config = write_config(tmp_path, {"n_quarters": 24, "t": 6, "ne": 4, "seed": 11})
        out = tmp_path / "out"
        for command in ("synth", "features", "backtest"):
            assert main([command, "--config", config, "--out", str(out), "--scopes", "Market"]) == 0, command
        predictions = (out / "predictions_market.csv").read_bytes()
        assert len(predictions.splitlines()) - 1 == 15
        assert hashlib.sha256(predictions).hexdigest() == (
            "69e17945cbb60210e584955e0b73f7eb184e67689fc07e366fcdcc6aa7601b6b"
        )


PINNED_FEATURE_DIGESTS = {
    # default density: every quarter of every scope has deals
    "dense": (
        {"seed": 3},
        {
            "deals.csv": "60a4f49f6f44c924b3b866bb6b30c6cb470b18941b3513ffa2b9f8ee380a9cac",
            "prices.csv": "4662b7c77376e11efa09c6d001fb402d6e93a2a4b50933a0b0255c2edec81509",
            "pe.csv": "65395ce0ed77783925008b4be8e65d8be98abee4225e7c7fb42a1a8ca82d4405",
            "features_market.csv": "109241890fadb8bb048c0bb3eba63bc1b99659db4fe5c8828517467341df32a8",
            "features_commercial_services.csv": "fb65ff45deae2de9fddbbca54a38369f5f4b2fd9a9516fbd44b0a420abf07ecc",
            "features_communications.csv": "048cc88d6495d187c5dac7e4525da38b6d84b4c77fda84339d86c5f645e7ee1b",
            "features_consumer_durables.csv": "2f769f5f7ae19140725f83949e803019f7b83d8a82449d8967e46256b0731704",
            "zscores_market.csv": "1c5684b07944e18b91bc6d369404ecd0f939e65a5a5938343369653281593d81",
            "zscores_commercial_services.csv": "18bab3d79272d56890c19f02dc77b7d76d952cf828f4915343ca93db7e43f1b7",
            "zscores_communications.csv": "411339001416eb631966357c86169729d24441c3232c848629616ca25f851f85",
            "zscores_consumer_durables.csv": "1f7e13690c4b0c2ee73f23b3d98be974d775d7566e7d6887e1b76302f95e68b3",
        },
    ),
    # sparse: one Consumer Durables quarter has no deals, so its AUMs are
    # NA and 14 z rows drop
    "sparse": (
        {"seed": 3, "base_deal_intensity": 4.0},
        {
            "deals.csv": "85f6b26f9d077cdfcea42484832b66351270afd09784328c9eb2bdd9796cd5b1",
            "prices.csv": "933176d6fd98a68942a804871be62bf810258c65e6349755502b2a6ab85162af",
            "pe.csv": "65395ce0ed77783925008b4be8e65d8be98abee4225e7c7fb42a1a8ca82d4405",
            "features_market.csv": "a29a121db8a7f9d8f75eb6e58e578b606851d49a1d0f826c137902c7c9af17aa",
            "features_commercial_services.csv": "1c1f73a511957ed4516910640de8f3c3aecf2f3115edb34b91478c2b79c72c6a",
            "features_communications.csv": "3fe38ad342d91a362f669793027a608544d623ff39892c0c029d53fc845b7441",
            "features_consumer_durables.csv": "4d2b4766d718a337dd24e37d79f599a5345ef6eb9f0d9594b100fad580620fd1",
            "zscores_market.csv": "57c33a7b8f62640e8b05ac921afde0098006af595bf83457811d5af1a3fa32e5",
            "zscores_commercial_services.csv": "c95db23839a73c6e18207f1a67e2606bd20827ca914d4a14fcaf625cddb222e0",
            "zscores_communications.csv": "84a121e15342ccbb7a394831188a44161b611ee95364b837d0cc034597413cb8",
            "zscores_consumer_durables.csv": "620982cffb08e4d6f2f298c93a4a600180901273601f9980ec963a44a0244457",
        },
    ),
    # noise-free: smooth paths, rounded deal counts and no per-deal draws;
    # pinned before synthetic._roughen lost its noise_scale == 0 branch
    "noise_free": (
        {"seed": 3, "noise_scale": 0},
        {
            "deals.csv": "ca82f166719e06879b7dd718de46a3c16a8dc7944eb958476d83311d37eee209",
            "prices.csv": "185ee9b2792d06774466411fcf8fc0212dfffc7d9e4ed3541af613f2af9b4124",
            "pe.csv": "75225a8ece6cef2e2112acda71863c1a96885f892f08dad921ebb27887d12b23",
            "features_market.csv": "acbfb3a7578e591cd9773b3a6e67df5c504311c7dc2fa94615bd8518a1f3154c",
            "features_commercial_services.csv": "ef2762e04c7fc01e1a4474eeed27867b7dbdd2adcff3589e6d532563f799c0a8",
            "features_communications.csv": "eff42aa37dc59ebefbd61cb8ad0ddd98009294d7cb49883d88bb1f3d7754d1fb",
            "features_consumer_durables.csv": "bcfc93fbb1f2c6195f2c7149fdb01edcea3b00bf157baf8e34464f826b0bf50f",
            "zscores_market.csv": "62c778e3042c4b8106295cee6b2e72acf05c55f3f27337f70ccc3e1b575922f2",
            "zscores_commercial_services.csv": "c9fed0aaefa7ba836d28e841276ec79ec30850601d473e26d46da830400611ce",
            "zscores_communications.csv": "11018520d3026b420661817e69832905a7777678b7003b5dcf5ea6fa7219a537",
            "zscores_consumer_durables.csv": "5d54942ed70b8a8980baf92c7439e9694a1ccf5aae81331f21a8ffda7def173d",
        },
    ),
}


class TestPinnedFeatureBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_FEATURE_DIGESTS))
    def test_features_for_all_scopes_match_pinned_digests(self, tmp_path, case):
        # 68 quarters and 3 sectors. The feature and z-score digests were
        # pinned from the per-quarter scan over all deals; aggregating from
        # deals grouped by quarter must reproduce them byte for byte. The
        # synth files' digests pin the generator itself.
        settings, digests = PINNED_FEATURE_DIGESTS[case]
        config = write_config(tmp_path, settings)
        out = tmp_path / "out"
        scopes = "Market,Commercial Services,Communications,Consumer Durables"
        for command in ("synth", "features"):
            assert main([command, "--config", config, "--out", str(out), "--scopes", scopes]) == 0, command
        assert {p.name for p in out.glob("*.csv")} == set(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_evaluate_help_and_usage_errors_never_load_numpy(tmp_path):
    # each command is its own process, so numpy's import would dominate
    # one that computes nothing or only standardizes, and records, log
    # lines and means need none of dataclasses, logging or statistics;
    # the backtest step, which fits, shows the check can fail
    out = run_pipeline(tmp_path, SMALL)
    script = """
import sys
from pesignal.cli import main

def loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "numpy" or name in ("dataclasses", "logging", "statistics")
    )

study = sys.argv[1:]
assert main(["evaluate", *study]) == 0
assert not loaded(), loaded()
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
assert not loaded(), loaded()
assert main(["synth", *study, "--seed", "-1"]) == 1
assert not loaded(), loaded()
assert main(["features", *study]) == 0
assert not loaded(), loaded()
assert main(["backtest", *study]) == 0
assert any(name.startswith("numpy.") for name in loaded())
"""
    study = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]
    result = subprocess.run([sys.executable, "-c", script, *study], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert "usage error: seed must be >= 0" in result.stderr


def test_reading_every_module_attribute_after_features_and_evaluate_loads_no_numpy(tmp_path):
    # tools that walk sys.modules, a tracer or a debugger, read each
    # module's attributes; a lazily bound numpy would load on that read
    out = run_pipeline(tmp_path, SMALL)
    script = """
import sys
from pesignal.cli import main

study = sys.argv[1:]
assert main(["features", *study]) == 0
assert main(["evaluate", *study]) == 0
names = [getattr(module, "__name__", "") for module in list(sys.modules.values())]
assert "pesignal.cli" in names
numpy = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
assert not numpy, numpy
"""
    study = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--scopes", ",".join(SMALL_SCOPES)]
    result = subprocess.run([sys.executable, "-c", script, *study], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pesignal", "synth", "--out", str(tmp_path / "out"), "--seed", "2"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "deals.csv").is_file()


def test_commands_leave_the_same_cyclic_garbage_at_any_study_size(tmp_path):
    # the console script runs a command with the cycle collector off; what
    # one command leaves for a collection must not grow with the study
    def garbage(n_sectors, scopes, out):
        config = write_config(tmp_path, dict(SMALL, n_sectors=n_sectors), name=f"config_{n_sectors}.json")
        counts = []
        for command in ("synth", "features", "backtest", "evaluate"):
            gc.collect()
            gc.disable()
            try:
                assert main([command, "--config", config, "--out", str(out), "--scopes", ",".join(scopes)]) == 0
                counts.append(gc.collect())
            finally:
                gc.enable()
        return counts

    # the first run's imports leave cycles of their own
    garbage(1, ["Market"], tmp_path / "warm")
    assert garbage(1, ["Market"], tmp_path / "one") == garbage(3, ["Market", *SECTOR_NAMES[:3]], tmp_path / "four")


def _called_function(body) -> str:
    (call,) = [node.value for node in body if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    return call.func.id


def test_console_script_and_module_entries_call_one_function():
    # pyproject.toml is read as text: Python 3.10 has no tomllib
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]", 1)[1]
    module, function = re.search(r'^pesignal = "([\w.]+):(\w+)"$', scripts, re.MULTILINE).groups()
    assert module == "pesignal.cli"
    main_module = ast.parse((ROOT / "src" / "pesignal" / "__main__.py").read_text(encoding="utf-8"))
    assert _called_function(main_module.body) == function
    cli_module = ast.parse((ROOT / "src" / "pesignal" / "cli.py").read_text(encoding="utf-8"))
    (guard,) = [node for node in cli_module.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert _called_function(guard.body) == function


_SETTING_OPTIONS_HELP = """
options:
  -h, --help     show this help message and exit
  --config PATH  JSON settings file or a previous run manifest
  --out DIR      output directory (default: out)
  --strict       promote row-level deal issues to errors
  --seed N       synthetic data seed
  --scopes LIST  comma-separated scope names (Market or sector names)
  --t N          standardization window in quarters
  --ne N         estimation window in quarters
  --eta X        gradient ascent learning rate
  --threshold X  classification threshold on P(UP)
"""

_SUBCOMMAND_USAGE = """usage: pesignal {command} [-h] [--config PATH] [--out DIR] [--strict]
{pad}[--seed N] [--scopes LIST] [--t N] [--ne N] [--eta X]
{pad}[--threshold X]
"""

HELP_TEXTS = {
    "pesignal": """usage: pesignal [-h] command ...

Command-line entry point. Four file-composable commands: synth writes
synthetic input files, features aggregates and standardizes them, backtest
walks the windows forward, evaluate scores the predictions. Configuration
comes from an optional JSON file plus flag overrides; flags win. Every run
drops a manifest beside its outputs recording the resolved configuration and
the SHA-256 of every file read or written, and a manifest is itself accepted
as --config for reruns.

positional arguments:
  command
    synth     write synthetic deal, price, and P/E files
    features  aggregate deals into feature and z-score tables
    backtest  walk windows forward and write prediction tables
    evaluate  score predictions: reports, ROC points, scatters

options:
  -h, --help  show this help message and exit
""",
    "synth": """usage: pesignal synth [-h] [--config PATH] [--out DIR] [--strict] [--seed N]
                      [--scopes LIST] [--t N] [--ne N] [--eta X]
                      [--threshold X]
""" + _SETTING_OPTIONS_HELP,
    **{
        command: _SUBCOMMAND_USAGE.format(command=command, pad=" " * len(f"usage: pesignal {command} "))
        + _SETTING_OPTIONS_HELP
        for command in ("features", "backtest", "evaluate")
    },
}


@pytest.mark.parametrize("command", list(HELP_TEXTS))
def test_help_texts_are_pinned(command, monkeypatch, capsys):
    # argparse wraps to $COLUMNS; at 80 these bytes are the same on Python 3.10-3.13
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*([command] if command != "pesignal" else []), "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]
