"""Command-line entry point.

Four file-composable commands: synth writes synthetic input files,
features aggregates and standardizes them, backtest walks the windows
forward, evaluate scores the predictions. Configuration comes from an
optional JSON file plus flag overrides; flags win. Every run drops a
manifest beside its outputs recording the resolved configuration and
the SHA-256 of every file read or written, and a manifest is itself
accepted as --config for reruns.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from ._record import NamedTuple
from .backtest import BacktestConfig, run, write_predictions, read_predictions
from .errors import DataError, InsufficientHistoryError, NumericalError, UsageError
from .evaluation import report, write_roc_points, write_scatter, write_score_reports
from .features import Scope, build_feature_table, deals_by_quarter, read_feature_table, write_feature_table
from .ingest import (
    BROAD_INDEX_NAME,
    DealFileFormat,
    PriceFileFormat,
    SECTOR_NAMES,
    first_deals,
    parse_deals,
    parse_prices,
    write_deals,
    write_prices,
)
from .logit import fit_report_line
from .quarters import Quarter
from .response import build_labels
from .standardize import build_zscore_table
from .synthetic import SyntheticSpec, generate_dataset


def _log(message: str, *args):
    print(message % args, file=sys.stderr)


# the column names a config may remap: each file format's fields but the delimiter
_COLUMN_KEYS = {
    key: set(fmt._fields) - {"delimiter"}
    for key, fmt in (("deal_columns", DealFileFormat), ("price_columns", PriceFileFormat))
}


class RunConfig(NamedTuple):
    """Fully resolved settings for one command invocation."""

    deals: str | None = None
    prices: str | None = None
    pe: str | None = None
    out: str = "out"
    scopes: tuple = (BROAD_INDEX_NAME,)
    first: str | None = None
    last: str | None = None
    t: int = 12
    ne: int = 7
    eta: float = 1e-3
    tolerance: float = 1e-6
    max_iter: int = 100_000
    threshold: float = 0.5
    strict: bool = False
    seed: int = 1
    n_quarters: int = 68
    n_sectors: int = 3
    start: str = "2000Q1"
    noise_scale: float = 1.0
    base_deal_intensity: float = 18.0
    planted_w: tuple = (2.0, -1.5, 1.0, -1.0, 1.5)
    planted_b: float = 0.25
    delimiter: str = ","
    deal_columns: tuple = ()
    price_columns: tuple = ()

    def out_dir(self) -> Path:
        return Path(self.out)

    def input_path(self, key: str) -> Path:
        """The deals, prices or pe file: the key's setting, else <key>.csv in out."""
        return Path(getattr(self, key) or self.out_dir() / f"{key}.csv")

    def deal_format(self) -> DealFileFormat:
        return DealFileFormat(delimiter=self.delimiter, **dict(self.deal_columns))

    def price_format(self) -> PriceFileFormat:
        return PriceFileFormat(delimiter=self.delimiter, **dict(self.price_columns))

    def scope_list(self) -> list:
        if not self.scopes:
            raise UsageError("scope list is empty")
        scopes = []
        for name in self.scopes:
            if name != BROAD_INDEX_NAME and name not in SECTOR_NAMES:
                raise UsageError(f"unknown scope {name!r}")
            scope = Scope.of_name(name)
            if scope in scopes:
                raise UsageError(f"scope {name!r} is listed more than once")
            scopes.append(scope)
        return scopes

    def backtest_config(self) -> BacktestConfig:
        try:
            return BacktestConfig(
                std_window=self.t,
                est_window=self.ne,
                learning_rate=self.eta,
                tolerance=self.tolerance,
                max_iter=self.max_iter,
                threshold=self.threshold,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def synthetic_spec(self) -> SyntheticSpec:
        try:
            return SyntheticSpec(
                seed=self.seed,
                n_quarters=self.n_quarters,
                n_sectors=self.n_sectors,
                start=Quarter.parse(self.start),
                std_window=self.t,
                planted_w=tuple(self.planted_w),
                planted_b=self.planted_b,
                noise_scale=self.noise_scale,
                base_deal_intensity=self.base_deal_intensity,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def to_dict(self) -> dict:
        out = self._asdict()
        out["deal_columns"] = dict(self.deal_columns)
        out["price_columns"] = dict(self.price_columns)
        return out


def _coerce(key: str, value):
    kind = type(RunConfig._field_defaults[key])
    try:
        if kind is int:
            if isinstance(value, bool) or value != int(value):
                raise ValueError
            return int(value)
        if kind is float:
            if isinstance(value, bool):
                raise ValueError
            return float(value)
        if key == "delimiter":
            if not isinstance(value, str) or len(value) != 1:
                raise ValueError
            return value
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
        if key == "scopes":
            if isinstance(value, str):
                value = [part.strip() for part in value.split(",") if part.strip()]
            return tuple(str(v) for v in value)
        if key == "planted_w":
            return tuple(float(v) for v in value)
        if key in _COLUMN_KEYS:
            if not isinstance(value, dict):
                raise ValueError
            for column in value:
                if column not in _COLUMN_KEYS[key]:
                    raise UsageError(f"unknown {key} entry {column!r}")
            return tuple(sorted((str(k), str(v)) for k, v in value.items()))
        if isinstance(value, str) and key in ("first", "last", "start"):
            Quarter.parse(value)
        if value is None or isinstance(value, str):
            return value
        raise ValueError
    except (TypeError, ValueError, OverflowError, DataError):
        raise UsageError(f"bad value for {key!r}: {value!r}") from None


def load_config_file(path) -> dict:
    """JSON settings; a run manifest unwraps to its embedded config."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8: byte {raw[exc.start]:#04x} at offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    if "command" in data and "config" in data:
        data = data["config"]
        if not isinstance(data, dict):
            raise UsageError(f"config file {path}: a manifest's \"config\" must be a JSON object")
    return data


def resolve_config(file_settings: dict, overrides: dict) -> RunConfig:
    """Defaults, then the config file, then flags; flags win."""
    merged = {}
    for source in (file_settings, overrides):
        for key, value in source.items():
            if key not in RunConfig._fields:
                raise UsageError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
    return RunConfig(**merged)


def _slug(name: str) -> str:
    return name.lower().replace(" ", "_").replace("-", "_")


class _Files:
    """The files one command reads and writes, each recorded by the
    SHA-256 of exactly the bytes it parsed or wrote."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.inputs = {}
        self.outputs = {}

    def read(self, path: Path):
        """The file as a text stream to parse, read from disk once."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise UsageError(f"input file not found: {path}") from None
        except OSError as exc:
            raise UsageError(f"cannot read input file {path}: {exc.strerror}") from None
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        # a stream over the bytes holds the file once; a StringIO would
        # hold it again at four bytes a character
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")

    def parse(self, path: Path, reader):
        """reader's result on the file; its DataError names the file."""
        stream = self.read(path)
        try:
            return reader(stream)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    def write(self, path: Path, writer, *args, **kwargs):
        """writer(*args, stream, **kwargs) rendered, then written atomically."""
        buffer = io.StringIO()
        writer(*args, buffer, **kwargs)
        data = buffer.getvalue().encode("utf-8")
        self.outputs[str(path)] = hashlib.sha256(data).hexdigest()
        tmp = path.parent / (path.name + ".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None

    def manifest(self, command: str):
        manifest = {
            "command": command,
            "config": self.config.to_dict(),
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        # rendered before write records its own digest, so it lists the other files only
        self.write(
            self.config.out_dir() / f"manifest_{command}.json",
            lambda stream: stream.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
        )


def _series_for(series_map: dict, name: str, path: Path):
    if name not in series_map:
        raise DataError(f"{path} has no series named {name!r}")
    return series_map[name]


def cmd_synth(config: RunConfig) -> int:
    spec = config.synthetic_spec()
    made = spec.scopes()
    for scope in config.scope_list():
        if scope not in made:
            raise UsageError(f"scope {scope.name!r} is not synthesized with n_sectors = {spec.n_sectors}")
    data = generate_dataset(spec)
    inputs = {key: str(config.input_path(key)) for key in ("deals", "prices", "pe")}
    config = config._replace(scopes=tuple(s.name for s in made), **inputs)
    files = _Files(config)
    files.write(config.input_path("deals"), write_deals, data.deals, fmt=config.deal_format())
    files.write(config.input_path("prices"), write_prices, data.prices, fmt=config.price_format())
    files.write(config.input_path("pe"), write_prices, data.pe, fmt=config.price_format())
    _log("synth: %d deals, %d scopes, %d quarters", len(data.deals), len(made), spec.n_quarters)
    files.manifest("synth")
    return 0


def cmd_features(config: RunConfig) -> int:
    # t is the one fit setting features reads; check it as backtest does
    RunConfig(t=config.t).backtest_config()
    files = _Files(config)
    deals_path = config.input_path("deals")
    pe_path = config.input_path("pe")
    parsed = parse_deals(files.read(deals_path), config.deal_format(), strict=config.strict)
    for issue in parsed.issues:
        _log("%s %s", deals_path, issue)
    buckets = deals_by_quarter(first_deals(parsed.records))
    pe_map = parse_prices(files.read(pe_path), config.price_format())
    market_pe = _series_for(pe_map, BROAD_INDEX_NAME, pe_path)
    first = Quarter.parse(config.first) if config.first else min(market_pe)
    last = Quarter.parse(config.last) if config.last else max(market_pe)
    out = config.out_dir()
    for scope in config.scope_list():
        sector_pe = None if scope.is_broad else _series_for(pe_map, scope.name, pe_path)
        table = build_feature_table(buckets, scope, first, last, market_pe, sector_pe)
        ztable = build_zscore_table(table, config.t)
        if ztable.dropped:
            _log("%s: %d quarters dropped for missing features", scope.name, len(ztable.dropped))
        if ztable.zero_variance:
            _log("%s: %d zero-variance windows pinned to z=0", scope.name, len(ztable.zero_variance))
        files.write(out / f"features_{_slug(scope.name)}.csv", write_feature_table, table)
        files.write(out / f"zscores_{_slug(scope.name)}.csv", write_feature_table, ztable)
    files.manifest("features")
    return 0


def cmd_backtest(config: RunConfig) -> int:
    bt_config = config.backtest_config()
    files = _Files(config)
    prices_path = config.input_path("prices")
    price_map = parse_prices(files.read(prices_path), config.price_format())
    market_prices = _series_for(price_map, BROAD_INDEX_NAME, prices_path)
    out = config.out_dir()
    for scope in config.scope_list():
        path = out / f"features_{_slug(scope.name)}.csv"
        table = files.parse(path, read_feature_table)
        if table.scope != scope:
            raise DataError(f"{path} holds {table.scope.name} features, not {scope.name}'s")
        sector_prices = None if scope.is_broad else _series_for(price_map, scope.name, prices_path)
        labels = build_labels(scope, market_prices, sector_prices)
        result = run(table, labels, bt_config)
        for skip in result.skipped:
            _log("%s %s: skipped, %s", scope.name, skip.predicted, skip.reason)
        for record in result.records:
            _log("%s %s %s", scope.name, record.quarter, fit_report_line(record.fit))
        files.write(out / f"predictions_{_slug(scope.name)}.csv", write_predictions, result.records)
    files.manifest("backtest")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    # the threshold is the one fit setting evaluate reads; check it as backtest does
    RunConfig(threshold=config.threshold).backtest_config()
    files = _Files(config)
    out = config.out_dir()
    reports = []
    pooled_records = []
    per_scope = []
    for scope in config.scope_list():
        path = out / f"predictions_{_slug(scope.name)}.csv"
        records = files.parse(path, read_predictions)
        if records and records[0].scope != scope:
            raise DataError(f"{path} holds {records[0].scope.name} predictions, not {scope.name}'s")
        per_scope.append((scope.name, records))
        pooled_records.extend(records)
    if len(per_scope) > 1:
        per_scope.append(("ALL", pooled_records))
    for name, records in per_scope:
        scope_report = report(records, config.threshold, scope_name=name)
        reports.append(scope_report)
        for flag in scope_report.flags:
            _log("%s: %s", name, flag)
        if scope_report.curve is None:
            _log("%s: no ROC curve, AUC undefined: need at least one UP and one DOWN outcome", name)
        else:
            files.write(out / f"roc_{_slug(name)}.csv", write_roc_points, scope_report.curve)
        if name != "ALL":
            files.write(out / f"scatter_{_slug(name)}.csv", write_scatter, records)
    files.write(out / "scores.jsonl", write_score_reports, reports)
    files.manifest("evaluate")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "features": cmd_features,
    "backtest": cmd_backtest,
    "evaluate": cmd_evaluate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON settings file or a previous run manifest")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--strict", action="store_true", default=None, help="promote row-level deal issues to errors")
    common.add_argument("--seed", type=int, metavar="N", help="synthetic data seed")
    common.add_argument("--scopes", metavar="LIST", help="comma-separated scope names (Market or sector names)")
    common.add_argument("--t", type=int, metavar="N", help="standardization window in quarters")
    common.add_argument("--ne", type=int, metavar="N", help="estimation window in quarters")
    common.add_argument("--eta", type=float, metavar="X", help="gradient ascent learning rate")
    common.add_argument("--threshold", type=float, metavar="X", help="classification threshold on P(UP)")
    parser = _Parser(prog="pesignal", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("synth", "write synthetic deal, price, and P/E files"),
        ("features", "aggregate deals into feature and z-score tables"),
        ("backtest", "walk windows forward and write prediction tables"),
        ("evaluate", "score predictions: reports, ROC points, scatters"),
    ):
        subparsers.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_settings = load_config_file(args.config) if args.config else {}
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "config") and value is not None
        }
        config = resolve_config(file_settings, overrides)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"pesignal: usage error: {exc}", file=sys.stderr)
        return 1
    except InsufficientHistoryError as exc:
        print(f"pesignal: insufficient history: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"pesignal: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"pesignal: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
