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
import gc
import hashlib
import io
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

from ._record import NamedTuple
from .backtest import BacktestConfig, read_predictions, run_scopes, write_predictions
from .backtest import run  # noqa: F401  (bench/test_bench.py checks the tracer wraps it here)
from .errors import DataError, PesignalError, UsageError
from .evaluation import report, write_roc_points, write_scatter, write_score_reports
from .features import Scope, build_feature_table, deals_by_quarter, read_feature_table, write_feature_table
from .ingest import (
    BROAD_INDEX_NAME,
    DealFileFormat,
    PriceFileFormat,
    first_deals,
    parse_deals,
    parse_prices,
    write_deals,
    write_prices,
)
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


class _Setting(NamedTuple):
    """A config key feeding field (the key unless named) of each record in feeds,
    through parse if it holds the field as text. Its default, initial(), is the first
    record's, as text if parsed, else default. flag: the metavar and help of --key."""

    key: str
    default: object = None
    feeds: tuple = ()
    field: str | None = None
    parse: object = None
    flag: tuple = ()

    def initial(self):
        if not self.feeds:
            return self.default
        value = self.feeds[0]._field_defaults[self.field or self.key]
        return str(value) if self.parse else value


# one row per RunConfig field; the rows with a flag come first, in the order --help lists them
_SETTINGS = (
    _Setting("out", "out", flag=("DIR", "output directory (default: out)")),
    _Setting("strict", False, flag=(None, "promote row-level deal issues to errors")),
    _Setting("seed", feeds=(SyntheticSpec,), flag=("N", "synthetic data seed")),
    _Setting("scopes", (BROAD_INDEX_NAME,), flag=("LIST", "comma-separated scope names (Market or sector names)")),
    _Setting("t", feeds=(BacktestConfig, SyntheticSpec), field="std_window", flag=("N", "standardization window in quarters")),
    _Setting("ne", feeds=(BacktestConfig,), field="est_window", flag=("N", "estimation window in quarters")),
    _Setting("eta", feeds=(BacktestConfig,), field="learning_rate", flag=("X", "gradient ascent learning rate")),
    _Setting("threshold", feeds=(BacktestConfig,), flag=("X", "classification threshold on P(UP)")),
    _Setting("tolerance", feeds=(BacktestConfig,)),
    _Setting("max_iter", feeds=(BacktestConfig,)),
    _Setting("deals"),
    _Setting("prices"),
    _Setting("pe"),
    _Setting("first"),
    _Setting("last"),
    _Setting("n_quarters", feeds=(SyntheticSpec,)),
    _Setting("n_sectors", feeds=(SyntheticSpec,)),
    _Setting("start", feeds=(SyntheticSpec,), parse=Quarter.parse),
    _Setting("noise_scale", feeds=(SyntheticSpec,)),
    _Setting("base_deal_intensity", feeds=(SyntheticSpec,)),
    _Setting("planted_w", feeds=(SyntheticSpec,)),
    _Setting("planted_b", feeds=(SyntheticSpec,)),
    _Setting("delimiter", feeds=(DealFileFormat, PriceFileFormat)),
    _Setting("deal_columns", {}),
    _Setting("price_columns", {}),
)


class RunConfig(namedtuple("RunConfig", [row.key for row in _SETTINGS], defaults=[row.initial() for row in _SETTINGS])):
    """Fully resolved settings for one command invocation, one field per row of _SETTINGS."""

    def out_dir(self) -> Path:
        return Path(self.out)

    def input_path(self, key: str) -> Path:
        """The deals, prices or pe file: the key's setting, else <key>.csv in out."""
        return Path(getattr(self, key) or self.out_dir() / f"{key}.csv")

    def deal_format(self) -> DealFileFormat:
        return self._build(DealFileFormat, **self.deal_columns)

    def price_format(self) -> PriceFileFormat:
        return self._build(PriceFileFormat, **self.price_columns)

    def scope_list(self) -> list:
        if not self.scopes:
            raise UsageError("scope list is empty")
        scopes = []
        for name in self.scopes:
            try:
                scope = Scope(name)
            except ValueError:
                raise UsageError(f"unknown scope {name!r}") from None
            if scope in scopes:
                raise UsageError(f"scope {name!r} is listed more than once")
            scopes.append(scope)
        return scopes

    def backtest_config(self) -> BacktestConfig:
        return self._build(BacktestConfig)

    def synthetic_spec(self) -> SyntheticSpec:
        return self._build(SyntheticSpec)

    def _build(self, record, **fields):
        """record from fields and the settings that feed it; a bad setting's ValueError is a UsageError here."""
        for row in _SETTINGS:
            if record in row.feeds:
                value = getattr(self, row.key)
                fields[row.field or row.key] = row.parse(value) if row.parse else value
        try:
            return record(**fields)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _finite(value) -> float:
    if isinstance(value, (bool, str)) or not math.isfinite(value):
        raise ValueError
    return float(value)


def _coerce(key: str, value):
    kind = type(RunConfig._field_defaults[key])
    try:
        if kind is int:
            if isinstance(value, bool) or value != int(value):
                raise ValueError
            return int(value)
        if kind is float:
            return _finite(value)
        if key == "delimiter":
            # a line break would end the row it separates
            if not isinstance(value, str) or len(value) != 1 or value in "\r\n":
                raise ValueError
            return value
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
        if key == "scopes":
            if isinstance(value, str):
                value = [part.strip() for part in value.split(",") if part.strip()]
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ValueError
            return tuple(value)
        if key == "planted_w":
            if not isinstance(value, (list, tuple)):
                raise ValueError
            return tuple(map(_finite, value))
        if key in _COLUMN_KEYS:
            if not isinstance(value, dict):
                raise ValueError
            for column in value:
                if column not in _COLUMN_KEYS[key]:
                    raise UsageError(f"unknown {key} entry {column!r}")
            return {str(k): str(v) for k, v in value.items()}
        if isinstance(value, str) and key in ("first", "last", "start"):
            Quarter.parse(value)
        if value == "" and key in ("out", "deals", "prices", "pe"):
            raise ValueError  # it would name the working directory, or <key>.csv in out
        if isinstance(value, str) or (value is None and kind is type(None)):
            return value
        raise ValueError
    except (TypeError, ValueError, OverflowError, DataError):
        raise UsageError(f"bad value for {key!r}: {value!r}") from None


def load_config_file(path) -> dict:
    """JSON settings; a run manifest unwraps to its embedded config."""
    if path == "":
        raise UsageError("bad value for 'config': ''")
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    try:
        # drops the BOM of Excel's UTF-8 exports; utf-8-sig would misplace a bad byte's offset
        data = json.loads(raw.decode("utf-8").removeprefix("\ufeff"))
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


class _Files:
    """The files one command reads and writes, each recorded by the SHA-256
    of exactly the bytes it parsed or wrote. manifest writes them all, so
    a command that fails first leaves the last run's files as they were.
    config is what the manifest records."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.inputs = {}
        self.outputs = {}
        self.rendered = []

    def table(self, kind: str, scope_name: str) -> Path:
        """<out>/<kind>_<slug>.csv, where a scope's table of that kind lives."""
        slug = scope_name.lower().replace(" ", "_").replace("-", "_")
        return self.config.out_dir() / f"{kind}_{slug}.csv"

    def parse(self, path: Path, reader, *args, **kwargs):
        """reader(stream, *args, **kwargs) on the file, read from disk once;
        its DataError names the file."""
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
        # a stream over the bytes holds the file once, where a StringIO would
        # hold it again at four bytes a character; utf-8-sig drops the
        # byte-order mark of Excel's UTF-8 exports, which the digest keeps
        try:
            return reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""), *args, **kwargs)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    def write(self, path: Path, writer, *args, **kwargs):
        """writer(*args, stream, **kwargs) rendered, for manifest to write atomically."""
        buffer = io.StringIO()
        writer(*args, buffer, **kwargs)
        data = buffer.getvalue().encode("utf-8")
        self.outputs[str(path)] = hashlib.sha256(data).hexdigest()
        self.rendered.append((path, data))

    def manifest(self, command: str):
        manifest = {
            "command": command,
            "config": self.config._asdict(),
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        # rendered before write records its own digest, so it lists the other files only
        self.write(
            self.config.out_dir() / f"manifest_{command}.json",
            lambda stream: stream.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
        )
        for path, data in self.rendered:
            tmp = path.parent / (path.name + ".tmp")
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_bytes(data)
                os.replace(tmp, path)
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _series_for(series_map: dict, name: str, path: Path):
    if name not in series_map:
        raise DataError(f"{path} has no series named {name!r}")
    return series_map[name]


def cmd_synth(config: RunConfig, files: _Files):
    spec = config.synthetic_spec()
    made = spec.scopes()
    for scope in config.scope_list():
        if scope not in made:
            raise UsageError(f"scope {scope.name!r} is not synthesized with n_sectors = {spec.n_sectors}")
    data = generate_dataset(spec)
    inputs = {key: str(config.input_path(key)) for key in ("deals", "prices", "pe")}
    config = files.config = config._replace(scopes=tuple(s.name for s in made), **inputs)
    files.write(config.input_path("deals"), write_deals, data.deals, fmt=config.deal_format())
    files.write(config.input_path("prices"), write_prices, data.prices, fmt=config.price_format())
    files.write(config.input_path("pe"), write_prices, data.pe, fmt=config.price_format())
    _log("synth: %d deals, %d scopes, %d quarters", len(data.deals), len(made), spec.n_quarters)


def cmd_features(config: RunConfig, files: _Files):
    # t is the one fit setting features reads; check it as backtest does,
    # and the first and last quarters against each other, before any input
    RunConfig(t=config.t).backtest_config()
    first, last = (Quarter.parse(q) if q else None for q in (config.first, config.last))
    if first and last and first > last:
        raise UsageError(f"first {first} comes after last {last}")
    deals_path = config.input_path("deals")
    pe_path = config.input_path("pe")
    parsed = files.parse(deals_path, parse_deals, config.deal_format())
    if config.strict and parsed.issues:
        raise DataError(f"{deals_path}: {parsed.issues[0]}")
    for issue in parsed.issues:
        _log("%s %s", deals_path, issue)
    buckets = deals_by_quarter(first_deals(parsed.records))
    pe_map = files.parse(pe_path, parse_prices, config.price_format())
    market_pe = _series_for(pe_map, BROAD_INDEX_NAME, pe_path)
    lo, hi = min(market_pe), max(market_pe)
    for key, quarter in (("first", first), ("last", last)):
        if quarter and not lo <= quarter <= hi:
            raise DataError(f"{pe_path}: {key} {quarter} lies outside the market P/E series, {lo} to {hi}")
    first, last = first or lo, last or hi
    for scope in config.scope_list():
        sector_pe = None if scope.is_broad else _series_for(pe_map, scope.name, pe_path)
        try:
            table = build_feature_table(buckets, scope, first, last, market_pe, sector_pe)
        except DataError as exc:
            raise DataError(f"{pe_path}: {exc}") from None
        ztable = build_zscore_table(table, config.t)
        if ztable.dropped:
            _log("%s: %d quarters dropped for missing features", scope.name, len(ztable.dropped))
        if ztable.zero_variance:
            _log("%s: %d zero-variance windows pinned to z=0", scope.name, len(ztable.zero_variance))
        files.write(files.table("features", scope.name), write_feature_table, table)
        files.write(files.table("zscores", scope.name), write_feature_table, ztable)


def cmd_backtest(config: RunConfig, files: _Files):
    bt_config = config.backtest_config()
    prices_path = config.input_path("prices")
    price_map = files.parse(prices_path, parse_prices, config.price_format())
    market_prices = _series_for(price_map, BROAD_INDEX_NAME, prices_path)
    scoped = []
    for scope in config.scope_list():
        path = files.table("features", scope.name)
        table = files.parse(path, read_feature_table)
        if table.scope != scope:
            raise DataError(f"{path} holds {table.scope.name} features, not {scope.name}'s")
        sector_prices = None if scope.is_broad else _series_for(price_map, scope.name, prices_path)
        scoped.append((table, build_labels(scope, market_prices, sector_prices)))
    for result in run_scopes(scoped, bt_config):
        name = result.scope.name
        for skip in result.skipped:
            _log("%s %s: skipped, %s", name, skip.quarter, skip.reason)
        capped = sum(not record.fit.converged for record in result.records)
        _log(
            "%s: %d windows fitted, %d stopped at the iteration cap, %d skipped",
            name, len(result.records), capped, len(result.skipped),
        )
        files.write(files.table("predictions", name), write_predictions, result.records)


def cmd_evaluate(config: RunConfig, files: _Files):
    reports = []
    pooled_records = []
    per_scope = []
    for scope in config.scope_list():
        path = files.table("predictions", scope.name)
        records = files.parse(path, read_predictions)
        if records and records[0].scope != scope:
            raise DataError(f"{path} holds {records[0].scope.name} predictions, not {scope.name}'s")
        per_scope.append((scope.name, records))
        pooled_records.extend(records)
    if len(per_scope) > 1:
        per_scope.append(("ALL", pooled_records))
    for name, records in per_scope:
        scope_report = report(records, scope_name=name)
        reports.append(scope_report)
        for flag in scope_report.flags:
            _log("%s: %s", name, flag)
        if scope_report.curve is None:
            _log("%s: no ROC curve, AUC undefined: need at least one UP and one DOWN outcome", name)
        else:
            files.write(files.table("roc", name), write_roc_points, scope_report.curve)
        if name != "ALL":
            files.write(files.table("scatter", name), write_scatter, records)
    files.write(config.out_dir() / "scores.jsonl", write_score_reports, reports)


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
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="JSON settings file or a previous run manifest")
    for row in _SETTINGS:
        if row.flag:
            metavar, help_text = row.flag
            kind = type(row.initial())
            options = {"action": "store_true"} if kind is bool else {"metavar": metavar}
            if kind in (int, float):
                options["type"] = kind
            common.add_argument(f"--{row.key}", help=help_text, **options)
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
        # a flag not given is absent from the parsed settings, so the file's value stands
        overrides = vars(_build_parser().parse_args(argv))
        command = overrides.pop("command")
        path = overrides.pop("config", None)
        config = resolve_config({} if path is None else load_config_file(path), overrides)
        # a command only reads and renders; the manifest writes every file once it has returned
        files = _Files(config)
        _COMMANDS[command](config, files)
        files.manifest(command)
        return 0
    except PesignalError as exc:
        print(f"pesignal: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    """main as a process that never runs the cycle collector, which would walk every
    live object, numpy's too, to find the few cycles of one bounded run."""
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
