"""Run one pesignal CLI command with each layer's public functions traced.

    python bench/traced.py SPANS_JSON COMMAND [pesignal options...]

pesignal must be importable; the benchmark puts the checkout's src on
PYTHONPATH. The functions are wrapped from outside, where the CLI and
the other modules look them up, so the program itself is unchanged.
At exit the spans go to SPANS_JSON, with the names actually wrapped,
and the process exits with the CLI's own code.
"""

from __future__ import annotations

import sys

from tracing import Tracer

import pesignal.cli

# (module, function, counts read from (args, kwargs, result)); a name a
# later version of the program no longer has is skipped, not an error.
LAYERS = (
    ("ingest", "parse_deals", lambda a, k, r: {"rows_read": len(r.records) + len(r.issues), "rows_rejected": len(r.issues)}),
    ("ingest", "first_deals", lambda a, k, r: {"first_deals": len(r)}),
    ("ingest", "parse_prices", None),
    ("features", "build_feature_table", None),
    ("features", "matching_deals", lambda a, k, r: {"scanned": len(a[0]), "matched": len(r)}),
    ("features", "write_feature_table", None),
    ("features", "read_feature_table", None),
    ("standardize", "build_zscore_table", lambda a, k, r: {"dropped": len(r.dropped)}),
    ("response", "build_labels", lambda a, k, r: {"labels": len(r)}),
    ("logit", "fit", lambda a, k, r: {"iterations": r.iterations, "capped": int(not r.converged)}),
    ("logit", "prob_up", None),
    ("backtest", "run", lambda a, k, r: {"windows": len(r.records) + len(r.skipped), "skipped": len(r.skipped)}),
    ("evaluation", "report", None),
    ("evaluation", "scored_pairs", lambda a, k, r: {"pairs": len(r)}),
    ("evaluation", "roc", lambda a, k, r: {"points": len(r.points)}),
    ("evaluation", "write_roc_points", None),
    ("evaluation", "write_scatter", None),
    ("evaluation", "write_score_reports", None),
    ("synthetic", "generate_dataset", lambda a, k, r: {"deals": len(r.deals)}),
    ("cli", "cmd_synth", None),
    ("cli", "cmd_features", None),
    ("cli", "cmd_backtest", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "main", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every LAYERS entry the loaded program has; returns the span names."""
    commands = getattr(pesignal.cli, "_COMMANDS", {})
    wrapped = []
    for module_name, attr, count in LAYERS:
        module = sys.modules.get(f"pesignal.{module_name}")
        name = f"{module_name}.{attr}"
        if module is not None and tracer.install(module, attr, name, count, extra=(commands,)):
            wrapped.append(name)
    return wrapped


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    wrapped = install(tracer)
    try:
        return pesignal.cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path, wrapped=wrapped)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
