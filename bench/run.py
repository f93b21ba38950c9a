"""pesignal benchmark: CLI study wall time, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/pesignal. Each CLI
command runs as its own `python -m pesignal` process, one at a time, in
a work directory under .bench_runs/ that is removed at exit. A run
sets up the workload's inputs with `synth`, then repeats rounds of one
more `synth` (in a directory of its own, so the study's inputs stay as
they are) and the study (`features`, `backtest`, `evaluate`) until S
seconds have passed, and reports medians. Set-up and study samples thus
see the same phases of the host's speed.

With --trace 1 the rounds alternate between plain processes and
processes started through bench/traced.py, which wraps each module's
public functions from outside; the per-layer metrics come from the
traced rounds and the tracing overhead from comparing the two kinds.

Every command's outputs are hashed after it exits and compared with
the digests pinned in bench/digests.json for that workload and seed
(or, for a seed not pinned there, with the same command's first output
in this run; a line before the result says which). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; a fuller record goes to .bench_runs/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import count, outermost, self_time, total
from workloads import WORKLOADS, add_followons_and_bad_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
DIGESTS = BENCH / "digests.json"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
STUDY = ("features", "backtest", "evaluate")
# a hung command is killed so that the whole run still ends within 180 s
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "features_s": "s",
    "backtest_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
}

EVALUATION = (
    "evaluation.report",
    "evaluation.scored_pairs",
    "evaluation.roc",
    "evaluation.write_roc_points",
    "evaluation.write_scatter",
    "evaluation.write_score_reports",
)
CLI_SPANS = ("cli.main", "cli.cmd_synth", "cli.cmd_features", "cli.cmd_backtest", "cli.cmd_evaluate")

# per-layer metric -> unit; counts must repeat exactly for a given code and seed
PER_LAYER_TIMES = {
    "ingest.parse_deals_s": "s",
    "ingest.first_deals_s": "s",
    "ingest.parse_prices_s": "s",
    "features.build_s": "s",
    "features.build_synth_s": "s",
    "features.table_io_s": "s",
    "standardize.build_s": "s",
    "response.build_labels_s": "s",
    "logit.fit_s": "s",
    "logit.us_per_iter": "us",
    "backtest.run_s": "s",
    "backtest.self_s": "s",
    "evaluation.s": "s",
    "synthetic.generate_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.study_s": "s",
    "trace.overhead_share": "share",
}
PER_LAYER_COUNTS = {
    "ingest.rows_read": "count",
    "ingest.rows_rejected": "count",
    "ingest.first_deals": "count",
    "features.deals_scanned": "count",
    "features.scan_yield": "share",
    "standardize.calls": "count",
    "standardize.dropped": "count",
    "response.labels": "count",
    "logit.fits": "count",
    "logit.iterations": "count",
    "logit.capped_share": "share",
    "backtest.windows": "count",
    "backtest.skipped": "count",
    "evaluation.pairs": "count",
    "evaluation.roc_points": "count",
    "synthetic.deals": "count",
    "cli.bytes_written": "count",
    "cli.bytes_hashed": "count",
    "cli.log_lines": "count",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class CommandRun:
    command: str
    wall_s: float
    rss_mb: float
    code: int
    log_lines: int
    import_s: float | None = None
    spans: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0
    bytes_hashed: int = 0
    problems: list = field(default_factory=list)


def check_outputs(work: Path, command: str) -> tuple:
    """(digests by file name, bytes written, bytes hashed, problems) from the command's manifest.

    The manifest must exist, and every output it lists must hash to
    the digest it records.
    """
    manifest_path = work / "out" / f"manifest_{command}.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {}, 0, 0, [f"{command}: no readable manifest ({exc})"]
    problems = []
    digests = {manifest_path.name: sha256(manifest_path)}
    written = manifest_path.stat().st_size
    hashed = 0
    for group in ("inputs", "outputs"):
        for name, recorded in sorted(manifest[group].items()):
            path = work / name
            if not path.is_file():
                problems.append(f"{command}: {name} listed in the manifest is missing")
                continue
            hashed += path.stat().st_size
            if group == "inputs":
                continue
            actual = sha256(path)
            digests[path.name] = actual
            written += path.stat().st_size
            if actual != recorded:
                problems.append(f"{command}: {name} does not match its manifest digest")
    return digests, written, hashed, problems


def compare(command: str, digests: dict, expected: dict) -> list:
    """Problems where digests differ from expected, file by file."""
    problems = []
    for name in sorted(set(digests) | set(expected)):
        if digests.get(name) != expected.get(name):
            problems.append(f"{command}: {name} differs from the reference output")
    return problems


class Ledger:
    """Operations attempted and the ones that failed.

    An operation is a CLI command, failed by a non-zero exit or a bad
    output, or one of the run's own consistency checks.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, run: CommandRun):
        self.attempted += 1
        if run.code != 0 or run.problems:
            self.failures.append({"command": run.command, "code": run.code, "problems": run.problems})

    def check(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failures.append({"check": problem})

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ops_failed(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Runner:
    """One work directory, its CLI processes and their checked outputs."""

    def __init__(self, work: Path, pinned: dict | None):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = work
        self.pinned = pinned
        self.reference = {}
        self.ledger = Ledger()
        self.runs = []

    def run(self, command: str, traced: bool = False, gate: bool = True, cwd: Path | None = None) -> CommandRun:
        cwd = cwd or self.work
        cli = [command, "--config", "config.json", "--out", "out"]
        spans_path = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "pesignal", *cli]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        result = CommandRun(
            command=command,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            log_lines=stderr.count(b"\n"),
        )
        if proc.returncode != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            result.problems.append(f"{command}: exit code {proc.returncode}: {' | '.join(tail)}")
        if traced:
            try:
                dump = json.loads(spans_path.read_text(encoding="utf-8"))
                result.spans = dump["spans"]
                mains = [s for s in result.spans if s[2] == "cli.main"]
                result.import_s = mains[0][3] - start if mains else None
            except (OSError, ValueError, KeyError) as exc:
                result.problems.append(f"{command}: no spans ({exc})")
            spans_path.unlink(missing_ok=True)
        if proc.returncode == 0:
            result.digests, result.bytes_written, result.bytes_hashed, problems = check_outputs(cwd, command)
            result.problems += problems
            if gate and result.digests:
                expected = (self.pinned or {}).get(command) or self.reference.setdefault(command, result.digests)
                result.problems += compare(command, result.digests, expected)
        self.ledger.record(result)
        self.runs.append(result)
        return result


def layer_metrics(run: CommandRun) -> tuple:
    """(times, counts) of one traced command from its spans."""
    spans = run.spans
    times = {
        "ingest.parse_deals_s": total(spans, ["ingest.parse_deals"]),
        "ingest.first_deals_s": total(spans, ["ingest.first_deals"]),
        "ingest.parse_prices_s": total(spans, ["ingest.parse_prices"]),
        "features.table_io_s": total(spans, ["features.write_feature_table", "features.read_feature_table"]),
        "standardize.build_s": total(spans, ["standardize.build_zscore_table"]),
        "response.build_labels_s": total(spans, ["response.build_labels"]),
        "logit.fit_s": total(spans, ["logit.fit"]),
        "backtest.run_s": total(spans, ["backtest.run"]),
        "backtest.self_s": sum(self_time(s, spans) for s in spans if s[2] == "backtest.run"),
        "evaluation.s": total(spans, EVALUATION),
        "synthetic.generate_s": total(spans, ["synthetic.generate_dataset"]),
        "cli.self_s": sum(self_time(s, spans) for s in spans if s[2] in CLI_SPANS),
        "cli.import_s": run.import_s or 0.0,
    }
    build = total(spans, ["features.build_feature_table"])
    times["features.build_synth_s" if run.command == "synth" else "features.build_s"] = build
    top_evaluation = outermost(spans, EVALUATION)
    counts = {
        "ingest.rows_read": count(spans, "ingest.parse_deals", "rows_read"),
        "ingest.rows_rejected": count(spans, "ingest.parse_deals", "rows_rejected"),
        "ingest.first_deals": count(spans, "ingest.first_deals", "first_deals"),
        "features.deals_scanned": count(spans, "features.matching_deals", "scanned"),
        "features.deals_matched": count(spans, "features.matching_deals", "matched"),
        "standardize.calls": sum(1 for s in spans if s[2] == "standardize.build_zscore_table"),
        "standardize.dropped": count(spans, "standardize.build_zscore_table", "dropped"),
        "response.labels": count(spans, "response.build_labels", "labels"),
        "logit.fits": sum(1 for s in spans if s[2] == "logit.fit"),
        "logit.iterations": count(spans, "logit.fit", "iterations"),
        "logit.capped": count(spans, "logit.fit", "capped"),
        "backtest.windows": count(spans, "backtest.run", "windows"),
        "backtest.skipped": count(spans, "backtest.run", "skipped"),
        "evaluation.pairs": count(top_evaluation, "evaluation.scored_pairs", "pairs"),
        "evaluation.roc_points": count(top_evaluation, "evaluation.roc", "points"),
        "synthetic.deals": count(spans, "synthetic.generate_dataset", "deals"),
        "cli.bytes_written": run.bytes_written,
        "cli.bytes_hashed": run.bytes_hashed,
        "cli.log_lines": run.log_lines,
    }
    return times, counts


def summed(runs) -> tuple:
    """(times, counts) of several traced commands added up, with the derived ratios."""
    times, counts = {}, {}
    for run in runs:
        t, c = layer_metrics(run)
        for key, value in t.items():
            times[key] = times.get(key, 0.0) + value
        for key, value in c.items():
            counts[key] = counts.get(key, 0) + value
    fits, iterations, scanned = counts["logit.fits"], counts["logit.iterations"], counts["features.deals_scanned"]
    times["logit.us_per_iter"] = 1e6 * times["logit.fit_s"] / iterations if iterations else 0.0
    counts["logit.capped_share"] = counts["logit.capped"] / fits if fits else 0.0
    counts["features.scan_yield"] = counts["features.deals_matched"] / scanned if scanned else 0.0
    return times, counts


def summary(values) -> dict:
    """Median, quartiles, count and the samples themselves."""
    values = list(values)
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values), "samples": values}


def environment(workload, seed: int) -> dict:
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        numpy_info = {"version": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    except Exception as exc:  # the record is informative only; never fail a run on it
        numpy_info = {"error": repr(exc)}
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "pesignal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_info,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
        "workload": workload.name,
        "workload_config": workload.cli_config(seed),
        "seed": seed,
        "limits": (
            "no hardware counters are read; on a shared host one command's wall time drifts with the "
            "host's speed and CPU time tracks it, so medians over rounds are reported"
        ),
    }


def load_pinned(workload: str, seed: int):
    try:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return pinned.get(workload, {}).get(str(seed))


def run_benchmark(workload, seed: int, seconds: float, trace: bool, pinned, min_rounds=MIN_ROUNDS):
    """Set up, run rounds of set-up and study for `seconds`, and return the full record."""
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=RUNS))
    setup = work / "setup"
    try:
        setup.mkdir()
        for directory in (work, setup):
            (directory / "config.json").write_text(json.dumps(workload.cli_config(seed)), encoding="utf-8")
        runner = Runner(work, pinned)
        synths = [runner.run("synth")]
        ledger = runner.ledger
        if workload.noisy_deals:
            check = runner.run("features", gate=False)
            clean = {k: v for k, v in check.digests.items() if k.startswith(("features_", "zscores_"))}
            deals = work / "out" / "deals.csv"
            deals.write_text(add_followons_and_bad_rows(deals.read_text(encoding="utf-8"), seed), encoding="utf-8")
        # a round starts only if one as long as the last still ends in time
        rounds = []
        start = time.perf_counter()
        last = 0.0
        needed = 2 * MIN_TRACED_ROUNDS if trace else min_rounds
        while len(rounds) < needed or time.perf_counter() - start + last <= seconds:
            traced = trace and len(rounds) % 2 == 1
            began = time.perf_counter()
            synths.append(runner.run("synth", traced=traced, cwd=setup))
            rounds.append((traced, [runner.run(c, traced=traced) for c in STUDY]))
            last = time.perf_counter() - began
        if workload.noisy_deals:
            for _, runs in rounds:
                digests = {k: v for k, v in runs[0].digests.items() if k.startswith(("features_", "zscores_"))}
                ledger.check(digests == clean, "features/zscores from the noisy deal file differ from the clean file's")
        record = {
            "environment": environment(workload, seed),
            "pinned": pinned is not None,
            "digests": {run.command: run.digests for run in [synths[0], *rounds[0][1]]},
        }
        plain = [runs for traced, runs in rounds if not traced]
        study = [sum(r.wall_s for r in runs) for runs in plain]
        if trace:
            traced_rounds = [runs for traced, runs in rounds if traced]
            per_round = [summed(runs) for runs in traced_rounds]
            per_synth = [summed([s]) for s in synths if s.spans]
            traced_study = [sum(r.wall_s for r in runs) for runs in traced_rounds]
            times = {}
            for name in PER_LAYER_TIMES:
                source = per_synth if name in ("features.build_synth_s", "synthetic.generate_s") else per_round
                if name in source[0][0]:
                    times[name] = summary(t[name] for t, _ in source)
            times["trace.study_s"] = summary(traced_study)
            overhead = statistics.median(traced_study) / statistics.median(study) - 1.0
            times["trace.overhead_share"] = summary([overhead])
            counts = dict(per_round[0][1])
            counts["synthetic.deals"] = per_synth[0][1]["synthetic.deals"]
            for label, source in (("study round", per_round), ("synth", per_synth)):
                for _, c in source[1:]:
                    ledger.check(c == source[0][1], f"per-layer counts differ between traced {label}s of one seed")
            metrics = {name: times[name]["median"] for name in times}
            metrics |= {name: counts[name] for name in PER_LAYER_COUNTS}
            units = PER_LAYER_TIMES | PER_LAYER_COUNTS
            record["per_layer"] = {"times": times, "counts": counts}
        else:
            samples = {
                "setup_s": summary(s.wall_s for s in synths),
                "study_s": summary(study),
                **{f"{c}_s": summary(runs[k].wall_s for runs in plain) for k, c in enumerate(STUDY)},
            }
            samples["peak_rss_mb"] = summary([max(r.rss_mb for r in runner.runs)])
            metrics = {name: samples[name]["median"] for name in END_TO_END}
            units = END_TO_END
            record["end_to_end"] = samples
        record.update(
            attempted=ledger.attempted,
            failed=ledger.failed,
            ops_failed=ledger.ops_failed,
            failures=ledger.failures,
            metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pesignal" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'pesignal'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "pesignal")], check=True, timeout=120)
    pinned = load_pinned(workload.name, args.seed)
    record = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), pinned)
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"results: {out.relative_to(ROOT)}")
    if pinned is None:
        gate = (
            f"gate: seed {args.seed} of {workload.name} is not pinned in {DIGESTS.relative_to(ROOT)}; "
            "outputs were checked only against their manifests and the run's first output of each command"
        )
        print(gate, file=sys.stderr)
    else:
        gate = f"gate: outputs checked against the digests pinned for {workload.name} seed {args.seed}"
    print(gate)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
