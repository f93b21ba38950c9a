"""Tests of the benchmark's own machinery: tracing, output gate, inputs.

Run with the program on the path, from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import io
import json

import pesignal.backtest
import pesignal.cli
import pesignal.features
from pesignal.ingest import first_deals, parse_deals, write_deals
from pesignal.synthetic import SyntheticSpec, generate_deals

import traced
from run import CommandRun, Ledger, check_outputs, compare, sha256
from tracing import Tracer, outermost, self_time, total
from workloads import add_followons_and_bad_rows


def _pesignal_bindings():
    bindings = {}
    for module in (pesignal.cli, pesignal.backtest, pesignal.features):
        for key, value in vars(module).items():
            if callable(value):
                bindings[(module.__name__, key)] = value
    bindings.update({("_COMMANDS", k): v for k, v in pesignal.cli._COMMANDS.items()})
    return bindings


def test_install_wraps_where_looked_up_and_restore_puts_originals_back():
    before = _pesignal_bindings()
    tracer = Tracer()
    wrapped = traced.install(tracer)
    try:
        assert "logit.fit" in wrapped and "cli.cmd_features" in wrapped
        assert pesignal.backtest.fit is not before[("pesignal.backtest", "fit")]
        assert pesignal.cli.run is not before[("pesignal.cli", "run")]
        assert pesignal.features.matching_deals is not before[("pesignal.features", "matching_deals")]
        assert pesignal.cli._COMMANDS["features"] is not before[("_COMMANDS", "features")]
    finally:
        tracer.restore()
    after = _pesignal_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_skips_a_name_the_program_lacks():
    tracer = Tracer()
    assert not tracer.install(pesignal.features, "no_such_function", "features.none")
    assert tracer._patches == []


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    # outer [0, 10] calls inner twice: [1, 3] and [4, 8]
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    outer = next(s for s in tracer.spans if s[2] == "m.outer")
    assert self_time(outer, tracer.spans) == 10.0 - (2.0 + 4.0)
    assert [s[1] for s in tracer.spans if s[2] == "m.inner"] == [outer[0], outer[0]]
    # a layer's time counts nested spans of the same layer once
    assert total(tracer.spans, ["m.outer", "m.inner"]) == 10.0
    assert outermost(tracer.spans, ["m.inner"]) == [s for s in tracer.spans if s[2] == "m.inner"]


def test_counts_come_from_the_return_value():
    tracer = Tracer()
    tracer.wrap("m.f", lambda n: list(range(n)), count=lambda a, k, r: {"items": len(r)})(4)
    assert tracer.spans[0][5] == {"items": 4}


def _evaluate_output(work, text):
    out = work / "out"
    out.mkdir(exist_ok=True)
    scores = out / "scores.jsonl"
    scores.write_text(text, encoding="utf-8")
    manifest = {"command": "evaluate", "config": {}, "inputs": {}, "outputs": {"out/scores.jsonl": sha256(scores)}}
    (out / "manifest_evaluate.json").write_text(json.dumps(manifest), encoding="utf-8")


def _gate(work, pinned):
    digests, _, _, problems = check_outputs(work, "evaluate")
    problems += compare("evaluate", digests, pinned)
    return CommandRun("evaluate", wall_s=0.3, rss_mb=30.0, code=0, log_lines=0, problems=problems)


def test_flipped_byte_in_one_output_raises_ops_failed(tmp_path):
    _evaluate_output(tmp_path, '{"scope": "Market", "auc": 0.612345}\n')
    pinned, _, _, problems = check_outputs(tmp_path, "evaluate")
    assert problems == []
    ledger = Ledger()
    ledger.record(_gate(tmp_path, pinned))
    assert ledger.ops_failed == 0.0
    # the program writes one different byte, and a manifest that agrees with it
    _evaluate_output(tmp_path, '{"scope": "Market", "auc": 0.612346}\n')
    ledger.record(_gate(tmp_path, pinned))
    assert ledger.failed == 1
    assert ledger.ops_failed == 0.5


def test_output_that_disagrees_with_its_manifest_fails(tmp_path):
    _evaluate_output(tmp_path, "a\n")
    (tmp_path / "out" / "scores.jsonl").write_text("b\n", encoding="utf-8")
    _, _, _, problems = check_outputs(tmp_path, "evaluate")
    assert problems == ["evaluate: out/scores.jsonl does not match its manifest digest"]


def test_followons_and_bad_rows_leave_first_deals_unchanged():
    buffer = io.StringIO()
    write_deals(generate_deals(SyntheticSpec(seed=3, n_quarters=20, n_sectors=2, std_window=6)), buffer)
    clean = buffer.getvalue()
    noisy = add_followons_and_bad_rows(clean, seed=3)
    assert noisy == add_followons_and_bad_rows(clean, seed=3)
    parsed_clean = parse_deals(io.StringIO(clean))
    parsed_noisy = parse_deals(io.StringIO(noisy))
    assert parsed_clean.issues == []
    assert len(parsed_noisy.issues) >= 1
    assert len(parsed_noisy.records) > len(parsed_clean.records)
    assert first_deals(parsed_noisy.records) == first_deals(parsed_clean.records)
