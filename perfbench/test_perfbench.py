"""Tests of the benchmark itself: seeded inputs, oracles, span
arithmetic and a tiny run of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from braidcert import BraidWord, FdtcValue, OrderSign  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402

WORKLOADS = ("twist-floor", "cert-corpus", "order-mix")


def first_groups(name: str, seed: int, n: int = 6):
    return list(itertools.islice(run.make_workload(name).groups(seed), n))


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    assert first_groups(name, 7) == first_groups(name, 7)
    assert first_groups(name, 7) != first_groups(name, 8)


# ---------------------------------------------------------------------------
# oracles reject wrong answers


def test_twist_oracle_rejects_shifted_twist():
    wl = W.TwistFloor()
    for (call,) in first_groups("twist-floor", 3, 14):
        b, tol = call.args
        right = wl.run(call)
        assert wl.check([call], [right]) == [None]
        shift = Fraction(1, b.strands)
        wrong = FdtcValue.interval(right.lo + shift, right.hi + shift, "shifted")
        assert wl.check([call], [wrong])[0]
        wide = FdtcValue.interval(right.lo - tol, right.hi, "too wide")
        assert wl.check([call], [wide])[0]
        assert wl.check([call], [RuntimeError("boom")])[0]


def test_twist_oracle_rejects_wrong_construction():
    (call,) = first_groups("twist-floor", 3, 1)[0]
    b, tol = call.args
    moved = W.Call(call.op, (b, tol), call.expect + 1)
    assert W.TwistFloor().check([moved], [W.TwistFloor().run(call)])[0]


def test_order_oracles_reject_wrong_answers():
    wl = W.OrderMix()
    group = first_groups("order-mix", 4, 8)[-1]
    right = [wl.run(c) for c in group]
    assert wl.check(group, right) == [None] * len(group)

    def with_answer(i, value):
        answers = list(right)
        answers[i] = value
        return wl.check(group, answers)

    assert with_answer(1, right[0])[1]          # sign(u^-1) == sign(u)
    assert with_answer(2, OrderSign.NEGATIVE)[2]  # positive word not Positive
    assert with_answer(4, right[3])[4]          # compare not antisymmetric
    assert with_answer(6, False)[6]             # commutator not trivial
    u = group[5].args[0]
    assert with_answer(5, u * BraidWord(u.strands, (1,)))[5]
    assert with_answer(5, BraidWord(u.strands, (1, 2, -1)))[5]
    assert with_answer(0, RuntimeError("boom"))[0]


def tampered(rec: dict, **changes) -> dict:
    out = dict(rec)
    out.update(changes)
    return out


def test_corpus_oracles_reject_wrong_records(tmp_path):
    wl = W.CertCorpus(tmp_path)
    (call,) = next(wl.groups(5))
    wl.prepare(call)
    rc, text, records, replayed = wl.run(call)
    assert wl.check([call], [(rc, text, records, replayed)]) == [None]

    def verdict_for(task, pred=lambda e, r: True):
        return next(k for k, (e, r) in enumerate(zip(call.expect, records))
                    if e.task == task and pred(e, r))

    def rejects(k, rec=None, ok=None):
        recs, reps = list(records), list(replayed)
        if rec is not None:
            recs[k] = rec
        if ok is not None:
            reps[k] = ok
        return wl.check([call], [(rc, text, recs, reps)])[0]

    k = verdict_for("Classify3")
    assert rejects(k, tampered(records[k], d=records[k]["d"] + 1))
    k = verdict_for("Fdtc")
    c = Fraction(records[k]["value"]) + Fraction(1, 3)
    assert rejects(k, tampered(records[k], value=str(c)))
    k = verdict_for("Floor")
    assert rejects(k, tampered(records[k], floor=records[k]["floor"] + 2))
    k = verdict_for("Genus1", lambda e, r: e.split)
    assert rejects(k, {"id": f"e{k}", "task": "Genus1", "verdict": "Excellent"})
    k = verdict_for("Genus1", lambda e, r: e.genus1 is not None)
    other = {"Excellent": "TotalLSpace", "TotalLSpace": "Excellent"}
    assert rejects(k, tampered(records[k], verdict=other[records[k]["verdict"]]))
    k = verdict_for("CoverCertify", lambda e, r: r.get("verdict") == "Unknown")
    assert rejects(k, tampered(records[k], error="ReductionBudgetExceeded"))
    for k, ok in enumerate(replayed):
        if ok is not None:
            assert rejects(k, ok=False)  # a definite certificate fails replay
    assert wl.check([call], [(0, text, records, replayed)])[0]  # no split error


def test_corpus_digest_pins_default_seed(tmp_path):
    wl = W.CertCorpus(tmp_path)
    for (call,) in itertools.islice(wl.groups(W.DEFAULT_SEED), W.DIGEST_BATCHES):
        wl.prepare(call)
        assert wl.check([call], [wl.run(call)]) == [None]
    assert wl.final_check(W.DEFAULT_SEED) is None
    wl.texts[0] = wl.texts[0].replace("Excellent", "Unknown", 1)
    assert wl.final_check(W.DEFAULT_SEED)
    assert wl.final_check(W.DEFAULT_SEED + 1) is None


# ---------------------------------------------------------------------------
# spans


def span(i, parent, name, start, end, note=None):
    return [i, parent, name, start, end, note]


def test_self_times_on_a_synthetic_tree():
    spans = [
        span(0, -1, "bench.call", 0.0, 10.0),
        span(1, 0, "fdtc", 1.0, 4.0),
        span(2, 1, "kernel.sign", 2.0, 3.0, 40),
        span(3, 0, "ordering.floor", 6.0, 9.0),
        span(4, 3, "kernel.sign", 6.5, 7.5, 100),
        span(5, 3, "kernel.sign", 7.0, 8.0, 60),   # overlaps its sibling
        span(6, 3, "kernel.sign", 8.5, 9.5, 10),   # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    m = layer_metrics(spans)
    assert m["kernel.sign_calls"] == 4
    assert m["kernel.sign_s"] == pytest.approx(4.0)
    assert m["kernel.sign_max_letters"] == 100
    assert m["ordering.floor_s"] == pytest.approx(1.0)
    assert m["ordering.floor_sign_queries"] == 3
    assert m["ordering.floor_letters"] == 170
    assert m["ordering.queries_per_floor"] == 3
    assert m["fdtc.s"] == pytest.approx(2.0)


def test_tracer_wraps_where_names_are_looked_up():
    import braidcert.cli
    import braidcert.fdtc
    import braidcert.ordering

    original = braidcert.ordering.dehornoy_floor
    tracer = Tracer()
    tracer.install()
    try:
        assert braidcert.fdtc.dehornoy_floor is braidcert.cli.dehornoy_floor
        assert braidcert.fdtc.dehornoy_floor is not original
        braidcert.fdtc.fdtc_interval(BraidWord(4, (1, 2, 3) * 4), Fraction(1, 4))
    finally:
        tracer.uninstall()
    assert braidcert.fdtc.dehornoy_floor is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == "fdtc" and "ordering.floor" in names and "kernel.sign" in names
    m = layer_metrics(tracer.spans)
    assert m["fdtc.calls"] == 1 and m["fdtc.mean_power"] == 4


# ---------------------------------------------------------------------------
# tiny runs


def load_benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    rc = run.main(["--workload", name, "--seed", "2", "--seconds", "0.05",
                   "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
