"""Self-tests of the end-to-end benchmark harness.

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import spans
import workload

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def scripted_clock(*ticks: float):
    return iter(ticks).__next__


# -- span arithmetic ------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    # Tracer origin at 0; outer [0, 10] holds a [1, 4] (holding b [2, 3]) and c [6, 7].
    tracer = spans.Tracer(clock=scripted_clock(0, 0, 1, 2, 3, 4, 6, 7, 10))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert dict(tracer.total_s) == {"outer": 10, "a": 3, "b": 1, "c": 1}
    assert dict(tracer.self_s) == {"outer": 6, "a": 2, "b": 1, "c": 1}
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]
    parents = {e["name"]: e["parent"] for e in tracer.events}
    ids = {e["name"]: e["id"] for e in tracer.events}
    assert parents == {"outer": None, "a": ids["outer"], "b": ids["a"], "c": ids["outer"]}


def test_kernel_spans_fold_into_their_kept_ancestor():
    # server.fit [0, 9] holds client.train_classifier [1, 5] (holding
    # nn.col2im [2, 3]) and nn.col2im [6, 7].
    tracer = spans.Tracer(clock=scripted_clock(0, 0, 1, 2, 3, 5, 6, 7, 9))
    with tracer.span("server.fit"):
        with tracer.span("client.train_classifier"):
            with tracer.span("nn.col2im"):
                pass
        with tracer.span("nn.col2im"):
            pass
    (event,) = tracer.events
    assert event["name"] == "server.fit"
    assert event["folded"] == {"nn.col2im": [2, 2], "client.train_classifier": [1, 3]}
    assert tracer.self_s["server.fit"] == 4


def test_wrapper_records_only_while_enabled():
    tracer = spans.Tracer()
    traced = tracer.wrap(lambda x: x + 1, "nn.op")
    assert traced(1) == 2
    assert tracer.calls["nn.op"] == 0
    tracer.enabled = True
    assert traced(2) == 3
    assert tracer.calls["nn.op"] == 1


def test_install_patches_every_site_and_restores_them():
    import repro.fl.client
    import repro.nn.functional
    import repro.nn.layers

    originals = (repro.nn.functional.col2im, repro.fl.client.train_cvae,
                 repro.nn.layers.Conv2d.__dict__["forward"])
    tracer = spans.Tracer()
    with tracer.installed():
        assert repro.nn.functional.col2im is not originals[0]
        assert repro.fl.client.train_cvae is not originals[1]
        assert repro.nn.layers.Conv2d.__dict__["forward"] is not originals[2]
    assert (repro.nn.functional.col2im, repro.fl.client.train_cvae,
            repro.nn.layers.Conv2d.__dict__["forward"]) == originals
    assert not tracer.enabled


# -- helpers ---------------------------------------------------------------------
def test_tail_is_omitted_below_twenty_rounds():
    assert workload.tail([1.0] * 19) is None


def test_tail_of_300_rounds_is_the_eleventh_largest():
    values = [float(i) for i in range(300)]
    random.Random(0).shuffle(values)
    assert workload.tail(values) == 289.0


def test_host_speed_scales_by_the_window_and_takes_out_sampling_time():
    speed = workload.HostSpeed()
    nominal = workload.NOMINAL_KERNEL_S
    rows = [  # pid, start, seconds taken, kernel seconds
        (1, 9.0, 0.1, nominal, nominal, nominal),              # before the window
        (1, 9.9, 0.1, 2 * nominal, 2 * nominal, 2 * nominal),  # just before the interval
        (1, 10.5, 0.2, 2 * nominal, 2 * nominal, 2 * nominal),
        (2, 10.6, 0.3, 2 * nominal, 2 * nominal, 2 * nominal),
        (2, 11.0, 0.1, 2 * nominal, 2 * nominal, 2 * nominal),
    ]
    speed._table[1:len(rows) + 1] = rows
    speed._table[0, 0] = len(rows)
    raw, scaled, sampling = speed.measure(10.0, 12.0)
    # The slowest process (pid 2) lost 0.4 s; the window runs at half speed.
    assert raw == pytest.approx(1.6)
    assert scaled == pytest.approx(0.8)
    assert sampling == pytest.approx(0.6)


def test_host_speed_records_samples_of_forked_workers():
    speed = workload.HostSpeed()
    child = multiprocessing.get_context("fork").Process(target=speed.sample)
    child.start()
    child.join()
    speed.sample()
    assert sorted(speed._rows()[:, 0]) == sorted([child.pid, os.getpid()])
    assert speed.median_kernel_s > 0


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        tuple(metric) for metric in spans.LAYER_METRICS
    ]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workload.WORKLOADS)


# -- the command -----------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc, time.perf_counter() - start, json.loads(out.read_text())


def test_smoke_trace_run_passes_every_check_quickly(smoke):
    proc, elapsed, report = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 90
    assert report["correct"], report["failures"]
    assert [r["workload"] for r in report["runs"]] == list(workload.WORKLOADS)


def test_smoke_trace_run_emits_exactly_the_declared_metrics(smoke):
    proc, _, report = smoke
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    end_to_end = [m["name"] for m in BENCH["end_to_end"]]
    for run in report["runs"]:
        assert list(line["metrics"][run["workload"]]) == per_layer
        assert list(run["layers"]) == per_layer
        assert list(run["e2e"]) == end_to_end


def test_every_declared_span_fires(smoke):
    _, _, report = smoke
    for run in report["runs"]:
        bypassed = workload.WORKLOADS[run["workload"]].bypasses
        silent = [n for n, calls in run["fired"].items() if not calls and n not in bypassed]
        assert not silent, (run["workload"], silent)


def test_process_pool_reproduces_the_sequential_history(smoke):
    _, _, report = smoke
    digests = {r["workload"]: r["digest"] for r in report["runs"]}
    assert digests["fedguard_paper_2proc"] == digests["fedguard_paper"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fedavg_100k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- compare.py ------------------------------------------------------------------
BASE = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97]


@pytest.mark.parametrize("new, better, expected", [
    ([v * 1.001 for v in BASE], "lower", "unchanged"),
    ([v * 0.8 for v in BASE], "lower", "better"),
    ([v * 1.2 for v in BASE], "lower", "worse"),
    ([v * 1.2 for v in BASE], "higher", "better"),
    ([v * 0.8 for v in BASE], "higher", "worse"),
    ([5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 9.0, 11.0, 12.0], "lower", "unresolved"),
])
def test_compare_verdicts(new, better, expected):
    assert compare.verdict(BASE, new, better, 0.1)[0] == expected


def test_compare_counts_pair_wins_without_ties():
    _, wins = compare.verdict([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], "lower", 0.25)
    assert wins == pytest.approx(2 / 3)


def test_compare_exits_nonzero_on_a_worse_metric(tmp_path, capsys):
    def report(path, scale):
        runs = [{"workload": "fedavg_100k",
                 "e2e": {m["name"]: v * scale for m in BENCH["end_to_end"]}}
                for v in BASE]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = report(tmp_path / "base.json", 1.0)
    assert compare.main([base, "--", report(tmp_path / "same.json", 1.0)]) == 0
    assert compare.main([base, "--", report(tmp_path / "slow.json", 1.3)]) == 1
    assert "fedavg_100k" in capsys.readouterr().out
