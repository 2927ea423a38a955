"""Golden-history regression: the transport refactor must be bit-identical.

``tests/fl/data/golden_histories.json`` holds full histories captured from
the **pre-transport** round loop (tiny config) for strategies whose results
the refactor must not change. Re-running those cells through the phased
``Server`` + ``InMemoryChannel`` pipeline must reproduce every accuracy,
sampled/accepted/rejected id, and byte count exactly.

Wall-clock fields (``duration_s`` and any ``*_s`` metric) are stripped on
both sides — they measure the host machine, not the federation. Async
cells keep the three that are simulated there (:data:`ASYNC_SIMULATED`).

Spectral and FedCVAE are deliberately absent: the call-count-invariant
model-factory fix changes their shell initialization (their ``setup``
pre-trains from a factory shell), which is the intended bugfix, not drift.
"""

import json
import pathlib

import pytest

from repro.config import FederationConfig
from repro.experiments import run_cell
from repro.experiments.storage import history_to_dict

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_histories.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

# Async goldens: all 13 strategies at buffer_size=5 under a heterogeneous
# LatencyChannel (base 0.05 s, lognormal spread 0.6), captured from the
# first AsyncBufferedMode implementation. Arrival order — and therefore
# every sampled/accepted id and staleness metric — must be a pure
# function of the seed on every engine and backend.
GOLDEN_ASYNC_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_histories_async.json"
)
GOLDEN_ASYNC = json.loads(GOLDEN_ASYNC_PATH.read_text())

GOLDEN_BY_MODE = {"sync": GOLDEN, "async": GOLDEN_ASYNC}


def _cell_config(server_mode: str, seed: int, engine: str) -> FederationConfig:
    if server_mode == "sync":
        return FederationConfig.tiny(seed=seed, engine=engine)
    # Three flushes: enough for arrivals dispatched in an earlier window
    # to land stale (the captured histories pin staleness_max > 0).
    return FederationConfig.tiny(
        seed=seed, engine=engine, server_mode="async", buffer_size=5,
        rounds=3, channel="latency", channel_latency_base_s=0.05,
        channel_latency_spread=0.6,
    )


# An async flush's duration is its window's span on the event clock, and
# its transport latency comes from the seeded channel: both are simulated,
# unlike a sync round's duration_s, which includes wall-clock fit time.
ASYNC_SIMULATED = ("duration_s", "sim_time_s", "transport_latency_max_s")


def _normalize(data: dict, server_mode: str = "sync") -> dict:
    """Strip wall-clock fields and post-refactor-only keys from a history dict."""
    keep = ASYNC_SIMULATED if server_mode == "async" else ()
    out = {"strategy": data["strategy"], "scenario": data["scenario"], "rounds": []}
    for r in data["rounds"]:
        round_out = {
            k: v
            for k, v in r.items()
            if k not in ("metrics", "selected_ids", "broadcasts_dropped",
                         "submits_dropped")
            and (k != "duration_s" or k in keep)
        }
        round_out["metrics"] = {
            k: v
            for k, v in r.get("metrics", {}).items()
            if not k.endswith("_s") or k in keep
        }
        out["rounds"].append(round_out)
    return out


@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_history_matches_pre_refactor_golden(cell, engine):
    # Both training engines must land on the same golden bytes: the
    # batched stack is a pure execution-plan change, not a semantic one.
    strategy, scenario, seed_tag = cell.rsplit("__", 2)
    seed = int(seed_tag.removeprefix("seed"))
    config = FederationConfig.tiny(seed=seed, engine=engine)
    history = run_cell(config, strategy, scenario)
    assert _normalize(history_to_dict(history)) == _normalize(GOLDEN[cell])


def test_golden_file_covers_multiple_defense_families():
    strategies = {cell.rsplit("__", 2)[0] for cell in GOLDEN}
    assert {"fedavg", "fedguard", "krum", "geomed", "trimmed_mean"} <= strategies


# One run asserts both modes: the sync cells prove the mode refactor left
# barrier rounds byte-identical, the async cells pin FedBuff-style
# aggregation to its captured arrival order, staleness metrics included.
_MODE_CELLS = [
    (mode, cell)
    for mode, golden in sorted(GOLDEN_BY_MODE.items())
    for cell in sorted(golden)
]


@pytest.mark.parametrize("server_mode,cell", _MODE_CELLS)
def test_history_matches_golden_per_mode(server_mode, cell):
    strategy, scenario, seed_tag = cell.rsplit("__", 2)
    seed = int(seed_tag.removeprefix("seed"))
    config = _cell_config(server_mode, seed, engine="loop")
    history = run_cell(config, strategy, scenario)
    golden = GOLDEN_BY_MODE[server_mode][cell]
    assert (_normalize(history_to_dict(history), server_mode)
            == _normalize(golden, server_mode))


@pytest.mark.parametrize("strategy", ["fedavg", "fedguard", "krum"])
def test_async_golden_is_engine_independent(strategy):
    # The batched engine receives groups of one client per async dispatch;
    # its stacked pass must still land on the captured golden bytes.
    cell = f"{strategy}__label_flipping_30__seed0"
    config = _cell_config("async", seed=0, engine="batched")
    history = run_cell(config, strategy, "label_flipping_30")
    assert (_normalize(history_to_dict(history), "async")
            == _normalize(GOLDEN_ASYNC[cell], "async"))


def test_async_golden_covers_all_registered_strategies():
    from repro.experiments import STRATEGY_FACTORIES

    strategies = {cell.rsplit("__", 2)[0] for cell in GOLDEN_ASYNC}
    assert strategies == set(STRATEGY_FACTORIES)


def test_async_golden_exercises_staleness():
    stale_max = max(
        r["metrics"]["staleness_max"]
        for history in GOLDEN_ASYNC.values()
        for r in history["rounds"]
    )
    assert stale_max > 0, "async goldens never queued a stale arrival"
