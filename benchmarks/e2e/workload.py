"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` launches this script once per workload and repeat, with BLAS
pinned to one thread and the repo's debug environment variables removed;
run it through ``run.py``. The last line of standard output is the result
object ``run.py`` checks and reports.

A run builds the federation ``SETUP_BUILDS`` times (``setup_s`` is the
median), runs its fixed-round episode on the last one, and runs fresh
episodes of the same seed, each on a new build: at least ``MIN_EPISODES``,
then more while another one still fits in ``--seconds``. Bounded times
are medians over the episodes. With ``--trace 1`` it then installs the
span recorder, builds again and runs one traced episode for the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import functools
import hashlib
import json
import math
import mmap
import multiprocessing
import os
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import FederationConfig
from repro.experiments.scenarios import make_scenario, make_strategy
from repro.experiments.storage import history_to_dict
from repro.fl import simulation
from repro.fl.client import FLClient
from repro.fl.history import History

import spans

ROOT = Path(__file__).resolve().parents[2]
TRACE_DIR = ROOT / "benchmarks" / "out" / "trace"

SETUP_BUILDS = 5
# A burst of interference on a shared host slows one episode by up to
# 20 %; the median of three or more episodes leaves it out.
MIN_EPISODES = 3
# round_s_tail is the 11th-largest round time: the highest percentile with
# ten samples beyond it. Below TAIL_MIN_ROUNDS rounds it is omitted.
TAIL_RANK = 11
TAIL_MIN_ROUNDS = 20

# Host-speed normalisation (see HostSpeed).
NOMINAL_KERNEL_S = 0.0065
SAMPLE_EVERY_S = 0.25
KERNELS_PER_SAMPLE = 3
# A timed interval is scaled by the samples taken during it and in the
# WINDOW_PAD_S before it, which holds the sample taken just before it starts.
WINDOW_PAD_S = 0.6
SAMPLE_CAPACITY = 1 << 16

_CONV = frozenset({
    "nn.col2im", "nn.im2col", "nn.Conv2d.forward", "nn.Conv2d.backward",
    "nn.MaxPool2d.forward", "nn.MaxPool2d.backward",
})
_CVAE = frozenset({"nn.Adam.step", "nn.CVAELoss", "client.train_cvae"})
# Local training that a process pool runs inside its workers.
_POOL_SIDE = _CVAE | {
    "nn.col2im", "nn.Conv2d.backward", "nn.MaxPool2d.backward", "nn.Linear.backward",
    "nn.SGD.step", "nn.SoftmaxCrossEntropy", "client.train_classifier",
    "client.begin_fit", "client.finish_fit", "batched.fit_clients",
}
_SYNC_ONLY = frozenset({"server.select", "server.broadcast", "server.fit", "server.collect"})
_FEDGUARD = frozenset({
    "defenses.fedguard.aggregate", "defenses.fedguard.synthesize", "nn.stack_parameters",
})
# The default engine is the per-client loop; the stacked pass never runs yet.
_UNUSED = frozenset({"batched.train_classifiers_batched"})

# The paper_scaled cohort (10 clients, CNN + CVAE), with the whole
# population sampled every round: each round then does the same work for
# every seed, so the seed moves data and attackers, not cost. Clients hold
# ~40 Dirichlet samples, a sixth of paper_scaled's ~240, so that
# MIN_EPISODES episodes of all four workloads fit the time the benchmark has.
_COHORT = dict(n_clients=10, clients_per_round=10, train_samples=400)
_ASYNC = dict(
    server_mode="async", buffer_size=3, async_concurrency=10, channel="latency",
    channel_latency_base_s=0.05, channel_bytes_per_s=1e6, channel_latency_spread=0.5,
)
_PAPER_SMOKE = dict(
    n_clients=4, clients_per_round=2, train_samples=160, test_samples=40,
    local_epochs=1, cvae_epochs=1,
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop federation: rounds run back to back on one server."""

    profile: Callable[..., FederationConfig]
    overrides: dict
    smoke: dict                  # extra overrides for --smoke
    strategy: str
    scenario: str
    acc_target: float | None     # time_to_acc_s target (full size only)
    bypasses: frozenset          # spans the main process never enters

    def config(self, seed: int, smoke: bool) -> FederationConfig:
        return self.profile(seed=seed, **{**self.overrides, **(self.smoke if smoke else {})})


WORKLOADS = {
    "fedguard_paper": Workload(
        FederationConfig.paper_scaled, dict(rounds=2, **_COHORT), _PAPER_SMOKE,
        "fedguard", "label_flipping_30", None,
        bypasses=_UNUSED | {"defenses.fedavg.aggregate"},
    ),
    "fedguard_paper_2proc": Workload(
        FederationConfig.paper_scaled,
        dict(rounds=2, backend="process", backend_workers=2, **_COHORT),
        _PAPER_SMOKE,
        "fedguard", "label_flipping_30", None,
        bypasses=_UNUSED | _POOL_SIDE | {"defenses.fedavg.aggregate"},
    ),
    "fedguard_async": Workload(
        FederationConfig.paper_scaled, dict(rounds=4, **_COHORT, **_ASYNC),
        dict(_PAPER_SMOKE, rounds=2, buffer_size=2, async_concurrency=3),
        "fedguard", "label_flipping_30", None,
        bypasses=_UNUSED | _SYNC_ONLY | {"defenses.fedavg.aggregate"},
    ),
    "fedavg_100k": Workload(
        FederationConfig.tiny,
        dict(n_clients=100_000, clients_per_round=120, rounds=80,
             partition_scheme="virtual", virtual_samples_per_client=16,
             train_samples=4096, test_samples=500, local_epochs=1, batch_size=8),
        dict(clients_per_round=20, rounds=3, test_samples=100),
        # Seeds 0-59 all reach accuracy 0.40 by round 55.
        "fedavg", "no_attack", 0.40,
        bypasses=_UNUSED | _CONV | _CVAE | _FEDGUARD | {"data.partition_indices"},
    ),
}


# -- measurement helpers ----------------------------------------------------------
def tail(values: list[float]) -> float | None:
    """The ``TAIL_RANK``-th largest value, or ``None`` below ``TAIL_MIN_ROUNDS`` samples."""
    if len(values) < TAIL_MIN_ROUNDS:
        return None
    return sorted(values, reverse=True)[TAIL_RANK - 1]


def history_digest(history: History) -> str:
    """SHA-256 of the history without its wall-clock fields.

    Removed: ``duration_s`` and every ``*_time*_s`` round metric.
    """
    data = history_to_dict(history)
    for record in data["rounds"]:
        del record["duration_s"]
        record["metrics"] = {
            k: v for k, v in record["metrics"].items() if not fnmatch.fnmatch(k, "*_time*_s")
        }
    blob = json.dumps(data, sort_keys=True, default=float).encode()
    return hashlib.sha256(blob).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / spans.MB


class HostSpeed:
    """Times a fixed reference kernel while the workload runs.

    A shared host's speed moves by 10-30 % within seconds to minutes as its
    neighbours contend for cache and memory bandwidth, and a statistic over
    one run's own timings cannot remove a slow stretch that covers most of
    it. This kernel does the workloads' kind of NumPy work (scatter-add,
    fancy-index gather, small matmuls in a Python loop) and slows with them.
    Bounded times are therefore reported in seconds of a host that runs the
    kernel in ``NOMINAL_KERNEL_S``; the raw seconds stay in the report.

    A sample times ``KERNELS_PER_SAMPLE`` kernels, at most once per
    ``SAMPLE_EVERY_S`` in each process. Samples are taken between builds and
    rounds and, inside ``installed()``, before each client fit starts: in
    this process and in forked pool workers, which write to the same shared
    table, so samples cover a long round where its work runs. ``measure``
    scales an interval by the samples of its own window, and takes out the
    time the samples inside it held up the workload.
    """

    _FIELDS = 3 + KERNELS_PER_SAMPLE  # pid, start, seconds taken, kernel seconds...

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        index = rng.integers(0, 12, size=(26, 144))
        self._images = rng.standard_normal((64, 8, 12, 12))
        self._scatter = (slice(None), slice(None), index[:8, :12], index[8:16, :12])
        self._gather = (slice(None), slice(None), index[16:21], index[21:26])
        self._x = rng.standard_normal((32, 256))
        self._w = rng.standard_normal((256, 64))
        self._last = -math.inf
        # Row 0 holds the row count. An anonymous shared mapping and a fork
        # lock are inherited by forked workers and leave nothing behind.
        shape = (SAMPLE_CAPACITY + 1, self._FIELDS)
        self._map = mmap.mmap(-1, shape[0] * shape[1] * 8)
        self._table = np.ndarray(shape, dtype=np.float64, buffer=self._map)
        self._lock = multiprocessing.get_context("fork").Lock()
        for _ in range(2):  # first calls pay one-time allocation and page faults
            self._kernel()

    def _kernel(self) -> None:
        out = np.zeros_like(self._images)
        for _ in range(3):
            np.add.at(out, self._scatter, 1.0)
            self._images[self._gather].sum()
        for _ in range(40):
            self._x @ self._w

    def sample(self) -> None:
        """Time a few kernels, at most once per ``SAMPLE_EVERY_S``."""
        begin = time.perf_counter()
        if begin - self._last < SAMPLE_EVERY_S:
            return
        kernels = []
        for _ in range(KERNELS_PER_SAMPLE):
            start = time.perf_counter()
            self._kernel()
            kernels.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        with self._lock:
            count = int(self._table[0, 0]) + 1
            if count <= SAMPLE_CAPACITY:
                self._table[count] = (os.getpid(), begin, self._last - begin, *kernels)
                self._table[0, 0] = count

    @contextlib.contextmanager
    def installed(self):
        """Also sample before each client fit, in this process and its forked workers."""
        original = FLClient.__dict__["begin_fit"]

        @functools.wraps(original)
        def begin_fit(client, *args, **kwargs):
            self.sample()
            return original(client, *args, **kwargs)

        FLClient.begin_fit = begin_fit
        try:
            yield self
        finally:
            FLClient.begin_fit = original

    def _rows(self) -> np.ndarray:
        return self._table[1:int(self._table[0, 0]) + 1]

    @property
    def median_kernel_s(self) -> float:
        return float(np.median(self._rows()[:, 3:]))

    def measure(self, start: float, end: float) -> tuple[float, float, float]:
        """(raw, nominal, sampling) seconds of the perf_counter interval [start, end].

        Raw seconds leave out the time samples inside the interval held up
        its slowest process. Nominal seconds scale them by the median kernel
        time of the window's samples (the nearest sample if it has none).
        Sampling seconds are all processes' sample time inside it, to take
        out of their CPU time.
        """
        rows = self._rows()
        inside = rows[(rows[:, 1] >= start) & (rows[:, 1] <= end)]
        held = max((inside[inside[:, 0] == pid, 2].sum() for pid in set(inside[:, 0])),
                   default=0.0)
        window = rows[(rows[:, 1] >= start - WINDOW_PAD_S) & (rows[:, 1] <= end)]
        if not len(window):
            window = rows[[np.abs(rows[:, 1] - start).argmin()]]
        raw = end - start - held
        return raw, raw * NOMINAL_KERNEL_S / float(np.median(window[:, 3:])), \
            float(inside[:, 2].sum())


@dataclasses.dataclass
class Episode:
    history: History
    round_s: list[float]     # raw seconds, host-speed sampling taken out
    nominal_s: list[float]   # the same rounds at nominal host speed
    cpu_s: float             # raw, host-speed sampling taken out
    ipc_sent: int
    ipc_received: int

    @property
    def run_s(self) -> float:
        return sum(self.round_s)


def build(workload: Workload, config: FederationConfig):
    # Called through the module so a traced run records fl.build_federation.
    return simulation.build_federation(
        config, make_strategy(workload.strategy), make_scenario(workload.scenario)
    )


def timed_builds(workload: Workload, config: FederationConfig, count: int,
                 speed: HostSpeed | None = None):
    """Build ``count`` federations back to back; returns (last one, (start, end) each)."""
    intervals = []
    for _ in range(count):
        if speed:
            speed.sample()
        start = time.perf_counter()
        server = build(workload, config)
        intervals.append((start, time.perf_counter()))
    return server, intervals


def _children_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


def run_episode(server, rounds: int, speed: HostSpeed | None = None,
                tracer: spans.Tracer | None = None) -> Episode:
    """Run rounds 1..``rounds`` back to back, then release the backend's workers.

    Round times and CPU exclude the host-speed samples, between rounds and
    inside them.
    """
    history = History(server.strategy.name, server.scenario_name)
    intervals, cpu_s = [], 0.0
    root = tracer.span(spans.EPISODE_SPAN) if tracer else contextlib.nullcontext()
    reaped = _children_cpu_s()
    try:
        with root:
            for round_idx in range(1, rounds + 1):
                if speed:
                    speed.sample()
                cpu, start = time.process_time(), time.perf_counter()
                history.append(server.run_round(round_idx))
                intervals.append((start, time.perf_counter()))
                cpu_s += time.process_time() - cpu
        if speed:
            speed.sample()
        ipc = server.backend.ipc_stats
    finally:
        server.backend.close()  # joins pool workers, so their CPU is reaped
    cpu_s += _children_cpu_s() - reaped
    measured = [speed.measure(*i) if speed else (i[1] - i[0],) * 2 + (0.0,) for i in intervals]
    raw, nominal, sampling = zip(*measured)
    return Episode(history, list(raw), list(nominal), cpu_s - sum(sampling),
                   ipc.bytes_sent, ipc.bytes_received)


def _time_to_acc(history: History, round_s: list[float], target: float | None) -> float | None:
    if target is None:
        return None
    elapsed = 0.0
    for record, seconds in zip(history.rounds, round_s):
        elapsed += seconds
        if record.accuracy >= target:
            return elapsed
    return None


def _times(setup_s: list[float], episodes: list[Episode], nominal: bool,
           target: float | None) -> dict:
    """The run's time metrics, raw or at nominal host speed."""
    rounds = [e.nominal_s if nominal else e.round_s for e in episodes]
    pooled = [s for r in rounds for s in r]
    to_acc = [_time_to_acc(e.history, r, target) for e, r in zip(episodes, rounds)]
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(sum(r) for r in rounds),
        "round_s_p50": statistics.median(pooled),
        # CPU scales with the episode's own nominal-to-raw time ratio.
        "cpu_s": statistics.median(e.cpu_s * sum(r) / e.run_s for e, r in zip(episodes, rounds)),
        "round_s_tail": tail(pooled),
        "time_to_acc_s": None if None in to_acc else statistics.median(to_acc),
    }


def _outcomes(episodes: list[Episode]) -> dict:
    """Attempt, failure and detection counts over every episode's rounds."""
    records = [r for e in episodes for r in e.history.rounds]
    malicious = sum(r.malicious_sampled for r in records)
    benign = sum(len(r.sampled_ids) - r.malicious_sampled for r in records)
    benign_rejected = sum(
        len(r.rejected_ids) - (r.malicious_sampled - r.malicious_accepted) for r in records
    )
    failed = sum(
        r.broadcasts_dropped + r.submits_dropped
        + r.metrics.get("stragglers_dropped", 0) + r.metrics.get("stale_dropped", 0)
        for r in records
    )
    return {
        "attempted": sum(len(r.selected_ids) for r in records),
        "failed": failed,
        "malicious_accept_rate": (
            sum(r.malicious_accepted for r in records) / malicious if malicious else None
        ),
        "benign_reject_rate": benign_rejected / benign if benign else None,
        "wire_mb_per_round": statistics.fmean(
            (r.upload_nbytes + r.download_nbytes) / spans.MB for r in records
        ),
    }


def _episode_checks(episodes: list[Episode], config: FederationConfig) -> list[str]:
    failures = []
    for i, episode in enumerate(episodes):
        accuracies = episode.history.accuracies
        if len(accuracies) != config.rounds:
            failures.append(f"episode {i}: {len(accuracies)} rounds, expected {config.rounds}")
        if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accuracies):
            failures.append(f"episode {i}: accuracy outside [0, 1]: {accuracies.tolist()}")
    digests = {history_digest(e.history) for e in episodes}
    if len(digests) > 1:
        failures.append(f"episodes of one seed diverged: {sorted(digests)}")
    return failures


# -- the run ---------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    config = workload.config(seed, smoke)
    target = None if smoke else workload.acc_target

    speed = HostSpeed()
    with speed.installed():
        server, builds = timed_builds(workload, config, SETUP_BUILDS, speed)
        episodes = []
        started = time.perf_counter()
        while True:
            episodes.append(run_episode(server, config.rounds, speed))
            if len(episodes) >= MIN_EPISODES and \
                    time.perf_counter() - started + episodes[-1].run_s > seconds:
                break
            server, more = timed_builds(workload, config, 1, speed)
            builds += more
    rss_mb = peak_rss_mb()

    outcomes = _outcomes(episodes)
    setup = [speed.measure(*interval) for interval in builds]
    raw = _times([s[0] for s in setup], episodes, False, target)
    scaled = _times([s[1] for s in setup], episodes, True, target)
    e2e = {
        "setup_s": scaled["setup_s"],
        "run_s": scaled["run_s"],
        "cpu_s": scaled["cpu_s"],
        "peak_rss_mb": rss_mb,
        "wire_mb_per_round": outcomes["wire_mb_per_round"],
    }
    checks = _episode_checks(episodes, config)
    if outcomes["failed"]:
        checks.append(f"{outcomes['failed']} failed deliveries on a lossless workload")
    if target is not None and raw["time_to_acc_s"] is None:
        checks.append(f"accuracy never reached {target}")
    digest = history_digest(episodes[0].history)
    pooled = [s for e in episodes for s in e.round_s]
    result = {
        "workload": name,
        "seed": seed,
        "episodes": len(episodes),
        "rounds": len(pooled),
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "digest": digest,
        "e2e": e2e,
        "reported": {
            "round_s_p50": scaled["round_s_p50"],
            "round_s_tail": scaled["round_s_tail"],
            "time_to_acc_s": scaled["time_to_acc_s"],
            "acc_target": target,
            "final_acc": float(episodes[0].history.accuracies[-1]),
            "malicious_accept_rate": outcomes["malicious_accept_rate"],
            "benign_reject_rate": outcomes["benign_reject_rate"],
            "failed_share": outcomes["failed"] / outcomes["attempted"],
        },
        "raw_seconds": raw,
        "raw_round_s": pooled,
        "host_kernel_s": speed.median_kernel_s,
        "numpy": np.__version__,
        "checks": checks,
    }
    if trace:
        result["layers"], result["fired"] = _traced(workload, config, raw["run_s"], digest,
                                                    checks, f"{name}-seed{seed}")
    return result


def _traced(workload: Workload, config: FederationConfig, untraced_run_s: float,
            digest: str, checks: list[str], stem: str):
    tracer = spans.Tracer()
    with tracer.installed():
        server, _ = timed_builds(workload, config, SETUP_BUILDS)
        episode = run_episode(server, config.rounds, tracer=tracer)
    if history_digest(episode.history) != digest:
        checks.append("the traced episode's history differs from the untraced one")
    cvae_clients = (
        len({cid for r in episode.history.rounds for cid in r.selected_ids})
        if workload.strategy == "fedguard" else 0
    )
    layers = spans.layer_metrics(
        tracer, builds=SETUP_BUILDS, run_s=episode.run_s, untraced_run_s=untraced_run_s,
        workers=config.backend_workers or 1, ipc_sent=episode.ipc_sent,
        ipc_received=episode.ipc_received, cvae_clients=cvae_clients,
    )
    fired = {name: tracer.calls[name] for name in spans.SPAN_NAMES}
    silent = sorted(n for n, calls in fired.items() if not calls and n not in workload.bypasses)
    if silent:
        checks.append(f"declared spans never fired: {silent}")
    if "client.train_cvae" not in workload.bypasses and \
            layers["client.cvae_trainings_per_client"] != 1.0:
        checks.append("a client trained its CVAE more than once")
    tracer.write_chrome_trace(TRACE_DIR / f"{stem}.json")
    return layers, fired


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    # The process pool's shared-memory segments start multiprocessing's
    # resource tracker; stop it and wait for it, so no process outlives
    # this one. ``_stop`` is a no-op when the tracker never started.
    resource_tracker._resource_tracker._stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
