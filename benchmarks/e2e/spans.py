"""Span recorder for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` layer from the
outside. Every patch goes on the attribute its call site resolves at call
time — ``repro.nn.functional.col2im`` (``layers.py`` calls ``F.col2im``),
``repro.fl.client.train_cvae`` (a module global of ``client.py``),
``repro.fl.simulation.generate_dataset``, or a class method — so no file
under ``src/`` changes and an untraced run executes no wrapper at all.

A span records its name, start, end, parent span and round id. A span's
self time is its duration minus the time its child spans cover. Spans of
the ``nn.*`` kernels and of the per-client ``client.*`` calls number up to
~10^6 per episode, so they are not kept one by one: each is folded into
its nearest kept ancestor as a ``(calls, self seconds)`` aggregate. Every
other span is kept and written out as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

__all__ = ["Tracer", "SPANS", "SPAN_NAMES", "LAYER_METRICS", "layer_metrics"]

MB = float(1 << 20)

# Span names whose individual spans are folded into their kept ancestor.
FOLDED_PREFIXES = ("nn.", "client.")


def _count_col2im_bytes(tracer, args):
    tracer.counters["nn.col2im.bytes"] += args[0].nbytes


def _count_checkout(tracer, args):
    tracer.counters["population.checkout.clients"] += len(args[1])


def _count_engine_clients(tracer, args):
    tracer.counters["batched.fit_clients.clients"] += len(args[1])


def _count_execute(tracer, args):
    tracer.counters["parallel.execute.clients"] += len(args[1])


def _count_worker_busy(tracer, args, submits):
    tracer.counters["parallel.worker_busy_s"] += sum(s.client_time_s for s in submits)


def _count_synth_lookups(tracer, args, result):
    strategy, updates = args[0], args[1]
    tracer.counters["fedguard.synth_hits"] += strategy.last_cache_hits
    tracer.counters["fedguard.synth_lookups"] += sum(
        u.decoder_weights is not None for u in updates
    )


def _enter_round(tracer, args):
    tracer.round_idx = int(args[2])


# (module, attribute path, span name, before-hook, after-hook). A before
# hook sees the call's positional args; an after hook also sees its result.
SPANS = (
    ("repro.nn.functional", "col2im", "nn.col2im", _count_col2im_bytes, None),
    ("repro.nn.functional", "im2col", "nn.im2col", None, None),
    ("repro.nn.layers", "Conv2d.forward", "nn.Conv2d.forward", None, None),
    ("repro.nn.layers", "Conv2d.backward", "nn.Conv2d.backward", None, None),
    ("repro.nn.layers", "MaxPool2d.forward", "nn.MaxPool2d.forward", None, None),
    ("repro.nn.layers", "MaxPool2d.backward", "nn.MaxPool2d.backward", None, None),
    ("repro.nn.layers", "Linear.forward", "nn.Linear.forward", None, None),
    ("repro.nn.layers", "Linear.backward", "nn.Linear.backward", None, None),
    ("repro.nn.optim", "SGD.step", "nn.SGD.step", None, None),
    ("repro.nn.optim", "Adam.step", "nn.Adam.step", None, None),
    ("repro.nn.losses", "SoftmaxCrossEntropy.forward", "nn.SoftmaxCrossEntropy", None, None),
    ("repro.nn.losses", "SoftmaxCrossEntropy.backward", "nn.SoftmaxCrossEntropy", None, None),
    ("repro.nn.losses", "CVAELoss.forward", "nn.CVAELoss", None, None),
    ("repro.nn.losses", "CVAELoss.backward", "nn.CVAELoss", None, None),
    ("repro.nn", "stack_parameters", "nn.stack_parameters", None, None),
    ("repro.nn", "vector_to_parameters", "nn.vector_to_parameters", None, None),
    ("repro.fl.client", "train_classifier", "client.train_classifier", None, None),
    ("repro.fl.client", "train_cvae", "client.train_cvae", None, None),
    ("repro.fl.client", "FLClient.begin_fit", "client.begin_fit", None, None),
    ("repro.fl.client", "FLClient.finish_fit", "client.finish_fit", None, None),
    ("repro.fl.batched", "LoopEngine.fit_clients", "batched.fit_clients",
     _count_engine_clients, None),
    ("repro.fl.batched", "BatchedEngine.fit_clients", "batched.fit_clients",
     _count_engine_clients, None),
    ("repro.fl.batched", "train_classifiers_batched",
     "batched.train_classifiers_batched", None, None),
    ("repro.fl.parallel", "ExecutionBackend.execute", "parallel.execute",
     _count_execute, _count_worker_busy),
    ("repro.fl.population", "VirtualClientPopulation.checkout", "population.checkout",
     _count_checkout, None),
    ("repro.fl.population", "VirtualClientPopulation.checkin", "population.checkin",
     None, None),
    ("repro.fl.population", "EagerPopulation.checkout", "population.checkout",
     _count_checkout, None),
    ("repro.fl.population", "EagerPopulation.checkin", "population.checkin", None, None),
    ("repro.fl.sampling", "UniformSampler.sample", "sampling.sample", None, None),
    ("repro.fl.sampling", "ReputationSampler.sample", "sampling.sample", None, None),
    ("repro.defenses.fedguard", "FedGuard.aggregate", "defenses.fedguard.aggregate",
     None, None),
    ("repro.defenses.fedguard", "FedGuard.synthesize", "defenses.fedguard.synthesize",
     None, _count_synth_lookups),
    ("repro.defenses.fedavg", "FedAvg.aggregate", "defenses.fedavg.aggregate", None, None),
    # FedGuard binds its inner aggregator at construction, so the tracer
    # must be installed before the strategy is built.
    ("repro.defenses.fedguard", "weighted_average", "strategy.weighted_average",
     None, None),
    ("repro.defenses.fedavg", "weighted_average", "strategy.weighted_average", None, None),
    ("repro.fl.server", "Server.phase_select", "server.select", None, None),
    ("repro.fl.server", "Server.phase_broadcast", "server.broadcast", None, None),
    ("repro.fl.server", "Server.phase_fit", "server.fit", None, None),
    ("repro.fl.server", "Server.phase_collect", "server.collect", None, None),
    ("repro.fl.server", "Server.phase_aggregate", "server.aggregate", None, None),
    ("repro.fl.server", "Server.phase_apply", "server.apply", None, None),
    ("repro.fl.server", "Server.phase_evaluate", "server.evaluate", None, None),
    ("repro.fl.modes", "SyncRoundMode.run_round", "modes.run_round", _enter_round, None),
    ("repro.fl.modes", "AsyncBufferedMode.run_round", "modes.run_round",
     _enter_round, None),
    ("repro.fl.transport", "Channel.broadcast", "transport.broadcast", None, None),
    ("repro.fl.transport", "Channel.collect", "transport.collect", None, None),
    ("repro.fl.simulation", "generate_dataset", "data.generate_dataset", None, None),
    ("repro.fl.simulation", "partition_indices", "data.partition_indices", None, None),
    ("repro.fl.simulation", "build_federation", "fl.build_federation", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in SPANS))

# The root span the benchmark opens around each traced episode; its self
# time is the part of the episode no layer span covers.
EPISODE_SPAN = "bench.episode"


class Tracer:
    """In-memory span recorder; ``installed()`` patches and restores ``SPANS``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.enabled = False
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.events: list[dict] = []
        self.round_idx: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._origin = clock()

    # -- spans ----------------------------------------------------------------
    def _enter(self, name: str) -> list:
        stack = self._stack
        above = stack[-1][3] if stack else None
        if name.startswith(FOLDED_PREFIXES):
            event = None
            anchor = above
        else:
            event = {
                "name": name,
                "id": self._next_id,
                "parent": None if above is None else above["id"],
                "round": self.round_idx,
                "folded": {},
            }
            self._next_id += 1
            anchor = event
        # [name, start, child seconds, nearest kept event, own kept event]
        frame = [name, 0.0, 0.0, anchor, event]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child, anchor, event = frame
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += duration
        if event is not None:
            event["start"] = start
            event["duration"] = duration
            self.events.append(event)
        elif anchor is not None:
            folded = anchor["folded"].setdefault(name, [0, 0.0])
            folded[0] += 1
            folded[1] += own

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own root spans)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording one span per call while the tracer is enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, spans=SPANS):
        """Patch every span site, enable recording, and restore on exit.

        Forked worker processes inherit the patched functions; an
        after-fork hook disables the tracer there, so pool workers run
        untraced and keep no spans.
        """
        originals = []
        try:
            for module_name, path, name, before, after in spans:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, before, after))
            mp_util.register_after_fork(self, Tracer._disable)
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _disable(self) -> None:
        self.enabled = False
        self._stack.clear()

    # -- output -----------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Kept spans as Chrome trace-event JSON (open in Perfetto or chrome://tracing).

        Folded ``nn.*``/``client.*`` spans appear in each event's
        ``args.folded`` as ``{name: [calls, self seconds]}``.
        """
        events = [
            {
                "name": e["name"],
                "ph": "X",
                "ts": (e["start"] - self._origin) * 1e6,
                "dur": e["duration"] * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {
                    "id": e["id"],
                    "parent": e["parent"],
                    "round": e["round"],
                    "folded": e["folded"],
                },
            }
            for e in self.events
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# -- per-layer metrics ---------------------------------------------------------
# (name, unit, better). Names ending .self_s / .total_s / .calls read the
# span of the same stem; the rest are derived in ``layer_metrics``.
LAYER_METRICS = (
    ("nn.col2im.self_s", "s", "lower"),
    ("nn.col2im.calls", "count", "lower"),
    ("nn.col2im.mb", "MB", "lower"),
    ("nn.im2col.self_s", "s", "lower"),
    ("nn.Conv2d.forward.self_s", "s", "lower"),
    ("nn.Conv2d.backward.self_s", "s", "lower"),
    ("nn.MaxPool2d.forward.self_s", "s", "lower"),
    ("nn.MaxPool2d.backward.self_s", "s", "lower"),
    ("nn.Linear.forward.self_s", "s", "lower"),
    ("nn.Linear.backward.self_s", "s", "lower"),
    ("nn.SGD.step.self_s", "s", "lower"),
    ("nn.SoftmaxCrossEntropy.self_s", "s", "lower"),
    ("nn.Adam.step.self_s", "s", "lower"),
    ("nn.CVAELoss.self_s", "s", "lower"),
    ("nn.stack_parameters.self_s", "s", "lower"),
    ("nn.vector_to_parameters.self_s", "s", "lower"),
    ("client.train_cvae.total_s", "s", "lower"),
    ("client.train_cvae.calls", "count", "lower"),
    ("client.cvae_trainings_per_client", "ratio", "lower"),
    ("client.train_classifier.total_s", "s", "lower"),
    ("client.train_classifier.calls", "count", "lower"),
    ("client.begin_fit.self_s", "s", "lower"),
    ("client.finish_fit.self_s", "s", "lower"),
    ("batched.fit_clients.total_s", "s", "lower"),
    ("batched.train_classifiers_batched.calls", "count", "lower"),
    ("batched.clients_per_group", "ratio", "higher"),
    ("parallel.execute.total_s", "s", "lower"),
    ("parallel.execute.calls", "count", "lower"),
    ("parallel.clients_per_execute", "ratio", "higher"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.worker_idle_share", "fraction", "lower"),
    ("parallel.ipc_sent_mb", "MB", "lower"),
    ("parallel.ipc_received_mb", "MB", "lower"),
    ("population.checkout.self_s", "s", "lower"),
    ("population.checkout.clients", "count", "lower"),
    ("population.checkin.self_s", "s", "lower"),
    ("sampling.sample.self_s", "s", "lower"),
    ("defenses.aggregate.total_s", "s", "lower"),
    ("defenses.fedguard.synthesize.total_s", "s", "lower"),
    ("defenses.fedguard.audit_s", "s", "lower"),
    ("defenses.fedguard.synth_cache_hit_share", "fraction", "higher"),
    ("strategy.weighted_average.total_s", "s", "lower"),
    ("server.select.total_s", "s", "lower"),
    ("server.broadcast.total_s", "s", "lower"),
    ("server.fit.total_s", "s", "lower"),
    ("server.collect.total_s", "s", "lower"),
    ("server.aggregate.total_s", "s", "lower"),
    ("server.apply.total_s", "s", "lower"),
    ("server.evaluate.total_s", "s", "lower"),
    ("modes.run_round.self_s", "s", "lower"),
    ("transport.broadcast.self_s", "s", "lower"),
    ("transport.collect.self_s", "s", "lower"),
    ("data.generate_dataset.total_s", "s", "lower"),
    ("data.partition_indices.total_s", "s", "lower"),
    ("fl.build_federation.total_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.attributed_share", "fraction", "higher"),
)

# Spans entered only while building a federation: their metrics are per build.
SETUP_SPANS = ("data.generate_dataset", "data.partition_indices", "fl.build_federation")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, *, builds: int, run_s: float,
                  untraced_run_s: float, workers: int, ipc_sent: int,
                  ipc_received: int, cvae_clients: int) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from one traced episode and its builds.

    Setup spans are averaged per build; everything else covers the single
    traced episode. ``cvae_clients`` is the number of distinct clients that
    were asked for a decoder during it.
    """
    calls, total, own, counters = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    aggregate_s = total["defenses.fedguard.aggregate"] + total["defenses.fedavg.aggregate"]
    audit_s = 0.0
    if calls["defenses.fedguard.aggregate"]:
        audit_s = (total["defenses.fedguard.aggregate"]
                   - total["defenses.fedguard.synthesize"]
                   - total["strategy.weighted_average"])
    passes = calls["client.train_classifier"] + calls["batched.train_classifiers_batched"]
    derived = {
        "nn.col2im.mb": counters["nn.col2im.bytes"] / MB,
        "client.cvae_trainings_per_client": _ratio(calls["client.train_cvae"], cvae_clients),
        "batched.clients_per_group": _ratio(counters["batched.fit_clients.clients"], passes),
        "parallel.clients_per_execute": _ratio(
            counters["parallel.execute.clients"], calls["parallel.execute"]),
        "parallel.worker_busy_s": counters["parallel.worker_busy_s"],
        "parallel.worker_idle_share": 1.0 - _ratio(
            counters["parallel.worker_busy_s"], workers * total["parallel.execute"]),
        "parallel.ipc_sent_mb": ipc_sent / MB,
        "parallel.ipc_received_mb": ipc_received / MB,
        "population.checkout.clients": counters["population.checkout.clients"],
        "defenses.aggregate.total_s": aggregate_s,
        "defenses.fedguard.audit_s": audit_s,
        "defenses.fedguard.synth_cache_hit_share": _ratio(
            counters["fedguard.synth_hits"], counters["fedguard.synth_lookups"]),
        "trace.overhead_share": run_s / untraced_run_s - 1.0,
        "trace.attributed_share": 1.0 - _ratio(own[EPISODE_SPAN], total[EPISODE_SPAN]),
    }
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name in derived:
            out[name] = float(derived[name])
            continue
        stem, kind = name.rsplit(".", 1)
        table = {"self_s": own, "total_s": total, "calls": calls}[kind]
        value = table[stem]
        out[name] = float(value / builds if stem in SETUP_SPANS else value)
    return out
