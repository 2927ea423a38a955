"""Runtime shape/dtype contracts for hot-path tensor code.

Two decorator families:

* :func:`array_contract` — per-argument shape/dtype preconditions for the
  pure functions in :mod:`repro.nn.functional`. A violation raises
  :class:`ContractViolation` naming the argument and the offending
  shape/dtype instead of letting a bad tensor propagate NaNs through the
  federation.
* :func:`aggregate_contract` — the aggregation-operator contract for
  ``defenses/*.aggregate``: updates are non-empty and dimensionally
  consistent with the global weights, the aggregator must **not** mutate
  any client update or the global weight vector in place, and the result
  must have the global shape (and be finite whenever the inputs were).

Both are **zero-overhead no-ops by default**: the environment variable
``REPRO_CHECK_CONTRACTS`` is consulted at decoration (import) time and,
when unset, the decorators return the original function object untouched —
no wrapper frame, no signature binding, nothing on the hot path. Set
``REPRO_CHECK_CONTRACTS=1`` before importing :mod:`repro` to activate the
checks (the CI analysis gate and the contract tests do).

:func:`verify_aggregate` exposes the aggregate contract as a plain
function that *always* checks, independent of the environment — it is what
``python -m repro.analysis`` uses to dynamically audit every registered
defense, and what tests call directly.

A third family is the runtime shape oracle: :func:`client_batched`
declares that a function preserves the leading (client/batch) axis of its
array inputs. The decorator is a zero-overhead no-op unless
``REPRO_RECORD_SHAPES=1`` is set before import, in which case every call
records observed input/output shapes and dtypes; :func:`shape_oracle_report`
then checks two invariants (leading axis preserved, no silent float
widening) against those observations from a real federation.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "array_contract",
    "aggregate_contract",
    "verify_aggregate",
    "client_batched",
    "record_shapes",
    "shape_recording_enabled",
    "shape_observations",
    "clear_shape_observations",
    "shape_oracle_report",
    "ScheduleAdversary",
    "schedule_checks_enabled",
    "schedule_adversary",
    "enable_schedule_adversary",
    "disable_schedule_adversary",
    "schedule_sanitizer_report",
]

_TRUTHY = {"1", "true", "yes", "on"}


def contracts_enabled() -> bool:
    """Whether ``REPRO_CHECK_CONTRACTS`` requests runtime contract checks."""
    return os.environ.get("REPRO_CHECK_CONTRACTS", "").strip().lower() in _TRUTHY


def shape_recording_enabled() -> bool:
    """Whether ``REPRO_RECORD_SHAPES`` requests the runtime shape oracle."""
    return os.environ.get("REPRO_RECORD_SHAPES", "").strip().lower() in _TRUTHY


def schedule_checks_enabled() -> bool:
    """Whether ``REPRO_CHECK_SCHEDULES`` requests the schedule sanitizer."""
    return os.environ.get("REPRO_CHECK_SCHEDULES", "").strip().lower() in _TRUTHY


class ContractViolation(TypeError):
    """A runtime shape/dtype/aliasing contract was broken."""


# ---------------------------------------------------------------------------
# array_contract: per-argument tensor preconditions
# ---------------------------------------------------------------------------

_DTYPE_KINDS = {
    "floating": "f",
    "integer": "iu",
    "numeric": "fiu",
    "bool": "b",
}


def _check_one(func_name: str, arg_name: str, value, spec: dict) -> None:
    arr = np.asarray(value)
    ndim = spec.get("ndim")
    if ndim is not None:
        allowed = (ndim,) if isinstance(ndim, int) else tuple(ndim)
        if arr.ndim not in allowed:
            raise ContractViolation(
                f"{func_name}: argument {arg_name!r} must have ndim in "
                f"{allowed}, got shape {arr.shape} (ndim={arr.ndim})"
            )
    min_ndim = spec.get("min_ndim")
    if min_ndim is not None and arr.ndim < min_ndim:
        raise ContractViolation(
            f"{func_name}: argument {arg_name!r} must have ndim >= {min_ndim}, "
            f"got shape {arr.shape} (ndim={arr.ndim})"
        )
    dtype = spec.get("dtype")
    if dtype is not None:
        kinds = _DTYPE_KINDS.get(dtype, dtype)
        if arr.dtype.kind not in kinds:
            raise ContractViolation(
                f"{func_name}: argument {arg_name!r} must have dtype kind in "
                f"{kinds!r} ({dtype}), got dtype {arr.dtype}"
            )


def array_contract(*, force: bool = False, **arg_specs: dict) -> Callable:
    """Attach shape/dtype preconditions to named array arguments.

    Each keyword maps an argument name to a spec dict with any of:
    ``ndim`` (int or tuple of ints), ``min_ndim`` (int), ``dtype``
    (``"floating"``, ``"integer"``, ``"numeric"``, ``"bool"`` or a string
    of ``np.dtype.kind`` characters).

    Returns the function unchanged unless contracts are enabled (or
    ``force=True``, used by tests).
    """

    def decorate(func: Callable) -> Callable:
        if not (force or contracts_enabled()):
            return func
        sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for arg_name, spec in arg_specs.items():
                if arg_name in bound.arguments:
                    _check_one(func.__name__, arg_name, bound.arguments[arg_name], spec)
            return func(*args, **kwargs)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# aggregate_contract: the defense-aggregator contract
# ---------------------------------------------------------------------------


def _pre_checks(strategy_name: str, updates, global_weights) -> bool:
    """Validate inputs; returns True when every input vector is finite."""
    gw = global_weights
    if not isinstance(gw, np.ndarray) or gw.ndim != 1:
        raise ContractViolation(
            f"{strategy_name}.aggregate: global_weights must be a 1-D ndarray, "
            f"got {type(gw).__name__} with shape {getattr(gw, 'shape', None)}"
        )
    if gw.dtype.kind != "f":
        raise ContractViolation(
            f"{strategy_name}.aggregate: global_weights must be floating, "
            f"got dtype {gw.dtype}"
        )
    # An empty update list is left to the strategy itself: several defenses
    # raise their own, more specific error (e.g. "setup() not called") and
    # the contract must not mask it with a different exception type.
    finite = bool(np.all(np.isfinite(gw)))
    for u in updates:
        w = u.weights
        if w.shape != gw.shape:
            raise ContractViolation(
                f"{strategy_name}.aggregate: client {u.client_id} update has "
                f"shape {w.shape}, expected {gw.shape}"
            )
        if w.dtype.kind != "f":
            raise ContractViolation(
                f"{strategy_name}.aggregate: client {u.client_id} update has "
                f"dtype {w.dtype}, expected floating"
            )
        finite = finite and bool(np.all(np.isfinite(w)))
    return finite


def _post_checks(
    strategy_name: str,
    result,
    updates,
    global_weights,
    gw_snapshot: np.ndarray,
    update_snapshots: list[np.ndarray],
    decoder_snapshots: list[np.ndarray | None],
    inputs_finite: bool,
):
    if not np.array_equal(global_weights, gw_snapshot):
        raise ContractViolation(
            f"{strategy_name}.aggregate mutated global_weights in place"
        )
    for u, w_snap, d_snap in zip(updates, update_snapshots, decoder_snapshots):
        if not np.array_equal(u.weights, w_snap):
            raise ContractViolation(
                f"{strategy_name}.aggregate mutated the update of client "
                f"{u.client_id} in place"
            )
        if d_snap is not None and not np.array_equal(u.decoder_weights, d_snap):
            raise ContractViolation(
                f"{strategy_name}.aggregate mutated the decoder weights of "
                f"client {u.client_id} in place"
            )
    weights = getattr(result, "weights", None)
    if not isinstance(weights, np.ndarray) or weights.shape != global_weights.shape:
        raise ContractViolation(
            f"{strategy_name}.aggregate returned weights of shape "
            f"{getattr(weights, 'shape', None)}, expected {global_weights.shape}"
        )
    if weights.dtype.kind != "f":
        raise ContractViolation(
            f"{strategy_name}.aggregate returned dtype {weights.dtype}, "
            f"expected floating"
        )
    if inputs_finite and not np.all(np.isfinite(weights)):
        bad = int(np.count_nonzero(~np.isfinite(weights)))
        raise ContractViolation(
            f"{strategy_name}.aggregate returned {bad} non-finite coordinates "
            f"from finite inputs"
        )
    return result


def _checked_call(call: Callable, strategy_name: str, updates, global_weights):
    inputs_finite = _pre_checks(strategy_name, updates, global_weights)
    gw_snapshot = global_weights.copy()
    update_snapshots = [u.weights.copy() for u in updates]
    decoder_snapshots = [
        None if u.decoder_weights is None else u.decoder_weights.copy()
        for u in updates
    ]
    result = call()
    return _post_checks(
        strategy_name,
        result,
        updates,
        global_weights,
        gw_snapshot,
        update_snapshots,
        decoder_snapshots,
        inputs_finite,
    )


def aggregate_contract(method: Callable) -> Callable:
    """Wrap a ``Strategy.aggregate`` method with the aggregation contract.

    No-op (returns ``method`` unchanged) unless contracts are enabled at
    import time via ``REPRO_CHECK_CONTRACTS=1``.
    """
    if not contracts_enabled():
        return method

    @functools.wraps(method)
    def wrapper(self, round_idx, updates, global_weights, context):
        return _checked_call(
            lambda: method(self, round_idx, updates, global_weights, context),
            type(self).__name__,
            updates,
            global_weights,
        )

    return wrapper


def verify_aggregate(strategy, round_idx, updates, global_weights, context):
    """Run ``strategy.aggregate`` under the full contract, unconditionally.

    Used by the ``python -m repro.analysis`` contracts pass and by tests;
    works whether or not ``REPRO_CHECK_CONTRACTS`` is set.
    """
    return _checked_call(
        lambda: strategy.aggregate(round_idx, updates, global_weights, context),
        type(strategy).__name__,
        updates,
        global_weights,
    )


# ---------------------------------------------------------------------------
# client_batched: leading-axis declaration + runtime shape oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeObservation:
    """One recorded call of a ``@client_batched`` function."""

    qualname: str
    arg_shapes: tuple  # shapes of the ndarray positional args, in order
    arg_dtypes: tuple  # matching dtype names
    out_shape: tuple | None  # None when the result is not an ndarray
    out_dtype: str | None


_SHAPE_LOG: list[ShapeObservation] = []


def record_shapes(func: Callable) -> Callable:
    """Wrap ``func`` to record observed array shapes/dtypes on every call.

    This is the always-on recorder behind :func:`client_batched`; tests
    use it directly so recording can be exercised without re-importing
    the package under ``REPRO_RECORD_SHAPES=1``.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        result = func(*args, **kwargs)
        out = result if isinstance(result, np.ndarray) else None
        _SHAPE_LOG.append(
            ShapeObservation(
                qualname=func.__qualname__,
                arg_shapes=tuple(a.shape for a in arrays),
                arg_dtypes=tuple(str(a.dtype) for a in arrays),
                out_shape=None if out is None else out.shape,
                out_dtype=None if out is None else str(out.dtype),
            )
        )
        return result

    wrapper.__repro_client_batched__ = True
    return wrapper


def client_batched(func: Callable) -> Callable:
    """Declare that ``func`` preserves the leading axis of its array inputs.

    This is the original function object untouched (zero overhead) unless
    ``REPRO_RECORD_SHAPES=1`` was set at import time, in which case calls
    are recorded for :func:`shape_oracle_report`.
    """
    func.__repro_client_batched__ = True
    if not shape_recording_enabled():
        return func
    return record_shapes(func)


def shape_observations() -> list[ShapeObservation]:
    """All observations recorded so far (order of execution)."""
    return list(_SHAPE_LOG)


def clear_shape_observations() -> None:
    _SHAPE_LOG.clear()


def shape_oracle_report() -> dict:
    """Check recorded calls against the ``@client_batched`` invariants.

    Every annotated function promises two things: the leading axis of
    its first array input survives to the output, and float32 inputs are
    not silently widened to float64.  This report checks both promises
    against the recorded calls; a non-empty ``disagreements`` list means
    an annotated function breaks its declaration.
    """
    disagreements: list[str] = []
    call_sites: set[str] = set()
    for obs in _SHAPE_LOG:
        call_sites.add(obs.qualname)
        if obs.out_shape is None or not obs.arg_shapes:
            continue
        first = obs.arg_shapes[0]
        if first and obs.out_shape and obs.out_shape[0] != first[0]:
            disagreements.append(
                f"{obs.qualname}: leading axis {first[0]} of input shape "
                f"{first} not preserved in output shape {obs.out_shape}"
            )
        float_inputs = [d for d in obs.arg_dtypes if d.startswith("float")]
        if (
            float_inputs
            and all(d == "float32" for d in float_inputs)
            and obs.out_dtype == "float64"
        ):
            disagreements.append(
                f"{obs.qualname}: float32 inputs silently widened to "
                f"float64 output"
            )
    return {
        "observations": len(_SHAPE_LOG),
        "call_sites": sorted(call_sites),
        "disagreements": disagreements,
    }


# ---------------------------------------------------------------------------
# schedule sanitizer: the dynamic oracle behind the RG300 static rules
# ---------------------------------------------------------------------------


class ScheduleAdversary:
    """Seeded, semantics-preserving schedule perturber.

    Every perturbation it offers is a no-op *if and only if* the code
    under test keeps its determinism contracts:

    * :meth:`shuffle_heap` randomizes a heap's internal array layout and
      re-heapifies. With total-order entry keys (the RG305 contract —
      unique ``seq`` at index 1) the pop sequence is invariant; an entry
      relying on insertion order or payload identity diverges.
    * :meth:`permutation` reorders worker result collection. Because the
      process pool reassembles results in canonical client order
      (``packed_by_id``), history bytes must not move; a backend that
      leaked arrival order into aggregation would.

    Draws come from a dedicated :class:`random.Random` so the adversary
    never touches any federation RNG stream.
    """

    def __init__(self, seed: int = 0) -> None:
        import random

        self.seed = seed
        self._rand = random.Random(seed)

    def shuffle_heap(self, heap: list) -> None:
        """Adversarially rearrange a live heap without changing its keys."""
        import heapq

        self._rand.shuffle(heap)
        heapq.heapify(heap)

    def permutation(self, n: int) -> list[int]:
        """A random permutation of ``range(n)`` (collection order)."""
        order = list(range(n))
        self._rand.shuffle(order)
        return order


# Resolved once at import: unset env means the hooks in fl/modes.py and
# fl/parallel.py see None and cost one attribute check — nothing else —
# on the hot path (the same zero-overhead discipline as the other gates).
_SCHEDULE_ADVERSARY: ScheduleAdversary | None = (
    ScheduleAdversary(int(os.environ.get("REPRO_SCHEDULE_SEED", "0") or 0))
    if schedule_checks_enabled()
    else None
)


def schedule_adversary() -> ScheduleAdversary | None:
    """The active adversary, or None when schedule checks are off."""
    return _SCHEDULE_ADVERSARY


def enable_schedule_adversary(seed: int = 0) -> ScheduleAdversary:
    """Activate an adversary regardless of the environment (tests/harness)."""
    global _SCHEDULE_ADVERSARY
    _SCHEDULE_ADVERSARY = ScheduleAdversary(seed)
    return _SCHEDULE_ADVERSARY


def disable_schedule_adversary() -> None:
    global _SCHEDULE_ADVERSARY
    _SCHEDULE_ADVERSARY = None


def _normalized_history_bytes(history) -> bytes:
    """History serialized with every wall-clock field stripped.

    Mirrors the property-suite normalization: simulated ``duration_s``
    stays comparable, but host-measured ``*_s`` metrics are noise.
    """
    import json

    from repro.experiments.storage import history_to_dict

    data = history_to_dict(history)
    for record in data["rounds"]:
        record.pop("duration_s", None)
        record["metrics"] = {
            k: v for k, v in record["metrics"].items() if not k.endswith("_s")
        }
    return json.dumps(data, sort_keys=True, default=float).encode()


def _sanitizer_config(mode: str, seed: int):
    from repro.config import FederationConfig

    if mode == "async":
        # Latency channel so arrivals genuinely interleave; small buffer
        # so multiple flush windows exercise the in-flight machinery.
        return FederationConfig.tiny(
            seed=seed, server_mode="async", buffer_size=4, rounds=2,
            channel="latency", channel_latency_base_s=0.05,
            channel_latency_spread=0.6,
        )
    return FederationConfig.tiny(seed=seed, rounds=2)


def _run_schedule_cell(config, workers: int,
                       adversary_seed: int | None) -> bytes:
    """One federation under one adversary schedule — sequential when
    ``workers`` is 0, else on a resident pool of that many workers;
    returns normalized history bytes. The previous adversary is always
    restored."""
    from repro.experiments.scenarios import make_scenario, make_strategy
    from repro.fl import build_federation
    from repro.fl.parallel import ProcessPoolBackend

    global _SCHEDULE_ADVERSARY
    previous = _SCHEDULE_ADVERSARY
    if adversary_seed is None:
        _SCHEDULE_ADVERSARY = None
    else:
        _SCHEDULE_ADVERSARY = ScheduleAdversary(adversary_seed)
    try:
        strategy = make_strategy("fedavg")
        scenario = make_scenario("label_flipping_30")
        if not workers:
            history = build_federation(config, strategy, scenario).run()
        else:
            with ProcessPoolBackend(max_workers=workers) as backend:
                server = build_federation(
                    config, strategy, scenario, backend=backend
                )
                history = server.run()
    finally:
        _SCHEDULE_ADVERSARY = previous
    return _normalized_history_bytes(history)


def schedule_sanitizer_report(
    modes: tuple = ("sync", "async"),
    schedules: int = 3,
    seed: int = 7,
) -> dict:
    """Re-run a smoke federation under adversarial schedules; compare bytes.

    For each server mode, an unperturbed sequential run fixes the
    reference history. Every schedule cell then re-runs the same
    federation on the resident process pool under a distinct adversary
    seed — shuffled heap layouts, permuted worker-result collection — and
    a varied worker count (1..3, permuting sticky client placement). Any
    cell whose normalized history bytes differ from the reference lands in
    ``divergences``; CI fails on a non-empty list. Like
    :func:`verify_aggregate`, this harness always checks, independent of
    ``REPRO_CHECK_SCHEDULES`` (the env var arms the hooks for *ordinary*
    runs; the harness arms them itself per cell).
    """
    report: dict = {"runs": 0, "cells": [], "divergences": []}
    for mode in modes:
        config = _sanitizer_config(mode, seed)
        reference = _run_schedule_cell(config, 0, None)
        for schedule in range(schedules):
            workers = (schedule % 3) + 1
            cell = f"{mode}/process/w{workers}/schedule{schedule}"
            got = _run_schedule_cell(config, workers, adversary_seed=schedule)
            report["runs"] += 1
            report["cells"].append(cell)
            if got != reference:
                report["divergences"].append(cell)
    return report
