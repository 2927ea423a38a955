"""Module and Parameter abstractions for the NumPy neural-net framework.

The framework uses explicit layer-wise backpropagation rather than a taped
autograd: each :class:`Module` implements ``forward`` (caching whatever it
needs) and ``backward`` (receiving the gradient of the loss with respect to
its output and returning the gradient with respect to its input, while
accumulating parameter gradients in-place). Models whose input is data
(the classifiers, the CVAE encoder) return nothing: their input layer
skips the input gradient nobody reads.

This design keeps the hot paths as plain vectorized NumPy with no graph
bookkeeping overhead, which is what the federated simulation needs — tens of
thousands of small training steps across many simulated clients.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "flat_run"]


class Parameter:
    """A trainable tensor together with its gradient accumulator.

    Attributes
    ----------
    data:
        The parameter values. The first optimizer built over it rebinds
        it to a view into a flat value buffer, and every optimizer updates
        it in place (:mod:`repro.nn.optim`); hold ``param.data``, not an
        array read from it before the first optimizer was built.
    grad:
        Gradient accumulator with the same shape as ``data``. Zeroed by
        :meth:`Module.zero_grad` and filled during ``backward``; rebound
        to a view into a flat gradient buffer like ``data``.
    name:
        Dotted path assigned when the parameter is registered in a module
        tree; useful for debugging and state dicts.
    run:
        ``None``, or where the optimizer that rebound ``data`` and ``grad``
        placed them: ``(flat_data, flat_grad, offset, data, grad)``, the
        last two being the views it installed. :func:`flat_run` trusts the
        record only while the parameter still holds those views.
    """

    __slots__ = ("data", "grad", "name", "run")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.run = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


def flat_run(params: list[Parameter]) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(data, grad)`` spans of one flat buffer pair that ``params`` tile.

    ``params`` tile a span when each still holds the views an optimizer
    installed (:attr:`Parameter.run`), all in one buffer pair, at
    consecutive offsets in list order. Otherwise, as before any optimizer,
    after a rebinding (``stack_parameters``, a pickled copy) or for a list
    in another order, the result is ``None``.
    """
    first = params[0].run if params else None
    if first is None:
        return None
    flat_data, flat_grad, start, _, _ = first
    end = start
    for p in params:
        if p.run is None:
            return None
        run_data, _, offset, data, grad = p.run
        if (
            run_data is not flat_data or offset != end
            or p.data is not data or p.grad is not grad
            or data.base is not flat_data  # a copied model copies its views apart
        ):
            return None
        end += data.size
    return flat_data[start:end], flat_grad[start:end]


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__`` so that
    :meth:`parameters` and :meth:`state_dict` traverse the whole tree in a
    deterministic (insertion) order. Deterministic ordering matters here:
    the federated layer flattens parameters into a single vector, and every
    client and the server must agree on the layout.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        # Client-batched mode (None = single-model). When set to an integer
        # K, parameter data carries a leading (K, ...) client axis and the
        # shape-dependent layers (Flatten, Dropout, the model-level
        # reshapes) interpret inputs as (K, N, ...) stacks. Installed by
        # ``repro.nn.serialization.stack_parameters``.
        object.__setattr__(self, "client_axis", None)

    # -- registration ----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal --------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            full = f"{prefix}{name}"
            if not param.name:
                param.name = full
            yield full, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children, in stable order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- parameter counting ------------------------------------------------
    def count_parameters(self, include_bias: bool = True) -> int:
        """Total number of scalar parameters.

        ``include_bias=False`` counts only parameters whose registered name
        ends in ``weight`` — the convention the FedGuard paper uses for its
        classifier table (Table II counts weights only, Table III counts
        weights and biases).
        """
        total = 0
        for name, param in self.named_parameters():
            if not include_bias and name.rsplit(".", 1)[-1] != "weight":
                continue
            total += param.size
        return total

    # -- train/eval mode ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. Dropout)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # -- client-batched mode --------------------------------------------------
    def set_client_axis(self, clients: int | None) -> "Module":
        """Mark this module tree as operating on ``clients`` stacked models.

        Layers whose math is driven by parameter shapes (Linear, Conv2d)
        detect batching from the extra weight dimension; layers without
        parameters (Flatten, Dropout) consult this flag instead. ``None``
        restores single-model semantics.
        """
        object.__setattr__(self, "client_axis", clients)
        for child in self._modules.values():
            child.set_client_axis(clients)
        return self

    # -- gradients -----------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero."""
        for param in self.parameters():
            param.zero_grad()

    # -- state dict -----------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter's data, keyed by dotted name."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        """Load parameter values from a mapping produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data[...] = value

    # -- interface ----------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of layers executed in order.

    ``backward`` propagates the output gradient through the layers in
    reverse, which is the whole backpropagation algorithm for a feed-forward
    stack.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for idx, layer in enumerate(layers):
            setattr(self, f"layer{idx}", layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


__all__.append("Sequential")
