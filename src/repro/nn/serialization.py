"""Flat-vector parameter (de)serialization.

Federated aggregation operates on each client's parameters as a single
contiguous float vector. This module defines the canonical flattening (the
module's deterministic parameter order) plus byte-level accounting used by
the Table V communication-overhead reproduction.

The flattened representation is also what the attacks in
:mod:`repro.attacks` manipulate — e.g. a sign-flipping attack is literally
``vec *= -1`` on this vector.
"""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = [
    "parameters_to_vector",
    "vector_to_parameters",
    "parameter_shapes",
    "vector_nbytes",
    "split_vector",
    "stack_parameters",
    "unstack_parameters",
]

# The paper reports sizes for float32 models (6.65 MB for 1,662,752 params);
# we account transmission at 4 bytes/parameter to match, even though the
# in-memory compute dtype is float64 for numerical robustness.
WIRE_BYTES_PER_PARAM = 4


def parameters_to_vector(model: Module, out: np.ndarray | None = None) -> np.ndarray:
    """Flatten all parameters of ``model`` into one contiguous float64 vector.

    An ``out`` buffer of the right size can be supplied to avoid
    reallocation in hot loops (each federated round flattens every sampled
    client's model).
    """
    params = model.parameters()
    total = sum(p.size for p in params)
    if out is None:
        out = np.empty(total, dtype=np.float64)
    elif out.shape != (total,):
        raise ValueError(f"out buffer has shape {out.shape}, expected ({total},)")
    offset = 0
    for p in params:
        out[offset : offset + p.size] = p.data.ravel()
        offset += p.size
    return out


def vector_to_parameters(vector: np.ndarray, model: Module) -> None:
    """Write a flat vector back into ``model``'s parameters (in-place)."""
    params = model.parameters()
    total = sum(p.size for p in params)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.size != total:
        raise ValueError(
            f"vector has {vector.size} elements but model has {total} parameters"
        )
    offset = 0
    for p in params:
        p.data[...] = vector[offset : offset + p.size].reshape(p.data.shape)
        offset += p.size
    # Invalidate any optimizer state implicitly: callers re-create optimizers
    # per round, mirroring how FL frameworks reload global weights.


def stack_parameters(matrix: np.ndarray, model: Module) -> None:
    """Install K flat parameter vectors as a leading client axis on ``model``.

    ``matrix`` has shape ``(K, P)`` where ``P`` is the model's flattened
    parameter count. Every parameter's ``data`` becomes a ``(K, *shape)``
    stack whose slice ``data[j]`` is bit-identical to what
    :func:`vector_to_parameters` would have written from ``matrix[j]``;
    ``grad`` is re-allocated to match. The model is switched into
    client-batched mode (see :meth:`Module.set_client_axis`) and can be
    re-stacked with a different K at any time.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (K, P) matrix, got shape {matrix.shape}")
    clients = matrix.shape[0]
    if clients == 0:
        raise ValueError("cannot stack zero client vectors")
    params = model.parameters()
    stacked_already = model.client_axis is not None
    shapes = [p.data.shape[1:] if stacked_already else p.data.shape for p in params]
    total = sum(int(np.prod(s)) for s in shapes)
    if matrix.shape[1] != total:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but model has {total} parameters"
        )
    offset = 0
    for p, shape in zip(params, shapes):
        size = int(np.prod(shape))
        block = np.ascontiguousarray(matrix[:, offset : offset + size])
        p.data = block.reshape((clients,) + shape)
        p.grad = np.zeros_like(p.data)
        offset += size
    model.set_client_axis(clients)


def unstack_parameters(model: Module) -> np.ndarray:
    """Flatten a client-batched model back into a ``(K, P)`` matrix.

    Row ``j`` is bit-identical to the vector :func:`parameters_to_vector`
    would produce from client ``j``'s unstacked model.
    """
    clients = model.client_axis
    if clients is None:
        raise ValueError("model has no client axis; use parameters_to_vector")
    params = model.parameters()
    total = sum(p.data[0].size for p in params)
    out = np.empty((clients, total), dtype=np.float64)
    offset = 0
    for p in params:
        size = p.data[0].size
        out[:, offset : offset + size] = p.data.reshape(clients, size)
        offset += size
    return out


def parameter_shapes(model: Module) -> list[tuple[int, ...]]:
    """Shapes of the model's parameters in canonical flattening order."""
    return [p.data.shape for p in model.parameters()]


def vector_nbytes(model_or_size: Module | int) -> int:
    """Wire size in bytes of a model's flattened parameters (float32 wire format).

    This is the wire format's definition site; everywhere else byte
    accounting goes through :mod:`repro.fl.transport` (lint rule RG006).
    """
    if isinstance(model_or_size, Module):
        size = sum(p.size for p in model_or_size.parameters())
    else:
        size = int(model_or_size)
    return size * WIRE_BYTES_PER_PARAM  # repro: noqa[RG006] — definition site


def split_vector(vector: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Split a flat vector into arrays of the given shapes (views where possible)."""
    sizes = [int(np.prod(s)) for s in shapes]
    if sum(sizes) != vector.size:
        raise ValueError(f"vector size {vector.size} != sum of shape sizes {sum(sizes)}")
    out = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return out
