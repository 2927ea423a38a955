"""Optimizers operating in-place on :class:`repro.nn.module.Parameter` lists.

An optimizer steps its parameters' storage as one flat run: one
contiguous float64 buffer of values and one of gradients, in list order.
If the parameters already tile one span of such buffers, in order (the
next fit of the same model, or a sub-model such as a CVAE's encoder), the
optimizer adopts that span: no copy, no rebinding. Otherwise it copies
every parameter's ``data`` and ``grad`` into new buffers and rebinds
``Parameter.data`` and ``.grad`` to views at their offsets, recording
each in ``Parameter.run``. ``zero_grad`` is then one ``fill`` and each
update rule a few whole-buffer in-place NumPy operations into
preallocated temporaries. Every element sees the same IEEE operations in
the same order as a per-parameter loop would apply, so how the buffer is
split into parameters does not change a bit of the result.

The views stay valid for as long as nothing rebinds the parameters; code
that installs new arrays (:func:`repro.nn.stack_parameters`) must do so
before the optimizer is built. Parameter lists must not repeat a
parameter. Optimizers that adopt overlapping spans step the same memory;
optimizers meant to train one model side by side hold disjoint lists (the
GAN's generator and discriminator optimizers, for instance).
"""

from __future__ import annotations

import numpy as np

from .module import Parameter, flat_run

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: holds the flat ``data``/``grad`` run and ``zero_grad``."""

    def __init__(self, params: list[Parameter]) -> None:
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer received the same parameter twice")
        run = flat_run(self.params)
        if run is None:
            run = _consolidate(self.params)
        self._data, self._grad = run

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        raise NotImplementedError


def _consolidate(params: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Copy ``params`` into new flat buffers and rebind them to views there."""
    total = sum(p.data.size for p in params)
    flat_data = np.empty(total, dtype=np.float64)
    flat_grad = np.empty(total, dtype=np.float64)
    offset = 0
    for p in params:
        end = offset + p.data.size
        data = flat_data[offset:end].reshape(p.data.shape)
        grad = flat_grad[offset:end].reshape(p.data.shape)
        data[...] = p.data
        grad[...] = p.grad  # a gradient accumulated before construction is kept
        p.data, p.grad = data, grad
        p.run = (flat_data, flat_grad, offset, data, grad)
        offset = end
    return flat_data, flat_grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    The paper's clients train with plain SGD; momentum is exposed for
    ablations.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = np.zeros_like(self._data) if momentum > 0 else None
        self._tmp = np.empty_like(self._data)

    def step(self) -> None:
        grad = self._grad
        v = self._velocity
        if v is not None:
            v *= self.momentum
            v += grad
            grad = v
        self._data -= np.multiply(self.lr, grad, out=self._tmp)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015). Used for CVAE training, where plain SGD on
    the ELBO converges noticeably slower."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._tmp = np.empty_like(self._data)
        self._denom = np.empty_like(self._data)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias_c1 = 1.0 - self.beta1**self._t
        bias_c2 = 1.0 - self.beta2**self._t
        m, v, tmp, denom = self._m, self._v, self._tmp, self._denom
        grad = self._grad
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=tmp)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)  # ((1 - b2) * g) * g
        np.divide(m, bias_c1, out=tmp)  # m_hat
        np.multiply(self.lr, tmp, out=tmp)  # lr * m_hat
        np.divide(v, bias_c2, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.eps
        tmp /= denom
        self._data -= tmp
