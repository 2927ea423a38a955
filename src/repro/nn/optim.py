"""Optimizers operating in-place on :class:`repro.nn.module.Parameter` lists.

An optimizer owns its parameters' storage: construction copies every
parameter's ``data`` and ``grad`` into one contiguous float64 buffer each,
in list order, and rebinds ``Parameter.data`` and ``.grad`` to views at
their offsets. ``zero_grad`` is then one ``fill`` and each update rule a
few whole-buffer in-place NumPy operations into preallocated temporaries.
Every element sees the same IEEE operations in the same order as a
per-parameter loop would apply, so how the buffer is split into parameters
does not change a bit of the result.

The views stay valid for as long as nothing rebinds the parameters; code
that installs new arrays (:func:`repro.nn.stack_parameters`) must do so
before the optimizer is built. Parameter lists must not repeat a
parameter, and optimizers sharing a model must hold disjoint lists (the
GAN's generator and discriminator optimizers, for instance).
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: owns the flat ``data``/``grad`` buffers and ``zero_grad``."""

    def __init__(self, params: list[Parameter]) -> None:
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer received the same parameter twice")
        total = sum(p.data.size for p in self.params)
        self._data = np.empty(total, dtype=np.float64)
        self._grad = np.empty(total, dtype=np.float64)
        offset = 0
        for p in self.params:
            end = offset + p.data.size
            data = self._data[offset:end].reshape(p.data.shape)
            grad = self._grad[offset:end].reshape(p.data.shape)
            data[...] = p.data
            grad[...] = p.grad  # a gradient accumulated before construction is kept
            p.data, p.grad = data, grad
            offset = end

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    The paper's clients train with plain SGD; momentum/decay are exposed for
    ablations.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._data) if momentum > 0 else None
        self._tmp = np.empty_like(self._data)

    def step(self) -> None:
        grad = self._grad
        if self.weight_decay > 0.0:
            grad = grad + self.weight_decay * self._data
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
        weight_decay: float = 0.0,
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
        self.weight_decay = weight_decay
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
        if self.weight_decay > 0.0:
            grad = grad + self.weight_decay * self._data
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
