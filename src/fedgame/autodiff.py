"""Minimal reverse-mode automatic differentiation over numpy arrays.

A micrograd-style tape where each node holds an ndarray instead of a
scalar, so small networks stay fast without an external ML framework.
Only the primitives the forecaster needs are implemented.  All arrays
are float64.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)); the overflow branch saturates to the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation graph."""

    __slots__ = ("data", "grad", "_backward", "_prev")

    def __init__(self, data, _prev: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self._backward = None
        self._prev = _prev

    # -- elementwise arithmetic (broadcasting) --------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward():
            self.grad += _unbroadcast(out.grad, self.data.shape)
            other.grad += _unbroadcast(out.grad, other.data.shape)

        out._backward = backward
        return out

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward():
            self.grad += _unbroadcast(out.grad * other.data, self.data.shape)
            other.grad += _unbroadcast(out.grad * self.data, other.data.shape)

        out._backward = backward
        return out

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    # -- linear algebra --------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data @ other.data, (self, other))
        a, b = self.data, other.data

        def backward():
            g = out.grad
            if a.ndim == 2 and b.ndim == 1:
                self.grad += np.outer(g, b)
                other.grad += a.T @ g
            elif a.ndim == 1 and b.ndim == 2:
                self.grad += b @ g
                other.grad += np.outer(a, g)
            elif a.ndim == 2 and b.ndim == 2:
                self.grad += g @ b.T
                other.grad += a.T @ g
            elif a.ndim == 1 and b.ndim == 1:
                self.grad += g * b
                other.grad += g * a
            else:
                raise NotImplementedError(f"matmul backward for {a.shape} @ {b.shape}")

        out._backward = backward
        return out

    # -- shape ops --------------------------------------------------------

    def __getitem__(self, idx) -> "Tensor":
        out = Tensor(self.data[idx], (self,))

        def backward():
            np.add.at(self.grad, idx, out.grad)

        out._backward = backward
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), (self,))

        def backward():
            self.grad += out.grad.reshape(self.data.shape)

        out._backward = backward
        return out

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis), (self,))

        def backward():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape)

        out._backward = backward
        return out

    def mean(self, axis=None) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    # -- nonlinearities -----------------------------------------------------

    def tanh(self) -> "Tensor":
        out = Tensor(np.tanh(self.data), (self,))

        def backward():
            self.grad += out.grad * (1.0 - out.data**2)

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        out = Tensor(_sigmoid(self.data), (self,))

        def backward():
            self.grad += out.grad * out.data * (1.0 - out.data)

        out._backward = backward
        return out

    # -- graph traversal ------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) node into every ancestor."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
