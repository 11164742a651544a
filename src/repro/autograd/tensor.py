"""Reverse-mode automatic differentiation on top of numpy.

This module is the computational substrate for the whole reproduction: the
paper's models (GAT encoders, cross-modal attention, contrastive losses) are
built from :class:`Tensor` operations defined here.  The design mirrors the
familiar define-by-run style of PyTorch: every operation records a backward
closure, and :meth:`Tensor.backward` walks the tape in reverse topological
order accumulating gradients.

The tape frees itself by reference counting.  A node stores its closure,
which holds the node's parents but never the node, so the graph is acyclic
and goes away as soon as the last reference to its root does — the cyclic
garbage collector plays no part.  Only leaves keep ``.grad`` after a
backward pass; each interior gradient is dropped once its node has handed
it on.

Only the operations required by the DESAlign reproduction are implemented,
but each one supports full numpy broadcasting and is covered by numerical
gradient checks in ``tests/autograd``.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

#: Per-context (hence per-thread) switch: a ``no_grad()`` in one thread
#: must not stop another thread's tape from recording.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True)

#: ``id`` of every tensor whose ``.grad`` the backward pass running in this
#: context allocated or adopted.  Only those buffers are added into in
#: place; a gradient from before the pass, or one a caller assigned, is
#: replaced by a fresh sum instead.
_GRAD_OWNERS: contextvars.ContextVar[set[int]] = contextvars.ContextVar(
    "repro_grad_owners")


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient tape recording in this context.

    Used during evaluation and semantic propagation, where the paper's
    Algorithm 1 explicitly operates outside the training loop.  Other
    threads keep recording.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED.get()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _read_only(grad) -> np.ndarray:
    """A read-only array view of ``grad``: nothing downstream adopts or writes it."""
    view = np.asarray(grad, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    __array_priority__ = 100.0  # ensure numpy defers to Tensor operators

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[Tensor], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce ``value`` into a :class:`Tensor` (no-op when it already is)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def eye(n: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.eye(n), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # Tape plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make_result(data: np.ndarray, parents: Sequence["Tensor"],
                     backward: Callable[["Tensor"], None]) -> "Tensor":
        requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(grad, self.data.shape)
        owners = _GRAD_OWNERS.get()
        if self.grad is None:
            # A fresh C-ordered array is adopted as it is.  A view of the
            # consumer's gradient arrives read-only and is copied, as is any
            # other layout: GEMMs and reductions downstream round by layout.
            if not (grad.flags.writeable and grad.flags.c_contiguous):
                grad = np.array(grad, order="C")
            self.grad = grad
        elif id(self) in owners:
            self.grad += grad
        else:
            self.grad = self.grad + grad
        owners.add(id(self))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Nodes run in reverse post-order, so a node shared by several
        consumers sums their contributions in consumer order.  Only leaves
        keep ``.grad``: each interior node hands its gradient to its
        backward as a read-only view and drops it right after, so a second
        pass through the same graph starts from clean interior gradients.
        Within one pass every ``.grad`` is a C-ordered buffer its tensor
        owns, and later contributions are added into it in place; a first
        contribution is adopted when it is a fresh, writeable, C-ordered
        array and copied otherwise.  The seed ``grad`` (accumulated into
        this tensor) and any ``.grad`` from before the pass are never
        written to.  The graph stays recorded while this tensor is
        referenced and is freed by reference counting afterwards.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        seed = _read_only(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        token = _GRAD_OWNERS.set(set())
        try:
            self._accumulate(seed)
            for node in reversed(topo):
                if node._backward is not None and node.grad is not None:
                    node.grad = _read_only(node.grad)
                    node._backward(node)
                    node.grad = None
        finally:
            _GRAD_OWNERS.reset(token)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        return self._make_result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad)

        return self._make_result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = Tensor.ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)
            other._accumulate(-out.grad)

        return self._make_result(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) - self

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        return self._make_result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        return self._make_result(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1))

        return self._make_result(np.power(self.data, exponent), (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value)

        return self._make_result(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data)

        return self._make_result(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * 0.5 / value)

        return self._make_result(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - value ** 2))

        return self._make_result(value, (self,), backward)

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value * (1.0 - value))

        return self._make_result(value, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make_result(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make_result(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * sign)

        return self._make_result(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make_result(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make_result(value, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            expanded = value
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(value, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            # Split the gradient evenly among ties to keep it well defined.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(grad * mask)

        return self._make_result(value, (self,), backward)

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm along ``axis`` (smoothed to stay differentiable at zero)."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps).sqrt()

    # ------------------------------------------------------------------
    # Linear algebra and shape manipulation
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        value = self.data @ other.data

        def backward(out: Tensor) -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2
                                     else grad * other.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make_result(value, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, axes: Iterable[int] | None = None) -> "Tensor":
        axes_tuple = tuple(axes) if axes is not None else tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes_tuple)

        def backward(out: Tensor) -> None:
            self._accumulate(np.transpose(out.grad, inverse))

        return self._make_result(np.transpose(self.data, axes_tuple), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(original))

        return self._make_result(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        return self._make_result(self.data[index], (self,), backward)

    def index_select(self, indices) -> "Tensor":
        """Gather rows by integer ``indices`` (first axis)."""
        indices = np.asarray(indices, dtype=np.int64)
        return self[indices]

    # ------------------------------------------------------------------
    # Static combinators
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        value = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, end)
                tensor._accumulate(out.grad[tuple(slicer)])

        return Tensor._make_result(value, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        value = np.stack([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            grads = np.split(out.grad, len(tensors), axis=axis)
            for tensor, grad in zip(tensors, grads):
                tensor._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make_result(value, tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a = Tensor.ensure(a)
        b = Tensor.ensure(b)
        condition = np.asarray(condition, dtype=bool)
        value = np.where(condition, a.data, b.data)

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * condition)
            b._accumulate(out.grad * (~condition))

        return Tensor._make_result(value, (a, b), backward)
