"""Reverse-mode automatic differentiation for the training objective.

A deliberately small tape: only the primitives the penalized objective needs
(affine maps, exp/log/sqrt/softplus, absolute value, stacking and gathering,
1-D same-padded convolution, max pooling, reductions).  Everything is float64.

Every op dispatches on its inputs: if any argument is a :class:`Var` the op
records itself on the tape, otherwise it evaluates in plain numpy.  Model code
is therefore written once and runs either under the tape (training, gradient
checks) or at raw numpy speed (emulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# a finite-difference probe within this distance of a kink is not compared
KINK_TOL = 1e-8


class NonFiniteError(FloatingPointError):
    """An op produced a non-finite value; names the offending primitive."""


def _finite_or_raise(value: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite value produced by op '{op}'")
    return value


class Var:
    """Tape node holding a float64 array, its parents, and their vjp closures."""

    __slots__ = ("value", "grad", "parents", "op", "__weakref__")

    # keep numpy from consuming `ndarray <op> Var`; defer to our reflected ops
    __array_ufunc__ = None

    def __init__(self, value, parents=(), op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into the ``grad`` of every leaf below.

        The tape is released as it is walked: once a node has passed its
        gradient on to its parents, its ``grad`` is None and its ``parents``
        is ``()``, so its vjp closures and the forward arrays they hold are
        freed during the pass.  Afterwards only leaves hold ``.grad``.
        """
        if self.value.ndim != 0 and self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        order.reverse()
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            g, parents = node.grad, node.parents
            if not parents:
                continue            # a leaf keeps its grad
            node.grad, node.parents = None, ()
            for parent, vjp in parents:
                contrib = vjp(g)
                if parent.grad is not None:
                    parent.grad += contrib
                elif (contrib is not g and contrib.flags.owndata
                      and contrib.flags.writeable):
                    parent.grad = contrib      # fresh from the vjp: no copy
                elif (len(parents) == 1 and _buffer(contrib) is _buffer(g)
                      and contrib.flags.c_contiguous and contrib.flags.writeable):
                    parent.grad = contrib      # g's buffer, released above
                else:
                    parent.grad = contrib.copy()   # g shared, or another layout

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.value.shape})"


def _toposort(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order[::-1]


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _buffer(a: np.ndarray):
    """The array that owns ``a``'s memory (numpy keeps a view's base at the owner)."""
    return a if a.base is None else a.base


def _is_var(*args) -> bool:
    return any(isinstance(a, Var) for a in args)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted upstream gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g)        # a fresh sum, which backward need not copy


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------

def add(a, b):
    av, bv = value_of(a), value_of(b)
    out = _finite_or_raise(av + bv, "add")
    if not _is_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g, bv.shape)))
    return Var(out, tuple(parents), "add")


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    out = _finite_or_raise(av - bv, "sub")
    if not _is_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g, bv.shape)))
    return Var(out, tuple(parents), "sub")


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    out = _finite_or_raise(av * bv, "mul")
    if not _is_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g * bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g * av, bv.shape)))
    return Var(out, tuple(parents), "mul")


def div(a, b):
    av, bv = value_of(a), value_of(b)
    with np.errstate(all="ignore"):
        out = _finite_or_raise(av / bv, "div")
    if not _is_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g / bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g * av / bv**2, bv.shape)))
    return Var(out, tuple(parents), "div")


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    out = _finite_or_raise(av @ bv, "matmul")
    if not _is_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: g @ bv.T))
    if isinstance(b, Var):
        parents.append((b, lambda g: av.T @ g))
    return Var(out, tuple(parents), "matmul")


def exp(a):
    av = value_of(a)
    with np.errstate(all="ignore"):
        out = _finite_or_raise(np.exp(av), "exp")
    if not isinstance(a, Var):
        return out
    return Var(out, ((a, lambda g: g * out),), "exp")


def log(a):
    av = value_of(a)
    with np.errstate(all="ignore"):
        out = _finite_or_raise(np.log(av), "log")
    if not isinstance(a, Var):
        return out
    return Var(out, ((a, lambda g: g / av),), "log")


def sqrt(a):
    av = value_of(a)
    with np.errstate(all="ignore"):
        out = _finite_or_raise(np.sqrt(av), "sqrt")
    if not isinstance(a, Var):
        return out
    return Var(out, ((a, lambda g: 0.5 * g / out),), "sqrt")


def absolute(a):
    """|x| with subgradient 0 at the kink."""
    av = value_of(a)
    out = np.abs(av)
    if not isinstance(a, Var):
        return out
    sign = np.sign(av)
    return Var(out, ((a, lambda g: g * sign),), "abs")


def softplus(a):
    """log(1 + e^x), computed stably; derivative is the logistic function."""
    av = value_of(a)
    with np.errstate(all="ignore"):
        out = _finite_or_raise(
            np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av))), "softplus")
    if not isinstance(a, Var):
        return out
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-av))
    return Var(out, ((a, lambda g: g * sig),), "softplus")


def softplus_inverse(y: np.ndarray) -> np.ndarray:
    """Numpy-only inverse, used for initialization: log(e^y - 1)."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("softplus_inverse requires positive input")
    return y + np.log1p(-np.exp(-y))


def vsum(a, axis=None):
    av = value_of(a)
    out = np.sum(av, axis=axis)
    if not isinstance(a, Var):
        return out

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).astype(np.float64)
        gg = np.expand_dims(g, axis)
        return np.broadcast_to(gg, av.shape).astype(np.float64)

    return Var(out, ((a, vjp),), "sum")


def reshape(a, shape):
    av = value_of(a)
    out = av.reshape(shape)
    if not isinstance(a, Var):
        return out
    if out.shape == av.shape:       # no new node for an unchanged shape
        return a
    return Var(out, ((a, lambda g: g.reshape(av.shape)),), "reshape")


def transpose(a):
    av = value_of(a)
    out = av.T
    if not isinstance(a, Var):
        return out
    return Var(out, ((a, lambda g: g.T),), "transpose")


def stack(parts, axis=0):
    vals = [value_of(p) for p in parts]
    out = np.stack(vals, axis=axis)
    if not _is_var(*parts):
        return out
    parents = []
    for i, p in enumerate(parts):
        if isinstance(p, Var):
            parents.append((p, lambda g, i=i: np.take(g, i, axis=axis)))
    return Var(out, tuple(parents), "stack")


def take_rows(a, indices):
    """Gather rows (axis 0); backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    av = value_of(a)
    out = av[idx]
    if not isinstance(a, Var):
        return out

    def vjp(g):
        acc = np.zeros_like(av)
        if np.all(idx[1:] > idx[:-1]):
            acc[idx] += g           # no index repeats: the same sums as add.at
        else:
            np.add.at(acc, idx, g)
        return acc

    return Var(out, ((a, vjp),), "take_rows")


def getitem(a, key):
    av = value_of(a)
    out = av[key]
    if not isinstance(a, Var):
        return out

    def vjp(g):
        acc = np.zeros_like(av)
        acc[key] = g
        return acc

    return Var(out, ((a, vjp),), "getitem")


# ---------------------------------------------------------------------------
# convolutional primitives
# ---------------------------------------------------------------------------

def conv1d_same(x, kernel, bias):
    """Batched 1-D convolution with zero same-padding.

    x: (batch, in_channels, length); kernel: (out_channels, in_channels, width);
    bias: (out_channels,).  Output: (batch, out_channels, length) in C order:
    the (out, in * width) kernel times each batch row's (in * width, length) windows.
    """
    xv, kv, bv = value_of(x), value_of(kernel), value_of(bias)
    if xv.ndim != 3 or kv.ndim != 3 or xv.shape[1] != kv.shape[1]:
        raise ValueError("conv1d_same shape mismatch")
    b, cin, length = xv.shape
    c, _, width = kv.shape
    pad_l = (width - 1) // 2
    xp = np.pad(xv, ((0, 0), (0, 0), (pad_l, width - 1 - pad_l)))
    # win[b, i * width + q, l] = xp[b, i, q + l]
    win = sliding_window_view(xp, length, axis=2).reshape(b, cin * width, length)
    k2 = kv.reshape(c, cin * width)
    out = np.matmul(k2, win)
    out += np.repeat(bv, length).reshape(c, length)   # one add per batch row
    _finite_or_raise(out, "conv1d_same")
    if not _is_var(x, kernel, bias):
        return out

    parents = []
    if isinstance(x, Var):

        def vjp_x(g):
            dwin = np.matmul(k2.T, g).reshape(b, cin, width, length)
            dx = np.zeros_like(xv)
            for q in range(width):      # window q of output l reads x[l + q - pad_l]
                s = q - pad_l
                lo, hi = max(0, s), min(length, length + s)
                if lo < hi:
                    dx[:, :, lo:hi] += dwin[:, :, q, lo - s : hi - s]
            return dx

        parents.append((x, vjp_x))
    if isinstance(kernel, Var):

        def vjp_kernel(g):
            # one product over the (batch, length) pairs, in that order, into
            # an array of the kernel's shape, which backward then takes as is
            dk = np.empty(kv.shape)
            np.matmul(g.transpose(1, 0, 2).reshape(c, b * length),
                      win.transpose(0, 2, 1).reshape(b * length, cin * width),
                      out=dk.reshape(c, cin * width))
            return dk

        parents.append((kernel, vjp_kernel))
    if isinstance(bias, Var):
        parents.append((bias, lambda g: g.sum(axis=(0, 2))))
    return Var(out, tuple(parents), "conv1d_same")


def maxpool1d(x, width):
    """Non-overlapping max pooling along the last axis; ties go to the first max.

    On finite input: the slots' ``np.maximum``, or where that is 0 the first zero
    slot, as argmax.  The vjp sends g's bits to the slot that beat those before it."""
    xv = value_of(x)
    b, c, length = xv.shape
    if length % width != 0:
        raise ValueError(f"pool width {width} must divide length {length}")
    xr = xv.reshape(b, c, length // width, width)
    out = xr[..., 0]
    took = []
    for q in range(1, width):
        if isinstance(x, Var):
            took.append(xr[..., q] > out)
        out = np.maximum(out, xr[..., q])
    if width > 1:
        zero = out == 0
        if zero.any():
            tied = xr[zero]
            out[zero] = tied[np.arange(len(tied)), np.argmax(tied == 0, axis=1)]
    if not isinstance(x, Var):
        return out

    def vjp(g):
        acc = np.empty_like(xv)
        slots = acc.reshape(xr.shape).view(np.uint64)
        rest = g.view(np.uint64)
        for q in range(width - 1, 0, -1):
            np.bitwise_and(rest, -took[q - 1].astype(np.uint64), out=slots[..., q])
            rest = np.bitwise_xor(rest, slots[..., q], out=slots[..., 0])
        if width == 1:
            slots[..., 0] = rest
        return acc

    return Var(out, ((x, vjp),), "maxpool1d")


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------

@dataclass
class ParamVector:
    """Flat float64 parameter array plus a named (offset, shape) layout."""

    data: np.ndarray
    layout: dict[str, tuple[int, tuple[int, ...]]]

    @classmethod
    def build(cls, parts: dict[str, np.ndarray]) -> "ParamVector":
        layout = {}
        chunks = []
        offset = 0
        for name, arr in parts.items():
            arr = np.asarray(arr, dtype=np.float64)
            layout[name] = (offset, arr.shape)
            chunks.append(arr.ravel())
            offset += arr.size
        data = np.concatenate(chunks) if chunks else np.empty(0)
        return cls(data=data, layout=layout)

    @property
    def size(self) -> int:
        return self.data.size

    def view(self, name: str) -> np.ndarray:
        offset, shape = self.layout[name]
        n = int(np.prod(shape)) if shape else 1
        return self.data[offset : offset + n].reshape(shape)

    def copy(self) -> "ParamVector":
        return ParamVector(data=self.data.copy(), layout=self.layout)

    def replace(self, data: np.ndarray) -> "ParamVector":
        if data.shape != self.data.shape:
            raise ValueError("replacement data has the wrong length")
        return ParamVector(data=np.asarray(data, dtype=np.float64), layout=self.layout)

    def locate(self, flat_index: int) -> tuple[str, tuple[int, ...]]:
        """Map a flat coordinate to (component name, index within component)."""
        for name, (offset, shape) in self.layout.items():
            n = int(np.prod(shape)) if shape else 1
            if offset <= flat_index < offset + n:
                inner = np.unravel_index(flat_index - offset, shape) if shape else ()
                return name, tuple(int(i) for i in inner)
        raise IndexError(flat_index)


class VarView:
    """Hands out Var leaves over a ParamVector; leaves are shared per name."""

    def __init__(self, pv: ParamVector):
        self._vars = {name: Var(pv.view(name).copy()) for name in pv.layout}
        self._pv = pv

    def __getitem__(self, name: str) -> Var:
        return self._vars[name]

    def flat_grad(self) -> np.ndarray:
        g = np.zeros_like(self._pv.data)
        for name, leaf in self._vars.items():
            offset, shape = self._pv.layout[name]
            n = int(np.prod(shape)) if shape else 1
            if leaf.grad is not None:
                g[offset : offset + n] = leaf.grad.ravel()
        return g


class ArrayView:
    """Plain-numpy counterpart of VarView, used for fast function evaluation."""

    def __init__(self, pv: ParamVector):
        self._pv = pv

    def __getitem__(self, name: str) -> np.ndarray:
        return self._pv.view(name)


# ---------------------------------------------------------------------------
# gradient drivers
# ---------------------------------------------------------------------------

def value_and_gradient(loss, pv: ParamVector) -> tuple[float, np.ndarray]:
    """Evaluate ``loss(view)`` under the tape and return (value, flat gradient).

    ``loss`` receives a view object; ``view[name]`` yields the parameter
    component as a Var leaf (an ndarray under :class:`ArrayView`).
    """
    view = VarView(pv)
    out = loss(view)
    if not isinstance(out, Var):
        return float(np.asarray(out)), np.zeros_like(pv.data)
    out.backward()
    return float(out.value), view.flat_grad()


def gradient(loss, pv: ParamVector) -> np.ndarray:
    return value_and_gradient(loss, pv)[1]


@dataclass
class GradientReport:
    """The worst disagreement of the analytic and central-difference
    gradients, and the coordinates left out at kinks."""

    max_rel_err: float
    argmax: tuple[str, tuple[int, ...]]
    skipped: np.ndarray

    @property
    def n_skipped(self) -> int:
        return int(np.sum(self.skipped))


def _kink_arguments(out) -> np.ndarray:
    """Where the taped function ``out`` is not differentiable, read from its
    graph: the input of every absolute value, and for every max-pool each
    slot after the first minus the running max of the slots before it (zero
    on a tie).  A kink lies between two evaluations when one of these
    changes sign."""
    parts = []
    for node in _toposort(out) if isinstance(out, Var) else ():
        if node.op == "abs":
            parts.append(node.parents[0][0].value.ravel())
        elif node.op == "maxpool1d":
            xv = node.parents[0][0].value
            width = xv.shape[-1] // node.value.shape[-1]
            xr = xv.reshape(*node.value.shape, width)
            running = np.maximum.accumulate(xr, axis=-1)
            parts.append((xr[..., 1:] - running[..., :-1]).ravel())
    return np.concatenate(parts) if parts else np.empty(0)


def fd_check(loss, pv: ParamVector, step: float = 1e-5) -> GradientReport:
    """Central-difference check of the tape gradient.

    Per-coordinate step h_i = step * max(1, |p_i|).  Each +/- h probe is one
    taped forward pass, which gives both the loss value and its kink
    arguments (:func:`_kink_arguments`).  A coordinate whose probes change a
    kink's sign or land within ``KINK_TOL`` of one is skipped: the loss is
    not differentiable there and the comparison would be meaningless.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    analytic = gradient(loss, pv)
    n = pv.size
    fd = np.zeros(n)
    skipped = np.zeros(n, dtype=bool)
    base = pv.data

    for i in range(n):
        h = step * max(1.0, abs(base[i]))
        f, kinks = [], []
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[i] += sign * h
            out = loss(VarView(pv.replace(probe)))
            f.append(float(value_of(out)))
            kinks.append(_kink_arguments(out))
        k_plus, k_minus = kinks
        moved = k_plus != k_minus
        crosses = moved & (np.sign(k_plus) != np.sign(k_minus))
        near = moved & ((np.abs(k_plus) < KINK_TOL) | (np.abs(k_minus) < KINK_TOL))
        if np.any(crosses | near):
            skipped[i] = True
            continue
        fd[i] = (f[0] - f[1]) / (2.0 * h)

    live = ~skipped
    floor = 1e-6 * max(1.0, float(np.max(np.abs(analytic))) if n else 1.0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    rel = np.zeros(n)
    rel[live] = np.abs(analytic[live] - fd[live]) / denom[live]
    worst = int(np.argmax(rel)) if n else 0
    return GradientReport(
        max_rel_err=float(rel[worst]) if n else 0.0,
        argmax=pv.locate(worst) if n else ("", ()),
        skipped=skipped,
    )
