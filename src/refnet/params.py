"""Named parameter collection with group-level freezing, plus the optimizer.

Groups mirror the training stages: ``encoder`` and ``decoder`` form the
baseline, ``m_ref`` / ``b_ref`` hold the added reference-network weights,
and ``anchors`` holds the fitted anchor set. Freezing a group removes its
members from every gradient and every optimizer step; frozen parameters
are bit-identical across a stage.

A store's ``dtype`` is the compute dtype of everything made from it:
float64 by default, which the complex-step oracle needs; the stages
and the checkpoint loader build float32 stores.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor, no_grad
from .errors import NumericError

GROUPS = ("encoder", "decoder", "m_ref", "b_ref", "anchors")


class ParamStore:
    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}
        self._group_of: dict[str, str] = {}
        self._frozen: set[str] = set()

    def add(self, name, data, group):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}; expected one of {GROUPS}")
        t = Tensor(np.array(data, dtype=self.dtype))
        t.requires_grad = group not in self._frozen
        self._params[name] = t
        self._group_of[name] = group
        return t

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def group_of(self, name):
        return self._group_of[name]

    def members(self, group):
        return [n for n, g in self._group_of.items() if g == group]

    def groups_present(self):
        return sorted(set(self._group_of.values()), key=GROUPS.index)

    def freeze(self, *groups):
        for g in groups:
            self._frozen.add(g)
        self._sync_flags()

    def unfreeze(self, *groups):
        for g in groups:
            self._frozen.discard(g)
        self._sync_flags()

    def _sync_flags(self):
        for name, t in self._params.items():
            t.requires_grad = self._group_of[name] not in self._frozen

    def trainable_names(self):
        """Names that currently receive gradients and optimizer updates."""
        return [n for n, t in self._params.items() if t.requires_grad]

    def group_digest(self, group):
        """SHA-256 over the group's raw parameter bytes, for freeze audits."""
        h = hashlib.sha256()
        for name in sorted(self.members(group)):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self._params[name].data).tobytes())
        return h.hexdigest()

    def copy(self, dtype=None):
        """An independent store with the same entries and nothing frozen, in
        ``dtype`` (default: this store's)."""
        out = ParamStore(self.dtype if dtype is None else dtype)
        for name, t in self._params.items():
            out.add(name, t.data, self._group_of[name])
        return out

    def snapshot(self):
        return {n: t.data.copy() for n, t in self._params.items()}

    def restore(self, snap):
        for n, arr in snap.items():
            self._params[n].data[...] = arr

    def param_count(self, group=None):
        names = self.names() if group is None else self.members(group)
        return int(sum(self._params[n].size for n in names))


# A GradRecord is a plain mapping: name -> ndarray shaped like the parameter.
GradRecord = dict


def backward(loss, params: ParamStore) -> GradRecord:
    """Gradients of a scalar loss for every parameter outside a frozen group.

    Parameters that did not participate in the recorded computation are
    absent from the record; frozen parameters are never present.
    """
    gmap = autodiff.grad_map(loss)
    record: GradRecord = {}
    for name in params.trainable_names():
        g = gmap.get(id(params[name]))
        if g is not None:
            record[name] = g
    if not record and params.trainable_names():
        raise ValueError("no trainable parameter participates in the loss")
    return record


# Forking a worker and reaping it costs 3.1-3.9 ms on a 2-core x86 box (a
# 40 MB process). One coordinate costs one complex evaluation of 0.05-0.9
# ms at the gradient suite's shapes, so a block of this many coordinates
# repays its fork, only just for the cheapest one-step objectives (a split
# decoder_step sweep measured 2-4 ms slower, the
# whole-loss sweeps 0.1-0.26 s faster); a smaller store stays in-process.
MIN_COORDS_PER_WORKER = 64


def finite_diff_grad(f, params: ParamStore, step=1e-4) -> GradRecord:
    """Complex-step gradient oracle: Im f(p + ih) / h per coordinate.

    The derivative has no subtraction, so it is exact to machine precision
    at a tiny step such as 1e-20 (Squire & Trapp, SIAM Review 1998), with
    one evaluation per coordinate. Slow by design; intended for validating
    ``backward`` on small problems. Every trainable parameter must be
    float64; for the sweep each becomes a complex128 copy, and the real
    arrays are put back on the way out.

    ``f`` must be a deterministic scalar function of the store, and
    holomorphic in every trainable coordinate: no modulus, no ``float()``,
    no comparison and no write into a real buffer of a perturbed value.
    Inside the sweep a dropped imaginary part (NumPy's ``ComplexWarning``)
    is an error. A modulus drops it without a warning and reads as a zero
    derivative, so the analytic gradient then fails its check. A real value
    of ``f`` (one that does not depend on the store) reads as a zero
    derivative.

    When the store gives each of two or more usable CPUs at least
    ``MIN_COORDS_PER_WORKER`` coordinates, the sweep is split into
    contiguous blocks: this process sweeps the first, and one forked worker
    per other CPU sweeps each of the rest. The estimates are bit-identical
    to a sweep in one process, and so is every failure: the exception or
    ``FloatingPointError`` of the first bad coordinate in sweep order.
    Side effects of ``f`` inside a worker (counters, caches, output) are
    lost with the worker.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    names = params.trainable_names()
    for name in names:
        if params[name].data.dtype != np.float64:
            raise TypeError(f"the complex step needs float64 parameters; "
                            f"{name} is {params[name].data.dtype}")
    coords = [(name, i) for name in names for i in range(params[name].size)]
    workers = max(1, min(_usable_cpus(), len(coords) // MIN_COORDS_PER_WORKER))
    with complex_step(params, names):
        imag = _split_sweep(f, params, coords, step, workers)
    if not np.isfinite(imag[-1:]).all():
        name, i = coords[len(imag) - 1]
        raise FloatingPointError(f"objective non-finite while perturbing {name}[{i}]")
    grad = imag / step
    record: GradRecord = {}
    start = 0
    for name in names:
        data = params[name].data
        record[name] = grad[start:start + data.size].reshape(data.shape)
        start += data.size
    return record


@contextlib.contextmanager
def complex_step(params, names):
    """Inside the block, each named parameter holds a complex128 copy of its
    array, nothing is recorded, and a dropped imaginary part is an error;
    the real arrays are put back on the way out."""
    real = {name: params[name].data for name in names}
    try:
        with no_grad(), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for name, data in real.items():
                params[name].data = data.astype(np.complex128)
            yield
    finally:
        for name, data in real.items():
            params[name].data = data


def imag_part(value):
    """Im of an objective's scalar value (a Tensor or a number), 0.0 when it
    is real, NaN when it is not finite."""
    value = np.asarray(getattr(value, "data", value)).item()
    return value.imag if np.isfinite(value) else np.nan


def _usable_cpus():
    """The CPUs a sweep may be split over. A process that runs other
    threads uses one: a forked worker could inherit a lock one of them
    holds, and wait on it forever."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _sweep(f, params, coords, step, parent=None):
    """``Im f(p + ih)`` per ``(name, flat index)`` coordinate of a complex
    store, in order, as a float64 array that ends early at the first
    non-finite value, read as NaN. Each perturbation is undone in a
    ``finally``. A worker passes its ``parent``'s pid and stops, short, once
    that parent is gone."""
    imag = np.empty(len(coords))
    for k, (name, i) in enumerate(coords):
        if parent is not None and os.getppid() != parent:
            return imag[:k]
        flat = params[name].data.reshape(-1)
        try:
            flat.imag[i] = step
            imag[k] = imag_part(f(params))
        finally:
            flat.imag[i] = 0.0
        if not np.isfinite(imag[k]):
            return imag[:k + 1]
    return imag


def _split_sweep(f, params, coords, step, workers):
    """``_sweep`` over ``coords`` in ``workers`` contiguous blocks: block 0
    here, each other block in a forked worker whose values come back as raw
    bytes through a pipe. A block whose worker did not send every value, all
    finite (or could not be forked), is swept again here, so a failure
    surfaces from this process at the first bad coordinate in sweep order.
    Every worker is killed (if it still runs) and reaped before this
    returns or raises."""
    bounds = [len(coords) * k // workers for k in range(workers + 1)]
    blocks = [coords[a:b] for a, b in zip(bounds, bounds[1:])]
    procs = []
    try:
        for block in blocks[1:]:
            procs.append(_fork_sweep(f, params, block, step))
        out = [_sweep(f, params, blocks[0], step)]
        for block, proc in zip(blocks[1:], procs):
            if not np.isfinite(out[-1][-1:]).all():
                break
            raw = proc[1].read() if proc else b""
            if len(raw) == 8 * len(block):  # one float64 per coordinate
                out.append(np.frombuffer(raw))
            else:
                out.append(_sweep(f, params, block, step))
        return np.concatenate(out)
    finally:
        for pid, pipe in filter(None, procs):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_sweep(f, params, block, step):
    """Fork a worker that sweeps ``block`` and writes its values to a pipe,
    only if they are all there and finite. The worker's standard output and
    error go to the null device, and it leaves by ``os._exit``, whatever
    happens. Returns the worker's pid and the pipe's read end, or None when
    the system has no process to spare."""
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            imag = _sweep(f, params, block, step, parent)
            if len(imag) == len(block) and np.isfinite(imag).all():
                with open(w, "wb") as pipe:
                    pipe.write(imag.tobytes())
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def relative_error(a, b, floor=1e-8):
    """Element-wise |a-b| / max(|a|,|b|,floor); scalar max over the arrays."""
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def grad_global_norm(grads: GradRecord):
    total = sum(float((g * g).sum()) for g in grads.values())
    return float(np.sqrt(total))


def clip_gradient_norm(grads: GradRecord, max_norm, norm=None) -> GradRecord:
    """Scale all gradients by max_norm/||g|| when the global L2 norm exceeds it.

    ``norm`` is that global norm when the caller has already computed it.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if norm is None:
        norm = grad_global_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {n: g * scale for n, g in grads.items()}


# Adam's moment decays and denominator floor (Kingma & Ba, ICLR 2015). Python
# floats, so they keep a float32 store's arithmetic in float32.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class Optimizer:
    """Adam over a ParamStore; state is keyed by parameter name. ``lr`` is
    the one value a caller may change between steps."""

    lr: float
    _m: dict = field(default_factory=dict)
    _v: dict = field(default_factory=dict)
    _t: int = 0

    def update(self, params: ParamStore, loss, grads: GradRecord, stage, at,
               clip_norm=None):
        """A training step's or fit iteration's checked update: a finite
        ``loss``, ``grads`` clipped to a global norm of ``clip_norm`` (None:
        never), ``step``, and finite parameters after it, or a
        ``NumericError`` naming ``stage`` and ``at`` ("epoch 0, batch 3").
        Returns the pre-clip global norm and whether clipping changed it."""
        if not np.isfinite(loss.data).all():
            raise NumericError(f"{stage}: non-finite loss at {at}")
        norm = grad_global_norm(grads)
        clipped = clip_norm is not None and norm > clip_norm
        if clipped:
            grads = clip_gradient_norm(grads, clip_norm, norm)
        self.step(params, grads)
        if not all(np.isfinite(params[name].data).all() for name in grads):
            raise NumericError(f"{stage}: non-finite parameters after the "
                               f"update at {at}")
        return norm, clipped

    def step(self, params: ParamStore, grads: GradRecord):
        self._t += 1
        for name, g in grads.items():
            tensor = params[name]
            if not tensor.requires_grad:
                continue
            if g.shape != tensor.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match {name} {tensor.data.shape}")
            if name not in self._m:  # the moments start at zero
                self._m[name], self._v[name] = np.zeros_like(g), np.zeros_like(g)
            m, v = self._m[name], self._v[name]
            m += (1 - BETA1) * (g - m)
            v += (1 - BETA2) * (g * g - v)
            mh = m / (1 - BETA1 ** self._t)
            vh = v / (1 - BETA2 ** self._t)
            tensor.data -= self.lr * mh / (np.sqrt(vh) + EPS)
        return params
