"""Named parameter collection with group-level freezing, plus optimizers.

Groups mirror the training stages: ``encoder`` and ``decoder`` form the
baseline, ``m_ref`` / ``b_ref`` hold the added reference-network weights,
and ``anchors`` holds the fitted anchor set. Freezing a group removes its
members from every gradient and every optimizer step; frozen parameters
are bit-identical across a stage.

A store's ``dtype`` is the compute dtype of everything made from it:
float64 by default, which the finite-difference oracle needs; the stages
and the checkpoint loader build float32 stores.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor, no_grad

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

    def __len__(self):
        return len(self._params)

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

    def is_frozen(self, group):
        return group in self._frozen

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


def finite_diff_grad(f, params: ParamStore, step=1e-4) -> GradRecord:
    """Central-difference gradient oracle: (f(p+h) - f(p-h)) / 2h per coordinate.

    ``f`` must be a deterministic scalar function of the store. Slow by
    design; intended for validating ``backward`` on small problems. Every
    trainable parameter must be float64: in float32 the roundoff of a
    central difference swamps the gradient at any usable step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    for name in params.trainable_names():
        if params[name].data.dtype != np.float64:
            raise TypeError(f"finite differences need float64 parameters; "
                            f"{name} is {params[name].data.dtype}")
    record: GradRecord = {}
    with no_grad():
        for name in params.trainable_names():
            data = params[name].data
            flat = data.reshape(-1)
            grad = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                try:
                    flat[i] = orig + step
                    fp = float(f(params))
                    flat[i] = orig - step
                    fm = float(f(params))
                finally:
                    flat[i] = orig
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    raise FloatingPointError(
                        f"objective non-finite while perturbing {name}[{i}]")
                grad[i] = (fp - fm) / (2.0 * step)
            record[name] = grad.reshape(data.shape)
    return record


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


def clip_gradient_value(grads: GradRecord, limit) -> GradRecord:
    """Element-wise clamp to [-limit, limit] (alternative clipping mode)."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    return {n: np.clip(g, -limit, limit) for n, g in grads.items()}


@dataclass
class OptimizerConfig:
    kind: str = "adam"          # "adam" | "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class Optimizer:
    """SGD or Adam over a ParamStore; state is keyed by parameter name."""

    config: OptimizerConfig
    _m: dict = field(default_factory=dict)
    _v: dict = field(default_factory=dict)
    _t: int = 0

    def step(self, params: ParamStore, grads: GradRecord):
        cfg = self.config
        if cfg.kind == "adam":
            self._t += 1
        for name, g in grads.items():
            tensor = params[name]
            if not tensor.requires_grad:
                continue
            if g.shape != tensor.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match {name} {tensor.data.shape}")
            if cfg.kind == "sgd":
                tensor.data -= cfg.lr * g
            elif cfg.kind == "adam":
                m = self._m.setdefault(name, np.zeros_like(g))
                v = self._v.setdefault(name, np.zeros_like(g))
                m += (1 - cfg.beta1) * (g - m)
                v += (1 - cfg.beta2) * (g * g - v)
                mh = m / (1 - cfg.beta1 ** self._t)
                vh = v / (1 - cfg.beta2 ** self._t)
                tensor.data -= cfg.lr * mh / (np.sqrt(vh) + cfg.eps)
            else:
                raise ValueError(f"unknown optimizer kind {cfg.kind!r}")
        return params

