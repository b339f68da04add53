"""Local coordinate coding: anchors, soft coefficients, and anchor fitting.

A point x is approximated by a convex combination of anchor points,
x ~ gamma(x) = sum_j gamma_j(x) v_j, with coefficients produced by a
softmax over a tri-nonlinear compatibility score

    s(x, v_j) = v_s^T tanh(W_s v_j + U_s x + V_s (v_j o x)),

where "o" is the element-wise product. Anchors and score parameters are
fitted by minimizing the localization measure

    l_alpha ||x - gamma(x)|| + l_beta sum_j |gamma_j(x)| ||v_j - gamma(x)||^2

averaged over a dataset. Per point, ``localization_measures`` returns the
same expression for a whole batch; it doubles as the approximation-error
bound diagnostic of Yu, Zhang & Gong (NIPS 2009).

The scores and the anchor distances go through the rows in blocks of at
most ``BLOCK_ELEMS`` elements of (rows, C, d): the score kernel caches only
its inputs and the tanh activation (N, C, d_att), and everything else of
size (N, C, d) exists one block at a time, in the forward and the backward.
One step of a fit therefore holds about one (N, C, d_att) tensor plus a few
blocks, and ``dataset_measure`` evaluates a whole dataset in memory that
does not grow with N. A call whose rows fit in one block runs the
operations of the unblocked kernel in the same order and gives the same
bits; with more blocks, the sums over rows add up block by block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _add, _float_array, as_tensor, no_grad
from .params import Optimizer, ParamStore, backward


@dataclass
class LccConfig:
    l_alpha: float = 1.0
    l_beta: float = 0.01

    def __post_init__(self):
        if self.l_alpha < 0 or self.l_beta < 0:
            raise ValueError("l_alpha and l_beta must be non-negative")


class AnchorSet:
    """The |C| anchor points, each of dimension d_v."""

    def __init__(self, points):
        self.points = points if isinstance(points, Tensor) else Tensor(points)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("anchors must form a non-empty (|C|, d_v) matrix")

    @property
    def count(self):
        return self.points.shape[0]


@dataclass
class ScoreParams:
    """Trainable pieces of the tri-nonlinear score."""

    W: Tensor  # (d_att, d_v), applied to the anchor
    U: Tensor  # (d_att, d_v), applied to the input
    V: Tensor  # (d_att, d_v), applied to the element-wise product
    v: Tensor  # (d_att,)

    @classmethod
    def init(cls, d_v, d_att, rng):
        def mat():
            limit = np.sqrt(6.0 / (d_att + d_v))
            return Tensor(rng.uniform(-limit, limit, size=(d_att, d_v)))
        return cls(mat(), mat(), mat(), Tensor(rng.uniform(-0.5, 0.5, size=d_att)))


# Every (rows, C, d) temporary of the score kernel and of the anchor
# distances holds at most this many elements: rows go through one block at a
# time, at least one row per block.
BLOCK_ELEMS = 1 << 17


def _row_blocks(n, per_row):
    """Slices covering n rows, each of at most ``BLOCK_ELEMS // per_row``
    rows (at least one); a single empty slice when n is 0."""
    step = max(1, BLOCK_ELEMS // max(per_row, 1))
    return [slice(i, min(i + step, n)) for i in range(0, max(n, 1), step)]


def _tri_scores_forward(x, a, W, U, V, v):
    """Numpy forward of the score of inputs x (N, d) against anchors a (C, d).

    Returns the (N, C) scores and the cache ``_tri_scores_backward`` reads:
    the inputs and each row block's tanh activation e (rows, C, d_att). The
    products x o a, the pre-activations and e * v exist one block at a time.
    """
    (N, d), (C, d_att) = x.shape, (a.shape[0], W.shape[0])
    wa = a @ W.T                                          # (C, d_att)
    ux = x @ U.T                                          # (N, d_att)
    scores, es = [], []
    for rows in _row_blocks(N, C * max(d, d_att)):
        cross = x[rows, None, :] * a[None, :, :]          # (n, C, d)
        vc = cross.reshape(-1, d) @ V.T                   # (n*C, d_att)
        del cross
        e = np.tanh((wa[None] + ux[rows, None]) + vc.reshape(-1, C, d_att))
        scores.append((e * v).sum(axis=2))
        es.append((rows, e))
    return np.concatenate(scores), (x, a, W, U, V, v, es)


def _tri_scores_backward(cache, g, needs):
    """Gradients of (x, a, W, U, V, v) from the scores' gradient g (N, C);
    None for each input whose entry of ``needs`` is false. Works through the
    forward's row blocks; the sums over rows add up block by block."""
    x, a, W, U, V, v, es = cache
    grads = [None] * 6
    if needs[5]:
        for rows, e in es:
            grads[5] = _add(grads[5], g[rows].reshape(-1) @ e.reshape(-1, e.shape[2]))
    if not any(needs[:5]):
        return grads
    dwa = dcross_a = None
    dux, dcross_x = [], []
    for rows, e in es:
        dpre = g[rows, :, None] * v * (1.0 - e * e)       # (n, C, d_att)
        dwa = _add(dwa, dpre.sum(axis=0))                 # (C, d_att)
        dux.append(dpre.sum(axis=1))                      # (n, d_att)
        dvc = dpre.reshape(-1, e.shape[2])                # (n*C, d_att)
        xb = x[rows, None, :]
        if needs[4]:
            cross = xb * a[None, :, :]
            grads[4] = _add(grads[4], dvc.T @ cross.reshape(dvc.shape[0], -1))
        if needs[0] or needs[1]:
            dcross = (dvc @ V).reshape(-1, *a.shape)      # (n, C, d)
            if needs[0]:
                dcross_x.append((dcross * a).sum(axis=1))
            if needs[1]:
                dcross_a = _add(dcross_a, (dcross * xb).sum(axis=0))
    dux = np.concatenate(dux)
    if needs[2]:
        grads[2] = dwa.T @ a
    if needs[3]:
        grads[3] = dux.T @ x
    if needs[0]:
        grads[0] = dux @ U + np.concatenate(dcross_x)
    if needs[1]:
        grads[1] = dwa @ W + dcross_a
    return grads


def tri_scores(X, anchors, W, U, V, v):
    """All pairwise scores: (N, d_v) inputs x (C, d_v) anchors -> (N, C).

    One tape node over the numpy kernel pair ``_tri_scores_forward`` and
    ``_tri_scores_backward``; the backward returns the gradients of X, the
    anchors, W, U, V and v.
    """
    X = as_tensor(X)
    A = anchors.points if isinstance(anchors, AnchorSet) else as_tensor(anchors)
    if X.ndim != 2 or A.ndim != 2 or A.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: inputs {X.shape} vs anchors {A.shape}")
    parents = (X, A) + tuple(as_tensor(t) for t in (W, U, V, v))
    scores, cache = _tri_scores_forward(*(t.data for t in parents))

    def bwd(g):
        return _tri_scores_backward(cache, g, [t.requires_grad for t in parents])

    return ad._node(scores, parents, bwd)


def lcc_weights(X, anchors: AnchorSet, sp: ScoreParams):
    """Soft coefficients gamma (N, C) of inputs X (N, d_v): a softmax over
    each row's anchor scores."""
    return ad.softmax(tri_scores(X, anchors, sp.W, sp.U, sp.V, sp.v), axis=1)


def reconstruct(gamma, anchors: AnchorSet):
    """gamma-weighted combinations (N, d_v) of the anchors, from (N, C)
    coefficients; each row stays in the anchors' convex hull."""
    gamma = as_tensor(gamma)
    if gamma.shape[-1] != anchors.count:
        raise ValueError(f"{gamma.shape[-1]} coefficients for {anchors.count} anchors")
    return ad.matmul(gamma, anchors.points)


def anchor_sq_dists(R, anchors: AnchorSet):
    """Squared distances (N, C) of rows R (N, d_v) to each anchor.

    One tape node; the (rows, C, d_v) differences exist one row block at a
    time, in the forward and in the backward.
    """
    R, A = as_tensor(R), anchors.points
    r, a = R.data, A.data
    blocks = _row_blocks(r.shape[0], a.size)

    def diffs(rows):
        return a[None] - r[rows, None]                    # (n, C, d_v)

    out = np.concatenate([(d * d).sum(axis=2) for d in map(diffs, blocks)])

    def bwd(g):
        dR, dA = [], None
        for rows in blocks:
            t = 2.0 * diffs(rows) * g[rows, :, None]
            dR.append(-t.sum(axis=1))
            dA = _add(dA, t.sum(axis=0))
        return np.concatenate(dR), dA

    return ad._node(out, (R, A), bwd)


def localization_measures(X, anchors: AnchorSet, sp: ScoreParams,
                          cfg: LccConfig = LccConfig()):
    """The localization measure of each row of X (N, d_v): an (N,) tensor."""
    X = as_tensor(X)
    gamma = lcc_weights(X, anchors, sp)                   # (N, C)
    recon = reconstruct(gamma, anchors)                   # (N, d)
    term1 = ad.sqrt(ad.sum_(ad.square(X - recon), axis=1))
    # |gamma| = gamma: a softmax output is never negative (at an exact 0,
    # from underflow, the subgradient is 1)
    term2 = ad.sum_(gamma * anchor_sq_dists(recon, anchors), axis=1)
    return cfg.l_alpha * term1 + cfg.l_beta * term2


def mean_localization_measure(X, anchors, sp, cfg=LccConfig()):
    """The fitting objective: the mean of ``localization_measures``."""
    return ad.mean(localization_measures(X, anchors, sp, cfg))


def dataset_measure(X, anchors: AnchorSet, sp: ScoreParams, cfg=LccConfig()):
    """The mean measure of a whole dataset as a float, computed without a
    tape one row block at a time, so its memory does not grow with N."""
    X = _float_array(X)
    blocks = _row_blocks(X.shape[0], anchors.count * max(X.shape[1], sp.W.shape[0]))
    with no_grad():
        total = sum(float(localization_measures(X[rows], anchors, sp, cfg).data.sum())
                    for rows in blocks)
    return total / X.shape[0]


@dataclass
class AnchorFitConfig:
    iters: int = 2000
    lr: float = 0.05
    lr_decay: float = 0.998   # multiplicative, per iteration
    batch_size: int = 0       # 0 = full batch
    seed: int = 0


@dataclass
class AnchorFitResult:
    anchors: AnchorSet
    score: ScoreParams
    final_measure: float
    initial_measure: float
    history: list = field(default_factory=list)


def init_anchor_points(dataset, n_anchors, rng):
    """Draw anchors from the data (without replacement); Gaussian fallback."""
    dataset = _float_array(dataset)
    n, d = dataset.shape
    if n_anchors <= n:
        idx = rng.choice(n, size=n_anchors, replace=False)
        return dataset[idx].copy()
    extra = rng.normal(0.0, dataset.std() + 1e-8, size=(n_anchors - n, d))
    return np.concatenate([dataset.copy(), extra + dataset.mean(axis=0)], axis=0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_anchors(dataset, n_anchors, cfg: LccConfig = LccConfig(),
                fit: AnchorFitConfig = AnchorFitConfig()):
    """Fit anchors and score parameters by minimizing the mean measure.

    Adam with a decaying step size; the decay is what lets the unsquared
    first term settle below any fixed tolerance instead of orbiting the
    optimum at a step-size radius. The fit computes in the dataset's float
    dtype. NumPy's overflow warnings are off: the fit checks the loss and
    the updated parameters itself and names the iteration that diverged.
    The whole-dataset measures before and after go one row block at a time.
    """
    dataset = _float_array(dataset)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (N, d) matrix")
    if n_anchors < 1:
        raise ValueError("need at least one anchor")
    rng = np.random.default_rng(fit.seed)
    d_v = dataset.shape[1]  # also the score net's width

    ps = ParamStore(dataset.dtype)
    ps.add("anchors/points", init_anchor_points(dataset, n_anchors, rng), "anchors")
    proto = ScoreParams.init(d_v, d_v, rng)
    for key, t in (("W", proto.W), ("U", proto.U), ("V", proto.V), ("v", proto.v)):
        ps.add(f"anchors/score/{key}", t.data, "anchors")

    def views():
        sp = ScoreParams(*(ps[f"anchors/score/{k}"] for k in ("W", "U", "V", "v")))
        return AnchorSet(ps["anchors/points"]), sp

    initial = dataset_measure(dataset, *views(), cfg)

    opt = Optimizer(fit.lr)
    history = []
    n = dataset.shape[0]
    for it in range(fit.iters):
        if fit.batch_size and fit.batch_size < n:
            idx = rng.choice(n, size=fit.batch_size, replace=False)
            X = dataset[idx]
        else:
            X = dataset
        anchors, sp = views()
        loss = mean_localization_measure(X, anchors, sp, cfg)
        value = float(loss.data)
        if not np.isfinite(value):
            raise FloatingPointError(f"anchor fitting diverged at iteration {it}")
        history.append(value)
        grads = backward(loss, ps)
        opt.step(ps, grads)
        if not all(np.isfinite(t.data).all() for _, t in ps.items()):
            raise FloatingPointError(f"anchor fitting diverged at iteration {it}")
        opt.lr *= fit.lr_decay

    final = dataset_measure(dataset, *views(), cfg)
    frozen_anchors = AnchorSet(ps["anchors/points"].data.copy())
    frozen_sp = ScoreParams(*(Tensor(ps[f"anchors/score/{k}"].data.copy())
                              for k in ("W", "U", "V", "v")))
    return AnchorFitResult(frozen_anchors, frozen_sp, final, initial, history)
