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
bound diagnostic of Yu, Zhang & Gong (NIPS 2009). Its second term reads
the reconstruction gamma(x) as a constant: the gradient there,
sum_j gamma_j 2 (gamma(x) - v_j), is 0, because the gamma_j sum to 1.

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
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import _add, _float_array, as_tensor, no_grad
from .params import Optimizer, ParamStore, backward

if TYPE_CHECKING:  # training imports this module
    from .training import TrainConfig


def init_score(d_v, d_att, rng):
    """The tri-nonlinear score net (W, U, V, v): three (d_att, d_v) Xavier
    matrices, applied to the anchor, the input and their element-wise
    product, then the (d_att,) readout."""
    def mat():
        limit = np.sqrt(6.0 / (d_att + d_v))
        return rng.uniform(-limit, limit, size=(d_att, d_v))
    return mat(), mat(), mat(), rng.uniform(-0.5, 0.5, size=d_att)


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


def _tri_scores_backward(cache, g, inputs):
    """Gradients of (x, a, W, U, V, v) from the scores' gradient g (N, C);
    x's is None unless ``inputs`` is set. Works through the forward's row
    blocks; the sums over rows add up block by block."""
    x, a, W, U, V, v, es = cache
    dv = dV = dwa = dcross_a = None
    dux, dcross_x = [], []
    for rows, e in es:
        dv = _add(dv, g[rows].reshape(-1) @ e.reshape(-1, e.shape[2]))
        dpre = g[rows, :, None] * v * (1.0 - e * e)       # (n, C, d_att)
        dwa = _add(dwa, dpre.sum(axis=0))                 # (C, d_att)
        dux.append(dpre.sum(axis=1))                      # (n, d_att)
        dvc = dpre.reshape(-1, e.shape[2])                # (n*C, d_att)
        xb = x[rows, None, :]
        dV = _add(dV, dvc.T @ (xb * a).reshape(dvc.shape[0], -1))
        dcross = (dvc @ V).reshape(-1, *a.shape)          # (n, C, d)
        if inputs:
            dcross_x.append((dcross * a).sum(axis=1))
        dcross_a = _add(dcross_a, (dcross * xb).sum(axis=0))
    dux = np.concatenate(dux)
    dx = dux @ U + np.concatenate(dcross_x) if inputs else None
    return [dx, dwa @ W + dcross_a, dwa.T @ a, dux.T @ x, dV, dv]


def tri_scores(X, anchors, W, U, V, v):
    """All pairwise scores: (N, d_v) inputs x (C, d_v) anchors -> (N, C).

    One tape node over the numpy kernel pair ``_tri_scores_forward`` and
    ``_tri_scores_backward``; the backward returns the gradients of the
    anchors, W, U, V and v, and X's when X requires one.
    """
    X, A = as_tensor(X), as_tensor(anchors)
    if (X.ndim != 2 or A.ndim != 2 or A.shape[0] < 1
            or A.shape[1] != X.shape[1]):
        raise ValueError(f"dimension mismatch: inputs {X.shape} vs anchors "
                         f"{A.shape} (at least one anchor)")
    parents = (X, A) + tuple(as_tensor(t) for t in (W, U, V, v))
    scores, cache = _tri_scores_forward(*(t.data for t in parents))

    def bwd(g):
        return _tri_scores_backward(cache, g, X.requires_grad)

    return ad._node(scores, parents, bwd)


def lcc_weights(X, anchors, score):
    """Soft coefficients gamma (N, C) of inputs X (N, d_v) against (C, d_v)
    anchors: a softmax over each row's scores by the net (W, U, V, v)."""
    return ad.softmax(tri_scores(X, anchors, *score), axis=1)


def reconstruct(gamma, anchors):
    """gamma-weighted combinations (N, d_v) of the (C, d_v) anchors, from
    (N, C) coefficients; each row stays in the anchors' convex hull."""
    gamma, A = as_tensor(gamma), as_tensor(anchors)
    if gamma.shape[-1] != A.shape[0]:
        raise ValueError(f"{gamma.shape[-1]} coefficients for {A.shape[0]} anchors")
    return ad.matmul(gamma, A)


def anchor_sq_dists(r, anchors):
    """Squared distances (N, C) of constant rows r (N, d_v), an array, to
    each (C, d_v) anchor.

    One tape node whose backward gives the anchors' gradient alone; the
    (rows, C, d_v) differences exist one row block at a time, in the forward
    and in the backward.
    """
    A = as_tensor(anchors)
    a = A.data
    blocks = _row_blocks(r.shape[0], a.size)

    def diffs(rows):
        return a[None] - r[rows, None]                    # (n, C, d_v)

    out = np.concatenate([(d * d).sum(axis=2) for d in map(diffs, blocks)])

    def bwd(g):
        dA = None
        for rows in blocks:
            dA = _add(dA, (2.0 * diffs(rows) * g[rows, :, None]).sum(axis=0))
        return (dA,)

    return ad._node(out, (A,), bwd)


def localization_measures(X, anchors, score, l_alpha, l_beta):
    """The localization measure of each row of X (N, d_v): an (N,) tensor,
    for (C, d_v) anchors and the score net (W, U, V, v)."""
    X, anchors = as_tensor(X), as_tensor(anchors)
    gamma = lcc_weights(X, anchors, score)                # (N, C)
    recon = reconstruct(gamma, anchors)                   # (N, d)
    term1 = ad.sqrt(ad.sum_(ad.square(X - recon), axis=1))
    # |gamma| = gamma: a softmax output is never negative (at an exact 0,
    # from underflow, the subgradient is 1). Term 2 reads the reconstruction
    # as a constant: its gradient there, sum_j gamma_j 2 (r - a_j), is 0 when
    # r = gamma A and sum_j gamma_j = 1.
    term2 = ad.sum_(gamma * anchor_sq_dists(recon.data, anchors), axis=1)
    return l_alpha * term1 + l_beta * term2


def mean_localization_measure(X, anchors, score, l_alpha, l_beta):
    """The fitting objective: the mean of ``localization_measures``."""
    return ad.mean(localization_measures(X, anchors, score, l_alpha, l_beta))


def dataset_measure(X, anchors, score, l_alpha, l_beta):
    """The mean measure of a whole dataset as a float, computed without a
    tape one row block at a time, so its memory does not grow with N."""
    X, anchors = _float_array(X), as_tensor(anchors)
    per_row = anchors.shape[0] * max(X.shape[1], score[0].shape[0])
    with no_grad():
        total = sum(float(localization_measures(X[rows], anchors, score, l_alpha,
                                                l_beta).data.sum())
                    for rows in _row_blocks(X.shape[0], per_row))
    return total / X.shape[0]


@dataclass
class AnchorFitResult:
    points: np.ndarray   # (C, d_v) anchors: the set that measures lower
    score: tuple         # the score net's arrays (W, U, V, v), of that set
    final_measure: float    # of the last iterate
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
def fit_anchors(dataset, config: TrainConfig):
    """Fit ``config.n_anchors`` anchors and a score net by minimizing the
    mean measure, with the stage's ``l_alpha``, ``l_beta``, ``fit_*``
    settings and ``seed``.

    Adam with a decaying step size; the decay is what lets the unsquared
    first term settle below any fixed tolerance instead of orbiting the
    optimum at a step-size radius. A ``fit_batch`` of 0, or one not below
    the dataset's size, takes the whole dataset each iteration. The fit
    computes in the dataset's float dtype. NumPy's overflow warnings are
    off: each iteration's ``Optimizer.update``, the epoch loop's step too,
    checks the loss and the updated parameters, without clipping, and
    raises a ``NumericError`` naming the iteration that diverged; the loop
    calls this module's ``backward``, which bench/ rebinds. The
    whole-dataset measures before and after go one row block at a time; the
    fit returns the initial set or the last iterate, whichever measures
    lower (a ``final_measure`` above ``initial_measure``: the initial one).
    """
    dataset = _float_array(dataset)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (N, d) matrix")
    rng = np.random.default_rng(config.seed)
    d_v = dataset.shape[1]  # also the score net's width
    weights = config.l_alpha, config.l_beta

    ps = ParamStore(dataset.dtype)
    anchors = ps.add("anchors/points",
                     init_anchor_points(dataset, config.n_anchors, rng), "anchors")
    score = tuple(ps.add(f"anchors/score/{key}", init, "anchors")
                  for key, init in zip("WUVv", init_score(d_v, d_v, rng)))
    initial = dataset_measure(dataset, anchors, score, *weights)
    start = [t.data.copy() for t in (anchors, *score)]

    opt = Optimizer(config.fit_lr)
    history = []
    n, batch = dataset.shape[0], config.fit_batch
    for it in range(config.fit_iters):
        if batch and batch < n:
            X = dataset[rng.choice(n, size=batch, replace=False)]
        else:
            X = dataset
        loss = mean_localization_measure(X, anchors, score, *weights)
        history.append(float(loss.data))
        opt.update(ps, loss, backward(loss, ps), "fit-anchors", f"iteration {it}")
        opt.lr *= config.fit_lr_decay

    final = dataset_measure(dataset, anchors, score, *weights)
    points, *net = ([t.data.copy() for t in (anchors, *score)]
                    if final <= initial else start)
    return AnchorFitResult(points, tuple(net), final, initial, history)
