"""Bilingual reference network.

The decoder's next-word problem is recast as regression: a query
q_t = [e(y_{t-1}); s_{t-1}; c_t] is mapped towards the embedding of the
word being produced. The regression has anchor-dependent weights,

    f_s(q_t) = sum_j gamma_j ( W_vj g(q_t) + b_vj ),

where g is a tanh-affine map to anchor size and gamma comes from the
tri-nonlinear score between g(q_t) and each anchor. (The raw query and the
anchors have different dimensions, so the element-wise product inside the
score is taken against g(q_t); see the README notes.) The prediction is fed
to the decoder as an extra input, and f_s itself is trained with a hinge
loss against the gold embeddings plus a weight-norm penalty.

f_s is a kernel pair on arrays (``_f_s_forward`` / ``_f_s_backward``);
``query_regression`` wraps it as b_ref's ``seq2seq.ExtraInput``, which
the teacher-forced decoder node, decoding and the gradient checks run.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .lcc import _tri_scores_backward, _tri_scores_forward
from .params import ParamStore
from .seq2seq import GATES, ModelDims, add_params


def query_dim(dims: ModelDims):
    return dims.d_e + 3 * dims.d_h  # e(y) + s + c


def b_schema(dims: ModelDims, n_anchors, d_a):
    """(name, shape, group, init) of the theta_B group."""
    d_q, d_e = query_dim(dims), dims.d_e
    return [
        ("bref/anchors", (n_anchors, d_a), "b_ref", ("normal", 0.3)),
        ("bref/g/W", (d_q, d_a), "b_ref", ("xavier", d_q, d_a)),
        ("bref/g/b", (d_a,), "b_ref", ("zeros",)),
        ("bref/score/W", (d_a, d_a), "b_ref", ("xavier", d_a, d_a)),
        ("bref/score/U", (d_a, d_a), "b_ref", ("xavier", d_a, d_a)),
        ("bref/score/V", (d_a, d_a), "b_ref", ("xavier", d_a, d_a)),
        ("bref/score/v", (d_a,), "b_ref", ("xavier", d_a, 1)),
        ("bref/reg/W", (n_anchors, d_a, d_e), "b_ref", ("normal", np.sqrt(1.0 / d_a))),
        ("bref/reg/b", (n_anchors, d_e), "b_ref", ("zeros",)),
        ("bref/proj", (d_e, GATES * dims.d_h), "b_ref", ("zeros",))]


def init_b_params(ps: ParamStore, dims: ModelDims, n_anchors, d_a, rng):
    """Add the theta_B group; anchors and regression weights train jointly."""
    return add_params(ps, b_schema(dims, n_anchors, d_a), rng)


def build_query(e_prev, s_prev, c_t):
    """q_t = [e(y_{t-1}); s_{t-1}; c_t] for a batch of arrays: (B, d_e + 3*d_h)."""
    parts = [np.asarray(p) for p in (e_prev, s_prev, c_t)]
    if any(p.ndim != 2 for p in parts):
        raise ValueError("query components must all be (B, d) batches")
    return np.concatenate(parts, axis=1)


def regression_weight_norms(params):
    """Squared Frobenius norm of each per-anchor weight matrix: (|C|,)."""
    return ad.sum_(ad.square(params["bref/reg/W"]), axis=(1, 2))


# the theta_B parameters f_s reads, in the order its kernels take them
F_S_PARAMS = ("bref/g/W", "bref/g/b", "bref/anchors", "bref/score/W",
              "bref/score/U", "bref/score/V", "bref/score/v", "bref/reg/W",
              "bref/reg/b")


def _f_s_forward(q, weights):
    """The anchor-coded regression f_s on the query q (B, d_q) and the
    arrays of ``F_S_PARAMS``: the estimate (B, d_e) and the cache
    ``_f_s_backward`` reads.

    The projection G = tanh(q @ g/W + g/b) (B, d_a), the tri-nonlinear
    scores of G against the anchors (the kernel ``lcc.tri_scores`` runs),
    the softmax coefficients gamma (B, C), and sum_j gamma_j (G W_j + b_j)
    as one matmul over the flattened outer product gamma (x) G, plus
    gamma @ b: no loop over anchors."""
    gW, gb, anchors, sW, sU, sV, sv, rW, rb = weights
    G = np.tanh(q @ gW + gb)                                      # (B, d_a)
    scores, scored = _tri_scores_forward(G, anchors, sW, sU, sV, sv)
    gamma = ad._softmax_values(scores, axis=1)                    # (B, C)
    (B, d_a), C = G.shape, gamma.shape[1]
    coded = (gamma[:, :, None] * G[:, None, :]).reshape(B, C * d_a)
    rW_flat = rW.reshape(C * d_a, -1)
    out = coded @ rW_flat + gamma @ rb                            # (B, d_e)
    return out, (q, weights, G, scored, gamma, coded)


def _f_s_backward(g, cache):
    """Gradients of q and of each ``F_S_PARAMS`` weight from the estimate's
    gradient g."""
    q, (gW, gb, anchors, sW, sU, sV, sv, rW, rb), G, scored, gamma, coded = cache
    (B, d_a), C = G.shape, gamma.shape[1]
    rW_flat = rW.reshape(C * d_a, -1)
    dcoded = (g @ rW_flat.T).reshape(B, C, d_a)
    dgamma = g @ rb.T + (dcoded * G[:, None, :]).sum(axis=2)
    dG, *d_score = _tri_scores_backward(
        scored, ad._softmax_grad(gamma, dgamma, axis=1), True)
    dpre = (dG + (dcoded * gamma[:, :, None]).sum(axis=1)) * (1.0 - G * G)
    return [dpre @ gW.T, q.T @ dpre, dpre.sum(axis=0), *d_score,
            (coded.T @ g).reshape(rW.shape), gamma.T @ g]


def query_regression(e_prev, s_prev, c_t, weights):
    """b_ref's extra decoder input on arrays: f_s on the query
    [e_prev; s_prev; c_t], with ``weights`` the arrays of ``F_S_PARAMS``.
    Returns the estimate (B, d_e) and the cache
    ``query_regression_backward`` reads."""
    out, cache = _f_s_forward(build_query(e_prev, s_prev, c_t), weights)
    return out, (cache, e_prev.shape[1], s_prev.shape[1])


def query_regression_backward(g, cache):
    """Gradients of e_prev, s_prev, c_t and of each ``F_S_PARAMS`` weight
    from the estimate's gradient g."""
    f_cache, d_e, d_h = cache
    dq, *grads = _f_s_backward(g, f_cache)
    return [dq[:, :d_e], dq[:, d_e:d_e + d_h], dq[:, d_e + d_h:], *grads]
