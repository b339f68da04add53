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
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor
from .lcc import AnchorSet, ScoreParams, lcc_weights
from .params import ParamStore
from .seq2seq import ModelDims, add_params, gates_per_cell


def query_dim(dims: ModelDims):
    return dims.d_e + 3 * dims.d_h  # e(y) + s + c


def b_schema(dims: ModelDims, n_anchors, d_a):
    """(name, shape, group, init) of the theta_B group."""
    d_q, d_e = query_dim(dims), dims.d_e
    ng = gates_per_cell(dims.cell)
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
        ("bref/proj", (d_e, ng * dims.d_h), "b_ref", ("zeros",))]


def init_b_params(ps: ParamStore, dims: ModelDims, n_anchors, d_a, rng):
    """Add the theta_B group; anchors and regression weights train jointly."""
    return add_params(ps, b_schema(dims, n_anchors, d_a), rng)


def build_query(e_prev, s_prev, c_t):
    """q_t = [e(y_{t-1}); s_{t-1}; c_t] for a batch: (B, d_e + 3*d_h)."""
    parts = [as_tensor(p) for p in (e_prev, s_prev, c_t)]
    if any(p.ndim != 2 for p in parts):
        raise ValueError("query components must all be (B, d) batches")
    return ad.concat(parts, axis=1)


def g_transform(q, params):
    """Anchor-size projection of the query: tanh of an affine map, (B, d_a)."""
    return ad.tanh(ad.matmul(q, params["bref/g/W"]) + params["bref/g/b"])


def regression_weight_norms(params):
    """Squared Frobenius norm of each per-anchor weight matrix: (|C|,)."""
    return ad.sum_(ad.square(params["bref/reg/W"]), axis=(1, 2))


def anchor_gamma(G, params):
    """Anchor coefficients gamma (B, |C|) of projected queries G = g(q)."""
    sp = ScoreParams(*(params[f"bref/score/{k}"] for k in "WUVv"))
    return lcc_weights(G, AnchorSet(params["bref/anchors"]), sp)


def f_s(q, params):
    """Anchor-coded regression estimate of the current target embedding.

    sum_j gamma_j (G W_j + b_j) is one matmul over the flattened outer
    product gamma (x) G, plus gamma @ b: no loop over anchors.
    """
    G = g_transform(q, params)                                    # (B, d_a)
    gamma = anchor_gamma(G, params)                               # (B, C)
    (B, d_a), C = G.shape, gamma.shape[1]
    coded = ad.reshape(gamma, (B, C, 1)) * ad.reshape(G, (B, 1, d_a))
    W = ad.reshape(params["bref/reg/W"], (C * d_a, -1))
    return (ad.matmul(ad.reshape(coded, (B, C * d_a)), W)
            + ad.matmul(gamma, params["bref/reg/b"]))             # (B, d_e)
