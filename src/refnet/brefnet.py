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
from .seq2seq import ModelDims, gates_per_cell, xavier


def query_dim(dims: ModelDims):
    return dims.d_e + 3 * dims.d_h  # e(y) + s + c


def init_b_params(ps: ParamStore, dims: ModelDims, n_anchors, d_a, rng):
    """Add the theta_B group; anchors and regression weights train jointly."""
    d_q, d_e = query_dim(dims), dims.d_e
    ng = gates_per_cell(dims.cell)
    ps.add("bref/anchors", rng.normal(0.0, 0.3, size=(n_anchors, d_a)), "b_ref")
    ps.add("bref/g/W", xavier(rng, d_q, d_a), "b_ref")
    ps.add("bref/g/b", np.zeros(d_a), "b_ref")
    ps.add("bref/score/W", xavier(rng, d_a, d_a), "b_ref")
    ps.add("bref/score/U", xavier(rng, d_a, d_a), "b_ref")
    ps.add("bref/score/V", xavier(rng, d_a, d_a), "b_ref")
    ps.add("bref/score/v", xavier(rng, d_a, 1, (d_a,)), "b_ref")
    ps.add("bref/reg/W", rng.normal(0.0, np.sqrt(1.0 / d_a), size=(n_anchors, d_a, d_e)),
           "b_ref")
    ps.add("bref/reg/b", np.zeros((n_anchors, d_e)), "b_ref")
    ps.add("bref/proj", np.zeros((d_e, ng * dims.d_h)), "b_ref")
    return ps


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
