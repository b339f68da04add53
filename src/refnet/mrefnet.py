"""Monolingual reference network.

The training corpus is compressed into a fitted set of anchor points over
mean-pooled encoder annotations. At each decoder step an attention over
the (frozen) anchors produces a global context

    c_t^G = sum_j softmax_j( v^T tanh(W s_{t-1} + U c_t + V v_j) ) * v_j

which enters the decoder state update as an extra input. The extra-input
projection starts at zero, so an untuned model reproduces the baseline.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .corpus import make_batches
from .params import ParamStore
from .seq2seq import (GATES, ModelDims, _attention_backward, _attention_forward,
                      _weighted_sum_backward, _weighted_sum_forward, add_params,
                      encode_batch)

ANCHOR_KEY = "anchors/m"


def m_schema(dims: ModelDims):
    """(name, shape, group, init) of the theta_M group: a fresh anchor
    attention and a zero extra-input projection."""
    d_h, d_att = dims.d_h, dims.d_att
    return [("mref/att/W", (d_h, d_att), "m_ref", ("xavier", d_h, d_att)),
            ("mref/att/U", (2 * d_h, d_att), "m_ref", ("xavier", 2 * d_h, d_att)),
            ("mref/att/V", (2 * d_h, d_att), "m_ref", ("xavier", 2 * d_h, d_att)),
            ("mref/att/v", (d_att,), "m_ref", ("xavier", 2 * d_h, 1)),
            ("mref/proj", (2 * d_h, GATES * d_h), "m_ref", ("zeros",))]


def init_m_params(ps: ParamStore, dims: ModelDims, rng):
    """Add the theta_M group: fresh anchor attention + a zero extra projection."""
    return add_params(ps, m_schema(dims), rng)


def collect_sentence_reprs(params, dims: ModelDims, corpus, vocab_src, vocab_tgt,
                           batch_size=64):
    """h_M for every sentence, computed with the (frozen) encoder, one pass,
    in the encoder's dtype."""
    reprs = np.empty((len(corpus), 2 * dims.d_h), params["enc/src_emb"].data.dtype)
    row = 0
    with no_grad():
        for batch in make_batches(corpus, batch_size, vocab_src, vocab_tgt):
            h, mask = encode_batch(params, dims, batch.src, batch.src_lens)
            counts = mask.sum(axis=1, keepdims=True)
            pooled = (h.data * mask[:, :, None]).sum(axis=1) / counts
            reprs[row: row + len(batch)] = pooled
            row += len(batch)
    return reprs


def anchor_memory(anchor_points, params):
    """The anchors as attention memory shared by every row: keys A V and
    values A, each (1, C, .). Neither changes within a batch, so a training
    batch or a decode chunk computes them once for all its steps."""
    A = anchor_points if isinstance(anchor_points, Tensor) else Tensor(anchor_points)
    if A.shape[0] < 1:
        raise ValueError("need at least one anchor")
    va = ad.matmul(A, params["mref/att/V"])           # (C, d_att)
    return ad.reshape(va, (1,) + va.shape), ad.reshape(A, (1,) + A.shape)


# the anchor-attention parameters m_ref's extra input reads; the anchor
# keys and values of ``anchor_memory`` follow them
CONTEXT_PARAMS = ("mref/att/W", "mref/att/U", "mref/att/v")


def global_context(e_prev, s_prev, c_t, weights):
    """m_ref's extra decoder input on arrays: attention over the anchors,
    batched over rows. weights are the arrays of ``CONTEXT_PARAMS`` and the
    ``anchor_memory`` keys and values; the query reads the state and the
    context, not e_prev. Returns c_G (B, 2*d_h) and the cache
    ``global_context_backward`` reads, alpha_G (B, C) first."""
    W, U, v, keys, values = weights
    q = s_prev @ W + c_t @ U
    alpha, e = _attention_forward(q, keys, v)
    return _weighted_sum_forward(alpha, values), (alpha, e, s_prev, c_t, weights)


def global_context_backward(g, cache):
    """Gradients of e_prev (None: the query does not read it), s_prev, c_t,
    W, U, v, the keys and the values from the gradient g of c_G."""
    alpha, e, s_prev, c_t, (W, U, v, keys, values) = cache
    d_alpha, d_values = _weighted_sum_backward(g, alpha, values, True)
    dq, dk, dv = _attention_backward(d_alpha, alpha, e, v, 1, True)
    return [None, dq @ W.T, dq @ U.T, s_prev.T @ dq, c_t.T @ dq, dv, dk, d_values]
