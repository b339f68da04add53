"""Tape-level references for the bit-for-bit tests.

Training, decoding and anchor fitting record only the fused nodes
(``seq2seq.encoder_recurrence``, ``seq2seq.decoder_recurrence``,
``lcc.tri_scores``, ``lcc.anchor_sq_dists``) and the library's autodiff ops.
The tests compare those nodes with the same computation recorded one op at
a time, and the ops they need live here:

- ``sigmoid``, ``transpose``, ``stack`` and ``concat``, autodiff ops no
  system path records;
- one tape node per library kernel pair: ``recurrent_cell``
  (``_cell_forward`` / ``_cell_backward``), ``attention_weights`` and
  ``weighted_sum`` (together ``additive_attention``), and ``f_s``
  (``brefnet._f_s_forward`` / ``_f_s_backward``);
- ``reference_encoder`` and ``reference_decoder``, the encoder and the
  teacher-forced loss built from those nodes, which the one-node encoder
  and decoder must match bit for bit.

``reference_synthetic_task`` is the per-pair loop of ``numpy`` draws that
``corpus.generate_synthetic_task`` reads in bulk; the two must give the same
pairs.
"""

from __future__ import annotations

import numpy as np

from refnet import autodiff as ad
from refnet import mrefnet, seq2seq
from refnet.autodiff import Tensor, as_tensor
from refnet.brefnet import (F_S_PARAMS, _f_s_backward, _f_s_forward,
                            regression_weight_norms)
from refnet.seq2seq import (_attention_backward, _attention_forward,
                            _cell_backward, _cell_forward,
                            _weighted_sum_backward, _weighted_sum_forward,
                            encode_batch, mask_bias)


# ---------------------------------------------------------------------------
# autodiff ops

def sigmoid(a):
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return ad._node(out, (a,), lambda g: (g * out * (1.0 - out),))


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    return ad._node(np.transpose(a.data, axes), (a,),
                    lambda g: (np.transpose(g, np.argsort(axes)),))


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return ad._node(out, tuple(tensors), bwd)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        slicer = [slice(None)] * g.ndim
        grads, start = [], 0
        for t in tensors:
            stop = start + t.data.shape[axis]
            slicer[axis] = slice(start, stop)
            grads.append(g[tuple(slicer)])
            start = stop
        return tuple(grads)

    return ad._node(out, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# one tape node per kernel pair

def recurrent_cell(x, s_prev, W, U, b, extras=(), mask=None):
    """One step of the gated recurrent update over input x and state s_prev.

    extras is a sequence of (vector, projection) pairs; each projection maps
    its vector into the same gate pre-activation block as W. mask, a (B, 1)
    array of zeros and ones or None, keeps s_prev in the rows where it is 0
    (padding): the step returns out * mask + s_prev * (1 - mask). The step is
    a single tape node (Appleyard et al. 2016, arXiv:1604.01946) over the
    kernel pair ``_cell_forward`` / ``_cell_backward``, which the decoder's
    ``decoder_step`` runs too; the backward returns the gradients of x,
    s_prev, W, U, b and of every extra pair.
    """
    x, s_prev, W, U, b = (ad.as_tensor(t) for t in (x, s_prev, W, U, b))
    pairs = [(ad.as_tensor(vec), ad.as_tensor(proj)) for vec, proj in extras]
    parents = (x, s_prev, W, U, b) + tuple(t for pair in pairs for t in pair)
    state, cache = _cell_forward(x.data, s_prev.data, W.data, U.data, b.data,
                                 [(vec.data, proj.data) for vec, proj in pairs],
                                 mask)

    def bwd(g):
        return _cell_backward(g, cache, any(t.requires_grad for t in (W, U, b)))

    return ad._node(state, parents, bwd)


def attention_weights(q, keys, v, mask=None):
    """alpha_bi = softmax_i(v^T tanh(q_b + k_ji)), one tape node over the
    kernel pair ``_attention_forward`` / ``_attention_backward``, in its
    row groups; mask (n, m) zeroes the weight of padded positions. The
    backward returns the gradients of q, keys and v.
    """
    q, keys, v = (ad.as_tensor(t) for t in (q, keys, v))
    alpha, e = _attention_forward(q.data, keys.data, v.data, mask_bias(mask))

    def bwd(grad):
        return _attention_backward(grad, alpha, e, v.data, keys.shape[0],
                                   keys.requires_grad or v.requires_grad)

    return ad._node(alpha, (q, keys, v), bwd)


def weighted_sum(alpha, values):
    """c_b = sum_i alpha_bi values_ji, one tape node: alpha (B, m) against
    values (n, m, d) in the row groups of ``attention_weights`` -- a
    batched matmul per group, or one matmul when n = 1 shares the values
    with every row."""
    alpha, values = ad.as_tensor(alpha), ad.as_tensor(values)
    out = _weighted_sum_forward(alpha.data, values.data)

    def bwd(grad):
        return _weighted_sum_backward(grad, alpha.data, values.data,
                                      values.requires_grad)

    return ad._node(out, (alpha, values), bwd)


def additive_attention(q, keys, values, v, mask=None):
    """Additive attention (Bahdanau et al. 2015, arXiv:1409.0473) as two tape
    nodes: ``attention_weights`` gives alpha, ``weighted_sum`` the context.
    keys and values are (n, m, .), one set per group of B // n query rows
    (n = B: per row; n = 1: shared by every row). Returns (alpha, c)."""
    alpha = attention_weights(q, keys, v, mask)
    return alpha, weighted_sum(alpha, values)


def f_s(q, params):
    """Anchor-coded regression estimate of the current target embedding.

    One tape node over the kernel pair ``_f_s_forward`` / ``_f_s_backward``.
    Inside it: the projection G = tanh(q @ g/W + g/b) (B, d_a), the
    tri-nonlinear scores of G against the anchors (the kernel
    ``lcc.tri_scores`` runs), the softmax coefficients gamma (B, C), and
    sum_j gamma_j (G W_j + b_j) as one matmul over the flattened outer
    product gamma (x) G, plus gamma @ b: no loop over anchors. The backward
    returns the gradients of q and of every parameter in ``F_S_PARAMS``.
    """
    q = as_tensor(q)
    parents = (q,) + tuple(params[k] for k in F_S_PARAMS)
    out, cache = _f_s_forward(q.data, [t.data for t in parents[1:]])

    return ad._node(out, parents, lambda g: _f_s_backward(g, cache))


# ---------------------------------------------------------------------------
# the encoder and the teacher-forced loss, one node per op and step

def reference_encoder(params, dims, src, src_lens, training=False, rng=None,
                      drop_emb=0.0):
    """The encoder as one tape node per position slice and per step and
    direction (a row-masked ``recurrent_cell``), with the states stacked and
    concatenated: the reference the one-node ``encoder_recurrence`` must
    match."""
    B, m = src.shape
    emb = ad.take_rows(params["enc/src_emb"], src.reshape(-1))
    dtype = emb.data.dtype
    mask = (np.arange(m)[None, :] < np.asarray(src_lens)[:, None]).astype(dtype)
    emb = ad.reshape(ad.dropout(emb, drop_emb, training, rng), (B, m, dims.d_e))
    xs = [emb[:, t, :] for t in range(m)]
    live = [None if mask[:, t].all() else mask[:, t: t + 1] for t in range(m)]

    def run(direction, steps):
        W, U, b = (params[f"enc/{direction}/{k}"] for k in "WUb")
        s = Tensor(np.zeros((B, dims.d_h), dtype))
        out = [None] * m
        for t in steps:
            s = recurrent_cell(xs[t], s, W, U, b, mask=live[t])
            out[t] = s
        return out

    h_fwd = stack(run("fwd", range(m)), axis=1)
    h_bwd = stack(run("bwd", range(m - 1, -1, -1)), axis=1)
    return concat([h_fwd, h_bwd], axis=2)


def reference_decoder(model, batch, training=False, rng=None):
    """The teacher-forced loss of ``model`` with the decoder composed of one
    tape node per op and step: the query matmul, ``additive_attention``'s
    two nodes, the extra input's nodes, the input concat and
    ``recurrent_cell``, with the states, contexts and extra vectors
    concatenated for the readout and the hinge loss. It is the reference the
    one-node ``decoder_recurrence`` must match bit for bit. Returns (joint
    loss, states, contexts, b_ref's predictions or None), the last three
    ((T-1)*B, .) rows time-major."""
    params, dims, kind = model.params, model.dims, model.kind
    h, mask = encode_batch(params, dims, batch.src, batch.src_lens, training,
                           rng, model.drop_emb)
    h_proj = seq2seq.attention_proj(params, h)
    s = seq2seq.initial_state(params, h, mask)
    memory = (mrefnet.anchor_memory(params[mrefnet.ANCHOR_KEY], params)
              if kind == "m_ref" else None)
    B, T = batch.tgt.shape
    emb_clean = ad.reshape(ad.take_rows(params["dec/tgt_emb"],
                                        batch.tgt.reshape(-1)), (B, T, dims.d_e))
    emb_in = ad.dropout(emb_clean, model.drop_emb, training, rng)
    states, contexts, vecs = [], [], []
    for t in range(T - 1):
        q = ad.matmul(s, params["dec/att/W"])
        _, c = additive_attention(q, h_proj, h, params["dec/att/v"], mask)
        extras = []
        if kind == "m_ref":
            q_g = (ad.matmul(s, params["mref/att/W"])
                   + ad.matmul(c, params["mref/att/U"]))
            _, c_g = additive_attention(q_g, *memory, params["mref/att/v"])
            extras = [(c_g, params["mref/proj"])]
        if kind == "b_ref":
            query = concat([emb_clean[:, t, :], s, c], axis=1)
            extras = [(f_s(query, params), params["bref/proj"])]
        vecs += [vec for vec, _ in extras]
        x = concat([emb_in[:, t, :], c], axis=1)
        s = recurrent_cell(x, s, params["dec/cell/W"], params["dec/cell/U"],
                           params["dec/cell/b"], extras)
        states.append(s)
        contexts.append(c)
    e_prev = transpose(emb_in[:, :T - 1, :], (1, 0, 2))
    readout_in = concat([ad.reshape(e_prev, ((T - 1) * B, dims.d_e)),
                            concat(states, axis=0), concat(contexts, axis=0)],
                           axis=1)
    logits = seq2seq.readout(params, readout_in, training, rng, model.drop_out)
    gold, weights = seq2seq.gold_targets(batch.tgt, logits.data.dtype)
    picked = ad.take_per_row(ad.log_softmax(logits, axis=1), gold)
    n_tokens = float(weights.sum())
    joint = ad.sum_(picked * weights) * (-1.0 / n_tokens)
    vecs = concat(vecs, axis=0) if kind == "b_ref" else None
    if kind == "b_ref":
        diff = ad.take_rows(params["dec/tgt_emb"], gold) - vecs
        res_sum = ad.sum_(ad.sum_(ad.square(diff), axis=1) * weights)
        reg = ad.sum_(regression_weight_norms(params))
        l_m_mean = res_sum * (1.0 / B) + model.lam_m * reg
        joint = joint * (n_tokens / B) + model.lam * l_m_mean
    return joint, concat(states, axis=0), concat(contexts, axis=0), vecs


# ---------------------------------------------------------------------------
# the synthetic corpus, one draw call per length and per sentence

def reference_synthetic_task(kind, vocab_size, n_pairs, len_range, seed):
    """The pairs of ``generate_synthetic_task``, drawn the way its contract
    states: the permutation, then per pair ``integers(lo, hi + 1)`` and
    ``integers(0, vocab_size, size=m)``."""
    lo, hi = len_range
    rng = np.random.default_rng(seed)
    perm = rng.permutation(vocab_size)
    pairs = []
    for _ in range(n_pairs):
        m = int(rng.integers(lo, hi + 1))
        src_ids = rng.integers(0, vocab_size, size=m)
        src = [f"t{i}" for i in src_ids]
        if kind == "copy":
            tgt = list(src)
        elif kind == "reverse":
            tgt = list(reversed(src))
        else:
            tgt = [f"t{perm[i]}" for i in reversed(src_ids)]
        pairs.append((src, tgt))
    return pairs
