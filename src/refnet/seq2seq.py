"""Baseline attention encoder-decoder.

Encoder: bi-directional gated recurrent net; each source annotation h_i is
the concatenation of the forward and backward states at position i. It is
one tape node, ``encoder_recurrence``, which advances both directions
together.
Attention: alpha_ti = softmax_i( v_a^T tanh(W_a s_{t-1} + U_a h_i) ), and
the context c_t = sum_i alpha_ti h_i. Decoder state update:
s_t = f_d(e(y_{t-1}), s_{t-1}, c_t, *extras) with a gated cell; each extra
context vector enters the gate pre-activations through its own projection
so that a zero projection reproduces the baseline update bit for bit.
Output: p(y_t) = softmax(W_v tanh(W_o [e(y_{t-1}); s_t; c_t] + b_o) + b_v).

The decoder has one step kernel on arrays, ``decoder_step``: the query
projection, the masked additive attention, the variant's extra input (an
``ExtraInput`` kernel pair) and the gated update. Decoding calls it, and
under teacher forcing the whole decoder is one tape node,
``decoder_recurrence``, a loop of it with a hand-written
backward-through-time. The gated equations, the attention and the cell
exist once, as numpy kernel pairs (``_gate_forward`` / ``_gate_backward``,
``_attention_forward`` / ``_attention_backward``, ``_weighted_sum_*``,
``_cell_forward`` / ``_cell_backward``) that the nodes and the step kernel
share. Training, decoding and the gradient checks record only those nodes;
the tests' reference module (``tests/reference.py``) wraps each kernel
pair in a tape node of its own and records the decoder and the encoder one
node per op and step, to compare with them bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import Batch, BOS, EOS, PAD
from .params import ParamStore

NEG_BIG = 1e9  # additive mask; exp(-1e9) underflows to exactly 0
GATES = 3  # gate blocks per cell: reset, update and candidate


@dataclass
class ModelDims:
    """Vocabulary and layer sizes; every recurrent cell is the gated one."""

    vocab_src: int
    vocab_tgt: int
    d_e: int = 32
    d_h: int = 64
    d_att: int = 0   # 0 means "use d_h"
    d_out: int = 0   # 0 means "use d_e"

    def __post_init__(self):
        if self.d_att == 0:
            self.d_att = self.d_h
        if self.d_out == 0:
            self.d_out = self.d_e
        for name in ("vocab_src", "vocab_tgt", "d_e", "d_h", "d_att", "d_out"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def to_dict(self):
        return {"vocab_src": self.vocab_src, "vocab_tgt": self.vocab_tgt,
                "d_e": self.d_e, "d_h": self.d_h, "d_att": self.d_att,
                "d_out": self.d_out}


def xavier(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def add_params(ps: ParamStore, schema, rng) -> ParamStore:
    """Add every (name, shape, group, init) entry of ``schema`` to ps, drawing
    in table order; init is ("normal", std), ("xavier", fan_in, fan_out) or
    ("zeros",)."""
    for name, shape, group, (rule, *args) in schema:
        if rule == "normal":
            data = rng.normal(0.0, args[0], size=shape)
        elif rule == "xavier":
            data = xavier(rng, *args, shape)
        else:
            data = np.zeros(shape)
        ps.add(name, data, group)
    return ps


def baseline_schema(dims: ModelDims):
    """(name, shape, group, init) of every baseline parameter: the encoder
    group (theta_E) and the decoder group (theta_D, incl. attention)."""
    d_e, d_h, d_att, d_out = dims.d_e, dims.d_h, dims.d_att, dims.d_out
    d_g = GATES * d_h
    table = [("enc/src_emb", (dims.vocab_src, d_e), "encoder", ("normal", 0.1))]
    for direction in ("fwd", "bwd"):
        table += [
            (f"enc/{direction}/W", (d_e, d_g), "encoder", ("xavier", d_e, d_h)),
            (f"enc/{direction}/U", (d_h, d_g), "encoder", ("xavier", d_h, d_h)),
            (f"enc/{direction}/b", (d_g,), "encoder", ("zeros",))]
    d_x = d_e + 2 * d_h
    return table + [
        ("dec/tgt_emb", (dims.vocab_tgt, d_e), "decoder", ("normal", 0.1)),
        ("dec/att/W", (d_h, d_att), "decoder", ("xavier", d_h, d_att)),
        ("dec/att/U", (2 * d_h, d_att), "decoder", ("xavier", 2 * d_h, d_att)),
        ("dec/att/v", (d_att,), "decoder", ("xavier", 2 * d_h, 1)),
        ("dec/init/W", (2 * d_h, d_h), "decoder", ("xavier", 2 * d_h, d_h)),
        ("dec/init/b", (d_h,), "decoder", ("zeros",)),
        ("dec/cell/W", (d_x, d_g), "decoder", ("xavier", d_x, d_h)),
        ("dec/cell/U", (d_h, d_g), "decoder", ("xavier", d_h, d_h)),
        ("dec/cell/b", (d_g,), "decoder", ("zeros",)),
        ("dec/out/W", (d_e + 3 * d_h, d_out), "decoder",
         ("xavier", d_e + 3 * d_h, d_out)),
        ("dec/out/b", (d_out,), "decoder", ("zeros",)),
        ("dec/out/Wv", (d_out, dims.vocab_tgt), "decoder",
         ("xavier", d_out, dims.vocab_tgt)),
        ("dec/out/bv", (dims.vocab_tgt,), "decoder", ("zeros",))]


def init_baseline_params(dims: ModelDims, rng) -> ParamStore:
    """Encoder group (theta_E) and decoder group (theta_D, incl. attention)."""
    return add_params(ParamStore(), baseline_schema(dims), rng)


# ---------------------------------------------------------------------------
# recurrent cell

def _gate_forward(gx, gs, s_prev, mask=None):
    """The gated update from its pre-activations gx = x W + b (+ extras) and
    gs = s_prev U, on any leading shape with the gate blocks on the last
    axis. mask, None or 0/1 floats broadcasting against s_prev, keeps
    s_prev where it is 0: the state is out * mask + s_prev * (1 - mask).
    Returns the state and the cache ``_gate_backward`` reads."""
    d_h = s_prev.shape[-1]
    rz = 1.0 / (1.0 + np.exp(-(gx[..., :2 * d_h] + gs[..., :2 * d_h])))
    z = rz[..., d_h:]
    sn = gs[..., 2 * d_h:]
    n = np.tanh(gx[..., 2 * d_h:] + rz[..., :d_h] * sn)
    out = (1.0 - z) * n + z * s_prev
    state = out if mask is None else out * mask + s_prev * (1.0 - mask)
    return state, (s_prev, mask, rz, n, sn)


def _gate_backward(g, cache):
    """From the gradient g of a ``_gate_forward`` state: the gradients of gx
    and gs, the direct gradient of s_prev through the update gate, and the
    part of g the mask kept on s_prev (None without a mask). The gradient
    of s_prev is (dgs U^T + direct) + kept, summed in that order."""
    s_prev, mask, rz, n, sn = cache
    g_keep = None
    if mask is not None:
        g, g_keep = g * mask, g * (1.0 - mask)
    d_h = n.shape[-1]
    r, z = rz[..., :d_h], rz[..., d_h:]
    dan = g * (1.0 - z) * (1.0 - n * n)
    drz = np.concatenate([dan * sn, g * s_prev - g * n], axis=-1)
    drz = drz * rz * (1.0 - rz)
    return (np.concatenate([drz, dan], axis=-1),
            np.concatenate([drz, dan * r], axis=-1), g * z, g_keep)


def _cell_forward(x, s_prev, W, U, b, extras=(), mask=None):
    """The gated update on arrays: the gate pre-activations from one matmul
    per input (x W + b, then each extra (vector, projection) pair's
    vector @ projection) and ``_gate_forward``. Returns the state and the
    cache ``_cell_backward`` reads."""
    gx = x @ W + b
    for vec, proj in extras:
        gx = gx + vec @ proj
    state, gate = _gate_forward(gx, s_prev @ U, s_prev, mask)
    return state, (x, W, U, extras, gate)


def _cell_backward(g, cache, needs):
    """Gradients of x, s_prev, W, U, b and of each extra pair's vector and
    projection, in that order, from the gradient g of a ``_cell_forward``
    state; None for each whose entry of ``needs`` is false."""
    x, W, U, extras, gate = cache
    dgx, dgs, g_z, g_keep = _gate_backward(g, gate)
    grads = [dgx @ W.T if needs[0] else None, None,
             x.T @ dgx if needs[2] else None,
             gate[0].T @ dgs if needs[3] else None,
             dgx.sum(axis=0) if needs[4] else None]
    if needs[1]:
        grads[1] = dgs @ U.T + g_z
        if g_keep is not None:
            grads[1] += g_keep
    for i, (vec, proj) in enumerate(extras):
        grads.append(dgx @ proj.T if needs[5 + 2 * i] else None)
        grads.append(vec.T @ dgx if needs[6 + 2 * i] else None)
    return grads


def encoder_recurrence(emb, mask, fwd, bwd):
    """Both directions of the bidirectional encoder as one tape node.

    emb is (B, m, d_e), mask (B, m) 0/1 floats (1 on true positions) and
    fwd, bwd the (W, U, b) of each direction. Returns h (B, m, 2*d_h): the
    forward state at position i, then the backward one. A direction keeps
    its state across a padded position (the row mask of ``_gate_forward``).

    The two directions advance together as one (2, B, .) stack, time-major
    (Appleyard et al. 2016, arXiv:1604.01946): step k reads position k
    forward and position m-1-k backward. The input pre-activations x W of
    every position come from one matmul per direction, plus the bias; each
    step's s U is one batched matmul, and the shared gate kernel does the
    rest. The row-mask blend runs only at steps where a direction has a
    padded row. The hand-written backward-through-time returns the
    gradients of emb and of each direction's W, U and b. It sums the weight
    gradients per step, from the last step to the first, and takes each
    step's embedding gradient from one 2-D matmul per direction, so every
    value and gradient has the bits of the same recurrence built from one
    tape node per step and direction (``reference_encoder`` in
    ``tests/reference.py``).
    """
    emb = ad.as_tensor(emb)
    weights = tuple(ad.as_tensor(t) for t in (*fwd, *bwd))
    (W_f, U_f, b_f), (W_b, U_b, b_b) = weights[:3], weights[3:]
    B, m, _ = emb.shape
    d_h = U_f.shape[0]
    dtype = np.result_type(emb.data, *(t.data for t in weights))
    X = emb.data.transpose(1, 0, 2)                             # (m, B, d_e)
    gx = np.empty((m, 2, B, GATES * d_h), dtype)
    np.matmul(X, W_f.data, out=gx[:, 0])
    np.matmul(X[::-1], W_b.data, out=gx[:, 1])
    gx += np.stack([b_f.data, b_b.data])[:, None, :]
    U = np.stack([U_f.data, U_b.data])                          # (2, d_h, 3 d_h)
    live = np.asarray(mask, dtype).T                            # (m, B)
    steps = np.stack([live, live[::-1]], axis=1)[..., None]     # (m, 2, B, 1)

    S = np.zeros((m + 1, 2, B, d_h), dtype)  # S[k + 1]: the states after step k
    caches = []
    for k in range(m):
        blend = None if steps[k].all() else steps[k]
        S[k + 1], cache = _gate_forward(gx[k], S[k] @ U, S[k], blend)
        caches.append(cache)
    h = np.empty((B, m, 2, d_h), dtype)
    h[:, :, 0] = S[1:, 0].transpose(1, 0, 2)
    h[:, :, 1] = S[:0:-1, 1].transpose(1, 0, 2)

    def backward_through_time(g):
        g = g.reshape(B, m, 2, d_h)
        dS = np.empty((m, 2, B, d_h), g.dtype)
        dS[:, 0] = g[:, :, 0].transpose(1, 0, 2)
        dS[::-1, 1] = g[:, :, 1].transpose(1, 0, 2)
        d_emb = np.zeros_like(emb.data) if emb.requires_grad else None
        want_weights = any(t.requires_grad for t in weights)
        dW, dU, db = [None, None], None, None
        carry = None
        for k in range(m - 1, -1, -1):
            g_k = dS[k] if carry is None else dS[k] + carry
            dgx, dgs, g_z, g_keep = _gate_backward(g_k, caches[k])
            if k:
                carry = dgs @ U.transpose(0, 2, 1) + g_z
                if g_keep is not None:
                    carry += g_keep
            if want_weights:
                dU = ad._add(dU, S[k].transpose(0, 2, 1) @ dgs)
                db = ad._add(db, dgx.sum(axis=1))
            for d, pos in ((0, k), (1, m - 1 - k)):
                x = emb.data[:, pos]
                if want_weights:
                    dW[d] = ad._add(dW[d], x.T @ dgx[d])
                if d_emb is not None:
                    d_emb[:, pos] += dgx[d] @ weights[3 * d].data.T
        if not want_weights:
            return (d_emb,) + (None,) * 6
        return (d_emb, dW[0], dU[0], db[0], dW[1], dU[1], db[1])

    return ad._node(h.reshape(B, m, 2 * d_h), (emb,) + weights,
                    backward_through_time)


# ---------------------------------------------------------------------------
# additive attention

def mask_bias(mask):
    """The additive attention mask of a 0/1 position mask: 0 on true
    positions, -NEG_BIG on padding; None stays None."""
    return None if mask is None else (mask - 1.0) * NEG_BIG


def _attention_forward(q, keys, v, bias=None):
    """alpha_bi = softmax_i(v^T tanh(q_b + k_ji)) on arrays, with the mask
    as its additive ``mask_bias`` (n, m): alpha (B, m) and the tanh
    activations e (B, m, d) ``_attention_backward`` reads.

    q is (B, d) and keys (n, m, d), where n divides B: the rows come in n
    groups of B // n, and every row of group j attends over keys[j]. n = B
    gives each row its own keys, n = 1 shares one key set by every row, and
    anything between broadcasts a sentence's keys over its group of
    hypothesis rows without copying them (decoding only)."""
    (B, d), (n, m, _) = q.shape, keys.shape
    if B % n:
        raise ValueError(f"{B} query rows do not split into {n} key groups")
    g = B // n
    e = (q.reshape(n, g, 1, d) + keys[:, None]).reshape(B, m, d)
    np.tanh(e, out=e)  # in place: one (B, m, d) allocation, not two
    # e @ v stays on the 3-D array: e.reshape(B * m, d) @ v differs in its
    # last bits at 106 of 225 shapes tried (d 4 and 16 among them), and
    # trained weights drift from there
    scores = e @ v                                          # (B, m)
    if bias is not None:
        scores = (scores.reshape(n, g, m) + bias[:, None, :]).reshape(B, m)
    return ad._softmax_values(scores, axis=1), e


def _attention_backward(grad, alpha, e, v, n, needs):
    """Gradients of q, keys and v from the gradient of alpha; None for each
    whose entry of ``needs`` is false."""
    B, m, d = e.shape
    g = B // n
    ds = ad._softmax_grad(alpha, grad, axis=1)
    dv = ds.reshape(-1) @ e.reshape(-1, d) if needs[2] else None
    if not (needs[0] or needs[1]):
        return None, None, dv
    da = ds[:, :, None] * (1.0 - e * e) * v
    dk = da if g == 1 else da.reshape(n, g, m, d).sum(axis=1)
    return (da.sum(axis=1) if needs[0] else None,
            dk if needs[1] else None, dv)


def _weighted_sum_forward(alpha, values):
    (B, m), (n, _, d) = alpha.shape, values.shape
    if n == 1:
        return alpha @ values[0]
    return (alpha.reshape(n, B // n, m) @ values).reshape(B, d)


def _weighted_sum_backward(grad, alpha, values, needs):
    """Gradients of alpha and values, shared by every row (n = 1) or one
    set per row (n = B); None for each whose entry of ``needs`` is false.
    Only decoding groups rows (1 < n < B), and it differentiates nothing."""
    (B, m), (n, _, d) = alpha.shape, values.shape
    if n == 1:
        return (grad @ values[0].T if needs[0] else None,
                (alpha.T @ grad)[None] if needs[1] else None)
    rows = grad.reshape(n, 1, d)  # raises unless n == B
    d_alpha = d_values = None
    if needs[0]:
        d_alpha = (values @ rows.transpose(0, 2, 1)).transpose(0, 2, 1)
        d_alpha = d_alpha.reshape(B, m)
    if needs[1]:
        d_values = alpha[:, :, None] * rows
    return d_alpha, d_values


# ---------------------------------------------------------------------------
# encoder

def encode_batch(params, dims: ModelDims, src, src_lens, training=False,
                 rng=None, drop_emb=0.0):
    """Run both directions over a padded id matrix: the embedding lookup,
    its dropout and one ``encoder_recurrence`` node.

    Returns (h, mask): h is (B, m, 2*d_h); state updates are masked past each
    sentence's true length so rows match the per-sentence computation.
    """
    src = np.asarray(src)
    if src.size == 0:
        raise ValueError("cannot encode an empty batch")
    if src.max() >= dims.vocab_src or src.min() < 0:
        raise ValueError("source id out of vocabulary range")
    B, m = src.shape
    emb = ad.take_rows(params["enc/src_emb"], src)              # (B, m, d_e)
    mask = (np.arange(m)[None, :] < np.asarray(src_lens)[:, None]).astype(
        emb.data.dtype)
    emb = ad.dropout(emb, drop_emb, training, rng)
    fwd, bwd = ([params[f"enc/{d}/{k}"] for k in "WUb"] for d in ("fwd", "bwd"))
    return encoder_recurrence(emb, mask, fwd, bwd), mask


# ---------------------------------------------------------------------------
# attention and decoder

def attention_proj(params, h):
    """Precompute U_a h for all positions: (B, m, 2*d_h) -> (B, m, d_att)."""
    B, m, two_dh = h.shape
    flat = ad.matmul(ad.reshape(h, (B * m, two_dh)), params["dec/att/U"])
    return ad.reshape(flat, (B, m, params["dec/att/U"].shape[1]))


def initial_state(params, h, mask=None):
    """s_0 = tanh(mean_i(h_i) W + b), mean over true (unmasked) positions."""
    B, m, _ = h.shape
    if mask is None:
        mask = np.ones((B, m), h.data.dtype)
    counts = mask.sum(axis=1, keepdims=True)
    pooled = ad.sum_(h * mask[:, :, None], axis=1) * (1.0 / counts)
    return ad.tanh(ad.matmul(pooled, params["dec/init/W"]) + params["dec/init/b"])


DECODER_WEIGHTS = ("dec/att/W", "dec/att/v", "dec/cell/W", "dec/cell/U",
                   "dec/cell/b")


@dataclass(frozen=True)
class ExtraInput:
    """A variant's extra decoder input as a kernel pair on arrays.

    ``forward(e_prev, s_prev, c, weights)`` returns one step's extra vector
    (B, d) and a cache; ``backward(g, cache, needs)`` returns, from the
    vector's gradient g, the gradients of e_prev, s_prev, c and of each
    weight, None for each whose entry of ``needs`` is false. The weights
    are the arrays of ``params``, and ``proj`` maps the vector into the gate
    pre-activations. ``predicts_embedding``: the vector estimates the next
    target's embedding (b_ref's f_s), so forward reads e_prev, the clean
    (dropout-free) previous-target embedding, and the loss reads the
    vectors, which the teacher-forced decoder then outputs.
    """
    forward: Callable
    backward: Callable
    params: tuple
    proj: ad.Tensor
    predicts_embedding: bool = False

    def kernel(self):
        """The (forward, weights, proj) arrays ``decoder_step`` reads."""
        return self.forward, [t.data for t in self.params], self.proj.data


def decoder_step(weights, e_prev, s_prev, memory, extra=None, e_clean=None):
    """One decoder state update on arrays: the step kernel of the
    teacher-forced ``decoder_recurrence``, of decoding and of the gradient
    checks.

    weights are the arrays of ``DECODER_WEIGHTS``; e_prev (B, d_e) is the
    previous target's embedding as the cell reads it, e_clean (default
    e_prev) as the extra input reads it, and s_prev is (B, d_h). memory
    holds (h, h_proj, bias, rows) blocks: the next ``rows`` rows attend
    over one block, in the row groups of ``_attention_forward``, its padding
    masked by the additive ``mask_bias`` (None: no padding). extra is None
    or the (forward, weights, proj) arrays of an ``ExtraInput``.

    The step: the query projection s_prev W_a, the masked additive
    attention giving c_t, the extra input's vector from [e; s_prev; c_t],
    then the gated update over [e_prev; c_t] with the extra vector through
    its projection (``_cell_forward``). Returns (s_t, c_t, vec, cache); vec
    is the extra vector or None.
    """
    att_W, att_v, W, U, b = weights
    contexts, att = [], []
    start = 0
    for h, h_proj, bias, rows in memory:
        s = s_prev if len(memory) == 1 else s_prev[start:start + rows]
        start += rows
        alpha, e = _attention_forward(s @ att_W, h_proj, att_v, bias)
        contexts.append(_weighted_sum_forward(alpha, h))
        att.append((alpha, e))
    c = contexts[0] if len(contexts) == 1 else np.concatenate(contexts)
    vec = extra_cache = None
    pairs = ()
    if extra is not None:
        forward, extra_weights, proj = extra
        vec, extra_cache = forward(e_prev if e_clean is None else e_clean,
                                   s_prev, c, extra_weights)
        pairs = ((vec, proj),)
    s_new, cell = _cell_forward(np.concatenate([e_prev, c], axis=1), s_prev,
                                W, U, b, pairs)
    return s_new, c, vec, (att, extra_cache, cell)


def decoder_recurrence(params, s0, emb_in, h, h_proj, mask, extra=None,
                       emb_clean=None):
    """The teacher-forced decoder over every target step as one tape node.

    emb_in (B, T, d_e) embeds the targets as the cell reads them and
    emb_clean (default emb_in) as the extra input reads them; step t reads
    position t, so the node runs T-1 steps (the last target is only
    predicted). s0 (B, d_h) is the initial state; h (B, m, 2*d_h), h_proj
    (B, m, d_att) and the (B, m) 0/1 mask are the encoder memory; extra is
    an ``ExtraInput`` or None. Each step is one ``decoder_step``. Returns
    ((T-1)*B, .) rows, time-major like ``gold_targets``: the readout's
    input [e_t; s_t; c_t] (the embedding the cell read, the new state and
    the context) and, when the extra input predicts the embedding, its
    vector.

    The hand-written backward-through-time returns the gradients of s0,
    emb_in, h, h_proj, the ``DECODER_WEIGHTS``, emb_clean (when the extra
    input predicts the embedding) and the extra input's params and
    projection. Weight gradient products stay inside the loop, and every
    gradient is summed in the order ``grad_map`` sums the same recurrence
    built from one tape node per op (``reference_decoder`` in
    ``tests/reference.py``: the attention's two nodes, the cell's and the
    extra input's), so every value and gradient keeps its bits:
    parameters last step first; a state's terms as the readout, the cell,
    the extra input, then the query; a context's as the readout, the cell,
    then the extra input, except that at the last step a vector read only
    by the cell puts the readout's term last.
    """
    s0, emb_in = ad.as_tensor(s0), ad.as_tensor(emb_in)
    h, h_proj = ad.as_tensor(h), ad.as_tensor(h_proj)
    weights = tuple([params[k] for k in DECODER_WEIGHTS])
    # parents 0-8: s0, emb_in, h, h_proj, then DECODER_WEIGHTS; then
    # emb_clean when the extra input predicts the embedding, its weights
    # and its proj
    parents = (s0, emb_in, h, h_proj) + weights
    clean = emb_in if emb_clean is None else ad.as_tensor(emb_clean)
    step_extra = None
    if extra is not None:
        if extra.predicts_embedding:
            parents += (clean,)
        first_weight = len(parents)
        parents += extra.params + (extra.proj,)
        step_extra = extra.kernel()
    B, T, d_e = emb_in.shape
    if T < 2:
        raise ValueError("teacher forcing needs at least two target positions")
    if h.shape[1] == 0:
        raise ValueError("attention needs at least one source position")
    d_h = s0.shape[1]
    predicts = extra is not None and extra.predicts_embedding
    read = d_e + 3 * d_h  # the readout's columns; the extra vector follows
    out = np.empty((T - 1, B, read + (extra.proj.shape[0] if predicts else 0)),
                   np.result_type(*(p.data for p in parents)))
    out[:, :, :d_e] = emb_in.data[:, :T - 1].transpose(1, 0, 2)
    arrays = [t.data for t in weights]
    memory = [(h.data, h_proj.data, mask_bias(mask), B)]
    caches = []
    s = s0.data
    for t in range(T - 1):
        s, c, vec, cache = decoder_step(arrays, emb_in.data[:, t], s, memory,
                                        step_extra, clean.data[:, t])
        out[t, :, d_e:d_e + d_h] = s
        out[t, :, d_e + d_h:read] = c
        if predicts:
            out[t, :, read:] = vec
        caches.append(cache)

    def backward_through_time(G):
        G = G.reshape(out.shape)
        needs = [p.requires_grad for p in parents]
        grads = [None] * len(parents)
        att_W, att_v = arrays[:2]
        x_needs = needs[first_weight:] if extra is not None else []
        need_clean = predicts and needs[9]
        last = T - 2
        d_emb = np.zeros_like(emb_in.data) if needs[1] else None
        d_clean = np.zeros_like(clean.data) if need_clean else None
        carry = G[last, :, d_e:d_e + d_h]  # the gradient of step t's state
        for t in range(last, -1, -1):
            ((alpha, e),), extra_cache, cell = caches[t]
            s_prev = cell[4][0]
            live_s = t > 0 or needs[0]
            live_q = live_s or needs[4]
            live_alpha = live_q or needs[3] or needs[5]
            live_c = live_alpha or needs[2]
            live_vec = extra is not None and (live_s or live_c or need_clean
                                              or any(x_needs[:-1]))
            dx, ds, *d_cell = _cell_backward(
                carry, cell, [needs[1] or live_c, live_s, *needs[6:9], live_vec,
                              extra is not None and x_needs[-1]])
            for i, term in zip((6, 7, 8, len(parents) - 1), d_cell[:3] + d_cell[4:]):
                if term is not None:
                    grads[i] = ad._add(grads[i], term)
            if d_emb is not None:
                d_emb[:, t] = G[t, :, :d_e] + dx[:, :d_e]
            ds_x = dc_x = None
            if live_vec:
                g_vec = d_cell[3] + G[t, :, read:] if predicts else d_cell[3]
                de, ds_x, dc_x, *d_x = extra.backward(
                    g_vec, extra_cache, [need_clean, live_s, live_c, *x_needs[:-1]])
                for i, term in enumerate(d_x, first_weight):
                    if term is not None:
                        grads[i] = ad._add(grads[i], term)
                if d_clean is not None:
                    d_clean[:, t] = de
            if live_c:
                g_read, cell_term = G[t, :, d_e + d_h:read], dx[:, d_e:]
                if t == last and dc_x is not None and not predicts:
                    g_c = (cell_term + dc_x) + g_read
                else:
                    g_c = g_read + cell_term
                    if dc_x is not None:
                        g_c += dc_x
                d_alpha, dh = _weighted_sum_backward(g_c, alpha, h.data,
                                                     (live_alpha, needs[2]))
                if dh is not None:
                    grads[2] = ad._add(grads[2], dh)
                if live_alpha:
                    dq, dk, dv = _attention_backward(
                        d_alpha, alpha, e, att_v, B, (live_q, needs[3], needs[5]))
                    for i, term in ((3, dk), (5, dv)):
                        if term is not None:
                            grads[i] = ad._add(grads[i], term)
                    if needs[4]:
                        grads[4] = ad._add(grads[4], s_prev.T @ dq)
            if live_s:
                carry = ds if t == 0 else G[t - 1, :, d_e:d_e + d_h] + ds
                if ds_x is not None:
                    carry += ds_x
                carry += dq @ att_W.T
                if t == 0:
                    grads[0] = carry
        grads[1] = d_emb
        if need_clean:
            grads[9] = d_clean
        return grads

    return ad._node(out.reshape((T - 1) * B, -1), parents, backward_through_time)


def readout(params, x, training=False, rng=None, drop_out=0.0):
    """The logits from readout inputs x = [e(y_{t-1}); s_t; c_t]."""
    r = ad.tanh(ad.matmul(x, params["dec/out/W"]) + params["dec/out/b"])
    r = ad.dropout(r, drop_out, training, rng)
    return ad.matmul(r, params["dec/out/Wv"]) + params["dec/out/bv"]


# ---------------------------------------------------------------------------
# teacher-forced loss

def gold_targets(tgt, dtype):
    """The supervised targets of a padded (B, T) id matrix, time-major: ids
    y_1..y_{T-1} of every row as one ((T-1)*B,) vector, and its 0/1 weights
    (0 at padding) in ``dtype``."""
    gold = np.asarray(tgt)[:, 1:].T.reshape(-1)
    return gold, (gold != PAD).astype(dtype)


def nll_loss(params, dims: ModelDims, batch: Batch, training=False, rng=None,
             drop_emb=0.0, drop_out=0.0, extra=None):
    """Mean negative log-likelihood per non-pad target token.

    The encoder, the initial state, then every target step in one
    ``decoder_recurrence`` node: attention, the extra input and the cell.
    Under teacher forcing nothing in the loop reads the output layer, so
    the readout and the loss run once after it, over the inputs, states and
    contexts of all T-1 steps stacked time-major into ((T-1)*B, .) rows; the
    readout dropout then draws the same random stream, in the same order,
    as one readout per step would.

    extra is the variant's ``ExtraInput`` (``model.variant_extras``) or
    None; it reads the clean (dropout-free) previous-target embedding.
    Returns (loss, n_tokens, vectors): vectors are the extra input's
    ((T-1)*B, d) rows, time-major like the targets, when it predicts the
    embedding, else None.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    h, mask = encode_batch(params, dims, batch.src, batch.src_lens,
                           training, rng, drop_emb)
    h_proj = attention_proj(params, h)
    s = initial_state(params, h, mask)

    B, T = batch.tgt.shape
    emb_clean = ad.reshape(ad.take_rows(params["dec/tgt_emb"], batch.tgt.reshape(-1)),
                           (B, T, dims.d_e))
    emb_in = ad.dropout(emb_clean, drop_emb, training, rng)
    out = decoder_recurrence(params, s, emb_in, h, h_proj, mask, extra, emb_clean)

    vectors = None
    if extra is not None and extra.predicts_embedding:
        read = dims.d_e + 3 * dims.d_h
        out, vectors = out[:, :read], out[:, read:]
    logits = readout(params, out, training, rng, drop_out)
    gold, weights = gold_targets(batch.tgt, logits.data.real.dtype)
    picked = ad.take_per_row(ad.log_softmax(logits, axis=1), gold)
    n_tokens = float(weights.sum())
    return ad.sum_(picked * weights) * (-1.0 / n_tokens), n_tokens, vectors


# ---------------------------------------------------------------------------
# decoding

@dataclass
class Hypothesis:
    tokens: list = field(default_factory=list)  # emitted ids, EOS included when terminal
    logprob: float = 0.0
    finished: bool = False
    state: np.ndarray | None = None

    def score(self, length_normalize=True):
        if not length_normalize:
            return self.logprob
        return self.logprob / max(1, len(self.tokens))


def strip_eos(tokens):
    """Emitted ids without the terminal EOS."""
    return tokens[:-1] if tokens and tokens[-1] == EOS else tokens


def greedy_decode(step_for, s0, max_steps):
    """Argmax rollouts of N sentences together, each until EOS or its budget.

    ``step_for(sents, singles)`` returns the model step (prev_ids, states) ->
    (logp, states) whose rows are grouped by sentence: g rows for each
    sentence of ``sents``, then one row for each sentence of ``singles``
    (see ``TranslationModel._make_step``). s0 holds the (N, d_h) initial
    states and max_steps the N step budgets. Every step advances all open
    rollouts in one call. Returns one Hypothesis per sentence.
    """
    greedy = _Rollouts(s0, max_steps)
    _run(step_for, max(max_steps, default=0), None, greedy)
    return [greedy.hypothesis(i) for i in range(len(s0))]


def beam_search(step_for, s0, k, max_steps, length_normalize=True):
    """Beam decoding of N sentences together; returns N token lists.

    ``step_for``, s0 and max_steps are as for ``greedy_decode``. Per
    sentence, each hypothesis proposes its top-k tokens, the candidates are
    ranked by log-probability (a stable sort, so ties keep proposal order),
    finished candidates are set aside until the sentence holds k, and the
    best k unfinished ones stay alive; a sentence stops when k are finished,
    none is alive or its budget is spent. The final pick is the first
    maximum of length-normalized log-probability in pool order: finished
    candidates in the order they were set aside, then the unfinished ones
    left when the budget ran out. k = 1 reproduces the greedy rollout
    exactly. For k > 1 each sentence's greedy rollout heads its pool and
    counts as one of its k finished slots from step 0, so a wider beam can
    never score below it; it advances in the same model steps as the beam,
    and keeps running until EOS or its budget after the sentence's beam has
    closed.

    Every step advances the beam rows of all open sentences and one row per
    open greedy rollout in one model-step call. The beam rows sit in groups
    of g per sentence, g the most any open sentence keeps, so a step
    computes the rows the beam can reach, not k per sentence. The step
    function, which gathers the encoder memory, is rebuilt only when the
    set of open sentences changes. Ranking runs on one candidate matrix for
    all sentences, and token lists are built only for the final picks.
    """
    if k < 1:
        raise ValueError("beam width must be >= 1")
    greedy = _Rollouts(s0, max_steps) if k > 1 else None
    beam = _Beam(s0, k, max_steps, length_normalize, greedy_slots=int(k > 1))
    _run(step_for, max(max_steps, default=0), beam, greedy)
    return beam.picks(greedy)


def _run(step_for, t_max, beam, greedy):
    """Steps 0..t_max-1 of the beam rows and the greedy rows (either may be
    None), both advanced by one model-step call per step: the beam rows
    first, then one row per open greedy rollout."""
    none = np.zeros(0, dtype=int)
    layout = step = None
    for t in range(t_max):
        sents = beam.open(t) if beam else none
        singles = greedy.open(t) if greedy else none
        if not (len(sents) or len(singles)):
            break
        if layout is None or not (np.array_equal(layout[0], sents)
                                  and np.array_equal(layout[1], singles)):
            layout, step = (sents, singles), step_for(sents, singles)
        inputs = ([beam.inputs()] if len(sents) else []) + \
                 ([greedy.inputs(singles)] if len(singles) else [])
        logp, states = step(*map(np.concatenate, zip(*inputs)))
        cut = len(logp) - len(singles)
        if len(sents):
            beam.update(t, logp[:cut], states[:cut])
        if len(singles):
            greedy.update(singles, logp[cut:], states[cut:])
    if beam:
        beam.open(t_max)  # retires whatever is still open


class _Rollouts:
    """Argmax rollouts, one row per sentence, each until EOS or its budget."""

    def __init__(self, s0, max_steps):
        n = len(s0)
        self.budget = np.asarray(max_steps)
        self.state = np.array(s0)
        self.prev = np.full(n, BOS)
        self.logprob = np.zeros(n)
        self.length = np.zeros(n, dtype=int)
        self.running = np.ones(n, dtype=bool)
        self.history = np.zeros((n, 0), dtype=int)  # EOS past a rollout's end

    def open(self, t):
        return np.flatnonzero(self.running & (t < self.budget))

    def inputs(self, sents):
        return self.prev[sents], self.state[sents]

    def update(self, sents, logp, states):
        tok = np.argmax(logp, axis=1)
        column = np.full(len(self.prev), EOS)
        column[sents] = tok
        self.history = np.concatenate([self.history, column[:, None]], axis=1)
        self.logprob[sents] += logp[np.arange(len(sents)), tok]
        self.length[sents] += 1
        self.state[sents] = states
        self.prev[sents] = tok
        self.running[sents] = tok != EOS

    def hypothesis(self, i):
        tokens = self.history[i, :self.length[i]].tolist()
        return Hypothesis(tokens, float(self.logprob[i]), tokens[-1:] == [EOS],
                          self.state[i])


class _Beam:
    """The alive hypotheses of the open sentences, as (n, g, ...) arrays: g
    rows per sentence, its ``count`` live ones first in rank order, the
    rest padding. Each sentence also keeps the best pick of its pool so far
    (first maximum in pool order, greedy rollout aside)."""

    def __init__(self, s0, k, max_steps, length_normalize, greedy_slots):
        n = len(s0)
        self.k, self.budget, self.norm = k, np.asarray(max_steps), length_normalize
        self.sents = np.arange(n)
        self.count = np.ones(n, dtype=int)
        self.state = np.array(s0)[:, None, :]
        self.prev = np.full((n, 1), BOS)
        self.logprob = np.zeros((n, 1))
        self.history = np.zeros((n, 1, 0), dtype=int)  # tokens emitted so far
        self.done = np.full(n, greedy_slots)  # finished slots taken
        self.best_key = np.full(n, -np.inf)
        self.best = [None] * n  # token array of the best pick

    def inputs(self):
        d = self.state.shape[2]
        return self.prev.reshape(-1), self.state.reshape(-1, d)

    def open(self, t):
        """The sentences still searching at step t; those whose budget is
        spent retire, their best unfinished hypothesis joining the pool."""
        spent = t >= self.budget[self.sents]
        if spent.any():
            key = self.logprob[spent, 0]
            self._offer(self.sents[spent],
                        key / max(1, t) if self.norm else key,
                        self.history[spent, 0])
            self._keep(~spent)
        return self.sents

    def update(self, t, logp, states):
        """Rank the candidates of step t of every open sentence at once."""
        n, g = self.logprob.shape
        width = min(self.k, logp.shape[1])
        top = np.argsort(-logp, axis=1)[:, :width]      # each row's top tokens
        cand = self.logprob.reshape(-1, 1) + logp[np.arange(n * g)[:, None], top]
        # one row of g * width candidates per sentence, padding rows' last
        n_real = (self.count * width)[:, None]
        order = np.argsort(np.where(np.arange(g * width) < n_real,
                                    -cand.reshape(n, g * width), np.inf),
                           axis=1, kind="stable")
        real = order < n_real
        flat = np.arange(n)[:, None] * (g * width) + order
        toks, score = top.reshape(-1)[flat], cand.reshape(-1)[flat]
        row = flat // width  # the proposing row
        finished, grown = real & (toks == EOS), real & (toks != EOS)

        # finished ones fill the free slots; the first is this step's best
        need = self.k - self.done[self.sents]
        n_fin = finished.sum(axis=1)
        self.done[self.sents] += np.minimum(n_fin, need)
        hit = np.flatnonzero(n_fin)
        first = np.argmax(finished[hit], axis=1)
        key = score[hit, first]
        ended = self.history.reshape(n * g, t)[row[hit, first]]
        self._offer(self.sents[hit], key / (t + 1) if self.norm else key,
                    np.concatenate([ended, np.full((len(hit), 1), EOS)], axis=1))

        # the best k unfinished ones stay alive, unless the pool is full
        rank = np.cumsum(grown, axis=1)
        keep = grown & (rank <= self.k) & (n_fin < need)[:, None]
        group, pos = np.nonzero(keep)
        self.count = np.bincount(group, minlength=n)
        stay = self.count > 0
        g_new = self.count.max(initial=0)
        dest = (np.cumsum(stay) - 1)[group] * g_new + rank[group, pos] - 1
        n_new = int(stay.sum())
        src = np.zeros(n_new * g_new, dtype=int)  # padding repeats row 0
        src[dest] = row[group, pos]
        tok = np.full(n_new * g_new, EOS)
        tok[dest] = toks[group, pos]
        logprob = np.full(n_new * g_new, -np.inf)
        logprob[dest] = score[group, pos]
        history = np.concatenate([self.history.reshape(n * g, t)[src],
                                  tok[:, None]], axis=1)
        self.sents, self.count = self.sents[stay], self.count[stay]
        self.state = states[src].reshape(n_new, g_new, states.shape[1])
        self.prev = tok.reshape(n_new, g_new)
        self.logprob = logprob.reshape(n_new, g_new)
        self.history = history.reshape(n_new, g_new, t + 1)

    def _keep(self, which):
        self.sents, self.count = self.sents[which], self.count[which]
        self.state, self.prev = self.state[which], self.prev[which]
        self.logprob, self.history = self.logprob[which], self.history[which]

    def _offer(self, sents, keys, tokens):
        """Each sentence's candidate replaces its best so far only when
        strictly better: later in pool order loses ties."""
        for i, key, toks in zip(sents.tolist(), keys.tolist(), tokens):
            if self.best[i] is None or key > self.best_key[i]:
                self.best_key[i], self.best[i] = key, toks

    def picks(self, greedy):
        """Each sentence's final pick without EOS; the greedy rollout heads
        the pool, so it wins ties."""
        out = []
        for i, toks in enumerate(self.best):
            head = greedy.hypothesis(i) if greedy else None
            if head is not None and (toks is None or
                                     not self.best_key[i] > head.score(self.norm)):
                out.append(strip_eos(head.tokens))
            else:
                out.append(strip_eos(toks.tolist()))
        return out
