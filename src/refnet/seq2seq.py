"""Baseline attention encoder-decoder.

Encoder: bi-directional gated recurrent net; each source annotation h_i is
the concatenation of the forward and backward states at position i.
Attention: alpha_ti = softmax_i( v_a^T tanh(W_a s_{t-1} + U_a h_i) ), and
the context c_t = sum_i alpha_ti h_i. Decoder state update:
s_t = f_d(e(y_{t-1}), s_{t-1}, c_t, *extras) with a gated cell; each extra
context vector enters the gate pre-activations through its own projection
so that a zero projection reproduces the baseline update bit for bit.
Output: p(y_t) = softmax(W_v tanh(W_o [e(y_{t-1}); s_t; c_t] + b_o) + b_v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Batch, BOS, EOS, PAD
from .params import ParamStore

NEG_BIG = 1e9  # additive mask; exp(-1e9) underflows to exactly 0


@dataclass
class ModelDims:
    vocab_src: int
    vocab_tgt: int
    d_e: int = 32
    d_h: int = 64
    d_att: int = 0   # 0 means "use d_h"
    d_out: int = 0   # 0 means "use d_e"
    cell: str = "gru"  # "gru" | "tanh"

    def __post_init__(self):
        if self.d_att == 0:
            self.d_att = self.d_h
        if self.d_out == 0:
            self.d_out = self.d_e
        if self.cell not in ("gru", "tanh"):
            raise ValueError(f"unknown cell kind {self.cell!r}")

    def to_dict(self):
        return {"vocab_src": self.vocab_src, "vocab_tgt": self.vocab_tgt,
                "d_e": self.d_e, "d_h": self.d_h, "d_att": self.d_att,
                "d_out": self.d_out, "cell": self.cell}


def xavier(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def gates_per_cell(cell):
    return 3 if cell == "gru" else 1


def init_baseline_params(dims: ModelDims, rng) -> ParamStore:
    """Encoder group (theta_E) and decoder group (theta_D, incl. attention)."""
    ps = ParamStore()
    ng = gates_per_cell(dims.cell)
    d_e, d_h, d_att, d_out = dims.d_e, dims.d_h, dims.d_att, dims.d_out

    ps.add("enc/src_emb", rng.normal(0.0, 0.1, size=(dims.vocab_src, d_e)), "encoder")
    for direction in ("fwd", "bwd"):
        ps.add(f"enc/{direction}/W", xavier(rng, d_e, d_h, (d_e, ng * d_h)), "encoder")
        ps.add(f"enc/{direction}/U", xavier(rng, d_h, d_h, (d_h, ng * d_h)), "encoder")
        ps.add(f"enc/{direction}/b", np.zeros(ng * d_h), "encoder")

    ps.add("dec/tgt_emb", rng.normal(0.0, 0.1, size=(dims.vocab_tgt, d_e)), "decoder")
    ps.add("dec/att/W", xavier(rng, d_h, d_att), "decoder")
    ps.add("dec/att/U", xavier(rng, 2 * d_h, d_att), "decoder")
    ps.add("dec/att/v", xavier(rng, 2 * d_h, 1, (d_att,)), "decoder")
    ps.add("dec/init/W", xavier(rng, 2 * d_h, d_h), "decoder")
    ps.add("dec/init/b", np.zeros(d_h), "decoder")
    ps.add("dec/cell/W", xavier(rng, d_e + 2 * d_h, d_h, (d_e + 2 * d_h, ng * d_h)), "decoder")
    ps.add("dec/cell/U", xavier(rng, d_h, d_h, (d_h, ng * d_h)), "decoder")
    ps.add("dec/cell/b", np.zeros(ng * d_h), "decoder")
    ps.add("dec/out/W", xavier(rng, d_e + 3 * d_h, d_out), "decoder")
    ps.add("dec/out/b", np.zeros(d_out), "decoder")
    ps.add("dec/out/Wv", xavier(rng, d_out, dims.vocab_tgt), "decoder")
    ps.add("dec/out/bv", np.zeros(dims.vocab_tgt), "decoder")
    return ps


# ---------------------------------------------------------------------------
# recurrent cells

def recurrent_cell(x, s_prev, W, U, b, cell="gru", extras=()):
    """One step of the recurrent update over input x and state s_prev.

    extras is a sequence of (vector, projection) pairs; each projection maps
    its vector into the same gate pre-activation block as W.
    """
    gx = ad.matmul(x, W) + b
    for vec, proj in extras:
        gx = gx + ad.matmul(vec, proj)
    gs = ad.matmul(s_prev, U)
    if cell == "tanh":
        return ad.tanh(gx + gs)
    d_h = U.shape[0]
    xr, xz, xn = gx[:, :d_h], gx[:, d_h:2 * d_h], gx[:, 2 * d_h:]
    sr, sz, sn = gs[:, :d_h], gs[:, d_h:2 * d_h], gs[:, 2 * d_h:]
    r = ad.sigmoid(xr + sr)
    z = ad.sigmoid(xz + sz)
    n = ad.tanh(xn + r * sn)
    return (1.0 - z) * n + z * s_prev


# ---------------------------------------------------------------------------
# encoder

def encode_batch(params, dims: ModelDims, src, src_lens, training=False,
                 rng=None, drop_emb=0.0):
    """Run both directions over a padded id matrix.

    Returns (h, mask): h is (B, m, 2*d_h); state updates are masked past each
    sentence's true length so rows match the per-sentence computation.
    """
    src = np.asarray(src)
    if src.size == 0:
        raise ValueError("cannot encode an empty batch")
    if src.max() >= dims.vocab_src or src.min() < 0:
        raise ValueError("source id out of vocabulary range")
    B, m = src.shape
    mask = (np.arange(m)[None, :] < np.asarray(src_lens)[:, None]).astype(np.float64)

    emb = ad.take_rows(params["enc/src_emb"], src.reshape(-1))
    emb = ad.dropout(emb, drop_emb, training, rng)
    emb = ad.reshape(emb, (B, m, dims.d_e))

    def run(direction, steps):
        W, U, b = (params[f"enc/{direction}/{k}"] for k in ("W", "U", "b"))
        s = Tensor(np.zeros((B, dims.d_h)))
        out = [None] * m
        for t in steps:
            x = emb[:, t, :]
            s_new = recurrent_cell(x, s, W, U, b, dims.cell)
            mt = mask[:, t: t + 1]
            s = s_new * mt + s * (1.0 - mt)
            out[t] = s
        return out

    h_fwd = run("fwd", range(m))
    h_bwd = run("bwd", range(m - 1, -1, -1))
    h = ad.stack([ad.concat([h_fwd[t], h_bwd[t]], axis=1) for t in range(m)], axis=1)
    return h, mask


def encode(params, dims: ModelDims, ids):
    """Annotations for one sentence: an (m, 2*d_h) tensor, one row per token."""
    if len(ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    h, _ = encode_batch(params, dims, np.asarray(ids)[None, :],
                        np.array([len(ids)]))
    return h[0, :, :]


# ---------------------------------------------------------------------------
# attention and decoder

def attention_proj(params, h):
    """Precompute U_a h for all positions: (B, m, 2*d_h) -> (B, m, d_att)."""
    B, m, two_dh = h.shape
    flat = ad.matmul(ad.reshape(h, (B * m, two_dh)), params["dec/att/U"])
    return ad.reshape(flat, (B, m, params["dec/att/U"].shape[1]))


def attention(s_prev, h, params, mask=None, h_proj=None):
    """Alignment weights and context for one decoder step.

    Scores are v_a^T tanh(W_a s_{t-1} + U_a h_i); the softmax runs over
    source positions with padded positions masked out. s_prev is (B, d_h)
    and h is (B, m, 2*d_h); a single sentence is a batch of one.
    """
    if h.shape[1] == 0:
        raise ValueError("attention needs at least one source position")
    if h_proj is None:
        h_proj = attention_proj(params, h)
    ws = ad.matmul(s_prev, params["dec/att/W"])            # (B, d_att)
    e = ad.tanh(ad.reshape(ws, (ws.shape[0], 1, ws.shape[1])) + h_proj)
    scores = ad.sum_(e * params["dec/att/v"], axis=2)      # (B, m)
    if mask is not None:
        scores = scores + (mask - 1.0) * NEG_BIG
    alpha = ad.softmax(scores, axis=1)
    # alpha rows may outnumber h rows when decoding several hypotheses
    # against one cached sentence encoding; broadcasting handles both.
    c = ad.sum_(ad.reshape(alpha, alpha.shape + (1,)) * h, axis=1)
    return alpha, c


def initial_state(params, h, mask=None):
    """s_0 = tanh(mean_i(h_i) W + b), mean over true (unmasked) positions."""
    B, m, _ = h.shape
    if mask is None:
        mask = np.ones((B, m))
    counts = mask.sum(axis=1, keepdims=True)
    pooled = ad.sum_(h * mask[:, :, None], axis=1) * (1.0 / counts)
    return ad.tanh(ad.matmul(pooled, params["dec/init/W"]) + params["dec/init/b"])


def decoder_step(params, e_prev, s_prev, c_t, extras=None, cell="gru"):
    """State update s_t = f_d(e(y_{t-1}), s_{t-1}, c_t, *extras)."""
    x = ad.concat([e_prev, c_t], axis=1)
    return recurrent_cell(x, s_prev, params["dec/cell/W"], params["dec/cell/U"],
                          params["dec/cell/b"], cell, extras or ())


def output_logits(params, e_prev, s_t, c_t, training=False, rng=None, drop_out=0.0):
    x = ad.concat([e_prev, s_t, c_t], axis=1)
    r = ad.tanh(ad.matmul(x, params["dec/out/W"]) + params["dec/out/b"])
    r = ad.dropout(r, drop_out, training, rng)
    return ad.matmul(r, params["dec/out/Wv"]) + params["dec/out/bv"]


def output_distribution(params, e_prev, s_t, c_t):
    """Vocabulary distribution; rows sum to 1."""
    return ad.softmax(output_logits(params, e_prev, s_t, c_t), axis=1)


# ---------------------------------------------------------------------------
# teacher-forced loss

def nll_loss(params, dims: ModelDims, batch: Batch, training=False, rng=None,
             drop_emb=0.0, drop_out=0.0, extras_fn=None):
    """Mean negative log-likelihood per non-pad target token.

    ``extras_fn(e_prev, s_prev, c_t)`` returns the decoder's extra
    (vector, projection) inputs for one step, as ``model.variant_extras``
    does for the reference-network variants; e_prev is the clean
    (dropout-free) previous-target embedding. None means no extras.
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

    tmask = (batch.tgt[:, 1:] != PAD).astype(np.float64)  # (B, T-1)
    total = Tensor(0.0)
    for t in range(1, T):
        e_prev_in = emb_in[:, t - 1, :]
        _, c = attention(s, h, params, mask=mask, h_proj=h_proj)
        extras = () if extras_fn is None else extras_fn(emb_clean[:, t - 1, :], s, c)
        s = decoder_step(params, e_prev_in, s, c, extras, dims.cell)
        logits = output_logits(params, e_prev_in, s, c, training, rng, drop_out)
        logp = ad.log_softmax(logits, axis=1)
        picked = ad.take_per_row(logp, batch.tgt[:, t])
        total = total + ad.sum_(picked * tmask[:, t - 1])
    n_tokens = float(tmask.sum())
    return -total * (1.0 / n_tokens), n_tokens


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


def _hyp_step(model_step, hyps):
    """Advance every open hypothesis one step; returns (logp rows, new states)."""
    prev = np.array([h.tokens[-1] if h.tokens else BOS for h in hyps])
    states = np.stack([h.state for h in hyps])
    return model_step(prev, states)


def greedy_decode(model_step, s0, max_steps):
    """Argmax rollout until EOS or the step budget."""
    hyp = Hypothesis(state=s0)
    for _ in range(max_steps):
        logp, states = _hyp_step(model_step, [hyp])
        nxt = int(np.argmax(logp[0]))
        hyp = Hypothesis(hyp.tokens + [nxt], hyp.logprob + float(logp[0, nxt]),
                         nxt == EOS, states[0])
        if hyp.finished:
            break
    return hyp


def beam_search(model_step, s0, k, max_steps, length_normalize=True):
    """Beam decoding over a step function (prev_ids, states) -> (logp, states).

    Ranking uses length-normalized log-probability; k = 1 reproduces the
    greedy rollout exactly. The greedy rollout always stays in the final
    candidate pool, so a wider beam can never score below it.
    """
    if k < 1:
        raise ValueError("beam width must be >= 1")
    alive = [Hypothesis(state=s0)]
    done = [] if k == 1 else [greedy_decode(model_step, s0, max_steps)]
    for _ in range(max_steps):
        if not alive:
            break
        logp, states = _hyp_step(model_step, alive)
        candidates = []
        for i, hyp in enumerate(alive):
            order = np.argsort(-logp[i])[:k]
            for tok in order:
                candidates.append(Hypothesis(
                    hyp.tokens + [int(tok)], hyp.logprob + float(logp[i, tok]),
                    int(tok) == EOS, states[i]))
        candidates.sort(key=lambda c: -c.logprob)
        alive = []
        for cand in candidates:
            if cand.finished:
                done.append(cand)
            elif len(alive) < k:
                alive.append(cand)
            if len(done) >= k:
                alive = []
                break
        if len(done) >= k:
            break
    done.extend(alive)  # unfinished fallbacks when the budget ran out
    best = max(done, key=lambda c: c.score(length_normalize))
    tokens = best.tokens
    return tokens[:-1] if tokens and tokens[-1] == EOS else tokens
