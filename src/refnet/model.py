"""Model facade: one object covering the baseline and both reference variants.

The variant only changes which extra inputs reach the decoder cell:
nothing for the baseline, the anchor-attention context c_G for the
monolingual variant ("m_ref"), the regression estimate f_s for the
bilingual one ("b_ref"). ``variant_extras`` is the one place that says
so; teacher-forced training, decoding and the gradient checks all build
the decoder's extra inputs through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import brefnet, mrefnet, seq2seq
from .autodiff import Tensor, no_grad
from .corpus import Batch, BOS, EOS, PAD
from .params import ParamStore
from .seq2seq import ModelDims

KINDS = ("baseline", "m_ref", "b_ref")


def variant_extras(kind, params, e_prev, s_prev, c):
    """The extra (vector, projection) inputs of one decoder state update.

    Batched over rows: e_prev is the clean previous-target embedding
    (B, d_e), s_prev the previous state (B, d_h), c the attention context
    (B, 2*d_h). The baseline adds nothing; m_ref adds the anchor context
    c_G through ``mref/proj``; b_ref adds the regression estimate
    f_s([e_prev; s_prev; c]) through ``bref/proj``.
    """
    if kind == "baseline":
        return []
    if kind == "m_ref":
        _, c_g = mrefnet.global_context(s_prev, c, params[mrefnet.ANCHOR_KEY],
                                        params)
        return [(c_g, params["mref/proj"])]
    if kind == "b_ref":
        pred = brefnet.f_s(brefnet.build_query(e_prev, s_prev, c), params)
        return [(pred, params["bref/proj"])]
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass
class LossParts:
    joint: Tensor          # the tensor actually minimized
    nll_token_mean: float  # per-token negative log-likelihood
    n_tokens: float
    l_m: float | None = None  # per-sentence hinge loss (b_ref only)


class TranslationModel:
    def __init__(self, params: ParamStore, dims: ModelDims, kind="baseline",
                 drop_emb=0.0, drop_out=0.0, lam=1.0, lam_m=1e-4):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        self.params = params
        self.dims = dims
        self.kind = kind
        self.drop_emb = drop_emb
        self.drop_out = drop_out
        self.lam = lam
        self.lam_m = lam_m

    # -- training-side ------------------------------------------------------

    def loss(self, batch: Batch, training=False, rng=None) -> LossParts:
        params, kind = self.params, self.kind
        preds = []  # the extra input vectors per step; f_s(q_t) for b_ref

        def extras_fn(e_prev, s_prev, c):
            extras = variant_extras(kind, params, e_prev, s_prev, c)
            preds.extend(vec for vec, _ in extras)
            return extras

        nll_mean, n_tokens = seq2seq.nll_loss(
            params, self.dims, batch, training=training, rng=rng,
            drop_emb=self.drop_emb, drop_out=self.drop_out, extras_fn=extras_fn)

        if kind != "b_ref":
            return LossParts(nll_mean, float(nll_mean.data), n_tokens)

        # hinge residual ||e(y_t) - f_s(q_t)||^2 over the non-pad targets,
        # summed step by step in decoding order
        tgt, emb = batch.tgt, params["dec/tgt_emb"]
        tmask = (tgt[:, 1:] != PAD).astype(np.float64)
        residuals = [
            ad.sum_(ad.sum_(ad.square(ad.take_rows(emb, tgt[:, t]) - pred), axis=1)
                    * tmask[:, t - 1])
            for t, pred in enumerate(preds, 1)]
        res_sum = sum(residuals[1:], residuals[0])
        B = len(batch)
        reg = ad.sum_(brefnet.regression_weight_norms(params))
        l_m_mean = res_sum * (1.0 / B) + self.lam_m * reg
        joint = nll_mean * (n_tokens / B) + self.lam * l_m_mean
        return LossParts(joint, float(nll_mean.data), n_tokens,
                         l_m=float(l_m_mean.data))

    def dev_loss(self, batches):
        """Mean per-token NLL over batches, dropout disabled."""
        total, count = 0.0, 0.0
        with no_grad():
            for batch in batches:
                parts = self.loss(batch, training=False)
                total += parts.nll_token_mean * parts.n_tokens
                count += parts.n_tokens
        return total / count

    def hinge_loss(self, src_ids, tgt_ids):
        """Regression loss for one sentence pair (teacher forcing).

        Sum over target positions of ||e(y_t) - f_s(q_t)||^2 plus the
        weight-norm penalty; requires a b_ref model.
        """
        if self.kind != "b_ref":
            raise ValueError("hinge loss is defined for the b_ref variant")
        if len(tgt_ids) == 0:
            raise ValueError("empty target sentence")
        batch = Batch(src=np.asarray(src_ids)[None, :],
                      src_lens=np.array([len(src_ids)]),
                      tgt=np.array([[BOS] + list(tgt_ids) + [EOS]]),
                      tgt_lens=np.array([len(tgt_ids) + 2]))
        parts = self.loss(batch, training=False)
        return parts.l_m  # batch of one: the per-sentence value

    # -- decoding -----------------------------------------------------------

    def _prepare(self, sources):
        """Encode sentences together, padded to the longest: one encoder pass.

        Returns (step_for, s0): ``step_for(rows)`` builds the model step for
        hypothesis rows whose sentence indices are ``rows``, and s0 holds the
        (N, d_h) initial decoder states.
        """
        lens = np.array([len(s) for s in sources])
        if lens.size == 0 or lens.min() == 0:
            raise ValueError("cannot encode an empty batch or an empty sentence")
        src = np.full((len(sources), lens.max()), PAD)
        for i, ids in enumerate(sources):
            src[i, :len(ids)] = ids
        with no_grad():
            h, mask = seq2seq.encode_batch(self.params, self.dims, src, lens)
            h_proj = seq2seq.attention_proj(self.params, h)
            s0 = seq2seq.initial_state(self.params, h, mask)
        memory = (h.data, h_proj.data, mask)

        def step_for(rows):
            return self._make_step(memory, rows)

        return step_for, s0.data

    def _make_step(self, memory, rows):
        """The decoder step (prev_ids, states) -> (logp, states) for
        hypothesis rows whose sentence indices are ``rows``: each row attends
        to its own sentence's rows of the chunk's ``memory`` (h, h_proj,
        mask)."""
        params, dims = self.params, self.dims
        h, h_proj, mask = (m[rows] for m in memory)

        def step(prev_ids, states):
            with no_grad():
                e_prev = ad.take_rows(params["dec/tgt_emb"], prev_ids)
                s_prev = Tensor(states)
                _, c = seq2seq.attention(s_prev, h, params, mask=mask,
                                         h_proj=h_proj)
                extras = variant_extras(self.kind, params, e_prev, s_prev, c)
                s_new = seq2seq.decoder_step(params, e_prev, s_prev, c,
                                             extras, dims.cell)
                logits = seq2seq.output_logits(params, e_prev, s_new, c)
                logp = ad.log_softmax(logits, axis=1)
            return logp.data, s_new.data

        return step

    def translate_batch(self, sources, beam=1, max_steps=None,
                        length_normalize=True):
        """Decode sentences together; returns each one's ids without BOS/EOS.

        One encoder pass covers all of them, and every greedy or beam step
        advances the open hypotheses of all of them in one model step. Each
        sentence keeps its own budget, 2 * len + 5 steps when max_steps is
        None, and the ranking rules are those of a sentence decoded alone;
        only the last bits of log-probabilities depend on the batch.
        """
        budgets = [2 * len(s) + 5 if max_steps is None else max_steps
                   for s in sources]
        step_for, s0 = self._prepare(sources)
        if beam == 1:
            return [seq2seq.strip_eos(h.tokens)
                    for h in seq2seq.greedy_decode(step_for, s0, budgets)]
        return seq2seq.beam_search(step_for, s0, beam, budgets, length_normalize)

    def translate(self, src_ids, beam=1, max_steps=None, length_normalize=True):
        """Decode one sentence: ``translate_batch`` on a batch of one."""
        return self.translate_batch([src_ids], beam, max_steps, length_normalize)[0]
