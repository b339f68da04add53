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
from .corpus import Batch, PAD
from .params import ParamStore
from .seq2seq import ModelDims

KINDS = ("baseline", "m_ref", "b_ref")


def variant_memory(kind, params):
    """What a variant's extra input reads that no decoder step changes:
    m_ref's anchor keys and values (``mrefnet.anchor_memory``), None for the
    other kinds. A training batch or a decode chunk computes it once."""
    if kind == "m_ref":
        return mrefnet.anchor_memory(params[mrefnet.ANCHOR_KEY], params)
    return None


def variant_extras(kind, params, e_prev, s_prev, c, memory):
    """The extra (vector, projection) inputs of one decoder state update.

    Batched over rows: e_prev is the clean previous-target embedding
    (B, d_e), s_prev the previous state (B, d_h), c the attention context
    (B, 2*d_h). The baseline adds nothing; m_ref adds the anchor context
    c_G through ``mref/proj``; b_ref adds the regression estimate
    f_s([e_prev; s_prev; c]) through ``bref/proj``. memory is
    ``variant_memory(kind, params)``, computed once by the caller.
    """
    if kind == "baseline":
        return []
    if kind == "m_ref":
        _, c_g = mrefnet.global_context(s_prev, c, memory, params)
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
        memory = variant_memory(kind, params)

        def extras_fn(e_prev, s_prev, c):
            extras = variant_extras(kind, params, e_prev, s_prev, c, memory)
            preds.extend(vec for vec, _ in extras)
            return extras

        nll_mean, n_tokens = seq2seq.nll_loss(
            params, self.dims, batch, training=training, rng=rng,
            drop_emb=self.drop_emb, drop_out=self.drop_out, extras_fn=extras_fn)

        if kind != "b_ref":
            return LossParts(nll_mean, float(nll_mean.data), n_tokens)

        # hinge residual ||e(y_t) - f_s(q_t)||^2 over the non-pad targets, all
        # steps at once: the predictions stacked time-major like the targets
        gold, weights = seq2seq.gold_targets(batch.tgt, nll_mean.data.dtype)
        diff = ad.take_rows(params["dec/tgt_emb"], gold) - ad.concat(preds, axis=0)
        res_sum = ad.sum_(ad.sum_(ad.square(diff), axis=1) * weights)
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

    # -- decoding -----------------------------------------------------------

    def _prepare(self, sources):
        """Encode sentences together, padded to the longest: one encoder pass.

        Returns (step_for, s0): ``step_for(sents, singles=())`` builds the
        model step over the hypothesis rows of ``_make_step``, and s0 holds
        the (N, d_h) initial decoder states.
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
            extra = variant_memory(self.kind, self.params)
        memory = (h.data, h_proj.data, mask, extra)

        def step_for(sents, singles=()):
            return self._make_step(memory, (sents, singles))

        return step_for, s0.data

    def _make_step(self, memory, blocks):
        """The decoder step (prev_ids, states) -> (logp, states) over
        hypothesis rows grouped by sentence.

        ``memory`` is a chunk's (h, h_proj, mask, variant memory) and
        ``blocks`` is (sents, singles), two lists of its sentence indices.
        A step's rows are g rows for each sentence of ``sents``, sentence by
        sentence, then one row for each sentence of ``singles``; g is what
        the row count leaves after the single rows, so one step function
        serves every width. The rows of h, h_proj and mask are gathered here,
        once per block, and each sentence's are broadcast over its rows
        (``seq2seq.attention_weights``).
        """
        params, kind = self.params, self.kind
        *encoded, extra = memory
        gathered = [[m[rows] for m in encoded]
                    for rows in (np.asarray(b, dtype=int) for b in blocks)
                    if len(rows)]
        n_single = len(blocks[1])

        def step(prev_ids, states):
            with no_grad():
                e_prev = ad.take_rows(params["dec/tgt_emb"], prev_ids)
                s_prev = Tensor(states)
                cut = len(states) - n_single
                parts = ([s_prev] if len(gathered) == 1
                         else [Tensor(states[:cut]), Tensor(states[cut:])])
                contexts = [seq2seq.attention(s, h, params, mask=mask,
                                              h_proj=h_proj)[1]
                            for s, (h, h_proj, mask) in zip(parts, gathered)]
                c = contexts[0] if len(contexts) == 1 else ad.concat(contexts)
                extras = variant_extras(kind, params, e_prev, s_prev, c, extra)
                s_new = seq2seq.decoder_step(params, e_prev, s_prev, c, extras)
                logits = seq2seq.output_logits(params, e_prev, s_new, c)
                logp = ad.log_softmax(logits, axis=1)
            return logp.data, s_new.data

        return step

    def translate_batch(self, sources, beam=1, max_steps=None,
                        length_normalize=True):
        """Decode sentences together; returns each one's ids without BOS/EOS.

        One encoder pass covers all of them, and every step advances the
        open hypotheses of all of them, greedy rows included, in one model
        step. Each sentence keeps its own budget, 2 * len + 5 steps when
        max_steps is None, and the ranking rules are those of a sentence
        decoded alone; only the last bits of log-probabilities depend on the
        batch.
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
