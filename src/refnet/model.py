"""Model facade: one object covering the baseline and both reference variants.

The variant only changes which extra input reaches the decoder cell:
nothing for the baseline, the anchor-attention context c_G for the
monolingual variant ("m_ref"), the regression estimate f_s for the
bilingual one ("b_ref"). ``variant_extras`` is the one place that says
so, as a kernel pair on arrays (``seq2seq.ExtraInput``); the teacher-forced
decoder node, decoding and the gradient checks all run it inside the one
decoder step kernel, ``seq2seq.decoder_step``.
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


def variant_extras(kind, params):
    """The extra input a kind feeds the decoder cell, as a
    ``seq2seq.ExtraInput`` kernel pair on arrays, or None for the baseline.

    m_ref adds the anchor-attention context c_G (``mrefnet.global_context``)
    through ``mref/proj``, over the anchor keys and values of
    ``mrefnet.anchor_memory``, computed here once: no decoder step changes
    them, so a training batch or a decode chunk shares them. b_ref adds the
    regression estimate f_s([e_prev; s_prev; c])
    (``brefnet.query_regression``) through ``bref/proj``, and its hinge loss
    reads the estimates too.
    """
    if kind == "baseline":
        return None
    if kind == "m_ref":
        memory = mrefnet.anchor_memory(params[mrefnet.ANCHOR_KEY], params)
        return seq2seq.ExtraInput(
            mrefnet.global_context, mrefnet.global_context_backward,
            tuple(params[k] for k in mrefnet.CONTEXT_PARAMS) + tuple(memory),
            params["mref/proj"])
    if kind == "b_ref":
        return seq2seq.ExtraInput(
            brefnet.query_regression, brefnet.query_regression_backward,
            tuple(params[k] for k in brefnet.F_S_PARAMS), params["bref/proj"],
            predicts_embedding=True)
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
        nll_mean, n_tokens, preds = seq2seq.nll_loss(
            params, self.dims, batch, training=training, rng=rng,
            drop_emb=self.drop_emb, drop_out=self.drop_out,
            extra=variant_extras(kind, params))

        if kind != "b_ref":
            return LossParts(nll_mean, float(nll_mean.data.real), n_tokens)

        # hinge residual ||e(y_t) - f_s(q_t)||^2 over the non-pad targets, all
        # steps at once: the predictions come time-major like the targets
        gold, weights = seq2seq.gold_targets(batch.tgt, nll_mean.data.real.dtype)
        diff = ad.take_rows(params["dec/tgt_emb"], gold) - preds
        res_sum = ad.sum_(ad.sum_(ad.square(diff), axis=1) * weights)
        B = len(batch)
        reg = ad.sum_(brefnet.regression_weight_norms(params))
        l_m_mean = res_sum * (1.0 / B) + self.lam_m * reg
        joint = nll_mean * (n_tokens / B) + self.lam * l_m_mean
        return LossParts(joint, float(nll_mean.data.real), n_tokens,
                         l_m=float(l_m_mean.data.real))

    def dev_loss(self, batches):
        """Mean per-token NLL over batches, dropout disabled: the likelihood
        term of ``loss`` alone, without b_ref's hinge loss."""
        total, count = 0.0, 0.0
        with no_grad():
            extra = variant_extras(self.kind, self.params)
            for batch in batches:
                nll_mean, n_tokens, _ = seq2seq.nll_loss(
                    self.params, self.dims, batch, extra=extra)
                total += float(nll_mean.data.real) * n_tokens
                count += n_tokens
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
            extra = variant_extras(self.kind, self.params)
        memory = (h.data, h_proj.data, seq2seq.mask_bias(mask),
                  None if extra is None else extra.kernel())

        def step_for(sents, singles=()):
            return self._make_step(memory, (sents, singles))

        return step_for, s0.data

    def _make_step(self, memory, blocks):
        """The decoder step (prev_ids, states) -> (logp, states) over
        hypothesis rows grouped by sentence.

        ``memory`` is a chunk's (h, h_proj, mask bias, extra input) and
        ``blocks`` is (sents, singles), two lists of its sentence indices.
        A step's rows are g rows for each sentence of ``sents``, sentence by
        sentence, then one row for each sentence of ``singles``; g is what
        the row count leaves after the single rows, so one step function
        serves every width. The rows of h, h_proj and the mask bias are
        gathered here, once per block; in one ``seq2seq.decoder_step``, the
        kernel the teacher-forced decoder runs, each block of rows attends
        over its own sentences, whose memory is broadcast over their rows.
        """
        params = self.params
        *encoded, extra = memory
        gathered = [[m[rows] for m in encoded]
                    for rows in (np.asarray(b, dtype=int) for b in blocks)
                    if len(rows)]
        n_single = len(blocks[1])
        weights = [params[k].data for k in seq2seq.DECODER_WEIGHTS]
        table = params["dec/tgt_emb"].data

        def step(prev_ids, states):
            cut = len(states) - n_single
            rows = [len(states)] if len(gathered) == 1 else [cut, n_single]
            e_prev = table[np.asarray(prev_ids, dtype=np.int64)]
            s_new, c, _, _ = seq2seq.decoder_step(
                weights, e_prev, states,
                [(*block, n) for block, n in zip(gathered, rows)], extra)
            with no_grad():
                logits = seq2seq.readout(params, ad.concat([e_prev, s_new, c], axis=1))
                logp = ad.log_softmax(logits, axis=1)
            return logp.data, s_new

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
