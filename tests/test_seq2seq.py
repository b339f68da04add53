import math

import numpy as np
import pytest

from refnet import autodiff as ad
from refnet.autodiff import Tensor, no_grad
from refnet.corpus import BOS, EOS, Batch
from refnet.model import TranslationModel
from refnet.seq2seq import (ModelDims, attention, beam_search, decoder_step,
                            encode, greedy_decode,
                            init_baseline_params, nll_loss,
                            output_distribution, output_logits)


def zero_params(ps, names):
    for name in names:
        ps[name].data[...] = 0.0


class TestEncoder:
    def test_single_token_shape(self, tiny_params, tiny_dims):
        h = encode(tiny_params, tiny_dims, [4])
        assert h.shape == (1, 2 * tiny_dims.d_h)

    def test_empty_sentence_rejected(self, tiny_params, tiny_dims):
        with pytest.raises(ValueError, match="empty"):
            encode(tiny_params, tiny_dims, [])

    def test_out_of_range_id_rejected(self, tiny_params, tiny_dims):
        with pytest.raises(ValueError, match="range"):
            encode(tiny_params, tiny_dims, [tiny_dims.vocab_src])

    def test_reversed_input_reverses_backward_states(self, tiny_params, tiny_dims):
        """With tied weights, the backward half on reversed input replays the
        forward half with its rows mirrored."""
        for key in ("W", "U", "b"):
            tiny_params[f"enc/bwd/{key}"].data[...] = \
                tiny_params[f"enc/fwd/{key}"].data
        ids = [4, 5, 6, 4]
        d_h = tiny_dims.d_h
        fwd = encode(tiny_params, tiny_dims, ids).data[:, :d_h]
        bwd_rev = encode(tiny_params, tiny_dims, ids[::-1]).data[:, d_h:]
        for t in range(len(ids)):
            np.testing.assert_array_equal(fwd[t], bwd_rev[len(ids) - 1 - t])

    def test_determinism(self, tiny_dims):
        def run():
            params = init_baseline_params(tiny_dims, np.random.default_rng(3))
            return encode(params, tiny_dims, [4, 5, 6]).data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_batch_row_matches_single_sentence(self, tiny_params, tiny_dims):
        """Padding must not leak into the states of shorter sentences."""
        from refnet.seq2seq import encode_batch
        src = np.array([[4, 5, 6, 5], [6, 4, 0, 0]])
        h, mask = encode_batch(tiny_params, tiny_dims, src, np.array([4, 2]))
        single = encode(tiny_params, tiny_dims, [6, 4])
        np.testing.assert_allclose(h.data[1, :2], single.data, atol=1e-14)
        np.testing.assert_array_equal(mask, [[1, 1, 1, 1], [1, 1, 0, 0]])


class TestAttention:
    def test_single_position(self, tiny_params, tiny_dims):
        h = Tensor(np.random.default_rng(0).normal(size=(1, 1, 2 * tiny_dims.d_h)))
        s = Tensor(np.zeros((1, tiny_dims.d_h)))
        alpha, c = attention(s, h, tiny_params)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_array_equal(c.data, h.data[0])

    def test_zero_parameters_give_uniform_weights(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/att/W", "dec/att/U", "dec/att/v"])
        h = Tensor(np.random.default_rng(1).normal(size=(1, 5, 2 * tiny_dims.d_h)))
        alpha, _ = attention(Tensor(np.zeros((1, tiny_dims.d_h))), h, tiny_params)
        np.testing.assert_allclose(alpha.data, np.full((1, 5), 0.2))

    def test_hand_built_scores(self, tiny_params, tiny_dims):
        """Scores (0, ln 3) must produce weights (0.25, 0.75)."""
        zero_params(tiny_params, ["dec/att/W", "dec/att/U", "dec/att/v"])
        tiny_params["dec/att/U"].data[0, 0] = 1.0
        tiny_params["dec/att/v"].data[0] = 2.0
        h = np.zeros((1, 2, 2 * tiny_dims.d_h))
        h[0, 1, 0] = np.arctanh(math.log(3.0) / 2.0)  # tanh^-1 makes score ln 3
        alpha, c = attention(Tensor(np.zeros((1, tiny_dims.d_h))), Tensor(h),
                             tiny_params)
        np.testing.assert_allclose(alpha.data, [[0.25, 0.75]], atol=1e-12)
        np.testing.assert_allclose(c.data, 0.75 * h[:, 1], atol=1e-12)

    def test_weights_on_simplex_and_shift_invariant(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(1, 4, 2 * tiny_dims.d_h)))
        s = Tensor(rng.normal(size=(1, tiny_dims.d_h)))
        alpha, _ = attention(s, h, tiny_params)
        assert (alpha.data >= 0).all()
        assert abs(alpha.data.sum() - 1.0) < 1e-9
        # shifting every score by a constant cannot change the softmax
        shifted = ad.softmax(Tensor(np.log(alpha.data) + 5.0), axis=1)
        np.testing.assert_allclose(shifted.data, alpha.data, atol=1e-9)

    def test_empty_source_rejected(self, tiny_params, tiny_dims):
        with pytest.raises(ValueError):
            attention(Tensor(np.zeros((1, tiny_dims.d_h))),
                      Tensor(np.zeros((1, 0, 2 * tiny_dims.d_h))), tiny_params)


class TestDecoderStep:
    def _inputs(self, dims, seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(2, dims.d_e))),
                Tensor(rng.normal(size=(2, dims.d_h))),
                Tensor(rng.normal(size=(2, 2 * dims.d_h))))

    def test_no_extras_is_baseline(self, tiny_params, tiny_dims):
        e, s, c = self._inputs(tiny_dims)
        a = decoder_step(tiny_params, e, s, c)
        b = decoder_step(tiny_params, e, s, c, extras=[])
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_extra_projection_is_baseline(self, tiny_params, tiny_dims):
        e, s, c = self._inputs(tiny_dims)
        base = decoder_step(tiny_params, e, s, c)
        proj = Tensor(np.zeros((5, 3 * tiny_dims.d_h)))
        vec = Tensor(np.random.default_rng(1).normal(size=(2, 5)))
        aug = decoder_step(tiny_params, e, s, c, extras=[(vec, proj)])
        np.testing.assert_array_equal(base.data, aug.data)

    def test_extra_gradient_matches_oracle(self, tiny_params, tiny_dims):
        """Gradient w.r.t. the extra context vector itself."""
        from refnet.params import ParamStore, backward, finite_diff_grad, relative_error
        rng = np.random.default_rng(4)
        e, s, c = self._inputs(tiny_dims, seed=4)
        probe = ParamStore()
        probe.add("extra", rng.normal(size=(2, 5)), "m_ref")
        proj = Tensor(rng.normal(size=(5, 3 * tiny_dims.d_h)))
        w = rng.normal(size=(2, tiny_dims.d_h))

        def f(p):
            out = decoder_step(tiny_params, e, s, c, extras=[(p["extra"], proj)])
            return ad.sum_(out * w)

        analytic = backward(f(probe), probe)
        oracle = finite_diff_grad(f, probe, step=1e-4)
        assert relative_error(analytic["extra"], oracle["extra"]) < 1e-4

    def test_tanh_cell_variant(self):
        dims = ModelDims(vocab_src=7, vocab_tgt=7, d_e=3, d_h=4, cell="tanh")
        params = init_baseline_params(dims, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        e = Tensor(rng.normal(size=(1, 3)))
        s = Tensor(rng.normal(size=(1, 4)))
        c = Tensor(rng.normal(size=(1, 8)))
        out = decoder_step(params, e, s, c, cell="tanh")
        x = np.concatenate([e.data, c.data], axis=1)
        expected = np.tanh(x @ params["dec/cell/W"].data
                           + s.data @ params["dec/cell/U"].data
                           + params["dec/cell/b"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-14)


class TestOutputDistribution:
    def test_probabilities_sum_to_one(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(3)
        p = output_distribution(tiny_params, Tensor(rng.normal(size=(2, 3))),
                                Tensor(rng.normal(size=(2, 4))),
                                Tensor(rng.normal(size=(2, 8))))
        assert ((p.data > 0) & (p.data < 1)).all()
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_parameters_give_uniform(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/out/W", "dec/out/b",
                                  "dec/out/Wv", "dec/out/bv"])
        p = output_distribution(tiny_params, Tensor(np.ones((1, 3))),
                                Tensor(np.ones((1, 4))), Tensor(np.ones((1, 8))))
        np.testing.assert_allclose(p.data, 1.0 / tiny_dims.vocab_tgt)

    def test_argmax_matches_logits(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(5)
        e = Tensor(rng.normal(size=(3, 3)))
        s = Tensor(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(3, 8)))
        logits = output_logits(tiny_params, e, s, c)
        probs = output_distribution(tiny_params, e, s, c)
        np.testing.assert_array_equal(np.argmax(logits.data, axis=1),
                                      np.argmax(probs.data, axis=1))


class TestNllLoss:
    def _batch(self, tokens):
        tgt = np.array([[BOS] + tokens + [EOS]])
        return Batch(src=np.array([[4, 5]]), src_lens=np.array([2]),
                     tgt=tgt, tgt_lens=np.array([len(tokens) + 2]))

    def test_uniform_model_loss_is_log_vocab(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/out/W", "dec/out/b",
                                  "dec/out/Wv", "dec/out/bv"])
        loss, n = nll_loss(tiny_params, tiny_dims, self._batch([4, 5, 6]))
        assert n == 4  # three tokens plus EOS
        assert float(loss.data) == pytest.approx(math.log(tiny_dims.vocab_tgt))

    def test_certain_model_loss_is_zero(self, tiny_params, tiny_dims):
        # a huge output bias on one token drives its probability to exactly 1
        zero_params(tiny_params, ["dec/out/W", "dec/out/b",
                                  "dec/out/Wv", "dec/out/bv"])
        tiny_params["dec/out/bv"].data[4] = 1000.0
        batch = self._batch([4, 4])
        batch.tgt[0, -1] = 4  # all supervised positions ask for token 4
        batch.tgt = batch.tgt[:, :-1]
        loss, _ = nll_loss(tiny_params, tiny_dims, batch)
        assert float(loss.data) == 0.0

    def test_hand_computed_two_token_example(self, tiny_params, tiny_dims):
        """Mean of -log p over the two supervised steps, done by hand."""
        batch = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                      tgt=np.array([[BOS, 5, EOS]]), tgt_lens=np.array([3]))
        loss, n = nll_loss(tiny_params, tiny_dims, batch)
        assert n == 2

        from refnet.seq2seq import (attention, decoder_step, encode_batch,
                                    initial_state)
        with no_grad():
            h, mask = encode_batch(tiny_params, tiny_dims, batch.src,
                                   batch.src_lens)
            s = initial_state(tiny_params, h, mask)
            total = 0.0
            for t in (1, 2):
                e_prev = ad.take_rows(tiny_params["dec/tgt_emb"],
                                      batch.tgt[:, t - 1])
                _, c = attention(s, h, tiny_params, mask=mask)
                s = decoder_step(tiny_params, e_prev, s, c)
                p = output_distribution(tiny_params, e_prev, s, c)
                total -= math.log(p.data[0, batch.tgt[0, t]])
        assert float(loss.data) == pytest.approx(total / 2, rel=1e-12)

    def test_pad_positions_ignored(self, tiny_params, tiny_dims):
        plain = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                      tgt=np.array([[BOS, 5, EOS]]), tgt_lens=np.array([3]))
        padded = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                       tgt=np.array([[BOS, 5, EOS, 0, 0]]),
                       tgt_lens=np.array([3]))
        a, na = nll_loss(tiny_params, tiny_dims, plain)
        b, nb = nll_loss(tiny_params, tiny_dims, padded)
        assert na == nb
        assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)

    def test_empty_batch_rejected(self, tiny_params, tiny_dims):
        empty = Batch(src=np.zeros((0, 1), dtype=int), src_lens=np.zeros(0, int),
                      tgt=np.zeros((0, 2), dtype=int), tgt_lens=np.zeros(0, int))
        with pytest.raises(ValueError):
            nll_loss(tiny_params, tiny_dims, empty)


class TestDecoding:
    def _model(self, seed=0, vocab=5):
        dims = ModelDims(vocab_src=vocab, vocab_tgt=vocab, d_e=3, d_h=4)
        params = init_baseline_params(dims, np.random.default_rng(seed))
        return TranslationModel(params, dims)

    def test_beam_one_equals_greedy(self):
        model = self._model(seed=1, vocab=8)
        rng = np.random.default_rng(2)
        for _ in range(10):
            src = rng.integers(4, 8, size=rng.integers(1, 6)).tolist()
            h, h_proj, s0 = model._prepare(src)
            beam_one = beam_search(model._make_step(h, h_proj), s0, 1,
                                   2 * len(src) + 5)
            assert model.translate(src, beam=1) == beam_one

    def test_beam_score_at_least_greedy(self):
        """Widening the beam never returns a worse-scoring hypothesis."""
        from refnet.seq2seq import beam_search as raw_beam

        for seed in range(6):
            model = self._model(seed=seed, vocab=8)
            src = np.random.default_rng(seed).integers(4, 8, size=4).tolist()
            h, h_proj, s0 = model._prepare(src)
            step = model._make_step(h, h_proj)
            greedy_hyp = greedy_decode(step, s0, max_steps=13)
            for k in (2, 4):
                beam_toks = raw_beam(step, s0, k=k, max_steps=13)
                # replay the beam result to get its hypothesis score
                state, prev, total = s0, BOS, 0.0
                seq = beam_toks + ([EOS] if len(beam_toks) < 13 else [])
                for tok in seq:
                    logp, states = step(np.array([prev]), state[None, :])
                    total += logp[0, tok]
                    state, prev = states[0], tok
                beam_score = total / max(1, len(seq))
                assert beam_score >= greedy_hyp.score() - 1e-12

    def test_beam_matches_exhaustive_on_micro_model(self):
        """With the beam as wide as the search space, beam = brute force."""
        model = self._model(seed=5, vocab=5)
        src = [4, 4]
        max_steps = 2
        h, h_proj, s0 = model._prepare(src)
        step = model._make_step(h, h_proj)

        # decoding outcomes within a 2-step budget: an immediate EOS, one
        # token then EOS, or two non-EOS tokens (budget exhausted)
        candidates = [[EOS]]
        candidates += [[t, EOS] for t in range(5) if t != EOS]
        candidates += [[t1, t2] for t1 in range(5) for t2 in range(5)
                       if EOS not in (t1, t2)]

        def score(seq):
            state, prev, total = s0, BOS, 0.0
            for tok in seq:
                logp, states = step(np.array([prev]), state[None, :])
                total += logp[0, tok]
                state, prev = states[0], tok
            return total / max(1, len(seq))

        best = max(candidates, key=score)
        found = beam_search(step, s0, k=5 ** 2, max_steps=max_steps)
        found_full = found + [EOS] if len(found) < max_steps else found
        assert score(found_full) == pytest.approx(score(best), rel=1e-12)

    def test_decode_deterministic(self):
        model = self._model(seed=7, vocab=8)
        src = [4, 5, 6]
        assert model.translate(src, beam=3) == model.translate(src, beam=3)

    def test_greedy_stops_at_budget(self):
        model = self._model(seed=8, vocab=6)
        hyp = greedy_decode(model._make_step(*model._prepare([4])[:2]),
                            model._prepare([4])[2], max_steps=3)
        assert len(hyp.tokens) <= 3
