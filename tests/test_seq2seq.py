import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refnet import autodiff as ad
from refnet.autodiff import Tensor, no_grad
from refnet.corpus import BOS, EOS, Batch
from refnet.brefnet import init_b_params
from refnet.model import KINDS, TranslationModel
from refnet.mrefnet import ANCHOR_KEY, init_m_params
from refnet.params import ParamStore
from refnet.training import STAGE_FREEZES
from refnet import seq2seq
from refnet.seq2seq import (GATES, ModelDims, beam_search, decoder_step,
                            encode_batch, init_baseline_params, nll_loss,
                            readout)
from reference import (additive_attention, attention_weights, concat, recurrent_cell,
                       reference_decoder, reference_encoder, sigmoid)


def zero_params(ps, names):
    for name in names:
        ps[name].data[...] = 0.0


class TestEncoder:
    def test_single_token_shape(self, tiny_params, tiny_dims):
        h, _ = encode_batch(tiny_params, tiny_dims, [[4]], [1])
        assert h.shape == (1, 1, 2 * tiny_dims.d_h)

    def test_empty_sentence_rejected(self, tiny_params, tiny_dims):
        with pytest.raises(ValueError, match="empty"):
            encode_batch(tiny_params, tiny_dims, np.zeros((1, 0), dtype=int), [0])

    def test_out_of_range_id_rejected(self, tiny_params, tiny_dims):
        with pytest.raises(ValueError, match="range"):
            encode_batch(tiny_params, tiny_dims, [[tiny_dims.vocab_src]], [1])

    def test_reversed_input_reverses_backward_states(self, tiny_params, tiny_dims):
        """With tied weights, the backward half on reversed input replays the
        forward half with its rows mirrored."""
        for key in ("W", "U", "b"):
            tiny_params[f"enc/bwd/{key}"].data[...] = \
                tiny_params[f"enc/fwd/{key}"].data
        ids = [4, 5, 6, 4]
        d_h = tiny_dims.d_h
        fwd = encode_batch(tiny_params, tiny_dims, [ids], [4])[0].data[0, :, :d_h]
        bwd_rev = encode_batch(tiny_params, tiny_dims, [ids[::-1]],
                               [4])[0].data[0, :, d_h:]
        for t in range(len(ids)):
            np.testing.assert_array_equal(fwd[t], bwd_rev[len(ids) - 1 - t])

    def test_determinism(self, tiny_dims):
        def run():
            params = init_baseline_params(tiny_dims, np.random.default_rng(3))
            return encode_batch(params, tiny_dims, [[4, 5, 6]], [3])[0].data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_batch_row_matches_single_sentence(self, tiny_params, tiny_dims):
        """Padding must not leak into the states of shorter sentences."""
        src = np.array([[4, 5, 6, 5], [6, 4, 0, 0]])
        h, mask = encode_batch(tiny_params, tiny_dims, src, np.array([4, 2]))
        single, _ = encode_batch(tiny_params, tiny_dims, [[6, 4]], [2])
        np.testing.assert_allclose(h.data[1, :2], single.data[0], atol=1e-14)
        np.testing.assert_array_equal(mask, [[1, 1, 1, 1], [1, 1, 0, 0]])


def step_attention(params, s, h, mask=None):
    """The attention weights and context of one ``decoder_step`` from the
    states s over the memory h; alpha is read from the step's cache."""
    s, h = np.asarray(s), np.asarray(h)
    weights = [params[k].data for k in seq2seq.DECODER_WEIGHTS]
    e = np.zeros((len(s), params["dec/tgt_emb"].shape[1]))
    memory = [(h, h @ params["dec/att/U"].data, seq2seq.mask_bias(mask), len(s))]
    _, c, _, (((alpha, _),), _, _) = decoder_step(weights, e, s, memory)
    return alpha, c


class TestAttention:
    def test_single_position(self, tiny_params, tiny_dims):
        h = np.random.default_rng(0).normal(size=(1, 1, 2 * tiny_dims.d_h))
        alpha, c = step_attention(tiny_params, np.zeros((1, tiny_dims.d_h)), h)
        np.testing.assert_allclose(alpha, [[1.0]])
        np.testing.assert_array_equal(c, h[0])

    def test_zero_parameters_give_uniform_weights(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/att/W", "dec/att/U", "dec/att/v"])
        h = np.random.default_rng(1).normal(size=(1, 5, 2 * tiny_dims.d_h))
        alpha, _ = step_attention(tiny_params, np.zeros((1, tiny_dims.d_h)), h)
        np.testing.assert_allclose(alpha, np.full((1, 5), 0.2))

    def test_hand_built_scores(self, tiny_params, tiny_dims):
        """Scores (0, ln 3) must produce weights (0.25, 0.75)."""
        zero_params(tiny_params, ["dec/att/W", "dec/att/U", "dec/att/v"])
        tiny_params["dec/att/U"].data[0, 0] = 1.0
        tiny_params["dec/att/v"].data[0] = 2.0
        h = np.zeros((1, 2, 2 * tiny_dims.d_h))
        h[0, 1, 0] = np.arctanh(math.log(3.0) / 2.0)  # tanh^-1 makes score ln 3
        alpha, c = step_attention(tiny_params, np.zeros((1, tiny_dims.d_h)), h)
        np.testing.assert_allclose(alpha, [[0.25, 0.75]], atol=1e-12)
        np.testing.assert_allclose(c, 0.75 * h[:, 1], atol=1e-12)

    def test_weights_on_simplex_and_shift_invariant(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(1, 4, 2 * tiny_dims.d_h))
        alpha, _ = step_attention(tiny_params, rng.normal(size=(1, tiny_dims.d_h)), h)
        assert (alpha >= 0).all()
        assert abs(alpha.sum() - 1.0) < 1e-9
        # shifting every score by a constant cannot change the softmax
        shifted = ad.softmax(Tensor(np.log(alpha) + 5.0), axis=1)
        np.testing.assert_allclose(shifted.data, alpha, atol=1e-9)

    def test_empty_source_rejected(self, tiny_params, tiny_dims):
        h = np.zeros((1, 0, 2 * tiny_dims.d_h))
        with pytest.raises(ValueError, match="source position"):
            seq2seq.decoder_recurrence(
                tiny_params, np.zeros((1, tiny_dims.d_h)),
                np.zeros((1, 2, tiny_dims.d_e)), h, np.zeros((1, 0, 4)), None)


def constant_extra(vec, proj):
    """An extra input whose vector is its one weight, whatever the step:
    the kernel pair of an ``ExtraInput`` over the tensors vec and proj."""
    return seq2seq.ExtraInput(
        lambda e, s, c, weights: (weights[0], None),
        lambda g, cache, needs: [None, None, None, g if needs[3] else None],
        (vec,), proj)


class TestDecoderStep:
    def _inputs(self, params, dims, seed=0):
        """The step's weights, e_prev, s_prev and one memory block."""
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(2, 3, 2 * dims.d_h))
        return ([params[k].data for k in seq2seq.DECODER_WEIGHTS],
                rng.normal(size=(2, dims.d_e)), rng.normal(size=(2, dims.d_h)),
                [(h, h @ params["dec/att/U"].data, None, 2)])

    def test_no_extras_is_baseline(self, tiny_params, tiny_dims):
        """Without an extra input the step is the gated cell over [e; c]."""
        weights, e, s, memory = self._inputs(tiny_params, tiny_dims)
        s_new, c, vec, _ = decoder_step(weights, e, s, memory)
        assert vec is None
        cell = recurrent_cell(np.concatenate([e, c], axis=1), s,
                              *(tiny_params[f"dec/cell/{k}"] for k in "WUb"))
        np.testing.assert_array_equal(s_new, cell.data)

    def test_zero_extra_projection_is_baseline(self, tiny_params, tiny_dims):
        weights, e, s, memory = self._inputs(tiny_params, tiny_dims)
        extra = constant_extra(Tensor(np.random.default_rng(1).normal(size=(2, 5))),
                               Tensor(np.zeros((5, 3 * tiny_dims.d_h))))
        base = decoder_step(weights, e, s, memory)[0]
        aug = decoder_step(weights, e, s, memory, extra.kernel())[0]
        np.testing.assert_array_equal(base, aug)

    def test_extra_gradient_matches_oracle(self, tiny_params, tiny_dims):
        """Gradient w.r.t. the extra vector itself, read at both steps of
        the decoder node."""
        from refnet.params import ParamStore, backward, finite_diff_grad, relative_error
        rng = np.random.default_rng(4)
        _, e, s, ((h, h_proj, _, _),) = self._inputs(tiny_params, tiny_dims, seed=4)
        emb = rng.normal(size=(2, 3, tiny_dims.d_e))
        probe = ParamStore()
        probe.add("extra", rng.normal(size=(2, 5)), "m_ref")
        proj = Tensor(rng.normal(size=(5, 3 * tiny_dims.d_h)))
        w = rng.normal(size=(4, tiny_dims.d_e + 3 * tiny_dims.d_h))

        def f(p):
            out = seq2seq.decoder_recurrence(tiny_params, s, emb, h, h_proj, None,
                                             constant_extra(p["extra"], proj))
            return ad.sum_(out * w)

        analytic = backward(f(probe), probe)
        oracle = finite_diff_grad(f, probe, step=1e-4)
        assert relative_error(analytic["extra"], oracle["extra"]) < 1e-4


def reference_cell(x, s_prev, W, U, b, extras=(), mask=None):
    """The same cell composed of tape ops, one node per matmul, slice, gate
    and padding blend: the reference the single-node cell must match."""
    gx = ad.matmul(x, W) + b
    for vec, proj in extras:
        gx = gx + ad.matmul(vec, proj)
    gs = ad.matmul(s_prev, U)
    d_h = U.shape[0]
    xr, xz, xn = gx[:, :d_h], gx[:, d_h:2 * d_h], gx[:, 2 * d_h:]
    sr, sz, sn = gs[:, :d_h], gs[:, d_h:2 * d_h], gs[:, 2 * d_h:]
    r = sigmoid(xr + sr)
    z = sigmoid(xz + sz)
    n = ad.tanh(xn + r * sn)
    out = ad.sub(1.0, z) * n + z * s_prev
    return out if mask is None else out * mask + s_prev * (1.0 - mask)


def cell_inputs(n_extras, B=5, d_x=6, d_h=4, seed=0):
    """(x, s_prev, W, U, b, extras) as fresh parameters."""
    rng = np.random.default_rng(seed)
    width = GATES * d_h
    p = lambda *shape: ad.parameter(rng.normal(0.0, 0.7, size=shape))  # noqa: E731
    extras = [(p(B, 3 + i), p(3 + i, width)) for i in range(n_extras)]
    return p(B, d_x), p(B, d_h), p(d_x, width), p(d_h, width), p(width), extras


def leaves(x, s_prev, W, U, b, extras):
    return [x, s_prev, W, U, b] + [t for pair in extras for t in pair]


def ragged_batch(rng, dims, B):
    """B pairs with source lengths 1..5 and target lengths 3..7 (BOS and EOS
    included), padded: row 0 is the longest on both sides."""
    src_lens = rng.integers(1, 6, size=B)
    tgt_lens = rng.integers(3, 8, size=B)
    src_lens[0], tgt_lens[0] = 5, 7
    src = rng.integers(4, dims.vocab_src, size=(B, 5))
    src[np.arange(5)[None, :] >= src_lens[:, None]] = 0
    tgt = rng.integers(4, dims.vocab_tgt, size=(B, 7))
    tgt[:, 0] = BOS
    tgt[np.arange(B), tgt_lens - 1] = EOS
    tgt[np.arange(7)[None, :] >= tgt_lens[:, None]] = 0
    return Batch(src=src, src_lens=src_lens, tgt=tgt)


def decoder_node(root):
    """The one ``decoder_recurrence`` node reachable from ``root``."""
    (node,) = [n for n in ad._toposort(root) if n._bwd is not None
               and n._bwd.__qualname__.startswith("decoder_recurrence.")]
    return node


ENCODER_PARAMS = ["enc/src_emb"] + [f"enc/{d}/{k}" for d in ("fwd", "bwd")
                                    for k in "WUb"]


def baseline_store(dims, seed, dtype):
    ref = init_baseline_params(dims, np.random.default_rng(seed))
    ps = ParamStore(dtype)
    for name, t in ref.items():
        ps.add(name, t.data, ref.group_of(name))
    return ps


class TestFusedCell:
    @pytest.mark.parametrize("n_extras", [0, 1, 2])
    def test_forward_bit_identical_to_composed_cell(self, n_extras):
        for B in (1, 2, 7):
            args = cell_inputs(n_extras, B=B, seed=B)
            fused = recurrent_cell(*args[:5], args[5])
            ref = reference_cell(*args[:5], args[5])
            assert np.array_equal(fused.data, ref.data)

    def test_encode_batch_with_padding_bit_identical(self):
        """The one-node encoder against the per-step reference on ragged
        batches (lengths 1 through m, so padding reaches both directions),
        dropout on, in float32 and float64: the states and the gradients of
        all six recurrence weights and of the embedding table match exactly."""
        dims = ModelDims(vocab_src=11, vocab_tgt=5, d_e=5, d_h=6)
        for dtype in (np.float32, np.float64):
            for m, seed in ((1, 0), (2, 1), (5, 2), (9, 3)):
                rng = np.random.default_rng(seed)
                lens = np.concatenate([np.arange(1, m + 1), [m, 1]])
                src = rng.integers(4, dims.vocab_src, size=(m + 2, m))
                src[np.arange(m)[None, :] >= lens[:, None]] = 0
                w = rng.normal(size=(m + 2, m, 2 * dims.d_h)).astype(dtype)
                ps = baseline_store(dims, seed, dtype)
                outs, grads = [], []
                for encode in (lambda *a: encode_batch(*a)[0], reference_encoder):
                    h = encode(ps, dims, src, lens, True,
                               np.random.default_rng(seed), 0.3)
                    outs.append(h.data)
                    grads.append(ad.grad_map(ad.sum_(ad.tanh(h) * w)))
                assert outs[0].dtype == dtype
                np.testing.assert_array_equal(outs[0], outs[1])
                for name in ENCODER_PARAMS:
                    leaf = id(ps[name])
                    assert grads[0][leaf].dtype == dtype
                    np.testing.assert_array_equal(grads[0][leaf], grads[1][leaf],
                                                  err_msg=name)

    def test_encoder_padding_keeps_the_state(self):
        dims = ModelDims(vocab_src=9, vocab_tgt=5, d_e=3, d_h=4)
        ps = init_baseline_params(dims, np.random.default_rng(4))
        h = encode_batch(ps, dims, np.array([[4, 5, 6, 7], [6, 4, 0, 0]]),
                         [4, 2])[0].data
        d_h = dims.d_h
        np.testing.assert_array_equal(h[1, 2:, :d_h], h[1, [1, 1], :d_h])
        np.testing.assert_array_equal(h[1, 2:, d_h:], 0.0)

    def test_encoder_records_one_node(self):
        dims = ModelDims(vocab_src=9, vocab_tgt=5, d_e=3, d_h=4)
        ps = init_baseline_params(dims, np.random.default_rng(5))
        h, _ = encode_batch(ps, dims, [[4, 5, 6], [7, 0, 0]], [3, 1])
        assert h.parents[1:] == tuple(ps[name] for name in ENCODER_PARAMS[1:])
        assert tape_ops(h) == {"encoder_recurrence": 1, "take_rows": 1}
        ps.freeze("encoder")
        assert encode_batch(ps, dims, [[4, 5]], [2])[0].parents == ()

    def test_weight_gradients_match_oracle_over_constant_embeddings(self):
        """Only the weights move under the complex step: the node's buffers
        must take the dtype of every input, not of the embeddings alone."""
        from refnet.params import backward, finite_diff_grad, relative_error
        rng = np.random.default_rng(6)
        emb = Tensor(rng.normal(size=(2, 3, 3)))
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        ps = ParamStore()
        shapes = {"W": (3, 3 * 4), "U": (4, 3 * 4), "b": (3 * 4,)}  # d_e 3, d_h 4
        for name in ENCODER_PARAMS[1:]:
            ps.add(name, rng.normal(0, 0.5, size=shapes[name[-1]]), "encoder")
        w = rng.normal(size=(2, 3, 8))

        def f(p):
            fwd, bwd = ([p[f"enc/{d}/{k}"] for k in "WUb"] for d in ("fwd", "bwd"))
            return ad.sum_(ad.tanh(seq2seq.encoder_recurrence(emb, mask, fwd, bwd)) * w)

        analytic = backward(f(ps), ps)
        oracle = finite_diff_grad(f, ps, step=1e-20)
        for name in ENCODER_PARAMS[1:]:
            assert relative_error(analytic[name], oracle[name]) < 1e-10, name

    @pytest.mark.parametrize("n_extras", [0, 2])
    def test_backward_matches_composed_cell(self, n_extras):
        args = cell_inputs(n_extras, seed=3)
        w = np.random.default_rng(4).normal(size=(5, 4))
        grads = []
        for fn in (recurrent_cell, reference_cell):
            out = fn(*args[:5], args[5])
            grads.append(ad.grad_map(ad.sum_(ad.tanh(out) * w)))
        for leaf in leaves(*args):
            fused, ref = grads[0][id(leaf)], grads[1][id(leaf)]
            assert fused.shape == leaf.shape
            assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_row_mask_matches_composed_blend(self):
        args = cell_inputs(1, seed=7)
        mask = np.array([[1.0], [0.0], [1.0], [0.0], [1.0]])
        w = np.random.default_rng(8).normal(size=(5, 4))
        outs, grads = [], []
        for fn in (recurrent_cell, reference_cell):
            out = fn(*args[:5], args[5], mask=mask)
            outs.append(out.data)
            grads.append(ad.grad_map(ad.sum_(ad.tanh(out) * w)))
        assert np.array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0][[1, 3]], args[1].data[[1, 3]])
        for leaf in leaves(*args):
            fused, ref = grads[0][id(leaf)], grads[1][id(leaf)]
            assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_constant_inputs_get_no_gradient(self):
        x, s_prev, W, U, b, extras = cell_inputs(1, seed=5)
        s_const, vec_const = Tensor(s_prev.data), Tensor(extras[0][0].data)
        out = recurrent_cell(x, s_const, W, U, b, [(vec_const, extras[0][1])])
        grads = ad.grad_map(ad.sum_(out))
        assert id(s_const) not in grads and id(vec_const) not in grads
        ref = ad.grad_map(ad.sum_(reference_cell(
            x, s_const, W, U, b, [(vec_const, extras[0][1])])))
        for leaf in (x, W, U, b, extras[0][1]):
            np.testing.assert_allclose(grads[id(leaf)], ref[id(leaf)],
                                       rtol=1e-12, atol=1e-15)

    def test_one_call_records_one_node(self):
        args = cell_inputs(2, seed=6)
        out = recurrent_cell(*args[:5], args[5])
        assert out.parents == tuple(leaves(*args))
        assert all(p._bwd is None for p in out.parents)
        with no_grad():
            assert recurrent_cell(*args[:5], args[5]).parents == ()


STAGE_OF = {"baseline": "pretrain", "m_ref": "finetune-m", "b_ref": "train-b"}


class TestDecoderRecurrence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("frozen", [False, True], ids=["all", "stage"])
    def test_bit_identical_to_per_step_composition(self, kind, dtype, training,
                                                   frozen):
        """The one-node decoder against ``reference_decoder`` on ragged
        sources and targets at B = 1, 2, 3 and 7: the states, contexts and
        b_ref's predictions, the loss and the gradient of every parameter
        are equal bit for bit, with every group trained or with the kind's
        stage freezes, with dropout off (the cell and the extra input read
        one embedding tensor) and on."""
        for B in (1, 2, 3, 7):
            model = reference_model(kind, seed=B)
            model.params = model.params.copy(dtype)
            if frozen:
                model.params.freeze(*STAGE_FREEZES[STAGE_OF[kind]])
            model.drop_emb, model.drop_out = (0.2, 0.3) if training else (0.0, 0.0)
            model.lam, model.lam_m = 0.7, 1e-2
            batch = ragged_batch(np.random.default_rng(B), model.dims, B)
            joint = model.loss(batch, training, np.random.default_rng(9)).joint
            ref, *ref_outs = reference_decoder(model, batch, training,
                                               np.random.default_rng(9))
            assert joint.data.dtype == dtype
            np.testing.assert_array_equal(joint.data, ref.data)
            out, d_h = decoder_node(joint).data, model.dims.d_h
            out = out[:, model.dims.d_e:]
            cols = [out[:, :d_h], out[:, d_h:3 * d_h], out[:, 3 * d_h:]]
            for got, want in zip(cols, ref_outs):
                if want is None:
                    assert got.shape[1] == 0
                else:
                    np.testing.assert_array_equal(got, want.data)
            grads, ref_grads = ad.grad_map(joint), ad.grad_map(ref)
            for name, t in model.params.items():
                assert (id(t) in grads) == (id(t) in ref_grads), name
                if id(t) in grads:
                    assert grads[id(t)].dtype == dtype
                    np.testing.assert_array_equal(grads[id(t)], ref_grads[id(t)],
                                                  err_msg=f"{name} at B={B}")


def reference_attention(q, keys, values, v, mask=None):
    """Additive attention composed of tape ops, one node per broadcast add,
    tanh, product, sum and softmax: the reference the two-node op must
    match."""
    B, d = q.shape
    e = ad.tanh(ad.reshape(q, (B, 1, d)) + keys)
    scores = ad.sum_(e * v, axis=2)
    if mask is not None:
        scores = scores + (mask - 1.0) * seq2seq.NEG_BIG
    alpha = ad.softmax(scores, axis=1)
    return alpha, ad.sum_(ad.reshape(alpha, alpha.shape + (1,)) * values, axis=1)


def attention_inputs(shared, B=4, m=5, d=3, d_v=6, seed=0):
    """(q, keys, values, v, mask) as fresh parameters; shared keys and values
    are (1, m, .) and unmasked, per-row ones carry a padding mask."""
    rng = np.random.default_rng(seed)
    p = lambda *shape: ad.parameter(rng.normal(0.0, 0.8, size=shape))  # noqa: E731
    rows = 1 if shared else B
    mask = None
    if not shared:
        lens = rng.integers(1, m + 1, size=B)
        lens[0] = m
        mask = (np.arange(m)[None, :] < lens[:, None]).astype(np.float64)
    return p(B, d), p(rows, m, d), p(rows, m, d_v), p(d), mask


class TestFusedAttention:
    @pytest.mark.parametrize("shared", [False, True])
    def test_forward_matches_composed_attention(self, shared):
        for B in (1, 2, 7):
            q, keys, values, v, mask = attention_inputs(shared, B=B, seed=B)
            alpha, c = additive_attention(q, keys, values, v, mask)
            ref_alpha, ref_c = reference_attention(q, keys, values, v, mask)
            np.testing.assert_allclose(alpha.data, ref_alpha.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c.data, ref_c.data, rtol=0,
                                       atol=1e-12 * np.abs(ref_c.data).max())
            if mask is not None:
                assert (alpha.data[mask == 0] == 0.0).all()

    @pytest.mark.parametrize("shared", [False, True])
    def test_backward_matches_composed_attention(self, shared):
        q, keys, values, v, mask = attention_inputs(shared, seed=3)
        rng = np.random.default_rng(4)
        w_alpha, w_c = rng.normal(size=(4, 5)), rng.normal(size=(4, 6))
        grads = []
        for fn in (additive_attention, reference_attention):
            alpha, c = fn(q, keys, values, v, mask)
            grads.append(ad.grad_map(ad.sum_(alpha * w_alpha)
                                     + ad.sum_(ad.tanh(c) * w_c)))
        for leaf in (q, keys, values, v):
            fused, ref = grads[0][id(leaf)], grads[1][id(leaf)]
            assert fused.shape == leaf.shape
            assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shared", [False, True])
    def test_constant_inputs_get_no_gradient(self, shared):
        q, keys, values, v, mask = attention_inputs(shared, seed=5)
        keys_const, values_const = Tensor(keys.data), Tensor(values.data)
        alpha, c = additive_attention(q, keys_const, values_const, v, mask)
        grads = ad.grad_map(ad.sum_(c) + ad.sum_(alpha * alpha))
        assert id(keys_const) not in grads and id(values_const) not in grads
        ref_alpha, ref_c = reference_attention(q, keys_const, values_const, v, mask)
        ref = ad.grad_map(ad.sum_(ref_c) + ad.sum_(ref_alpha * ref_alpha))
        for leaf in (q, v):
            np.testing.assert_allclose(grads[id(leaf)], ref[id(leaf)],
                                       rtol=1e-12, atol=1e-15)

    def test_one_call_records_two_nodes(self):
        q, keys, values, v, mask = attention_inputs(False, seed=6)
        alpha, c = additive_attention(q, keys, values, v, mask)
        assert alpha.parents == (q, keys, v)
        assert c.parents == (alpha, values)
        with no_grad():
            alpha, c = additive_attention(q, keys, values, v, mask)
            assert alpha.parents == () and c.parents == ()


def grouped_inputs(n, g, m=5, d=3, d_v=6, seed=0):
    """(q, keys, values, v, mask, rep): B = n * g query rows over n masked
    key sets, and rep, the key set of every row."""
    rng = np.random.default_rng(seed)
    p = lambda *shape: ad.parameter(rng.normal(0.0, 0.8, size=shape))  # noqa: E731
    lens = rng.integers(1, m + 1, size=n)
    mask = (np.arange(m)[None, :] < lens[:, None]).astype(np.float64)
    return (p(n * g, d), p(n, m, d), p(n, m, d_v), p(d), mask,
            np.repeat(np.arange(n), g))


class TestGroupedAttention:
    """Key sets broadcast over groups of rows equal the same keys copied to
    every row of the group."""

    @pytest.mark.parametrize("n, g", [(1, 1), (1, 4), (3, 1), (3, 4), (2, 7)])
    def test_forward_matches_copied_keys(self, n, g):
        q, keys, values, v, mask, rep = grouped_inputs(n, g, seed=n + g)
        alpha, c = additive_attention(q, keys, values, v, mask)
        ref_alpha, ref_c = additive_attention(
            q, keys.data[rep], values.data[rep], v, mask[rep])
        np.testing.assert_array_equal(alpha.data, ref_alpha.data)
        np.testing.assert_allclose(c.data, ref_c.data, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n, g", [(1, 4), (3, 1)])
    def test_backward_matches_composed_attention(self, n, g):
        q, keys, values, v, mask, rep = grouped_inputs(n, g, seed=2 * n + g)
        rng = np.random.default_rng(9)
        w_alpha, w_c = rng.normal(size=(n * g, 5)), rng.normal(size=(n * g, 6))
        grads = []
        for fn, k, val, msk in ((additive_attention, keys, values, mask),
                                (reference_attention, keys[rep], values[rep],
                                 mask[rep])):
            alpha, c = fn(q, k, val, v, msk)
            grads.append(ad.grad_map(ad.sum_(alpha * w_alpha)
                                     + ad.sum_(ad.tanh(c) * w_c)))
        for leaf in (q, keys, values, v):
            fused, ref = grads[0][id(leaf)], grads[1][id(leaf)]
            assert fused.shape == leaf.shape
            assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_grouped_values_have_no_backward(self):
        """Only decoding groups rows (1 < n < B), under no_grad: the weighted
        sum's backward refuses grouped values."""
        q, keys, values, v, mask, _ = grouped_inputs(3, 4)
        _, c = additive_attention(q, keys, values, v, mask)
        with pytest.raises(ValueError):
            ad.grad_map(ad.sum_(c))

    def test_rows_must_split_into_groups(self):
        q, keys, values, v, mask, _ = grouped_inputs(3, 2)
        with pytest.raises(ValueError, match="key groups"):
            attention_weights(q.data[:5], keys, v, mask)


def tape_ops(root):
    """Op name -> number of recorded nodes reachable from ``root``."""
    counts = {}
    for node in ad._toposort(root):
        if node._bwd is not None:
            op = node._bwd.__qualname__.split(".", 1)[0]
            counts[op] = counts.get(op, 0) + 1
    return counts


class TestTapeSize:
    """The teacher-forced graph records the readout and the loss once per
    batch, and a fixed number of nodes per target step."""

    def _loss(self, dims, T, B=3, m=4, seed=0):
        rng = np.random.default_rng(seed)
        params = init_baseline_params(dims, rng)
        tgt = np.concatenate([np.full((B, 1), BOS),
                              rng.integers(4, dims.vocab_tgt, size=(B, T - 1))], axis=1)
        tgt[1, T - 2:] = 0  # one padded row
        batch = Batch(src=rng.integers(4, dims.vocab_src, size=(B, m)),
                      src_lens=np.full(B, m), tgt=tgt)
        loss, _, _ = nll_loss(params, dims, batch, training=True, rng=rng,
                              drop_emb=0.2, drop_out=0.3)
        return loss

    def test_one_readout_per_batch(self, tiny_dims):
        for T in (2, 5, 9):
            ops = tape_ops(self._loss(tiny_dims, T))
            assert ops["log_softmax"] == 1 and ops["take_per_row"] == 1
            assert ops["decoder_recurrence"] == 1 and "recurrent_cell" not in ops
            assert ops["encoder_recurrence"] == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_tape_size_constant_in_steps(self, kind):
        """Each kind's teacher-forced loss records one decoder node and no
        per-step op, so its tape holds as many nodes at T = 9 as at T = 3."""
        model = reference_model(kind)
        model.drop_emb, model.drop_out = 0.2, 0.3
        sizes = []
        for T in (3, 9):
            rng = np.random.default_rng(T)
            tgt = np.concatenate([np.full((3, 1), BOS),
                                  rng.integers(4, 12, size=(3, T - 1))], axis=1)
            batch = Batch(src=rng.integers(4, 12, size=(3, 4)),
                          src_lens=np.full(3, 4), tgt=tgt)
            ops = tape_ops(model.loss(batch, training=True, rng=rng).joint)
            assert ops["decoder_recurrence"] == 1
            assert not {"attention_weights", "weighted_sum", "recurrent_cell",
                        "f_s", "tri_scores"} & set(ops)
            sizes.append(sum(ops.values()))
        assert sizes[0] == sizes[1]

    @staticmethod
    def _acceptance_batch():
        """The first batch of 32 of the acceptance task: sources and targets
        at their longest."""
        from refnet.corpus import build_vocab, generate_synthetic_task, make_batches
        full = generate_synthetic_task("cipher-reverse", 50, 400, (3, 12), 77)
        vs, vt = build_vocab(full.sources(), 200), build_vocab(full.targets(), 200)
        batch = make_batches(full, 32, vs, vt)[0]
        assert batch.src.shape[1] == 12 and batch.tgt.shape[1] == 14
        return batch, ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=4, d_h=4)

    @classmethod
    def _census_nodes(cls, stage):
        """The recorded nodes of the first acceptance batch's loss as
        ``stage`` records it: dropout on, the stage's groups frozen."""
        batch, dims = cls._acceptance_batch()
        rng = np.random.default_rng(0)
        params = init_baseline_params(dims, rng)
        kind = {"pretrain": "baseline", "finetune-m": "m_ref",
                "train-b": "b_ref"}[stage]
        if kind == "m_ref":
            params.add(ANCHOR_KEY, rng.normal(size=(16, 2 * dims.d_h)), "anchors")
            init_m_params(params, dims, rng)
        if kind == "b_ref":
            init_b_params(params, dims, 8, 16, rng)
        params.freeze(*STAGE_FREEZES[stage])
        model = TranslationModel(params, dims, kind, drop_emb=0.2, drop_out=0.3)
        parts = model.loss(batch, training=True, rng=np.random.default_rng(1))
        return sum(tape_ops(parts.joint).values())

    def test_pretrain_batch_tape_at_most_200_nodes(self):
        """The first acceptance batch as pretraining records it, dropout on:
        27 nodes, none of them per target step."""
        assert self._census_nodes("pretrain") <= 35

    def test_finetune_m_batch_tape_at_most_170_nodes(self):
        """The first acceptance batch as finetune-m records it: dropout on,
        the encoder and anchors frozen, and the anchor keys A V computed
        once per batch, not at every step (194 nodes when they were)."""
        assert self._census_nodes("finetune-m") <= 35

    def test_train_b_batch_tape_at_most_150_nodes(self):
        """The first acceptance batch as train-b records it: dropout on, the
        encoder, decoder and anchors frozen."""
        assert self._census_nodes("train-b") <= 35


def step_logits(params, e_prev, s, c):
    """The logits of one decode step: the readout of [e_prev; s; c]."""
    return readout(params, concat([e_prev, s, c], axis=1))


class TestOutputDistribution:
    def test_probabilities_sum_to_one(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(3)
        logits = step_logits(tiny_params, Tensor(rng.normal(size=(2, 3))),
                             Tensor(rng.normal(size=(2, 4))),
                             Tensor(rng.normal(size=(2, 8))))
        p = ad.softmax(logits, axis=1)
        assert ((p.data > 0) & (p.data < 1)).all()
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_parameters_give_uniform(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/out/W", "dec/out/b",
                                  "dec/out/Wv", "dec/out/bv"])
        p = ad.softmax(step_logits(tiny_params, Tensor(np.ones((1, 3))),
                                   Tensor(np.ones((1, 4))),
                                   Tensor(np.ones((1, 8)))), axis=1)
        np.testing.assert_allclose(p.data, 1.0 / tiny_dims.vocab_tgt)

    def test_argmax_matches_logits(self, tiny_params, tiny_dims):
        rng = np.random.default_rng(5)
        e = Tensor(rng.normal(size=(3, 3)))
        s = Tensor(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(3, 8)))
        logits = step_logits(tiny_params, e, s, c)
        probs = ad.softmax(logits, axis=1)
        np.testing.assert_array_equal(np.argmax(logits.data, axis=1),
                                      np.argmax(probs.data, axis=1))


class TestNllLoss:
    def _batch(self, tokens):
        tgt = np.array([[BOS] + tokens + [EOS]])
        return Batch(src=np.array([[4, 5]]), src_lens=np.array([2]), tgt=tgt)

    def test_uniform_model_loss_is_log_vocab(self, tiny_params, tiny_dims):
        zero_params(tiny_params, ["dec/out/W", "dec/out/b",
                                  "dec/out/Wv", "dec/out/bv"])
        loss, n, _ = nll_loss(tiny_params, tiny_dims, self._batch([4, 5, 6]))
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
        loss, _, _ = nll_loss(tiny_params, tiny_dims, batch)
        assert float(loss.data) == 0.0

    def test_hand_computed_two_token_example(self, tiny_params, tiny_dims):
        """Mean of -log p over the two supervised steps, done by hand."""
        batch = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                      tgt=np.array([[BOS, 5, EOS]]))
        loss, n, _ = nll_loss(tiny_params, tiny_dims, batch)
        assert n == 2

        from refnet.seq2seq import attention_proj, encode_batch, initial_state
        with no_grad():
            h, mask = encode_batch(tiny_params, tiny_dims, batch.src,
                                   batch.src_lens)
            memory = [(h.data, attention_proj(tiny_params, h).data,
                       seq2seq.mask_bias(mask), 1)]
            s = initial_state(tiny_params, h, mask).data
        weights = [tiny_params[k].data for k in seq2seq.DECODER_WEIGHTS]
        total = 0.0
        for t in (1, 2):
            e_prev = tiny_params["dec/tgt_emb"].data[batch.tgt[:, t - 1]]
            s, c, _, _ = decoder_step(weights, e_prev, s, memory)
            p = ad.softmax(step_logits(tiny_params, e_prev, s, c), axis=1)
            total -= math.log(p.data[0, batch.tgt[0, t]])
        assert float(loss.data) == pytest.approx(total / 2, rel=1e-12)

    def test_pad_positions_ignored(self, tiny_params, tiny_dims):
        plain = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                      tgt=np.array([[BOS, 5, EOS]]))
        padded = Batch(src=np.array([[4, 6]]), src_lens=np.array([2]),
                       tgt=np.array([[BOS, 5, EOS, 0, 0]]))
        a, na, _ = nll_loss(tiny_params, tiny_dims, plain)
        b, nb, _ = nll_loss(tiny_params, tiny_dims, padded)
        assert na == nb
        assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)

    def test_empty_batch_rejected(self, tiny_params, tiny_dims):
        empty = Batch(src=np.zeros((0, 1), dtype=int), src_lens=np.zeros(0, int),
                      tgt=np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError):
            nll_loss(tiny_params, tiny_dims, empty)


class TestDecoding:
    def _model(self, seed=0, vocab=5):
        dims = ModelDims(vocab_src=vocab, vocab_tgt=vocab, d_e=3, d_h=4)
        params = init_baseline_params(dims, np.random.default_rng(seed))
        return TranslationModel(params, dims)

    @staticmethod
    def _scorer(step, s0):
        """Length-normalized log-probability of a token sequence, replayed
        one row at a time through ``step``."""
        def score(seq):
            state, prev, total = s0, BOS, 0.0
            for tok in seq:
                logp, states = step(np.array([prev]), state[None, :])
                total += logp[0, tok]
                state, prev = states[0], tok
            return total / max(1, len(seq))
        return score

    @staticmethod
    def _exhaustive(vocab, max_steps):
        """Every decoding outcome within the budget: EOS-terminated sequences
        shorter than it, and EOS-free ones that exhaust it."""
        out, prefixes = [], [[]]
        for depth in range(max_steps):
            out += [p + [EOS] for p in prefixes]
            prefixes = [p + [t] for p in prefixes for t in range(vocab) if t != EOS]
        return out + prefixes

    def test_beam_one_equals_greedy(self):
        """Beam 1 is the argmax rollout, stepped here one token at a time."""
        model = self._model(seed=1, vocab=8)
        rng = np.random.default_rng(2)
        for _ in range(10):
            src = rng.integers(4, 8, size=rng.integers(1, 6)).tolist()
            step_for, s0 = model._prepare([src])
            step, state, prev, rollout = step_for([0]), s0[0], BOS, []
            while len(rollout) < 2 * len(src) + 5 and prev != EOS:
                logp, states = step(np.array([prev]), state[None, :])
                state, prev = states[0], int(np.argmax(logp[0]))
                rollout.append(prev)
            assert model.translate(src, beam=1) == [t for t in rollout if t != EOS]

    def test_beam_score_at_least_greedy(self):
        """Widening the beam never returns a worse-scoring hypothesis."""
        for seed in range(6):
            model = self._model(seed=seed, vocab=8)
            src = np.random.default_rng(seed).integers(4, 8, size=4).tolist()
            step_for, s0 = model._prepare([src])
            score = self._scorer(step_for([0]), s0[0])

            def found_score(k):
                (toks,) = beam_search(step_for, s0, k, max_steps=[13])
                return score(toks + ([EOS] if len(toks) < 13 else []))

            greedy = found_score(1)
            for k in (2, 4):
                assert found_score(k) >= greedy - 1e-12

    def test_beam_matches_exhaustive_on_micro_model(self):
        """With the beam as wide as the search space, beam = brute force."""
        model = self._model(seed=5, vocab=5)
        src = [4, 4]
        max_steps = 2
        step_for, s0 = model._prepare([src])
        score = self._scorer(step_for([0]), s0[0])

        best = max(self._exhaustive(5, max_steps), key=score)
        (found,) = beam_search(step_for, s0, k=5 ** 2, max_steps=[max_steps])
        found_full = found + [EOS] if len(found) < max_steps else found
        assert score(found_full) == pytest.approx(score(best), rel=1e-12)

    def test_two_sentences_match_exhaustive_in_one_call(self):
        """Sentences of different lengths and budgets searched together each
        reach their own brute-force optimum."""
        model = self._model(seed=5, vocab=5)
        sources, budgets = [[4, 4], [4, 3, 4]], [2, 3]
        step_for, s0 = model._prepare(sources)
        found = beam_search(step_for, s0, k=5 ** 3, max_steps=budgets)
        for i, max_steps in enumerate(budgets):
            score = self._scorer(step_for([i]), s0[i])
            best = max(self._exhaustive(5, max_steps), key=score)
            full = found[i] + [EOS] if len(found[i]) < max_steps else found[i]
            assert score(full) == pytest.approx(score(best), rel=1e-12)

    def test_huge_beam_allocates_only_reachable_rows(self, monkeypatch):
        """A beam far wider than the vocabulary steps only the rows it can
        reach and still finds the brute-force optimum."""
        rows = bench_style_wrapper(monkeypatch)
        model = self._model(seed=5, vocab=5)
        step_for, s0 = model._prepare([[4, 4]])
        score = self._scorer(step_for([0]), s0[0])
        best = max(self._exhaustive(5, 2), key=score)
        rows.clear()
        start = time.perf_counter()
        (found,) = beam_search(step_for, s0, k=10 ** 6, max_steps=[2])
        assert time.perf_counter() - start < 1.0
        assert rows and max(rows) <= 5 * 5
        full = found + [EOS] if len(found) < 2 else found
        assert score(full) == pytest.approx(score(best), rel=1e-12)

    def test_decode_deterministic(self):
        model = self._model(seed=7, vocab=8)
        src = [4, 5, 6]
        assert model.translate(src, beam=3) == model.translate(src, beam=3)

    def test_greedy_stops_at_budget(self):
        model = self._model(seed=8, vocab=6)
        step_for, s0 = model._prepare([[4]])
        (hyp,) = beam_search(step_for, s0, 1, max_steps=[3])
        assert len(hyp) <= 3


def bench_style_wrapper(monkeypatch):
    """Wrap ``TranslationModel._make_step`` as the benchmark's tracer does:
    two positional arguments in, and a closure called as
    ``step(prev_ids, states)`` out. Returns the list that collects the row
    count of every model-step call."""
    rows = []
    original = TranslationModel._make_step

    def _make_step(model, memory, layout):
        step = original(model, memory, layout)

        def counted(prev_ids, states):
            rows.append(len(prev_ids))
            return step(prev_ids, states)

        return counted

    monkeypatch.setattr(TranslationModel, "_make_step", _make_step)
    return rows


def reference_model(kind, seed=3, vocab=12):
    """A random model of ``kind`` whose extra projections are non-zero."""
    dims = ModelDims(vocab_src=vocab, vocab_tgt=vocab, d_e=5, d_h=6)
    rng = np.random.default_rng(seed)
    ps = init_baseline_params(dims, rng)
    if kind == "m_ref":
        ps.add(ANCHOR_KEY, rng.normal(size=(4, 2 * dims.d_h)), "anchors")
        init_m_params(ps, dims, rng)
        ps["mref/proj"].data[...] = rng.normal(0, 0.3, size=ps["mref/proj"].shape)
    if kind == "b_ref":
        init_b_params(ps, dims, 3, 4, rng)
        ps["bref/proj"].data[...] = rng.normal(0, 0.3, size=ps["bref/proj"].shape)
    return TranslationModel(ps, dims, kind)


@dataclass
class Candidate:
    tokens: list
    logprob: float
    state: np.ndarray

    @property
    def finished(self):
        return self.tokens[-1:] == [EOS]

    def score(self, length_normalize):
        if not length_normalize:
            return self.logprob
        return self.logprob / max(1, len(self.tokens))


def reference_beam(step, s0, k, max_steps, length_normalize=True):
    """One sentence's search written as a plain loop: the argmax rollout
    (ties to the lowest id), which is the result at k = 1; for k > 1 every
    candidate a Candidate, Python's stable sort, the rollout in the final
    pool, ranked by length-normalized or raw log-probability."""
    def extend(hyp, logp, state, tok):
        return Candidate(hyp.tokens + [tok], hyp.logprob + float(logp[tok]), state)

    def advance(hyps):
        prev = np.array([h.tokens[-1] if h.tokens else BOS for h in hyps])
        return step(prev, np.stack([h.state for h in hyps]))

    greedy = Candidate([], 0.0, s0)
    for _ in range(max_steps):
        logp, states = advance([greedy])
        greedy = extend(greedy, logp[0], states[0], int(np.argmax(logp[0])))
        if greedy.finished:
            break
    if k == 1:
        return [t for t in greedy.tokens if t != EOS]
    alive, done = [Candidate([], 0.0, s0)], [greedy]
    for _ in range(max_steps):
        if not alive:
            break
        logp, states = advance(alive)
        candidates = [extend(hyp, logp[i], states[i], int(tok))
                      for i, hyp in enumerate(alive)
                      for tok in np.argsort(-logp[i])[:k]]
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
    best = max(done + alive, key=lambda c: c.score(length_normalize))
    return best.tokens[:-1] if best.finished else best.tokens


class TestBatchedDecoding:
    @pytest.mark.parametrize("length_normalize", [True, False])
    @pytest.mark.parametrize("kind", ["baseline", "m_ref", "b_ref"])
    def test_matches_one_sentence_reference_search(self, kind, length_normalize):
        """The array ranking of the batched search against the candidate-by-
        candidate loop, each sentence searched alone through its own rows."""
        model = reference_model(kind, seed=4)
        rng = np.random.default_rng(5)
        sources = [rng.integers(4, 12, size=n).tolist() for n in (3, 9, 1, 12, 6)]
        budgets = [2 * len(s) + 5 for s in sources]
        step_for, s0 = model._prepare(sources)
        for k in (1, 2, 4, 10):
            found = beam_search(step_for, s0, k, budgets, length_normalize)
            assert found == [reference_beam(step_for([i]), s0[i], k, budgets[i],
                                            length_normalize)
                             for i in range(len(sources))]

    @pytest.mark.parametrize("kind", ["baseline", "m_ref", "b_ref"])
    @pytest.mark.parametrize("beam", [1, 4, 10])
    def test_batch_equals_one_at_a_time(self, kind, beam):
        """Lengths 1-12 pad short sentences past numpy's 8-wide summation
        block in the attention softmax; the hypotheses must not change."""
        model = reference_model(kind)
        rng = np.random.default_rng(11)
        sources = [rng.integers(4, 12, size=n).tolist()
                   for n in rng.permutation(np.repeat(np.arange(1, 13), 2))]
        assert model.translate_batch(sources, beam=beam) == \
            [model.translate(s, beam=beam) for s in sources]

    def test_shared_budget_applies_to_every_sentence(self):
        model = reference_model("baseline")
        sources = [[4, 5], [6, 7, 8, 9, 10]]
        for beam in (1, 3):
            out = model.translate_batch(sources, beam=beam, max_steps=2)
            assert out == [model.translate(s, beam=beam, max_steps=2)
                           for s in sources]
            assert all(len(o) <= 2 for o in out)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reference_model("baseline").translate_batch([[4], []])

    @pytest.mark.parametrize("length_normalize", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           k=st.integers(1, 12),
           max_steps=st.sampled_from([None, 0, 1, 2, 3, 7]),
           seed=st.integers(0, 2 ** 16))
    def test_any_layout_matches_reference_search(self, kind, lengths, k,
                                                 max_steps, seed, length_normalize):
        """Any mix of sentence lengths, beam widths (up to wider than the
        7-word vocabulary) and budgets (0 and 1 included) gives every
        sentence the hypothesis of its own plain-loop search."""
        model = reference_model(kind, seed=seed % 7, vocab=7)
        rng = np.random.default_rng(seed)
        sources = [rng.integers(4, 7, size=n).tolist() for n in lengths]
        budgets = [2 * len(s) + 5 if max_steps is None else max_steps
                   for s in sources]
        found = model.translate_batch(sources, beam=k, max_steps=max_steps,
                                      length_normalize=length_normalize)
        step_for, s0 = model._prepare(sources)
        assert found == [reference_beam(step_for([i]), s0[i], k, budgets[i],
                                        length_normalize)
                         for i in range(len(sources))]

    @pytest.mark.parametrize("length_normalize", [True, False])
    def test_exact_ties_follow_pool_order(self, length_normalize):
        """Log-probabilities that are small integers, looked up by the
        previous token alone, tie exactly all the time, across steps and
        lengths too: the ranking, the finished slots and the final pick must
        break every tie as the plain loop does, and at k = 1 the rollout
        breaks them toward the lowest token id."""
        rng = np.random.default_rng(14)
        s0 = np.zeros((3, 2))
        for _ in range(200):
            table = -rng.integers(1, 4, size=(5, 5)).astype(np.float64)
            if rng.random() < 0.5:  # a trap, so that greedy rarely heads the pool
                table[BOS, 0], table[0] = 0.0, -9.0

            def step_for(sents, singles=()):
                return lambda prev_ids, states: (table[prev_ids], states)

            budgets = rng.integers(0, 5, size=3).tolist()
            for k in (1, 2, 3, 6):
                found = beam_search(step_for, s0, k, budgets, length_normalize)
                assert found == [reference_beam(step_for([i]), s0[i], k,
                                                budgets[i], length_normalize)
                                 for i in range(3)]

    @pytest.mark.parametrize("length_normalize", [True, False])
    def test_beam_outlives_greedy_rollout(self, length_normalize):
        """Greedy ends at step 1 (3 then EOS) while the beam keeps growing
        hypotheses that never propose EOS, for several steps after it."""
        table = np.array([[-0.1, -0.3, -10, -10, -0.2],
                          [-2, -9, -5, -1, -2],
                          [-9, -9, -9, -9, -9],
                          [-5, -9, -0.1, -5, -5],
                          [-0.1, -0.3, -10, -10, -0.2]])

        def step_for(sents, singles=()):
            return lambda prev_ids, states: (table[prev_ids], states)

        s0 = np.zeros((2, 2))
        for k in (2, 3, 4):
            for budgets in ([5, 5], [5, 1], [2, 7]):
                found = beam_search(step_for, s0, k, budgets, length_normalize)
                assert found == [reference_beam(step_for([i]), s0[i], k,
                                                budgets[i], length_normalize)
                                 for i in range(2)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_model_step_per_beam_step(self, kind, monkeypatch):
        """For k > 1 the greedy rollouts advance in the beam's own step calls:
        no more calls than the longest budget."""
        rows = bench_style_wrapper(monkeypatch)
        model = reference_model(kind)
        rng = np.random.default_rng(12)
        sources = [rng.integers(4, 12, size=n).tolist() for n in (2, 7, 12, 4)]
        budgets = [2 * len(s) + 5 for s in sources]
        for k in (2, 4, 10):
            rows.clear()
            model.translate_batch(sources, beam=k)
            assert 0 < len(rows) <= max(budgets)


class TestStepContract:
    """The benchmark's tracer rebinds ``TranslationModel._make_step`` with a
    two-argument wrapper and calls each step as ``step(prev_ids, states)``;
    decoding must run unchanged through it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_decoding_through_the_bench_wrapper(self, kind, monkeypatch):
        model = reference_model(kind)
        rng = np.random.default_rng(13)
        sources = [rng.integers(4, 12, size=n).tolist() for n in (3, 8, 1)]
        plain = {beam: model.translate_batch(sources, beam=beam) for beam in (1, 4)}
        rows = bench_style_wrapper(monkeypatch)
        for beam in (1, 4):
            rows.clear()
            assert model.translate_batch(sources, beam=beam) == plain[beam]
            assert rows and min(rows) >= 1
