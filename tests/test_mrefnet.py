import math

import numpy as np
import pytest

from refnet.corpus import BOS, make_batches
from refnet.model import TranslationModel
from refnet.lcc import fit_anchors
from refnet.mrefnet import (ANCHOR_KEY, CONTEXT_PARAMS, anchor_memory,
                            collect_sentence_reprs, global_context,
                            init_m_params)
from refnet.seq2seq import ModelDims, encode_batch, init_baseline_params
from refnet.training import TrainConfig, run_stage


def store_with_anchors(dims, n_anchors=3, seed=0, zero_proj=True):
    rng = np.random.default_rng(seed)
    ps = init_baseline_params(dims, rng)
    ps.add(ANCHOR_KEY, rng.normal(size=(n_anchors, 2 * dims.d_h)), "anchors")
    init_m_params(ps, dims, rng)
    if not zero_proj:
        ps["mref/proj"].data[...] = rng.normal(0, 0.3, size=ps["mref/proj"].shape)
    return ps


class TestSentenceRepr:
    def test_collect_matches_per_sentence(self, toy_split, toy_vocabs, tiny_dims):
        train, _, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=3, d_h=4)
        params = init_baseline_params(dims, np.random.default_rng(2))
        reprs = collect_sentence_reprs(params, dims, train, vs, vt, batch_size=8)
        for i in (0, 5, len(train) - 1):
            ids = vs.encode(train[i][0])
            h, _ = encode_batch(params, dims, [ids], [len(ids)])
            np.testing.assert_allclose(reprs[i], h.data[0].mean(axis=0),
                                       atol=1e-12)


def anchor_context(ps, s, c):
    """alpha_G and c_G of the anchor attention from states s and contexts c."""
    weights = ([ps[k].data for k in CONTEXT_PARAMS]
               + [t.data for t in anchor_memory(ps["anchors/m"], ps)])
    c_g, (alpha, *_) = global_context(None, s, c, weights)
    return alpha, c_g


def first_step(ps, dims, kind):
    """The log-probabilities and states of the first decoding step of two
    sentences under ``kind``: ``seq2seq.decoder_step`` with its extra input."""
    step_for, s0 = TranslationModel(ps, dims, kind)._prepare([[4, 5, 6], [6, 5]])
    return step_for([0, 1])(np.array([BOS, BOS]), s0)


class TestGlobalContext:
    def test_single_anchor_dominates(self, tiny_dims):
        ps = store_with_anchors(tiny_dims, n_anchors=1)
        rng = np.random.default_rng(3)
        s = rng.normal(size=(2, tiny_dims.d_h))
        c = rng.normal(size=(2, 2 * tiny_dims.d_h))
        alpha, c_g = anchor_context(ps, s, c)
        np.testing.assert_allclose(alpha, 1.0)
        np.testing.assert_allclose(c_g, np.tile(ps["anchors/m"].data[0], (2, 1)))

    def test_zero_parameters_give_anchor_mean(self, tiny_dims):
        ps = store_with_anchors(tiny_dims, n_anchors=4)
        for key in ("W", "U", "V", "v"):
            ps[f"mref/att/{key}"].data[...] = 0.0
        s = np.zeros((1, tiny_dims.d_h))
        c = np.zeros((1, 2 * tiny_dims.d_h))
        _, c_g = anchor_context(ps, s, c)
        np.testing.assert_allclose(c_g[0], ps["anchors/m"].data.mean(axis=0))

    def test_hand_built_scores(self, tiny_dims):
        """Anchor scores (0, ln 3) mix the anchors 0.25 / 0.75."""
        ps = store_with_anchors(tiny_dims, n_anchors=2)
        for key in ("W", "U", "V", "v"):
            ps[f"mref/att/{key}"].data[...] = 0.0
        ps["mref/att/V"].data[0, 0] = 1.0
        ps["mref/att/v"].data[0] = 2.0
        anchors = np.zeros((2, 2 * tiny_dims.d_h))
        anchors[0] = np.array([0.0] + [1.0] * (2 * tiny_dims.d_h - 1))
        anchors[1] = np.array([math.atanh(math.log(3.0) / 2.0)]
                              + [5.0] * (2 * tiny_dims.d_h - 1))
        ps["anchors/m"].data[...] = anchors
        s = np.zeros((1, tiny_dims.d_h))
        c = np.zeros((1, 2 * tiny_dims.d_h))
        alpha, c_g = anchor_context(ps, s, c)
        np.testing.assert_allclose(alpha, [[0.25, 0.75]], atol=1e-12)
        np.testing.assert_allclose(c_g[0],
                                   0.25 * anchors[0] + 0.75 * anchors[1],
                                   atol=1e-12)

    def test_context_in_anchor_hull(self, tiny_dims):
        ps = store_with_anchors(tiny_dims, n_anchors=5, zero_proj=False)
        rng = np.random.default_rng(4)
        pts = ps["anchors/m"].data
        for _ in range(50):
            s = rng.normal(size=(1, tiny_dims.d_h))
            c = rng.normal(size=(1, 2 * tiny_dims.d_h))
            alpha, c_g = anchor_context(ps, s, c)
            assert abs(alpha.sum() - 1.0) < 1e-9
            assert (c_g[0] >= pts.min(axis=0) - 1e-12).all()
            assert (c_g[0] <= pts.max(axis=0) + 1e-12).all()


class TestMDecoderStep:
    def test_zero_projection_equals_baseline(self, tiny_dims):
        ps = store_with_anchors(tiny_dims)
        for base, aug in zip(first_step(ps, tiny_dims, "baseline"),
                             first_step(ps, tiny_dims, "m_ref")):
            np.testing.assert_array_equal(base, aug)

    def test_generic_projection_differs(self, tiny_dims):
        ps = store_with_anchors(tiny_dims, zero_proj=False)
        base = first_step(ps, tiny_dims, "baseline")[1]
        assert not np.allclose(base, first_step(ps, tiny_dims, "m_ref")[1])


class TestFinetuneM:
    def _pretrained(self, toy_split, toy_vocabs, epochs=2):
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        config = TrainConfig(stage="pretrain", epochs=epochs, batch_size=16,
                             seed=7, patience=50, log_path="")
        ckpt = run_stage("pretrain", None, train, dev, config, vs, vt, dims)
        reprs = collect_sentence_reprs(ckpt.params, dims, train, vs, vt)
        fit = fit_anchors(reprs, TrainConfig(n_anchors=4, fit_iters=50, seed=7,
                                             fit_lr_decay=0.998, fit_batch=0))
        ckpt.params.add(ANCHOR_KEY, fit.points, "anchors")
        return ckpt

    def test_zero_epochs_keeps_everything(self, toy_split, toy_vocabs, capsys):
        ckpt = self._pretrained(toy_split, toy_vocabs, epochs=0)
        train, dev, _ = toy_split
        before = ckpt.params.snapshot()
        cfg = TrainConfig(stage="finetune-m", epochs=0, seed=7, patience=50)
        out = run_stage("finetune-m", ckpt, train, dev, cfg)
        after = {n: out.params[n].data for n in out.params.names()
                 if n in before}
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)

    def test_freeze_contract_and_decoder_movement(self, toy_split, toy_vocabs,
                                                  capsys):
        ckpt = self._pretrained(toy_split, toy_vocabs)
        train, dev, _ = toy_split
        enc = ckpt.params.group_digest("encoder")
        anc = ckpt.params.group_digest("anchors")
        dec = ckpt.params.group_digest("decoder")
        cfg = TrainConfig(stage="finetune-m", epochs=2, batch_size=16,
                          lr=5e-4, seed=7, patience=50)
        out = run_stage("finetune-m", ckpt, train, dev, cfg)
        assert out.params.group_digest("encoder") == enc
        assert out.params.group_digest("anchors") == anc
        assert out.params.group_digest("decoder") != dec
        assert out.kind == "m_ref"
        assert out.stages[-1] == "finetune-m"

    def test_zero_init_matches_baseline_loss_exactly(self, toy_split,
                                                     toy_vocabs):
        ckpt = self._pretrained(toy_split, toy_vocabs)
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        batches = make_batches(dev, 8, vs, vt)
        base_loss = TranslationModel(ckpt.params, ckpt.dims,
                                     "baseline").dev_loss(batches)
        init_m_params(ckpt.params, ckpt.dims, np.random.default_rng(8))
        m_loss = TranslationModel(ckpt.params, ckpt.dims,
                                  "m_ref").dev_loss(batches)
        assert m_loss == base_loss

    def test_descent_on_train_set(self, toy_split, toy_vocabs, capsys):
        """Full-batch fine-tuning at a small step must not increase the loss."""
        ckpt = self._pretrained(toy_split, toy_vocabs)
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        batches = make_batches(train, len(train), vs, vt)
        cfg = TrainConfig(stage="finetune-m", epochs=3, batch_size=len(train),
                          lr=1e-4, drop_emb=0.0, drop_out=0.0, seed=7,
                          patience=50)
        start = TranslationModel(ckpt.params, ckpt.dims, "baseline"
                                 ).dev_loss(batches)
        out = run_stage("finetune-m", ckpt, train, train, cfg)
        end = out.make_model().dev_loss(batches)
        assert end <= start + 1e-12

    def test_missing_anchors_rejected(self, toy_split, toy_vocabs):
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        cfg = TrainConfig(stage="pretrain", epochs=0, seed=7)
        ckpt = run_stage("pretrain", None, train, dev, cfg, vs, vt, dims)
        from refnet.errors import PrerequisiteError
        with pytest.raises(PrerequisiteError, match="anchor"):
            run_stage("finetune-m", ckpt, train, dev,
                      TrainConfig(stage="finetune-m", epochs=1, seed=7))
