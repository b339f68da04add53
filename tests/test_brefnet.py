import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refnet import autodiff as ad
from refnet import lcc
from refnet.autodiff import Tensor, no_grad
from refnet.brefnet import (F_S_PARAMS, build_query, init_b_params, query_dim,
                            regression_weight_norms)
from refnet.lcc import tri_scores
from refnet.corpus import BOS, EOS, Batch, make_batches
from refnet.model import TranslationModel
from refnet.seq2seq import ModelDims, init_baseline_params
from refnet.training import TrainConfig, run_stage
from reference import f_s, stack, transpose


def bref_store(dims, n_anchors=3, d_a=5, seed=0, zero_proj=True):
    rng = np.random.default_rng(seed)
    ps = init_baseline_params(dims, rng)
    init_b_params(ps, dims, n_anchors, d_a, rng)
    if not zero_proj:
        ps["bref/proj"].data[...] = rng.normal(0, 0.3, size=ps["bref/proj"].shape)
    return ps


class TestBuildQuery:
    def test_dimension_is_sum(self):
        q = build_query(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 4)))
        assert q.shape == (1, 9)

    def test_zero_inputs_zero_query(self):
        q = build_query(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 4)))
        np.testing.assert_array_equal(q, np.zeros((1, 9)))

    def test_slices_recover_components(self):
        rng = np.random.default_rng(1)
        e, s, c = (rng.normal(size=(1, 2)), rng.normal(size=(1, 3)),
                   rng.normal(size=(1, 4)))
        q = build_query(e, s, c)
        np.testing.assert_array_equal(q[:, :2], e)
        np.testing.assert_array_equal(q[:, 2:5], s)
        np.testing.assert_array_equal(q[:, 5:], c)

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ValueError):
            build_query(np.zeros((2, 2)), np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# the composed references: f_s and the tri-nonlinear score built from
# separate tape ops, which the fused one-node ops must match

def reference_tri_scores(X, A, W, U, V, v):
    """The (N, C) scores composed of transposes, reshapes, broadcast
    products, matmuls, tanh and a sum."""
    X, A = ad.as_tensor(X), ad.as_tensor(A)
    (N, d), C, d_att = X.shape, A.shape[0], W.shape[0]
    wa = ad.matmul(A, transpose(W))
    ux = ad.matmul(X, transpose(U))
    cross = ad.reshape(X, (N, 1, d)) * ad.reshape(A, (1, C, d))
    vc = ad.matmul(ad.reshape(cross, (N * C, d)), transpose(V))
    pre = ad.reshape(wa, (1, C, d_att)) + ad.reshape(ux, (N, 1, d_att)) \
        + ad.reshape(vc, (N, C, d_att))
    return ad.sum_(ad.tanh(pre) * v, axis=2)


def g_transform(q, params):
    """Anchor-size projection of the query: tanh of an affine map, (B, d_a)."""
    return ad.tanh(ad.matmul(q, params["bref/g/W"]) + params["bref/g/b"])


def anchor_gamma(G, params):
    """Anchor coefficients gamma (B, |C|) of projected queries G = g(q)."""
    scores = reference_tri_scores(G, params["bref/anchors"],
                                  *(params[f"bref/score/{k}"] for k in "WUVv"))
    return ad.softmax(scores, axis=1)


def reference_f_s(q, params):
    """f_s as a matmul over the flattened outer product gamma (x) G, plus
    gamma @ b, each piece its own tape op."""
    G = g_transform(q, params)
    gamma = anchor_gamma(G, params)
    (B, d_a), C = G.shape, gamma.shape[1]
    coded = ad.reshape(gamma, (B, C, 1)) * ad.reshape(G, (B, 1, d_a))
    W = ad.reshape(params["bref/reg/W"], (C * d_a, -1))
    return (ad.matmul(ad.reshape(coded, (B, C * d_a)), W)
            + ad.matmul(gamma, params["bref/reg/b"]))


class TestGTransform:
    def test_zero_parameters_give_zero(self, tiny_dims):
        ps = bref_store(tiny_dims)
        ps["bref/g/W"].data[...] = 0.0
        ps["bref/g/b"].data[...] = 0.0
        out = g_transform(np.ones((1, query_dim(tiny_dims))), ps)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5)))

    def test_output_in_tanh_range(self, tiny_dims):
        ps = bref_store(tiny_dims, seed=2)
        rng = np.random.default_rng(3)
        out = g_transform(rng.normal(size=(10, query_dim(tiny_dims))) * 5, ps)
        assert (out.data > -1).all() and (out.data < 1).all()


def looped_f_s(q, params):
    """f_s with one affine regression per anchor, stacked and mixed by
    gamma: the reference the loop-free f_s must match."""
    G = g_transform(q, params)
    gamma = anchor_gamma(G, params)
    C = gamma.shape[1]
    preds = stack([ad.matmul(G, params["bref/reg/W"][j]) + params["bref/reg/b"][j]
                      for j in range(C)], axis=0)
    gT = ad.reshape(transpose(gamma), (C, G.shape[0], 1))
    return ad.sum_(preds * gT, axis=0)


def tape_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._bwd is not None:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


class TestFs:
    @pytest.mark.parametrize("n_anchors", [1, 3, 8])
    def test_matches_per_anchor_loop(self, tiny_dims, n_anchors):
        ps = bref_store(tiny_dims, n_anchors=n_anchors, seed=n_anchors)
        rng = np.random.default_rng(13)
        ps["bref/reg/b"].data[...] = rng.normal(size=ps["bref/reg/b"].shape)
        q = ad.parameter(rng.normal(size=(4, query_dim(tiny_dims))))
        w = rng.normal(size=(4, tiny_dims.d_e))
        outs, grads = [], []
        for fn in (f_s, looped_f_s):
            out = fn(q, ps)
            outs.append(out.data)
            grads.append(ad.grad_map(ad.sum_(out * w)))
        assert np.abs(outs[0] - outs[1]).max() <= 1e-12 * np.abs(outs[1]).max()
        for leaf in [q] + [ps[name] for name in ps.names() if name.startswith("bref/")
                           and name != "bref/proj"]:
            fast, ref = grads[0][id(leaf)], grads[1][id(leaf)]
            assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_tape_size_independent_of_anchor_count(self, tiny_dims):
        q = ad.parameter(np.random.default_rng(14).normal(
            size=(2, query_dim(tiny_dims))))
        sizes = {C: tape_nodes(f_s(q, bref_store(tiny_dims, n_anchors=C)))
                 for C in (1, 8)}
        assert sizes[1] == sizes[8]

    def test_single_anchor_is_plain_affine(self, tiny_dims):
        """|C| = 1 must agree with an independent numpy affine regression."""
        ps = bref_store(tiny_dims, n_anchors=1, seed=4)
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, query_dim(tiny_dims)))
        out = f_s(Tensor(q), ps)
        g = np.tanh(q @ ps["bref/g/W"].data + ps["bref/g/b"].data)
        expected = g @ ps["bref/reg/W"].data[0] + ps["bref/reg/b"].data[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_weights_give_bias_mixture(self, tiny_dims):
        ps = bref_store(tiny_dims, n_anchors=3, seed=6)
        ps["bref/reg/W"].data[...] = 0.0
        ps["bref/reg/b"].data[...] = np.random.default_rng(7).normal(size=(3, tiny_dims.d_e))
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(2, query_dim(tiny_dims))))
        gamma = anchor_gamma(g_transform(q, ps), ps)
        out = f_s(q, ps)
        expected = gamma.data @ ps["bref/reg/b"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hand_weighted_sum(self, tiny_dims):
        """Forced gamma = (0.25, 0.75) must reproduce the two-term mixture."""
        import math
        ps = bref_store(tiny_dims, n_anchors=2, d_a=4, seed=9)
        for key in ("W", "U", "V", "v"):
            ps[f"bref/score/{key}"].data[...] = 0.0
        ps["bref/score/W"].data[0, 0] = 1.0
        ps["bref/score/v"].data[0] = 2.0
        ps["bref/anchors"].data[...] = 0.0
        ps["bref/anchors"].data[1, 0] = math.atanh(math.log(3.0) / 2.0)
        rng = np.random.default_rng(10)
        q = rng.normal(size=(1, query_dim(tiny_dims)))
        gamma = anchor_gamma(g_transform(Tensor(q), ps), ps)
        np.testing.assert_allclose(gamma.data, [[0.25, 0.75]], atol=1e-12)
        g = np.tanh(q @ ps["bref/g/W"].data + ps["bref/g/b"].data)
        expected = (0.25 * (g @ ps["bref/reg/W"].data[0] + ps["bref/reg/b"].data[0])
                    + 0.75 * (g @ ps["bref/reg/W"].data[1] + ps["bref/reg/b"].data[1]))
        np.testing.assert_allclose(f_s(Tensor(q), ps).data, expected, atol=1e-12)

    def test_gamma_on_simplex(self, tiny_dims):
        ps = bref_store(tiny_dims, n_anchors=4, seed=11)
        rng = np.random.default_rng(12)
        q = Tensor(rng.normal(size=(50, query_dim(tiny_dims))))
        gamma = anchor_gamma(g_transform(q, ps), ps)
        assert (gamma.data >= 0).all()
        np.testing.assert_allclose(gamma.data.sum(axis=1), 1.0, atol=1e-9)


def score_inputs(N, C, d=5, d_att=3, seed=0):
    """(X, anchors, W, U, V, v) of the tri-nonlinear score as parameters."""
    rng = np.random.default_rng(seed)
    p = lambda *shape: ad.parameter(rng.normal(0.0, 0.7, size=shape))  # noqa: E731
    return p(N, d), p(C, d), p(d_att, d), p(d_att, d), p(d_att, d), p(d_att)


def assert_grads_close(fused, ref, leaves):
    for leaf in leaves:
        fast, slow = fused[id(leaf)], ref[id(leaf)]
        assert fast.shape == leaf.shape
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


def score_grads(fn, args, w):
    out = fn(*args)
    return out.data, ad.grad_map(ad.sum_(ad.tanh(out) * w))


SHAPES = [(1, 1), (3, 4), (32, 8)]


def f_s_case(tiny_dims, B, C, seed):
    """A b_ref store with C anchors, non-zero regression biases, a query of
    B rows and output weights."""
    ps = bref_store(tiny_dims, n_anchors=C, seed=seed)
    rng = np.random.default_rng(seed + 100)
    ps["bref/reg/b"].data[...] = rng.normal(size=ps["bref/reg/b"].shape)
    q = ad.parameter(rng.normal(size=(B, query_dim(tiny_dims))))
    return ps, q, rng.normal(size=(B, tiny_dims.d_e))


class TestFusedLcc:
    """``lcc.tri_scores`` and ``f_s`` (one node over brefnet's kernel pair)
    are one tape node each and match the composed references: the same forward bits, gradients within
    1e-12 relative."""

    @pytest.mark.parametrize("N, C", SHAPES)
    def test_tri_scores_matches_composed(self, N, C):
        args = score_inputs(N, C, seed=N)
        w = np.random.default_rng(C).normal(size=(N, C))
        fused, fused_grads = score_grads(tri_scores, args, w)
        ref, ref_grads = score_grads(reference_tri_scores, args, w)
        assert np.array_equal(fused, ref)
        assert_grads_close(fused_grads, ref_grads, args)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 6), C=st.integers(1, 6), d=st.integers(1, 6),
           d_att=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_tri_scores_matches_composed_any_shape(self, N, C, d, d_att, seed):
        args = score_inputs(N, C, d, d_att, seed)
        w = np.random.default_rng(seed).normal(size=(N, C))
        fused, fused_grads = score_grads(tri_scores, args, w)
        ref, ref_grads = score_grads(reference_tri_scores, args, w)
        assert np.array_equal(fused, ref)
        assert_grads_close(fused_grads, ref_grads, args)

    def test_tri_scores_frozen_anchors(self):
        X, A, W, U, V, v = score_inputs(3, 4, seed=5)
        frozen = Tensor(A.data)
        args = (X, frozen, W, U, V, v)
        w = np.random.default_rng(6).normal(size=(3, 4))
        _, fused_grads = score_grads(tri_scores, args, w)
        _, ref_grads = score_grads(reference_tri_scores, args, w)
        assert id(frozen) not in fused_grads
        assert_grads_close(fused_grads, ref_grads, (X, W, U, V, v))

    def test_tri_scores_constant_inputs_get_no_gradient(self):
        X, A, W, U, V, v = score_inputs(3, 4, seed=7)
        X_const, A_const = Tensor(X.data), Tensor(A.data)
        grads = ad.grad_map(ad.sum_(tri_scores(X_const, A_const, W, U, V, v)))
        assert id(X_const) not in grads and id(A_const) not in grads
        assert all(id(p) in grads for p in (W, U, V, v))
        with no_grad():
            assert tri_scores(X, A, W, U, V, v).parents == ()

    def test_tri_scores_records_one_node(self):
        args = score_inputs(3, 4, seed=8)
        out = tri_scores(*args)
        assert out.parents == args
        assert all(p._bwd is None for p in out.parents)

    @pytest.mark.parametrize("B, C", SHAPES)
    def test_f_s_matches_composed(self, tiny_dims, B, C):
        ps, q, w = f_s_case(tiny_dims, B, C, seed=B + C)
        fused, fused_grads = score_grads(f_s, (q, ps), w)
        ref, ref_grads = score_grads(reference_f_s, (q, ps), w)
        assert np.array_equal(fused, ref)
        assert_grads_close(fused_grads, ref_grads, [q] + [ps[k] for k in F_S_PARAMS])

    def test_f_s_frozen_anchors(self, tiny_dims):
        ps, q, w = f_s_case(tiny_dims, 3, 4, seed=9)
        params = {k: ps[k] for k in F_S_PARAMS}
        params["bref/anchors"] = Tensor(ps["bref/anchors"].data)
        _, fused_grads = score_grads(f_s, (q, params), w)
        _, ref_grads = score_grads(reference_f_s, (q, params), w)
        assert id(params["bref/anchors"]) not in fused_grads
        assert_grads_close(fused_grads, ref_grads,
                           [q] + [ps[k] for k in F_S_PARAMS if k != "bref/anchors"])

    def test_f_s_constant_inputs_get_no_gradient(self, tiny_dims):
        ps, q, w = f_s_case(tiny_dims, 3, 4, seed=10)
        q_const = Tensor(q.data)
        params = {k: ps[k] for k in F_S_PARAMS}
        for k in ("bref/g/W", "bref/g/b"):
            params[k] = Tensor(ps[k].data)
        grads = ad.grad_map(ad.sum_(f_s(q_const, params) * w))
        assert id(q_const) not in grads
        assert not any(id(params[k]) in grads for k in ("bref/g/W", "bref/g/b"))
        ref = ad.grad_map(ad.sum_(reference_f_s(q_const, params) * w))
        assert_grads_close(grads, ref, [params[k] for k in F_S_PARAMS[2:]])

    def test_f_s_records_one_node(self, tiny_dims):
        ps, q, _ = f_s_case(tiny_dims, 2, 3, seed=11)
        out = f_s(q, ps)
        assert out.parents == (q,) + tuple(ps[k] for k in F_S_PARAMS)
        assert all(p._bwd is None for p in out.parents)
        with no_grad():
            assert f_s(q, ps).parents == ()


class TestBlockedTriScores:
    def test_matches_composed_across_blocks(self):
        """Rows spanning at least three row blocks: the kernel still matches
        the composed reference, forward and gradients."""
        N, C, d = 700, 16, 32
        assert len(lcc._row_blocks(N, C * d)) >= 3
        args = score_inputs(N, C, d, d_att=d, seed=12)
        w = np.random.default_rng(13).normal(size=(N, C))
        fused, fused_grads = score_grads(tri_scores, args, w)
        ref, ref_grads = score_grads(reference_tri_scores, args, w)
        np.testing.assert_allclose(fused, ref, rtol=1e-14, atol=0)
        assert_grads_close(fused_grads, ref_grads, args)


def pair_batch(src_ids, tgt_ids):
    """One sentence pair as a batch: the target wrapped in BOS ... EOS."""
    return Batch(src=np.array([src_ids]), src_lens=np.array([len(src_ids)]),
                 tgt=np.array([[BOS] + tgt_ids + [EOS]]))


class TestHingeLoss:
    def _model(self, tiny_dims, **kw):
        ps = bref_store(tiny_dims, n_anchors=2, seed=13)
        return ps, TranslationModel(ps, tiny_dims, "b_ref", **kw)

    def test_perfect_prediction_zero_loss(self, tiny_dims):
        ps, model = self._model(tiny_dims, lam_m=0.0)
        # zero weights + biases equal to the embedding shared by every
        # supervised position (token 4 and the closing EOS) make f_s exact
        ps["bref/reg/W"].data[...] = 0.0
        emb = ps["dec/tgt_emb"].data[4].copy()
        ps["dec/tgt_emb"].data[2] = emb
        ps["bref/reg/b"].data[...] = emb
        out = model.loss(pair_batch([4, 5], [4, 4])).l_m
        assert out == pytest.approx(0.0, abs=1e-24)

    def test_unit_distance_single_step(self, tiny_dims):
        ps, model = self._model(tiny_dims, lam_m=0.0)
        ps["bref/reg/W"].data[...] = 0.0
        ps["bref/reg/b"].data[...] = 0.0
        ps["dec/tgt_emb"].data[4] = [1.0, 0.0, 0.0]
        ps["dec/tgt_emb"].data[2] = 0.0  # EOS embedding also regressed on
        out = model.loss(pair_batch([4], [4])).l_m
        assert out == pytest.approx(1.0, rel=1e-12)

    def test_regularizer_adds_weighted_norms(self, tiny_dims):
        ps = bref_store(tiny_dims, n_anchors=2, d_a=5, seed=14)
        # two anchors with squared Frobenius norm 3 each
        ps["bref/reg/W"].data[...] = 0.0
        ps["bref/reg/W"].data[0, 0, 0] = np.sqrt(3.0)
        ps["bref/reg/W"].data[1, 0, :3] = 1.0
        norms = regression_weight_norms(ps)
        np.testing.assert_allclose(norms.data, [3.0, 3.0], atol=1e-12)
        plain = TranslationModel(ps, tiny_dims, "b_ref", lam_m=0.0)
        penalized = TranslationModel(ps, tiny_dims, "b_ref", lam_m=0.5)
        batch = pair_batch([4, 5], [5, 6])
        assert penalized.loss(batch).l_m - plain.loss(batch).l_m \
            == pytest.approx(3.0, rel=1e-12)

    def test_non_negative_and_positive_with_weights(self, tiny_dims):
        ps, model = self._model(tiny_dims, lam_m=0.1)
        assert model.loss(pair_batch([4, 5], [6])).l_m > 0.0

    def test_empty_target_rejected(self, tiny_dims):
        """An empty batch has no target to regress on."""
        _, model = self._model(tiny_dims)
        no_rows = np.zeros((0, 2), dtype=int)
        with pytest.raises(ValueError):
            model.loss(Batch(no_rows, no_rows[:, 0], no_rows))


def first_step(ps, dims, kind):
    """The log-probabilities and states of the first decoding step of two
    sentences under ``kind``: ``seq2seq.decoder_step`` with its extra input."""
    step_for, s0 = TranslationModel(ps, dims, kind)._prepare([[4, 5, 6], [6, 5]])
    return step_for([0, 1])(np.array([BOS, BOS]), s0)


class TestBDecoderStep:
    def test_zero_projection_equals_baseline(self, tiny_dims):
        ps = bref_store(tiny_dims, seed=15)
        for base, aug in zip(first_step(ps, tiny_dims, "baseline"),
                             first_step(ps, tiny_dims, "b_ref")):
            np.testing.assert_array_equal(base, aug)

    def test_generic_projection_differs(self, tiny_dims):
        ps = bref_store(tiny_dims, seed=17, zero_proj=False)
        base = first_step(ps, tiny_dims, "baseline")[1]
        assert not np.allclose(base, first_step(ps, tiny_dims, "b_ref")[1])


class TestTrainB:
    def _pretrained(self, toy_split, toy_vocabs, epochs=2):
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        config = TrainConfig(stage="pretrain", epochs=epochs, batch_size=16,
                             seed=19, patience=50)
        return run_stage("pretrain", None, train, dev, config, vs, vt, dims)

    def test_zero_epochs_keeps_baseline(self, toy_split, toy_vocabs, capsys):
        ckpt = self._pretrained(toy_split, toy_vocabs, epochs=0)
        train, dev, _ = toy_split
        before = ckpt.params.snapshot()
        out = run_stage("train-b", ckpt, train, dev,
                        TrainConfig(stage="train-b", epochs=0, seed=19))
        for name, arr in before.items():
            np.testing.assert_array_equal(out.params[name].data, arr)

    def test_freeze_contract(self, toy_split, toy_vocabs, capsys):
        ckpt = self._pretrained(toy_split, toy_vocabs)
        train, dev, _ = toy_split
        enc = ckpt.params.group_digest("encoder")
        dec = ckpt.params.group_digest("decoder")
        cfg = TrainConfig(stage="train-b", epochs=2, batch_size=16, seed=19,
                          n_anchors=3, d_a=5, patience=50)
        out = run_stage("train-b", ckpt, train, dev, cfg)
        assert out.params.group_digest("encoder") == enc
        assert out.params.group_digest("decoder") == dec
        assert out.params.group_digest("b_ref") != ""
        assert out.kind == "b_ref"
        assert out.stages == ["pretrain", "train-b"]
        b_named = out.params.members("b_ref")
        assert any(n.startswith("bref/") for n in b_named)

    def test_zero_init_matches_baseline_loss_exactly(self, toy_split,
                                                     toy_vocabs):
        ckpt = self._pretrained(toy_split, toy_vocabs)
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        batches = make_batches(dev, 8, vs, vt)
        base = TranslationModel(ckpt.params, ckpt.dims, "baseline"
                                ).dev_loss(batches)
        init_b_params(ckpt.params, ckpt.dims, 3, 5, np.random.default_rng(20))
        b = TranslationModel(ckpt.params, ckpt.dims, "b_ref").dev_loss(batches)
        assert b == base

    def test_objective_components_decrease(self, toy_split, toy_vocabs, capsys):
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        pre_cfg = TrainConfig(stage="pretrain", epochs=10, batch_size=16,
                              seed=19, patience=50, drop_emb=0.0, drop_out=0.0)
        ckpt = run_stage("pretrain", None, train, dev, pre_cfg, vs, vt, dims)
        cfg = TrainConfig(stage="train-b", epochs=4, batch_size=16, lr=5e-4,
                          seed=19, n_anchors=3, d_a=5, lam=1.0, patience=50,
                          drop_emb=0.0, drop_out=0.0)
        out = run_stage("train-b", ckpt, train, dev, cfg)
        rows = out.history
        assert rows[-1]["train_loss"] <= rows[0]["train_loss"]
        assert rows[-1]["train_l_m"] < rows[0]["train_l_m"]
