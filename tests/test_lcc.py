import math
import tracemalloc

import numpy as np
import pytest

from refnet import autodiff as ad
from refnet import lcc
from refnet.autodiff import no_grad
from refnet.lcc import (anchor_sq_dists, dataset_measure, fit_anchors,
                        init_anchor_points, init_score, lcc_weights, localization_measures,
                        mean_localization_measure, reconstruct, tri_scores)
from refnet.training import TrainConfig


def make_score(d_v, d_att=None, seed=0, scale=0.5):
    """A random score net (W, U, V, v)."""
    rng = np.random.default_rng(seed)
    d_att = d_att or d_v
    return (rng.normal(0, scale, size=(d_att, d_v)),
            rng.normal(0, scale, size=(d_att, d_v)),
            rng.normal(0, scale, size=(d_att, d_v)),
            rng.normal(0, scale, size=d_att))


def zero_score(d_v, d_att=None):
    d_att = d_att or d_v
    return (np.zeros((d_att, d_v)), np.zeros((d_att, d_v)),
            np.zeros((d_att, d_v)), np.zeros(d_att))


def pair_score(x, anchor, sp):
    """Score of one input against one anchor, through the batched scores."""
    return tri_scores([x], [anchor], *sp)[0, 0]


def fit_config(n_anchors, iters, seed):
    """A full-batch fit of ``iters`` iterations, step size 0.05 decaying by
    0.998 per iteration, measure weights 1 and 0.01."""
    return TrainConfig(n_anchors=n_anchors, fit_iters=iters, seed=seed,
                       fit_lr_decay=0.998, fit_batch=0)


class TestTriScore:
    def test_zero_readout_gives_zero(self):
        sp = make_score(3, seed=1)
        sp[3][...] = 0.0
        out = pair_score([1.0, -2.0, 0.5], [0.3, 0.3, 0.3], sp)
        assert float(out.data) == 0.0

    def test_zero_input_drops_product_term(self):
        sp = make_score(3, seed=2)
        x = np.zeros(3)
        v = np.array([0.4, -1.0, 2.0])
        out = pair_score(x, v, sp)
        expected = sp[3] @ np.tanh(sp[0] @ v)
        assert float(out.data) == pytest.approx(expected, rel=1e-12)

    def test_identity_weights_hand_example(self):
        """W = U = V = I, x = (1,0), v = (1,1): score = v_s . tanh((3,1))."""
        sp = (np.eye(2), np.eye(2), np.eye(2), np.array([1.0, 1.0]))
        out = pair_score([1.0, 0.0], [1.0, 1.0], sp)
        assert float(out.data) == pytest.approx(math.tanh(3) + math.tanh(1))

    def test_dimension_mismatch_rejected(self):
        sp = make_score(3)
        with pytest.raises(ValueError, match="mismatch"):
            pair_score([1.0, 2.0], [1.0, 2.0, 3.0], sp)

    def test_zero_anchors_rejected(self):
        with pytest.raises(ValueError, match="at least one anchor"):
            tri_scores([[1.0, 2.0]], np.zeros((0, 2)), *make_score(2))


class TestLccWeights:
    def test_single_anchor(self):
        sp = make_score(2, seed=3)
        gamma = lcc_weights([[0.5, 0.5]], [[1.0, 2.0]], sp)
        np.testing.assert_allclose(gamma.data, [[1.0]])

    def test_equal_scores_split_evenly(self):
        sp = make_score(2, seed=4)
        anchors = [[1.0, 2.0], [1.0, 2.0]]  # identical anchors
        gamma = lcc_weights([[0.3, -0.7]], anchors, sp)
        np.testing.assert_allclose(gamma.data, [[0.5, 0.5]])

    def test_hand_built_scores_give_point_one_point_nine(self):
        """Scores (0, ln 9) -> weights (0.1, 0.9)."""
        sp = zero_score(2, d_att=1)
        sp[0][0, 0] = 1.0
        sp[3][0] = 3.0
        anchors = [[0.0, 5.0],
                             [math.atanh(math.log(9.0) / 3.0), 5.0]]
        gamma = lcc_weights([[0.2, 0.4]], anchors, sp)
        np.testing.assert_allclose(gamma.data, [[0.1, 0.9]], atol=1e-12)

    def test_simplex_on_random_inputs(self):
        sp = make_score(4, seed=5)
        anchors = np.random.default_rng(6).normal(size=(7, 4))
        rng = np.random.default_rng(7)
        gamma = lcc_weights(rng.normal(size=(1000, 4)), anchors, sp)
        assert (gamma.data >= 0).all()
        assert (np.abs(gamma.data.sum(axis=1) - 1.0) <= 1e-9).all()

    def test_permutation_equivariance(self):
        sp = make_score(3, seed=8)
        pts = np.random.default_rng(9).normal(size=(5, 3))
        x = np.array([[0.1, -0.2, 0.3]])
        perm = np.array([3, 0, 4, 1, 2])
        g1 = lcc_weights(x, pts, sp)
        g2 = lcc_weights(x, pts[perm], sp)
        np.testing.assert_allclose(g2.data, g1.data[:, perm], atol=1e-12)
        r1 = reconstruct(g1, pts)
        r2 = reconstruct(g2, pts[perm])
        np.testing.assert_allclose(r1.data, r2.data, atol=1e-12)


class TestReconstruct:
    def test_single_anchor_returns_it(self):
        out = reconstruct([[1.0]], [[3.0, -1.0]])
        np.testing.assert_array_equal(out.data, [[3.0, -1.0]])

    def test_midpoint(self):
        out = reconstruct([[0.5, 0.5]], [[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_stays_in_coordinate_hull(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 3))
        raw = rng.random((200, 6))
        out = reconstruct(raw / raw.sum(axis=1, keepdims=True), pts).data
        assert (out >= pts.min(axis=0) - 1e-12).all()
        assert (out <= pts.max(axis=0) + 1e-12).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruct([[0.5, 0.5]], [[1.0, 2.0]])


class TestLocalizationMeasure:
    def test_zero_when_anchor_is_the_point(self):
        sp = make_score(2, seed=11)
        x = np.array([[0.7, -0.3]])
        out = localization_measures(x, x.copy(), sp, 1.0, 0.01)
        assert out.data.tolist() == [0.0]

    def test_zero_weights_give_zero(self):
        sp = make_score(2, seed=12)
        out = localization_measures([[1.0, 2.0]], [[0.0, 0.0]], sp,
                                    0.0, 0.0)
        assert out.data.tolist() == [0.0]

    def test_hand_example_totals_one(self):
        """Uniform weights, x between the anchors: 0 + 0.5 + 0.5 = 1."""
        sp = zero_score(2)  # all-zero score net makes gamma uniform
        anchors = [[0.0, 0.0], [2.0, 0.0]]
        out = localization_measures([[1.0, 0.0]], anchors, sp, 1.0, 1.0)
        np.testing.assert_allclose(out.data, [1.0], rtol=1e-12)

    def test_non_negative(self):
        sp = make_score(3, seed=13)
        anchors = np.random.default_rng(14).normal(size=(4, 3))
        rng = np.random.default_rng(15)
        out = localization_measures(rng.normal(size=(100, 3)), anchors, sp,
                                    0.5, 0.2)
        assert (out.data >= 0.0).all()

    def test_first_term_is_unsquared(self):
        sp = zero_score(2)
        anchors = [[0.0, 0.0], [4.0, 0.0]]  # recon = (2, 0)
        out = localization_measures([[1.0, 0.0], [0.5, 0.0]], anchors, sp,
                                    1.0, 0.0)
        np.testing.assert_allclose(out.data, [1.0, 1.5])


def measures(X, anchors, sp):
    """``localization_measures`` with the measure weights 1 and 0.01."""
    return localization_measures(X, anchors, sp, 1.0, 0.01)


class TestBatchContract:
    """The batched coefficients and measure work row by row."""

    def _setup(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(9, 3))
        anchors = rng.normal(size=(4, 3))
        return X, anchors, make_score(3, d_att=5, seed=24)

    @pytest.mark.parametrize("fn", [lcc_weights, measures])
    def test_row_equals_single_row_call(self, fn):
        X, anchors, sp = self._setup()
        full = fn(X, anchors, sp).data
        for i in range(len(X)):
            np.testing.assert_allclose(full[i], fn(X[i:i + 1], anchors, sp).data[0],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fn", [lcc_weights, measures])
    def test_row_permutation_permutes_output(self, fn):
        X, anchors, sp = self._setup()
        perm = np.random.default_rng(25).permutation(len(X))
        np.testing.assert_allclose(fn(X[perm], anchors, sp).data,
                                   fn(X, anchors, sp).data[perm], rtol=0, atol=1e-12)


class TestFitAnchors:
    def test_singleton_dataset_reaches_optimum(self):
        fit = fit_anchors(np.array([[0.7, -1.2, 0.4]]), fit_config(1, 300, 3))
        assert fit.final_measure < 1e-4
        np.testing.assert_allclose(fit.points,
                                   [[0.7, -1.2, 0.4]], atol=1e-3)

    def test_two_clusters_beat_one_anchor(self):
        rng = np.random.default_rng(5)
        data = np.concatenate([rng.normal(0.0, 0.5, size=(160, 2)),
                               rng.normal(10.0, 0.5, size=(40, 2))])
        fit1 = fit_anchors(data, fit_config(1, 800, 0))
        fit2 = fit_anchors(data, fit_config(2, 800, 0))
        assert fit2.final_measure < fit1.final_measure

    def test_deterministic_given_seed(self):
        data = np.random.default_rng(16).normal(size=(20, 3))
        a = fit_anchors(data, fit_config(2, 100, 4))
        b = fit_anchors(data, fit_config(2, 100, 4))
        np.testing.assert_array_equal(a.points, b.points)
        assert a.final_measure == b.final_measure

    @pytest.mark.parametrize("lr", [0.5, 2.0])
    def test_returns_the_set_that_measures_lower(self, lr):
        """At a step size of 2 the last iterate measures above the initial
        set, and the fit returns the initial anchors; at 0.5 it returns the
        last iterate."""
        data = np.random.default_rng(0).normal(size=(40, 3))
        config = TrainConfig(n_anchors=4, fit_iters=3, seed=0, fit_lr=lr, fit_batch=0)
        fit = fit_anchors(data, config)
        assert (fit.final_measure > fit.initial_measure) == (lr == 2.0)
        assert dataset_measure(data, fit.points, fit.score, config.l_alpha,
                               config.l_beta) == min(fit.initial_measure,
                                                     fit.final_measure)
        initial = init_anchor_points(data, 4, np.random.default_rng(0))
        assert np.array_equal(fit.points, initial) == (lr == 2.0)

    def test_gaussian_fallback_when_anchors_exceed_data(self):
        data = np.random.default_rng(17).normal(size=(3, 2))
        fit = fit_anchors(data, fit_config(5, 30, 1))
        assert len(fit.points) == 5

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_anchors(np.zeros((0, 2)), TrainConfig(n_anchors=1))


class TestLipschitzBoundDiag:
    """The per-point measure read as the approximation-error bound."""

    def test_zero_at_anchor(self):
        sp = make_score(2, seed=18)
        x = np.array([[1.0, 1.0]])
        out = localization_measures(x, x.copy(), sp, 1.0, 0.01)
        assert out.data.tolist() == [0.0]

    def test_decreases_after_fitting(self):
        rng = np.random.default_rng(22)
        data = np.concatenate([rng.normal(-2.0, 0.3, size=(30, 2)),
                               rng.normal(2.0, 0.3, size=(30, 2))])
        fit = fit_anchors(data, fit_config(2, 400, 2))
        before = fit.initial_measure
        after = float(np.mean(localization_measures(data, fit.points, fit.score,
                                                    1.0, 0.01).data))
        assert after < before


def traced_peak(fn):
    """Peak bytes NumPy and Python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blocks_of(N, C, d):
    return len(lcc._row_blocks(N, C * d))


def tanh_points(N, d, seed=0, dtype=np.float64):
    return np.tanh(np.random.default_rng(seed).normal(size=(N, d))).astype(dtype)


class TestRowBlocks:
    """The score kernel, the anchor distances and the whole-dataset measure
    go through the rows one block at a time."""

    def test_blocks_cover_the_rows(self):
        blocks = lcc._row_blocks(1000, 16 * 128)
        assert blocks[0] == slice(0, lcc.BLOCK_ELEMS // (16 * 128))
        assert np.concatenate([np.arange(1000)[b] for b in blocks]).tolist() \
            == list(range(1000))
        assert lcc._row_blocks(5, 10 * lcc.BLOCK_ELEMS) == [slice(i, i + 1)
                                                         for i in range(5)]

    def test_fit_iteration_memory_bound(self):
        """One float32 fit iteration at N = 256, C = 16, d_v = 128 stays
        within 4 units of N * C * d_v * 4 bytes (the whole-batch tape took
        7.4 units)."""
        N, C, d = 256, 16, 128
        assert blocks_of(N, C, d) >= 3
        X = tanh_points(N, d, dtype=np.float32)
        peak = traced_peak(lambda: fit_anchors(
            X, fit_config(C, 1, 1)))
        assert peak <= 4 * N * C * d * 4

    def test_dataset_measure_memory_does_not_grow_with_rows(self):
        C, d = 16, 128
        sp = init_score(d, d, np.random.default_rng(2))
        peaks = {}
        for N in (1024, 4096):
            X = tanh_points(N, d, seed=3)
            anchors = X[:C].copy()
            peaks[N] = traced_peak(lambda: dataset_measure(X, anchors, sp, 1.0, 0.01))
        assert peaks[4096] <= 1.1 * peaks[1024]

    def test_dataset_measure_equals_one_call_mean(self):
        N, C, d = 700, 16, 64
        assert blocks_of(N, C, d) >= 3
        X = tanh_points(N, d, seed=4)
        sp = make_score(d, seed=5, scale=0.1)
        anchors = X[:C] + 0.1
        with no_grad():
            whole = float(mean_localization_measure(X, anchors, sp, 1.0, 0.5).data)
        assert dataset_measure(X, anchors, sp, 1.0, 0.5) \
            == pytest.approx(whole, rel=1e-12, abs=0)

    def test_sq_dists_match_composed_across_blocks(self):
        """Forward bits and the anchors' gradient (1e-12 relative) of the
        blocked distances of constant rows against the (N, C, d) difference
        tensor built from tape ops."""
        N, C, d = 300, 8, 128
        assert blocks_of(N, C, d) >= 3
        rng = np.random.default_rng(6)
        r, A = rng.normal(size=(N, d)), ad.parameter(rng.normal(size=(C, d)))
        w = rng.normal(size=(N, C))
        diffs = ad.reshape(A, (1, C, d)) - r.reshape(N, 1, d)
        outs = [anchor_sq_dists(r, A), ad.sum_(ad.square(diffs), axis=2)]
        assert np.array_equal(outs[0].data, outs[1].data)
        fused, composed = (ad.grad_map(ad.sum_(out * w))[id(A)] for out in outs)
        assert np.abs(fused - composed).max() <= 1e-12 * np.abs(composed).max()
