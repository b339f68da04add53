import warnings

import numpy as np
import pytest

from refnet import autodiff as ad
from refnet.autodiff import Tensor, no_grad
from refnet.params import (Optimizer, OptimizerConfig, ParamStore, backward,
                           clip_gradient_norm, clip_gradient_value,
                           finite_diff_grad, grad_global_norm, relative_error)


class TestBackward:
    def test_sum_of_parameter(self):
        ps = ParamStore()
        ps.add("p", [1.0, 2.0], "encoder")
        grads = backward(ad.sum_(ps["p"]), ps)
        np.testing.assert_array_equal(grads["p"], [1.0, 1.0])

    def test_squared_norm(self):
        ps = ParamStore()
        ps.add("p", [3.0, 4.0], "encoder")
        grads = backward(ad.sum_(ad.square(ps["p"])), ps)
        np.testing.assert_array_equal(grads["p"], [6.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        ps = ParamStore()
        ps.add("p", [1.0, 2.0], "encoder")
        with pytest.raises(ValueError, match="scalar"):
            backward(ps["p"] * 2.0, ps)

    def test_detached_parameter_rejected(self):
        ps = ParamStore()
        ps.add("p", [1.0], "encoder")
        loss = ad.sum_(ad.square(Tensor([2.0], requires_grad=True)))
        with pytest.raises(ValueError, match="participates"):
            backward(loss, ps)

    def test_three_layer_composition_matches_oracle(self):
        """tanh/affine/softmax stack against the complex-step oracle."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ps = ParamStore()
            ps.add("W1", rng.normal(size=(3, 5)), "encoder")
            ps.add("b1", rng.normal(size=5), "encoder")
            ps.add("W2", rng.normal(size=(5, 4)), "encoder")
            ps.add("W3", rng.normal(size=(4, 2)), "encoder")
            x = Tensor(rng.normal(size=(2, 3)))
            w = rng.normal(size=(2, 2))

            def f(p):
                h1 = ad.tanh(ad.matmul(x, p["W1"]) + p["b1"])
                h2 = ad.tanh(ad.matmul(h1, p["W2"]))
                out = ad.softmax(ad.matmul(h2, p["W3"]), axis=1)
                return ad.sum_(out * w)

            analytic = backward(f(ps), ps)
            oracle = finite_diff_grad(f, ps, step=1e-4)
            for name in analytic:
                assert relative_error(analytic[name], oracle[name]) < 1e-4


    @pytest.mark.parametrize("mul_first", [True, False])
    def test_shared_gradient_array_not_added_into(self, mul_first):
        """add hands one array to both operands; a later sum for one of
        them must not change the other's."""
        a = ad.parameter(np.ones(3))
        b = ad.parameter(np.ones(3))
        terms = [ad.sum_(a * 2.0), ad.sum_(a + b)]
        grads = ad.grad_map(terms[0] + terms[1] if mul_first else terms[1] + terms[0])
        np.testing.assert_array_equal(grads[id(a)], [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(grads[id(b)], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.matmul],
                             ids=["add", "sub", "mul", "matmul"])
    def test_constant_operand_gets_no_gradient(self, op):
        rng = np.random.default_rng(6)
        x, y, w = (rng.normal(size=(3, 3)) for _ in range(3))
        both = [ad.parameter(x), ad.parameter(y)]
        full = ad.grad_map(ad.sum_(op(*both) * w))
        for free in (0, 1):
            args = [ad.Tensor(x), ad.Tensor(y)]
            args[free] = ad.parameter((x, y)[free])
            grads = ad.grad_map(ad.sum_(op(*args) * w))
            assert id(args[1 - free]) not in grads
            np.testing.assert_array_equal(grads[id(args[free])], full[id(both[free])])


class TestFiniteDiff:
    def test_quadratic(self):
        ps = ParamStore()
        ps.add("p", 2.0, "encoder")
        grads = finite_diff_grad(lambda p: ad.square(p["p"]), ps, step=1e-4)
        assert abs(grads["p"] - 4.0) < 1e-6

    def test_constant_function(self):
        ps = ParamStore()
        ps.add("p", [1.0, -2.0, 3.0], "encoder")
        grads = finite_diff_grad(lambda p: Tensor(7.0), ps, step=1e-4)
        np.testing.assert_array_equal(grads["p"], np.zeros(3))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_objective_reported(self):
        """p^2 overflows at 1e200: sqrt of a negative, the old trigger, is
        finite in complex arithmetic."""
        ps = ParamStore()
        ps.add("p", 1e200, "encoder")
        with pytest.raises(FloatingPointError, match=r"p\[0\]"):
            finite_diff_grad(lambda p: ad.square(p["p"]), ps, step=1e-20)

    def test_bad_step_rejected(self):
        ps = ParamStore()
        ps.add("p", 1.0, "encoder")
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: ad.square(p["p"]), ps, step=0.0)

    def test_raising_objective_leaves_the_store_unperturbed(self):
        """The third evaluation, at w[2] + ih, raises; w must read as before,
        in float64."""
        ps = ParamStore()
        ps.add("w", [1.0, 2.0, 3.0], "encoder")
        before = ps["w"].data
        snapshot = before.tobytes()
        calls = []

        def f(p):
            calls.append(p["w"].data.copy())
            if len(calls) == 3:
                raise RuntimeError("objective failed")
            return ad.sum_(ad.square(p["w"]))

        with pytest.raises(RuntimeError, match="objective failed"):
            finite_diff_grad(f, ps, step=1e-20)
        np.testing.assert_array_equal(calls[2].imag, [0.0, 0.0, 1e-20])
        assert ps["w"].data is before and before.tobytes() == snapshot
        assert ps["w"].data.dtype == np.float64

    def test_exact_at_a_tiny_step(self):
        """No subtraction: at h = 1e-20 the estimate keeps every digit that
        a central difference would cancel."""
        ps = ParamStore()
        ps.add("p", [0.3, -1.2], "encoder")
        grads = finite_diff_grad(lambda p: ad.sum_(ad.tanh(p["p"])), ps, step=1e-20)
        np.testing.assert_allclose(grads["p"], 1.0 - np.tanh([0.3, -1.2]) ** 2,
                                   rtol=1e-15)

    @pytest.mark.parametrize("objective", [
        lambda p: Tensor(float(ad.sum_(ad.square(p["w"])).data[()])),
        lambda p: Tensor(float(ad.sum_(ad.square(p["w"])))),
        lambda p: ad.sum_(Tensor(np.asarray(p["w"].data, np.float64))),
    ], ids=["float-of-scalar", "float-of-tensor", "real-buffer"])
    def test_dropped_imaginary_part_raises(self, objective):
        """A value cast to real would read as a zero derivative; inside the
        sweep the cast raises, whatever the caller's warning filters, and
        the store is put back."""
        ps = ParamStore()
        ps.add("w", [1.0, 2.0], "encoder")
        before = ps["w"].data.tobytes()
        with warnings.catch_warnings(), \
                pytest.raises((TypeError, np.exceptions.ComplexWarning)):
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            finite_diff_grad(objective, ps, step=1e-20)
        assert ps["w"].data.tobytes() == before
        assert ps["w"].data.dtype == np.float64

    def test_modulus_fails_its_check(self):
        """A modulus drops the imaginary part without a warning, so the
        oracle reads a zero derivative. It cannot raise; the analytic
        gradient of the same op then disagrees, and the check fails."""
        ps = ParamStore()
        ps.add("w", [1.0, -2.0], "encoder")

        def f(p):
            w = p["w"]
            modulus = ad._node(np.abs(w.data), (w,), lambda g: (np.sign(w.data) * g,))
            return ad.sum_(ad.square(modulus))

        analytic = backward(f(ps), ps)
        oracle = finite_diff_grad(f, ps, step=1e-20)
        np.testing.assert_array_equal(oracle["w"], [0.0, 0.0])
        assert relative_error(analytic["w"], oracle["w"]) == 1.0


class TestClipping:
    def test_forced_scaling(self):
        out = clip_gradient_norm({"g": np.array([3.0, 4.0])}, 1.0)
        np.testing.assert_allclose(out["g"], [0.6, 0.8])

    def test_small_gradient_unchanged(self):
        grads = {"g": np.array([0.1, 0.2])}
        out = clip_gradient_norm(grads, 1.0)
        np.testing.assert_array_equal(out["g"], grads["g"])

    def test_global_norm_over_tensors(self):
        out = clip_gradient_norm({"a": np.array([3.0, 0.0]),
                                  "b": np.array([0.0, 4.0])}, 1.0)
        np.testing.assert_allclose(out["a"], [0.6, 0.0])
        np.testing.assert_allclose(out["b"], [0.0, 0.8])

    def test_norm_bound_and_direction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            grads = {f"g{i}": rng.normal(size=rng.integers(1, 6))
                     for i in range(3)}
            out = clip_gradient_norm(grads, 0.5)
            assert grad_global_norm(out) <= 0.5 + 1e-12
            flat_in = np.concatenate([grads[k].ravel() for k in sorted(grads)])
            flat_out = np.concatenate([out[k].ravel() for k in sorted(out)])
            cos = flat_in @ flat_out / (np.linalg.norm(flat_in)
                                        * np.linalg.norm(flat_out))
            assert abs(cos - 1.0) < 1e-12

    def test_value_mode(self):
        out = clip_gradient_value({"g": np.array([-3.0, 0.5])}, 1.0)
        np.testing.assert_array_equal(out["g"], [-1.0, 0.5])


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.0, training=True,
                          rng=np.random.default_rng(0)) is x

    def test_eval_mode_identity(self):
        x = Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.9, training=False) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor([1.0]), 1.0, training=True,
                       rng=np.random.default_rng(0))


class TestOptimizer:
    def test_sgd_update(self):
        ps = ParamStore()
        ps.add("p", 1.0, "encoder")
        opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
        opt.step(ps, {"p": np.array(2.0)})
        assert ps["p"].data == pytest.approx(0.8)

    def test_frozen_parameter_untouched(self):
        ps = ParamStore()
        ps.add("p", 1.0, "encoder")
        ps.freeze("encoder")
        opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
        opt.step(ps, {"p": np.array(2.0)})
        assert ps["p"].data == 1.0

    def test_all_frozen_step_is_identity(self):
        ps = ParamStore()
        ps.add("a", [1.0, 2.0], "encoder")
        ps.add("b", [[3.0]], "decoder")
        ps.freeze("encoder", "decoder")
        before = ps.snapshot()
        loss = ad.sum_(ps["a"]) + ad.sum_(ps["b"])
        grads = backward(loss, ps)
        assert grads == {}
        Optimizer(OptimizerConfig(kind="adam")).step(ps, grads)
        for name, arr in before.items():
            np.testing.assert_array_equal(ps[name].data, arr)

    def test_sgd_converges_on_quadratic(self):
        ps = ParamStore()
        ps.add("p", 1.0, "encoder")
        opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
        for _ in range(50):
            grads = backward(ad.square(ps["p"]), ps)
            opt.step(ps, grads)
        assert abs(float(ps["p"].data)) < 1e-3

    def test_shape_mismatch_rejected(self):
        ps = ParamStore()
        ps.add("p", [1.0, 2.0], "encoder")
        opt = Optimizer(OptimizerConfig(kind="sgd"))
        with pytest.raises(ValueError, match="shape"):
            opt.step(ps, {"p": np.zeros(3)})


class TestParamStore:
    def test_duplicate_names_rejected(self):
        ps = ParamStore()
        ps.add("p", 1.0, "encoder")
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("p", 2.0, "decoder")

    def test_freeze_controls_gradients(self):
        ps = ParamStore()
        ps.add("a", [1.0], "encoder")
        ps.add("b", [1.0], "decoder")
        ps.freeze("encoder")
        grads = backward(ad.sum_(ps["a"] * 1.0) + ad.sum_(ps["b"]), ps)
        assert set(grads) == {"b"}
        ps.unfreeze("encoder")
        grads = backward(ad.sum_(ps["a"]) + ad.sum_(ps["b"]), ps)
        assert set(grads) == {"a", "b"}

    def test_group_digest_changes_with_values(self):
        ps = ParamStore()
        ps.add("a", [1.0], "encoder")
        before = ps.group_digest("encoder")
        ps["a"].data[0] = 2.0
        assert ps.group_digest("encoder") != before


class TestDeterminism:
    def test_forward_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(4, 3)))
            w = Tensor(rng.normal(size=(3, 2)))
            out = ad.dropout(ad.tanh(ad.matmul(x, w)), 0.3, training=True,
                             rng=np.random.default_rng(5))
            return out.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_no_grad_blocks_tape(self):
        ps = ParamStore()
        ps.add("p", [1.0, 2.0], "encoder")
        with no_grad():
            loss = ad.sum_(ad.square(ps["p"]))
        assert loss.parents == ()
        assert not loss.requires_grad


class TestGetitem:
    @pytest.mark.parametrize("key", [
        2, np.int64(-1), slice(1, 4), slice(None, None, -2),
        (slice(None), 1), (1, slice(0, 2)), (Ellipsis, 0), (None, 2)],
        ids=["int", "numpy-int", "slice", "negative-step", "row-slice-col-int",
             "int-then-slice", "ellipsis", "newaxis"])
    def test_basic_key_gradient_scatters_once(self, key):
        a = ad.parameter(np.arange(15.0).reshape(5, 3))
        out = ad.getitem(a, key)
        w = np.random.default_rng(0).normal(size=out.shape)
        grad = ad.grad_map(ad.sum_(out * w))[id(a)]
        expected = np.zeros((5, 3))
        expected[key] = w
        np.testing.assert_array_equal(grad, expected)

    def test_repeated_index_array_accumulates(self):
        a = ad.parameter(np.arange(15.0).reshape(5, 3))
        out = ad.getitem(a, np.array([0, 3, 0, 0]))
        grad = ad.grad_map(ad.sum_(out))[id(a)]
        np.testing.assert_array_equal(grad[:, 0], [3.0, 0.0, 0.0, 1.0, 0.0])

    def test_mixed_array_key_accumulates(self):
        a = ad.parameter(np.zeros((2, 4)))
        out = ad.getitem(a, (slice(None), [1, 1, 2]))
        grad = ad.grad_map(ad.sum_(out * 2.0))[id(a)]
        np.testing.assert_array_equal(grad, [[0, 4, 2, 0], [0, 4, 2, 0]])
