import ast
import pathlib

import numpy as np
import pytest

import refnet
from refnet import autodiff as ad
from refnet import gradcheck
from refnet.params import ParamStore, finite_diff_grad

# every function outside autodiff.py that records its own tape node (a fused
# op with a hand-written backward) -> the gradient checks that cover it
FUSED_OP_CHECKS = {
    "recurrent_cell": ("recurrent_cell",),
    "attention_weights": ("additive_attention", "grouped_attention"),
    "weighted_sum": ("additive_attention", "grouped_attention"),
    "tri_scores": ("tri_score", "tri_scores_batch"),
    "anchor_sq_dists": ("localization_measure",),
    "f_s": ("f_s",),
}


def calls_node(fn):
    return any(isinstance(n, ast.Call)
               and ((isinstance(n.func, ast.Name) and n.func.id == "_node")
                    or (isinstance(n.func, ast.Attribute) and n.func.attr == "_node"))
               for n in ast.walk(fn))


def fused_ops():
    """(module, function) for each top-level function or method in the
    package, outside autodiff.py, whose body calls ``_node``."""
    found = []
    for path in sorted(pathlib.Path(refnet.__file__).parent.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        found += [(path.stem, fn.name) for fn in defs if calls_node(fn)]
    return found


class TestFusedOpCoverage:
    def test_every_fused_op_has_a_gradient_check(self):
        ops = fused_ops()
        assert ("lcc", "tri_scores") in ops and ("brefnet", "f_s") in ops
        missing = [f"{mod}.{name}" for mod, name in ops if name not in FUSED_OP_CHECKS]
        assert not missing, f"fused ops without a gradient check: {missing}"

    def test_every_named_check_exists(self):
        unknown = [check for checks in FUSED_OP_CHECKS.values() for check in checks
                   if check not in gradcheck.CHECKS]
        assert not unknown, f"no such gradcheck entries: {unknown}"


class _Built(Exception):
    """Raised by the spy once a check has built its store."""


class TestFloat64Oracle:
    def test_float32_parameters_refused(self):
        ps = ParamStore(np.float32)
        ps.add("w", np.ones(3), "encoder")
        with pytest.raises(TypeError, match="float64"):
            finite_diff_grad(lambda p: p["w"].data.sum(), ps)

    @pytest.mark.parametrize("name", sorted(gradcheck.CHECKS))
    def test_every_check_builds_float64_stores(self, name, monkeypatch):
        """Each check's store, and every array in it, is float64; the spy
        stops the check before it runs the differences."""
        seen = []

        def spy(f, params, step=1e-4):
            seen.append({params.dtype} | {t.data.dtype for _, t in params.items()})
            raise _Built

        monkeypatch.setattr(gradcheck, "finite_diff_grad", spy)
        with pytest.raises(_Built):
            gradcheck.CHECKS[name](0)
        assert seen == [{np.dtype(np.float64)}]


def product_store():
    ps = ParamStore()
    rng = np.random.default_rng(3)
    for name in ("x", "w", "unused"):
        ps.add(name, rng.normal(size=3), "m_ref")
    return ps


def product(ps):
    return ad.sum_(ad.tanh(ps["x"] * ps["w"]))


def product_dropping_w(ps):
    """The same value from a node whose parents leave out ``w``."""
    x, w = ps["x"], ps["w"]
    out = ad._node(x.data * w.data, (x,), lambda g: (g * w.data,))
    return ad.sum_(ad.tanh(out))


class TestOracleCoverage:
    def test_oracle_perturbs_only_recorded_parameters(self, monkeypatch):
        ps = product_store()
        seen = []

        def spy(f, params, step=1e-4):
            seen.append(params.trainable_names())
            return finite_diff_grad(f, params, step=step)

        monkeypatch.setattr(gradcheck, "finite_diff_grad", spy)
        assert gradcheck._compare(product, ps) <= gradcheck.TOL
        assert seen == [["x", "w"]]
        assert ps.trainable_names() == ["x", "w", "unused"]

    def test_dropped_parent_fails(self):
        """Mutation: the tape loses the node's dependence on ``w``. Its
        analytic gradient is missing, and the probe sees f move."""
        ps = product_store()
        assert product_dropping_w(ps).data == product(ps).data
        assert gradcheck._compare(product_dropping_w, ps) > gradcheck.TOL
        assert ps.trainable_names() == ["x", "w", "unused"]
