import ast
import importlib
import inspect
import os
import pathlib
import threading

import numpy as np
import pytest

import refnet
from refnet import autodiff as ad
from refnet import gradcheck, params
from refnet.params import ParamStore, backward, finite_diff_grad

# every function outside autodiff.py that records its own tape node (a fused
# op with a hand-written backward) -> the gradient checks that cover it
FUSED_OP_CHECKS = {
    "recurrent_cell": ("recurrent_cell",),
    "encoder_recurrence": ("encoder_recurrence",),
    "decoder_recurrence": ("attention", "decoder_step", "decoder_step_extras",
                           "nll_loss", "m_loss", "joint_b_loss"),
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


WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def pinned_checks():
    """``PINNED_CHECKS`` of the benchmark's workloads, read from its source
    without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PINNED_CHECKS"
                        for t in node.targets)]
    return ast.literal_eval(value)


def test_every_pinned_check_exists():
    """The benchmark times the checks it pins and counts a missing one as
    failed: each must stay in the suite under its name."""
    pinned = pinned_checks()
    assert pinned
    assert [name for name in pinned if name not in gradcheck.CHECKS] == []


def bench_bindings():
    """``(owner, attribute)`` for every ``rebound(owner, "attribute", ...)``
    call in the benchmark's workloads, read from its source without
    importing it. An owner named by a loop over a tuple of names counts once
    per name; each name is resolved through the module's refnet imports."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "refnet":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    getattr(module, alias.name, None)
                    or importlib.import_module(f"{node.module}.{alias.name}"))
    loops = {node.target.id: [elt.id for elt in node.iter.elts]
             for node in ast.walk(tree) if isinstance(node, ast.For)
             and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rebound":
            owner, attr = node.args[0].id, node.args[1].value
            found += [(name, imported[name], attr) for name in loops.get(owner, [owner])]
    return found


class TestBenchmarkBindings:
    """The benchmark rebinds library functions by name; a rename or a new
    signature would break it without failing any library test."""

    def test_every_rebound_attribute_exists(self):
        found = bench_bindings()
        assert sorted({(name, attr) for name, _, attr in found}) == [
            ("TranslationModel", "translate"), ("gradcheck", "finite_diff_grad"),
            ("lcc", "backward"), ("training", "backward"),
            ("training", "make_batches")]
        assert [f"{name}.{attr}" for name, owner, attr in found
                if not callable(getattr(owner, attr, None))] == []

    def test_oracle_signature_is_kept(self):
        sig = inspect.signature(params.finite_diff_grad)
        assert list(sig.parameters) == ["f", "params", "step"]
        assert sig.parameters["step"].default == 1e-4


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


def reference_compare(f, ps, steps=(1e-4,)):
    """Every step's sweep over every recorded parameter, the minimum over
    the steps per coordinate, then one directional probe per unrecorded
    parameter: the reference the escalating sweep must match. Returns the
    worst error and the per-parameter error arrays."""
    analytic = backward(f(ps), ps)
    unrecorded = [n for n in ps.trainable_names() if n not in analytic]
    for name in unrecorded:
        ps[name].requires_grad = False
    try:
        best = None
        for step in steps:
            oracle = gradcheck.finite_diff_grad(f, ps, step=step)
            errs = {k: gradcheck._elementwise_rel(analytic[k], oracle[k])
                    for k in analytic}
            best = errs if best is None else {k: np.minimum(best[k], errs[k])
                                              for k in best}
    finally:
        for name in unrecorded:
            ps[name].requires_grad = True
    worst = max(float(e.max()) for e in best.values())
    rng = np.random.default_rng(0)
    with ad.no_grad():
        for name in unrecorded:
            data, step = ps[name].data, steps[0]
            u = rng.normal(size=data.shape)
            u *= step / np.linalg.norm(u)
            orig = data.copy()
            data[...] = orig + u
            fp = float(f(ps))
            data[...] = orig - u
            fm = float(f(ps))
            data[...] = orig
            slope = (fp - fm) / (2.0 * step)
            worst = max(worst, float(gradcheck._elementwise_rel(0.0, slope)))
    return worst, best


def spy_oracle(monkeypatch, offsets=None):
    """Replace the suite's oracle by the true one scaled by
    1 + offsets[step][name]; returns the list of each call's trainable names."""
    calls = []

    def spy(f, params, step=1e-4):
        calls.append(params.trainable_names())
        scale = (offsets or {}).get(step, {})
        return {k: g * (1.0 + scale.get(k, 0.0))
                for k, g in finite_diff_grad(f, params, step=step).items()}

    monkeypatch.setattr(gradcheck, "finite_diff_grad", spy)
    return calls


def raising_on(n, f):
    """``f``, except that its n-th call raises."""
    count = [0]

    def g(ps):
        count[0] += 1
        if count[0] == n:
            raise RuntimeError("objective failed")
        return f(ps)
    return g


class TestEscalatingSteps:
    @pytest.mark.parametrize("offsets, steps, expected", [
        ({}, (1e-3, 2e-3), [["x", "w"]]),
        ({1e-3: {"w": 1e-3}}, (1e-3, 2e-3), [["x", "w"], ["w"]]),
        ({1e-3: {"x": 1e-3, "w": 1e-3}, 2e-3: {"w": 1e-3}}, (1e-3, 2e-3, 4e-3),
         [["x", "w"], ["x", "w"], ["w"]]),
    ], ids=["all-clear-at-once", "w-rechecked", "x-clears-second"])
    def test_later_steps_sweep_only_what_is_still_failing(
            self, offsets, steps, expected, monkeypatch):
        calls = spy_oracle(monkeypatch, offsets)
        ref, _ = reference_compare(product, product_store(), steps)
        calls.clear()
        ps = product_store()
        assert gradcheck._compare(product, ps, steps) <= gradcheck.TOL
        assert ref <= gradcheck.TOL
        assert calls == expected
        assert ps.trainable_names() == ["x", "w", "unused"]

    def test_failing_check_reports_the_reference_error(self, monkeypatch):
        spy_oracle(monkeypatch, {1e-3: {"w": 1e-3}, 2e-3: {"w": 2e-3}})
        ref, _ = reference_compare(product, product_store(), (1e-3, 2e-3))
        worst = gradcheck._compare(product, product_store(), (1e-3, 2e-3))
        assert worst > gradcheck.TOL
        assert worst == ref

    def test_joint_b_loss_seed_4_rechecks_only_the_attention_weights(
            self, monkeypatch):
        """The one recorded case where the first step leaves a parameter
        above TOL: two coordinates of dec/att/W."""
        built, compare = [], gradcheck._compare
        monkeypatch.setattr(gradcheck, "_compare",
                            lambda f, ps, steps: built.append((f, ps, steps)))
        gradcheck.check_joint_b_loss(4)
        ((f, ps, steps),) = built
        ref, ref_errs = reference_compare(f, ps, steps)
        calls = spy_oracle(monkeypatch)
        errs = gradcheck._oracle_errors(f, ps, backward(f(ps), ps), steps)
        assert calls[1:] == [["dec/att/W"]]
        assert sorted(calls[0]) == sorted(ref_errs)
        np.testing.assert_array_equal(errs["dec/att/W"], ref_errs["dec/att/W"])
        assert compare(f, ps, steps) <= gradcheck.TOL and ref <= gradcheck.TOL

    @pytest.mark.parametrize("raise_at, offsets", [
        (1 + 12 + 3, {1e-3: {"w": 1e-3}}),  # inside the second sweep, over w
        (1 + 12 + 1, {}),                     # the probe of "unused"
    ], ids=["second-sweep", "probe"])
    def test_raising_objective_restores_values_and_flags(
            self, raise_at, offsets, monkeypatch):
        spy_oracle(monkeypatch, offsets)
        ps = product_store()
        before = {name: t.data.tobytes() for name, t in ps.items()}
        with pytest.raises(RuntimeError, match="objective failed"):
            gradcheck._compare(raising_on(raise_at, product), ps, (1e-3, 2e-3))
        assert {name: t.data.tobytes() for name, t in ps.items()} == before
        assert ps.trainable_names() == ["x", "w", "unused"]


class TestSuiteReport:
    def test_seconds_are_timed_and_summed_over_seeds(self):
        results = gradcheck.run_suite(seeds=range(2), checks=["tri_score"])
        assert all(r.seconds > 0 for r in results)
        (line,) = gradcheck.suite_report(results).splitlines()
        assert line.startswith("PASS\ttri_score\tseeds=2\t")
        assert line.endswith(f"\tseconds={sum(r.seconds for r in results):.2f}")


def use_cpus(monkeypatch, n):
    """Make the oracle see ``n`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch):
    """The list of this process's forks from now on, one entry each."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_reference(f, ps, step):
    """The central difference of every trainable coordinate, in sweep order,
    in one process: the loop the split sweep must reproduce bit for bit."""
    record = {}
    with ad.no_grad():
        for name in ps.trainable_names():
            flat = ps[name].data.reshape(-1)
            grad = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                fp = float(f(ps))
                flat[i] = orig - step
                fm = float(f(ps))
                flat[i] = orig
                grad[i] = (fp - fm) / (2.0 * step)
            record[name] = grad.reshape(ps[name].data.shape)
    return record


def wide_store():
    """256 coordinates: ``a`` is the first block of a two-way split, ``b``
    the second; with three ways the last block starts at b[42]."""
    ps = ParamStore()
    rng = np.random.default_rng(5)
    ps.add("a", rng.normal(size=(8, 16)), "m_ref")
    ps.add("b", rng.normal(size=128), "m_ref")
    return ps


def wide_objective(ps):
    return ad.sum_(ad.tanh(ps["a"])) + ad.sum_(ad.square(ps["b"]))


def failing_at(bad, how):
    """An objective that fails while any of ``b``'s coordinates in ``bad``
    differs from its value in a fresh ``wide_store``: by raising, naming the
    first moved coordinate, or by returning NaN."""
    base = wide_store()["b"].data

    def f(ps):
        moved = np.flatnonzero(ps["b"].data != base)
        if np.isin(moved, bad).any():
            if how == "raise":
                raise RuntimeError(f"objective failed at b[{moved[0]}]")
            return ad.Tensor(np.nan)
        return wide_objective(ps)
    return f


class TestSplitSweep:
    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_nll_estimates_are_bit_identical(self, n_cpus, monkeypatch):
        """The nll_loss check's store (580 coordinates) split over forked
        workers gives the bytes of one process and of the written-out loop."""
        built = []
        monkeypatch.setattr(gradcheck, "_compare",
                            lambda f, ps, steps: built.append((f, ps, steps)))
        gradcheck.check_nll(0)
        ((f, ps, steps),) = built
        forks = count_forks(monkeypatch)
        use_cpus(monkeypatch, n_cpus)
        split = finite_diff_grad(f, ps, step=steps[0])
        assert len(forks) == n_cpus - 1
        assert_no_child_left()
        use_cpus(monkeypatch, 1)
        one = finite_diff_grad(f, ps, step=steps[0])
        assert len(forks) == n_cpus - 1
        ref = serial_reference(f, ps, steps[0])
        assert list(split) == list(one) == list(ref) == ps.trainable_names()
        for name in ref:
            assert split[name].shape == ref[name].shape
            assert split[name].tobytes() == one[name].tobytes() == ref[name].tobytes()

    @pytest.mark.parametrize("n_cpus", [2, 3])
    @pytest.mark.parametrize("how, error", [("raise", RuntimeError),
                                            ("nan", FloatingPointError)])
    def test_failure_in_the_last_block_is_reported_as_in_one_process(
            self, how, error, n_cpus, monkeypatch):
        f = failing_at([60, 90], how)
        use_cpus(monkeypatch, 1)
        with pytest.raises(error) as serial:
            finite_diff_grad(f, wide_store())
        forks = count_forks(monkeypatch)
        use_cpus(monkeypatch, n_cpus)
        ps = wide_store()
        before = {name: t.data.tobytes() for name, t in ps.items()}
        with pytest.raises(error) as split:
            finite_diff_grad(f, ps)
        assert len(forks) == n_cpus - 1
        assert str(split.value) == str(serial.value)
        assert "b[60]" in str(split.value)
        assert {name: t.data.tobytes() for name, t in ps.items()} == before
        assert_no_child_left()

    def test_side_effects_of_workers_are_lost(self, monkeypatch):
        calls = []

        def f(ps):
            calls.append(1)
            return wide_objective(ps)

        use_cpus(monkeypatch, 2)
        finite_diff_grad(f, wide_store())
        assert len(calls) == 2 * 128

    def test_small_store_stays_in_process(self, monkeypatch):
        forks = count_forks(monkeypatch)
        use_cpus(monkeypatch, 4)
        ps = product_store()
        assert sum(t.size for _, t in ps.items()) < 2 * params.MIN_COORDS_PER_WORKER
        finite_diff_grad(product, ps)
        assert forks == []

    def test_threaded_process_stays_in_process(self, monkeypatch):
        forks = count_forks(monkeypatch)
        use_cpus(monkeypatch, 2)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait, args=(10,))
        waiter.start()
        try:
            finite_diff_grad(wide_objective, wide_store())
        finally:
            done.set()
            waiter.join(10)
        assert not waiter.is_alive()
        assert forks == []

    def test_failed_fork_sweeps_the_block_here(self, monkeypatch):
        ps = wide_store()
        use_cpus(monkeypatch, 1)
        one = finite_diff_grad(wide_objective, ps)
        attempts = []

        def no_fork():
            attempts.append(1)
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 2)
        split = finite_diff_grad(wide_objective, ps)
        assert attempts == [1]
        assert {k: g.tobytes() for k, g in split.items()} == {
            k: g.tobytes() for k, g in one.items()}

    def test_worker_stops_once_its_parent_is_gone(self):
        """A worker sweeps only while its parent's pid is its parent's."""
        calls = []
        ps = wide_store()
        pairs = params._sweep(lambda p: calls.append(1) or 0.0, ps,
                              [("a", 0), ("a", 1)], 1e-4, parent=os.getpid())
        assert pairs.shape == (0, 2) and calls == []
