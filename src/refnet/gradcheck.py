"""Finite-difference validation of every differentiable operation.

Each check builds a tiny instance of one computation, evaluates the
analytic gradients via the tape, evaluates the central-difference oracle,
and reports the worst element-wise relative error
|a - b| / max(|a|, |b|, 1e-8). Probe inputs (the non-parameter arguments
whose gradients are also part of the contract) are registered as
parameters so the oracle covers them too. The oracle perturbs only the
parameters the tape recorded; each other trainable parameter gets one
directional probe, which must leave the objective where it was.

A check may list several oracle steps. They run in turn, and each later
step re-runs the oracle only for the parameters that the earlier steps
did not clear (some coordinate still above ``TOL``); a coordinate passes
if any step's estimate is within ``TOL``. So ``max_rel_err`` is the worst
error of the estimate that cleared each coordinate: a parameter cleared
at the first step reports its first-step error, and one that no step
clears reports its minimum over every step.

Each sweep of ``finite_diff_grad`` is split over the usable CPUs, by
forked workers, when its store is large enough (the whole-loss checks);
the estimates, and so every ``max_rel_err``, are bit-identical to a sweep
in one process. So an objective must be deterministic, and what it does
to state outside the store inside a worker is lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import brefnet, mrefnet, seq2seq
from .autodiff import Tensor
from .corpus import Batch
from .lcc import (AnchorSet, LccConfig, ScoreParams,
                  mean_localization_measure, tri_scores)
from .model import TranslationModel, variant_extras, variant_memory
from .params import ParamStore, backward, finite_diff_grad
from .seq2seq import ModelDims

TOL = 1e-4
_DIMS = dict(d_e=3, d_h=4, d_att=4, d_out=3)


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_err: float
    seconds: float = 0.0

    @property
    def passed(self):
        return self.max_rel_err <= TOL


def _elementwise_rel(a, b, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def _oracle_errors(f, ps, analytic, steps):
    """Element-wise error of each recorded gradient in ``analytic`` against
    the oracle, escalating through ``steps``.

    No single step suits every coordinate: truncation grows with h while
    the roundoff term eps*|f|/h competes with the 1e-8 error floor on
    near-zero gradients. So a parameter with a coordinate above ``TOL``
    after one step's sweep gets the next step's sweep too, and keeps the
    minimum over its steps; a parameter whose every coordinate is within
    ``TOL`` is marked requires_grad=False and the later sweeps skip it.
    The oracle perturbs only recorded parameters: every other trainable
    one is marked the same way. Every flag is restored on the way out.
    """
    skipped = [n for n in ps.trainable_names() if n not in analytic]
    for name in skipped:
        ps[name].requires_grad = False
    best = {}
    try:
        for step in steps:
            if not ps.trainable_names():
                break
            for k, est in finite_diff_grad(f, ps, step=step).items():
                err = _elementwise_rel(analytic[k], est)
                best[k] = np.minimum(best[k], err) if k in best else err
                if best[k].max() <= TOL:
                    ps[k].requires_grad = False
                    skipped.append(k)
    finally:
        for name in skipped:
            ps[name].requires_grad = True
    return best


def _compare(f, ps, steps=(1e-4,)):
    # Each recorded coordinate is checked against the oracle estimate that
    # cleared it (see _oracle_errors). Every other trainable parameter gets
    # one directional probe, whose analytic value is zero, so a dependency
    # the tape dropped fails the check.
    analytic = backward(f(ps), ps)
    unrecorded = [n for n in ps.trainable_names() if n not in analytic]
    best = _oracle_errors(f, ps, analytic, steps)
    worst = max(float(e.max()) for e in best.values())
    rng = np.random.default_rng(0)
    with ad.no_grad():
        for name in unrecorded:
            data, step = ps[name].data, steps[0]
            u = rng.normal(size=data.shape)
            u *= step / np.linalg.norm(u)
            orig = data.copy()
            try:
                data[...] = orig + u
                fp = float(f(ps))
                data[...] = orig - u
                fm = float(f(ps))
            finally:
                data[...] = orig
            slope = (fp - fm) / (2.0 * step)
            worst = max(worst, float(_elementwise_rel(0.0, slope)))
    return worst


def _tiny_dims(vocab=6):
    return ModelDims(vocab_src=vocab, vocab_tgt=vocab, **_DIMS)


def _probe(ps, name, data):
    return ps.add(name, data, "m_ref")  # group label is irrelevant for probes


def _memory(rng, ps):
    """A constant encoder memory h (2, 3, 2*d_h) and its projection."""
    h = rng.normal(size=(2, 3, ps["dec/att/U"].shape[0]))
    return Tensor(h), Tensor(h @ ps["dec/att/U"].data)


def check_attention(seed):
    """The decoder's query projection and masked additive attention, through
    one step of the decoder node over ragged sources (lengths 3 and 2): the
    objective reads the context; the cell's weights are constants."""
    rng = np.random.default_rng((seed, 11))
    dims = _tiny_dims()
    ps = seq2seq.init_baseline_params(dims, rng)
    h = Tensor(rng.normal(size=(2, 3, 2 * dims.d_h)))
    u = np.concatenate([np.zeros(dims.d_e + dims.d_h), rng.normal(size=2 * dims.d_h)])
    emb = Tensor(rng.normal(size=(2, 2, dims.d_e)))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    _probe(ps, "probe/s_prev", rng.normal(size=(2, dims.d_h)))
    cell = {k: Tensor(ps[k].data) for k in ("dec/cell/W", "dec/cell/U", "dec/cell/b")}

    def f(ps_):
        params = {k: ps_[k] for k in ("dec/att/W", "dec/att/U", "dec/att/v")}
        out = seq2seq.decoder_recurrence({**params, **cell}, ps_["probe/s_prev"],
                                         emb, h, seq2seq.attention_proj(ps_, h), mask)
        return ad.sum_(ad.tanh(out) * u)

    return _compare(f, ps)


def check_decoder_step(seed):
    """One step of the decoder node without an extra input: the attention
    and the gated update over a constant memory, the previous embedding and
    state probed."""
    rng = np.random.default_rng((seed, 13))
    dims = _tiny_dims()
    ps = seq2seq.init_baseline_params(dims, rng)
    u = rng.normal(size=dims.d_e + 3 * dims.d_h)
    h, h_proj = _memory(rng, ps)
    _probe(ps, "probe/emb", rng.normal(size=(2, 2, dims.d_e)))
    _probe(ps, "probe/s_prev", rng.normal(size=(2, dims.d_h)))

    def f(ps_):
        out = seq2seq.decoder_recurrence(ps_, ps_["probe/s_prev"], ps_["probe/emb"],
                                         h, h_proj, None)
        return ad.sum_(ad.tanh(out) * u)

    return _compare(f, ps)


def check_decoder_step_extras(seed):
    """One step of the decoder node with m_ref's extra input: the anchor
    attention's context fed through a non-zero projection, over a constant
    memory of ragged sources; the anchors, the previous embedding and state
    probed."""
    rng = np.random.default_rng((seed, 17))
    dims = _tiny_dims()
    ps = seq2seq.init_baseline_params(dims, rng)
    mrefnet.init_m_params(ps, dims, rng)
    ps["mref/proj"].data[...] = rng.normal(0, 0.3, size=ps["mref/proj"].shape)
    ps.add("anchors/m", rng.normal(size=(3, 2 * dims.d_h)), "anchors")
    u = rng.normal(size=dims.d_e + 3 * dims.d_h)
    h, h_proj = _memory(rng, ps)
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    _probe(ps, "probe/emb", rng.normal(size=(2, 2, dims.d_e)))
    _probe(ps, "probe/s_prev", rng.normal(size=(2, dims.d_h)))

    def f(ps_):
        extra = variant_extras("m_ref", ps_, variant_memory("m_ref", ps_))
        out = seq2seq.decoder_recurrence(ps_, ps_["probe/s_prev"], ps_["probe/emb"],
                                         h, h_proj, mask, extra)
        return ad.sum_(ad.tanh(out) * u)

    return _compare(f, ps)


def check_tri_score(seed):
    """The tri-nonlinear compatibility score of one input and one anchor."""
    rng = np.random.default_rng((seed, 19))
    d_v, d_att = 4, 3
    ps = ParamStore()
    for key in ("W", "U", "V"):
        ps.add(f"anchors/score/{key}", rng.normal(0, 0.5, size=(d_att, d_v)), "anchors")
    ps.add("anchors/score/v", rng.normal(size=d_att), "anchors")
    ps.add("anchors/point", rng.normal(size=(1, d_v)), "anchors")
    _probe(ps, "probe/x", rng.normal(size=(1, d_v)))

    def f(ps_):
        return ad.sum_(tri_scores(ps_["probe/x"], ps_["anchors/point"],
                                  *(ps_[f"anchors/score/{k}"] for k in "WUVv")))

    return _compare(f, ps)


def check_tri_scores_batch(seed):
    """The score of several inputs against several anchors: the kernel's
    sums over rows and anchors, with inputs and anchors both probed."""
    rng = np.random.default_rng((seed, 53))
    N, C, d_v, d_att = 3, 4, 4, 3
    ps = ParamStore()
    for key in ("W", "U", "V"):
        ps.add(f"anchors/score/{key}", rng.normal(0, 0.5, size=(d_att, d_v)), "anchors")
    ps.add("anchors/score/v", rng.normal(size=d_att), "anchors")
    _probe(ps, "probe/x", rng.normal(size=(N, d_v)))
    _probe(ps, "probe/anchors", rng.normal(size=(C, d_v)))
    w = rng.normal(size=(N, C))

    def f(ps_):
        scores = tri_scores(ps_["probe/x"], ps_["probe/anchors"],
                            *(ps_[f"anchors/score/{k}"] for k in "WUVv"))
        return ad.sum_(scores * w)

    return _compare(f, ps)


def check_localization_measure(seed):
    """The anchor-fitting objective, including the unsquared first term."""
    rng = np.random.default_rng((seed, 23))
    d_v, d_att, C = 3, 3, 3
    ps = ParamStore()
    ps.add("anchors/points", rng.normal(size=(C, d_v)), "anchors")
    for key in ("W", "U", "V"):
        ps.add(f"anchors/score/{key}", rng.normal(0, 0.5, size=(d_att, d_v)), "anchors")
    ps.add("anchors/score/v", rng.normal(size=d_att), "anchors")
    _probe(ps, "probe/x", rng.normal(size=(4, d_v)))
    cfg = LccConfig(l_alpha=1.0, l_beta=0.01)

    def f(ps_):
        sp = ScoreParams(ps_["anchors/score/W"], ps_["anchors/score/U"],
                         ps_["anchors/score/V"], ps_["anchors/score/v"])
        return mean_localization_measure(ps_["probe/x"],
                                         AnchorSet(ps_["anchors/points"]), sp, cfg)

    return _compare(f, ps)


def _bref_store(rng, dims, C=3, d_a=4):
    ps = seq2seq.init_baseline_params(dims, rng)
    brefnet.init_b_params(ps, dims, C, d_a, rng)
    ps["bref/proj"].data[...] = rng.normal(0, 0.3, size=ps["bref/proj"].shape)
    return ps


def check_f_s(seed):
    """The anchor-coded regression onto the embedding space."""
    rng = np.random.default_rng((seed, 29))
    dims = _tiny_dims()
    ps = _bref_store(rng, dims)
    u = rng.normal(size=dims.d_e)
    _probe(ps, "probe/q", rng.normal(size=(2, brefnet.query_dim(dims))))

    def f(ps_):
        return ad.sum_(ad.tanh(brefnet.f_s(ps_["probe/q"], ps_)) * u)

    return _compare(f, ps)


def check_hinge_loss(seed):
    """Regression residual plus the per-anchor weight-norm penalty."""
    rng = np.random.default_rng((seed, 31))
    dims = _tiny_dims()
    ps = _bref_store(rng, dims)
    _probe(ps, "probe/q", rng.normal(size=(3, brefnet.query_dim(dims))))
    _probe(ps, "probe/target", rng.normal(size=(3, dims.d_e)))
    lam_m = 0.5

    def f(ps_):
        pred = brefnet.f_s(ps_["probe/q"], ps_)
        residual = ad.sum_(ad.square(ps_["probe/target"] - pred))
        return residual + lam_m * ad.sum_(brefnet.regression_weight_norms(ps_))

    return _compare(f, ps)


def _toy_batch(rng, dims, B=2, m=3, T=4):
    src = rng.integers(4, dims.vocab_src, size=(B, m))
    tgt = np.full((B, T + 2), 0, dtype=np.int64)
    for i in range(B):
        tgt[i, 0] = 1
        tgt[i, 1:T + 1] = rng.integers(4, dims.vocab_tgt, size=T)
        tgt[i, T + 1] = 2
    return Batch(src=src, src_lens=np.full(B, m), tgt=tgt,
                 tgt_lens=np.full(B, T + 2))


def check_nll(seed):
    """Teacher-forced likelihood through the whole baseline graph."""
    rng = np.random.default_rng((seed, 37))
    dims = _tiny_dims()
    ps = seq2seq.init_baseline_params(dims, rng)
    batch = _toy_batch(rng, dims)

    def f(ps_):
        return seq2seq.nll_loss(ps_, dims, batch)[0]

    return _compare(f, ps, steps=(1e-3, 2e-3))


def check_m_loss(seed):
    """The finetune-m objective, m_ref's teacher-forced likelihood, with a
    non-zero extra projection over ragged sources (lengths 3 and 2)."""
    rng = np.random.default_rng((seed, 61))
    dims = _tiny_dims()
    ps = seq2seq.init_baseline_params(dims, rng)
    ps.add("anchors/m", rng.normal(size=(3, 2 * dims.d_h)), "anchors")
    mrefnet.init_m_params(ps, dims, rng)
    ps["mref/proj"].data[...] = rng.normal(0, 0.3, size=ps["mref/proj"].shape)
    batch = _toy_batch(rng, dims)
    batch.src[1, 2:] = 0
    batch.src_lens[1] = 2
    model = TranslationModel(ps, dims, "m_ref")

    def f(ps_):
        return model.loss(batch).joint

    return _compare(f, ps, steps=(1e-3, 2e-3))


def check_joint_b_loss(seed):
    """The full bilingual objective: NLL plus weighted hinge loss."""
    rng = np.random.default_rng((seed, 41))
    dims = _tiny_dims()
    ps = _bref_store(rng, dims)
    batch = _toy_batch(rng, dims)
    model = TranslationModel(ps, dims, "b_ref", lam=1.0, lam_m=1e-2)

    def f(ps_):
        return model.loss(batch).joint

    return _compare(f, ps, steps=(1e-3, 2e-3))


def check_recurrent_cell(seed):
    """The fused one-node cell with one non-zero extra input."""
    rng = np.random.default_rng((seed, 43))
    d_x, d_h, d_v, B = 3, 4, 2, 2
    width = seq2seq.GATES * d_h
    ps = ParamStore()
    u = rng.normal(size=d_h)
    names = ("x", "s_prev", "W", "U", "b", "vec", "proj")
    shapes = ((B, d_x), (B, d_h), (d_x, width), (d_h, width), (width,),
              (B, d_v), (d_v, width))
    for name, shape in zip(names, shapes):
        _probe(ps, f"probe/{name}", rng.normal(0, 0.5, size=shape))

    def f(ps_):
        x, s_prev, W, U, b, vec, proj = (ps_[f"probe/{name}"] for name in names)
        s = seq2seq.recurrent_cell(x, s_prev, W, U, b, [(vec, proj)])
        return ad.sum_(ad.tanh(s) * u)

    return _compare(f, ps)


def check_encoder_recurrence(seed):
    """The one-node bidirectional encoder over ragged sources (lengths 3, 2
    and 1), so that padding reaches both directions: the embedding table
    and both directions' W, U and b."""
    rng = np.random.default_rng((seed, 59))
    dims = _tiny_dims()
    schema = [e for e in seq2seq.baseline_schema(dims) if e[0].startswith("enc/")]
    ps = seq2seq.add_params(ParamStore(), schema, rng)
    lens = np.array([3, 2, 1])
    src = np.where(np.arange(3)[None, :] < lens[:, None],
                   rng.integers(3, dims.vocab_src, size=(3, 3)), 0)
    u = rng.normal(size=(3, 3, 2 * dims.d_h))

    def f(ps_):
        h, _ = seq2seq.encode_batch(ps_, dims, src, lens)
        return ad.sum_(ad.tanh(h) * u)

    return _compare(f, ps)


def check_additive_attention(seed):
    """The two-node attention op, with per-row masked keys and with keys
    shared by every row; alpha and the context both enter the objective."""
    rng = np.random.default_rng((seed, 47))
    B, m, C, d, d_v = 2, 3, 4, 3, 2
    ps = ParamStore()
    for name, shape in (("q", (B, d)), ("v", (d,)), ("keys", (B, m, d)),
                        ("values", (B, m, d_v)), ("shared_keys", (1, C, d)),
                        ("shared_values", (1, C, d_v))):
        _probe(ps, f"probe/{name}", rng.normal(0, 0.7, size=shape))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    u = rng.normal(size=d_v)
    weights = {"": rng.normal(size=m), "shared_": rng.normal(size=C)}

    def f(ps_):
        total = 0.0
        for layout, mask_ in (("", mask), ("shared_", None)):
            alpha, c = seq2seq.additive_attention(
                ps_["probe/q"], ps_[f"probe/{layout}keys"],
                ps_[f"probe/{layout}values"], ps_["probe/v"], mask_)
            total = total + ad.sum_(ad.tanh(c) * u) + ad.sum_(alpha * weights[layout])
        return total

    return _compare(f, ps)



def check_grouped_attention(seed):
    """The two-node attention op with masked keys and values broadcast over
    groups of query rows: three sentences, two rows each."""
    rng = np.random.default_rng((seed, 53))
    n, g, m, d, d_v = 3, 2, 3, 3, 2
    ps = ParamStore()
    for name, shape in (("q", (n * g, d)), ("v", (d,)), ("keys", (n, m, d)),
                        ("values", (n, m, d_v))):
        _probe(ps, f"probe/{name}", rng.normal(0, 0.7, size=shape))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    u, w = rng.normal(size=d_v), rng.normal(size=m)

    def f(ps_):
        alpha, c = seq2seq.additive_attention(
            ps_["probe/q"], ps_["probe/keys"], ps_["probe/values"],
            ps_["probe/v"], mask)
        return ad.sum_(ad.tanh(c) * u) + ad.sum_(alpha * w)

    return _compare(f, ps)


CHECKS = {
    "attention": check_attention,
    "decoder_step": check_decoder_step,
    "decoder_step_extras": check_decoder_step_extras,
    "tri_score": check_tri_score,
    "localization_measure": check_localization_measure,
    "f_s": check_f_s,
    "hinge_loss": check_hinge_loss,
    "nll_loss": check_nll,
    "m_loss": check_m_loss,
    "joint_b_loss": check_joint_b_loss,
    "recurrent_cell": check_recurrent_cell,
    "encoder_recurrence": check_encoder_recurrence,
    "additive_attention": check_additive_attention,
    "tri_scores_batch": check_tri_scores_batch,
    "grouped_attention": check_grouped_attention,
}


def run_suite(seeds=range(5), checks=None):
    results = []
    for name in (checks or CHECKS):
        fn = CHECKS[name]
        for seed in seeds:
            t0 = time.perf_counter()
            err = fn(seed)
            results.append(CheckResult(name, seed, err, time.perf_counter() - t0))
    return results


def suite_report(results):
    """One line per check: its verdict over the seeds, the worst error, and
    the seconds summed over the seeds. The error is that of the oracle
    estimate that cleared each coordinate, usually the first step's, so it
    is not the margin a minimum over every step would show."""
    lines = []
    by_name = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    for name, rs in by_name.items():
        worst = max(r.max_rel_err for r in rs)
        status = "PASS" if all(r.passed for r in rs) else "FAIL"
        seconds = sum(r.seconds for r in rs)
        lines.append(f"{status}\t{name}\tseeds={len(rs)}\tmax_rel_err={worst:.3e}"
                     f"\tseconds={seconds:.2f}")
    return "\n".join(lines)
