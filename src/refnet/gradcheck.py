"""Complex-step validation of the gradients training and anchor fitting use.

Each check builds a tiny instance of one computation: one of the fused
nodes those paths record (the encoder and decoder recurrences, the
tri-nonlinear scores, the anchor distances), run through the kernels a
variant feeds it, or a whole training objective. It evaluates the
analytic gradients via the tape, evaluates the complex-step oracle
``finite_diff_grad`` once, and reports the worst element-wise relative
error |a - b| / max(|a|, |b|, 1e-8). Probe inputs (the non-parameter
arguments whose gradients are also part of the contract) are registered
as parameters so the oracle covers them too. The oracle perturbs only the
parameters the tape recorded; each other trainable parameter gets one
directional probe by the same complex step, which must leave the
objective real. Two checks, ``finetune_m`` and ``train_b``, run a stage's
objective as the stage does: its ``STAGE_FREEZES`` frozen, dropout on.

The oracle is exact to machine precision, so ``TOL`` sits at 1e-8, 300
times above the worst error the suite reads at seeds 0-19 (3.3e-11):
a backward term wrong by 1e-6 relative fails its check. Every objective
must be holomorphic in the perturbed values (see ``finite_diff_grad``)
and deterministic. A sweep is split over the usable CPUs, by forked
workers, when it gives each of two or more of them at least
``params.MIN_COORDS_PER_WORKER`` coordinates; the estimates, and so every
``max_rel_err``, are bit-identical to a sweep in one process, and what an
objective does to state outside the store inside a worker is lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import brefnet, mrefnet, seq2seq
from .autodiff import Tensor
from .corpus import BOS, EOS, PAD, Batch
from .lcc import mean_localization_measure, tri_scores
from .model import TranslationModel, variant_extras
from .params import (ParamStore, backward, complex_step, finite_diff_grad,
                     imag_part, relative_error)
from .training import STAGE_FREEZES

TOL = 1e-8
# The oracle's step, passed on every call: Im f(p + ih) / h is exact to
# machine precision once h^2 is below it, and no subtraction loses bits.
STEP = 1e-20
# the shapes of every check of the decoder or of a whole model
_TINY = seq2seq.ModelDims(vocab_src=6, vocab_tgt=6, d_e=3, d_h=4, d_att=4, d_out=3)
_RAGGED = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])  # lengths 3 and 1
# the tri-nonlinear score's weights, in ``tri_scores``'s order
_SCORE_NET = tuple(f"anchors/score/{k}" for k in "WUVv")


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_err: float
    seconds: float = 0.0

    @property
    def passed(self):
        return self.max_rel_err <= TOL


def _compare(f, ps):
    """The worst relative error of the analytic gradients of ``f``.

    One oracle sweep covers the parameters the tape recorded; every other
    trainable parameter is marked requires_grad=False for it, then restored.
    Each of those gets one directional probe, whose analytic value is zero,
    so a dependency the tape dropped fails the check. A non-finite probe
    reads NaN, which fails the check too.
    """
    analytic = backward(f(ps), ps)
    unrecorded = [n for n in ps.trainable_names() if n not in analytic]
    for name in unrecorded:
        ps[name].requires_grad = False
    try:
        oracle = finite_diff_grad(f, ps, step=STEP)
    finally:
        for name in unrecorded:
            ps[name].requires_grad = True
    errs = [relative_error(analytic[k], oracle[k]) for k in analytic]
    rng = np.random.default_rng(0)
    for name in unrecorded:
        u = rng.normal(size=ps[name].shape)
        with complex_step(ps, [name]):
            ps[name].data.imag = u * (STEP / np.linalg.norm(u))
            errs.append(relative_error(0.0, imag_part(f(ps)) / STEP))
    return float(np.max(errs))


def _probe(ps, name, data):
    return ps.add(name, data, "m_ref")  # group label is irrelevant for probes


def _store(rng, kind, dims=_TINY):
    """``kind``'s store at ``dims``: the baseline, plus m_ref's group and 3
    anchors or b_ref's group (3 anchors, d_a 4). The kind's extra
    projection, zero at initialization, is drawn from N(0, 0.3), so that
    its extra input reaches the objective."""
    ps = seq2seq.init_baseline_params(dims, rng)
    if kind == "m_ref":
        mrefnet.init_m_params(ps, dims, rng)
        ps.add(mrefnet.ANCHOR_KEY, rng.normal(size=(3, 2 * dims.d_h)), "anchors")
        proj = ps["mref/proj"]
    elif kind == "b_ref":
        brefnet.init_b_params(ps, dims, 3, 4, rng)
        proj = ps["bref/proj"]
    else:
        return ps
    proj.data[...] = rng.normal(0, 0.3, size=proj.shape)
    return ps


def _one_step(seed, salt, kind, mask, checked=None):
    """One step of the decoder node with ``kind``'s extra input over a
    constant memory of two sources (padding: mask), as a function of a
    store. The store holds the ``checked`` parameters of ``kind``'s store
    (None: all of them) and probes the previous embedding and state; the
    other parameters are constants, so no probe of the oracle is spent on
    them. Returns the generator for further draws, the store and the step."""
    rng = np.random.default_rng((seed, salt))
    full, ps = _store(rng, kind), ParamStore()
    for name in checked or full.names():
        ps.add(name, full[name].data, full.group_of(name))
    const = {n: Tensor(t.data) for n, t in full.items() if n not in ps}
    h = rng.normal(size=(2, 3, 2 * _TINY.d_h))
    h, h_proj = Tensor(h), Tensor(h @ full["dec/att/U"].data)
    _probe(ps, "probe/emb", rng.normal(size=(2, 2, _TINY.d_e)))
    _probe(ps, "probe/s_prev", rng.normal(size=(2, _TINY.d_h)))

    def step(ps_):
        params = {**const, **dict(ps_.items())}
        return seq2seq.decoder_recurrence(params, ps_["probe/s_prev"],
                                          ps_["probe/emb"], h, h_proj, mask,
                                          variant_extras(kind, params))

    return rng, ps, step


def _read_out(rng, ps, step):
    """``_compare`` of sum(tanh(out) * u) over the step's output rows."""
    u = rng.normal(size=step(ps).shape[1])
    return _compare(lambda ps_: ad.sum_(ad.tanh(step(ps_)) * u), ps)


def _loss_check(seed, salt, kind, ragged=False, stage=None, **model_kw):
    """``_compare`` of ``kind``'s training objective over its store, on a
    toy batch of two pairs: sources of length 3 (3 and 2 when ragged), and
    four target words between BOS and EOS. A ``stage``'s groups are frozen and
    dropout is on, from an rng reseeded on every evaluation: dropout is
    linear in its input, so the objective stays holomorphic."""
    rng = np.random.default_rng((seed, salt))
    ps = _store(rng, kind)
    lens = np.array([3, 2 if ragged else 3])
    src = rng.integers(4, _TINY.vocab_src, size=(2, 3))
    src[np.arange(3) >= lens[:, None]] = PAD
    words = rng.integers(4, _TINY.vocab_tgt, size=(2, 4))
    tgt = np.concatenate([np.full((2, 1), BOS), words, np.full((2, 1), EOS)], axis=1)
    batch = Batch(src=src, src_lens=lens, tgt=tgt)
    if stage:
        ps.freeze(*STAGE_FREEZES[stage])
        model_kw.update(drop_emb=0.2, drop_out=0.3)
    model = TranslationModel(ps, _TINY, kind, **model_kw)
    return _compare(lambda ps_: model.loss(  # rng None without a stage
        batch, bool(stage), stage and np.random.default_rng((seed, salt))).joint, ps)


def _score_net(rng, d_v, d_att=3):
    """A store of the tri-nonlinear score's weights (``_SCORE_NET``)."""
    ps = ParamStore()
    for name in _SCORE_NET[:3]:
        ps.add(name, rng.normal(0, 0.5, size=(d_att, d_v)), "anchors")
    ps.add(_SCORE_NET[3], rng.normal(size=d_att), "anchors")
    return ps


def _scores_check(seed, salt, N, C, constant_inputs=False):
    """``_compare`` of a weighted sum of the scores of N inputs against C
    anchors; the anchors are probed, and the inputs unless constant."""
    rng = np.random.default_rng((seed, salt))
    ps = _score_net(rng, 4)
    x = rng.normal(size=(N, 4))
    x = x if constant_inputs else _probe(ps, "probe/x", x)
    _probe(ps, "probe/anchors", rng.normal(size=(C, 4)))
    w = rng.normal(size=(N, C))

    def f(ps_):
        scores = tri_scores(x, ps_["probe/anchors"], *(ps_[k] for k in _SCORE_NET))
        return ad.sum_(scores * w)

    return _compare(f, ps)


def check_attention(seed):
    """The decoder's query projection and masked additive attention, through
    one step of the decoder node over ragged sources (lengths 3 and 2): the
    objective reads the context; the cell's weights are constants."""
    rng = np.random.default_rng((seed, 11))
    d_e, d_h = _TINY.d_e, _TINY.d_h
    ps = _store(rng, "baseline")
    h = Tensor(rng.normal(size=(2, 3, 2 * d_h)))
    u = np.concatenate([np.zeros(d_e + d_h), rng.normal(size=2 * d_h)])
    emb = Tensor(rng.normal(size=(2, 2, d_e)))
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    _probe(ps, "probe/s_prev", rng.normal(size=(2, d_h)))
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
    return _read_out(*_one_step(seed, 13, "baseline", None))


def check_decoder_step_extras(seed):
    """One step of the decoder node with m_ref's extra input: the anchor
    attention's context fed through a non-zero projection, over a constant
    memory of ragged sources; the anchors, the previous embedding and state
    probed."""
    return _read_out(*_one_step(seed, 17, "m_ref", _RAGGED))


def check_tri_score(seed):
    """The tri-nonlinear compatibility score of one input and one anchor."""
    return _scores_check(seed, 19, 1, 1)


def check_tri_scores_batch(seed):
    """The score of several constant inputs against several anchors, as the
    anchor fit reads it: the kernel's sums over rows and anchors."""
    return _scores_check(seed, 53, 3, 4, constant_inputs=True)


def check_localization_measure(seed):
    """The anchor-fitting objective, including the unsquared first term."""
    rng = np.random.default_rng((seed, 23))
    ps = _score_net(rng, 3)
    ps.add("anchors/points", rng.normal(size=(3, 3)), "anchors")
    _probe(ps, "probe/x", rng.normal(size=(4, 3)))

    def f(ps_):
        return mean_localization_measure(ps_["probe/x"], ps_["anchors/points"],
                                         tuple(ps_[k] for k in _SCORE_NET), 1.0, 0.01)

    return _compare(f, ps)


def check_f_s(seed):
    """The anchor-coded regression onto the embedding space, b_ref's extra
    input on [e_prev; s_prev; c], through one step of the decoder node: the
    store holds f_s's weights (``F_S_PARAMS``), and the objective reads the
    estimate and the state it feeds."""
    return _read_out(*_one_step(seed, 29, "b_ref", None, brefnet.F_S_PARAMS))


def check_hinge_loss(seed):
    """Regression residual plus the per-anchor weight-norm penalty: f_s's
    estimates read from one step of the decoder node over ragged sources."""
    rng, ps, step = _one_step(seed, 31, "b_ref", _RAGGED, brefnet.F_S_PARAMS)
    _probe(ps, "probe/target", rng.normal(size=(2, _TINY.d_e)))

    def f(ps_):  # f_s's estimates are the last d_e columns
        residual = ad.sum_(ad.square(ps_["probe/target"] - step(ps_)[:, -_TINY.d_e:]))
        return residual + 0.5 * ad.sum_(brefnet.regression_weight_norms(ps_))

    return _compare(f, ps)


def check_nll(seed):
    """Teacher-forced likelihood through the whole baseline graph."""
    return _loss_check(seed, 37, "baseline")


def check_m_loss(seed):
    """The finetune-m objective, m_ref's teacher-forced likelihood, with a
    non-zero extra projection over ragged sources."""
    return _loss_check(seed, 61, "m_ref", ragged=True)


def check_joint_b_loss(seed):
    """The full bilingual objective: NLL plus weighted hinge loss."""
    return _loss_check(seed, 41, "b_ref", lam=1.0, lam_m=1e-2)


def check_finetune_m(seed):
    """``m_loss`` as finetune-m runs it: encoder and anchors frozen."""
    return _loss_check(seed, 67, "m_ref", ragged=True, stage="finetune-m")


def check_train_b(seed):
    """``joint_b_loss`` as train-b runs it: b_ref's network alone trained."""
    return _loss_check(seed, 71, "b_ref", stage="train-b", lam=1.0, lam_m=1e-2)


def check_encoder_recurrence(seed):
    """The one-node bidirectional encoder over ragged sources (lengths 3, 2
    and 1), so that padding reaches both directions: the embedding table
    and both directions' W, U and b."""
    rng = np.random.default_rng((seed, 59))
    schema = [e for e in seq2seq.baseline_schema(_TINY) if e[0].startswith("enc/")]
    ps = seq2seq.add_params(ParamStore(), schema, rng)
    lens = np.array([3, 2, 1])
    src = np.where(np.arange(3)[None, :] < lens[:, None],
                   rng.integers(3, _TINY.vocab_src, size=(3, 3)), 0)
    u = rng.normal(size=(3, 3, 2 * _TINY.d_h))

    def f(ps_):
        h, _ = seq2seq.encode_batch(ps_, _TINY, src, lens)
        return ad.sum_(ad.tanh(h) * u)

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
    "encoder_recurrence": check_encoder_recurrence,
    "tri_scores_batch": check_tri_scores_batch,
    "finetune_m": check_finetune_m,
    "train_b": check_train_b,
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
    the seconds summed over the seeds."""
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
