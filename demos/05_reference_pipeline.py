#!/usr/bin/env python3
"""The whole staged protocol on a compact cipher-reverse task.

Pretrain a baseline, fit anchors to the pooled encoder states, fine-tune
the monolingual variant, train the bilingual variant off the same baseline,
and compare test BLEU. Takes a few minutes on CPU.

Run:  python3 demos/05_reference_pipeline.py
"""

import tempfile
from pathlib import Path

from refnet.corpus import ParallelCorpus, build_vocab, generate_synthetic_task
from refnet.evaluation import bleu, param_report
from refnet.seq2seq import ModelDims
from refnet.training import Checkpoint, TrainConfig, run_stage

full = generate_synthetic_task("cipher-reverse", vocab_size=40, n_pairs=1200,
                               len_range=(3, 10), seed=21)
train = ParallelCorpus(full.pairs[:1000])
dev = ParallelCorpus(full.pairs[1000:1100])
test = ParallelCorpus(full.pairs[1100:])
vocab_src = build_vocab(train.sources(), 100)
vocab_tgt = build_vocab(train.targets(), 100)
dims = ModelDims(vocab_src=len(vocab_src), vocab_tgt=len(vocab_tgt),
                 d_e=24, d_h=48)


def test_bleu(ckpt):
    model = ckpt.make_model(drop_emb=0.0, drop_out=0.0)
    outs = model.translate_batch([ckpt.vocab_src.encode(src) for src, _ in test],
                                 beam=4)
    hyps = [ckpt.vocab_tgt.decode(out) for out in outs]
    return bleu(hyps, [[tgt] for _, tgt in test]).score


workdir = Path(tempfile.mkdtemp(prefix="refnet_demo_"))
base_path = workdir / "base.ckpt"

print("=== stage 1: pretrain the baseline ===")
base = run_stage("pretrain", None, train, dev,
                 TrainConfig(stage="pretrain", epochs=14, lr=2e-3, seed=3,
                             patience=50),
                 vocab_src=vocab_src, vocab_tgt=vocab_tgt, dims=dims)
base.save(base_path)
base_score = test_bleu(base)
print(f"baseline test BLEU: {base_score:.2f}")

print("\n=== stage 2a: fit anchors over pooled encoder states ===")
m_branch = run_stage("fit-anchors", Checkpoint.load(base_path), train, None,
                     TrainConfig(stage="fit-anchors", n_anchors=12,
                                 fit_iters=500, seed=3))
print(f"anchor fit: {m_branch.history[0]}")

print("\n=== stage 2b: fine-tune decoder + monolingual parameters ===")
m_ckpt = run_stage("finetune-m", m_branch, train, dev,
                   TrainConfig(stage="finetune-m", epochs=4, lr=5e-4, seed=3,
                               patience=50))
print(f"monolingual test BLEU: {test_bleu(m_ckpt):.2f} "
      f"(provenance: {' -> '.join(m_ckpt.stages)})")

print("\n=== stage 3: train the bilingual variant off the same baseline ===")
b_ckpt = run_stage("train-b", Checkpoint.load(base_path), train, dev,
                   TrainConfig(stage="train-b", epochs=6, seed=3, n_anchors=6,
                               d_a=12, lam=1.0, patience=50))
print(f"bilingual test BLEU: {test_bleu(b_ckpt):.2f} "
      f"(provenance: {' -> '.join(b_ckpt.stages)})")
nll = [r["train_loss"] for r in b_ckpt.history]
l_m = [r["train_l_m"] for r in b_ckpt.history]
print(f"train-b NLL per epoch:   {[round(v, 4) for v in nll]}")
print(f"train-b hinge per epoch: {[round(v, 3) for v in l_m]}")

print("\n=== parameter budget ===")
print(param_report(b_ckpt.params).pretty())
