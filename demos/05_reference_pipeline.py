#!/usr/bin/env python3
"""The whole staged protocol on a compact cipher-reverse task.

``run_pipeline`` pretrains a baseline, fits anchors to the pooled encoder
states, fine-tunes the monolingual variant and trains the bilingual variant
off the same baseline, each stage reading the saved file of the one before.
Then the demo compares test BLEU. Takes under a minute on CPU.

Run:  python3 demos/05_reference_pipeline.py
"""

import tempfile

from refnet.corpus import ParallelCorpus, build_vocab, generate_synthetic_task
from refnet.evaluation import bleu, param_report
from refnet.seq2seq import ModelDims
from refnet.training import TrainConfig, run_pipeline

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
    model = ckpt.make_model()
    outs = model.translate_batch([ckpt.vocab_src.encode(src) for src, _ in test],
                                 beam=4)
    hyps = [ckpt.vocab_tgt.decode(out) for out in outs]
    return bleu(hyps, [[tgt] for _, tgt in test]).score


configs = {
    "pretrain": TrainConfig(stage="pretrain", epochs=14, lr=2e-3, seed=3,
                            patience=50),
    "fit-anchors": TrainConfig(stage="fit-anchors", n_anchors=12,
                               fit_iters=500, seed=3),
    "finetune-m": TrainConfig(stage="finetune-m", epochs=4, lr=5e-4, seed=3,
                              patience=50),
    "train-b": TrainConfig(stage="train-b", epochs=6, seed=3, n_anchors=6,
                           d_a=12, lam=1.0, patience=50)}
print("=== pretrain, fit anchors, fine-tune M-RefNet, train B-RefNet ===")
ckpts, seconds = run_pipeline(tempfile.mkdtemp(prefix="refnet_demo_"), train,
                              dev, configs, vocab_src, vocab_tgt, dims)
print(f"stage seconds: { {k: round(v, 1) for k, v in seconds.items()} }")

print(f"\nbaseline test BLEU: {test_bleu(ckpts['pretrain']):.2f}")
print(f"anchor fit: {ckpts['fit-anchors'].history[0]}")
m_ckpt, b_ckpt = ckpts["finetune-m"], ckpts["train-b"]
print(f"monolingual test BLEU: {test_bleu(m_ckpt):.2f} "
      f"(provenance: {' -> '.join(m_ckpt.stages)})")
print(f"bilingual test BLEU: {test_bleu(b_ckpt):.2f} "
      f"(provenance: {' -> '.join(b_ckpt.stages)})")
nll = [r["train_loss"] for r in b_ckpt.history]
l_m = [r["train_l_m"] for r in b_ckpt.history]
print(f"train-b NLL per epoch:   {[round(v, 4) for v in nll]}")
print(f"train-b hinge per epoch: {[round(v, 3) for v in l_m]}")

print("\n=== parameter budget ===")
print(param_report(b_ckpt.params).pretty())
