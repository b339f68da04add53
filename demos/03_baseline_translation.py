#!/usr/bin/env python3
"""Train the baseline attention model on a small reverse task and decode.

Takes about a minute on a laptop CPU.

Run:  python3 demos/03_baseline_translation.py
"""

from refnet.corpus import ParallelCorpus, build_vocab, generate_synthetic_task
from refnet.evaluation import bleu
from refnet.seq2seq import ModelDims
from refnet.training import TrainConfig, pretrain

full = generate_synthetic_task("reverse", vocab_size=30, n_pairs=900,
                               len_range=(3, 9), seed=11)
train = ParallelCorpus(full.pairs[:800])
dev = ParallelCorpus(full.pairs[800:850])
test = ParallelCorpus(full.pairs[850:])
vocab_src = build_vocab(train.sources(), 100)
vocab_tgt = build_vocab(train.targets(), 100)

dims = ModelDims(vocab_src=len(vocab_src), vocab_tgt=len(vocab_tgt),
                 d_e=24, d_h=48)
config = TrainConfig(stage="pretrain", epochs=10, batch_size=32, lr=2e-3,
                     seed=1, patience=50)
print("epoch\tstage\ttrain\tdev\tseconds")
ckpt = pretrain(train, dev, vocab_src, vocab_tgt, dims, config)

model = ckpt.make_model(drop_emb=0.0, drop_out=0.0)
print("\n=== greedy vs beam on a few test sentences ===")
for src, tgt in test.pairs[:5]:
    ids = vocab_src.encode(src)
    greedy = " ".join(vocab_tgt.decode(model.translate(ids, beam=1)))
    beam = " ".join(vocab_tgt.decode(model.translate(ids, beam=4)))
    print(f"src    : {' '.join(src)}")
    print(f"gold   : {' '.join(tgt)}")
    print(f"greedy : {greedy}")
    print(f"beam-4 : {beam}\n")

# the whole test set in one batched search: one encoder pass, one model
# step per beam step for every sentence at once
outs = model.translate_batch([vocab_src.encode(src) for src, _ in test], beam=4)
hyps = [vocab_tgt.decode(out) for out in outs]
refs = [[tgt] for _, tgt in test]
print("test-set score:", bleu(hyps, refs).pretty())
