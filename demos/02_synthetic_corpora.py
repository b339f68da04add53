#!/usr/bin/env python3
"""Synthetic translation tasks, vocabularies, and batching.

Run:  python3 demos/02_synthetic_corpora.py
"""

from refnet.corpus import (PAD, build_vocab, cipher_permutation, filter_by_length,
                           generate_synthetic_task, make_batches)

print("=== the three toy tasks ===")
for kind in ("copy", "reverse", "cipher-reverse"):
    corpus = generate_synthetic_task(kind, vocab_size=10, n_pairs=3,
                                     len_range=(4, 6), seed=7)
    src, tgt = corpus[0]
    print(f"{kind:15s} {' '.join(src):28s} -> {' '.join(tgt)}")

perm = cipher_permutation(10, seed=7)
print(f"\nthe cipher substitution table for seed 7: "
      f"{ {f't{i}': f't{p}' for i, p in enumerate(perm[:5])} } ...")

print("\n=== vocabulary with fixed special ids ===")
corpus = generate_synthetic_task("cipher-reverse", 30, 500, (3, 10), seed=1)
vocab_src = build_vocab(corpus.sources(), max_size=100)
vocab_tgt = build_vocab(corpus.targets(), max_size=100)
print(f"source vocab size {len(vocab_src)} "
      f"(4 specials + {len(vocab_src) - 4} tokens)")
print(f"'t3 t99' encodes to {vocab_src.encode(['t3', 't99'])} "
      f"(unknown token -> id 3)")

print("\n=== length filtering ===")
short = filter_by_length(corpus, max_len=5)
print(f"{len(corpus)} pairs, {len(short)} survive a max length of 5")

print("\n=== padded batches ===")
batches = make_batches(corpus, batch_size=64, vocab_src=vocab_src,
                       vocab_tgt=vocab_tgt, shuffle_seed=3)
print(f"{len(batches)} batches; sizes {[len(b) for b in batches]}")
b = batches[0]
print(f"first batch: src {b.src.shape}, tgt {b.tgt.shape} "
      f"(targets wrapped in BOS ... EOS)")
print(f"row 0 target ids: {b.tgt[0][b.tgt[0] != PAD].tolist()}")
