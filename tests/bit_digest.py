"""One SHA-256 over the bits a refactor must keep.

    PYTHONPATH=src python tests/bit_digest.py [--toy]

It hashes, in order:

* a 6-epoch copy-task pretrain at d_h 32: every group digest and the
  history rows;
* the four stages through ``run_stage`` on 64 pairs of the acceptance
  corpus (cipher-reverse, vocabulary 50, seed 77): every group digest and
  the history rows of each;
* greedy and beam decodes at beams 1, 4 and 10 for the baseline, m_ref and
  b_ref checkpoints of those stages;
* the gradient suite's ``max_rel_err`` of every check at seeds 0 and 1.

History rows are hashed without their wall-clock ``seconds``. Run it once
with one tree's ``src`` on ``PYTHONPATH`` and once with another's: equal
digests mean the same-seed parameters, histories, decodes and gradient
errors. ``--toy`` runs the same sequence at a few seconds' size, for the
smoke test. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from refnet import gradcheck
from refnet.corpus import ParallelCorpus, build_vocab, generate_synthetic_task
from refnet.seq2seq import ModelDims
from refnet.training import TrainConfig, run_stage

SIZES = {  # copy-task pairs, epochs; acceptance pairs, d_h, epochs, fit iters;
           # decoded sentences; gradient seeds
    "full": dict(copy_pairs=500, copy_epochs=6, pairs=64, d_h=64, epochs=2,
                 fit_iters=60, decoded=16, grad_seeds=range(2)),
    "toy": dict(copy_pairs=64, copy_epochs=2, pairs=24, d_h=8, epochs=1,
                fit_iters=5, decoded=4, grad_seeds=range(1)),
}


def _ckpt_record(ckpt):
    return {"groups": {g: ckpt.params.group_digest(g)
                       for g in ckpt.params.groups_present()},
            "history": [{k: v for k, v in row.items() if k != "seconds"}
                        for row in ckpt.history]}


def _copy_task(size):
    full = generate_synthetic_task("copy", 20, size["copy_pairs"] + 50, (3, 8),
                                   seed=13)
    train = ParallelCorpus(full.pairs[:size["copy_pairs"]])
    dev = ParallelCorpus(full.pairs[size["copy_pairs"]:])
    vs, vt = build_vocab(train.sources(), 100), build_vocab(train.targets(), 100)
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=16, d_h=32)
    config = TrainConfig(stage="pretrain", epochs=size["copy_epochs"],
                         batch_size=32, seed=5, patience=50)
    return _ckpt_record(run_stage("pretrain", None, train, dev, config, vs, vt,
                                  dims))


def _stages(size):
    """The four stages on the acceptance corpus, then decodes of every kind."""
    full = generate_synthetic_task("cipher-reverse", 50, 2400, (3, 12), seed=77)
    n = size["pairs"]
    train = ParallelCorpus(full.pairs[:n])
    dev = ParallelCorpus(full.pairs[2000:2000 + n // 2])
    test = full.pairs[2200:2200 + size["decoded"]]
    vs, vt = build_vocab(train.sources(), 200), build_vocab(train.targets(), 200)
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=size["d_h"] // 2,
                     d_h=size["d_h"])
    tune = dict(epochs=size["epochs"], batch_size=16, seed=77, patience=50)
    base = run_stage("pretrain", None, train, dev,
                     TrainConfig(stage="pretrain", **tune), vs, vt, dims)
    anchored = run_stage("fit-anchors", base, train, None, TrainConfig(
        stage="fit-anchors", n_anchors=8, fit_iters=size["fit_iters"],
        fit_batch=32, seed=77))
    m_ref = run_stage("finetune-m", anchored, train, dev,
                      TrainConfig(stage="finetune-m", **tune))
    b_ref = run_stage("train-b", base, train, dev, TrainConfig(
        stage="train-b", n_anchors=4, d_a=8, **tune))
    ckpts = {"baseline": base, "fit-anchors": anchored, "m_ref": m_ref,
             "b_ref": b_ref}
    record = {name: _ckpt_record(ckpt) for name, ckpt in ckpts.items()}
    sources = [vs.encode(src) for src, _ in test]
    record["decodes"] = {
        f"{kind}/beam{beam}": [[int(i) for i in out] for out in
                               ckpts[kind].make_model().translate_batch(
                                   sources, beam=beam)]
        for kind in ("baseline", "m_ref", "b_ref") for beam in (1, 4, 10)}
    return record


def _gradients(size):
    return [[r.name, r.seed, repr(r.max_rel_err)]
            for r in gradcheck.run_suite(seeds=size["grad_seeds"])]


def digest(scale="full"):
    """The hex SHA-256 of every record above at ``scale`` ("full" or "toy")."""
    size = SIZES[scale]
    with contextlib.redirect_stdout(io.StringIO()):  # the per-epoch log lines
        record = {"copy": _copy_task(size), "stages": _stages(size),
                  "gradients": _gradients(size)}
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


if __name__ == "__main__":
    print(digest("toy" if "--toy" in sys.argv[1:] else "full"))
