import json
import struct

import numpy as np
import pytest

from refnet.corpus import ParallelCorpus, build_vocab, generate_synthetic_task
from refnet.seq2seq import ModelDims, init_baseline_params


@pytest.fixture
def tiny_dims():
    return ModelDims(vocab_src=7, vocab_tgt=7, d_e=3, d_h=4)


@pytest.fixture
def tiny_params(tiny_dims):
    return init_baseline_params(tiny_dims, np.random.default_rng(0))


@pytest.fixture(scope="session")
def toy_split():
    """One small cipher-reverse corpus split so all sides share the cipher."""
    full = generate_synthetic_task("cipher-reverse", 20, 160, (3, 8), seed=9)
    return (ParallelCorpus(full.pairs[:120]),
            ParallelCorpus(full.pairs[120:140]),
            ParallelCorpus(full.pairs[140:]))


@pytest.fixture(scope="session")
def toy_vocabs(toy_split):
    train, _, _ = toy_split
    return (build_vocab(train.sources(), 100),
            build_vocab(train.targets(), 100))


@pytest.fixture
def rewrite_header():
    """Copy a checkpoint file with ``mutate(header, payload)`` applied to its
    parsed JSON header and its payload (a bytearray), both edited in place."""
    def rewrite(src, dst, mutate):
        blob = src.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        payload = bytearray(blob[16 + hlen:])
        mutate(header, payload)
        raw = json.dumps(header).encode("utf-8")
        dst.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + payload)
        return dst
    return rewrite
