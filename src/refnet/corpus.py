"""Vocabulary, parallel corpora, batching, and synthetic translation tasks.

Tokenization is whitespace splitting throughout; corpora are expected to
arrive pre-tokenized. File formats: one sentence per line, UTF-8, tokens
separated by single spaces; parallel files are aligned by line number.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")


class Vocab:
    """token <-> id map with fixed special ids PAD=0, BOS=1, EOS=2, UNK=3."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIALS) + [t for t in tokens if t not in SPECIALS]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]


def build_vocab(sentences, max_size, min_count=1) -> Vocab:
    """Keep the most frequent tokens (ties lexicographic) up to max_size total."""
    if max_size <= 4:
        raise ValueError("max_size must leave room beyond the 4 specials")
    counts = Counter()
    n = 0
    for sent in sentences:
        n += 1
        counts.update(sent)
    if n == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, c in ranked if c >= min_count][: max_size - 4]
    if not kept:
        raise ValueError(f"no token reaches min_count={min_count}")
    return Vocab(kept)


@dataclass
class ParallelCorpus:
    pairs: list  # [(src_tokens, tgt_tokens), ...]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def sources(self):
        return [src for src, _ in self.pairs]

    def targets(self):
        return [tgt for _, tgt in self.pairs]

    def save(self, src_path, tgt_path):
        with open(src_path, "w", encoding="utf-8") as fs, \
                open(tgt_path, "w", encoding="utf-8") as ft:
            for src, tgt in self.pairs:
                fs.write(" ".join(src) + "\n")
                ft.write(" ".join(tgt) + "\n")

    @classmethod
    def load(cls, src_path, tgt_path):
        src = read_sentences(src_path)
        tgt = read_sentences(tgt_path)
        if len(src) != len(tgt):
            raise ValueError(
                f"parallel files disagree: {len(src)} vs {len(tgt)} lines")
        for line, sent in enumerate(src, start=1):
            if not sent:  # a target may be empty; a source has to be encoded
                raise ValueError(f"{src_path}: line {line}: empty source sentence")
        return cls(list(zip(src, tgt)))


def read_sentences(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def write_sentences(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def filter_by_length(corpus: ParallelCorpus, max_len=50) -> ParallelCorpus:
    """Drop pairs where either side exceeds max_len tokens; keep order."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = [(s, t) for s, t in corpus.pairs
            if len(s) <= max_len and len(t) <= max_len]
    return ParallelCorpus(kept)


def generate_synthetic_task(kind, vocab_size, n_pairs, len_range, seed) -> ParallelCorpus:
    """Deterministic toy corpus over tokens t0..t{vocab_size-1}.

    kinds: ``copy`` (target = source), ``reverse`` (target reversed), and
    ``cipher-reverse`` (a seed-fixed token substitution, then reversed).
    """
    if vocab_size < 5:
        raise ValueError("vocab_size must be at least 5")
    if kind not in ("copy", "reverse", "cipher-reverse"):
        raise ValueError(f"unknown task kind {kind!r}")
    lo, hi = len_range
    if lo < 1:
        raise ValueError(f"the shortest length must be >= 1, got {lo}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(vocab_size)  # consumed even when unused, for stable streams
    pairs = []
    for _ in range(n_pairs):
        m = int(rng.integers(lo, hi + 1))
        src_ids = rng.integers(0, vocab_size, size=m)
        src = [f"t{i}" for i in src_ids]
        if kind == "copy":
            tgt = list(src)
        elif kind == "reverse":
            tgt = list(reversed(src))
        else:
            tgt = [f"t{perm[i]}" for i in reversed(src_ids)]
        pairs.append((src, tgt))
    return ParallelCorpus(pairs)


def cipher_permutation(vocab_size, seed):
    """The substitution table a cipher-reverse corpus with this seed used."""
    return np.random.default_rng(seed).permutation(vocab_size)


@dataclass
class Batch:
    src: np.ndarray       # (B, m_max) int ids, PAD past each length
    src_lens: np.ndarray  # (B,)
    tgt: np.ndarray       # (B, t_max) int ids, BOS ... EOS then PAD
    tgt_lens: np.ndarray  # (B,) including BOS and EOS

    def __len__(self):
        return self.src.shape[0]


def _pad_block(rows, pad=PAD):
    width = max(len(r) for r in rows)
    block = np.full((len(rows), width), pad, dtype=np.int64)
    for i, r in enumerate(rows):
        block[i, : len(r)] = r
    return block


def make_batches(corpus: ParallelCorpus, batch_size, vocab_src: Vocab,
                 vocab_tgt: Vocab, shuffle_seed=None):
    """Encode, wrap targets in BOS...EOS, pad, and chunk into batches.

    Every pair appears exactly once; order is deterministic given the seed
    (and is corpus order when the seed is None).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(corpus) == 0:
        raise ValueError("cannot batch an empty corpus")
    order = np.arange(len(corpus))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start: start + batch_size]
        src_rows = [vocab_src.encode(corpus[i][0]) for i in chunk]
        tgt_rows = [[BOS] + vocab_tgt.encode(corpus[i][1]) + [EOS] for i in chunk]
        batches.append(Batch(
            src=_pad_block(src_rows),
            src_lens=np.array([len(r) for r in src_rows], dtype=np.int64),
            tgt=_pad_block(tgt_rows),
            tgt_lens=np.array([len(r) for r in tgt_rows], dtype=np.int64),
        ))
    return batches
