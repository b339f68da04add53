"""Vocabulary, parallel corpora, batching, and synthetic translation tasks.

Tokenization is whitespace splitting throughout; corpora are expected to
arrive pre-tokenized. File formats: one sentence per line, UTF-8, tokens
separated by single spaces; parallel files are aligned by line number.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

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

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]


def build_vocab(sentences, max_size, min_count=1) -> Vocab:
    """Keep the most frequent tokens (ties lexicographic) up to max_size total.

    ``sentences`` is a list of token lists."""
    if max_size <= 4:
        raise ValueError("max_size must leave room beyond the 4 specials")
    if not sentences:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter(chain.from_iterable(sentences))
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
    """The whitespace-split lines of a file; one that is not UTF-8 raises a
    ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.split() for line in fh.read().splitlines()]
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read {path}: {e}") from e


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


DRAW_BLOCK = 2**15  # 32-bit draws read from the generator at a time


def _accepted(u, span):
    """numpy's bounded integer draws in ``[0, span)`` from the 32-bit values
    ``u`` (``next_uint32`` outputs).

    This is Lemire's multiply-shift, numpy's
    ``buffered_bounded_lemire_uint32``: the draw every ``Generator.integers``
    call with a span below 2**32 makes. A value ``u`` gives
    ``(u * span) >> 32`` unless ``(u * span) mod 2**32`` falls below
    ``2**32 mod span``; then it is rejected, and the next value is drawn in
    its place. Returns a list of the accepted draws, their positions
    in ``u``, and for each position 0..len(u) the number of accepted draws
    before it. The last two are memoryviews, which index to Python ints
    without holding one object per position.
    """
    m = np.asarray(u, dtype=np.uint64) * np.uint64(span)
    ok = (m & np.uint64(2**32 - 1)) >= np.uint64(2**32 % span)
    at = np.flatnonzero(ok)
    before = np.concatenate(([0], np.cumsum(ok)))
    return (m[at] >> np.uint64(32)).tolist(), memoryview(at), memoryview(before)


def generate_synthetic_task(kind, vocab_size, n_pairs, len_range, seed) -> ParallelCorpus:
    """Deterministic toy corpus over tokens t0..t{vocab_size-1}.

    kinds: ``copy`` (target = source), ``reverse`` (target reversed), and
    ``cipher-reverse`` (a seed-fixed token substitution, then reversed).

    Draw contract: from ``np.random.default_rng(seed)``, first
    ``permutation(vocab_size)`` (the cipher, drawn for every kind), then per
    pair one length ``integers(lo, hi + 1)`` (none when ``lo == hi``) and its
    ``m`` token ids ``integers(0, vocab_size, size=m)``. Those draws are read
    here in bulk, as the 32-bit values they consume, and decoded as numpy
    decodes them (``_accepted``), so the corpus is the one those calls give.
    Both spans must be below 2**32.
    """
    if vocab_size < 5:
        raise ValueError("vocab_size must be at least 5")
    if kind not in ("copy", "reverse", "cipher-reverse"):
        raise ValueError(f"unknown task kind {kind!r}")
    lo, hi = len_range
    if lo < 1:
        raise ValueError(f"the shortest length must be >= 1, got {lo}")
    if hi < lo:
        raise ValueError(f"the longest length {hi} is below the shortest {lo}")
    if vocab_size >= 2**32:
        raise ValueError(f"vocab_size must be below 2**32, got {vocab_size}")
    len_span = hi - lo + 1
    if len_span >= 2**32:
        raise ValueError(f"the lengths {lo}..{hi} span 2**32 or more values")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(vocab_size)  # consumed even when unused, for stable streams
    ids = []  # each pair's source token ids
    raw = np.empty(0, dtype=np.uint64)  # drawn, not yet consumed
    while len(ids) < n_pairs:
        raw = np.concatenate(
            (raw, rng.integers(0, 2**32, size=DRAW_BLOCK, dtype=np.uint32)))
        tok_ids, tok_at, tok_before = _accepted(raw, vocab_size)
        n_tok = len(tok_ids)
        if len_span > 1:
            lengths, len_at, len_before = _accepted(raw, len_span)
            n_len = len(lengths)
        p = 0  # the first unconsumed draw
        while len(ids) < n_pairs:
            q, m = p, lo  # where the pair's tokens start, and how many
            if len_span > 1:
                k = len_before[p]
                if k == n_len:
                    break
                q, m = len_at[k] + 1, lo + lengths[k]
            r = tok_before[q]
            if r + m > n_tok:
                break
            ids.append(tok_ids[r:r + m])
            p = tok_at[r + m - 1] + 1
        raw = raw[p:]
    used = list(set(chain.from_iterable(ids)))
    name = {i: f"t{i}" for i in used}  # one string per token
    if kind == "cipher-reverse":
        images = perm[used].tolist()
        cipher = {i: name.get(j) or f"t{j}" for i, j in zip(used, images)}
    pairs = []
    for src_ids in ids:
        src = list(map(name.__getitem__, src_ids))
        if kind == "copy":
            tgt = list(src)
        elif kind == "reverse":
            tgt = src[::-1]
        else:
            tgt = list(map(cipher.__getitem__, reversed(src_ids)))
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
        ))
    return batches
