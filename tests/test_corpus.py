import numpy as np
import pytest

from refnet import corpus
from refnet.corpus import (BOS, DRAW_BLOCK, EOS, PAD, UNK, ParallelCorpus,
                           _accepted, build_vocab, cipher_permutation,
                           filter_by_length, generate_synthetic_task,
                           make_batches, read_sentences)
from reference import reference_synthetic_task


class TestVocab:
    def test_specials_and_contents(self):
        vocab = build_vocab([["a", "a", "b"]], max_size=10)
        assert len(vocab) == 6
        assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
        assert vocab.token_to_id["<pad>"] == PAD
        assert vocab.token_to_id["<bos>"] == BOS
        assert vocab.token_to_id["<eos>"] == EOS
        assert vocab.token_to_id["<unk>"] == UNK

    def test_frequency_cutoff(self):
        vocab = build_vocab([["a", "b"], ["b", "c"]], max_size=5)
        ids = vocab.token_to_id
        assert "b" in ids and "a" not in ids and "c" not in ids

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab([["zz", "aa"]], max_size=5)
        assert "aa" in vocab.token_to_id and "zz" not in vocab.token_to_id

    def test_min_count(self):
        vocab = build_vocab([["a", "a", "b"]], max_size=10, min_count=2)
        assert "a" in vocab.token_to_id and "b" not in vocab.token_to_id

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab([["a"]], max_size=10)
        assert vocab.encode(["a", "z"]) == [vocab.token_to_id["a"], UNK]

    def test_roundtrip_for_known_tokens(self):
        vocab = build_vocab([["c", "a", "b"]], max_size=10)
        tokens = ["a", "b", "c", "a"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_min_count_above_every_token_rejected(self):
        with pytest.raises(ValueError, match="min_count"):
            build_vocab([["a", "a", "b"]], max_size=10, min_count=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([], max_size=10)

    def test_max_size_must_exceed_specials(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], max_size=4)


class TestFilterByLength:
    def test_long_source_removed(self):
        corpus = ParallelCorpus([(["w"] * 51, ["x"]), (["y"], ["z"])])
        assert len(filter_by_length(corpus, 50)) == 1

    def test_all_short_unchanged(self):
        corpus = ParallelCorpus([(["a"], ["b"]), (["c", "d"], ["e"])])
        assert filter_by_length(corpus, 50).pairs == corpus.pairs

    def test_order_preserved(self):
        corpus = ParallelCorpus([(["a"] * 10, ["x"]), (["b"] * 60, ["y"]),
                                 (["c"] * 20, ["z"])])
        out = filter_by_length(corpus, 50)
        assert [p[0][0] for p in out] == ["a", "c"]

    def test_long_target_also_removed(self):
        corpus = ParallelCorpus([(["a"], ["b"] * 51)])
        assert len(filter_by_length(corpus, 50)) == 0

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            filter_by_length(ParallelCorpus([]), 0)


class TestSyntheticTasks:
    def test_copy(self):
        corpus = generate_synthetic_task("copy", 10, 5, (3, 6), seed=1)
        for src, tgt in corpus:
            assert tgt == src

    def test_reverse(self):
        corpus = generate_synthetic_task("reverse", 10, 5, (3, 6), seed=1)
        for src, tgt in corpus:
            assert tgt == list(reversed(src))

    def test_cipher_reverse_uses_stored_permutation(self):
        corpus = generate_synthetic_task("cipher-reverse", 10, 8, (2, 5), seed=3)
        perm = cipher_permutation(10, 3)
        for src, tgt in corpus:
            expected = [f"t{perm[int(tok[1:])]}" for tok in reversed(src)]
            assert tgt == expected

    def test_lengths_within_range(self):
        corpus = generate_synthetic_task("copy", 10, 50, (3, 6), seed=2)
        assert all(3 <= len(src) <= 6 for src, _ in corpus)

    def test_bit_exact_reproducibility(self):
        a = generate_synthetic_task("cipher-reverse", 12, 30, (2, 7), seed=11)
        b = generate_synthetic_task("cipher-reverse", 12, 30, (2, 7), seed=11)
        assert a.pairs == b.pairs

    def test_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_task("copy", 4, 5, (2, 3), seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_task("shuffle", 10, 5, (2, 3), seed=0)

    @pytest.mark.parametrize("shortest", [0, -2])
    def test_shortest_length_below_one_rejected(self, shortest):
        with pytest.raises(ValueError, match=f"shortest length .* {shortest}$"):
            generate_synthetic_task("copy", 10, 5, (shortest, 3), seed=0)

    # default_rng refuses seed -1: a check that ran after it would fail on the
    # seed's message instead of drawing a 2**32-entry permutation
    def test_longest_below_shortest_rejected_before_drawing(self):
        with pytest.raises(ValueError, match="longest length 2 .* shortest 3"):
            generate_synthetic_task("copy", 10, 5, (3, 2), seed=-1)

    @pytest.mark.parametrize("vocab_size, len_range", [
        (2**32, (3, 12)), (10, (1, 2**32)), (10, (5, 2**32 + 4))],
        ids=["vocabulary", "lengths-from-1", "lengths-from-5"])
    def test_span_of_2_pow_32_rejected_before_drawing(self, vocab_size, len_range):
        with pytest.raises(ValueError, match=r"2\*\*32"):
            generate_synthetic_task("copy", vocab_size, 5, len_range, seed=-1)

    @pytest.mark.parametrize("len_range", [(3, 12), (1, 30), (4, 4), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 5, 9, 77, 2026])
    @pytest.mark.parametrize("kind", ["copy", "reverse", "cipher-reverse"])
    def test_matches_reference_loop(self, kind, seed, len_range):
        args = (kind, 50, 300, len_range, seed)
        assert generate_synthetic_task(*args).pairs == reference_synthetic_task(*args)

    @pytest.mark.parametrize("len_range", [(3, 12), (1, 30), (4, 4), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 5, 9, 77, 2026])
    @pytest.mark.parametrize("kind", ["copy", "reverse", "cipher-reverse"])
    @pytest.mark.parametrize("block", [64, 256])
    def test_matches_reference_loop_with_small_draw_blocks(
            self, block, kind, seed, len_range, monkeypatch):
        """Many block boundaries: a pair's length drawn in one block and its
        tokens running past the end of it, or its length past the end."""
        monkeypatch.setattr(corpus, "DRAW_BLOCK", block)
        args = (kind, 50, 300, len_range, seed)
        assert generate_synthetic_task(*args).pairs == reference_synthetic_task(*args)

    def test_matches_reference_loop_across_draw_blocks(self):
        args = ("cipher-reverse", 50, 5000, (3, 12), 77)
        pairs = generate_synthetic_task(*args).pairs
        assert sum(len(src) + 1 for src, _ in pairs) > DRAW_BLOCK
        assert pairs == reference_synthetic_task(*args)

    def test_matches_reference_loop_with_rejected_token_draws(self):
        vocab_size = 2**22 + 1  # about 0.1% of token draws are rejected
        args = ("cipher-reverse", vocab_size, 2000, (3, 12), 9)
        pairs = generate_synthetic_task(*args).pairs
        rng = np.random.default_rng(9)
        rng.permutation(vocab_size)
        draws = rng.integers(0, 2**32, size=sum(len(src) for src, _ in pairs),
                             dtype=np.uint32)
        assert len(_accepted(draws, vocab_size)[0]) < len(draws)
        assert pairs == reference_synthetic_task(*args)


@pytest.mark.parametrize("span", [5, 50, 2**31 + 1, 3 * 10**9])
def test_accepted_decodes_numpy_draws(span):
    """The accepted values of a 32-bit stream are what ``integers(0, span)``
    draws one at a time from the same generator, on the installed numpy.
    Spans above 2**31 reject 30-50% of the draws."""
    draws = np.random.default_rng(3).integers(0, 2**32, size=2000, dtype=np.uint32)
    expected, at, before = _accepted(draws, span)
    assert (len(expected) < len(draws)) == (span > 2**31)
    assert list(at) == [p for p in range(len(draws)) if before[p + 1] > before[p]]
    rng = np.random.default_rng(3)
    assert [int(rng.integers(0, span)) for _ in expected] == expected


class TestBatches:
    def _vocabs(self, corpus):
        return (build_vocab(corpus.sources(), 100),
                build_vocab(corpus.targets(), 100))

    def test_batch_sizes(self):
        corpus = generate_synthetic_task("copy", 10, 10, (2, 4), seed=5)
        vs, vt = self._vocabs(corpus)
        batches = make_batches(corpus, 3, vs, vt)
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_target_wrapped_bos_eos(self):
        corpus = ParallelCorpus([(["a", "b"], ["a", "b"])])
        vs, vt = self._vocabs(corpus)
        batch = make_batches(corpus, 1, vs, vt)[0]
        a, b = vt.token_to_id["a"], vt.token_to_id["b"]
        assert batch.tgt[0].tolist() == [BOS, a, b, EOS]

    def test_padding_only_past_length(self):
        corpus = ParallelCorpus([(["a", "b", "c"], ["x"]), (["a"], ["x"])])
        vs, vt = self._vocabs(corpus)
        batch = make_batches(corpus, 2, vs, vt)[0]
        assert batch.src_lens.tolist() == [3, 1]
        assert batch.src[1, 1:].tolist() == [PAD, PAD]
        assert (batch.src[0] != PAD).all()

    def test_epoch_covers_corpus_once(self):
        corpus = generate_synthetic_task("copy", 10, 23, (2, 4), seed=6)
        vs, vt = self._vocabs(corpus)
        batches = make_batches(corpus, 4, vs, vt, shuffle_seed=1)
        assert sum(len(b) for b in batches) == len(corpus)
        seen = sorted(tuple(b.src[i, :b.src_lens[i]]) for b in batches
                      for i in range(len(b)))
        expected = sorted(tuple(vs.encode(src)) for src, _ in corpus)
        assert seen == expected

    def test_shuffle_deterministic(self):
        corpus = generate_synthetic_task("copy", 10, 20, (2, 4), seed=7)
        vs, vt = self._vocabs(corpus)
        a = make_batches(corpus, 4, vs, vt, shuffle_seed=3)
        b = make_batches(corpus, 4, vs, vt, shuffle_seed=3)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.src, bb.src)
            np.testing.assert_array_equal(ba.tgt, bb.tgt)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            make_batches(ParallelCorpus([]), 2, None, None)


class TestFiles:
    def test_parallel_roundtrip(self, tmp_path):
        corpus = generate_synthetic_task("reverse", 8, 12, (2, 5), seed=4)
        corpus.save(tmp_path / "c.src", tmp_path / "c.tgt")
        loaded = ParallelCorpus.load(tmp_path / "c.src", tmp_path / "c.tgt")
        assert loaded.pairs == corpus.pairs

    def test_misaligned_files_rejected(self, tmp_path):
        (tmp_path / "a.src").write_text("a b\nc d\n")
        (tmp_path / "a.tgt").write_text("x y\n")
        with pytest.raises(ValueError, match="disagree"):
            ParallelCorpus.load(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_empty_source_line_rejected(self, tmp_path):
        (tmp_path / "a.src").write_text("a b\n\nc d\n")
        (tmp_path / "a.tgt").write_text("x y\nz\nw\n")
        with pytest.raises(ValueError, match=r"a\.src: line 2: empty source"):
            ParallelCorpus.load(tmp_path / "a.src", tmp_path / "a.tgt")

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"],
                             ids=["FF", "VT", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_lines_end_at_newlines_only(self, tmp_path, sep):
        """str.splitlines would also end a line at these; here they separate
        tokens, so a parallel file keeps its line count."""
        path = tmp_path / "a.txt"
        path.write_text(f"t1 t2\nt3{sep}t4\r\nt5{sep}t6\n", encoding="utf-8")
        assert read_sentences(path) == [["t1", "t2"], ["t3", "t4"], ["t5", "t6"]]

    def test_empty_target_line_loads(self, tmp_path):
        (tmp_path / "a.src").write_text("a b\nc\n")
        (tmp_path / "a.tgt").write_text("x y\n\n")
        loaded = ParallelCorpus.load(tmp_path / "a.src", tmp_path / "a.tgt")
        assert loaded.pairs == [(["a", "b"], ["x", "y"]), (["c"], [])]
