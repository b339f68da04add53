import math

import numpy as np
import pytest

from refnet.evaluation import bleu, length_buckets, param_report
from refnet.params import ParamStore


def toks(text):
    return text.split()


class TestBleu:
    def test_identical_is_100(self):
        hyp = [toks("the quick brown fox")]
        assert bleu(hyp, [[toks("the quick brown fox")]]).score == 100.0

    def test_self_reference_random_sentences(self):
        rng = np.random.default_rng(0)
        hyps = [[f"w{i}" for i in rng.integers(0, 30, size=rng.integers(1, 15))]
                for _ in range(20)]
        report = bleu(hyps, [[h] for h in hyps])
        assert report.score == 100.0
        assert report.brevity_penalty == 1.0

    def test_empty_hypothesis_is_0(self):
        assert bleu([[]], [[toks("a b c")]]).score == 0.0

    def test_hand_derived_short_hypothesis(self):
        """3/3, 2/2, 1/1 precisions, no 4-grams, BP = exp(1 - 4/3)."""
        report = bleu([toks("the cat sat")], [[toks("the cat sat down")]])
        assert report.precisions[:3] == [1.0, 1.0, 1.0]
        assert report.precisions[3] is None
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 4 / 3))
        assert report.score == pytest.approx(100.0 * math.exp(1 - 4 / 3))
        assert report.score == pytest.approx(71.653, abs=5e-3)

    def test_zero_matched_order_floors_score(self):
        # shares unigrams/bigrams/trigrams but no 4-gram
        report = bleu([toks("a b c x a b c")], [[toks("a b c d a b c")]])
        assert report.precisions[3] == 0.0
        assert report.score == 0.0

    def test_clipping_counts(self):
        # "the" appears 7 times in the hypothesis but twice in the reference
        report = bleu([toks("the the the the the the the")],
                      [[toks("the cat is on the mat")]])
        assert report.precisions[0] == pytest.approx(2 / 7)

    def test_case_sensitivity_flag(self):
        hyp, ref = [toks("The Cat")], [[toks("the cat")]]
        assert bleu(hyp, ref, case_sensitive=True).score == 0.0
        assert bleu(hyp, ref, case_sensitive=False).score == 100.0

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        hyps = [[f"w{i}" for i in rng.integers(0, 10, size=6)] for _ in range(10)]
        refs = [[[f"w{i}" for i in rng.integers(0, 10, size=6)]] for _ in range(10)]
        forward = bleu(hyps, refs).score
        perm = rng.permutation(10)
        shuffled = bleu([hyps[i] for i in perm], [refs[i] for i in perm]).score
        assert forward == shuffled

    def test_closest_reference_length_for_bp(self):
        # hyp length 3; refs of lengths 2 and 5 -> closest is 2 -> no penalty
        report = bleu([toks("a b c")], [[toks("a b"), toks("a b c d e")]])
        assert report.ref_length == 2
        assert report.brevity_penalty == 1.0

    def test_tie_goes_to_shorter_reference(self):
        report = bleu([toks("a b c")], [[toks("a b"), toks("a b c d")]])
        assert report.ref_length == 2

    def test_multi_reference_clipping_takes_max(self):
        report = bleu([toks("a a")], [[toks("a"), toks("a a")]])
        assert report.precisions[0] == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bleu([], [])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([toks("a")], [])


class TestLengthBuckets:
    def test_single_bucket_holds_everything(self):
        sources = [toks("a b c d e")] * 4
        hyps = [toks("x y")] * 4
        refs = [[toks("x y")]] * 4
        report = length_buckets(sources, hyps, refs, bucket_width=10)
        assert report.buckets[0].count == 4
        assert all(b.count == 0 for b in report.buckets[1:])

    def test_counts_sum_to_corpus_size(self):
        rng = np.random.default_rng(2)
        sources = [["s"] * int(rng.integers(1, 70)) for _ in range(40)]
        hyps = [toks("x y")] * 40
        refs = [[toks("x y")]] * 40
        report = length_buckets(sources, hyps, refs, bucket_width=10)
        assert sum(b.count for b in report.buckets) == 40

    def test_open_bucket_label(self):
        report = length_buckets([["s"] * 60], [toks("x")], [[toks("x")]],
                                bucket_width=10)
        assert report.buckets[-1].label() == ">50"
        assert report.buckets[-1].count == 1

    def test_bucket_bleu_matches_subset_recomputation(self):
        rng = np.random.default_rng(3)
        sources, hyps, refs = [], [], []
        for n in range(30):
            length = int(rng.integers(1, 25))
            sources.append(["s"] * length)
            hyps.append([f"w{i}" for i in rng.integers(0, 8, size=5)])
            refs.append([[f"w{i}" for i in rng.integers(0, 8, size=5)]])
        report = length_buckets(sources, hyps, refs, bucket_width=10)
        for bucket, (low, high) in zip(report.buckets[:2], [(1, 10), (11, 20)]):
            idx = [i for i, s in enumerate(sources) if low <= len(s) <= high]
            expected = bleu([hyps[i] for i in idx],
                            [refs[i] for i in idx]).score
            assert bucket.bleu == pytest.approx(expected)

    def test_mean_lengths(self):
        report = length_buckets([["s"]], [toks("x y z")], [[toks("x y")]],
                                bucket_width=10)
        assert report.buckets[0].mean_hyp_len == 3.0
        assert report.buckets[0].mean_ref_len == 2.0

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_rejected(self, width):
        with pytest.raises(ValueError, match=f"bucket width .* {width}$"):
            length_buckets([["s"]], [toks("x")], [[toks("x")]],
                           bucket_width=width)


class TestParamReport:
    def test_single_matrix_count(self):
        ps = ParamStore()
        ps.add("w", np.zeros((3, 4)), "encoder")
        report = param_report(ps)
        assert report.per_group == {"encoder": 12}
        assert report.total == 12

    def test_baseline_only_has_no_added_groups(self, tiny_params):
        report = param_report(tiny_params)
        assert set(report.per_group) == {"encoder", "decoder"}
        assert report.added == 0

    def test_added_ratio(self):
        ps = ParamStore()
        ps.add("e", np.zeros(80), "encoder")
        ps.add("d", np.zeros(20), "decoder")
        ps.add("m", np.zeros(10), "m_ref")
        report = param_report(ps)
        assert report.baseline == 100
        assert report.added == 10
        assert "10.0%" in report.pretty()

    def test_reference_line_opt_in(self, tiny_params):
        report = param_report(tiny_params)
        assert "full_scale_reference" not in report.pretty()
        assert "71.1M" in report.pretty(show_reference=True)
