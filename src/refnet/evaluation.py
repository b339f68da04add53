"""Corpus-level BLEU, length-bucket analysis, and parameter counting.

BLEU follows the moses multi-bleu conventions: clipped n-gram counts
pooled over the corpus, geometric mean of precisions up to order 4, and a
brevity penalty against the closest reference length (ties resolved to
the shorter reference). Undefined orders, i.e. those with zero candidate
n-grams because every hypothesis is shorter than n, are excluded from the
geometric mean; an order with candidates but zero matches floors the
score to 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

MAX_ORDER = 4


@dataclass
class BleuReport:
    score: float                 # 0..100
    precisions: list             # per order, may contain None for excluded orders
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    @property
    def length_ratio(self):
        return self.hyp_length / self.ref_length if self.ref_length else 0.0

    def pretty(self):
        prec = "/".join("n.a" if p is None else f"{100 * p:.1f}"
                        for p in self.precisions)
        return (f"BLEU = {self.score:.2f}, {prec} "
                f"(BP={self.brevity_penalty:.3f}, ratio={self.length_ratio:.3f}, "
                f"hyp_len={self.hyp_length}, ref_len={self.ref_length})")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(hyp_len, ref_lens):
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def bleu(hypotheses, reference_sets, case_sensitive=True) -> BleuReport:
    """Corpus BLEU over token lists; each hypothesis has >= 1 references."""
    if len(hypotheses) == 0:
        raise ValueError("empty corpus")
    if len(hypotheses) != len(reference_sets):
        raise ValueError(f"{len(hypotheses)} hypotheses vs "
                         f"{len(reference_sets)} reference sets")

    def fold(tokens):
        return tokens if case_sensitive else [t.lower() for t in tokens]

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_length = ref_length = 0
    for hyp, refs in zip(hypotheses, reference_sets):
        if not refs:
            raise ValueError("every sentence needs at least one reference")
        hyp = fold(hyp)
        refs = [fold(r) for r in refs]
        hyp_length += len(hyp)
        ref_length += _closest_ref_length(len(hyp), [len(r) for r in refs])
        for n in range(1, MAX_ORDER + 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            cap = Counter()
            for ref in refs:
                ref_counts = _ngrams(ref, n)
                for gram in counts:
                    cap[gram] = max(cap[gram], ref_counts[gram])
            totals[n - 1] += sum(counts.values())
            matches[n - 1] += sum(min(c, cap[g]) for g, c in counts.items())

    precisions = [m / t if t else None for m, t in zip(matches, totals)]
    if hyp_length == 0:
        return BleuReport(0.0, precisions, 0.0, 0, ref_length)
    bp = 1.0 if hyp_length > ref_length else math.exp(1.0 - ref_length / hyp_length)
    usable = [p for p in precisions if p is not None]
    if not usable or any(p == 0.0 for p in usable):
        return BleuReport(0.0, precisions, bp, hyp_length, ref_length)
    log_mean = sum(math.log(p) for p in usable) / len(usable)
    return BleuReport(100.0 * bp * math.exp(log_mean), precisions, bp,
                      hyp_length, ref_length)


# ---------------------------------------------------------------------------
# length buckets

N_CLOSED = 5  # closed buckets before the open one


@dataclass
class LengthBucket:
    low: int            # inclusive
    high: int | None    # inclusive; None = open-ended
    count: int
    bleu: float | None
    mean_hyp_len: float
    mean_ref_len: float

    def label(self):
        return f">{self.low - 1}" if self.high is None else f"[{self.low},{self.high}]"


@dataclass
class LengthBucketReport:
    bucket_width: int
    buckets: list

    def pretty(self):
        lines = ["bucket\tcount\tBLEU\tmean_hyp_len\tmean_ref_len"]
        for b in self.buckets:
            score = "n.a" if b.bleu is None else f"{b.bleu:.2f}"
            lines.append(f"{b.label()}\t{b.count}\t{score}\t"
                         f"{b.mean_hyp_len:.2f}\t{b.mean_ref_len:.2f}")
        return "\n".join(lines)


def length_buckets(sources, hypotheses, reference_sets, bucket_width=10,
                   case_sensitive=True) -> LengthBucketReport:
    """Per-source-length-bucket BLEU and mean lengths.

    Buckets are [1,w], (w,2w], ... up to N_CLOSED of them, then one open
    bucket for everything longer (the ">5w" group).
    """
    if not (len(sources) == len(hypotheses) == len(reference_sets)):
        raise ValueError("sources, hypotheses, and references must align")
    if bucket_width < 1:
        raise ValueError(f"bucket width must be >= 1, got {bucket_width}")
    edges = [(i * bucket_width + 1, (i + 1) * bucket_width) for i in range(N_CLOSED)]
    edges.append((N_CLOSED * bucket_width + 1, None))
    buckets = []
    for low, high in edges:
        idx = [i for i, s in enumerate(sources)
               if len(s) >= low and (high is None or len(s) <= high)]
        if not idx:
            buckets.append(LengthBucket(low, high, 0, None, 0.0, 0.0))
            continue
        sub_h = [hypotheses[i] for i in idx]
        sub_r = [reference_sets[i] for i in idx]
        report = bleu(sub_h, sub_r, case_sensitive)
        mean_h = sum(len(h) for h in sub_h) / len(idx)
        mean_r = sum(sum(len(r) for r in rs) / len(rs) for rs in sub_r) / len(idx)
        buckets.append(LengthBucket(low, high, len(idx), report.score,
                                    mean_h, mean_r))
    return LengthBucketReport(bucket_width, buckets)


# ---------------------------------------------------------------------------
# parameter counting

# Totals the original full-scale RefNet systems report (vocab 30k,
# embeddings 620, hidden 1000, 100 monolingual anchors): baseline 71.1M,
# +6.6M monolingual, +14M bilingual. The parameterization behind them is
# not fully specified, so reports print them next to the measured counts
# rather than assert equality.
FULL_SCALE_REFERENCE = {"baseline": 71.1e6, "m_ref_added": 6.6e6,
                        "b_ref_added": 14.0e6}


@dataclass
class ParamReport:
    per_group: dict
    total: int

    @property
    def baseline(self):
        return self.per_group.get("encoder", 0) + self.per_group.get("decoder", 0)

    @property
    def added(self):
        return self.total - self.baseline

    def pretty(self, show_reference=False):
        lines = ["group\tparameters"]
        for group, count in self.per_group.items():
            lines.append(f"{group}\t{count}")
        lines.append(f"total\t{self.total}")
        if self.baseline:
            lines.append(f"added_over_baseline\t{self.added}"
                         f"\t({100.0 * self.added / self.baseline:.1f}%)")
        if show_reference:
            ref = FULL_SCALE_REFERENCE
            lines.append(f"full_scale_reference\tbaseline={ref['baseline'] / 1e6:.1f}M"
                         f"\tm_ref_added={ref['m_ref_added'] / 1e6:.1f}M"
                         f"\tb_ref_added={ref['b_ref_added'] / 1e6:.1f}M")
        return "\n".join(lines)


def param_report(store) -> ParamReport:
    """Per-group parameter counts of a ``ParamStore``."""
    per_group = {g: store.param_count(g) for g in store.groups_present()}
    return ParamReport(per_group, store.param_count())
