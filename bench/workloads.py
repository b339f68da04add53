"""The benchmark's three workloads on the acceptance task.

All three use cipher-reverse, vocabulary 50, 2000/200/200 pairs of length
3-12, embeddings 32 and hidden size 64. ``train`` and ``gradcheck`` generate
it from the run's seed; ``decode`` always trains on the task of
``DECODE_SEED`` and draws the held-out sentences it translates by the run's
seed.

- ``train`` runs the staged pipeline (pretrain, fit-anchors, finetune-m,
  train-b) through ``run_stage`` with a fixed budget per stage and early
  stopping disabled, saving and re-loading every checkpoint between stages.
- ``decode`` trains a converged baseline and both variants during set-up,
  then translates held-out sentences at beam 1, 4 and 10 through
  ``refnet.cli.main(["translate", ...])``.
- ``gradcheck`` runs ``gradcheck.run_suite`` over the nine pinned checks.

Each workload returns a ``Measurement``: ``pass_s``, the seconds of one pass
of its fixed work, with every piece of the pass at its fastest repeat. The
number of passes scales with ``seconds`` so that a run's measurement takes
about that long on a 2-core x86 box.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from refnet import cli, evaluation, gradcheck, lcc, training
from refnet.corpus import (ParallelCorpus, build_vocab, generate_synthetic_task,
                           make_batches)
from refnet.model import TranslationModel
from refnet.seq2seq import ModelDims
from refnet.training import Checkpoint, TrainConfig

from spans import PieceClock, fastest_of_label, rate, tape_census

NO_EARLY_STOP = 10 ** 6
SETUP_REPEATS = 20     # corpus generations timed before measuring
BEAMS = (1, 4, 10)
KINDS = ("baseline", "m_ref", "b_ref")
# the checks gradcheck has today; a check added later is not timed here
PINNED_CHECKS = ("attention", "decoder_step", "decoder_step_extras",
                 "tri_score", "localization_measure", "f_s", "hinge_loss",
                 "nll_loss", "joint_b_loss")
GRADCHECK_SEED_POOL = 5   # the acceptance suite validates seeds 0-4
BLEU_FLOOR = 90.0         # the acceptance criterion on the baseline
# Each measured piece counts at this percentile of its repeats: the fastest.
# The box's speed swings by half within seconds and its typical state drifts
# over minutes, but the fastest of many repeats of a small piece holds
# within a few percent; a slower program still slows every piece.
PIECE_QUANTILE = 0
# train: each pass runs the four stages on these subsets
TRAIN_EPOCHS = 2
TRAIN_PAIRS = 64          # two batches of 32 per epoch
TRAIN_DEV_PAIRS = 64
TRAIN_FIT_ITERS = 4
TRAIN_PASS_S = 1.0        # about one pass per second asked
# decode: held-out sentences per source length (3-12) and seconds per pass
DECODE_PER_LENGTH = 2
DECODE_PASS_S = 1.0
# gradcheck: one seed of the suite takes 10-15 s; one per 10 s asked
GRADCHECK_SEED_S = 10
# decode set-up: a converged baseline, then a real epoch of each variant
SETUP_PRETRAIN_EPOCHS = 6
SETUP_FIT_ITERS = 40
SETUP_TUNE_PAIRS = 500
# The decode models are trained on this seed's task, whatever the run's seed:
# how far 6 epochs converge varies by seed (baseline test BLEU 87 to 100),
# and how many steps beam search takes depends on the model, so a model
# per seed would make the decode rates measure the seed, not the decoder.
DECODE_SEED = 77


@dataclass
class Task:
    train: ParallelCorpus
    dev: ParallelCorpus
    test: ParallelCorpus
    vocab_src: object
    vocab_tgt: object
    dims: ModelDims


def make_task(seed):
    full = generate_synthetic_task("cipher-reverse", 50, 2400, (3, 12), seed)
    train = ParallelCorpus(full.pairs[:2000])
    vs = build_vocab(train.sources(), 200)
    vt = build_vocab(train.targets(), 200)
    return Task(train, ParallelCorpus(full.pairs[2000:2200]),
                ParallelCorpus(full.pairs[2200:]), vs, vt,
                ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=32, d_h=64))


def target_tokens(corpus):
    """Non-pad target positions the loss counts: the words plus EOS."""
    return sum(len(tgt) + 1 for _, tgt in corpus.pairs)


class Checks:
    """Output checks; each one is an attempted operation that may fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = {}

    def check(self, ok, what, counter=None):
        self.attempted += 1
        if counter:
            done, bad = self.counts.get(counter, (0, 0))
            self.counts[counter] = (done + 1, bad + (not ok))
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Measurement:
    pass_s: float       # one pass, each piece at its fastest repeat
    parts: dict         # pass_s split by label (stage, kind and beam, check)
    repeats: int        # repeats behind each piece
    walls: list         # wall seconds of every pass as it ran
    details: dict = field(default_factory=dict)
    checkpoints: dict = field(default_factory=dict)


def repeat_corpus(seed, clock=None, times=SETUP_REPEATS):
    """Generate the corpus ``times`` times, each a pass of ``clock`` (a new
    ``PieceClock`` unless given); returns the task and the clock."""
    clock = clock or PieceClock()
    for _ in range(times):
        clock.begin("corpus")
        task = make_task(seed)
        clock.end()
    return task, clock


class RepeatTimer:
    """Times training stages with each repeated piece at its fastest repeat.

    Within a stage, the training epochs are repeats of nearly identical
    work: the same number of steps over reshuffled batches of the same
    shapes; so are the anchor-fitting iterations. ``repeat`` starts the
    next repeat, ``mark`` cuts a step, ``close`` ends the stage. Each piece
    is taken at its fastest over the repeats; the work outside the repeats
    (stage start-up, checkpoint writes) counts as it ran.
    """

    def __init__(self):
        self.clocks = []     # one PieceClock per stage
        self._clock = None

    def repeat(self):
        if self._clock is None:
            self._clock = PieceClock()
            self.clocks.append(self._clock)
        else:
            self._clock.end()
        self._clock.begin("step")

    def mark(self):
        if self._clock is not None:
            self._clock.mark()

    def close(self):
        if self._clock is not None:
            self._clock.end()
            self._clock = None

    def seconds(self, wall, checks):
        """``wall`` with every stage's repeats replaced by their fastest."""
        for clock in self.clocks:
            ran = sum(s for p in clock.passes for _, s in p)
            per_pass = piece_seconds(clock, checks, "decode.setup")["step"]
            wall += len(clock.passes) * per_pass - ran
        return wall


def same_params(a, b):
    return (a.params.names() == b.params.names()
            and all(np.array_equal(a.params[n].data, b.params[n].data)
                    and a.params.group_of(n) == b.params.group_of(n)
                    for n in a.params.names())
            and (a.kind, a.stages, a.dims.to_dict())
            == (b.kind, b.stages, b.dims.to_dict()))


def round_trip(ckpt, path, checks):
    """Save, re-load and check the parameters come back bit-identical."""
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    checks.check(same_params(ckpt, loaded), f"checkpoint round trip {path}",
                 "training.round_trips")
    return loaded


@contextlib.contextmanager
def rebound(owner, name, replace):
    """Bind ``owner.name`` to ``replace(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, replace(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def checked_backward(checks, clock):
    """Check every loss before its backward pass; one piece per step."""
    def replace(original):
        def backward(loss, params):
            checks.check(bool(np.isfinite(loss.data).all()), "non-finite loss",
                         "training.batches")
            clock.mark()
            return original(loss, params)
        return backward
    return replace


def marked_translate(clock):
    """One piece per translated sentence."""
    def replace(original):
        def translate(model, *args, **kwargs):
            clock.mark()
            return original(model, *args, **kwargs)
        return translate
    return replace


def marked_oracle(clock):
    """One ``<check>.eval`` piece per objective evaluation of the
    finite-difference oracle, inside a piece labelled ``<check>``."""
    def replace(original):
        def finite_diff_grad(f, params, step=1e-4):
            check = clock.label

            def evaluate(ps):
                clock.mark(check + ".eval")
                try:
                    return f(ps)
                finally:
                    clock.mark(check)
            return original(evaluate, params, step=step)
        return finite_diff_grad
    return replace


def piece_seconds(clock, checks, counter, q=PIECE_QUANTILE):
    """Per-label seconds of one pass, each piece at its ``q`` percentile
    over the passes."""
    aligned = checks.check(clock.aligned(), "passes were cut into different "
                           "pieces", counter)
    return clock.quantile(q) if aligned else clock.mean()


def pass_walls(clock):
    return [sum(secs for _, secs in p) for p in clock.passes]


# ---------------------------------------------------------------------------
# train

def train_pipeline(task, seed, workdir, checks, clock):
    """One pass of the four stages with their checkpoint hand-offs.

    Each stage is cut into pieces at every backward pass; the hand-offs
    between stages are pieces of their own. Returns the final dev NLL and
    the stage outputs.
    """
    cfg = dict(seed=seed, patience=NO_EARLY_STOP, epochs=TRAIN_EPOCHS)
    sub = ParallelCorpus(task.train.pairs[:TRAIN_PAIRS])
    dev = ParallelCorpus(task.dev.pairs[:TRAIN_DEV_PAIRS])
    path = lambda name: os.path.join(workdir, f"{name}.ckpt")  # noqa: E731

    def stage(name, *args, **kwargs):
        clock.mark(name)
        out = training.run_stage(name, *args, **kwargs)
        clock.mark("hand-off")
        return out

    base = stage("pretrain", None, sub, dev,
                 TrainConfig(stage="pretrain", **cfg), vocab_src=task.vocab_src,
                 vocab_tgt=task.vocab_tgt, dims=task.dims)
    base = round_trip(base, path("base"), checks)

    anchored = stage("fit-anchors", Checkpoint.load(path("base")), sub, None,
                     TrainConfig(stage="fit-anchors", n_anchors=16,
                                 fit_iters=TRAIN_FIT_ITERS, **cfg))
    anchored = round_trip(anchored, path("anchored"), checks)

    before = {g: anchored.params.group_digest(g) for g in ("encoder", "anchors")}
    m_ckpt = stage("finetune-m", anchored, sub, dev,
                   TrainConfig(stage="finetune-m", **dict(cfg, lr=5e-4)))
    for g, digest in before.items():
        checks.check(m_ckpt.params.group_digest(g) == digest,
                     f"finetune-m changed frozen group {g}",
                     "training.frozen_digests")
    m_ckpt = round_trip(m_ckpt, path("m_ref"), checks)

    b_in = Checkpoint.load(path("base"))
    before = {g: b_in.params.group_digest(g) for g in ("encoder", "decoder")}
    b_ckpt = stage("train-b", b_in, sub, dev,
                   TrainConfig(stage="train-b", n_anchors=8, d_a=16, **cfg))
    for g, digest in before.items():
        checks.check(b_ckpt.params.group_digest(g) == digest,
                     f"train-b changed frozen group {g}",
                     "training.frozen_digests")
    best_dev = min(row["dev_loss"] for row in b_ckpt.history)
    b_ckpt = round_trip(b_ckpt, path("b_ref"), checks)

    # the stage's output is its best-dev parameters; re-evaluating them after
    # the round trip must reproduce the stage's own figure bit for bit
    dev_nll = b_ckpt.make_model().dev_loss(make_batches(
        dev, 32, task.vocab_src, task.vocab_tgt))
    checks.check(dev_nll == best_dev and math.isfinite(dev_nll),
                 f"dev NLL {dev_nll!r} != stage figure {best_dev!r}",
                 "training.dev_nll_repeat")
    return dev_nll, {"base": base, "m_ref": m_ckpt, "b_ref": b_ckpt}


def digest_all(ckpt):
    return tuple(ckpt.params.group_digest(g) for g in ckpt.params.groups_present())


def run_train(task, seed, seconds, workdir, checks, between):
    """Identical passes of the pipeline; the passes must agree bit for bit.

    A piece is one training step or fitting iteration (up to the next
    backward pass), or a hand-off between stages; each counts at its
    fastest pass. ``between()`` runs after every pass, untimed.
    """
    passes = max(3, round(seconds / TRAIN_PASS_S))
    clock = PieceClock()
    outcomes = []
    with contextlib.ExitStack() as hooks:
        for owner in (training, lcc):
            hooks.enter_context(
                rebound(owner, "backward", checked_backward(checks, clock)))
        for _ in range(passes):
            clock.begin("hand-off")
            dev_nll, ckpts = train_pipeline(task, seed, workdir, checks, clock)
            clock.end()
            outcomes.append((dev_nll, digest_all(ckpts["m_ref"]),
                             digest_all(ckpts["b_ref"])))
            between()
    checks.check(len(set(outcomes)) == 1,
                 "pipeline passes disagree on dev NLL or parameters",
                 "training.dev_nll_repeat")
    parts = piece_seconds(clock, checks, "training.passes")
    tokens = TRAIN_EPOCHS * target_tokens(ParallelCorpus(task.train.pairs[:TRAIN_PAIRS]))
    work = {"pretrain": tokens, "fit-anchors": TRAIN_FIT_ITERS,
            "finetune-m": tokens, "train-b": tokens}
    details = {"dev_nll": outcomes[0][0], "work": work,
               "rates": {st: rate(n, parts[st]) for st, n in work.items()},
               "parts_mean_pass": clock.mean(),
               "pieces_per_pass": len(clock.passes[0])}
    return Measurement(sum(parts.values()), parts, passes, pass_walls(clock),
                       details, ckpts)


CENSUS_FREEZES = {"pretrain": ("base", ()),
                  "finetune_m": ("m_ref", ("encoder", "anchors")),
                  "train_b": ("b_ref", ("encoder", "decoder", "anchors"))}


def census(task, seed, ckpts):
    """Tape of the first training batch, per stage, with the stage's freezes."""
    batch = make_batches(task.train, 32, task.vocab_src, task.vocab_tgt)[0]
    out = {}
    for stage, (key, frozen) in CENSUS_FREEZES.items():
        ckpt = ckpts[key]
        ckpt.params.freeze(*frozen)
        try:
            parts = ckpt.make_model().loss(
                batch, training=True, rng=np.random.default_rng((seed, 29)))
            out[stage] = tape_census(parts.joint)
        finally:
            ckpt.params.unfreeze(*frozen)
    return out


# ---------------------------------------------------------------------------
# decode

def draw_sentences(test, per_length, seed):
    """``per_length`` held-out pairs of each source length, drawn by ``seed``.

    Beam search works longer on longer sentences; equal numbers of each
    length keep the work of a pass the same whichever pairs are drawn.
    """
    rng = np.random.default_rng(seed)
    by_length = {}
    for pair in test.pairs:
        by_length.setdefault(len(pair[0]), []).append(pair)
    picked = []
    for length in sorted(by_length):
        pool = by_length[length]
        picked += [pool[i] for i in
                   sorted(rng.choice(len(pool), per_length, replace=False))]
    return ParallelCorpus(picked)


def timed_training(timer):
    """Bindings that cut the set-up training for ``timer``.

    A training epoch starts a repeat where it shuffles its batches, every
    training step is a piece of it, and every anchor-fitting iteration is a
    repeat of its own.
    """
    def epochs(original):
        def make_batches(*args, shuffle_seed=None, **kwargs):
            if shuffle_seed is not None:
                timer.repeat()
            return original(*args, shuffle_seed=shuffle_seed, **kwargs)
        return make_batches

    def steps(original):
        def backward(loss, params):
            timer.mark()
            return original(loss, params)
        return backward

    def iterations(original):
        def backward(loss, params):
            timer.repeat()
            return original(loss, params)
        return backward

    bindings = contextlib.ExitStack()
    bindings.enter_context(rebound(training, "make_batches", epochs))
    bindings.enter_context(rebound(training, "backward", steps))
    bindings.enter_context(rebound(lcc, "backward", iterations))
    return bindings


def decode_setup(task, seed, workdir, checks):
    """Train and save the three checkpoints the sweep decodes with.

    ``task`` is the task of ``DECODE_SEED``. The baseline trains without
    dropout at a raised learning rate, which converges in 6 epochs; anchors
    are fitted to a subset, and both variants get one real epoch on it.
    ``seed`` draws ``DECODE_PER_LENGTH`` held-out pairs of each length.
    Returns the checkpoint paths, the test source file and its pairs, and
    the set-up seconds with every training epoch's steps at their fastest
    epoch (``RepeatTimer``).
    """
    cfg = dict(seed=DECODE_SEED, patience=NO_EARLY_STOP)
    sub = ParallelCorpus(task.train.pairs[:SETUP_TUNE_PAIRS])
    paths = {k: os.path.join(workdir, f"{k}.ckpt") for k in KINDS}
    timer = RepeatTimer()

    def stage(*args, **kwargs):
        out = training.run_stage(*args, **kwargs)
        timer.close()
        return out

    t0 = time.perf_counter()
    with timed_training(timer):
        base = stage(
            "pretrain", None, task.train, task.dev,
            TrainConfig(stage="pretrain", epochs=SETUP_PRETRAIN_EPOCHS, lr=5e-3,
                        drop_emb=0.0, drop_out=0.0, **cfg),
            vocab_src=task.vocab_src, vocab_tgt=task.vocab_tgt, dims=task.dims)
        base.save(paths["baseline"])
        anchored = stage(
            "fit-anchors", Checkpoint.load(paths["baseline"]), sub, None,
            TrainConfig(stage="fit-anchors", n_anchors=16,
                        fit_iters=SETUP_FIT_ITERS, **cfg))
        m_ckpt = stage("finetune-m", anchored, sub, task.dev,
                       TrainConfig(stage="finetune-m", epochs=1, **cfg))
        m_ckpt.save(paths["m_ref"])
        b_ckpt = stage("train-b", Checkpoint.load(paths["baseline"]), sub, task.dev,
                       TrainConfig(stage="train-b", epochs=1, n_anchors=8, d_a=16,
                                   **cfg))
        b_ckpt.save(paths["b_ref"])
    setup_s = timer.seconds(time.perf_counter() - t0, checks)
    # non-zero extra projections keep a zero-projection shortcut from winning
    for ckpt, key in ((m_ckpt, "mref/proj"), (b_ckpt, "bref/proj")):
        checks.check(bool(np.abs(ckpt.params[key].data).max() > 0),
                     f"{key} is still zero after set-up", "decode.setup")

    test = draw_sentences(task.test, DECODE_PER_LENGTH, seed)
    src = os.path.join(workdir, "test.src")
    test.save(src, os.path.join(workdir, "test.tgt"))
    return (paths, src, test), setup_s


def decode_sweep(paths, src, test, passes, workdir, checks, between):
    """Translate the test sources at every beam and kind, in passes.

    Every pass must give the same hypotheses. Each sentence is a piece;
    returns the seconds of one pass per label (``<kind>.b<beam>``, and
    ``io`` between the calls) with every piece at its fastest pass, the mean
    pass, and the hypotheses. ``between()`` runs after every pass, untimed.
    """
    n = len(test)
    clock = PieceClock()
    runs = []
    with rebound(TranslationModel, "translate", marked_translate(clock)):
        for _ in range(passes):
            clock.begin("io")
            hyps = {}
            for beam in BEAMS:
                for kind in KINDS:
                    out = os.path.join(workdir, f"hyp.{kind}.b{beam}")
                    argv = ["translate", "--ckpt", paths[kind], "--src", src,
                            "--out", out, "--beam", str(beam)]
                    clock.mark(f"{kind}.b{beam}")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    clock.mark("io")
                    checks.check(code == 0,
                                 f"translate {kind} beam {beam} exited {code}",
                                 "decode.runs")
                    lines = read_lines(out) if code == 0 else []
                    for i in range(n):
                        checks.check(i < len(lines) and len(lines[i]) > 0,
                                     f"{kind} beam {beam}: no hypothesis for "
                                     f"line {i}", "decode.sentences")
                    hyps[(kind, beam)] = (lines + [[]] * n)[:n]
            clock.end()
            runs.append(hyps)
            between()
    checks.check(all(h == runs[0] for h in runs), "decode passes disagree",
                 "decode.runs")
    return (piece_seconds(clock, checks, "decode.runs"), clock.mean(),
            pass_walls(clock), runs[0])


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def run_decode(paths, src, test, seconds, workdir, checks, between):
    passes = max(3, round(seconds / DECODE_PASS_S))
    parts, mean_pass, walls, hyps = decode_sweep(paths, src, test, passes,
                                                 workdir, checks, between)
    refs = [[tgt] for _, tgt in test.pairs]
    scores = {f"{k}.b{b}": evaluation.bleu(h, refs).score
              for (k, b), h in hyps.items()}
    test_bleu = statistics.fmean(scores[f"{k}.b10"] for k in KINDS)
    checks.check(test_bleu >= BLEU_FLOOR,
                 f"test BLEU {test_bleu:.2f} below {BLEU_FLOOR}",
                 "decode.bleu_floor")
    sent_s = {f"b{b}": rate(len(KINDS) * len(refs),
                            sum(parts[f"{k}.b{b}"] for k in KINDS))
              for b in BEAMS}
    details = {"test_bleu": test_bleu, "bleu": scores, "sent_s": sent_s,
               "sentences": len(refs), "parts_mean_pass": mean_pass}
    return Measurement(sum(parts.values()), parts, passes, walls, details)


# ---------------------------------------------------------------------------
# gradcheck

def gradcheck_seeds(seed, seconds):
    """Suite seeds drawn from the validated pool, one per ``GRADCHECK_SEED_S``."""
    n = max(1, min(GRADCHECK_SEED_POOL, round(seconds / GRADCHECK_SEED_S)))
    return [(seed + i) % GRADCHECK_SEED_POOL for i in range(n)]


def run_gradcheck(seed, seconds, checks, between):
    """The pinned suite once per seed, one ``run_suite`` call per check.

    Within a check the oracle evaluates the same objective at one perturbed
    coordinate after another: thousands of repeats of identical work, and
    every seed builds the same shapes. Each evaluation is a piece labelled
    ``<check>.eval`` and counts at the fastest evaluation of its check over
    all seeds, which run seconds apart; the rest of the check (its set-up,
    the analytic gradient, the bookkeeping between evaluations) counts at
    its mean over the seeds. ``pass_s`` is the nine checks' sum for one
    seed. ``between()`` runs after every check, untimed.
    """
    seeds = gradcheck_seeds(seed, seconds)
    clock = PieceClock()
    worst, walls = {}, []
    with rebound(gradcheck, "finite_diff_grad", marked_oracle(clock)):
        for s in seeds:
            first = len(clock.passes)
            for name in PINNED_CHECKS:
                if name not in gradcheck.CHECKS:
                    checks.check(False, f"gradcheck {name} is missing",
                                 "gradcheck.checks")
                    continue
                clock.begin(name)
                (result,) = gradcheck.run_suite(seeds=[s], checks=[name])
                clock.end()
                between()
                worst[name] = max(result.max_rel_err, worst.get(name, 0.0))
                checks.check(result.passed,
                             f"gradcheck {name} seed {s}: {result.max_rel_err:.2e}",
                             "gradcheck.checks")
            walls.append(sum(pass_walls(clock)[first:]))
    every = [piece for pieces in clock.passes for piece in pieces]
    parts = {label: secs / len(seeds)
             for label, secs in fastest_of_label(every, ".eval").items()}
    mean_pass = {}
    for label, secs in every:
        mean_pass[label] = mean_pass.get(label, 0.0) + secs / len(seeds)
    evals = sum(1 for p in clock.passes for label, _ in p if label.endswith(".eval"))
    details = {"seeds": seeds, "max_rel_err": worst,
               "parts_mean_pass": mean_pass, "evaluations": evals}
    return Measurement(sum(parts.values()), parts, len(seeds), walls, details)
