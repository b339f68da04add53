"""Spans and counts recorded from outside the program, plus a tape census.

``Tracer`` wraps the public functions and methods of every ``refnet``
module and rebinds each wrapper wherever the original is looked up: in the
defining module, in every module that imported the name, and in module-level
tables such as ``gradcheck.CHECKS``. Each call records one span (name,
start, end, parent) in memory. Leaving the ``with`` block restores every
original binding.

The autodiff ops themselves are not wrapped: they are far too fine-grained,
and the tape census counts them exactly instead. ``autodiff.grad_map`` is
the one autodiff function traced, as the whole backward pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import Counter, defaultdict

# autodiff functions wrapped; its op functions stay untouched
AUTODIFF_TRACED = ("grad_map",)


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rate(work, seconds):
    """Units of work per second, e.g. target tokens per second."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return work / seconds


class PieceClock:
    """Cuts passes of identical work into pieces at marks.

    ``begin`` starts a pass, ``mark`` closes the current piece (and may
    relabel the pieces that follow), ``end`` closes the pass. Identical work
    marked at the same calls gives the same pieces in every pass. On a shared
    machine whose speed swings within seconds and drifts over minutes,
    summing each piece's fastest pass is far steadier than any whole-pass
    time, and a slower program still slows every piece.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.passes = []   # per pass: [(label, seconds), ...]
        self._pieces = None

    @property
    def label(self):
        """The label of the piece now running."""
        return self._label

    def begin(self, label):
        self._pieces, self._label, self._t = [], label, self.clock()

    def mark(self, label=None):
        t = self.clock()
        self._pieces.append((self._label, t - self._t))
        self._t = t
        if label is not None:
            self._label = label

    def end(self):
        self.mark()
        self.passes.append(self._pieces)
        self._pieces = None

    def aligned(self):
        """True when every pass was cut into the same labelled pieces."""
        first = [label for label, _ in self.passes[0]]
        return all([label for label, _ in p] == first for p in self.passes)

    def quantile(self, q):
        """Per label, the sum over its pieces of each piece's ``q`` percentile
        over the passes."""
        out = defaultdict(float)
        for i, (label, _) in enumerate(self.passes[0]):
            out[label] += percentile([p[i][1] for p in self.passes], q)
        return dict(out)

    def mean(self):
        """Per label, the seconds of one pass, averaged over the passes."""
        out = defaultdict(float)
        for p in self.passes:
            for label, seconds in p:
                out[label] += seconds / len(self.passes)
        return dict(out)


def fastest_of_label(pieces, suffix):
    """Per-label seconds of one pass [(label, seconds), ...] in which every
    piece whose label ends in ``suffix`` counts as the fastest of its label."""
    out, fastest, count = {}, {}, {}
    for label, secs in pieces:
        if label.endswith(suffix):
            fastest[label] = min(secs, fastest.get(label, secs))
            count[label] = count.get(label, 0) + 1
        else:
            out[label] = out.get(label, 0.0) + secs
    for label, secs in fastest.items():
        out[label] = out.get(label, 0.0) + count[label] * secs
    return out


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder; use ``with tracer.installed(modules):``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def wrap_model_step(self, step):
        """Trace a decoder step closure and count the rows it advances."""
        traced = self.wrap("seq2seq.model_step", step)
        counts = self.counts

        def counted(prev_ids, states):
            counts["seq2seq.model_step.rows"] += len(prev_ids)
            return traced(prev_ids, states)

        return counted

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every public function of ``modules`` inside the block."""
        self._install(modules)
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self, modules):
        wrapped = {}  # id(original function) -> wrapper
        for mod in modules:
            short = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if short == "autodiff" and attr not in AUTODIFF_TRACED:
                        continue
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and short != "autodiff"):
                    self._wrap_class(f"{short}.{attr}", obj)
        model = next((m for m in modules if _short(m.__name__) == "model"), None)
        if model is not None:
            self._wrap_make_step(model.TranslationModel)
        for mod in modules:
            self._rebind(vars(mod), wrapped, mod)
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    self._rebind(value, wrapped, value)

    def _rebind(self, namespace, wrapped, owner):
        for key, value in list(namespace.items()):
            w = wrapped.get(id(value))
            if w is not None:
                self._set(owner, key, w, value)

    def _set(self, owner, key, new, old):
        if isinstance(owner, dict):
            owner[key] = new
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            setattr(owner, key, new)
            self._undo.append(lambda: setattr(owner, key, old))

    def _wrap_class(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self.wrap(f"{prefix}.{attr}", member.__func__))
            elif inspect.isfunction(member):
                new = self.wrap(f"{prefix}.{attr}", member)
            else:
                continue
            self._set(cls, attr, new, member)

    def _wrap_make_step(self, cls):
        original = cls._make_step
        tracer = self

        def _make_step(model, h, h_proj):
            return tracer.wrap_model_step(original(model, h, h_proj))

        self._set(cls, "_make_step", _make_step, original)

    def _uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- analysis -------------------------------------------------------------

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _self_times(self):
        """Each span's duration minus the time its child spans cover.

        Children of one span never overlap: calls are single-threaded.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, covered)]

    def table(self):
        """Per-name calls, total seconds and self seconds."""
        self_times = self._self_times()
        rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_times[idx]
        return dict(rows)

    def self_s_within(self, name, ancestor):
        """Self seconds of ``name`` spans that run inside an ``ancestor`` span."""
        self_times = self._self_times()
        return sum(self_times[idx] for idx, span in enumerate(self.spans)
                   if span[0] == name and ancestor in self._ancestors(idx))

    def count_within(self, name, *ancestors):
        """Number of ``name`` spans that have every one of ``ancestors`` above."""
        return sum(1 for idx, span in enumerate(self.spans)
                   if span[0] == name
                   and set(ancestors) <= set(self._ancestors(idx)))


# ---------------------------------------------------------------------------
# tape census

def op_name(node):
    """Name a tape node by the autodiff op whose backward closure it holds."""
    return node._bwd.__qualname__.split(".", 1)[0]


def tape_census(root):
    """Count the recorded nodes reachable from ``root`` through ``parents``.

    Returns (nodes, bytes, per-op counts); bytes sums the output arrays the
    tape keeps alive. Leaves (parameters and constants) are not nodes.
    """
    seen, stack = set(), [root]
    ops, nbytes = Counter(), 0
    while stack:
        node = stack.pop()
        if id(node) in seen or node._bwd is None:
            continue
        seen.add(id(node))
        ops[op_name(node)] += 1
        nbytes += node.data.nbytes
        stack.extend(node.parents)
    return sum(ops.values()), nbytes, dict(ops)
