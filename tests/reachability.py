"""Which functions of the ``refnet`` package the command-line tool reaches,
and which backward branches of training and decoding no gradient check runs.

    PYTHONPATH=src python tests/reachability.py

It runs the README's command sequence at toy sizes through ``cli.main``, in
a temporary directory, under ``sys.setprofile``: ``synth`` with three
splits, the four stages at one epoch, ``translate`` for each kind at beams
1 and 4 (m_ref's without length normalization), ``evaluate --src``,
``params --full-scale-reference`` and ``gradcheck --seeds 1``; then one run
from a ``--config`` file and one unknown flag. It lists every function,
method, closure and lambda in the package with ``ast``, and reports each
one that no command reached. One passes only when ``ALLOWED`` names it
with the reason it stays; an ``ALLOWED`` entry that names no function, or
one that a command reached, fails too, unless ``HOST_DEPENDENT`` names it.

While the ``SYSTEM_COMMANDS`` run, ``recording`` also keeps the bytecode
offsets that package frames entered inside ``autodiff.grad_map`` run;
``check_offsets`` keeps the same for the analytic pass of each
``gradcheck.CHECKS`` entry at seed 0, and ``uncovered`` lists each offset
the commands ran and no check did.

The script prints the unreached functions, each with its reason or
``NO REASON``, the needless ``ALLOWED`` entries, the uncovered backward
offsets and the traced seconds, and exits 1 when a function has no
reason, an entry is needless or an offset is uncovered.
Functions that run only in the oracle's forked workers count as
unreached: the profile does not follow a fork. pytest does not collect
this file; ``test_gradcheck.py`` runs the same ``trace`` and ``unexplained``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import linecache
import os
import pathlib
import sys
import tempfile
import time

import refnet
from refnet import autodiff, cli, gradcheck

PACKAGE = pathlib.Path(refnet.__file__).resolve().parent
ROOT = os.path.dirname(refnet.__file__)  # as the package's code objects name it

# "module.qualname" -> why the function stays though no command reaches it
ALLOWED = {
    "autodiff.parameter": "bench/test_spans.py and the tests build leaf "
                          "tensors with it",
    "corpus.cipher_permutation": "demos/02_synthetic_corpora.py prints the "
                                 "substitution table with it",
    "model.TranslationModel.translate": "bench/workloads.py rebinds it to time "
                                        "each decoded sentence",
    "params._fork_sweep": "the oracle forks its workers only with two or more "
                          "usable CPUs",
    "training._knob": "builds TrainConfig's fields when the module is imported",
    "training.run_pipeline": "the acceptance fixture, tests/bit_digest.py and "
                             "demo 05 run the protocol through it; the tool "
                             "runs one stage per command",
}

# ALLOWED names that a run reaches or not, as the host allows
HOST_DEPENDENT = {"params._fork_sweep"}


def definitions():
    """``{(file, first line, name): ("module.qualname", ast node)}`` for
    every function, method, closure and lambda in the package, keyed as its
    code object is: a decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                found[(str(path), first, name)] = (f"{module}.{prefix}{name}", child)
                visit(child, path, f"{prefix}{name}.<locals>.", module)
            else:
                visit(child, path, prefix, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "", path.stem)
    return found


# the commands that train, fit anchors and decode
SYSTEM_COMMANDS = ("train", "fit-anchors", "finetune-m", "train-b", "translate")


def _commands(tmp):
    """The argv of each command of the sequence, in order."""
    data, ckpt = tmp / "toy", tmp / "ckpt"

    def corpus(*splits):
        return [f for split in splits for side in ("src", "tgt")
                for f in (f"--{split}-{side}", f"{data}.{split}.{side}")]

    def stage(command, ckpt_in, ckpt_out, *flags, splits=("train", "dev")):
        ins = ["--ckpt-in", f"{ckpt}.{ckpt_in}"] if ckpt_in else []
        return [command, *ins, "--ckpt-out", f"{ckpt}.{ckpt_out}",
                *corpus(*splits), *flags]

    tune = ["--epochs", "1", "--batch-size", "16"]
    anchors = ["--n-anchors", "3"]
    yield ["synth", "--kind", "cipher-reverse", "--vocab-size", "12",
           "--min-len", "2", "--max-len", "6", "--seed", "3",
           "--splits", "32,8,8", "--out", str(data)]
    yield stage("train", None, "base", "--d-e", "4", "--d-h", "4",
                "--clip-norm", "0.01", *tune)  # a norm every step clips
    yield stage("fit-anchors", "base", "anchored", *anchors, "--fit-iters", "1",
                splits=("train",))
    yield stage("finetune-m", "anchored", "m", *tune)
    yield stage("train-b", "base", "b", *tune, *anchors, "--d-a", "4")
    for kind in ("base", "m", "b"):
        for beam in ("1", "4"):
            yield ["translate", "--ckpt", f"{ckpt}.{kind}", "--src",
                   f"{data}.test.src", "--out", f"{tmp}/hyp.{kind}.{beam}",
                   "--beam", beam, *(["--no-length-norm"] if kind == "m" else [])]
    yield ["evaluate", "--hyp", f"{tmp}/hyp.b.4", "--refs", f"{data}.test.tgt",
           "--src", f"{data}.test.src"]
    yield ["params", "--ckpt", f"{ckpt}.b", "--full-scale-reference"]
    yield ["gradcheck", "--seeds", "1"]
    config = tmp / "synth.cfg"
    config.write_text(f"kind = copy\npairs = 4\nout = {tmp}/copy\n", encoding="utf-8")
    yield ["synth", "--config", str(config)]
    yield ["params", "--ckpt", f"{ckpt}.b", "--bogus"]


GRAD_MAP = autodiff.grad_map.__code__


@contextlib.contextmanager
def recording(offsets, called=lambda code: None):
    """Inside the block, pass ``called`` the code object of every function
    call, and add to ``offsets`` (None: nothing) the (code object, bytecode
    offset) of every instruction that a package frame entered inside
    ``autodiff.grad_map`` runs: the backward branches taken."""
    def opcode(frame, event, arg):
        if event == "opcode":
            offsets.add((frame.f_code, frame.f_lasti))
        return opcode

    def enter(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) == ROOT:
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
            return opcode

    def hook(frame, event, arg):
        if event == "call":
            called(frame.f_code)
        if frame.f_code is GRAD_MAP and offsets is not None and event in (
                "call", "return"):
            sys.settrace(enter if event == "call" else None)

    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        sys.settrace(None)


def trace():
    """Run the sequence under ``sys.setprofile``: the "module.qualname" of
    every package function it called, of those the ``SYSTEM_COMMANDS``
    called, the backward offsets those ran (``recording``), and the seconds
    it took. A command that exits non-zero (other than the unknown flag's
    usage error) raises ``RuntimeError``.
    """
    codes, system_codes, offsets = set(), set(), set()

    cli._shared_parser.cache_clear()  # build the parser again, under the profile
    out, start = io.StringIO(), time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in _commands(pathlib.Path(tmp)):
            system = argv[0] in SYSTEM_COMMANDS
            with recording(offsets if system else None,
                           (system_codes if system else codes).add):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
            expected = cli.EXIT_USAGE if "--bogus" in argv else cli.EXIT_OK
            if code != expected:
                raise RuntimeError(f"refnet {' '.join(argv)} exited {code}:\n"
                                   f"{out.getvalue()[-2000:]}")
    seconds = time.perf_counter() - start
    names = definitions()

    def named(found):
        return {names[key][0] for key in
                ((str(pathlib.Path(c.co_filename).resolve()), c.co_firstlineno,
                  c.co_name) for c in found) if key in names}

    in_system = named(system_codes)
    return named(codes) | in_system, in_system, offsets, seconds


class _Stop(Exception):
    """Raised in place of the oracle, once a check's analytic pass ran."""


def check_offsets(checks=None):
    """The backward offsets (``recording``) of the analytic pass of each
    ``gradcheck.CHECKS`` entry named in ``checks`` (None: all) at seed 0;
    the oracle is replaced so that each stops there."""
    offsets, oracle = set(), gradcheck.finite_diff_grad

    def stop(f, params, step=None):
        raise _Stop

    gradcheck.finite_diff_grad = stop
    try:
        for name in checks or gradcheck.CHECKS:
            with recording(offsets), contextlib.suppress(_Stop):
                gradcheck.CHECKS[name](0)
    finally:
        gradcheck.finite_diff_grad = oracle
    return offsets


def uncovered(system, checks):
    """``file:line function [offset] source`` of each backward offset that
    ``system`` holds and ``checks`` does not, in file and line order."""
    found = []
    for code, offset in system - checks:
        line = next(n for a, b, n in code.co_lines() if a <= offset < b)
        found.append((code.co_filename, line, offset, code.co_qualname))
    return [f"{os.path.basename(path)}:{line} {name} [{offset}] "
            f"{linecache.getline(path, line).strip()}"
            for path, line, offset, name in sorted(found)]


def function_names():
    return {name for name, _ in definitions().values()}


def unexplained(reached):
    """(unreached functions with no ``ALLOWED`` reason, needless ``ALLOWED``
    names: no function of the package, or one that ``reached`` holds and
    ``HOST_DEPENDENT`` does not), each sorted."""
    names = function_names()
    return (sorted(names - reached - set(ALLOWED)),
            sorted(set(ALLOWED) - (names - reached) - HOST_DEPENDENT))


if __name__ == "__main__":
    reached, _, offsets, seconds = trace()
    gaps = uncovered(offsets, check_offsets())
    names = function_names()
    never = sorted(names - reached)
    missing, needless = unexplained(reached)
    for name in never:
        print(f"{name}\t{ALLOWED.get(name, 'NO REASON')}")
    for name in needless:
        why = "reached" if name in reached else "no such function"
        print(f"{name}\tallowed, but {why}")
    for gap in gaps:
        print(f"no check runs\t{gap}")
    print(f"{len(never)} of {len(names)} functions unreached, {len(missing)} "
          f"without a reason, {len(needless)} needless allowed, {len(gaps)} "
          f"backward offsets no check runs; traced {seconds:.1f} s")
    sys.exit(1 if missing or needless or gaps else 0)
