"""Which functions of the ``refnet`` package the command-line tool reaches.

    PYTHONPATH=src python tests/reachability.py

It runs the README's command sequence at toy sizes through ``cli.main``, in
a temporary directory, under ``sys.setprofile``: ``synth`` with three
splits, the four stages at one epoch, ``translate`` for each kind at beams
1 and 4, ``evaluate --src``, ``params --full-scale-reference`` and
``gradcheck --seeds 1``; then one run from a ``--config`` file and one
unknown flag. It lists every function, method, closure and lambda in the
package with ``ast``, and reports each one that no command reached. One
passes only when ``ALLOWED`` names it with the reason it stays; an
``ALLOWED`` entry that names no function, or one that a command reached,
fails too, unless ``HOST_DEPENDENT`` names it.

The script prints the unreached functions, each with its reason or
``NO REASON``, the needless ``ALLOWED`` entries and the traced seconds, and
exits 1 when a function has no reason or an entry is needless.
Functions that run only in the oracle's forked workers count as
unreached: the profile does not follow a fork. pytest does not collect
this file; ``test_gradcheck.py`` runs the same ``trace`` and ``unexplained``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import sys
import tempfile
import time

import refnet
from refnet import cli

PACKAGE = pathlib.Path(refnet.__file__).resolve().parent

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
                   "--beam", beam]
    yield ["evaluate", "--hyp", f"{tmp}/hyp.b.4", "--refs", f"{data}.test.tgt",
           "--src", f"{data}.test.src"]
    yield ["params", "--ckpt", f"{ckpt}.b", "--full-scale-reference"]
    yield ["gradcheck", "--seeds", "1"]
    config = tmp / "synth.cfg"
    config.write_text(f"kind = copy\npairs = 4\nout = {tmp}/copy\n", encoding="utf-8")
    yield ["synth", "--config", str(config)]
    yield ["params", "--ckpt", f"{ckpt}.b", "--bogus"]


def trace(system=contextlib.nullcontext):
    """Run the sequence under ``sys.setprofile``: the "module.qualname" of
    every package function it called, of those the ``SYSTEM_COMMANDS``
    called, and the seconds it took.

    ``system()`` is entered around each command of ``SYSTEM_COMMANDS``.
    A command that exits non-zero
    (other than the unknown flag's usage error) raises ``RuntimeError``.
    """
    codes, system_codes = set(), set()

    cli._shared_parser.cache_clear()  # build the parser again, under the profile
    out, start = io.StringIO(), time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in _commands(pathlib.Path(tmp)):
            spied = argv[0] in SYSTEM_COMMANDS
            called = system_codes if spied else codes

            def hook(frame, event, arg):
                if event == "call":
                    called.add(frame.f_code)

            with system() if spied else contextlib.nullcontext():
                sys.setprofile(hook)
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
                finally:
                    sys.setprofile(None)
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
    return named(codes) | in_system, in_system, seconds


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
    reached, _, seconds = trace()
    names = function_names()
    never = sorted(names - reached)
    missing, needless = unexplained(reached)
    for name in never:
        print(f"{name}\t{ALLOWED.get(name, 'NO REASON')}")
    for name in needless:
        why = "reached" if name in reached else "no such function"
        print(f"{name}\tallowed, but {why}")
    print(f"{len(never)} of {len(names)} functions unreached, {len(missing)} "
          f"without a reason, {len(needless)} needless allowed; "
          f"traced {seconds:.1f} s")
    sys.exit(1 if missing or needless else 0)
