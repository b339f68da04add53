"""Command-line entry points binding corpora, training stages, and scoring.

Exit codes: 0 ok, 1 usage, 2 configuration, 3 missing prerequisite,
4 numeric failure. Every flag can also be given in a flat ``key=value``
config file (one pair per line, ``#`` comments), read as the flags it
names; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import corpus as corpus_mod
from . import evaluation, gradcheck
from .errors import CheckpointError, ConfigError, NumericError, PrerequisiteError
from .seq2seq import ModelDims
from .training import STAGE_FIELDS, Checkpoint, TrainConfig, run_stage

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_PREREQ, EXIT_NUMERIC = 0, 1, 2, 3, 4
TRANSLATE_CHUNK = 64  # source lines `translate` decodes together


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _read_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = value
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return values


def _splice_config(parser, argv):
    """argv with the ``--config`` file's pairs put in as flags right after
    the subcommand: argparse checks them as it checks typed flags, and the
    flags typed on the command line come later, so they win."""
    pre = _Parser(prog="refnet", add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    at = next((i for i, tok in enumerate(argv) if tok in sub.choices), None)
    if not known.config or at is None:
        return argv
    target = sub.choices[argv[at]]
    actions = {a.dest: a for a in target._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = _read_config_file(known.config)
    unknown = set(values) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in values.items():
        action = actions[key]
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch: key=true turns it on
            if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                target.error(f"argument {flag}: expected true or false, "
                             f"got {value!r}")
            if value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        elif action.nargs == "+":
            tokens += [flag, *value.split()]
        else:
            tokens.append(f"{flag}={value}")
    return argv[:at + 1] + tokens + argv[at + 1:]


def _add_train_flags(p, stage):
    splits = ("train",) if stage == "fit-anchors" else ("train", "dev")
    for split in splits:
        for side, word in (("src", "source"), ("tgt", "target")):
            p.add_argument(f"--{split}-{side}", required=True,
                           help=f"{split} {word} file")
    if stage != "pretrain":
        p.add_argument("--ckpt-in", required=True, help="input checkpoint path")
    p.add_argument("--ckpt-out", required=True, help="output checkpoint path")
    p.add_argument("--filter-len", type=int, default=50,
                   help="drop pairs with a side longer than this")
    knobs = {f.name: f for f in fields(TrainConfig)}
    for name in STAGE_FIELDS[stage]:  # each typed and defaulted by its field
        default = knobs[name].default
        flag = "--log" if name == "log_path" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, type=type(default), default=default,
                       help=knobs[name].metadata["help"])


def _train_config(args, stage):
    """The stage's checked config; its output files must be writable."""
    _check_writable("--ckpt-out", args.ckpt_out)
    values = {name: getattr(args, name) for name in STAGE_FIELDS[stage]}
    if values.get("log_path"):
        _check_writable("--log", values["log_path"])
    try:
        return TrainConfig(stage=stage, **values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _check_writable(flag, path):
    """Refuse an output path that is a directory, or lies in a missing or
    read-only one, before any work is done."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(directory)
                                   and os.access(directory, os.W_OK)):
        raise ConfigError(f"{flag} {path}: not a file path in an existing, "
                          f"writable directory")


def _load_parallel(src, tgt, max_len):
    """The pairs of src / tgt with no side longer than max_len; refuses a
    corpus that this leaves empty."""
    try:
        corpus = corpus_mod.ParallelCorpus.load(src, tgt)
        corpus = corpus_mod.filter_by_length(corpus, max_len)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    if len(corpus) == 0:
        raise ConfigError(f"{src} / {tgt}: no sentence pairs with both sides "
                          f"within --filter-len {max_len}")
    return corpus


def build_parser():
    parser = _Parser(prog="refnet",
                     description="attention NMT with anchor-coded global context",
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def subparser(name, help_):
        # no prefix matching: train's --d-att would take a --d-a, a flag only
        # train-b has, which must stay an unknown flag on train
        p = sub.add_parser(name, help=help_, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="flat key=value config file")
        return p

    p = subparser("synth", "write a synthetic parallel corpus")
    p.add_argument("--kind", default="copy",
                   choices=["copy", "reverse", "cipher-reverse"],
                   help="task mapping")
    p.add_argument("--vocab-size", type=int, default=50, help="token inventory size")
    p.add_argument("--pairs", type=int, default=1000, help="sentence pairs to generate")
    p.add_argument("--min-len", type=int, default=3, help="shortest source length")
    p.add_argument("--max-len", type=int, default=12, help="longest source length")
    p.add_argument("--seed", type=int, default=42, help="generation seed")
    p.add_argument("--out", required=True, help="prefix for .src / .tgt files")
    p.add_argument("--splits", default="",
                   help="comma-separated sizes, e.g. 2000,200,200: generate one "
                        "corpus (one substitution table) and write "
                        "<out>.train/.dev/.test portions")

    p = subparser("train", "pretrain the baseline model")
    _add_train_flags(p, "pretrain")
    p.add_argument("--d-e", type=int, default=32, help="embedding size")
    p.add_argument("--d-h", type=int, default=64, help="hidden size")
    p.add_argument("--d-att", type=int, default=0, help="attention size (0: d_h)")
    p.add_argument("--d-out", type=int, default=0, help="readout size (0: d_e)")
    p.add_argument("--vocab-max", type=int, default=30000)
    p.add_argument("--min-count", type=int, default=1)

    _add_train_flags(subparser("fit-anchors",
                               "fit monolingual anchors to a checkpoint"),
                     "fit-anchors")
    for name in ("finetune-m", "train-b"):
        _add_train_flags(subparser(name, f"run the {name} stage"), name)

    p = subparser("translate", "decode a source file with beam search")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--src", required=True, help="source sentences to decode")
    p.add_argument("--out", required=True, help="hypothesis output file")
    p.add_argument("--beam", type=int, default=10, help="beam width")
    p.add_argument("--max-steps", type=int, default=0,
                   help="decode step budget (0: 2*len+5)")
    p.add_argument("--no-length-norm", action="store_true",
                   help="rank beam hypotheses by raw log-probability")

    p = subparser("evaluate", "corpus BLEU (and optional length buckets)")
    p.add_argument("--hyp", required=True, help="hypothesis file")
    p.add_argument("--refs", required=True, nargs="+", help="reference file(s)")
    p.add_argument("--case-insensitive", action="store_true",
                   help="lowercase before scoring")
    p.add_argument("--src", default="",
                   help="source file; enables the length-bucket report")
    p.add_argument("--bucket-width", type=int, default=10,
                   help="source-length bucket width")

    p = subparser("gradcheck", "complex-step gradient validation suite")
    p.add_argument("--seeds", type=int, default=5,
                   help="random restarts per checked operation")

    p = subparser("params", "per-group parameter counts of a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint to count")
    p.add_argument("--full-scale-reference", action="store_true",
                   help="print the reported full-scale counts alongside")

    return parser


@functools.cache
def _shared_parser():
    """The parser every ``main`` call reuses: building it takes longer than
    parsing a command line."""
    return build_parser()


# ---------------------------------------------------------------------------
# command bodies

def _cmd_synth(args):
    if args.min_len > args.max_len:
        raise ConfigError("min-len must not exceed max-len")
    _check_writable("--out", args.out + ".src")
    try:
        sizes = [int(s) for s in args.splits.split(",")] if args.splits else []
    except ValueError as e:
        raise ConfigError(f"--splits must be comma-separated integers: {e}") from e
    if len(sizes) > 4 or any(s < 1 for s in sizes):
        raise ConfigError("--splits takes 1-4 positive sizes")
    if not sizes and args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    try:
        corpus = corpus_mod.generate_synthetic_task(
            args.kind, args.vocab_size, sum(sizes) if sizes else args.pairs,
            (args.min_len, args.max_len), args.seed)
    except ValueError as e:  # a vocabulary too small for the task, a bad seed
        raise ConfigError(str(e)) from e
    if not sizes:
        corpus.save(args.out + ".src", args.out + ".tgt")
        print(f"wrote {len(corpus)} pairs to {args.out}.src / {args.out}.tgt")
    start = 0
    for name, size in zip(["train", "dev", "test", "extra"], sizes):
        part = corpus_mod.ParallelCorpus(corpus.pairs[start: start + size])
        part.save(f"{args.out}.{name}.src", f"{args.out}.{name}.tgt")
        print(f"wrote {size} pairs to {args.out}.{name}.src / .tgt")
        start += size


def _cmd_stage(args, stage):
    config = _train_config(args, stage)
    ckpt = None if stage == "pretrain" else Checkpoint.load(args.ckpt_in)
    train = _load_parallel(args.train_src, args.train_tgt, args.filter_len)
    dev = None
    if stage != "fit-anchors":
        dev = _load_parallel(args.dev_src, args.dev_tgt, args.filter_len)
    fresh = {}  # pretrain's vocabularies and dims, from its corpus and flags
    if stage == "pretrain":
        try:
            vocab_src, vocab_tgt = (
                corpus_mod.build_vocab(side, args.vocab_max, args.min_count)
                for side in (train.sources(), train.targets()))
            fresh = dict(vocab_src=vocab_src, vocab_tgt=vocab_tgt, dims=ModelDims(
                vocab_src=len(vocab_src), vocab_tgt=len(vocab_tgt), d_e=args.d_e,
                d_h=args.d_h, d_att=args.d_att, d_out=args.d_out))
        except ValueError as e:
            raise ConfigError(str(e)) from e
    out = run_stage(stage, ckpt, train, dev, config, **fresh)
    out.save(args.ckpt_out)
    print(f"saved checkpoint to {args.ckpt_out} (stages: {' -> '.join(out.stages)})")


def _cmd_translate(args):
    if args.beam < 1:
        raise ConfigError(f"--beam must be >= 1, got {args.beam}")
    if args.max_steps < 0:
        raise ConfigError(f"--max-steps must be >= 0, got {args.max_steps}")
    _check_writable("--out", args.out)
    ckpt = Checkpoint.load(args.ckpt)
    model = ckpt.make_model()
    try:
        sources = corpus_mod.read_sentences(args.src)
    except OSError as e:
        raise ConfigError(str(e)) from e
    hyps = [[] for _ in sources]  # an empty line keeps its place in the output
    lines = [i for i, tokens in enumerate(sources) if tokens]
    for start in range(0, len(lines), TRANSLATE_CHUNK):
        chunk = lines[start: start + TRANSLATE_CHUNK]
        outs = model.translate_batch(
            [ckpt.vocab_src.encode(sources[i]) for i in chunk], beam=args.beam,
            max_steps=args.max_steps or None,
            length_normalize=not args.no_length_norm)
        for i, out_ids in zip(chunk, outs):
            hyps[i] = ckpt.vocab_tgt.decode(out_ids)
    corpus_mod.write_sentences(args.out, hyps)
    print(f"translated {len(hyps)} sentences to {args.out}")


def _cmd_evaluate(args):
    case_sensitive = not args.case_insensitive
    buckets = None
    try:
        report = evaluation.bleu_files(args.hyp, args.refs,
                                       case_sensitive=case_sensitive)
        if args.src:
            sources = corpus_mod.read_sentences(args.src)
            hyps = corpus_mod.read_sentences(args.hyp)
            if len(sources) != len(hyps):
                raise ValueError(f"{args.src} has {len(sources)} lines but "
                                 f"{args.hyp} has {len(hyps)}")
            refs = [corpus_mod.read_sentences(p) for p in args.refs]
            ref_sets = [[r[i] for r in refs] for i in range(len(hyps))]
            buckets = evaluation.length_buckets(
                sources, hyps, ref_sets, bucket_width=args.bucket_width,
                case_sensitive=case_sensitive)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    print(report.pretty())
    if buckets is not None:
        print(buckets.pretty())


def _cmd_gradcheck(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    results = gradcheck.run_suite(seeds=range(args.seeds))
    print(gradcheck.suite_report(results))
    if not all(r.passed for r in results):
        raise NumericError("gradient checks failed")
    print("all gradient checks passed")


def _cmd_params(args):
    ckpt = Checkpoint.load(args.ckpt)
    report = evaluation.param_report(ckpt.params)
    print(report.pretty(show_reference=args.full_scale_reference))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        args = parser.parse_args(_splice_config(parser, argv))
        if args.command == "synth":
            _cmd_synth(args)
        elif args.command in ("train", "fit-anchors", "finetune-m", "train-b"):
            _cmd_stage(args, {"train": "pretrain"}.get(args.command, args.command))
        elif args.command == "translate":
            _cmd_translate(args)
        elif args.command == "evaluate":
            _cmd_evaluate(args)
        elif args.command == "gradcheck":
            _cmd_gradcheck(args)
        elif args.command == "params":
            _cmd_params(args)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (PrerequisiteError, CheckpointError) as e:
        print(f"prerequisite error: {e}", file=sys.stderr)
        return EXIT_PREREQ
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
