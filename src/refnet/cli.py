"""Command-line entry points binding corpora, training stages, and scoring.

Exit codes: 0 ok, 1 usage, 2 configuration, 3 missing prerequisite,
4 numeric failure. Every flag can also be given in a flat ``key=value``
config file (one pair per line, ``#`` comments); explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, gradcheck
from .errors import CheckpointError, ConfigError, NumericError, PrerequisiteError
from .seq2seq import ModelDims
from .training import Checkpoint, TrainConfig, run_stage

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


def _apply_config_file(parser, argv):
    """Use config-file values as subcommand defaults so flags keep priority."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    command = next((tok for tok in argv if tok in sub_action.choices), None)
    target = sub_action.choices[command] if command else parser
    values = _read_config_file(known.config)
    valid = {a.dest for a in target._actions}
    unknown = set(values) - valid - {"config"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    typed = {}
    for action in target._actions:
        if action.dest in values:
            raw = values[action.dest]
            if action.type is not None:
                typed[action.dest] = action.type(raw)
            elif isinstance(action.const, bool) or isinstance(action.default, bool):
                typed[action.dest] = raw.lower() in ("1", "true", "yes")
            else:
                typed[action.dest] = raw
    target.set_defaults(**typed)


def _add_train_flags(p, stage):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--epochs", type=int, default=30, help="training epochs")
    p.add_argument("--batch-size", type=int, default=32, help="sentences per batch")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--optimizer", default="adam", choices=["adam", "sgd"],
                   help="update rule")
    p.add_argument("--drop-emb", type=float, default=0.2,
                   help="dropout rate on embeddings")
    p.add_argument("--drop-out", type=float, default=0.3,
                   help="dropout rate on the output layer")
    p.add_argument("--clip-norm", type=float, default=1.0,
                   help="gradient clipping threshold")
    p.add_argument("--clip-mode", default="norm", choices=["norm", "value"],
                   help="clip the global norm or each element")
    p.add_argument("--seed", type=int, default=42, help="master random seed")
    p.add_argument("--patience", type=int, default=5,
                   help="early-stopping patience on dev loss")
    p.add_argument("--log", dest="log_path", default="",
                   help="append per-epoch TSV rows to this file")
    if stage in ("fit-anchors", "train-b"):
        p.add_argument("--n-anchors", type=int,
                       default=16 if stage == "fit-anchors" else 8,
                       help="number of anchor points")
    if stage == "fit-anchors":
        p.add_argument("--l-alpha", type=float, default=1.0,
                       help="reconstruction-term weight")
        p.add_argument("--l-beta", type=float, default=0.01,
                       help="anchor-spread-term weight")
        p.add_argument("--fit-iters", type=int, default=1500,
                       help="anchor fitting iterations")
        p.add_argument("--fit-lr", type=float, default=0.05,
                       help="anchor fitting step size")
        p.add_argument("--fit-lr-decay", type=float, default=0.997,
                       help="per-iteration step-size decay")
        p.add_argument("--fit-batch", type=int, default=256,
                       help="fitting mini-batch size (0: full batch)")
    if stage == "train-b":
        p.add_argument("--lam", type=float, default=1.0,
                       help="likelihood / hinge-loss balance")
        p.add_argument("--lam-m", type=float, default=1e-4,
                       help="weight-norm penalty inside the hinge loss")
        p.add_argument("--d-a", type=int, default=16,
                       help="bilingual anchor dimension")


def _train_config(args, stage):
    kw = dict(stage=stage, epochs=args.epochs, batch_size=args.batch_size,
              lr=args.lr, optimizer=args.optimizer, drop_emb=args.drop_emb,
              drop_out=args.drop_out, clip_norm=args.clip_norm,
              clip_mode=args.clip_mode, seed=args.seed, patience=args.patience,
              log_path=args.log_path)
    for name in ("n_anchors", "l_alpha", "l_beta", "fit_iters", "fit_lr",
                 "fit_lr_decay", "fit_batch", "lam", "lam_m", "d_a"):
        if hasattr(args, name):
            kw[name] = getattr(args, name)
    try:
        return TrainConfig(**kw)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _load_parallel(src, tgt, max_len):
    try:
        corpus = corpus_mod.ParallelCorpus.load(src, tgt)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    return corpus_mod.filter_by_length(corpus, max_len)


def build_parser():
    parser = _Parser(prog="refnet",
                     description="attention NMT with anchor-coded global context",
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def subparser(name, help_):
        return sub.add_parser(name, help=help_,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = subparser("synth", "write a synthetic parallel corpus")
    p.add_argument("--config")
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
    p.add_argument("--train-src", required=True, help="training source file")
    p.add_argument("--train-tgt", required=True, help="training target file")
    p.add_argument("--dev-src", required=True, help="dev source file")
    p.add_argument("--dev-tgt", required=True, help="dev target file")
    p.add_argument("--ckpt-out", required=True, help="output checkpoint path")
    p.add_argument("--d-e", type=int, default=32, help="embedding size")
    p.add_argument("--d-h", type=int, default=64, help="hidden size")
    p.add_argument("--d-att", type=int, default=0, help="attention size (0: d_h)")
    p.add_argument("--d-out", type=int, default=0, help="readout size (0: d_e)")
    p.add_argument("--cell", default="gru", choices=["gru", "tanh"])
    p.add_argument("--vocab-max", type=int, default=30000)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--filter-len", type=int, default=50,
                   help="drop pairs with a side longer than this")

    p = subparser("fit-anchors", "fit monolingual anchors to a checkpoint")
    _add_train_flags(p, "fit-anchors")
    p.add_argument("--train-src", required=True, help="training source file")
    p.add_argument("--train-tgt", required=True, help="training target file")
    p.add_argument("--ckpt-in", required=True, help="input checkpoint path")
    p.add_argument("--ckpt-out", required=True, help="output checkpoint path")
    p.add_argument("--filter-len", type=int, default=50,
                   help="drop pairs with a side longer than this")

    for name in ("finetune-m", "train-b"):
        p = subparser(name, f"run the {name} stage")
        _add_train_flags(p, name)
        p.add_argument("--train-src", required=True, help="training source file")
        p.add_argument("--train-tgt", required=True, help="training target file")
        p.add_argument("--dev-src", required=True, help="dev source file")
        p.add_argument("--dev-tgt", required=True, help="dev target file")
        p.add_argument("--ckpt-in", required=True, help="input checkpoint path")
        p.add_argument("--ckpt-out", required=True, help="output checkpoint path")
        p.add_argument("--filter-len", type=int, default=50,
                   help="drop pairs with a side longer than this")

    p = subparser("translate", "decode a source file with beam search")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--src", required=True, help="source sentences to decode")
    p.add_argument("--out", required=True, help="hypothesis output file")
    p.add_argument("--beam", type=int, default=10, help="beam width")
    p.add_argument("--max-steps", type=int, default=0,
                   help="decode step budget (0: 2*len+5)")
    p.add_argument("--no-length-norm", action="store_true",
                   help="rank beam hypotheses by raw log-probability")

    p = subparser("evaluate", "corpus BLEU (and optional length buckets)")
    p.add_argument("--config")
    p.add_argument("--hyp", required=True, help="hypothesis file")
    p.add_argument("--refs", required=True, nargs="+", help="reference file(s)")
    p.add_argument("--case-insensitive", action="store_true",
                   help="lowercase before scoring")
    p.add_argument("--src", default="",
                   help="source file; enables the length-bucket report")
    p.add_argument("--bucket-width", type=int, default=10,
                   help="source-length bucket width")

    p = subparser("gradcheck", "finite-difference validation suite")
    p.add_argument("--config")
    p.add_argument("--seeds", type=int, default=5,
                   help="random restarts per checked operation")

    p = subparser("params", "per-group parameter counts of a checkpoint")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True, help="checkpoint to count")
    p.add_argument("--full-scale-reference", action="store_true",
                   help="print the reported full-scale counts alongside")

    return parser


# ---------------------------------------------------------------------------
# command bodies

def _cmd_synth(args):
    if args.min_len > args.max_len:
        raise ConfigError("min-len must not exceed max-len")
    if not args.splits:
        corpus = corpus_mod.generate_synthetic_task(
            args.kind, args.vocab_size, args.pairs, (args.min_len, args.max_len),
            args.seed)
        corpus.save(args.out + ".src", args.out + ".tgt")
        print(f"wrote {len(corpus)} pairs to {args.out}.src / {args.out}.tgt")
        return
    try:
        sizes = [int(s) for s in args.splits.split(",")]
    except ValueError as e:
        raise ConfigError(f"--splits must be comma-separated integers: {e}") from e
    names = ["train", "dev", "test", "extra"][: len(sizes)]
    if len(sizes) > 4 or any(s < 1 for s in sizes):
        raise ConfigError("--splits takes 1-4 positive sizes")
    corpus = corpus_mod.generate_synthetic_task(
        args.kind, args.vocab_size, sum(sizes), (args.min_len, args.max_len),
        args.seed)
    start = 0
    for name, size in zip(names, sizes):
        part = corpus_mod.ParallelCorpus(corpus.pairs[start: start + size])
        part.save(f"{args.out}.{name}.src", f"{args.out}.{name}.tgt")
        print(f"wrote {size} pairs to {args.out}.{name}.src / .tgt")
        start += size


def _cmd_train(args):
    config = _train_config(args, "pretrain")
    train = _load_parallel(args.train_src, args.train_tgt, args.filter_len)
    dev = _load_parallel(args.dev_src, args.dev_tgt, args.filter_len)
    if len(train) == 0:
        raise ConfigError("training corpus is empty after length filtering")
    vocab_src = corpus_mod.build_vocab(train.sources(), args.vocab_max, args.min_count)
    vocab_tgt = corpus_mod.build_vocab(train.targets(), args.vocab_max, args.min_count)
    dims = ModelDims(vocab_src=len(vocab_src), vocab_tgt=len(vocab_tgt),
                     d_e=args.d_e, d_h=args.d_h, d_att=args.d_att,
                     d_out=args.d_out, cell=args.cell)
    ckpt = run_stage("pretrain", None, train, dev, config,
                     vocab_src=vocab_src, vocab_tgt=vocab_tgt, dims=dims)
    ckpt.save(args.ckpt_out)
    print(f"saved checkpoint to {args.ckpt_out}")


def _cmd_stage(args, stage):
    config = _train_config(args, stage)
    ckpt = Checkpoint.load(args.ckpt_in)
    train = _load_parallel(args.train_src, args.train_tgt, args.filter_len)
    dev = None
    if stage != "fit-anchors":
        dev = _load_parallel(args.dev_src, args.dev_tgt, args.filter_len)
    out = run_stage(stage, ckpt, train, dev, config)
    out.save(args.ckpt_out)
    print(f"saved checkpoint to {args.ckpt_out} (stages: {' -> '.join(out.stages)})")


def _cmd_translate(args):
    if args.beam < 1:
        raise ConfigError(f"--beam must be >= 1, got {args.beam}")
    if args.max_steps < 0:
        raise ConfigError(f"--max-steps must be >= 0, got {args.max_steps}")
    ckpt = Checkpoint.load(args.ckpt)
    model = ckpt.make_model(drop_emb=0.0, drop_out=0.0)
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
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.command == "synth":
            _cmd_synth(args)
        elif args.command == "train":
            _cmd_train(args)
        elif args.command in ("fit-anchors", "finetune-m", "train-b"):
            _cmd_stage(args, args.command)
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
