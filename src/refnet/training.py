"""Stage-wise training: pretrain, fit-anchors, finetune-m, train-b.

``run_stage`` is the one way to run a stage, ``STAGE_FREEZES`` the one
rule for what a stage keeps fixed, and ``STAGE_FIELDS`` the one list of the
``TrainConfig`` fields it reads, the flags its command offers. A stage takes
a checkpoint (except pretraining), works on a float32 copy of its parameters
so the input is never changed, freezes the groups ``STAGE_FREEZES`` names,
trains what remains, and emits a new checkpoint with the stage appended to
its provenance chain. Frozen groups are hashed before and after every
stage; a change aborts the run.

Checkpoint files are a self-describing binary container: magic ``RNCK``,
a little-endian uint32 format version, a little-endian uint64 header
length, the CRC-32 of everything after it, a JSON header (dims,
config, vocabularies, provenance, and a manifest of name/group/shape
per parameter), then the parameters as little-endian float32, concatenated
in manifest order: each entry starts where the one before it ends.

Stages compute in float32 (``COMPUTE_DTYPE``): ``run_stage`` and
``Checkpoint.load`` both return float32 stores, and the payload holds
exactly those values, so a stage's output round-trips bit-exactly. A wider
store is saved as its float32 rounding. ``load`` refuses a non-finite value.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import SPECIALS, Vocab, make_batches
from .errors import CheckpointError, NumericError, PrerequisiteError
from .lcc import fit_anchors
from .model import KINDS, TranslationModel
from .mrefnet import ANCHOR_KEY, collect_sentence_reprs, init_m_params, m_schema
from .brefnet import b_schema, init_b_params
from .params import Optimizer, ParamStore, backward
from .seq2seq import ModelDims, add_params, baseline_schema

MAGIC = b"RNCK"
FORMAT_VERSION = 3
PREAMBLE = 20  # magic, version, header length, CRC-32 of header + payload
HEADER_KEYS = ("kind", "stages", "dims", "config", "vocab_src", "vocab_tgt",
               "params", "payload_bytes")

COMPUTE_DTYPE = np.float32  # of every store a stage or a load returns
STAGES = ("pretrain", "fit-anchors", "finetune-m", "train-b")
STAGE_FREEZES = {
    "pretrain": (),
    "fit-anchors": ("encoder", "decoder"),
    "finetune-m": ("encoder", "anchors"),
    "train-b": ("encoder", "decoder", "anchors"),
}
_EPOCH_FIELDS = ("epochs", "batch_size", "lr", "drop_emb", "drop_out",
                 "clip_norm", "seed", "patience", "log_path")
STAGE_FIELDS = {  # the TrainConfig fields each stage reads
    "pretrain": _EPOCH_FIELDS,
    "fit-anchors": ("batch_size", "seed", "n_anchors", "l_alpha", "l_beta",
                    "fit_iters", "fit_lr", "fit_lr_decay", "fit_batch"),
    "finetune-m": _EPOCH_FIELDS,
    "train-b": _EPOCH_FIELDS + ("n_anchors", "d_a", "lam", "lam_m"),
}


def _knob(default, help_):
    """A ``TrainConfig`` field with the help text of its command-line flag."""
    return field(default=default, metadata={"help": help_})


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    epochs: int = _knob(30, "training epochs")
    batch_size: int = _knob(32, "sentences per batch")
    lr: float = _knob(1e-3, "learning rate")
    drop_emb: float = _knob(0.2, "dropout rate on embeddings")
    drop_out: float = _knob(0.3, "dropout rate on the output layer")
    clip_norm: float = _knob(1.0, "global gradient-norm clipping threshold")
    lam: float = _knob(1.0, "likelihood / hinge-loss balance")
    lam_m: float = _knob(1e-4, "weight-norm penalty inside the hinge loss")
    l_alpha: float = _knob(1.0, "reconstruction-term weight")
    l_beta: float = _knob(0.01, "anchor-spread-term weight")
    n_anchors: int = _knob(16, "number of anchor points")
    d_a: int = _knob(16, "bilingual anchor dimension")
    seed: int = _knob(42, "master random seed")
    patience: int = _knob(5, "early-stopping patience on dev loss")
    fit_iters: int = _knob(1500, "anchor fitting iterations")
    fit_lr: float = _knob(0.05, "anchor fitting step size")
    fit_lr_decay: float = _knob(0.997, "per-iteration step-size decay")
    fit_batch: int = _knob(256, "fitting mini-batch size (0: full batch)")
    log_path: str = _knob("", "append per-epoch TSV rows to this file")

    def __post_init__(self):
        # NaN passes every range check below: nan <= 0 is False
        bad = [f.name for f in fields(self) if isinstance(getattr(self, f.name), float)
               and not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs must be >= 0, batch_size >= 1, lr > 0")
        if not (0 <= self.drop_emb < 1 and 0 <= self.drop_out < 1):
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.n_anchors < 1 or self.d_a < 1:
            raise ValueError("n_anchors and d_a must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if min(self.seed, self.patience, self.fit_batch, self.fit_iters) < 0:
            raise ValueError("seed, patience, fit_batch and fit_iters must be >= 0")
        if self.fit_lr <= 0 or not 0 < self.fit_lr_decay <= 1:
            raise ValueError("fit_lr must be > 0 and fit_lr_decay in (0, 1]")
        if min(self.l_alpha, self.l_beta, self.lam, self.lam_m) < 0:
            raise ValueError("l_alpha, l_beta, lam and lam_m must be >= 0")


@dataclass
class Checkpoint:
    params: ParamStore
    dims: ModelDims
    config: TrainConfig
    kind: str
    stages: list
    vocab_src: Vocab
    vocab_tgt: Vocab
    history: list = field(default_factory=list, repr=False)  # not serialized

    def make_model(self) -> TranslationModel:
        return TranslationModel(self.params, self.dims, self.kind,
                                drop_emb=self.config.drop_emb,
                                drop_out=self.config.drop_out,
                                lam=self.config.lam, lam_m=self.config.lam_m)

    def save(self, path):
        manifest, payload = [], []
        for name, tensor in self.params.items():
            manifest.append({"name": name, "group": self.params.group_of(name),
                             "shape": list(tensor.data.shape)})
            # a float32 array is written as it is, a wider one rounded
            with np.errstate(over="ignore"):
                raw = np.ascontiguousarray(tensor.data, dtype="<f4")
            if not np.isfinite(raw).all():  # load would refuse the file
                raise NumericError(
                    f"parameter {name!r} holds values that are not finite "
                    f"in float32; not saving {path}")
            payload.append(raw)
        header = {
            "kind": self.kind,
            "stages": list(self.stages),
            "dims": self.dims.to_dict(),
            "config": asdict(self.config),
            "vocab_src": self.vocab_src.id_to_token,
            "vocab_tgt": self.vocab_tgt.id_to_token,
            "params": manifest,
            "payload_bytes": sum(raw.nbytes for raw in payload),
        }
        blob = json.dumps(header).encode("utf-8")
        crc = zlib.crc32(blob)
        for raw in payload:  # incremental: no joined copy of the payload
            crc = zlib.crc32(raw, crc)
        # a fresh name beside the target; O_CREAT applies the umask to 0o666,
        # as open() does, where mkstemp would make the file 0o600
        tmp = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", FORMAT_VERSION))
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(struct.pack("<I", crc))
                fh.write(blob)
                for raw in payload:
                    fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def load(cls, path):
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
        if len(blob) < PREAMBLE or blob[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", blob[4:8])
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} != supported {FORMAT_VERSION}")
        (hlen,) = struct.unpack("<Q", blob[8:16])
        view = memoryview(blob)  # slices of a view share the file's bytes
        if struct.pack("<I", zlib.crc32(view[PREAMBLE:])) != blob[16:PREAMBLE]:
            raise CheckpointError(
                f"{path}: checksum mismatch: the file is corrupt or truncated")
        if len(blob) < PREAMBLE + hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(blob[PREAMBLE:PREAMBLE + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt header: {e}") from e
        missing = ([k for k in HEADER_KEYS if k not in header]
                   if isinstance(header, dict) else list(HEADER_KEYS))
        if missing:
            raise CheckpointError(f"{path}: header lacks {missing}")
        if header["kind"] not in KINDS:
            raise CheckpointError(f"{path}: unknown model kind {header['kind']!r}")
        payload = view[PREAMBLE + hlen:]
        if len(payload) != header["payload_bytes"]:
            raise CheckpointError(
                f"{path}: truncated payload ({len(payload)} of "
                f"{header['payload_bytes']} bytes)")
        try:
            dims = ModelDims(**header["dims"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad dims {header['dims']!r}: {e}") from e
        if not isinstance(header["params"], list):
            raise CheckpointError(f"{path}: the parameter manifest is not a list")
        params, start = ParamStore(COMPUTE_DTYPE), 0  # entries tile the payload
        for entry in header["params"]:
            try:
                name, group = entry["name"], entry["group"]
                shape = tuple(int(d) for d in entry["shape"])
                if not (isinstance(name, str) and isinstance(group, str)):
                    raise TypeError("name or group is not a string")
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise CheckpointError(f"{path}: bad manifest entry {entry!r}") from e
            n = math.prod(shape)
            if min(shape, default=0) < 0 or start + 4 * n > len(payload):
                raise CheckpointError(
                    f"{path}: parameter {name!r} (shape {list(shape)}) overruns "
                    f"the {len(payload)}-byte payload")
            arr = np.frombuffer(payload, dtype="<f4", count=n,
                                offset=start).reshape(shape)
            start += 4 * n
            try:  # add copies the array out of the file's bytes
                value = params.add(name, arr, group).data
            except ValueError as e:  # duplicate name or unknown group
                raise CheckpointError(f"{path}: {e}") from e
            if not np.isfinite(value).all():
                raise CheckpointError(
                    f"{path}: parameter {name!r} holds non-finite values")
        if start != len(payload):
            raise CheckpointError(
                f"{path}: {len(payload) - start} bytes of the "
                f"{len(payload)}-byte payload follow the last parameter")
        try:
            stages = _strings(header["stages"])
            if not set(stages) <= set(STAGES):
                raise ValueError(f"unknown stages in {stages}")
            vocab_src = _vocab(header, dims, "vocab_src")
            vocab_tgt = _vocab(header, dims, "vocab_tgt")
            config = TrainConfig(**header["config"])
        except (AttributeError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad header: {e}") from e
        _check_schema(path, params, header["kind"], stages, dims, config)
        return cls(params, dims, config, header["kind"], stages, vocab_src,
                   vocab_tgt)


def param_schema(kind, stages, dims: ModelDims, config: TrainConfig):
    """name -> (shape, group) of every parameter a checkpoint of this kind,
    stage chain and config holds, from the tables the ``init_*`` functions
    draw from; None in a shape is an extent of at least 1."""
    table = baseline_schema(dims)
    if kind == "m_ref":
        table += m_schema(dims)
    elif kind == "b_ref":
        table += b_schema(dims, config.n_anchors, config.d_a)
    schema = {name: (shape, group) for name, shape, group, _ in table}
    if "fit-anchors" in stages:
        schema[ANCHOR_KEY] = ((None, 2 * dims.d_h), "anchors")
    return schema


def _check_schema(path, params, kind, stages, dims, config):
    schema = param_schema(kind, stages, dims, config)
    missing = [name for name in schema if name not in params]
    unexpected = [name for name in params.names() if name not in schema]
    if missing or unexpected:
        raise CheckpointError(
            f"{path}: a {kind} checkpoint after {' -> '.join(stages)} "
            f"lacks {missing} and holds unexpected {unexpected}")
    for name, (shape, group) in schema.items():
        actual = params[name].shape
        if (params.group_of(name) != group or len(actual) != len(shape)
                or any(a < 1 if s is None else a != s
                       for s, a in zip(shape, actual))):
            raise CheckpointError(
                f"{path}: parameter {name!r} is {list(actual)} in group "
                f"{params.group_of(name)!r}; its {kind} schema says "
                f"{['*' if s is None else s for s in shape]} in {group!r}")


def _strings(value):
    """A header list of strings, checked."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of strings, got {value!r:.60}")
    return list(value)


def _vocab(header, dims, key):
    """The header's vocabulary ``key``, checked against its ``dims`` size."""
    tokens, size = _strings(header[key]), getattr(dims, key)
    if len(tokens) != size:
        raise ValueError(f"{key} holds {len(tokens)} tokens; dims say {size}")
    vocab = Vocab(tokens[len(SPECIALS):])
    if vocab.id_to_token != tokens:
        raise ValueError(f"{key} does not list {list(SPECIALS)} first and "
                         f"only there")
    return vocab


# ---------------------------------------------------------------------------
# the shared epoch loop

def _log_line(config, row):
    line = (f"{row['epoch']}\t{row['stage']}\t{row['train_loss']:.6f}\t"
            f"{row['dev_loss']:.6f}\t{row['seconds']:.2f}")
    print(line)
    if config.log_path:
        with open(config.log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


# NumPy's overflow and invalid-value warnings are off: ``Optimizer.update``
# checks each step's loss and parameters, the loop the dev loss. The loop
# calls ``backward`` and ``make_batches`` itself: bench/ rebinds both here.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_epochs(model: TranslationModel, stage, corpus_train, corpus_dev,
                 vocab_src, vocab_tgt, config: TrainConfig):
    """Run the optimization loop; returns per-epoch history rows.

    Shuffling and dropout are reseeded deterministically from
    (seed, epoch); dev loss is evaluated with dropout disabled; early
    stopping restores the best-dev parameters. Besides the losses, a row
    holds the epoch's mean pre-clip global gradient norm (``grad_norm``)
    and the fraction of its steps that clipping changed (``clipped_frac``).
    """
    params = model.params
    opt = Optimizer(config.lr)
    dev_batches = make_batches(corpus_dev, config.batch_size, vocab_src, vocab_tgt)
    history = []
    best_dev, best_snap, since_best = np.inf, None, 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng((config.seed, epoch, 29))
        batches = make_batches(corpus_train, config.batch_size, vocab_src,
                               vocab_tgt, shuffle_seed=(config.seed, epoch, 17))
        tok_nll, tok_count, lm_sum = 0.0, 0.0, 0.0
        norm_sum, n_clipped = 0.0, 0
        for index, batch in enumerate(batches):
            parts = model.loss(batch, training=True, rng=rng)
            norm, clipped = opt.update(
                params, parts.joint, backward(parts.joint, params), stage,
                f"epoch {epoch}, batch {index}", config.clip_norm)
            norm_sum += norm
            n_clipped += clipped
            tok_nll += parts.nll_token_mean * parts.n_tokens
            tok_count += parts.n_tokens
            if parts.l_m is not None:
                lm_sum += parts.l_m * len(batch)
        train_loss = tok_nll / tok_count
        dev_loss = model.dev_loss(dev_batches)
        if not np.isfinite(dev_loss):
            raise NumericError(f"{stage}: non-finite dev loss at epoch {epoch}")
        row = {"epoch": epoch, "stage": stage, "train_loss": train_loss,
               "dev_loss": dev_loss, "seconds": time.perf_counter() - t0,
               "grad_norm": norm_sum / len(batches),
               "clipped_frac": n_clipped / len(batches)}
        if lm_sum:
            row["train_l_m"] = lm_sum / len(corpus_train)
        history.append(row)
        _log_line(config, row)
        if dev_loss < best_dev - 1e-12:
            best_dev, best_snap, since_best = dev_loss, params.snapshot(), 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    if best_snap is not None:
        params.restore(best_snap)
    return history


# ---------------------------------------------------------------------------
# stages

def run_stage(stage, ckpt: Checkpoint | None, corpus_train, corpus_dev,
              config: TrainConfig, vocab_src=None, vocab_tgt=None,
              dims: ModelDims | None = None) -> Checkpoint:
    """Run one protocol stage on a float32 copy of ``ckpt``'s parameters.

    pretrain takes no checkpoint but the vocabularies and dims, and trains
    the baseline from random initialization. fit-anchors fits monolingual
    anchors to the pooled encoder states of ``corpus_train``. finetune-m
    tunes the decoder and the added monolingual group; train-b trains the
    bilingual group against the joint objective. Both added groups start
    with a zero extra-input projection, so their first step starts exactly
    from the baseline optimum. While the stage works, the groups in
    ``STAGE_FREEZES[stage]`` are frozen; afterwards their digests must
    match the input's, or the run aborts.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if config.stage != stage:
        raise ValueError(f"cannot run stage {stage!r} with a config for stage "
                         f"{config.stage!r}")
    if stage == "pretrain":
        ckpt = Checkpoint(ParamStore(), dims, config, "baseline", [],
                          vocab_src, vocab_tgt)
    elif ckpt is None:
        raise PrerequisiteError(f"{stage} requires an input checkpoint")
    elif "pretrain" not in ckpt.stages:
        raise PrerequisiteError(f"{stage} requires a pretrained checkpoint")
    elif stage == "fit-anchors" and ANCHOR_KEY in ckpt.params:
        raise PrerequisiteError("checkpoint already carries a fitted anchor set")
    elif stage == "finetune-m" and ANCHOR_KEY not in ckpt.params:
        raise PrerequisiteError("finetune-m requires a fitted anchor set "
                                "(run fit-anchors first)")
    elif stage == "finetune-m" and ckpt.kind != "baseline":
        raise PrerequisiteError(f"cannot fine-tune a {ckpt.kind!r} checkpoint")
    elif stage == "train-b" and ckpt.kind != "baseline":
        raise PrerequisiteError(f"cannot train-b on a {ckpt.kind!r} checkpoint")
    kind = {"finetune-m": "m_ref", "train-b": "b_ref"}.get(stage, ckpt.kind)
    out = Checkpoint(ckpt.params.copy(COMPUTE_DTYPE), ckpt.dims, config, kind,
                     ckpt.stages + [stage], ckpt.vocab_src, ckpt.vocab_tgt)
    params, frozen = out.params, STAGE_FREEZES[stage]
    before = {g: params.group_digest(g) for g in frozen}
    if stage == "pretrain":
        add_params(params, baseline_schema(dims),
                   np.random.default_rng(config.seed))
    elif stage == "finetune-m":
        init_m_params(params, out.dims, np.random.default_rng((config.seed, 3)))
    elif stage == "train-b":
        init_b_params(params, out.dims, config.n_anchors, config.d_a,
                      np.random.default_rng((config.seed, 5)))
    params.freeze(*frozen)
    if stage == "fit-anchors":
        reprs = collect_sentence_reprs(params, out.dims, corpus_train,
                                       out.vocab_src, out.vocab_tgt,
                                       batch_size=config.batch_size)
        result = fit_anchors(reprs, config)
        # only the points are kept; the score net that fitted them is not
        params.add(ANCHOR_KEY, result.points, "anchors")
        out.history = [{"stage": stage, "initial_measure": result.initial_measure,
                        "final_measure": result.final_measure}]
    else:
        out.history = train_epochs(out.make_model(), stage, corpus_train,
                                   corpus_dev, out.vocab_src, out.vocab_tgt,
                                   config)
    params.unfreeze(*frozen)
    for g, digest in before.items():
        if params.group_digest(g) != digest:
            raise RuntimeError(
                f"internal error: frozen group {g!r} changed during {stage}")
    return out
