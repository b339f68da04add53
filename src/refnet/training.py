"""Stage-wise training: pretrain, fit-anchors, finetune-m, train-b.

Each stage takes a checkpoint (except pretraining), works on a copy of its
parameters so the input is never changed, freezes the groups the protocol
says stay fixed, trains what remains, and emits a new checkpoint with the
stage appended to its provenance chain. Frozen groups are hashed
before and after every stage; a change aborts the run.

Checkpoint files are a self-describing binary container: magic ``RNCK``,
a little-endian uint32 format version, a little-endian uint64 header
length, a JSON header (dims, config, vocabularies, provenance, and a
manifest of name/group/shape/offset per parameter), then the concatenated
float64 little-endian payload. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import ParallelCorpus, Vocab, make_batches
from .errors import CheckpointError, NumericError, PrerequisiteError
from .lcc import AnchorFitConfig, LccConfig, fit_anchors
from .model import KINDS, TranslationModel
from .mrefnet import add_anchor_params, collect_sentence_reprs, init_m_params
from .brefnet import init_b_params
from .params import (Optimizer, OptimizerConfig, ParamStore, backward,
                     clip_gradient_norm, clip_gradient_value)
from .seq2seq import ModelDims, init_baseline_params

MAGIC = b"RNCK"
FORMAT_VERSION = 1
HEADER_KEYS = ("kind", "stages", "dims", "config", "vocab_src", "vocab_tgt",
               "params", "payload_bytes")

STAGES = ("pretrain", "fit-anchors", "finetune-m", "train-b")
STAGE_FREEZES = {
    "pretrain": (),
    "fit-anchors": ("encoder", "decoder"),
    "finetune-m": ("encoder", "anchors"),
    "train-b": ("encoder", "decoder", "anchors"),
}


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"        # "adam" | "sgd"
    drop_emb: float = 0.2
    drop_out: float = 0.3
    clip_norm: float = 1.0
    clip_mode: str = "norm"        # "norm" | "value"
    lam: float = 1.0               # likelihood / hinge balance
    lam_m: float = 1e-4            # weight-norm penalty inside the hinge loss
    l_alpha: float = 1.0
    l_beta: float = 0.01
    n_anchors: int = 16
    d_a: int = 16                  # bilingual anchor dimension
    seed: int = 42
    patience: int = 5
    fit_iters: int = 1500
    fit_lr: float = 0.05
    fit_lr_decay: float = 0.997
    fit_batch: int = 256
    log_path: str = ""

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs must be >= 0, batch_size >= 1, lr > 0")
        if not (0 <= self.drop_emb < 1 and 0 <= self.drop_out < 1):
            raise ValueError("dropout rates must lie in [0, 1)")

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


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

    def make_model(self, **overrides) -> TranslationModel:
        kw = dict(drop_emb=self.config.drop_emb, drop_out=self.config.drop_out,
                  lam=self.config.lam, lam_m=self.config.lam_m)
        kw.update(overrides)
        return TranslationModel(self.params, self.dims, self.kind, **kw)

    def save(self, path):
        manifest, payload = [], []
        offset = 0
        for name, tensor in self.params.items():
            raw = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
            manifest.append({"name": name, "group": self.params.group_of(name),
                             "trainable": self.params.is_trainable(name),
                             "shape": list(tensor.data.shape), "offset": offset})
            payload.append(raw)
            offset += len(raw)
        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "stages": list(self.stages),
            "dims": self.dims.to_dict(),
            "config": asdict(self.config),
            "vocab_src": self.vocab_src.id_to_token,
            "vocab_tgt": self.vocab_tgt.id_to_token,
            "params": manifest,
            "payload_bytes": offset,
        }
        blob = json.dumps(header).encode("utf-8")
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", FORMAT_VERSION))
                fh.write(struct.pack("<Q", len(blob)))
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
    def load(cls, path, expect_dims: ModelDims | None = None):
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
        if len(blob) < 16 or blob[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", blob[4:8])
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} != supported {FORMAT_VERSION}")
        (hlen,) = struct.unpack("<Q", blob[8:16])
        if len(blob) < 16 + hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt header: {e}") from e
        missing = ([k for k in HEADER_KEYS if k not in header]
                   if isinstance(header, dict) else list(HEADER_KEYS))
        if missing:
            raise CheckpointError(f"{path}: header lacks {missing}")
        if header["kind"] not in KINDS:
            raise CheckpointError(f"{path}: unknown model kind {header['kind']!r}")
        payload = blob[16 + hlen:]
        if len(payload) != header["payload_bytes"]:
            raise CheckpointError(
                f"{path}: truncated payload ({len(payload)} of "
                f"{header['payload_bytes']} bytes)")
        try:
            dims = ModelDims(**header["dims"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad dims {header['dims']!r}: {e}") from e
        if expect_dims is not None and dims.to_dict() != expect_dims.to_dict():
            raise CheckpointError(
                f"{path}: checkpoint dims {dims.to_dict()} do not match "
                f"expected {expect_dims.to_dict()}")
        params, extents = ParamStore(), []  # (offset, bytes) per entry
        for entry in header["params"]:
            try:
                name, group = entry["name"], entry["group"]
                shape = tuple(int(d) for d in entry["shape"])
                start, trainable = int(entry["offset"]), entry["trainable"]
            except (KeyError, TypeError, ValueError) as e:
                raise CheckpointError(f"{path}: bad manifest entry {entry!r}") from e
            n = int(np.prod(shape)) if shape else 1
            if min(shape, default=0) < 0 or start < 0 or start + 8 * n > len(payload):
                raise CheckpointError(
                    f"{path}: parameter {name!r} (shape {list(shape)}, offset "
                    f"{start}) does not fit the {len(payload)}-byte payload")
            arr = np.frombuffer(payload, dtype="<f8", count=n,
                                offset=start).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"{path}: parameter {name!r} holds non-finite values")
            try:
                params.add(name, arr, group, trainable=trainable)
            except ValueError as e:  # duplicate name or unknown group
                raise CheckpointError(f"{path}: {e}") from e
            extents.append((start, 8 * n))
        end = 0
        for start, size in sorted(extents):
            if start != end:
                break
            end += size
        if end != len(payload):
            raise CheckpointError(
                f"{path}: parameter entries overlap or leave gaps in the "
                f"{len(payload)}-byte payload")
        vocab_src = Vocab(header["vocab_src"][4:])
        vocab_tgt = Vocab(header["vocab_tgt"][4:])
        return cls(params, dims, TrainConfig.from_dict(header["config"]),
                   header["kind"], list(header["stages"]), vocab_src, vocab_tgt)


# ---------------------------------------------------------------------------
# the shared epoch loop

def _log_line(config, row):
    line = (f"{row['epoch']}\t{row['stage']}\t{row['train_loss']:.6f}\t"
            f"{row['dev_loss']:.6f}\t{row['seconds']:.2f}")
    print(line)
    if config.log_path:
        with open(config.log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def train_epochs(model: TranslationModel, stage, corpus_train, corpus_dev,
                 vocab_src, vocab_tgt, config: TrainConfig):
    """Run the optimization loop; returns per-epoch history rows.

    Shuffling and dropout are reseeded deterministically from
    (seed, epoch); dev loss is evaluated with dropout disabled; early
    stopping restores the best-dev parameters.
    """
    params = model.params
    opt = Optimizer(OptimizerConfig(kind=config.optimizer, lr=config.lr))
    dev_batches = make_batches(corpus_dev, config.batch_size, vocab_src, vocab_tgt)
    history = []
    best_dev, best_snap, since_best = np.inf, None, 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng((config.seed, epoch, 29))
        batches = make_batches(corpus_train, config.batch_size, vocab_src,
                               vocab_tgt, shuffle_seed=(config.seed, epoch, 17))
        tok_nll, tok_count, lm_sum = 0.0, 0.0, 0.0
        for index, batch in enumerate(batches):
            parts = model.loss(batch, training=True, rng=rng)
            if not np.isfinite(parts.joint.data):
                raise NumericError(f"{stage}: non-finite training loss at "
                                   f"epoch {epoch}, batch {index}")
            grads = backward(parts.joint, params)
            if config.clip_mode == "norm":
                grads = clip_gradient_norm(grads, config.clip_norm)
            else:
                grads = clip_gradient_value(grads, config.clip_norm)
            opt.step(params, grads)
            tok_nll += parts.nll_token_mean * parts.n_tokens
            tok_count += parts.n_tokens
            if parts.l_m is not None:
                lm_sum += parts.l_m * len(batch)
        train_loss = tok_nll / tok_count
        dev_loss = model.dev_loss(dev_batches)
        if not np.isfinite(dev_loss):
            raise NumericError(f"{stage}: non-finite dev loss at epoch {epoch}")
        row = {"epoch": epoch, "stage": stage, "train_loss": train_loss,
               "dev_loss": dev_loss, "seconds": time.perf_counter() - t0}
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

def pretrain(corpus_train: ParallelCorpus, corpus_dev: ParallelCorpus,
             vocab_src: Vocab, vocab_tgt: Vocab, dims: ModelDims,
             config: TrainConfig) -> Checkpoint:
    """Train the baseline attention model from random initialization."""
    rng = np.random.default_rng(config.seed)
    params = init_baseline_params(dims, rng)
    model = TranslationModel(params, dims, "baseline",
                             drop_emb=config.drop_emb, drop_out=config.drop_out)
    history = train_epochs(model, "pretrain", corpus_train, corpus_dev,
                           vocab_src, vocab_tgt, config)
    return Checkpoint(params, dims, config, "baseline", ["pretrain"],
                      vocab_src, vocab_tgt, history)


def fit_anchors_stage(ckpt: Checkpoint, corpus_train: ParallelCorpus,
                      config: TrainConfig) -> Checkpoint:
    """Fit monolingual anchors to the pooled encoder states of the corpus."""
    if "pretrain" not in ckpt.stages:
        raise PrerequisiteError("fit-anchors requires a pretrained checkpoint")
    if "anchors/m" in ckpt.params:
        raise PrerequisiteError("checkpoint already carries a fitted anchor set")
    params = ckpt.params.copy()
    reprs = collect_sentence_reprs(params, ckpt.dims, corpus_train,
                                   ckpt.vocab_src, ckpt.vocab_tgt,
                                   batch_size=config.batch_size)
    result = fit_anchors(
        reprs, config.n_anchors,
        LccConfig(l_alpha=config.l_alpha, l_beta=config.l_beta),
        AnchorFitConfig(iters=config.fit_iters, lr=config.fit_lr,
                        lr_decay=config.fit_lr_decay,
                        batch_size=config.fit_batch, seed=config.seed))
    add_anchor_params(params, result.anchors.points.data,
                      [result.score.W.data, result.score.U.data,
                       result.score.V.data, result.score.v.data])
    history = [{"stage": "fit-anchors", "initial_measure": result.initial_measure,
                "final_measure": result.final_measure}]
    return Checkpoint(params, ckpt.dims, config, ckpt.kind,
                      ckpt.stages + ["fit-anchors"], ckpt.vocab_src,
                      ckpt.vocab_tgt, history)


def finetune_m(ckpt: Checkpoint, corpus_train: ParallelCorpus,
               corpus_dev: ParallelCorpus, config: TrainConfig) -> Checkpoint:
    """Tune the decoder and the added monolingual parameters.

    The encoder and the fitted anchors stay frozen (bit-identical); the
    zero extra-input projection makes the first step start exactly from
    the baseline optimum.
    """
    if "pretrain" not in ckpt.stages:
        raise PrerequisiteError("finetune-m requires a pretrained checkpoint")
    if "anchors/m" not in ckpt.params:
        raise PrerequisiteError("finetune-m requires a fitted anchor set "
                                "(run fit-anchors first)")
    if ckpt.kind != "baseline":
        raise PrerequisiteError(f"cannot fine-tune a {ckpt.kind!r} checkpoint")
    rng = np.random.default_rng((config.seed, 3))
    params = ckpt.params.copy()
    init_m_params(params, ckpt.dims, rng)
    params.freeze("encoder", "anchors")
    model = TranslationModel(params, ckpt.dims, "m_ref",
                             drop_emb=config.drop_emb, drop_out=config.drop_out)
    history = train_epochs(model, "finetune-m", corpus_train, corpus_dev,
                           ckpt.vocab_src, ckpt.vocab_tgt, config)
    params.unfreeze("encoder", "anchors")
    return Checkpoint(params, ckpt.dims, config, "m_ref",
                      ckpt.stages + ["finetune-m"], ckpt.vocab_src,
                      ckpt.vocab_tgt, history)


def train_b(ckpt: Checkpoint, corpus_train: ParallelCorpus,
            corpus_dev: ParallelCorpus, config: TrainConfig) -> Checkpoint:
    """Train the bilingual reference parameters against the joint objective.

    All baseline parameters are frozen; the bilingual anchors, regression
    weights, score net, and extra projection are the only movers.
    """
    if "pretrain" not in ckpt.stages:
        raise PrerequisiteError("train-b requires a pretrained checkpoint")
    if ckpt.kind != "baseline":
        raise PrerequisiteError(f"cannot train-b on a {ckpt.kind!r} checkpoint")
    rng = np.random.default_rng((config.seed, 5))
    params = ckpt.params.copy()
    init_b_params(params, ckpt.dims, config.n_anchors, config.d_a, rng)
    params.freeze("encoder", "decoder", "anchors")
    model = TranslationModel(params, ckpt.dims, "b_ref",
                             drop_emb=config.drop_emb, drop_out=config.drop_out,
                             lam=config.lam, lam_m=config.lam_m)
    history = train_epochs(model, "train-b", corpus_train, corpus_dev,
                           ckpt.vocab_src, ckpt.vocab_tgt, config)
    params.unfreeze("encoder", "decoder", "anchors")
    return Checkpoint(params, ckpt.dims, config, "b_ref",
                      ckpt.stages + ["train-b"], ckpt.vocab_src,
                      ckpt.vocab_tgt, history)


def run_stage(stage, ckpt: Checkpoint | None, corpus_train, corpus_dev,
              config: TrainConfig, vocab_src=None, vocab_tgt=None,
              dims: ModelDims | None = None) -> Checkpoint:
    """Dispatch one protocol stage and audit its freeze contract."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if stage == "pretrain":
        return pretrain(corpus_train, corpus_dev, vocab_src, vocab_tgt,
                        dims, config)
    if ckpt is None:
        raise PrerequisiteError(f"{stage} requires an input checkpoint")
    frozen = [g for g in STAGE_FREEZES[stage] if ckpt.params.members(g)]
    before = {g: ckpt.params.group_digest(g) for g in frozen}
    if stage == "fit-anchors":
        out = fit_anchors_stage(ckpt, corpus_train, config)
    elif stage == "finetune-m":
        out = finetune_m(ckpt, corpus_train, corpus_dev, config)
    else:
        out = train_b(ckpt, corpus_train, corpus_dev, config)
    for g, digest in before.items():
        if out.params.group_digest(g) != digest:
            raise RuntimeError(
                f"internal error: frozen group {g!r} changed during {stage}")
    return out
