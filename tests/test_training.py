import dataclasses
import json
import os
import stat
import struct
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refnet.corpus import build_vocab, make_batches
from refnet.errors import CheckpointError, NumericError, PrerequisiteError
from refnet.model import TranslationModel
from refnet.autodiff import grad_map
from refnet.params import GROUPS, Optimizer, backward, clip_gradient_norm
from refnet.seq2seq import ModelDims, beam_search, init_baseline_params
from refnet import training
from refnet.training import (PREAMBLE, STAGE_FIELDS, STAGE_FREEZES, STAGES,
                             Checkpoint, TrainConfig, run_pipeline, run_stage)

def nan_payload(header, payload):
    payload[-4:] = struct.pack("<f", float("nan"))


HEADER_MUTATIONS = {
    "missing-dims": lambda h, p: h.pop("dims"),
    "nan-payload": nan_payload,
    "shape-overruns-payload": lambda h, p: h["params"][-1].update(
        shape=[h["params"][-1]["shape"][0] + 1]),
    "shape-leaves-bytes-unread": lambda h, p: h["params"][-1].update(
        shape=[h["params"][-1]["shape"][0] - 1]),
    "unknown-kind": lambda h, p: h.update(kind="zzz"),
    "config-wrong-type": lambda h, p: h["config"].update(lr="fast"),
    "config-negative-patience": lambda h, p: h["config"].update(patience=-1),
    "config-not-a-dict": lambda h, p: h.update(config=[1, 2]),
    "stages-not-a-list": lambda h, p: h.update(stages=3),
    "unknown-stage": lambda h, p: h["stages"].append("distill"),
    "vocab-not-strings": lambda h, p: h["vocab_src"].append(["x"]),
    "params-not-a-list": lambda h, p: h.update(params=7),
    "renamed-parameter": lambda h, p: h["params"][1].update(name="enc/fwd/Q"),
    "reshaped-parameter": lambda h, p: h["params"][1].update(
        shape=h["params"][1]["shape"][::-1]),
    "flattened-parameter": lambda h, p: h["params"][0].update(
        shape=[int(np.prod(h["params"][0]["shape"]))]),
    "regrouped-parameter": lambda h, p: h["params"][0].update(group="anchors"),
    "stage-without-anchors": lambda h, p: h["stages"].append("fit-anchors"),
    "name-not-a-string": lambda h, p: h["params"][2].update(name=["enc/fwd/U"]),
    "dims-not-integers": lambda h, p: h["dims"].update(d_e=None),
    "dims-cell-not-gru": lambda h, p: h["dims"].update(cell="tanh"),
    "dims-cell-gru": lambda h, p: h["dims"].update(cell="gru"),
    "config-retired-key": lambda h, p: h["config"].update(optimizer="sgd"),
    "vocab-src-longer-than-dims": lambda h, p: h["vocab_src"].extend(
        ["zz1", "zz2", "zz3"]),
    "vocab-tgt-shorter-than-dims": lambda h, p: h["vocab_tgt"].pop(),
    "vocab-specials-reordered": lambda h, p: h["vocab_src"].insert(
        0, h["vocab_src"].pop(1)),
    "vocab-without-specials": lambda h, p: h["vocab_tgt"].__setitem__(
        slice(0, 4), ["p", "q", "r", "s"]),
    "vocab-token-twice": lambda h, p: h["vocab_src"].__setitem__(
        -1, h["vocab_src"][-2]),
}


def quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=21, **kw):
    train, dev, _ = toy_split
    vs, vt = toy_vocabs
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
    config = TrainConfig(stage="pretrain", epochs=epochs, batch_size=16,
                         seed=seed, patience=50, **kw)
    return run_stage("pretrain", None, train, dev, config, vs, vt, dims)


class TestCheckpointFile:
    def test_bitwise_roundtrip(self, toy_split, toy_vocabs, tmp_path, capsys):
        # include the anchors group so its serialization is covered too
        train, _, _ = toy_split
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        ckpt = run_stage("fit-anchors", ckpt, train, None,
                         TrainConfig(stage="fit-anchors", n_anchors=3,
                                     fit_iters=20, seed=21))
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.params.names() == ckpt.params.names()
        for name in ckpt.params.names():
            np.testing.assert_array_equal(loaded.params[name].data,
                                          ckpt.params[name].data)
            assert loaded.params.group_of(name) == ckpt.params.group_of(name)
        assert loaded.stages == ckpt.stages
        assert loaded.kind == ckpt.kind
        assert loaded.vocab_src.id_to_token == ckpt.vocab_src.id_to_token
        assert loaded.dims.to_dict() == ckpt.dims.to_dict()

    def test_save_load_save_is_byte_identical(self, toy_split, toy_vocabs,
                                              tmp_path, capsys):
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, toy_split, toy_vocabs, tmp_path,
                                     capsys):
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        blob = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.load(tmp_path / "cut.ckpt")

    @pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
    def test_malformed_header_rejected(self, mutation, toy_split, toy_vocabs,
                                       tmp_path, rewrite_header, capsys):
        path = quick_pretrain(toy_split, toy_vocabs, epochs=0).save(
            tmp_path / "model.ckpt")
        bad = rewrite_header(path, tmp_path / "bad.ckpt",
                             HEADER_MUTATIONS[mutation])
        with pytest.raises(CheckpointError):
            Checkpoint.load(bad)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            Checkpoint.load(tmp_path / "junk.ckpt")

    @pytest.mark.parametrize("version", [2, 99])
    def test_version_mismatch_rejected(self, version, toy_split, toy_vocabs,
                                       tmp_path, capsys):
        """Format 2 (a float64 payload with per-entry offsets) is not read."""
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        (tmp_path / "old.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError,
                           match=f"format version {version} != supported 3"):
            Checkpoint.load(tmp_path / "old.ckpt")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "absent.ckpt")

    def test_checksum_field_is_pinned(self, tmp_path):
        """The CRC-32 of the header and the payload, computed piece by piece
        at save, is the one a single pass over the file's tail gives, and
        the value a file of these fixed contents carries."""
        vocab = build_vocab([["a", "b", "c", "d"]], 10)
        dims = ModelDims(vocab_src=len(vocab), vocab_tgt=len(vocab), d_e=3, d_h=4)
        ps = init_baseline_params(dims, np.random.default_rng(3))
        blob = Checkpoint(ps, dims, TrainConfig(), "baseline", ["pretrain"], vocab,
                          vocab).save(tmp_path / "model.ckpt").read_bytes()
        assert blob[16:PREAMBLE] == struct.pack("<I", zlib.crc32(blob[PREAMBLE:]))
        assert blob[16:PREAMBLE] == struct.pack("<I", 0x29C7B147)

    def test_float32_store_round_trips_bitwise(self, toy_split, toy_vocabs,
                                               tmp_path, capsys):
        """A stage's float32 store goes through the payload unchanged."""
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        loaded = Checkpoint.load(ckpt.save(tmp_path / "model.ckpt"))
        assert ckpt.params.dtype == loaded.params.dtype == np.float32
        for name, tensor in ckpt.params.items():
            assert loaded.params[name].data.dtype == np.float32
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes()

    def test_float64_checkpoint_loads_and_translates(self, toy_split,
                                                     toy_vocabs, tmp_path):
        """A file written from a float64 store loads as its float32 rounding
        and translates like it."""
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        wide = init_baseline_params(dims, np.random.default_rng(3))
        assert wide.dtype == np.float64
        Checkpoint(wide, dims, TrainConfig(), "baseline", ["pretrain"], vs,
                   vt).save(tmp_path / "wide.ckpt")
        loaded = Checkpoint.load(tmp_path / "wide.ckpt")
        for name, tensor in wide.items():
            np.testing.assert_array_equal(loaded.params[name].data,
                                          tensor.data.astype(np.float32))
        sources = [[4, 5, 6], [7, 4]]
        narrow = TranslationModel(wide.copy(np.float32), dims, "baseline")
        for beam in (1, 3):
            assert (loaded.make_model().translate_batch(sources, beam=beam)
                    == narrow.translate_batch(sources, beam=beam))

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                             ids=["022", "077", "002"])
    def test_file_mode_follows_the_umask(self, umask, tmp_path):
        """The file gets 0o666 less the umask, as any file the process
        creates, not the 0o600 of a private temporary file."""
        vocab = build_vocab([["a", "b"]], 10)
        dims = ModelDims(vocab_src=len(vocab), vocab_tgt=len(vocab), d_e=3, d_h=4)
        ckpt = Checkpoint(init_baseline_params(dims, np.random.default_rng(3)),
                          dims, TrainConfig(), "baseline", ["pretrain"], vocab, vocab)
        old = os.umask(umask)
        try:
            path = ckpt.save(tmp_path / "model.ckpt")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask

    def test_value_float32_cannot_hold_is_refused(self, tmp_path):
        """A float64 value beyond float32's range raises NumericError naming
        the parameter, with no warning and no file, final or temporary."""
        vocab = build_vocab([["a", "b"]], 10)
        dims = ModelDims(vocab_src=len(vocab), vocab_tgt=len(vocab), d_e=3, d_h=4)
        wide = init_baseline_params(dims, np.random.default_rng(3))
        wide["dec/init/b"].data[1] = 1e300
        ckpt = Checkpoint(wide, dims, TrainConfig(), "baseline", ["pretrain"],
                          vocab, vocab)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'dec/init/b'"):
                ckpt.save(tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()
        assert list(tmp_path.glob("*.tmp")) == []


def loads_identically_or_is_rejected(path, original):
    try:
        loaded = Checkpoint.load(path)
    except CheckpointError:
        return
    assert loaded.params.names() == original.params.names()
    for name in original.params.names():
        assert np.array_equal(loaded.params[name].data, original.params[name].data)
        assert loaded.params.group_of(name) == original.params.group_of(name)


class TestCheckpointFuzz:
    """A file changed after it was written, in its bytes or in its header,
    either loads with identical parameters or raises CheckpointError."""

    @pytest.fixture(scope="class")
    def saved(self, toy_split, toy_vocabs, tmp_path_factory):
        train, _, _ = toy_split
        ckpt = run_stage("fit-anchors", quick_pretrain(toy_split, toy_vocabs, epochs=0),
                         train, None, TrainConfig(stage="fit-anchors", n_anchors=3,
                                                  fit_iters=2, seed=21))
        path = ckpt.save(tmp_path_factory.mktemp("fuzz") / "model.ckpt")
        return path, path.read_bytes(), Checkpoint.load(path)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_byte_mutations(self, saved, data):
        path, blob, original = saved
        blob = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4), label="bytes")):
            where = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[where] = data.draw(st.integers(0, 255), label="value")
        bad = path.with_name("bytes.ckpt")
        bad.write_bytes(bytes(blob))
        loads_identically_or_is_rejected(bad, original)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_header_mutations(self, saved, data):
        path, blob, original = saved
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[PREAMBLE:PREAMBLE + hlen])
        leaves = []

        def walk(node, trail):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                leaves.append(trail + (key,))
                walk(child, trail + (key,))

        walk(header, ())
        entries = header["params"]
        mutation = data.draw(st.sampled_from(["leaf", "rename", "reshape"]),
                             label="mutation")
        if mutation == "rename":
            # another entry's name, or any string
            entry = data.draw(st.sampled_from(entries), label="entry")
            entry["name"] = data.draw(
                st.sampled_from([e["name"] for e in entries]) | st.text(max_size=12),
                label="name")
        elif mutation == "reshape":
            # the same number of values, so that the payload still fits
            entry = data.draw(st.sampled_from(entries), label="entry")
            shape = entry["shape"]
            entry["shape"] = data.draw(st.sampled_from(
                [shape[::-1], [int(np.prod(shape))], shape + [1], [1] + shape]),
                label="shape")
        else:
            trail = data.draw(st.sampled_from(leaves), label="field")
            parent = header
            for key in trail[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
                del parent[trail[-1]]
            else:
                parent[trail[-1]] = data.draw(
                    st.none() | st.booleans() | st.integers(-3, 10 ** 6)
                    | st.floats(allow_nan=False) | st.text(max_size=5)
                    | st.lists(st.integers(0, 9), max_size=3), label="value")
        # a matching checksum, so that the checks past it see the edit
        raw = json.dumps(header).encode("utf-8")
        payload = blob[PREAMBLE + hlen:]
        bad = path.with_name("header.ckpt")
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw))
                        + struct.pack("<I", zlib.crc32(raw + payload)) + raw + payload)
        loads_identically_or_is_rejected(bad, original)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("clip_norm", 0.0), ("clip_norm", -1.0), ("seed", -1), ("patience", -1),
        ("fit_batch", -1), ("fit_iters", -1),
        ("fit_lr", 0.0), ("fit_lr", -1.0), ("fit_lr_decay", 0.0),
        ("fit_lr_decay", 1.5), ("l_alpha", -1.0), ("l_beta", -0.01),
        ("lam", -5.0), ("lam_m", -1e-4), ("clip_norm", float("nan")),
        ("fit_lr", float("nan")), ("lr", float("inf")), ("lam", float("nan")),
        ("drop_out", float("nan")),
    ])
    def test_rejects_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_accepts_the_edges(self):
        TrainConfig(clip_norm=1e-9, seed=0, patience=0, fit_batch=0,
                    fit_iters=0, fit_lr=1e-9, fit_lr_decay=1.0, l_alpha=0.0,
                    l_beta=0.0, lam=0.0, lam_m=0.0)


class TestStages:
    def test_zero_epochs_is_random_init(self, toy_split, toy_vocabs):
        """The same draws as a fresh float64 init, rounded to float32."""
        a = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        fresh = init_baseline_params(a.dims, np.random.default_rng(21))
        for name in fresh.names():
            np.testing.assert_array_equal(a.params[name].data,
                                          fresh[name].data.astype(np.float32))

    def test_same_seed_identical_bytes(self, toy_split, toy_vocabs, tmp_path,
                                       capsys):
        a = quick_pretrain(toy_split, toy_vocabs, epochs=2, seed=33)
        b = quick_pretrain(toy_split, toy_vocabs, epochs=2, seed=33)
        a.save(tmp_path / "a.ckpt")
        b.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()

    def test_different_seed_differs(self, toy_split, toy_vocabs, capsys):
        a = quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=33)
        b = quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=34)
        assert any(not np.array_equal(a.params[n].data, b.params[n].data)
                   for n in a.params.names())

    def test_finetune_m_without_anchors_is_prerequisite_error(
            self, toy_split, toy_vocabs):
        train, dev, _ = toy_split
        ckpt = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        with pytest.raises(PrerequisiteError, match="anchor"):
            run_stage("finetune-m", ckpt, train, dev,
                      TrainConfig(stage="finetune-m", epochs=1, seed=21))

    def test_stage_without_checkpoint_is_prerequisite_error(self, toy_split):
        train, dev, _ = toy_split
        with pytest.raises(PrerequisiteError, match="checkpoint"):
            run_stage("train-b", None, train, dev,
                      TrainConfig(stage="train-b", epochs=1))

    def test_unknown_stage_rejected(self, toy_split):
        train, dev, _ = toy_split
        with pytest.raises(ValueError, match="unknown stage"):
            run_stage("distill", None, train, dev, TrainConfig())

    def test_config_for_another_stage_rejected(self, toy_split, toy_vocabs):
        """A config names the stage it was made for, and the checkpoint
        saves it: running it as another stage is refused, naming both."""
        train, dev, _ = toy_split
        ckpt = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        with pytest.raises(ValueError, match="'fit-anchors'.*'train-b'"):
            run_stage("fit-anchors", ckpt, train, None,
                      TrainConfig(stage="train-b", fit_iters=1))

    @pytest.mark.parametrize("stage, slot, message", [
        ("pretrain", 3, "pretrain requires a dev corpus"),
        ("finetune-m", 3, "finetune-m requires a dev corpus"),
        ("train-b", 3, "train-b requires a dev corpus"),
        *(("pretrain", slot, "pretrain requires vocab_src, vocab_tgt and dims")
          for slot in (5, 6, 7))])
    def test_missing_input_rejected(self, stage, slot, message, toy_split,
                                    toy_vocabs):
        """run_stage's argument ``slot`` set to None: dev, vocabularies, dims."""
        argv = list(stage_argv(stage, toy_split, toy_vocabs))
        argv[slot] = None
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_stage(*argv)

    def test_train_b_on_m_ref_rejected(self, toy_split, toy_vocabs, tmp_path,
                                       capsys):
        train, dev, _ = toy_split
        m_ref = toy_pipeline(tmp_path, toy_split, toy_vocabs)[0]["finetune-m"]
        with pytest.raises(PrerequisiteError):
            run_stage("train-b", m_ref, train, dev,
                      TrainConfig(stage="train-b", epochs=1, seed=21))

    def test_dev_loss_ignores_dropout_state(self, toy_split, toy_vocabs):
        """Dev loss is dropout-free, so it is identical across evaluations."""
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        ckpt = quick_pretrain(toy_split, toy_vocabs, epochs=0,
                              drop_emb=0.4, drop_out=0.4)
        model = TranslationModel(ckpt.params, ckpt.dims, "baseline",
                                 drop_emb=0.4, drop_out=0.4)
        batches = make_batches(dev, 8, vs, vt)
        assert model.dev_loss(batches) == model.dev_loss(batches)

    def test_log_file_rows(self, toy_split, toy_vocabs, tmp_path, capsys):
        log = tmp_path / "train.log"
        quick_pretrain(toy_split, toy_vocabs, epochs=2, log_path=str(log))
        rows = log.read_text().splitlines()
        assert len(rows) == 2
        fields = rows[0].split("\t")
        assert fields[0] == "0" and fields[1] == "pretrain"
        float(fields[2]), float(fields[3]), float(fields[4])

    def test_history_records_gradient_norm_and_clipping(self, toy_split,
                                                         toy_vocabs, capsys):
        tight = quick_pretrain(toy_split, toy_vocabs, epochs=2, clip_norm=1e-6)
        assert [row["clipped_frac"] for row in tight.history] == [1.0, 1.0]
        assert all(row["grad_norm"] > 1e-6 for row in tight.history)
        loose = quick_pretrain(toy_split, toy_vocabs, epochs=1, clip_norm=1e9)
        assert loose.history[0]["clipped_frac"] == 0.0

    def test_copy_task_dev_loss_collapses(self, capsys):
        """vocab 20, 500 pairs: dev loss after 30 epochs under 10% of start."""
        from refnet.corpus import ParallelCorpus, build_vocab, \
            generate_synthetic_task
        full = generate_synthetic_task("copy", 20, 550, (3, 8), seed=13)
        train = ParallelCorpus(full.pairs[:500])
        dev = ParallelCorpus(full.pairs[500:])
        vs = build_vocab(train.sources(), 100)
        vt = build_vocab(train.targets(), 100)
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=16, d_h=32)
        config = TrainConfig(stage="pretrain", epochs=30, batch_size=32,
                             seed=5, patience=50)
        ckpt = run_stage("pretrain", None, train, dev, config, vs, vt, dims)
        initial = ckpt.history[0]["dev_loss"]
        final = ckpt.history[-1]["dev_loss"]
        assert final < 0.1 * initial

    def test_trained_model_beats_untrained_on_teacher_forcing(
            self, toy_split, toy_vocabs, capsys):
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        batches = make_batches(train, 16, vs, vt)
        untrained = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        trained = quick_pretrain(toy_split, toy_vocabs, epochs=8)
        loss_untrained = TranslationModel(untrained.params, untrained.dims,
                                          "baseline").dev_loss(batches)
        loss_trained = TranslationModel(trained.params, trained.dims,
                                        "baseline").dev_loss(batches)
        assert loss_trained < loss_untrained

    def test_divergence_reported_with_epoch(self, toy_split, toy_vocabs):
        from refnet.errors import NumericError
        from refnet.seq2seq import init_baseline_params
        from refnet.training import train_epochs
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        params = init_baseline_params(dims, np.random.default_rng(21))
        params["dec/out/bv"].data[0] = np.nan
        model = TranslationModel(params, dims, "baseline")
        config = TrainConfig(stage="pretrain", epochs=2, batch_size=16,
                             seed=21, patience=50)
        before = params.snapshot()
        with pytest.raises(NumericError, match="pretrain: .* epoch 0, batch 0"):
            train_epochs(model, "pretrain", train, dev, vs, vt, config)
        # caught before the first update: nothing else was touched
        for name, arr in before.items():
            np.testing.assert_array_equal(params[name].data, arr)

    def test_nonfinite_dev_loss_reported(self, toy_split, toy_vocabs, capsys):
        from refnet.errors import NumericError
        from refnet.training import train_epochs
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        ckpt = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        model = ckpt.make_model()
        model.dev_loss = lambda batches: float("nan")
        config = TrainConfig(stage="pretrain", epochs=2, batch_size=16,
                             seed=21, patience=50)
        with pytest.raises(NumericError, match="dev loss at epoch 0"):
            train_epochs(model, "pretrain", train, dev, vs, vt, config)

    def test_early_stopping_restores_the_best_epoch(self, toy_split, toy_vocabs):
        """Patience 1 and dev losses 1.0, 0.5, 0.7, 0.9: the loop stops after
        3 epochs, with the parameters of epoch 1 restored."""
        train, dev, _ = toy_split
        vs, vt = toy_vocabs
        model = quick_pretrain(toy_split, toy_vocabs, epochs=0).make_model()
        losses, seen = iter([1.0, 0.5, 0.7, 0.9]), []

        def dev_loss(batches):
            seen.append(model.params.snapshot())
            return next(losses)

        model.dev_loss = dev_loss
        config = TrainConfig(stage="pretrain", epochs=4, batch_size=16,
                             seed=21, patience=1)
        history = training.train_epochs(model, "pretrain", train, dev, vs, vt,
                                        config)
        assert [row["dev_loss"] for row in history] == [1.0, 0.5, 0.7]
        assert len(seen) == 3
        assert not np.array_equal(seen[2]["dec/out/bv"], seen[1]["dec/out/bv"])
        for name, arr in seen[1].items():
            np.testing.assert_array_equal(model.params[name].data, arr)


def toy_pipeline(workdir, toy_split, toy_vocabs, seed=21):
    """``run_pipeline`` on the toy split, one epoch per trained stage."""
    train, dev, _ = toy_split
    vs, vt = toy_vocabs
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
    tune = dict(epochs=1, batch_size=16, seed=seed, patience=50)
    configs = {
        "pretrain": TrainConfig(stage="pretrain", **tune),
        "fit-anchors": TrainConfig(stage="fit-anchors", n_anchors=3,
                                   fit_iters=30, seed=seed),
        "finetune-m": TrainConfig(stage="finetune-m", **tune),
        "train-b": TrainConfig(stage="train-b", n_anchors=3, d_a=5, **tune)}
    return run_pipeline(workdir, train, dev, configs, vs, vt, dims)


class TestPipeline:
    def test_provenance_and_freezes(self, toy_split, toy_vocabs, tmp_path,
                                    monkeypatch, capsys):
        """Each stage reads the loaded file of the stage before it, keeps
        that file's frozen groups, and no freeze outlives the stage."""
        runs = []

        def spy(stage, ckpt, *args):
            out = run_stage(stage, ckpt, *args)
            runs.append((stage, ckpt, out))
            return out

        monkeypatch.setattr(training, "run_stage", spy)
        ckpts, seconds = toy_pipeline(tmp_path, toy_split, toy_vocabs)
        assert list(ckpts) == list(seconds) == [stage for stage, _, _ in runs] \
            == list(STAGES)
        assert {stage: ckpt.stages for stage, ckpt in ckpts.items()} == {
            "pretrain": ["pretrain"], "fit-anchors": ["pretrain", "fit-anchors"],
            "finetune-m": ["pretrain", "fit-anchors", "finetune-m"],
            "train-b": ["pretrain", "train-b"]}
        reads = {"fit-anchors": ("pretrain", ("encoder", "decoder")),
                 "finetune-m": ("fit-anchors", ("encoder", "anchors")),
                 "train-b": ("pretrain", ("encoder", "decoder"))}
        for stage, ckpt_in, out in runs:
            assert not frozen_groups(out.params)  # freezes are stage-local
            assert ckpts[stage] is not out  # it returns the saved file, loaded
            assert ckpts[stage].history == out.history != []
            if stage == "pretrain":
                assert ckpt_in is None
                continue
            source, kept = reads[stage]
            assert ckpt_in is ckpts[source]
            assert all(ckpts[stage].params.group_digest(g)
                       == ckpt_in.params.group_digest(g) for g in kept)

    def test_reproducible_bitwise(self, toy_split, toy_vocabs, tmp_path,
                                  capsys):
        for tag in ("a", "b"):
            (tmp_path / tag).mkdir()
            toy_pipeline(tmp_path / tag, toy_split, toy_vocabs, seed=55)
        for stage in STAGES:
            assert (tmp_path / "a" / f"{stage}.ckpt").read_bytes() == \
                (tmp_path / "b" / f"{stage}.ckpt").read_bytes()


class TestStagePurity:
    @pytest.mark.parametrize("stage", ["fit-anchors", "finetune-m", "train-b"])
    def test_input_checkpoint_unchanged(self, stage, toy_split, toy_vocabs,
                                        capsys):
        train, dev, _ = toy_split
        fit_cfg = TrainConfig(stage="fit-anchors", n_anchors=3, fit_iters=20,
                              seed=21)
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        if stage == "finetune-m":
            ckpt = run_stage("fit-anchors", ckpt, train, None, fit_cfg)
        names = ckpt.params.names()
        digests = {g: ckpt.params.group_digest(g) for g in GROUPS}
        kind = ckpt.kind
        cfg = fit_cfg if stage == "fit-anchors" else TrainConfig(
            stage=stage, epochs=1, batch_size=16, seed=21, n_anchors=3, d_a=5,
            patience=50)
        run_stage(stage, ckpt, train, dev, cfg)
        assert ckpt.params.names() == names
        assert {g: ckpt.params.group_digest(g) for g in GROUPS} == digests
        assert ckpt.kind == kind


def stage_argv(stage, toy_split, toy_vocabs):
    """run_stage's arguments for a quick run of ``stage`` on the toy split."""
    train, dev, _ = toy_split
    vs, vt = toy_vocabs
    if stage == "pretrain":
        dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
        return (stage, None, train, dev,
                TrainConfig(stage=stage, epochs=0, seed=21), vs, vt, dims)
    fit_cfg = TrainConfig(stage="fit-anchors", n_anchors=3, fit_iters=2, seed=21)
    ckpt = quick_pretrain(toy_split, toy_vocabs, epochs=0)
    if stage == "fit-anchors":
        return stage, ckpt, train, None, fit_cfg
    if stage == "finetune-m":
        ckpt = run_stage("fit-anchors", ckpt, train, None, fit_cfg)
    return stage, ckpt, train, dev, TrainConfig(
        stage=stage, epochs=0, seed=21, n_anchors=3, d_a=5)


def frozen_groups(params):
    """The groups of ``params`` none of whose members trains."""
    return (set(params.groups_present())
            - {params.group_of(name) for name in params.trainable_names()})


def spy_on_stage_work(monkeypatch, hook):
    """Call ``hook(params)`` as a stage's work begins: fit-anchors reads the
    corpus through ``collect_sentence_reprs``, every other stage trains
    through ``train_epochs``."""
    train_epochs = training.train_epochs
    collect = training.collect_sentence_reprs

    def epochs(model, *args):
        hook(model.params)
        return train_epochs(model, *args)

    def reprs(params, *args, **kwargs):
        hook(params)
        return collect(params, *args, **kwargs)

    monkeypatch.setattr(training, "train_epochs", epochs)
    monkeypatch.setattr(training, "collect_sentence_reprs", reprs)


class TestStageFreezes:
    @pytest.mark.parametrize("stage", STAGES)
    def test_frozen_groups_are_the_stage_table(self, stage, toy_split,
                                               toy_vocabs, monkeypatch, capsys):
        argv = stage_argv(stage, toy_split, toy_vocabs)
        seen = []
        spy_on_stage_work(monkeypatch, lambda params: seen.append(
            (frozen_groups(params), set(params.groups_present()))))
        out = run_stage(*argv)
        ((frozen, present),) = seen
        assert frozen == set(STAGE_FREEZES[stage]) & present
        assert not frozen_groups(out.params)

    @pytest.mark.parametrize("stage, group", [
        ("fit-anchors", "encoder"), ("fit-anchors", "decoder"),
        ("finetune-m", "encoder"), ("finetune-m", "anchors"),
        ("train-b", "encoder"), ("train-b", "decoder")])
    def test_write_into_frozen_group_aborts(self, stage, group, toy_split,
                                            toy_vocabs, monkeypatch, capsys):
        argv = stage_argv(stage, toy_split, toy_vocabs)

        def write(params):
            params[params.members(group)[0]].data.flat[0] += 1.0

        spy_on_stage_work(monkeypatch, write)
        with pytest.raises(RuntimeError, match=f"frozen group {group!r}"):
            run_stage(*argv)


def float32_checkpoints(toy_split, toy_vocabs):
    """kind -> (stage, an untrained float32 checkpoint of that kind)."""
    train, dev, _ = toy_split
    base = quick_pretrain(toy_split, toy_vocabs, epochs=0)
    anchored = run_stage("fit-anchors", base, train, None, TrainConfig(
        stage="fit-anchors", n_anchors=3, fit_iters=2, seed=21))
    tune = dict(epochs=0, seed=21, n_anchors=3, d_a=5)
    return {"baseline": ("pretrain", base),
            "m_ref": ("finetune-m", run_stage("finetune-m", anchored, train, dev,
                                              TrainConfig(stage="finetune-m", **tune))),
            "b_ref": ("train-b", run_stage("train-b", base, train, dev,
                                           TrainConfig(stage="train-b", **tune)))}


def tape_tensors(root):
    """Every tensor reachable from ``root`` through the recorded parents."""
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t.parents)
    return list(seen.values())


class TestFloat32Compute:
    """NumPy 2 upcasts float32 silently (NEP 50): one float64 mask, zero
    state or constant on the tape would turn the rest of the step float64."""

    def test_no_float64_on_a_training_step(self, toy_split, toy_vocabs):
        vs, vt = toy_vocabs
        batch = make_batches(toy_split[0], 16, vs, vt)[0]
        for kind, (stage, ckpt) in float32_checkpoints(toy_split,
                                                       toy_vocabs).items():
            params = ckpt.params
            assert ckpt.kind == kind and params.dtype == np.float32
            params.freeze(*STAGE_FREEZES[stage])
            loss = ckpt.make_model().loss(
                batch, training=True, rng=np.random.default_rng(1)).joint
            tensors = tape_tensors(loss)
            assert len(tensors) > 20
            assert {t.data.dtype for t in tensors} == {np.dtype(np.float32)}, kind
            grads = grad_map(loss)
            assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}, kind
            opt = Optimizer(1e-3)
            opt.step(params, clip_gradient_norm(backward(loss, params), 1e-6))
            moments = list(opt._m.values()) + list(opt._v.values())
            assert moments and {m.dtype for m in moments} == {np.dtype(np.float32)}
            assert {t.data.dtype for _, t in params.items()} == {np.dtype(np.float32)}

    def test_no_float64_in_a_decode_step(self, toy_split, toy_vocabs):
        """Every model step of decoding at beams 1 and 3 takes and returns
        float32 states and log-probabilities."""
        for kind, (_, ckpt) in float32_checkpoints(toy_split, toy_vocabs).items():
            step_for, s0 = ckpt.make_model()._prepare([[4, 5, 6], [7, 4]])
            assert s0.dtype == np.float32
            seen = set()

            def spied_step_for(sents, singles=()):
                step = step_for(sents, singles)

                def spied(prev_ids, states):
                    logp, new_states = step(prev_ids, states)
                    seen.update({states.dtype, logp.dtype, new_states.dtype})
                    return logp, new_states
                return spied

            beam_search(spied_step_for, s0, 1, [4, 4])
            beam_search(spied_step_for, s0, 3, [4, 4])
            assert seen == {np.dtype(np.float32)}, kind


def assert_backward_repeats(loss):
    """Backward run twice on one recorded loss gives the same gradient bits
    and changes no value on the tape, forward outputs and leaves alike."""
    tensors = tape_tensors(loss)
    before = [t.data.copy() for t in tensors]
    first = {key: g.copy() for key, g in grad_map(loss).items()}
    second = grad_map(loss)
    assert first.keys() == second.keys() and first
    assert all(first[key].tobytes() == second[key].tobytes() for key in first)
    assert all(t.data.tobytes() == b.tobytes() for t, b in zip(tensors, before))


class TestFusedBackwardOwnsItsSums:
    """A fused node adds the later parts of a gradient into its first part
    in place (``autodiff._add``). A first part that aliased a cached array,
    a forward output or a parameter would change it, and a second backward
    would differ."""

    def test_every_kind_on_a_ragged_batch(self, toy_split, toy_vocabs):
        vs, vt = toy_vocabs
        batch = make_batches(toy_split[0], 16, vs, vt)[0]
        assert len(set(batch.src_lens)) > 1
        rng = np.random.default_rng(3)
        for kind, (_, ckpt) in float32_checkpoints(toy_split,
                                                   toy_vocabs).items():
            for _, t in ckpt.params.items():  # no all-zero gradient part
                t.data += rng.normal(0.0, 0.1, t.data.shape).astype(np.float32)
            assert_backward_repeats(ckpt.make_model().loss(
                batch, training=True, rng=np.random.default_rng(1)).joint)

    def test_anchor_measure_over_row_blocks(self):
        from refnet import autodiff as ad
        from refnet.lcc import (BLOCK_ELEMS, init_score,
                                mean_localization_measure)
        N, C, d = 300, 8, 128
        assert N * C * d > 2 * BLOCK_ELEMS
        rng = np.random.default_rng(7)
        X = ad.parameter(np.tanh(rng.normal(size=(N, d))))
        anchors = ad.parameter(X.data[:C] + 0.1)
        score = tuple(ad.parameter(a) for a in init_score(d, d, rng))
        assert_backward_repeats(
            mean_localization_measure(X, anchors, score, 1.0, 0.5))


def stage_run(stage, toy_split, toy_vocabs, **fields):
    """run_stage's arguments for ``stage`` on the toy split: 2 epochs of 16
    sentences per batch, or 3 fit iterations, then ``fields``."""
    argv = list(stage_argv(stage, toy_split, toy_vocabs))
    argv[4] = dataclasses.replace(argv[4], **{
        "epochs": 2, "batch_size": 16, "patience": 50, "fit_iters": 3, **fields})
    return argv


class TestBenchmarkHooks:
    """The benchmark cuts its timed pieces by rebinding ``training.backward``,
    ``lcc.backward`` and ``training.make_batches``: every training step
    must call the first once, every fit iteration the second once, and
    every epoch must shuffle through the third once."""

    @pytest.mark.parametrize("stage", STAGES)
    def test_each_step_calls_the_rebound_names(self, stage, toy_split,
                                               toy_vocabs, monkeypatch, capsys):
        from refnet import lcc
        argv = stage_run(stage, toy_split, toy_vocabs)
        config = argv[4]
        vs, vt = toy_vocabs
        per_epoch = len(make_batches(toy_split[0], config.batch_size, vs, vt))
        calls, seeds = Counter(), []

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                if key == "make_batches":
                    seeds.append(kwargs.get("shuffle_seed"))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(training, "backward", "training.backward")
        count(lcc, "backward", "lcc.backward")
        count(training, "make_batches", "make_batches")
        count(Optimizer, "update", "update")
        run_stage(*argv)
        if stage == "fit-anchors":
            expected = {"lcc.backward": config.fit_iters,
                        "update": config.fit_iters}
        else:
            expected = {"training.backward": config.epochs * per_epoch,
                        "update": config.epochs * per_epoch,
                        "make_batches": 1 + config.epochs}  # the dev split once
        assert dict(calls) == expected
        shuffled = sum(seed is not None for seed in seeds)
        assert shuffled == (0 if stage == "fit-anchors" else config.epochs)


# an unusual valid value of every TrainConfig field
UNUSUAL = {"epochs": 1, "batch_size": 7, "lr": 0.03, "drop_emb": 0.45,
           "drop_out": 0.55, "clip_norm": 0.02, "lam": 3.0, "lam_m": 0.5,
           "l_alpha": 0.3, "l_beta": 0.7, "n_anchors": 5, "d_a": 3, "seed": 999,
           "patience": 0, "fit_iters": 1, "fit_lr": 0.4, "fit_lr_decay": 0.5,
           "fit_batch": 9, "log_path": "unread.tsv"}


class TestStageFields:
    def test_unusual_values_cover_every_field(self):
        assert set(UNUSUAL) | {"stage"} == {f.name for f in
                                             dataclasses.fields(TrainConfig)}
        assert all(set(names) < set(UNUSUAL) for names in STAGE_FIELDS.values())

    @pytest.mark.parametrize("stage", STAGES)
    def test_fields_outside_the_stage_change_nothing(self, stage, toy_split,
                                                     toy_vocabs, tmp_path,
                                                     monkeypatch, capsys):
        """Every field outside the stage's STAGE_FIELDS entry set to an
        unusual value: the same parameters and history rows, and no log."""
        monkeypatch.chdir(tmp_path)

        def result(ckpt):
            return ({g: ckpt.params.group_digest(g) for g in GROUPS},
                    [{k: v for k, v in row.items() if k != "seconds"}
                     for row in ckpt.history])

        plain = run_stage(*stage_run(stage, toy_split, toy_vocabs))
        odd = run_stage(*stage_run(stage, toy_split, toy_vocabs, **{
            name: value for name, value in UNUSUAL.items()
            if name not in STAGE_FIELDS[stage]}))
        assert result(odd) == result(plain)
        assert odd.config != plain.config
        assert not (tmp_path / "unread.tsv").exists()


def test_bit_digest_repeats():
    """The bit-digest script at toy size gives one digest twice over."""
    import bit_digest
    assert bit_digest.digest("toy") == bit_digest.digest("toy")
