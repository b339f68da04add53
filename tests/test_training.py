import struct

import numpy as np
import pytest

from refnet.corpus import make_batches
from refnet.errors import CheckpointError, PrerequisiteError
from refnet.model import TranslationModel
from refnet.params import GROUPS
from refnet.seq2seq import ModelDims
from refnet.training import (Checkpoint, TrainConfig, pretrain, run_stage)

def nan_payload(header, payload):
    payload[-8:] = struct.pack("<d", float("nan"))


HEADER_MUTATIONS = {
    "missing-dims": lambda h, p: h.pop("dims"),
    "nan-payload": nan_payload,
    "offset-out-of-bounds": lambda h, p: h["params"][-1].update(
        offset=h["payload_bytes"]),
    "overlapping-offsets": lambda h, p: h["params"][1].update(
        offset=h["params"][0]["offset"]),
    "unknown-kind": lambda h, p: h.update(kind="zzz"),
}


def quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=21, **kw):
    train, dev, _ = toy_split
    vs, vt = toy_vocabs
    dims = ModelDims(vocab_src=len(vs), vocab_tgt=len(vt), d_e=6, d_h=8)
    config = TrainConfig(stage="pretrain", epochs=epochs, batch_size=16,
                         seed=seed, patience=50, **kw)
    return pretrain(train, dev, vs, vt, dims, config)


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

    def test_version_mismatch_rejected(self, toy_split, toy_vocabs, tmp_path,
                                       capsys):
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        (tmp_path / "v99.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(tmp_path / "v99.ckpt")

    def test_dims_mismatch_rejected(self, toy_split, toy_vocabs, tmp_path,
                                    capsys):
        ckpt = quick_pretrain(toy_split, toy_vocabs)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        wrong = ModelDims(vocab_src=ckpt.dims.vocab_src,
                          vocab_tgt=ckpt.dims.vocab_tgt, d_e=6, d_h=4)
        with pytest.raises(CheckpointError, match="dims"):
            Checkpoint.load(path, expect_dims=wrong)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "absent.ckpt")


class TestStages:
    def test_zero_epochs_is_random_init(self, toy_split, toy_vocabs):
        a = quick_pretrain(toy_split, toy_vocabs, epochs=0)
        from refnet.seq2seq import init_baseline_params
        fresh = init_baseline_params(a.dims, np.random.default_rng(21))
        for name in fresh.names():
            np.testing.assert_array_equal(a.params[name].data,
                                          fresh[name].data)

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

    def test_full_m_pipeline_provenance_and_freezes(self, toy_split,
                                                    toy_vocabs, capsys):
        train, dev, _ = toy_split
        base = quick_pretrain(toy_split, toy_vocabs, epochs=1)
        fit_cfg = TrainConfig(stage="fit-anchors", n_anchors=3, fit_iters=30,
                              seed=21)
        withanch = run_stage("fit-anchors", base, train, None, fit_cfg)
        assert withanch.stages == ["pretrain", "fit-anchors"]
        enc = withanch.params.group_digest("encoder")
        anc = withanch.params.group_digest("anchors")
        m_cfg = TrainConfig(stage="finetune-m", epochs=1, batch_size=16,
                            seed=21, patience=50)
        m = run_stage("finetune-m", withanch, train, dev, m_cfg)
        assert m.stages == ["pretrain", "fit-anchors", "finetune-m"]
        assert m.params.group_digest("encoder") == enc
        assert m.params.group_digest("anchors") == anc
        assert not m.params.is_frozen("encoder")  # freezes are stage-local

    def test_b_pipeline_provenance(self, toy_split, toy_vocabs, capsys):
        train, dev, _ = toy_split
        base = quick_pretrain(toy_split, toy_vocabs, epochs=1)
        cfg = TrainConfig(stage="train-b", epochs=1, batch_size=16, seed=21,
                          n_anchors=3, d_a=5, patience=50)
        b = run_stage("train-b", base, train, dev, cfg)
        assert b.stages == ["pretrain", "train-b"]

    def test_train_b_on_m_ref_rejected(self, toy_split, toy_vocabs, capsys):
        train, dev, _ = toy_split
        base = quick_pretrain(toy_split, toy_vocabs, epochs=1)
        withanch = run_stage("fit-anchors", base, train, None,
                             TrainConfig(stage="fit-anchors", n_anchors=3,
                                         fit_iters=20, seed=21))
        m = run_stage("finetune-m", withanch, train, dev,
                      TrainConfig(stage="finetune-m", epochs=1,
                                  batch_size=16, seed=21, patience=50))
        with pytest.raises(PrerequisiteError):
            run_stage("train-b", m, train, dev,
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
        ckpt = pretrain(train, dev, vs, vt, dims, config)
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

    def test_full_pipelines_reproducible_bitwise(self, toy_split, toy_vocabs,
                                                 tmp_path, capsys):
        train, dev, _ = toy_split

        def m_branch(tag):
            base = quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=55)
            withanch = run_stage("fit-anchors", base, train, None,
                                 TrainConfig(stage="fit-anchors", n_anchors=3,
                                             fit_iters=25, seed=55))
            m = run_stage("finetune-m", withanch, train, dev,
                          TrainConfig(stage="finetune-m", epochs=1,
                                      batch_size=16, seed=55, patience=50))
            path = tmp_path / f"m_{tag}.ckpt"
            m.save(path)
            return path.read_bytes()

        def b_branch(tag):
            base = quick_pretrain(toy_split, toy_vocabs, epochs=1, seed=55)
            b = run_stage("train-b", base, train, dev,
                          TrainConfig(stage="train-b", epochs=1, batch_size=16,
                                      seed=55, n_anchors=3, d_a=5,
                                      patience=50))
            path = tmp_path / f"b_{tag}.ckpt"
            b.save(path)
            return path.read_bytes()

        assert m_branch("a") == m_branch("b")
        assert b_branch("a") == b_branch("b")

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
