import os
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import refnet
from refnet.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_PREREQ,
                        EXIT_USAGE, build_parser, main)
from refnet.training import STAGE_FIELDS, STAGES, Checkpoint, TrainConfig


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    code = run_cli(["synth", "--kind", "cipher-reverse", "--vocab-size", "20",
                    "--min-len", "2", "--max-len", "6", "--seed", "5",
                    "--out", str(root / "toy"), "--splits", "120,20,20"])
    assert code == EXIT_OK
    return root


@pytest.fixture(scope="module")
def toy_ckpt(toy_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ckpt")
    ckpt = root / "base.ckpt"
    code = run_cli([
        "train",
        "--train-src", str(toy_files / "toy.train.src"),
        "--train-tgt", str(toy_files / "toy.train.tgt"),
        "--dev-src", str(toy_files / "toy.dev.src"),
        "--dev-tgt", str(toy_files / "toy.dev.tgt"),
        "--ckpt-out", str(ckpt),
        "--d-e", "8", "--d-h", "12", "--epochs", "3", "--batch-size", "16",
        "--seed", "11", "--patience", "50"])
    assert code == EXIT_OK
    return ckpt


class TestSynth:
    def test_deterministic_across_runs(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli(["synth", "--kind", "reverse", "--pairs", "100",
                            "--seed", "7", "--out", str(tmp_path / name)]) \
                == EXIT_OK
        assert (tmp_path / "a.src").read_bytes() == (tmp_path / "b.src").read_bytes()
        assert (tmp_path / "a.tgt").read_bytes() == (tmp_path / "b.tgt").read_bytes()

    def test_split_sizes(self, toy_files):
        for name, size in (("train", 120), ("dev", 20), ("test", 20)):
            lines = (toy_files / f"toy.{name}.src").read_text().splitlines()
            assert len(lines) == size

    def test_bad_lengths_rejected(self, tmp_path):
        code = run_cli(["synth", "--min-len", "9", "--max-len", "3",
                        "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["synth", "--out", str(tmp_path / "x"), "--bogus"])
        assert err.value.code == EXIT_USAGE

    def test_missing_corpus_is_config_error(self, tmp_path):
        code = run_cli(["evaluate", "--hyp", str(tmp_path / "missing.txt"),
                        "--refs", str(tmp_path / "missing2.txt")])
        assert code == EXIT_CONFIG

    def test_missing_checkpoint_is_prerequisite_error(self, tmp_path):
        (tmp_path / "src.txt").write_text("t1 t2\n")
        code = run_cli(["translate", "--ckpt", str(tmp_path / "none.ckpt"),
                        "--src", str(tmp_path / "src.txt"),
                        "--out", str(tmp_path / "out.txt")])
        assert code == EXIT_PREREQ

    @pytest.mark.parametrize("flags", [["--beam", "0"], ["--max-steps", "-1"]],
                             ids=["beam-0", "max-steps-negative"])
    def test_bad_decode_setting_is_config_error(self, toy_files, toy_ckpt,
                                                tmp_path, capsys, flags):
        code = run_cli(["translate", "--ckpt", str(toy_ckpt),
                        "--src", str(toy_files / "toy.test.src"),
                        "--out", str(tmp_path / "out.txt")] + flags)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert flags[0] in captured.err
        assert not (tmp_path / "out.txt").exists()

    def test_evaluate_missing_source_is_config_error(self, toy_files, tmp_path,
                                                     capsys):
        ref = str(toy_files / "toy.test.tgt")
        code = run_cli(["evaluate", "--hyp", ref, "--refs", ref,
                        "--src", str(tmp_path / "missing.src")])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "missing.src" in captured.err

    def test_evaluate_source_line_count_mismatch(self, toy_files, tmp_path,
                                                 capsys):
        ref = str(toy_files / "toy.test.tgt")
        short = tmp_path / "short.src"
        short.write_text("t1 t2\n")
        code = run_cli(["evaluate", "--hyp", ref, "--refs", ref,
                        "--src", str(short)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "1 lines" in captured.err

    def test_stage_without_prerequisite(self, toy_files, toy_ckpt, tmp_path):
        # finetune-m needs fitted anchors, which this checkpoint lacks
        code = run_cli([
            "finetune-m",
            "--train-src", str(toy_files / "toy.train.src"),
            "--train-tgt", str(toy_files / "toy.train.tgt"),
            "--dev-src", str(toy_files / "toy.dev.src"),
            "--dev-tgt", str(toy_files / "toy.dev.tgt"),
            "--ckpt-in", str(toy_ckpt), "--ckpt-out", str(tmp_path / "m.ckpt"),
            "--epochs", "1"])
        assert code == EXIT_PREREQ


def train_argv(d, tmp, *flags):
    return ["train", "--train-src", str(d / "toy.train.src"),
            "--train-tgt", str(d / "toy.train.tgt"),
            "--dev-src", str(d / "toy.dev.src"), "--dev-tgt", str(d / "toy.dev.tgt"),
            "--ckpt-out", str(tmp / "t.ckpt"), "--epochs", "1", *flags]


def fit_argv(d, ckpt, tmp, *flags):
    return ["fit-anchors", "--ckpt-in", str(ckpt), "--ckpt-out", str(tmp / "a.ckpt"),
            "--train-src", str(d / "toy.train.src"),
            "--train-tgt", str(d / "toy.train.tgt"), *flags]


def empty_file(tmp, name):
    path = tmp / name
    path.write_text("")
    return str(path)


def config_file(tmp, text):
    path = tmp / "case.cfg"
    path.write_text(text + "\n")
    return str(path)


# One case per documented exit code, and more than one where the code has
# several causes; each argv is built from (corpus dir, checkpoint, tmp dir).
EXIT_MATRIX = {
    "usage-unknown-flag": (EXIT_USAGE, lambda d, ckpt, tmp: [
        "synth", "--out", str(tmp / "x"), "--bogus"]),
    "usage-missing-required": (EXIT_USAGE, lambda d, ckpt, tmp: [
        "translate", "--ckpt", str(ckpt)]),
    "usage-config-value-not-an-int": (EXIT_USAGE, lambda d, ckpt, tmp: [
        "synth", "--config", config_file(tmp, "pairs=abc"), "--out", str(tmp / "x")]),
    "usage-config-value-not-a-choice": (EXIT_USAGE, lambda d, ckpt, tmp: [
        "synth", "--config", config_file(tmp, "kind=nonsense"),
        "--out", str(tmp / "x")]),
    "usage-config-without-path": (EXIT_USAGE, lambda d, ckpt, tmp: [
        "synth", "--out", str(tmp / "x"), "--config"]),
    "usage-removed-cell-flag": (EXIT_USAGE, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--cell", "gru")),
    "usage-removed-optimizer-flag": (EXIT_USAGE, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--optimizer", "adam")),
    "config-negative-patience": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--patience", "-1")),
    "config-zero-clip-norm": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--clip-norm", "0")),
    "config-negative-seed": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--seed", "-1")),
    "config-negative-fit-batch": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--fit-batch", "-1")),
    "config-negative-l-alpha": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--l-alpha", "-1")),
    "config-negative-fit-lr": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--fit-lr", "-1")),
    "config-zero-fit-lr-decay": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--fit-lr-decay", "0")),
    "config-nan-clip-norm": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--clip-norm", "nan")),
    "config-nan-fit-lr": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--fit-lr", "nan")),
    "config-min-count-above-every-token": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--min-count", "100000")),
    "config-vocab-max-without-room": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--vocab-max", "3")),
    "config-zero-filter-length": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--filter-len", "0")),
    "config-log-is-a-directory": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--log", str(tmp))),
    "config-ckpt-out-missing-directory": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--ckpt-out", str(tmp / "missing" / "t.ckpt"))),
    "config-bad-lengths": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "synth", "--min-len", "9", "--max-len", "3", "--out", str(tmp / "x")]),
    "config-zero-min-len": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "synth", "--min-len", "0", "--out", str(tmp / "x")]),
    "config-zero-pairs": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "synth", "--pairs", "0", "--out", str(tmp / "x")]),
    "config-negative-pairs": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "synth", "--pairs", "-5", "--out", str(tmp / "x")]),
    "config-empty-dev-corpus": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--dev-src", empty_file(tmp, "empty.src"),
        "--dev-tgt", empty_file(tmp, "empty.tgt"))),
    "config-filtered-empty-train-corpus": (EXIT_CONFIG, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--filter-len", "1")),
    "config-zero-bucket-width": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "evaluate", "--hyp", str(d / "toy.test.tgt"), "--refs",
        str(d / "toy.test.tgt"), "--src", str(d / "toy.test.src"),
        "--bucket-width", "0"]),
    "config-zero-hidden-size": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "train", "--train-src", str(d / "toy.train.src"),
        "--train-tgt", str(d / "toy.train.tgt"), "--dev-src", str(d / "toy.dev.src"),
        "--dev-tgt", str(d / "toy.dev.tgt"), "--ckpt-out", str(tmp / "t.ckpt"),
        "--d-h", "0", "--epochs", "1"]),
    "config-zero-gradcheck-seeds": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "gradcheck", "--seeds", "0"]),
    "config-removed-cell-key": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--config", config_file(tmp, "cell = gru"))),
    "config-removed-clip-mode-key": (EXIT_CONFIG, lambda d, ckpt, tmp: train_argv(
        d, tmp, "--config", config_file(tmp, "clip_mode = norm"))),
    "config-missing-corpus": (EXIT_CONFIG, lambda d, ckpt, tmp: [
        "evaluate", "--hyp", str(tmp / "none.txt"), "--refs", str(tmp / "none.txt")]),
    "prerequisite-missing-checkpoint": (EXIT_PREREQ, lambda d, ckpt, tmp: [
        "params", "--ckpt", str(tmp / "none.ckpt")]),
    "prerequisite-no-anchors": (EXIT_PREREQ, lambda d, ckpt, tmp: [
        "finetune-m", "--ckpt-in", str(ckpt), "--ckpt-out", str(tmp / "m.ckpt"),
        "--train-src", str(d / "toy.train.src"), "--train-tgt", str(d / "toy.train.tgt"),
        "--dev-src", str(d / "toy.dev.src"), "--dev-tgt", str(d / "toy.dev.tgt"),
        "--epochs", "1"]),
    "numeric-divergent-training": (EXIT_NUMERIC, lambda d, ckpt, tmp: [
        "train", "--train-src", str(d / "toy.train.src"),
        "--train-tgt", str(d / "toy.train.tgt"), "--dev-src", str(d / "toy.dev.src"),
        "--dev-tgt", str(d / "toy.dev.tgt"), "--ckpt-out", str(tmp / "t.ckpt"),
        "--d-e", "4", "--d-h", "4", "--epochs", "2", "--batch-size", "16",
        "--lr", "1e300"]),
    "numeric-divergent-fit": (EXIT_NUMERIC, lambda d, ckpt, tmp: fit_argv(
        d, ckpt, tmp, "--fit-lr", "1e300", "--fit-iters", "3")),
}


@pytest.mark.parametrize("case", sorted(EXIT_MATRIX))
def test_exit_code_matrix(case, toy_files, toy_ckpt, tmp_path):
    """Each failure exits with its documented code and prints no traceback,
    run as its own process the way a shell runs ``refnet``."""
    code, make_argv = EXIT_MATRIX[case]
    proc = run_process(make_argv(toy_files, toy_ckpt, tmp_path))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr.strip()


@pytest.mark.parametrize("case, where", [
    ("numeric-divergent-training", "pretrain: non-finite parameters after the "
                                   "update at epoch 0, batch 0"),
    ("numeric-divergent-fit", "fit-anchors: non-finite parameters after the "
                              "update at iteration 0")],
    ids=["numeric-divergent-training", "numeric-divergent-fit"])
def test_divergence_prints_only_its_error(case, where, toy_files, toy_ckpt,
                                          tmp_path):
    """The first update already makes the parameters non-finite: stderr is
    the one error line, naming that step, with no NumPy warnings before it."""
    _, make_argv = EXIT_MATRIX[case]
    proc = run_process(make_argv(toy_files, toy_ckpt, tmp_path))
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.splitlines() == [f"numeric failure: {where}"]


@pytest.mark.parametrize("case, named", [
    ("config-empty-dev-corpus", "empty.src / "),
    ("config-filtered-empty-train-corpus", "toy.train.src / ")])
def test_empty_corpus_names_its_files(case, named, toy_files, toy_ckpt,
                                      tmp_path, capsys):
    """A corpus left with no pairs, empty or emptied by --filter-len, is
    refused when it is loaded, with its file names, and nothing is written."""
    _, make_argv = EXIT_MATRIX[case]
    assert run_cli(make_argv(toy_files, toy_ckpt, tmp_path)) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not any(tmp_path.glob("*.ckpt"))


def empty_source_line(d, tmp, split):
    """A copy of the toy train and dev files in ``tmp`` whose ``split``
    source has an empty line 3."""
    for name in ("train", "dev"):
        for side in ("src", "tgt"):
            lines = (d / f"toy.{name}.{side}").read_text().splitlines()
            if (name, side) == (split, "src"):
                lines[2] = ""
            (tmp / f"toy.{name}.{side}").write_text("\n".join(lines) + "\n")
    return tmp


@pytest.mark.parametrize("split", ["train", "dev"])
def test_empty_source_line_is_config_error(split, toy_files, tmp_path, capsys):
    """An empty source line is refused at load time with its file and line,
    not reported as a non-finite loss (exit 4) once the encoder divides by
    its zero length."""
    code = run_cli(train_argv(empty_source_line(toy_files, tmp_path, split),
                              tmp_path))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"toy.{split}.src: line 3: empty source sentence" in err
    assert "non-finite" not in err and not (tmp_path / "t.ckpt").exists()


def run_process(argv):
    src_root = os.path.dirname(os.path.dirname(refnet.__file__))
    env = dict(os.environ, PYTHONPATH=src_root)
    return subprocess.run([sys.executable, "-m", "refnet.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_renamed_parameter_exits_prerequisite(toy_files, toy_ckpt, tmp_path,
                                              rewrite_header):
    """A header that renames a parameter (with a valid checksum) is refused
    at load time, before translation could look the old name up."""
    def rename(header, payload):
        entry = next(e for e in header["params"] if e["name"] == "enc/fwd/W")
        entry["name"] = "enc/fwd/Q"

    bad = rewrite_header(toy_ckpt, tmp_path / "renamed.ckpt", rename)
    proc = run_process(["translate", "--ckpt", str(bad),
                        "--src", str(toy_files / "toy.test.src"),
                        "--out", str(tmp_path / "hyp.txt")])
    assert proc.returncode == EXIT_PREREQ, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "enc/fwd/W" in proc.stderr and "enc/fwd/Q" in proc.stderr


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["train", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for expected in ("--drop-emb", "0.2", "--drop-out", "0.3",
                         "--clip-norm", "1.0", "--epochs", "--seed", "42"):
            assert expected in text

    def test_translate_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["translate", "--help"])
        text = capsys.readouterr().out
        assert "--beam" in text and "10" in text

    def test_train_b_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["train-b", "--help"])
        text = capsys.readouterr().out
        assert "--lam" in text and "--d-a" in text
        # one default per field: train-b's anchor count defaults as
        # fit-anchors' does, to TrainConfig's
        args = build_parser().parse_args(
            ["train-b"] + [x for flag in ("--ckpt-in", "--ckpt-out", "--train-src",
                                          "--train-tgt", "--dev-src", "--dev-tgt")
                           for x in (flag, "f")])
        assert args.n_anchors == TrainConfig().n_anchors == 16


def stage_command_argv(stage, d, ckpt, tmp):
    """A command line that runs ``stage``: every required flag given."""
    if stage == "pretrain":
        return train_argv(d, tmp)
    if stage == "fit-anchors":
        return fit_argv(d, ckpt, tmp)
    return [stage, "--ckpt-in", str(ckpt), "--ckpt-out", str(tmp / "s.ckpt"),
            "--train-src", str(d / "toy.train.src"),
            "--train-tgt", str(d / "toy.train.tgt"),
            "--dev-src", str(d / "toy.dev.src"), "--dev-tgt", str(d / "toy.dev.tgt")]


@pytest.mark.parametrize("stage", STAGES)
def test_flags_outside_the_stage_fields_are_unknown(stage, toy_files, toy_ckpt,
                                                    tmp_path, capsys):
    """A TrainConfig field that the stage does not read has no flag: typed,
    it is a usage error (exit 1); in a --config file, an unknown key
    (exit 2). Nothing runs either way."""
    argv = stage_command_argv(stage, toy_files, toy_ckpt, tmp_path)
    dropped = [f.name for f in fields(TrainConfig)
               if f.name not in STAGE_FIELDS[stage] + ("stage",)]
    assert dropped
    for name in dropped:
        flag = "--log" if name == "log_path" else "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as err:
            run_cli(argv + [flag, "1"])
        assert err.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        cfg = config_file(tmp_path, f"{name} = 1")
        assert run_cli(argv + ["--config", cfg]) == EXIT_CONFIG
        assert f"unknown config keys: ['{name}']" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.ckpt"))


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("kind=reverse\npairs=30\nseed=9\n")
        assert run_cli(["synth", "--config", str(cfg),
                        "--out", str(tmp_path / "a")]) == EXIT_OK
        assert len((tmp_path / "a.src").read_text().splitlines()) == 30
        assert run_cli(["synth", "--config", str(cfg), "--pairs", "12",
                        "--out", str(tmp_path / "b")]) == EXIT_OK
        assert len((tmp_path / "b.src").read_text().splitlines()) == 12

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key=1\n")
        assert run_cli(["synth", "--config", str(cfg),
                        "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_config_values_do_not_outlive_their_call(self, tmp_path,
                                                     monkeypatch):
        from refnet import cli
        beams = []
        monkeypatch.setattr(cli, "_cmd_translate",
                            lambda args: beams.append(args.beam))
        cfg = tmp_path / "beam.cfg"
        cfg.write_text("beam=4\n")
        argv = ["translate", "--ckpt", "m.ckpt", "--src", "in.txt",
                "--out", "out.txt"]
        assert run_cli(argv + ["--config", str(cfg)]) == EXIT_OK
        assert run_cli(argv) == EXIT_OK
        assert beams == [4, 10]

    def test_flag_before_config_still_wins(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("pairs=30\n")
        assert run_cli(["synth", "--pairs", "12", "--config", str(cfg),
                        "--out", str(tmp_path / "a")]) == EXIT_OK
        assert len((tmp_path / "a.src").read_text().splitlines()) == 12

    def test_required_flag_from_file(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"pairs=5\nout={tmp_path / 'a'}\n")
        assert run_cli(["synth", "--config", str(cfg)]) == EXIT_OK
        assert len((tmp_path / "a.src").read_text().splitlines()) == 5

    @pytest.mark.parametrize("lines, refs, lowered", [
        ("refs=a.txt b.txt", ["a.txt", "b.txt"], False),
        ("refs=a.txt\ncase_insensitive=true", ["a.txt"], True),
        ("refs=a.txt\ncase-insensitive=false", ["a.txt"], False),
    ], ids=["multi-value", "switch-on", "switch-off"])
    def test_multi_value_and_switch_keys(self, tmp_path, monkeypatch, lines,
                                         refs, lowered):
        from refnet import cli
        seen = []
        monkeypatch.setattr(cli, "_cmd_evaluate", seen.append)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(lines + "\n")
        assert run_cli(["evaluate", "--config", str(cfg), "--hyp", "h.txt"]) \
            == EXIT_OK
        assert seen[0].refs == refs and seen[0].case_insensitive is lowered

    @pytest.mark.parametrize("command, line", [
        ("synth", "pairs=abc"), ("synth", "kind=nonsense"),
        ("train", "epochs=1.5"),
        ("evaluate", "case_insensitive=maybe"), ("evaluate", "refs="),
    ])
    def test_value_the_flag_rejects_is_usage(self, tmp_path, capsys, command,
                                             line):
        """A file value goes through the same checks as the flag it names."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv = {"synth": ["--out", str(tmp_path / "x")],
                "train": train_argv(tmp_path, tmp_path)[1:],
                "evaluate": ["--hyp", "h.txt", "--refs", "r.txt"]}[command]
        with pytest.raises(SystemExit) as err:
            run_cli([command, "--config", str(cfg), *argv])
        assert err.value.code == EXIT_USAGE
        assert line.split("=")[0].replace("_", "-") in capsys.readouterr().err

    def test_malformed_line_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert run_cli(["synth", "--config", str(cfg),
                        "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestTranslateAndEvaluate:
    def test_beam_one_equals_greedy_module_call(self, toy_files, toy_ckpt,
                                                tmp_path):
        ckpt = Checkpoint.load(toy_ckpt)
        model = ckpt.make_model()
        out1 = tmp_path / "hyp_beam1.txt"
        assert run_cli(["translate", "--ckpt", str(toy_ckpt),
                        "--src", str(toy_files / "toy.test.src"),
                        "--out", str(out1), "--beam", "1"]) == EXIT_OK
        lines = out1.read_text().splitlines()
        from refnet.corpus import read_sentences
        for src_tokens, hyp_line in zip(
                read_sentences(toy_files / "toy.test.src"), lines):
            ids = ckpt.vocab_src.encode(src_tokens)
            expected = " ".join(ckpt.vocab_tgt.decode(model.translate(ids, beam=1)))
            assert hyp_line == expected

    def test_empty_source_line_gives_empty_hypothesis(self, toy_files,
                                                        toy_ckpt, tmp_path):
        first, second = (toy_files / "toy.test.src").read_text().splitlines()[:2]
        outputs = {}
        for name, text in (("plain", f"{first}\n{second}\n"),
                           ("gaps", f"{first}\n\n{second}\n")):
            (tmp_path / f"{name}.src").write_text(text)
            assert run_cli(["translate", "--ckpt", str(toy_ckpt),
                            "--src", str(tmp_path / f"{name}.src"),
                            "--out", str(tmp_path / f"{name}.hyp"),
                            "--beam", "2"]) == EXIT_OK
            outputs[name] = (tmp_path / f"{name}.hyp").read_text().splitlines()
        assert outputs["gaps"] == [outputs["plain"][0], "", outputs["plain"][1]]

    def test_translate_deterministic(self, toy_files, toy_ckpt, tmp_path):
        outs = []
        for name in ("h1.txt", "h2.txt"):
            path = tmp_path / name
            assert run_cli(["translate", "--ckpt", str(toy_ckpt),
                            "--src", str(toy_files / "toy.test.src"),
                            "--out", str(path), "--beam", "3"]) == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_reports_bleu(self, toy_files, toy_ckpt, tmp_path,
                                   capsys):
        hyp = tmp_path / "hyp.txt"
        run_cli(["translate", "--ckpt", str(toy_ckpt),
                 "--src", str(toy_files / "toy.test.src"),
                 "--out", str(hyp), "--beam", "2"])
        assert run_cli(["evaluate", "--hyp", str(hyp),
                        "--refs", str(toy_files / "toy.test.tgt"),
                        "--src", str(toy_files / "toy.test.src")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "BLEU =" in text
        assert "bucket" in text

    def test_params_command(self, toy_ckpt, capsys):
        assert run_cli(["params", "--ckpt", str(toy_ckpt)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "encoder" in text and "decoder" in text and "total" in text


    def test_params_on_malformed_checkpoint(self, toy_ckpt, tmp_path,
                                            rewrite_header, capsys):
        bad = rewrite_header(toy_ckpt, tmp_path / "bad.ckpt",
                             lambda h, p: h.pop("dims"))
        assert run_cli(["params", "--ckpt", str(bad)]) == EXIT_PREREQ
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "dims" in captured.err

    @pytest.mark.parametrize("mutate, message", [
        (lambda h, p: p.__setitem__(slice(-8, None), struct.pack("<d", np.nan)),
         "non-finite"),
        (lambda h, p: h["params"][1].update(offset=h["params"][0]["offset"]),
         "overlap"),
    ], ids=["nan-payload", "overlapping-offsets"])
    def test_params_on_corrupt_payload(self, toy_ckpt, tmp_path, rewrite_header,
                                       capsys, mutate, message):
        bad = rewrite_header(toy_ckpt, tmp_path / "bad.ckpt", mutate)
        assert run_cli(["params", "--ckpt", str(bad)]) == EXIT_PREREQ
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert message in captured.err


class TestGradcheckCommand:
    def test_single_seed_passes(self, capsys):
        assert run_cli(["gradcheck", "--seeds", "1"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_rejected(self, seeds, capsys):
        """A suite that runs no check must not report that all checks passed."""
        assert run_cli(["gradcheck", "--seeds", seeds]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "passed" not in captured.out and "--seeds" in captured.err

    def test_failure_exits_with_numeric_code(self, monkeypatch, capsys):
        from refnet import cli, gradcheck

        def broken_suite(seeds):
            return [gradcheck.CheckResult("attention", 0, 1.0)]

        monkeypatch.setattr(cli.gradcheck, "run_suite", broken_suite)
        assert run_cli(["gradcheck", "--seeds", "1"]) == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


@pytest.fixture(scope="module")
def m_ckpts(toy_files, toy_ckpt, tmp_path_factory):
    """(anchored, m_ref) checkpoints fitted and tuned from the toy baseline."""
    root = tmp_path_factory.mktemp("cli_m")
    data = [f"--{split}-{side}={toy_files / f'toy.{split}.{side}'}"
            for split in ("train", "dev") for side in ("src", "tgt")]
    anchored, m_ckpt = root / "anchored.ckpt", root / "m.ckpt"
    assert run_cli(["fit-anchors", "--ckpt-in", str(toy_ckpt),
                    "--ckpt-out", str(anchored), *data[:2],
                    "--n-anchors", "4", "--fit-iters", "20",
                    "--seed", "11"]) == EXIT_OK
    assert run_cli(["finetune-m", "--ckpt-in", str(anchored),
                    "--ckpt-out", str(m_ckpt), *data, "--epochs", "1",
                    "--batch-size", "16", "--seed", "11"]) == EXIT_OK
    return anchored, m_ckpt


class TestAnchorGroup:
    def test_fit_anchors_keeps_only_the_points(self, m_ckpts):
        ckpt = Checkpoint.load(m_ckpts[0])
        assert ckpt.params.members("anchors") == ["anchors/m"]
        assert ckpt.params["anchors/m"].shape == (4, 2 * ckpt.dims.d_h)

    def test_file_with_score_net_translates_identically(self, m_ckpts, toy_files,
                                                         tmp_path):
        """Files written before the score net was dropped carry
        ``anchors/m_score/*``; they still load and decode the same."""
        ckpt = Checkpoint.load(m_ckpts[1])
        d_v = 2 * ckpt.dims.d_h
        rng = np.random.default_rng(0)
        for key, shape in (("W", (d_v, d_v)), ("U", (d_v, d_v)),
                           ("V", (d_v, d_v)), ("v", (d_v,))):
            ckpt.params.add(f"anchors/m_score/{key}", rng.normal(size=shape),
                            "anchors")
        old = tmp_path / "old.ckpt"
        ckpt.save(old)
        assert len(Checkpoint.load(old).params.members("anchors")) == 5
        outs = []
        for path in (m_ckpts[1], old):
            out = tmp_path / f"{path.stem}.hyp"
            assert run_cli(["translate", "--ckpt", str(path),
                            "--src", str(toy_files / "toy.test.src"),
                            "--out", str(out), "--beam", "3"]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0]


class TestFullPipeline:
    def test_synth_train_finetune_translate_evaluate(self, toy_files,
                                                     toy_ckpt, tmp_path,
                                                     capsys):
        """End-to-end command sequence finishes and reports a BLEU score."""
        data = {flag: str(toy_files / f"toy.{split}.{side}")
                for flag, split, side in (
                    ("--train-src", "train", "src"),
                    ("--train-tgt", "train", "tgt"),
                    ("--dev-src", "dev", "src"),
                    ("--dev-tgt", "dev", "tgt"))}
        anchored = tmp_path / "anchored.ckpt"
        assert run_cli(["fit-anchors", "--ckpt-in", str(toy_ckpt),
                        "--ckpt-out", str(anchored),
                        "--train-src", data["--train-src"],
                        "--train-tgt", data["--train-tgt"],
                        "--n-anchors", "4", "--fit-iters", "40",
                        "--seed", "11"]) == EXIT_OK
        m_ckpt = tmp_path / "m.ckpt"
        args = ["finetune-m", "--ckpt-in", str(anchored),
                "--ckpt-out", str(m_ckpt), "--epochs", "2",
                "--batch-size", "16", "--seed", "11", "--patience", "50"]
        for flag, value in data.items():
            args += [flag, value]
        assert run_cli(args) == EXIT_OK
        hyp = tmp_path / "hyp.txt"
        assert run_cli(["translate", "--ckpt", str(m_ckpt),
                        "--src", str(toy_files / "toy.test.src"),
                        "--out", str(hyp), "--beam", "3"]) == EXIT_OK
        assert run_cli(["evaluate", "--hyp", str(hyp),
                        "--refs", str(toy_files / "toy.test.tgt")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "BLEU =" in out
