import struct

import numpy as np
import pytest

from refnet.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_PREREQ,
                        EXIT_USAGE, main)
from refnet.training import Checkpoint


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

    def test_malformed_line_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert run_cli(["synth", "--config", str(cfg),
                        "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestTranslateAndEvaluate:
    def test_beam_one_equals_greedy_module_call(self, toy_files, toy_ckpt,
                                                tmp_path):
        ckpt = Checkpoint.load(toy_ckpt)
        model = ckpt.make_model(drop_emb=0.0, drop_out=0.0)
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

    def test_failure_exits_with_numeric_code(self, monkeypatch, capsys):
        from refnet import cli, gradcheck

        def broken_suite(seeds):
            return [gradcheck.CheckResult("attention", 0, 1.0)]

        monkeypatch.setattr(cli.gradcheck, "run_suite", broken_suite)
        assert run_cli(["gradcheck", "--seeds", "1"]) == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


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
