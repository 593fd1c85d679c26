"""End-to-end CLI flows on a small synthetic task."""

import argparse
import dataclasses
import json
import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchprompt import runner
from switchprompt.cli import build_parser, main
from switchprompt.gradcheck import OP_TRIALS
from switchprompt.runner import RunConfig, load_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic task + keywords + split, generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main([
        "gen-synthetic", "--out", str(data_dir), "--seed", "0",
        "--classes", "3", "--examples-per-class", "20",
        "--filler-prob", "0.4", "--keywords-per-class", "3",
    ]) == 0
    assert main([
        "extract-keywords",
        "--general", str(data_dir / "general.txt"),
        "--domain", str(data_dir / "domain.txt"),
        "--n", "6", "--out", str(root / "keywords.tsv"),
    ]) == 0
    return root


BASE_FLAGS = [
    "--shots", "4", "--seeds", "0", "--epochs", "2",
    "--m", "3", "--n", "6",
]


def run_flags(workspace):
    data_dir = workspace / "data"
    return [
        "--data", str(data_dir / "dataset.tsv"),
        "--general", str(data_dir / "general.txt"),
        "--domain", str(data_dir / "domain.txt"),
        "--keywords", str(workspace / "keywords.tsv"),
    ] + BASE_FLAGS


def float_flag(flag, value, form):
    """`--alpha=-inf`, or `--alpha -inf`, which argparse alone reads as two options."""
    return [f"{flag}={value}"] if form == "joined" else [flag, value]


def make_config_file(workspace, path):
    data_dir = workspace / "data"
    path.write_text(
        "\n".join([
            'variant = "switchprompt"',
            "embed_dim = 8",
            "num_layers = 2",
            "num_heads = 2",
            "ffn_dim = 16",
            "soft_prompt_len = 3",
            "num_keywords = 6",
            "epochs = 2",
            "seeds = [0]",
            "shots = 4",
            "batch_size = 6",
            "vocab_cap = 200",
            f'dataset = "{data_dir / "dataset.tsv"}"',
            f'general_corpus = "{data_dir / "general.txt"}"',
            f'domain_corpus = "{data_dir / "domain.txt"}"',
        ]),
        encoding="utf-8",
    )


class TestGenSynthetic:
    def test_writes_corpora_and_dataset(self, workspace):
        data_dir = workspace / "data"
        assert (data_dir / "general.txt").exists()
        assert (data_dir / "domain.txt").exists()
        lines = (data_dir / "dataset.tsv").read_text().splitlines()
        assert len(lines) == 60
        assert all("\t" in line for line in lines)

    @pytest.mark.parametrize("flag, value, name", [
        ("--classes", "0", "num_classes"),
        ("--examples-per-class", "-2", "examples_per_class"),
        ("--tokens-per-example", "0", "tokens_per_example"),
        ("--keywords-per-class", "0", "keywords_per_class"),
        ("--filler-vocab", "0", "filler_vocab"),
        ("--seed", "-1", "seed"),
        ("--filler-prob", "-inf", "filler_prob"),  # a value argparse alone reads as an option
    ])
    def test_bad_count_is_one_line_and_writes_nothing(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "task"
        assert main(["gen-synthetic", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be"), err
        assert not out.exists()


class TestExtractKeywords:
    def test_keyword_file_has_ranked_records(self, workspace):
        lines = (workspace / "keywords.tsv").read_text().splitlines()
        assert len(lines) == 6
        ranks = [int(line.split("\t")[2]) for line in lines]
        assert ranks == [1, 2, 3, 4, 5, 6]

    def test_negative_n_is_a_one_line_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "keywords.tsv"
        assert main([
            "extract-keywords", "--general", str(workspace / "data" / "general.txt"),
            "--domain", str(workspace / "data" / "domain.txt"), "--n", "-1", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "keyword count n" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["joined", "spaced"])
    @pytest.mark.parametrize("alpha", ["-inf", "nan"])
    def test_non_finite_alpha_is_a_one_line_error(self, workspace, tmp_path, capsys, alpha, form):
        out = tmp_path / "keywords.tsv"
        assert main([
            "extract-keywords", "--general", str(workspace / "data" / "general.txt"),
            "--domain", str(workspace / "data" / "domain.txt"), *float_flag("--alpha", alpha, form),
            "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: alpha must be negative and finite, got {alpha}"]
        assert not out.exists()


class TestSampleFewshot:
    def test_writes_split_files(self, workspace, tmp_path):
        code = main([
            "sample-fewshot", "--data", str(workspace / "data" / "dataset.tsv"),
            "--shots", "4", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "split.json").read_text())
        assert manifest["shots"] == 4
        assert all((tmp_path / f"{p}.tsv").exists() for p in ("train", "dev", "test"))

    def test_negative_shots_is_a_one_line_error(self, workspace, tmp_path, capsys):
        assert main([
            "sample-fewshot", "--data", str(workspace / "data" / "dataset.tsv"),
            "--shots", "-1", "--out", str(tmp_path / "split"),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "shots must be >= 1" in err[0], err
        assert not (tmp_path / "split").exists()

    def test_negative_seed_is_a_one_line_error(self, workspace, tmp_path, capsys):
        assert main([
            "sample-fewshot", "--data", str(workspace / "data" / "dataset.tsv"),
            "--shots", "4", "--seed", "-1", "--out", str(tmp_path / "split"),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be >= 0, got -1"], err
        assert not (tmp_path / "split").exists()


class TestTrainCli:
    def test_train_writes_result_files(self, workspace, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train"] + run_flags(workspace)
            + ["--variant", "switchprompt", "--out", str(out)]
            + ["--epochs", "2"]
        )
        assert code == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "result.json").exists()
        assert (out / "summary.txt").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["variant"] == "switchprompt"

    def test_zero_epochs_still_writes_results(self, workspace, tmp_path):
        out = tmp_path / "zero"
        flags = [f for f in run_flags(workspace)]
        flags[flags.index("--epochs") + 1] = "0"
        assert main(["train"] + flags + ["--out", str(out)]) == 0
        assert (out / "result.json").exists()

    def test_config_file_plus_overrides(self, workspace, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        make_config_file(workspace, cfg_path)
        out = tmp_path / "cfg_run"
        code = main([
            "train", "--config", str(cfg_path), "--variant", "keywords-only",
            "--out", str(out),
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["variant"] == "keywords-only"  # flag beat the config file

    @pytest.mark.parametrize("flag", ["--freeze", "--no-freeze"])
    def test_backbone_freeze_flags_are_gone(self, workspace, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["train"] + run_flags(workspace) + [flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("form", ["joined", "spaced"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "-inf", "config key alpha: must be finite, got -inf"),
        ("--alpha", "nan", "config key alpha: must be finite, got nan"),
        ("--lr", "-1e-3", "config key lr: must be > 0, got -0.001"),
    ])
    def test_bad_float_flag_is_a_one_line_error(self, workspace, tmp_path, capsys, command,
                                                form, flag, value, message):
        out = tmp_path / "run"
        # the corpus flags are real files, so only the float flag can fail
        flags = run_flags(workspace) + float_flag(flag, value, form) + ["--out", str(out)]
        assert main([command] + flags) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_dataset_is_reported(self, capsys):
        assert main(["train", "--epochs", "1"]) == 1
        assert "no dataset" in capsys.readouterr().err

    def test_evaluate_saved_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "ckpt_run"
        assert main(["train"] + run_flags(workspace) + ["--out", str(out)]) == 0
        code = main([
            "evaluate", "--checkpoint", str(out / "model_seed0.bin"),
            "--data", str(workspace / "data" / "dataset.tsv"),
        ])
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out


class TestAblateCli:
    def test_table_has_six_variant_rows(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablation"
        flags = run_flags(workspace)
        flags[flags.index("--m") + 1] = "6"  # mix-no-concat needs m == n
        assert main(["ablate"] + flags + ["--epochs", "1", "--out", str(out)]) == 0
        table = (out / "ablation_table.txt").read_text().splitlines()
        assert len(table) == 7
        names = [row.split()[0] for row in table[1:]]
        assert names == [
            "switchprompt", "mix-no-concat", "concat-vk", "concat-kv",
            "keywords-only", "soft-only",
        ]


class TestGradcheckCli:
    def test_exit_zero_and_one_line_per_op(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) == len(OP_TRIALS)

    @pytest.mark.parametrize("seed", ["10", "23", "38"])
    def test_near_constant_layer_norm_row_is_no_false_failure(self, seed):
        # without the trial's variance floor, a near-constant layer_norm row drawn
        # at these seeds (23 with the earlier 21-trial suite, 10 with 2-D-only
        # trials, 38 with this one) gives a central-difference error above the tolerance
        assert main(["gradcheck", "--seed", seed]) == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--trials", "-1", "trials must be >= 1, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_argument_is_one_line_and_checks_nothing(self, capsys, flag, value, message):
        assert main(["gradcheck", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


class TestUnknownInputs:
    def test_bad_variant_is_a_clean_error(self, workspace, capsys):
        assert main(["train"] + run_flags(workspace) + ["--variant", "bogus"]) == 1
        assert "unknown variant" in capsys.readouterr().err

    def test_bad_config_value_is_one_line_naming_the_key(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "zero_width.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write("\nembed_dim = 0\nnum_heads = 1\n")  # later lines win
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config key embed_dim" in err[0], err

    def test_out_of_range_config_value_is_one_line_naming_the_key(self, workspace, tmp_path,
                                                                   capsys):
        cfg_path = tmp_path / "negative_clip.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write("\ngrad_clip = -1.0\n")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config key grad_clip" in err[0], err

    def test_infinite_config_value_is_one_line_naming_the_key(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "infinite_eps.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write("\nadam_eps = Infinity\n")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config key adam_eps: must be finite, got inf"]

    @pytest.mark.parametrize("line", ["encoder_dropout = 0.1", 'activation = "relu"',
                                      "train_keywords = true", 'backbone_init = "mlm"'])
    def test_removed_key_is_one_line(self, workspace, tmp_path, capsys, line):
        cfg_path = tmp_path / "removed.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write(f"\n{line}\n")
        assert main(["train", "--config", str(cfg_path)]) == 1
        key = line.split(" =")[0]
        assert capsys.readouterr().err.splitlines() == [f"error: unknown config keys: ['{key}']"]

    @pytest.mark.parametrize("line", ["max_seq_len = 1099511627776", "embed_dim = 1099511627776"])
    def test_oversized_backbone_is_one_line_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                               line):
        cfg_path = tmp_path / "huge.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write(f"\n{line}\n")  # 2**40: counted, never allocated
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config keys vocab_cap, max_seq_len"), err
        assert "backbone weights exceed" in err[0] and not out.exists()

    def test_negative_seed_is_one_line_naming_the_key(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "negative_seed.cfg"
        make_config_file(workspace, cfg_path)
        with cfg_path.open("a", encoding="utf-8") as handle:
            handle.write("\nseeds = [-1]\n")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config key seeds" in err[0], err

    def test_non_integer_seed_flag_is_one_line_naming_it(self, workspace, capsys):
        assert main(["train"] + run_flags(workspace) + ["--seeds", "0,a"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--seeds" in err[0] and "'0,a'" in err[0], err


class TestOneBackbone:
    """A variant's `train` run and its `ablate` row share one backbone."""

    def test_train_reproduces_the_ablate_row(self, workspace, tmp_path):
        flags = run_flags(workspace)
        flags[flags.index("--m") + 1] = "6"  # mix-no-concat needs m == n
        flags += ["--epochs", "1", "--mlm-steps", "300"]
        assert main(["ablate"] + flags + ["--out", str(tmp_path / "ablate")]) == 0
        row = (tmp_path / "ablate" / "soft-only" / "metrics.jsonl").read_bytes()
        mined = flags[: flags.index("--keywords")] + flags[flags.index("--keywords") + 2 :]
        for name, run in (("given", flags), ("mined", mined)):
            out = tmp_path / name
            assert main(["train"] + run + ["--variant", "soft-only", "--out", str(out)]) == 0
            assert (out / "metrics.jsonl").read_bytes() == row, name


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_every_run_flag_is_named_after_its_config_key(command):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in commands.choices[command]._actions} - {"help", "config"}
    assert dests <= {f.name for f in dataclasses.fields(RunConfig)}


@pytest.fixture(scope="module")
def checkpoint_bytes(workspace):
    out = workspace / "ckpt_source"
    assert main(["train"] + run_flags(workspace) + ["--epochs", "1", "--out", str(out)]) == 0
    return (out / "model_seed0.bin").read_bytes()


def split_checkpoint(raw):
    (header_len,) = struct.unpack("<Q", raw[:8])
    return json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :]


def join_checkpoint(header, data):
    encoded = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(encoded)) + encoded + data


def edit_header(edit):
    def damage(raw):
        header, data = split_checkpoint(raw)
        edit(header)
        return join_checkpoint(header, data)
    return damage


CORRUPTIONS = {
    "header-length-past-end": lambda raw: struct.pack("<Q", len(raw)) + raw[8:],
    "header-not-utf8": lambda raw: raw[:8] + b"\xff" + raw[9:],
    "header-not-json": lambda raw: raw[:8] + b"[" + raw[9:],
    "truncated-data": lambda raw: raw[:-8],
    "nbytes-not-shape": edit_header(lambda h: h["tensors"]["head.bias"].update(shape=[999])),
    "dtype-float32": edit_header(lambda h: h["tensors"]["head.bias"].update(dtype="float32")),
    "no-gate2": edit_header(lambda h: h["tensors"].pop("prompt.gate2")),
    "no-head": edit_header(lambda h: h["tensors"].pop("head.weight")),
    "no-backbone-tensor": edit_header(lambda h: h["tensors"].pop("layer0.wq")),
    "backbone-shape": edit_header(lambda h: h["tensors"]["layer0.wq"].update(
        shape=[4, math.prod(h["tensors"]["layer0.wq"]["shape"]) // 4])),
    "head-shape": edit_header(lambda h: h["tensors"]["head.weight"].update(
        shape=h["tensors"]["head.weight"]["shape"][::-1])),
    "prompt-soft-shape": edit_header(lambda h: h["tensors"]["prompt.layer0.soft"].update(
        shape=h["tensors"]["prompt.layer0.soft"]["shape"][::-1])),
    "prompt-keywords-shape": edit_header(lambda h: h["tensors"]["prompt.keywords"].update(
        shape=h["tensors"]["prompt.keywords"]["shape"][::-1])),
    "prompt-gate1-shape": edit_header(lambda h: h["tensors"]["prompt.gate1"].update(
        shape=[2, h["tensors"]["prompt.gate1"]["shape"][0] // 2])),
    **{
        f"meta-without-{key}": edit_header(lambda h, key=key: h["meta"].pop(key))
        for key in ("config", "vocab", "labels", "variant")
    },
}


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("kind", list(CORRUPTIONS))
    def test_one_line_error_naming_the_file(self, workspace, checkpoint_bytes, tmp_path, capsys,
                                            kind):
        path = tmp_path / f"{kind}.bin"
        path.write_bytes(CORRUPTIONS[kind](checkpoint_bytes))
        code = main([
            "evaluate", "--checkpoint", str(path),
            "--data", str(workspace / "data" / "dataset.tsv"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and str(path) in err[0], err

    @pytest.mark.parametrize("kind, tensor", [
        ("no-backbone-tensor", "layer0.wq"), ("backbone-shape", "layer0.wq"),
        ("head-shape", "head.weight"), ("prompt-soft-shape", "prompt.layer0.soft"),
        ("prompt-keywords-shape", "prompt.keywords"), ("prompt-gate1-shape", "prompt.gate1"),
    ])
    def test_tensor_errors_name_the_tensor(self, checkpoint_bytes, tmp_path, kind, tensor):
        path = tmp_path / f"{kind}.bin"
        path.write_bytes(CORRUPTIONS[kind](checkpoint_bytes))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{re.escape(tensor)}"):
            load_model(path)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_value_is_one_line_naming_the_tensor(self, workspace, checkpoint_bytes,
                                                            tmp_path, capsys, value):
        header, data = split_checkpoint(checkpoint_bytes)
        start = header["tensors"]["head.weight"]["offset"] + 8  # the second value
        path = tmp_path / "non-finite.bin"
        path.write_bytes(join_checkpoint(
            header, data[:start] + struct.pack("<d", value) + data[start + 8:]))
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "data" / "dataset.tsv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: tensor 'head.weight': holds a non-finite value"
        ]

    def test_config_with_the_removed_backbone_knobs_is_one_line(self, workspace, checkpoint_bytes,
                                                                tmp_path, capsys):
        # checkpoints written while `freeze_backbone` and `gate_input` were config keys
        path = tmp_path / "old-config.bin"
        path.write_bytes(edit_header(lambda h: h["meta"]["config"].update(
            freeze_backbone=True, gate_input="plain"))(checkpoint_bytes))
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "data" / "dataset.tsv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: unknown config keys: ['freeze_backbone', 'gate_input']"
        ]

    def test_config_with_the_removed_encoder_dropout_is_one_line(self, workspace,
                                                                 checkpoint_bytes, tmp_path,
                                                                 capsys):
        # checkpoints written while the backbone had a dropout rate
        path = tmp_path / "old-dropout.bin"
        path.write_bytes(edit_header(lambda h: h["meta"]["config"].update(
            encoder_dropout=0.0))(checkpoint_bytes))
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "data" / "dataset.tsv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: unknown config keys: ['encoder_dropout']"
        ]

    def test_config_with_the_removed_choice_keys_is_one_line(self, workspace, checkpoint_bytes,
                                                             tmp_path, capsys):
        # checkpoints written while activation, train_keywords and backbone_init were keys
        path = tmp_path / "old-choices.bin"
        path.write_bytes(edit_header(lambda h: h["meta"]["config"].update(
            activation="gelu", train_keywords=False, backbone_init="mlm"))(checkpoint_bytes))
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(workspace / "data" / "dataset.tsv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: unknown config keys: ['activation', 'backbone_init', 'train_keywords']"
        ]


def dataset_labels(workspace):
    lines = (workspace / "data" / "dataset.tsv").read_text(encoding="utf-8").splitlines()
    return sorted({line.split("\t")[0] for line in lines})


class TestEvaluateInputs:
    def evaluate(self, checkpoint_bytes, tmp_path, data_path):
        checkpoint = tmp_path / "model.bin"
        checkpoint.write_bytes(checkpoint_bytes)
        return main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data_path)])

    def test_overlong_text_is_classified(self, workspace, checkpoint_bytes, tmp_path, capsys):
        label = dataset_labels(workspace)[0]
        data_path = tmp_path / "edge.tsv"
        data_path.write_text(f"{label}\t{' '.join(['word'] * 500)}\n", encoding="utf-8")
        assert self.evaluate(checkpoint_bytes, tmp_path, data_path) == 0
        captured = capsys.readouterr()
        assert "accuracy:" in captured.out and "(1 examples)" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content", [b"\xff\xfe\tnot utf-8\n", b"zzz\tan unknown label\n",
                                         b"zzz\t\n", b"zzz\t   \n"],
                             ids=["not-utf8", "unknown-label", "empty-text", "blank-text"])
    def test_bad_dataset_is_a_one_line_error_naming_it(self, workspace, checkpoint_bytes,
                                                       tmp_path, capsys, content):
        data_path = tmp_path / "bad.tsv"
        data_path.write_bytes(content)
        assert self.evaluate(checkpoint_bytes, tmp_path, data_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(data_path) in err[0], err


class TestBadPaths:
    @pytest.fixture
    def no_backbone(self, monkeypatch):
        def build(*args):
            raise AssertionError("the backbone was built")

        monkeypatch.setattr(runner, "_build_backbone", build)

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_directory_for_an_input_file_is_one_line(self, workspace, tmp_path, capsys, command):
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(tmp_path),
                    "--data", str(workspace / "data" / "dataset.tsv")]
        else:
            flags = run_flags(workspace)
            flags[flags.index("--data") + 1] = str(tmp_path)
            argv = ["train"] + flags
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0], err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    def test_out_path_through_a_file_fails_before_the_backbone(self, workspace, tmp_path, capsys,
                                                               no_backbone, command, nested):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n", encoding="utf-8")
        out = taken / "run" if nested else taken
        flags = run_flags(workspace)
        flags[flags.index("--m") + 1] = "6"  # mix-no-concat needs m == n
        assert main([command] + flags + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0], err
        assert taken.read_text(encoding="utf-8") == "keep me\n"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_shots_leaving_no_test_examples_fail_before_the_backbone(self, workspace, tmp_path,
                                                                     capsys, no_backbone, command):
        data_dir = tmp_path / "small"
        assert main(["gen-synthetic", "--out", str(data_dir), "--classes", "3",
                     "--examples-per-class", "8"]) == 0
        flags = run_flags(workspace)
        flags[flags.index("--data") + 1] = str(data_dir / "dataset.tsv")
        flags[flags.index("--m") + 1] = "6"  # mix-no-concat needs m == n
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="no examples left for the test set"):
            code = main([command] + flags + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: config key shots: 4 train and 4 dev examples per class leave no test "
            f"examples of {data_dir / 'dataset.tsv'}"
        )
        assert not out.exists()


class TestBadKeywordFile:
    @pytest.mark.parametrize("line, problem", [
        ("beta 0.5 2", "expected word<TAB>score<TAB>rank"),
        ("beta\tnotanumber\t2", "score 'notanumber' is not a number"),
        ("\t0.5\t2", "empty keyword"),
        ("Alpha\t0.5\t2", "keyword 'Alpha' repeats line 1"),
    ], ids=["fields", "score", "empty", "repeat"])
    def test_one_line_error_naming_file_and_line(self, workspace, tmp_path, capsys, line,
                                                 problem):
        bad = tmp_path / "keywords.tsv"
        bad.write_text(f"alpha\t0.75\t1\n{line}\n", encoding="utf-8")
        flags = run_flags(workspace)
        flags[flags.index("--keywords") + 1] = str(bad)
        out = tmp_path / "run"
        assert main(["train"] + flags + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:2: {problem}"), err
        assert not out.exists()


class TestNonUtf8Inputs:
    @pytest.mark.parametrize("flag", ["--config", "--data", "--keywords", "--general"])
    def test_one_line_error_naming_the_file(self, workspace, tmp_path, capsys, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\xe9\n".encode("latin-1"))
        flags = run_flags(workspace)
        if flag == "--config":
            flags += ["--config", str(bad)]
        else:
            flags[flags.index(flag) + 1] = str(bad)
        if flag == "--general":  # mined keywords read the corpora
            del flags[flags.index("--keywords"): flags.index("--keywords") + 2]
        assert main(["train"] + flags + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(bad) in err[0] and "UTF-8" in err[0], err


@pytest.fixture(scope="module")
def damage_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_header_loads_or_raises_value_error(checkpoint_bytes, damage_dir, data):
    header_end = 8 + struct.unpack("<Q", checkpoint_bytes[:8])[0]
    raw = bytearray(checkpoint_bytes)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, header_end), label="keep")]
    else:
        edits = st.tuples(st.integers(0, header_end - 1), st.integers(0, 255))
        for position, value in data.draw(st.lists(edits, min_size=1, max_size=8), label="edits"):
            raw[position] = value
    path = damage_dir / "model.bin"
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except ValueError:
        pass
