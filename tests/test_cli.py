"""End-to-end command-line tests (in-process via ``main``)."""

from __future__ import annotations

import argparse
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukge import kgdata, model
from ukge.cli import (
    EXIT_INPUT,
    EXIT_LOOKUP,
    EXIT_NUMERIC,
    EXIT_OK,
    CliError,
    TRAIN_OPTIONS,
    _signature_from,
    build_parser,
    load_config_file,
    main,
    merge_options,
    top_k,
    train_config,
)
from ukge.errors import NameLookupError, ParseError
from ukge.geometry import Signature
from ukge.training import TrainConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic dataset plus a small trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    assert main(["synth", "--out", data]) == EXIT_OK
    ckpt = str(root / "model.ukge")
    rc = main([
        "train", "--train", f"{data}/train.tsv", "--valid", f"{data}/valid.tsv",
        "--out", ckpt, "--dim", "4", "--time-dims", "2", "--epochs", "3",
        "--batch", "8", "--neg", "4", "--lr", "0.05", "--eval-every", "0",
    ])
    assert rc == EXIT_OK
    return {"root": root, "data": data, "ckpt": ckpt}


class TestSynthAndStats:
    def test_synth_writes_splits(self, tmp_path, capsys):
        out = str(tmp_path / "toy")
        assert main(["synth", "--out", out, "--seed", "3"]) == EXIT_OK
        for split in ("train", "valid", "test"):
            assert os.path.exists(f"{out}/{split}.tsv")
        assert "13 entities" in capsys.readouterr().out

    def test_stats_output(self, workdir, capsys):
        rc = main([
            "stats", "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--test", f"{workdir['data']}/test.tsv",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "13 entities / 2 relations / 21 triples" in out
        assert "splits: train=16 valid=2 test=3" in out
        isa_line = next(l for l in out.splitlines() if l.startswith("isa"))
        # name, count and khs only: the tree relation is fully hierarchical
        assert isa_line.split() == ["isa", "12", "1.0000"]

    def test_stats_csv_out(self, workdir, tmp_path, capsys):
        csv = str(tmp_path / "stats.csv")
        rc = main(["stats", "--train", f"{workdir['data']}/train.tsv", "--out", csv])
        assert rc == EXIT_OK
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "relation,count,khs"

    def test_undefined_hierarchy_score_row(self, tmp_path, capsys):
        """A relation of self-loops only connects no ordered pair: its score
        prints as n/a and leaves the CSV cell empty."""
        data = tmp_path / "loops.tsv"
        data.write_text("a\tisa\tb\na\tsame\ta\nb\tsame\tb\n")
        csv = str(tmp_path / "stats.csv")
        assert main(["stats", "--train", str(data), "--out", csv]) == EXIT_OK
        out = capsys.readouterr().out
        same_line = next(l for l in out.splitlines() if l.startswith("same"))
        assert same_line.split() == ["same", "2", "n/a"]
        assert open(csv).read().splitlines()[1:] == ["isa,1,1.000000", "same,2,"]

    def test_missing_file_is_input_error(self, capsys):
        assert main(["stats", "--train", "/nonexistent.tsv"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("command", ["stats", "train", "predict"])
    def test_non_utf8_tsv_is_input_error(self, tmp_path, capsys, bom, command):
        """Reported at ``path:line``; it used to be a UnicodeDecodeError
        traceback with exit 1."""
        data = tmp_path / "bad.tsv"
        data.write_bytes(bom + b"a\tr\tb\n\xff\tr\tc\n")
        argv = {
            "stats": ["stats", "--train", str(data)],
            "train": ["train", "--train", str(data), "--out", str(tmp_path / "m.ukge"),
                      "--dim", "4", "--time-dims", "2", "--epochs", "1"],
            "predict": ["predict", "--model", str(tmp_path / "m.ukge"), "--train", str(data),
                        "--head", "a", "--rel", "r"],
        }[command]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data}:2: not valid UTF-8\n"


class TestTrain:
    def test_checkpoint_and_trace(self, workdir):
        m = model.load(workdir["ckpt"])
        assert m.n_entities == 13
        assert m.n_relations == 4  # isa, next + inverses
        trace = open(workdir["ckpt"] + ".trace.csv").read().strip().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 4
        assert float(trace[1].split(",")[1]) > 0

    def test_epoch_lines_and_valid_eval(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.ukge")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv", "--out", out,
            "--dim", "4", "--time-dims", "2", "--epochs", "2", "--batch", "8",
            "--neg", "4", "--eval-every", "2",
        ])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("epoch    1  loss ") for l in lines)
        assert any("valid MRR" in l for l in lines)

    def test_zero_epochs(self, workdir, tmp_path):
        out = str(tmp_path / "m0.ukge")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", out,
            "--dim", "4", "--time-dims", "2", "--epochs", "0",
        ])
        assert rc == EXIT_OK
        trace = open(out + ".trace.csv").read().strip().splitlines()
        assert trace == ["epoch,loss"]

    def test_deterministic_checkpoints(self, workdir, tmp_path):
        args = [
            "train", "--train", f"{workdir['data']}/train.tsv",
            "--dim", "4", "--time-dims", "2", "--epochs", "2", "--batch", "8",
            "--neg", "4", "--seed", "11",
        ]
        a, b = str(tmp_path / "a.ukge"), str(tmp_path / "b.ukge")
        assert main(args + ["--out", a]) == EXIT_OK
        assert main(args + ["--out", b]) == EXIT_OK
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_deterministic_flag_is_one_thread(self, workdir, tmp_path):
        """Every run is one thread and deterministic: ``--deterministic``
        trains, and validates, exactly as a run without it, and writes the
        same checkpoint and trace bytes."""
        args = [
            "train", "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--dim", "4", "--time-dims", "2", "--epochs", "3", "--batch", "8",
            "--neg", "4", "--seed", "11", "--eval-every", "1",
        ]
        blobs = []
        for run, extra in (("det", ["--deterministic"]), ("plain", [])):
            out = str(tmp_path / f"{run}.ukge")
            assert main(args + extra + ["--out", out]) == EXIT_OK
            blobs.append((open(out, "rb").read(),
                          open(out + ".trace.csv", "rb").read()))
        assert blobs[0] == blobs[1]

    def test_custom_trace_path(self, workdir, tmp_path):
        out, trace = str(tmp_path / "m.ukge"), str(tmp_path / "t.csv")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", out,
            "--dim", "4", "--time-dims", "2", "--epochs", "1", "--batch", "8",
            "--trace", trace,
        ])
        assert rc == EXIT_OK
        assert os.path.exists(trace)
        assert not os.path.exists(out + ".trace.csv")

    def test_odd_dim_rejected(self, workdir, capsys):
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", "/tmp/x",
            "--dim", "7",
        ])
        assert rc == EXIT_INPUT
        assert "even" in capsys.readouterr().err

    def test_time_dims_exceeding_space_rejected(self, workdir):
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", "/tmp/x",
            "--dim", "2", "--time-dims", "2",
        ])
        assert rc == EXIT_INPUT

    def test_bad_epochs_rejected(self, workdir):
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", "/tmp/x",
            "--dim", "4", "--time-dims", "2", "--epochs", "1001",
        ])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--seed", "-1"], "seed must be >= 0"),
            (["--margin", "nan"], "margin must be finite"),
            (["--margin", "inf"], "margin must be finite"),
            (["--eval-every", "-5"], "eval_every must be >= 0"),
            (["--alpha", "nan"], "alpha must be positive"),
        ],
    )
    def test_bad_seed_or_margin_flag_rejected_first(
        self, tmp_path, capsys, flags, named
    ):
        """Rejected before any TSV is read, so a missing file does not hide it."""
        out = str(tmp_path / "m.ukge")
        rc = main(["train", "--train", str(tmp_path / "missing.tsv"), "--out", out,
                   *flags])
        assert rc == EXIT_INPUT
        assert named in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_numeric(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "boom.ukge")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", out,
            "--dim", "4", "--time-dims", "2", "--epochs", "5", "--batch", "8",
            "--neg", "4", "--lr", "1e8", "--eval-every", "0",
        ])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite" in err
        # the last healthy state is rescued
        assert "last good checkpoint" in err
        assert os.path.exists(out)
        model.load(out)


class TestConfigFile:
    def test_file_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nlr = 0.25\nepochs=7\ndeterministic=true\n"
                       "operator = rot\ngeometry=euclidean\noptimizer=adagrad\n")
        values = load_config_file(str(cfg))
        assert values == {"lr": 0.25, "epochs": 7, "deterministic": True,
                          "operator": "rot", "geometry": "euclidean", "optimizer": "adagrad"}

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfepochs = 7\n")
        assert load_config_file(str(cfg)) == {"epochs": 7}

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_reports_location(self, tmp_path, capsys, bom):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(bom + b"epochs = 1\n\xff = 2\n")
        with pytest.raises(ParseError) as exc:
            load_config_file(str(cfg))
        assert str(exc.value) == f"{cfg}:2: not valid UTF-8"
        rc = main(["train", "--train", "unread.tsv", "--out", str(tmp_path / "m.ukge"),
                   "--config", str(cfg)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {cfg}:2: not valid UTF-8\n"

    def test_unknown_key_reports_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.1\nbogus=3\n")
        with pytest.raises(CliError) as exc:
            load_config_file(str(cfg))
        assert f"{cfg}:2" in str(exc.value)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=soon\n")
        with pytest.raises(CliError):
            load_config_file(str(cfg))

    @pytest.mark.parametrize(
        "raw,value",
        [("1", True), ("TRUE", True), ("Yes", True),
         ("0", False), ("false", False), ("NO", False)],
    )
    def test_boolean_words(self, tmp_path, raw, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"deterministic={raw}\n")
        assert load_config_file(str(cfg)) == {"deterministic": value}

    @pytest.mark.parametrize("raw", ["ture", "on", "2", ""])
    def test_bad_boolean_reports_location(self, tmp_path, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=3\ndeterministic={raw}\n")
        with pytest.raises(CliError) as exc:
            load_config_file(str(cfg))
        assert f"{cfg}:2" in str(exc.value)

    @pytest.mark.parametrize(
        "key,raw", [("operator", "foo"), ("geometry", "foo"), ("optimizer", "sgd")]
    )
    def test_disallowed_value_reports_location_first(self, tmp_path, capsys, key, raw):
        """The config value is rejected with its file and line before any
        TSV is opened, so a missing train file does not hide it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=1\n{key} = {raw}\n")
        rc = main([
            "train", "--train", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "m.ukge"), "--config", str(cfg),
        ])
        assert rc == EXIT_INPUT
        assert f"{cfg}:2: bad value for {key}: {raw!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,raw,bound",
        [
            ("epochs", "5000", "epochs must lie in [0, 1000]"),
            ("batch", "0", "batch_size must be >= 1"),
            ("neg", "0", "neg_samples must be >= 1"),
            ("lr", "-0.1", "learning_rate must be positive"),
            ("lr", "nan", "learning_rate must be positive"),
            ("seed", "-2", "seed must be >= 0"),
            ("margin", "nan", "margin must be finite"),
            ("margin", "inf", "margin must be finite"),
            ("eval_every", "-5", "eval_every must be >= 0"),
            ("alpha", "nan", "alpha must be positive"),
            ("alpha", "-1", "alpha must be positive"),
            ("alpha", "0", "alpha must be positive"),
        ],
    )
    def test_out_of_bounds_value_reports_location_first(
        self, tmp_path, capsys, key, raw, bound
    ):
        """A number outside the bound ``TrainConfig.validate`` (or
        ``model.check_margin``, ``geometry.check_alpha``) states is rejected
        at its file and line before any TSV is opened."""
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        rc = main([
            "train", "--train", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "m.ukge"), "--config", str(cfg),
        ])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{cfg}:1: bad value for {key}: {raw!r} ({bound}" in err

    def test_repeated_key_reports_both_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nlr = 0.1\nepochs = 7\n")
        with pytest.raises(CliError) as exc:
            load_config_file(str(cfg))
        assert f"{cfg}:3: epochs is already set at line 1" in str(exc.value)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(CliError):
            load_config_file(str(cfg))

    def test_flags_beat_file_beats_defaults(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nbatch=8\nneg=4\ndim=4\ntime_dims=2\n")
        out = str(tmp_path / "m.ukge")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv", "--out", out,
            "--config", str(cfg), "--epochs", "2",
        ])
        assert rc == EXIT_OK
        trace = open(out + ".trace.csv").read().strip().splitlines()
        assert len(trace) == 3  # flag epochs=2 wins over file epochs=1

    def test_unknown_config_key_exits_input(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wat=1\n")
        rc = main([
            "train", "--train", f"{workdir['data']}/train.tsv",
            "--out", str(tmp_path / "m"), "--config", str(cfg),
        ])
        assert rc == EXIT_INPUT

    @settings(max_examples=40, deadline=None)
    @given(
        file_keys=st.sets(st.sampled_from(sorted(TRAIN_OPTIONS)), max_size=5),
        flag_keys=st.sets(st.sampled_from(sorted(TRAIN_OPTIONS)), max_size=5),
        none_flags=st.sets(st.sampled_from(sorted(TRAIN_OPTIONS)), max_size=5),
    )
    def test_merge_precedence_property(self, file_keys, flag_keys, none_flags):
        defaults = {k: v[1] for k, v in TRAIN_OPTIONS.items()}
        file_values = {k: f"file:{k}" for k in file_keys}
        flags = {k: f"flag:{k}" for k in flag_keys}
        flags.update({k: None for k in none_flags - flag_keys})
        merged = merge_options(defaults, file_values, flags)
        for k in TRAIN_OPTIONS:
            if k in flag_keys:
                assert merged[k] == f"flag:{k}"
            elif k in file_keys:
                assert merged[k] == f"file:{k}"
            else:
                assert merged[k] == defaults[k]


class TestSignatureOption:
    def test_dim_split(self):
        sig = _signature_from({"dim": 6, "time_dims": 2, "alpha": 2.0})
        assert sig == Signature(4, 2, 2.0)

    def test_balanced_split_allowed(self):
        assert _signature_from({"dim": 4, "time_dims": 2, "alpha": 1.0}) == Signature(2, 2, 1.0)

    @pytest.mark.parametrize("dim,q", [(7, 2), (6, 3), (2, 2), (4, 0)])
    def test_invalid_combinations(self, dim, q):
        with pytest.raises(CliError):
            _signature_from({"dim": dim, "time_dims": q, "alpha": 1.0})


class TestEvalAndPredict:
    def eval_args(self, workdir, **extra):
        args = [
            "eval", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--test", f"{workdir['data']}/test.tsv",
        ]
        for k, v in extra.items():
            args += [f"--{k.replace('_', '-')}", v]
        return args

    def test_eval_prints_table(self, workdir, capsys):
        assert main(self.eval_args(workdir)) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["relation", "count", "MRR", "H@1", "H@3", "H@10"]
        assert any(l.startswith("TOTAL") for l in out.splitlines())
        assert any(l.startswith("isa_inv") for l in out.splitlines())

    def test_eval_per_relation_csv(self, workdir, tmp_path, capsys):
        csv = str(tmp_path / "per.csv")
        assert main(self.eval_args(workdir, per_relation=csv)) == EXIT_OK
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "relation,count,mrr,hits1,hits3,hits10"
        assert lines[-1].startswith("TOTAL,6,")  # 3 test triples + inverses

    def test_eval_bad_filter_split(self, workdir, capsys):
        assert main(self.eval_args(workdir, filter="train,holdout")) == EXIT_INPUT
        assert "holdout" in capsys.readouterr().err

    def test_eval_digest_mismatch(self, workdir, tmp_path, capsys):
        other = str(tmp_path / "other")
        assert main(["synth", "--out", other, "--levels", "2", "--branching",
                     "4"]) == EXIT_OK
        rc = main([
            "eval", "--model", workdir["ckpt"], "--train", f"{other}/train.tsv",
            "--test", f"{other}/test.tsv",
        ])
        assert rc == EXIT_INPUT
        assert "entities" in capsys.readouterr().err

    @staticmethod
    def renamed_data(workdir, tmp_path, old: str, new: str) -> str:
        """The workdir TSVs with every field ``old`` renamed ``new``: a store
        of the same size whose dictionary digests differ."""
        out = tmp_path / "renamed"
        out.mkdir()
        for split in ("train", "valid", "test"):
            rows = Path(workdir["data"], f"{split}.tsv").read_text().splitlines()
            fields = [[new if f == old else f for f in row.split("\t")] for row in rows]
            text = "".join("\t".join(f) + "\n" for f in fields)
            (out / f"{split}.tsv").write_text(text)
        return str(out)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "old,new,kind", [("n1", "m1", "entity"), ("next", "succ", "relation")]
    )
    def test_digest_mismatch_names_the_dictionary(
        self, workdir, tmp_path, capsys, command, old, new, kind
    ):
        data = self.renamed_data(workdir, tmp_path, old, new)
        args = [command, "--model", workdir["ckpt"], "--train", f"{data}/train.tsv",
                "--valid", f"{data}/valid.tsv", "--test", f"{data}/test.tsv"]
        if command == "predict":
            args += ["--head", "n4", "--rel", "isa"]
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{kind} dictionary digest mismatch" in captured.err

    def test_eval_corrupt_checkpoint(self, workdir, tmp_path, capsys):
        bad = str(tmp_path / "bad.ukge")
        raw = bytearray(open(workdir["ckpt"], "rb").read())
        raw[0] = 0
        open(bad, "wb").write(bytes(raw))
        rc = main([
            "eval", "--model", bad, "--train", f"{workdir['data']}/train.tsv",
            "--test", f"{workdir['data']}/test.tsv",
        ])
        assert rc == EXIT_INPUT

    def test_predict_non_finite_checkpoint(self, workdir, tmp_path, capsys):
        bad = str(tmp_path / "nan.ukge")
        raw = open(workdir["ckpt"], "rb").read()
        open(bad, "wb").write(raw[:-8] + np.array(np.nan, dtype="<f8").tobytes())  # delta
        rc = main([
            "predict", "--model", bad, "--train", f"{workdir['data']}/train.tsv",
            "--head", "n4", "--rel", "isa",
        ])
        assert rc == EXIT_INPUT
        assert "non-finite value in parameter family 'delta'" in capsys.readouterr().err

    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_predict_topk_below_one_rejected(self, workdir, capsys, topk):
        rc = main([
            "predict", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--head", "n4", "--rel", "next", "--topk", topk,
        ])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--topk must be >= 1" in captured.err

    def test_eval_bad_filter_split_rejected_before_any_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        rc = main([
            "eval", "--model", f"{missing}.ukge", "--train", f"{missing}.tsv",
            "--test", f"{missing}.tsv", "--filter", "train,holdout",
        ])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown filter split 'holdout'" in captured.err

    def test_predict_lists_topk(self, workdir, capsys):
        rc = main([
            "predict", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--test", f"{workdir['data']}/test.tsv",
            "--head", "n4", "--rel", "next", "--topk", "3",
        ])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        scores = [float(l.split("\t")[1]) for l in lines]
        assert scores == sorted(scores, reverse=True)
        assert all(l.split("\t")[0].startswith("n") for l in lines)

    @pytest.mark.parametrize("geometry", model.GEOMETRIES)
    def test_eval_and_predict_build_no_tensors(self, workdir, capsys, monkeypatch, geometry):
        """``evaluate``, ``score_candidates`` and ``predict`` score plain
        arrays: building an autodiff tensor fails them."""
        from ukge import autodiff, evaluation, kgdata

        store = kgdata.augment_inverse(kgdata.load_triples(
            *(f"{workdir['data']}/{split}.tsv" for split in ("train", "valid", "test"))
        ))
        m = model.init(Signature(2, 2), store.n_entities, store.n_relations,
                       seed=3, geometry=geometry)
        ckpt = str(workdir["root"] / f"plain-{geometry}.ukge")
        model.save(m, ckpt)

        def no_tape(*args, **kwargs):
            raise AssertionError("built an autodiff tensor")

        monkeypatch.setattr(autodiff.Tensor, "__init__", no_tape)
        assert 0.0 < evaluation.evaluate(m, store).mrr <= 1.0
        assert np.all(np.isfinite(model.score_candidates(m, 0, 1)))
        rc = main([
            "predict", "--model", ckpt,
            "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--test", f"{workdir['data']}/test.tsv",
            "--head", "n4", "--rel", "next", "--topk", "3",
        ])
        assert rc == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_predict_reads_no_triples(self, workdir, capsys, monkeypatch):
        """``predict`` needs only the name dictionaries: it never builds a
        store, and prints what it printed when it did."""
        from ukge import kgdata

        argv = [
            "predict", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--valid", f"{workdir['data']}/valid.tsv",
            "--test", f"{workdir['data']}/test.tsv",
            "--head", "n7", "--rel", "isa_inv", "--topk", "5",
        ]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr()

        def no_store(*args, **kwargs):
            raise AssertionError("built a triple store")

        monkeypatch.setattr(kgdata, "load_triples", no_store)
        monkeypatch.setattr(kgdata, "augment_inverse", no_store)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == expected
        assert len(expected.out.splitlines()) == 5

    def test_predict_on_crlf_bom_copy_prints_the_same(self, tmp_path, capsys):
        """Line endings and a byte order mark change no output, the note on
        test-only entities included."""
        texts = {"train": "a\tr\tb\nb\ts\tc\nc\tr\ta\n", "valid": "b\tr\ta\n",
                 "test": "c\ts\td\n"}
        outputs = []
        for copy, encode in (
            ("lf", lambda t: t.encode("utf-8")),
            ("crlf-bom", lambda t: b"\xef\xbb\xbf" + t.replace("\n", "\r\n").encode("utf-8")),
        ):
            paths = []
            for split, text in texts.items():
                paths += [f"--{split}", str(tmp_path / f"{copy}-{split}.tsv")]
                (tmp_path / f"{copy}-{split}.tsv").write_bytes(encode(text))
            if copy == "lf":  # one checkpoint, trained on the LF names
                store = kgdata.augment_inverse(kgdata.load_triples(*paths[1::2]))
                ckpt = str(tmp_path / "m.ukge")
                model.save(model.init(
                    Signature(2, 2), store.n_entities, store.n_relations, seed=1,
                    entity_digest=model.dictionary_digest(store.entity_names),
                    relation_digest=model.dictionary_digest(store.relation_names),
                ), ckpt)
            rc = main(["predict", "--model", ckpt, *paths, "--head", "a", "--rel", "s_inv"])
            outputs.append((rc, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].err == "note: 1 entities appear only in the test split\n"
        assert len(outputs[0][1].out.splitlines()) == 4

    def test_predict_unknown_entity_suggests(self, workdir, capsys):
        rc = main([
            "predict", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--head", "n44", "--rel", "next",
        ])
        assert rc == EXIT_LOOKUP
        err = capsys.readouterr().err
        assert "unknown entity 'n44'" in err
        assert "close matches" in err

    def test_predict_unknown_relation(self, workdir, capsys):
        rc = main([
            "predict", "--model", workdir["ckpt"],
            "--train", f"{workdir['data']}/train.tsv",
            "--head", "n4", "--rel", "nextt",
        ])
        assert rc == EXIT_LOOKUP


class TestPredictFindsWholeNames:
    """``predict`` looks ``--head`` up among the names' UTF-8 bytes and
    decodes only what it prints, yet prints what a lookup in the decoded
    store prints, for every name and for names that are not there."""

    TRAIN = "n12\tr\tn1\nn1\tr\ta\x00b\na\x00b\ts\tn12\n\u00e9\u20ac\tr\tn1\nxn1\ts\tlast\n"

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("names")
        train = root / "train.tsv"
        train.write_bytes(self.TRAIN.encode("utf-8"))
        store = kgdata.augment_inverse(kgdata.load_triples(str(train)))
        assert store.entity_names == ["n12", "n1", "a\x00b", "\u00e9\u20ac", "xn1", "last"]
        m = model.init(
            Signature(2, 2), store.n_entities, store.n_relations, seed=5,
            entity_digest=model.dictionary_digest(store.entity_names),
            relation_digest=model.dictionary_digest(store.relation_names),
        )
        ckpt = str(root / "m.ukge")
        model.save(m, ckpt)
        return {"train": str(train), "ckpt": ckpt, "store": store, "m": m}

    @staticmethod
    def from_store(store, m, head, rel, topk):
        """Exit code, stdout and stderr of a lookup in the decoded store."""
        try:
            h, r = store.entity_id(head), store.relation_id(rel)
        except NameLookupError as exc:
            return EXIT_LOOKUP, "", f"error: {exc}\n"
        scores = model.score_candidates(m, h, r)
        lines = [f"{store.entity_names[t]}\t{scores[t]:.6f}\n" for t in top_k(scores, topk)]
        return EXIT_OK, "".join(lines), ""

    @pytest.mark.parametrize("head", [
        "n12", "n1", "a\x00b", "\u00e9\u20ac", "xn1", "last",
        "n", "a", "a\x00", "\u00e9", "x", "n1\nn12", "n12\nn1", "n1\n", "\nn1", "n1\tn12",
        "", "\udcff", "nope",
    ])
    @pytest.mark.parametrize("rel", ["r", "s_inv", "q"])
    def test_prints_what_the_store_prints(self, data, capsys, head, rel):
        rc = main(["predict", "--model", data["ckpt"], "--train", data["train"],
                   "--head", head, "--rel", rel, "--topk", "4"])
        out = capsys.readouterr()
        assert (rc, out.out, out.err) == self.from_store(data["store"], data["m"], head, rel, 4)

    @pytest.mark.parametrize("head, err", [
        ("n1\nn2", "error: unknown entity 'n1\\nn2'; close matches: n12\n"),
        ("\udcff", "error: unknown entity '\\udcff'\n"),
    ])
    def test_unknown_head_message(self, workdir, capsys, head, err):
        """A head holding an LF, or one that UTF-8 cannot encode, is an
        unknown entity as the decoded names report it: not a crash, and not
        a match across two names."""
        rc = main(["predict", "--model", workdir["ckpt"],
                   "--train", f"{workdir['data']}/train.tsv",
                   "--head", head, "--rel", "isa"])
        assert (rc, capsys.readouterr().err) == (EXIT_LOOKUP, err)


class TestOneParser:
    def test_built_once(self, tmp_path, monkeypatch):
        """The parser is built when ``cli`` is imported: ``main`` never
        calls ``build_parser``."""
        from ukge import cli

        def fail():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", fail)
        assert main(["synth", "--out", str(tmp_path)]) == 0

    def test_command_looked_up_when_called(self, tmp_path, monkeypatch):
        """A wrapper set on the module after the parser is built is the one
        called, as a tracer that patches ``cli.cmd_synth`` needs."""
        from ukge import cli

        calls = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: calls.append(args.out) or 7)
        assert main(["synth", "--out", str(tmp_path)]) == 7
        assert calls == [str(tmp_path)]


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_eval_requires_test(self, workdir):
        with pytest.raises(SystemExit):
            main(["eval", "--model", workdir["ckpt"],
                  "--train", f"{workdir['data']}/train.tsv"])

    def test_unknown_flag_exits(self, workdir):
        with pytest.raises(SystemExit):
            main(["synth", "--out", "/tmp/x", "--rings", "3"])

    @pytest.mark.parametrize("where", ["train flag", "eval flag", "config key", "evaluate"])
    def test_removed_threads_option_fails_loudly(self, workdir, tmp_path, capsys, where):
        """``threads`` is removed: the ``train`` and ``eval`` flags are
        unrecognized arguments and the config key is an unknown option at
        ``path:line``, each exiting 2; ``evaluate`` takes no such keyword."""
        from ukge import evaluation

        data = workdir["data"]
        splits = [f"{data}/{split}.tsv" for split in ("train", "valid", "test")]
        train = ["train", "--train", splits[0], "--out", str(tmp_path / "m.ukge")]
        if where == "evaluate":
            store = kgdata.augment_inverse(kgdata.load_triples(*splits))
            with pytest.raises(TypeError, match="threads"):
                evaluation.evaluate(model.load(workdir["ckpt"]), store, threads=1)
        elif where == "config key":
            cfg = tmp_path / "train.cfg"
            cfg.write_text("epochs = 1\nthreads = 1\n")
            assert main(train + ["--config", str(cfg)]) == EXIT_INPUT
            assert f"{cfg}:2: unknown option 'threads'" in capsys.readouterr().err
        else:
            argv = train if where == "train flag" else [
                "eval", "--model", workdir["ckpt"], "--train", splits[0], "--test", splits[2],
            ]
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "1"])
            assert exc.value.code == EXIT_INPUT
            assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


class TestInverseNameClash:
    """Data holding both ``x`` and ``x_inv`` would give two relations the
    name ``x_inv``, and ``--rel x_inv`` would rank the inverse of ``x``."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "clash.tsv"
        path.write_text("a\tx\tb\nb\tx_inv\tc\nc\tx\ta\n")
        return str(path)

    def test_train_rejected(self, data, tmp_path, capsys):
        rc = main([
            "train", "--train", data, "--out", str(tmp_path / "m.ukge"),
            "--dim", "4", "--time-dims", "2", "--epochs", "1",
        ])
        assert rc == EXIT_INPUT
        assert "'x_inv'" in capsys.readouterr().err

    def test_predict_rejected(self, data, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ukge")
        model.save(model.init(Signature(2, 2), 3, 4), ckpt)  # x, x_inv and inverses
        rc = main([
            "predict", "--model", ckpt, "--train", data, "--head", "a", "--rel", "x_inv",
        ])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'x_inv'" in captured.err


def _train_subparser() -> argparse.ArgumentParser:
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices["train"]


class TestOptionTable:
    """``TRAIN_OPTIONS`` is the only declaration of a train option."""

    def test_train_flags_are_generated_from_the_table(self):
        flags = {s for a in _train_subparser()._actions for s in a.option_strings}
        generated = {"--" + key.replace("_", "-") for key in TRAIN_OPTIONS}
        assert len(generated) == 14
        assert flags == generated | {
            "--train", "--valid", "--test", "--out", "--config", "--trace", "-h", "--help",
        }

    def test_each_flag_sets_its_key_with_the_allowed_values(self):
        actions = _train_subparser()._option_string_actions
        for key, (_, _, allowed) in TRAIN_OPTIONS.items():
            action = actions["--" + key.replace("_", "-")]
            assert (action.dest, action.choices, action.default) == (key, allowed, None)

    def test_train_defaults_are_the_config_defaults(self):
        defaults = {k: v[1] for k, v in TRAIN_OPTIONS.items()}
        assert train_config(defaults) == TrainConfig()

    def test_model_defaults_are_the_init_defaults(self):
        """``margin``, ``operator`` and ``geometry`` default to the keyword
        defaults of ``model.init``, which ``cmd_train`` passes them to."""
        init = inspect.signature(model.init).parameters
        for key, keyword in (("margin", "delta"), ("operator", "operator"),
                             ("geometry", "geometry")):
            assert TRAIN_OPTIONS[key][1] == init[keyword].default


def _readme_commands() -> list[list[str]]:
    """Each ``ukge ...`` command line of the README, continuations joined,
    without the program name."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.lstrip().startswith("ukge ")
    ]


class TestReadmeCommands:
    def test_commands_found(self):
        assert {argv[0] for argv in _readme_commands()} == {
            "synth", "stats", "train", "eval", "predict",
        }

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_command_parses(self, argv):
        build_parser().parse_args(argv)


class TestStatsComputesHierarchyOnce:
    def test_one_krackhardt_call_per_relation(self, workdir, tmp_path, monkeypatch):
        from ukge import kgdata

        calls = []
        real = kgdata.krackhardt_score

        def counting(store, relation):
            calls.append(relation)
            return real(store, relation)

        monkeypatch.setattr(kgdata, "krackhardt_score", counting)
        csv = str(tmp_path / "stats.csv")
        rc = main(["stats", "--train", f"{workdir['data']}/train.tsv", "--out", csv])
        assert rc == EXIT_OK
        assert sorted(calls) == [0, 1]  # isa and next, once each
        rows = open(csv).read().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["isa", "next"]
        assert rows[0].endswith(",1.000000")

    def test_one_relation_count(self, workdir, tmp_path, monkeypatch):
        """``stats --out`` writes the counts that the table printed."""
        from ukge import kgdata

        calls = []
        real = kgdata.relation_counts

        def counting(store):
            calls.append(store)
            return real(store)

        monkeypatch.setattr(kgdata, "relation_counts", counting)
        csv = str(tmp_path / "stats.csv")
        rc = main(["stats", "--train", f"{workdir['data']}/train.tsv", "--out", csv])
        assert rc == EXIT_OK
        assert len(calls) == 1


class TestMissingOutputDirectory:
    """An output path in a missing directory is an input error raised before
    any data file is read, not after training or evaluation has run."""

    @pytest.mark.parametrize("case", ["train-out", "train-trace", "eval", "stats"])
    def test_rejected_before_any_work(self, workdir, tmp_path, capsys, case):
        data = workdir["data"]
        ckpt = str(tmp_path / "m.ukge")
        bad = str(tmp_path / "missing" / "x.out")
        train = ["train", "--train", f"{data}/train.tsv", "--dim", "4",
                 "--time-dims", "2", "--epochs", "1", "--batch", "8", "--neg", "2"]
        argv = {
            "train-out": train + ["--out", bad],
            "train-trace": train + ["--out", ckpt, "--trace", bad],
            "eval": ["eval", "--model", workdir["ckpt"], "--train", f"{data}/train.tsv",
                     "--valid", f"{data}/valid.tsv", "--test", f"{data}/test.tsv",
                     "--per-relation", bad],
            "stats": ["stats", "--train", f"{data}/train.tsv", "--out", bad],
        }[case]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""  # no epoch line, table or summary
        assert bad in captured.err
        assert not os.path.exists(ckpt)


class TestUnsafeOutputPath:
    """An output path that is an existing directory, one of the command's
    inputs or another of its outputs is an input error raised before any
    file is read; no input is overwritten and nothing is written."""

    CASES = [
        "train-trace-is-out", "train-out-is-dir", "train-trace-is-dir",
        "train-out-is-config", "stats-out-is-train", "stats-out-links-to-train",
        "stats-out-is-dir", "eval-per-relation-is-model", "eval-per-relation-is-dir",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_refused_before_any_work(self, workdir, tmp_path, capsys, case):
        # private copies of the inputs, so that a write to one would show
        for split in ("train", "valid", "test"):
            (tmp_path / f"{split}.tsv").write_bytes(
                Path(workdir["data"], f"{split}.tsv").read_bytes()
            )
        tsv = str(tmp_path / "train.tsv")
        ckpt = str(tmp_path / "m.ukge")
        Path(ckpt).write_bytes(Path(workdir["ckpt"]).read_bytes())
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 1\n")
        os.symlink(tsv, tmp_path / "link.tsv")
        a_dir = str(tmp_path / "a_dir")
        os.mkdir(a_dir)
        new = str(tmp_path / "new.ukge")
        train = ["train", "--train", tsv, "--dim", "4", "--time-dims", "2",
                 "--epochs", "1", "--batch", "8", "--neg", "2"]
        evaluate = ["eval", "--model", ckpt, "--train", tsv,
                    "--test", str(tmp_path / "test.tsv")]
        argv, bad = {
            "train-trace-is-out": (train + ["--out", new, "--trace", new], new),
            "train-out-is-dir": (train + ["--out", a_dir], a_dir),
            "train-trace-is-dir": (train + ["--out", new, "--trace", a_dir], a_dir),
            "train-out-is-config": (train + ["--config", str(config), "--out", str(config)],
                                    str(config)),
            "stats-out-is-train": (["stats", "--train", tsv, "--out", tsv], tsv),
            "stats-out-links-to-train": (
                ["stats", "--train", tsv, "--out", str(tmp_path / "link.tsv")],
                str(tmp_path / "link.tsv"),
            ),
            "stats-out-is-dir": (["stats", "--train", tsv, "--out", a_dir], a_dir),
            "eval-per-relation-is-model": (evaluate + ["--per-relation", ckpt], ckpt),
            "eval-per-relation-is-dir": (evaluate + ["--per-relation", a_dir], a_dir),
        }[case]
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""  # no epoch line, table or summary
        assert f"cannot write {bad}" in captured.err
        after = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert after == before
        assert os.listdir(a_dir) == []


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self, tmp_path):
        """``python -m ukge.cli`` works from a checkout without the console
        script installed."""
        src = os.path.dirname(os.path.dirname(model.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / "toy"
        done = subprocess.run(
            [sys.executable, "-m", "ukge.cli", "synth", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "13 entities" in done.stdout
        for split in ("train", "valid", "test"):
            assert (out / f"{split}.tsv").stat().st_size > 0


class TestTopK:
    """``predict`` prints the order of a full stable sort without one."""

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]),
            min_size=1,
            max_size=30,
        )
    )
    def test_equals_stable_argsort(self, scores):
        scores = np.array(scores)
        for k in range(1, scores.size + 2):
            np.testing.assert_array_equal(
                top_k(scores, k), np.argsort(-scores, kind="stable")[:k]
            )
