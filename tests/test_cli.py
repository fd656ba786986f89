"""End-to-end command-line tests (in-process via ``main``)."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukge import model
from ukge.cli import (
    EXIT_INPUT,
    EXIT_LOOKUP,
    EXIT_NUMERIC,
    EXIT_OK,
    CliError,
    TRAIN_OPTIONS,
    _signature_from,
    load_config_file,
    main,
    merge_options,
)
from ukge.geometry import Signature


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

    def test_missing_file_is_input_error(self, capsys):
        assert main(["stats", "--train", "/nonexistent.tsv"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


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
        cfg.write_text("# comment\n\nlr = 0.25\nepochs=7\ndeterministic=true\n")
        values = load_config_file(str(cfg), TRAIN_OPTIONS)
        assert values == {"lr": 0.25, "epochs": 7, "deterministic": True}

    def test_unknown_key_reports_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.1\nbogus=3\n")
        with pytest.raises(CliError) as exc:
            load_config_file(str(cfg), TRAIN_OPTIONS)
        assert f"{cfg}:2" in str(exc.value)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=soon\n")
        with pytest.raises(CliError):
            load_config_file(str(cfg), TRAIN_OPTIONS)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(CliError):
            load_config_file(str(cfg), TRAIN_OPTIONS)

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
