"""Command surface: exit codes, artifacts, config precedence."""

import tracemalloc

import numpy as np
import pytest

from rope_kit import analysis, attention, cli, rotary
from rope_kit.harness import ModelConfig
from rope_kit.numerics import Rng


def run_cli(*argv):
    return cli.main(list(argv))


class TestExitCodes:
    def test_verify_fast_pass(self, capsys):
        assert run_cli("verify", "--trials", "25", "--dims", "2,4,16") == 0
        out = capsys.readouterr().out
        assert "seed: 42" in out
        assert "all 9 suites passed" in out

    def test_verify_trials_not_a_multiple_of_the_batch(self, capsys):
        assert analysis.TRIAL_CHUNK < 257 and 257 % analysis.TRIAL_CHUNK != 0
        assert run_cli("verify", "--trials", "257") == 0
        out = capsys.readouterr().out
        assert "all 9 suites passed" in out
        assert "(1028 draws)" in out  # 257 trials at each of the 4 default dims

    @pytest.mark.parametrize("seed", ["0", "42", "2104"])
    def test_verify_defaults_pass(self, seed, capsys):
        # The exact call the benchmark makes, at default dims and trials.
        assert cli.main(["verify", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert out.count(" PASS ") == 9 and "FAIL" not in out
        assert "(4000 draws)" in out

    def test_verify_peak_memory(self, capsys):
        tracemalloc.start()
        try:
            assert cli.main(["verify"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 10e6, f"verify allocated a peak of {peak / 1e6:.1f} MB"

    def test_verify_batches_its_kernel_calls(self, monkeypatch, capsys):
        # Whole-chunk score calls and one similarity call per query row:
        # a per-trial or per-pair loop would make thousands.
        calls = {"rope_score": 0, "sim": 0}
        rotary_score, similarity = rotary.rope_score, attention.similarity_attention

        def counted_score(*args):
            calls["rope_score"] += 1
            return rotary_score(*args)

        def counted_attention(q, k, v, sim):
            def counted_sim(q_m, keys):
                calls["sim"] += 1
                return sim(q_m, keys)
            return similarity(q, k, v, counted_sim)

        for module in (rotary, analysis):
            monkeypatch.setattr(module, "rope_score", counted_score)
        monkeypatch.setattr(attention, "similarity_attention", counted_attention)
        assert cli.main(["verify", "--seed", "0", "--trials", "1000"]) == 0
        capsys.readouterr()
        assert 0 < calls["rope_score"] <= 60
        assert 0 < calls["sim"] <= 170

    def test_abel_suite_checks_the_given_dims(self):
        ok, detail = cli._suite_abel(Rng(0), (8,), 10)
        assert ok and detail.endswith("(10 draws)")

    def test_verify_odd_dims_usage_error(self, capsys):
        assert run_cli("verify", "--dims", "3") == 2

    def test_verify_zero_trials_usage_error(self):
        assert run_cli("verify", "--trials", "0") == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--frobnicate")
        assert exc.value.code == 2

    def test_injected_fault_fails_suite(self, monkeypatch, capsys):
        def broken(rng, dims, trials):
            return False, "injected fault"

        patched = list(cli.VERIFY_SUITES)
        patched[1] = (patched[1][0], broken)
        monkeypatch.setattr(cli, "VERIFY_SUITES", patched)
        assert run_cli("verify", "--trials", "5", "--dims", "2") == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "injected fault" in out


class TestDecayCommand:
    def test_writes_curve(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        assert run_cli("decay", "--dim", "128", "--max-dist", "250",
                       "--out", str(out_path)) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 252  # header + 251 distances
        assert lines[0] == "distance,mean_abs_S"
        assert lines[1] == "0,32.5"
        printed = capsys.readouterr().out
        assert "strictly decreasing" in printed

    def test_small_dim_value(self, tmp_path, capsys):
        out_path = tmp_path / "d4.csv"
        assert run_cli("decay", "--dim", "4", "--max-dist", "10",
                       "--out", str(out_path)) == 0
        assert out_path.read_text().splitlines()[1] == "0,1.5"

    def test_max_dist_99_gives_the_verdict(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        assert run_cli("decay", "--dim", "128", "--max-dist", "99",
                       "--out", str(out_path)) == 0
        assert len(out_path.read_text().splitlines()) == 101  # header + 100 distances
        printed = capsys.readouterr().out
        assert "windowed means (width 25)" in printed and "skipped" not in printed

    def test_max_dist_98_skips_the_verdict(self, tmp_path, capsys):
        assert run_cli("decay", "--dim", "128", "--max-dist", "98",
                       "--out", str(tmp_path / "curve.csv")) == 0
        printed = capsys.readouterr().out
        assert "windowed-decay verdict needs --max-dist >= 99; skipped" in printed
        assert "windowed means" not in printed

    def test_odd_dim_usage_error(self, tmp_path):
        assert run_cli("decay", "--dim", "5", "--out", str(tmp_path / "x.csv")) == 2

    def test_unwritable_path(self, tmp_path):
        assert run_cli("decay", "--dim", "4", "--max-dist", "5",
                       "--out", str(tmp_path / "missing" / "x.csv")) == 2


class TestBenchCommand:
    def test_outputs_agree_and_report(self, capsys):
        assert run_cli("bench", "--dim", "32", "--seq", "64", "--reps", "3") == 0
        out = capsys.readouterr().out
        assert "outputs agree" in out
        assert "speedup" in out

    def test_zero_reps_usage_error(self):
        assert run_cli("bench", "--reps", "0") == 2

    @pytest.mark.parametrize("seq", ["0", "-3"])
    def test_nonpositive_seq_usage_error(self, seq, capsys):
        assert run_cli("bench", "--seq", seq) == 2
        assert "--seq must be >= 1" in capsys.readouterr().err

    def test_single_position(self, capsys):
        assert run_cli("bench", "--dim", "8", "--seq", "1", "--reps", "1") == 0
        assert "outputs agree" in capsys.readouterr().out


def train_tiny(corpus, metrics, checkpoint):
    return run_cli("train", "--corpus", str(corpus), "--steps", "1", "--d-model", "16",
                   "--heads", "2", "--layers", "1", "--context", "16", "--batch-size", "2",
                   "--metrics", str(metrics), "--checkpoint", str(checkpoint))


class TestTrainCommand:
    def test_missing_corpus(self, tmp_path):
        assert run_cli("train", "--corpus", str(tmp_path / "nope.txt")) == 2

    def test_defaults_come_from_model_config(self, tmp_path, small_corpus, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--corpus", str(small_corpus), "--steps", "1") == 0
        out = capsys.readouterr().out
        assert f"model: {ModelConfig()}\n" in out
        assert (tmp_path / "train-rope.csv").exists()

    def test_short_run_writes_artifacts(self, tmp_path, small_corpus, capsys):
        metrics = tmp_path / "run.csv"
        ckpt = tmp_path / "run.ckpt"
        code = run_cli(
            "train", "--corpus", str(small_corpus), "--steps", "5",
            "--d-model", "16", "--heads", "2", "--layers", "1", "--context", "16",
            "--batch-size", "2", "--variant", "rope",
            "--metrics", str(metrics), "--checkpoint", str(ckpt),
        )
        assert code == 0
        assert len(metrics.read_text().splitlines()) == 6
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "seed: 42" in out
        assert "parameters:" in out
        assert "final loss" in out

    def test_config_file_with_flag_override(self, tmp_path, small_corpus, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# toy run\n"
            f"corpus={small_corpus}\n"
            "steps=4\nbatch_size=2\nd_model=16\nheads=2\nlayers=1\ncontext=16\n"
            "variant=sinusoidal\n"
            f"metrics={tmp_path / 'cfg.csv'}\n"
            f"checkpoint={tmp_path / 'cfg.ckpt'}\n"
        )
        code = run_cli("train", "--config", str(config), "--variant", "none",
                       "--metrics", str(tmp_path / "override.csv"),
                       "--checkpoint", str(tmp_path / "override.ckpt"))
        assert code == 0
        out = capsys.readouterr().out
        assert "pos_encoding='none'" in out  # flag beat the file
        assert (tmp_path / "override.csv").exists()
        assert not (tmp_path / "cfg.csv").exists()

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("momentum=0.9\n")
        assert run_cli("train", "--config", str(config)) == 2

    def test_config_file_repeated_key(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("steps=1\nbatch_size=2\nsteps=2\n")
        assert run_cli("train", "--config", str(config)) == 2
        assert f"{config}:3: key 'steps' is given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["steps=abc", "lr=fast", "precision=16", "variant=alibi"])
    def test_config_file_bad_value(self, tmp_path, line, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# a comment\n{line}\n")
        assert run_cli("train", "--config", str(config)) == 2
        assert f"{config}:2:" in capsys.readouterr().err

    def test_metrics_in_missing_directory_is_a_usage_error(self, tmp_path, small_corpus,
                                                           capsys):
        code = train_tiny(small_corpus, tmp_path / "nodir" / "m.csv", tmp_path / "c.ckpt")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_as_corpus_is_a_usage_error(self, tmp_path, capsys):
        assert train_tiny(tmp_path, tmp_path / "m.csv", tmp_path / "c.ckpt") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_checkpoint_directory_stops_before_step_one(self, tmp_path, small_corpus,
                                                               capsys):
        metrics = tmp_path / "m.csv"
        assert train_tiny(small_corpus, metrics, tmp_path / "nodir" / "c.ckpt") == 2
        assert "checkpoint directory not found" in capsys.readouterr().err
        assert not metrics.exists()

    def test_directory_as_checkpoint_stops_before_step_one(self, tmp_path, small_corpus,
                                                            capsys):
        metrics = tmp_path / "m.csv"
        assert train_tiny(small_corpus, metrics, tmp_path) == 2
        assert "checkpoint path is a directory" in capsys.readouterr().err
        assert not metrics.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_a_usage_error(self, tmp_path, small_corpus, lr, capsys):
        metrics = tmp_path / "m.csv"
        code = run_cli("train", "--corpus", str(small_corpus), "--steps", "1",
                       "--lr", lr, "--metrics", str(metrics),
                       "--checkpoint", str(tmp_path / "c.ckpt"))
        assert code == 2
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        assert not metrics.exists()

    def test_invalid_variant_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--variant", "alibi")
        assert exc.value.code == 2


class TestCompareCommand:
    def test_table_printed(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("step,loss\n1,5.0\n2,4.0\n")
        b.write_text("step,loss\n1,5.0\n2,4.5\n")
        assert run_cli("compare", str(a), str(b)) == 0
        out = capsys.readouterr().out
        assert "lowest AUC" in out

    @pytest.mark.parametrize("row", ["2,abc", "1,2.0,3", "2,nan", "2,inf", "2,-inf"])
    def test_malformed_row_is_a_data_error(self, tmp_path, row, capsys):
        good = tmp_path / "good.csv"
        bad = tmp_path / "bad.csv"
        good.write_text("step,loss\n1,5.0\n2,4.0\n")
        bad.write_text(f"step,loss\n1,5.0\n{row}\n")
        assert run_cli("compare", str(good), str(bad)) == 2
        assert f"{bad}:3: malformed metrics row" in capsys.readouterr().err

    def test_grid_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("step,loss\n1,5.0\n")
        b.write_text("step,loss\n2,5.0\n")
        assert run_cli("compare", str(a), str(b)) == 2
