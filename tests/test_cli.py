from pathlib import Path

import numpy as np
import pytest

from conftest import params_from
from oracles import format_fact
from tero import model, training
from tero.cli import (COMMANDS, DEFAULTS, OPTIONS, PROFILES, build_parser, main,
                      parse_config_file, resolve_config)
from tero.data import POINT_TSV, Vocab, bin_fixed, PartialDate
from tero.model import init_params, load_checkpoint, save_checkpoint
from tero.synthetic import temporary_relation_suite


@pytest.fixture()
def suite_files(tmp_path):
    ds = temporary_relation_suite()
    paths = {}
    for split in ("train", "valid", "test"):
        p = tmp_path / f"{split}.txt"
        lines = [format_fact(q, ds.vocab, POINT_TSV) for q in getattr(ds, split)]
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths[split] = str(p)
    return ds, paths


def run_args(paths, out_dir, *extra):
    return ["--train", paths["train"], "--valid", paths["valid"], "--test", paths["test"],
            "--out-dir", str(out_dir), *extra]


class TestConfigResolution:
    def parse(self, *argv):
        return build_parser().parse_args(argv)

    def test_builtin_defaults(self):
        cfg = resolve_config(self.parse("train"))
        assert (cfg.dim, cfg.batch_size, cfg.neg_ratio) == (500, 512, 10)
        assert (cfg.margin, cfg.lr, cfg.time_unit) == (110.0, 0.1, 1)
        assert cfg.max_epochs == 5000 and cfg.norm == 1

    def test_empty_command_line_trains_with_train_config_defaults(self):
        assert resolve_config(self.parse("train")).train_config() == training.TrainConfig()

    def test_profiles_encode_dataset_presets(self):
        cfg = resolve_config(self.parse("train", "--profile", "icews05-15"))
        assert (cfg.margin, cfg.lr, cfg.time_unit) == (120.0, 0.1, 2)
        cfg = resolve_config(self.parse("train", "--profile", "wikidata12k"))
        assert (cfg.margin, cfg.lr) == (20.0, 0.3)
        assert cfg.time_threshold == 300 and cfg.time_unit is None
        assert cfg.format == "interval-tsv" and cfg.dual_flag()

    def test_flag_beats_config_file_beats_profile(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("margin = 60  # tuned\nlr=0.02\n", encoding="utf-8")
        cfg = resolve_config(self.parse("train", "--profile", "icews14",
                                        "--config", str(conf), "--lr", "0.5"))
        assert cfg.margin == 60.0  # config file over profile
        assert cfg.lr == 0.5  # flag over config file

    def test_config_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("what even\n", encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 1
        bad.write_text("nonsense = 3\n", encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 1
        bad.write_text("# tuned\nthreads = 2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(bad)]) == 1
        assert f"{bad}:2: unknown option 'threads'" in capsys.readouterr().err

    def test_threshold_clears_default_unit(self):
        cfg = resolve_config(self.parse("train", "--time-threshold", "300"))
        assert cfg.time_unit is None and cfg.time_threshold == 300

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--train", "--valid", "--test", "--format", "--dim", "--margin",
                     "--lr", "--neg-ratio", "--batch-size", "--time-unit",
                     "--time-threshold", "--norm", "--dual", "--seed", "--max-epochs",
                     "--valid-every", "--patience", "--checkpoint", "--out-dir",
                     "--profile"):
            assert flag in text
        for shown_default in ("default: 512", "default: 110.0", "default: 0.1",
                              "default: 5000", "default: 500"):
            assert shown_default in text

    def test_usage_error_exits_one(self):
        for flag in (["--no-such-flag"], ["--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["train", *flag])
            assert exc.value.code == 1

    def test_missing_paths_is_usage_error(self):
        assert main(["preprocess"]) == 1

    def test_invalid_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"margin = 5 # \xff\n")
        assert main(["train", "--config", str(conf)]) == 1
        assert f"bad config file: {conf}:1: invalid UTF-8" in capsys.readouterr().err


def command_for(opt) -> str:
    return next(name for name, (_, _, groups) in COMMANDS.items() if opt.group in groups)


def valid_value(opt) -> str:
    if opt.choices is not None:
        return str(next(c for c in reversed(opt.choices) if c != opt.default))
    return {int: "7", float: "0.25", str: "some/value"}[opt.type]


class TestConfigFileFlagParity:
    # one case per OPTIONS row, so a new option is covered without a new test

    @pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.name)
    def test_config_value_resolves_like_flag(self, opt, tmp_path):
        value = valid_value(opt)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{opt.name} = {value}\n", encoding="utf-8")
        parser = build_parser()
        command = command_for(opt)
        flag = "--" + opt.name.replace("_", "-")
        by_flag = resolve_config(parser.parse_args([command, flag, value]))
        by_file = resolve_config(parser.parse_args([command, "--config", str(conf)]))
        assert vars(by_file) == vars(by_flag)
        got = getattr(by_file, opt.name)
        assert type(got) is opt.type and got != opt.default

    @pytest.mark.parametrize("opt", [opt for opt in OPTIONS
                                     if opt.type is not str or opt.choices],
                             ids=lambda opt: opt.name)
    def test_bad_config_value_exits_one_naming_the_line(self, opt, tmp_path, capsys):
        bad = "3" if opt.choices and opt.type is int else "bogus"
        conf = tmp_path / "run.conf"
        conf.write_text(f"# tuned\n{opt.name} = {bad}\n", encoding="utf-8")
        assert main([command_for(opt), "--config", str(conf)]) == 1
        assert f"{conf}:2: {opt.name}" in capsys.readouterr().err

    def test_none_only_where_an_option_may_be_unset(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("time_unit = none\ntime_threshold = 100\n", encoding="utf-8")
        cfg = resolve_config(build_parser().parse_args(["train", "--config", str(conf)]))
        assert cfg.time_unit is None and cfg.time_threshold == 100
        conf.write_text("dim = none\n", encoding="utf-8")
        assert main(["train", "--config", str(conf)]) == 1
        assert f"{conf}:1: dim" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("opt", [opt for opt in OPTIONS if opt.min is not None],
                             ids=lambda opt: opt.name)
    def test_value_below_minimum_exits_one(self, opt, form, tmp_path, capsys):
        command, flag = command_for(opt), "--" + opt.name.replace("_", "-")
        below = str(opt.min - 1)
        if form == "flag":
            with pytest.raises(SystemExit) as exc:
                main([command, flag, below])
            assert exc.value.code == 1
            assert f"argument {flag}: must be at least {opt.min}" in capsys.readouterr().err
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{opt.name} = {below}\n", encoding="utf-8")
            assert main([command, "--config", str(conf)]) == 1
            assert f"{conf}:1: {opt.name}: must be at least {opt.min}" in \
                capsys.readouterr().err
        cfg = resolve_config(build_parser().parse_args([command, flag, str(opt.min)]))
        assert getattr(cfg, opt.name) == opt.min


class TestPreprocess:
    def test_prints_counts_and_writes_artifacts(self, suite_files, tmp_path, capsys):
        ds, paths = suite_files
        out = tmp_path / "artifacts"
        assert main(["preprocess", *run_args(paths, out)]) == 0
        text = capsys.readouterr().out
        assert f"n_entities\t{ds.vocab.n_entities}" in text
        assert "n_relations\t1" in text
        assert f"n_tau\t{ds.binning.n_tau}" in text
        assert f"train_facts\t{len(ds.train)}" in text
        assert (out / "entities.tsv").exists()
        assert (out / "relations.tsv").exists()
        loaded = Vocab.load(out)
        assert loaded.id2ent == ds.vocab.id2ent
        from tero.data import TimeBinning
        manifest = TimeBinning.from_manifest((out / "binning.txt").read_text())
        assert manifest == ds.binning

    def test_empty_train_file_fails_with_data_error(self, suite_files, tmp_path):
        _, paths = suite_files
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        paths = dict(paths, train=str(empty))
        assert main(["preprocess", *run_args(paths, tmp_path / "x")]) == 2

    def test_invalid_utf8_line_is_data_error(self, suite_files, tmp_path, capsys):
        _, paths = suite_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"A\tr\tB\t2014-01-02\n\xff\xfe\tr\tB\t2014-01-02\n")
        paths = dict(paths, train=str(bad))
        assert main(["preprocess", *run_args(paths, tmp_path / "x")]) == 2
        assert "bad.txt:2: invalid UTF-8" in capsys.readouterr().err

    def test_malformed_line_reports_file_and_line(self, suite_files, tmp_path, capsys):
        _, paths = suite_files
        bad = tmp_path / "bad.txt"
        bad.write_text("A\tr\tB\t2014-01-02\nA\tr\n", encoding="utf-8")
        paths = dict(paths, train=str(bad))
        assert main(["preprocess", *run_args(paths, tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:2" in err


@pytest.fixture()
def interval_files(tmp_path):
    splits = {
        "train": ["a\tworksAt\tb\t2001-##-##\t2003-##-##",
                  "b\tlivesIn\tc\t2002-##-##\t####-##-##",
                  "c\tworksAt\ta\t####-##-##\t2003-##-##"],
        "valid": ["a\tlivesIn\tc\t2001-##-##\t2002-##-##"],
        "test": ["b\tworksAt\tc\t2002-##-##\t2003-##-##"],
    }
    paths = {}
    for split, lines in splits.items():
        p = tmp_path / f"{split}.txt"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths[split] = str(p)
    return paths


@pytest.mark.parametrize("command", ["preprocess", "train"])
def test_fixed_unit_on_partial_dates_is_data_error(command, interval_files, tmp_path, capsys):
    code = main([command, *run_args(interval_files, tmp_path / "run"),
                 "--format", "interval-tsv"])
    assert code == 2
    assert "fixed-unit binning needs full dates, got 2001-##-##" in capsys.readouterr().err


def test_both_granularity_flags_is_usage_error(suite_files, tmp_path, capsys):
    _, paths = suite_files
    code = main(["preprocess", *run_args(paths, tmp_path / "run"), "--time-unit", "1",
                 "--time-threshold", "5"])
    assert code == 1
    assert "--time-unit and --time-threshold exclude each other" in capsys.readouterr().err


class TestTrainCommand:
    def quick(self, paths, out, *extra):
        return ["train", *run_args(paths, out), "--dim", "8", "--margin", "5",
                "--lr", "0.3", "--neg-ratio", "4", "--batch-size", "64",
                "--valid-every", "10", "--seed", "3", *extra]

    def test_zero_epochs_checkpoint_is_seeded_init(self, suite_files, tmp_path):
        ds, paths = suite_files
        out = tmp_path / "run"
        assert main(self.quick(paths, out, "--max-epochs", "0")) == 0
        params, ref = load_checkpoint(out / "model.tero")
        fresh = init_params(ds.vocab.n_entities, ds.vocab.n_relations, ds.binning.n_tau,
                            8, dual=False, seed=3)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, fresh.arrays()[name])
        assert ref == str(out)

    def test_same_seed_byte_identical_checkpoints(self, suite_files, tmp_path):
        _, paths = suite_files
        out = tmp_path / "run"
        args = self.quick(paths, out, "--max-epochs", "10")
        assert main(args) == 0
        first = (out / "model.tero").read_bytes()
        assert main(args) == 0
        assert (out / "model.tero").read_bytes() == first

    def test_failure_keeps_the_best_checkpoint_so_far(self, suite_files, tmp_path,
                                                       monkeypatch, capsys):
        # a step fails after the 3rd validation (epoch 6): the checkpoint holds
        # the best snapshot of the first 3, as a 6-epoch run returns it (here
        # that of the 1st validation, not the parameters at the failure)
        ds, paths = suite_files
        out = tmp_path / "run"
        validations = []
        evaluate, grad_step = training.evaluation.evaluate, training.grad_step

        def counted(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            validations.append(report.mrr)
            return report

        def failing(*args, **kwargs):
            if len(validations) == 3:
                raise training.NumericalError("injected")
            return grad_step(*args, **kwargs)

        monkeypatch.setattr(training.evaluation, "evaluate", counted)
        monkeypatch.setattr(training, "grad_step", failing)
        argv = self.quick(paths, out, "--max-epochs", "40", "--valid-every", "2",
                          "--patience", "10")
        assert main(argv) == 3
        assert "injected" in capsys.readouterr().err
        assert len(validations) == 3
        monkeypatch.undo()
        cfg = resolve_config(build_parser().parse_args(argv))
        cfg.max_epochs = 6
        best, history = training.train(ds.train, ds.valid, cfg.train_config(), ds.binning,
                                       ds.vocab)
        assert [rec.mrr for rec in history] == validations
        saved, _ = load_checkpoint(out / "model.tero")
        for name, arr in best.arrays().items():
            assert np.array_equal(saved.arrays()[name], arr), name

    def test_writes_training_log(self, suite_files, tmp_path):
        _, paths = suite_files
        out = tmp_path / "run"
        assert main(self.quick(paths, out, "--max-epochs", "20")) == 0
        log = (out / "training_log.tsv").read_text().strip().splitlines()
        assert log[0].startswith("epoch\t") and len(log) == 3

    def test_one_entity_dataset_is_data_error(self, tmp_path, capsys):
        paths = {}
        for split in ("train", "valid", "test"):
            paths[split] = tmp_path / f"{split}.txt"
            paths[split].write_text("A\tr\tA\t2014-01-02\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(self.quick({k: str(v) for k, v in paths.items()}, out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("tero: data error: negative sampling needs at least 2 entities, "
                        "the dataset has 1")

    @pytest.mark.parametrize("flag,value", [("margin", "nan"), ("margin", "inf"),
                                            ("lr", "nan"), ("lr", "inf")])
    def test_non_finite_margin_or_lr_is_usage_error(self, suite_files, tmp_path, capsys,
                                                    flag, value):
        _, paths = suite_files
        out = tmp_path / "run"
        assert main(self.quick(paths, out, f"--{flag}", value, "--max-epochs", "5")) == 1
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag} = {value}\n", encoding="utf-8")
        quick = self.quick(paths, out, "--max-epochs", "5")
        at = quick.index(f"--{flag}")  # a flag would override the file
        del quick[at:at + 2]
        assert main([*quick, "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.count(f"tero: error: {flag} must be finite and > 0") == 2
        assert "Traceback" not in err and not out.exists()

    def test_checkpoint_into_a_missing_directory(self, suite_files, tmp_path, monkeypatch):
        _, paths = suite_files
        monkeypatch.chdir(tmp_path)
        assert main(self.quick(paths, "run", "--max-epochs", "2",
                               "--checkpoint", "nodir/m.tero")) == 0
        params, ref = load_checkpoint(tmp_path / "nodir" / "m.tero")
        assert Path(ref).is_absolute() and Path(ref).samefile(tmp_path / "run")
        assert params.k == 8

    # every size lies past a 47-bit address space, so no allocation can begin;
    # numpy raises MemoryError or ValueError, or OverflowError for a count past 2^63
    @pytest.mark.parametrize("flag, value, what", [
        pytest.param("--dim", str(10**15), "float64", id=str(10**15)),
        pytest.param("--dim", str(10**18), "float64", id=str(10**18)),
        pytest.param("--dim", str(10**30), "float64", id=str(10**30)),
        pytest.param("--neg-ratio", str(10**18), "negative", id=f"neg-ratio-{10**18}"),
        pytest.param("--neg-ratio", str(10**30), "negative", id=f"neg-ratio-{10**30}"),
    ])
    def test_model_too_large_to_allocate_is_usage_error(self, suite_files, tmp_path, capsys,
                                                        flag, value, what):
        _, paths = suite_files
        assert main(["train", *run_args(paths, tmp_path / "run"), flag, value]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("tero: error: cannot allocate ") and f" x {value} {what}" in line

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan pass-through is the point
    def test_numerical_blowup_exits_three(self, suite_files, tmp_path):
        _, paths = suite_files
        out = tmp_path / "run"
        code = main(["train", *run_args(paths, out), "--dim", "4", "--margin", "5",
                     "--lr", "1e300", "--max-epochs", "5", "--valid-every", "100"])
        assert code == 3


@pytest.fixture()
def trained_run(suite_files, tmp_path):
    ds, paths = suite_files
    out = tmp_path / "run"
    ckpt = out / "model.tero"
    code = main(["train", *run_args(paths, out), "--dim", "16", "--margin", "5",
                 "--lr", "0.3", "--neg-ratio", "6", "--batch-size", "32",
                 "--valid-every", "25", "--max-epochs", "150", "--seed", "1"])
    assert code == 0
    return ds, paths, out, ckpt


class TestEvalCommand:
    def test_metrics_and_artifacts(self, trained_run, tmp_path, capsys):
        ds, paths, out, ckpt = trained_run
        dump = tmp_path / "ranks.tsv"
        code = main(["eval", *run_args(paths, out), "--checkpoint", str(ckpt),
                     "--dump-ranks", str(dump)])
        assert code == 0
        text = capsys.readouterr().out
        metrics = dict(line.split("\t") for line in text.strip().splitlines())
        assert set(metrics) == {"mrr", "hits@1", "hits@3", "hits@10"}
        assert 0.0 < float(metrics["mrr"]) <= 1.0
        assert (out / "eval.tsv").read_text() == text
        rows = [line.split("\t") for line in dump.read_text().strip().splitlines()]
        assert len(rows) == 2 * len(ds.test)
        assert all(len(row) == 6 and row[4] in ("subject", "object") for row in rows)
        assert all(int(row[5]) >= 1 for row in rows)

    def untrained(self, paths, out, *extra):
        assert main(["train", *run_args(paths, out), "--dim", "4", "--max-epochs", "0",
                     *extra]) == 0
        return out / "model.tero"

    def test_binning_comes_from_the_checkpoint(self, interval_files, tmp_path):
        out = tmp_path / "run"
        ckpt = self.untrained(interval_files, out, "--format", "interval-tsv",
                              "--time-threshold", "1")
        # the default --time-unit 1 cannot bin year dates; eval must not try
        code = main(["eval", *run_args(interval_files, out), "--checkpoint", str(ckpt),
                     "--format", "interval-tsv"])
        assert code == 0
        assert (out / "eval.tsv").read_text().startswith("mrr\t")

    def test_date_outside_the_checkpoint_span_is_data_error(self, suite_files, tmp_path,
                                                           capsys):
        ds, paths = suite_files
        out = tmp_path / "run"
        ckpt = self.untrained(paths, out)
        late = tmp_path / "late.txt"
        q = ds.test[0]
        late.write_text(f"{ds.vocab.id2ent[q.subject]}\t{ds.vocab.id2rel[q.relation]}\t"
                        f"{ds.vocab.id2ent[q.object]}\t2000-02-01\n", encoding="utf-8")
        code = main(["eval", *run_args(dict(paths, test=str(late)), out),
                     "--checkpoint", str(ckpt)])
        assert code == 2
        assert "2000-02-01 beyond binning span" in capsys.readouterr().err

    def test_renamed_entity_is_data_error(self, suite_files, tmp_path, capsys):
        ds, paths = suite_files
        out = tmp_path / "run"
        ckpt = self.untrained(paths, out)
        renamed = {}
        for split, path in paths.items():
            p = tmp_path / f"renamed_{split}.txt"
            p.write_text(open(path, encoding="utf-8").read().replace("actor_0\t", "zz\t"),
                         encoding="utf-8")
            renamed[split] = str(p)
        assert "zz" not in ds.vocab.ent2id
        code = main(["eval", *run_args(renamed, out), "--checkpoint", str(ckpt)])
        assert code == 2
        assert "does not match the checkpoint sidecar" in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, suite_files, tmp_path):
        _, paths = suite_files
        code = main(["eval", *run_args(paths, tmp_path / "nope"),
                     "--checkpoint", str(tmp_path / "missing.tero")])
        assert code == 2


class TestPredictCommand:
    def make_constructed_checkpoint(self, tmp_path):
        # entity B is exactly conj(s + r) for subject A, so it must rank first
        ent = np.array([[1.0 + 0.5j], [1.2 + 0.5j], [5.0 + 5.0j], [-4.0 + 3.0j]])
        rel = np.array([[0.2 - 1.0j]])
        params = params_from(ent, rel, np.zeros((2, 1)))
        sidecar = tmp_path / "side"
        vocab = Vocab(["A", "B", "C", "D"], ["likes"])
        vocab.save(sidecar)
        binning = bin_fixed([PartialDate(2014, 1, 1), PartialDate(2014, 1, 2)], 1)
        (sidecar / "binning.txt").write_text(binning.to_manifest(), encoding="utf-8")
        ckpt = tmp_path / "constructed.tero"
        save_checkpoint(params, ckpt, vocab_ref=str(sidecar))
        return ckpt

    def test_constructed_minimum_ranks_first(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01", "--top-n", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[0] == "B"
        assert float(lines[0].split("\t")[1]) < 1e-5

    def test_full_top_n_is_a_permutation(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01", "--top-n", "4"])
        assert code == 0
        names = [line.split("\t")[0] for line in capsys.readouterr().out.strip().splitlines()]
        assert sorted(names) == ["A", "B", "C", "D"]

    def test_unknown_entity_names_the_token(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "Nessie",
                     "--relation", "likes", "--time", "2014-01-01"])
        assert code == 2
        assert "Nessie" in capsys.readouterr().err

    def test_unknown_relation_names_the_token(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "hates", "--time", "2014-01-01"])
        assert code == 2
        assert "hates" in capsys.readouterr().err

    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes()[:40])  # header, then 2 of 14 floats
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01"])
        assert code == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_short_sidecar_vocab_is_data_error(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        entities = tmp_path / "side" / "entities.tsv"
        entities.write_text("0\tA\n1\tB\n2\tC\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01", "--top-n", "4"])
        assert code == 2
        assert "3 entities" in capsys.readouterr().err

    @pytest.mark.parametrize("table, message", [
        (b"zero\tA\n1\tB\n2\tC\n3\tD\n", "entities.tsv:1: vocab id 'zero' is not an integer"),
        (b"0\tA\n1\t\xff\n2\tC\n3\tD\n", "entities.tsv:2: invalid UTF-8"),
    ])
    def test_bad_sidecar_vocab_is_data_error(self, tmp_path, capsys, table, message):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        (tmp_path / "side" / "entities.tsv").write_bytes(table)
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        "mode = fixed\nparam = 1\nn_tau = 2\norigin = ####-##-##\nspan_days = 2\n",
        "mode = fixed\nparam = 0\nn_tau = 2\norigin = 2014-01-01\nspan_days = 2\n",
        "mode = weekly\nparam = 1\nn_tau = 2\nbins = 2014:2014,2015:2015\n",
        # n_tau matches the checkpoint's 2 steps, but not the span or the bins
        "mode = fixed\nparam = 1\nn_tau = 2\norigin = 2014-01-01\nspan_days = 30\n",
        "mode = threshold\nparam = 1\nn_tau = 2\nbins = 2014:2014,2015:2015,2016:2016\n",
        # two bins, as the checkpoint has, but 2015 falls in neither
        "mode = threshold\nparam = 1\nn_tau = 2\nbins = 2014:2014,2016:2016\n",
    ])
    def test_bad_binning_manifest_is_data_error(self, tmp_path, capsys, manifest):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        (tmp_path / "side" / "binning.txt").write_text(manifest, encoding="utf-8")
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01"])
        assert code == 2
        assert "bad binning manifest" in capsys.readouterr().err

    def test_invalid_utf8_binning_manifest_is_data_error(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        manifest = tmp_path / "side" / "binning.txt"
        manifest.write_bytes(manifest.read_bytes() + b"# \xff\n")
        code = main(["predict", "--checkpoint", str(ckpt), "--subject", "A",
                     "--relation", "likes", "--time", "2014-01-01"])
        assert code == 2
        assert "binning.txt:6: invalid UTF-8" in capsys.readouterr().err

    def test_subject_side_query(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--object", "B",
                     "--relation", "likes", "--time", "2014-01-01",
                     "--side", "subject", "--top-n", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("A\t")

    def test_side_follows_the_given_entity_unless_set(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        query = ["predict", "--checkpoint", str(ckpt), "--relation", "likes",
                 "--time", "2014-01-01", "--top-n", "1"]
        assert main([*query, "--object", "B"]) == 0
        assert capsys.readouterr().out.startswith("A\t")
        assert main([*query, "--subject", "A"]) == 0
        assert capsys.readouterr().out.startswith("B\t")
        assert main([*query, "--subject", "A", "--object", "B", "--side", "subject"]) == 0
        assert capsys.readouterr().out.startswith("A\t")
        assert main([*query, "--object", "B", "--side", "object"]) == 1
        assert "missing required option(s): --subject" in capsys.readouterr().err

    def test_relative_sidecar_found_from_another_directory(self, suite_files, tmp_path,
                                                           monkeypatch, capsys):
        ds, paths = suite_files
        monkeypatch.chdir(tmp_path)
        assert main(["train", *run_args(paths, "run"), "--dim", "4", "--max-epochs", "0"]) == 0
        capsys.readouterr()
        q = ds.test[0]
        query = ["--subject", ds.vocab.id2ent[q.subject], "--relation",
                 ds.vocab.id2rel[q.relation], "--time", str(q.time.begin), "--top-n", "3"]
        assert main(["predict", "--checkpoint", "run/model.tero", *query]) == 0
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 3
        monkeypatch.chdir(tmp_path / "run")
        assert main(["predict", "--checkpoint", "model.tero", *query]) == 0
        assert capsys.readouterr().out == expected
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["predict", "--checkpoint", str(tmp_path / "run" / "model.tero"),
                     *query]) == 0
        assert capsys.readouterr().out == expected


    def test_threads_do_not_change_the_output(self, tmp_path, capsys, monkeypatch):
        # 200 entities are four row blocks, so 3 CPUs split them three ways
        # and 7 or 8 four ways
        params = init_params(200, 2, 3, 8, dual=False, seed=41)
        side = tmp_path / "side"
        Vocab([f"e{i:03d}" for i in range(200)], ["r0", "r1"]).save(side)
        binning = bin_fixed([PartialDate(2014, 1, 1), PartialDate(2014, 1, 3)], 1)
        (side / "binning.txt").write_text(binning.to_manifest(), encoding="utf-8")
        save_checkpoint(params, tmp_path / "m.tero", vocab_ref=str(side))
        made = []
        executor = model.ThreadPoolExecutor
        monkeypatch.setattr(model, "ThreadPoolExecutor",
                            lambda **kw: made.append(kw["max_workers"]) or executor(**kw))
        cpus = (1, 2, 3, 7, 8, model.usable_cpus())
        outputs = []
        for count in cpus:
            monkeypatch.setattr(model, "usable_cpus", lambda: count)
            for query in (["--subject", "e007"], ["--object", "e150"]):
                assert main(["predict", "--checkpoint", str(tmp_path / "m.tero"), *query,
                             "--relation", "r1", "--time", "2014-01-02", "--top-n", "12"]) == 0
                outputs.append(capsys.readouterr().out)
        assert made == [w for count in cpus for w in 2 * [min(count, 4)]]
        assert len(outputs[0].splitlines()) == 12
        assert all(outputs[i:i + 2] == outputs[0:2] for i in range(0, len(outputs), 2))

    @pytest.mark.parametrize("where", ["checkpoint directory", "elsewhere"])
    def test_sidecar_of_a_checkpoint_outside_the_out_dir(self, suite_files, tmp_path,
                                                         monkeypatch, capsys, where):
        # trained with a relative --out-dir and a --checkpoint outside it,
        # the run is found from the checkpoint's directory and from anywhere
        ds, paths = suite_files
        monkeypatch.chdir(tmp_path)
        assert main(["train", *run_args(paths, "run"), "--dim", "4", "--max-epochs", "0",
                     "--checkpoint", "ckpts/m.tero"]) == 0
        capsys.readouterr()
        q = ds.test[0]
        query = ["--subject", ds.vocab.id2ent[q.subject], "--relation",
                 ds.vocab.id2rel[q.relation], "--time", str(q.time.begin), "--top-n", "3"]
        assert main(["predict", "--checkpoint", "ckpts/m.tero", *query]) == 0
        expected = capsys.readouterr().out
        if where == "elsewhere":
            (tmp_path / "elsewhere").mkdir()
            monkeypatch.chdir(tmp_path / "elsewhere")
            ckpt = str(tmp_path / "ckpts" / "m.tero")
        else:
            monkeypatch.chdir(tmp_path / "ckpts")
            ckpt = "m.tero"
        assert main(["predict", "--checkpoint", ckpt, *query]) == 0
        assert capsys.readouterr().out == expected

    def test_moved_sidecar_found_next_to_the_checkpoint(self, tmp_path, capsys):
        ckpt = self.make_constructed_checkpoint(tmp_path)
        query = ["predict", "--subject", "A", "--relation", "likes", "--time", "2014-01-01",
                 "--top-n", "4"]
        assert main([*query, "--checkpoint", str(ckpt)]) == 0
        expected = capsys.readouterr().out
        moved = tmp_path / "moved"
        (tmp_path / "side").rename(moved)
        ckpt.rename(moved / ckpt.name)
        assert main([*query, "--checkpoint", str(moved / ckpt.name)]) == 0
        assert capsys.readouterr().out == expected


class TestDefaultsTable:
    def test_profiles_cover_documented_presets(self):
        assert set(PROFILES) == {"icews14", "icews05-15", "yago11k", "wikidata12k"}
        assert PROFILES["icews14"] == {"format": "point-tsv", "lr": 0.1,
                                       "margin": 110.0, "time_unit": 1}
        assert PROFILES["yago11k"]["time_threshold"] == 100

    def test_defaults_match_documented_values(self):
        assert DEFAULTS["dim"] == 500 and DEFAULTS["neg_ratio"] == 10
        assert DEFAULTS["batch_size"] == 512 and DEFAULTS["max_epochs"] == 5000

    def test_parse_config_file_types(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("dim = 32\nlr = 0.25\ntime-threshold = none\n# comment\n",
                        encoding="utf-8")
        values = parse_config_file(str(conf))
        assert values == {"dim": 32, "lr": 0.25, "time_threshold": None}
