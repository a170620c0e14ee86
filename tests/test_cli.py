"""End-to-end checks of the command-line interface."""

import argparse
import filecmp
import json
import re
from pathlib import Path

import pytest

from ktrace import evaluate, regression
from ktrace.cli import CONFIG_KEYS, build_parser, main
from ktrace.combine import CombinedSpec, _split_meta_students
from ktrace.evaluate import PlainSpec
from ktrace.ingest import Memo, load_prepared
from ktrace.regression import TrainConfig
from ktrace.specialize import ByField, PartitionedSpec


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def prepared(tmp_path_factory) -> Path:
    """A generated and prepared dataset shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    assert run_cli(
        "generate", "--out", raw, "--seed", 11, "--students", 60,
        "--questions", 25, "--kcs", 4, "--responses", 30,
    ) == 0
    prep = root / "prep"
    assert run_cli(
        "prepare", "--input", raw / "events.csv", "--manifest", raw / "manifest.json",
        "--out", prep, "--folds", 4, "--seed", 3,
    ) == 0
    return prep


def test_generate_same_seed_is_byte_identical(tmp_path):
    args = ["generate", "--seed", 5, "--students", 20, "--responses", 15]
    assert run_cli(*args, "--out", tmp_path / "a") == 0
    assert run_cli(*args, "--out", tmp_path / "b") == 0
    for name in ("events.csv", "manifest.json", "ground_truth.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_prepare_rerun_identical_outputs(prepared, tmp_path):
    raw = prepared.parent / "raw"
    assert run_cli(
        "prepare", "--input", raw / "events.csv", "--manifest", raw / "manifest.json",
        "--out", tmp_path / "again", "--folds", 4, "--seed", 3,
    ) == 0
    for name in ("events.csv", "manifest.json", "folds.json", "prepare_meta.json"):
        assert filecmp.cmp(prepared / name, tmp_path / "again" / name, shallow=False)


def test_prepare_writes_run_manifest(prepared):
    obj = json.loads((prepared / "run_manifest.json").read_text())
    assert obj["subcommand"] == "prepare"
    assert obj["seed"] == 3
    assert len(obj["inputs"]) == 2
    assert all(len(d) == 64 for d in obj["inputs"].values())
    assert any(p.endswith("folds.json") for p in obj["outputs"])
    assert obj["versions"]["ktrace"]


def test_prepare_corrupt_row_fails_with_line_number(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run_cli("generate", "--out", raw, "--seed", 1, "--students", 12) == 0
    csv_path = raw / "events.csv"
    lines = csv_path.read_text().splitlines()
    correct_col = lines[0].split(",").index("correct")
    row = lines[3].split(",")
    row[correct_col] = "maybe"
    lines[3] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "prepare", "--input", csv_path, "--manifest", raw / "manifest.json",
        "--out", tmp_path / "prep",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 4" in err and "maybe" in err


def test_train_eval_report_schema(prepared, tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt", "--report", report_path,
    ) == 0
    obj = json.loads(report_path.read_text())
    assert obj["spec"] == "irt"
    assert obj["k"] == 4 and obj["seed"] == 3
    assert len(obj["per_fold"]) == 4
    assert {"fold", "n", "positives", "acc", "auc"} <= set(obj["per_fold"][0])
    assert 0.0 < obj["auc_mean"] < 1.0
    assert [b["bucket"] for b in obj["buckets"]][:2] == ["0-10", "10-50"]


def test_train_eval_jobs_do_not_change_report(prepared, tmp_path):
    for jobs, name in ((1, "a.json"), (3, "b.json")):
        assert run_cli(
            "train-eval", "--data", prepared, "--recipe", "pfa",
            "--jobs", jobs, "--report", tmp_path / name,
        ) == 0
    assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)


def test_train_eval_persists_models_and_manifest(prepared, tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt", "--out", out,
    ) == 0
    for fold in range(4):
        assert [p.name for p in (out / "models" / f"fold-{fold}").iterdir()] == ["fit.json"]
    assert (out / "report.json").exists()
    run = json.loads((out / "run_manifest.json").read_text())
    assert run["effective_config"]["spec"] == "irt"
    assert run["duration_s"] >= 0


@pytest.mark.parametrize("argv, spec", [
    (("--recipe", "irt"), PlainSpec("irt")),
    (("--recipe", "irt", "--partition", "response-index"), PartitionedSpec("irt")),
    (("--combine", "irt+pfa@ri"), CombinedSpec((PlainSpec("irt"), PartitionedSpec("pfa")))),
    (("--combine", "irt+pfa@f:question_id"),
     CombinedSpec((PlainSpec("irt"), PartitionedSpec("pfa", scheme=ByField("question_id"))))),
    (("--combine", "irt+best-lr+"), CombinedSpec((PlainSpec("irt"), PlainSpec("best-lr+")))),
    (("--combine", "best-lr+@ri+irt"), CombinedSpec((PartitionedSpec("best-lr+"), PlainSpec("irt")))),
], ids=["plain", "partitioned", "combined", "combined-by-field", "combined-plus-last",
        "combined-plus-first"])
def test_train_eval_models_load_back_through_their_spec(prepared, tmp_path, argv, spec):
    """A stored fold model predicts its test students with the bytes of a fresh fit."""
    out = tmp_path / "run"
    assert run_cli("train-eval", "--data", prepared, *argv, "--out", out) == 0
    assert json.loads((out / "report.json").read_text())["spec"] == spec.label
    dataset, folds = load_prepared(prepared)
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))
    loaded = spec.load(out / "models" / "fold-0")
    fresh = spec.fit_on(train, dataset, TrainConfig())
    assert (spec.predict_on(loaded, test, dataset).probs.tobytes()
            == spec.predict_on(fresh, test, dataset).probs.tobytes())


def test_train_eval_manifest_counts_extraction(prepared, tmp_path):
    """Each student is walked once per recipe; every fold is served from those walks."""
    dataset, folds = load_prepared(prepared)
    n_students, n_responses, k = dataset.n_students, dataset.n_responses, folds.k
    meta_responses = sum(  # responses of each fold's held-out 10% that trains the meta model
        sum(e.is_response() for e in dataset.students[s])
        for f in range(k)
        for s in _split_meta_students(dict.fromkeys(folds.train_students(f)), 0)[1]
    )
    for argv, recipes in ((("--recipe", "pfa"), 1), (("--combine", "irt+pfa@ri"), 2)):
        out = tmp_path / str(recipes)
        assert run_cli("train-eval", "--data", prepared, *argv, "--out", out) == 0
        counts = json.loads((out / "run_manifest.json").read_text())["extraction"]
        assert counts["students_walked"] == recipes * n_students
        assert counts["rows_walked"] == recipes * n_responses
        # a fit is served its training rows twice (encoder, then matrix), a prediction
        # its rows once.  Over the folds, a plain fit and its test rows give
        # 2(k-1)N + N; a stacked base fits on the 90% and predicts the meta 10%,
        # then fits on all training rows and predicts the test rows:
        # 2((k-1)N - M) + M + 2(k-1)N + N, with M the meta rows summed over folds
        if recipes == 1:
            served = (2 * k - 1) * n_responses
        else:
            served = recipes * ((4 * k - 3) * n_responses - meta_responses)
        assert counts["rows_served"] == served


def test_option_precedence_flag_env_config(prepared, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 4, "l2": 0.5}))

    def effective_jobs(*extra):
        out = tmp_path / "out"
        assert run_cli(
            "train-eval", "--data", prepared, "--recipe", "irt",
            "--config", cfg, "--out", out, *extra,
        ) == 0
        return json.loads((out / "run_manifest.json").read_text())["effective_config"]

    monkeypatch.delenv("KTRACE_JOBS", raising=False)
    got = effective_jobs()
    assert got["jobs"] == 4 and got["l2"] == 0.5

    monkeypatch.setenv("KTRACE_JOBS", "2")
    assert effective_jobs()["jobs"] == 2

    assert effective_jobs("--jobs", 1)["jobs"] == 1

    # folds and seed from the config file replace the stored 4-fold split
    cfg.write_text(json.dumps({"folds": 3, "seed": 9}))
    got = effective_jobs()
    assert (got["folds"], got["seed"]) == (3, 9)
    got = effective_jobs("--folds", 2)
    assert (got["folds"], got["seed"]) == (2, 9)


def _unknown_config_key_error(capsys, tmp_path, cfg, *argv) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(*argv, "--config", path) == 1
    return capsys.readouterr().err


def test_generate_rejects_unknown_config_keys(tmp_path, capsys):
    out = tmp_path / "raw"
    err = _unknown_config_key_error(
        capsys, tmp_path, {"students": 5, "regime-step": 3, "colour": 1}, "generate", "--out", out,
    )
    assert "unknown generate --config keys colour, regime-step;" in err
    assert "accepted: seed, students," in err and "regime_step" in err
    assert not out.exists()


def test_prepare_rejects_unknown_config_keys(prepared, tmp_path, capsys):
    raw = prepared.parent / "raw"
    out = tmp_path / "prep"
    err = _unknown_config_key_error(
        capsys, tmp_path, {"min_responses": 7}, "prepare", "--input", raw / "events.csv",
        "--manifest", raw / "manifest.json", "--out", out,
    )
    assert "unknown prepare --config keys min_responses;" in err
    assert "accepted: min-responses, folds, seed, squash-kcs" in err
    assert not out.exists()


def test_train_eval_rejects_unknown_config_keys(prepared, tmp_path, capsys):
    out = tmp_path / "out"
    err = _unknown_config_key_error(
        capsys, tmp_path, {"min-partition": 7}, "train-eval", "--data", prepared,
        "--recipe", "irt", "--partition", "ri", "--out", out,
    )
    assert "unknown train-eval --config keys min-partition;" in err
    assert "accepted: folds, seed, jobs, l2, partition, extras, combine" in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, shown", [
    ({"jobs": None}, "'jobs' must be a number, got null"),
    ({"l2": None}, "'l2' must be a number, got null"),
    ({"l2": [1]}, "'l2' must be a number, got [1]"),
    ({"folds": True}, "'folds' must be a number, got true"),
    ({"jobs": 2.7}, "'jobs' must be an integer, got 2.7"),
    ({"folds": "3.5"}, "'folds' must be an integer, got \"3.5\""),
    ({"l2": "abc"}, "'l2' must be a number, got \"abc\""),
], ids=["jobs-null", "l2-null", "l2-list", "folds-bool", "jobs-fraction", "folds-fraction-text", "l2-text"])
def test_train_eval_rejects_non_numeric_config_values(prepared, tmp_path, capsys, monkeypatch, cfg, shown):
    monkeypatch.delenv("KTRACE_JOBS", raising=False)
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("train-eval", "--data", prepared, "--recipe", "irt", "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --config key {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("cfg, shown", [
    ({"partition": 5}, "'partition' must be a string, got 5"),
    ({"combine": 5}, "'combine' must be a string, got 5"),
    ({"extras": [1]}, "'extras' must be a string, got [1]"),
], ids=["partition-int", "combine-int", "extras-list"])
def test_train_eval_rejects_non_string_config_values(prepared, tmp_path, capsys, cfg, shown):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("train-eval", "--data", prepared, "--recipe", "irt", "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --config key {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand, cfg, shown", [
    ("generate", {"students": 2.7}, "'students' must be an integer, got 2.7"),
    ("generate", {"regime_step": "2.5"}, "'regime_step' must be an integer, got \"2.5\""),
    ("generate", {"momentum": "abc"}, "'momentum' must be a number, got \"abc\""),
    ("generate", {"name": 5}, "'name' must be a string, got 5"),
    ("prepare", {"min-responses": 2.5}, "'min-responses' must be an integer, got 2.5"),
    ("prepare", {"squash-kcs": "false"}, "'squash-kcs' must be true or false, got \"false\""),
    ("prepare", {"squash-kcs": 0}, "'squash-kcs' must be true or false, got 0"),
], ids=["students-fraction", "regime-step-fraction-text", "momentum-text", "name-int", "min-responses-fraction",
        "squash-kcs-text", "squash-kcs-zero"])
def test_generate_and_prepare_reject_config_values_of_another_kind(prepared, tmp_path, capsys, subcommand, cfg,
                                                                    shown):
    raw = prepared.parent / "raw"
    inputs = ["--input", raw / "events.csv", "--manifest", raw / "manifest.json"] if subcommand == "prepare" else []
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(subcommand, *inputs, "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --config key {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "2.7"])
def test_train_eval_rejects_a_non_integer_jobs_variable(prepared, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("KTRACE_JOBS", value)
    out = tmp_path / "out"
    assert run_cli("train-eval", "--data", prepared, "--recipe", "irt", "--out", out) == 1
    assert capsys.readouterr().err == f'error: KTRACE_JOBS must be an integer, got "{value}"\n'
    assert not out.exists()


def test_generate_config_takes_integral_numbers_and_numeric_strings(tmp_path):
    cfg = {"seed": "5", "students": 4.0, "responses": "3", "momentum": "0.5", "regime_step": None,
           "modules": ["a", "b"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("generate", "--out", tmp_path / "config", "--config", path) == 0
    assert run_cli("generate", "--out", tmp_path / "flags", "--seed", 5, "--students", 4, "--responses", 3,
                   "--momentum", 0.5, "--modules", "a,b") == 0
    for name in ("events.csv", "manifest.json", "ground_truth.json"):
        assert filecmp.cmp(tmp_path / "config" / name, tmp_path / "flags" / name, shallow=False)
    # giving no option is giving every option its default
    assert run_cli("generate", "--out", tmp_path / "none") == 0
    assert run_cli("generate", "--out", tmp_path / "defaults", "--seed", 0, "--students", 500, "--questions", 50,
                   "--kcs", 5, "--responses", 50, "--momentum", 0.0, "--prereq-transfer", 0.0, "--modules", "",
                   "--module-scale", 1.0, "--mean-gap-s", 6 * 3600.0, "--mean-elapsed-s", 60.0, "--name", "synth") == 0
    for name in ("events.csv", "manifest.json", "ground_truth.json"):
        assert filecmp.cmp(tmp_path / "none" / name, tmp_path / "defaults" / name, shallow=False)


def test_prepare_config_squash_kcs_matches_the_flag(prepared, tmp_path):
    """`squash-kcs` true in --config prepares what --squash-kcs does, false what no flag does."""
    raw = prepared.parent / "raw"

    def prepare(name, *extra):
        out = tmp_path / name
        assert run_cli("prepare", "--input", raw / "events.csv", "--manifest", raw / "manifest.json",
                       "--out", out, *extra) == 0
        return [(out / f).read_bytes() for f in ("events.csv", "folds.json", "prepare_meta.json")]

    by_flag = {True: prepare("squash", "--squash-kcs"), False: prepare("no-flag")}
    assert by_flag[True] != by_flag[False]  # the data has multi-KC responses
    for value, want in by_flag.items():
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps({"squash-kcs": value}))
        assert prepare(f"config-{value}", "--config", path) == want


def test_generate_config_modules_is_a_string_or_a_list_of_strings(tmp_path, capsys):
    def generate(modules):
        out = tmp_path / json.dumps(modules).replace("/", "_")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"modules": modules}))
        code = run_cli("generate", "--out", out, "--students", 4, "--responses", 3, "--config", path)
        return code, out

    code, as_list = generate(["m1", "m2"])
    assert code == 0
    code, as_text = generate("m1,m2")
    assert code == 0
    assert (as_list / "events.csv").read_bytes() == (as_text / "events.csv").read_bytes()
    capsys.readouterr()
    code, out = generate(5)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == "error: --config key 'modules' must be a string or a list of strings, got 5\n"


def test_config_keys_agree_with_parser_and_readme():
    """Every --config key names an option of its subcommand, and README lists exactly these keys."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name, keys in CONFIG_KEYS.items():
        dests = {a.dest for a in subcommands[name]._actions}
        assert {k.replace("-", "_") for k in keys} <= dests, name
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    listing = readme.split("`--config` file may hold only", 1)[1]
    listing = listing[: listing.index(".", listing.index("- `"))]
    documented = {name: tuple(re.findall(r"`([^`]+)`", keys))
                  for name, keys in re.findall(r"- `([\w-]+)`: ([^;]+)", listing)}
    assert documented == CONFIG_KEYS


@pytest.mark.parametrize("where, source", [
    ("flag", "from --jobs"),
    ("env", "from KTRACE_JOBS"),
    ("config", "from --config key 'jobs'"),
])
def test_train_eval_rejects_jobs_below_one(prepared, tmp_path, capsys, monkeypatch, where, source):
    monkeypatch.delenv("KTRACE_JOBS", raising=False)
    argv = ["train-eval", "--data", prepared, "--recipe", "irt", "--out", tmp_path / "out"]
    if where == "flag":
        argv += ["--jobs", 0]
    elif where == "env":
        monkeypatch.setenv("KTRACE_JOBS", "-4")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        argv += ["--config", cfg]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "jobs must be >= 1" in err and source in err
    assert not (tmp_path / "out").exists()


def test_train_eval_select_bases_needs_combine(prepared, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("train-eval", "--data", prepared, "--recipe", "irt", "--select-bases", "--out", out) == 1
    err = capsys.readouterr().err
    assert "--select-bases" in err and "--combine" in err
    assert not out.exists()


def test_train_eval_unset_folds_or_seed_come_from_stored_split(prepared, tmp_path):
    """`prepared` holds a 4-fold split with seed 3."""

    def run(name, *extra):
        out = tmp_path / name
        assert run_cli(
            "train-eval", "--data", prepared, "--recipe", "irt", "--out", out, *extra,
        ) == 0
        effective = json.loads((out / "run_manifest.json").read_text())["effective_config"]
        report = (out / "report.json").read_bytes()
        obj = json.loads(report)
        assert (obj["k"], obj["seed"]) == (effective["folds"], effective["seed"])
        return (obj["k"], obj["seed"]), report

    got, report = run("seed-only", "--seed", 4)
    assert got == (4, 4)
    assert report == run("seed-both", "--seed", 4, "--folds", 4)[1]

    got, report = run("folds-only", "--folds", 3)
    assert got == (3, 3)
    assert report == run("folds-both", "--folds", 3, "--seed", 3)[1]


def test_train_eval_partitioned_label(prepared, tmp_path):
    report_path = tmp_path / "part.json"
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt",
        "--partition", "response-index", "--report", report_path,
    ) == 0
    assert json.loads(report_path.read_text())["spec"] == "irt@response-index"


def test_train_eval_combine_and_select(prepared, tmp_path, capsys):
    report_path = tmp_path / "combo.json"
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt",
        "--combine", "irt+pfa", "--select-bases", "--report", report_path,
    ) == 0
    out = capsys.readouterr().out
    assert "selected bases:" in out
    obj = json.loads(report_path.read_text())
    sel = obj["extra"]["selection"]
    assert sel["chosen"] and 0 < sel["fold1_auc"] <= 1
    assert len(sel["table"]) == 3


def test_train_eval_select_bases_fold_0_refits_nothing(prepared, tmp_path, monkeypatch):
    """Selection fits its bases on the training students of the first fold,
    which cross-validation calls fold 0, so the dataset's memo serves every
    base fit fold 0 needs; the report and every model file equal those of a
    run whose memo never hits, which refits them."""
    fold_now: list = [None]
    fits: list = []
    run_fold, fit_on = evaluate.run_fold, PlainSpec.fit_on

    def run_fold_spy(spec, dataset, folds, fold, *args, **kwargs):
        fold_now[0] = fold
        try:
            return run_fold(spec, dataset, folds, fold, *args, **kwargs)
        finally:
            fold_now[0] = None

    def fit_on_spy(self, student_ids, dataset, config):
        fits.append(fold_now[0])
        return fit_on(self, student_ids, dataset, config)

    monkeypatch.setattr(evaluate, "run_fold", run_fold_spy)
    monkeypatch.setattr(PlainSpec, "fit_on", fit_on_spy)

    def train_eval(name):
        fits.clear()
        out = tmp_path / name
        assert run_cli("train-eval", "--data", prepared, "--combine", "irt+pfa+best-lr", "--select-bases",
                       "--out", out) == 0
        files = {str(f.relative_to(out)): f.read_bytes()
                 for f in sorted(out.rglob("*")) if f.is_file() and f.name != "run_manifest.json"}
        return files, list(fits)

    memo_files, memo_fits = train_eval("memo")
    assert None in memo_fits  # selection's fits
    assert 0 not in memo_fits and {1, 2, 3} <= set(memo_fits)
    monkeypatch.setattr(Memo, "get", lambda self, key, compute: compute())
    miss_files, miss_fits = train_eval("miss")
    assert 0 in miss_fits
    assert "report.json" in memo_files and any(name.startswith("models/fold-0/") for name in memo_files)
    assert miss_files == memo_files


def test_train_eval_unknown_recipe_fails(prepared, capsys):
    assert run_cli("train-eval", "--data", prepared, "--recipe", "mystery") == 1
    assert "error:" in capsys.readouterr().err


def test_train_eval_bad_partition_fails(prepared, capsys):
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt", "--partition", "sideways",
    ) == 1
    assert "sideways" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--recipe", "irt", "--partition", "by-feature:school"),
    ("--combine", "irt+pfa@f:school"),
], ids=["partition", "combine"])
def test_train_eval_undeclared_partition_field_fails(prepared, tmp_path, capsys, argv):
    """The generated manifest has no school column, so a school partition would only copy the fallback."""
    assert run_cli("train-eval", "--data", prepared, *argv, "--out", tmp_path / "run") == 1
    assert "by-feature:school needs the manifest flag 'school'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--partition", "ri"), ("--extras", "response_pattern")])
def test_train_eval_combine_refuses_recipe_only_flags(prepared, capsys, flag, value):
    assert run_cli("train-eval", "--data", prepared, "--combine", "irt+pfa", flag, value) == 1
    err = capsys.readouterr().err
    assert flag in err and "--combine" in err


def test_train_eval_unknown_combine_base_fails_before_fitting(prepared, capsys, monkeypatch):
    fits = []
    real = regression.fit
    monkeypatch.setattr(regression, "fit", lambda *a, **kw: fits.append(1) or real(*a, **kw))
    argv = ("train-eval", "--data", prepared, "--combine", "irt+pfa+mystery", "--select-bases")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "'mystery'" in err and "best-lr+" in err
    assert fits == []


def test_roc_csv_output(prepared, tmp_path):
    roc_path = tmp_path / "new" / "roc.csv"  # the missing directory is created
    report_path = tmp_path / "report.json"
    assert run_cli(
        "train-eval", "--data", prepared, "--recipe", "irt", "--roc-csv", roc_path,
        "--report", report_path,
    ) == 0
    lines = roc_path.read_text().splitlines()
    points = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert json.loads(report_path.read_text())["roc"] == points  # the report keeps them too
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0.0,0.0"
    last = [float(x) for x in lines[-1].split(",")]
    assert last == [1.0, 1.0]


def test_stats_outputs_json(prepared, capsys):
    assert run_cli("stats", "--data", prepared) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_students"] == 60
    assert obj["n_responses"] == 60 * 30
    assert 0 < obj["overall_correct_rate"] < 1
    assert "next_question_predictability" in obj


def test_stats_needs_an_input(capsys):
    assert run_cli("stats") == 1
    assert "error:" in capsys.readouterr().err


def test_stats_raw_input_matches_prepared(prepared, tmp_path, capsys):
    raw = prepared.parent / "raw"
    assert run_cli("stats", "--input", raw / "events.csv", "--manifest", raw / "manifest.json") == 0
    from_raw = json.loads(capsys.readouterr().out)
    assert run_cli("stats", "--data", prepared) == 0
    from_prep = json.loads(capsys.readouterr().out)
    # quality counters are recorded by the prepare pipeline, not by raw loads
    assert from_prep.pop("quality") == {"negative_lag_clamped": 0, "students_filtered": 0}
    from_raw.pop("quality")
    assert from_raw == from_prep

