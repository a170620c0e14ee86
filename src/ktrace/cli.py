"""Command-line entry point for reproducible runs.

Subcommands: generate (synthetic data), prepare (validate, filter,
squash, fold split), train-eval (cross-validated training with optional
partitioning, combination and base selection) and stats.

Option precedence is flags > KTRACE_JOBS environment variable (--jobs
only) > --config JSON file > built-in defaults; a --config key that the
subcommand does not read (CONFIG_KEYS) is an error.  All randomness
flows from --seed; outputs other than the run manifest (which records
wall-clock times) are byte-identical across reruns and across --jobs
values.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import re
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from ktrace import __version__, combine, evaluate, ingest, regression, specialize, synth
from ktrace.core import ConfigError, canonical_json
from ktrace.features import FeatureFamily
from ktrace.recipes import RECIPE_NAMES

JOBS_ENV = "KTRACE_JOBS"

# generate's options (flag and --config key), each with the GeneratorConfig field it sets
GENERATE_FIELDS = {
    "seed": "seed", "students": "n_students", "questions": "n_questions", "kcs": "n_kcs",
    "responses": "responses_per_student", "momentum": "momentum", "regime_step": "regime_step",
    "prereq_transfer": "prereq_transfer", "modules": "modules", "module_scale": "module_scale",
    "mean_gap_s": "mean_gap_s", "mean_elapsed_s": "mean_elapsed_s", "name": "name",
}
# keys each subcommand reads from a --config file, spelled as it reads them
CONFIG_KEYS = {
    "generate": tuple(GENERATE_FIELDS),
    "prepare": ("min-responses", "folds", "seed", "squash-kcs"),
    "train-eval": ("folds", "seed", "jobs", "l2", "partition", "extras", "combine"),
}
# --config keys that take an integer or any number; a string is parsed as its flag's text would be
INT_CONFIG_KEYS = frozenset({
    "seed", "students", "questions", "kcs", "responses", "regime_step", "min-responses", "folds", "jobs",
})
FLOAT_CONFIG_KEYS = frozenset({"momentum", "prereq_transfer", "module_scale", "mean_gap_s", "mean_elapsed_s", "l2"})
# --config keys that take their flag's text; `modules` may also be a list of strings
STRING_CONFIG_KEYS = frozenset({"name", "partition", "extras", "combine"})


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Records what a command read, wrote and decided."""

    def __init__(self, argv: list[str], subcommand: str, effective: dict, seed: int | None):
        self.argv = argv
        self.subcommand = subcommand
        self.effective = effective
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.extraction: dict[str, int] | None = None  # the dataset's RowStore counts
        self._t0 = time.monotonic()
        self._started = datetime.now(timezone.utc).isoformat(timespec="seconds")

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = _sha256_file(path)

    def add_output(self, path: Path) -> None:
        self.outputs.append(str(path))

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "run_manifest.json"
        payload = {
            "command": self.argv,
            "subcommand": self.subcommand,
            "effective_config": self.effective,
            "config_digest": hashlib.sha256(
                canonical_json(self.effective).encode()
            ).hexdigest(),
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": sorted(self.outputs),
            "started_utc": self._started,
            "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "duration_s": round(time.monotonic() - self._t0, 3),
            "versions": {
                "ktrace": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
        if self.extraction is not None:
            payload["extraction"] = self.extraction
        path.write_text(canonical_json(payload), encoding="utf-8")
        return path


def _number(value, kind: type, source: str):
    """`value` as `kind` (int or float): a number, integral for int, or a
    string its flag would accept; anything else is a ConfigError naming
    `source`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{source} must be a number, got {json.dumps(value)}")
    wrong = ConfigError(f"{source} must be {'an integer' if kind is int else 'a number'}, got {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise wrong
    try:
        return kind(value)
    except ValueError:
        raise wrong from None


def _load_config_file(path: str | None, subcommand: str) -> dict:
    if not path:
        return {}
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ConfigError("--config file must hold a JSON object")
    unknown = sorted(set(obj) - set(CONFIG_KEYS[subcommand]))
    if unknown:
        raise ConfigError(
            f"unknown {subcommand} --config keys {', '.join(unknown)}; "
            f"accepted: {', '.join(CONFIG_KEYS[subcommand])}"
        )
    for name in sorted(set(obj) & (INT_CONFIG_KEYS | FLOAT_CONFIG_KEYS)):
        if obj[name] is None and name == "regime_step":
            continue  # null is its default: no regime switches
        obj[name] = _number(obj[name], int if name in INT_CONFIG_KEYS else float, f"--config key {name!r}")
    if not isinstance(obj.get("squash-kcs", False), bool):
        raise ConfigError(f"--config key 'squash-kcs' must be true or false, got {json.dumps(obj['squash-kcs'])}")
    for name in sorted(set(obj) & STRING_CONFIG_KEYS):
        if not isinstance(obj[name], str):
            raise ConfigError(f"--config key {name!r} must be a string, got {json.dumps(obj[name])}")
    modules = obj.get("modules", "")
    if not isinstance(modules, str) and not (isinstance(modules, list) and all(isinstance(m, str) for m in modules)):
        raise ConfigError(f"--config key 'modules' must be a string or a list of strings, got {json.dumps(modules)}")
    return obj


def _effective(args: argparse.Namespace, cfg: dict, name: str, default, env: str | None = None,
               minimum: int | None = None):
    """flags > environment > config file > default; a given value below
    `minimum` is a ConfigError naming where it came from."""
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        value, source = flag, f"--{name}"
    elif env is not None and os.environ.get(env):
        value, source = _number(os.environ[env], type(default), env), env
    elif name in cfg:
        value, source = cfg[name], f"--config key {name!r}"
    else:
        return default
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r} from {source}")
    return value


def _parse_extras(text: str | None) -> tuple[FeatureFamily, ...]:
    if not text:
        return ()
    return tuple(FeatureFamily.parse(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_scheme(text: str) -> specialize.Scheme:
    """A partition scheme: ri or response-index, f:FIELD or by-feature:FIELD."""
    if text in ("ri", "response-index"):
        return specialize.ResponseIndex()
    prefix, colon, name = text.partition(":")
    if colon and prefix in ("f", "by-feature"):
        return specialize.ByField(name)
    raise ConfigError(f"partition scheme must be ri, response-index, f:FIELD or by-feature:FIELD, got {text!r}")


def _parse_base_token(token: str):
    """A base spec: RECIPE or RECIPE@SCHEME."""
    recipe, at, scheme = token.partition("@")
    if recipe.strip().lower() not in RECIPE_NAMES:
        raise ConfigError(
            f"--combine base {token!r}: unknown recipe {recipe!r}; expected one of {', '.join(RECIPE_NAMES)}"
        )
    if not at:
        return evaluate.PlainSpec(recipe)
    return specialize.PartitionedSpec(recipe, scheme=_parse_scheme(scheme))


def save_fitted(fitted, out_dir: Path, spec) -> None:
    """Persist what spec.fit_on returned as `out_dir/fit.json`, through the spec's `save`."""
    spec.save(fitted, out_dir)


def cmd_generate(args: argparse.Namespace, argv: list[str]) -> int:
    cfg_file = _load_config_file(args.config, "generate")
    # only the options given are passed, so GeneratorConfig's defaults hold the rest
    given = {f: _effective(args, cfg_file, name, None) for name, f in GENERATE_FIELDS.items()}
    given = {f: value for f, value in given.items() if value is not None}
    if "modules" in given:
        modules = given["modules"]
        given["modules"] = tuple(m for m in (modules.split(",") if isinstance(modules, str) else modules) if m)
    config = synth.GeneratorConfig(**given)
    out = Path(args.out)
    run = RunManifest(argv, "generate", config.to_json(), config.seed)
    dataset, truth = synth.generate(config)
    for path in synth.write_synth(dataset, truth, out).values():
        run.add_output(path)
    run.add_output(run.write(out))
    print(f"wrote {dataset.n_students} students, {dataset.n_responses} responses to {out}")
    return 0


def cmd_prepare(args: argparse.Namespace, argv: list[str]) -> int:
    cfg_file = _load_config_file(args.config, "prepare")
    min_responses = _effective(args, cfg_file, "min-responses", 10)
    k = _effective(args, cfg_file, "folds", 5)
    seed = _effective(args, cfg_file, "seed", 0)
    squash = _effective(args, cfg_file, "squash-kcs", False)

    run = RunManifest(
        argv, "prepare",
        {"min_responses": min_responses, "folds": k, "seed": seed, "squash_kcs": squash},
        seed,
    )
    in_csv = Path(args.input)
    in_manifest = Path(args.manifest)
    run.add_input(in_csv)
    run.add_input(in_manifest)

    manifest, graph = ingest.read_manifest(in_manifest)
    dataset = replace(ingest.load_events(in_csv, manifest), kc_graph=graph)
    dataset = ingest.filter_students(dataset, min_responses=min_responses)
    if squash:
        dataset = ingest.squash_multi_kc(dataset)
    dataset = ingest.derive_lag_times(dataset)
    folds = ingest.split_folds(dataset, k=k, seed=seed)

    out = Path(args.out)
    for written in ingest.write_prepared(dataset, folds, out).values():
        run.add_output(Path(written))
    run.add_output(run.write(out))
    print(
        f"prepared {dataset.n_students} students, {dataset.n_responses} responses, "
        f"{k} folds at {out}"
    )
    return 0


def _build_spec(args: argparse.Namespace, cfg_file: dict):
    extras = _parse_extras(_effective(args, cfg_file, "extras", None))
    combo = _effective(args, cfg_file, "combine", "none")
    partition = _effective(args, cfg_file, "partition", "none")
    if combo == "none" and args.select_bases:
        raise ConfigError("--select-bases picks among --combine bases; give --combine too")
    if combo != "none":
        if partition != "none":
            raise ConfigError("--partition applies to bases via @ suffixes when --combine is used")
        if extras:
            raise ConfigError("--extras applies to --recipe only, not to --combine bases")
        # a + followed by another +, an @ or the end belongs to a recipe name (best-lr+)
        bases = tuple(_parse_base_token(tok) for tok in re.split(r"\+(?=[^+@])", combo) if tok)
        return bases, None
    if partition == "none":
        return None, evaluate.PlainSpec(args.recipe, extras=extras)
    return None, specialize.PartitionedSpec(args.recipe, extras=extras, scheme=_parse_scheme(partition))


def cmd_train_eval(args: argparse.Namespace, argv: list[str]) -> int:
    cfg_file = _load_config_file(args.config, "train-eval")
    seed_set = _effective(args, cfg_file, "seed", None)
    k_set = _effective(args, cfg_file, "folds", None)
    # stacking and base selection keep seed 0 unless one is given, whatever the stored split's seed
    seed = seed_set if seed_set is not None else 0
    jobs = _effective(args, cfg_file, "jobs", 1, env=JOBS_ENV, minimum=1)
    l2 = _effective(args, cfg_file, "l2", regression.TrainConfig.l2)
    if args.recipe not in RECIPE_NAMES:
        raise ConfigError(f"--recipe must be one of {', '.join(RECIPE_NAMES)}")
    bases, spec = _build_spec(args, cfg_file)

    data_dir = Path(args.data)
    dataset, folds = ingest.load_prepared(data_dir)
    if k_set is not None or seed_set is not None:
        # re-split; whichever of folds and seed is unset comes from the stored split
        k = k_set if k_set is not None else folds.k
        fold_seed = seed_set if seed_set is not None else folds.seed
        folds = ingest.split_folds(dataset, k=k, seed=fold_seed)

    config = regression.TrainConfig(l2=l2)
    extra: dict = {}
    if bases is not None:
        if args.select_bases:
            selection = combine.select_bases(list(bases), dataset, folds, config, seed=seed)
            chosen = selection.chosen_specs(list(bases))
            extra["selection"] = {
                "chosen": [s.label for s in chosen],
                "fold1_auc": selection.best_auc,
                "table": selection.table,
            }
            print("selected bases:", " + ".join(s.label for s in chosen))
        else:
            chosen = bases
        if len(chosen) == 1:
            spec = chosen[0]
        else:
            spec = combine.CombinedSpec(bases=tuple(chosen), seed=seed)

    run = RunManifest(
        argv, "train-eval",
        {
            "recipe": args.recipe, "spec": spec.label, "folds": folds.k,
            "seed": folds.seed, "jobs": jobs, "l2": l2,
        },
        seed,
    )
    for name in ("events.csv", "manifest.json", "folds.json"):
        if (data_dir / name).exists():
            run.add_input(data_dir / name)

    out = Path(args.out) if args.out else None
    on_fitted = None
    if out is not None:
        models_dir = out / "models"

        def on_fitted(fold: int, fitted) -> None:
            save_fitted(fitted, models_dir / f"fold-{fold}", spec)

    report = evaluate.cross_validate(
        dataset, spec, folds=folds, config=config, jobs=jobs,
        include_roc=args.roc_csv is not None, on_fitted=on_fitted,
    )
    report.extra.update(extra)

    text = report.to_canonical_json()
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(text, encoding="utf-8")
        run.add_output(Path(args.report))
    if args.roc_csv:
        roc_path = Path(args.roc_csv)
        roc_path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["fpr,tpr"] + [f"{x!r},{y!r}" for x, y in report.roc]
        roc_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run.add_output(roc_path)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text, encoding="utf-8")
        run.add_output(out / "report.json")
        for fold in range(folds.k):
            run.add_output(out / "models" / f"fold-{fold}")
        run.extraction = dataset.feature_rows.counts()
        run.add_output(run.write(out))
    print(
        f"{spec.label}: acc {report.acc_mean:.4f} (var {report.acc_var:.2e}), "
        f"auc {report.auc_mean:.4f} (var {report.auc_var:.2e})"
    )
    return 0


def cmd_stats(args: argparse.Namespace, argv: list[str]) -> int:
    if args.data:
        dataset, _ = ingest.load_prepared(Path(args.data))
    else:
        if not (args.input and args.manifest):
            raise ConfigError("stats needs either --data or both --input and --manifest")
        manifest, graph = ingest.read_manifest(Path(args.manifest))
        dataset = replace(ingest.load_events(Path(args.input), manifest), kc_graph=graph)
    stats = evaluate.dataset_stats(dataset)
    text = canonical_json(stats)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="ktrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset with ground truth")
    gen.add_argument("--out", required=True)
    gen.add_argument("--config", help="JSON file with default option values")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--students", type=int)
    gen.add_argument("--questions", type=int)
    gen.add_argument("--kcs", type=int)
    gen.add_argument("--responses", type=int)
    gen.add_argument("--momentum", type=float)
    gen.add_argument("--regime-step", type=int)
    gen.add_argument("--prereq-transfer", type=float)
    gen.add_argument("--modules", help="comma-separated study module labels")
    gen.add_argument("--module-scale", type=float)
    gen.add_argument("--mean-gap-s", type=float)
    gen.add_argument("--mean-elapsed-s", type=float)
    gen.add_argument("--name")

    prep = sub.add_parser("prepare", help="validate, filter and split an event log")
    prep.add_argument("--input", required=True, help="canonical events CSV")
    prep.add_argument("--manifest", required=True, help="dataset manifest JSON")
    prep.add_argument("--out", required=True)
    prep.add_argument("--config")
    prep.add_argument("--min-responses", type=int)
    prep.add_argument("--folds", type=int)
    prep.add_argument("--seed", type=int)
    prep.add_argument("--squash-kcs", action="store_const", const=True)

    te = sub.add_parser("train-eval", help="cross-validated training and evaluation")
    te.add_argument("--data", required=True, help="prepared dataset directory")
    te.add_argument("--recipe", default="best-lr", help=f"one of {', '.join(RECIPE_NAMES)}")
    te.add_argument("--extras", help="comma-separated extra feature families")
    te.add_argument("--config")
    te.add_argument("--folds", type=int)
    te.add_argument("--seed", type=int)
    te.add_argument("--jobs", type=int)
    te.add_argument("--l2", type=float)
    te.add_argument("--partition", help="none | ri | response-index | f:FIELD | by-feature:FIELD")
    te.add_argument("--combine", help="base specs joined by +, e.g. irt+best-lr@ri")
    te.add_argument("--select-bases", action="store_true",
                    help="pick the best --combine subset on fold 1")
    te.add_argument("--report", help="write the metrics report JSON here")
    te.add_argument("--roc-csv", help="write pooled ROC points as CSV")
    te.add_argument("--out", help="directory for models, report and run manifest")

    st = sub.add_parser("stats", help="dataset statistics")
    st.add_argument("--data", help="prepared dataset directory")
    st.add_argument("--input", help="canonical events CSV")
    st.add_argument("--manifest", help="dataset manifest JSON")
    st.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "prepare": cmd_prepare,
        "train-eval": cmd_train_eval,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.subcommand](args, argv)
    except (ValueError, OSError, regression.TrainingDivergenceError, combine.CombinationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
