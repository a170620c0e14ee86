"""The benchmark's workloads: what each generates, runs and checks.

Every workload drives ktrace through `ktrace.cli.main`, the same entry
point as the `ktrace` command, on data that `ktrace generate` draws.  A
run's seed fixes a set of datasets (one generator and fold seed each), so
one seed always gives the same inputs and the same report bytes.  How
much work a dataset costs depends on the draw (fits stop at different
epochs, base selection keeps different subsets), so each workload spans
several datasets and a pass over all of them is the unit that is timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FOLDS = "5"
QUESTIONS = "30"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: int
    students: int
    responses: int
    train_eval: tuple[str, ...]
    # prepare from the raw CSV inside every measured run
    prepare_each_run: bool = False
    # compare every report with a --jobs 1 run of the same dataset made during set-up
    jobs_invariance: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-bestlr-plus",
            why="Quick-start path: prepare from raw CSV, then single-threaded best-lr+ train-eval "
                "writing models; ingest, features and cli do most of their work here",
            datasets=4,
            students=40,
            responses=50,
            train_eval=("--recipe", "best-lr+", "--jobs", "1"),
            prepare_each_run=True,
        ),
        Workload(
            name="cv-ri-long",
            why="few long histories, best-lr@ri with --jobs 2: regression.fit on row subsets in "
                "two fold threads; solver and parallelism changes show here",
            datasets=2,
            students=10,
            responses=300,
            train_eval=("--recipe", "best-lr", "--partition", "response-index", "--jobs", "2"),
            jobs_invariance=True,
        ),
        Workload(
            name="select-stack",
            why="small data, irt+pfa+das3h+best-lr with --select-bases: the same bases are refit "
                "and re-extracted for every subset; memoised stacking shows here only",
            datasets=8,
            students=30,
            responses=20,
            # Converged fits keep a dataset cheap, so a pass averages over eight
            # selection outcomes, and leave the repeated refits and extraction
            # that memoised stacking removes as the bulk of the work.
            train_eval=("--combine", "irt+pfa+das3h+best-lr", "--select-bases", "--l2", "10",
                        "--jobs", "1"),
        ),
    )
}


def generate_args(w: Workload, seed: int, raw: Path) -> list[str]:
    return [
        "generate", "--out", str(raw), "--seed", str(seed), "--students", str(w.students),
        "--questions", QUESTIONS, "--responses", str(w.responses),
    ]


def prepare_args(seed: int, raw: Path, prep: Path) -> list[str]:
    return [
        "prepare", "--input", str(raw / "events.csv"), "--manifest", str(raw / "manifest.json"),
        "--out", str(prep), "--folds", FOLDS, "--seed", str(seed),
    ]


def run_commands(w: Workload, seed: int, raw: Path, prep: Path, run_dir: Path,
                 jobs: str | None = None) -> list[list[str]]:
    """The ktrace commands of one run on one dataset; report at run_dir/report.json."""
    commands = []
    if w.prepare_each_run:
        prep = run_dir / "prep"
        commands.append(prepare_args(seed, raw, prep))
    train_eval = list(w.train_eval)
    if jobs is not None:
        train_eval[train_eval.index("--jobs") + 1] = jobs
    commands.append(
        ["train-eval", "--data", str(prep), *train_eval,
         "--out", str(run_dir / "out"), "--report", str(run_dir / "report.json")]
    )
    return commands


def bayes_auc(raw: Path, prep: Path) -> float:
    """AUC of the generating probabilities on the prepared folds."""
    from ktrace import ingest, synth

    dataset, folds = ingest.load_prepared(prep)
    truth = synth.load_ground_truth(raw / "ground_truth.json")
    return synth.bayes_auc(dataset, truth, folds)
