"""Cross-validate the named model recipes on one synthetic dataset and
print an accuracy/AUC comparison table."""

from ktrace.evaluate import PlainSpec, cross_validate
from ktrace.ingest import split_folds
from ktrace.regression import TrainConfig
from ktrace.synth import GeneratorConfig, generate

# momentum gives recency-aware recipes something real to find
dataset, _ = generate(GeneratorConfig(
    seed=3, n_students=150, n_questions=25, n_kcs=5,
    responses_per_student=40, momentum=1.0, momentum_cap=2,
))
folds = split_folds(dataset, k=5, seed=3)
config = TrainConfig()

print(f"{'model':12s} {'acc':>7s} {'auc':>7s} {'auc var':>9s}")
for name in ("irt", "pfa", "das3h", "best-lr", "best-lr+"):
    report = cross_validate(dataset, PlainSpec(name), folds=folds, config=config, jobs=5)
    print(f"{name:12s} {report.acc_mean:7.4f} {report.auc_mean:7.4f} {report.auc_var:9.2e}")

# per-position buckets from the richest model show the cold-start curve
report = cross_validate(dataset, PlainSpec("best-lr+"), folds=folds, config=config, jobs=5)
print("\nbest-lr+ by response position:")
for row in report.buckets:
    if row["n"]:
        print(f"  {row['bucket']:>8s}  n={row['n']:5d}  auc={row['auc']:.4f}")
