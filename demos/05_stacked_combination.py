"""Stack two deliberately half-blind base models with a meta learner
and let exhaustive subset selection confirm both bases earn their keep."""

from ktrace.combine import CombinedSpec, select_bases
from ktrace.evaluate import PlainSpec, cross_validate
from ktrace.features import FeatureFamily
from ktrace.ingest import split_folds
from ktrace.regression import TrainConfig
from ktrace.synth import GeneratorConfig, generate

# ability/difficulty signal plus a strong recency signal
dataset, _ = generate(GeneratorConfig(
    seed=5, momentum=1.5, n_students=150, n_questions=20,
    responses_per_student=40,
))
folds = split_folds(dataset, k=5, seed=5)
config = TrainConfig()

sees_difficulty = PlainSpec("irt")
sees_recency = PlainSpec("pfa", extras=(FeatureFamily("response_pattern"),))
noise = PlainSpec("pfa", extras=(FeatureFamily("datetime", "hour"),))

for spec in (sees_difficulty, sees_recency):
    report = cross_validate(dataset, spec, folds=folds, config=config, jobs=5)
    print(f"base {spec.label:24s} auc {report.auc_mean:.4f}")

combined = CombinedSpec(bases=(sees_difficulty, sees_recency), seed=5)
report = cross_validate(dataset, combined, folds=folds, config=config, jobs=5)
print(f"{report.spec:29s} auc {report.auc_mean:.4f}")

# subset selection on fold 0 only, so later folds stay untouched
result = select_bases([sees_difficulty, sees_recency, noise], dataset, folds, config, seed=5)
print(f"\nselection table (fold 0):")
for row in result.table:
    names = "+".join(str(i) for i in row["subset"])
    print(f"  bases {names:8s} auc {row['auc']:.4f}")
print("chosen:", " + ".join(s.label for s in result.chosen_specs(
    [sees_difficulty, sees_recency, noise])))
