"""When early responses follow different dynamics than later ones, a
single model blends the two regimes and mispredicts the first answers.
Training one model per response-index interval fixes the early buckets."""

from ktrace.evaluate import PlainSpec, cross_validate
from ktrace.ingest import split_folds
from ktrace.regression import TrainConfig
from ktrace.specialize import PartitionedSpec
from ktrace.synth import GeneratorConfig, generate

# question difficulties are redrawn from response index 50 onward
dataset, _ = generate(GeneratorConfig(
    seed=7, regime_step=50, n_students=150, n_questions=25,
    responses_per_student=100,
))
folds = split_folds(dataset, k=5, seed=7)
config = TrainConfig()

plain = cross_validate(dataset, PlainSpec("irt"), folds=folds, config=config, jobs=5)
part = cross_validate(dataset, PartitionedSpec("irt"), folds=folds, config=config, jobs=5)

print(f"overall auc: single model {plain.auc_mean:.4f}, "
      f"partitioned {part.auc_mean:.4f}")
print(f"\n{'bucket':>9s} {'n':>6s} {'single':>8s} {'partitioned':>12s}")
for single_row, part_row in zip(plain.buckets, part.buckets):
    if not single_row["n"] or single_row["auc"] is None:
        continue
    print(f"{single_row['bucket']:>9s} {single_row['n']:6d} "
          f"{single_row['auc']:8.4f} {part_row['auc']:12.4f}")
