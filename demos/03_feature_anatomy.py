"""Extract one student's feature rows and show which sparse features
fire for a single prediction, block by block."""

from ktrace.features import FeatureFamily, Recipe, build_matrix, fit_encoders
from ktrace.synth import GeneratorConfig, generate

dataset, _ = generate(GeneratorConfig(
    seed=9, n_students=30, n_questions=12, n_kcs=4, responses_per_student=20,
))

recipe = Recipe(families=(
    FeatureFamily("bias"),
    FeatureFamily("question"),
    FeatureFamily("kc"),
    FeatureFamily("counts", "total"),
    FeatureFamily("counts", "kc"),
    FeatureFamily("tw_counts", "total"),
    FeatureFamily("smoothed_avg_correct"),
    FeatureFamily("response_pattern"),
))

# fit on every student of the dataset: extraction reads the dataset's rows by student id
encoder = fit_encoders(dataset, sorted(dataset.students), recipe)
print(f"encoder dimension {encoder.dim}, train correct-rate {encoder.rbar:.3f}")
for fam, offset, size in encoder.blocks:
    print(f"  block {fam.name:22s} offset {offset:4d} size {size}")

# extract one student's rows and dissect the 15th response (row 14): with ten
# answers before it, its response pattern block fires
sid = sorted(dataset.students)[0]
ext = build_matrix(dataset, [sid], encoder)
event, row = ext.events[14], ext.X[14]
print(f"\n{sid} response #15, question {event.question_id}, "
      f"correct={event.correct}")
for fam, offset, size in encoder.blocks:
    active = [(i - offset, v) for i, v in zip(row.indices, row.data) if offset <= i < offset + size]
    if active:
        shown = ", ".join(f"[{i}]={v:.4f}" for i, v in active)
        print(f"  {fam.name:22s} {shown}")
