"""The names the benchmark's tracer wraps must exist in the library.

`perfbench/spans.py` replaces each (owner, attribute) of its `targets()`
with a timing wrapper.  A rename in ktrace would otherwise surface only
in the benchmark's own smoke test; this reads the target list (without
changing anything under perfbench) and checks every entry resolves.
"""

import hashlib
import importlib.util
import inspect
import math
from collections import defaultdict
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from conftest import response, toy_dataset

from ktrace import cli, features, regression, specialize
from ktrace.evaluate import PlainSpec
from ktrace.recipes import resolve
from ktrace.specialize import PartitionedSpec, ResponseIndex

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for owner, attr, name, _ in _spans_module().targets():
        # the owner's own definition: wrapping an inherited one would trace the parent's calls
        assert attr in vars(owner), name
        assert callable(getattr(owner, attr)), name


def test_save_fitted_takes_the_output_directory_second():
    # the tracer sizes what save_fitted wrote from its second positional argument
    assert list(inspect.signature(cli.save_fitted).parameters)[1] == "out_dir"


def _toy():
    students = {f"s{i}": [response(f"s{i}", 60 * j, f"q{j % 3}", ["k1"], (i + j) % 2 == 0)
                          for j in range(8)] for i in range(4)}
    return toy_dataset(students)


def test_partition_functions_have_what_the_tracer_reads():
    # spans._partition_counts reads len(result.models) from every fit_partitioned result
    ds = _toy()
    result = specialize.fit_partitioned(tuple(ds.students), specialize.ResponseIndex(),
                                        resolve("irt", ds.manifest).recipe, ds)
    assert isinstance(result.models, Mapping) and len(result.models) == 1
    assert list(inspect.signature(specialize.predict_routed_batch).parameters)[1] == "ext"
    assert list(inspect.signature(specialize.save_partitioned).parameters)[1] == "out_dir"


def test_fit_info_has_what_the_tracer_counts():
    # spans._fit_counts reads these keys from every regression.fit result
    X = sp.csr_matrix(np.ones((4, 1)))
    info = regression.fit(X, np.array([1.0, 1.0, 0.0, 1.0])).info
    for key, kind in (("n_examples", int), ("epochs", int), ("converged", bool)):
        assert type(info[key]) is kind, (key, info[key])
    assert info["n_examples"] == 4 and info["epochs"] > 0 and info["converged"]


def _traced(calls) -> dict[str, list[dict]]:
    """The attributes of each span the benchmark's tracer records during calls(), by span name."""
    spans = _spans_module()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        calls()
    got = defaultdict(list)
    for span in tracer.spans:
        got[span["name"]].append(span["attrs"])
    return got


def test_extraction_and_fits_called_with_ids_give_the_tracer_its_counts():
    """build_matrix(dataset, ids, encoder) has `.X` to count; fit_on keys a base
    fit by the sorted ids of its second positional argument; fit_partitioned
    takes the ids too.  A signature slip records an error span instead."""
    ds = _toy()
    ids = tuple(sorted(ds.students))
    digest = hashlib.sha256("\n".join(ids).encode()).hexdigest()[:16]
    recipe = resolve("irt", ds.manifest).recipe
    scheme = ResponseIndex((0, 4, math.inf))

    def calls():
        features.build_matrix(ds, ids, features.fit_encoders(ds, ids, recipe))
        PlainSpec("irt").fit_on(ids, ds, regression.TrainConfig())
        PartitionedSpec("irt", scheme=scheme).fit_on(ids, ds, regression.TrainConfig())
        specialize.fit_partitioned(ids, scheme, recipe, ds)

    got = _traced(calls)
    nnz = features.build_matrix(ds, ids, features.fit_encoders(ds, ids, recipe)).X.nnz
    assert got["features.build_matrix"] == [{"rows": 32, "nnz": nnz}] * 4
    assert got["evaluate.PlainSpec.fit_on"] == [{"key": f"irt|{digest}"}]
    assert got["specialize.PartitionedSpec.fit_on"] == [{"key": f"irt@response-index|{digest}"}]
    assert got["specialize.fit_partitioned"] == [{"models": 2}] * 2
