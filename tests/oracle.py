"""Brute-force reference computations for feature emission and training.

Everything here recomputes expected feature values from a raw event
prefix with plain loops (no ReferenceState, no ResponseLog, no
build_matrix), so it can serve as an independent check of the
array extraction path: `compare_vector` checks one CSR row of a
build_matrix result.  Layout (offsets, vocab indexing) comes from the
encoder under test; the values are derived from scratch.

`reference_build_matrix` is the per-row extraction loop (one row per
response, sorted, zeros dropped and duplicate columns refused, columns
written straight from the encoder's vocabularies) that the keyed-row
store replaced; the production build_matrix must reproduce its matrices
bit for bit.  It walks each student one event at a time with its own
state (`ReferenceState`, `reference_update`) and per-response logs
(`ResponseLog`, `ReferenceLogs`), and imports from `ktrace.features`
only the constants WINDOWS_S, N_RECENT and ETA.

`reference_fit` is a straightforward gradient-descent trainer (step
halving, recomputing X @ w for the gradient of every accepted step); the
production trainer minimizes the same objective, so it must end no higher.
`nll` and `nll_and_gradient` are the trainer's own objective value and
gradient (`regression._objective`, `_gradient`, `_transpose`), for
finite differences of its gradient and Hessian products.

`reference_load_events` is the row-at-a-time CSV parser that the chunked
column parser replaced (`_parse_row`, with `reference_validate` for the
checks `InteractionEvent.validate` made); the production `load_events`
must return equal students, or raise the same error class and message.

`offset_of` and `trapezoid_area` read an encoder's block layout and
integrate ROC points for tests; the library itself needs neither.
`reference_roc_curve` is the per-threshold loop that the vectorized
`evaluate.roc_curve` replaced; both must return equal points.

`assign_partition` is the per-row partition label that the schemes'
vectorized `keys` replaced; grouping rows by it must give the groups
`specialize._rows_by_partition` builds from `keys`.
"""

import csv
import math
import time
from bisect import bisect_right
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ktrace.core import (
    MATERIAL_KINDS,
    OPTIONAL_FIELDS,
    ConfigError,
    EventKind,
    InteractionEvent,
    ParseError,
    SchemaError,
    SequencingError,
    scale,
)
from ktrace.evaluate import interval_label
from ktrace.features import ETA, N_RECENT, WINDOWS_S
from ktrace.ingest import CANONICAL_COLUMNS, Dataset
from ktrace.regression import (
    TrainConfig, TrainingDivergenceError, _as_csr, _gradient, _objective, _transpose, reg_mask_for,
)
from ktrace.specialize import MISSING_KEY, ResponseIndex

ELAPSED_CAP = 300
LAG_CATS = list(range(6)) + list(range(10, 1441, 10))


def ln1p(x):
    return math.log(1.0 + x)


def _responses(prefix):
    return [e for e in prefix if e.kind.value == "QuestionResponse"]


def _brute_lag(previous, response):
    """Seconds from the end of `previous` (receipt plus elapsed time) to the
    receipt of `response`, clamped at zero."""
    end = previous.timestamp + (previous.elapsed_time_s or 0.0)
    return max(response.timestamp - end, 0.0)


def brute_lags(events):
    """`_brute_lag` of each response of one student's events from the one
    before it (None for the first)."""
    responses = _responses(events)
    return [None if i == 0 else _brute_lag(responses[i - 1], e) for i, e in enumerate(responses)]


def _orig_kcs(kcs, squash_map):
    if not squash_map:
        return list(kcs)
    out = []
    for k in kcs:
        out.extend(squash_map.get(k, (k,)))
    return list(dict.fromkeys(out))


def _event_nodes(ev, graph, squash_map):
    """Graph nodes a response counts toward (via node membership)."""
    if graph.node_kind == "question":
        keys = [ev.question_id]
    else:
        keys = _orig_kcs(ev.kc_ids, squash_map)
    nodes = set()
    for node, members in graph.members_of.items():
        if any(k in members for k in keys):
            nodes.add(node)
    return nodes


def _current_nodes(event, graph, squash_map):
    """Graph nodes directly representing the current question."""
    if graph.node_kind == "question":
        return {event.question_id} if event.question_id in graph.members_of else set()
    return {k for k in _orig_kcs(event.kc_ids, squash_map) if k in graph.members_of}


def _pair(d, base, corrects, attempts):
    if corrects:
        d[base] = ln1p(corrects)
    if attempts:
        d[base + 1] = ln1p(attempts)


def _tally_pair(d, tally_total, tally_related):
    out = {}
    if tally_total:
        out[0] = ln1p(tally_total)
    if tally_related:
        out[1] = ln1p(tally_related)
    d.update(out)


def expected_family(fam, encoder, prefix, resp, event, graph=None, squash_map=None):
    """Expected {local_index: value} for one family block; `resp` is
    `_responses(prefix)`, filtered once per row by the caller."""
    vocabs = encoder.vocabs
    now = event.timestamp
    kcs = event.kc_ids
    out = {}
    kind, variant = fam.kind, fam.variant

    if kind == "bias":
        out[0] = 1.0
    elif kind == "student":
        idx = vocabs["student"].get(event.student_id)
        if idx is not None:
            out[idx] = 1.0
    elif kind == "question":
        idx = vocabs["question"].get(event.question_id)
        if idx is not None:
            out[idx] = 1.0
    elif kind == "kc":
        for k in kcs:
            idx = vocabs["kc"].get(k)
            if idx is not None:
                out[idx] = 1.0
    elif kind == "counts":
        if variant == "total":
            c = sum(1 for e in resp if e.correct)
            _pair(out, 0, c, len(resp))
        elif variant == "question":
            mine = [e for e in resp if e.question_id == event.question_id]
            c = sum(1 for e in mine if e.correct)
            _pair(out, 0, c, len(mine))
        else:
            for k in kcs:
                idx = vocabs["kc"].get(k)
                if idx is None:
                    continue
                mine = [e for e in resp if k in e.kc_ids]
                c = sum(1 for e in mine if e.correct)
                _pair(out, 2 * idx, c, len(mine))
    elif kind == "tw_counts":
        nw = len(WINDOWS_S) + 1

        def windowed(events_in_scope, base):
            for j, wsec in enumerate((*WINDOWS_S, math.inf)):
                inside = [e for e in events_in_scope if (now - e.timestamp) < wsec]
                c = sum(1 for e in inside if e.correct)
                _pair(out, base + 2 * j, c, len(inside))

        if variant == "total":
            windowed(resp, 0)
        elif variant == "question":
            windowed([e for e in resp if e.question_id == event.question_id], 0)
        else:
            for k in kcs:
                idx = vocabs["kc"].get(k)
                if idx is not None:
                    windowed([e for e in resp if k in e.kc_ids], idx * 2 * nw)
    elif kind == "elapsed_time":
        if variant == "current":
            secs = event.elapsed_time_s
        else:
            secs = resp[-1].elapsed_time_s if resp else None
        if secs is not None:
            out[min(int(secs), ELAPSED_CAP)] = 1.0
            if secs > 0:
                out[ELAPSED_CAP + 1] = ln1p(secs)
    elif kind == "lag_time":
        # the described response (this one or the latest) and the responses before it
        if variant == "current":
            described, before = event, resp
        else:
            described, before = (resp[-1] if resp else None), resp[:-1]
        flag = described is not None and not before
        lag_s = _brute_lag(before[-1], described) if before else None
        if flag:
            out[len(LAG_CATS) + 1] = 1.0
        elif lag_s is not None:
            minutes = lag_s / 60.0
            whole = int(math.floor(minutes + 0.5))
            cat = 0
            for pos, c in enumerate(LAG_CATS):
                if c <= whole:
                    cat = pos
            out[cat] = 1.0
            if minutes > 0:
                out[len(LAG_CATS)] = ln1p(minutes)
    elif kind == "datetime":
        tm = time.gmtime(now)
        if variant == "month":
            out[tm.tm_mon - 1] = 1.0
        elif variant == "week":
            week = date(tm.tm_year, tm.tm_mon, tm.tm_mday).isocalendar()[1]
            out[week - 1] = 1.0
        elif variant == "day":
            out[tm.tm_wday] = 1.0
        else:
            out[tm.tm_hour] = 1.0
    elif kind == "study_module":
        if event.study_module is not None:
            idx = vocabs["study_module"].get(event.study_module)
            if idx is not None:
                out[idx] = 1.0
    elif kind == "study_module_counts":
        m = event.study_module
        if m is not None:
            idx = vocabs["study_module"].get(m)
            if idx is not None:
                mine = [e for e in resp if e.study_module == m]
                if mine:
                    c = sum(1 for e in mine if e.correct)
                    _pair(out, 2 * idx, c, len(mine))
    elif kind == "context":
        value = getattr(event, variant)
        if value is not None:
            idx = vocabs[variant].get(value)
            if idx is not None:
                out[idx] = 1.0
    elif kind == "part_area_counts":
        p = event.part_area
        if p is not None:
            mine = [e for e in resp if e.part_area == p]
            if mine:
                c = sum(1 for e in mine if e.correct)
                _pair(out, 0, c, len(mine))
    elif kind in ("prereq_ids", "prereq_counts", "postreq_ids", "postreq_counts"):
        cur = _current_nodes(event, graph, squash_map)
        if kind.startswith("prereq"):
            related = {p for (p, c) in graph.edges if c in cur}
        else:
            related = {c for (p, c) in graph.edges if p in cur}
        nvoc = vocabs["graph_node"]
        if kind.endswith("_ids"):
            for node in related:
                if node in nvoc:
                    out[nvoc[node]] = 1.0
        else:
            for node in related:
                if node not in nvoc:
                    continue
                mine = [e for e in resp if node in _event_nodes(e, graph, squash_map)]
                if mine:
                    c = sum(1 for e in mine if e.correct)
                    _pair(out, 2 * nvoc[node], c, len(mine))
    elif kind in (
        "video_watched_counts",
        "video_skipped_counts",
        "video_watched_time",
        "reading_counts",
        "reading_time",
        "hint_counts",
        "hint_time",
    ):
        total = 0.0
        related = 0.0

        def weight_for(e):
            if kind == "video_watched_counts":
                return 1.0 if e.kind.value == "VideoWatch" else 0.0
            if kind == "video_skipped_counts":
                return 1.0 if e.kind.value == "VideoSkip" else 0.0
            if kind == "video_watched_time":
                if e.kind.value == "VideoWatch" and e.consumption_minutes:
                    return e.consumption_minutes
                return 0.0
            if kind == "reading_counts":
                return 1.0 if e.kind.value == "Reading" else 0.0
            if kind == "reading_time":
                if e.kind.value == "Reading" and e.consumption_minutes:
                    return e.consumption_minutes
                return 0.0
            if kind == "hint_counts":
                if e.kind.value == "HintUse":
                    return float(e.hint_count if e.hint_count else 1)
                if e.hint_count:
                    return float(e.hint_count)
                return 0.0
            # hint_time
            if e.kind.value == "HintUse" and e.consumption_minutes:
                return e.consumption_minutes
            return 0.0

        for e in prefix:
            wgt = weight_for(e)
            if not wgt:
                continue
            total += wgt
            related += wgt * sum(1 for k in e.kc_ids if k in kcs)
        _tally_pair(out, total, related)
    elif kind == "smoothed_avg_correct":
        c = sum(1 for e in resp if e.correct)
        value = (c + ETA * encoder.rbar) / (len(resp) + ETA)
        if value:
            out[0] = value
    elif kind == "response_pattern":
        if len(resp) >= N_RECENT:
            lastn = resp[-N_RECENT:]
            idx = 0
            for i, e in enumerate(reversed(lastn)):  # i=0 is most recent
                if e.correct:
                    idx += 2 ** i
            out[idx] = 1.0
    else:
        raise AssertionError(f"oracle does not know family {fam.name}")
    return out


def compare_vector(encoder, row, prefix, event, graph=None, squash_map=None, tol=1e-12):
    """Compare one CSR row (its `indices` and `data`, e.g. `X[r]` of a
    build_matrix result) with the brute-force features of `event` after
    `prefix`; returns a list of mismatch strings."""
    indices, data = np.asarray(row.indices), np.asarray(row.data)
    if np.any(np.diff(indices) <= 0):
        return [f"row indices not strictly increasing: {indices.tolist()}"]
    problems = []
    resp = _responses(prefix)
    for fam, off, size in encoder.blocks:
        lo, hi = np.searchsorted(indices, [off, off + size])
        got = {int(i) - off: float(v) for i, v in zip(indices[lo:hi], data[lo:hi])}
        want = expected_family(fam, encoder, prefix, resp, event, graph, squash_map)
        if set(got) != set(want):
            problems.append(
                f"{fam.name}: active indices {sorted(got)} != expected {sorted(want)}"
            )
            continue
        for i, v in want.items():
            if abs(got[i] - v) > tol:
                problems.append(f"{fam.name}[{i}]: {got[i]!r} != {v!r}")
    return problems


def offset_of(encoder, name):
    """(offset, width) of the encoder's block for the family named `name`."""
    for fam, off, size in encoder.blocks:
        if fam.name == name:
            return off, size
    raise KeyError(name)


def trapezoid_area(points):
    """Trapezoidal area under (x, y) points, in order."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def reference_roc_curve(p, y):
    """(fpr, tpr) points of float arrays p and binary y, one threshold per
    distinct score, walked in a loop."""
    n_pos = int(np.sum(y))
    n_neg = int(y.size - n_pos)
    order = np.argsort(-p, kind="stable")
    p_sorted = p[order]
    y_sorted = y[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = p.size
    while i < n:
        j = i
        while j < n and p_sorted[j] == p_sorted[i]:
            j += 1
        block = y_sorted[i:j]
        tp += int(np.sum(block))
        fp += int(block.size - np.sum(block))
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def pairwise_auc(probs, labels):
    """O(P*N) pairwise AUC: ties between classes get half credit."""
    import numpy as np

    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels, dtype=float)
    pos = p[y == 1.0]
    neg = p[y == 0.0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def modal_successor_oracle(sequences):
    """Predictability of each item's successor via corpus-wide modes."""
    from collections import Counter

    counts = {}
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            counts.setdefault(a, Counter())[b] += 1
    hits = total = 0
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            best = max(counts[a].values())
            pick = min(k for k, c in counts[a].items() if c == best)
            hits += 1 if pick == b else 0
            total += 1
    return hits / total if total else None


def nll(weights, X, y, l2=0.0, reg_mask=None):
    """The trainer's objective value (`regression._objective`) at `weights`."""
    # overflow to inf/nan is detected by callers, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        return _objective(weights, _as_csr(X), y, l2, reg_mask)[0]


def nll_and_gradient(weights, X, y, l2=0.0, reg_mask=None):
    """The trainer's objective value and its exact gradient at `weights`;
    `reg_mask` selects the weights the L2 term applies to (None: all)."""
    X = _as_csr(X)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        value, z, w_reg = _objective(weights, X, y, l2, reg_mask)
        return value, _gradient(_transpose(X), y, expit(z), w_reg, l2)


def _reference_nll(weights, X, y, l2=0.0, reg_mask=None):
    X = _as_csr(X)
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ weights
        data = float(np.sum(np.logaddexp(0.0, z) - y * z))
        if l2:
            w_reg = weights if reg_mask is None else weights * reg_mask
            data += 0.5 * l2 * float(np.sum(w_reg * w_reg))
    return data


def _reference_nll_and_gradient(weights, X, y, l2=0.0, reg_mask=None):
    X = _as_csr(X)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ weights
        value = float(np.sum(np.logaddexp(0.0, z) - y * z))
        grad = X.T @ (expit(z) - y)
        if l2:
            w_reg = weights if reg_mask is None else weights * reg_mask
            value += 0.5 * l2 * float(np.sum(w_reg * w_reg))
            grad = grad + l2 * w_reg
    return value, np.asarray(grad, dtype=np.float64)


GD_TOL = 1e-7
GD_INITIAL_STEP = 1.0
GD_MAX_HALVINGS = 60


def reference_fit(X, y, config=TrainConfig(), reg_mask=None, encoder=None, init=None):
    """Full-batch gradient descent with step-halving: (weights, info).

    Uses `config.l2` and at most `config.max_epochs` accepted steps; stops
    when the relative improvement drops below GD_TOL or no halving helps.
    """
    X = _as_csr(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != len(y):
        raise ConfigError(f"X has {X.shape[0]} rows but y has {len(y)} labels")
    if X.shape[0] == 0:
        raise ConfigError("cannot fit on an empty training set")
    if reg_mask is None and encoder is not None:
        reg_mask = reg_mask_for(encoder)

    dim = X.shape[1]
    w = np.zeros(dim, dtype=np.float64) if init is None else np.array(init, dtype=np.float64)
    if len(w) != dim:
        raise ConfigError(f"init has length {len(w)}, expected {dim}")

    value, grad = _reference_nll_and_gradient(w, X, y, config.l2, reg_mask)
    if not math.isfinite(value):
        raise TrainingDivergenceError(
            f"non-finite loss at initialization (loss={value!r}, max|w|={np.max(np.abs(w))!r})"
        )
    trace = [value]
    step = GD_INITIAL_STEP
    epochs = 0
    converged = False
    for _ in range(config.max_epochs):
        accepted = False
        s = step
        for _ in range(GD_MAX_HALVINGS):
            w_try = w - s * grad
            v_try = _reference_nll(w_try, X, y, config.l2, reg_mask)
            if math.isfinite(v_try) and v_try < value:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            converged = True
            break
        epochs += 1
        rel = (value - v_try) / max(abs(value), 1.0)
        w = w_try
        value = v_try
        trace.append(value)
        if not math.isfinite(value):
            raise TrainingDivergenceError(
                f"non-finite loss at epoch {epochs} (step={s!r})"
            )
        _, grad = _reference_nll_and_gradient(w, X, y, config.l2, reg_mask)
        step = s * 2.0
        if rel < GD_TOL:
            converged = True
            break
    info = {
        "epochs": epochs,
        "converged": converged,
        "final_nll": value,
        "n_examples": int(X.shape[0]),
    }
    return w, info


# ---------------------------------------------------------------------------
# Reference extraction: the per-row emit -> sort -> stack loop that
# build_matrix replaced.  Every emitter writes encoder columns directly
# from the encoder's vocabularies; build_matrix must give the same bytes.
# The reference walks each student one event at a time: the elapsed and
# lag times, module, part and graph-node counts and material tallies read
# a ReferenceState, the prefix families (counts, time windows, the smoothed
# average, the response pattern, the lag flag's response count) the
# ReferenceLogs, both kept below, not build_matrix's prefix arrays.

# material event kind -> (tally its count goes to, tally its minutes go to)
_REF_MATERIAL = {
    "VideoWatch": ("videos_watched", "video_minutes"),
    "VideoSkip": ("videos_skipped", None),
    "Reading": ("readings", "reading_minutes"),
    "HintUse": ("hints", "hint_minutes"),
}


class ReferenceTally:
    """Total plus per-KC accumulator of one material tally."""

    def __init__(self):
        self.total = 0.0
        self.by_kc = {}

    def add(self, kc_ids, amount):
        self.total += amount
        for k in kc_ids:
            self.by_kc[k] = self.by_kc.get(k, 0.0) + amount

    def for_kcs(self, kc_ids):
        return sum(self.by_kc.get(k, 0.0) for k in kc_ids)


class ReferenceState:
    """One student's running aggregates over the events seen so far."""

    def __init__(self, kc_graph=None, squash_map=None):
        self.kc_graph = kc_graph
        self.squash_map = squash_map
        self.by_module = {}
        self.by_part = {}
        self.graph_nodes = {}
        self.tallies = {t: ReferenceTally() for pair in _REF_MATERIAL.values() for t in pair if t}
        self.previous = None  # the latest response
        self.prior_lag_s = None  # its lag time
        self.last_timestamp = None


def _ref_cell(table, key, correct):
    cell = table.setdefault(key, [0, 0])
    cell[0] += 1 if correct else 0
    cell[1] += 1


def reference_update(state, event):
    """Fold one event into the state; events must come in timestamp order."""
    if state.last_timestamp is not None and event.timestamp < state.last_timestamp:
        raise SequencingError(f"event at {event.timestamp} arrived after state reached {state.last_timestamp}")
    state.last_timestamp = event.timestamp
    if event.kind.value != "QuestionResponse":
        count_tally, minutes_tally = _REF_MATERIAL[event.kind.value]
        amount = float(event.hint_count or 1) if event.kind.value == "HintUse" else 1.0
        state.tallies[count_tally].add(event.kc_ids, amount)
        if event.consumption_minutes and minutes_tally:
            state.tallies[minutes_tally].add(event.kc_ids, event.consumption_minutes)
        return
    if event.study_module is not None:
        _ref_cell(state.by_module, event.study_module, event.correct)
    if event.part_area is not None:
        _ref_cell(state.by_part, event.part_area, event.correct)
    if state.kc_graph is not None:
        graph = state.kc_graph
        keys = [event.question_id] if graph.node_kind == "question" else _orig_kcs(event.kc_ids, state.squash_map)
        touched = set()
        for key in keys:
            touched.update(graph.nodes_counting.get(key, ()))
        for node in touched:  # once per response, even with several matching KCs
            _ref_cell(state.graph_nodes, node, event.correct)
    if event.hint_count:
        state.tallies["hints"].add(event.kc_ids, float(event.hint_count))
    state.prior_lag_s = None if state.previous is None else _brute_lag(state.previous, event)
    state.previous = event


def reference_walk(events, kc_graph=None, squash_map=None):
    """Yield (response, state before it, number of prior responses) for one student's events."""
    state = ReferenceState(kc_graph, squash_map)
    t = 0
    for event in events:
        if event.is_response():
            yield event, state, t
            t += 1
        reference_update(state, event)


def _ref_elapsed_bins(seconds):
    return min(int(math.floor(seconds)), ELAPSED_CAP), scale(seconds)


def _ref_lag_bins(minutes):
    whole = int(math.floor(minutes + 0.5))
    return bisect_right(LAG_CATS, whole) - 1, scale(minutes)

class ResponseLog:
    """Append-only correctness log for one scope (student / KC / question).

    Keeps timestamps with a running prefix sum of corrects, plus one
    advancing start pointer per finite time window, so that window
    counts at a query time cost amortized O(#windows) per response.
    Query times must be non-decreasing.
    """

    __slots__ = ("window_seconds", "ts", "cumc", "widx")

    def __init__(self, window_seconds=()):
        self.window_seconds = tuple(window_seconds)
        self.ts = []
        self.cumc = []
        self.widx = [0] * len(self.window_seconds)

    def add(self, timestamp, correct):
        prev = self.cumc[-1] if self.cumc else 0
        self.ts.append(timestamp)
        self.cumc.append(prev + (1 if correct else 0))

    @property
    def attempts(self):
        return len(self.ts)

    @property
    def corrects(self):
        return self.cumc[-1] if self.cumc else 0

    def window_counts(self, now):
        """(corrects, attempts) per finite window; a response is inside a
        window when now - ts < window length."""
        out = []
        ts = self.ts
        cumc = self.cumc
        n = len(ts)
        for j, wsec in enumerate(self.window_seconds):
            i = self.widx[j]
            cutoff = now - wsec
            while i < n and ts[i] <= cutoff:
                i += 1
            self.widx[j] = i
            attempts = n - i
            corrects = (cumc[-1] - (cumc[i - 1] if i else 0)) if attempts else 0
            out.append((corrects, attempts))
        return out


class ReferenceLogs:
    """One student's response logs: in total, per KC and per question, and the labels."""

    def __init__(self, window_seconds=()):
        self.window_seconds = tuple(window_seconds)
        self.total = ResponseLog(self.window_seconds)
        self.by_kc = {}
        self.by_question = {}
        self.recent_bits = []

    def add(self, event):
        """Absorb one question response (after its row was emitted)."""
        correct = bool(event.correct)
        self.total.add(event.timestamp, correct)
        for k in event.kc_ids:
            self.by_kc.setdefault(k, ResponseLog(self.window_seconds)).add(event.timestamp, correct)
        self.by_question.setdefault(event.question_id, ResponseLog(self.window_seconds)).add(
            event.timestamp, correct
        )
        self.recent_bits.append(1 if correct else 0)


def pattern_block(bits, n):
    """One-hot index of the last n responses (most recent = low bit).

    Returns None when fewer than n prior responses exist.
    """
    if len(bits) < n:
        return None
    idx = 0
    for i in range(1, n + 1):
        if bits[-i]:
            idx |= 1 << (i - 1)
    return idx


def _ref_push_pair(entries, off, corrects, attempts):
    if corrects:
        entries.append((off, scale(corrects)))
    if attempts:
        entries.append((off + 1, scale(attempts)))


def _ref_scope_log(fam, logs, event):
    return logs.total if fam.variant == "total" else logs.by_question.get(event.question_id)


def _ref_one_hot(entries, off, vocab, value):
    idx = vocab.get(value)
    if idx is not None:
        entries.append((off + idx, 1.0))


def _ref_push_windows(entries, off, log, now):
    if log is None or not log.ts:
        return
    win = log.window_counts(now)
    win.append((log.corrects, log.attempts))
    for j, (c, a) in enumerate(win):
        _ref_push_pair(entries, off + 2 * j, c, a)


def _ref_smoothed(corrects, attempts, rbar, eta):
    if corrects < 0 or attempts < corrects:
        raise ValueError("need 0 <= corrects <= attempts")
    if not 0.0 <= rbar <= 1.0:
        raise ValueError("rbar must be in [0, 1]")
    denom = attempts + eta
    if denom <= 0:
        raise ValueError("attempts + eta must be positive")
    return (corrects + eta * rbar) / denom


_REF_TALLIES = {
    "video_watched_counts": "videos_watched",
    "video_skipped_counts": "videos_skipped",
    "video_watched_time": "video_minutes",
    "reading_counts": "readings",
    "reading_time": "reading_minutes",
    "hint_counts": "hints",
    "hint_time": "hint_minutes",
}


def _ref_block(entries, off, fam, encoder, state, logs, event):
    kind, variant, vocabs = fam.kind, fam.variant, encoder.vocabs
    if kind == "bias":
        entries.append((off, 1.0))
    elif kind == "student":
        _ref_one_hot(entries, off, vocabs["student"], event.student_id)
    elif kind == "question":
        _ref_one_hot(entries, off, vocabs["question"], event.question_id)
    elif kind == "study_module":
        _ref_one_hot(entries, off, vocabs["study_module"], event.study_module)
    elif kind == "context":
        _ref_one_hot(entries, off, vocabs[variant], getattr(event, variant))
    elif kind == "kc":
        for k in event.kc_ids:
            _ref_one_hot(entries, off, vocabs["kc"], k)
    elif kind == "counts":
        if variant != "kc":
            log = _ref_scope_log(fam, logs, event)
            if log is not None:
                _ref_push_pair(entries, off, log.corrects, log.attempts)
            return
        for k in event.kc_ids:
            idx = vocabs["kc"].get(k)
            log = logs.by_kc.get(k)
            if idx is not None and log is not None:
                _ref_push_pair(entries, off + 2 * idx, log.corrects, log.attempts)
    elif kind == "tw_counts":
        if variant != "kc":
            _ref_push_windows(entries, off, _ref_scope_log(fam, logs, event), event.timestamp)
            return
        per_kc = 2 * (len(WINDOWS_S) + 1)
        for k in event.kc_ids:
            idx = vocabs["kc"].get(k)
            if idx is not None:
                _ref_push_windows(entries, off + idx * per_kc, logs.by_kc.get(k), event.timestamp)
    elif kind == "elapsed_time":
        if variant == "current":
            secs = event.elapsed_time_s
        else:
            secs = None if state.previous is None else state.previous.elapsed_time_s
        if secs is not None:
            cat, scaled = _ref_elapsed_bins(secs)
            entries.append((off + cat, 1.0))
            if scaled:
                entries.append((off + ELAPSED_CAP + 1, scaled))
    elif kind == "lag_time":
        if variant == "current":
            flag = logs.total.attempts == 0
            lag_s = None if flag else _brute_lag(state.previous, event)
        else:
            flag, lag_s = logs.total.attempts == 1, state.prior_lag_s
        n_cat = len(LAG_CATS)
        if flag:
            entries.append((off + n_cat + 1, 1.0))
        elif lag_s is not None:
            cat, scaled = _ref_lag_bins(lag_s / 60.0)
            entries.append((off + cat, 1.0))
            if scaled:
                entries.append((off + n_cat, scaled))
    elif kind == "datetime":
        dt = datetime.fromtimestamp(event.timestamp, tz=timezone.utc)
        col = {"month": dt.month - 1, "week": dt.isocalendar().week - 1,
               "day": dt.weekday(), "hour": dt.hour}[variant]
        entries.append((off + col, 1.0))
    elif kind == "study_module_counts":
        idx = vocabs["study_module"].get(event.study_module)
        cell = state.by_module.get(event.study_module)
        if idx is not None and cell is not None:
            _ref_push_pair(entries, off + 2 * idx, cell[0], cell[1])
    elif kind == "part_area_counts":
        cell = state.by_part.get(event.part_area)
        if cell is not None:
            _ref_push_pair(entries, off, cell[0], cell[1])
    elif kind in ("prereq_ids", "prereq_counts", "postreq_ids", "postreq_counts"):
        graph = state.kc_graph
        if graph is None:
            raise ConfigError(f"family {fam.name} requires a prerequisite graph")
        step = graph.prereqs_of if kind.startswith("prereq") else graph.postreqs_of
        nodes = graph.nodes_for_event(event.question_id, _orig_kcs(event.kc_ids, state.squash_map))
        related = set()
        for node in nodes:
            related.update(step(node))
        for p in sorted(related):
            idx = vocabs["graph_node"].get(p)
            if idx is None:
                continue
            if kind.endswith("_ids"):
                entries.append((off + idx, 1.0))
            elif (cell := state.graph_nodes.get(p)) is not None:
                _ref_push_pair(entries, off + 2 * idx, cell[0], cell[1])
    elif kind in _REF_TALLIES:
        tally = state.tallies[_REF_TALLIES[kind]]
        _ref_push_pair(entries, off, tally.total, tally.for_kcs(event.kc_ids))
    elif kind == "smoothed_avg_correct":
        value = _ref_smoothed(logs.total.corrects, logs.total.attempts, encoder.rbar, ETA)
        if value:
            entries.append((off, value))
    elif kind == "response_pattern":
        idx = pattern_block(logs.recent_bits, N_RECENT)
        if idx is not None:
            entries.append((off + idx, 1.0))
    else:
        raise AssertionError(f"reference does not know family {fam.name}")


def reference_emit(encoder, state, logs, event):
    """(indices, values) of one row: ordered by column, zeros dropped."""
    if not event.is_response():
        raise ConfigError("can only emit features for question responses")
    entries = []
    for fam, off, _ in encoder.blocks:
        _ref_block(entries, off, fam, encoder, state, logs, event)
    kept = sorted(((int(i), float(v)) for i, v in entries if v != 0.0), key=lambda p: p[0])
    indices = np.array([i for i, _ in kept], dtype=np.int64)
    values = np.array([v for _, v in kept], dtype=np.float64)
    if np.any(np.diff(indices) == 0):
        raise ValueError("duplicate feature index")
    if len(indices) and not 0 <= indices[0] <= indices[-1] < encoder.dim:
        raise RuntimeError("emitted index outside encoder dimension")
    return indices, values


def _ref_stack_vectors(vectors, dim):
    n = len(vectors)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, (row_indices, _) in enumerate(vectors):
        indptr[i + 1] = indptr[i] + len(row_indices)
    if n:
        indices = np.concatenate([v[0] for v in vectors])
        data = np.concatenate([v[1] for v in vectors])
    else:
        indices = np.zeros(0, dtype=np.int64)
        data = np.zeros(0, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, dim))


def reference_build_matrix(students, encoder, kc_graph=None, squash_map=None):
    """(X, y, t, events) from one emit per response, students in sorted-id order."""
    vectors, labels, t_idx, kept = [], [], [], []
    for sid in sorted(students):
        logs = ReferenceLogs(WINDOWS_S)
        for event, state, t in reference_walk(students[sid], kc_graph, squash_map):
            vectors.append(reference_emit(encoder, state, logs, event))
            logs.add(event)
            labels.append(1 if event.correct else 0)
            t_idx.append(t)
            kept.append(event)
    return (
        _ref_stack_vectors(vectors, encoder.dim),
        np.asarray(labels, dtype=np.float64),
        np.asarray(t_idx, dtype=np.int64),
        kept,
    )


def assign_partition(scheme, event, t):
    """Partition label of one example: t is its prior-response count."""
    if isinstance(scheme, ResponseIndex):
        pts = scheme.splitpoints
        i = bisect_right(pts, t) - 1
        return interval_label(pts[i], pts[i + 1])
    value = getattr(event, scheme.field)
    return MISSING_KEY if value is None else str(value)


def reference_validate(event):
    """The value checks of one event, as InteractionEvent.validate made them."""
    if event.timestamp < 0:
        raise SchemaError(f"negative timestamp {event.timestamp}")
    if event.is_response():
        if event.question_id is None:
            raise SchemaError("question response without question_id")
        if not event.kc_ids:
            raise SchemaError(
                f"question response {event.question_id!r} without kc_ids"
            )
        if event.correct is None:
            raise SchemaError(
                f"question response {event.question_id!r} without correct flag"
            )
    if event.elapsed_time_s is not None and event.elapsed_time_s < 0:
        raise SchemaError("negative elapsed_time_s")
    if event.hint_count is not None and event.hint_count < 0:
        raise SchemaError("negative hint_count")
    if event.consumption_minutes is not None and event.consumption_minutes < 0:
        raise SchemaError("negative consumption_minutes")


def _parse_bool(cell, line):
    low = cell.lower()
    if low in ("1", "true"):
        return True
    if low in ("0", "false"):
        return False
    raise ParseError(f"bad correct flag {cell!r}", line)


def _parse_cell(cell, typ, col, line):
    """A non-empty optional cell as its OPTIONAL_FIELDS type."""
    if typ is str:
        return cell
    try:
        value = typ(cell)
    except ValueError:
        value = math.nan
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"bad {'integer' if typ is int else 'number'} {cell!r} in column {col!r}", line)
    return value


def _parse_row(row, line, manifest):
    sid = row["student_id"]
    if not sid:
        raise ParseError("empty student_id", line)
    try:
        ts = float(row["timestamp"])
    except ValueError:
        ts = math.nan
    if not math.isfinite(ts):
        raise ParseError(f"bad timestamp {row['timestamp']!r}", line)
    ts = int(math.floor(ts))
    try:
        kind = EventKind(row["event_kind"])
    except ValueError:
        raise ParseError(f"unknown event_kind {row['event_kind']!r}", line) from None

    for col, f in OPTIONAL_FIELDS.items():
        if row[col] and f.flag and not manifest.allows(f.flag):
            raise SchemaError(
                f"line {line}: column {col!r} populated but manifest "
                f"{manifest.name!r} does not declare {f.flag!r}"
            )
    material = MATERIAL_KINDS.get(kind)
    if material and not manifest.allows(material.flag):
        raise SchemaError(
            f"line {line}: event kind {kind.value!r} requires manifest flag {material.flag!r}"
        )
    if row["consumption_minutes"] and kind is EventKind.QUESTION_RESPONSE:
        raise ParseError("consumption_minutes on a question response", line)

    # positional: InteractionEvent declares its fields in CANONICAL_COLUMNS order
    event = InteractionEvent(
        sid,
        ts,
        kind,
        row["question_id"] or None,
        tuple(sorted({k for k in row["kc_ids"].split(";") if k})),
        _parse_bool(row["correct"], line) if row["correct"] else None,
        *[
            _parse_cell(cell, f.type, col, line) if (cell := row[col]) else None
            for col, f in OPTIONAL_FIELDS.items()
        ],
    )
    try:
        reference_validate(event)
    except SchemaError as err:
        raise ParseError(str(err), line) from None
    return event


def reference_load_events(path, manifest):
    """Parse a canonical CSV one row at a time into per-student, time-sorted
    sequences; raises the first bad row's first error."""
    path = Path(path)
    by_student = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", 1) from None
        if tuple(header) != CANONICAL_COLUMNS:
            raise ParseError(
                f"header mismatch: expected {','.join(CANONICAL_COLUMNS)}", 1
            )
        for line, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(CANONICAL_COLUMNS):
                raise ParseError(
                    f"expected {len(CANONICAL_COLUMNS)} columns, got {len(raw)}", line
                )
            row = dict(zip(CANONICAL_COLUMNS, raw))
            event = _parse_row(row, line, manifest)
            by_student.setdefault(event.student_id, []).append(event)
    students = {
        sid: sorted(events, key=lambda e: e.timestamp)
        for sid, events in sorted(by_student.items())
    }
    return Dataset(manifest=manifest, students=students)
