"""Brute-force reference computations for feature emission and training.

Everything here recomputes expected feature values from a raw event
prefix with plain loops (no StudentState, no ResponseLog, no emit), so
it can serve as an independent check of the incremental extraction
path.  Layout (offsets, vocab indexing) comes from the encoder under
test; the values are derived from scratch.

`reference_fit` is the straightforward gradient-descent trainer that
recomputes X @ w for the gradient of every accepted step; the production
trainer must reproduce its weights bit for bit.
"""

import math
import time
from datetime import date

import numpy as np
from scipy.special import expit

from ktrace.core import ConfigError
from ktrace.regression import TrainConfig, TrainingDivergenceError, _as_csr, reg_mask_for

ELAPSED_CAP = 300
LAG_CATS = list(range(6)) + list(range(10, 1441, 10))


def ln1p(x):
    return math.log(1.0 + x)


def _responses(prefix):
    return [e for e in prefix if e.kind.value == "QuestionResponse"]


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


def expected_family(fam, encoder, prefix, event, graph=None, squash_map=None):
    """Expected {local_index: value} for one family block."""
    recipe = encoder.recipe
    vocabs = encoder.vocabs
    now = event.timestamp
    kcs = event.kc_ids
    resp = _responses(prefix)
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
        days = recipe.tw.days
        nw = len(days)

        def windowed(events_in_scope, base):
            for j, d in enumerate(days):
                if math.isinf(d):
                    inside = events_in_scope
                else:
                    wsec = d * 86400.0
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
        if variant == "current":
            lag_s, flag = event.lag_s, event.no_lag
        else:
            lag_s, flag = (resp[-1].lag_s, resp[-1].no_lag) if resp else (None, False)
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
        value = (c + recipe.eta * encoder.rbar) / (len(resp) + recipe.eta)
        if value:
            out[0] = value
    elif kind == "response_pattern":
        n = recipe.n_recent
        if len(resp) >= n:
            lastn = resp[-n:]
            idx = 0
            for i, e in enumerate(reversed(lastn)):  # i=0 is most recent
                if e.correct:
                    idx += 2 ** i
            out[idx] = 1.0
    else:
        raise AssertionError(f"oracle does not know family {fam.name}")
    return out


def compare_vector(encoder, phi, prefix, event, graph=None, squash_map=None, tol=1e-12):
    """Assert-style comparison; returns a list of mismatch strings."""
    problems = []
    for fam, off, size in encoder.blocks:
        got = dict(phi.slice_block(off, size))
        want = expected_family(fam, encoder, prefix, event, graph, squash_map)
        if set(got) != set(want):
            problems.append(
                f"{fam.name}: active indices {sorted(got)} != expected {sorted(want)}"
            )
            continue
        for i, v in want.items():
            if abs(got[i] - v) > tol:
                problems.append(f"{fam.name}[{i}]: {got[i]!r} != {v!r}")
    return problems


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


def reference_fit(X, y, config=TrainConfig(), reg_mask=None, encoder=None, init=None):
    """Full-batch gradient descent with step-halving: (weights, info)."""
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
    step = config.initial_step
    epochs = 0
    converged = False
    for _ in range(config.max_epochs):
        accepted = False
        s = step
        for _ in range(config.max_halvings):
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
        if rel < config.tol:
            converged = True
            break
    info = {
        "epochs": epochs,
        "converged": converged,
        "final_nll": value,
        "n_examples": int(X.shape[0]),
    }
    return w, info
