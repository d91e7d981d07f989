"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's computation paths:
quantiles come from Simpson quadrature plus bisection, eigenpairs from
cyclic Jacobi rotations, inference from dictionary-based enumeration, and
structure search from exhaustive DAG enumeration or from one
penalized_family_score call per candidate.

The package computes each quantity once, in the batched kernel its
pipelines run; its per-item entry points (tq_screen, q_statistic,
t2_statistic, nb_predict_state, rsdrda_infer, recover, discretize_row,
penalized_family_score) are one-row calls of those kernels. The per-item
arithmetic they used to have lives on here, mostly under the same names
(scalar_tq_screen for the Q/T2 screen), with nb_predict_state built on
digit_parent_marginal, as the references of the equivalence tests:
batched screening is checked against one scalar_tq_screen per row, under
the float policy of assert_screens_equivalent, batched detection against
one nb_predict_state call per (flagged row, node), its marginal tables
against the per-slice mixed-radix digit sum, static recovery against one
recover call per reading, the slice- and step-parallel RSDRDA schedule
against one rsdrda_infer and one recover call per (slice, step, node), and
structure search, per window of a stack, against one penalized_family_score
per candidate, scored by the per-cell loglik_terms that the package's
one-pass scoring kernel replaced, and a cycle repair that recounts every
family it scores and finds each cycle with the hand-written depth-first
search (find_cycle) that Dag.find_cycle's graphlib call replaced. A network's
log-likelihood (score) is the sum of those per-cell family scores; the
package keeps only fitted_score, read from a learned network's counts.
CSV reading is checked against a loader that parses one cell at a
time, and every CSV writer against one that formats rows through the csv
module. The per-record JSON report layout that the columnar codec
replaced, which stored every recovered reading, is kept here as the
reference that decodes, and the readings rebuilt from the recovery rules
that replaced those readings, must match.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sensorprep import artifacts
from sensorprep.anomaly import ROW_DTYPE, DetectionReport, report_from_dict, tq_screen
from sensorprep.bayesnet import (
    Dag,
    StaticNetwork,
    TransitionNetwork,
    count_states,
    estimate_cpt,
)
from sensorprep.ingest import DiscretizationScheme, SensorDataset, Standardization, StateMatrix, discretize
from sensorprep.redundancy import (
    RECOVERY_DTYPE,
    SCHEDULE_DTYPE,
    RealtimeRedundancyReport,
    StaticRedundancyReport,
    _schedule_steps,
)
from sensorprep.spectra import PcaModel, limit_to_json


def simpson(f, a: float, b: float, n: int = 4000) -> float:
    if n % 2:
        n += 1
    h = (b - a) / n
    s = f(a) + f(b)
    s += 4.0 * sum(f(a + h * i) for i in range(1, n, 2))
    s += 2.0 * sum(f(a + h * i) for i in range(2, n, 2))
    return s * h / 3.0


def oracle_normal_upper(alpha: float) -> float:
    """Upper-alpha normal critical value by bisection on the density integral."""
    density = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    target = 1.0 - alpha
    lo, hi = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 + simpson(density, 0.0, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_beta_cdf(x: float, a: float, b: float) -> float:
    # Substituting t = s^2 removes the t^(a-1) endpoint singularity for a >= 1/2.
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    integrand = lambda s: 2.0 * s ** (2.0 * a - 1.0) * (1.0 - s * s) ** (b - 1.0)
    return simpson(integrand, 0.0, math.sqrt(x)) / math.exp(ln_b)


def oracle_f_cdf(q: float, d1: int, d2: int) -> float:
    if q <= 0.0:
        return 0.0
    return _oracle_beta_cdf(d1 * q / (d1 * q + d2), d1 / 2.0, d2 / 2.0)


def oracle_f_upper(d1: int, d2: int, alpha: float) -> float:
    """Upper-alpha F critical value by quadrature of the density plus bisection."""
    target = 1.0 - alpha
    hi = 1.0
    while oracle_f_cdf(hi, d1, d2) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if oracle_f_cdf(mid, d1, d2) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate off-diagonal entries until the off-diagonal Frobenius
    norm falls below tol relative to the matrix norm. Returns (eigenvalues
    descending, eigenvector columns in matching order).
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if np.abs(a - a.T).max(initial=0.0) > 1e-10:
        raise ValueError("matrix must be symmetric")
    v = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(a)))
    upper = np.triu_indices(n, 1)

    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float(np.sum(a[upper] ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # A pivot too small to perturb the diagonal is treated as
                # already annihilated; likewise the tangent formula switches
                # to its small-angle limit when the diagonal gap dwarfs the
                # pivot, avoiding overflow in theta**2.
                g = 100.0 * abs(apq)
                if abs(a[p, p]) + g == abs(a[p, p]) and abs(a[q, q]) + g == abs(a[q, q]):
                    a[p, q] = a[q, p] = 0.0
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + g == abs(h):
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # Apply J^T A J and accumulate V J for the Givens rotation J
                # with J[p,p]=J[q,q]=c, J[p,q]=s, J[q,p]=-s; this tangent
                # choice annihilates a[p,q].
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
                a[p, q] = a[q, p] = 0.0
    else:
        raise ArithmeticError(f"Jacobi sweep cap ({max_sweeps}) exceeded without convergence")

    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    return lam[order], v[:, order]


def scalar_tq_screen(row: np.ndarray, model: PcaModel) -> tuple[float, float, bool]:
    """Per-row Q/T2 screening: the one-row formula that stage one's batched kernel replaced."""
    _, _, pk, lam = model.screening
    xbar = apply_standardization(row, model.standardization)
    scores = pk.T @ xbar
    residual = xbar - pk @ scores
    q, t2 = float(residual @ residual), float(np.sum(scores * scores / lam))
    return q, t2, q > model.q_limit or t2 > model.t2_limit


def screen_bounds(rows: np.ndarray, model: PcaModel) -> np.ndarray:
    """Each raw row's bounds on (q, t2), |z|^2 and |z|^2 / lambda_k for the standardized row z, as an m x 2 array."""
    std = model.standardization
    norm2 = np.sum(((np.asarray(rows, dtype=float) - std.means) / np.sqrt(std.variances)) ** 2, axis=1)
    return np.column_stack([norm2, norm2 / model.eigenvalues[model.k - 1]])


def assert_screens_equivalent(got, want, bounds: np.ndarray, limits: tuple[float, float]) -> None:
    """Float-output policy for two screenings (q, t2, flagged) of the same rows.

    q and t2 must agree within 1e-10 of each row's bounds (screen_bounds).
    Flags must be equal, except on rows whose q or t2 lies within that
    tolerance of its limit, where the last bits decide.
    """
    stats = [np.column_stack([np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float)]) for s in (got, want)]
    tolerance = 1e-10 * bounds
    drift = np.abs(stats[0] - stats[1])
    worst = int(np.argmax((drift - tolerance).max(axis=1)))
    assert (drift <= tolerance).all(), f"row {worst}: q/t2 {stats[0][worst]} against {stats[1][worst]}"
    near_limit = (np.abs(stats[1] - np.asarray(limits, dtype=float)) <= tolerance).any(axis=1)
    flags = [np.asarray(s[2], dtype=bool) for s in (got, want)]
    np.testing.assert_array_equal(flags[0][~near_limit], flags[1][~near_limit])


def assert_pca_equivalent(got: PcaModel, want: PcaModel, rows: np.ndarray) -> None:
    """Float-output policy for two PCA models fitted to the same data.

    k and the flag of every raw sample in rows must be equal. Eigenvalues,
    q, t2 and both control limits must agree within 1e-10 relative, and
    the retained projectors P_k P_k^T within 1e-12 absolute. Eigenvector
    entries are never compared: a near-degenerate discarded spectrum has
    no unique basis. The retained subspace is unique only when k sits at a
    spectral gap, so callers must pick such a k.

    q and t2 are taken relative to their bounds for the row, |z|^2 and
    |z|^2 / lambda_k for the standardized row z. A row almost inside, or
    almost orthogonal to, the retained subspace has a statistic near zero
    that is a cancellation, and its error scales with the row, not with
    the statistic.
    """
    assert got.k == want.k
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose([got.q_limit, got.t2_limit], [want.q_limit, want.t2_limit], rtol=1e-10, atol=0.0)
    screened = [np.array([tq_screen(row, model) for row in rows]) for model in (got, want)]
    np.testing.assert_array_equal(screened[0][:, 2], screened[1][:, 2])
    drift = np.abs(screened[0][:, :2] - screened[1][:, :2]) / screen_bounds(rows, want)
    assert drift.max() <= 1e-10, f"q/t2 drift {drift.max():.3e} relative"
    projectors = [m.eigenvectors[:, : m.k] @ m.eigenvectors[:, : m.k].T for m in (got, want)]
    np.testing.assert_allclose(projectors[0], projectors[1], rtol=0.0, atol=1e-12)


def config_rows(parents: int, k: int):
    """Joint parent configurations in mixed-radix order, first parent most significant."""
    return list(itertools.product(range(1, k + 1), repeat=parents))


def brute_nb_posterior(node: int, prev_states, tn: TransitionNetwork) -> np.ndarray:
    """Naive-Bayes posterior by explicit per-parent marginalization of raw counts."""
    parents = tn.dag.parents[node]
    counts = tn.counts[node]
    k = counts.shape[1]
    rows = config_rows(len(parents), k)
    scores = []
    for c in range(1, k + 1):
        value = tn.priors[node][c - 1]
        for pos, parent in enumerate(parents):
            want = int(prev_states[parent])
            num = sum(counts[h][c - 1] for h, cfg in enumerate(rows) if cfg[pos] == want)
            den = sum(counts[h].sum() for h, cfg in enumerate(rows) if cfg[pos] == want)
            value *= (num / den) if den > 0 else 1.0 / k
        scores.append(value)
    total = sum(scores)
    if total <= 0:
        prior = np.asarray(tn.priors[node], dtype=float)
        return prior / prior.sum()
    return np.array(scores) / total


def digit_parent_marginal(counts: np.ndarray, parent_count: int, position: int, parent_state: int) -> np.ndarray:
    """Single-parent conditional from the mixed-radix digit of every configuration row."""
    p = parent_count
    k = counts.shape[1]
    digits = (np.arange(counts.shape[0]) // (k ** (p - 1 - position))) % k
    sums = counts[digits == parent_state - 1].sum(axis=0).astype(float)
    total = sums.sum()
    if total <= 0:
        return np.full(k, 1.0 / k)
    return sums / total


# The per-item paths that the batched kernels replaced. The package keeps
# nb_predict_state, rsdrda_infer, recover, discretize_row and
# penalized_family_score as one-row calls of those kernels; these copies
# keep the per-item arithmetic, so that a kernel is never checked against
# itself.


def apply_standardization(row: np.ndarray, std: Standardization) -> np.ndarray:
    """Standardize one raw sample with training parameters (never refit)."""
    row = np.asarray(row, dtype=float)
    if row.shape != (std.n,):
        raise ValueError(f"row has shape {row.shape}, expected ({std.n},)")
    return (row - std.means) / np.sqrt(std.variances)


def discretize_row(row: np.ndarray, scheme: DiscretizationScheme) -> np.ndarray:
    """Map one raw sample onto states {1..K}; out-of-range values clamp to edge bins."""
    row = np.asarray(row, dtype=float)
    if row.shape != (scheme.n,):
        raise ValueError(f"row has shape {row.shape}, expected ({scheme.n},)")
    out = np.empty(scheme.n, dtype=np.int64)
    for j in range(scheme.n):
        # side='right' sends a value equal to an edge into the higher bin
        out[j] = 1 + np.searchsorted(scheme.edges[j], row[j], side="right")
    return out


def make_cpt(states: StateMatrix, node: int, parents, lag: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Count and estimate in one step: a family's count table and its conditional probability table."""
    counts = count_states(states, node, parents, lag)
    return counts, estimate_cpt(counts)


def loglik_terms(counts: np.ndarray) -> np.ndarray:
    """N log(theta) of every cell of a count table (or stack of tables), 0 for empty cells."""
    totals = counts.sum(axis=-1, keepdims=True)
    mask = counts > 0
    ratio = np.where(mask, counts / np.where(totals > 0, totals, 1), 1.0)
    return np.where(mask, counts * np.log(ratio), 0.0)


def family_score(states: StateMatrix, node: int, parents, lag: int = 0) -> float:
    """Maximum-likelihood log score of one node given its parents: the sum of its cells' terms."""
    return float(np.sum(loglik_terms(count_states(states, node, parents, lag))))


def score(states: StateMatrix, dag: Dag, lag: int = 0) -> float:
    """Network log-likelihood: the sum of per-family scores (decomposable)."""
    return sum(family_score(states, i, dag.parents[i], lag) for i in range(dag.n))


def penalized_family_score(states: StateMatrix, node: int, parents, lag: int = 0) -> float:
    """Family log-likelihood minus a BIC penalty of (free parameters / 2) log m.

    The raw likelihood never decreases when parents are added, so greedy
    search without a node ordering needs the penalty to stop.
    """
    k = states.state_count
    free = (k ** len(parents)) * (k - 1)
    return family_score(states, node, parents, lag) - 0.5 * free * math.log(states.m)


def nb_predict_state(node: int, prev_states: np.ndarray, tn: TransitionNetwork) -> tuple[int, np.ndarray]:
    """Predict a node's state from its parents' states at the previous step.

    Multiplies single-parent conditionals, each from `digit_parent_marginal`,
    with the node's prior, then normalizes. A node with no transition parents
    falls back to its prior. Returns (predicted state, posterior), where the
    argmax breaks ties toward the lowest state.
    """
    prev_states = np.asarray(prev_states, dtype=np.int64)
    if prev_states.shape != (tn.dag.n,):
        raise ValueError(f"previous states have shape {prev_states.shape}, expected ({tn.dag.n},)")
    parents = tn.dag.parents[node]
    prior = tn.priors[node]
    if not parents:
        posterior = prior / prior.sum()
        return int(np.argmax(posterior)) + 1, posterior
    unnorm = prior.copy()
    for position, parent in enumerate(parents):
        unnorm = unnorm * digit_parent_marginal(tn.counts[node], len(parents), position, int(prev_states[parent]))
    total = unnorm.sum()
    if total <= 0.0:
        # Parents with disjoint supports: no state is jointly possible, so
        # fall back to the prior alone.
        posterior = prior / prior.sum()
    else:
        posterior = unnorm / total
    return int(np.argmax(posterior)) + 1, posterior


def rsdrda_infer(node: int, tn: TransitionNetwork, parent_evidence) -> np.ndarray:
    """Posterior over a node's states given soft evidence on its parents.

    Sums the transition table over every joint parent configuration,
    weighting each configuration by the product of the per-parent evidence
    distributions, then normalizes.
    """
    parents = tn.dag.parents[node]
    if not parents:
        raise ValueError(f"node {node} has no transition parents")
    if len(parent_evidence) != len(parents):
        raise ValueError(f"expected {len(parents)} evidence vectors, got {len(parent_evidence)}")
    k = tn.counts[node].shape[1]
    weights = np.ones(1)
    for ev in parent_evidence:
        ev = np.asarray(ev, dtype=float)
        if ev.shape != (k,):
            raise ValueError(f"evidence vector has shape {ev.shape}, expected ({k},)")
        weights = np.outer(weights, ev).ravel()
    posterior = weights @ estimate_cpt(tn.counts[node])
    total = posterior.sum()
    if total <= 0.0:
        raise ArithmeticError("evidence assigns zero mass to every configuration")
    return posterior / total


def recover(parent_values, dissimilarities) -> float:
    """Weighted mean of parent readings, weights inverse to dissimilarity.

    A zero dissimilarity short-circuits to that parent's value (first such
    parent wins); a single parent is returned unchanged regardless of its
    weight.
    """
    values = [float(v) for v in parent_values]
    dists = [float(d) for d in dissimilarities]
    if not values:
        raise ValueError("need at least one parent value")
    if len(values) != len(dists):
        raise ValueError("values and dissimilarities must align")
    if any(d < 0 for d in dists):
        raise ValueError("dissimilarities must be nonnegative")
    if len(values) == 1:
        return values[0]
    for v, d in zip(values, dists):
        if d == 0.0:
            return v
    w = [1.0 / d for d in dists]
    return sum(wi * vi for wi, vi in zip(w, values)) / sum(w)


def scalar_tqbayes_detect(
    test: SensorDataset,
    model: PcaModel,
    tn: TransitionNetwork,
    scheme: DiscretizationScheme,
    last_states: np.ndarray,
) -> DetectionReport:
    """Per-row two-stage detection: one discretize_row per flagged row and
    its predecessor (the states `last_states` before row 0), one
    nb_predict_state call per node.

    The reference for the batched stage two of tqbayes_detect. Its verdicts
    are legacy records, each with its own abnormal and uninferable flags.
    """
    rows = []
    verdicts = []
    for r in range(test.m):
        q, t2, flagged = scalar_tq_screen(test.values[r], model)
        rows.append((r, q, t2, flagged))
        if not flagged:
            continue
        prev_states = last_states if r == 0 else discretize_row(test.values[r - 1], scheme)
        observed = discretize_row(test.values[r], scheme)
        for node in range(test.n):
            predicted, _ = nb_predict_state(node, prev_states, tn)
            uninferable = not tn.dag.parents[node]
            abnormal = (not uninferable) and predicted != int(observed[node])
            verdicts.append((r, node, int(observed[node]), predicted, abnormal, uninferable))
    return report_from_records(model.q_limit, model.t2_limit, np.rec.fromrecords(rows, dtype=ROW_DTYPE),
                               np.rec.fromrecords(verdicts, dtype=VERDICT_DTYPE),
                               [not parents for parents in tn.dag.parents])


def _training_dissimilarities(window: np.ndarray, node: int, parents) -> list[float]:
    """RMS distance between standardized columns of node and each parent,
    each column standardized on its own; constant columns become zeros."""
    cols = {}
    for j in {node, *parents}:
        col = window[:, j]
        sd = col.std(ddof=1)
        cols[j] = (col - col.mean()) / sd if sd > 0 else np.zeros_like(col)
    return [float(np.sqrt(np.mean((cols[node] - cols[p]) ** 2))) for p in parents]


def scalar_static_recovery(data: SensorDataset, dag: Dag, redundant_nodes) -> np.recarray:
    """One recover call per reading: the reference for the per-node static_recovery."""
    out = []
    for node in redundant_nodes:
        parents = dag.parents[node]
        dists = _training_dissimilarities(data.values, node, parents)
        for t in range(data.m):
            estimate = recover([data.values[t, p] for p in parents], dists)
            out.append((t, node, estimate))
    return np.rec.fromrecords(out, dtype=RECOVERY_DTYPE)


def _point_mass(state: int, k: int) -> np.ndarray:
    out = np.zeros(k)
    out[state - 1] = 1.0
    return out


class ScalarSchedule(NamedTuple):
    """`scalar_rsdrda_schedule`'s schedule entries and the recoveries of its sleeping readings."""

    entries: np.recarray  # SCHEDULE_DTYPE
    recoveries: np.recarray  # RECOVERY_DTYPE


def scalar_rsdrda_schedule(
    data: SensorDataset, slice_len: int, train_frac: float, tau: float, scheme: DiscretizationScheme, max_parents: int
) -> ScalarSchedule:
    """One slice after another, one rsdrda_infer call per (step, node with
    parents) and one recover call per sleeping reading: the reference for
    the slice- and step-parallel rsdrda_schedule. Each training window is
    discretized on its own, learned by its own scalar_k2_search and
    standardized one column at a time."""
    train_len = int(round(slice_len * train_frac))
    states_all = discretize(data, scheme).states
    k = scheme.state_count
    n = data.n
    entries = []
    recoveries = []
    for start in range(0, data.m - slice_len + 1, slice_len):
        window = data.values[start : start + train_len]
        tn = scalar_learn_transition(discretize(SensorDataset(window, data.node_ids), scheme), max_parents)
        evidence = [_point_mass(int(states_all[start + train_len - 1, j]), k) for j in range(n)]
        for t in range(start + train_len, start + slice_len):
            next_evidence = [_point_mass(int(states_all[t, j]), k) for j in range(n)]
            for node in range(n):
                parents = tn.dag.parents[node]
                if not parents:
                    entries.append((t, node, False, math.nan))
                    continue
                posterior = rsdrda_infer(node, tn, [evidence[p] for p in parents])
                max_post = float(posterior.max())
                sleeping = max_post >= tau
                entries.append((t, node, sleeping, max_post))
                if sleeping:
                    dissim = _training_dissimilarities(window, node, parents)
                    estimate = recover([data.values[t - 1, p] for p in parents], dissim)
                    recoveries.append((t, node, estimate))
                    next_evidence[node] = posterior
            evidence = next_evidence
    return ScalarSchedule(
        np.rec.fromrecords(entries, dtype=SCHEDULE_DTYPE), np.rec.fromrecords(recoveries, dtype=RECOVERY_DTYPE)
    )


def brute_soft_posterior(node: int, tn: TransitionNetwork, parent_evidence) -> np.ndarray:
    """Soft-evidence posterior by explicit enumeration of joint configurations."""
    parents = tn.dag.parents[node]
    table = estimate_cpt(tn.counts[node])
    k = table.shape[1]
    rows = config_rows(len(parents), k)
    post = np.zeros(k)
    for h, cfg in enumerate(rows):
        weight = 1.0
        for pos, state in enumerate(cfg):
            weight *= float(parent_evidence[pos][state - 1])
        post += weight * table[h]
    return post / post.sum()


def all_dags(n: int):
    """Every DAG on n labeled nodes (25 for n = 3)."""
    nodes = range(n)
    arcs = [(p, c) for p in nodes for c in nodes if p != c]
    for mask in itertools.product((0, 1), repeat=len(arcs)):
        chosen = [a for a, keep in zip(arcs, mask) if keep]
        parents = tuple(tuple(sorted(p for p, c in chosen if c == i)) for i in nodes)
        dag = Dag(n, parents)
        if dag.is_acyclic():
            yield dag


def penalized_total(states: StateMatrix, dag: Dag, lag: int = 0) -> float:
    return sum(penalized_family_score(states, i, dag.parents[i], lag) for i in range(dag.n))


def exhaustive_argmax(states: StateMatrix, tol: float = 1e-9):
    """All maximum-scoring DAGs (within tol) by full enumeration."""
    best_score = -math.inf
    best: list[Dag] = []
    for dag in all_dags(states.n):
        s = penalized_total(states, dag)
        if s > best_score + tol:
            best_score, best = s, [dag]
        elif abs(s - best_score) <= tol:
            best.append(dag)
    return best_score, best


def scalar_greedy_parents(states: StateMatrix, max_parents: int = 3, lag: int = 0) -> tuple[tuple[int, ...], ...]:
    """Each node's greedily searched parents, before cycle repair, scoring
    each candidate with its own count.

    Same greedy rule as the package's search: same 1e-12 gain margin and
    lowest-index tie break, one candidate at a time in ascending order.
    """
    n = states.n
    parent_sets = []
    for node in range(n):
        chosen: list[int] = []
        current = penalized_family_score(states, node, chosen, lag)
        while len(chosen) < max_parents:
            best_gain = 0.0
            best_candidate = -1
            for cand in range(n):
                if cand == node or cand in chosen:
                    continue
                trial = penalized_family_score(states, node, chosen + [cand], lag)
                gain = trial - current
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_candidate = cand
            if best_candidate < 0:
                break
            chosen.append(best_candidate)
            current += best_gain
        parent_sets.append(tuple(chosen))
    return tuple(parent_sets)


def find_cycle(dag: Dag) -> list[tuple[int, int]] | None:
    """First directed cycle found by a hand-written DFS in ascending node
    order, each node's children in ascending order: the reference for
    `Dag.find_cycle`. Returned as (parent, child) edges in traversal order,
    or None.
    """
    children: list[list[int]] = [[] for _ in range(dag.n)]
    for c in range(dag.n):
        for p in dag.parents[c]:
            children[p].append(c)
    for ch in children:
        ch.sort()

    color = [0] * dag.n  # 0 unvisited, 1 on stack, 2 done
    for root in range(dag.n):
        if color[root]:
            continue
        # Iterative DFS, so long chains cannot hit the recursion limit:
        # `stack` is the current path, `pending` each path node's
        # children still to visit.
        color[root] = 1
        stack = [root]
        pending = [iter(children[root])]
        while stack:
            for child in pending[-1]:
                if color[child] == 1:
                    cyc = stack[stack.index(child) :] + [child]
                    return list(zip(cyc, cyc[1:]))
                if color[child] == 0:
                    color[child] = 1
                    stack.append(child)
                    pending.append(iter(children[child]))
                    break
            else:
                color[stack.pop()] = 2
                pending.pop()
    return None


def repair_cycles(dag: Dag, states: StateMatrix) -> Dag:
    """Cycle repair that counts every family it scores on its own and finds
    each cycle with the hand-written `find_cycle`: while a cycle exists,
    drop the edge on it whose removal costs the least penalized score,
    exact ties removing the smallest (child, parent)."""
    family = functools.cache(lambda child, ps: penalized_family_score(states, child, ps, lag=0))
    parents = [list(ps) for ps in dag.parents]
    while True:
        current = Dag(dag.n, tuple(tuple(ps) for ps in parents))
        cycle = find_cycle(current)
        if cycle is None:
            return current
        _, child, parent = min(
            (family(c, tuple(parents[c])) - family(c, tuple(q for q in parents[c] if q != p)), c, p) for p, c in cycle
        )
        parents[child] = [q for q in parents[child] if q != parent]


def scalar_k2_search(states: StateMatrix, max_parents: int = 3, lag: int = 0) -> Dag:
    """Greedy parent search scoring each candidate with its own count: the
    reference for k2_search, with the recounting cycle repair for lag 0."""
    dag = Dag(states.n, scalar_greedy_parents(states, max_parents, lag))
    return repair_cycles(dag, states) if lag == 0 else dag


def scalar_learn_transition(states: StateMatrix, max_parents: int = 3) -> TransitionNetwork:
    """learn_transition from scalar_k2_search and one count_states call per node."""
    dag = scalar_k2_search(states, max_parents, lag=1)
    counts = [count_states(states, node, ps, lag=1) for node, ps in enumerate(dag.parents)]
    k = states.state_count
    priors = np.array([[np.mean(states.states[:, j] == s) for s in range(1, k + 1)] for j in range(states.n)])
    return TransitionNetwork(dag, counts, priors)


def trivial_scheme(n: int, k: int) -> DiscretizationScheme:
    """Scheme whose interior edges sit between consecutive integer levels 1..k."""
    edges = tuple(np.arange(1, k, dtype=float) + 0.5 for _ in range(n))
    return DiscretizationScheme(edges, k)


def states_from_grid(grid: np.ndarray, k: int) -> StateMatrix:
    return StateMatrix(grid, k)


def random_transition_network(rng: np.random.Generator, n_max: int = 4, k_max: int = 3) -> TransitionNetwork:
    """Random small transition network with per-node count tables and priors."""
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    parent_sets = []
    for node in range(n):
        others = [j for j in range(n) if j != node]
        count = int(rng.integers(0, min(2, len(others)) + 1))
        rng.shuffle(others)
        parent_sets.append(tuple(sorted(others[:count])))
    dag = Dag(n, tuple(parent_sets))
    tables = []
    for node in range(n):
        h = k ** len(parent_sets[node])
        counts = rng.integers(0, 30, size=(h, k))
        if rng.random() < 0.3:
            counts[rng.integers(h)] = 0  # exercise the uniform-smoothing path
        tables.append(counts)
    priors = rng.random((n, k)) + 0.1
    priors /= priors.sum(axis=1, keepdims=True)
    return TransitionNetwork(dag, tuple(tables), priors)


def scalar_load_csv(path) -> SensorDataset:
    """`ingest.load_csv` as one float()/int() call per cell."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_ts = bool(header) and header[0] == "timestamp"
        node_ids = header[1:] if has_ts else header
        if not node_ids:
            raise ValueError(f"{path}: header contains no node ids")
        if len(set(node_ids)) != len(node_ids):
            dup = next(h for i, h in enumerate(node_ids) if h in node_ids[:i])
            raise ValueError(f"{path}: duplicate node id {dup!r}")

        rows: list[list[float]] = []
        stamps: list[int] = []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise ValueError(f"{path}: row {r} has {len(record)} cells, expected {len(header)}")
            if has_ts:
                try:
                    stamps.append(int(record[0]))
                except ValueError:
                    raise ValueError(f"{path}: row {r}, column 'timestamp': bad integer {record[0]!r}") from None
            cells = record[1:] if has_ts else record
            parsed = []
            for j, cell in enumerate(cells):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {r}, column {node_ids[j]!r}: not a number ({cell!r})") from None
                if not math.isfinite(v):
                    raise ValueError(f"{path}: row {r}, column {node_ids[j]!r}: non-finite value ({cell!r})")
                parsed.append(v)
            rows.append(parsed)

    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return SensorDataset(np.array(rows), tuple(node_ids), tuple(stamps) if has_ts else None)


def number_cells(column: np.ndarray, blank: np.ndarray | None = None) -> list[str]:
    """Cell text of an integer, boolean (as 0 and 1) or float column, one `repr` per cell, "" where `blank` is true."""
    values = column.astype(np.int64) if column.dtype.kind == "b" else column
    blank = np.zeros(len(column), dtype=bool) if blank is None else blank
    return ["" if b else repr(v) for v, b in zip(values.tolist(), blank.tolist())]


def _scalar_write_rows(path, header, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def scalar_write_csv(data: SensorDataset, path) -> None:
    if data.timestamps is not None:
        header = ("timestamp",) + data.node_ids
        rows = ([ts] + [repr(float(v)) for v in row] for ts, row in zip(data.timestamps, data.values))
    else:
        header = data.node_ids
        rows = ([repr(float(v)) for v in row] for row in data.values)
    _scalar_write_rows(path, header, rows)


def scalar_write_report_csv(report: DetectionReport, path) -> None:
    states = zip(report.observed.tolist(), report.predicted.tolist())  # one pair of lists per flagged row, in turn
    uninferable = report.uninferable.tolist()
    lines = []
    for row, q, t2, flagged in report.rows.tolist():
        screen = [row, q, t2, int(flagged)]
        if not flagged:
            lines.append(screen + ["", "", "", ""])
            continue
        observed, predicted = next(states)
        for node, (o, p, u) in enumerate(zip(observed, predicted, uninferable)):
            lines.append(screen + [node, o, "" if u else p, int(not u and o != p)])
    _scalar_write_rows(path, ["row", "q", "t2", "flagged", "node", "observed", "predicted", "abnormal"], lines)


def scalar_write_static_csv(report: StaticRedundancyReport, node_ids, path) -> None:
    redundant, criterion = report.redundant.tolist(), report.criterion.tolist()
    rows = ([node_ids[j], int(redundant[j]), criterion[j]] for j in range(len(redundant)))
    _scalar_write_rows(path, ["node", "redundant", "criterion"], rows)


def scalar_write_realtime_csv(report: RealtimeRedundancyReport, node_ids, path) -> None:
    rows = (
        [t, node_ids[node], "sleeping" if sleeping else "waking", "" if math.isnan(max_post) else max_post]
        for t, node, sleeping, max_post in report.entries.tolist()
    )
    _scalar_write_rows(path, ["t", "node", "state", "max_posterior"], rows)


def scalar_write_recovery_csv(recoveries: np.recarray, data: SensorDataset, path) -> None:
    rows = (
        [t, data.node_ids[node], estimate, float(data.values[t, node])]
        for t, node, estimate in recoveries.tolist()
    )
    _scalar_write_rows(path, ["t", "node", "estimate", "actual"], rows)


# The per-record report layout written before the columnar codec: one dict
# per record, each naming its node id.

# One verdict record per (flagged row, node), as reports held them before their state matrices: the row, the node,
# both states, and the two flags now derived, `abnormal` and `uninferable`.
VERDICT_DTYPE = np.dtype(
    [
        ("row", np.int64),
        ("node", np.int64),
        ("observed", np.int64),
        ("predicted", np.int64),
        ("abnormal", np.bool_),
        ("uninferable", np.bool_),
    ]
)


def verdict_records(report: DetectionReport) -> np.recarray:
    """A report's verdicts as `VERDICT_DTYPE` records, one per flagged row and node in that order."""
    (f, n), flagged = report.observed.shape, report.rows.row[report.rows.flagged]
    cells = [np.repeat(flagged, n), np.tile(np.arange(n), f), report.observed.ravel(), report.predicted.ravel()]
    return np.rec.fromarrays([*cells, report.abnormal.ravel(), np.tile(report.uninferable, f)], dtype=VERDICT_DTYPE)


def report_from_records(q_limit, t2_limit, rows: np.recarray, verdicts: np.recarray, uninferable) -> DetectionReport:
    """The report whose `VERDICT_DTYPE` records, one per flagged row and node in that order, are `verdicts`, with
    one `uninferable` flag per node. Each record's row, node and two flags must be the report's own."""
    shape = (int(rows.flagged.sum()), len(uninferable))
    uninferable = np.array(uninferable, dtype=bool)
    report = DetectionReport(q_limit, t2_limit, rows, verdicts.observed.reshape(shape),
                             verdicts.predicted.reshape(shape), uninferable)
    assert verdict_records(report).tobytes() == verdicts.tobytes(), "records that no report holds"
    return report


def _legacy_recoveries(recoveries: np.recarray, node_ids) -> list[dict]:
    return [
        {"t": t, "node": node, "node_id": node_ids[node], "estimate": estimate}
        for t, node, estimate in recoveries.tolist()
    ]


def _legacy_recoveries_from_dicts(docs: list[dict]) -> np.recarray:
    return np.rec.fromrecords([(r["t"], r["node"], r["estimate"]) for r in docs], dtype=RECOVERY_DTYPE)


def legacy_report_to_dict(report: DetectionReport) -> dict:
    return {
        "q_limit": limit_to_json(report.q_limit),
        "t2_limit": float(report.t2_limit),
        "rows": [dict(zip(ROW_DTYPE.names, s)) for s in report.rows.tolist()],
        "verdicts": [dict(zip(VERDICT_DTYPE.names, v)) for v in verdict_records(report).tolist()],
    }


def legacy_report_from_dict(doc: dict, n: int) -> DetectionReport:
    """The report of n nodes that a legacy document holds; with no verdict, every node reads as inferable."""
    rows = [tuple(s[f] for f in ROW_DTYPE.names) for s in doc["rows"]]
    verdicts = np.rec.fromrecords([tuple(v[f] for f in VERDICT_DTYPE.names) for v in doc["verdicts"]],
                                  dtype=VERDICT_DTYPE)
    return report_from_records(
        math.inf if doc["q_limit"] is None else doc["q_limit"],
        doc["t2_limit"],
        np.rec.fromrecords(rows, dtype=ROW_DTYPE),
        verdicts,
        verdicts.uninferable[:n] if len(verdicts) else [False] * n,
    )


def legacy_static_report_to_dict(report: StaticRedundancyReport, recoveries: np.recarray, node_ids) -> dict:
    return {
        "mode": "static",
        "tau": float(report.tau),
        "nodes": [
            {
                "node": j,
                "node_id": node_ids[j],
                "redundant": bool(report.redundant[j]),
                "criterion": float(report.criterion[j]),
                "witness": [float(v) for v in report.witness[j]],
            }
            for j in range(len(report.redundant))
        ],
        "recoveries": _legacy_recoveries(recoveries, node_ids),
    }


def legacy_static_from_dict(doc: dict) -> tuple[list[tuple], np.recarray]:
    """(node, redundant, criterion, witness) per node, and the recoveries."""
    nodes = [(r["node"], r["redundant"], r["criterion"], tuple(r["witness"])) for r in doc["nodes"]]
    return nodes, _legacy_recoveries_from_dicts(doc["recoveries"])


def legacy_realtime_report_to_dict(report: RealtimeRedundancyReport, recoveries: np.recarray, node_ids) -> dict:
    return {
        "mode": "realtime",
        "tau": float(report.tau),
        "slice_len": int(report.slice_len),
        "train_frac": float(report.train_frac),
        "entries": [
            {
                "t": t,
                "node": node,
                "node_id": node_ids[node],
                "state": "sleeping" if sleeping else "waking",
                "max_posterior": None if math.isnan(max_post) else max_post,
            }
            for t, node, sleeping, max_post in report.entries.tolist()
        ],
        "recoveries": _legacy_recoveries(recoveries, node_ids),
    }


def legacy_realtime_from_dict(doc: dict) -> tuple[np.recarray, np.recarray]:
    """The schedule entries and the recoveries."""
    entries = [
        (e["t"], e["node"], e["state"] == "sleeping", math.nan if e["max_posterior"] is None else e["max_posterior"])
        for e in doc["entries"]
    ]
    return np.rec.fromrecords(entries, dtype=SCHEDULE_DTYPE), _legacy_recoveries_from_dicts(doc["recoveries"])


# Each artifact as the command that reads it builds it: its constructor applied to the fields `artifacts.read`
# checked and converted.


def read_model(path, node_ids) -> PcaModel:
    with artifacts.read(path, "pca_model", node_ids) as doc:
        return PcaModel(Standardization(doc["means"], doc["variances"]), doc["eigenvalues"], doc["eigenvectors"],
                        doc["k"], doc["q_limit"], doc["t2_limit"], doc["alpha"])


def read_network(path, kind, node_ids) -> StaticNetwork | TransitionNetwork:
    with artifacts.read(path, kind, node_ids) as doc:
        dag = Dag(len(node_ids), doc["parents"])
        return StaticNetwork(dag, doc["counts"]) if kind == "static_network" else TransitionNetwork(
            dag, doc["counts"], doc["priors"])


def read_report(path, node_ids) -> DetectionReport:
    return report_from_dict(artifacts.read(path, "detection_report", node_ids))


def read_schedule(doc: artifacts.Document) -> np.recarray:
    """A read `redundancy_realtime` document's whole schedule: its stored columns beside the `t` and `node` that
    `rsdrda_schedule` builds for them."""
    entries = doc["entries"]
    t, node = _schedule_steps(doc["slice_len"], doc["train_frac"], len(doc["node_ids"]), len(entries))
    return np.rec.fromarrays([t, node, entries.sleeping, entries.max_posterior], dtype=SCHEDULE_DTYPE)
