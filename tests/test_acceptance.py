"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from oracles import (
    brute_nb_posterior,
    brute_soft_posterior,
    exhaustive_argmax,
    oracle_f_upper,
    oracle_normal_upper,
    penalized_total,
    random_transition_network,
    states_from_grid,
)
from sensorprep.anomaly import nb_predict_state, tq_screen, tqbayes_detect
from sensorprep.bayesnet import Dag, StaticNetwork, k2_search, learn_static, learn_transition
from sensorprep.cli import main as cli_main
from sensorprep.ingest import (
    SensorDataset,
    discretize,
    fit_discretization,
    inject_errors,
    standardize,
    synth_generate,
)
from sensorprep.metrics import mean_rmse, precision_recall, rmse
from sensorprep.quantiles import f_quantile, normal_quantile
from sensorprep.redundancy import rsdrda_infer, rsdrda_schedule, ssdrda
from sensorprep.spectra import (
    PcaModel,
    fit_pca,
    fit_pca_model,
    jacobi_eigh,
    q_statistic,
    q_threshold,
    t2_statistic,
    t2_threshold,
)
from sensorprep.ingest import Standardization


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion}: {description}"


def test_criterion_01_standardization():
    rng = np.random.default_rng(101)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 501))
        n = int(rng.integers(1, 21))
        values = rng.standard_normal((m, n)) * rng.uniform(0.5, 20) + rng.uniform(-50, 50)
        data = SensorDataset(values, tuple(f"n{i}" for i in range(n)))
        xbar, _ = standardize(data)
        worst_mean = max(worst_mean, float(np.abs(xbar.mean(axis=0)).max()))
        worst_var = max(worst_var, float(np.abs(xbar.var(axis=0, ddof=1) - 1).max()))
    report(1, f"standardized columns centered/unit (|mean|max={worst_mean:.2e}, |var-1|max={worst_var:.2e})",
           worst_mean < 1e-9 and worst_var < 1e-9)


def test_criterion_02_eigensolver():
    rng = np.random.default_rng(102)
    worst_resid = worst_trace = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        x = rng.standard_normal((n + int(rng.integers(5, 80)), n))
        corr = np.corrcoef(x, rowvar=False)
        lam, vec = jacobi_eigh(corr)
        worst_resid = max(worst_resid, float(np.abs(corr @ vec - vec * lam).max()))
        worst_trace = max(worst_trace, abs(float(lam.sum()) - float(np.trace(corr))))
    report(2, f"eigen residual {worst_resid:.2e} < 1e-8 and trace gap {worst_trace:.2e} < 1e-9",
           worst_resid < 1e-8 and worst_trace < 1e-9)


def test_criterion_03_statistic_sanity():
    rng = np.random.default_rng(103)
    n = 8
    x = rng.standard_normal((60, n))
    lam, vec = jacobi_eigh(np.corrcoef(x, rowvar=False))
    full = PcaModel(Standardization(np.zeros(n), np.ones(n)), lam, vec, n, 1.0, 1.0, 0.05)
    worst_q = max(q_statistic(rng.standard_normal(n) * 3, full) for _ in range(1000))
    t2_origin = t2_statistic(np.zeros(n), full)

    q_monotone = t2_monotone = True
    checked = 0
    draws = 0
    while checked < 20 and draws < 200:
        draws += 1
        size = int(rng.integers(3, 21))
        lam_rand = np.sort(rng.exponential(1.0, size))[::-1]
        k = max(1, min(size - 1, int(rng.integers(1, size))))
        tail = lam_rand[k:]
        t1, t2_, t3 = tail.sum(), (tail**2).sum(), (tail**3).sum()
        if t1 <= 0 or t2_ <= 0:
            continue
        h0 = 1 - 2 * t1 * t3 / (3 * t2_**2)
        if h0 <= 0:
            continue
        brackets = [
            normal_quantile(a) * math.sqrt(2 * t2_ * h0 * h0) / t1 + t2_ * h0 * (h0 - 1) / t1**2 + 1
            for a in (0.01, 0.05, 0.10)
        ]
        if min(brackets) <= 0:
            continue
        checked += 1
        q_vals = [q_threshold(lam_rand, k, a) for a in (0.01, 0.05, 0.10)]
        t_vals = [t2_threshold(k, 200, a) for a in (0.01, 0.05, 0.10)]
        q_monotone &= q_vals[0] > q_vals[1] > q_vals[2]
        t2_monotone &= t_vals[0] > t_vals[1] > t_vals[2]

    report(3, f"Q(k=n) max {worst_q:.2e} < 1e-12; T2(0) = {t2_origin}; thresholds decrease in alpha on {checked} spectra",
           worst_q < 1e-12 and t2_origin == 0.0 and checked == 20 and q_monotone and t2_monotone)


def test_criterion_04_quantile_oracles():
    nq = normal_quantile(0.05)
    fq = f_quantile(2, 10, 0.05)
    ok = (
        abs(nq - 1.644854) < 1e-5
        and abs(fq - 4.10282) < 1e-3
        and abs(nq - oracle_normal_upper(0.05)) < 1e-6
        and abs(fq - oracle_f_upper(2, 10, 0.05)) < 1e-4
    )
    report(4, f"normal_quantile(0.05)={nq:.6f}, f_quantile(2,10,0.05)={fq:.5f} match oracles", ok)


def test_criterion_05_anomaly_experiment():
    data = synth_generate(1, 600, 15, "correlated-drift")
    train = SensorDataset(data.values[:400], data.node_ids)
    test = SensorDataset(data.values[400:], data.node_ids)
    model = fit_pca_model(train, 0.85, 0.05)
    means = train.values.mean(axis=0)
    injected_rows = range(150, 200)

    or_flags = 0
    corrupted_10 = inject_errors(test, injected_rows, 0.10, means)
    for r in injected_rows:
        or_flags += tq_screen(corrupted_10.values[r], model)[2]
    or_recall = or_flags / 50

    q_flags = 0
    corrupted_05 = inject_errors(test, injected_rows, 0.05, means)
    for r in injected_rows:
        q, _, _ = tq_screen(corrupted_05.values[r], model)
        q_flags += q > model.q_limit
    q_recall = q_flags / 50

    clean_flags = sum(tq_screen(test.values[r], model)[2] for r in range(150))
    clean_rate = clean_flags / 150
    bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 150)

    report(5, f"P=0.10 OR recall {or_recall:.2f} >= 0.95; P=0.05 Q recall {q_recall:.2f} >= 0.95; "
              f"clean rate {clean_rate:.3f} < {bound:.3f}",
           or_recall >= 0.95 and q_recall >= 0.95 and clean_rate < bound)


def test_criterion_06_tqbayes_localization():
    data = synth_generate(1, 600, 6, "copy-child", copies={1: 0})
    train = SensorDataset(data.values[:400], data.node_ids)
    test = SensorDataset(data.values[400:], data.node_ids)
    model = fit_pca_model(train, 0.85, 0.05)
    scheme = fit_discretization(train, 3)
    train_states = discretize(train, scheme)
    tn = learn_transition(train_states, 3)

    child = 1
    sd = train.values[:, child].std(ddof=1)
    clean_states = discretize(test, scheme).states
    rows = []
    r = 2
    while len(rows) < 20 and r < test.m:
        if clean_states[r, child] <= 2 and clean_states[r - 1, 0] <= 2 and clean_states[r - 1, child] <= 2:
            rows.append(r)
            r += 3
        else:
            r += 1
    assert len(rows) == 20
    values = test.values.copy()
    values[rows, child] += 3.0 * sd
    corrupted = SensorDataset(values, test.node_ids)

    detection = tqbayes_detect(corrupted, model, tn, scheme, train_states.states[-1])
    flagged = set(detection.flagged_rows())
    universe = {(i, j) for i in range(test.m) for j in range(test.n)}
    truth = {(i, child) for i in rows}
    tq_cells = {(i, j) for i in flagged for j in range(test.n)}
    at, node = detection.abnormal.nonzero()
    bayes_cells = set(zip(np.array(detection.flagged_rows())[at].tolist(), node.tolist()))

    tq_p, tq_r, _ = precision_recall(truth, tq_cells, universe)
    b_p, b_r, _ = precision_recall(truth, bayes_cells, universe)
    report(6, f"TQBayes precision {b_p:.3f} >= TQ {tq_p:.3f}; recall {b_r:.2f} within 0.05 of TQ {tq_r:.2f}",
           b_p >= tq_p and abs(b_r - tq_r) <= 0.05)


def _chain_states(seed, m=5000, flip=0.05):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(1, 3, size=m)

    def noisy(src):
        out = src.copy()
        mask = rng.random(m) < flip
        out[mask] = 3 - out[mask]
        return out

    x2 = noisy(x1)
    x3 = noisy(x2)
    return states_from_grid(np.column_stack([x1, x2, x3]), 2)


def test_criterion_07_structure_oracle():
    chains_ok = True
    for seed in range(10):
        states = _chain_states(seed)
        greedy = k2_search(states, max_parents=1, lag=0)
        best_score, best_dags = exhaustive_argmax(states)
        score_match = abs(penalized_total(states, greedy) - best_score) <= 1e-9
        edge_match = any(greedy.parents == d.parents for d in best_dags)
        skeleton = {frozenset(e) for e in greedy.edges()}
        chains_ok &= score_match and edge_match and skeleton == {frozenset({0, 1}), frozenset({1, 2})}

    empty_ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        states = states_from_grid(rng.integers(1, 4, size=(5000, 5)), 3)
        empty_ok &= k2_search(states, max_parents=3, lag=0).edges() == []

    report(7, "greedy+repair matches exhaustive edge set on 10 noisy chains; empty graph on 10 independent sets",
           chains_ok and empty_ok)


def test_criterion_08_inference_oracles():
    rng = np.random.default_rng(108)
    worst_nb = worst_soft = 0.0
    for _ in range(100):
        tn = random_transition_network(rng, n_max=4, k_max=3)
        k = tn.counts[0].shape[1]
        prev = rng.integers(1, k + 1, size=tn.dag.n)
        for node in range(tn.dag.n):
            _, posterior = nb_predict_state(node, prev, tn)
            worst_nb = max(worst_nb, float(np.abs(posterior - brute_nb_posterior(node, prev, tn)).max()))
            parents = tn.dag.parents[node]
            if parents:
                evidence = []
                for _ in parents:
                    ev = rng.random(k) + 0.05
                    evidence.append(ev / ev.sum())
                soft = rsdrda_infer(node, tn, evidence)
                worst_soft = max(worst_soft, float(np.abs(soft - brute_soft_posterior(node, tn, evidence)).max()))
    report(8, f"nb/soft posteriors match brute force (gaps {worst_nb:.2e}, {worst_soft:.2e})",
           worst_nb <= 1e-12 and worst_soft <= 1e-12)


def test_criterion_09_ssdrda():
    identity_counts = np.array([[40, 0, 0], [0, 40, 0], [0, 0, 40]])
    uniform_counts = np.full((3, 3), 20)
    parent_counts = np.full((1, 3), 10)
    net = StaticNetwork(Dag(3, ((), (0,), (0,))), (parent_counts, identity_counts, uniform_counts))
    rep = ssdrda(net, tau=0.95)
    direct_ok = rep.redundant[1] and not rep.redundant[2]

    data = synth_generate(7, 400, 5, "copy-child", copies={1: 0, 3: 2}, flip=0.03)
    net = learn_static(discretize(data, fit_discretization(data, 3)), 2)
    previous = None
    monotone = True
    for tau in (0.8, 0.9, 0.95, 0.99):
        current = set(ssdrda(net, tau).redundant_nodes())
        if previous is not None:
            monotone &= current <= previous
        previous = current

    report(9, "exact-copy child redundant / uniform child not at tau=0.95; redundant set monotone over tau grid",
           direct_ok and monotone)


def test_criterion_10_rsdrda_experiment():
    exact = synth_generate(1, 300, 4, "lagged-copy", copies={1: 0})
    rep_exact = rsdrda_schedule(exact, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(exact))
    sleep_frac = float(rep_exact.entries.sleeping[rep_exact.entries.node == 1].mean())
    pairs = [(exact.values[r.t, r.node], r.estimate) for r in rep_exact.recoveries(exact) if r.node == 1]
    exact_rmse = rmse([a for a, _ in pairs], [e for _, e in pairs])

    noisy = synth_generate(1, 300, 4, "lagged-copy", copies={1: 0}, noise_frac=0.1)
    sigma = 0.1 * float(np.std(noisy.values[:, 0]))
    rep_noisy = rsdrda_schedule(noisy, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(noisy))
    by_node: dict[int, list] = {}
    for r in rep_noisy.recoveries(noisy):
        by_node.setdefault(r.node, []).append((noisy.values[r.t, r.node], r.estimate))
    per_node = [rmse([a for a, _ in p], [e for _, e in p]) for p in by_node.values()]
    noisy_mean = mean_rmse(per_node)

    report(10, f"exact: sleeping {sleep_frac:.2f} >= 0.95, recovery rmse {exact_rmse}; "
               f"noisy: mean rmse {noisy_mean:.4f} <= 2*sigma {2 * sigma:.4f}",
           sleep_frac >= 0.95 and exact_rmse == 0.0 and bool(per_node) and noisy_mean <= 2 * sigma)


def test_criterion_11_metrics():
    truth = set(range(10))
    predicted = set(range(8)) | {20, 21}
    p, r, counts = precision_recall(truth, predicted, set(range(40)))
    hand = (counts.tp, counts.fp, counts.fn) == (8, 2, 2) and p == 0.8 and r == 0.8
    value = rmse([0.0, 0.0], [3.0, 4.0])
    report(11, f"precision/recall exactly (0.8, 0.8); rmse([0,0],[3,4]) = {value:.7f} = sqrt(12.5)",
           hand and abs(value - math.sqrt(12.5)) <= 1e-9)


def _run_pipeline(base):
    base.mkdir(parents=True, exist_ok=True)
    art = base / "art"
    steps = [
        ["synth", "--profile", "correlated-drift", "--seed", "11", "--rows", "300", "--cols", "6",
         "--split", "200", "--out-train", str(base / "train.csv"), "--out-test", str(base / "test.csv")],
        ["learn", "--train", str(base / "train.csv"), "--out-dir", str(art)],
        ["inject", "--train", str(base / "train.csv"), "--data", str(base / "test.csv"),
         "--last-rows", "25", "--pct", "0.10", "--out", str(base / "bad.csv"),
         "--sidecar", str(base / "truth.json")],
        ["detect", "--train", str(base / "train.csv"), "--data", str(base / "bad.csv"),
         "--artifacts", str(art), "--out-dir", str(art)],
        ["redundancy-static", "--data", str(base / "train.csv"), "--artifacts", str(art),
         "--out-dir", str(art)],
        ["redundancy-realtime", "--data", str(base / "train.csv"), "--slice-len", "100",
         "--out-dir", str(art)],
        ["evaluate", "--report", str(art / "detection_report.json"), "--truth", str(base / "truth.json"),
         "--redundancy", str(art / "redundancy_realtime.json"), "--data", str(base / "train.csv"),
         "--out", str(art / "metrics.json")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv
    digests = {}
    for path in sorted(list(art.iterdir()) + [base / "train.csv", base / "test.csv", base / "bad.csv", base / "truth.json"]):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_12_determinism(tmp_path, capsys):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    capsys.readouterr()  # swallow the step summaries
    same = first == second
    report(12, f"two identical pipeline runs produce byte-identical files ({len(first)} artifacts)", same)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
