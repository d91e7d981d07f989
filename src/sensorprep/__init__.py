"""Sensor-stream preprocessing toolkit.

Detects anomalous readings in multivariate sensor streams with
principal-statistic screening plus Bayesian-network localization, and
detects/eliminates redundant sensor nodes with static and two-slice
transition networks.
"""

from .ingest import (
    DiscretizationScheme,
    SensorDataset,
    Standardization,
    StateMatrix,
    discretize,
    discretize_row,
    fit_discretization,
    inject_errors,
    load_csv,
    standardize,
    synth_generate,
    write_csv,
)
from .quantiles import f_quantile, normal_quantile
from .spectra import (
    PcaModel,
    fit_pca,
    fit_pca_model,
    q_statistic,
    q_threshold,
    select_k,
    t2_statistic,
    t2_threshold,
)
from .bayesnet import (
    Dag,
    StaticNetwork,
    TransitionNetwork,
    count_states,
    estimate_cpt,
    k2_search,
    learn_static,
    learn_transition,
    repair_cycles,
)
from .anomaly import DetectionReport, nb_predict_state, tq_screen, tqbayes_detect
from .redundancy import (
    RealtimeRedundancyReport,
    StaticRedundancyReport,
    recover,
    rsdrda_infer,
    rsdrda_schedule,
    ssdrda,
    static_recovery,
)
from .metrics import ConfusionCounts, mean_rmse, per_node_rmse, precision_recall, rmse

__version__ = "0.1.0"
