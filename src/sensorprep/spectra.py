"""PCA over standardized data and the Q (squared prediction error) and
Hotelling T-squared statistics with analytic control limits.

The eigenpairs of the sample correlation matrix come from LAPACK's
symmetric solver, in descending order with a fixed sign per eigenvector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .ingest import SensorDataset, Standardization, standardize
from .quantiles import f_quantile, normal_quantile

__all__ = [
    "PcaModel",
    "jacobi_eigh",
    "fit_pca",
    "select_k",
    "q_statistic",
    "q_threshold",
    "t2_statistic",
    "t2_threshold",
    "fit_pca_model",
    "model_to_dict",
    "model_from_dict",
    "limit_to_json",
    "limit_from_json",
]

_EIG_CLAMP = 1e-9


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal-statistic model.

    eigenvalues are sorted descending with tiny negatives clamped to zero;
    eigenvector columns align with them. q_limit may be +inf, meaning the
    residual test is disabled because reconstruction is exact.
    """

    standardization: Standardization
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    k: int
    q_limit: float
    t2_limit: float
    alpha: float

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=float)
        vec = np.array(self.eigenvectors, dtype=float)
        n = lam.shape[0]
        if vec.shape != (n, n):
            raise ValueError(f"eigenvector matrix must be {n}x{n}, got {vec.shape}")
        if (np.diff(lam) > 0).any():
            raise ValueError("eigenvalues must be sorted descending")
        if lam.min(initial=0.0) < -_EIG_CLAMP:
            raise ValueError(f"negative eigenvalue {lam.min()} below clamp tolerance")
        lam = np.where(lam < 0.0, 0.0, lam)
        ortho = np.abs(vec.T @ vec - np.eye(n)).max()
        if ortho >= 1e-8:
            raise ValueError(f"eigenvector matrix not orthonormal (deviation {ortho:.3e})")
        if not 1 <= self.k <= n:
            raise ValueError(f"k must lie in 1..{n}, got {self.k}")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @functools.cached_property
    def screening(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(means, standard deviations, P_k, lambda_k): what screening a row reads, derived once per model."""
        pk, lam = self.eigenvectors[:, : self.k], self.eigenvalues[: self.k]
        if lam.min() <= 0.0:
            raise ValueError("all retained eigenvalues must be strictly positive")
        return self.standardization.means, np.sqrt(self.standardization.variances), pk, lam


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues descending, eigenvector columns) of a symmetric matrix from LAPACK's np.linalg.eigh.

    Each column's largest-magnitude entry is made positive, so the result does not depend on the
    LAPACK build. The benchmark tracer binds to this name until ROADMAP item 1 refreshes it.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if np.abs(a - a.T).max(initial=0.0) > 1e-10:
        raise ValueError("matrix must be symmetric")
    lam, vec = np.linalg.eigh(a)
    lam, vec = lam[::-1], vec[:, ::-1]
    peak = vec[np.argmax(np.abs(vec), axis=0), np.arange(n)]
    return lam, vec * np.where(peak < 0.0, -1.0, 1.0)


def fit_pca(xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the sample correlation matrix of standardized data.

    Requires more samples than nodes. Eigenvalues in (-1e-9, 0) are clamped
    to zero; anything more negative is an internal error since correlation
    matrices are positive semidefinite.
    """
    xbar = np.asarray(xbar, dtype=float)
    m, n = xbar.shape
    if m <= n:
        raise ValueError(f"need more samples than nodes, got m={m}, n={n}")
    corr = xbar.T @ xbar / (m - 1)
    lam, vec = jacobi_eigh(corr)
    if lam.min() < -_EIG_CLAMP:
        raise ArithmeticError(f"correlation eigenvalue {lam.min()} is negative beyond tolerance")
    lam = np.where(lam < 0.0, 0.0, lam)
    return lam, vec


def select_k(eigenvalues: np.ndarray, ratio: float = 0.85) -> int:
    """Smallest k whose leading eigenvalues reach the cumulative contribution ratio."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("eigenvalue spectrum is all zero")
    cum = np.cumsum(lam) / total
    return int(np.argmax(cum >= ratio - 1e-15)) + 1


def q_statistic(xbar_row: np.ndarray, model: PcaModel) -> float:
    """Squared norm of the row's residual after projection onto the k retained components."""
    x = np.asarray(xbar_row, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"row has shape {x.shape}, expected ({model.n},)")
    pk = model.eigenvectors[:, : model.k]
    residual = x - pk @ (pk.T @ x)
    return float(residual @ residual)


def t2_statistic(xbar_row: np.ndarray, model: PcaModel) -> float:
    """Mahalanobis-type distance of the row's scores in the retained subspace."""
    x = np.asarray(xbar_row, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"row has shape {x.shape}, expected ({model.n},)")
    _, _, pk, lam = model.screening  # raises unless every retained eigenvalue is strictly positive
    scores = pk.T @ x
    return float(np.sum(scores * scores / lam))


def q_threshold(eigenvalues: np.ndarray, k: int, alpha: float) -> float:
    """Control limit for the Q statistic at test level alpha.

    Closed form from the discarded-eigenvalue moments (Jackson-Mudholkar),
    keeping the absolute value around the inner bracket so the result
    stays defined when the bracket goes negative. (Q/theta1)^h0 is taken
    as normal; when h0 < 0 it falls as Q grows, so the normal deviate
    changes sign to keep the limit in Q's upper tail. When every
    discarded eigenvalue is zero the residual test carries no information
    and +inf is returned as a "test disabled" sentinel.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    tail = lam[k:]
    theta1 = float(np.sum(tail))
    theta2 = float(np.sum(tail**2))
    theta3 = float(np.sum(tail**3))
    if theta1 <= 0.0:
        return math.inf
    h0 = 1.0 - 2.0 * theta1 * theta3 / (3.0 * theta2 * theta2)
    if h0 == 0.0:
        raise ArithmeticError("degenerate spectrum: h0 = 0")
    c_alpha = normal_quantile(alpha)
    spread = math.copysign(math.sqrt(2.0 * theta2 * h0 * h0), h0)
    bracket = c_alpha * spread / theta1 + theta2 * h0 * (h0 - 1.0) / (theta1 * theta1) + 1.0
    return theta1 * abs(bracket) ** (1.0 / h0)


def t2_threshold(k: int, m: int, alpha: float) -> float:
    """Control limit for the T-squared statistic: k(m-1)/(m-k) times an F critical value."""
    if m <= k:
        raise ValueError(f"need m > k, got m={m}, k={k}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k * (m - 1) / (m - k) * f_quantile(k, m - 1, alpha)


def fit_pca_model(
    train: SensorDataset,
    contribution_ratio: float = 0.85,
    alpha: float = 0.05,
) -> PcaModel:
    """Standardize training data, fit eigenpairs, select k, and set both limits."""
    xbar, std = standardize(train)
    lam, vec = fit_pca(xbar)
    k = select_k(lam, contribution_ratio)
    q_lim = math.inf if k == train.n else q_threshold(lam, k, alpha)
    t2_lim = t2_threshold(k, train.m, alpha)
    return PcaModel(std, lam, vec, k, q_lim, t2_lim, alpha)


def limit_to_json(limit: float) -> float | None:
    """Control limit as strict JSON: the disabled Q test (+inf) becomes null."""
    return None if math.isinf(limit) else float(limit)


def limit_from_json(value: float | None) -> float:
    """Inverse of limit_to_json."""
    return math.inf if value is None else float(value)


def model_to_dict(model: PcaModel) -> dict:
    """The `pca_model` artifact body: eigenvectors row-major, a disabled Q limit as null."""
    return {
        "means": model.standardization.means.tolist(),
        "variances": model.standardization.variances.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "k": int(model.k),
        "q_limit": limit_to_json(model.q_limit),
        "t2_limit": float(model.t2_limit),
        "alpha": float(model.alpha),
    }


def model_from_dict(doc: dict) -> PcaModel:
    return PcaModel(
        Standardization(np.array(doc["means"]), np.array(doc["variances"])),
        np.array(doc["eigenvalues"]),
        np.array(doc["eigenvectors"]),
        int(doc["k"]),
        limit_from_json(doc["q_limit"]),
        float(doc["t2_limit"]),
        float(doc["alpha"]),
    )
