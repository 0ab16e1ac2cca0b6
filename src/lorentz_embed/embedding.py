"""Gaussian random matrices as plain (n, k) arrays, test directions and
distortion measurement."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .norms import _checked, _image_norm_range, _screen, lorentz_norm_images
from .params import LorentzParams
from .streams import RandomStream


def _check_k(n: int, k: int):
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _check_M(M: float):
    if not 0.0 < M < np.inf:
        raise ValueError(f"M must be positive and finite, got {M}")


def sample_gaussian_matrix(n: int, k: int, stream: RandomStream) -> np.ndarray:
    """An (n, k) matrix of i.i.d. standard normal entries, reproducible by seed."""
    _check_k(n, k)
    return stream.generator().standard_normal((n, k))


def test_directions(k: int, count: int, mode: str, stream: RandomStream | None = None) -> np.ndarray:
    """Unit test directions as a (k, count) matrix of columns.

    mode 'random_sphere' draws normalized Gaussians; mode 'grid2d' (k = 2 only)
    is the uniform angular grid starting at angle 0.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if mode == "grid2d":
        if k != 2:
            raise ValueError("grid2d mode requires k = 2")
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.vstack([np.cos(angles), np.sin(angles)])
    if mode == "random_sphere":
        if stream is None:
            raise ValueError("random_sphere mode requires a stream")
        rng = stream.generator()
        raw = rng.standard_normal((k, count))
        return raw / np.linalg.norm(raw, axis=0)
    raise ValueError(f"mode must be 'random_sphere' or 'grid2d', got {mode!r}")


@dataclass(frozen=True)
class DistortionReport:
    M_used: float
    max_rel_dev: float
    quantiles: dict  # probability level, as a string -> deviation quantile
    direction_count: int
    test_mode: str

    def __post_init__(self):
        if any(q > self.max_rel_dev + 1e-15 for q in self.quantiles.values()):
            raise RuntimeError("quantile exceeds reported maximum")

    to_dict = asdict


QUANTILE_LEVELS = (0.5, 0.9, 0.99)


def _max_deviation(G: np.ndarray, params: LorentzParams, M: float,
                   directions: np.ndarray) -> float:
    """measure_distortion(G, params, M, directions).max_rel_dev, bitwise: for
    M > 0, x / M - 1 is two correctly rounded steps that never decrease in x,
    and fl(1 - y) = -fl(y - 1), so the smallest or largest norm gives it."""
    _check_M(M)
    return float(_deviation(*_image_norm_range(params, G, directions), M))


def _deviation(low, high, M: float):
    """max |N / M - 1| over N in [low, high]; it never falls as high rises or low falls."""
    return max(high / M - 1.0, 1.0 - low / M)


def _trial_passes(G: np.ndarray, params: LorentzParams, M: float,
                  directions: np.ndarray, eps: float) -> bool:
    """_max_deviation(G, params, M, directions) <= eps, bitwise. For k >= 2,
    where norms._screen gives bounds, they enclose the float64 extreme norms,
    l0 <= low <= l1 and h0 <= high <= h1; only where the deviation's
    enclosure straddles eps, or without bounds, is it formed."""
    _check_M(M)
    G = _checked(params.n, G, (2,))
    directions = _checked(G.shape[1], directions, (2,))
    bounds = _screen(params, G, directions) if G.shape[1] >= 2 else None
    if bounds is not None:
        lower, upper = bounds
        l0, l1, h0, h1 = np.min(lower), np.min(upper), np.max(lower), np.max(upper)
        if not _deviation(l1, h0, M) <= eps < _deviation(l0, h1, M):
            return bool(_deviation(l1, h0, M) <= eps)
    return _max_deviation(G, params, M, directions) <= eps


def measure_distortion(
    G: np.ndarray,
    params: LorentzParams,
    M: float,
    directions: np.ndarray,
    test_mode: str = "random_sphere",
) -> DistortionReport:
    """The maximum and quantiles of | |G theta| / M - 1 | in float64 over the
    unit columns theta of directions."""
    _check_M(M)
    devs = np.abs(lorentz_norm_images(params, G, directions) / M - 1.0)
    quantiles = {str(lv): float(np.quantile(devs, lv)) for lv in QUANTILE_LEVELS}
    return DistortionReport(
        M_used=M,
        max_rel_dev=float(np.max(devs)),
        quantiles=quantiles,
        direction_count=devs.size,
        test_mode=test_mode,
    )

