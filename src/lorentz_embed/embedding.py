"""Gaussian random matrices as plain (n, k) arrays, test directions and
distortion measurement."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .norms import _block_bounds, _checked, _power_sums, lorentz_norm_images
from .params import LorentzParams
from .streams import RandomStream


def _check_k(n: int, k: int):
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


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


def _deviations(G: np.ndarray, params: LorentzParams, M: float,
                directions: np.ndarray, blocks: list | None = None) -> np.ndarray:
    """| |G theta| / M - 1 | in float64 for each unit column theta of directions
    in blocks, some of _block_bounds(n, m) (None: all); the others read NaN."""
    if M <= 0.0:
        raise ValueError("M must be positive")
    return np.abs(lorentz_norm_images(params, G, directions, blocks) / M - 1.0)


def _max_deviation(G: np.ndarray, params: LorentzParams, M: float,
                   directions: np.ndarray) -> float:
    """float(np.max(_deviations(G, params, M, directions))), bitwise.

    A float32 screen forms every image and power on the kernel and sums them
    in float64. E bounds its deviation's distance from the exact one and from
    the float64 one (Higham 2002, ch. 3): gamma_{k+2} |theta|_2
    |(|G_i|_2)_i|_p for the product (|.|_{w,p} <= |.|_p is a norm), gamma_2
    at 2^-24 and gamma_{n+8} at 2^-53 of N / p for the powers and sums, and
    underflow, doubled for the second-order terms. _deviations then forms
    only the blocks of directions with dev + E >= max(dev - E). The screen
    needs correctly rounded powers (p in {1, 3/2, 2}), more than two blocks
    and k > 2 (at k = 2 the directions near the max fill most blocks);
    elsewhere, or if its sums are not all finite, every block is formed.
    """
    G = _checked(params.n, G, (2,))
    directions = _checked(G.shape[1], directions, (2,))
    (n, k), p = G.shape, params.p
    blocks = _block_bounds(n, directions.shape[1])
    if p in (1.0, 1.5, 2.0) and len(blocks) > 2 and k > 2:
        sums = _power_sums([(params.weights, p)], G.astype(np.float32), directions)[0]
        cols = np.sqrt(np.einsum("ij,ij->j", directions, directions))
        lp = np.linalg.norm(np.sqrt(np.einsum("ij,ij->i", G, G)), p)

        def gamma(count: int, u: float) -> float:  # of count roundings at u
            return count * u / (1.0 - count * u)

        u32, u64 = 2.0 ** -24, 2.0 ** -53
        with np.errstate(all="ignore"):
            norms = sums ** (1.0 / p)
            devs = np.abs(norms / M - 1.0)
            E = 2.0 * ((gamma(k + 2, u32) + gamma(k + 2, u64)) * cols * lp
                       + (gamma(2, u32) + 2.0 * gamma(n + 8, u64)) * norms / p
                       + n ** (1.0 / p) * k * (max(G.max(), -G.min()) + cols + 1.0)
                       * 2.0 ** -149 + (n * 2.0 ** -147) ** (1.0 / p)) / M + 2.0 ** -50
            floor = np.max(devs - E)
        if np.isfinite(floor):
            near = devs + E >= floor
            blocks = [(lo, hi) for lo, hi in blocks if near[lo:hi].any()]
    return float(np.nanmax(_deviations(G, params, M, directions, blocks)))


def measure_distortion(
    G: np.ndarray,
    params: LorentzParams,
    M: float,
    directions: np.ndarray,
    test_mode: str = "random_sphere",
) -> DistortionReport:
    """The maximum and quantiles of _deviations(G, params, M, directions)."""
    devs = _deviations(G, params, M, directions)
    quantiles = {str(lv): float(np.quantile(devs, lv)) for lv in QUANTILE_LEVELS}
    return DistortionReport(
        M_used=M,
        max_rel_dev=float(np.max(devs)),
        quantiles=quantiles,
        direction_count=devs.size,
        test_mode=test_mode,
    )

