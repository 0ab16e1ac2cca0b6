"""Lorentz (quasi-)norms and the psi potential of vectors, of matrix columns and
of the images G @ directions, all on one blocked kernel that sums C-ordered
row blocks filled by its caller; the gradient norm of psi and exact Lipschitz
constants."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .params import LorentzParams

# entries (width x n) of one block of the norm kernel; the blocks are fixed
# by n and m, so that results never depend on the worker count
BLOCK_ENTRIES = 2 ** 18
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # the kernel's thread pool, made on the first multi-block call
_pool_lock = threading.Lock()
# entries of one slice of the q = 3/2 power: small enough that a slice and
# its scratch stay in cache, large enough that the calls per slice cost
# little (at 2^13 they made the two-worker kernel slower than np.power)
POWER_SLICE = 2 ** 15


class _WorkerBuffers(threading.local):
    """Each thread's block buffer, grown to the largest block it has taken,
    and its scratch for the q = 3/2 power."""

    def __init__(self):
        self.block = np.empty(0)
        self.scratch = np.empty(POWER_SLICE)

    def take(self, size: int) -> np.ndarray:
        if self.block.size < size:
            self.block = np.empty(size)
        return self.block[:size]


_buffers = _WorkerBuffers()


def _checked(n: int, x, ndims: tuple = (1, 2)) -> np.ndarray:
    """x as a float array, after checking that it is a nonempty n-vector or
    (n, m) matrix, as ndims allows, with finite entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ndims or x.size == 0:
        kind = " or ".join(("vector", "matrix")[d - 1] for d in ndims)
        raise ValueError(f"input must be a nonempty {kind}, got shape {x.shape}")
    if x.shape[0] != n:
        raise ValueError(f"dimension mismatch: len(x)={x.size}, n={n}" if x.ndim == 1
                         else f"expected an ({n}, m) matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains NaN" if np.isnan(x).any()
                         else "input contains non-finite entries")
    return x


def _power_in_place(A: np.ndarray, q: float):
    """A ** q in place on a C-contiguous array. q = 3/2 is a * sqrt(a), two
    correctly rounded operations, taken in slices of at most POWER_SLICE
    entries along the whole array through the thread's scratch."""
    if q == 2.0:
        np.square(A, out=A)
    elif q == 1.5:
        flat = A.reshape(-1)  # a view, as A is C-contiguous
        for j in range(0, flat.size, POWER_SLICE):
            S = flat[j:j + POWER_SLICE]
            root = _buffers.scratch.view(A.dtype)[:S.size]
            np.sqrt(S, out=root)
            np.multiply(S, root, out=S)
    elif q != 1.0:
        np.power(A, q, out=A)


def _block_bounds(n: int, m: int, entries: int | None = None) -> list:
    """(start, stop) of the blocks of m vectors of length n: as few as keep
    each within entries (BLOCK_ENTRIES if None) entries, of near-equal
    widths, each at least 2 wide unless m is 1, since the image of one
    direction is a GEMV product, which may differ in the last bit from the
    rows of a GEMM of two or more. They depend on n, m and entries only,
    never on the worker count."""
    entries = BLOCK_ENTRIES if entries is None else entries
    blocks = min(-(-m // max(2, entries // n)), max(1, m // 2))
    return [(j * m // blocks, (j + 1) * m // blocks) for j in range(blocks)]


def _openblas():
    """(set, get) of numpy's bundled OpenBLAS thread count as ctypes
    functions, or None where no such library or symbol is found."""
    import ctypes
    import glob
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                set_, get = getattr(lib, name.format("set")), getattr(lib, name.format("get"))
            except AttributeError:
                continue
            set_.argtypes, set_.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            return set_, get
    return None


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or None if none is found."""
    functions = _openblas()
    return None if functions is None else functions[1]()


def _run_tasks(task, args: list):
    """task(*a) for every a in args: inline on one core, or for one task
    until the pool exists (after that its workers' grown buffers take it, not
    a new one on the caller), else on a thread pool shared by all callers and
    made on first use. A task must not call _run_tasks itself.

    Making the pool sets numpy's OpenBLAS to one thread: the pool's workers
    then take the cores, and no idle BLAS thread spins beside them after a
    product. OpenBLAS divides a matrix product's rows and columns among its
    threads, not its sums, so this leaves the kernel's results as they were.
    """
    global _pool
    if _WORKERS == 1 or (len(args) < 2 and _pool is None):
        for a in args:
            task(*a)
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            functions = _openblas()
            if functions is not None:
                functions[0](1)
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="lorentz-norms")
    for _ in _pool.map(task, *zip(*args)):
        pass


def _row_sums(pairs: list, flat: list, A: np.ndarray, outs: list, rows: slice):
    """outs[j][rows] = sum_i c_i Y_[i]^q for each (c, q) = pairs[j], from A, a
    C-ordered (width, n) block that holds |Y| with one row per vector and is
    overwritten.

    The flat pairs come first: each sums the powers along the rows, times
    c[0]. The other pairs share one ascending sort of the rows, so the
    largest len(c) entries of a vector are the tail of its row. A pair with
    q != 1 powers A in place if it comes last with whole rows, else a copy.
    A float32 block, whose coefficients are float32 too, is summed by one
    float32 GEMV, flat or not."""
    n, last = A.shape[1], len(pairs) - 1
    order = sorted(range(len(pairs)), key=lambda j: not flat[j])
    for i, j in enumerate(order):
        (c, q), out = pairs[j], outs[j]
        if not flat[j] and (i == 0 or flat[order[i - 1]]):
            A.sort(axis=1)
        top = A if flat[j] else A[:, n - c.size:]
        if q != 1.0 and (i != last or c.size < n):
            top = top.copy()
        _power_in_place(top, q)
        if flat[j] and c.dtype == np.float64:
            np.sum(top, axis=1, dtype=float, out=out[rows])
            out[rows] *= c[0]
        else:  # BLAS needs the copy; float64 keeps its bits
            out[rows] = top @ (c[::-1].copy() if c.dtype == np.float32 else c[::-1])


def _blocked_sums(pairs: list, n: int, m: int, fill, groups: list,
                  entries: int, dtype=np.float64) -> list:
    """The sums of _power_sums for the vectors in groups, of m vectors Y of
    length n, and NaN for the others. Each (start, stop) in groups is one
    task on _run_tasks, which takes those vectors in the blocks of
    _block_bounds(n, stop - start, entries): fill(lo, hi, A) writes |Y| of
    vectors lo to hi as the rows of A, a C-ordered view in dtype of the
    thread's block buffer, and _row_sums sums them there. A row's sums do not
    depend on its block's height, so results never depend on the worker count
    or on entries. Each task keeps its np.errstate; a float64 block whose
    sums overflow raises."""
    flat = [c.size == n and bool(np.all(c == c[0])) for c, _ in pairs]
    outs = [np.full(m, np.nan) for _ in pairs]

    def task(start: int, stop: int):
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in _block_bounds(n, stop - start, entries):
                size, rows = n * (hi - lo), slice(start + lo, start + hi)
                A = _buffers.take(size).view(dtype)[:size].reshape(hi - lo, n)
                fill(start + lo, start + hi, A)
                _row_sums(pairs, flat, A, outs, rows)
                for (_, q), out in zip(pairs, outs if dtype == np.float64 else []):
                    if not np.isfinite(out[rows]).all():
                        raise ValueError(f"a power sum at exponent {q} overflows "
                                         "a float: p is too large for these inputs")

    _run_tasks(task, groups)
    return outs


def _power_sums(pairs: list, X: np.ndarray, D: np.ndarray | None = None,
                groups: list | None = None) -> list:
    """[sum_i c_i Y_[i]^q for each column of Y, for each (c, q) in pairs],
    Y_[i] the non-increasing rearrangement of a column's absolute values;
    rows past len(c) are left out. Y is X, or with D given the images of
    the (k, m) matrix D under the (n, k) matrix X, formed in X's dtype.

    Each block of _block_bounds(n, m), or of groups, some of them, is one task
    of _blocked_sums, filled with its columns as rows: X's, or the product
    D[:, block].T @ X.T, so no (n, m) image is held. The blocks depend on n
    and m only, so the results never depend on the worker count. A block's
    product may differ from X @ D in the last bit, and equals the rows of
    D.T @ X.T only where OpenBLAS takes the same GEMM path for both: blocks
    of 2 to 8 directions at n 300, k 80 do not. X itself is never modified.
    """
    if D is None:
        n, m = X.shape

        def fill(start: int, stop: int, A: np.ndarray):
            np.abs(X[:, start:stop].T, out=A)
    else:
        (n, _), m = X.shape, D.shape[1]

        def fill(start: int, stop: int, A: np.ndarray):
            block = D[:, start:stop].T.astype(A.dtype, copy=False)
            np.abs(np.matmul(block, X.T, out=A), out=A)

    return _blocked_sums(pairs, n, m, fill,
                         _block_bounds(n, m) if groups is None else groups,
                         BLOCK_ENTRIES, X.dtype)


def _evaluate(n: int, x, pair: tuple, power: float = 1.0):
    """(sum_i c_i x_[i]^q)^power for (c, q) = pair of an n-vector (a float),
    or of each column of an (n, m) matrix (an array), x checked by _checked."""
    x = _checked(n, x)
    values = _power_sums([pair], x.reshape(n, -1))[0] ** power
    return float(values[0]) if x.ndim == 1 else values


def lorentz_norm(params: LorentzParams, x):
    """(sum_i w_i x_[i]^p)^(1/p) of an n-vector (a float), or of each column
    of an (n, m) matrix (an array)."""
    return _evaluate(params.n, x, (params.weights, params.p), 1.0 / params.p)


def lorentz_norm_images(params: LorentzParams, G: np.ndarray,
                        directions: np.ndarray) -> np.ndarray:
    """Lorentz norm of each column of G @ directions, for (n, k) G and (k, m)
    directions, formed as in _power_sums: the same for any worker count, and
    bitwise lorentz_norm(params, (directions.T @ G.T).T) only where OpenBLAS
    forms each block's product as the rows of the whole one."""
    G = _checked(params.n, G, (2,))
    directions = _checked(G.shape[1], directions, (2,))
    return _power_sums([(params.weights, params.p)], G, directions)[0] ** (1.0 / params.p)


def _screen(params: LorentzParams, G: np.ndarray, directions: np.ndarray):
    """(N - E, N + E), or None for p not in {1, 3/2, 2} or a bound not finite.
    N is each image norm formed on the kernel in float32, float32 sums too; E
    bounds its distance from the exact and the float64 norm (Higham 2002,
    ch. 3) by gamma_{k+2} |theta|_2 |(|G_i|_2)_i|_p for the product (a norm
    below |.|_p), gamma_2 and gamma_{n+2} at 2^-24 of N / p for the powers and
    the sums in any order (w_1 = 1 bounds a subnormal coefficient's rounding),
    2 gamma_{n+8} at 2^-53 of N / p for the float64 norm, and underflow, all
    doubled for second order."""
    (n, k), p = G.shape, params.p
    if p not in (1.0, 1.5, 2.0):
        return None
    sums = _power_sums([(params.weights.astype(np.float32), p)],
                       G.astype(np.float32), directions)[0]
    cols = np.sqrt(np.einsum("ij,ij->j", directions, directions))
    lp = np.linalg.norm(np.sqrt(np.einsum("ij,ij->i", G, G)), p)

    def gamma(count: int, u: float) -> float:  # of count roundings at u
        return count * u / (1.0 - count * u)

    u32, u64 = 2.0 ** -24, 2.0 ** -53
    with np.errstate(all="ignore"):
        N = sums ** (1.0 / p)
        E = 2.0 * ((gamma(k + 2, u32) + gamma(k + 2, u64)) * cols * lp
                   + (gamma(2, u32) + 2.0 * gamma(n + 8, u64) + gamma(n + 2, u32)) * N / p
                   + n ** (1.0 / p) * k * (max(G.max(), -G.min()) + cols + 1.0)
                   * 2.0 ** -149 + (n * 2.0 ** -147) ** (1.0 / p))
        lower, upper = N - E, N + E
    return (lower, upper) if np.isfinite([lower, upper]).all() else None


def _image_norm_range(params: LorentzParams, G: np.ndarray, directions: np.ndarray):
    """The float64 (min, max) of lorentz_norm_images(params, G, directions),
    bitwise. With more than two blocks and k > 3 (at k = 3 the directions
    within E of an extreme fill most blocks), where _screen gives bounds,
    only the blocks with a direction with N + E >= max(N - E) or
    N - E <= min(N + E) are formed as in the full call; the others read NaN.
    Elsewhere all are formed."""
    G = _checked(params.n, G, (2,))
    directions = _checked(G.shape[1], directions, (2,))
    (n, k), p = G.shape, params.p
    blocks = _block_bounds(n, directions.shape[1])
    bounds = _screen(params, G, directions) if len(blocks) > 2 and k > 3 else None
    if bounds is not None:
        lower, upper = bounds
        near = (upper >= np.max(lower)) | (lower <= np.min(upper))
        blocks = [(lo, hi) for lo, hi in blocks if near[lo:hi].any()]
    N = _power_sums([(params.weights, p)], G, directions, blocks)[0] ** (1.0 / p)
    return np.nanmin(N), np.nanmax(N)


def psi(params: LorentzParams, x):
    """The potential sum_i w_i x_[i]^p = lorentz_norm(params, x)^p of an
    n-vector (a float), or of each column of an (n, m) matrix (an array)."""
    return _evaluate(params.n, x, (params.weights, params.p))


@dataclass(frozen=True)
class GradientNormResult:
    value: float
    smooth_point: bool  # False at ties or zeros among |x_i| (a null set)


def psi_gradient_norm(params: LorentzParams, x) -> GradientNormResult:
    """Euclidean norm of the gradient of psi: p (sum_i w_i^2 x_[i]^(2(p-1)))^(1/2).

    The formula is valid where the coordinates have distinct nonzero absolute
    values.  At ties or zeros the formula is still evaluated but the result is
    flagged as a non-smooth point.
    """
    x = _checked(params.n, x, (1,))
    xs = np.sort(np.abs(x))
    smooth = bool(xs[0] > 0.0 and np.all(np.diff(xs) > 0.0))
    q = 2.0 * (params.p - 1.0)
    # numpy evaluates 0**0 as 1, which is the convention wanted at p = 1
    value = params.p * _evaluate(params.n, x, (params.weights ** 2, q), 0.5)
    return GradientNormResult(value=value, smooth_point=smooth)


def lipschitz_constant(params: LorentzParams) -> float:
    """Exact supremum of the Lorentz norm over the Euclidean unit sphere.

    Equals (sum_i w_i^(2/(2-p)))^((2-p)/(2p)) for p in [1, 2) and 1 for p >= 2.
    """
    p = params.p
    if p < 1.0:
        raise ValueError("Lipschitz constant is only available for p >= 1")
    if p >= 2.0:
        return 1.0
    w = params.weights
    return float(np.sum(w ** (2.0 / (2.0 - p))) ** ((2.0 - p) / (2.0 * p)))


def lipschitz_maximizer(params: LorentzParams) -> np.ndarray:
    """Unit vector achieving the supremum of the norm over the sphere.

    For p in [1, 2) this is theta_i = w_i^(1/(2-p)) normalized; for p >= 2 the
    supremum is achieved at e_1.
    """
    p = params.p
    if p < 1.0:
        raise ValueError("maximizer is only available for p >= 1")
    n = params.n
    if p >= 2.0:
        theta = np.zeros(n)
        theta[0] = 1.0
        return theta
    w = params.weights
    theta = w ** (1.0 / (2.0 - p))
    return theta / np.linalg.norm(theta)
