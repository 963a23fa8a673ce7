"""Per-link channel statistics.

A link (BS, cell, user) is described by a `UserLinkProfile` holding the
large-scale gain, Rician factor, spatial correlation and LoS direction.
Realizations are h = h_bar + R^{1/2} z with z standard complex Gaussian
(`standard_complex_normal`); the Monte Carlo draws them in the real basis.
A profile holds its own statistics only; what is built from a group of
links belongs to the BS's `estimation.BSStatistics`.

Every correlation family here is Hermitian Toeplitz, hence centro-Hermitian
(J Theta J = conj(Theta) with J the flip), and sums, products and inverses
of such matrices stay centro-Hermitian.  One fixed sparse unitary Q maps all
of them to real symmetric images Q^H Theta Q (Lee, Linear Algebra Appl. 29,
1980), so the set-up decomposes and multiplies real N x N matrices.  For
N = 2m, Q = [[I, iJ], [J, -iI]] / sqrt(2); odd N adds a middle row and
column with entry 1.  `real_image`, `antenna_image` and `real_basis` apply
Q by slicing and flipping, never as a dense product.  A Toeplitz image is
fixed by the first row: `toeplitz_image` writes it as real Toeplitz and
Hankel blocks of that row, so every link keeps only that row
(`row_spectrum`) and never forms its complex N x N matrix.  The dense
constructors `one_ring_correlation` and `exponential_correlation`, and
`real_image`, are the reference the row forms are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# numpy loads these submodules on first use; a command that did so would
# pay the import in its run, so every command loads them with the package
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401
from numpy.lib.stride_tricks import as_strided

# Negative eigenvalues larger than this (in magnitude, relative to the top
# eigenvalue) mean the matrix is genuinely indefinite, not just noisy.
PSD_EPS = 1e-10

# imaginary part allowed in a real image, relative to the largest entry
REAL_IMAGE_TOL = 1e-12

# antenna spacing of the uniform linear array, in wavelengths
SPACING = 0.5

_HALF = math.sqrt(0.5)


class ChannelModelError(ValueError):
    pass


def _apply_q(x: np.ndarray, adjoint: bool) -> np.ndarray:
    """Q v, or Q^H v when `adjoint`, for every vector v along the last axis."""
    n = x.shape[-1]
    m = n // 2
    top, bot = x[..., :m], x[..., n - m :]
    out = np.empty(x.shape, dtype=complex)
    if adjoint:
        out[..., :m] = (top + bot[..., ::-1]) * _HALF
        out[..., n - m :] = (bot - top[..., ::-1]) * (1j * _HALF)
    else:
        out[..., :m] = (top + 1j * bot[..., ::-1]) * _HALF
        out[..., n - m :] = (top[..., ::-1] - 1j * bot) * _HALF
    if n % 2:
        out[..., m] = x[..., m]
    return out


def real_basis(x: np.ndarray) -> np.ndarray:
    """Q^H x for every vector x along the last axis (complex)."""
    return _apply_q(x, adjoint=True)


def antenna_basis(x: np.ndarray) -> np.ndarray:
    """Q x for every vector x along the last axis: `real_basis` undone."""
    return _apply_q(x, adjoint=False)


def real_image(theta: np.ndarray) -> np.ndarray:
    """The real symmetric image Q^H Theta Q of a centro-Hermitian Theta.

    A Theta whose image is not real (it is not centro-Hermitian, e.g. not
    Toeplitz) raises `ChannelModelError`.
    """
    # Q^H Theta, then (Q^H Theta) Q = conj(conj(.) conj(Q)) row by row
    left = _apply_q(theta.T, adjoint=True).T
    image = np.conj(_apply_q(np.conj(left), adjoint=True))
    if np.abs(image.imag).max() > REAL_IMAGE_TOL * np.abs(theta).max():
        raise ChannelModelError("correlation matrix is not centro-Hermitian: its image is not real")
    return np.ascontiguousarray(image.real)


def _hankel(seq: np.ndarray, m: int) -> np.ndarray:
    """Read-only m x m view of seq[u + v] (len(seq) >= 2m - 1)."""
    step = seq.strides[0]
    return as_strided(seq, (m, m), (step, step), writeable=False)


def _hermitian_toeplitz(first_row: np.ndarray) -> np.ndarray:
    """The Hermitian Toeplitz Theta with first row t ([Theta]_uv = t(v - u),
    t(-d) = conj t(d)), as a fresh C-contiguous array: the `_hankel` view of
    the lags 1-N .. N-1, upside down."""
    lags = np.concatenate([np.conj(first_row[:0:-1]), first_row])
    return _hankel(lags, len(first_row))[::-1].copy()


def toeplitz_image(first_row: np.ndarray) -> np.ndarray:
    """`real_image` of the Hermitian Toeplitz Theta with first row t
    ([Theta]_uv = t(v - u), t(-d) = conj t(d), t(0) real), from t alone.

    For N = 2m + o (o = N mod 2) and u, v < m the image is made of real
    Toeplitz (lag v - u) and Hankel (u + v) blocks:
        top-left      Re t(v-u) + Re t(2m-1+o-u-v)
        top-right     Im t(v-u+m+o) - Im t(m-1-u-v)
        bottom-right  Re t(v-u) - Re t(u+v+1+o)
    and an odd N adds the middle row sqrt(2) Re t(m-v), 1, sqrt(2) Im t(1+v).
    Each block is the sum of two strided views of a lag sequence (a
    Toeplitz block is a Hankel one upside down), so the image is exactly
    symmetric and costs O(N^2) real additions.
    """
    n = len(first_row)
    m, o = divmod(n, 2)
    re, im = first_row.real, first_row.imag
    # Re t over the lags 1-m .. m-1, and Im t(m-1-s) over s = 0 .. 2m-2
    re_toeplitz = _hankel(np.concatenate([re[m - 1 : 0 : -1], re[:m]]), m)[::-1]
    im_hankel = _hankel(np.concatenate([im[m - 1 : 0 : -1], -im[:m]]), m)
    tail = re[o + 1 :]
    image = np.empty((n, n))
    np.add(re_toeplitz, _hankel(tail[::-1], m), out=image[:m, :m])
    np.subtract(_hankel(im[o + 1 :], m)[::-1], im_hankel, out=image[:m, n - m :])
    np.subtract(re_toeplitz, _hankel(tail, m), out=image[n - m :, n - m :])
    image[n - m :, :m] = image[:m, n - m :].T
    if o:
        image[m, :m] = image[:m, m] = math.sqrt(2.0) * re[m:0:-1]
        image[m, m + 1 :] = image[m + 1 :, m] = math.sqrt(2.0) * im[1 : m + 1]
        image[m, m] = re[0]
    return image


def antenna_image(x: np.ndarray) -> np.ndarray:
    """Q X Q^H: a real image mapped back to the antenna basis (complex)."""
    left = _apply_q(x.T, adjoint=False).T
    return np.conj(_apply_q(np.conj(left), adjoint=False))


def real_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x (matrices on the last two axes) for a real a and a complex x.

    numpy would copy a to complex on every call; viewing x as interleaved
    real and imaginary columns makes it one real product instead.  Other
    dtype pairs multiply as they are.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return np.matmul(a, x)
    return np.matmul(a, np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


def row_spectrum(first_row: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, first_row): the real eigenpair of `toeplitz_image(first_row)`,
    with the row in place of the image, which is dropped."""
    lam, v = np.linalg.eigh(toeplitz_image(first_row))
    return lam, v, first_row


@functools.cache
def _clenshaw_curtis(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes cos(pi*j/q), j = 0..q, and weights on [-1, 1].

    The weights are the DCT-I of the Chebyshev moments 2/(1 - k^2) (even k;
    odd moments vanish), taken as one length-2q inverse FFT (Waldvogel,
    BIT 46, 2006).  Both arrays are read-only: every caller shares them.
    """
    k = np.arange(0, q + 1, 2)
    moments = np.zeros(2 * q)
    moments[: q + 1 : 2] = 2.0 / (1.0 - k * k)
    moments[q + 1 :] = moments[q - 1 : 0 : -1]
    weights = 2.0 * np.fft.ifft(moments).real[: q + 1]
    weights[[0, q]] *= 0.5
    nodes = np.cos(np.pi / q * np.arange(q + 1))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _running_powers(base: np.ndarray, rows: int, first) -> np.ndarray:
    """(rows, len(base)) table whose row m is first * base**m.

    Each row is the one before times `base`, written in place: a complex
    multiply per entry instead of a complex power.
    """
    table = np.empty((rows, base.size), dtype=complex)
    table[0] = first
    for m in range(1, rows):
        np.multiply(table[m - 1], base, out=table[m])
    return table


def one_ring_first_row(theta_min: float, theta_max: float, n: int) -> np.ndarray:
    """First row t of the one-ring spatial correlation of a uniform linear
    array, [Theta]_uv = t(v - u) for v >= u, with t(0) = 1 exactly.

    [Theta]_uv = 1/(theta_max - theta_min) * int exp(j*2*pi*SPACING*(v-u)
    *cos(theta)) dtheta over [theta_min, theta_max].  Evaluated with a
    Clenshaw-Curtis rule of q + 1 nodes sized to the integrand: at the
    largest lag n - 1 it oscillates with frequency up to
    pi*SPACING*(n - 1)*(theta_max - theta_min) on the rule's [-1, 1],
    and q + 1 is the next power of two at or above 1.25 times that plus 64,
    but at least 2048.  (Power-of-two node counts keep the cached rules
    few.)  Chebyshev coefficients of such an integrand decay
    like Bessel functions past that frequency, so the rule error is at
    round-off level: against a composite Gauss-Legendre reference every
    entry is within 7e-15 for n <= 151 and 1.5e-14 at n = 600, for any
    window up to 2*pi.  The floor makes every call at paper scale share one
    cached rule (`_clenshaw_curtis`); a larger array or wider window builds
    and caches one more size.

    The lag d = b*m + r (b ~ sqrt(n)) factors each node's exponential into
    exp(j*x*b)^m * exp(j*x)^r, so the (n, q + 1) table is two rows of
    exponentials, O(sqrt(n)) rows of their integer powers, each the row
    before times its base (`_running_powers`), and one
    (n/b, q + 1) @ (q + 1, b) product.
    """
    if n < 1:
        raise ChannelModelError(f"n must be >= 1, got {n}")
    if not theta_max > theta_min:
        raise ChannelModelError("degenerate angular window: theta_max must exceed theta_min")
    width = theta_max - theta_min
    size = math.ceil(1.25 * math.pi * SPACING * (n - 1) * width) + 64
    nodes, weights = _clenshaw_curtis(max(2048, 1 << (size - 1).bit_length()) - 1)
    phase = 2.0 * np.pi * SPACING * np.cos(0.5 * (theta_max + theta_min) + 0.5 * width * nodes)
    w = 0.5 * weights
    b = math.isqrt(n - 1) + 1
    coarse = _running_powers(np.exp(1j * b * phase), -(-n // b), 1.0)
    fine = _running_powers(np.exp(1j * phase), b, w)
    # first_row[b*m + r] = sum_q w_q exp(j*phase_q*(b*m + r))
    first_row = (coarse @ fine.T).ravel()[:n]
    first_row[0] = 1.0
    return first_row


def one_ring_correlation(theta_min: float, theta_max: float, n: int) -> np.ndarray:
    """One-ring spatial correlation Theta for a uniform linear array: the
    Hermitian Toeplitz matrix of `one_ring_first_row`."""
    first_row = one_ring_first_row(theta_min, theta_max, n)
    return _hermitian_toeplitz(first_row)


def exponential_first_row(rho: complex, n: int) -> np.ndarray:
    """First row t(d) = rho^d of the exponential correlation, |rho| < 1."""
    if abs(rho) >= 1:
        raise ChannelModelError(f"|rho| must be < 1 to keep the model PSD, got {abs(rho)}")
    return np.asarray(rho, dtype=complex) ** np.arange(n)


def exponential_correlation(rho: complex, n: int) -> np.ndarray:
    """Exponential correlation [Theta]_uv = rho^(v-u) for v >= u: the
    Hermitian Toeplitz matrix of `exponential_first_row`."""
    first_row = exponential_first_row(rho, n)
    return _hermitian_toeplitz(first_row)


def los_steering(theta: float, n: int) -> np.ndarray:
    """ULA steering vector [z]_m = exp(-j*(m-1)*pi*sin(theta)), 1-based m."""
    if n < 1:
        raise ChannelModelError(f"n must be >= 1, got {n}")
    return np.exp(-1j * np.pi * np.sin(theta) * np.arange(n))


def dft_steering(index: int, n: int) -> np.ndarray:
    """Column `index` of the size-n DFT matrix; unit-modulus entries and
    mutually orthogonal across indices (exact favorable propagation)."""
    return np.exp(-2j * np.pi * index * np.arange(n) / n)


def pathloss(distance: float, alpha: float) -> float:
    """Power pathloss distance^(-alpha)."""
    if distance <= 0:
        raise ChannelModelError(f"distance must be positive, got {distance}")
    return float(distance) ** (-alpha)


class UserLinkProfile:
    """Second-order statistics of one (BS, cell, user) link.

    The profile keeps `theta_eig` = (lam, V, t): the `row_spectrum` of the
    first row t of its Hermitian Toeplitz correlation matrix Theta, which
    links with one Theta share.  `theta_image` forms the real image from t
    on each access, bit for bit the array the eigenpair was taken of.  The
    covariance R is the positive multiple `scale` of theta, so its image is
    `scale` times theta's (`r_image`), its eigenvectors are theta's and its
    eigenvalues (`r_eigvals`) are theta's scaled, clamped at zero because
    quadrature-built correlation matrices are often numerically
    semi-definite.  The PSD check, R^{1/2}, the training eigenvalues, the
    estimators and the statistical receiver all read this one
    decomposition.  `h_bar` is in the antenna basis; `theta`, `r_cov` and
    `sqrt_r` map the image back to it (`antenna_image`) on each access.
    """

    def __init__(
        self,
        beta: float,
        kappa: float,
        theta_eig: tuple[np.ndarray, np.ndarray, np.ndarray],
        los_dir: np.ndarray,
        is_local: bool = True,
    ):
        if beta <= 0:
            raise ChannelModelError(f"beta must be positive, got {beta}")
        if kappa < 0:
            raise ChannelModelError(f"kappa must be non-negative, got {kappa}")
        ev = theta_eig[0]
        n = len(ev)
        if los_dir.shape != (n,):
            raise ChannelModelError("los_dir must have length N")
        if ev[0] < -PSD_EPS * max(ev[-1], 1.0):
            raise ChannelModelError(f"theta is not PSD: min eigenvalue {ev[0]:.3e}")
        self.theta_eig, self.is_local = theta_eig, is_local
        if is_local:
            # kappa splits power between scattered and specular parts
            self.scale = beta / (1.0 + kappa)
            self.h_bar = math.sqrt(beta * kappa / (1.0 + kappa)) * los_dir
        else:
            # inter-cell links are pure scattered fading
            self.scale = beta
            self.h_bar = np.zeros(n, dtype=complex)
        self.r_eigvals = self.scale * np.clip(ev, 0.0, None)

    @property
    def n_antennas(self) -> int:
        return len(self.theta_eig[0])

    @property
    def theta_image(self) -> np.ndarray:
        """Q^H Theta Q, formed from the first row on each access."""
        return toeplitz_image(self.theta_eig[2])

    @property
    def theta(self) -> np.ndarray:
        """The correlation matrix, mapped back from its image on each access."""
        return antenna_image(self.theta_image)

    @property
    def r_cov(self) -> np.ndarray:
        """The covariance R = scale * theta, mapped back from `r_image`."""
        return antenna_image(self.r_image)

    @property
    def r_image(self) -> np.ndarray:
        """Q^H R Q, the real image of `r_cov`."""
        return self.scale * self.theta_image

    @property
    def eigvecs(self) -> np.ndarray:
        """Real orthogonal V with Q^H R Q = V diag(r_eigvals) V^T (up to the clamp)."""
        return self.theta_eig[1]

    @property
    def sqrt_r_image(self) -> np.ndarray:
        """Q^H R^{1/2} Q, the real image of `sqrt_r`: the Gram product
        W W^T of W = V diag(lam^{1/4}), exactly symmetric.  A tested
        reference: the Monte Carlo applies it as V (sqrt(lam) * (V^T z))."""
        w = self.eigvecs * np.sqrt(np.sqrt(self.r_eigvals))
        return w @ w.T

    @property
    def sqrt_r(self) -> np.ndarray:
        """Hermitian R^{1/2}, rebuilt from the eigenpair on each access."""
        return antenna_image(self.sqrt_r_image)


def build_profile(
    beta: float,
    kappa: float,
    theta: np.ndarray | None,
    los_dir: np.ndarray,
    is_local: bool = True,
    theta_eig: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> UserLinkProfile:
    """A link from its correlation matrix theta, or, when theta_eig is given,
    from that `row_spectrum` of theta's first row (theta is then unread).

    theta must be square and Hermitian Toeplitz: it may differ from the
    Hermitian Toeplitz matrix of its first row by at most REAL_IMAGE_TOL
    times its largest entry, or `ChannelModelError` is raised.  The link
    keeps a copy of that row, not theta.
    """
    if theta_eig is None:
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ChannelModelError("theta must be N x N")
        n, row = theta.shape[0], theta[0].astype(complex)
        # t(-(n-1)) .. t(n-1), with t(-d) = conj t(d) and t(0) taken real
        lags = np.concatenate([np.conj(row[::-1]), row[1:]])
        if np.abs(theta - _hankel(lags, n)[::-1]).max() > REAL_IMAGE_TOL * np.abs(theta).max():
            raise ChannelModelError("correlation matrix is not Hermitian Toeplitz")
        theta_eig = row_spectrum(row)
    return UserLinkProfile(beta, kappa, theta_eig, los_dir, is_local)


def standard_complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """CN(0, 1) samples: unit variance split evenly between re/im parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


@dataclass
class ScenarioGeometry:
    """Cell layout and user drop used to derive link statistics."""

    cell_centers: np.ndarray  # (L, 2) meters
    user_positions: np.ndarray  # (L, K, 2) meters

    def distance(self, bs: int, cell: int, user: int) -> float:
        d = np.linalg.norm(self.user_positions[cell, user] - self.cell_centers[bs])
        if d <= 0:
            raise ChannelModelError("user-BS distance must be positive")
        return float(d)

    def arrival_angle(self, bs: int, cell: int, user: int) -> float:
        dx, dy = self.user_positions[cell, user] - self.cell_centers[bs]
        return math.atan2(dy, dx)


MIN_USER_DISTANCE_M = 1.0
CELL_EDGE_FRACTION = 0.95
CELL_EDGE_JITTER_RAD = math.radians(5.0)


def drop_users(
    cell_centers: np.ndarray,
    cell_radius: float,
    n_users: int,
    placement: str,
    rng: np.random.Generator,
) -> ScenarioGeometry:
    """Place users per cell.

    `uniform_disk`: uniform over the annulus [1 m, cell_radius] around each BS.
    `cell_edge`: users at 0.95*radius toward the layout centroid, with a +-5
    degree angular jitter, which maximizes inter-cell interference and keeps
    the arrival angles close.
    """
    if n_users < 1:
        raise ChannelModelError("need at least one user")
    if cell_radius <= 0:
        raise ChannelModelError("cell_radius must be positive")
    cell_centers = np.atleast_2d(np.asarray(cell_centers, dtype=float))
    n_cells = cell_centers.shape[0]
    positions = np.zeros((n_cells, n_users, 2))
    centroid = cell_centers.mean(axis=0)
    for j in range(n_cells):
        if placement == "uniform_disk":
            lo, hi = MIN_USER_DISTANCE_M**2, cell_radius**2
            r = np.sqrt(rng.uniform(lo, hi, size=n_users))
            phi = rng.uniform(-np.pi, np.pi, size=n_users)
        elif placement == "cell_edge":
            to_centroid = centroid - cell_centers[j]
            if np.linalg.norm(to_centroid) < 1e-9:
                # single-cell layout has no meaningful centroid direction
                base = 0.0
            else:
                base = math.atan2(to_centroid[1], to_centroid[0])
            r = np.full(n_users, CELL_EDGE_FRACTION * cell_radius)
            phi = base + rng.uniform(-CELL_EDGE_JITTER_RAD, CELL_EDGE_JITTER_RAD, size=n_users)
        else:
            raise ChannelModelError(f"unknown placement {placement!r}")
        positions[j, :, 0] = cell_centers[j, 0] + r * np.cos(phi)
        positions[j, :, 1] = cell_centers[j, 1] + r * np.sin(phi)
    return ScenarioGeometry(cell_centers=cell_centers, user_positions=positions)
