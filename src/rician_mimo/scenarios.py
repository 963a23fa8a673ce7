"""Scenario specification, parsing and construction of link profiles.

A `ScenarioSpec` is a flat, typed key-value description of one experiment
(see README for the file grammar).  `build_scenario` turns it into concrete
per-link statistics: user drop, pathloss, per-user Rician factors, the
first row of each link's Toeplitz correlation matrix with its eigenpair
(a cell's one-ring eigenvectors written into one (N, K, N) array), and LoS
directions.  Each BS's links are held in its
`estimation.BSStatistics`, the one copy of the per-BS statistics that
every scheme reads.

Large-scale gains are normalized to the cell edge (beta = (x/radius)^-alpha)
so that `snr_data` is the data SNR of a cell-edge user.  Every SE is in
nats until the row builder, `sweeps`, multiplies it by `log_scale`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    MIN_USER_DISTANCE_M,
    ScenarioGeometry,
    UserLinkProfile,
    build_profile,
    dft_steering,
    drop_users,
    exponential_first_row,
    los_steering,
    one_ring_first_row,
    pathloss,
    row_spectrum,
)
from .config import ConfigError, SystemConfig
from .estimation import BSStatistics

LAYOUTS = ("single_cell", "three_cell_edge")
CORRELATIONS = ("one_ring", "exponential", "identity")
LOS_MODES = ("steering", "dft")
PLACEMENTS = ("uniform_disk", "cell_edge")
TAU_MODES = ("minimum", "optimal", "fixed")
LOG_BASES = ("natural", "base2")

# arrival angles too close to zero give a degenerate one-ring window
MIN_ANGULAR_SPREAD = 1e-3


@dataclass(frozen=True)
class ScenarioSpec:
    layout: str = "single_cell"
    n: int = 150
    k: int = 20
    l: int = 1
    t: int = 500
    radius_m: float = 150.0
    alpha: float = 2.5
    kappa_max: float = 1.0
    correlation: str = "one_ring"
    corr_rho: float = 0.5
    los: str = "steering"
    placement: str = "uniform_disk"
    seed: int = 0
    trials: int = 1000
    snr_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    snr_training_db: float | None = None
    tau_mode: str = "minimum"
    tau: int = 0
    log_base: str = "natural"
    scenario_id: str = "scenario"

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ConfigError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.correlation not in CORRELATIONS:
            raise ConfigError(f"correlation must be one of {CORRELATIONS}, got {self.correlation!r}")
        if self.los not in LOS_MODES:
            raise ConfigError(f"los must be one of {LOS_MODES}, got {self.los!r}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.tau_mode not in TAU_MODES:
            raise ConfigError(f"tau_mode must be one of {TAU_MODES}, got {self.tau_mode!r}")
        if self.log_base not in LOG_BASES:
            raise ConfigError(f"log_base must be one of {LOG_BASES}, got {self.log_base!r}")
        for name in ("n", "k", "t"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.layout == "single_cell" and self.l != 1:
            raise ConfigError("layout single_cell requires l = 1")
        if self.layout == "three_cell_edge" and self.l != 3:
            raise ConfigError("layout three_cell_edge requires l = 3")
        for name in ("radius_m", "alpha", "kappa_max", "corr_rho", "snr_training_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not all(map(math.isfinite, self.snr_grid_db)):
            raise ConfigError(f"snr_grid_db entries must be finite, got {self.snr_grid_db!r}")
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            raise ConfigError(f"snr_grid_db repeats a point, got {self.snr_grid_db!r}")
        for db in (*self.snr_grid_db, self.snr_training_db):
            try:
                ok = db is None or 10.0 ** (db / 10.0) > 0.0
            except OverflowError:
                ok = False
            if not ok:
                raise ConfigError(f"SNR {db!r} dB overflows or underflows as a linear value")
        if self.radius_m <= 0 or self.alpha <= 0:
            raise ConfigError("radius_m and alpha must be positive")
        try:
            ok = self.radius_m**2 > 0.0 and self.radius_m ** (-self.alpha) > 0.0
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(
                f"radius_m {self.radius_m!r} with alpha {self.alpha!r}: R^2 or R^-alpha"
                " overflows or underflows to 0"
            )
        if self.placement == "uniform_disk" and self.radius_m < MIN_USER_DISTANCE_M:
            raise ConfigError(f"uniform_disk placement needs radius_m >= {MIN_USER_DISTANCE_M:g} m")
        if self.correlation == "exponential" and abs(self.corr_rho) >= 1:
            raise ConfigError(f"exponential correlation needs |corr_rho| < 1, got {self.corr_rho}")
        if self.kappa_max < 0:
            raise ConfigError("kappa_max must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.tau_mode == "fixed":
            if not (self.k <= self.tau < self.t):
                raise ConfigError(
                    f"tau violates K <= tau < T: tau={self.tau}, K={self.k}, T={self.t}"
                )
        elif self.tau != 0:
            raise ConfigError(f"tau = {self.tau} is read only with tau_mode = fixed")
        if self.k >= self.t:
            raise ConfigError("coherence length t must exceed the user count k")
        if any(ch in self.scenario_id for ch in ',"\r\n'):
            raise ConfigError(f"scenario_id holds a comma, quote or line break: {self.scenario_id!r}")

    @property
    def log_scale(self) -> float:
        """Factor that converts an SE in nats to the spec's log base."""
        return 1.0 / math.log(2.0) if self.log_base == "base2" else 1.0

    def system_config(self, snr_db: float) -> SystemConfig:
        """The operating point at `snr_db`, with tau in `fixed` mode and K
        otherwise (`sweeps.operating_points` solves the `optimal` tau*)."""
        rho_d = 10.0 ** (snr_db / 10.0)
        tr_db = self.snr_training_db if self.snr_training_db is not None else snr_db
        return SystemConfig(
            n_antennas=self.n,
            n_users=self.k,
            coherence_len=self.t,
            training_len=self.tau if self.tau_mode == "fixed" else self.k,
            snr_data=rho_d,
            snr_training=10.0 ** (tr_db / 10.0),
        )


@dataclass
class Scenario:
    """Concrete link statistics for one spec: profiles[bs] is BS bs's
    `BSStatistics`, and profiles[bs][cell][user] a link."""

    spec: ScenarioSpec
    geometry: ScenarioGeometry
    profiles: list[BSStatistics]
    kappas: np.ndarray  # (L, K) local Rician factors

    @property
    def n_cells(self) -> int:
        return len(self.profiles)

    @property
    def n_users(self) -> int:
        return len(self.profiles[0][0])

    def local_profiles(self, bs: int) -> list[UserLinkProfile]:
        return self.profiles[bs][bs]

    def single_cell_view(self, bs: int = 0) -> "Scenario":
        """Cell `bs` in isolation: the same served links in statistics of
        their own, with no other cells."""
        spec = dataclasses.replace(
            self.spec, layout="single_cell", l=1, scenario_id=self.spec.scenario_id + f"-cell{bs}"
        )
        geometry = ScenarioGeometry(
            cell_centers=self.geometry.cell_centers[bs : bs + 1],
            user_positions=self.geometry.user_positions[bs : bs + 1],
        )
        return Scenario(
            spec=spec,
            geometry=geometry,
            profiles=[BSStatistics([self.profiles[bs][bs]], 0)],
            kappas=self.kappas[bs : bs + 1],
        )


def _cell_centers(spec: ScenarioSpec) -> np.ndarray:
    if spec.layout == "single_cell":
        return np.zeros((1, 2))
    # three touching cells: equilateral triangle of side 2*radius
    circum = 2.0 * spec.radius_m / math.sqrt(3.0)
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return circum * np.column_stack([np.cos(angles), np.sin(angles)])


def _one_ring_window(theta_k: float) -> tuple[float, float]:
    """The one-ring angular window [-pi, theta_k - pi] of arrival angle
    theta_k, endpoints ordered."""
    if abs(theta_k) < MIN_ANGULAR_SPREAD:
        theta_k = MIN_ANGULAR_SPREAD if theta_k >= 0 else -MIN_ANGULAR_SPREAD
    lo, hi = -math.pi, theta_k - math.pi
    return (hi, lo) if hi < lo else (lo, hi)


def _shared_correlation(spec: ScenarioSpec):
    """The `row_spectrum` of the first row of the families whose theta is the
    same for every link (rho^d, or e_0 for the identity), so one tuple and
    one decomposition serve the whole scenario; None for one-ring."""
    if spec.correlation == "one_ring":
        return None
    if spec.correlation == "exponential":
        row = exponential_first_row(spec.corr_rho, spec.n)
    else:
        row = np.eye(1, spec.n, dtype=complex)[0]
    return row_spectrum(row)


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Deterministic scenario construction from the spec seed.

    The Rician factors are drawn once per scenario (kappa ~ U[0, kappa_max]
    via fixed uniforms scaled by kappa_max), so sweeping kappa_max keeps the
    rest of the scenario identical.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    centers = _cell_centers(spec)
    geometry = drop_users(centers, spec.radius_m, spec.k, spec.placement, rng)
    kappa_u = rng.uniform(0.0, 1.0, size=(spec.l, spec.k))
    kappas = kappa_u * spec.kappa_max
    edge_loss = pathloss(spec.radius_m, spec.alpha)
    shared = _shared_correlation(spec)
    profiles: list[BSStatistics] = []
    for j in range(spec.l):
        per_bs = []
        for ell in range(spec.l):
            per_cell = []
            # the cell's one-ring eigenvectors: one C-contiguous array whose
            # [:, k] link k holds, so a single-cell BS reads them as they are
            vecs = np.empty((spec.n, spec.k, spec.n)) if shared is None else None
            for k in range(spec.k):
                try:
                    beta = pathloss(geometry.distance(j, ell, k), spec.alpha) / edge_loss
                except OverflowError:
                    beta = math.inf
                if not 0.0 < beta < math.inf:
                    raise ConfigError(
                        f"radius_m {spec.radius_m!r} and alpha {spec.alpha!r} put the gain of"
                        f" user {k} of cell {ell} at BS {j} out of floating-point range"
                    )
                theta_k = geometry.arrival_angle(j, ell, k)
                corr_eig = shared
                if corr_eig is None:
                    row = one_ring_first_row(*_one_ring_window(theta_k), spec.n)
                    lam, vecs[:, k], _ = row_spectrum(row)
                    corr_eig = (lam, vecs[:, k], row)
                if spec.los == "dft":
                    los = dft_steering(k, spec.n)
                else:
                    los = los_steering(theta_k, spec.n)
                per_cell.append(
                    build_profile(
                        beta, kappas[ell, k], None, los, is_local=(j == ell), theta_eig=corr_eig
                    )
                )
            per_bs.append(per_cell)
        profiles.append(BSStatistics(per_bs, j))
    return Scenario(spec=spec, geometry=geometry, profiles=profiles, kappas=kappas)


# ---------------------------------------------------------------------------
# flat key-value config files

_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ScenarioSpec)}


def parse_float_list(text: str, name: str, sep: str = ",") -> tuple[float, ...]:
    """Numbers separated by `sep`; a malformed one is a configuration error."""
    try:
        return tuple(float(p) for p in text.split(sep))
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {text!r} as numbers") from exc


def parse_snr_range(text: str, name: str) -> tuple[float, ...]:
    """Points of a `lo:hi:step` SNR range in dB, both ends included."""
    if text.count(":") != 2:
        raise ConfigError(f"{name}: expected lo:hi:step, got {text!r}")
    lo, hi, step = parse_float_list(text, name, sep=":")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ConfigError(f"{name}: need finite values, step > 0 and hi >= lo")
    count = int(round((hi - lo) / step))
    if not math.isclose(count * step, hi - lo, rel_tol=1e-9):
        raise ConfigError(f"{name}: step {step:g} does not divide hi - lo = {hi - lo:g}")
    return tuple(lo + i * step for i in range(count + 1))


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name == "snr_grid_db":
        if ":" in raw:
            return parse_snr_range(raw, f"field {name}")
        return parse_float_list(raw, f"field {name}")
    ftype = _FIELD_TYPES[name].type
    try:
        if name == "snr_training_db":
            return None if raw.lower() == "none" else float(raw)
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"field {name}: cannot parse {raw!r} as {ftype}") from exc


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a flat key = value scenario file; errors name the offending field."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return ScenarioSpec(**values)


def serialize_scenario(spec: ScenarioSpec) -> str:
    lines = []
    for f in dataclasses.fields(ScenarioSpec):
        value = getattr(spec, f.name)
        if f.name == "snr_grid_db":
            value = ",".join(repr(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
