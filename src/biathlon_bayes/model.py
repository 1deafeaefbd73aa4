"""Hierarchical binomial-logit model of shooting sessions.

Each session records ``hits`` out of 5 shots.  On the log-odds scale,

    eta = mu[t] + beta[s, t] + gamma[s, x] + omega[s, z]

for stage ``t``, athlete ``s``, position ``x`` and race type ``z``.  The
stage baseline ``mu`` and every athlete's ``beta`` trajectory follow
Gaussian random walks over stages (first element anchored at a 0 mean), so
form persists smoothly between stages.  ``gamma`` and ``omega`` are iid
normal athlete effects.

Identifiability comes from hard sum-to-zero reparameterizations: athlete
``S``'s beta trajectory is the negative column sum of the ``S-1`` free
trajectories, each athlete's standing effect is the negative of the prone
effect, and the last race-type effect is the negative row sum.  The free
coordinate vector is therefore

    mu[T], beta_free[(S-1) x T], gamma_free[S], omega_free[S x (Z-1)],
    log_sigma[4]

where the four scale parameters (one per effect class) carry half-normal
priors on the standard-deviation scale, sampled as logs with the
change-of-variables term included.  All densities keep their normalization
constants so scale comparisons are meaningful.

Free coordinates become effects only through :func:`from_vector` and
:func:`expand`, and effects become log-odds only through :func:`log_odds`.
These three take leading draw axes: an ``(M, dim)`` stack of vectors gives
arrays that all start with ``M`` (only trailing shapes are checked).  The
densities and the gradient take one state at a time.  The map from free
coordinates to log-odds is linear, and its Jacobian
(:func:`log_odds_jacobian`) is that same map evaluated at unit vectors, so
eta and its derivative come from :func:`log_odds` alone.  Each latent
prior class, its coordinate rows and its unit prior precision, is defined
once, by :func:`prior_classes`: :func:`class_stats`, :func:`log_prior` and
the prior term of :func:`grad_log_posterior` read it, as does the sampler.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .data import LOG_CHOOSE, Dataset, RACE_TYPES, SHOTS_PER_BOUT
from .errors import DataError

LN2 = float(np.log(2.0))
LN2PI = float(np.log(2.0 * np.pi))

SIGMA_NAMES = ("mu", "beta", "gamma", "omega")


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and prior scale of one model instance.

    S athletes, T stages, Z race types (indices into the first Z entries of
    ``data.RACE_TYPES``).  ``sigma_scale`` is the half-normal scale on each
    of the four effect-class standard deviations.  ``mu_only`` clamps every
    effect but the stage baseline (and fixes its random-walk sd at 1.0),
    leaving T free coordinates — the reduced shape used by the quadrature
    oracle.
    """

    S: int
    T: int
    Z: int = 4
    sigma_scale: float = 1.0
    mu_only: bool = False

    def __post_init__(self):
        # DataError because degenerate shapes normally arrive via a dataset
        # (a single-athlete file has no identifiable relative effects) or a
        # draws manifest (a CSV sidecar carries no checksum)
        for name in ("S", "T", "Z"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DataError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.mu_only, (bool, np.bool_)):
            raise DataError(f"mu_only must be a bool, got {self.mu_only!r}")
        if self.S < 2:
            raise DataError(f"S must be >= 2, got {self.S}")
        if self.T < 1:
            raise DataError(f"T must be >= 1, got {self.T}")
        if not 2 <= self.Z <= len(RACE_TYPES):
            raise DataError(f"Z must be in 2..{len(RACE_TYPES)}, got {self.Z}")
        c = self.sigma_scale
        if isinstance(c, bool) or not isinstance(c, (int, float, np.integer, np.floating)) \
                or not 0 < c < np.inf:
            raise DataError(f"sigma_scale must be a finite positive number, got {c!r}")

    @classmethod
    def for_dataset(cls, d: Dataset) -> "ModelSpec":
        """The default-prior model of every race type for ``d``'s athletes and stages."""
        return cls(S=d.n_athletes, T=d.n_stages)

    @property
    def dim(self) -> int:
        return layout(self).sigma.stop


@dataclass(eq=False)
class ParameterState:
    """One point in the free-coordinate space (see module docstring)."""

    mu: np.ndarray
    beta_free: np.ndarray
    gamma_free: np.ndarray
    omega_free: np.ndarray
    log_sigma: np.ndarray

    @classmethod
    def zeros(cls, spec: ModelSpec) -> "ParameterState":
        return from_vector(np.zeros(spec.dim), spec)


class Effects(NamedTuple):
    """Constrained effect arrays produced by :func:`expand`."""

    mu: np.ndarray      # (..., T)
    beta: np.ndarray    # (..., S, T), sums to 0 over athletes
    gamma: np.ndarray   # (..., S, 2), prone then standing, rows sum to 0
    omega: np.ndarray   # (..., S, Z), rows sum to 0
    sigma: np.ndarray   # (..., 4) positive


def _check_state(p: ParameterState, spec: ModelSpec, lead: tuple):
    shapes = {
        "mu": (p.mu.shape, (spec.T,)),
        "beta_free": (p.beta_free.shape, (spec.S - 1, spec.T)),
        "gamma_free": (p.gamma_free.shape, (spec.S,)),
        "omega_free": (p.omega_free.shape, (spec.S, spec.Z - 1)),
        "log_sigma": (p.log_sigma.shape, (4,)),
    }
    for name, (got, want) in shapes.items():
        if got != lead + want:
            raise DataError(f"{name} has shape {got}, expected {lead + want}")


def expand(p: ParameterState, spec: ModelSpec) -> Effects:
    """Expand free coordinates to the constrained effect arrays.

    The sum-to-zero identities hold exactly by construction.
    """
    _check_state(p, spec, p.mu.shape[:-1])
    beta = np.concatenate([p.beta_free, -p.beta_free.sum(axis=-2, keepdims=True)], axis=-2)
    gamma = np.stack([p.gamma_free, -p.gamma_free], axis=-1)
    omega = np.concatenate([p.omega_free, -p.omega_free.sum(axis=-1, keepdims=True)], axis=-1)
    return Effects(p.mu, beta, gamma, omega, np.exp(p.log_sigma))


def log_odds(eff: Effects, athlete, stage, position, race) -> np.ndarray:
    """Log-odds ``mu + beta + gamma + omega`` of (athlete, stage, position,
    race type) cells, all 0-based.  The four indices broadcast together,
    and the result keeps any leading draw axes of ``eff`` in front."""
    return (
        eff.mu[..., stage]
        + eff.beta[..., athlete, stage]
        + eff.gamma[..., athlete, position]
        + eff.omega[..., athlete, race]
    )


def _check_indices(d: Dataset, spec: ModelSpec):
    a = d.arrays
    if len(a.athlete) == 0:
        return a
    if a.athlete.max() >= spec.S:
        raise DataError(f"athlete index {a.athlete.max()} out of range for S={spec.S}")
    if a.stage0.max() >= spec.T:
        raise DataError(f"stage {a.stage0.max() + 1} out of range for T={spec.T}")
    if a.race.max() >= spec.Z:
        raise DataError(
            f"race type {RACE_TYPES[a.race.max()]!r} out of range for Z={spec.Z}"
        )
    return a


def linear_predictors(p: ParameterState, d: Dataset, spec: ModelSpec) -> np.ndarray:
    """Log-odds eta for every record in the dataset, in record order."""
    a = _check_indices(d, spec)
    return log_odds(expand(p, spec), a.athlete, a.stage0, a.position, a.race)


def log_odds_jacobian(d: Dataset, spec: ModelSpec, idx) -> np.ndarray:
    """d eta / d x[idx]: a ``(records, len(idx))`` matrix whose column j is
    :func:`linear_predictors` at the unit vector of coordinate ``idx[j]``.
    The map is linear, so every entry is exactly 0, 1 or -1."""
    idx = np.asarray(idx)
    unit = np.zeros((len(idx), spec.dim))
    unit[np.arange(len(idx)), idx] = 1.0
    return np.ascontiguousarray(linear_predictors(from_vector(unit, spec), d, spec).T)


def bout_log_likelihoods(hits: np.ndarray, eta: np.ndarray, shots=SHOTS_PER_BOUT,
                         log_choose=None) -> np.ndarray:
    """Binomial(shots, expit(eta)) log-pmf of each row, stable for any
    finite eta.  ``log_choose`` defaults to a five-shot bout's ln C(5, y).
    A row of a ``data.CellTable`` passes its cell's total ``shots`` and
    ``log_choose``, its sessions' summed ln C(5, y), and gives the sum of
    their log-pmfs."""
    if log_choose is None:
        log_choose = LOG_CHOOSE[hits]
    # ln C + y*eta - n*ln(1 + e^eta); never materializes p near 0/1
    return log_choose + hits * eta - shots * np.logaddexp(0.0, eta)


def log_likelihood(p: ParameterState, d: Dataset, spec: ModelSpec) -> float:
    eta = linear_predictors(p, d, spec)
    return float(np.sum(bout_log_likelihoods(d.arrays.hits, eta)))


def rw_precision(T: int) -> np.ndarray:
    """Unit precision of the anchored random walk of length ``T``: x_1 and
    every increment N(0, 1), so ``x @ P @ x`` is x_1^2 plus the squared
    increments.  A tridiagonal band (Rue & Held 2005, *Gaussian Markov
    Random Fields*, ch. 3)."""
    q = 2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1)
    q[-1, -1] = 1.0  # the last coordinate enters one increment only
    return q


def class_stats(p: ParameterState, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per class of :func:`prior_classes`: its coordinate count n_k and its
    sum of squares ss_k, the sum of its rows' shares ``v @ P_k @ v``.  A
    priori the class is n_k iid N(0, sigma_k^2) terms with that sum of
    squares."""
    x = to_vector(p, spec)
    classes = prior_classes(spec)
    n = np.array([c.rows.size for c in classes], dtype=float)
    # the shares' sum as one dot product <V P, V> of the row stack V:
    # shares(V).sum() made log_prior 1.3x as slow at paper scale
    return n, np.array([np.vdot(x[c.rows] @ c.precision, x[c.rows]) for c in classes])


def _gauss_class_logp(n: int, ss: float, v: float) -> float:
    # n iid N(0, e^v) increments with total sum of squares ss
    return -0.5 * n * LN2PI - n * v - 0.5 * ss * np.exp(-2.0 * v)


def _halfnormal_log_logp(v: float, c: float) -> float:
    # half-normal(c) density of sigma = e^v, plus the log-scale Jacobian e^v
    return LN2 - 0.5 * LN2PI - np.log(c) - np.exp(2.0 * v) / (2.0 * c * c) + v


def log_prior(p: ParameterState, spec: ModelSpec) -> float:
    """Joint log prior over the free coordinates (normalized)."""
    _check_state(p, spec, ())
    n, ss = class_stats(p, spec)
    if spec.mu_only:
        return float(_gauss_class_logp(n[0], ss[0], 0.0))
    v = p.log_sigma
    # summed left to right: the four classes, then the four scale priors
    return float(sum([_gauss_class_logp(n[k], ss[k], v[k]) for k in range(4)]
                     + [_halfnormal_log_logp(v[k], spec.sigma_scale) for k in range(4)]))


def log_posterior(p: ParameterState, d: Dataset, spec: ModelSpec) -> float:
    return log_likelihood(p, d, spec) + log_prior(p, spec)


def grad_log_posterior(p: ParameterState, d: Dataset, spec: ModelSpec) -> np.ndarray:
    """Exact gradient with respect to the free coordinates.

    The likelihood term per bout is (hits - 5 p) on eta; constraint
    expansion propagates a -1 through athlete S's trajectory, the standing
    position, and the last race type.
    """
    _check_state(p, spec, ())
    a = _check_indices(d, spec)
    eta = linear_predictors(p, d, spec)
    resid = a.hits - SHOTS_PER_BOUT * expit(eta)

    S, T, Z = spec.S, spec.T, spec.Z
    stage_resid = np.zeros((S, T))
    np.add.at(stage_resid, (a.athlete, a.stage0), resid)
    g = stage_resid.sum(axis=0)
    if not spec.mu_only:
        g_beta = stage_resid[: S - 1] - stage_resid[S - 1]
        possign = 1.0 - 2.0 * a.position  # prone +1, standing -1
        g_gamma = np.zeros(S)
        np.add.at(g_gamma, a.athlete, resid * possign)
        race_resid = np.zeros((S, Z))
        np.add.at(race_resid, (a.athlete, a.race), resid)
        g_omega = race_resid[:, : Z - 1] - race_resid[:, Z - 1][:, None]
        g = np.concatenate([g, g_beta.ravel(), g_gamma, g_omega.ravel()])

    # the gradient of each class's prior term -lam_k (v @ P_k @ v) / 2
    x = to_vector(p, spec)
    lam = np.ones(1) if spec.mu_only else np.exp(-2.0 * p.log_sigma)
    for k, cls in enumerate(prior_classes(spec)):
        g[cls.rows] -= (x[cls.rows] @ cls.precision) * lam[k]
    if spec.mu_only:
        return g

    c = spec.sigma_scale
    n, ss = class_stats(p, spec)
    return np.concatenate([g, -n + ss * lam - np.exp(2.0 * p.log_sigma) / c**2 + 1.0])


class VectorLayout(NamedTuple):
    """Slices of the flat free-coordinate vector, one per effect class."""

    mu: slice
    beta: slice
    gamma: slice
    omega: slice
    sigma: slice


def layout(spec: ModelSpec) -> VectorLayout:
    T = spec.T
    if spec.mu_only:
        empty = slice(T, T)
        return VectorLayout(slice(0, T), empty, empty, empty, empty)
    S, Z = spec.S, spec.Z
    o1 = T + (S - 1) * T
    o2 = o1 + S
    o3 = o2 + S * (Z - 1)
    return VectorLayout(slice(0, T), slice(T, o1), slice(o1, o2), slice(o2, o3), slice(o3, o3 + 4))


class PriorClass(NamedTuple):
    """One latent prior class: its name in ``SIGMA_NAMES``, its rows as an
    ``(r, n)`` array of free-coordinate indices, and its unit prior
    precision ``P`` ``(n, n)``.  Each row ``v`` is a priori
    N(0, sigma_k^2 P^-1) independently of the others, so the class's sum of
    squares is the sum of its rows' shares ``v @ P @ v``."""

    name: str
    rows: np.ndarray
    precision: np.ndarray

    def shares(self, v: np.ndarray) -> np.ndarray:
        """``v @ P @ v`` of one row ``v``, or of each row of a stack.  Each
        row is its own ``(1, n) @ P`` product, so a row has the same bits
        alone as in any stack: ``v @ P`` of a stack goes through another
        BLAS routine than of one row, and the two round differently."""
        return (np.matmul(v[..., None, :], self.precision)[..., 0, :] * v).sum(axis=-1)


@functools.cache
def prior_classes(spec: ModelSpec) -> tuple[PriorClass, ...]:
    """The latent prior classes in ``SIGMA_NAMES`` order: the stage
    baseline (one row) and the free trajectories (one per athlete) with the
    random-walk band, the position effects and the race-effect rows (one
    per athlete each) with the identity.  A ``mu_only`` spec has mu only.
    Built once per spec and shared by every caller, so its arrays are
    read-only."""
    lay, idx = layout(spec), np.arange(spec.dim)
    walk = rw_precision(spec.T)
    classes = [PriorClass("mu", idx[lay.mu][None], walk)]
    if not spec.mu_only:
        S, Z = spec.S, spec.Z
        classes += [
            PriorClass("beta", idx[lay.beta].reshape(S - 1, spec.T), walk),
            PriorClass("gamma", idx[lay.gamma].reshape(S, 1), np.eye(1)),
            PriorClass("omega", idx[lay.omega].reshape(S, Z - 1), np.eye(Z - 1)),
        ]
    for c in classes:
        c.rows.flags.writeable = c.precision.flags.writeable = False
    return tuple(classes)


def to_vector(p: ParameterState, spec: ModelSpec) -> np.ndarray:
    """Flatten a state into the free-coordinate vector (sampler layout)."""
    _check_state(p, spec, ())
    if spec.mu_only:
        return p.mu.copy()
    return np.concatenate(
        [p.mu, p.beta_free.ravel(), p.gamma_free, p.omega_free.ravel(), p.log_sigma]
    )


def from_vector(vec: np.ndarray, spec: ModelSpec) -> ParameterState:
    """The state of a free-coordinate vector, or of each row of a stack of
    them (the last axis is the vector).  The arrays are views into ``vec``
    where possible; a ``mu_only`` state holds zeros for the clamped effects."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (spec.dim,):
        raise DataError(f"expected vectors of length {spec.dim}, got shape {vec.shape}")
    lead = vec.shape[:-1]
    S, T, Z = spec.S, spec.T, spec.Z
    if spec.mu_only:
        zeros = [np.zeros(lead + shape) for shape in ((S - 1, T), (S,), (S, Z - 1), (4,))]
        return ParameterState(vec, *zeros)
    lay = layout(spec)
    return ParameterState(
        vec[..., lay.mu],
        vec[..., lay.beta].reshape(lead + (S - 1, T)),
        vec[..., lay.gamma],
        vec[..., lay.omega].reshape(lead + (S, Z - 1)),
        vec[..., lay.sigma],
    )


def sample_prior(spec: ModelSpec, rng: np.random.Generator) -> ParameterState:
    """Draw a state from the prior.  Draw order is fixed (scales, mu, beta,
    gamma, omega) so results are reproducible for a given generator state."""
    p = ParameterState.zeros(spec)
    if spec.mu_only:
        p.mu = np.cumsum(rng.normal(0.0, 1.0, spec.T))
        return p
    sigma = np.abs(rng.normal(0.0, spec.sigma_scale, 4))
    p.log_sigma = np.log(sigma)
    p.mu = np.cumsum(rng.normal(0.0, sigma[0], spec.T))
    p.beta_free = np.cumsum(rng.normal(0.0, sigma[1], (spec.S - 1, spec.T)), axis=1)
    p.gamma_free = rng.normal(0.0, sigma[2], spec.S)
    p.omega_free = rng.normal(0.0, sigma[3], (spec.S, spec.Z - 1))
    return p


def param_names(spec: ModelSpec) -> tuple[str, ...]:
    """Display names for the free coordinates, in vector order (1-based
    athlete/stage indices; athlete S and the last race type are constrained
    and carry no coordinate)."""
    names = [f"mu[{t}]" for t in range(1, spec.T + 1)]
    if spec.mu_only:
        return tuple(names)
    for s in range(1, spec.S):
        names += [f"beta[{s},{t}]" for t in range(1, spec.T + 1)]
    names += [f"gamma_prone[{s}]" for s in range(1, spec.S + 1)]
    for s in range(1, spec.S + 1):
        names += [f"omega[{s},{r}]" for r in RACE_TYPES[: spec.Z - 1]]
    names += [f"log_sigma_{k}" for k in SIGMA_NAMES]
    return tuple(names)
