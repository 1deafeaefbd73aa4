"""Adaptive Metropolis-within-Gibbs sampling, convergence diagnostics, and
the draws container.

One sweep visits a fixed block sequence: the stage baseline vector, each
free athlete's trajectory, the per-athlete position scalars, each athlete's
race-effect row, then the four log scales.  Each block takes a
Metropolis-Hastings step scaled by an adaptive scalar step size, shaped by
a block preconditioner: vector blocks use the Cholesky factor of a local
Gaussian approximation (likelihood Fisher information plus the exact prior
precision at the current scale parameters — for trajectory blocks that is
the tridiagonal random-walk precision, which carries the prior's serial
correlation into the proposal), scalar blocks a fixed information-based
scale.  The step size adapts by Robbins-Monro during burn-in only (toward
0.35 acceptance for vector blocks, 0.44 for scalars) and is frozen
afterwards, so the post-burn-in kernel is a valid fixed MCMC kernel.  In
``gradient_assisted`` mode the proposal gains a Langevin drift of half the
squared step times the preconditioned block gradient, with the exact
Hastings correction in the same metric.

Chains draw from independent RNG streams keyed by (seed, chain index), so
results are identical no matter how chains are scheduled across workers.

Likelihood deltas are computed from cached per-record log-odds: a block
move touches only its own record groups (every record for the stage
baseline, the athlete plus the constrained last athlete for a trajectory
block, the athlete for position and race blocks), and scale moves touch
none.  Each block carries one description of those groups and of how a
block step shifts their log-odds; the proposal, the commit and the block
gradient all read it.  ``propose_delta`` returns the log-posterior delta
together with a stash of everything it computed, and ``commit`` applies
exactly that delta from the stash without recomputing a sum.  The cache is
rebuilt from scratch periodically and at the burn-in boundary so float
accumulation cannot drift.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import re
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from . import model as _model
from .data import Dataset
from .errors import DataError, NumericalError
from .intervals import summary
from .model import ModelSpec, SHOTS_PER_BOUT
from .streams import rng_for

THREADS_ENV = "BIATHLON_BAYES_THREADS"

_TARGET_RATE_VECTOR = 0.35
_TARGET_RATE_SCALAR = 0.44
_ADAPT_DECAY = 0.6
_CACHE_REFRESH = 500  # sweeps between full cache rebuilds
_INIT_ATTEMPTS = 100

PROPOSAL_MODES = ("random_walk", "gradient_assisted")


@dataclass(frozen=True)
class SamplerConfig:
    """Chain protocol. Defaults: 4 chains, 1000 burn-in sweeps, 5000 kept
    sweeps retained every 5th -> 4000 total draws."""

    n_chains: int = 4
    burn_in: int = 1000
    kept_iterations: int = 5000
    thin: int = 5
    seed: int = 0
    adapt_window: int | None = None
    proposal_mode: str = "random_walk"

    def __post_init__(self):
        if self.n_chains < 1:
            raise DataError("n_chains must be >= 1")
        if self.burn_in < 0:
            raise DataError("burn_in must be >= 0")
        if self.kept_iterations < 1 or self.thin < 1:
            raise DataError("kept_iterations and thin must be >= 1")
        if self.kept_iterations % self.thin:
            raise DataError(
                f"kept_iterations {self.kept_iterations} not divisible by thin {self.thin}"
            )
        if self.proposal_mode not in PROPOSAL_MODES:
            raise DataError(f"proposal_mode must be one of {PROPOSAL_MODES}")
        if self.adapt_window is not None and self.adapt_window < 0:
            raise DataError("adapt_window must be >= 0")

    @property
    def n_retained(self) -> int:
        return self.kept_iterations // self.thin

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class Block:
    """One Gibbs block: coordinate indices, proposal shape, and a
    target-specific payload describing which records it touches.

    ``precond`` is a fixed diagonal proposal scale; when ``fisher`` is set
    (vector blocks) the target instead supplies a state-dependent Cholesky
    transform built from it, and ``precond`` is unused.
    """

    name: str
    idx: np.ndarray
    scalar: bool
    precond: np.ndarray
    kind: str = "generic"
    payload: object = None
    fisher: np.ndarray | None = None
    repeats: int = 1  # MH tries per sweep visit (sharp-conditional scalars)


# ---------------------------------------------------------------------------
# generic chain runner over a block target
#
# A target provides: dim, blocks, initial_vector(rng), make_cache(x),
# propose_delta(x, cache, block, prop) -> (delta_logp, stash),
# commit(x, cache, block, prop, stash), and for gradient_assisted mode
# block_grad(x, cache, block) / block_grad_at(x, cache, block, prop, stash).
# The stash is the target's own record of the proposal: commit, called only
# on acceptance and before x changes, must raise cache.logp by exactly the
# delta that propose_delta returned with it.
# Optionally proposal_transform(x, block) -> (L, A) with L the lower
# Cholesky factor of the block's proposal precision and A = inv(L).T, or
# None to use the block's fixed diagonal scale.


@dataclass
class ChainResult:
    draws: np.ndarray
    acceptance: np.ndarray       # post-burn-in acceptance rate per block
    scales: np.ndarray           # proposal scales at termination
    frozen_scales: np.ndarray    # proposal scales at the burn-in boundary
    block_names: tuple[str, ...]


def run_chain(target, cfg: SamplerConfig, chain_idx: int) -> ChainResult:
    """Run one chain; deterministic given (target inputs, cfg.seed, chain_idx)."""
    rng = rng_for(cfg.seed, chain_idx)
    x = cache = None
    for _ in range(_INIT_ATTEMPTS):
        x = target.initial_vector(rng)
        cache = target.make_cache(x)
        if np.isfinite(cache.logp):
            break
    else:
        raise NumericalError(
            f"chain {chain_idx}: no finite log-posterior in {_INIT_ATTEMPTS} initialization draws"
        )

    blocks = target.blocks
    nb = len(blocks)
    log_scale = np.array(
        [0.875 if b.scalar else np.log(2.38 / np.sqrt(len(b.idx))) for b in blocks]
    )  # 0.875 = ln 2.4
    adapt_until = cfg.burn_in if cfg.adapt_window is None else min(cfg.adapt_window, cfg.burn_in)
    adapt_count = np.zeros(nb)
    post_prop = np.zeros(nb)
    post_acc = np.zeros(nb)
    frozen_scales = np.exp(log_scale)
    mala = cfg.proposal_mode == "gradient_assisted"

    total = cfg.burn_in + cfg.kept_iterations
    retained = np.empty((cfg.n_retained, target.dim))
    r_i = 0

    transform = getattr(target, "proposal_transform", None)

    for it in range(1, total + 1):
        for b in range(nb):
            block = blocks[b]
            for _try in range(block.repeats):
                cur = x[block.idx]
                eps = np.exp(log_scale[b])
                z = rng.standard_normal(len(block.idx))
                tr = transform(x, block) if transform is not None else None
                if mala:
                    g = target.block_grad(x, cache, block)
                    if tr is None:
                        a_diag = block.precond**2
                        mean_fwd = cur + 0.5 * eps * eps * a_diag * g
                        prop = mean_fwd + eps * block.precond * z
                    else:
                        L, A = tr
                        mean_fwd = cur + 0.5 * eps * eps * (A @ (A.T @ g))
                        prop = mean_fwd + eps * (A @ z)
                    delta, stash = target.propose_delta(x, cache, block, prop)
                    g_prop = target.block_grad_at(x, cache, block, prop, stash)
                    if tr is None:
                        mean_rev = prop + 0.5 * eps * eps * a_diag * g_prop
                        log_fwd = -0.5 * float(np.sum((prop - mean_fwd) ** 2 / a_diag)) / (eps * eps)
                        log_rev = -0.5 * float(np.sum((cur - mean_rev) ** 2 / a_diag)) / (eps * eps)
                    else:
                        mean_rev = prop + 0.5 * eps * eps * (A @ (A.T @ g_prop))
                        log_fwd = -0.5 * float(np.sum((L.T @ (prop - mean_fwd)) ** 2)) / (eps * eps)
                        log_rev = -0.5 * float(np.sum((L.T @ (cur - mean_rev)) ** 2)) / (eps * eps)
                    log_alpha = delta + log_rev - log_fwd
                else:
                    if tr is None:
                        prop = cur + eps * block.precond * z
                    else:
                        prop = cur + eps * (tr[1] @ z)
                    log_alpha, stash = target.propose_delta(x, cache, block, prop)

                u = rng.random()  # always consumed: keeps streams aligned
                accept = bool(log_alpha >= 0.0) or (u > 0.0 and np.log(u) < log_alpha)
                if accept:
                    target.commit(x, cache, block, prop, stash)
                    x[block.idx] = prop

                if it <= adapt_until:
                    adapt_count[b] += 1
                    alpha_prob = (
                        float(np.exp(min(log_alpha, 0.0))) if np.isfinite(log_alpha) else 0.0
                    )
                    rate = _TARGET_RATE_SCALAR if block.scalar else _TARGET_RATE_VECTOR
                    log_scale[b] += adapt_count[b] ** -_ADAPT_DECAY * (alpha_prob - rate)
                elif it > cfg.burn_in:
                    post_prop[b] += 1
                    post_acc[b] += accept

        if it == cfg.burn_in:
            frozen_scales = np.exp(log_scale).copy()
            cache = target.make_cache(x)
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            retained[r_i] = x
            r_i += 1
        if it % _CACHE_REFRESH == 0:
            cache = target.make_cache(x)

    acceptance = post_acc / np.maximum(post_prop, 1.0)
    return ChainResult(
        draws=retained,
        acceptance=acceptance,
        scales=np.exp(log_scale),
        frozen_scales=frozen_scales,
        block_names=tuple(b.name for b in blocks),
    )


# ---------------------------------------------------------------------------
# the model target: delta-cached hierarchical posterior


@dataclass
class _Cache:
    eta: np.ndarray
    ll: np.ndarray
    ll_sum: float
    ss: np.ndarray  # sufficient statistics per prior class (mu, beta, gamma, omega)
    logp: float


def _rw_precision(T: int) -> np.ndarray:
    """Precision of the anchored random walk: x_1 ~ N(0,1), increments N(0,1)."""
    q = 2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1)
    q[-1, -1] = 1.0  # the last coordinate enters one increment only
    return q


class _Group(NamedTuple):
    """Records that one block move touches.  A block step ``d`` shifts their
    log-odds by ``shift(d)``; ``pull`` is the transpose of that map, taking
    their residuals (hits minus expected hits) to the block's gradient."""

    rec: np.ndarray | slice
    hits: np.ndarray
    shift: Callable[[np.ndarray], np.ndarray]
    pull: Callable[[np.ndarray], np.ndarray]


# The mu move touches every record; its old log-likelihood sum is the
# cache's running total rather than a fresh sum.
_ALL = slice(None)


def _stage_group(rec, hits, t, T, sign=1.0) -> _Group:
    # trajectory coordinate t[i] enters record i's log-odds with ``sign``
    return _Group(
        rec,
        hits,
        lambda d: sign * d[t],
        lambda r: sign * np.bincount(t, weights=r, minlength=T),
    )


def _position_group(rec, hits, possign) -> _Group:
    # the one gamma coordinate enters prone records with +1, standing with -1
    return _Group(
        rec, hits, lambda d: d[0] * possign, lambda r: np.array([float(np.sum(r * possign))])
    )


def _design_group(rec, hits, m) -> _Group:
    return _Group(rec, hits, lambda d: m @ d, lambda r: m.T @ r)


class _Stash(NamedTuple):
    """What ``propose_delta`` hands to ``commit``."""

    groups: tuple  # (rec, new eta, new log-likelihoods) per touched group
    d_ll: float
    k: int  # prior class of the block
    ss: float  # the class's new sufficient statistic
    delta: float  # the log-posterior change returned with the stash


def _sum_sq(v: np.ndarray) -> float:
    return float(np.sum(v**2))


# prior class (index into the cache's ``ss`` and the four scales) per latent
# block kind; the mu and beta classes are random walks, the others iid
_PRIOR_CLASS = {"mu": 0, "beta": 1, "gamma": 2, "omega": 3}
_RANDOM_WALK = ("mu", "beta")
# a block's share of its class's sufficient statistic.  The gamma block is
# one scalar, squared as a scalar: numpy's scalar and array squares can
# differ in the last bit, and the draws depend on which one is used.
_BLOCK_SS = {
    "mu": _model._rw_ss,
    "beta": _model._rw_ss,
    "gamma": lambda v: v[0] ** 2,
    "omega": _sum_sq,
}


class ModelTarget:
    """Posterior of the hierarchical model over its free coordinates.

    Every block's ``payload`` is ``(k, groups)``: its prior class and the
    record groups its move touches (none for the scale blocks)."""

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        self.spec = spec
        self.dataset = dataset
        self.dim = spec.dim
        self.lay = _model.layout(spec)
        self.class_n = np.array([spec.n_mu, spec.n_beta, spec.n_gamma, spec.n_omega], dtype=float)
        a = _model._check_indices(dataset, spec)
        self.hits = a.hits
        self._build_blocks(a)

    # ---- layout ----------------------------------------------------------

    def _build_blocks(self, a):
        spec, lay, hits = self.spec, self.lay, self.hits
        S, T, Z = spec.S, spec.T, spec.Z
        shots = SHOTS_PER_BOUT * len(hits)
        pbar = np.clip(hits.sum() / shots, 0.1, 0.9) if shots else 0.5
        w = SHOTS_PER_BOUT * pbar * (1.0 - pbar)  # Fisher info of eta per session
        n_st = np.zeros((S, T))
        np.add.at(n_st, (a.athlete, a.stage0), 1.0)
        n_s = n_st.sum(axis=1)
        n_sz = np.zeros((S, Z))
        np.add.at(n_sz, (a.athlete, a.race), 1.0)
        self._rw_Q = _rw_precision(T)
        self._chol: dict[str, tuple[float, np.ndarray, np.ndarray]] = {}

        blocks = []
        info_mu = w * n_st.sum(axis=0)
        blocks.append(
            Block(
                "mu",
                np.arange(T),
                T == 1,
                1.0 / np.sqrt(info_mu + 1.0),
                kind="mu",
                payload=(_PRIOR_CLASS["mu"], (_stage_group(_ALL, hits, a.stage0, T),)),
                fisher=np.diag(info_mu) if T > 1 else None,
            )
        )
        if spec.mu_only:
            self.blocks = blocks
            return
        rec_of = [np.where(a.athlete == s)[0] for s in range(S)]
        last = rec_of[S - 1]
        # athlete S's trajectory is minus the sum of the free ones
        last_group = _stage_group(last, hits[last], a.stage0[last], T, -1.0)
        for s in range(S - 1):
            own = rec_of[s]
            idx = np.arange(lay.beta.start + s * T, lay.beta.start + (s + 1) * T)
            info = w * (n_st[s] + n_st[S - 1])
            # Two tries per visit: trajectory wiggles are prior-dominated, so
            # their amplitudes (which drive the beta scale's conditional) need
            # the extra turnover to keep the scale parameter mixing.
            blocks.append(
                Block(
                    f"beta[{s + 1}]",
                    idx,
                    T == 1,
                    1.0 / np.sqrt(info + 1.0),
                    kind="beta",
                    payload=(
                        _PRIOR_CLASS["beta"],
                        (_stage_group(own, hits[own], a.stage0[own], T), last_group),
                    ),
                    fisher=np.diag(info) if T > 1 else None,
                    repeats=2 if T > 1 else 1,
                )
            )
        for s in range(S):
            rec = rec_of[s]
            idx = np.array([lay.gamma.start + s])
            info = np.array([w * n_s[s] + 1.0])
            group = _position_group(rec, hits[rec], 1.0 - 2.0 * a.position[rec])
            blocks.append(
                Block(
                    f"gamma[{s + 1}]",
                    idx,
                    True,
                    1.0 / np.sqrt(info),
                    kind="gamma",
                    payload=(_PRIOR_CLASS["gamma"], (group,)),
                )
            )
        for s in range(S):
            rec = rec_of[s]
            start = lay.omega.start + s * (Z - 1)
            idx = np.arange(start, start + Z - 1)
            info = w * (n_sz[s, : Z - 1] + n_sz[s, Z - 1])
            # race design against the constrained last type
            races = a.race[rec]
            design = (races[:, None] == np.arange(Z - 1)) - (races[:, None] == Z - 1).astype(float)
            # race records of the constrained last type hit every free
            # coordinate with sign -1, giving a rank-one Fisher cross term
            fisher = np.diag(w * n_sz[s, : Z - 1]) + w * n_sz[s, Z - 1] * np.ones(
                (Z - 1, Z - 1)
            )
            blocks.append(
                Block(
                    f"omega[{s + 1}]",
                    idx,
                    Z == 2,
                    1.0 / np.sqrt(info + 1.0),
                    kind="omega",
                    payload=(_PRIOR_CLASS["omega"], (_design_group(rec, hits[rec], design),)),
                    fisher=fisher if Z > 2 else None,
                )
            )
        for k, name in enumerate(_model.SIGMA_NAMES):
            idx = np.array([lay.sigma.start + k])
            info = np.array([2.0 * self.class_n[k] + 2.0])
            # Scale conditionals are sharp (curvature ~ 2n) while their modes
            # track the trajectory sum of squares; several cheap O(1) tries
            # per visit let the scale keep up instead of lagging a sweep
            # behind, which is what throttles its effective sample size.
            blocks.append(
                Block(
                    f"log_sigma_{name}",
                    idx,
                    True,
                    1.0 / np.sqrt(info),
                    kind="sigma",
                    payload=(k, ()),
                    repeats=8,
                )
            )
        self.blocks = blocks

    def proposal_transform(self, x, block):
        """Cholesky pair (L, inv(L).T) of the block's Gaussian-approximation
        precision (Fisher + prior precision at the current scale), or None
        for scalar blocks.  Cached per block until its scale moves."""
        if block.fisher is None:
            return None
        v = self._log_sigma(x, block.payload[0])
        hit = self._chol.get(block.name)
        if hit is not None and hit[0] == v:
            return hit[1], hit[2]
        prior = self._rw_Q if block.kind in _RANDOM_WALK else np.eye(len(block.idx))
        L = np.linalg.cholesky(block.fisher + np.exp(-2.0 * v) * prior)
        A = np.linalg.solve(L, np.eye(len(block.idx))).T
        self._chol[block.name] = (v, L, A)
        return L, A

    # ---- state plumbing --------------------------------------------------

    def initial_vector(self, rng: np.random.Generator) -> np.ndarray:
        # overdispersed: free coords N(0, 0.5); log scales N(0, 0.25)
        x = rng.normal(0.0, 0.5, self.dim)
        if not self.spec.mu_only:
            x[self.lay.sigma] = rng.normal(0.0, 0.25, 4)
        return x

    def make_cache(self, x: np.ndarray) -> _Cache:
        state = _model.from_vector(x, self.spec)
        eta = _model.linear_predictors(state, self.dataset, self.spec)
        ll = _model.bout_log_likelihoods(self.hits, eta)
        lay = self.lay
        ss = np.array(
            [
                _model._rw_ss(x[lay.mu]),
                _model._rw_ss(x[lay.beta].reshape(-1, self.spec.T)),
                _sum_sq(x[lay.gamma]),
                _sum_sq(x[lay.omega]),
            ]
        )
        logp = float(np.sum(ll)) + _model.log_prior(state, self.spec)
        return _Cache(eta=eta, ll=ll, ll_sum=float(np.sum(ll)), ss=ss, logp=logp)

    def _log_sigma(self, x: np.ndarray, k: int) -> float:
        return 0.0 if self.spec.mu_only else float(x[self.lay.sigma.start + k])

    # ---- block moves -------------------------------------------------------

    def propose_delta(self, x, cache, block, prop):
        k, groups = block.payload
        cur = x[block.idx]
        if block.kind == "sigma":
            # likelihood untouched, O(1)
            n, ss = self.class_n[k], cache.ss[k]
            c = self.spec.sigma_scale
            d_prior = (
                _model._gauss_class_logp(n, ss, prop[0])
                + _model._halfnormal_log_logp(prop[0], c)
                - _model._gauss_class_logp(n, ss, cur[0])
                - _model._halfnormal_log_logp(cur[0], c)
            )
            return float(d_prior), _Stash((), 0.0, k, ss, d_prior)
        d = prop - cur
        d_ll = 0.0
        touched = []
        for g in groups:
            eta = cache.eta[g.rec] + g.shift(d)
            ll = _model.bout_log_likelihoods(g.hits, eta)
            old = cache.ll_sum if g.rec is _ALL else float(np.sum(cache.ll[g.rec]))
            # summed group by group, left to right: the order sets the last
            # bits of the delta, and through it the draws
            d_ll = d_ll + float(np.sum(ll)) - old
            touched.append((g.rec, eta, ll))
        ss_of = _BLOCK_SS[block.kind]
        if block.kind == "mu":  # the block is its whole class
            ss_new = ss_of(prop)
        else:
            ss_new = cache.ss[k] - ss_of(cur) + ss_of(prop)
        d_prior = -0.5 * (ss_new - cache.ss[k]) * np.exp(-2.0 * self._log_sigma(x, k))
        delta = d_ll + d_prior
        return delta, _Stash(tuple(touched), d_ll, k, ss_new, delta)

    def commit(self, x, cache, block, prop, stash):
        """Apply an accepted move: exactly the delta ``propose_delta`` returned."""
        for rec, eta, ll in stash.groups:
            cache.eta[rec] = eta
            cache.ll[rec] = ll
        cache.ll_sum += stash.d_ll
        cache.ss[stash.k] = stash.ss
        cache.logp += stash.delta

    # ---- block gradients (gradient_assisted mode) --------------------------

    def block_grad(self, x, cache, block):
        etas = [cache.eta[g.rec] for g in block.payload[1]]
        return self._grad(x, cache, block, x[block.idx], etas)

    def block_grad_at(self, x, cache, block, prop, stash):
        return self._grad(x, cache, block, prop, [eta for _, eta, _ in stash.groups])

    def _grad(self, x, cache, block, value, etas):
        """Log-posterior gradient on the block at ``value``, where the touched
        groups' log-odds are ``etas``."""
        k, groups = block.payload
        if block.kind == "sigma":
            n, ss = self.class_n[k], cache.ss[k]
            c = self.spec.sigma_scale
            v = value[0]
            return np.array([-n + ss * np.exp(-2.0 * v) - np.exp(2.0 * v) / c**2 + 1.0])
        g = reduce(
            np.add,
            (grp.pull(grp.hits - SHOTS_PER_BOUT * expit(eta)) for grp, eta in zip(groups, etas)),
        )
        # exp over the whole scale vector: numpy's vector and scalar exp can
        # differ in the last bit, and the draws depend on which one is used
        sd = 1.0 if self.spec.mu_only else np.exp(x[self.lay.sigma])[k]
        if block.kind in _RANDOM_WALK:
            return g + _model._rw_grad(value, sd)
        return g - value / sd**2


# ---------------------------------------------------------------------------
# multi-chain orchestration


@dataclass
class PosteriorSamples:
    """Retained draws (chains x retained x free dim) plus provenance."""

    draws: np.ndarray
    param_names: tuple[str, ...]
    spec: ModelSpec
    config: SamplerConfig
    source_digest: str
    acceptance_rates: dict[str, tuple[float, ...]]
    proposal_scales: dict[str, tuple[float, ...]]
    wall_time_s: float | None = None

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_retained(self) -> int:
        return self.draws.shape[1]

    @property
    def dim(self) -> int:
        return self.draws.shape[2]

    @property
    def total_draws(self) -> int:
        return self.draws.shape[0] * self.draws.shape[1]

    def pooled(self) -> np.ndarray:
        """All chains concatenated in chain order, shape (total, dim)."""
        return self.draws.reshape(-1, self.dim)

    def name_index(self, param) -> int:
        if isinstance(param, str):
            try:
                return self.param_names.index(param)
            except ValueError:
                raise DataError(f"unknown parameter {param!r}") from None
        i = int(param)
        if not 0 <= i < self.dim:
            raise DataError(f"parameter index {i} outside 0..{self.dim - 1}")
        return i

    def param_draws(self, param) -> np.ndarray:
        """Draws for one parameter, shape (chains, retained)."""
        return self.draws[:, :, self.name_index(param)]


def _chain_job(args) -> ChainResult:
    spec, dataset, cfg, chain_idx = args
    return run_chain(ModelTarget(spec, dataset), cfg, chain_idx)


def worker_cap(max_workers: int | None = None) -> int:
    env = os.environ.get(THREADS_ENV, "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise DataError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    else:
        cap = os.cpu_count() or 1
    if max_workers is not None:
        cap = min(cap, max_workers)
    return max(1, cap)


def run_chains(
    spec: ModelSpec,
    dataset: Dataset,
    cfg: SamplerConfig | None = None,
    max_workers: int | None = None,
) -> PosteriorSamples:
    """Sample the posterior with ``cfg.n_chains`` independent chains.

    Chains are distributed over processes (capped by the
    ``BIATHLON_BAYES_THREADS`` environment variable and ``max_workers``);
    draws are identical for any worker count because every chain owns its
    RNG stream.
    """
    cfg = cfg or SamplerConfig()
    t0 = time.perf_counter()
    jobs = [(spec, dataset, cfg, c) for c in range(cfg.n_chains)]
    workers = worker_cap(max_workers)
    if workers == 1 or cfg.n_chains == 1:
        results = [_chain_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.n_chains)) as ex:
            results = list(ex.map(_chain_job, jobs))
    block_names = results[0].block_names
    acceptance = {
        name: tuple(float(r.acceptance[i]) for r in results)
        for i, name in enumerate(block_names)
    }
    scales = {
        name: tuple(float(r.scales[i]) for r in results) for i, name in enumerate(block_names)
    }
    return PosteriorSamples(
        draws=np.stack([r.draws for r in results]),
        param_names=_model.param_names(spec),
        spec=spec,
        config=cfg,
        source_digest=dataset.source_digest,
        acceptance_rates=acceptance,
        proposal_scales=scales,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# convergence diagnostics


def _as_chain_matrix(samples, param) -> np.ndarray:
    if isinstance(samples, PosteriorSamples):
        if param is None:
            raise DataError("param required with PosteriorSamples input")
        return samples.param_draws(param)
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"expected (chains, draws) matrix, got shape {arr.shape}")
    return arr


def split_rhat(samples, param=None) -> float:
    """Split-R-hat: halve each chain, compare between- and within-half
    variance.  Raises NumericalError on degenerate input (constant chains)
    rather than reporting a hollow 1.0."""
    chains = _as_chain_matrix(samples, param)
    c, r = chains.shape
    n = r // 2
    if n < 2:
        raise NumericalError(f"insufficient draws for split-rhat: {r} per chain")
    halves = np.concatenate([chains[:, :n], chains[:, r - n :]], axis=0)
    means = halves.mean(axis=1)
    variances = halves.var(axis=1, ddof=1)
    w = float(variances.mean())
    b = n * float(means.var(ddof=1))
    if w == 0.0:
        raise NumericalError("zero within-chain variance: split-rhat undefined")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def _chain_ess(y: np.ndarray) -> float:
    n = len(y)
    y = y - y.mean()
    c0 = float(np.dot(y, y)) / n
    if c0 == 0.0:
        raise NumericalError("zero variance: ESS undefined")
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # Geyer initial positive sequence: sum consecutive lag pairs while positive
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau, 1.0 / n)
    return min(n / tau, float(n))  # cap at the iid-equivalent count


def ess(samples, param=None) -> float:
    """Effective sample size: N / (1 + 2 sum of autocorrelations) with
    Geyer initial-positive-sequence truncation, per chain, summed."""
    chains = _as_chain_matrix(samples, param)
    if chains.shape[1] < 10:
        raise NumericalError(f"insufficient draws for ESS: {chains.shape[1]} per chain")
    return float(sum(_chain_ess(chains[c]) for c in range(chains.shape[0])))


@dataclass(frozen=True)
class ParamSummary:
    name: str
    mean: float
    sd: float
    median: float
    q025: float
    q975: float
    rhat: float
    ess: float


def summarize(samples: PosteriorSamples) -> list[ParamSummary]:
    """Posterior summary rows (moments, central interval, diagnostics) for
    every free coordinate."""
    out = []
    pooled = samples.pooled()
    for j, name in enumerate(samples.param_names):
        col = pooled[:, j]
        mean, median, q025, q975 = map(float, summary(col))
        sd = float(col.std(ddof=1)) if len(col) > 1 else 0.0
        chains = samples.draws[:, :, j]
        out.append(
            ParamSummary(name, mean, sd, median, q025, q975, split_rhat(chains), ess(chains))
        )
    return out


# ---------------------------------------------------------------------------
# draws container

_MAGIC = b"biathlon-bayes-draws-v1\n"
_DTYPE = "<f8"


def _manifest_dict(samples: PosteriorSamples) -> dict:
    return {
        "container": "draws-v1",
        "dtype": _DTYPE,
        "n_chains": samples.n_chains,
        "n_retained": samples.n_retained,
        "dim": samples.dim,
        "param_names": list(samples.param_names),
        "model": asdict(samples.spec),
        "sampler": samples.config.to_json_dict(),
        "seed": samples.config.seed,
        "source_digest": samples.source_digest,
        "acceptance_rates": {k: list(v) for k, v in samples.acceptance_rates.items()},
        "proposal_scales": {k: list(v) for k, v in samples.proposal_scales.items()},
    }


def export_draws(samples: PosteriorSamples, sink, fmt: str = "binary"):
    """Write draws + manifest. ``fmt="binary"`` streams chains into a
    checksummed single-file container; ``fmt="csv"`` streams
    ``chain,iter,param,value`` rows one draw at a time, and a JSON manifest
    sidecar at ``<path>.manifest.json`` holding the sha256 of the bytes
    written.  Paths are written atomically."""
    if fmt == "binary":
        if hasattr(sink, "write"):
            _export_binary(samples, sink)
        else:
            _write_atomic(Path(sink), lambda fh: _export_binary(samples, fh))
        return
    if fmt == "csv":
        if hasattr(sink, "write"):
            raise DataError("csv export requires a path (it writes a manifest sidecar)")
        path = Path(sink)
        manifest = _manifest_dict(samples)
        digest = _write_atomic(path, lambda fh: _put_hashed(fh, _csv_chunks(samples)))
        manifest["csv_sha256"] = digest.hexdigest()
        side = json.dumps(manifest, sort_keys=True, indent=2).encode()
        _write_atomic(path.with_name(path.name + ".manifest.json"), lambda fh: fh.write(side))
        return
    raise DataError(f"unknown draws format {fmt!r}")


def _write_atomic(path: Path, write):
    """Call ``write(fh)`` on ``<path>.tmp``, then move it onto ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        result = write(fh)
    os.replace(tmp, path)
    return result


def _put_hashed(fh, chunks):
    """Write each chunk and hash the same bytes; returns the sha256."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        fh.write(chunk)
    return digest


def _export_binary(samples: PosteriorSamples, fh):
    manifest = json.dumps(_manifest_dict(samples), sort_keys=True, separators=(",", ":")).encode()
    head = [_MAGIC, struct.pack("<Q", len(manifest)), manifest]
    chains = (np.ascontiguousarray(samples.draws[c], dtype=_DTYPE).tobytes()
              for c in range(samples.n_chains))  # stream chain by chain
    fh.write(_put_hashed(fh, itertools.chain(head, chains)).digest())


def _csv_chunks(samples: PosteriorSamples):
    """The long CSV body, one chunk per draw."""
    quoted = []
    for name in samples.param_names:  # a two-field row quotes as a data row does
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([name, ""])
        quoted.append(buf.getvalue()[:-1])  # "name," or '"beta[1,2]",'
    yield b"chain,iter,param,value\n"
    for c, chain in enumerate(samples.draws, 1):
        for i, draw in enumerate(chain.tolist(), 1):  # repr of a float round-trips exactly
            yield "".join([f"{c},{i},{q}{v!r}\n" for q, v in zip(quoted, draw)]).encode()


def _parse_manifest(raw: bytes) -> dict:
    """Decode a draws manifest (binary header or CSV sidecar): a JSON
    object whose draw counts are non-negative integers, else DataError."""
    try:
        manifest = json.loads(raw.decode())
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise DataError(f"bad draws manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError("bad draws manifest: not a JSON object")
    for key in ("n_chains", "n_retained", "dim"):
        n = manifest.get(key)
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise DataError(f"bad draws manifest: {key} must be a non-negative integer")
    return manifest


def _samples_from_manifest(manifest: dict, draws: np.ndarray) -> PosteriorSamples:
    try:
        spec = ModelSpec(**manifest["model"])
        cfg = SamplerConfig(**manifest["sampler"])
        names = tuple(manifest["param_names"])
        acceptance = {k: tuple(v) for k, v in manifest["acceptance_rates"].items()}
        scales = {k: tuple(v) for k, v in manifest["proposal_scales"].items()}
        source_digest = manifest["source_digest"]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"bad draws manifest: {e}") from None
    if len(names) != draws.shape[2]:
        raise DataError(
            f"manifest names ({len(names)}) do not match draw dim ({draws.shape[2]})"
        )
    return PosteriorSamples(
        draws=draws,
        param_names=names,
        spec=spec,
        config=cfg,
        source_digest=source_digest,
        acceptance_rates=acceptance,
        proposal_scales=scales,
        wall_time_s=None,
    )


def import_draws(source) -> PosteriorSamples:
    """Read a draws container (binary or CSV+sidecar); verifies checksums.
    One ``np.loadtxt`` call parses exactly the CSV bytes that were hashed."""
    side = None
    if hasattr(source, "read"):
        raw = source.read()
    else:
        path = Path(source)
        raw = path.read_bytes()
        side = path.with_name(path.name + ".manifest.json")
    if raw[: len(_MAGIC)] == _MAGIC:
        return _import_binary(raw)
    if side is not None and side.exists():
        return _import_csv(raw, _parse_manifest(side.read_bytes()))
    raise DataError("unrecognized draws container (bad magic, no manifest sidecar)")


def _import_binary(raw: bytes) -> PosteriorSamples:
    if len(raw) < len(_MAGIC) + 8 + 32:
        raise DataError("draws file truncated")
    body, trailer = memoryview(raw)[:-32], raw[-32:]  # no copy of the payload
    if hashlib.sha256(body).digest() != trailer:
        raise DataError("draws file checksum mismatch (truncated or corrupted)")
    off = len(_MAGIC)
    (mlen,) = struct.unpack_from("<Q", body, off)
    off += 8
    manifest = _parse_manifest(bytes(body[off : off + mlen]))
    off += mlen
    c, r, d = manifest["n_chains"], manifest["n_retained"], manifest["dim"]
    expected = c * r * d * 8
    payload = body[off:]
    if len(payload) != expected:
        raise DataError(f"draws payload is {len(payload)} bytes, expected {expected}")
    draws = np.frombuffer(payload, dtype=_DTYPE).reshape(c, r, d).copy()
    return _samples_from_manifest(manifest, draws)


def _import_csv(raw: bytes, manifest: dict) -> PosteriorSamples:
    if manifest.get("csv_sha256") != hashlib.sha256(raw).hexdigest():
        raise DataError("draws CSV checksum mismatch against manifest sidecar")
    c, r, d = manifest["n_chains"], manifest["n_retained"], manifest["dim"]
    try:
        names = {name: j for j, name in enumerate(manifest["param_names"])}
    except (KeyError, TypeError) as e:
        raise DataError(f"bad draws manifest: {e}") from None
    body = io.BytesIO(raw)
    try:
        header = next(csv.reader([body.readline().decode()]), None)
    except (ValueError, csv.Error):  # undecodable bytes or a stray carriage return
        header = None
    if header != ["chain", "iter", "param", "value"]:
        raise DataError("draws CSV: missing or bad header")
    if re.compile(rb"[^\r\n]").search(raw, body.tell()) is None:  # loadtxt only warns
        raise DataError("draws CSV: no rows")
    try:
        rows = np.loadtxt(io.TextIOWrapper(body, encoding="utf-8"), delimiter=",", quotechar='"',
                          dtype=[("chain", "i8"), ("iter", "i8"), ("param", "i8"), ("value", "f8")],
                          comments=None, ndmin=1, converters={2: names.__getitem__})
    except ValueError as e:  # numpy names the row (counted after the header)
        raise DataError(f"draws CSV: malformed row: {e}") from None
    chain, it = rows["chain"], rows["iter"]
    if len(rows) != c * r * d:
        raise DataError(f"draws CSV: {len(rows)} rows, expected {c * r * d}")
    if not ((chain >= 1) & (chain <= c) & (it >= 1) & (it <= r)).all():
        raise DataError("draws CSV: a chain or iter index outside the manifest's counts")
    draws = np.full((c, r, d), np.nan)
    draws[chain - 1, it - 1, rows["param"]] = rows["value"]
    if np.isnan(draws).any():  # with the row count, every cell came exactly once
        raise DataError("draws CSV: missing or repeated entries")
    return _samples_from_manifest(manifest, draws)
