"""Adaptive Metropolis-within-Gibbs sampling, convergence diagnostics, and
the draws container.

One sweep visits the latent field in a fixed order: the stage baseline
vector, each free athlete's trajectory (two tries each when there are
several stages), all athletes' position effects in one class step, all
athletes' race-effect rows in another; then it draws the four log scales.
Every row of the field (the baseline, one trajectory, one athlete's
position effect or race-effect row) takes a Metropolis-Hastings step
scaled by its own adaptive scalar step size, shaped by a local Gaussian
approximation: the likelihood Fisher information F plus the exact prior
precision P_k / sigma_k^2 of the row's class at the current scale.  P_k,
the unit prior precision of class k (``model.prior_classes``), is the
tridiagonal random-walk band for the stage baseline and the trajectories,
which carries the prior's serial correlation into the proposal, and the
identity for the position and race effects.  Only the scale moves during
a fit, so the build makes each row's pencil F + lam P_k diagonal once
(Golub & Van Loan, Matrix Computations, 8.7) and no chain factorizes.
The step size adapts by Robbins-Monro during burn-in only (toward 0.35
acceptance for vector rows, 0.44 for scalars) and is frozen afterwards, so
the post-burn-in kernel is a valid fixed MCMC kernel.

A class whose rows touch pairwise disjoint records (each athlete's
position effect, each athlete's race-effect row) is conditionally
independent row by row given everything else, so its rows are proposed,
priced, accepted and committed together, each on its own, in one
vectorized step: the same Markov transition as stepping them one after
another (Roberts & Sahu 1997, JRSS B 59:291).  Trajectories are coupled
through the constrained last athlete's records and step one at a time.

The scales need no Metropolis step: given the latent field, sigma_k^2 of
prior class k is exactly GIG((1 - n_k)/2, 1/c^2, ss_k), for n_k iid
N(0, sigma_k^2) terms with sum of squares ss_k under a half-normal(c)
prior.  At the end of every sweep ``ModelTarget.draw_scales`` draws every
dataset's four (``_gig``, after Hörmann & Leydold 2014, Stat. Comput.
24:547) in (dataset, class) order, from one sum of shares per class and
dataset; then it writes the new log scales into x at once and moves the
log-posterior by their closed-form change, exact to rounding.  A draw
that fails leaves the state as it was.

Chains draw from independent RNG streams keyed by (seed, chain index).  On
one machine and one numeric environment (the Python, numpy and scipy
versions, numpy's SIMD targets and the BLAS kernel), reruns are
byte-identical and the draws do not depend on the worker count.  On another
CPU, with other SIMD targets or another BLAS kernel, draws agree only to
rounding, and only until some branch flips: an accept/reject, or a ``_gig``
rejection loop.  After that, a long fit is equal in law, not in value.
Under an emulated AVX2 CPU the measured difference was at most 3.8e-14.

A unit is one chain of one dataset: a (dataset, seed, chain) triple, whose
draws come from the stream ``rng_for(seed, chain)``.  Every fit is a list of
units: ``run_chains`` makes one unit per chain of its dataset, ``run_stack``
one per dataset and chain.  The units split over at most ``worker_cap()``
processes.  If every unit's dataset has at most ``_STACK_CELLS`` cells, a
worker runs its share of them as one stack, one target over their datasets;
larger units run one at a time, where a stack costs more per sweep than the
calls it saves.  ``run_chain``, the runner, owns the streams, the sweep
count, thinning and retention.  One sweep is the kernel's
(``_Metropolis``): it owns the step sizes and their adaptation, the
acceptance counts, the block tries and the cache with its rebuilds.

Every target covers a stack of R datasets of one model shape that share
no record, and a fit of one dataset is a stack of R = 1.  One block
builder gives every target its layout, and with R >= 2 every block, a
trajectory's rows included, is one class block across the stack, so each
block steps every unit at once by the class path, and each unit still
follows its own fit's law and block order.  The runner hands the kernel,
and the kernel the target, one RNG stream per dataset, and unit r draws
from its stream in its own fit's order.  A row block (R = 1) does the
arithmetic of one row of a class block: the same matrix-vector product
per row, the same per-row prior share, and its cells' log-likelihood
change summed in cell order.  So a unit's draws are bit-identical alone,
in any stack, in any order within it and on any worker split.

Likelihood deltas are computed from cached per-cell log-odds.  A cell is
one (athlete, stage, position, race type) of a dataset (``Dataset.cells``):
its sessions share one log-odds, so one binomial row of its total hits and
shots prices them all.  Each latent row is built from its columns ``m`` of
the model's log-odds Jacobian (``model.log_odds_jacobian``) at each cell's
first session: the cells whose row of ``m`` is non-zero are the ones its
move touches, and a step ``d`` shifts their log-odds by ``m @ d``.  Every
block reads its cells as one group, in cell order: a trajectory its own
athlete's and the constrained athlete's cells, a class step every cell its
rows touch, each tagged with the row that owns it (the stage baseline
touches every cell).  The same columns, each cell's weighed by its session
count, give each row's Fisher matrix, and ``v @ P_k @ v`` is the row's
share of its class's prior sum of squares.  The cache keeps each number
once: the per-cell log-odds and log-likelihoods, the log-posterior and
every row's share.  Sums are taken where they are read (a move sums its
group, ``draw_scales`` each class's shares by dataset).  ``propose_delta``
(``propose_rows`` for a class step) returns the log-posterior delta, one
per row, with a stash of what it computed, and ``commit`` (``commit_rows``,
given the accepted rows) stores the stash and adds exactly that delta.
Shares are stored, never accumulated, so they equal a rebuild bit for bit;
the full rebuild, periodic and at the burn-in boundary, keeps rounding in
the log-odds and the log-posterior from drifting.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
# a unit whose dataset has at most this many cells runs in a stack
_STACK_CELLS = 512


@dataclass(frozen=True)
class SamplerConfig:
    """Chain protocol. Defaults: 4 chains, 1000 burn-in sweeps, 5000 kept
    sweeps retained every 5th -> 4000 total draws."""

    n_chains: int = 4
    burn_in: int = 1000
    kept_iterations: int = 5000
    thin: int = 5
    seed: int = 0

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

    @property
    def n_retained(self) -> int:
        return self.kept_iterations // self.thin

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class Block:
    """One Gibbs block: coordinate indices and a target-specific payload
    (for ``ModelTarget``, the block's prior class, the records it touches
    and its slot in the class's eigenbasis stack).

    A 1-D ``idx`` is one row, stepped on its own.  A 2-D ``idx`` of shape
    ``(rows, n)`` is a class of rows that are conditionally independent
    given everything else: they step together, each accepted or rejected
    on its own, and row ``r`` reports as ``f"{name}[{r + 1}]"``.  A row of
    one coordinate is a scalar row: it starts from a larger step and adapts
    toward a higher acceptance rate than a vector row.  The target gives
    each block its proposal shape (``proposal_transform``).  The kernel
    reads a block's idx, repeats and names only; its payload is the
    target's own.
    """

    name: str
    idx: np.ndarray
    kind: str = "generic"
    payload: object = None
    repeats: int = 1  # the kernel's MH tries per sweep visit

    @property
    def rows(self) -> int:
        return 1 if self.idx.ndim == 1 else len(self.idx)

    @property
    def row_names(self) -> list[str]:
        if self.idx.ndim == 1:
            return [self.name]
        return [f"{self.name}[{r + 1}]" for r in range(len(self.idx))]


# ---------------------------------------------------------------------------
# the chain runner and the Metropolis kernel
#
# Runner and kernel.  ``run_chain`` owns the RNG streams (one per unit, that
# is per dataset of the target), the sweep count, thinning and retention.
# The kernel's ``init(streams)`` returns the initial state x;
# ``sweep(x, streams)``, handed the same stream list every sweep, moves x one
# sweep in place; ``record()`` returns the kernel's per-row report for
# ``ChainResult``, unit by unit.  The runner reads nothing of the target but
# ``target.dim``, and a unit's draws depend on its own stream alone.
#
# Kernel and block target.  The target provides dim, blocks,
# initial_vector(streams), make_cache(x) (a finite cache.logp at every finite
# x), proposal_transform(x, block) -> A with A @ A.T the proposal covariance
# (one per row of a class block; it may depend only on coordinates no block
# covers), propose_delta(x, cache, block, prop) -> (delta, stash) and
# commit(x, cache, block, prop, stash), called before x changes, which raises
# cache.logp by exactly that delta; with class blocks (2-D idx) also
# propose_rows -> (delta per row, stash) and commit_rows(..., stash, accept),
# by exactly the sum of the accepted rows' deltas; and draw_scales(x, cache,
# streams), an exact Gibbs step on the coordinates no block covers, which
# ends every sweep.  Dataset r draws from stream r: a class block's rows are
# R equal runs in dataset order, and a row block exists only when R = 1, so
# every stream is consumed in its dataset's own fit's order.  A row's delta
# has the same bits from propose_delta as from propose_rows.


@dataclass
class ChainResult:
    """One ``run_chain``: the retained draws ``(retained, target.dim)``, and
    each row's post-burn-in acceptance rate and frozen step size, named by
    ``block_names``.  A stack of R units lists its rows unit by unit, each
    unit's named as in a fit of its dataset alone (``_by_unit``)."""

    draws: np.ndarray
    acceptance: np.ndarray       # post-burn-in acceptance rate per block
    scales: np.ndarray           # proposal scales, frozen since burn-in ended
    block_names: tuple[str, ...]


def run_chain(target, cfg: SamplerConfig, chain_idx, seeds=None) -> ChainResult:
    """Run one chain of ``target``; deterministic given (target inputs,
    seeds, chain indices).  Dataset r of the target is one unit, and draws
    from the stream ``rng_for(seeds[r], chains[r])``: ``chain_idx`` is one
    chain index for every dataset or one per dataset, and ``seeds`` is by
    default the one seed ``cfg.seed``."""
    seeds = tuple(seeds or (cfg.seed,))
    chains = (chain_idx,) * len(seeds) if np.ndim(chain_idx) == 0 else tuple(chain_idx)
    streams = [rng_for(s, c) for s, c in zip(seeds, chains, strict=True)]
    kernel = _Metropolis(target, cfg.burn_in, chain_idx)
    x = kernel.init(streams)
    for _ in range(cfg.burn_in):
        kernel.sweep(x, streams)
    retained = np.empty((cfg.n_retained, target.dim))
    for draw in retained:
        for _ in range(cfg.thin):
            kernel.sweep(x, streams)
        draw[:] = x
    return ChainResult(draws=retained, **kernel.record())


class _Metropolis:
    """Adaptive Metropolis-within-Gibbs over a block target.  Each sweep
    visits every block ``repeats`` times, each row stepping by its own step
    size, adapted by Robbins-Monro through the first ``burn_in`` sweeps and
    frozen after; then the target draws its scales.  The kernel keeps the
    target's cache and rebuilds it at the burn-in boundary and every
    ``_CACHE_REFRESH`` sweeps, once where the two meet."""

    def __init__(self, target, burn_in: int, chain_idx):
        self.target, self.burn_in, self.chain_idx = target, burn_in, chain_idx
        self.blocks = target.blocks
        self.counts = [b.rows for b in self.blocks]
        ends = np.cumsum(self.counts)
        self.rows = [slice(e - c, e) for c, e in zip(self.counts, ends)]  # each block's rows
        size = [b.idx.shape[-1] for b in self.blocks]
        # per block: its index, its rows and its target acceptance rate
        self.plan = [(b, block, r, _TARGET_RATE_SCALAR if n == 1 else _TARGET_RATE_VECTOR)
                     for b, (block, r, n) in enumerate(zip(self.blocks, self.rows, size))]
        # every row adapts its own step size; the rows of a block share its try
        # count, and with it the Robbins-Monro gain
        self.log_scale = np.repeat(
            [0.875 if n == 1 else np.log(2.38 / np.sqrt(n)) for n in size], self.counts
        )  # 0.875 = ln 2.4
        self.adapt_count = np.zeros(len(self.blocks))
        self.post_prop = np.zeros(len(self.blocks))
        self.post_acc = np.zeros(len(self.log_scale))
        self.it = 0  # sweeps done

    def init(self, streams) -> np.ndarray:
        self.units = len(streams)
        self.normals = _by_stream(streams, "standard_normal")
        self.uniforms = _by_stream(streams, "random")
        x = self.target.initial_vector(streams)
        self.cache = cache = self.target.make_cache(x)
        if not np.isfinite(cache.logp):
            c = self.chain_idx
            chains = f"chain {c}" if np.ndim(c) == 0 else "chains " + ", ".join(map(str, c))
            raise NumericalError(f"{chains}: initial log-posterior is {cache.logp}")
        return x

    def sweep(self, x, streams):
        target, cache, burn_in, log_scale = self.target, self.cache, self.burn_in, self.log_scale
        adapt_count, post_prop, post_acc = self.adapt_count, self.post_prop, self.post_acc
        normals, uniforms = self.normals, self.uniforms
        self.it = it = self.it + 1
        for b, block, r, rate in self.plan:
            A = target.proposal_transform(x, block)  # no try of the visit moves a scale
            for _try in range(block.repeats):
                cur = x[block.idx]
                z = normals(block.idx.shape)
                # a row's own path: at paper scale a trajectory try takes 15 us, 23 as a class
                if block.idx.ndim == 1:
                    prop = cur + np.exp(log_scale[r.start]) * (A @ z)
                    log_alpha, stash = target.propose_delta(x, cache, block, prop)
                    u = uniforms()  # always consumed: keeps streams aligned
                    accept = bool(log_alpha >= 0.0) or (u > 0.0 and np.log(u) < log_alpha)
                    if accept:
                        target.commit(x, cache, block, prop, stash)
                        x[block.idx] = prop
                else:  # a class: every row proposed, tested and committed on its own
                    # one matrix-vector product per row: A @ z's bits, as a row alone
                    prop = cur + np.exp(log_scale[r])[:, None] * np.matmul(A, z[..., None])[..., 0]
                    log_alpha, stash = target.propose_rows(x, cache, block, prop)
                    u = uniforms(block.rows)
                    with np.errstate(divide="ignore"):  # log(0) is masked by u > 0
                        accept = (log_alpha >= 0.0) | ((u > 0.0) & (np.log(u) < log_alpha))
                    if accept.any():
                        target.commit_rows(x, cache, block, prop, stash, accept)
                        x[block.idx[accept]] = prop[accept]

                if it <= burn_in:
                    adapt_count[b] += 1
                    alpha_prob = np.where(np.isfinite(log_alpha),
                                          np.exp(np.minimum(log_alpha, 0.0)), 0.0)
                    log_scale[r] += adapt_count[b] ** -_ADAPT_DECAY * (alpha_prob - rate)
                else:
                    post_prop[b] += 1
                    post_acc[r] += accept
        target.draw_scales(x, cache, streams)

        if it == burn_in or it % _CACHE_REFRESH == 0:
            self.cache = target.make_cache(x)

    def record(self) -> dict:
        """Each row's post-burn-in acceptance rate and frozen step size, by
        name, unit by unit: every block's rows are one equal run per unit
        (stream), and unit u's rows are named as in a fit of its dataset
        alone."""
        R = self.units
        rate = self.post_acc / np.maximum(np.repeat(self.post_prop, self.counts), 1.0)
        order = np.concatenate([np.arange(r.start, r.stop).reshape(R, -1) for r in self.rows],
                               axis=1).ravel()
        names = [n for b in self.blocks
                 for n in ([b.name] if b.rows == R else b.row_names[:b.rows // R])]
        return dict(acceptance=rate[order], scales=np.exp(self.log_scale)[order],
                    block_names=tuple(names) * R)


def _by_stream(streams, method: str):
    """A draw of a block's rows: the leading axis of ``shape`` is one equal
    run of rows per stream, each run filled in place by that stream's
    ``method``, in stream order.  One stream draws by its own ``method``:
    the row blocks of a target of one dataset draw a scalar with no shape."""
    if len(streams) == 1:
        return getattr(streams[0], method)
    fills = [getattr(g, method) for g in streams]

    def draw(shape):
        out = np.empty(shape)
        run = len(out) // len(fills)
        for i, fill in enumerate(fills):
            fill(out=out[i * run:(i + 1) * run])
        return out

    return draw


# ---------------------------------------------------------------------------
# the model target: delta-cached hierarchical posterior


@dataclass
class _Cache:
    eta: np.ndarray
    ll: np.ndarray
    logp: float
    # per prior class, each row's term v @ P_k @ v of the class's sum of
    # squares, in the class's row order (stored: recomputing it from x at
    # every try made a sweep about 6% slower)
    share: list[np.ndarray]


class _Group(NamedTuple):
    """Cells that one block move touches, in cell order, with their totals
    and their rows ``m`` of d eta / d x over the block's coordinates: a
    step ``d`` shifts their log-odds by ``m @ d``.  For a class block,
    ``owner`` is the row each cell belongs to, and a step ``d`` of shape
    ``(rows, n)`` shifts cell ``i`` by ``m[i] @ d[owner[i]]``."""

    rec: np.ndarray
    hits: np.ndarray
    shots: np.ndarray
    log_choose: np.ndarray
    m: np.ndarray
    owner: np.ndarray | None = None


class _Stash(NamedTuple):
    """What ``propose_delta`` hands to ``commit``, and ``propose_rows`` to
    ``commit_rows``: the group's new log-odds and log-likelihoods, the
    log-posterior change returned with the stash and the block's new
    shares, one per row for a class block."""

    eta: np.ndarray
    ll: np.ndarray
    delta: float | np.ndarray
    share: float | np.ndarray


class ModelTarget:
    """Posterior of the hierarchical model over its free coordinates.

    ``dataset`` is one dataset or a stack of R datasets of one ``spec``,
    and one dataset is a stack of R = 1: x holds the R vectors one after
    another and ``cache.logp`` is the sum of the R log-posteriors.  The
    blocks cover the latent field; the four log scales of each dataset are
    drawn by ``draw_scales``.  The build makes one pass over
    ``model.prior_classes`` and stores in ``_classes[k]``, once, the
    eigenbases that make each stacked row's ``fisher + lam P_k`` diagonal,
    in dataset-major order, and the ``PriorClass`` itself, its rows and unit
    prior precision P_k: a row's prior precision is ``e^{-2 v_k} P_k``, its
    share of the class's sum of squares ``PriorClass.shares``, and n_k is
    the class's coordinate count.  ``_scale_at[k]`` is the x index of each
    stacked row's log scale, its own dataset's.

    One rule makes every block.  A class whose rows share cells (the
    trajectories share the constrained athlete's), or that has one row
    (the baseline), steps row by row, each row across the R datasets;
    any other class (the position effects, the race-effect rows) steps as
    one.  A unit of one row is a row block (``propose_delta``/``commit``),
    and any larger unit a class block (``propose_rows``/``commit_rows``)
    whose rows and cells run dataset by dataset.  A block's ``payload``
    is ``(k, group, slot)``: its class, the ``_Group`` of cells its move
    touches and its slot in the class's stacks (a row, a strided slice of
    one row in every dataset, or every row).  ``hits``, ``shots`` and
    ``log_choose`` are the stack's cells, dataset by dataset.  Groups and
    Fisher matrices come from ``model.log_odds_jacobian``, so the
    constraint expansion lives in ``model`` only.  Datasets whose rows
    share cells in different classes give different block layouts and do
    not stack."""

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        self.spec = spec
        self.datasets = (dataset,) if isinstance(dataset, Dataset) else tuple(dataset)
        if not self.datasets:
            raise DataError("a stack needs at least one dataset")
        self.dim = spec.dim * len(self.datasets)
        self.lay = _model.layout(spec)
        # the x index of each dataset's four log scales, dataset by dataset
        self._sigma_at = (np.arange(len(self.datasets))[:, None] * spec.dim
                          + np.arange(self.lay.sigma.start, self.lay.sigma.stop)).ravel()
        self.blocks = self._build_blocks()

    # ---- layout ----------------------------------------------------------

    def _build_blocks(self):
        spec, R = self.spec, len(self.datasets)
        cells = [d.cells for d in self.datasets]  # log_odds_jacobian checks d's indices
        self.hits, self.shots, self.log_choose = map(np.concatenate, zip(*(c[1:] for c in cells)))
        first_rec = np.cumsum([0] + [len(c.hits) for c in cells[:-1]])
        w = []  # per dataset: Fisher info of eta per session, and each cell's session count
        for c in cells:
            pbar = np.clip(c.hits.sum() / c.shots.sum(), 0.1, 0.9) if len(c.hits) else 0.5
            w.append((SHOTS_PER_BOUT * pbar * (1.0 - pbar), c.shots / SHOTS_PER_BOUT))
        self._classes: list[tuple[np.ndarray, np.ndarray, _model.PriorClass]] = []
        self._scale_at = []  # the x index of each stacked class row's log scale
        blocks = []
        for k, cls in enumerate(_model.prior_classes(spec)):
            n_rows = len(cls.rows)
            # d eta / d x of each row at each cell's first session; its
            # non-zero rows are the cells a move touches
            jac = [[_model.log_odds_jacobian(d, spec, i)[c.first] for i in cls.rows]
                   for d, c in zip(self.datasets, cells)]
            touched = [np.array([m.any(axis=1) for m in ms]) for ms in jac]
            # each row's F + lam P_k made diagonal at every scale (Golub & Van
            # Loan, 8.7): P_k = L L^T, L^-1 F L^-T = U diag(e) U^T, V = L^-T U
            # with V^T F V = diag(e), V^T P_k V = I; e >= 0 up to rounding.  F
            # sums over sessions: a cell's term weighed by its session count
            inv_l = np.linalg.inv(np.linalg.cholesky(cls.precision))
            fisher = np.concatenate([np.stack([wd * (m.T @ (n[:, None] * m)) for m in ms])
                                     for (wd, n), ms in zip(w, jac)])
            e, u = np.linalg.eigh(inv_l @ fisher @ inv_l.T)
            self._classes.append((inv_l.T @ u, np.maximum(e, 0.0), cls))
            self._scale_at.append(np.repeat(np.arange(R) * spec.dim + self.lay.sigma.start + k,
                                            n_rows))
            # Two tries per trajectory visit: trajectory wiggles are
            # prior-dominated, so their amplitudes (which drive the beta scale's
            # conditional) need the extra turnover to keep the scale mixing.
            repeats = 2 if cls.name == "beta" and spec.T > 1 else 1
            # rows that share cells, or a lone row (a row try is cheaper),
            # step one by one, each across the stack; any other class as one
            shared = {n_rows == 1 or t.sum(axis=0).max(initial=0) > 1 for t in touched}
            if len(shared) > 1:
                raise DataError("the stacked datasets give different block layouts")
            by_row = shared.pop()
            for unit in [slice(r, r + 1) for r in range(n_rows)] if by_row else [slice(None)]:
                rec, m, owner = [], [], []
                for t, ms, f in zip(touched, jac, first_rec):
                    t = t[unit]
                    rec.append(np.flatnonzero(t.any(axis=0)))
                    owner.append(t[:, rec[-1]].argmax(axis=0))
                    # the unit's (rows, cells, n) matrices; one row's is a view
                    unit_m = ms[unit.start][None] if by_row else np.stack(ms)
                    m.append(unit_m[owner[-1], rec[-1]])
                    rec[-1] += f
                # the unit's rows in dataset-major order, each dataset's
                # coordinates and cells after those of the datasets before it
                rows = len(cls.rows[unit])
                rec = np.concatenate(rec)
                group = _Group(rec, self.hits[rec], self.shots[rec], self.log_choose[rec],
                               np.concatenate(m), np.concatenate([o + r * rows
                                                                  for r, o in enumerate(owner)]))
                idx = np.concatenate([cls.rows[unit] + r * spec.dim for r in range(R)])
                if by_row:  # its slot: the row in every dataset, a strided slice of its class
                    name = "mu" if cls.name == "mu" else f"{cls.name}[{unit.start + 1}]"
                    slot = slice(unit.start, None, n_rows)
                else:
                    name, slot = cls.name, slice(None)
                if len(idx) == 1:  # one row: a row block
                    idx, group, slot = idx[0], group._replace(owner=None), slot.start
                blocks.append(Block(name, idx, cls.name, (k, group, slot), repeats))
        return blocks

    def proposal_transform(self, x, block):
        """A matrix ``A`` with ``A @ A.T`` the inverse of the block's
        Gaussian-approximation precision, its Fisher matrix plus its class's
        prior precision ``e^{-2v} P_k`` at the current scale (for a class
        block, one per row): ``V diag((e + e^{-2v})^-1/2)`` from the row's
        eigenbasis fixed at build, one broadcast multiply that changes no
        state."""
        k, _, slot = block.payload
        basis, e, _ = self._classes[k]
        lam = np.exp(-2.0 * self._log_sigma(x, k, slot))
        return basis[slot] * ((e[slot] + lam[..., None]) ** -0.5)[..., None, :]

    # ---- state plumbing --------------------------------------------------

    def initial_vector(self, streams) -> np.ndarray:
        """Overdispersed: free coordinates N(0, 0.5), log scales N(0, 0.25),
        dataset r's from stream r."""
        xs = []
        for g in streams:
            x = g.normal(0.0, 0.5, self.spec.dim)
            if not self.spec.mu_only:
                x[self.lay.sigma] = g.normal(0.0, 0.25, 4)
            xs.append(x)
        return np.concatenate(xs)

    def make_cache(self, x: np.ndarray) -> _Cache:
        eta, ll, logp = [], [], 0.0
        for d, xr in zip(self.datasets, x.reshape(len(self.datasets), -1)):
            state, c = _model.from_vector(xr, self.spec), d.cells
            eta.append(_model.linear_predictors(state, d, self.spec)[c.first])
            ll.append(_model.bout_log_likelihoods(c.hits, eta[-1], c.shots, c.log_choose))
            logp += float(ll[-1].sum()) + _model.log_prior(state, self.spec)
        share = [np.empty(len(basis)) for basis, _, _ in self._classes]
        for b in self.blocks:  # by PriorClass.shares, as a move: a rebuild matches bit for bit
            k, _, slot = b.payload
            share[k][slot] = self._classes[k][2].shares(x[b.idx])
        return _Cache(eta=np.concatenate(eta), ll=np.concatenate(ll), logp=logp, share=share)

    def _log_sigma(self, x: np.ndarray, k: int, slot):
        """The log scale of each row of class k's ``slot``, each its own
        dataset's.  A ``mu_only`` target's scales are fixed at 1."""
        if self.spec.mu_only:
            return np.zeros(len(self._scale_at[k]))[slot]
        return x[self._scale_at[k][slot]]

    # ---- block moves -------------------------------------------------------

    def propose_delta(self, x, cache, block, prop):
        k, g, slot = block.payload
        # m holds 0 and +-1 only, one non-zero a cell for mu and for a
        # trajectory, so m @ d is exact and has propose_rows' bits
        eta = cache.eta[g.rec] + g.m @ (prop - x[block.idx])
        ll = _model.bout_log_likelihoods(g.hits, eta, g.shots, g.log_choose)
        # summed in cell order, as propose_rows sums each row's cells
        d_ll = np.bincount(np.zeros(len(ll), np.intp), ll - cache.ll[g.rec], minlength=1)[0]
        share = self._classes[k][2].shares(prop)
        lam = np.exp(-2.0 * self._log_sigma(x, k, slot))
        delta = float(d_ll - 0.5 * (share - cache.share[k][slot]) * lam)
        return delta, _Stash(eta, ll, delta, share)

    def commit(self, x, cache, block, prop, stash):
        """Apply an accepted move: exactly the delta ``propose_delta`` returned."""
        k, g, slot = block.payload
        cache.eta[g.rec] = stash.eta
        cache.ll[g.rec] = stash.ll
        cache.logp += stash.delta
        cache.share[k][slot] = stash.share

    def propose_rows(self, x, cache, block, prop):
        """The log-posterior delta of each row of a class block moved alone
        to its row of ``prop``.  The rows touch disjoint records and their
        priors are independent, so moving any set of them together changes
        the log-posterior by the sum of their deltas.  One likelihood call
        covers every record; ``np.bincount`` sums the changes by row."""
        k, g, slot = block.payload
        d = prop - x[block.idx]
        eta = cache.eta[g.rec] + (g.m * d[g.owner]).sum(axis=1)
        ll = _model.bout_log_likelihoods(g.hits, eta, g.shots, g.log_choose)
        d_ll = np.bincount(g.owner, weights=ll - cache.ll[g.rec], minlength=len(d))
        share = self._classes[k][2].shares(prop)
        lam = np.exp(-2.0 * self._log_sigma(x, k, slot))
        delta = d_ll - 0.5 * (share - cache.share[k][slot]) * lam
        return delta, _Stash(eta, ll, delta, share)

    def commit_rows(self, x, cache, block, prop, stash, accept):
        """Apply the rows of a class move that ``accept`` marks: exactly the
        sum of their deltas from ``propose_rows``."""
        k, g, slot = block.payload
        keep = accept[g.owner]
        cache.eta[g.rec[keep]] = stash.eta[keep]
        cache.ll[g.rec[keep]] = stash.ll[keep]
        cache.logp += float(stash.delta[accept].sum())
        cache.share[k][slot][accept] = stash.share[accept]

    def draw_scales(self, x, cache, streams):
        """Gibbs step on the four log scales of every dataset: sigma_k^2 is
        drawn from its exact conditional GIG((1 - n_k)/2, 1/c^2, ss_k), ss_k
        the sum of the class's cached shares in that dataset, one row sum
        per class.  The draws run in (dataset, class) order, dataset r's
        four in ``SIGMA_NAMES`` order from stream r.  A sum of squares that
        is zero or not finite leaves the conditional improper, and a draw
        that is not a positive finite number is no state: both raise
        NumericalError before anything is written.  Then x takes the new log
        scales at once, and ``cache.logp`` moves by their summed closed-form
        change, (1 - n_k)(v' - v) - ss_k (e^{-2v'} - e^{-2v})/2
        - (e^{2v'} - e^{2v})/(2c^2) per scale, exact but for rounding.  A
        ``mu_only`` target has no scales."""
        if self.spec.mu_only:
            return
        R, c2 = len(streams), self.spec.sigma_scale * self.spec.sigma_scale
        terms = [(cls.name, cls.rows.size) for _, _, cls in self._classes]
        ss = [share.reshape(R, -1).sum(axis=1).tolist() for share in cache.share]
        old, new, delta = x[self._sigma_at].tolist(), [], 0.0
        for r, g in enumerate(streams):
            for k, (name, n) in enumerate(terms):
                s2 = ss[k][r]
                if not 0.0 < s2 < math.inf:
                    raise NumericalError(f"log_sigma_{name}: sum of squares {s2} leaves "
                                         "its conditional improper")
                s = _gig(g, 0.5 * (1.0 - n), 1.0 / c2, s2)
                if not 0.0 < s < math.inf:
                    raise NumericalError(f"log_sigma_{name}: scale draw sigma^2 = {s}")
                v, v1 = old[4 * r + k], 0.5 * math.log(s)
                e, e1 = math.exp(2.0 * v), math.exp(2.0 * v1)
                delta += ((1 - n) * (v1 - v) - 0.5 * s2 * (1.0 / e1 - 1.0 / e)
                          - 0.5 * (e1 - e) / c2)
                new.append(v1)
        x[self._sigma_at] = new
        cache.logp += delta


def _gig(rng, p: float, a: float, b: float) -> float:
    """One draw from GIG(p, a, b), density proportional to
    x^(p - 1) exp(-(a x + b / x) / 2), for a, b > 0, by the three
    rejection samplers of Hörmann & Leydold (2014) as
    ``scipy.stats.geninvgauss`` runs them, one scalar at a time.

    x = sqrt(b / a) y for y ~ GIG(p, w, w) with w = sqrt(a b), and
    1 / y ~ GIG(-p, w, w), so only q = |p| is sampled: by ratio of
    uniforms around the mode for q >= 1 or w > 1, by ratio of uniforms
    at the origin for moderate w, and by the dominating density of
    their section 2 for small w."""
    w, q = math.sqrt(a * b), abs(p)
    # the log quasi-density of GIG(q, w, w), written out at each use:
    # (q - 1) log y - w (y + 1/y) / 2 for y > 0, -inf otherwise
    qm, hw = q - 1.0, 0.5 * w
    if q < 1.0:  # the mode, written to avoid cancellation
        m = w / (math.sqrt((q - 1.0) ** 2 + w * w) + 1.0 - q)
    else:
        m = (math.sqrt((1.0 - q) ** 2 + w * w) - (1.0 - q)) / w
    lm = qm * math.log(m) - hw * (m + 1.0 / m) if m > 0.0 else -math.inf
    if q >= 1.0 or w >= min(0.5, 2.0 * math.sqrt(1.0 - q) / 3.0):
        if q >= 1.0 or w > 1.0:  # ratio of uniforms with mode shift
            # vmin, vmax at the two roots of x^3 + a2 x^2 + a1 x + m (Cardano)
            a2, a1 = -2.0 * (q + 1.0) / w - m, 2.0 * m * (q - 1.0) / w - 1.0
            p1, q1 = a1 - a2 * a2 / 3.0, 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + m
            phi = math.acos(max(-1.0, min(1.0, -0.5 * q1 * math.sqrt(-27.0 / p1 ** 3))))
            s1 = -math.sqrt(-4.0 * p1 / 3.0)
            r1 = s1 * math.cos(phi / 3.0 + math.pi / 3.0) - a2 / 3.0
            r2 = -s1 * math.cos(phi / 3.0) - a2 / 3.0
            shift, top, umax = m, lm, 1.0  # umax = exp((lq(m) - top) / 2)
            l1 = qm * math.log(r1) - hw * (r1 + 1.0 / r1) if r1 > 0.0 else -math.inf
            l2 = qm * math.log(r2) - hw * (r2 + 1.0 / r2) if r2 > 0.0 else -math.inf
            vmin = (r1 - m) * math.exp(0.5 * (l1 - top))
            vmax = (r2 - m) * math.exp(0.5 * (l2 - top))
        else:  # ratio of uniforms without mode shift
            xp = (1.0 + q + math.sqrt((1.0 + q) ** 2 + w * w)) / w
            shift, top, vmin = 0.0, 0.0, 0.0
            vmax = xp * math.exp(0.5 * (qm * math.log(xp) - hw * (xp + 1.0 / xp)))
            umax = math.exp(0.5 * lm)
        while True:
            u, v = umax * rng.random(), vmin + (vmax - vmin) * rng.random()
            if u > 0.0:
                y = shift + v / u
                if y > 0.0 and 2.0 * math.log(u) <= qm * math.log(y) - hw * (y + 1.0 / y) - top:
                    break
    else:  # dominating density on (0, x0), (x0, 2/w) and (2/w, inf)
        x0 = w / (1.0 - q)
        xs = max(x0, 2.0 / w)
        k1 = math.exp(lm)
        a1 = k1 * x0
        k2 = a2 = 0.0
        if x0 < 2.0 / w:
            k2 = math.exp(-w)
            a2 = k2 * ((2.0 / w) ** q - x0 ** q) / q if q > 0.0 else k2 * math.log(2.0 / w ** 2)
        k3 = xs ** (q - 1.0)
        a3 = 2.0 * k3 * math.exp(-0.5 * xs * w) / w
        while True:
            u, v = rng.random(), (a1 + a2 + a3) * rng.random()
            if v <= a1:
                y, h = x0 * v / a1, k1
            elif v <= a1 + a2:
                if q > 0.0:
                    y = (x0 ** q + (v - a1) * q / k2) ** (1.0 / q)
                else:
                    y = x0 * math.exp((v - a1) / k2)
                h = k2 * y ** (q - 1.0)
            else:
                z = math.exp(-0.5 * xs * w) - 0.5 * w * (v - a1 - a2) / k3
                if z <= 0.0:  # v rounded onto the tail's end
                    continue
                y = -2.0 / w * math.log(z)
                h = k3 * math.exp(-0.5 * y * w)
            if u * h <= (math.exp(qm * math.log(y) - hw * (y + 1.0 / y)) if y > 0.0 else 0.0):
                break
    return math.sqrt(b / a) * (y if p >= 0.0 else 1.0 / y)


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


def worker_cap() -> int:
    """Worker processes for the chains: ``BIATHLON_BAYES_THREADS`` if set,
    else the CPU count, and at least one."""
    env = os.environ.get(THREADS_ENV, "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise DataError(f"{THREADS_ENV} must be an integer, got {env!r}") from None


def _runs(units) -> list[range]:
    """How a list of units, each a ``(dataset, seed, chain)`` triple, runs:
    as consecutive ranges of units, each one ``run_chain`` in one worker
    process.  If every unit's dataset has at most ``_STACK_CELLS`` cells,
    the units split into at most :func:`worker_cap` ranges, each run as one
    stacked target; otherwise each unit runs alone."""
    n, w = len(units), min(worker_cap(), len(units))
    if max(len(d.cells.hits) for d, _, _ in units) > _STACK_CELLS:
        return [range(u, u + 1) for u in range(n)]
    return [range(i * n // w, (i + 1) * n // w) for i in range(w)]


def _run(spec: ModelSpec, units, cfg: SamplerConfig, targets: dict):
    """Run ``units`` by :func:`_runs` on at most :func:`worker_cap`
    processes, each on its own copy of its run's target, and yield each
    run's units and ``ChainResult`` in order.  ``targets`` keeps the
    targets built, by their datasets.  Unit u draws from ``rng_for(seed_u,
    chain_u)`` whatever run it is in, and its draws are bit-identical alone
    and in any stack, so they do not depend on the worker count."""
    runs, jobs = _runs(units), []
    for run in runs:
        datasets, seeds, chains = zip(*(units[u] for u in run))
        key = tuple(map(id, datasets))
        if key not in targets:
            targets[key] = ModelTarget(spec, datasets)
        jobs.append((targets[key], cfg, chains[0] if len(set(chains)) == 1 else chains, seeds))
    workers = min(worker_cap(), len(runs))
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        yield from zip(runs, (pool.map if pool else map)(run_chain, *zip(*jobs)))


def _by_unit(result: ChainResult, R: int) -> list[ChainResult]:
    """A ``run_chain`` result of a stack of R units as one result per unit,
    in stack order, each unit's draws a view of the stack's."""
    dim, n = result.draws.shape[1] // R, len(result.block_names) // R
    return [ChainResult(result.draws[:, u * dim:(u + 1) * dim], result.acceptance[u * n:(u + 1) * n],
                        result.scales[u * n:(u + 1) * n], result.block_names[:n])
            for u in range(R)]


def run_chains(
    spec: ModelSpec, dataset: Dataset, cfg: SamplerConfig | None = None
) -> PosteriorSamples:
    """Sample the posterior with ``cfg.n_chains`` independent chains, from
    the streams of ``cfg.seed``: one unit per chain, with every chain's
    acceptance rates and proposal scales."""
    cfg = cfg or SamplerConfig()
    t0 = time.perf_counter()
    units = [(dataset, cfg.seed, c) for c in range(cfg.n_chains)]
    results = [u for run, r in _run(spec, units, cfg, {}) for u in _by_unit(r, len(run))]
    names = results[0].block_names
    acceptance = {n: tuple(float(r.acceptance[i]) for r in results) for i, n in enumerate(names)}
    scales = {n: tuple(float(r.scales[i]) for r in results) for i, n in enumerate(names)}
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


def run_stack(spec: ModelSpec, datasets, cfg: SamplerConfig, seeds):
    """Fit every dataset of a stack of one ``spec`` with ``cfg``'s chains,
    dataset r from the streams of ``seeds[r]`` (``cfg.seed`` is not read):
    chain c is the units ``(datasets[r], seeds[r], c)``.  Returns an
    iterator that runs the chains in turn, on targets built once, and gives
    each one's draws as ``(datasets, retained, spec.dim)``: a caller that
    drops a chain's draws before taking the next holds one chain's at a
    time.

    Dataset r's draws are bit for bit those of its own fit: of any stack
    that holds it with its seed, and of ``run_chains``.  A DataError or
    NumericalError anywhere in the stack is the whole stack's."""
    seeds = tuple(seeds)
    if not datasets:
        raise DataError("a stack needs at least one dataset")
    if len(seeds) != len(datasets):
        raise DataError(f"{len(datasets)} datasets but {len(seeds)} seeds")
    targets = {}
    return (_chain_draws(_run(spec, [(d, s, c) for d, s in zip(datasets, seeds)], cfg, targets), cfg)
            for c in range(cfg.n_chains))


def _chain_draws(runs, cfg: SamplerConfig) -> np.ndarray:
    """One chain's draws of a stack, ``(datasets, retained, dim)``: one
    run's are a view of its draws."""
    parts = [r.draws.reshape(cfg.n_retained, len(run), -1).transpose(1, 0, 2) for run, r in runs]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------------
# convergence diagnostics


def _as_chain_matrix(chains) -> np.ndarray:
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"expected (chains, draws) matrix, got shape {arr.shape}")
    return arr


def split_rhat(chains) -> float:
    """Split-R-hat of a ``(chains, draws)`` matrix, such as
    ``PosteriorSamples.param_draws(name)``: halve each chain, compare
    between- and within-half variance.  Raises NumericalError on degenerate
    input (constant chains) rather than reporting a hollow 1.0."""
    chains = _as_chain_matrix(chains)
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


def ess(chains) -> float:
    """Effective sample size of a ``(chains, draws)`` matrix:
    N / (1 + 2 sum of autocorrelations) with Geyer initial-positive-sequence
    truncation, per chain, summed."""
    chains = _as_chain_matrix(chains)
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
# sampler settings of earlier draws-v1 files that no longer exist; dropped on import
_REMOVED_SAMPLER_KEYS = ("proposal_mode", "adapt_window")


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


def export_draws(samples: PosteriorSamples, path, fmt: str = "binary") -> str:
    """Write draws + manifest to the file at ``path``, atomically, and
    return the sha256 of the file's bytes, hashed as they were written.
    ``fmt="binary"`` streams chains into a checksummed single-file
    container.  ``fmt="csv"`` writes one row per retained draw under a
    ``chain,iter,<param names>`` header (``_csv_chunks``), plus a JSON
    manifest sidecar at ``<path>.manifest.json`` holding the sha256 of the
    CSV bytes written."""
    path = Path(path)
    if fmt == "binary":
        digest = _write_atomic(path, lambda fh: _export_binary(samples, fh))
    elif fmt == "csv":
        manifest = _manifest_dict(samples)
        digest = _write_atomic(path, lambda fh: _put_hashed(fh, _csv_chunks(samples)))
        manifest["csv_sha256"] = digest.hexdigest()
        side = json.dumps(manifest, sort_keys=True, indent=2).encode()
        _write_atomic(path.with_name(path.name + ".manifest.json"), lambda fh: fh.write(side))
    else:
        raise DataError(f"unknown draws format {fmt!r}")
    return digest.hexdigest()


def _write_atomic(path, write):
    """Call ``write(fh)`` on ``<path>.tmp<pid>``, then move it onto
    ``path``; returns what ``write`` returned.  If anything fails, the
    temporary file is removed and ``path`` keeps its old bytes."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return result


def _put_hashed(fh, chunks):
    """Write each chunk and hash the same bytes; returns the sha256."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        fh.write(chunk)
    return digest


def _export_binary(samples: PosteriorSamples, fh):
    """Write the container; returns the sha256 of the whole file, its
    trailer (the sha256 of everything before it) included."""
    manifest = json.dumps(_manifest_dict(samples), sort_keys=True, separators=(",", ":")).encode()
    head = [_MAGIC, struct.pack("<Q", len(manifest)), manifest]
    chains = (np.ascontiguousarray(samples.draws[c], dtype=_DTYPE).tobytes()
              for c in range(samples.n_chains))  # stream chain by chain
    digest = _put_hashed(fh, itertools.chain(head, chains))
    trailer = digest.digest()
    fh.write(trailer)
    digest.update(trailer)
    return digest


def _csv_chunks(samples: PosteriorSamples):
    """The wide CSV body: the ``chain,iter,<param names>`` header, then one
    row per retained draw, chain by chain, each value as its ``repr``
    (which round-trips a float exactly, ``-0.0`` included)."""
    header = io.StringIO()  # csv.writer quotes names such as "beta[1,1]"
    csv.writer(header, lineterminator="\n").writerow(["chain", "iter", *samples.param_names])
    yield header.getvalue().encode()
    for c, chain in enumerate(samples.draws, 1):
        for i, draw in enumerate(chain.tolist(), 1):
            yield f"{c},{i},{','.join(map(repr, draw))}\n".encode()


def _parse_manifest(raw: bytes) -> dict:
    """Decode a draws manifest (binary header or CSV sidecar): a JSON
    object holding at least one draw of at least one parameter (positive
    ``n_chains``, ``n_retained`` and ``dim``), else DataError."""
    try:
        manifest = json.loads(raw.decode())
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise DataError(f"bad draws manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError("bad draws manifest: not a JSON object")
    for key in ("n_chains", "n_retained", "dim"):
        n = manifest.get(key)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DataError(f"bad draws manifest: {key} must be a positive integer")
    return manifest


def _samples_from_manifest(manifest: dict, draws: np.ndarray) -> PosteriorSamples:
    try:
        spec = ModelSpec(**manifest["model"])
        cfg = SamplerConfig(**{k: v for k, v in manifest["sampler"].items()
                               if k not in _REMOVED_SAMPLER_KEYS})
        names = tuple(manifest["param_names"])
        acceptance = {k: tuple(v) for k, v in manifest["acceptance_rates"].items()}
        scales = {k: tuple(v) for k, v in manifest["proposal_scales"].items()}
        source_digest = manifest["source_digest"]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"bad draws manifest: {e}") from None
    if len(names) != draws.shape[2]:
        raise DataError(
            f"manifest names ({len(names)}) do not match draw dim ({draws.shape[2]})"
        )
    if spec.dim != draws.shape[2]:
        raise DataError(f"manifest model dim ({spec.dim}) does not match draw dim "
                        f"({draws.shape[2]})")
    if names != _model.param_names(spec):
        raise DataError("manifest param_names are not the model's names in vector order")
    return PosteriorSamples(draws, names, spec, cfg, source_digest, acceptance, scales)


def import_draws(path) -> PosteriorSamples:
    """Read the draws container at ``path`` (binary, or CSV with its
    ``<path>.manifest.json`` sidecar) in one pass over the file, hashing
    every byte as it is read, and verify the checksum before anything read
    is trusted: a file that fails it is refused for that, whatever else is
    wrong with it.  The draws are the only draws-sized array made.  A
    binary body is read straight into one preallocated array whose payload
    becomes the draws.  A CSV is parsed as it streams, by one
    ``np.loadtxt`` into an array allocated once at the expected row count,
    and the draws are a view of it.  Neither keeps the file's bytes.  A CSV
    with more rows than draws is refused once the row after the last draw
    is read.  A CSV must have the header
    ``chain,iter,<the manifest's param names>`` and one row per draw in
    export order; any other layout, such as the one-value-per-row files of
    earlier versions, is a DataError."""
    return _read_draws(path)[0]


def _read_draws(path) -> tuple[PosteriorSamples, str]:
    """``import_draws``, and the sha256 of the file from the same read: a
    binary container's checksum updated with its trailer, a CSV's the
    digest that its sidecar's checksum was checked against."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) == _MAGIC:
            return _import_binary(fh)
        side = path.with_name(path.name + ".manifest.json")
        if side.exists():
            fh.seek(0)
            return _import_csv(fh, _parse_manifest(side.read_bytes()))
    raise DataError("unrecognized draws container (bad magic, no manifest sidecar)")


def _fill_hashed(fh, buf, digest):
    """Fill ``buf`` from ``fh`` and hash what was read; DataError if the
    file ends first."""
    view = memoryview(buf).cast("B")
    filled = 0
    while filled < len(view):
        n = fh.readinto(view[filled:])
        if not n:
            raise DataError("draws file truncated")
        filled += n
    digest.update(view)


def _import_binary(fh) -> tuple[PosteriorSamples, str]:
    """The rest of a binary container, from just after its magic: the body
    is read and hashed into a byte array sized from the file (the header's
    lengths are not trusted before the checksum), and the payload's bytes
    become the draws without a copy.  Returns them with the file's sha256."""
    size = os.fstat(fh.fileno()).st_size - len(_MAGIC) - 32  # between magic and trailer
    if size < 8:
        raise DataError("draws file truncated")
    digest = hashlib.sha256(_MAGIC)
    head = bytearray(8)
    _fill_hashed(fh, head, digest)
    (mlen,) = struct.unpack("<Q", head)
    raw_manifest = bytearray(min(mlen, size - 8))
    _fill_hashed(fh, raw_manifest, digest)
    payload = np.empty(size - 8 - len(raw_manifest), dtype=np.uint8)
    _fill_hashed(fh, payload, digest)
    trailer = fh.read(32)
    if trailer != digest.digest():
        raise DataError("draws file checksum mismatch (truncated or corrupted)")
    digest.update(trailer)
    manifest = _parse_manifest(bytes(raw_manifest))
    c, r, d = manifest["n_chains"], manifest["n_retained"], manifest["dim"]
    expected = c * r * d * 8
    if payload.size != expected:
        raise DataError(f"draws payload is {payload.size} bytes, expected {expected}")
    samples = _samples_from_manifest(manifest, payload.view(_DTYPE).reshape(c, r, d))
    return samples, digest.hexdigest()


class _HashedFile(io.RawIOBase):
    """A binary file read through ``readinto``, hashing every byte it passes
    on, for a buffered reader to wrap."""

    def __init__(self, fh):
        self.fh, self.digest = fh, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self.fh.readinto(b)
        self.digest.update(memoryview(b)[:n])
        return n

    def hexdigest(self) -> str:
        """The sha256 of the whole file: what is left is read and hashed first."""
        buf = bytearray(io.DEFAULT_BUFFER_SIZE)
        while self.readinto(buf):
            pass
        return self.digest.hexdigest()


def _import_csv(fh, manifest: dict) -> tuple[PosteriorSamples, str]:
    c, r, d = manifest["n_chains"], manifest["n_retained"], manifest["dim"]
    # loadtxt allocates max_rows rows at once: room for one row more than
    # the draws, so a surplus row shows, but for no more rows than the file
    # can hold (a row is d + 2 fields of at least two bytes each), whatever
    # the sidecar claims
    cap = min(c * r, os.fstat(fh.fileno()).st_size // (2 * (d + 2))) + 1
    hashed = _HashedFile(fh)
    try:
        rows = _csv_rows(io.BufferedReader(hashed), manifest, max_rows=cap)
    except DataError:
        _check_csv_digest(hashed, manifest)  # a body that fails its checksum is refused for that
        raise
    file_sha256 = _check_csv_digest(hashed, manifest)
    # loadtxt stopped at cap rows: refused without reading on to count them
    n = f"more than {cap - 1}" if rows.shape[0] == cap else rows.shape[0]
    if rows.shape != (c * r, d + 2):
        raise DataError(f"draws CSV: {n} rows of {rows.shape[1]} columns, "
                        f"expected {c * r} of {d + 2}")
    chain, it = np.repeat(np.arange(1, c + 1), r), np.tile(np.arange(1, r + 1), c)
    if not (np.array_equal(rows[:, 0], chain) and np.array_equal(rows[:, 1], it)):
        raise DataError("draws CSV: chain,iter columns are not each draw once, in export order")
    return _samples_from_manifest(manifest, rows[:, 2:].reshape(c, r, d)), file_sha256


def _check_csv_digest(hashed: _HashedFile, manifest: dict) -> str:
    """The CSV file's sha256, once it equals the sidecar's checksum."""
    file_sha256 = hashed.hexdigest()
    if manifest.get("csv_sha256") != file_sha256:
        raise DataError("draws CSV checksum mismatch against manifest sidecar")
    return file_sha256


def _csv_rows(body, manifest: dict, max_rows: int) -> np.ndarray:
    """The rows of a CSV body read from the buffered reader ``body``, after
    its header is checked against the manifest's names: one ``np.loadtxt``
    array of at most ``max_rows`` rows, whose columns 2.. hold the draws."""
    names = manifest.get("param_names")
    if not isinstance(names, list):
        raise DataError("bad draws manifest: param_names must be a list")
    expected = ["chain", "iter", *names]
    try:
        header = next(csv.reader([body.readline().decode()]), None)
    except (ValueError, csv.Error):  # undecodable bytes or a stray carriage return
        header = None
    if header != expected:
        more = f" and {len(expected) - 5} more" if len(expected) > 5 else ""
        raise DataError(f"draws CSV: missing or bad header, expected the columns "
                        f"{expected[:5]}{more}")
    text = io.TextIOWrapper(body, encoding="utf-8")  # universal newlines: "\r\n" reads "\n"
    # loadtxt skips blank lines and counts rows without them, but warns of
    # each under max_rows
    lines = (line for line in text if line != "\n")
    try:
        first = next(lines, None)
        if first is None:  # loadtxt only warns
            raise DataError("draws CSV: no rows")
        return np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                          ndmin=2, max_rows=max_rows)
    except ValueError as e:  # numpy names the row (counted after the header)
        raise DataError(f"draws CSV: malformed row: {e}") from None
