"""Synthetic worlds whose surrogates obey a known scaling law exactly.

The generator decomposes the outcome as

    Y = true_mean + signal_sd * x1 + eta,      eta ~ N(0, noise_floor),

so a function of X can explain everything except eta.  A trained
surrogate captures the full signal and carries two defects: the
configured bias profile and a deterministic pseudo-noise field scaled so
the population residual variance lands exactly on the law at the
training size s.  The field is a hash of the feature vector, so the
predictor stays a pure function of x; checkpoints at different s share
the field and only rescale it, mirroring how successive fine-tunes
shrink one error pattern rather than redraw it.  A trainer hands out
the part that does not depend on s (the mean, signal and bias terms plus
the unscaled field) through ``SimTrainer.parts``; the Monte-Carlo
experiments take it once per replicate and rescale it for every size
they evaluate, instead of predicting afresh at each size.

These worlds make brute-force Monte-Carlo oracles possible: every
analytic quantity (residual variance, estimator variance, optimal
split) is known in closed form.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .allocate import solve_optimal_allocation
from .core import (
    LabeledDataset,
    ParameterError,
    Predictor,
    RngSeed,
    UnlabeledDataset,
    UnsupportedSizeError,
    _CAN_FORK,
    _forked_rows,
    _resolve_workers,
    as_seed,
    check_int,
    check_probability,
)
from .ppi_mean import _rectified_mean
from .scaling import ScalingLaw, ScalingObservation, eval_variance, fit_scaling_law

_MIX_1 = np.uint64(0x9E3779B97F4A7C15)
_MIX_2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_3 = np.uint64(0x94D049BB133111EB)
_FIELD_SALT = np.uint64(0xD1B54A32D192ED03)


#: Rows per block of the hash field: its integer and float scratch stay in cache.
_FIELD_BLOCK = 8192


def _splitmix(z: np.ndarray, scratch: np.ndarray) -> None:
    """The SplitMix64 finalizer, applied to ``z`` in place; ``scratch`` has its shape."""
    z += _MIX_1
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX_2
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX_3
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def _gauss_field(xs: np.ndarray, key: int, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic standard normals, one per row, keyed by (row bytes, key).

    Per row, the Box-Muller pair of ``u1 = ((h >> 11) + 1) * 2**-53`` in
    (0, 1] and ``u2 = (h2 >> 11) * 2**-53`` in [0, 1), where ``h`` mixes the
    key with each column's bits and ``h2`` mixes ``h`` with a salt; in ``out`` if given.
    """
    n_rows = xs.shape[0]
    out = np.empty(n_rows, dtype=np.float64) if out is None else out
    h_buf = np.empty(min(n_rows, _FIELD_BLOCK), dtype=np.uint64)
    t_buf = np.empty_like(h_buf)
    u_buf = np.empty(h_buf.shape[0], dtype=np.float64)
    for lo in range(0, n_rows, _FIELD_BLOCK):
        hi = min(lo + _FIELD_BLOCK, n_rows)
        h, t, u1, field = h_buf[: hi - lo], t_buf[: hi - lo], u_buf[: hi - lo], out[lo:hi]
        h.fill(np.uint64(key))
        for j in range(xs.shape[1]):
            h ^= xs[lo:hi, j].view(np.uint64)
            _splitmix(h, t)
        np.right_shift(h, np.uint64(11), out=t)
        np.add(t, 1.0, out=u1)
        u1 *= 2.0**-53
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        h ^= _FIELD_SALT
        _splitmix(h, t)
        np.right_shift(h, np.uint64(11), out=t)
        np.multiply(t, 2.0**-53, out=field)
        field *= 2.0 * np.pi
        np.cos(field, out=field)
        field *= u1
    return out


def _field_key(seed: RngSeed) -> int:
    return int(np.random.SeedSequence((seed.seed, 0xF1E1D)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class BiasProfile:
    """How the surrogate's predictions deviate from the truth.

    ``zero``: no systematic error.  ``constant``: over-predicts by
    ``value`` everywhere.  ``drifting``: over-predicts by
    ``value * (1 + x1)``, so the error has mean ``value`` and moves with
    the features; this is the profile that breaks surrogate-only
    averaging while rectified estimates stay unbiased.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "drifting"):
            raise ParameterError(
                f"bias kind must be zero|constant|drifting, got {self.kind!r}"
            )
        if not np.isfinite(self.value):
            raise ParameterError(f"bias value must be finite, got {self.value}")
        if self.kind == "zero" and self.value != 0.0:
            raise ParameterError("zero bias cannot carry a value")

    @classmethod
    def zero(cls) -> "BiasProfile":
        return cls("zero", 0.0)

    @classmethod
    def constant(cls, value: float) -> "BiasProfile":
        return cls("constant", value)

    @classmethod
    def drifting(cls, slope: float) -> "BiasProfile":
        return cls("drifting", slope)

    def offsets(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(xs.shape[0]) if out is None else out
        if self.kind == "drifting":
            np.add(xs[:, 0], 1.0, out=out)
            out *= self.value
        else:  # a zero profile's value is 0.0
            out.fill(self.value)
        return out

    @property
    def variance(self) -> float:
        """Population variance of the offset (features are standard normal)."""
        return self.value**2 if self.kind == "drifting" else 0.0

    @property
    def slope(self) -> float:
        """Coefficient of x1 in the offset, so Cov(offset, x1) for standard normal x1."""
        return self.value if self.kind == "drifting" else 0.0


@dataclass(frozen=True)
class SyntheticWorld:
    """A fully-specified population plus the law its surrogates follow.

    ``noise_floor`` is Var(Y | X), the part no predictor can remove; it
    defaults to the law's floor b.  Setting it below b models a surrogate
    family that plateaus above the irreducible noise, which is what an
    improved (externally pre-trained) family can then beat.  ``s_min`` is
    the smallest supported fine-tuning size; None declares a world with
    no trainable surrogate (data generation only).  Within the supported
    range the law may not exceed var_y: a surrogate worse than predicting
    the mean is a configuration error, not an interesting world.
    """

    true_mean: float
    var_y: float
    feature_dim: int
    law: ScalingLaw
    bias: BiasProfile = BiasProfile.zero()
    s_min: int | None = 1
    noise_floor: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.true_mean):
            raise ParameterError(f"true_mean must be finite, got {self.true_mean}")
        if not np.isfinite(self.var_y) or self.var_y < 0:
            raise ParameterError(f"var_y must be finite and >= 0, got {self.var_y}")
        object.__setattr__(self, "feature_dim", check_int(self.feature_dim, "feature_dim", 1))
        nf = self.law.b if self.noise_floor is None else self.noise_floor
        if not np.isfinite(nf) or nf < 0:
            raise ParameterError(f"noise_floor must be finite and >= 0, got {nf}")
        if nf > self.law.b + 1e-12:
            raise ParameterError(
                f"noise_floor ({nf}) cannot exceed the law's floor b ({self.law.b}): "
                "no surrogate could then reach its own asymptote"
            )
        if nf > self.var_y:
            raise ParameterError(
                f"noise_floor ({nf}) cannot exceed var_y ({self.var_y})"
            )
        if self.s_min is not None:
            object.__setattr__(self, "s_min", check_int(self.s_min, "s_min", 1))
            ceiling = eval_variance(self.law, self.s_min)
            if ceiling > self.var_y:
                raise ParameterError(
                    f"law exceeds var_y at s_min={self.s_min} "
                    f"({ceiling:.6g} > {self.var_y:.6g}); raise s_min or var_y"
                )

    @property
    def effective_noise_floor(self) -> float:
        return self.law.b if self.noise_floor is None else self.noise_floor

    @property
    def signal_sd(self) -> float:
        return float(np.sqrt(self.var_y - self.effective_noise_floor))

    def residual_pseudo_noise_var(self, s: int) -> float:
        """Variance the hash field must supply at training size s."""
        return eval_variance(self.law, s) - self.effective_noise_floor - self.bias.variance


def generate_world_data(
    world: SyntheticWorld, n: int, m: int, seed: RngSeed | int
) -> tuple[LabeledDataset, UnlabeledDataset]:
    """Draw n labeled and m unlabeled samples from the world."""
    n, m = check_int(n, "n", 1), check_int(m, "m", 1)
    xu = np.empty((m, world.feature_dim))
    labeled = _draw(world, n, as_seed(seed), xu)
    return labeled, UnlabeledDataset._adopt(xu)


def _draw(world: SyntheticWorld, n: int, seed: RngSeed, pool: np.ndarray) -> LabeledDataset:
    """``generate_world_data``'s labeled draw; the pool's features go into ``pool``."""
    seed.child(2).generator().standard_normal(out=pool)
    return _generate_labeled(world, n, seed.child(1))


def _generate_labeled(world: SyntheticWorld, n: int, seed: RngSeed) -> LabeledDataset:
    rng = seed.generator()
    xs = rng.standard_normal((n, world.feature_dim))
    eta_sd = float(np.sqrt(world.effective_noise_floor))
    eta = rng.standard_normal(n) * eta_sd
    ys = world.true_mean + world.signal_sd * xs[:, 0] + eta
    return LabeledDataset(xs, ys)


_Parts = tuple[np.ndarray, np.ndarray]


def _base(world: SyntheticWorld, xs: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """``true_mean + signal_sd * x1 + bias.offsets(xs)``; ``scratch`` takes the offsets."""
    out = np.multiply(xs[:, 0], world.signal_sd, out=out)
    out += world.true_mean
    out += world.bias.offsets(xs, scratch)
    return out


def _parts(world: SyntheticWorld, key: int, xs: np.ndarray, base=None, field=None) -> _Parts:
    return _base(world, xs, base, field), _gauss_field(xs, key, field)


def _checkpoint(parts: _Parts, pseudo_sd: float, out=None) -> np.ndarray:
    """``base + pseudo_sd * field``: a checkpoint's predictions."""
    base, field = parts
    out = np.multiply(field, pseudo_sd, out=out)
    out += base
    return out


def _pseudo_sd(pseudo_var: float, label: str) -> float:
    if pseudo_var < -1e-12:
        raise UnsupportedSizeError(
            f"{label}: law leaves no room for the pseudo-noise field "
            f"(needed variance {pseudo_var:.6g} < 0)"
        )
    return float(np.sqrt(max(pseudo_var, 0.0)))


def _sim_predictor(
    world: SyntheticWorld, key: int, pseudo_sd: float, s_tag: int, label: str
) -> Predictor:
    def fn(xs: np.ndarray) -> np.ndarray:
        return _checkpoint(_parts(world, key, xs), pseudo_sd)

    return Predictor(fn, s=s_tag, label=label)


@dataclass(frozen=True)
class SimTrainer:
    """Stand-in for a fine-tuning run inside a synthetic world.

    ``train`` consumes only the fine-tuning subset's size; the returned
    predictor is a pure function of the feature vector and the trainer
    seed, so it is independent of any rectification or validation data
    by construction.  Residual variance at size s equals the world law
    exactly.  The checkpoint at size s predicts ``base + pseudo_sd(s) *
    field`` with ``(base, field) = parts(xs)``; a caller that evaluates
    several sizes on the same rows takes the parts once and rescales
    them, which gives the same floats as the predictors.
    """

    world: SyntheticWorld
    rng: RngSeed
    _key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", _field_key(self.rng))

    def parts(self, xs: np.ndarray, base=None, field=None) -> _Parts:
        """``(base, field)`` on the rows of ``xs``, computed afresh on every call.

        ``base = true_mean + signal_sd * x1 + bias.offsets(xs)`` and
        ``field`` is the unscaled pseudo-noise; neither depends on s.  Into
        ``base`` and ``field`` if given.
        """
        return _parts(self.world, self._key, xs, base, field)

    def pseudo_sd(self, s: int) -> float:
        """Scale of the pseudo-noise field in the checkpoint at training size s."""
        world = self.world
        if world.s_min is None:
            raise UnsupportedSizeError("this world declares no trainable surrogate")
        s = check_int(s, "training size", 0)
        if s < world.s_min:
            raise UnsupportedSizeError(
                f"training size {s} below the world's minimum {world.s_min}"
            )
        return _pseudo_sd(world.residual_pseudo_noise_var(s), f"sim(s={s})")

    def train(self, ft_data: LabeledDataset) -> Predictor:
        return self.train_size(ft_data.n)

    def train_size(self, s: int) -> Predictor:
        """Train at an explicit size (the subset's content is not used)."""
        pseudo_sd = self.pseudo_sd(s)
        return _sim_predictor(self.world, self._key, pseudo_sd, int(s), f"sim(s={s})")


def base_predictor(world: SyntheticWorld, seed: RngSeed | int) -> Predictor:
    """Surrogate that never saw task labels; residual variance is the law at s=1.

    This is the stand-in for rectifying with an off-the-shelf model, so
    it exists even when the world's supported fine-tuning range starts
    above 1.
    """
    return _sim_predictor(world, *_base_surrogate(world, seed), 0, "base")


def _base_surrogate(world: SyntheticWorld, seed: RngSeed | int) -> tuple[int, float]:
    """The field key and pseudo-noise scale of ``base_predictor(world, seed)``."""
    pseudo_sd = _pseudo_sd(world.residual_pseudo_noise_var(1), "base")
    return _field_key(as_seed(seed)), pseudo_sd


# ---------------------------------------------------------------------------
# Replicate kernel
# ---------------------------------------------------------------------------


def _rows(fn, items, scratch) -> np.ndarray:
    buffers = [np.empty(shape) for shape in scratch]  # the chunk's, freed on return
    return np.array([fn(item, *buffers) for item in items], dtype=np.float64)


def _replicates(fn, items: Sequence, workers: int, scratch: Sequence = ()) -> np.ndarray:
    """``fn(item, *buffers)`` for every item, as a float64 array with one row per item.

    ``fn`` must be a pure function of its item; ``buffers``, one float64
    array per shape in ``scratch`` made once per chunk in the process
    running it, are scratch to write before reading.  With more than one
    worker the items are cut into contiguous chunks, one per worker, and
    ``core._forked_rows`` computes the first chunk here and the others in
    forked children, joining the rows in item order, so the result is
    byte-identical to the serial one.  The earliest chunk's error is
    raised, as the serial loop would have raised it.  Where nothing can
    fork (off Linux) every item runs here.
    """
    items = list(items)
    workers = _resolve_workers(workers, len(items))
    if not _CAN_FORK:
        workers = 1
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return _forked_rows([functools.partial(_rows, fn, chunk, scratch) for chunk in chunks])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _split_estimate(
    trainer: SimTrainer, ys: np.ndarray, lab: _Parts, pool: _Parts, perm: np.ndarray, s: int, out
) -> float:
    """Rectified estimate after fine-tuning on ``perm[:s]`` and rectifying on the rest.

    ``ys`` are the outcomes of the full labeled draw, and ``lab`` and
    ``pool`` are ``trainer.parts`` of its features and of the pool's.
    The fine-tuning subset is never built: a simulated trainer reads only
    its size.  The predictions are the checkpoint's own floats, so this
    equals ``ppi_mean_estimate`` on the rectification subset.  The pool's
    go into ``out``.
    """
    pseudo_sd = trainer.pseudo_sd(s)
    idx = np.sort(perm[s:])
    lab_base, lab_field = lab
    return _rectified_mean(
        ys[idx],
        _checkpoint((lab_base[idx], lab_field[idx]), pseudo_sd),
        _checkpoint(pool, pseudo_sd, out),
    )


@dataclass(frozen=True)
class BruteForceResult:
    """Empirical variance curve over split fractions, plus its argmin."""

    best_fraction: float
    fractions: np.ndarray
    variances: np.ndarray
    replicates: int


def brute_force_allocation(
    world: SyntheticWorld,
    n: int,
    m: int,
    grid_step: float,
    replicates: int,
    seed: RngSeed | int,
    workers: int = 1,
) -> BruteForceResult:
    """Monte-Carlo oracle for the optimal split fraction.

    For every grid fraction in (0, 1) the full pipeline (draw data,
    split, train, rectified estimate) runs ``replicates`` times and the
    empirical variance of the estimate is recorded.  Two common-random-
    numbers devices keep the argmin stable without biasing it.  First,
    within a replicate all fractions share the same labeled draw and
    trainer, so noise is strongly correlated across the grid.  Second,
    the unlabeled pool is drawn once and held fixed across replicates:
    conditional on the pool features, the estimate's mean does not
    depend on the split (the pool contributes the same additive term to
    every fraction), so by the law of total variance the conditioning
    subtracts a split-independent constant from the variance curve and
    leaves its minimizer untouched.  ``workers`` is the number of
    processes the replicates run on (0: every usable CPU); the result
    does not depend on it.
    """
    grid_step = check_probability(grid_step, "grid_step")
    replicates = check_int(replicates, "replicates", 2)
    n, m = check_int(n, "n", 4), check_int(m, "m", 1)
    seed = as_seed(seed)
    count = int(round(1.0 / grid_step)) - 1
    fractions = np.array([grid_step * (i + 1) for i in range(count)])
    fractions = fractions[(fractions > 0.0) & (fractions < 1.0)]
    sizes = [min(max(int(round(f * n)), 1), n - 2) for f in fractions]

    pool_xs = seed.child(0).generator().standard_normal((m, world.feature_dim))
    pool_base = _base(world, pool_xs)

    def replicate(rep: RngSeed, field: np.ndarray, preds: np.ndarray) -> list[float]:
        labeled = _generate_labeled(world, n, rep.child(0))
        trainer = SimTrainer(world, rep.child(1))
        perm = rep.child(2).generator().permutation(n)
        lab = trainer.parts(labeled.xs)
        pool = pool_base, _gauss_field(pool_xs, trainer._key, field)
        return [_split_estimate(trainer, labeled.ys, lab, pool, perm, s, preds) for s in sizes]

    reps = [seed.child(r + 1) for r in range(replicates)]
    # One contiguous row per fraction: numpy sums a strided axis in another
    # order, which would move the variances' last bits.
    estimates = np.ascontiguousarray(_replicates(replicate, reps, workers, [m, m]).T)
    variances = np.var(estimates, axis=1, ddof=1)
    best = int(np.argmin(variances))  # ties resolve to the smaller fraction
    return BruteForceResult(
        best_fraction=float(fractions[best]),
        fractions=fractions,
        variances=variances,
        replicates=replicates,
    )


def analytic_estimator_variance(world: SyntheticWorld, n: int, m: int, s: int) -> float:
    """Closed-form variance of the rectified mean at split s in this world."""
    law_var = eval_variance(world.law, s)
    pred_var = (
        world.signal_sd**2
        + 2.0 * world.signal_sd * world.bias.slope
        + world.bias.variance
        + world.residual_pseudo_noise_var(s)
    )
    return law_var / (n - s) + pred_var / m


@dataclass(frozen=True)
class MethodStats:
    """Monte-Carlo accuracy summary for one estimation method."""

    method: str
    mean_estimate: float
    rmse: float
    mae: float
    variance: float


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side Monte-Carlo accuracy of the four mean estimators.

    ``sample_savings`` and ``variance_reduction`` are one and the same
    number: 1 - Var(rectified at s*) / Var(sample mean) equals the saved
    share of labeled data at equal precision.
    """

    rows: tuple[MethodStats, ...]
    s_star: int
    variance_reduction: float
    sample_savings: float
    analytic_variance_reduction: float
    n: int
    m: int
    replicates: int


def run_estimator_comparison(
    world: SyntheticWorld,
    n: int,
    m: int,
    replicates: int,
    seed: RngSeed | int,
    workers: int = 1,
) -> ComparisonReport:
    """Monte-Carlo comparison: sample mean, surrogate-only, rectified base,
    and fine-tune-then-rectify at the solver's optimal split, with the
    replicates on ``workers`` processes as in ``brute_force_allocation``."""
    replicates = check_int(replicates, "replicates", 2)
    n, m = check_int(n, "n", 2), check_int(m, "m", 1)
    seed = as_seed(seed)
    alloc = solve_optimal_allocation(world.law, n)
    s_star = alloc.s_star_int

    def replicate(rep: RngSeed, xs, base, field, preds) -> tuple[float, float, float, float]:
        labeled = _draw(world, n, rep.child(0), xs)
        trainer = SimTrainer(world, rep.child(1))
        lab, pool = trainer.parts(labeled.xs), trainer.parts(xs, base, field)
        ft_only = float(np.mean(_checkpoint(pool, trainer.pseudo_sd(n), preds)))
        perm = rep.child(3).generator().permutation(n)
        ft_ppi = _split_estimate(trainer, labeled.ys, lab, pool, perm, s_star, preds)
        # base_predictor's bases are the trainer's; its scale cannot fail if pseudo_sd(n) did not
        key, pseudo_sd = _base_surrogate(world, rep.child(2))
        ppi_only = _rectified_mean(
            labeled.ys,
            _checkpoint((lab[0], _gauss_field(labeled.xs, key)), pseudo_sd),
            _checkpoint((base, _gauss_field(xs, key, field)), pseudo_sd, preds),
        )
        return float(np.mean(labeled.ys)), ft_only, ppi_only, ft_ppi

    names = ("SampleMean", "FtOnly", "PpiOnly", "FtPpi")
    reps = [seed.child(r) for r in range(replicates)]
    ws = [(m, world.feature_dim), m, m, m]  # the pool's features, base, field and predictions
    draws = np.ascontiguousarray(_replicates(replicate, reps, workers, ws).T)  # as in brute force

    rows = []
    for name, draw in zip(names, draws):
        err = draw - world.true_mean
        rows.append(
            MethodStats(
                method=name,
                mean_estimate=float(np.mean(draw)),
                rmse=float(np.sqrt(np.mean(err**2))),
                mae=float(np.mean(np.abs(err))),
                variance=float(np.var(draw, ddof=1)),
            )
        )
    var_sm = rows[0].variance
    var_ftppi = rows[3].variance
    reduction = 1.0 - var_ftppi / var_sm
    analytic = 1.0 - n * eval_variance(world.law, s_star) / (world.var_y * (n - s_star))
    return ComparisonReport(
        rows=tuple(rows),
        s_star=s_star,
        variance_reduction=reduction,
        sample_savings=reduction,
        analytic_variance_reduction=float(analytic),
        n=n,
        m=m,
        replicates=replicates,
    )


@dataclass(frozen=True)
class QuantitySummary:
    median: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BootstrapReport:
    """Stability of the fitted law and implied split under resampling.

    ``quantities`` summarizes each fitted quantity by the median over all
    (dataset, training-seed) outcomes with a percentile bootstrap CI of
    that median.  The variance decomposition splits the total variance of
    the split fraction across outcomes into a dataset-sampling part and a
    training-randomness part; the two parts sum to the total exactly.
    """

    quantities: dict[str, QuantitySummary]
    data_sampling_part: float
    training_randomness_part: float
    total_variance: float
    n_datasets: int
    n_training_seeds: int
    resamples: int


_BOOT_QUANTITIES = ("a", "alpha", "b", "fraction", "r_squared")


def _median(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.median(a, axis=axis)`` to the bit, without the ``numpy.ma`` import it makes.

    numpy's own steps: one partition that also moves any NaN to the end,
    the mean of the middle one or two elements, and NaN wherever the
    partitioned slice ends in one.  ``a`` is partitioned in place.
    """
    half = a.shape[axis] // 2
    middle = [slice(None)] * a.ndim
    if a.shape[axis] % 2:
        kth, middle[axis] = [half, -1], slice(half, half + 1)
    else:
        kth, middle[axis] = [half - 1, half, -1], slice(half - 1, half + 1)
    a.partition(kth, axis=axis)
    last = np.take(a, -1, axis=axis)
    return np.where(np.isnan(last), last, np.mean(a[tuple(middle)], axis=axis))


def _percentiles(a: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(a, q)`` of a 1-d array to the bit, without the ``numpy.ma`` import.

    numpy's default ('linear') method step by step, for q in [0, 100]:
    the virtual index (n - 1) q / 100 of each q, one partition at both
    neighbours of each (and at both ends, moving any NaN last), then its
    two-sided linear interpolation between them.
    """
    n = a.shape[0]
    virtual = (n - 1) * (np.asarray(q, dtype=np.float64) / 100)
    below = np.floor(virtual)
    above = below + 1
    below[virtual >= n - 1] = above[virtual >= n - 1] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    part = np.partition(a, sorted({0, n - 1, *(below % n).tolist(), *(above % n).tolist()}))
    if np.isnan(part[-1]):
        return np.full(virtual.shape, part[-1])
    lo, hi, gamma = part[below], part[above], virtual - below
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


def _measure_law_outcome(
    val: LabeledDataset, s_grid: Sequence[int], trainer: SimTrainer, n_alloc: int
) -> tuple[float, float, float, float, float]:
    parts = trainer.parts(val.xs)
    observations = []
    for s in s_grid:
        resid = val.ys - _checkpoint(parts, trainer.pseudo_sd(s))
        observations.append(ScalingObservation(s, float(np.var(resid, ddof=1))))
    fit = fit_scaling_law(observations)
    alloc = solve_optimal_allocation(fit.law, n_alloc)
    return (fit.law.a, fit.law.alpha, fit.law.b, alloc.fraction, fit.r_squared)


def default_measure_grid(world: SyntheticWorld, pool: int) -> list[int]:
    """Geometric grid of up to 7 distinct training sizes inside the supported range."""
    lo = max(world.s_min or 1, 16)
    if pool <= lo:
        raise ParameterError(f"pool of {pool} too small for measurements starting at {lo}")
    return sorted(set(np.geomspace(lo, pool, 7).round().astype(int).tolist()))


def bootstrap_robustness(
    world: SyntheticWorld,
    n_datasets: int,
    n_training_seeds: int,
    n_fit: int,
    resamples: int,
    seed: RngSeed | int,
    s_grid: Sequence[int] | None = None,
    training_noise: bool = True,
    n_alloc: int | None = None,
    workers: int = 1,
) -> BootstrapReport:
    """Two-level uncertainty audit of the fitted law.

    Draws ``n_datasets`` fresh datasets; on each, refits the law under
    ``n_training_seeds`` training seeds (half the data held out for
    residual measurement, half providing nested fine-tuning subsets).
    With ``training_noise=False`` every training seed is identical, which
    should and does zero out the training-randomness variance part.
    The datasets are drawn here; the (dataset, training seed) refits run
    on ``workers`` processes as in ``brute_force_allocation``.
    """
    n_datasets = check_int(n_datasets, "n_datasets", 2)
    n_training_seeds = check_int(n_training_seeds, "n_training_seeds", 1)
    n_fit = check_int(n_fit, "n_fit", 4)
    resamples = check_int(resamples, "resamples", 1)
    n_alloc = n_fit if n_alloc is None else check_int(n_alloc, "n_alloc", 2)
    seed = as_seed(seed)

    n_val = n_fit // 2
    grid = list(s_grid) if s_grid is not None else default_measure_grid(world, n_fit - n_val)
    vals = []
    for j in range(n_datasets):
        data_seed = seed.child(1, j)
        labeled = _generate_labeled(world, n_fit, data_seed.child(0))
        perm = data_seed.child(1).generator().permutation(n_fit)
        vals.append(labeled.subset(np.sort(perm[:n_val])))

    def outcome(pair: tuple[int, int]) -> tuple[float, float, float, float, float]:
        j, k = pair
        trainer = SimTrainer(world, seed.child(2, j, k if training_noise else 0))
        return _measure_law_outcome(vals[j], grid, trainer, n_alloc)

    pairs = [(j, k) for j in range(n_datasets) for k in range(n_training_seeds)]
    outcomes = _replicates(outcome, pairs, workers).reshape(n_datasets, n_training_seeds, -1)
    flat = outcomes.reshape(-1, len(_BOOT_QUANTITIES))
    rng = seed.child(3).generator()
    idx = rng.integers(0, flat.shape[0], size=(resamples, flat.shape[0]))
    boot_medians = _median(flat[idx], axis=1)  # (resamples, q)

    quantities = {}
    for qi, name in enumerate(_BOOT_QUANTITIES):
        lo, hi = _percentiles(boot_medians[:, qi], [2.5, 97.5])
        quantities[name] = QuantitySummary(
            median=float(_median(flat[:, qi].copy(), axis=0)), ci_low=float(lo), ci_high=float(hi)
        )

    fractions = outcomes[:, :, _BOOT_QUANTITIES.index("fraction")]
    per_dataset_mean = fractions.mean(axis=1)
    between = float(np.var(per_dataset_mean))  # population variances: parts
    within = float(np.mean(np.var(fractions, axis=1)))  # sum to the total exactly
    total = float(np.var(fractions))
    return BootstrapReport(
        quantities=quantities,
        data_sampling_part=between,
        training_randomness_part=within,
        total_variance=total,
        n_datasets=n_datasets,
        n_training_seeds=n_training_seeds,
        resamples=resamples,
    )


@dataclass(frozen=True)
class ExternalFtReport:
    """Effect of richer pre-training data, modeled as a shifted law."""

    strength: float
    law_base: ScalingLaw
    law_external: ScalingLaw
    fraction_base: float
    fraction_external: float
    mc_mean: float
    mc_se: float
    true_mean: float
    empirical_variance: float
    analytic_variance: float
    replicates: int


def shifted_law(world: SyntheticWorld, strength: float) -> ScalingLaw:
    """Law after adding external fine-tuning data: lower floor, faster decay.

    The floor cannot drop below the world's irreducible noise.
    """
    if not 0.0 <= strength <= 1.0:
        raise ParameterError(f"strength must lie in [0, 1], got {strength}")
    law = world.law
    nf = world.effective_noise_floor
    return ScalingLaw(
        a=law.a,
        alpha=law.alpha * (1.0 + 0.2 * strength),
        b=max(law.b * (1.0 - 0.5 * strength), nf),
    )


def external_ft_experiment(
    world: SyntheticWorld,
    strength: float,
    n: int,
    m: int,
    replicates: int,
    seed: RngSeed | int,
    workers: int = 1,
) -> ExternalFtReport:
    """Check that the rectified estimator keeps its guarantees under the
    shifted law: unbiasedness and the two-term variance formula.  The
    replicates run on ``workers`` processes as in ``brute_force_allocation``."""
    replicates = check_int(replicates, "replicates", 2)
    n, m = check_int(n, "n", 2), check_int(m, "m", 1)
    seed = as_seed(seed)
    law2 = shifted_law(world, strength)
    world2 = replace(world, law=law2, noise_floor=world.effective_noise_floor)

    alloc_base = solve_optimal_allocation(world.law, n)
    alloc_ext = solve_optimal_allocation(law2, n)
    s = alloc_ext.s_star_int

    def replicate(rep: RngSeed, xs, base, field, preds) -> float:
        labeled = _draw(world2, n, rep.child(0), xs)
        trainer = SimTrainer(world2, rep.child(1))
        perm = rep.child(2).generator().permutation(n)
        lab, pool = trainer.parts(labeled.xs), trainer.parts(xs, base, field)
        return _split_estimate(trainer, labeled.ys, lab, pool, perm, s, preds)

    reps = [seed.child(r) for r in range(replicates)]
    estimates = _replicates(replicate, reps, workers, [(m, world.feature_dim), m, m, m])

    mc_mean = float(np.mean(estimates))
    mc_var = float(np.var(estimates, ddof=1))
    return ExternalFtReport(
        strength=float(strength),
        law_base=world.law,
        law_external=law2,
        fraction_base=alloc_base.fraction,
        fraction_external=alloc_ext.fraction,
        mc_mean=mc_mean,
        mc_se=float(np.sqrt(mc_var / replicates)),
        true_mean=world.true_mean,
        empirical_variance=mc_var,
        analytic_variance=analytic_estimator_variance(world2, n, m, s),
        replicates=replicates,
    )


# ---------------------------------------------------------------------------
# World and scenario files
# ---------------------------------------------------------------------------
# One table per object of a world or scenario file: key -> (kind, default
# or _REQUIRED).  A kind reads the JSON value at a key path and raises a
# ParameterError naming the path; null is read only by ``_nullable`` kinds.

_REQUIRED = object()


def _kind(what: str, ok, convert=None):
    """Kind accepting the values that pass ``ok``, read as ``convert(value)``."""

    def read(value, path: str):
        if not ok(value):
            raise ParameterError(f"scenario key {path!r} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return read


def _is_integer(v) -> bool:
    """An int or an integral float; booleans are not integers."""
    return isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer()


_integer = _kind("an integer", _is_integer, int)
_number = _kind(  # the bound also rejects nan, inf and ints too large for a float
    "a finite number",
    lambda v: (_is_integer(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
    float,
)
_flag = _kind("true or false", lambda v: isinstance(v, bool))
_integers = _kind(
    "a list of integers", lambda v: isinstance(v, list) and all(map(_is_integer, v)),
    lambda v: [int(x) for x in v],
)
_bias_kind = _kind("one of zero, constant, drifting", ("zero", "constant", "drifting").__contains__)
_is_object = _kind("an object", lambda v: isinstance(v, dict))


def _nullable(kind):
    return lambda value, path: None if value is None else kind(value, path)


def _object(table: dict, build=dict):
    """Kind of a JSON object holding keys of ``table``, read as ``build(**keys)``."""

    def read(value, path: str):
        prefix = f"{path}." if path else ""
        unknown = [key for key in _is_object(value, path) if key not in table]
        if unknown:
            raise ParameterError(
                f"scenario key {prefix + unknown[0]!r} must be one of the known keys: "
                + ", ".join(table)
            )
        for key, (_, default) in table.items():
            if default is _REQUIRED and key not in value:
                where = f"scenario key {path!r}" if path else "scenario"
                raise ParameterError(f"{where} is missing required key {key!r}")
        return build(
            **{key: kind(value[key], prefix + key) if key in value else default
               for key, (kind, default) in table.items()}
        )

    return read


_LAW = dict.fromkeys(("a", "alpha", "b"), (_number, _REQUIRED))
_BIAS = {"kind": (_bias_kind, "zero"), "value": (_number, 0.0)}
_WORLD = _object(
    {
        "true_mean": (_number, _REQUIRED),
        "var_y": (_number, _REQUIRED),
        "feature_dim": (_integer, 1),
        "law": (_object(_LAW, ScalingLaw), _REQUIRED),
        "bias": (_object(_BIAS, BiasProfile), BiasProfile.zero()),
        "s_min": (_nullable(_integer), 1),  # null: no trainable surrogate
        "noise_floor": (_nullable(_number), None),
    },
    SyntheticWorld,
)

#: The scenario sections.  Each key is a keyword of the section's
#: experiment; ``bootstrap.n_fit`` of None means the scenario's n.
_SECTIONS = {
    "allocation_curve": {"grid_step": (_number, 0.05), "replicates": (_integer, 100)},
    "comparison": {"replicates": (_integer, 200)},
    "bootstrap": {
        "n_datasets": (_integer, 10),
        "n_training_seeds": (_integer, 3),
        "n_fit": (_integer, None),
        "resamples": (_integer, 200),
        "s_grid": (_nullable(_integers), None),
        "training_noise": (_flag, True),
        "n_alloc": (_nullable(_integer), None),
    },
    "external": {"strength": (_number, 0.5), "replicates": (_integer, 200)},
}
_SCENARIO = _object(
    {
        "world": (_WORLD, _REQUIRED),
        "n": (_integer, _REQUIRED),
        "m": (_integer, _REQUIRED),
        "seed": (_nullable(_integer), None),
        **{name: (_nullable(_object(table)), None) for name, table in _SECTIONS.items()},
    }
)


def world_from_dict(spec: dict) -> SyntheticWorld:
    """Build a world from a parsed world file; its keys are addressed as ``world.<key>``."""
    return _WORLD(spec, "world")


def scenario_from_dict(spec: dict) -> dict:
    """Every key of a parsed scenario file with defaults filled in; a section not run is None."""
    return _SCENARIO(spec, "")
