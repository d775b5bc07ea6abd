"""Ensemble-oriented permutation feature importance.

Three shuffling operators act on one predictor's (n, M) member column:
fully random (destroys within-ensemble structure), rank-aware (transplanted
values are reordered to the original member ranks), and conditional
(rank-aware shuffles restricted to bins of samples with similar values of a
chosen summary statistic).  The relative skill loss Delta0 measures a
predictor's importance; the ratio chi measures how much of that loss a
statistic-preserving shuffle restores, i.e. how much of the predictor's
information lives in that statistic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError, DomainError
from .evaluation import model_mean_crps

SUMMARY_KINDS = ("mean", "std", "min", "max", "iqr", "range",
                 "skewness", "kurtosis")
# statistics of the sorted members only: a transplanted row has them of its
# donor row, whose values it takes in another order
ORDER_STATISTICS = ("min", "max", "iqr", "range")
PERTURBATION_KINDS = ("fully_random", "rank_aware", "conditional")
DEFAULT_BINS = 100
CHI_RELIABLE_FRACTION = 1e-3  # denominator threshold relative to base score


@dataclass(frozen=True)
class PerturbationSpec:
    """One shuffling operation on one ensemble predictor."""

    predictor: int
    kind: str
    statistic: str = None
    bins: int = DEFAULT_BINS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ConfigError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "conditional":
            if self.statistic not in SUMMARY_KINDS:
                raise ConfigError(
                    f"conditional shuffling needs a statistic, got "
                    f"{self.statistic!r}")
            if self.bins < 2:
                raise ConfigError("conditional shuffling needs bins >= 2")
        if self.predictor < 0:
            raise ConfigError("predictor index must be non-negative")


@dataclass(frozen=True)
class ChiResult:
    """Importance ratio with a denominator-reliability flag."""

    value: float
    reliable: bool


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def summary_statistic(values, kind):
    """One of the eight ensemble summary statistics, along the last axis.

    Central moments use the n denominator except the standard deviation
    (n-1); the inter-quartile range interpolates order statistics linearly.
    Constant ensembles yield 0 for every spread and shape statistic.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] < 2:
        raise DomainError("need at least two members")
    if kind == "mean":
        return values.mean(axis=-1)
    if kind == "std":
        return values.std(axis=-1, ddof=1)
    if kind == "min":
        return values.min(axis=-1)
    if kind == "max":
        return values.max(axis=-1)
    if kind == "iqr":
        q25, q75 = np.percentile(values, [25, 75], axis=-1)
        return q75 - q25
    if kind == "range":
        return values.max(axis=-1) - values.min(axis=-1)
    centered = values - values.mean(axis=-1, keepdims=True)
    m2 = np.mean(centered**2, axis=-1)
    safe = np.where(m2 > 0, m2, 1.0)
    if kind == "skewness":
        return np.where(m2 > 0, np.mean(centered**3, axis=-1) / safe**1.5, 0.0)
    if kind == "kurtosis":
        return np.where(m2 > 0, np.mean(centered**4, axis=-1) / safe**2 - 3.0,
                        0.0)
    raise ConfigError(f"unknown summary statistic {kind!r}")


# ---------------------------------------------------------------------------
# Shuffling operators
# ---------------------------------------------------------------------------


def _member_ranks(col):
    """Within-row ranks, ties broken by original member index."""
    order = np.argsort(col, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(col.shape[0])[:, None]
    ranks[rows, order] = np.arange(col.shape[1])[None, :]
    return ranks


def conditional_bins(stat_values, bins):
    """Bin ids from ranking on the *unique* statistic values.

    Unique values are ranked ascending and cut into contiguous runs of
    ``ceil(U/B)``; samples sharing a value share a bin.  Returns
    ``(bin_ids, n_bins)``; n_bins is below B when B exceeds the number of
    unique values.
    """
    if bins < 1:
        raise ConfigError("need at least one bin")
    uniq, inverse = np.unique(np.asarray(stat_values), return_inverse=True)
    run = -(-uniq.size // bins)  # ceil
    bin_ids = inverse // run
    return bin_ids, int(bin_ids.max()) + 1


class _Column:
    """One predictor's (n, M) member column with the facts its shuffles
    use, each computed on first use.  None depends on a model or a seed, so
    one instance serves every model's shuffles and the preservation matrix.
    """

    def __init__(self, values):
        self.values = values
        self._statistics, self._ranked, self._bins = {}, {}, {}

    @cached_property
    def ranks(self):
        return _member_ranks(self.values)

    @cached_property
    def sorted_rows(self):
        return np.sort(self.values, axis=1)

    def statistic(self, kind):
        if kind not in self._statistics:
            self._statistics[kind] = summary_statistic(self.values, kind)
        return self._statistics[kind]

    def midranks(self, kind):
        if kind not in self._ranked:
            self._ranked[kind] = _midranks(self.statistic(kind))
        return self._ranked[kind]

    def bin_segments(self, kind, bins):
        """(order, ends): a stable argsort of the conditional bin ids, so
        each bin is the contiguous segment of ``order`` ending at its end."""
        if (kind, bins) not in self._bins:
            bin_ids, n_bins = conditional_bins(self.statistic(kind), bins)
            self._bins[kind, bins] = (
                np.argsort(bin_ids, kind="stable"),
                np.cumsum(np.bincount(bin_ids, minlength=n_bins)).tolist())
        return self._bins[kind, bins]

    def transplant(self, donors):
        """Donor rows reordered to the receiving rows' member rank patterns
        (sorting a donor row is sorting its own row)."""
        return self.sorted_rows[donors[:, None], self.ranks]


def _conditional_donors(column, spec, rng):
    """Donor row of each row: a random permutation within each bin of the
    conditioning statistic.  Bins are shuffled in increasing order, each by
    the draws ``rng.permutation`` of its size would take."""
    order, ends = column.bin_segments(spec.statistic, spec.bins)
    shuffled = order.copy()
    start = 0
    for end in ends:
        rng.shuffle(shuffled[start:end])
        start = end
    donors = np.empty_like(order)
    donors[order] = shuffled
    return donors


def _shuffle(column, spec):
    """Shuffled copy of the column under ``spec`` (see :func:`perturb`)."""
    col = column.values
    if len(col) < 2:
        raise DomainError("need at least two samples to shuffle")
    rng = np.random.default_rng(spec.seed)
    t, m = col.shape

    if spec.kind == "fully_random":
        donor = col[rng.permutation(t)]
        member_perms = np.argsort(rng.random((t, m)), axis=1)
        return donor[np.arange(t)[:, None], member_perms]
    if spec.kind == "rank_aware":
        return column.transplant(rng.permutation(t))
    return column.transplant(_conditional_donors(column, spec, rng))


def perturb(col, spec: PerturbationSpec):
    """Shuffled copy of a predictor's (n, M) member column (the caller
    picks the column; ``spec.predictor`` is not read).

    All three operators permute whole member rows between samples, so the
    multiset of values is conserved exactly; rank-aware and conditional
    additionally preserve each sample's member rank pattern.
    """
    return _shuffle(_Column(col), spec)


# ---------------------------------------------------------------------------
# Importance scores
# ---------------------------------------------------------------------------


def derive_seed(seed, *tags):
    """Stable child seed for a named random stream."""
    digest = zlib.crc32("/".join(str(t) for t in tags).encode("utf-8"))
    return int(np.random.SeedSequence([int(seed), digest]).generate_state(1)[0])


def _columns(test: Dataset):
    return [_Column(test.ens[:, :, i]) for i in range(test.n_predictors)]


def _skill_losses(model, test: Dataset, specs, columns):
    """Base mean CRPS S[g] and the skill loss S[g o P] - S[g] of each
    distinct spec; each forecast is scored once.  A spec's forecast sees
    one copy of the test ensemble block with its column shuffled;
    ``columns`` holds the :class:`_Column` of each predictor."""
    if any(spec.predictor >= test.n_predictors for spec in specs):
        raise ConfigError("predictor index out of range")
    base = model_mean_crps(model, test)
    if base == 0.0:
        raise DomainError("degenerate model: mean CRPS is zero")
    ens, losses = test.ens.copy(), {}
    for spec in dict.fromkeys(specs):
        column = columns[spec.predictor]
        ens[:, :, spec.predictor] = _shuffle(column, spec)
        losses[spec] = model_mean_crps(model, test, ens=ens) - base
        ens[:, :, spec.predictor] = column.values
    return base, losses


def _chi_specs(predictor, statistic, bins, seed):
    """(conditional numerator, rank-aware reference) operators of chi."""
    return (PerturbationSpec(predictor, "conditional", statistic=statistic,
                             bins=bins, seed=derive_seed(seed, "chi-num",
                                                         predictor, statistic)),
            PerturbationSpec(predictor, "rank_aware",
                             seed=derive_seed(seed, "chi-ref", predictor)))


def _ratio(base, losses, spec_num, spec_ref):
    den = losses[spec_ref]
    value = losses[spec_num] / den if den != 0.0 else np.nan
    return ChiResult(value=float(value),
                     reliable=bool(abs(den) >= CHI_RELIABLE_FRACTION * base))


def delta0(model, test: Dataset, spec: PerturbationSpec = None):
    """Relative skill loss (S[g o P] - S[g]) / S[g] under mean CRPS.

    ``spec=None`` is the identity perturbation and returns exactly 0.
    """
    base, losses = _skill_losses(model, test, [spec] if spec else [],
                                 _columns(test))
    return losses[spec] / base if spec else 0.0


def chi_ratio(model, test: Dataset, spec_num: PerturbationSpec,
              spec_ref: PerturbationSpec):
    """Skill-loss ratio of two perturbation operators.

    Returns (S[g o P_num] - S[g]) / (S[g o P_ref] - S[g]); identical specs
    give exactly 1.  The result is flagged unreliable when the reference
    skill loss is below ``1e-3`` of the base score.
    """
    if spec_num.predictor != spec_ref.predictor:
        raise ContractError("operators must act on the same predictor")
    return _ratio(*_skill_losses(model, test, [spec_num, spec_ref],
                                 _columns(test)),
                  spec_num, spec_ref)


def chi(model, test: Dataset, predictor, statistic, bins=DEFAULT_BINS,
        seed=0):
    """Fraction of the rank-aware skill loss restored by conditioning on a
    summary statistic.

    Computed as ``1 - chi_ratio(conditional, rank_aware)``, so (absent
    sampling noise) 1 means knowledge of the statistic recovers the model
    skill entirely and 0 means the statistic is uninformative.
    """
    ratio = chi_ratio(model, test,
                      *_chi_specs(predictor, statistic, bins, seed))
    return ChiResult(value=1.0 - ratio.value, reliable=ratio.reliable)


def _midranks(x):
    """1-based ranks with ties at their mean rank; all NaN if any is NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _rank_correlation(rx, ry):
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


def spearman(x, y):
    """Rank correlation: the Pearson correlation of mid-ranks.

    Tied values (``-0.0`` and ``0.0`` among them) share their mean rank.
    Returns NaN when either rank vector is constant or either input
    contains NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DomainError("need two equal-length vectors")
    return _rank_correlation(_midranks(x), _midranks(y))


def preservation_matrix(dataset: Dataset, predictor, bins=DEFAULT_BINS,
                        seed=0, statistics=SUMMARY_KINDS):
    """Spearman preservation of each statistic under conditional shuffling.

    Entry (row s, column s') correlates s' computed on the original
    ensembles with s' after conditional shuffling on s.  Diagonals near 1
    mean the binning preserves the conditioning statistic.
    """
    if not 0 <= predictor < dataset.n_predictors:
        raise ConfigError("predictor index out of range")
    return _preservation(_Column(dataset.ens[:, :, predictor]), predictor,
                         bins, seed, statistics)


def _preservation(column, predictor, bins, seed, statistics):
    """:func:`preservation_matrix` of one predictor's column.  An order
    statistic of a shuffled row is its donor row's, and the mid-ranks of
    a permuted vector are its permuted mid-ranks, so only the moment
    statistics are computed on the shuffled column."""
    if len(column.values) < 10:
        raise DomainError("need at least 10 samples")
    matrix = np.empty((len(statistics), len(statistics)))
    for i, cond in enumerate(statistics):
        spec = PerturbationSpec(predictor, "conditional", statistic=cond,
                                bins=bins,
                                seed=derive_seed(seed, "preserve", predictor,
                                                 cond))
        donors = _conditional_donors(column, spec,
                                     np.random.default_rng(spec.seed))
        shuffled = None
        for j, measured in enumerate(statistics):
            if measured in ORDER_STATISTICS:
                ranks = column.midranks(measured)[donors]
            else:
                if shuffled is None:
                    shuffled = column.transplant(donors)
                ranks = _midranks(summary_statistic(shuffled, measured))
            matrix[i, j] = _rank_correlation(column.midranks(measured), ranks)
    return matrix


# ---------------------------------------------------------------------------
# Pool-level report
# ---------------------------------------------------------------------------


def _box_stats(values):
    values = np.asarray(values, dtype=np.float64)
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    return {"mean": float(values.mean()), "min": float(values.min()),
            "q25": float(q25), "median": float(median), "q75": float(q75),
            "max": float(values.max())}


def importance_report(models, test: Dataset, bins=DEFAULT_BINS, seed=0,
                      statistics=SUMMARY_KINDS, chi_predictors=None):
    """Pool-aggregated importance analysis as a JSON-ready dict.

    Delta0 uses the fully-random operator; chi ratios use the rank-aware
    reference.  Each (model, predictor) cell gets an independently derived
    seed; preservation matrices are model-free and computed once, and the
    statistics, bins and member ranks of each test column are computed
    once and shared by every model.  Each model scores its base forecast
    and each distinct perturbation once.
    """
    if not models:
        raise DomainError("need at least one model")
    names = test.predictor_names
    if chi_predictors is None:
        chi_predictors = list(range(test.n_predictors))
    if not all(0 <= i < test.n_predictors for i in chi_predictors):
        raise ConfigError(f"chi predictors {list(chi_predictors)} out of "
                          f"range for {test.n_predictors} predictors")

    columns = _columns(test)
    delta_runs = {name: [] for name in names}
    chi_runs = {(i, stat): [] for i in chi_predictors for stat in statistics}
    for run, model in enumerate(models):
        deltas = [PerturbationSpec(i, "fully_random",
                                   seed=derive_seed(seed, "delta0", run, i))
                  for i in range(len(names))]
        pairs = {(i, stat): _chi_specs(i, stat, bins,
                                       derive_seed(seed, "chi", run, i))
                 for i, stat in chi_runs}
        base, losses = _skill_losses(
            model, test, deltas + [s for pair in pairs.values() for s in pair],
            columns)
        for name, spec in zip(names, deltas):
            delta_runs[name].append(losses[spec] / base)
        for key, pair in pairs.items():
            chi_runs[key].append(_ratio(base, losses, *pair))

    chi_block = {names[i]: {} for i in chi_predictors}
    for (i, stat), ratios in chi_runs.items():
        chi_block[names[i]][stat] = {
            **_box_stats([1.0 - r.value for r in ratios]),
            "reliable": all(r.reliable for r in ratios)}

    preservation = {
        names[i]: _preservation(columns[i], i, bins, seed,
                                statistics).tolist()
        for i in chi_predictors
    }
    return {
        "bins": bins,
        "statistics": list(statistics),
        "delta0": {name: _box_stats(vals) for name, vals in delta_runs.items()},
        "chi": chi_block,
        "preservation": preservation,
        "n_models": len(models),
        "n_samples": len(test),
    }


def preservation_csv(matrix, statistics=SUMMARY_KINDS):
    """CSV heatmap table (conditioning statistic x measured statistic)."""
    matrix = np.asarray(matrix)
    lines = ["conditioning," + ",".join(statistics)]
    for name, row in zip(statistics, matrix):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
