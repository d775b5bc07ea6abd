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

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import data, evaluation
from .data import SUMMARY_KINDS, Dataset
from .errors import ConfigError, ContractError, DomainError

PERTURBATION_KINDS = ("fully_random", "rank_aware", "conditional")
DEFAULT_BINS = 100
CHI_RELIABLE_FRACTION = 1e-3  # denominator threshold relative to base score
# largest |centered| member values whose moments up to the fourth are normal
# floats for any ensemble size below 2**60
MOMENT_RANGE = (2.0**-200, 2.0**200)


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


def _percentiles(ordered, qs):
    """``np.percentile(ordered, qs, axis=-1)`` for ``qs`` below 100, bit for
    bit, as a list: NumPy's linear method (virtual index (n - 1) q, then a
    lerp that interpolates from the upper neighbour from weight 0.5 on) on
    ``ordered``, values sorted along the last axis.  ``np.percentile``
    itself loads ``numpy.ma`` through ``np.unique``, some 17 ms per process.
    """
    n = ordered.shape[-1]
    out = []
    for q in qs:
        index = (n - 1) * (q / 100)
        low = int(index)
        a, b = ordered[..., low], ordered[..., min(low + 1, n - 1)]
        t = index - low
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def summary_statistic(values, kind):
    """One of the eight ensemble summary statistics, along the last axis.

    Each row is sorted once, its zeros made +0.0, before any reduction, so
    every statistic is a function of the row's set of members: it has the
    same bits under any permutation of them.  Central moments use the n
    denominator except the standard deviation (n-1); the inter-quartile
    range interpolates order statistics linearly.  Constant ensembles
    yield 0 for every spread and shape statistic.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] < 2:
        raise DomainError("need at least two members")
    # + 0.0 makes -0.0 0.0: a sort leaves equal zeros in input order
    values = np.sort(values + 0.0, axis=-1)
    if kind == "mean":
        return values.mean(axis=-1)
    if kind == "min":
        return values[..., 0]
    if kind == "max":
        return values[..., -1]
    if kind == "iqr":
        q25, q75 = _percentiles(values, [25, 75])
        return q75 - q25
    if kind == "range":
        return values[..., -1] - values[..., 0]
    centered = values - values.mean(axis=-1, keepdims=True)
    # the moments scale with the row: a row whose squares or fourth powers
    # would under- or overflow is scaled first, by the power of two (exact)
    # of its largest |centered| value; every other row keeps its bits
    largest = np.abs(centered).max(axis=-1, keepdims=True)
    shift = np.where((largest < MOMENT_RANGE[0]) | (largest > MOMENT_RANGE[1]),
                     np.frexp(largest)[1], 0)
    centered = np.ldexp(centered, -shift)
    if kind == "std":
        return np.ldexp(np.sqrt(np.sum(centered * centered, axis=-1)
                                / (values.shape[-1] - 1)), shift[..., 0])
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
            self._statistics[kind] = summary_statistic(self.sorted_rows,
                                                       kind)
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


def _donors(column, spec, rng):
    """Donor row of each row under ``spec``, the first draws from ``rng``:
    every operator gives each row the members of one row."""
    if len(column.values) < 2:
        raise DomainError("need at least two samples to shuffle")
    if spec.kind == "conditional":
        return _conditional_donors(column, spec, rng)
    return rng.permutation(len(column.values))


def _members(column, spec, donors, rng):
    """The shuffled column: each row holds its donor row's members, in a
    random order (fully random) or in its own member rank pattern (the
    donor row sorted, then read at the row's own member ranks)."""
    if spec.kind == "fully_random":
        t, m = column.values.shape
        return column.values[donors[:, None],
                             np.argsort(rng.random((t, m)), axis=1)]
    return column.sorted_rows[donors[:, None], column.ranks]


def perturb(col, spec: PerturbationSpec):
    """Shuffled copy of a predictor's (n, M) member column (the caller
    picks the column; ``spec.predictor`` is not read).

    All three operators permute whole member rows between samples, so the
    multiset of values is conserved exactly; rank-aware and conditional
    additionally preserve each sample's member rank pattern.
    """
    column, rng = _Column(col), np.random.default_rng(spec.seed)
    return _members(column, spec, _donors(column, spec, rng), rng)


# ---------------------------------------------------------------------------
# Importance scores
# ---------------------------------------------------------------------------


def _columns(test: Dataset):
    return [_Column(test.ens[:, :, i]) for i in range(test.n_predictors)]


def _skill_losses(model, test: Dataset, specs, columns):
    """Base mean CRPS S[g] and the skill loss S[g o P] - S[g] of each
    distinct spec; each forecast is scored once.  The model's graph inputs
    of the test set are built once; a spec's forecast replaces the shuffled
    predictor's part of them.  ``columns`` holds the :class:`_Column` of
    each predictor."""
    if any(spec.predictor >= test.n_predictors for spec in specs):
        raise ConfigError("predictor index out of range")
    inputs = model.inputs(test)
    base = evaluation.inputs_mean_crps(model, inputs, test.obs)
    if base == 0.0:
        raise DomainError("degenerate model: mean CRPS is zero")
    losses = {}
    for spec in dict.fromkeys(specs):
        column, rng = columns[spec.predictor], np.random.default_rng(spec.seed)
        donors = _donors(column, spec, rng)
        shuffled = model.shuffled_inputs(
            inputs, spec.predictor, donors,
            partial(_members, column, spec, donors, rng))
        losses[spec] = (evaluation.inputs_mean_crps(model, shuffled, test.obs)
                        - base)
    return base, losses


def _chi_specs(predictor, statistic, bins, seed):
    """(conditional numerator, rank-aware reference) operators of chi."""
    return (PerturbationSpec(predictor, "conditional", statistic=statistic,
                             bins=bins, seed=data.derive_seed(
                                 seed, "chi-num", predictor, statistic)),
            PerturbationSpec(predictor, "rank_aware", seed=data.derive_seed(
                seed, "chi-ref", predictor)))


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
    mean the binning preserves the conditioning statistic.  Statistics
    come from each row's sorted members, so a shuffled row has exactly its
    donor row's statistics.
    """
    if not 0 <= predictor < dataset.n_predictors:
        raise ConfigError("predictor index out of range")
    return _preservation(_Column(dataset.ens[:, :, predictor]), predictor,
                         bins, seed, statistics)


def _preservation(column, predictor, bins, seed, statistics):
    """:func:`preservation_matrix` of one predictor's column.  A shuffled
    row holds its donor row's members, and every statistic is exactly
    member-order invariant, so each statistic of the shuffled column is
    the original one at the donor rows; the mid-ranks of a permuted vector
    are its permuted mid-ranks.  No statistic of a shuffled column is
    computed."""
    if len(column.values) < 10:
        raise DomainError("need at least 10 samples")
    matrix = np.empty((len(statistics), len(statistics)))
    for i, cond in enumerate(statistics):
        spec = PerturbationSpec(predictor, "conditional", statistic=cond,
                                bins=bins,
                                seed=data.derive_seed(seed, "preserve",
                                                      predictor, cond))
        donors = _conditional_donors(column, spec,
                                     np.random.default_rng(spec.seed))
        for j, measured in enumerate(statistics):
            ranks = column.midranks(measured)
            matrix[i, j] = _rank_correlation(ranks, ranks[donors])
    return matrix


# ---------------------------------------------------------------------------
# Pool-level report
# ---------------------------------------------------------------------------


def _box_stats(values):
    values = np.asarray(values, dtype=np.float64)
    q25, median, q75 = _percentiles(np.sort(values), [25, 50, 75])
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
        deltas = [PerturbationSpec(i, "fully_random", seed=data.derive_seed(
                      seed, "delta0", run, i)) for i in range(len(names))]
        pairs = {(i, stat): _chi_specs(i, stat, bins,
                                       data.derive_seed(seed, "chi", run, i))
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
