"""Post-silicon delay measurement (Sec. III.B of the paper).

Measuring one delay unit directly "may introduce large error", so the paper
measures the whole configured chain for several configuration vectors and
*computes* the per-unit delay differences.  The chain delay is affine in the
configuration vector::

    D(c) = sum_i d0_i  +  sum_i c_i * ddiff_i  =  B + c . ddiff

so the per-unit ``ddiff_i`` values are exactly the linear coefficients of a
regression of measured chain delays on configuration vectors.  This module
provides

* the leave-one-out scheme (all-ones plus n leave-one-out vectors), whose
  closed form is ``ddiff_j = D(ones) - D(ones with j skipped)``;
* the paper's 3-stage worked example with configurations "110", "101",
  "011" and the formulas ``ddiff_1 = (X+Y-Z)/2`` etc. — exact when the
  bypass delays are negligible, and reproduced here for fidelity;
* a general least-squares estimator for arbitrary configuration sets, which
  averages out measurement noise when more than ``n+1`` vectors are used;
* **robust** variants for faulty counters (see :mod:`repro.faults`): an
  overdetermined leave-one-out scheme whose redundant rows let a
  residual/MAD screen *localize* glitched measurements and re-solve
  without them (:func:`measure_ddiffs_overdetermined`), and a
  median-of-k chain-delay estimator with MAD outlier rejection
  (:meth:`DelayMeasurer.chain_delays_robust`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..backends import current_backend
from ..variation.environment import NOMINAL_OPERATING_POINT, OperatingPoint
from ..variation.noise import GaussianNoise, MeasurementNoise
from .config_vector import ConfigVector
from .ring import ConfigurableRO

__all__ = [
    "DelayMeasurer",
    "DdiffEstimate",
    "BatchDdiffEstimate",
    "RobustDdiffEstimate",
    "measure_ddiffs_leave_one_out",
    "measure_ddiffs_leave_one_out_batch",
    "measure_ddiffs_least_squares",
    "measure_ddiffs_overdetermined",
    "robust_least_squares",
    "three_stage_ddiffs",
    "leave_one_out_vectors",
    "overdetermined_vectors",
    "random_config_set",
    "ENROLL_DRAW_ORDER",
]

#: Version tag of the batch enrollment noise-draw order.  Batch enrollment
#: (:func:`measure_ddiffs_leave_one_out_batch`, ``ChipROPUF.enroll_batch`` /
#: ``enroll_sweep``) draws one noise tensor per array shape: first the full
#: ``(ring, config)`` leave-one-out matrix (rings major, repeats drawn
#: matrix-by-matrix), then the per-pair reference observations.  This
#: differs from the legacy per-ring interleaving of ``ChipROPUF.enroll``,
#: which therefore keeps its sequential path; any change to the batch order
#: must bump this tag.
ENROLL_DRAW_ORDER = "enroll-v1"

#: Consistency factor turning a median absolute deviation into a Gaussian
#: sigma estimate (1 / Phi^-1(3/4)).
_MAD_TO_SIGMA = 1.4826


def _mad_floor(reference: np.ndarray | float) -> np.ndarray | float:
    """Numerical floor for MAD scales so noiseless data never divides by 0.

    Relative to the data magnitude: residuals below ~1e-12 of the measured
    values are floating-point dust, not structure.
    """
    return 1e-12 * np.maximum(np.abs(reference), 1e-30)


@dataclass
class DelayMeasurer:
    """Measures chain delays of configured rings with noise and averaging.

    Attributes:
        noise: measurement-noise model applied to every raw observation.
        repeats: independent observations averaged per measurement.
        rng: random generator driving the noise.  Seeded by default so
            default-constructed measurers (and everything built on them,
            like the Sec. IV.E threshold study) are reproducible run to
            run and process to process; pass your own generator for an
            independent noise stream.
    """

    noise: MeasurementNoise = field(default_factory=GaussianNoise)
    repeats: int = 5
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def chain_delay(
        self,
        ring: ConfigurableRO,
        config: ConfigVector,
        op: OperatingPoint = NOMINAL_OPERATING_POINT,
    ) -> float:
        """One averaged, noisy chain-delay measurement in seconds."""
        true_delay = np.array([ring.chain_delay(config, op)])
        observed = self.noise.observe_averaged(true_delay, self.rng, self.repeats)
        return float(observed[0])

    def chain_delays(
        self,
        ring: ConfigurableRO,
        configs: list[ConfigVector],
        op: OperatingPoint = NOMINAL_OPERATING_POINT,
    ) -> np.ndarray:
        """Averaged, noisy measurements for a list of configurations.

        Draw-order note: the whole batch is observed with *one*
        ``observe_averaged`` call (noise vectors span the config axis), so
        the generator advances differently from a loop of
        :meth:`chain_delay` calls.  With ``repeats == 1`` and Gaussian
        noise the two are byte-identical (one ``normal(size=n)`` draw
        equals ``n`` sequential size-1 draws); callers that depend on the
        per-call order at higher repeats use :meth:`chain_delays_sequential`.
        """
        true_delays = ring.chain_delays(configs, op)
        return self.noise.observe_averaged(true_delays, self.rng, self.repeats)

    def chain_delays_sequential(
        self,
        ring: ConfigurableRO,
        configs: list[ConfigVector],
        op: OperatingPoint = NOMINAL_OPERATING_POINT,
    ) -> np.ndarray:
        """Per-call measurements, preserving the scalar noise draw order.

        One :meth:`chain_delay` call per configuration — the legacy order
        that the per-ring ddiff extractors (and through them the default
        ``ChipROPUF.enroll`` path) are pinned to.
        """
        return np.array([self.chain_delay(ring, c, op) for c in configs])

    def chain_delays_robust(
        self,
        ring: ConfigurableRO,
        configs: list[ConfigVector],
        op: OperatingPoint = NOMINAL_OPERATING_POINT,
        k: int = 5,
        mad_threshold: float = 3.5,
    ) -> np.ndarray:
        """Median-of-``k`` chain delays with MAD outlier rejection.

        The opt-in robust alternative to :meth:`chain_delays` for glitchy
        counters: ``k`` independent raw observations are taken per
        configuration, observations deviating from the per-config median
        by more than ``mad_threshold`` scaled-MADs (and NaN dropouts) are
        rejected, and the median of the survivors is returned.  A single
        multiplicative glitch or dropped window among ``k`` captures
        therefore cannot move the estimate, where the mean of
        :meth:`chain_delays` would absorb it wholesale.

        Rejected-observation counts are reported through the
        ``measurement.robust.outliers_rejected`` and
        ``measurement.robust.dropouts`` metrics (:mod:`repro.obs`).

        Draw order: ``k`` whole-vector ``observe`` calls (no averaging),
        which differs from :meth:`chain_delays`; this estimator is opt-in
        and carries no byte-compatibility contract with the mean paths.

        Returns:
            per-configuration robust delay estimates; a configuration
            whose ``k`` observations were *all* dropouts yields NaN.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if mad_threshold <= 0.0:
            raise ValueError(f"mad_threshold must be positive, got {mad_threshold}")
        true_delays = ring.chain_delays(configs, op)
        observations = np.stack(
            [self.noise.observe(true_delays, self.rng) for _ in range(k)]
        )
        finite = np.isfinite(observations)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
            median = np.nanmedian(observations, axis=0)
            deviation = np.abs(observations - median)
            mad = np.nanmedian(deviation, axis=0)
        scale = np.maximum(_MAD_TO_SIGMA * mad, _mad_floor(median))
        keep = finite & (deviation <= mad_threshold * scale)
        dropouts = int((~finite).sum())
        rejected = int((finite & ~keep).sum())
        if rejected:
            obs.counter_add("measurement.robust.outliers_rejected", rejected)
        if dropouts:
            obs.counter_add("measurement.robust.dropouts", dropouts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmedian(np.where(keep, observations, np.nan), axis=0)


@dataclass
class DdiffEstimate:
    """Result of a per-unit delay-difference extraction.

    Attributes:
        ddiffs: estimated per-unit ``ddiff`` values, ring order, seconds.
        intercept: estimated all-bypass chain delay ``B = sum d0`` (only the
            least-squares scheme identifies it; NaN otherwise).
        residual_rms: RMS of the regression residuals (0 for exact schemes).
        configs: configuration vectors that were measured.
        measurements: the measured chain delays, aligned with ``configs``.
    """

    ddiffs: np.ndarray
    intercept: float
    residual_rms: float
    configs: list[ConfigVector]
    measurements: np.ndarray


def leave_one_out_vectors(stage_count: int) -> list[ConfigVector]:
    """The all-ones vector followed by the ``n`` leave-one-out vectors."""
    if stage_count < 1:
        raise ValueError("stage_count must be >= 1")
    vectors = [ConfigVector.all_selected(stage_count)]
    vectors.extend(
        ConfigVector.leave_one_out(stage_count, j) for j in range(stage_count)
    )
    return vectors


def measure_ddiffs_leave_one_out(
    measurer: DelayMeasurer,
    ring: ConfigurableRO,
    op: OperatingPoint = NOMINAL_OPERATING_POINT,
) -> DdiffEstimate:
    """Extract per-unit ddiffs with the leave-one-out scheme (n+1 configs).

    ``ddiff_j = D(all ones) - D(leave-one-out j)`` because skipping unit j
    replaces its ``d + d1`` contribution by ``d0``.
    """
    configs = leave_one_out_vectors(ring.stage_count)
    measurements = measurer.chain_delays_sequential(ring, configs, op)
    full = measurements[0]
    ddiffs = full - measurements[1:]
    return DdiffEstimate(
        ddiffs=ddiffs,
        intercept=float("nan"),
        residual_rms=0.0,
        configs=configs,
        measurements=measurements,
    )


@dataclass
class BatchDdiffEstimate:
    """Leave-one-out extraction for many rings at once.

    Attributes:
        ddiffs: ``(ring, stage)`` estimated per-unit ``ddiff`` values.
        configs: the shared leave-one-out configuration list (all-ones
            first), identical for every ring.
        measurements: ``(ring, config)`` measured chain delays.
    """

    ddiffs: np.ndarray
    configs: list[ConfigVector]
    measurements: np.ndarray

    @property
    def ring_count(self) -> int:
        """Number of rings measured."""
        return len(self.ddiffs)

    def estimate(self, ring_index: int) -> DdiffEstimate:
        """The per-ring :class:`DdiffEstimate` view of one row."""
        return DdiffEstimate(
            ddiffs=self.ddiffs[ring_index].copy(),
            intercept=float("nan"),
            residual_rms=0.0,
            configs=self.configs,
            measurements=self.measurements[ring_index].copy(),
        )


def measure_ddiffs_leave_one_out_batch(
    measurer: DelayMeasurer,
    rings: list[ConfigurableRO],
    op: OperatingPoint = NOMINAL_OPERATING_POINT,
) -> BatchDdiffEstimate:
    """Leave-one-out ddiff extraction over many rings in one array pass.

    Evaluates the full ``(ring, config)`` true chain-delay matrix straight
    off the chip's structure-of-arrays delay vectors and observes it with
    one noise tensor per repeat (the :data:`ENROLL_DRAW_ORDER` contract).
    Each row's closed form matches :func:`measure_ddiffs_leave_one_out`
    exactly; only the noise draw order differs (byte-identical under
    noiseless measurement).

    Args:
        rings: rings sharing one chip and one stage count.
    """
    if not rings:
        raise ValueError("need at least one ring")
    chip = rings[0].chip
    stage_count = rings[0].stage_count
    for ring in rings[1:]:
        if ring.chip is not chip:
            raise ValueError("batch measurement needs rings on one chip")
        if ring.stage_count != stage_count:
            raise ValueError(
                "batch measurement needs a uniform stage count, got "
                f"{ring.stage_count} != {stage_count}"
            )
    configs = leave_one_out_vectors(stage_count)
    with obs.span(
        "measurement.leave_one_out_batch",
        rings=len(rings),
        stages=stage_count,
    ):
        config_masks = np.stack([c.as_array() for c in configs])
        unit_indices = np.stack([ring.unit_indices for ring in rings])
        selected = chip.selected_path_delays(op)[unit_indices]
        bypass = chip.mux_bypass_delays(op)[unit_indices]
        # (ring, config) true delays, bit-identical to the per-call
        # ConfigurableRO.chain_delay.
        backend = current_backend()
        true_delays = backend.loo_delay_matrix(selected, bypass, config_masks)
        obs.counter_add(
            f"noise.elements.{ENROLL_DRAW_ORDER}",
            true_delays.size * measurer.repeats,
        )
        measurements = measurer.noise.observe_averaged(
            true_delays, measurer.rng, measurer.repeats
        )
        ddiffs = backend.loo_ddiffs(measurements)
    return BatchDdiffEstimate(
        ddiffs=ddiffs, configs=configs, measurements=measurements
    )


def measure_ddiffs_least_squares(
    measurer: DelayMeasurer,
    ring: ConfigurableRO,
    configs: list[ConfigVector],
    op: OperatingPoint = NOMINAL_OPERATING_POINT,
) -> DdiffEstimate:
    """Extract per-unit ddiffs by regressing chain delays on configurations.

    Args:
        configs: at least ``n + 1`` configuration vectors whose 0/1 matrix,
            augmented with an intercept column, has full column rank.

    Raises:
        ValueError: if the configuration set cannot identify all units.
    """
    n = ring.stage_count
    if len(configs) < n + 1:
        raise ValueError(
            f"need at least {n + 1} configurations to identify {n} units "
            f"plus the intercept, got {len(configs)}"
        )
    matrix = np.stack([c.as_array().astype(float) for c in configs])
    design = np.column_stack([np.ones(len(configs)), matrix])
    if np.linalg.matrix_rank(design) < n + 1:
        raise ValueError(
            "configuration set is rank-deficient; some units cannot be "
            "distinguished (add more diverse configurations)"
        )
    measurements = measurer.chain_delays_sequential(ring, configs, op)
    solution, _, _, _ = np.linalg.lstsq(design, measurements, rcond=None)
    residuals = measurements - design @ solution
    return DdiffEstimate(
        ddiffs=solution[1:],
        intercept=float(solution[0]),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        configs=list(configs),
        measurements=measurements,
    )


def overdetermined_vectors(
    stage_count: int, extra: int | None = None
) -> list[ConfigVector]:
    """Leave-one-out vectors plus ``extra`` deterministic redundancy rows.

    The square Sec. III.B system (all-ones + n leave-one-out vectors) has
    zero redundancy: a single glitched measurement silently corrupts one
    ``ddiff``.  This scheme appends leave-two-out vectors (then
    leave-``k``-out for ``k >= 3`` once pairs are exhausted) so the design
    matrix gains ``extra`` rows beyond full rank and a residual screen can
    localize faulted rows.

    Pair enumeration is *balanced*, not lexicographic: pairs are emitted
    round-robin by circular distance — ``(i, i+1 mod n)`` for all ``i``,
    then ``(i, i+2 mod n)``, and so on — so stage coverage grows evenly.
    This matters for localization: the parameter direction ``(B + d,
    ddiff_j - d)`` only shows up in rows whose config drops stage ``j``,
    so if stage ``j`` were dropped by just *two* rows (as lexicographic
    order leaves for most stages), a gross fault on either row splits
    50/50 between them and cannot be attributed.  With ``extra >=
    stage_count`` every stage is dropped by at least three rows (its
    leave-one-out row plus two pair rows) and a single faulted row is
    uniquely the worst residual.

    Args:
        extra: redundancy rows to add; default ``stage_count`` (a ~2x
            overdetermined system, the smallest size with unambiguous
            single-fault localization).

    Raises:
        ValueError: when fewer than ``extra`` distinct redundancy vectors
            exist (``2**stage_count - stage_count - 1`` are available).
    """
    if extra is None:
        extra = stage_count
    if extra < 0:
        raise ValueError(f"extra must be non-negative, got {extra}")
    vectors = leave_one_out_vectors(stage_count)

    def _drop(stages: tuple[int, ...]) -> ConfigVector:
        bits = [True] * stage_count
        for j in stages:
            bits[j] = False
        return ConfigVector(tuple(bits))

    redundancy: list[tuple[int, ...]] = []
    for distance in range(1, stage_count // 2 + 1):
        # At distance n/2 each pair would appear twice; emit half the ring.
        span = stage_count if 2 * distance != stage_count else stage_count // 2
        for start in range(span):
            redundancy.append((start, (start + distance) % stage_count))
    for skip_count in range(3, stage_count + 1):
        redundancy.extend(itertools.combinations(range(stage_count), skip_count))
    if len(redundancy) < extra:
        raise ValueError(
            f"only {len(redundancy)} distinct redundancy vectors exist for "
            f"{stage_count} stages; cannot add {extra}"
        )
    vectors.extend(_drop(stages) for stages in redundancy[:extra])
    return vectors


def robust_least_squares(
    design: np.ndarray,
    measurements: np.ndarray,
    mad_threshold: float = 3.5,
    min_rows: int | None = None,
    subset_draws: int = 100,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Least squares with residual-based fault localization and re-solve.

    NaN dropout rows are excluded outright.  The survivors are screened in
    three robust stages, because an ordinary least-squares fit is useless
    for localization — a gross fault leaks residual into every clean row
    (masking) and inflates any scale estimated from the contaminated fit:

    1. **Trimmed fits.**  ``subset_draws`` exactly-determined row subsets
       (plus the plain full fit) are each refined by FAST-LTS
       concentration steps — re-fitting on the ``h`` best-fitting rows,
       ``h = (rows + params + 1) // 2`` — and scored by the sum of their
       ``h`` smallest squared residuals.  Up to ``rows - h`` faulted rows
       cannot drag the best of these fits off the clean consensus, and
       the best criterion yields a fault-free (if optimistic) noise scale.
    2. **Consensus selection.**  Each candidate fit counts the rows whose
       residuals sit within ``mad_threshold`` of that shared scale; the
       fit consistent with the *most* rows wins (ties broken by
       criterion).  This is what disambiguates aliased explanations: a
       fault on one redundancy row can often be "explained" by shifting a
       parameter and sacrificing two clean rows instead, but the true
       explanation keeps strictly more rows consistent.
    3. **Re-estimation.**  The consensus set is re-fit by ordinary least
       squares and the screen is iterated to a fixpoint with an honest
       scale: sigma from PRESS (leave-one-out cross-validated) residuals,
       which resists the shrinkage of the trimmed fits, and per-row
       predictive standard errors, so rows outside the fit set are judged
       against their actual prediction variance.

    Rows outside the final consensus are flagged, subject to two safety
    rails: at least ``min_rows`` rows (default: one per unknown) are
    always retained, and a row whose removal would leave the design
    rank-deficient is never flagged (least-suspicious rows are re-added
    first when the consensus violates either rail).  The returned
    solution is the ordinary least-squares re-solve on the retained rows.

    Subset sampling uses a fixed internal seed, so the result is a pure
    function of its arguments.

    Returns:
        ``(solution, flagged_rows, residuals, residual_rms)`` where
        ``flagged_rows`` are the sorted indices of rejected rows,
        ``residuals`` are the initial full-system least-squares residuals
        (NaN for dropout rows), and ``residual_rms`` is the RMS over the
        rows kept by the final solve.

    Raises:
        ValueError: when fewer than ``min_rows`` finite measurements
            exist, or they do not span the parameter space.
    """
    design = np.asarray(design, dtype=float)
    measurements = np.asarray(measurements, dtype=float)
    row_count, param_count = design.shape
    if min_rows is None:
        min_rows = param_count
    min_rows = max(min_rows, param_count)
    finite = np.isfinite(measurements)
    kept = np.flatnonzero(finite)
    if len(kept) < min_rows:
        raise ValueError(
            f"only {len(kept)} finite measurements for a system "
            f"needing {min_rows}"
        )
    if np.linalg.matrix_rank(design[kept]) < param_count:
        raise ValueError(
            "finite measurement rows do not span the parameter space; "
            "add redundancy rows (overdetermined_vectors)"
        )
    kept_design = design[kept]
    kept_meas = measurements[kept]
    kept_count = len(kept)

    full_solution, _, _, _ = np.linalg.lstsq(kept_design, kept_meas, rcond=None)
    initial_residuals = np.full(row_count, np.nan)
    initial_residuals[kept] = kept_meas - kept_design @ full_solution

    dropout_rows = [int(r) for r in np.flatnonzero(~finite)]
    if kept_count == param_count:
        # Square system: no redundancy, nothing to screen.
        residual_rms = float(
            np.sqrt(np.mean(initial_residuals[kept] ** 2))
        )
        flagged = np.sort(np.array(dropout_rows, dtype=int))
        return full_solution, flagged, initial_residuals, residual_rms

    trim_count = (kept_count + param_count + 1) // 2
    scale_floor = float(_mad_floor(np.max(np.abs(kept_meas))))

    fits: list[tuple[np.ndarray, np.ndarray, float]] = []
    best_criterion = np.inf
    sampler = np.random.default_rng(0x0B5C0FFA)
    subsets = [np.arange(kept_count)] + [
        sampler.permutation(kept_count)[:param_count]
        for _ in range(subset_draws)
    ]
    for subset in subsets:
        if np.linalg.matrix_rank(kept_design[subset]) < param_count:
            continue
        candidate, _, _, _ = np.linalg.lstsq(
            kept_design[subset], kept_meas[subset], rcond=None
        )
        for _ in range(2):  # FAST-LTS concentration steps
            absolute = np.abs(kept_meas - kept_design @ candidate)
            core = np.argsort(absolute, kind="stable")[:trim_count]
            if np.linalg.matrix_rank(kept_design[core]) < param_count:
                break
            candidate, _, _, _ = np.linalg.lstsq(
                kept_design[core], kept_meas[core], rcond=None
            )
        absolute = np.abs(kept_meas - kept_design @ candidate)
        criterion = float(np.sum(np.sort(absolute**2)[:trim_count]))
        fits.append((candidate, absolute, criterion))
        best_criterion = min(best_criterion, criterion)

    # The best trimmed criterion gives a fault-free (if optimistic) scale
    # shared by every candidate; per-candidate scales would let a
    # contaminated fit inflate its own inlier threshold.
    scale = max(
        np.sqrt(best_criterion / (trim_count - param_count))
        * (1.0 + 5.0 / (kept_count - param_count)),
        scale_floor,
    )
    best_key: tuple[int, float] | None = None
    inliers = np.ones(kept_count, dtype=bool)
    for candidate, absolute, criterion in fits:
        candidate_inliers = absolute <= mad_threshold * scale
        key = (int(candidate_inliers.sum()), -criterion)
        if best_key is None or key > best_key:
            best_key = key
            inliers = candidate_inliers

    # Re-estimation to a fixpoint with honest error bars.
    for _ in range(10):
        member = np.flatnonzero(inliers)
        if len(member) <= param_count:
            break
        member_design = kept_design[member]
        if np.linalg.matrix_rank(member_design) < param_count:
            break
        refit, _, _, _ = np.linalg.lstsq(
            member_design, kept_meas[member], rcond=None
        )
        gram_inv = np.linalg.pinv(member_design.T @ member_design)
        member_residuals = kept_meas[member] - member_design @ refit
        leverage = np.clip(
            np.sum((member_design @ gram_inv) * member_design, axis=1),
            0.0,
            1.0 - 1e-9,
        )
        press = member_residuals / (1.0 - leverage)
        sigma = max(float(np.sqrt(np.mean(press**2))), scale_floor)
        predictive = np.sum((kept_design @ gram_inv) * kept_design, axis=1)
        predictive_sigma = sigma * np.sqrt(1.0 + np.clip(predictive, 0.0, None))
        absolute = np.abs(kept_meas - kept_design @ refit)
        new_inliers = absolute <= mad_threshold * predictive_sigma
        if (new_inliers == inliers).all():
            break
        inliers = new_inliers

    # Safety rails: keep at least min_rows rows and full column rank,
    # re-admitting the least-suspicious flagged rows first.
    final_fit, _, _, _ = (
        np.linalg.lstsq(
            kept_design[inliers], kept_meas[inliers], rcond=None
        )
        if inliers.sum() >= param_count
        and np.linalg.matrix_rank(kept_design[inliers]) == param_count
        else (full_solution, None, None, None)
    )
    suspicion = np.abs(kept_meas - kept_design @ final_fit)
    retained = [int(kept[i]) for i in np.flatnonzero(inliers)]
    outside = sorted(np.flatnonzero(~inliers), key=lambda i: suspicion[i])
    readmit = []
    for i in outside:
        candidate_rows = sorted(retained + [int(kept[i])])
        if (
            len(retained) < min_rows
            or np.linalg.matrix_rank(design[retained]) < param_count
        ):
            retained = candidate_rows
            readmit.append(i)
    flagged_rows = dropout_rows + [
        int(kept[i]) for i in np.flatnonzero(~inliers) if i not in readmit
    ]
    solution, _, _, _ = np.linalg.lstsq(
        design[retained], measurements[retained], rcond=None
    )
    final_residuals = measurements[retained] - design[retained] @ solution
    residual_rms = float(np.sqrt(np.mean(final_residuals**2)))
    flagged = np.sort(np.array(flagged_rows, dtype=int))
    return solution, flagged, initial_residuals, residual_rms


@dataclass
class RobustDdiffEstimate(DdiffEstimate):
    """A :class:`DdiffEstimate` that survived residual-based fault screening.

    Attributes:
        flagged: sorted indices (into ``configs``) of measurement rows the
            residual/MAD screen rejected before the final solve.
        residuals: initial full-system residuals, aligned with ``configs``
            (NaN for dropout rows).
    """

    flagged: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    residuals: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def fault_count(self) -> int:
        """How many measurement rows were rejected as faulted."""
        return len(self.flagged)


def measure_ddiffs_overdetermined(
    measurer: DelayMeasurer,
    ring: ConfigurableRO,
    op: OperatingPoint = NOMINAL_OPERATING_POINT,
    extra: int | None = None,
    mad_threshold: float = 3.5,
) -> RobustDdiffEstimate:
    """Fault-tolerant ddiff extraction via an overdetermined LOO system.

    Measures the leave-one-out configurations *plus* ``extra`` redundancy
    rows (:func:`overdetermined_vectors`), solves the overdetermined
    system by least squares, flags rows whose residuals exceed
    ``mad_threshold`` scaled-MADs (glitches, stuck readouts, excursions)
    or that dropped out entirely (NaN), and re-solves without them
    (:func:`robust_least_squares`).  With redundancy, a single faulted
    measurement is localized and excised instead of silently corrupting a
    ``ddiff`` the way it would in the square Sec. III.B system.

    Detected-fault counts land on the ``measurement.faults_detected``
    metric (:mod:`repro.obs`).

    Raises:
        ValueError: if rejection leaves too few rows to identify every
            unit (raise ``extra`` or the threshold).
    """
    configs = overdetermined_vectors(ring.stage_count, extra)
    measurements = measurer.chain_delays_sequential(ring, configs, op)
    matrix = np.stack([c.as_array().astype(float) for c in configs])
    design = np.column_stack([np.ones(len(configs)), matrix])
    solution, flagged, residuals, residual_rms = robust_least_squares(
        design, measurements, mad_threshold=mad_threshold
    )
    if len(flagged):
        obs.counter_add("measurement.faults_detected", len(flagged))
    return RobustDdiffEstimate(
        ddiffs=solution[1:],
        intercept=float(solution[0]),
        residual_rms=residual_rms,
        configs=configs,
        measurements=measurements,
        flagged=flagged,
        residuals=residuals,
    )


def three_stage_ddiffs(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The paper's closed form for a 3-stage ring (Sec. III.B).

    With ``X = D("110")``, ``Y = D("101")``, ``Z = D("011")``::

        ddiff_1 = (X + Y - Z) / 2
        ddiff_2 = (X + Z - Y) / 2
        ddiff_3 = (Y + Z - X) / 2

    These recover the per-unit selected-path delays exactly when the bypass
    delays ``d0`` are negligible (the paper's idealisation); with non-zero
    bypass delays each value is offset by ``(d0_j + B') / 2`` terms, which
    cancel in pairwise *comparisons* between matched rings.
    """
    ddiff_1 = (x + y - z) / 2.0
    ddiff_2 = (x + z - y) / 2.0
    ddiff_3 = (y + z - x) / 2.0
    return ddiff_1, ddiff_2, ddiff_3


def random_config_set(
    stage_count: int,
    count: int,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> list[ConfigVector]:
    """A random full-rank configuration set for the least-squares estimator.

    Draws uniform random vectors until the augmented design matrix reaches
    full column rank, then fills up to ``count``.  Duplicate draws are
    rejected for free — only draws rejected for *rank* (a fresh vector that
    would leave too few slots to complete the rank) consume
    ``max_attempts``, so small stage counts with ``count`` near
    ``2 ** stage_count`` terminate reliably.  Rank is tracked incrementally
    by Gram-Schmidt elimination over the accepted rows instead of
    re-factorising the growing stack per draw.
    """
    if count < stage_count + 1:
        raise ValueError(
            f"count must be >= stage_count + 1 = {stage_count + 1}, got {count}"
        )
    if stage_count < 64 and count > 2**stage_count:
        raise ValueError(
            f"only {2**stage_count} distinct configurations exist for "
            f"{stage_count} stages; cannot build {count}"
        )
    full_rank = stage_count + 1
    seen: set[tuple[bool, ...]] = set()
    vectors: list[ConfigVector] = []
    basis: list[np.ndarray] = []

    def residual_direction(row: np.ndarray) -> np.ndarray | None:
        """Component of ``row`` outside the accepted span, or None if inside."""
        residual = row.astype(float)
        # Two elimination passes keep the basis numerically orthonormal;
        # rows are small-integer so 1e-9 relative is far below any true
        # independent component.
        for _ in range(2):
            for direction in basis:
                residual = residual - (residual @ direction) * direction
        norm = float(np.linalg.norm(residual))
        if norm <= 1e-9 * float(np.linalg.norm(row)):
            return None
        return residual / norm

    attempts = 0
    # Duplicates are free, so bound them separately to stay finite if the
    # generator gets stuck repeating itself.
    duplicate_budget = 1000 * max(count, 1)
    while len(vectors) < count:
        if attempts >= max_attempts:
            break
        bits = tuple(bool(b) for b in rng.integers(0, 2, size=stage_count))
        if bits in seen:
            duplicate_budget -= 1
            if duplicate_budget <= 0:
                break
            continue
        row = np.concatenate([[1.0], np.array(bits, dtype=float)])
        direction = residual_direction(row)
        must_raise_rank = count - len(vectors) <= full_rank - len(basis)
        if must_raise_rank and direction is None:
            attempts += 1
            continue
        if direction is not None:
            basis.append(direction)
        seen.add(bits)
        vectors.append(ConfigVector(bits))
    if len(vectors) == count and len(basis) == full_rank:
        return vectors
    raise RuntimeError(
        f"could not build a full-rank set of {count} configurations for "
        f"{stage_count} stages within {max_attempts} attempts"
    )
