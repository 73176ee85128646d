"""Quantitative stability of phase retrievability under frame perturbation.

``stability_radius`` turns a positive injectivity margin into an explicit
radius: every frame whose vectors each move by less than rho stays phase
retrievable.  ``stability_experiment`` probes that guarantee empirically and
``l_matrix_gap_audit`` checks the perturbation inequality the radius rests
on, sample by sample.
"""

from __future__ import annotations

import io
from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from .core import ComplexFrame, RealifiedFrame, _checked, frame_bounds, l_matrix
from .errors import FramecertError, NotRetrievableInput
from .certify import VERDICT_RETRIEVABLE, _certify_frames, certify_complex

__all__ = [
    "StabilityRadius",
    "PerturbationTrial",
    "StabilityExperimentReport",
    "GapAuditResult",
    "stability_radius",
    "spanning_safe_radius",
    "perturb_frame",
    "max_displacement",
    "stability_experiment",
    "l_matrix_gap_audit",
    "EXPERIMENT_DISCLAIMER",
]

EXPERIMENT_DISCLAIMER = (
    "Empirical check only: finitely many sampled perturbations within the "
    "stated radius were certified. This does not prove retrievability of "
    "every perturbation within the radius."
)

@dataclass(frozen=True)
class StabilityRadius:
    """Guaranteed perturbation radius together with the quantities it is
    computed from: upper frame bound B, margin a0, clipped margin
    a1 = min(1, a0), and the vector count m."""

    rho: float
    B: float
    a0: float
    a1: float
    m: int


@dataclass(frozen=True)
class PerturbationTrial:
    trial: int
    seed: int
    max_delta: float
    B_prime: float
    verdict: str
    a0_estimate: Optional[float]


CSV_HEADER = ",".join(f.name for f in fields(PerturbationTrial))


@dataclass(frozen=True)
class StabilityExperimentReport:
    """Per-trial outcomes of certifying random perturbations of a base
    frame inside a fraction of its guaranteed radius.  ``failures`` counts
    trials whose verdict was not Retrievable; the guarantee predicts zero.
    What the trials already say is not restated: the experiment's seed is
    ``trials[0].seed`` and the largest upper frame bound is the maximum of
    the rows' ``B_prime``."""

    rho: float
    radius_fraction: float
    base_B: float
    base_a0: float
    trials: tuple[PerturbationTrial, ...]
    failures: int
    disclaimer: str = EXPERIMENT_DISCLAIMER

    def to_csv(self) -> str:
        """One row per trial, its cells in the field order of
        PerturbationTrial: floats rendered with %.17g and '.' as the decimal
        separator regardless of locale, None as an empty cell."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for t in self.trials:
            buf.write(",".join(_csv_cell(value) for value in astuple(t)) + "\n")
        return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


@dataclass(frozen=True)
class GapAuditResult:
    """Sampled audit of the perturbation inequality

        |<(L - L')(xi) eta, eta>| <= 2 (B + B')^(3/2) max_delta

    over sampled unit xi, eta (the call's sample count and seed are not
    kept): ``max_gap`` is the largest left side seen and ``bound`` the right
    side.  ``min_lambda_min_perturbed`` is the smallest eigenvalue of the
    perturbed quadratic form seen at the sampled directions."""

    max_gap: float
    bound: float
    b: float
    b_prime: float
    max_delta: float
    min_lambda_min_perturbed: float


def stability_radius(fr: ComplexFrame, a0: float) -> StabilityRadius:
    """Perturbation radius under which phase retrievability is guaranteed
    to survive:

        rho = min( 1/sqrt(m), a1 / (4 (3B + 2)^(3/2)) ),  a1 = min(1, a0)

    where B is the upper frame bound.  Requires a certified positive
    margin; raises NotRetrievableInput otherwise.
    """
    if a0 is None or not a0 > 0.0:
        raise NotRetrievableInput(
            f"stability radius needs a positive margin, got a0={a0!r}"
        )
    bounds = frame_bounds(fr)
    a1 = min(1.0, float(a0))
    rho = min(1.0 / np.sqrt(fr.m), a1 / (4.0 * (3.0 * bounds.B + 2.0) ** 1.5))
    return StabilityRadius(rho=float(rho), B=bounds.B, a0=float(a0), a1=a1, m=fr.m)


def spanning_safe_radius(fr: ComplexFrame) -> float:
    """Radius below which every perturbation keeps the family a frame:
    the positive root of A - 2 sqrt(m B) r - m r^2 = 0, namely
    (sqrt(m (A + B)) - sqrt(m B)) / m."""
    bounds = frame_bounds(fr)
    m = fr.m
    return float((np.sqrt(m * (bounds.A + bounds.B)) - np.sqrt(m * bounds.B)) / m)


def perturb_frame(fr: ComplexFrame, radius: float, seed: int = 42) -> ComplexFrame:
    """Perturb every vector independently by a displacement drawn uniformly
    from the open ball of the given radius: a Gaussian direction scaled to
    length radius * U^(1/d), U uniform on [0, 1), in d = n real dimensions
    for a real frame and d = 2n for a complex one.  Real frames receive
    real displacements so the field label stays valid.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rng = np.random.default_rng(_checked("seed", seed, 0))
    n = fr.n
    d = n if fr.field == "real" else 2 * n
    G = rng.standard_normal((fr.m, d))
    # Capping the length factor 2^-40 below 1 keeps every |delta_k| < radius
    # through the rounding of the scaling, which is a few d ulps.
    length = radius * np.minimum(rng.random(fr.m) ** (1.0 / d), 1.0 - 2.0 ** -40)
    delta = G * (length / np.linalg.norm(G, axis=1))[:, None]
    if fr.field == "complex":
        delta = delta[:, :n] + 1j * delta[:, n:]
    return ComplexFrame.from_vectors(fr.vectors + delta, field=fr.field)


def max_displacement(fr: ComplexFrame, fr2: ComplexFrame) -> float:
    """max over k of ||f_k - f'_k||."""
    if fr.n != fr2.n or fr.m != fr2.m:
        raise FramecertError(
            f"frames differ in shape: ({fr.m}, {fr.n}) vs ({fr2.m}, {fr2.n})"
        )
    return float(np.max(np.linalg.norm(fr.vectors - fr2.vectors, axis=1)))


def stability_experiment(fr: ComplexFrame, trials: int = 100,
                         radius_fraction: float = 0.99, seed: int = 42,
                         starts: int = 64) -> StabilityExperimentReport:
    """Certify ``trials`` random perturbations of a retrievable frame, each
    inside radius_fraction of its guaranteed radius.

    Trial i uses seed + i for both the perturbation and the certification,
    and its row records it; the report keeps no seed of its own.  The base
    frame is certified first with ``certify_complex``; its margin feeds the
    radius computation.  The perturbed frames are then drawn in
    trial order into one (trials, m, n) array, which gives every row's
    max_delta and B_prime and goes whole to ``_certify_frames``.  That
    certifies it in chunks of whole trials: in C^2 one closed form gives a
    chunk's margins, otherwise one search of starts x trials and one batch
    that checks the chunk's cross-check pairs.  No stopping rule looks at
    another trial's rows, and every product whose rounding depends on the
    number of rows is taken trial by trial, so each row can still be
    reproduced on its own:
    ``certify_complex(perturb_frame(fr, r, seed + i), starts, seed + i)``
    gives the same verdict and the same a0, bit for bit.

    Fractions above 1 explore beyond the guaranteed radius; failures there
    are reported, never asserted against.
    """
    trials = _checked("trials", trials, 1)
    if not (np.isfinite(radius_fraction) and radius_fraction > 0.0):
        raise ValueError(
            f"radius_fraction must be positive and finite, got {radius_fraction}"
        )
    base = certify_complex(fr, starts=starts, seed=seed)
    if base.verdict != VERDICT_RETRIEVABLE or base.a0 is None:
        raise NotRetrievableInput(
            f"base frame must certify Retrievable, got {base.verdict}"
        )
    radius_info = stability_radius(fr, base.a0)
    r = radius_fraction * radius_info.rho
    seeds = [seed + i for i in range(trials)]
    V = np.stack([perturb_frame(fr, r, seed=trial_seed).vectors for trial_seed in seeds])
    reports = _certify_frames(V, starts, seeds)
    # max_displacement and frame_bounds(...).B of all trials, row by row alike
    deltas = np.linalg.norm(fr.vectors - V, axis=2).max(axis=1)
    b_primes = np.maximum(np.linalg.eigvalsh(V.swapaxes(1, 2) @ V.conj())[:, -1], 0.0)
    rows = tuple(PerturbationTrial(trial=i, seed=seeds[i], max_delta=float(deltas[i]),
                                   B_prime=float(b_primes[i]), verdict=rep.verdict,
                                   a0_estimate=rep.a0) for i, rep in enumerate(reports))
    return StabilityExperimentReport(
        rho=radius_info.rho,
        radius_fraction=radius_fraction,
        base_B=radius_info.B,
        base_a0=radius_info.a0,
        trials=rows,
        failures=sum(rep.verdict != VERDICT_RETRIEVABLE for rep in reports),
    )


def l_matrix_gap_audit(fr: ComplexFrame, fr2: ComplexFrame, samples: int = 200,
                       seed: int = 42) -> GapAuditResult:
    """Audit the quadratic-form perturbation bound on random unit pairs.

    Draws ``samples`` unit pairs xi, eta in R^(2n) in one batch from a
    generator seeded with ``seed`` and checks at each pair

        |eta^T (L(xi) - L'(xi)) eta| <= 2 (B + B')^(3/2) max_delta.

    Raises AssertionError if any sample exceeds the bound beyond 1e-9
    slack; that would indicate a defect in the implementation, not in the
    sampled frames.
    """
    samples, seed = _checked("samples", samples, 1), _checked("seed", seed, 0)
    delta = max_displacement(fr, fr2)
    b = frame_bounds(fr).B
    b2 = frame_bounds(fr2).B
    bound = 2.0 * (b + b2) ** 1.5 * delta
    rf = RealifiedFrame.from_frame(fr)
    rf2 = RealifiedFrame.from_frame(fr2)
    G = np.random.default_rng(seed).standard_normal((samples, 2, rf.two_n))
    G /= np.linalg.norm(G, axis=-1, keepdims=True)
    Xi, Eta = G[:, 0], G[:, 1]
    L2 = l_matrix(rf2, Xi)
    gaps = np.einsum("si,sij,sj->s", Eta, l_matrix(rf, Xi) - L2, Eta)
    max_gap = float(np.max(np.abs(gaps)))
    min_lam = float(np.min(np.linalg.eigvalsh(L2)[:, 0]))
    if max_gap > bound + 1e-9:
        raise AssertionError(
            f"perturbation bound violated: gap {max_gap} exceeds bound {bound}"
        )
    return GapAuditResult(
        max_gap=max_gap, bound=float(bound), b=b, b_prime=b2,
        max_delta=delta, min_lambda_min_perturbed=min_lam,
    )
