"""Quantitative stability of phase retrievability under frame perturbation.

``stability_radius`` turns a positive injectivity margin into an explicit
radius: every frame whose vectors each move by less than rho stays phase
retrievable.  ``stability_experiment`` probes that guarantee empirically and
``l_matrix_gap_audit`` checks the perturbation inequality the radius rests
on, sample by sample.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import ComplexFrame, RealifiedFrame, frame_bounds, l_matrix
from .errors import NotRetrievableInput, ShapeMismatch
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

CSV_HEADER = "trial,seed,max_delta,B_prime,verdict,a0_estimate"


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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PerturbationTrial:
    trial: int
    seed: int
    max_delta: float
    b_prime: float
    verdict: str
    a0_estimate: Optional[float]


@dataclass(frozen=True)
class StabilityExperimentReport:
    """Per-trial outcomes of certifying random perturbations of a base
    frame inside a fraction of its guaranteed radius.  ``failures`` counts
    trials whose verdict was not Retrievable; the guarantee predicts zero."""

    rho: float
    radius_fraction: float
    base_b: float
    base_a0: float
    trials: tuple[PerturbationTrial, ...]
    b_prime_max: float
    failures: int
    seed: int
    disclaimer: str = EXPERIMENT_DISCLAIMER

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "radius_fraction": self.radius_fraction,
            "base_B": self.base_b,
            "base_a0": self.base_a0,
            "b_prime_max": self.b_prime_max,
            "failures": self.failures,
            "seed": self.seed,
            "disclaimer": self.disclaimer,
            "trials": [
                {
                    "trial": t.trial,
                    "seed": t.seed,
                    "max_delta": t.max_delta,
                    "B_prime": t.b_prime,
                    "verdict": t.verdict,
                    "a0_estimate": t.a0_estimate,
                }
                for t in self.trials
            ],
        }

    def to_csv(self) -> str:
        """One row per trial, floats rendered with %.17g and '.' as the
        decimal separator regardless of locale."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for t in self.trials:
            a0_field = "" if t.a0_estimate is None else format(t.a0_estimate, ".17g")
            buf.write(
                f"{t.trial},{t.seed},{format(t.max_delta, '.17g')},"
                f"{format(t.b_prime, '.17g')},{t.verdict},{a0_field}\n"
            )
        return buf.getvalue()


@dataclass(frozen=True)
class GapAuditResult:
    """Sampled audit of the perturbation inequality

        |<(L - L')(xi) eta, eta>| <= 2 (B + B')^(3/2) max_delta

    over unit xi, eta: ``max_gap`` is the largest left side seen and
    ``bound`` the right side.  ``min_lambda_min_perturbed`` is the smallest
    eigenvalue of the perturbed quadratic form seen at the sampled
    directions."""

    max_gap: float
    bound: float
    b: float
    b_prime: float
    max_delta: float
    min_lambda_min_perturbed: float
    samples: int
    seed: int


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
    rng = np.random.default_rng(seed)
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
        raise ShapeMismatch(
            f"frames differ in shape: ({fr.m}, {fr.n}) vs ({fr2.m}, {fr2.n})"
        )
    return float(np.max(np.linalg.norm(fr.vectors - fr2.vectors, axis=1)))


def stability_experiment(fr: ComplexFrame, trials: int = 100,
                         radius_fraction: float = 0.99, seed: int = 42,
                         starts: int = 64) -> StabilityExperimentReport:
    """Certify ``trials`` random perturbations of a retrievable frame, each
    inside radius_fraction of its guaranteed radius.

    Trial i uses seed + i for both the perturbation and the certification.
    The base frame is certified first with ``certify_complex``; its margin
    feeds the radius computation.  The perturbed frames are then drawn in
    trial order and certified together, their margins searched as one
    stack of starts x trials.  No stopping rule of that search looks at
    another trial's rows, and the matrix products whose rounding depends
    on the number of rows are taken trial by trial, so each row can still
    be reproduced on its own:
    ``certify_complex(perturb_frame(fr, r, seed + i), starts, seed + i)``
    gives the same verdict and the same a0, bit for bit.

    Fractions above 1 explore beyond the guaranteed radius; failures there
    are reported, never asserted against.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    frames = [perturb_frame(fr, r, seed=trial_seed) for trial_seed in seeds]
    reports = _certify_frames(frames, starts, seeds)
    rows = []
    failures = 0
    b_prime_max = 0.0
    for i, (fr2, rep) in enumerate(zip(frames, reports)):
        delta = max_displacement(fr, fr2)
        b_prime = frame_bounds(fr2).B
        b_prime_max = max(b_prime_max, b_prime)
        if rep.verdict != VERDICT_RETRIEVABLE:
            failures += 1
        rows.append(PerturbationTrial(
            trial=i, seed=seeds[i], max_delta=delta, b_prime=b_prime,
            verdict=rep.verdict, a0_estimate=rep.a0,
        ))
    return StabilityExperimentReport(
        rho=radius_info.rho,
        radius_fraction=radius_fraction,
        base_b=radius_info.B,
        base_a0=radius_info.a0,
        trials=tuple(rows),
        b_prime_max=b_prime_max,
        failures=failures,
        seed=seed,
    )


def l_matrix_gap_audit(fr: ComplexFrame, fr2: ComplexFrame, samples: int = 200,
                       seed: int = 42) -> GapAuditResult:
    """Audit the quadratic-form perturbation bound on random unit pairs.

    Draws ``samples`` unit pairs xi, eta in R^(2n) in one batch and checks
    at each pair

        |eta^T (L(xi) - L'(xi)) eta| <= 2 (B + B')^(3/2) max_delta.

    Raises AssertionError if any sample exceeds the bound beyond 1e-9
    slack; that would indicate a defect in the implementation, not in the
    sampled frames.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
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
        samples=samples, seed=seed,
    )
