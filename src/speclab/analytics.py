"""Claims checking on computed spectra.

Counting functions, the per-index inequality chain, its counting-function
counterpart, Weyl fits with and without the boundary term, heat-trace
diagnostics, buckling decomposition bounds, and the two sharpness
studies.  Everything here consumes immutable Spectrum values and returns
report objects that serialize through ``as_dict``.  The one solve made
here is the decomposition check's: it takes the whole domain's buckling
spectrum from its caller and solves only the parts.

FD spectra are only trusted for their resolved low end, so every check
refuses tau values beyond the trusted range instead of silently reading
discretization artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import CHAIN_ORDER, MEMBRANE_KINDS, ProblemKind, Spectrum


class TrustRangeError(ValueError):
    """A threshold lies beyond the trusted part of a spectrum."""


class DomainMismatchError(ValueError):
    """Spectra passed to a cross-problem check live on different domains."""


class InsufficientDataError(ValueError):
    """Too few sample points for a meaningful fit."""


class TruncationError(ValueError):
    """Heat-trace tail at the last included eigenvalue is not negligible."""


class PartitionError(ValueError):
    """Decomposition parts overlap or escape the containing domain."""


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in ``dim`` dimensions."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def trusted_edge(spectrum: Spectrum) -> float:
    """Largest threshold the spectrum can count up to."""
    return float(spectrum.values[spectrum.trusted_count - 1])


def count_leq(spectrum: Spectrum, tau: float) -> int:
    """Number of eigenvalues ``<= tau``.

    Raises:
        TrustRangeError: when ``tau`` exceeds the last trusted value,
            where the computed list stops being a reliable census.
    """
    return int(_counts_leq(spectrum, np.array([tau], dtype=float))[0])


def _counts_leq(spectrum: Spectrum, taus: np.ndarray) -> np.ndarray:
    """``count_leq`` at every tau; the error names the first tau out of range."""
    edge = trusted_edge(spectrum)
    beyond = taus[taus > edge]
    if len(beyond):
        raise TrustRangeError(
            f"tau={float(beyond[0]):g} beyond trusted range (edge {edge:g}) of "
            f"{spectrum.kind.value} spectrum on {spectrum.domain}"
        )
    return np.searchsorted(spectrum.values, taus, side="right")


@dataclass(frozen=True)
class CountingFunction:
    """A spectrum's counting function tabulated on a tau grid."""

    spectrum: Spectrum
    taus: np.ndarray
    counts: np.ndarray

    def as_dict(self) -> dict:
        return {
            "kind": self.spectrum.kind.value,
            "domain": self.spectrum.domain,
            "taus": [float(t) for t in self.taus],
            "counts": [int(c) for c in self.counts],
        }


def counting_function(spectrum: Spectrum, taus) -> CountingFunction:
    """Tabulate ``count_leq`` on an increasing tau grid."""
    taus = np.asarray(taus, dtype=float)
    counts = _counts_leq(spectrum, taus).astype(np.int64)
    return CountingFunction(spectrum=spectrum, taus=taus, counts=counts)


def _shared_domain(spectra) -> str:
    domains = {s.domain for s in spectra}
    if len(domains) != 1:
        raise DomainMismatchError(f"spectra on different domains: {sorted(domains)}")
    return domains.pop()


def two_grid_uncertainty(coarse: Spectrum, fine: Spectrum, count: int) -> np.ndarray:
    """Per-index discretization uncertainty |e_k(h) - e_k(h/2)|."""
    if coarse.kind is not fine.kind:
        raise ValueError("uncertainty estimate mixes problem kinds")
    if count > min(len(coarse), len(fine)):
        raise ValueError("not enough values for the requested count")
    return np.abs(coarse.values[:count] - fine.values[:count])


@dataclass(frozen=True)
class ChainRow:
    """One index of the chain mu_k < lambda_k < Gamma_k < Lambda_k."""

    k: int
    values: tuple[float, float, float, float]
    margins: tuple[float, float, float]
    passes: tuple[bool, bool, bool]

    def as_dict(self) -> dict:
        names = ("mu", "lambda", "gamma", "Lambda")
        return {
            "k": self.k,
            **{n: v for n, v in zip(names, self.values)},
            "margins": list(self.margins),
            "passes": list(self.passes),
        }


@dataclass(frozen=True)
class ChainReport:
    """Chain verdicts for one domain, margins judged against grid error."""

    domain: str
    rows: list[ChainRow]
    uncertainty: dict[str, list[float]] | None = None

    @property
    def ok(self) -> bool:
        return all(all(row.passes) for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "check": "chain",
            "domain": self.domain,
            "ok": self.ok,
            "rows": [row.as_dict() for row in self.rows],
            "uncertainty": self.uncertainty,
        }


def inequality_chain_check(
    spectra: dict[ProblemKind, Spectrum],
    count: int,
    uncertainties: dict[ProblemKind, np.ndarray] | None = None,
) -> ChainReport:
    """Check mu_k < lambda_k < Gamma_k < Lambda_k for k = 1..count.

    A margin passes when it exceeds the summed uncertainty of its two
    endpoints, so grid error can never produce a false strictness claim.
    Analytic spectra default to zero uncertainty.
    """
    missing = [k.value for k in CHAIN_ORDER if k not in spectra]
    if missing:
        raise ValueError(f"chain check needs all four spectra, missing {missing}")
    domain = _shared_domain([spectra[k] for k in CHAIN_ORDER])
    limit = min(spectra[k].trusted_count for k in CHAIN_ORDER)
    if count > limit:
        raise TrustRangeError(
            f"count {count} exceeds the common trusted count {limit}"
        )

    def unc(kind: ProblemKind, idx: int) -> float:
        if uncertainties is None or kind not in uncertainties:
            return 0.0
        bank = uncertainties[kind]
        return float(bank[idx]) if idx < len(bank) else float(bank[-1])

    rows = []
    for idx in range(count):
        vals = tuple(float(spectra[k].values[idx]) for k in CHAIN_ORDER)
        margins = tuple(vals[j + 1] - vals[j] for j in range(3))
        passes = tuple(
            margins[j] > unc(CHAIN_ORDER[j], idx) + unc(CHAIN_ORDER[j + 1], idx)
            for j in range(3)
        )
        rows.append(ChainRow(k=idx + 1, values=vals, margins=margins, passes=passes))

    unc_out = None
    if uncertainties is not None:
        unc_out = {
            k.value: [float(v) for v in np.asarray(u)[:count]]
            for k, u in uncertainties.items()
        }
    return ChainReport(domain=domain, rows=rows, uncertainty=unc_out)


@dataclass(frozen=True)
class CountingChainReport:
    """N^(N) >= N^(D) >= N^(P) >= N^(B) tabulated over a tau grid."""

    domain: str
    taus: list[float]
    counts: dict[str, list[int]]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "check": "counting-chain",
            "domain": self.domain,
            "ok": self.ok,
            "taus": self.taus,
            "counts": self.counts,
            "violations": self.violations,
        }


def counting_chain_check(
    spectra: dict[ProblemKind, Spectrum], taus
) -> CountingChainReport:
    """Verify the counting chain at every tau in the grid."""
    missing = [k.value for k in CHAIN_ORDER if k not in spectra]
    if missing:
        raise ValueError(f"counting chain needs all four spectra, missing {missing}")
    domain = _shared_domain([spectra[k] for k in CHAIN_ORDER])
    taus = np.asarray(taus, dtype=float)
    # tabulate up to the first tau beyond any trusted edge, so the error
    # names that tau and the first kind in chain order it exceeds
    beyond = np.flatnonzero(taus > min(trusted_edge(spectra[k]) for k in CHAIN_ORDER))
    stop = beyond[0] + 1 if len(beyond) else len(taus)
    table = np.array([_counts_leq(spectra[k], taus[:stop]) for k in CHAIN_ORDER])

    violations = [
        {
            "tau": float(taus[i]),
            "pair": f"{CHAIN_ORDER[j].value}>={CHAIN_ORDER[j + 1].value}",
            "counts": table[:, i].tolist(),
        }
        for i, j in np.argwhere(table[:-1].T < table[1:].T)
    ]
    return CountingChainReport(
        domain=domain,
        taus=taus.tolist(),
        counts={k.value: row.tolist() for k, row in zip(CHAIN_ORDER, table)},
        violations=violations,
    )


@dataclass(frozen=True)
class WeylFit:
    """Fitted counting-function coefficients against the theoretical ones."""

    kind: str
    domain: str
    dim: int
    volume: float
    window: tuple[float, float]
    points: int
    leading: float
    leading_theory: float
    ratio: float
    boundary: float | None = None
    second: float | None = None
    second_theory: float | None = None
    second_sign_ok: bool | None = None
    second_ratio: float | None = None

    def as_dict(self) -> dict:
        out = {
            "check": "weyl",
            "kind": self.kind,
            "domain": self.domain,
            "dim": self.dim,
            "volume": self.volume,
            "window": list(self.window),
            "points": self.points,
            "leading": self.leading,
            "leading_theory": self.leading_theory,
            "ratio": self.ratio,
        }
        if self.second is not None:
            out.update(
                {
                    "boundary": self.boundary,
                    "second": self.second,
                    "second_theory": self.second_theory,
                    "second_sign_ok": self.second_sign_ok,
                    "second_ratio": self.second_ratio,
                }
            )
        return out


def _weyl_samples(spectrum: Spectrum, window) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = (float(window[0]), float(window[1]))
    if not (0 <= lo < hi):
        raise ValueError(f"bad fit window {window!r}")
    if hi > trusted_edge(spectrum):
        raise TrustRangeError(
            f"window edge {hi:g} beyond trusted range {trusted_edge(spectrum):g}"
        )
    values = spectrum.values[: spectrum.trusted_count]
    inside = values[(values > lo) & (values <= hi)]
    # A multiple eigenvalue can come back as floats a few ulps apart, so
    # take one sample per cluster of values within 1e-9 relative, at its top.
    taus = inside[np.diff(inside, append=np.inf) > 1e-9 * inside]
    if len(taus) < 10:
        raise InsufficientDataError(
            f"{len(taus)} sample points in window, need at least 10"
        )
    counts = np.searchsorted(spectrum.values, taus, side="right").astype(float)
    return taus, counts


def weyl_leading_coefficient(dim: int, volume: float) -> float:
    """The constant in N(tau) ~ c tau^(dim/2)."""
    return ball_volume(dim) * volume / (2.0 * math.pi) ** dim


def weyl_boundary_coefficient(dim: int, boundary: float) -> float:
    """Magnitude of the second-term constant for the boundary correction."""
    return 0.25 * (2.0 * math.pi) ** (-dim + 1) * ball_volume(dim - 1) * boundary


def weyl_fit(spectrum: Spectrum, dim: int, volume: float, window) -> WeylFit:
    """One-term least-squares fit N(tau) = c tau^(dim/2) over the window."""
    taus, counts = _weyl_samples(spectrum, window)
    basis = taus ** (dim / 2.0)
    c = float(basis @ counts / (basis @ basis))
    theory = weyl_leading_coefficient(dim, volume)
    return WeylFit(
        kind=spectrum.kind.value,
        domain=spectrum.domain,
        dim=dim,
        volume=volume,
        window=(float(window[0]), float(window[1])),
        points=len(taus),
        leading=c,
        leading_theory=theory,
        ratio=c / theory,
    )


def weyl_two_term_fit(
    spectrum: Spectrum, dim: int, volume: float, boundary: float, window
) -> WeylFit:
    """Two-term fit N(tau) = c0 tau^(dim/2) + c1 tau^((dim-1)/2).

    The boundary term is tiny relative to the bulk and drowns in
    discretization noise, so only analytic spectra are accepted.  The
    sign of c1 must be + for Neumann and - for Dirichlet.
    """
    if spectrum.source != "analytic":
        raise ValueError(
            f"two-term fit needs an analytic spectrum, got source {spectrum.source!r}"
        )
    if spectrum.kind not in MEMBRANE_KINDS:
        raise ValueError("two-term fit applies to the membrane problems")
    taus, counts = _weyl_samples(spectrum, window)
    design = np.column_stack([taus ** (dim / 2.0), taus ** ((dim - 1) / 2.0)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    c0, c1 = (float(coef[0]), float(coef[1]))
    theory0 = weyl_leading_coefficient(dim, volume)
    theory1 = weyl_boundary_coefficient(dim, boundary)
    want_positive = spectrum.kind is ProblemKind.NEUMANN
    return WeylFit(
        kind=spectrum.kind.value,
        domain=spectrum.domain,
        dim=dim,
        volume=volume,
        window=(float(window[0]), float(window[1])),
        points=len(taus),
        leading=c0,
        leading_theory=theory0,
        ratio=c0 / theory0,
        boundary=boundary,
        second=c1,
        second_theory=theory1,
        second_sign_ok=(c1 > 0) == want_positive,
        second_ratio=abs(c1) / theory1,
    )


@dataclass(frozen=True)
class HeatTraceRow:
    """Scaled heat trace against the two-term prediction at one time."""

    t: float
    scaled_trace: float
    predicted: float
    rel_deviation: float
    asymptotic: bool

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "scaled_trace": self.scaled_trace,
            "predicted": self.predicted,
            "rel_deviation": self.rel_deviation,
            "asymptotic": self.asymptotic,
        }


@dataclass(frozen=True)
class HeatTraceReport:
    """Short-time heat trace comparison for a membrane spectrum."""

    kind: str
    domain: str
    volume: float
    boundary: float
    rtol: float
    rows: list[HeatTraceRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        checked = [r for r in self.rows if r.asymptotic]
        return bool(checked) and all(r.rel_deviation <= self.rtol for r in checked)

    def as_dict(self) -> dict:
        return {
            "check": "heat",
            "kind": self.kind,
            "domain": self.domain,
            "volume": self.volume,
            "boundary": self.boundary,
            "rtol": self.rtol,
            "ok": self.ok,
            "rows": [row.as_dict() for row in self.rows],
        }


def heat_trace_check(
    spectrum: Spectrum,
    volume: float,
    boundary: float,
    times,
    dim: int = 2,
    rtol: float = 0.1,
) -> HeatTraceReport:
    """Compare (4 pi t)^(dim/2) sum exp(-t e_k) with vol +- boundary term.

    The boundary correction enters with + for Neumann and - for
    Dirichlet.  Times where the correction is no longer small against
    the volume are tail dominated; they are reported but not judged.

    Raises:
        TruncationError: when the spectrum stops too early for the
            truncated sum to represent the full trace at some t.
    """
    if spectrum.kind not in MEMBRANE_KINDS:
        raise ValueError("heat trace applies to the membrane problems")
    if spectrum.source != "analytic":
        raise ValueError(
            f"heat trace needs an analytic spectrum, got source {spectrum.source!r}"
        )
    times = sorted(float(t) for t in np.asarray(times, dtype=float))
    if not times or times[0] <= 0:
        raise ValueError("need positive times")

    values = spectrum.values
    last = float(values[-1])
    sign = 1.0 if spectrum.kind is ProblemKind.NEUMANN else -1.0
    rows = []
    for t in times:
        # Weyl-density bound on the dropped tail, in scaled-trace units.
        tail = volume * math.exp(-t * last)
        if tail * 10.0 > 1e-12:
            raise TruncationError(
                f"tail bound {tail:.2e} at t={t:g} with last eigenvalue "
                f"{last:g}; extend the spectrum"
            )
        scaled = float((4.0 * math.pi * t) ** (dim / 2.0) * np.exp(-t * values).sum())
        correction = 0.25 * math.sqrt(4.0 * math.pi * t) * boundary
        predicted = volume + sign * correction
        rows.append(
            HeatTraceRow(
                t=t,
                scaled_trace=scaled,
                predicted=predicted,
                rel_deviation=abs(scaled - predicted) / abs(predicted),
                asymptotic=correction < volume,
            )
        )
    return HeatTraceReport(
        kind=spectrum.kind.value,
        domain=spectrum.domain,
        volume=volume,
        boundary=boundary,
        rtol=rtol,
        rows=rows,
    )


@dataclass(frozen=True)
class DecompositionRow:
    """Whole-domain buckling value against the merged-parts value."""

    k: int
    whole: float
    merged: float
    margin: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "whole": self.whole,
            "merged": self.merged,
            "margin": self.margin,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class DecompositionReport:
    """Domain-decomposition upper bound Lambda_k <= Lambda*_k."""

    domain: str
    parts: list[str]
    rows: list[DecompositionRow]

    @property
    def ok(self) -> bool:
        return all(row.holds for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "check": "decomposition",
            "domain": self.domain,
            "parts": self.parts,
            "ok": self.ok,
            "rows": [row.as_dict() for row in self.rows],
        }


def _lattice_offsets(domain, whole) -> tuple[np.ndarray, np.ndarray]:
    """Part nodes as integer (i, j) offsets on the whole domain's lattice."""
    if abs(domain.h - whole.h) > 1e-12 * whole.h:
        raise PartitionError(
            f"mesh width mismatch: part {domain.h:g} vs whole {whole.h:g}"
        )
    coords = domain.node_coordinates()
    rel = (coords - np.asarray(whole.origin)) / whole.h
    snapped = np.rint(rel)
    if np.max(np.abs(rel - snapped)) > 1e-6:
        raise PartitionError(
            f"part {domain.descriptor} is not aligned with the whole grid"
        )
    return tuple(snapped.astype(np.int64).T)


def decomposition_check(
    whole, parts, buckling: Spectrum, count: int
) -> DecompositionReport:
    """Buckling eigenvalues of the whole against a disjoint decomposition.

    Restricting trial functions to the parts can only raise Rayleigh
    quotients, so the merged, sorted part values Lambda*_k bound the
    whole-domain values from above, index by index.  ``buckling`` is the
    whole domain's buckling spectrum, which the caller has already
    solved; only the parts are solved here, at ``count``.

    Raises:
        PartitionError: parts overlap, stick out of the whole, or sit
            on a different lattice.
        DomainMismatchError: ``buckling`` is not a buckling spectrum of
            ``whole``.
        ValueError: ``buckling`` holds fewer than ``count`` values.
    """
    from .fdlab import fd_spectrum

    # a node's key orders like its (i, j) offsets, so the smallest
    # shared key is the first shared node
    rows, cols = whole.mask.shape
    seen = np.empty(0, dtype=np.int64)
    for part in parts:
        i, j = _lattice_offsets(part, whole)
        inside = (i >= 0) & (i < cols) & (j >= 0) & (j < rows)
        if not (inside.all() and whole.mask[j, i].all()):
            raise PartitionError(
                f"part {part.descriptor} has nodes outside {whole.descriptor}"
            )
        keys = np.ravel_multi_index((i, j), (cols, rows))
        overlap = np.intersect1d(seen, keys)
        if overlap.size:
            first = tuple(int(x) for x in np.unravel_index(overlap[0], (cols, rows)))
            raise PartitionError(
                f"parts overlap at {overlap.size} nodes (first: {first})"
            )
        seen = np.concatenate([seen, keys])

    if buckling.kind is not ProblemKind.BUCKLING or buckling.domain != whole.descriptor:
        raise DomainMismatchError(
            f"need the buckling spectrum on {whole.descriptor}, got the "
            f"{buckling.kind.value} spectrum on {buckling.domain}"
        )
    if count > len(buckling):
        raise ValueError(
            f"count {count} exceeds the {len(buckling)} whole-domain buckling values"
        )
    merged = np.sort(
        np.concatenate(
            [fd_spectrum(p, ProblemKind.BUCKLING, count=count).values for p in parts]
        )
    )[:count]
    if len(merged) < count:
        raise ValueError("parts supplied fewer eigenvalues than requested")

    whole_values = buckling.values[:count]
    rows = [
        DecompositionRow(
            k=idx + 1,
            whole=float(whole_values[idx]),
            merged=float(merged[idx]),
            margin=float(merged[idx] - whole_values[idx]),
            holds=bool(whole_values[idx] <= merged[idx]),
        )
        for idx in range(count)
    ]
    return DecompositionReport(
        domain=whole.descriptor,
        parts=[p.descriptor for p in parts],
        rows=rows,
    )


@dataclass(frozen=True)
class PayneRow:
    """lambda_(k+1) against Lambda_k for one index."""

    k: int
    lam_next: float
    buck: float
    gap: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda_next": self.lam_next,
            "Lambda": self.buck,
            "gap": self.gap,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class PayneReport:
    """Observations on the conjectured bound lambda_(k+1) <= Lambda_k."""

    domain: str
    rows: list[PayneRow]

    @property
    def holds_all(self) -> bool:
        return all(row.holds for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "check": "payne",
            "domain": self.domain,
            "holds_all": self.holds_all,
            "rows": [row.as_dict() for row in self.rows],
        }


def payne_scan(dirichlet: Spectrum, buckling: Spectrum, count: int) -> PayneReport:
    """Report lambda_(k+1) - Lambda_k for k = 1..count.

    The bound holds on intervals only up to k = 1 and fails at k = 2,
    so this scan records observations rather than asserting them.
    """
    if dirichlet.kind is not ProblemKind.DIRICHLET:
        raise ValueError(f"expected a dirichlet spectrum, got {dirichlet.kind.value}")
    if buckling.kind is not ProblemKind.BUCKLING:
        raise ValueError(f"expected a buckling spectrum, got {buckling.kind.value}")
    domain = _shared_domain([dirichlet, buckling])
    if count + 1 > dirichlet.trusted_count or count > buckling.trusted_count:
        raise TrustRangeError(
            f"count {count} needs {count + 1} trusted dirichlet and "
            f"{count} trusted buckling values"
        )
    rows = []
    for k in range(1, count + 1):
        lam_next = float(dirichlet.values[k])
        buck = float(buckling.values[k - 1])
        rows.append(
            PayneRow(
                k=k,
                lam_next=lam_next,
                buck=buck,
                gap=buck - lam_next,
                holds=bool(lam_next <= buck),
            )
        )
    return PayneReport(domain=domain, rows=rows)


@dataclass(frozen=True)
class SharpnessRow:
    """One ordering observation with its expectation."""

    label: str
    left: float
    right: float
    holds: bool
    asserted: bool

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "left": self.left,
            "right": self.right,
            "holds": self.holds,
            "asserted": self.asserted,
        }


@dataclass(frozen=True)
class SharpnessReport:
    """Orderings showing the chain inequalities cannot be improved."""

    rows: list[SharpnessRow]

    @property
    def ok(self) -> bool:
        return all(row.holds for row in self.rows if row.asserted)

    def as_dict(self) -> dict:
        return {
            "check": "sharpness",
            "ok": self.ok,
            "rows": [row.as_dict() for row in self.rows],
        }


def sharpness_report(
    disk_spectra: dict[ProblemKind, Spectrum],
    cap_results: list[tuple[float, Spectrum, Spectrum]] | None = None,
) -> SharpnessReport:
    """Sharpness orderings on the unit disk plus cap comparisons.

    ``cap_results`` holds (delta, neumann spectrum, dirichlet spectrum)
    triples.  For apertures beyond the hemisphere the reversal
    mu_2 > lambda_1 is asserted; smaller caps behave like flat domains
    and their rows are informational.
    """
    rows = []
    lam = disk_spectra[ProblemKind.DIRICHLET].values
    gam = disk_spectra[ProblemKind.CLAMPED].values
    buck = disk_spectra[ProblemKind.BUCKLING].values
    rows.append(
        SharpnessRow(
            label="disk lambda_2 > Gamma_1",
            left=float(lam[1]),
            right=float(gam[0]),
            holds=bool(lam[1] > gam[0]),
            asserted=True,
        )
    )
    rows.append(
        SharpnessRow(
            label="disk Gamma_2 > Lambda_1",
            left=float(gam[1]),
            right=float(buck[0]),
            holds=bool(gam[1] > buck[0]),
            asserted=True,
        )
    )
    for delta, neumann, dirichlet in cap_results or []:
        if neumann.kind is not ProblemKind.NEUMANN:
            raise ValueError("cap triple must carry (neumann, dirichlet) spectra")
        if dirichlet.kind is not ProblemKind.DIRICHLET:
            raise ValueError("cap triple must carry (neumann, dirichlet) spectra")
        mu2 = float(neumann.values[1])
        lam1 = float(dirichlet.values[0])
        rows.append(
            SharpnessRow(
                label=f"cap(delta={delta:g}) mu_2 > lambda_1",
                left=mu2,
                right=lam1,
                holds=bool(mu2 > lam1),
                asserted=bool(delta > math.pi / 2),
            )
        )
    return SharpnessReport(rows=rows)
