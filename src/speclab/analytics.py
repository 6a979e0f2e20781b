"""Claims checking on computed spectra.

The per-index inequality chain, its counting-function counterpart, Weyl
fits with and without the boundary term, heat-trace diagnostics,
buckling decomposition bounds, and the two sharpness studies.
Everything here consumes immutable Spectrum values and returns
``Record`` reports.  Every report and row serializes through the one
``Record.as_dict``: the class's ``check`` name first, then its fields in
declaration order, so a report's field order is its JSON layout and its
verdict is a field set by the function that builds it.  The one solve made
here is the decomposition check's: it takes the whole domain's buckling
spectrum from its caller and solves only the parts.  Its partition rule,
``check_partition``, needs no spectrum, so a config's parts are judged
by it while the config is parsed, before anything is solved.

FD spectra are only trusted for their resolved low end, so every check
refuses tau values beyond the trusted range instead of silently reading
discretization artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

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


@dataclass(frozen=True)
class Record:
    """A report or row whose fields, in order, are its JSON layout."""

    #: The JSON ``check`` name a report leads with; rows have none.
    check: ClassVar[str | None] = None

    def as_dict(self) -> dict:
        """The ``check`` name, then every field under its ``key`` metadata or name.

        Nested records become dicts, tuples and arrays become lists.
        """
        out = {} if self.check is None else {"check": self.check}
        for f in fields(self):
            out[f.metadata.get("key", f.name)] = _plain(getattr(self, f.name))
        return out


def _plain(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in ``dim`` dimensions."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def trusted_edge(spectrum: Spectrum) -> float:
    """Largest threshold the spectrum can count up to."""
    return float(spectrum.values[spectrum.trusted_count - 1])


def _counts_leq(spectrum: Spectrum, taus: np.ndarray) -> np.ndarray:
    """Number of eigenvalues ``<= tau`` at every tau.

    Raises:
        TrustRangeError: naming the first tau past the last trusted value,
            where the computed list stops being a reliable census.
    """
    edge = trusted_edge(spectrum)
    beyond = taus[taus > edge]
    if len(beyond):
        raise TrustRangeError(
            f"tau={float(beyond[0]):g} beyond trusted range (edge {edge:g}) of "
            f"{spectrum.kind.value} spectrum on {spectrum.domain}"
        )
    return np.searchsorted(spectrum.values, taus, side="right")


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
class ChainRow(Record):
    """One index of the chain mu_k < lambda_k < Gamma_k < Lambda_k."""

    k: int
    mu: float
    lam: float = field(metadata={"key": "lambda"})
    gamma: float
    buck: float = field(metadata={"key": "Lambda"})
    margins: tuple[float, float, float]
    passes: tuple[bool, bool, bool]


@dataclass(frozen=True)
class ChainReport(Record):
    """Chain verdicts for one domain, margins judged against grid error."""

    check = "chain"
    domain: str
    ok: bool
    rows: list[ChainRow]
    uncertainty: dict[str, list[float]] | None


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
        rows.append(ChainRow(idx + 1, *vals, margins=margins, passes=passes))

    unc_out = None
    if uncertainties is not None:
        unc_out = {
            k.value: [float(v) for v in np.asarray(u)[:count]]
            for k, u in uncertainties.items()
        }
    ok = all(all(row.passes) for row in rows)
    return ChainReport(domain=domain, ok=ok, rows=rows, uncertainty=unc_out)


@dataclass(frozen=True)
class CountingChainReport(Record):
    """N^(N) >= N^(D) >= N^(P) >= N^(B) tabulated over a tau grid."""

    check = "counting-chain"
    domain: str
    ok: bool
    taus: list[float]
    counts: dict[str, list[int]]
    violations: list[dict]


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
        ok=not violations,
        taus=taus.tolist(),
        counts={k.value: row.tolist() for k, row in zip(CHAIN_ORDER, table)},
        violations=violations,
    )


@dataclass(frozen=True)
class WeylFit(Record):
    """Fitted counting-function coefficients against the theoretical ones."""

    check = "weyl"
    kind: str
    domain: str
    dim: int
    volume: float
    window: tuple[float, float]
    points: int
    leading: float
    leading_theory: float
    ratio: float


@dataclass(frozen=True)
class WeylTwoTermFit(WeylFit):
    """A Weyl fit that also fits the boundary term."""

    boundary: float
    second: float
    second_theory: float
    second_sign_ok: bool
    second_ratio: float


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
) -> WeylTwoTermFit:
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
    return WeylTwoTermFit(
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
class HeatTraceRow(Record):
    """Scaled heat trace against the two-term prediction at one time."""

    t: float
    scaled_trace: float
    predicted: float
    rel_deviation: float
    asymptotic: bool


@dataclass(frozen=True)
class HeatTraceReport(Record):
    """Short-time heat trace comparison for a membrane spectrum."""

    check = "heat"
    kind: str
    domain: str
    volume: float
    boundary: float
    rtol: float
    ok: bool
    rows: list[HeatTraceRow]


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
        InsufficientDataError: when no time is small enough to judge.
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
    checked = [r for r in rows if r.asymptotic]
    if not checked:
        raise InsufficientDataError(
            f"no time in {times} is judged: each needs 0.25*sqrt(4*pi*t)*boundary < volume, "
            f"with boundary {boundary:g} and volume {volume:g}"
        )
    return HeatTraceReport(
        kind=spectrum.kind.value,
        domain=spectrum.domain,
        volume=volume,
        boundary=boundary,
        rtol=rtol,
        ok=all(r.rel_deviation <= rtol for r in checked),
        rows=rows,
    )


@dataclass(frozen=True)
class DecompositionRow(Record):
    """Whole-domain buckling value against the merged-parts value."""

    k: int
    whole: float
    merged: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class DecompositionReport(Record):
    """Domain-decomposition upper bound Lambda_k <= Lambda*_k."""

    check = "decomposition"
    domain: str
    parts: list[str]
    ok: bool
    rows: list[DecompositionRow]


def check_partition(whole, parts) -> None:
    """Refuse parts that sit on another lattice, leave the whole, or overlap.

    Each part is stamped onto one boolean cover of the whole's lattice, at
    the integer offset its origin sits from the whole's, in steps of h.
    That offset is bounded in floating point before it becomes an integer,
    so a far-off part is refused as outside.  An overlap is reported for the
    first part that meets the parts before it, with its count of shared
    nodes and the smallest (i, j) offset among them.

    Raises:
        PartitionError: naming the first part refused by its index in
            ``parts``, or the overlap.
    """
    # indexed [i, j], so nonzero lists nodes in (i, j) order
    inner, cover = whole.mask.T, np.zeros_like(whole.mask.T)
    for index, part in enumerate(parts):
        named = f"parts[{index}] {part.descriptor}"
        if abs(part.h - whole.h) > 1e-12 * whole.h:
            raise PartitionError(f"mesh width mismatch: {named} at {part.h:g} vs whole {whole.h:g}")
        # a shift that overflows is infinite: its NaN distance from the lattice
        # passes here, and the bounds below refuse it
        with np.errstate(over="ignore", invalid="ignore"):
            shift = np.subtract(part.origin, whole.origin) / whole.h
            snapped = np.rint(shift)
            if np.max(np.abs(shift - snapped)) > 1e-6:
                raise PartitionError(f"{named} is not aligned with the whole grid")
        i, j = np.nonzero(part.mask.T)
        extremes = snapped + [(i[0], j.min()), (i[-1], j.max())]
        if not ((extremes >= 0) & (extremes < inner.shape)).all():
            raise PartitionError(f"{named} has nodes outside {whole.descriptor}")
        i, j = i + int(snapped[0]), j + int(snapped[1])
        if not inner[i, j].all():
            raise PartitionError(f"{named} has nodes outside {whole.descriptor}")
        shared = cover[i, j]
        if shared.any():
            first = (int(i[shared][0]), int(j[shared][0]))
            raise PartitionError(f"parts overlap at {shared.sum()} nodes (first: {first})")
        cover[i, j] = True


def _congruence_key(domain) -> tuple:
    """Equal for grid domains with the same FD spectra by congruence.

    The 5- and 13-point stencils are invariant under the lattice's eight
    reflections and rotations, so a mask and its images under them have
    the same spectra at one h; the key is h and the least of the eight.
    """
    images = [np.rot90(m, turns) for m in (domain.mask, domain.mask.T) for turns in range(4)]
    return domain.h, min((image.shape, image.tobytes()) for image in images)


def decomposition_check(
    whole, parts, buckling: Spectrum, count: int
) -> DecompositionReport:
    """Buckling eigenvalues of the whole against a disjoint decomposition.

    Restricting trial functions to the parts can only raise Rayleigh
    quotients, so the merged, sorted part values Lambda*_k bound the
    whole-domain values from above, index by index.  ``buckling`` is the
    whole domain's buckling spectrum, which the caller has already
    solved; only the parts are solved here, each at ``count`` or at its
    number of unknowns if that is smaller.  Congruent parts, such as
    two translated halves, are solved once and counted once each.

    Raises:
        PartitionError: from ``check_partition``: parts overlap, stick
            out of the whole, or sit on a different lattice.
        DomainMismatchError: ``buckling`` is not a buckling spectrum of
            ``whole``.
        ValueError: ``buckling`` holds fewer than ``count`` values, or
            the parts hold fewer than ``count`` values together.
    """
    from .fdlab import fd_spectrum

    check_partition(whole, parts)
    if buckling.kind is not ProblemKind.BUCKLING or buckling.domain != whole.descriptor:
        raise DomainMismatchError(
            f"need the buckling spectrum on {whole.descriptor}, got the "
            f"{buckling.kind.value} spectrum on {buckling.domain}"
        )
    if count > len(buckling):
        raise ValueError(
            f"count {count} exceeds the {len(buckling)} whole-domain buckling values"
        )
    keys = [_congruence_key(part) for part in parts]
    solved = {}
    for key, part in zip(keys, parts):
        if key not in solved:
            solved[key] = fd_spectrum(
                part, ProblemKind.BUCKLING, count=min(count, part.n_unknowns)
            ).values
    merged = np.sort(np.concatenate([solved[key] for key in keys]))[:count]
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
        ok=all(row.holds for row in rows),
        rows=rows,
    )


@dataclass(frozen=True)
class PayneRow(Record):
    """lambda_(k+1) against Lambda_k for one index."""

    k: int
    lam_next: float = field(metadata={"key": "lambda_next"})
    buck: float = field(metadata={"key": "Lambda"})
    gap: float
    holds: bool


@dataclass(frozen=True)
class PayneReport(Record):
    """Observations on the conjectured bound lambda_(k+1) <= Lambda_k."""

    check = "payne"
    domain: str
    holds_all: bool
    rows: list[PayneRow]


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
    return PayneReport(domain=domain, holds_all=all(row.holds for row in rows), rows=rows)


@dataclass(frozen=True)
class SharpnessRow(Record):
    """One ordering observation with its expectation."""

    label: str
    left: float
    right: float
    holds: bool
    asserted: bool


@dataclass(frozen=True)
class SharpnessReport(Record):
    """Orderings showing the chain inequalities cannot be improved."""

    check = "sharpness"
    ok: bool
    rows: list[SharpnessRow]


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
    return SharpnessReport(ok=all(row.holds for row in rows if row.asserted), rows=rows)
