"""Claims checking on computed spectra.

The per-index inequality chain, its counting-function counterpart, Weyl
fits with and without the boundary term, heat-trace diagnostics,
buckling decomposition bounds, and the two sharpness studies.
Every inequality between two spectra, in the chain, payne, sharpness and
decomposition checks, is one ``links`` call: its margins and verdicts are
the rows' margins and verdicts, and a shifted index is a slice of the
values passed in.  Everything here consumes immutable Spectrum values and
returns the plain dict it reports: its ``check`` name first, then its
fields in the order the JSON shows them, with its verdict among them.  A
report's rows are plain dicts too, with no ``check``.  The one solve made
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


def links(lower, upper, slack=0.0, strict=True) -> tuple[list[float], list[bool]]:
    """Margins ``upper - lower`` and verdicts of the links lower_k < upper_k.

    A strict link holds where its margin exceeds ``slack``, a scalar or one
    value per index; a non-strict one holds where its margin is >= 0.  With
    gradual underflow the difference of two finite doubles is 0 only when
    they are equal, so with no slack each verdict is the comparison of the
    two values themselves.
    """
    margins = np.subtract(upper, lower, dtype=float)
    verdicts = margins > slack if strict else margins >= 0.0
    return margins.tolist(), verdicts.tolist()


def _chain_domain(spectra: dict[ProblemKind, Spectrum], check: str) -> str:
    """The one domain of the four chain spectra; ValueError, led by ``check``, if one is missing."""
    missing = [k.value for k in CHAIN_ORDER if k not in spectra]
    if missing:
        raise ValueError(f"{check} needs all four spectra, missing {missing}")
    return _shared_domain([spectra[k] for k in CHAIN_ORDER])


def _indexed_rows(keys: str, *columns) -> list[dict]:
    """One row per index: ``k`` from 1, then each column's entry, under ``keys``."""
    names = ["k", *keys.split()]
    return [dict(zip(names, (k, *row))) for k, row in enumerate(zip(*columns), start=1)]


def inequality_chain_check(spectra: dict[ProblemKind, Spectrum], count: int) -> dict:
    """Check mu_k < lambda_k < Gamma_k < Lambda_k for k = 1..count.

    A margin passes when it exceeds the summed ``uncertainty`` bars of its
    two endpoints, so grid error can never produce a false strictness
    claim.  A spectrum without bars adds no slack.

    Returns the report ``check`` ("chain"), ``domain``, ``ok``, ``rows``
    and ``uncertainty``, each kind's bars or None where no spectrum has
    any.  Each row holds ``k``, ``mu``, ``lambda``, ``gamma``, ``Lambda``
    and the three links' ``margins`` and ``passes``.
    """
    domain = _chain_domain(spectra, "chain check")
    limit = min(spectra[k].trusted_count for k in CHAIN_ORDER)
    if count > limit:
        raise TrustRangeError(
            f"count {count} exceeds the common trusted count {limit}"
        )

    bars = {k: s.uncertainty[:count] for k, s in spectra.items() if s.uncertainty is not None}
    vals = [spectra[k].values[:count].tolist() for k in CHAIN_ORDER]
    slack = [bars.get(k, 0.0) for k in CHAIN_ORDER]
    margins, passes = zip(*(links(vals[j], vals[j + 1], slack[j] + slack[j + 1]) for j in range(3)))
    keys = "mu lambda gamma Lambda margins passes"
    rows = _indexed_rows(keys, *vals, zip(*margins), zip(*passes))
    return {
        "check": "chain",
        "domain": domain,
        "ok": all(all(row["passes"]) for row in rows),
        "rows": rows,
        "uncertainty": {k.value: u.tolist() for k, u in bars.items()} or None,
    }


def counting_chain_check(spectra: dict[ProblemKind, Spectrum], taus) -> dict:
    """Verify N^(N) >= N^(D) >= N^(P) >= N^(B) at every tau in the grid.

    Returns the report ``check`` ("counting-chain"), ``domain``, ``ok``,
    ``taus``, ``counts`` (each kind's counts at the taus) and
    ``violations``, one ``tau``, ``pair`` and ``counts`` per broken link.
    """
    domain = _chain_domain(spectra, "counting chain")
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
    return {
        "check": "counting-chain",
        "domain": domain,
        "ok": not violations,
        "taus": taus.tolist(),
        "counts": {k.value: row.tolist() for k, row in zip(CHAIN_ORDER, table)},
        "violations": violations,
    }


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


def _weyl_fields(spectrum: Spectrum, dim: int, volume: float, window, points, leading) -> dict:
    """The report both Weyl fits share, over ``points`` samples with coefficient ``leading``."""
    theory = weyl_leading_coefficient(dim, volume)
    return {
        "check": "weyl",
        "kind": spectrum.kind.value,
        "domain": spectrum.domain,
        "dim": dim,
        "volume": volume,
        "window": (float(window[0]), float(window[1])),
        "points": points,
        "leading": leading,
        "leading_theory": theory,
        "ratio": leading / theory,
    }


def _analytic_membrane(spectrum: Spectrum, what: str) -> None:
    """Refuse a spectrum that is not a closed-form membrane one; ``what`` names the check."""
    if spectrum.kind not in MEMBRANE_KINDS:
        raise ValueError(f"{what} applies to the membrane problems")
    if spectrum.source != "analytic":
        raise ValueError(f"{what} needs an analytic spectrum, got source {spectrum.source!r}")


def weyl_fit(spectrum: Spectrum, dim: int, volume: float, window) -> dict:
    """One-term least-squares fit N(tau) = c tau^(dim/2) over the window.

    Returns the report ``check`` ("weyl"), ``kind``, ``domain``, ``dim``,
    ``volume``, ``window``, ``points``, c as ``leading``,
    ``leading_theory`` and their ``ratio``.
    """
    taus, counts = _weyl_samples(spectrum, window)
    basis = taus ** (dim / 2.0)
    c = float(basis @ counts / (basis @ basis))
    return _weyl_fields(spectrum, dim, volume, window, len(taus), c)


def weyl_two_term_fit(
    spectrum: Spectrum, dim: int, volume: float, boundary: float, window
) -> dict:
    """Two-term fit N(tau) = c0 tau^(dim/2) + c1 tau^((dim-1)/2).

    The boundary term is tiny relative to the bulk and drowns in
    discretization noise, so only analytic spectra are accepted.  The
    sign of c1 must be + for Neumann and - for Dirichlet.

    Returns ``weyl_fit``'s report keys, c0 as ``leading`` and still
    ``check`` "weyl", then ``boundary``, c1 as ``second``,
    ``second_theory``, ``second_sign_ok`` and ``second_ratio``.
    """
    _analytic_membrane(spectrum, "two-term fit")
    taus, counts = _weyl_samples(spectrum, window)
    design = np.column_stack([taus ** (dim / 2.0), taus ** ((dim - 1) / 2.0)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    c0, c1 = (float(coef[0]), float(coef[1]))
    theory1 = weyl_boundary_coefficient(dim, boundary)
    want_positive = spectrum.kind is ProblemKind.NEUMANN
    return {
        **_weyl_fields(spectrum, dim, volume, window, len(taus), c0),
        "boundary": boundary,
        "second": c1,
        "second_theory": theory1,
        "second_sign_ok": (c1 > 0) == want_positive,
        "second_ratio": abs(c1) / theory1,
    }


def heat_trace_check(
    spectrum: Spectrum,
    volume: float,
    boundary: float,
    times,
    dim: int = 2,
    rtol: float = 0.1,
) -> dict:
    """Compare (4 pi t)^(dim/2) sum exp(-t e_k) with vol +- boundary term.

    The boundary correction enters with + for Neumann and - for
    Dirichlet.  Times where the correction is no longer small against
    the volume are tail dominated; they are reported but not judged.

    Returns the report ``check`` ("heat"), ``kind``, ``domain``,
    ``volume``, ``boundary``, ``rtol``, ``ok`` and ``rows``, one per time
    in ascending order: ``t``, ``scaled_trace``, ``predicted``,
    ``rel_deviation`` and whether it is judged, ``asymptotic``.

    Raises:
        TruncationError: when the spectrum stops too early for the
            truncated sum to represent the full trace at some t.
        InsufficientDataError: when no time is small enough to judge.
    """
    _analytic_membrane(spectrum, "heat trace")
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
            {
                "t": t,
                "scaled_trace": scaled,
                "predicted": predicted,
                "rel_deviation": abs(scaled - predicted) / abs(predicted),
                "asymptotic": correction < volume,
            }
        )
    checked = [r for r in rows if r["asymptotic"]]
    if not checked:
        raise InsufficientDataError(
            f"no time in {times} is judged: each needs 0.25*sqrt(4*pi*t)*boundary < volume, "
            f"with boundary {boundary:g} and volume {volume:g}"
        )
    return {
        "check": "heat",
        "kind": spectrum.kind.value,
        "domain": spectrum.domain,
        "volume": volume,
        "boundary": boundary,
        "rtol": rtol,
        "ok": all(r["rel_deviation"] <= rtol for r in checked),
        "rows": rows,
    }


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


def decomposition_check(whole, parts, buckling: Spectrum, count: int) -> dict:
    """Buckling eigenvalues of the whole against a disjoint decomposition.

    Restricting trial functions to the parts can only raise Rayleigh
    quotients, so the merged, sorted part values Lambda*_k bound the
    whole-domain values from above, index by index.  ``buckling`` is the
    whole domain's buckling spectrum, which the caller has already
    solved; only the parts are solved here, each at ``count`` or at its
    number of unknowns if that is smaller.  Congruent parts, such as
    two translated halves, are solved once and counted once each.

    Returns the report ``check`` ("decomposition"), ``domain``, the
    ``parts``' descriptors, ``ok`` and ``rows``: ``k``, the ``whole``
    value Lambda_k, the ``merged`` value Lambda*_k, their ``margin`` and
    whether the bound ``holds``.

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

    values, merged = buckling.values[:count].tolist(), merged.tolist()
    columns = (values, merged, *links(values, merged, strict=False))
    rows = _indexed_rows("whole merged margin holds", *columns)
    return {
        "check": "decomposition",
        "domain": whole.descriptor,
        "parts": [p.descriptor for p in parts],
        "ok": all(row["holds"] for row in rows),
        "rows": rows,
    }


def payne_scan(dirichlet: Spectrum, buckling: Spectrum, count: int) -> dict:
    """Report lambda_(k+1) - Lambda_k for k = 1..count.

    The bound holds on intervals only up to k = 1 and fails at k = 2,
    so this scan records observations rather than asserting them.

    Returns the report ``check`` ("payne"), ``domain``, ``holds_all`` and
    ``rows``: ``k``, ``lambda_next`` (lambda_(k+1)), ``Lambda``
    (Lambda_k), their ``gap`` and whether the bound ``holds``.
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
    lam_next, buck = dirichlet.values[1 : count + 1].tolist(), buckling.values[:count].tolist()
    columns = (lam_next, buck, *links(lam_next, buck, strict=False))
    rows = _indexed_rows("lambda_next Lambda gap holds", *columns)
    holds_all = all(row["holds"] for row in rows)
    return {"check": "payne", "domain": domain, "holds_all": holds_all, "rows": rows}


def sharpness_report(
    disk_spectra: dict[ProblemKind, Spectrum],
    cap_results: list[tuple[float, Spectrum, Spectrum]] | None = None,
) -> dict:
    """Sharpness orderings on the unit disk plus cap comparisons.

    ``cap_results`` holds (delta, neumann spectrum, dirichlet spectrum)
    triples.  For apertures beyond the hemisphere the reversal
    mu_2 > lambda_1 is asserted; smaller caps behave like flat domains
    and their rows are informational.

    Returns the report ``check`` ("sharpness"), ``ok`` over the asserted
    rows, and ``rows``: the ordering's ``label``, its ``left`` (larger)
    and ``right`` (smaller) sides, whether it ``holds`` and whether it is
    ``asserted``.
    """
    lam, gam, buck = (disk_spectra[k].values[:2].tolist() for k in CHAIN_ORDER[1:])
    # (label, larger, smaller, asserted) for each ordering
    orderings = [
        ("disk lambda_2 > Gamma_1", lam[1], gam[0], True),
        ("disk Gamma_2 > Lambda_1", gam[1], buck[0], True),
    ]
    for delta, neumann, dirichlet in cap_results or []:
        if (neumann.kind, dirichlet.kind) != MEMBRANE_KINDS:
            raise ValueError("cap triple must carry (neumann, dirichlet) spectra")
        label = f"cap(delta={delta:g}) mu_2 > lambda_1"
        mu2, lam1 = float(neumann.values[1]), float(dirichlet.values[0])
        orderings.append((label, mu2, lam1, bool(delta > math.pi / 2)))
    labels, larger, smaller, asserted = zip(*orderings)
    _, holds = links(smaller, larger)
    keys = ("label", "left", "right", "holds", "asserted")
    rows = [dict(zip(keys, row)) for row in zip(labels, larger, smaller, holds, asserted)]
    ok = all(row["holds"] for row in rows if row["asserted"])
    return {"check": "sharpness", "ok": ok, "rows": rows}
