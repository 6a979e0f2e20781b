"""Configuration-driven experiment runner.

A single JSON document describes a list of experiments; each one names a
domain, a backend, the problem kinds, and the checks to run.  Every
experiment emits ``<name>.spectra.csv`` (the computed eigenvalues) and
``<name>.report.json`` (check verdicts).  Outputs are deterministic:
floats are rounded to 12 significant digits and files are written in
config order.

Exit status: 0 when every asserted check passes, 1 when at least one
fails, 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics
from .analytic2d import disk_spectrum, rect_spectrum
from .fdlab import (
    CapDomain,
    cap_spectrum,
    disk_domain,
    fd_spectrum,
    interval_domain,
    lshape_domain,
    read_mask_file,
    rectangle_domain,
)
from .interval1d import interval_spectrum
from .spectra import MEMBRANE_KINDS, ProblemKind, Spectrum

JOBS_ENV = "SPECLAB_JOBS"

#: Which check types each verb executes.
VERB_CHECKS = {
    "spectrum": frozenset(),
    "verify": frozenset(
        {"chain", "counting-chain", "payne", "decomposition", "sharpness"}
    ),
    "weyl": frozenset({"weyl", "weyl2", "heat"}),
}
VERB_CHECKS["report"] = VERB_CHECKS["verify"] | VERB_CHECKS["weyl"]


@dataclass(frozen=True)
class DomainType:
    """Everything the runner knows about one domain type.

    ``required`` numeric fields and ``strings`` must be given;
    ``optional`` ones fall back to their defaults, a list default marking
    a point.  ``grid`` builds the fd mask at one mesh width, which it
    ignores where ``meshed`` is False.  ``spectrum`` is the closed form
    for the ``kinds`` it covers, and ``geometry`` gives the dimension,
    volume and boundary measure, None where the shape defines none.
    Every callable takes the domain as ``_check_domain`` returns it.
    """

    required: tuple[str, ...] = ()
    strings: tuple[str, ...] = ()
    optional: dict = field(default_factory=dict)
    grid: Callable | None = None
    meshed: bool = True
    spectrum: Callable | None = None
    kinds: tuple[ProblemKind, ...] = ()
    geometry: Callable = lambda d: (2, None, None)


#: The domain types a config may name.
DOMAINS = {
    "interval": DomainType(
        required=("length",),
        grid=lambda d, h: interval_domain(d["length"], h),
        spectrum=lambda d, kind, count: interval_spectrum(d["length"], kind, count),
        kinds=tuple(ProblemKind),
        geometry=lambda d: (1, d["length"], 2.0),
    ),
    "rect": DomainType(
        required=("a", "b"),
        optional={"corner": [0.0, 0.0]},
        grid=lambda d, h: rectangle_domain(d["a"], d["b"], h, corner=d["corner"]),
        spectrum=lambda d, kind, count: rect_spectrum(d["a"], d["b"], kind, count),
        kinds=MEMBRANE_KINDS,
        geometry=lambda d: (2, d["a"] * d["b"], 2.0 * (d["a"] + d["b"])),
    ),
    "disk": DomainType(
        optional={"radius": 1.0, "center": [0.0, 0.0]},
        grid=lambda d, h: disk_domain(d["radius"], h, center=d["center"]),
        spectrum=lambda d, kind, count: disk_spectrum(d["radius"], kind, count),
        kinds=tuple(ProblemKind),
        geometry=lambda d: (
            2, math.pi * d["radius"] * d["radius"], 2.0 * math.pi * d["radius"]
        ),
    ),
    "lshape": DomainType(
        required=("a", "b"),
        optional={"notch": 0.5, "corner": [0.0, 0.0]},
        grid=lambda d, h: lshape_domain(
            d["a"], d["b"], h, notch=d["notch"], corner=d["corner"]
        ),
        geometry=lambda d: (
            2, d["a"] * d["b"] * (1.0 - d["notch"] * d["notch"]), 2.0 * (d["a"] + d["b"])
        ),
    ),
    "cap": DomainType(required=("delta",)),
    "mask": DomainType(
        strings=("path",),
        grid=lambda d, h: read_mask_file(Path(d["path"])),
        meshed=False,
    ),
}

#: Positive integers, numbers and lists of numbers a check may carry.
CHECK_COUNTS = ("count", "points")
CHECK_NUMBERS = ("rtol", "volume", "boundary")
CHECK_NUMBER_LISTS = ("taus", "times")


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


@dataclass
class Experiment:
    """One validated experiment block."""

    name: str
    domain: dict
    kinds: list[ProblemKind]
    backend: dict
    count: int
    checks: list[dict] = field(default_factory=list)


@dataclass
class ExperimentResult:
    name: str
    csv_rows: list[tuple] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        return all(
            c.get("ok", True)
            for c in self.report.get("checks", [])
            if c.get("asserted")
        )


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A finite JSON number; true and false do not count as numbers."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _check_domain(where: str, domain) -> dict:
    """Validate a domain object; returns it with floats and defaults filled in."""
    _require(isinstance(domain, dict), f"{where}: 'domain' must be an object")
    dtype = domain.get("type")
    _require(
        isinstance(dtype, str) and dtype in DOMAINS,
        f"{where}: domain type must be one of {sorted(DOMAINS)}",
    )
    spec = DOMAINS[dtype]
    out = {"type": dtype}
    for key in spec.required:
        _require(
            _is_number(domain.get(key)), f"{where}: {dtype} domain needs a number {key!r}"
        )
        out[key] = float(domain[key])
    for key, default in spec.optional.items():
        value = domain.get(key, default)
        if isinstance(default, list):
            _require(
                isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)),
                f"{where}: domain {key!r} must be a pair of numbers",
            )
            out[key] = (float(value[0]), float(value[1]))
        else:
            _require(_is_number(value), f"{where}: domain {key!r} must be a number")
            out[key] = float(value)
    for key in spec.strings:
        _require(
            isinstance(domain.get(key), str), f"{where}: {dtype} domain needs a {key!r} string"
        )
        out[key] = domain[key]
    return out


def parse_config(text: str) -> list[Experiment]:
    """Parse and validate the JSON experiment list."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "top level must be an object")
    experiments = raw.get("experiments")
    _require(isinstance(experiments, list), 'missing "experiments" list')

    out: list[Experiment] = []
    names: set[str] = set()
    for pos, block in enumerate(experiments):
        where = f"experiments[{pos}]"
        _require(isinstance(block, dict), f"{where} must be an object")
        name = block.get("name")
        _require(
            isinstance(name, str) and name and "/" not in name,
            f"{where} needs a file-name-safe 'name'",
        )
        _require(name not in names, f"duplicate experiment name {name!r}")
        names.add(name)

        domain = _check_domain(where, block.get("domain"))
        dtype = domain["type"]
        spec = DOMAINS[dtype]

        kinds_raw = block.get("kinds")
        _require(
            isinstance(kinds_raw, list) and kinds_raw,
            f"{where}: 'kinds' must be a nonempty list",
        )
        try:
            kinds = [ProblemKind(k) for k in kinds_raw]
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        _require(len(set(kinds)) == len(kinds), f"{where}: 'kinds' repeats a kind")

        backend = block.get("backend")
        _require(isinstance(backend, dict), f"{where}: 'backend' must be an object")
        btype = backend.get("type")
        _require(
            btype in ("analytic", "fd", "cap"),
            f"{where}: backend type must be analytic, fd or cap",
        )
        if btype == "fd":
            _require(
                spec.grid is not None,
                f"{where}: fd backend does not support domain {dtype!r}",
            )
            if not spec.meshed:
                _require(
                    "h" not in backend,
                    f"{where}: mask files carry their own mesh width",
                )
            else:
                hs = backend.get("h")
                _require(
                    isinstance(hs, list)
                    and hs
                    and all(_is_number(h) and h > 0 for h in hs),
                    f"{where}: fd backend needs a nonempty list of positive 'h'",
                )
        elif btype == "analytic":
            _require(
                spec.spectrum is not None,
                f"{where}: analytic backend does not support domain {dtype!r}",
            )
            bad = [k.value for k in kinds if k not in spec.kinds]
            _require(
                not bad,
                f"{where}: {dtype} analytic spectra cover the membrane "
                f"problems only, not {bad}",
            )
        else:
            _require(dtype == "cap", f"{where}: cap backend needs a cap domain")
            bad = [k.value for k in kinds if k not in MEMBRANE_KINDS]
            _require(not bad, f"{where}: cap spectra cover membrane problems only")
            if "points" in backend:
                _require(
                    _is_count(backend["points"]),
                    f"{where}: cap 'points' must be a positive integer",
                )

        count = block.get("count", 6)
        _require(_is_count(count), f"{where}: 'count' must be a positive integer")

        checks = block.get("checks", [])
        _require(isinstance(checks, list), f"{where}: 'checks' must be a list")
        for cpos, check in enumerate(checks):
            cwhere = f"{where}.checks[{cpos}]"
            _require(isinstance(check, dict), f"{cwhere} must be an object")
            ctype = check.get("type")
            _require(
                isinstance(ctype, str) and ctype in VERB_CHECKS["report"],
                f"{cwhere}: unknown check type {ctype!r}",
            )
            for key in CHECK_COUNTS:
                if check.get(key) is not None:
                    _require(
                        _is_count(check[key]), f"{cwhere}: {key!r} must be a positive integer"
                    )
            for key in CHECK_NUMBERS:
                if check.get(key) is not None:
                    _require(
                        _is_number(check[key]), f"{cwhere}: {key!r} must be a number"
                    )
            for key in CHECK_NUMBER_LISTS:
                if check.get(key) is not None:
                    _require(
                        isinstance(check[key], list)
                        and all(_is_number(v) for v in check[key]),
                        f"{cwhere}: {key!r} must be a list of numbers",
                    )
            window = check.get("window")
            if window is not None:
                _require(
                    isinstance(window, list)
                    and len(window) == 2
                    and all(map(_is_number, window))
                    and 0 <= window[0] < window[1],
                    f"{cwhere}: 'window' must be a pair [lo, hi] with 0 <= lo < hi",
                )
            if ctype in {"chain", "counting-chain"}:
                _require(
                    set(kinds) == set(ProblemKind),
                    f"{cwhere}: {ctype} needs all four problem kinds",
                )
            if ctype == "payne":
                _require(
                    ProblemKind.DIRICHLET in kinds and ProblemKind.BUCKLING in kinds,
                    f"{cwhere}: payne needs dirichlet and buckling spectra",
                )
            if ctype == "decomposition":
                _require(
                    btype == "fd",
                    f"{cwhere}: decomposition runs on the fd backend",
                )
                _require(
                    ProblemKind.BUCKLING in kinds,
                    f"{cwhere}: decomposition needs the buckling spectrum",
                )
                _require(
                    (check.get("count") or count) <= count,
                    f"{cwhere}: decomposition 'count' exceeds the experiment's {count}",
                )
                parts = check.get("parts")
                _require(
                    isinstance(parts, list) and len(parts) >= 1,
                    f"{cwhere}: needs a nonempty 'parts' list of domain objects",
                )
                for ppos, part in enumerate(parts):
                    pwhere = f"{cwhere}.parts[{ppos}]"
                    parts[ppos] = part = _check_domain(pwhere, part)
                    part_spec = DOMAINS[part["type"]]
                    _require(
                        part_spec.grid is not None and part_spec.meshed,
                        f"{pwhere}: no fd grid for domain type {part['type']!r}",
                    )
            if ctype == "sharpness":
                _require(
                    dtype == "disk" and btype == "analytic",
                    f"{cwhere}: sharpness starts from unit-disk analytic spectra",
                )
                _require(
                    set(kinds) == set(ProblemKind),
                    f"{cwhere}: sharpness needs all four disk spectra",
                )
                caps = check.get("caps", [])
                _require(
                    isinstance(caps, list)
                    and all(
                        isinstance(c, dict)
                        and _is_number(c.get("delta"))
                        and _is_count(c.get("points", 1))
                        for c in caps
                    ),
                    f"{cwhere}: 'caps' must be a list of objects with a number 'delta'"
                    " and an optional positive integer 'points'",
                )
            if ctype in {"weyl", "weyl2", "heat"}:
                kind = check.get("kind")
                if kind is not None:
                    try:
                        k = ProblemKind(kind)
                    except ValueError as exc:
                        raise ConfigError(f"{cwhere}: {exc}") from exc
                    _require(
                        k in kinds, f"{cwhere}: kind {kind!r} not computed here"
                    )
            if ctype in {"weyl2", "heat"}:
                _require(
                    btype == "analytic",
                    f"{cwhere}: {ctype} needs an analytic spectrum",
                )
            if ctype == "weyl2":
                _require(
                    spec.geometry(domain)[0] >= 2,
                    f"{cwhere}: weyl2 needs a 2-D domain; the 1-D boundary term "
                    "is half a counting step, below what the fit resolves",
                )

        out.append(
            Experiment(
                name=name,
                domain=domain,
                kinds=kinds,
                backend=backend,
                count=count,
                checks=checks,
            )
        )
    return out


def _compute_spectra(exp: Experiment):
    """All spectra for the experiment.

    Returns (per_level, uncertainties): ``per_level`` pairs each fd grid,
    coarsest first, with its kind-indexed spectra (the grid is None on
    the other backends), and the last level is the one checks run on.
    ``uncertainties`` holds two-grid error estimates when two or more
    mesh widths were given.
    """
    btype = exp.backend["type"]
    spec = DOMAINS[exp.domain["type"]]
    if btype == "analytic":
        spectra = {kind: spec.spectrum(exp.domain, kind, exp.count) for kind in exp.kinds}
        per_level = [(None, spectra)]
    elif btype == "cap":
        cap = CapDomain(exp.domain["delta"], exp.backend.get("points", CapDomain.points))
        per_level = [(None, {kind: cap_spectrum(cap, kind, exp.count) for kind in exp.kinds})]
    else:
        hs = sorted(float(h) for h in exp.backend["h"])[::-1] if spec.meshed else [None]
        grids = [spec.grid(exp.domain, h) for h in hs]
        per_level = [
            (grid, {kind: fd_spectrum(grid, kind, exp.count) for kind in exp.kinds})
            for grid in grids
        ]

    uncertainties = None
    if len(per_level) >= 2:
        coarse, finest = per_level[-2][1], per_level[-1][1]
        uncertainties = {
            kind: analytics.two_grid_uncertainty(coarse[kind], finest[kind], exp.count)
            for kind in exp.kinds
        }
    return per_level, uncertainties


def _auto_window(spectrum: Spectrum) -> tuple[float, float]:
    edge = analytics.trusted_edge(spectrum)
    return (edge / 10.0, edge)


def _check_kind(check: dict, exp: Experiment, membrane_only: bool) -> ProblemKind:
    kind = check.get("kind")
    if kind is not None:
        kind = ProblemKind(kind)
    else:
        pool = [k for k in exp.kinds if not membrane_only or k in MEMBRANE_KINDS]
        if not pool:
            raise ConfigError(f"{check['type']}: no usable kind in this experiment")
        kind = pool[0]
    return kind


def _run_check(check: dict, exp: Experiment, grid, finest, uncertainties) -> dict:
    ctype = check["type"]
    if ctype == "chain":
        rep = analytics.inequality_chain_check(
            finest, exp.count, uncertainties=uncertainties
        )
        return {**rep.as_dict(), "asserted": True, "ok": rep.ok}
    if ctype == "counting-chain":
        taus = check.get("taus")
        if taus is None:
            points = int(check.get("points", 50))
            edge = min(analytics.trusted_edge(s) for s in finest.values())
            taus = np.linspace(0.0, edge, points)
        rep = analytics.counting_chain_check(finest, taus)
        return {**rep.as_dict(), "asserted": True, "ok": rep.ok}
    if ctype == "payne":
        depth = exp.count - 1
        if depth < 1:
            raise ConfigError("payne needs count >= 2")
        rep = analytics.payne_scan(
            finest[ProblemKind.DIRICHLET], finest[ProblemKind.BUCKLING], depth
        )
        return {**rep.as_dict(), "asserted": False, "ok": None}
    if ctype == "decomposition":
        parts = [DOMAINS[d["type"]].grid(d, grid.h) for d in check["parts"]]
        rep = analytics.decomposition_check(
            grid, parts, finest[ProblemKind.BUCKLING], check.get("count") or exp.count
        )
        return {**rep.as_dict(), "asserted": True, "ok": rep.ok}
    if ctype == "sharpness":
        caps = []
        for cap_cfg in check.get("caps", []):
            cap = CapDomain(
                float(cap_cfg["delta"]), cap_cfg.get("points", CapDomain.points)
            )
            caps.append(
                (
                    cap.delta,
                    cap_spectrum(cap, ProblemKind.NEUMANN, 2),
                    cap_spectrum(cap, ProblemKind.DIRICHLET, 1),
                )
            )
        rep = analytics.sharpness_report(finest, caps)
        return {**rep.as_dict(), "asserted": True, "ok": rep.ok}

    dim, volume, boundary = DOMAINS[exp.domain["type"]].geometry(exp.domain)
    if "volume" in check:
        volume = float(check["volume"])
    if "boundary" in check:
        boundary = float(check["boundary"])
    if volume is None:
        raise ConfigError(f"{ctype}: domain has no closed-form volume; set 'volume'")
    if ctype == "weyl":
        kind = _check_kind(check, exp, membrane_only=False)
        spectrum = finest[kind]
        window = check.get("window") or _auto_window(spectrum)
        rep = analytics.weyl_fit(spectrum, dim, volume, window)
        rtol = check.get("rtol")
        asserted = rtol is not None
        ok = abs(rep.ratio - 1.0) <= float(rtol) if asserted else None
        return {**rep.as_dict(), "asserted": asserted, "ok": ok}
    if ctype == "weyl2":
        if boundary is None:
            raise ConfigError("weyl2: set 'boundary' for this domain")
        kind = _check_kind(check, exp, membrane_only=True)
        spectrum = finest[kind]
        window = check.get("window") or _auto_window(spectrum)
        rep = analytics.weyl_two_term_fit(spectrum, dim, volume, boundary, window)
        rtol = float(check.get("rtol", 0.25))
        ok = bool(rep.second_sign_ok) and abs(rep.second_ratio - 1.0) <= rtol
        return {**rep.as_dict(), "rtol": rtol, "asserted": True, "ok": ok}
    if ctype == "heat":
        if boundary is None:
            raise ConfigError("heat: set 'boundary' for this domain")
        kind = _check_kind(check, exp, membrane_only=True)
        times = check.get("times", [0.002, 0.005, 0.01])
        rep = analytics.heat_trace_check(
            finest[kind],
            volume,
            boundary,
            times,
            dim=dim,
            rtol=float(check.get("rtol", 0.1)),
        )
        return {**rep.as_dict(), "asserted": True, "ok": rep.ok}
    raise ConfigError(f"unknown check type {ctype!r}")


def run_experiment(exp: Experiment, check_types: frozenset[str]) -> ExperimentResult:
    """Compute the experiment's spectra and run its selected checks."""
    result = ExperimentResult(name=exp.name)
    try:
        per_level, uncertainties = _compute_spectra(exp)
        grid, finest = per_level[-1]
        for level, spectra in per_level:
            for kind in exp.kinds:
                spectrum = spectra[kind]
                for idx, value in enumerate(spectrum.values, start=1):
                    result.csv_rows.append(
                        (
                            idx,
                            kind.value,
                            _fmt(float(value)),
                            spectrum.source,
                            _fmt(level.h) if level is not None else "",
                        )
                    )
        checks = [
            _run_check(check, exp, grid, finest, uncertainties)
            for check in exp.checks
            if check["type"] in check_types
        ]
        result.report = _round12(
            {
                "name": exp.name,
                "domain": next(iter(finest.values())).domain,
                "count": exp.count,
                "checks": checks,
            }
        )
        result.report["ok"] = result.ok
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        result.error = f"{type(exc).__name__}: {exc}"
        result.report = {"name": exp.name, "error": result.error}
    return result


def write_outputs(results: list[ExperimentResult], out_dir: Path) -> list[Path]:
    """Emit per-experiment CSV and JSON files, in run order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        if result.error is None:
            csv_path = out_dir / f"{result.name}.spectra.csv"
            with open(csv_path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["k", "kind", "value", "source", "h"])
                writer.writerows(result.csv_rows)
            written.append(csv_path)
        report_path = out_dir / f"{result.name}.report.json"
        with open(report_path, "w") as handle:
            json.dump(result.report, handle, indent=2)
            handle.write("\n")
        written.append(report_path)
    return written


def run_config(
    experiments: list[Experiment],
    out_dir: Path,
    jobs: int = 1,
    check_types: frozenset[str] = VERB_CHECKS["report"],
) -> int:
    """Run all experiments and write their outputs; returns the exit code."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not experiments:
        return 0
    if jobs == 1 or len(experiments) == 1:
        results = [run_experiment(exp, check_types) for exp in experiments]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(run_experiment, exp, check_types)
                for exp in experiments
            ]
            results = [f.result() for f in futures]
    write_outputs(results, out_dir)
    if any(r.error is not None for r in results):
        return 2
    if any(not r.ok for r in results):
        return 1
    return 0


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Compute membrane, plate and buckling spectra and "
        "check the relations between them.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("spectrum", "compute spectra only"),
        ("verify", "run inequality and decomposition checks"),
        ("weyl", "run asymptotic fits and the heat trace"),
        ("report", "run every configured check"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--jobs",
            type=int,
            default=_default_jobs(),
            help=f"parallel experiments (default from ${JOBS_ENV} or 1)",
        )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"speclab: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        experiments = parse_config(text)
        code = run_config(
            experiments,
            Path(args.out),
            jobs=args.jobs,
            check_types=VERB_CHECKS[args.verb],
        )
    except ConfigError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"speclab: output error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
