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
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics
from .analytic2d import disk_spectrum, rect_spectrum
from .fdlab import (
    MIN_UNKNOWNS,
    CapDomain,
    DegenerateDomainError,
    axis_nodes,
    cap_spectrum,
    disk_domain,
    interval_domain,
    lshape_domain,
    read_mask_file,
    rectangle_domain,
)
from .interval1d import interval_spectrum
from .spectra import CHAIN_ORDER, LENGTH_RANGE, MEMBRANE_KINDS, ProblemKind

@dataclass(frozen=True)
class DomainType:
    """Everything the runner knows about one domain type.

    ``required`` numeric fields and ``strings`` must be given;
    ``optional`` ones fall back to their defaults, a list default marking
    a point, and every number must lie in its ``DOMAIN_RANGES`` entry.
    ``grid`` builds the fd mask at one mesh width.  ``box`` counts the
    lattice box that mask is cut from, saturating as ``axis_nodes`` does,
    so that a grid is sized before it is built.  A mask file has no
    ``box``: its grid ignores the width, reads the file's own, and its box
    is its rows times its width, known once it is read.  ``spectrum`` is
    the closed form; it, or the cap backend on a cap, covers the
    ``kinds`` listed.
    ``geometry`` gives the dimension, volume and boundary measure, None
    where the shape defines none.  Every callable takes the domain as
    ``_check_domain`` returns it.
    """

    required: tuple[str, ...] = ()
    strings: tuple[str, ...] = ()
    optional: dict = field(default_factory=dict)
    grid: Callable | None = None
    box: Callable | None = None
    spectrum: Callable | None = None
    kinds: tuple[ProblemKind, ...] = ()
    geometry: Callable = lambda d: (2, None, None)


#: The domain types a config may name.
DOMAINS = {
    "interval": DomainType(
        required=("length",),
        grid=lambda d, h: interval_domain(d["length"], h),
        box=lambda d, h: axis_nodes(d["length"], h),
        spectrum=lambda d, kind, count: interval_spectrum(d["length"], kind, count),
        kinds=tuple(ProblemKind),
        geometry=lambda d: (1, d["length"], 2.0),
    ),
    "rect": DomainType(
        required=("a", "b"),
        optional={"corner": [0.0, 0.0]},
        grid=lambda d, h: rectangle_domain(d["a"], d["b"], h, corner=d["corner"]),
        box=lambda d, h: axis_nodes(d["a"], h) * axis_nodes(d["b"], h),
        spectrum=lambda d, kind, count: rect_spectrum(d["a"], d["b"], kind, count),
        kinds=MEMBRANE_KINDS,
        geometry=lambda d: (2, d["a"] * d["b"], 2.0 * (d["a"] + d["b"])),
    ),
    "disk": DomainType(
        optional={"radius": 1.0, "center": [0.0, 0.0]},
        grid=lambda d, h: disk_domain(d["radius"], h, center=d["center"]),
        box=lambda d, h: (2 * math.ceil(min(d["radius"] / h, sys.maxsize)) + 1) ** 2,
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
        box=lambda d, h: axis_nodes(d["a"], h) * axis_nodes(d["b"], h),
        geometry=lambda d: (
            2, d["a"] * d["b"] * (1.0 - d["notch"] * d["notch"]), 2.0 * (d["a"] + d["b"])
        ),
    ),
    "cap": DomainType(required=("delta",), kinds=MEMBRANE_KINDS),
    "mask": DomainType(
        strings=("path",),
        grid=lambda d, h: read_mask_file(Path(d["path"])),
    ),
}

#: Range of each numeric domain field that has one: the test its value
#: must pass and what that asks for.  Spectra scale as length^-2, so far
#: outside the length range some of them overflow or underflow.
_LENGTH = (
    lambda v: LENGTH_RANGE[0] <= v <= LENGTH_RANGE[1],
    "a length in [{:g}, {:g}]".format(*LENGTH_RANGE),
)
DOMAIN_RANGES = {
    **dict.fromkeys(("length", "a", "b", "radius"), _LENGTH),
    "notch": (lambda v: 0 < v < 1, "a fraction in (0, 1)"),
}


#: Ceilings on the sizes a config may ask for, set from measured cost on
#: a 2-core machine.  The slowest closed-form or cap run they admit, a
#: cap at the largest ``count`` and ``points``, took 29 s for its two
#: membrane kinds; an analytic disk, the slowest closed form, took 6 s
#: for all four kinds at the largest count.  A counting-chain sample costs
#: about 4 us and 75 bytes of report: at the largest ``points`` the check
#: took 0.4 s and wrote 7.5 MB, and at ten times that 4 s, 75 MB and a
#: 176 MB peak.
MAX_COUNT = 10_000
MAX_CAP_POINTS = 8_000
MAX_CHAIN_POINTS = 100_000

#: Ceiling on the lattice box an fd grid is cut from (``DomainType.box``),
#: checked before the grid is built.  A full box, the unit square, costs
#: the most.  All four kinds at count 15, summed proportional set size of
#: the process tree with its forked workers: the notch-1/2 L-shape at
#: h = 1/320 (box 101,761) took 4.2 s and 274 MB.
MAX_GRID_NODES = 2**18


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
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
    #: The fd grids, coarsest first, built while parsing; none on other backends.
    grids: list = field(default_factory=list)


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
        return all(c["ok"] for c in self.report["checks"] if c["asserted"])


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A JSON number that is finite as a float; true and false do not count.

    An integer too large for a float fails the comparison, which
    ``math.isfinite`` would instead answer with an OverflowError.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
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
    for key, (test, what) in DOMAIN_RANGES.items():
        _require(
            key not in out or test(out[key]), f"{where}: {dtype} domain {key!r} must be {what}"
        )
    for key in spec.strings:
        _require(
            isinstance(domain.get(key), str), f"{where}: {dtype} domain needs a {key!r} string"
        )
        out[key] = domain[key]
    return out


def _parsed(where: str, parse: Callable, value):
    """``parse(value)``, with a ValueError turned into a ConfigError at ``where``."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _fd_grid(where: str, domain: dict, h: float | None, count: int = 1):
    """The fd grid of ``domain`` at ``h``, built, or read from its mask file, once.

    A ConfigError refuses a lattice box above MAX_GRID_NODES, before a
    meshed grid is built; a mask file that cannot be read or parsed; and
    a grid of fewer than MIN_UNKNOWNS or ``count`` unknowns.
    """
    spec = DOMAINS[domain["type"]]
    fields = [f"{key}={domain[key]:g}" for key in DOMAIN_RANGES if key in domain]
    fields += [f"{key}={domain[key]!r}" for key in spec.strings]
    name = f"the {domain['type']} domain ({', '.join(fields)})"
    ceiling = f"lattice nodes, above the grid ceiling of {MAX_GRID_NODES}"
    if spec.box is None:
        try:
            grid = spec.grid(domain, h)
        except DegenerateDomainError as exc:
            raise ConfigError(
                f"{where}: {name} resolves to {exc.unknowns} unknowns, "
                f"at least {MIN_UNKNOWNS} are required"
            ) from exc
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: cannot read {name}: {exc}") from exc
        box = grid.mask.size
        _require(box <= MAX_GRID_NODES, f"{where}: {name} spans a box of {box} {ceiling}")
    else:
        box = spec.box(domain, h)
        _require(
            box <= MAX_GRID_NODES, f"{where}: h={h:g} meshes {name} in a box of {box} {ceiling}"
        )
        try:
            grid = spec.grid(domain, h)
        except DegenerateDomainError as exc:
            raise ConfigError(
                f"{where}: h={h:g} is too coarse for {name}: it resolves to "
                f"{exc.unknowns} unknowns, at least {MIN_UNKNOWNS} are required"
            ) from exc
    n = grid.n_unknowns
    _require(
        count <= n, f"{where}: 'count' {count} exceeds the {n} unknowns of {name} at h={grid.h:g}"
    )
    return grid


def _grid_part(where: str, part) -> dict:
    part = _check_domain(where, part)
    spec = DOMAINS[part["type"]]
    _require(
        spec.box is not None,
        f"{where}: no fd grid for domain type {part['type']!r}",
    )
    return part


#: Every field a check type may read: the test its value must pass, what
#: that asks for, and the parse of a value that passed.
CHECK_FIELDS = {
    "count": (_is_count, "a positive integer", int),
    "points": (
        lambda v: _is_count(v) and 2 <= v <= MAX_CHAIN_POINTS,
        f"an integer of 2 or more and at most {MAX_CHAIN_POINTS}",
        int,
    ),
    "rtol": (_is_number, "a number", float),
    "volume": (_is_positive, "a positive number", float),
    "boundary": (_is_positive, "a positive number", float),
    "taus": (
        lambda v: _is_numbers(v) and v,
        "a nonempty list of numbers",
        lambda v: list(map(float, v)),
    ),
    "times": (
        lambda v: _is_numbers(v) and v and min(v) > 0,
        "a nonempty list of positive numbers",
        lambda v: list(map(float, v)),
    ),
    "window": (
        lambda v: _is_numbers(v) and len(v) == 2 and 0 <= v[0] < v[1],
        "a pair [lo, hi] with 0 <= lo < hi",
        lambda v: list(map(float, v)),
    ),
    "kind": (lambda v: isinstance(v, str), "a problem kind", ProblemKind),
    "parts": (
        lambda v: isinstance(v, list) and v,
        "a nonempty list of domain objects",
        lambda v: [_grid_part(f"parts[{i}]", part) for i, part in enumerate(v)],
    ),
    "caps": (
        lambda v: isinstance(v, list)
        and all(
            isinstance(c, dict)
            and _is_number(c.get("delta"))
            and (
                c.get("points") is None
                or _is_count(c["points"]) and c["points"] <= MAX_CAP_POINTS
            )
            for c in v
        ),
        "a list of objects with a number 'delta' and an optional positive integer "
        f"'points' of at most {MAX_CAP_POINTS}",
        lambda v: [CapDomain(float(c["delta"]), c.get("points") or CapDomain.points) for c in v],
    ),
}


@dataclass(frozen=True)
class CheckType:
    """Everything the runner knows about one check type.

    ``verb`` runs it, as does ``report``.  ``fields`` maps the fields it
    reads to defaults, which null also selects; a None ``kind``, ``count``,
    ``volume`` or ``boundary`` is the experiment's.  The experiment needs
    all ``kinds``, ``min_count`` values, one of ``backends`` and ``domains``
    and ``min_dim`` dimensions; ``membrane`` limits ``kind`` to membrane
    kinds.  ``run`` takes (check, experiment, finest grid, finest spectra,
    uncertainties) and returns the report fields and a verdict, which is
    asserted where ``asserted`` is set.
    """

    verb: str
    run: Callable
    fields: dict = field(default_factory=dict)
    kinds: tuple[ProblemKind, ...] = ()
    backends: tuple[str, ...] = ("analytic", "fd", "cap")
    domains: tuple[str, ...] = tuple(DOMAINS)
    min_dim: int = 1
    min_count: int = 1
    membrane: bool = False
    asserted: bool = True


def _judged(report) -> tuple[dict, bool]:
    return report.as_dict(), report.ok


def _chain(check, exp, grid, finest, unc):
    return _judged(analytics.inequality_chain_check(finest, exp.count, uncertainties=unc))


def _counting_chain(check, exp, grid, finest, unc):
    taus = check["taus"]
    if taus is None:
        edge = min(analytics.trusted_edge(s) for s in finest.values())
        taus = np.linspace(0.0, edge, check["points"])
    return _judged(analytics.counting_chain_check(finest, taus))


def _payne(check, exp, grid, finest, unc):
    dirichlet, buckling = finest[ProblemKind.DIRICHLET], finest[ProblemKind.BUCKLING]
    rep = analytics.payne_scan(dirichlet, buckling, exp.count - 1)
    return rep.as_dict(), rep.holds_all


def _decomposition(check, exp, grid, finest, unc):
    buckling = finest[ProblemKind.BUCKLING]
    return _judged(analytics.decomposition_check(grid, check["parts"], buckling, check["count"]))


def _sharpness(check, exp, grid, finest, unc):
    neumann, dirichlet = ProblemKind.NEUMANN, ProblemKind.DIRICHLET
    caps = [
        (c.delta, cap_spectrum(c, neumann, 2), cap_spectrum(c, dirichlet, 1)) for c in check["caps"]
    ]
    return _judged(analytics.sharpness_report(finest, caps))


def _weyl(check, exp, grid, finest, unc):
    spectrum, rtol = finest[check["kind"]], check["rtol"]
    edge = analytics.trusted_edge(spectrum)
    window = check["window"] or (edge / 10.0, edge)
    rep = analytics.weyl_fit(spectrum, check["dim"], check["volume"], window)
    return rep.as_dict(), None if rtol is None else abs(rep.ratio - 1.0) <= rtol


def _weyl2(check, exp, grid, finest, unc):
    spectrum, rtol = finest[check["kind"]], check["rtol"]
    edge = analytics.trusted_edge(spectrum)
    window = check["window"] or (edge / 10.0, edge)
    measures = (check["dim"], check["volume"], check["boundary"])
    rep = analytics.weyl_two_term_fit(spectrum, *measures, window)
    ok = bool(rep.second_sign_ok) and abs(rep.second_ratio - 1.0) <= rtol
    return {**rep.as_dict(), "rtol": rtol}, ok


def _heat(check, exp, grid, finest, unc):
    args = (check["volume"], check["boundary"], check["times"], check["dim"], check["rtol"])
    return _judged(analytics.heat_trace_check(finest[check["kind"]], *args))


#: The check types a config may name.
CHECKS = {
    "chain": CheckType("verify", _chain, kinds=CHAIN_ORDER),
    "counting-chain": CheckType(
        "verify", _counting_chain, {"taus": None, "points": 50}, CHAIN_ORDER
    ),
    "payne": CheckType(
        "verify",
        _payne,
        kinds=(ProblemKind.DIRICHLET, ProblemKind.BUCKLING),
        min_count=2,
        asserted=False,
    ),
    "decomposition": CheckType(
        "verify", _decomposition, {"parts": [], "count": None}, (ProblemKind.BUCKLING,), ("fd",)
    ),
    "sharpness": CheckType(
        "verify", _sharpness, {"caps": []}, CHAIN_ORDER, ("analytic",), ("disk",), min_count=2
    ),
    "weyl": CheckType("weyl", _weyl, {"kind": None, "window": None, "rtol": None, "volume": None}),
    "weyl2": CheckType(
        "weyl",
        _weyl2,
        {"kind": None, "window": None, "rtol": 0.25, "volume": None, "boundary": None},
        backends=("analytic",),
        min_dim=2,
        membrane=True,
    ),
    "heat": CheckType(
        "weyl",
        _heat,
        {"kind": None, "times": [2e-3, 5e-3, 1e-2], "rtol": 0.1, "volume": None, "boundary": None},
        backends=("analytic",),
        membrane=True,
    ),
}

#: Which check types each verb executes.
VERB_CHECKS = {
    verb: frozenset(t for t, c in CHECKS.items() if verb in (c.verb, "report"))
    for verb in ("spectrum", "verify", "weyl", "report")
}


def _check_check(where: str, check, exp: Experiment) -> dict:
    """Validate one check of an experiment; returns a new dict, every field resolved."""
    _require(isinstance(check, dict), f"{where} must be an object")
    ctype = check.get("type")
    _require(isinstance(ctype, str) and ctype in CHECKS, f"{where}: unknown check type {ctype!r}")
    spec = CHECKS[ctype]
    for key in check:
        _require(
            key == "type" or key in spec.fields,
            f"{where}: {ctype} has no field {key!r}, only {list(spec.fields)}",
        )
    out = {"type": ctype}
    for key, default in spec.fields.items():
        value = default if check.get(key) is None else check[key]
        if value is not None:
            test, what, parse = CHECK_FIELDS[key]
            _require(test(value), f"{where}: {key!r} must be {what}")
            value = _parsed(f"{where}: {key!r}", parse, value)
        out[key] = value

    dtype = exp.domain["type"]
    dim, volume, boundary = DOMAINS[dtype].geometry(exp.domain)
    pool = [k for k in exp.kinds if k in MEMBRANE_KINDS or not spec.membrane]
    context = dict(kind=next(iter(pool), None), count=exp.count, volume=volume, boundary=boundary)
    out.update((key, value) for key, value in context.items() if out.get(key, 0) is None)
    names = " and ".join(k.value for k in spec.kinds)
    for ok, message in (
        (exp.backend["type"] in spec.backends, f"runs on the {' or '.join(spec.backends)} backend"),
        (dtype in spec.domains, f"runs on {' or '.join(spec.domains)} domains"),
        (
            set(spec.kinds) <= set(exp.kinds),
            "needs all four problem kinds"
            if len(spec.kinds) == len(ProblemKind)
            else f"needs the {names} spectr{'a' if len(spec.kinds) > 1 else 'um'}",
        ),
        (exp.count >= spec.min_count, f"needs an experiment 'count' of {spec.min_count} or more"),
        (dim >= spec.min_dim, f"needs a {spec.min_dim}-D domain"),
        ("kind" not in out or out["kind"] in pool, f"'kind' must be in {[k.value for k in pool]}"),
        (out.get("count", 0) <= exp.count, f"'count' exceeds the experiment's {exp.count}"),
        (out.get("volume", 0) is not None, f"on a {dtype} domain needs 'volume'"),
        (out.get("boundary", 0) is not None, f"on a {dtype} domain needs 'boundary'"),
    ):
        _require(ok, f"{where}: {ctype} {message}")
    if "parts" in out:  # meshed at the finest h, a mask domain's read from its file
        whole, parts = exp.grids[-1], out["parts"]
        out["parts"] = [_fd_grid(f"{where}: parts[{i}]", p, whole.h) for i, p in enumerate(parts)]
        _parsed(where, lambda grids: analytics.check_partition(whole, grids), out["parts"])
        held = sum(part.n_unknowns for part in out["parts"])
        message = f"{where}: 'count' {out['count']} exceeds the {held} unknowns of its parts"
        _require(held >= out["count"], message)
    if "volume" in out:
        out["dim"] = dim
    return out


def parse_config(text: str) -> list[Experiment]:
    """Parse and validate the JSON experiment list.

    Every experiment comes back with its domain, backend and checks
    resolved, so nothing is read from the config after this returns.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError("config parse error: the JSON nests too deeply") from exc
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
            isinstance(name, str) and name and "/" not in name and "\0" not in name,
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
        kinds = _parsed(where, lambda ks: [ProblemKind(k) for k in ks], kinds_raw)
        _require(len(set(kinds)) == len(kinds), f"{where}: 'kinds' repeats a kind")

        raw_backend = block.get("backend")
        _require(isinstance(raw_backend, dict), f"{where}: 'backend' must be an object")
        btype = raw_backend.get("type")
        _require(
            btype in ("analytic", "fd", "cap"),
            f"{where}: backend type must be analytic, fd or cap",
        )
        backend = {"type": btype}
        if btype == "fd":
            _require(
                spec.grid is not None,
                f"{where}: fd backend does not support domain {dtype!r}",
            )
            if spec.box is None:
                _require(
                    "h" not in raw_backend,
                    f"{where}: mask files carry their own mesh width",
                )
            else:
                hs = raw_backend.get("h")
                _require(
                    isinstance(hs, list) and hs and all(map(_is_positive, hs)),
                    f"{where}: fd backend needs a nonempty list of positive 'h'",
                )
                backend["h"] = sorted(map(float, hs), reverse=True)
                # one grid solved twice would fake a two-grid uncertainty of 0
                _require(
                    len(set(backend["h"])) == len(hs),
                    f"{where}: fd 'h' repeats a mesh width",
                )
        elif btype == "analytic":
            _require(
                spec.spectrum is not None,
                f"{where}: analytic backend does not support domain {dtype!r}",
            )
        else:
            _require(dtype == "cap", f"{where}: cap backend needs a cap domain")
            points = raw_backend.get("points", CapDomain.points)
            _require(_is_count(points), f"{where}: cap 'points' must be a positive integer")
            _require(
                points <= MAX_CAP_POINTS, f"{where}: cap 'points' must be at most {MAX_CAP_POINTS}"
            )
            backend["cap"] = _parsed(where, lambda p: CapDomain(domain["delta"], p), points)
        bad = [] if btype == "fd" else [k.value for k in kinds if k not in spec.kinds]
        covered = (
            "membrane"
            if set(spec.kinds) == set(MEMBRANE_KINDS)
            else " and ".join(k.value for k in spec.kinds)
        )
        _require(
            not bad,
            f"{where}: {btype} spectra on a {dtype} domain cover the {covered} "
            f"problems only, not {bad}",
        )

        count = block.get("count", 6)
        _require(_is_count(count), f"{where}: 'count' must be a positive integer")
        _require(count <= MAX_COUNT, f"{where}: 'count' must be at most {MAX_COUNT}")
        # a mask file ignores the h it is given and carries its own
        hs = backend.get("h", [None]) if btype == "fd" else []
        grids = [_fd_grid(f"{where} ({name!r})", domain, h, count) for h in hs]
        if grids:
            backend["h"] = [grid.h for grid in grids]

        checks = block.get("checks", [])
        _require(isinstance(checks, list), f"{where}: 'checks' must be a list")
        exp = Experiment(name, domain, kinds, backend, count, grids=grids)
        exp.checks = [_check_check(f"{where}.checks[{i}]", c, exp) for i, c in enumerate(checks)]
        out.append(exp)
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
        cap = exp.backend["cap"]
        per_level = [(None, {kind: cap_spectrum(cap, kind, exp.count) for kind in exp.kinds})]
    else:
        # the sparse solvers, and scipy.sparse with them, load here
        from .fdlab import fd_spectra

        per_level = [(grid, fd_spectra(grid, exp.kinds, exp.count)) for grid in exp.grids]

    uncertainties = None
    if len(per_level) >= 2:
        coarse, finest = per_level[-2][1], per_level[-1][1]
        uncertainties = {
            kind: analytics.two_grid_uncertainty(coarse[kind], finest[kind], exp.count)
            for kind in exp.kinds
        }
    return per_level, uncertainties


def _run_check(check: dict, exp: Experiment, grid, finest, uncertainties) -> dict:
    spec = CHECKS[check["type"]]
    fields, verdict = spec.run(check, exp, grid, finest, uncertainties)
    ok = verdict if spec.asserted else None
    return {**fields, "asserted": ok is not None, "ok": ok}


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
    except Exception as exc:
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
    check_types: frozenset[str] = VERB_CHECKS["report"],
) -> int:
    """Run all experiments and write their outputs; returns the exit code.

    Each experiment that failed gets one ``speclab:`` line on stderr.
    """
    if not experiments:
        return 0
    results = [run_experiment(exp, check_types) for exp in experiments]
    write_outputs(results, out_dir)
    failed = [r for r in results if r.error is not None]
    for result in failed:
        print(f"speclab: {result.name}: {result.error}", file=sys.stderr)
    if failed:
        return 2
    if any(not r.ok for r in results):
        return 1
    return 0


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
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"speclab: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        experiments = parse_config(text)
        code = run_config(experiments, Path(args.out), check_types=VERB_CHECKS[args.verb])
    except ConfigError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"speclab: output error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
