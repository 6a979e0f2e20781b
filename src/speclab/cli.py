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

from . import analytics, pool
from .analytic2d import disk_spectrum, rect_spectrum
from .fdlab import (
    MIN_CAP_POINTS,
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


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _parsed(where: str, parse: Callable, value):
    """``parse(value)``, with a ValueError turned into a ConfigError at ``where``."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


#: Marks a field that has no default: it must be given.
REQUIRED = object()


def _fields(where: str, obj: dict, owner: str, schema: dict, typed: bool = False) -> dict:
    """The fields of config object ``obj``, each tested and parsed by ``schema``.

    ``schema`` maps each field to its default, or REQUIRED, and its kind:
    the test a value must pass, what that asks for, and the parse of a
    value that passed.  A field it lacks is refused, but for the ``type``
    of a ``typed`` object (a domain, backend, check or part), which the
    caller has checked and which is kept.  A field left out or null takes
    its default, which is parsed as a given value is; a default of None
    stays None, for the caller to resolve.
    """
    for key in obj:
        _require(
            key in schema or (typed and key == "type"),
            f"{where}: {owner} has no field {key!r}, only {list(schema)}",
        )
    out = {"type": obj["type"]} if typed else {}
    for key, (default, (test, what, parse)) in schema.items():
        value = default if obj.get(key) is None else obj[key]
        if value is not None:
            message = f"{where}: {owner} {key!r} must be {what}"
            _require(value is not REQUIRED and test(value), message)
            value = _parsed(where, parse, value)
        out[key] = value
    return out


def _number(test: Callable, what: str) -> tuple:
    """The kind of a number that passes ``test``."""
    return (lambda v: _is_number(v) and test(v), what, float)


def _numbers(test: Callable, what: str) -> tuple:
    """The kind of a list of numbers that passes ``test``."""
    return (lambda v: _is_numbers(v) and test(v), what, lambda v: list(map(float, v)))


def _integer(lo: int, hi: int) -> tuple:
    """The kind of an integer in [lo, hi]."""
    return (
        lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
        f"an integer in [{lo}, {hi}]",
        int,
    )


#: Spectra scale as length^-2, so far outside this range some of them
#: overflow or underflow.
_LENGTH = _number(
    lambda v: LENGTH_RANGE[0] <= v <= LENGTH_RANGE[1],
    "a length in [{:g}, {:g}]".format(*LENGTH_RANGE),
)
_POINT = (
    lambda v: _is_numbers(v) and len(v) == 2, "a pair of numbers", lambda v: tuple(map(float, v))
)
_POSITIVE = _number(lambda v: v > 0, "a positive number")
_OBJECT = (lambda v: isinstance(v, dict), "an object", dict)
_OBJECTS = (_is_objects, "a list of objects", list)
_KIND_NAMES = [kind.value for kind in ProblemKind]
_KIND_LIST = (
    lambda v: isinstance(v, list) and v and all(k in _KIND_NAMES and v.count(k) == 1 for k in v),
    f"a nonempty list of distinct kinds from {_KIND_NAMES}",
    lambda v: list(map(ProblemKind, v)),
)
_NAME = (
    lambda v: isinstance(v, str) and v and "/" not in v and "\0" not in v,
    "a file-name-safe string",
    str,
)

#: The fields of a spherical cap: a ``sharpness`` cap, and between them
#: the cap domain and the cap backend.
CAP_FIELDS = {
    "delta": (REQUIRED, _number(lambda v: 0 < v < math.pi, "an aperture in (0, pi)")),
    "points": (CapDomain.points, _integer(MIN_CAP_POINTS, MAX_CAP_POINTS)),
}


@dataclass(frozen=True)
class DomainType:
    """Everything the runner knows about one domain type.

    ``fields`` is its schema for ``_fields``.  ``grid`` builds the fd mask
    at one mesh width.  ``box`` counts the lattice box that mask is cut
    from, saturating as ``axis_nodes`` does, so that a grid is sized
    before it is built.  A mask file has no ``box``: its grid ignores the
    width, reads the file's own, and its box is its rows times its width,
    known once it is read.  ``spectrum`` is the closed form; it, or the
    cap backend on a cap, covers the ``kinds`` listed, and ``modules``
    names the scipy modules they import.
    ``geometry`` gives the dimension, volume and boundary measure, None
    where the shape defines none.  Every callable takes the domain as
    ``_check_domain`` returns it.
    """

    fields: dict
    grid: Callable | None = None
    box: Callable | None = None
    spectrum: Callable | None = None
    kinds: tuple[ProblemKind, ...] = ()
    modules: tuple[str, ...] = ()
    geometry: Callable = lambda d: (2, None, None)


_SIDES = {"a": (REQUIRED, _LENGTH), "b": (REQUIRED, _LENGTH)}
_CORNER = {"corner": ([0.0, 0.0], _POINT)}

#: The domain types a config may name.
DOMAINS = {
    "interval": DomainType(
        {"length": (REQUIRED, _LENGTH)},
        grid=lambda d, h: interval_domain(d["length"], h),
        box=lambda d, h: axis_nodes(d["length"], h),
        spectrum=lambda d, kind, count: interval_spectrum(d["length"], kind, count),
        kinds=tuple(ProblemKind),
        geometry=lambda d: (1, d["length"], 2.0),
    ),
    "rect": DomainType(
        {**_SIDES, **_CORNER},
        grid=lambda d, h: rectangle_domain(d["a"], d["b"], h, corner=d["corner"]),
        box=lambda d, h: axis_nodes(d["a"], h) * axis_nodes(d["b"], h),
        spectrum=lambda d, kind, count: rect_spectrum(d["a"], d["b"], kind, count),
        kinds=MEMBRANE_KINDS,
        geometry=lambda d: (2, d["a"] * d["b"], 2.0 * (d["a"] + d["b"])),
    ),
    "disk": DomainType(
        {"radius": (1.0, _LENGTH), "center": ([0.0, 0.0], _POINT)},
        grid=lambda d, h: disk_domain(d["radius"], h, center=d["center"]),
        box=lambda d, h: (2 * math.ceil(min(d["radius"] / h, sys.maxsize)) + 1) ** 2,
        spectrum=lambda d, kind, count: disk_spectrum(d["radius"], kind, count),
        kinds=tuple(ProblemKind),
        modules=("scipy.special",),
        geometry=lambda d: (
            2, math.pi * d["radius"] * d["radius"], 2.0 * math.pi * d["radius"]
        ),
    ),
    "lshape": DomainType(
        {**_SIDES, "notch": (0.5, _number(lambda v: 0 < v < 1, "a fraction in (0, 1)")), **_CORNER},
        grid=lambda d, h: lshape_domain(
            d["a"], d["b"], h, notch=d["notch"], corner=d["corner"]
        ),
        box=lambda d, h: axis_nodes(d["a"], h) * axis_nodes(d["b"], h),
        geometry=lambda d: (
            2, d["a"] * d["b"] * (1.0 - d["notch"] * d["notch"]), 2.0 * (d["a"] + d["b"])
        ),
    ),
    "cap": DomainType(
        {"delta": CAP_FIELDS["delta"]}, kinds=MEMBRANE_KINDS, modules=("scipy.linalg",)
    ),
    "mask": DomainType(
        {"path": (REQUIRED, (lambda v: isinstance(v, str), "a string", str))},
        grid=lambda d, h: read_mask_file(Path(d["path"])),
    ),
}

#: One grid solved twice would fake a two-grid uncertainty of 0.
_WIDTHS = _numbers(
    lambda v: v and min(v) > 0 and len(set(v)) == len(v),
    "a nonempty list of distinct positive numbers",
)

#: The fields of each backend type.  A mask file carries its own mesh
#: width, so an fd backend on one has no fields.
BACKENDS = {
    "analytic": {},
    "fd": {"h": (REQUIRED, _WIDTHS)},
    "cap": {"points": CAP_FIELDS["points"]},
}

#: The fields of an experiment block, and of the config's top level.
BLOCK_FIELDS = {
    "name": (REQUIRED, _NAME),
    "domain": (REQUIRED, _OBJECT),
    "kinds": (REQUIRED, _KIND_LIST),
    "backend": (REQUIRED, _OBJECT),
    "count": (6, _integer(1, MAX_COUNT)),
    "checks": ([], _OBJECTS),
}
TOP_FIELDS = {"experiments": (REQUIRED, _OBJECTS)}


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


def _check_domain(where: str, domain: dict) -> dict:
    """A domain object's type and fields, defaults filled in."""
    dtype = domain.get("type")
    _require(
        isinstance(dtype, str) and dtype in DOMAINS,
        f"{where}: domain type must be one of {sorted(DOMAINS)}",
    )
    return _fields(where, domain, f"{dtype} domain", DOMAINS[dtype].fields, typed=True)


def _fd_grid(where: str, domain: dict, h: float | None, count: int = 1):
    """The fd grid of ``domain`` at ``h``, built, or read from its mask file, once.

    A ConfigError refuses a lattice box above MAX_GRID_NODES, before a
    meshed grid is built; a mask file that cannot be read or parsed; and
    a grid of fewer than MIN_UNKNOWNS or ``count`` unknowns.
    """
    spec = DOMAINS[domain["type"]]
    shown = [(k, v) for k, v in domain.items() if k != "type" and not isinstance(v, tuple)]
    fields = ", ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v:g}" for k, v in shown)
    name = f"the {domain['type']} domain ({fields})"
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


def _grid_part(where: str, part: dict) -> dict:
    part = _check_domain(where, part)
    _require(
        DOMAINS[part["type"]].box is not None,
        f"{where}: no fd grid for domain type {part['type']!r}",
    )
    return part


#: The kind of every field a check type may read.
CHECK_FIELDS = {
    "count": _integer(1, MAX_COUNT),
    "points": _integer(2, MAX_CHAIN_POINTS),
    "rtol": _number(lambda v: v >= 0, "a nonnegative number"),
    "volume": _POSITIVE,
    "boundary": _POSITIVE,
    "taus": _numbers(bool, "a nonempty list of numbers"),
    "times": _numbers(lambda v: v and min(v) > 0, "a nonempty list of positive numbers"),
    "window": _numbers(
        lambda v: len(v) == 2 and 0 <= v[0] < v[1], "a pair [lo, hi] with 0 <= lo < hi"
    ),
    "kind": (lambda v: v in _KIND_NAMES, f"one of {_KIND_NAMES}", ProblemKind),
    "parts": (
        lambda v: _is_objects(v) and v,
        "a nonempty list of domain objects",
        lambda v: [_grid_part(f"parts[{i}]", part) for i, part in enumerate(v)],
    ),
    "caps": (
        _is_objects,
        "a list of cap objects",
        lambda v: [
            CapDomain(**_fields(f"caps[{i}]", cap, "cap", CAP_FIELDS)) for i, cap in enumerate(v)
        ],
    ),
}


@dataclass(frozen=True)
class CheckType:
    """Everything the runner knows about one check type.

    ``verb`` runs it, as does ``report``.  ``fields`` maps the fields it
    reads to defaults, or REQUIRED, and with their ``CHECK_FIELDS`` kinds
    makes its schema; a None ``kind``, ``count``, ``volume`` or
    ``boundary`` is the experiment's.  The experiment needs
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
        "verify",
        _decomposition,
        {"parts": REQUIRED, "count": None},
        (ProblemKind.BUCKLING,),
        ("fd",),
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


def _check_check(where: str, check: dict, exp: Experiment) -> dict:
    """Validate one check of an experiment; returns a new dict, every field resolved."""
    ctype = check.get("type")
    _require(isinstance(ctype, str) and ctype in CHECKS, f"{where}: unknown check type {ctype!r}")
    spec = CHECKS[ctype]
    schema = {key: (default, CHECK_FIELDS[key]) for key, default in spec.fields.items()}
    out = _fields(where, check, ctype, schema, typed=True)

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

    out: list[Experiment] = []
    names: set[str] = set()
    for pos, block in enumerate(_fields("config", raw, "top level", TOP_FIELDS)["experiments"]):
        where = f"experiments[{pos}]"
        fields = _fields(where, block, "experiment", BLOCK_FIELDS)
        name, kinds, count = fields["name"], fields["kinds"], fields["count"]
        _require(name not in names, f"duplicate experiment name {name!r}")
        names.add(name)

        domain = _check_domain(where, fields["domain"])
        dtype = domain["type"]
        spec = DOMAINS[dtype]

        btype = fields["backend"].get("type")
        _require(
            isinstance(btype, str) and btype in BACKENDS,
            f"{where}: backend type must be analytic, fd or cap",
        )
        # the analytic backend needs a closed form, fd a grid, cap a cap
        supported = {"analytic": spec.spectrum, "fd": spec.grid, "cap": dtype == "cap"}[btype]
        _require(supported, f"{where}: {btype} backend does not support domain {dtype!r}")
        schema = BACKENDS[btype] if btype != "fd" or spec.box else {}
        backend = _fields(where, fields["backend"], f"{btype} backend", schema, typed=True)
        if btype == "cap":
            backend["cap"] = CapDomain(domain["delta"], backend["points"])
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

        # coarsest first; a mask file carries its own h
        hs = sorted(backend.get("h", [None]), reverse=True) if btype == "fd" else []
        grids = [_fd_grid(f"{where} ({name!r})", domain, h, count) for h in hs]
        if grids:
            backend["h"] = [grid.h for grid in grids]

        exp = Experiment(name, domain, kinds, backend, count, grids=grids)
        exp.checks = [
            _check_check(f"{where}.checks[{i}]", c, exp) for i, c in enumerate(fields["checks"])
        ]
        out.append(exp)
    return out


class _Failed(Exception):
    """An error met while computing a spectrum, put as ``Type: message`` by ``_error``."""


def _error(exc: Exception) -> str:
    """How an experiment reports the error that stopped it: ``Type: message``."""
    return str(exc) if isinstance(exc, _Failed) else f"{type(exc).__name__}: {exc}"


def _closed_form(exp: Experiment, kind: ProblemKind):
    """The analytic or cap spectrum of ``kind`` in ``exp``, or its error."""
    try:
        if exp.backend["type"] == "cap":
            return cap_spectrum(exp.backend["cap"], kind, exp.count)
        return DOMAINS[exp.domain["type"]].spectrum(exp.domain, kind, exp.count)
    except Exception as exc:
        return _error(exc)


def _closed_forms(experiments: list[Experiment]) -> dict:
    """Every analytic and cap spectrum, or its error, by (experiment name, kind).

    The (experiment, kind) jobs go to ``pool.spread`` in config order,
    which deals them round-robin over the CPUs.  The scipy modules the
    jobs use load first, before any child is forked, so that no child
    imports one again.  A report without such jobs spreads nothing.
    """
    jobs = [(exp, kind) for exp in experiments if exp.backend["type"] != "fd" for kind in exp.kinds]
    if not jobs:
        return {}
    # __import__, as an import statement and unlike importlib, reports to -X importtime
    for module in dict.fromkeys(m for exp, _ in jobs for m in DOMAINS[exp.domain["type"]].modules):
        __import__(module)
    done = pool.spread(lambda job: _closed_form(*job), jobs)
    return {(exp.name, kind): found for (exp, kind), found in zip(jobs, done)}


def _compute_spectra(exp: Experiment, closed: dict):
    """All spectra for the experiment.

    ``closed`` holds the spectra of the analytic and cap backends, or
    their errors, from ``_closed_forms``; the first error, in kind order,
    is raised as ``_Failed``.  Returns (per_level, uncertainties):
    ``per_level`` pairs each fd grid, coarsest first, with its
    kind-indexed spectra (the grid is None on the other backends), and
    the last level is the one checks run on.  ``uncertainties`` holds
    two-grid error estimates when two or more mesh widths were given.
    """
    if exp.backend["type"] != "fd":
        spectra = {kind: closed[exp.name, kind] for kind in exp.kinds}
        for found in spectra.values():
            if isinstance(found, str):
                raise _Failed(found)
        per_level = [(None, spectra)]
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


def run_experiment(exp: Experiment, check_types: frozenset[str], closed: dict) -> ExperimentResult:
    """Compute the experiment's fd spectra, or take its ``closed`` ones; run its selected checks."""
    result = ExperimentResult(name=exp.name)
    try:
        per_level, uncertainties = _compute_spectra(exp, closed)
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
        result.error = _error(exc)
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

    The analytic and cap spectra are computed first, spread over the
    CPUs; then each experiment runs in config order.  Each experiment
    that failed gets one ``speclab:`` line on stderr.
    """
    if not experiments:
        return 0
    closed = _closed_forms(experiments)
    results = [run_experiment(exp, check_types, closed) for exp in experiments]
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
