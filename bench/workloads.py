"""The benchmark's workloads: seeded configs and the checks on their outputs.

Each workload is a ``speclab`` JSON config built from a seed.  The seed
only moves geometry, within ranges that keep every check valid and every
problem size within a few percent:

- ``readme-report``: the README example config, verbatim (the seed is unused);
- ``fd-lshape``: the L-shape notch, one of 39/80, 40/80, 41/80, with the
  decomposition parts that match it;
- ``analytic-disk-cap``: the disk radius in [0.8, 1.25] and each cap
  aperture scaled by one of 0.98 ... 1.02.

Every spectrum a config produces has a reference from ``oracles``; the
ones without a closed form are looked up in ``refs.json``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

ALL_KINDS = ["neumann", "dirichlet", "clamped", "buckling"]
NOTCHES = (39 / 80, 40 / 80, 41 / 80)
CAP_APERTURES = (3 * math.pi / 4, 2 * math.pi / 5)
CAP_SCALES = (0.98, 0.99, 1.0, 1.01, 1.02)
DEFAULT_CAP_POINTS = 4000


def readme_config() -> dict:
    return json.loads((HERE / "readme_config.json").read_text())


def fd_lshape_config(notch: float) -> dict:
    """Unit L-shape at h = 1/80, 1/160, split into a left strip and a lower block."""
    cut = 1.0 - notch
    return {
        "experiments": [
            {
                "name": "lshape-fd",
                "domain": {"type": "lshape", "a": 1.0, "b": 1.0, "notch": notch},
                "kinds": ALL_KINDS,
                "backend": {"type": "fd", "h": [1 / 80, 1 / 160]},
                "count": 15,
                "checks": [
                    {"type": "chain"},
                    {"type": "counting-chain", "points": 50},
                    {
                        "type": "decomposition",
                        "parts": [
                            {"type": "rect", "a": cut, "b": 1.0},
                            {"type": "rect", "a": notch, "b": cut, "corner": [cut, 0.0]},
                        ],
                    },
                ],
            }
        ]
    }


def disk_cap_config(radius: float, wide: float, narrow: float) -> dict:
    """Analytic disk at count 100 with a sharpness check, plus two cap spectra."""
    caps = [
        {
            "name": name,
            "domain": {"type": "cap", "delta": delta},
            "kinds": ["neumann", "dirichlet"],
            "backend": {"type": "cap"},
            "count": 60,
        }
        for name, delta in (("cap-wide", wide), ("cap-narrow", narrow))
    ]
    disk = {
        "name": "disk-analytic",
        "domain": {"type": "disk", "radius": radius},
        "kinds": ALL_KINDS,
        "backend": {"type": "analytic"},
        "count": 100,
        "checks": [
            {"type": "chain"},
            {"type": "counting-chain", "points": 50},
            {"type": "sharpness", "caps": [{"delta": wide}, {"delta": narrow}]},
        ],
    }
    return {"experiments": [disk, *caps]}


def make_config(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "readme-report":
        return readme_config()
    if workload == "fd-lshape":
        return fd_lshape_config(rng.choice(NOTCHES))
    if workload == "analytic-disk-cap":
        radius = rng.uniform(0.8, 1.25)
        wide, narrow = (base * rng.choice(CAP_SCALES) for base in CAP_APERTURES)
        return disk_cap_config(radius, wide, narrow)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("readme-report", "fd-lshape", "analytic-disk-cap")


def variant_configs() -> list[dict]:
    """Configs that together hold every geometry any seed can produce."""
    configs = [readme_config()]
    configs += [fd_lshape_config(notch) for notch in NOTCHES]
    wide, narrow = CAP_APERTURES
    configs += [disk_cap_config(1.0, wide * s, narrow * s) for s in CAP_SCALES]
    return configs


def _levels(exp: dict) -> list[float | None]:
    if exp["backend"]["type"] == "fd":
        return sorted(exp["backend"]["h"], reverse=True)
    return [None]


def recorded_key(exp: dict, kind: str, h: float | None) -> str | None:
    """Key of the recorded reference for one spectrum, None if a closed form exists."""
    domain, btype = exp["domain"], exp["backend"]["type"]
    if btype == "analytic":
        return None
    if btype == "fd" and domain["type"] == "rect" and kind in ("dirichlet", "neumann"):
        return None
    case = {"domain": domain, "kind": kind}
    if btype == "cap":
        case["points"] = exp["backend"].get("points", DEFAULT_CAP_POINTS)
    else:
        case["h"] = h
    return json.dumps(case, sort_keys=True)


def recorded_cases(config: dict) -> list[tuple[str, dict, str, float | None]]:
    """(key, experiment, kind, h) for every spectrum checked against refs.json."""
    out = []
    for exp in config["experiments"]:
        for kind in exp["kinds"]:
            for h in _levels(exp):
                key = recorded_key(exp, kind, h)
                if key is not None:
                    out.append((key, exp, kind, h))
    return out


def load_refs() -> dict[str, list[float]]:
    return json.loads(REFS_PATH.read_text())


def expected_spectra(config: dict, refs: dict) -> dict:
    """(experiment, kind, h) -> (reference values, relative tolerance)."""
    out = {}
    for exp in config["experiments"]:
        domain, count = exp["domain"], exp["count"]
        for kind in exp["kinds"]:
            for h in _levels(exp):
                key = recorded_key(exp, kind, h)
                if key is not None:
                    expected = (refs[key][:count], oracles.RECORDED_RTOL)
                elif exp["backend"]["type"] == "fd":
                    values = oracles.rect_fd(domain["a"], domain["b"], h, kind, count)
                    expected = (values, oracles.CLOSED_FORM_RTOL)
                elif domain["type"] == "disk":
                    values = oracles.disk(kind, domain.get("radius", 1.0), count)
                    expected = (values, oracles.CLOSED_FORM_RTOL)
                elif domain["type"] == "rect":
                    values = oracles.rect_membrane(domain["a"], domain["b"], kind, count)
                    expected = (values, oracles.CLOSED_FORM_RTOL)
                else:
                    values = oracles.interval(domain["length"], kind, count)
                    expected = (values, oracles.CLOSED_FORM_RTOL)
                out[(exp["name"], kind, h)] = expected
    return out


def _read_csv(path: Path, exp: dict) -> dict:
    """(kind, h) -> values in index order, h matched to the config's mesh widths."""
    levels = _levels(exp)
    rows: dict = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            h = None
            if row["h"]:
                h = next((x for x in levels if math.isclose(x, float(row["h"]), rel_tol=1e-9)), row["h"])
            rows.setdefault((row["kind"], h), []).append(float(row["value"]))
    return rows


def check_experiment(exp: dict, out_dir: Path, expected: dict) -> list[str]:
    """Problems with one experiment's outputs; empty when it passed."""
    name = exp["name"]
    report_path = out_dir / f"{name}.report.json"
    csv_path = out_dir / f"{name}.spectra.csv"
    if not report_path.is_file():
        return ["missing report"]
    try:
        report = json.loads(report_path.read_text())
        got = _read_csv(csv_path, exp) if csv_path.is_file() else {}
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    if "error" in report:
        problems.append(f"error: {report['error']}")
    for check in report.get("checks", []):
        if check.get("asserted") and not check.get("ok"):
            problems.append(f"check {check.get('check')} failed")
    if report.get("ok") is not True:
        problems.append("report not ok")
    for kind in exp["kinds"]:
        for h in _levels(exp):
            values, rtol = expected[(name, kind, h)]
            if not oracles.matches(got.get((kind, h), []), values, rtol):
                problems.append(f"{kind} h={h} differs from its oracle")
    return problems
