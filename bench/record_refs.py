"""Record reference spectra for every case without a closed-form oracle.

Run from the repository root as ``python3 bench/record_refs.py``.  It
imports speclab from ``src/``, computes every finite-difference and cap
spectrum that any seed of any workload can produce, and writes them to
``bench/refs.json``.  Record once, on a commit whose spectra are trusted;
later commits are checked against these values.
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.HERE.parent / "src"))

from speclab.fdlab import (  # noqa: E402
    CapDomain,
    cap_spectrum,
    fd_spectrum,
    lshape_domain,
    rectangle_domain,
)


def _grid(domain: dict, h: float):
    if domain["type"] == "rect":
        return rectangle_domain(domain["a"], domain["b"], h)
    if domain["type"] == "lshape":
        return lshape_domain(domain["a"], domain["b"], h, notch=domain["notch"])
    raise ValueError(f"no reference recipe for domain {domain['type']!r}")


def compute(exp: dict, kind: str, h: float | None) -> list[float]:
    domain, count = exp["domain"], exp["count"]
    if exp["backend"]["type"] == "cap":
        points = exp["backend"].get("points", workloads.DEFAULT_CAP_POINTS)
        spectrum = cap_spectrum(CapDomain(domain["delta"], points), kind, count)
    else:
        spectrum = fd_spectrum(_grid(domain, h), kind, count)
    return [float(v) for v in spectrum.values]


def main() -> None:
    refs = {}
    for config in workloads.variant_configs():
        for key, exp, kind, h in workloads.recorded_cases(config):
            if key not in refs:
                refs[key] = compute(exp, kind, h)
                print(f"recorded {key}", file=sys.stderr)
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
