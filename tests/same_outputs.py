"""Compare what ``speclab`` writes when run from two source trees.

Run as ``python tests/same_outputs.py OLD_SRC NEW_SRC``, each the ``src``
directory of one checkout.  Every config runs once per tree as
``python -m speclab.cli VERB --config config.json --out out``, in a fresh
directory, with ``PYTHONPATH`` set to that tree.  The exit code, stdout,
stderr and every output file must match byte for byte.  The configs are
the benchmark's ``workloads.variant_configs()``, each re-ask probe, and
the all-checks config under ``report``, ``verify`` and ``weyl``.

One line is printed per run; the exit status is 1 if any run differs.
The runs inherit the CPU mask, so ``taskset -c 0 python
tests/same_outputs.py OLD_SRC NEW_SRC`` compares the one-CPU outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from probes import ALL_CHECKS_BLOCKS, REASK_PROBES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def runs() -> list[tuple[str, str, dict]]:
    """Every (label, verb, config) the comparison runs."""
    sys.path.insert(0, str(BENCH))  # workloads imports oracles by name
    import workloads

    out = [(f"variant{i}", "report", c) for i, c in enumerate(workloads.variant_configs())]
    out += [(f"reask-{name}", "report", {"experiments": [p]}) for name, p in REASK_PROBES.items()]
    checks = {"experiments": ALL_CHECKS_BLOCKS}
    out += [("all-checks", verb, checks) for verb in ("report", "verify", "weyl")]
    return out


def outputs(src: str | Path, verb: str, config: dict) -> tuple[int, bytes, bytes, dict]:
    """Exit code, stdout, stderr and the files written, by relative path, of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config, indent=2))
        proc = subprocess.run(
            [sys.executable, "-m", "speclab.cli", verb, "--config", "config.json", "--out", "out"],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
            capture_output=True,
        )
        out = tmp / "out"
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        return proc.returncode, proc.stdout, proc.stderr, files


def compare(old_src: str | Path, new_src: str | Path, verb: str, config: dict) -> tuple[int, list]:
    """The old tree's exit code, and what differs in the new tree's run of the same config."""
    old, new = outputs(old_src, verb, config), outputs(new_src, verb, config)
    differs = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    differs += [
        name
        for name in sorted(old[3].keys() | new[3].keys())
        if old[3].get(name) != new[3].get(name)
    ]
    return old[0], differs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    status = 0
    for label, verb, config in runs():
        code, differs = compare(*argv, verb, config)
        verdict = f"differs: {', '.join(differs)}" if differs else "same"
        print(f"{label} {verb}: exit {code}, {verdict}")
        status |= bool(differs)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
