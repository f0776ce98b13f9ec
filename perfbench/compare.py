"""Compare two result files written by ``run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses, with exit code 2, when the two runs used different kernel backends,
inputs of different sizes, or scenes of different seeds or payloads (as when
a change to the generator or to the code it calls made other scenes);
otherwise prints every metric of both runs and
the change of NEW against BASE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SIZE_KEYS = ("input_bytes", "valid_pixels", "window_bands")


def mismatches(base: dict, new: dict) -> list[str]:
    """Reasons the two results cannot be compared (empty when they can)."""
    a, b = base["environment"], new["environment"]
    out = []
    if a["kernel_backend"] != b["kernel_backend"]:
        out.append(f"kernel backend {a['kernel_backend']} != {b['kernel_backend']}")
    if a["workloads"].keys() != b["workloads"].keys():
        out.append(f"workloads {sorted(a['workloads'])} != {sorted(b['workloads'])}")
    for w in a["workloads"].keys() & b["workloads"].keys():
        for k in SIZE_KEYS:
            if a["workloads"][w][k] != b["workloads"][w][k]:
                out.append(f"{w}: {k} {a['workloads'][w][k]} != {b['workloads'][w][k]}")
        for k in ("seed", "payload_sha256"):
            if [s[k] for s in a["workloads"][w]["scenes"]] != [s[k] for s in b["workloads"][w]["scenes"]]:
                out.append(f"{w}: scene {k}s differ")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    reasons = mismatches(base, new)
    if reasons:
        for r in reasons:
            print(f"refusing to compare: {r}", file=sys.stderr)
        return 2
    a, b = base["result"]["metrics"], new["result"]["metrics"]
    print(f"{'metric':<48} {'base':>14} {'new':>14} {'change':>9} unit")
    for name in sorted(a.keys() & b.keys()):
        va, vb = a[name]["value"], b[name]["value"]
        change = f"{vb / va - 1.0:+9.2%}" if va else f"{'n/a':>9}"
        print(f"{name:<48} {va:>14.6g} {vb:>14.6g} {change} {a[name]['unit']}")
    for name in sorted(a.keys() ^ b.keys()):
        print(f"{name:<48} only in {'base' if name in a else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
