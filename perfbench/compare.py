"""Compare two sets of benchmark results, refusing mismatched environments.

Usage::

    python3 perfbench/run.py ... > before.txt   # one or more runs appended
    python3 perfbench/run.py ... > after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file holds the standard output of one or more ``run.py`` runs.  For
every workload and metric the script prints both medians and their ratio
(after / before).  It refuses, with exit code 2, to compare results that
ran on different kernel backends or in different trace modes, since such
numbers do not measure the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["load", "compare"]


def load(path: Path) -> List[Tuple[dict, dict]]:
    """Every ``(env, result)`` pair in a captured ``run.py`` output."""
    pairs = []
    env = None
    for line in path.read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "env" in record:
            env = record["env"]
        elif "metrics" in record and env is not None:
            pairs.append((env, record))
            env = None
    return pairs


def _environment(pairs, key: str) -> set:
    return {env.get(key) for env, _ in pairs}


def compare(before: List[Tuple[dict, dict]],
            after: List[Tuple[dict, dict]]) -> List[str]:
    """Report lines; raises ``ValueError`` on a refused comparison."""
    if not before or not after:
        raise ValueError("each side needs at least one result")
    for key in ("backend", "trace"):
        values = _environment(before, key) | _environment(after, key)
        if len(values) != 1:
            raise ValueError(
                f"refusing to compare results across {key} values "
                f"{sorted(map(str, values))}"
            )
    lines = []
    for key in ("python", "nproc"):
        values = _environment(before, key) | _environment(after, key)
        if len(values) != 1:
            lines.append(f"warning: {key} differs: {sorted(map(str, values))}")

    def medians(pairs) -> Dict[Tuple[str, str], Tuple[float, str, int]]:
        grouped: Dict[Tuple[str, str], List[float]] = {}
        units = {}
        for env, result in pairs:
            for name, metric in result["metrics"].items():
                grouped.setdefault((env["workload"], name), []).append(
                    metric["value"]
                )
                units[(env["workload"], name)] = metric["unit"]
        return {
            key: (statistics.median(values), units[key], len(values))
            for key, values in grouped.items()
        }

    old, new = medians(before), medians(after)
    for key in sorted(set(old) & set(new)):
        (a, unit, n_a), (b, _, n_b) = old[key], new[key]
        ratio = b / a if a else float("nan")
        lines.append(
            f"{key[0]:16s} {key[1]:28s} {a:14.6g} -> {b:14.6g} {unit:10s}"
            f" x{ratio:.4f}  (n={n_a}/{n_b})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    try:
        lines = compare(load(args.before), load(args.after))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
