"""Plain-text and markdown rendering of benchmark results.

    python3 perfbench/report.py perfbench/results/*.json

prints the saved results (see ``perfbench/run.py``) as markdown tables.
This module imports nothing from the program, so it renders results on
any machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def metric_lines(result: dict) -> list[str]:
    """Human-readable lines: fingerprint, checks, then every metric."""
    lines = [f"# {result['workload']} seed={result['seed']} "
             f"seconds={result['seconds']} trace={int(result['trace'])}",
             "# host " + " ".join(f"{key}={value}" for key, value
                                  in result["fingerprint"].items()),
             "# samples " + " ".join(f"{key}={value}" for key, value
                                     in result["samples"].items()),
             "# checks " + " ".join(f"{key}={value}" for key, value
                                    in result["checks"].items())]
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    lines.append("# raw (unscaled) " + " ".join(
        f"{name}={value:.6g}" for name, value
        in result["raw_metrics"].items()))
    return lines


def to_md(results) -> str:
    """Markdown table of one result or a list of results."""
    if isinstance(results, dict):
        results = [results]
    out = []
    for result in results:
        out.append(f"## {result['workload']} (seed {result['seed']}, "
                   f"{'traced' if result['trace'] else 'untraced'})")
        out.append("")
        out.append(f"correct: {result['correct']}, attempted: "
                   f"{result['attempted']}, failed: {result['failed']}")
        out.append("")
        out.append("| metric | value | unit | raw |")
        out.append("|---|---:|---|---:|")
        for name, metric in result["metrics"].items():
            out.append(f"| {name} | {metric['value']:.6g} | "
                       f"{metric['unit']} | "
                       f"{result['raw_metrics'][name]:.6g} |")
        out.append("")
        host = result["fingerprint"]
        out.append("Host: " + ", ".join(f"{key} {value}"
                                        for key, value in host.items()))
        out.append("")
    return "\n".join(out)


def main(paths) -> int:
    results = [json.loads(Path(path).read_text()) for path in paths]
    print(to_md(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
