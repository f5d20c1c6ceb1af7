"""Markdown experiment reports.

Collects the paper-vs-measured artifacts the benchmarks write under
``benchmarks/results/`` and renders them into one markdown document —
the machine-generated companion to the hand-written EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

PathLike = Union[str, Path]

#: preferred ordering of experiments in the report
EXPERIMENT_ORDER = [
    "summary_headline",
    "table1_activity",
    "table2_methods",
    "fig2_growth",
    "fig3_matrix",
    "fig5_local_queuing",
    "fig6_remote_queuing",
    "fig7_remote_bandwidth",
    "fig8_local_bandwidth",
    "fig9_thresholds",
    "fig10_case_sequential",
    "fig11_case_failed",
    "fig12_case_redundant",
    "matching_quality",
    "matching_sweep_executor",
    "ablation_coopt",
    "ablation_idds",
]


def load_results(results_dir: PathLike) -> Dict[str, dict]:
    """Read every ``*.json`` artifact; keyed by experiment name."""
    out: Dict[str, dict] = {}
    directory = Path(results_dir)
    if not directory.is_dir():
        return out
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
        name = data.get("experiment", path.stem)
        out[name] = data
    return out


def _render_value(value: Any, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines: List[str] = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}- **{k}**:")
                lines.extend(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}- **{k}**: {v}")
        return lines
    if isinstance(value, list):
        return [f"{pad}- {item}" for item in value]
    return [f"{pad}- {value}"]


def render_experiment(data: dict, name: str = "unknown") -> str:
    """One artifact as a markdown section.  The heading is the
    artifact's ``experiment`` key, else ``name`` (the key
    :func:`load_results` filed it under)."""
    lines = [f"## {data.get('experiment', name)}", ""]
    if data.get("notes"):
        lines += [f"*{data['notes']}*", ""]
    lines.append("**Paper:**")
    lines.extend(_render_value(data.get("paper", {})))
    lines.append("")
    lines.append("**Measured:**")
    lines.extend(_render_value(data.get("measured", {})))
    lines.append("")
    return "\n".join(lines)


def build_markdown_report(results_dir: PathLike, title: str = "Experiment results") -> str:
    """One markdown document over every artifact, stable ordering."""
    results = load_results(results_dir)
    ordered = [n for n in EXPERIMENT_ORDER if n in results]
    ordered += [n for n in sorted(results) if n not in ordered]
    parts = [f"# {title}", "",
             f"{len(results)} experiment artifact(s) found.", ""]
    for name in ordered:
        parts.append(render_experiment(results[name], name))
    return "\n".join(parts)


def write_markdown_report(results_dir: PathLike, out_path: PathLike) -> int:
    """Render and write; returns the number of experiments included."""
    results = load_results(results_dir)
    Path(out_path).write_text(build_markdown_report(results_dir))
    return len(results)
