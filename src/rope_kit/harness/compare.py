"""Side-by-side comparison of training runs from their metrics files.

The comparison is a reported artifact: it aligns loss curves on a shared
step grid and summarizes each with its area under the curve. Nothing
here asserts which variant should win; convergence order at toy scale is
for the reader.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import DataError

METRICS_HEADER = "step,loss"

__all__ = ["RunComparison", "read_metrics", "compare_runs", "format_table"]


def read_metrics(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a metrics CSV into (steps, losses); steps must strictly increase
    and every loss must be finite."""
    if not os.path.exists(path):
        raise DataError(f"metrics file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise DataError(f"{path}: unexpected metrics header {header!r}")
        steps, losses = [], []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                step, loss = line.strip().split(",")
                step, loss = int(step), float(loss)
                if not math.isfinite(loss):  # training never writes one
                    raise ValueError
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: malformed metrics row {line.strip()!r}"
                ) from None
            if steps and step <= steps[-1]:
                raise DataError(
                    f"{path}:{lineno}: step {step} does not follow step {steps[-1]}"
                )
            steps.append(step)
            losses.append(loss)
    if not steps:
        raise DataError(f"{path}: no metric rows")
    return np.asarray(steps), np.asarray(losses)


@dataclass
class RunComparison:
    steps: np.ndarray
    names: list[str]
    losses: dict[str, np.ndarray]
    auc: dict[str, float]
    best: str  # lowest area under the loss curve

    def final(self, name: str) -> float:
        return float(self.losses[name][-1])


def compare_runs(paths: list) -> RunComparison:
    """Align >= 2 runs on their step grid; grids must match exactly."""
    if len(paths) < 2:
        raise DataError(f"need at least two metrics files, got {len(paths)}")
    names, losses = [], {}
    grid = None
    for path in paths:
        steps, values = read_metrics(path)
        name = os.path.splitext(os.path.basename(path))[0]
        if name in losses:
            name = f"{name}#{len(names)}"
        if grid is None:
            grid = steps
        elif not np.array_equal(grid, steps):
            raise DataError(f"{path}: step grid differs from {paths[0]}")
        names.append(name)
        losses[name] = values
    auc = {name: _trapezoid(losses[name], grid) for name in names}
    best = min(names, key=lambda n: auc[n])
    return RunComparison(steps=grid, names=names, losses=losses, auc=auc, best=best)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    return float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(x)))


def format_table(cmp: RunComparison) -> str:
    """Aligned loss table of at most 12 steps plus the area-under-curve summary."""
    if len(cmp.steps) <= 12:
        picks = np.arange(len(cmp.steps))
    else:
        picks = np.unique(np.linspace(0, len(cmp.steps) - 1, 12).astype(int))
    width = max(10, max(len(n) for n in cmp.names) + 2)
    lines = ["".join(["step".rjust(8)] + [n.rjust(width) for n in cmp.names])]
    for i in picks:
        row = [str(int(cmp.steps[i])).rjust(8)]
        row += [f"{cmp.losses[n][i]:.4f}".rjust(width) for n in cmp.names]
        lines.append("".join(row))
    lines.append("")
    for name in cmp.names:
        flag = "  <- lowest AUC" if name == cmp.best else ""
        lines.append(
            f"{name}: final loss {cmp.final(name):.4f}, "
            f"area under curve {cmp.auc[name]:.1f}{flag}"
        )
    return "\n".join(lines)
