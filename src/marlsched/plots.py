"""Hand-emitted SVG plots from result CSVs; no plotting dependency."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .experiment import COMPARED, LEARNER, read_episode_csv, write_replacing

WIDTH, HEIGHT = 640, 400
MARGIN = 56
COLORS = {"random": "#7f7f7f", "wrr": "#1f77b4", "minmin": "#2ca02c", "drl": "#d62728"}

# Each comparison panel's episode-CSV column and label; plots read only these and ``episode``.
PANELS = [(m.column, m.label) for m in COMPARED]


class PlotInputError(ValueError):
    """Raised when a result CSV is missing or unusable; names the file."""


def _load_episodes(results_dir, name) -> list[dict]:
    """The rows of ``<name>.csv``: ``episode`` an int, each panel's column a finite float
    or None if empty. Any other cell, or a missing file or column, is a ``PlotInputError``."""
    path = Path(results_dir) / f"{name}.csv"
    try:
        rows = [{"episode": int(r["episode"]), **{key: float(r[key]) if r[key] else None for key, _ in PANELS}}
                for r in read_episode_csv(path)]
    except FileNotFoundError:
        raise PlotInputError(f"missing results file: {path}") from None
    except KeyError as exc:
        raise PlotInputError(f"{path} has no {exc} column") from None
    except (ValueError, csv.Error) as exc:
        raise PlotInputError(f"{path}: {exc}") from None
    bad = [v for r in rows for v in r.values() if v is not None and not math.isfinite(v)]
    if bad:
        raise PlotInputError(f"{path}: {bad[0]} is not a finite number")
    return rows


def _load_series(results_dir, name):
    rows = [r for r in _load_episodes(results_dir, name) if r["atct_s"] is not None]
    if not rows:
        raise PlotInputError(f"no usable ATCT data in {Path(results_dir) / f'{name}.csv'}")
    return [r["episode"] + 1 for r in rows], [r["atct_s"] for r in rows]


def _svg(body: list[str]) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">\n'
        '<rect width="100%" height="100%" fill="white"/>\n' + "\n".join(body) + "\n</svg>\n"
    )


def _axes(x0, y0, x1, y1, xlabel, ylabel, title):
    return [
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{y1 + 34}" text-anchor="middle">{xlabel}</text>',
        f'<text x="{x0 - 40}" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 40} {(y0 + y1) / 2:.0f})">{ylabel}</text>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{y0 - 8}" text-anchor="middle" font-size="13">{title}</text>',
    ]


def _scale(values, lo_px, hi_px, vmin=None):
    vmin = min(values) if vmin is None else vmin
    vmax = max(values)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def learning_curve_svg(results_dir, schedulers, out_path) -> None:
    """Per-episode ATCT for every scheduler."""
    series = {name: _load_series(results_dir, name) for name in schedulers}
    x0, y0, x1, y1 = MARGIN, MARGIN, WIDTH - 20, HEIGHT - MARGIN
    all_eps = [e for eps, _ in series.values() for e in eps]
    all_atct = [v for _, vals in series.values() for v in vals]
    sx, *_ = _scale(all_eps, x0, x1, vmin=1)
    sy, ymin, ymax = _scale(all_atct, y1, y0, vmin=0)
    body = _axes(x0, y0, x1, y1, "Episode", "ATCT (s)", "Per-episode average task completion time")
    body.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{ymin:.0f}</text>')
    body.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{ymax:.0f}</text>')
    body.append(f'<text x="{x1}" y="{y1 + 16}" text-anchor="end">{max(all_eps)}</text>')
    for i, (name, (eps, vals)) in enumerate(series.items()):
        pts = " ".join(f"{sx(e):.1f},{sy(v):.1f}" for e, v in zip(eps, vals))
        color = COLORS.get(name, "#000")
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = y0 + 14 + 14 * i
        body.append(f'<line x1="{x1 - 110}" y1="{ly - 4}" x2="{x1 - 90}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{x1 - 84}" y="{ly}">{name}</text>')
    write_replacing(out_path, lambda f: f.write(_svg(body)))


def _mean(values):
    return sum(values) / len(values) if values else None


def comparison_bars_svg(results_dir, schedulers, final_window, out_path) -> None:
    """Four panels of final-window means: ATCT, energy, SLA rate, throughput.
    A mean over no values, such as the ATCT of a window that completed no
    task, gets no bar and the label n/a."""
    data = {}
    for name in schedulers:
        rows = _load_episodes(results_dir, name)[-final_window:]
        data[name] = {key: _mean([r[key] for r in rows if r[key] is not None]) for key, _ in PANELS}
    body = []
    pw, ph = WIDTH / 2, HEIGHT / 2
    for pi, (key, label) in enumerate(PANELS):
        ox, oy = (pi % 2) * pw, (pi // 2) * ph
        x0, y0, x1, y1 = ox + 52, oy + 28, ox + pw - 14, oy + ph - 40
        vals = [data[n][key] for n in schedulers]
        sy, *_ = _scale([v for v in vals if v is not None] or [0.0], y1, y0, vmin=0)
        body += _axes(x0, y0, x1, y1, "", label, label)
        bw = (x1 - x0) / len(schedulers) * 0.6
        gap = (x1 - x0) / len(schedulers)
        for i, (name, v) in enumerate(zip(schedulers, vals)):
            bx = x0 + gap * i + (gap - bw) / 2
            if v is None:   # no value in the window: no bar, as the CSV leaves the cell empty
                top, text = y1, "n/a"
            else:
                top, text = sy(v), f"{v:.3g}"
                body.append(f'<rect x="{bx:.1f}" y="{top:.1f}" width="{bw:.1f}" '
                            f'height="{y1 - top:.1f}" fill="{COLORS.get(name, "#000")}"/>')
            body.append(f'<text x="{bx + bw / 2:.1f}" y="{y1 + 14}" text-anchor="middle">{name}</text>')
            body.append(f'<text x="{bx + bw / 2:.1f}" y="{top - 3:.1f}" text-anchor="middle" '
                        f'font-size="9">{text}</text>')
    write_replacing(out_path, lambda f: f.write(_svg(body)))


def improvement_curve_svg(results_dir, out_path) -> None:
    """Per-episode relative ATCT improvement of the learner over random."""
    eps_l, learner = _load_series(results_dir, LEARNER)
    eps_r, rnd = _load_series(results_dir, "random")
    common = sorted(set(eps_l) & set(eps_r))
    if not common:
        raise PlotInputError(f"no overlapping episodes between {LEARNER}.csv and random.csv in {results_dir}")
    lmap, rmap = dict(zip(eps_l, learner)), dict(zip(eps_r, rnd))
    imp = [(rmap[e] - lmap[e]) / rmap[e] * 100.0 for e in common]
    x0, y0, x1, y1 = MARGIN, MARGIN, WIDTH - 20, HEIGHT - MARGIN
    sx, *_ = _scale(common, x0, x1, vmin=1)
    sy, ymin, ymax = _scale(imp, y1, y0)
    body = _axes(x0, y0, x1, y1, "Episode", "Improvement over random (%)",
                 f"ATCT improvement of {LEARNER} over random")
    if ymin < 0 < ymax:
        zy = sy(0)
        body.append(f'<line x1="{x0}" y1="{zy:.1f}" x2="{x1}" y2="{zy:.1f}" '
                    'stroke="#bbb" stroke-dasharray="4 3"/>')
    body.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{ymin:.0f}</text>')
    body.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{ymax:.0f}</text>')
    pts = " ".join(f"{sx(e):.1f},{sy(v):.1f}" for e, v in zip(common, imp))
    body.append(f'<polyline points="{pts}" fill="none" stroke="{COLORS[LEARNER]}" stroke-width="1.5"/>')
    write_replacing(out_path, lambda f: f.write(_svg(body)))


def emit_all(results_dir, schedulers, final_window) -> dict[str, str | None]:
    """Emit every plot independently; return per-plot error messages (None = ok)."""
    results_dir = Path(results_dir)
    present = [n for n in schedulers if (results_dir / f"{n}.csv").exists()]
    outcomes = {}
    jobs = {
        "learning_curve.svg": lambda p: learning_curve_svg(results_dir, present or schedulers, p),
        "comparison.svg": lambda p: comparison_bars_svg(results_dir, present or schedulers, final_window, p),
        "improvement.svg": lambda p: improvement_curve_svg(results_dir, p),
    }
    for fname, job in jobs.items():
        try:
            job(results_dir / fname)
            outcomes[fname] = None
        except (PlotInputError, OSError) as exc:
            outcomes[fname] = str(exc)
    return outcomes
