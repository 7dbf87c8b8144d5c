"""Minimal dependency-free SVG line charts for loss and metric curves."""

from __future__ import annotations

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _bounds(series):
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return x0, x1, y0, y1


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """``series`` is a list of (name, [(x, y), ...]) pairs; returns SVG text."""
    if not series or not any(pts for _, pts in series):
        raise ValueError("line_chart needs at least one non-empty series")
    x0, x1, y0, y1 = _bounds(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{MARGIN_T + plot_h}" '
        'stroke="black"/>',
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">'
        f"{x_label}</text>",
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{px(xv):.1f}" y="{MARGIN_T + plot_h + 16}" text-anchor="middle">'
            f"{xv:.4g}</text>"
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{py(yv) + 4:.1f}" text-anchor="end">{yv:.4g}</text>'
        )
    for i, (name, pts) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 * (i + 1)
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 120}" y1="{ly - 4}" x2="{MARGIN_L + plot_w - 100}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{MARGIN_L + plot_w - 96}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

