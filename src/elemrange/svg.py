"""Minimal deterministic SVG rendering of computed regions.

Hand-rolled rather than a plotting library so identical runs emit
byte-identical images; coordinates use fixed 3-decimal formatting.
"""

from __future__ import annotations

_COLORS = {
    "lhs": "#1f77b4",
    "rhs": "#d62728",
    "oracle": "#2ca02c",
    "fov": "#9467bd",
}
_PANEL_W = 460
_PANEL_H = 460
_MARGIN = 45.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _panel(inst: dict, offset_y: int) -> list[str]:
    regions = {k: v for k, v in inst.get("regions", {}).items() if v}
    pts = []
    for reg in regions.values():
        pts.extend(reg["vertices"])
    witnesses = inst.get("witnesses") or []
    pts.extend(witnesses)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-6)
    pad = 0.1 * span
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    side = max(xmax - xmin, ymax - ymin)
    cx, cy = (xmin + xmax) / 2, (ymin + ymax) / 2
    xmin, xmax = cx - side / 2, cx + side / 2
    ymin, ymax = cy - side / 2, cy + side / 2
    plot = _PANEL_W - 2 * _MARGIN

    def to_px(x, y):
        px = _MARGIN + (x - xmin) / side * plot
        py = offset_y + _MARGIN + (ymax - y) / side * plot
        return px, py

    # Escaped by hand: xml.sax.saxutils would import urllib.request, ssl and email.
    label = inst.get("label", "").replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out = [
        f'<text x="{_MARGIN}" y="{offset_y + 22}" font-size="13" '
        f'font-family="monospace">{label}</text>'
    ]
    # axes
    if xmin < 0 < xmax:
        x0, _ = to_px(0, 0)
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{offset_y + _MARGIN}" x2="{_fmt(x0)}" '
            f'y2="{offset_y + _MARGIN + plot}" stroke="#cccccc" stroke-width="1"/>'
        )
    if ymin < 0 < ymax:
        _, y0 = to_px(0, 0)
        out.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(y0)}" x2="{_MARGIN + plot}" '
            f'y2="{_fmt(y0)}" stroke="#cccccc" stroke-width="1"/>'
        )
    legend_y = offset_y + 36
    for name in sorted(regions):
        reg = regions[name]
        color = _COLORS.get(name, "#7f7f7f")
        verts = reg["vertices"]
        coords = [to_px(x, y) for x, y in verts]
        if len(coords) == 1:
            px, py = coords[0]
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{color}"/>'
            )
        elif len(coords) == 2:
            (x1, y1), (x2, y2) = coords
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="2"/>'
            )
        else:
            body = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in coords)
            out.append(
                f'<polygon points="{body}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        out.append(
            f'<rect x="{_MARGIN + plot - 90}" y="{legend_y - 9}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_MARGIN + plot - 76}" y="{legend_y}" font-size="11" '
            f'font-family="monospace">{name}</text>'
        )
        legend_y += 16
    for w in witnesses:
        px, py = to_px(w[0], w[1])
        out.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.2" fill="#555555" '
            f'fill-opacity="0.5"/>'
        )
    return out


def dump_svg(result: dict, fh) -> None:
    """Write an SVG overlaying each instance's regions and witness points."""
    instances = [inst for inst in result["instances"] if any(inst.get("regions", {}).values())]
    height = _PANEL_H * len(instances)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
        f'height="{height}" viewBox="0 0 {_PANEL_W} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for i, inst in enumerate(instances):
        parts.extend(_panel(inst, i * _PANEL_H))
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")
