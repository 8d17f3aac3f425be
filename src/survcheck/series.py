"""Named, typed plot series with JSON/SVG serialization.

Every diagnostic in this package returns data, not pictures: a bundle of
PlotSeries that a caller can render however they like.  The optional SVG
renderer here produces a deterministic fixed-layout image (stable bytes for
identical inputs, no timestamps or generated ids).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("step", "interval", "band", "points")

# default rendering hints per series role
_ROLE_COLORS = {
    "observed": "#1c2833",
    "predictive": "#9ecae1",
    "imputed": "#e34a33",
    "band": "#c6dbef",
    "reference": "#888888",
}


@dataclass
class PlotSeries:
    """One drawable series.

    kind 'step':     data x (jump times), y (value after each jump), y0
    kind 'interval': data x, y (observed), median, lower/upper (outer),
                     inner_lower/inner_upper
    kind 'band':     data x, lower, upper
    kind 'points':   data x, y, optional size
    """

    name: str
    kind: str
    data: dict[str, list]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        self.data = {k: _aslist(v) for k, v in self.data.items()}

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "data": self.data,
                "metadata": self.metadata}

    @property
    def color(self) -> str:
        return self.metadata.get(
            "hint_color", _ROLE_COLORS.get(self.metadata.get("role", ""), "#555555")
        )


def _aslist(v):
    """A column as a list of floats, a non-finite one as None (JSON null)."""
    if isinstance(v, np.ndarray):
        a = v.astype(float).ravel()
        out = a.tolist()
        for i in np.flatnonzero(~np.isfinite(a)).tolist():
            out[i] = None
        return out
    if isinstance(v, (list, tuple)):
        return [(_aslist(x) if isinstance(x, (list, tuple, np.ndarray)) else
                 (_finite(x) if isinstance(x, (int, float, np.floating, np.integer)) else x))
                for x in v]
    return v


def _finite(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def bundle_to_json(series, extra: dict | None = None) -> str:
    """Serialize a series bundle (plus config/seed metadata) to stable,
    strict JSON: a NaN or infinity left in it is a ValueError."""
    doc = {"series": [s.to_dict() for s in series]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# SVG rendering


def bundle_to_svg(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Fixed-layout SVG of a bundle.  Deterministic for identical inputs."""
    width, height = 640, 420
    ml, mr, mt, mb = 56, 16, 34 if title else 16, 44
    pw, ph = width - ml - mr, height - mt - mb
    xs, ys = [], []
    for s in series:
        for key, vals in s.data.items():
            if not isinstance(vals, list) or not vals:
                continue
            target = xs if key == "x" else ys if key in (
                "y", "y0", "lower", "upper", "median", "inner_lower", "inner_upper") else None
            if target is not None:
                target.extend(v for v in vals if v is not None)
        if s.kind == "step" and "y0" in s.data:
            ys.append(s.data["y0"])
        xmax_hint = s.metadata.get("xmax")
        if xmax_hint is not None:
            xs.append(float(xmax_hint))
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs + [0.0]), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y1 += 0.03 * (y1 - y0)

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>'
        )
    # bands first so lines draw on top
    for s in sorted(series, key=lambda q: 0 if q.kind == "band" else 1):
        parts.append(_render(s, px, py, y0))
    parts.append(_axes(ml, mt, pw, ph, x0, x1, y0, y1, px, py, xlabel, ylabel))
    parts.append("</svg>")
    return "\n".join(p for p in parts if p)


def _render(s: PlotSeries, px, py, ymin) -> str:
    c = s.color
    d = s.data
    if s.kind == "step":
        xs = d.get("x", [])
        ys = d.get("y", [])
        y0 = d.get("y0", 1.0)
        if not xs:
            return ""
        pts = [f"M{px(0):.2f},{py(y0):.2f}"]
        prev = y0
        for x, y in zip(xs, ys):
            pts.append(f"L{px(x):.2f},{py(prev):.2f}")
            pts.append(f"L{px(x):.2f},{py(y):.2f}")
            prev = y
        xmax = s.metadata.get("xmax", xs[-1])
        pts.append(f"L{px(float(xmax)):.2f},{py(prev):.2f}")
        w = 1.6 if s.metadata.get("role") == "observed" else 0.8
        op = 1.0 if s.metadata.get("role") == "observed" else 0.55
        return (f'<path d="{" ".join(pts)}" fill="none" stroke="{c}" '
                f'stroke-width="{w}" opacity="{op}"/>')
    if s.kind == "band":
        xs, lo, hi = d["x"], d["lower"], d["upper"]
        fwd = [f"{px(x):.2f},{py(u):.2f}" for x, u in zip(xs, hi)]
        bwd = [f"{px(x):.2f},{py(v):.2f}" for x, v in zip(reversed(xs), reversed(lo))]
        return f'<polygon points="{" ".join(fwd + bwd)}" fill="{c}" opacity="0.5"/>'
    if s.kind == "points":
        xs, ys = d["x"], d["y"]
        sizes = d.get("size") or [1.0] * len(xs)
        out = []
        for x, y, sz in zip(xs, ys, sizes):
            r = 1.2 + 3.0 * float(sz)
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="{r:.2f}" '
                       f'fill="{c}" opacity="0.8"/>')
        return "\n".join(out)
    if s.kind == "interval":
        xs = d["x"]
        out = []
        for i, x in enumerate(xs):
            lo, hi = d["lower"][i], d["upper"][i]
            out.append(f'<line x1="{px(x):.2f}" y1="{py(lo):.2f}" x2="{px(x):.2f}" '
                       f'y2="{py(hi):.2f}" stroke="{c}" stroke-width="1"/>')
            if "inner_lower" in d:
                il, iu = d["inner_lower"][i], d["inner_upper"][i]
                out.append(f'<line x1="{px(x):.2f}" y1="{py(il):.2f}" x2="{px(x):.2f}" '
                           f'y2="{py(iu):.2f}" stroke="{c}" stroke-width="2.6"/>')
            if "median" in d:
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(d["median"][i]):.2f}" '
                           f'r="2.2" fill="{c}"/>')
            if "y" in d and d["y"][i] is not None:
                oc = "#e34a33" if (d.get("imputed") or [0] * len(xs))[i] else "#1c2833"
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(d["y"][i]):.2f}" '
                           f'r="2.2" fill="{oc}"/>')
        return "\n".join(out)
    return ""


def _axes(ml, mt, pw, ph, x0, x1, y0, y1, px, py, xlabel, ylabel) -> str:
    out = [
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>'
    ]
    for t in np.linspace(x0, x1, 6):
        out.append(f'<line x1="{px(t):.2f}" y1="{mt + ph}" x2="{px(t):.2f}" '
                   f'y2="{mt + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{px(t):.2f}" y="{mt + ph + 16}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{t:g}</text>')
    for t in np.linspace(y0, y1, 5):
        out.append(f'<line x1="{ml - 4}" y1="{py(t):.2f}" x2="{ml}" '
                   f'y2="{py(t):.2f}" stroke="#333"/>')
        out.append(f'<text x="{ml - 7}" y="{py(t) + 3:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{t:.2g}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{mt + ph + 34}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11" '
                   f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{_esc(ylabel)}</text>')
    return "\n".join(out)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
