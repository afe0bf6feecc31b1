"""Deterministic SVG figures of a staircase with its Newton polygon.

Fixed scale of 24 px per lattice unit with a one-unit margin; no timestamps
and no randomness, so identical inputs give byte-identical files.  Every
coordinate is an integer number of pixels and is written as one.  A figure
draws a_0 + b_r + 2 axis ticks, which must not exceed `MAX_OUTPUT_SIZE`, and
`svg_batches` gives it as pieces of text, one batch per thousand of tick
coordinates, so that a writer never holds all of it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .newton import newton_vertices
from .staircase import MAX_OUTPUT_SIZE, MonomialIdeal, within_budget

SCALE = 24
MARGIN = 1  # lattice units on every side

_REGION_FILL = "#cfdcec"
_GEN_FILL = "#1f4e79"
_VERTEX_FILL = "#000000"
_EDGE_STROKE = "#b02418"
_AXIS = "#404040"

# last three digits of a tick coordinate: formatting an int with "03d" costs
# three times as much as reading it here
_SUFFIXES = tuple(f"{t:03d}" for t in range(1000))


def _ticks(head: str, middle: str, tail: str, coords: range) -> Iterator[list[str]]:
    """One tick line per coordinate c, head + c + middle + c + tail, as pieces
    of text, one batch per thousand h = c // 1000.

    The lines of a thousand h >= 1 differ only in the last three digits of
    c, which the first suffix and the count fix: one template per (first
    suffix, count), split at NULs where the digits of h go and interleaved
    with one shared str(h), so no object is made per tick.  Joined thousands
    raised the benchmark's peak RSS; a generator step per piece was slower.
    """
    step = coords.step
    templates: dict[tuple[int, int], list[str]] = {}
    i, n = 0, len(coords)
    while i < n:
        h, s = divmod(coords[i], 1000)
        k = min(n - i, (999 - s) // step + 1 if step > 0 else s // -step + 1)
        if h < 1:
            yield [f"{head}{c}{middle}{c}{tail}\n" for c in coords[i : i + k]]
        else:
            cut = templates.get((s, k))
            if cut is None:
                cut = templates[s, k] = "".join(
                    [f"{head}\0{d}{middle}\0{d}{tail}\n" for d in _SUFFIXES[s::step][:k]]
                ).split("\0")
            batch = [str(h)] * (2 * len(cut) - 1)
            batch[::2] = cut
            yield batch
        i += k


def svg_batches(ideal: MonomialIdeal) -> Iterator[list[str]]:
    """The figure as pieces of text, one batch per thousand of tick
    coordinates, so that a caller can write it without holding all of it; the
    budget and the Newton polygon are checked before the first batch."""
    xmax = ideal.a0 + 1
    ymax = ideal.br + 1
    within_budget("figure", xmax + ymax, "axis ticks", MAX_OUTPUT_SIZE)
    np_ = newton_vertices(ideal)
    width = (xmax + 2 * MARGIN) * SCALE
    height = (ymax + 2 * MARGIN) * SCALE

    def pt(u: int, v: int) -> tuple[int, int]:
        return ((u + MARGIN) * SCALE, height - (v + MARGIN) * SCALE)

    # shaded staircase region, clipped to the plot window
    path = [pt(xmax, 0), pt(ideal.a0, 0)]
    for (a_i, b_i), (a_next, b_next) in zip(ideal.gens, ideal.gens[1:]):
        path.append(pt(a_i, b_next))
        path.append(pt(a_next, b_next))
    path.append(pt(0, ymax))
    path.append(pt(xmax, ymax))
    d = "M " + " L ".join(f"{x} {y}" for x, y in path) + " Z"

    # axes with a tick at every lattice unit, u = 1..xmax and v = 1..ymax
    ox, oy = pt(0, 0)
    ax_x, _ = pt(xmax, 0)
    _, ax_y = pt(0, ymax)
    stroke = f'stroke="{_AXIS}" stroke-width="1"/>'
    yield [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n',
        f'<path d="{d}" fill="{_REGION_FILL}" stroke="none"/>\n',
        f'<line x1="{ox}" y1="{oy}" x2="{ax_x}" y2="{oy}" {stroke}\n',
        f'<line x1="{ox}" y1="{oy}" x2="{ox}" y2="{ax_y}" {stroke}\n',
    ]
    yield from _ticks(
        '<line x1="',
        f'" y1="{oy - 3}" x2="',
        f'" y2="{oy + 3}" {stroke}',
        range(ox + SCALE, ax_x + 1, SCALE),
    )
    yield from _ticks(
        f'<line x1="{ox - 3}" y1="',
        f'" x2="{ox + 3}" y2="',
        f'" {stroke}',
        range(oy - SCALE, ax_y - 1, -SCALE),
    )

    # Newton polygon edges, generator points, then emphasized hull vertices on top
    pts = " ".join(f"{x},{y}" for x, y in (pt(u, v) for u, v in np_.vertices))
    lines = [
        f'<polyline points="{pts}" fill="none" stroke="{_EDGE_STROKE}" stroke-width="2"/>\n'
    ]
    for u, v in ideal.gens:
        x, y = pt(u, v)
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{_GEN_FILL}"/>\n')
    for u, v in np_.vertices:
        x, y = pt(u, v)
        lines.append(f'<circle cx="{x}" cy="{y}" r="4.5" fill="{_VERTEX_FILL}"/>\n')
    lines.append("</svg>\n")
    yield lines


def render_svg(ideal: MonomialIdeal) -> str:
    """The whole figure as one string: the pieces of `svg_batches` joined."""
    return "".join(chain.from_iterable(svg_batches(ideal)))
