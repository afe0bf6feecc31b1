import hashlib
import random
from itertools import chain

import pytest

from icmod import (
    NotMPrimary,
    SizeBudgetExceeded,
    normalize,
    parse_ideal,
    render_svg,
)
from icmod.render import _ticks

STAIR_A = normalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7)])


def test_deterministic():
    assert render_svg(STAIR_A) == render_svg(STAIR_A)


def test_dimensions_follow_staircase():
    svg = render_svg(STAIR_A)
    # 5 + 1 x-units plus two margin units at 24 px each, same scheme vertically
    assert 'width="192"' in svg and 'height="240"' in svg


def test_marks_generators_and_vertices():
    svg = render_svg(STAIR_A)
    assert svg.count('r="3"') == len(STAIR_A.gens)
    assert svg.count('r="4.5"') == 3  # hull vertices


def test_contains_polygon_and_region():
    svg = render_svg(STAIR_A)
    assert "<polyline" in svg and "<path" in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_unit_ideal_rejected():
    with pytest.raises(NotMPrimary):
        render_svg(normalize([(0, 0)]))


def test_tick_budget(monkeypatch):
    # a_0 + b_r + 2 ticks; one past the cap fails before drawing anything
    with pytest.raises(SizeBudgetExceeded):
        render_svg(normalize([(999_998, 0), (0, 1)]))
    # a figure at the real cap is 85 MB, so the cap is lowered to check the edge
    monkeypatch.setattr("icmod.render.MAX_OUTPUT_SIZE", 40)
    assert render_svg(normalize([(37, 0), (0, 1)])).count("<line") == 2 + 40  # axes, ticks
    with pytest.raises(SizeBudgetExceeded):
        render_svg(normalize([(38, 0), (0, 1)]))


def test_golden_digest():
    # SHA-256 of the figures of small, dense (66 corners) and wide (a_0 = 12000)
    # staircases, in order: every byte of a figure is pinned
    sources = (
        "(x^5, x^4*y^2, x^3*y^3, x^2*y^4, x*y^6, y^7)",
        "(x^7, x^5*y, x^3*y^2, x^2*y^3, x*y^5, y^9)",
        "m",
        "(x^3, y^2)",
        "(x, y^4)",
        "closure((x^17,y^23))*closure((x^31,y^12))*(x^7,x^3*y^4,y^6)^9",
        "(x^12000, x^6*y, x^3*y^3, x*y^6, y^11)",
    )
    digest = hashlib.sha256()
    for src in sources:
        digest.update(render_svg(parse_ideal(src)).encode())
    assert digest.hexdigest() == (
        "9cab941e075f47ea39c73044b9ddcddc28aa4164318e6bdbff0a38f3de922831"
    )


def test_ticks_match_their_formula():
    # the per-thousand templates give the plain formula's lines for ascending
    # and descending ranges of any step, starts below 1000, ends anywhere in a
    # thousand and empty ranges
    rng = random.Random(19)
    head, middle, tail = '<line x1="', '" y1="3" x2="', '"/>'
    for step in (1, 7, 24, 1000, 1500):
        for _ in range(40):
            lo, hi = sorted(rng.sample(range(12000), 2))
            low = lo % 1000
            for coords in (
                range(lo, hi, step),
                range(low, hi, step),
                range(hi, lo, -step),
                range(hi, low, -step),
                range(low, 0, -step),
                range(hi, lo, step),
                range(lo, hi, -step),
            ):
                got = "".join(chain.from_iterable(_ticks(head, middle, tail, coords)))
                assert got == "".join(f"{head}{c}{middle}{c}{tail}\n" for c in coords)
