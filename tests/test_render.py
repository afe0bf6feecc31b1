import pytest

from icmod import NotMPrimary, monomial_ideal, normalize, render_svg

STAIR_A = monomial_ideal((5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7))


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
