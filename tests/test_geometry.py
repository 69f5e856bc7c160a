from fractions import Fraction as F

import pytest

from chanhom.errors import GeometryError
from chanhom.geometry import ChannelProfile, build_micro_geometry, build_reference_cell


def hourglass():
    return ChannelProfile.from_pairs(
        [((-1, F(-1, 4)), F(3, 4)), ((F(-1, 4), F(1, 4)), F(1, 4)), ((F(1, 4), 1), F(3, 4))]
    )


def test_rectangle_half_width_measures():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    assert cell.rectangles == ((F(1, 4), F(3, 4), F(-1), F(1)),)
    assert cell.area == 1
    assert cell.s_plus == (F(1, 4), F(3, 4))
    assert cell.s_minus == (F(1, 4), F(3, 4))
    assert cell.s_plus[1] - cell.s_plus[0] == F(1, 2)
    assert cell.n_length == 4


def test_full_width_channel_rejected():
    with pytest.raises(GeometryError, match="lateral"):
        ChannelProfile.rectangle(1)
    with pytest.raises(GeometryError, match="lateral"):
        ChannelProfile.rectangle(F(5, 4))


def test_hourglass_measures():
    cell = build_reference_cell(hourglass())
    assert cell.area == F(9, 16) + F(1, 8) + F(9, 16) == F(5, 4)
    # vertical walls 2*(3/4 + 1/2 + 3/4) = 4 plus four ledges of 1/4
    assert cell.n_length == 5


def test_non_partitioning_segments_rejected():
    with pytest.raises(GeometryError, match="partition"):
        ChannelProfile.from_pairs([((-1, 0), F(1, 2))])
    with pytest.raises(GeometryError, match="partition"):
        ChannelProfile.from_pairs([((-1, 0), F(1, 2)), ((F(1, 4), 1), F(1, 2))])
    with pytest.raises(GeometryError, match="degenerate"):
        ChannelProfile.from_pairs([((-1, -1), F(1, 2)), ((-1, 1), F(1, 2))])


def test_micro_geometry_counts_and_measures():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(F(1, 2), 1, cell)
    assert geom.n_columns == 2

    geom4 = build_micro_geometry(F(1, 4), 1, cell)
    assert geom4.n_columns == 4


def test_invalid_eps_rejected():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    with pytest.raises(GeometryError, match="positive integer"):
        build_micro_geometry(F(3, 10), 1, cell)
    with pytest.raises(GeometryError, match="eps < H"):
        build_micro_geometry(F(1, 2), F(1, 4), cell)


def test_arc_coordinate_covers_the_wall():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    # left wall bottom, left wall top, right wall midpoint
    s0 = cell.arc_coordinate(0.25, -1.0)
    s1 = cell.arc_coordinate(0.25, 1.0)
    s2 = cell.arc_coordinate(0.75, 0.0)
    assert s0 == pytest.approx(0.0)
    assert s1 == pytest.approx(2.0)
    assert 2.0 < s2 < 4.0
    with pytest.raises(GeometryError):
        cell.arc_coordinate(0.5, 0.0)
