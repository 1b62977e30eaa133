import hashlib
import random
from fractions import Fraction
from xml.etree import ElementTree

import pytest

from laumut.deformation import build_family
from laumut.laurent import newton_polytope, parse
from laumut.mutation import MutationSpec
from laumut.polyhedra import hull
from laumut.render import _bbox, _clip, _fmt, render_svg

F = Fraction


@pytest.mark.parametrize("text", ["x^{e} + y + x^-1*y^-1", "x + y^{e} + x^-1*y^-1"], ids=["wide", "tall"])
def test_a_box_longer_than_max_side_is_refused(text):
    # The grid draws one line per lattice unit. The box runs from -2 to e + 1
    # along the long side and from -2 to 2 along the other.
    svg = render_svg([("edge", newton_polytope(parse(text.format(e=997))))])
    assert svg.count("<line") == 1001 + 5
    with pytest.raises(ValueError, match="exceeds 1000 a side"):
        render_svg([("over", newton_polytope(parse(text.format(e=998))))])


def test_fmt_exact():
    assert _fmt(0) == "0.000"
    assert _fmt(F(-3, 2)) == "-1.500"
    assert _fmt(F(1, 3)) == "0.333"
    assert _fmt(F(2, 3)) == "0.667"
    assert _fmt(7) == "7.000"


def test_byte_identical_output():
    p = newton_polytope(parse("x^-1 + x^-1*y + y + y^-1 + x*y^-1"))
    a = render_svg([("D", p)])
    b = render_svg([("D", p)])
    assert a == b
    assert a.startswith('<?xml version="1.0"')


def test_rejects_wrong_rank_and_empty():
    with pytest.raises(ValueError):
        render_svg([])
    with pytest.raises(ValueError):
        render_svg([("bad", hull([(F(0), F(0), F(0))]))])


def test_single_point_marker_only():
    svg = render_svg([("pt", hull([(F(2), F(1))]))])
    assert svg.count("<circle") == 1
    assert "<path" not in svg


def test_unbounded_clipped_without_marking_cut_vertices():
    p = hull([(F(0), F(0))], [(2, 1), (1, 2)])
    svg = render_svg([("tau", p)])
    # only the true vertex at the origin gets a dot
    assert svg.count("<circle") == 1
    assert "<path" in svg


def test_clip_matches_the_homogenized_clip(clip_oracle):
    # Seeded unbounded polyhedra: wedges and half-lines opening into every
    # quadrant, from one apex (often fractional) or a few points.
    rng = random.Random(35)
    kinds = set()
    for i in range(80):
        sx, sy = ((1, 1), (-1, 1), (-1, -1), (1, -1))[i % 4]
        rays = []
        while len(rays) < 1 + i // 4 % 2:
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a or b:
                rays.append((sx * a, sy * b))
        points = [(F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        p = hull(points, rays)
        kinds.add((sx, sy, len(p.rays), any(c.denominator > 1 for v in p.vertices for c in v)))
        box = _bbox([("p", p)])
        got, want = _clip(p, box), clip_oracle(p, box)
        assert (got.cone.rays, got.cone.facet_normals) == (want.cone.rays, want.cone.facet_normals)
        assert got.rays == ()
    assert len(kinds) == 16  # each quadrant: half-lines and wedges, with and without a fractional vertex


def test_family_render_has_four_labels():
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    fam = build_family(parse("x^-1*y + 2*y + x*y + y^-1"), spec)
    items = [
        ("Delta_0", fam.delta0),
        ("Delta_inf", fam.delta_inf),
        ("Delta_0^0", fam.delta00),
        ("Delta_0^1", fam.delta01),
    ]
    svg = render_svg(items)
    for label, _ in items:
        assert f">{label}</text>" in svg
    assert svg.count("<path") >= 4


def test_labels_are_escaped_as_xml_text():
    label = "a<b & c>d"
    svg = render_svg([(label, hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]))])
    root = ElementTree.fromstring(svg.encode())
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == [label]


def test_mutation_pair_render():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    g = parse("x^-1*y + y + y^-1 + x*y^-1")
    svg = render_svg([("before", newton_polytope(f)), ("after", newton_polytope(g))])
    assert ">before</text>" in svg and ">after</text>" in svg


@pytest.mark.parametrize(
    "items, digest",
    [
        ([("q", hull([(0, 0)], [(-1, 0), (0, -1)]))], "8a40ba8e736cf7557586d9d07dd6352eb98f7ee15b0b5d58d6305133951a37c0"),
        ([("r", hull([(1, 0)], [(1, 1)]))], "4f43d3ccf1fa879605135bafea5a7a0fd225f2c6452a0e6bb44483a5c3faa425"),
        ([("s", hull([(0, 0), (2, 1)]))], "11966f309a018ef7aeabc938b5003f85b16c7875f04a24505142e94460760a2d"),
        (
            [("w", hull([(F(1, 2), 0)], [(2, 1), (-1, 3)])), ("t", hull([(-1, -1), (1, 0), (0, 1)]))],
            "7089d8a0e0b00a47e93e426e1280e64342237d9ac274531de57f13738877caa4",
        ),
    ],
    ids=["quadrant", "ray", "segment", "fractional_cone_and_triangle"],
)
def test_render_svg_text_pinned(items, digest):
    # sha256 of the SVG text: unbounded items clipped at the box, a segment,
    # and a fractional apex, each with its grid and header.
    assert hashlib.sha256(render_svg(items).encode()).hexdigest() == digest
