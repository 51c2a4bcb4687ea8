import math

import numpy as np
import pytest

from bse import mesh
from bse.errors import InvalidArgumentError, InvariantViolationError, ParseError


def polygon_area(n):
    return (n / 2.0) * math.sin(2.0 * math.pi / n)


def polygon_perimeter(n):
    return 2.0 * n * math.sin(math.pi / n)


def test_disk_8_measures_match_polygon_formulas():
    m = mesh.generate_disk(8, 0)
    assert m.n_surface == 8
    mm = mesh.measures(m)
    assert mm.area == pytest.approx(polygon_area(8), rel=1e-12)
    assert mm.perimeter == pytest.approx(polygon_perimeter(8), rel=1e-12)
    assert mm.perimeter == pytest.approx(6.1229349, abs=1e-6)
    assert mm.area == pytest.approx(2.8284271, abs=1e-6)


@pytest.mark.parametrize("n,r", [(8, 0), (8, 3), (16, 2), (64, 1)])
def test_surface_count_doubles_per_refinement(n, r):
    assert mesh.generate_disk(n, r).n_surface == n * 2 ** r


def test_disk_64_refine2_close_to_circle():
    mm = mesh.measures(mesh.generate_disk(64, 2))
    assert abs(mm.area / math.pi - 1) < 1e-3
    assert abs(mm.perimeter / (2 * math.pi) - 1) < 1e-3


def test_refined_measures_match_polygon_formulas():
    # refined boundary is again an inscribed regular polygon
    mm = mesh.measures(mesh.generate_disk(16, 2))
    assert mm.perimeter == pytest.approx(polygon_perimeter(64), rel=1e-12)


def test_square_small_counts():
    m = mesh.generate_square(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    assert m.n_surface == 8
    mm = mesh.measures(m)
    assert mm.area == 1.0
    assert mm.perimeter == 4.0


def test_square_exact_measures_any_n():
    for n in (2, 3, 7, 16):
        mm = mesh.measures(mesh.generate_square(n))
        assert mm.area == pytest.approx(1.0, abs=1e-15)
        assert mm.perimeter == pytest.approx(4.0, abs=1e-15)


def test_square_4_euler_counts():
    m = mesh.generate_square(4)
    assert m.n_vertices == 25
    assert m.n_triangles == 32
    edges = set()
    for t in m.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edges.add((min(a, b), max(a, b)))
    assert len(edges) == 56
    assert 25 - 56 + 32 == 1


def test_single_reference_triangle_measures():
    m = mesh.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([[0, 1, 2]]), np.array([0, 1, 2]))
    assert mesh.measures(m).area == pytest.approx(0.5, abs=1e-15)


def test_generator_argument_validation():
    with pytest.raises(InvalidArgumentError):
        mesh.generate_disk(7, 0)
    with pytest.raises(InvalidArgumentError):
        mesh.generate_disk(8, -1)
    with pytest.raises(InvalidArgumentError):
        mesh.generate_square(1)


def test_roundtrip_identity(tmp_path, per_line_write_mesh):
    m = mesh.generate_disk(16, 0)
    path = tmp_path / "disk.txt"
    mesh.write_mesh(m, path)
    m2 = mesh.read_mesh(path)
    np.testing.assert_array_equal(m.vertices, m2.vertices)
    np.testing.assert_array_equal(m.triangles, m2.triangles)
    np.testing.assert_array_equal(m.surface_nodes, m2.surface_nodes)
    # the whole-table writer writes the bytes of the per-line one
    ref = tmp_path / "ref.txt"
    for m in [mesh.generate_disk(16, r) for r in range(3)] + [mesh.generate_square(4)]:
        mesh.write_mesh(m, path)
        per_line_write_mesh(m, ref)
        assert path.read_bytes() == ref.read_bytes()


def test_read_rejects_zero_area_triangle(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "bse-mesh 1\nvertices 3\n0 0\n1 0\n2 0\ntriangles 1\n0 1 2\nsurface 3\n0\n1\n2\n")
    with pytest.raises(InvariantViolationError, match="area"):
        mesh.read_mesh(path)


def test_read_rejects_two_boundary_loops(tmp_path):
    # two disjoint triangles cannot form a single closed boundary cycle
    path = tmp_path / "two.txt"
    path.write_text(
        "bse-mesh 1\nvertices 6\n0 0\n1 0\n0 1\n5 5\n6 5\n5 6\n"
        "triangles 2\n0 1 2\n3 4 5\nsurface 6\n0\n1\n2\n3\n4\n5\n")
    with pytest.raises(InvariantViolationError):
        mesh.read_mesh(path)


def test_read_bad_header_reports_line(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("not-a-mesh\n")
    with pytest.raises(ParseError, match="line 1"):
        mesh.read_mesh(path)


def test_read_bad_float_reports_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("bse-mesh 1\nvertices 1\n0 zap\ntriangles 0\nsurface 0\n")
    with pytest.raises(ParseError, match="line 3"):
        mesh.read_mesh(path)


@pytest.mark.parametrize("data,line", [
    (b"bse-mesh 1\nvertices 1\n0 \xe9\ntriangles 0\nsurface 0\n", 3),
    (b"bse-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n", 7),
    (b"bse-mesh 1\nvertices 0\ntriangles 0\nsurface 1\n-99999999999999999999\n", 5),
], ids=["non-ascii", "triangle-beyond-int64", "surface-beyond-int64"])
def test_read_malformed_line_reports_line(tmp_path, data, line):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"line {line}"):
        mesh.read_mesh(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(tmp_path, bad):
    m = mesh.generate_disk(8, 0)
    v = m.vertices.copy()
    v[4, 1] = bad
    with pytest.raises(InvariantViolationError, match="vertex 4 has non-finite"):
        mesh.Mesh(v, m.triangles, m.surface_nodes)
    path = tmp_path / "m.txt"
    path.write_text(f"bse-mesh 1\nvertices 3\n0 0\n1 0\n{bad} 1\n"
                    "triangles 1\n0 1 2\nsurface 3\n0\n1\n2\n")
    with pytest.raises(InvariantViolationError, match="vertex 2 has non-finite"):
        mesh.read_mesh(path)


# finite vertices whose measures overflow: a signed area of inf - inf, a
# signed area of inf, three finite areas of 7.3e307 that sum to inf, and a
# finite area (5e7) whose boundary sums to inf
_R = 1.3e154
OVERFLOWING_MESHES = {
    "nan": ([[0.0, 0.0], [1e308, 1e308], [1e308, 1e308]], [[0, 1, 2]], [0, 1, 2],
            "triangle 0 has signed area nan"),
    "inf": ([[0.0, 0.0], [1e308, 0.0], [0.0, 1e308]], [[0, 1, 2]], [0, 1, 2],
            "triangle 0 has signed area inf"),
    "total-area": ([[0.0, 0.0]] + [[_R * math.cos(t), _R * math.sin(t)]
                                   for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)],
                   [[0, 1, 2], [0, 2, 3], [0, 3, 1]], [1, 2, 3], "overflow: .*area=inf"),
    "perimeter": ([[0.0, 0.0], [1e308, 0.0], [1e308, 1e-300]], [[0, 1, 2]], [0, 1, 2],
                  "overflow: .*perimeter=inf"),
}


def overflowing_mesh_text(case):
    v, t, s, _ = OVERFLOWING_MESHES[case]
    return (f"bse-mesh 1\nvertices {len(v)}\n" + "".join(f"{x!r} {y!r}\n" for x, y in v)
            + f"triangles {len(t)}\n" + "".join(f"{i} {j} {k}\n" for i, j, k in t)
            + f"surface {len(s)}\n" + "".join(f"{i}\n" for i in s))


@pytest.mark.parametrize("case", list(OVERFLOWING_MESHES))
def test_non_finite_area_rejected(tmp_path, case):
    v, t, s, match = OVERFLOWING_MESHES[case]
    assert np.isfinite(v).all()
    with pytest.raises(InvariantViolationError, match=match):
        mesh.Mesh(v, t, s)
    path = tmp_path / "m.txt"
    path.write_text(overflowing_mesh_text(case))
    with pytest.raises(InvariantViolationError, match=match):
        mesh.read_mesh(path)


@pytest.mark.parametrize("text,line", [
    ("bse-mesh 1\nvertices -3\n", 2),
    ("bse-mesh 1\nvertices 0\ntriangles 0\nsurface -1\n", 4),
], ids=["vertices", "surface"])
def test_read_negative_count_reports_line(tmp_path, text, line):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"line {line}"):
        mesh.read_mesh(path)


@pytest.mark.parametrize("text,line", [
    ("bse-mesh 1\nvertices 100000000000\n", 2),
    ("bse-mesh 1\nvertices 0\ntriangles 3\n0 1 2\nsurface 0\n", 3),
    ("bse-mesh 1\nvertices 0\ntriangles 0\nsurface 100000000000\n0\n", 4),
], ids=["vertices", "triangles", "surface"])
def test_read_count_beyond_file_reports_line(tmp_path, text, line):
    # rejected on the count's line before the section is allocated
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"bad count .*lines left.*line {line}"):
        mesh.read_mesh(path)


def test_read_rejects_trailing_content(tmp_path):
    path = tmp_path / "disk.txt"
    mesh.write_mesh(mesh.generate_disk(8, 0), path)
    text = path.read_text()
    n_lines = len(text.splitlines())
    path.write_text(text + "\n  \n")  # trailing blank lines are allowed
    assert mesh.read_mesh(path).n_vertices == 9
    path.write_text(text + "\n  \ngarbage here\n")
    with pytest.raises(ParseError, match=f"after the surface section.*line {n_lines + 3}"):
        mesh.read_mesh(path)


@pytest.mark.parametrize("n", [16, 64])
def test_aspect_ratio_bounded_across_refinement(n):
    base = mesh.triangle_aspect_ratios(mesh.generate_disk(n, 0)).max()
    for r in (1, 2):
        ratio = mesh.triangle_aspect_ratios(mesh.generate_disk(n, r)).max()
        assert ratio <= 1.25 * base


def test_mesh_arrays_immutable():
    m = mesh.generate_disk(8, 0)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_surface_arclength_monotone():
    m = mesh.generate_disk(16, 0)
    s = m.surface_arclength()
    assert s[0] == 0.0
    assert np.all(np.diff(s) > 0)
    total = s[-1] + m.surface_lengths()[-1]
    assert total == pytest.approx(mesh.measures(m).perimeter, rel=1e-13)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_refine_matches_dict_refine(dict_refine, r):
    expected = mesh.generate_disk(64, 0)
    for _ in range(r):
        expected = dict_refine(expected, project_unit_circle=True)
    got = mesh.generate_disk(64, r)
    for name in ("vertices", "triangles", "surface_nodes"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert getattr(got, name).dtype == getattr(expected, name).dtype


def test_refinement_keeps_its_hierarchy():
    fine = mesh.generate_disk(16, 2)
    coarse = fine.parent
    assert coarse.parent.parent is None and coarse.parent.prolongation is None
    nv, ns, nvf = coarse.n_vertices, coarse.n_surface, fine.n_vertices
    p = fine.prolongation
    assert p.shape == (nvf + fine.n_surface, nv + ns)
    np.testing.assert_array_equal(p.sum(axis=1), 1.0)
    # old vertices keep their numbers; interior midpoints sit halfway between
    # the two vertices they average, boundary ones are moved onto the circle
    np.testing.assert_array_equal(p[:nv].toarray(), np.eye(nv, nv + ns))
    assert p[:nvf, nv:].nnz == 0 and p[nvf:, :nv].nnz == 0
    mid = p[:nvf, :nv] @ coarse.vertices
    boundary = np.isin(np.arange(nvf), fine.surface_nodes)
    np.testing.assert_allclose(fine.vertices[~boundary], mid[~boundary], rtol=0, atol=1e-15)
    np.testing.assert_allclose(fine.vertices[boundary],
                               mid[boundary] / np.hypot(*mid[boundary].T)[:, None], atol=1e-15)
    # surface node i becomes 2i; 2i + 1 averages nodes i and i + 1, and
    # sits at the projected midpoint of their edge
    np.testing.assert_array_equal(fine.surface_nodes[0::2], coarse.surface_nodes)
    mid = p[nvf:, nv:] @ coarse.vertices[coarse.surface_nodes]
    np.testing.assert_allclose(fine.vertices[fine.surface_nodes],
                               mid / np.hypot(*mid.T)[:, None], rtol=0, atol=1e-15)
    assert np.all(np.diff(p[nvf:].indptr) == np.tile([1, 2], ns))
    assert mesh.generate_square(4).parent is None


@pytest.mark.parametrize("n", [2, 3, 8])
def test_generate_square_matches_loop_generator(loop_square, n):
    expected = loop_square(n)
    got = mesh.generate_square(n)
    for name in ("vertices", "triangles", "surface_nodes"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert getattr(got, name).dtype == getattr(expected, name).dtype


# unit square split along its diagonal: boundary cycle 0-1-2-3
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_TRIS = np.array([[0, 1, 2], [0, 2, 3]])


def test_square_of_two_triangles_is_valid():
    m = mesh.Mesh(SQUARE, SQUARE_TRIS, np.array([0, 1, 2, 3]))
    assert mesh.measures(m).area == 1.0


def test_rejects_non_manifold_edge():
    # three triangles share the edge 0-1
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
    with pytest.raises(InvariantViolationError, match="non-manifold"):
        mesh.Mesh(verts, tris, np.array([0, 4, 1, 3]))


def test_rejects_repeated_surface_node():
    with pytest.raises(InvariantViolationError, match="visits a node twice"):
        mesh.Mesh(SQUARE, SQUARE_TRIS, np.array([0, 1, 2, 3, 0]))


def test_rejects_repeated_cycle_edge():
    with pytest.raises(InvariantViolationError, match="repeated edge"):
        mesh.Mesh(SQUARE, SQUARE_TRIS, np.array([0, 1]))


def test_rejects_cycle_not_matching_boundary():
    # the right vertices, in an order that crosses the diagonal
    with pytest.raises(InvariantViolationError, match="does not match"):
        mesh.Mesh(SQUARE, SQUARE_TRIS, np.array([0, 2, 1, 3]))


def test_rejects_trace_map_missing_boundary_vertex():
    with pytest.raises(InvariantViolationError, match="bijection"):
        mesh.Mesh(SQUARE, SQUARE_TRIS, np.array([0, 1, 2]))


def test_rejects_euler_characteristic_other_than_one():
    # an unused vertex passes every other check
    verts = np.vstack([SQUARE, [[5.0, 5.0]]])
    with pytest.raises(InvariantViolationError, match="Euler"):
        mesh.Mesh(verts, SQUARE_TRIS, np.array([0, 1, 2, 3]))
