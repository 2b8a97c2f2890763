"""Core type behavior: grids, spectra, hierarchies, libraries, cubes, mixing."""

import numpy as np
import pytest

from specid.core import (ROOT_LABEL, BandGrid, ClassHierarchy, ImageCube, Spectrum,
                         SpectralLibrary, average_pixels, extract_pixel, mix,
                         resample, resample_library)
from specid.errors import AlignmentError, BoundsError, InputError


def grid(*wl):
    return BandGrid(np.asarray(wl, dtype=float))


def test_band_grid_basics():
    g = grid(0.4, 0.5, 0.7)
    assert len(g) == 3
    assert g == grid(0.4, 0.5, 0.7)
    assert g != grid(0.4, 0.5, 0.8)
    assert hash(g) == hash(grid(0.4, 0.5, 0.7))
    assert not g.wavelengths.flags.writeable


@pytest.mark.parametrize("wl", [
    [0.5],                      # too few bands
    [0.5, 0.5, 0.6],            # not strictly increasing
    [0.6, 0.5],
    [-0.1, 0.5],                # non-positive
    [0.4, np.nan],
])
def test_band_grid_rejects(wl):
    with pytest.raises(InputError):
        BandGrid(np.asarray(wl, dtype=float))


def test_band_grid_refuses_wavelengths_that_are_not_a_vector():
    with pytest.raises(InputError, match="^wavelengths must be one-dimensional"):
        BandGrid(np.array([[0.4, 0.5], [0.6, 0.7]]))


def test_band_grid_equality_leaves_other_types_to_them():
    g = grid(0.4, 0.5, 0.7)
    assert g.__eq__((0.4, 0.5, 0.7)) is NotImplemented
    assert g != (0.4, 0.5, 0.7) and not g == "grid"


def test_spectrum_refuses_a_validity_mask_of_another_length():
    with pytest.raises(InputError, match="^validity mask of 's' does not match band count$"):
        Spectrum("s", grid(0.4, 0.5, 0.7), [1.0, 2.0, 3.0], valid=[True, False])


def test_spectrum_validation():
    g = grid(0.4, 0.5, 0.7)
    with pytest.raises(InputError):
        Spectrum("s", g, [1.0, 2.0])            # wrong length
    with pytest.raises(InputError):
        Spectrum("s", g, [1.0, np.inf, 2.0])    # non-finite
    with pytest.raises(InputError):
        Spectrum("s", g, [1, 2, 3], class_path=("A", ROOT_LABEL))
    s = Spectrum("s", g, [1, 2, 3], class_path=("A", "B"), valid=[True, False, True])
    assert s.class_path == ("A", "B")
    assert not s.values.flags.writeable
    assert list(s.valid_mask()) == [True, False, True]
    assert Spectrum("t", g, [1, 2, 3]).valid_mask().all()


class TestClassHierarchy:
    paths = [("n1", ("Fabric", "Nylon")),
             ("n2", ("Fabric", "Nylon")),
             ("c1", ("Fabric", "Cotton")),
             ("v1", ("Vegetation",))]

    def test_nodes_children_members(self):
        h = ClassHierarchy(self.paths)
        assert () in h.nodes()
        assert h.children(()) == (("Fabric",), ("Vegetation",))
        assert h.children(("Fabric",)) == (("Fabric", "Cotton"), ("Fabric", "Nylon"))
        assert h.members(("Fabric", "Nylon")) == {"n1", "n2"}
        assert h.members(()) == {"n1", "n2", "c1", "v1"}
        assert h.label(()) == ROOT_LABEL
        assert h.label(("Fabric", "Nylon")) == "Nylon"

    def test_resolve_by_label(self):
        h = ClassHierarchy(self.paths)
        assert h.members("Nylon") == {"n1", "n2"}
        assert h.members(ROOT_LABEL) == h.members(())
        assert h.has_node("Cotton")
        assert not h.has_node("Polyester")
        with pytest.raises(InputError):
            h.members("Polyester")

    def test_ambiguous_label(self):
        h = ClassHierarchy([("a", ("X", "Deep")), ("b", ("Y", "Deep"))])
        with pytest.raises(InputError):
            h.members("Deep")
        assert h.members(("X", "Deep")) == {"a"}

    def test_unknown_node_path(self):
        h = ClassHierarchy(self.paths)
        with pytest.raises(InputError, match=r"^unknown hierarchy node \('Fabric', 'Silk'\)$"):
            h.members(("Fabric", "Silk"))
        assert not h.has_node(("Fabric", "Silk"))

    def test_empty_path_rejected(self):
        with pytest.raises(InputError):
            ClassHierarchy([("a", ())])

    def test_member_union_invariant(self):
        # members(q) is the union of children members plus names whose full
        # path ends at q, for every node — checked on random hierarchies
        rng = np.random.default_rng(7)
        labels = ["A", "B", "C", "D"]
        for _ in range(25):
            named = []
            for i in range(12):
                depth = int(rng.integers(1, 4))
                path = tuple(labels[int(rng.integers(0, len(labels)))]
                             for _ in range(depth))
                named.append(("s%d" % i, path))
            h = ClassHierarchy(named)
            attached = {}
            for name, path in named:
                attached.setdefault(tuple(path), set()).add(name)
            for node in h.nodes():
                expect = set(attached.get(node, set()))
                for child in h.children(node):
                    expect |= h.members(child)
                assert h.members(node) == expect, node


class TestSpectralLibrary:
    def setup_method(self):
        self.g = grid(0.4, 0.5, 0.7, 0.9)
        self.specs = (
            Spectrum("a", self.g, [1, 2, 3, 4], ("X",)),
            Spectrum("b", self.g, [4, 3, 2, 1], ("Y",), valid=[True, True, False, True]),
        )

    def test_matrix_columns_follow_member_order(self):
        lib = SpectralLibrary(self.g, self.specs)
        m = lib.matrix()
        assert m.shape == (4, 2)
        np.testing.assert_array_equal(m[:, 0], [1, 2, 3, 4])
        np.testing.assert_array_equal(m[:, 1], [4, 3, 2, 1])
        assert lib.names == ("a", "b")
        assert lib.spectrum("b").name == "b"
        with pytest.raises(InputError):
            lib.spectrum("nope")

    def test_band_mask_folds_member_masks(self):
        lib = SpectralLibrary(self.g, self.specs)
        assert list(lib.band_mask) == [True, True, False, True]
        narrower = SpectralLibrary(self.g, self.specs,
                                   band_mask=[True, False, True, True])
        assert list(narrower.band_mask) == [True, False, False, True]

    def test_rejects(self):
        with pytest.raises(InputError):
            SpectralLibrary(self.g, ())
        dupe = self.specs + (Spectrum("a", self.g, [0, 0, 0, 1], ("Z",)),)
        with pytest.raises(InputError):
            SpectralLibrary(self.g, dupe)
        other = Spectrum("c", grid(0.4, 0.5), [1, 2], ("X",))
        with pytest.raises(AlignmentError):
            SpectralLibrary(self.g, self.specs + (other,))
        unlabeled = Spectrum("c", self.g, [1, 1, 1, 1])
        with pytest.raises(InputError):
            SpectralLibrary(self.g, self.specs + (unlabeled,))
        with pytest.raises(InputError):
            SpectralLibrary(self.g, self.specs, band_mask=[False] * 4)

    def test_rejects_a_band_mask_of_another_length(self):
        with pytest.raises(InputError, match="^band mask length 3 does not match 4 bands$"):
            SpectralLibrary(self.g, self.specs, band_mask=[True] * 3)

    def test_hierarchy_is_derived_from_members(self):
        lib = SpectralLibrary(self.g, self.specs)
        assert lib.hierarchy.members(("X",)) == {"a"}
        assert lib.hierarchy.members(()) == {"a", "b"}


def test_image_cube_shape_checks():
    g = grid(0.4, 0.5, 0.7)
    cube = ImageCube(g, np.zeros((2, 5, 3)))
    assert cube.rows == 2 and cube.cols == 5
    with pytest.raises(InputError):
        ImageCube(g, np.zeros((2, 5)))
    with pytest.raises(InputError):
        ImageCube(g, np.zeros((2, 5, 4)))       # band count mismatch
    bad = np.zeros((2, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        ImageCube(g, bad)


class TestResample:
    def test_exact_on_shared_wavelengths(self):
        # no interpolation error where the grids coincide
        src = grid(0.4, 0.6, 0.8, 1.0)
        s = Spectrum("s", src, [0.1, 0.9, 0.3, 0.7], ("X",))
        out = resample(s, grid(0.4, 0.5, 0.8, 1.0))
        assert out.values[0] == 0.1
        assert out.values[2] == 0.3
        assert out.values[3] == 0.7
        assert out.class_path == ("X",)

    def test_linear_between_bands(self):
        s = Spectrum("s", grid(1.0, 2.0), [0.0, 1.0])
        out = resample(s, grid(1.0, 1.25, 1.75, 2.0))
        np.testing.assert_allclose(out.values, [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_outside_range_marked_invalid(self):
        s = Spectrum("s", grid(0.5, 0.6, 0.7), [1.0, 2.0, 3.0])
        out = resample(s, grid(0.4, 0.55, 0.8))
        assert list(out.valid_mask()) == [False, True, False]
        assert out.values[0] == 0.0 and out.values[2] == 0.0

    def test_no_overlap(self):
        s = Spectrum("s", grid(0.4, 0.5), [1.0, 2.0])
        with pytest.raises(AlignmentError):
            resample(s, grid(1.0, 2.0))

    def test_no_valid_band(self):
        s = Spectrum("s", grid(0.4, 0.5), [1.0, 2.0], valid=[False, False])
        with pytest.raises(AlignmentError, match="^spectrum 's' has no valid bands to resample$"):
            resample(s, grid(0.4, 0.5))

    def test_source_mask_respected(self):
        # invalid source bands do not feed the interpolation
        s = Spectrum("s", grid(1.0, 1.5, 2.0), [0.0, 99.0, 1.0],
                     valid=[True, False, True])
        out = resample(s, grid(1.5,  1.75))
        np.testing.assert_allclose(out.values, [0.5, 0.75])

    def test_resample_library(self):
        g = grid(0.4, 0.6, 0.8)
        lib = SpectralLibrary(g, (Spectrum("a", g, [1, 2, 3], ("X",)),
                                  Spectrum("b", g, [3, 2, 1], ("Y",))))
        out = resample_library(lib, grid(0.5, 0.6, 0.9))
        assert out.names == ("a", "b")
        # 0.9 um is outside every member, so the folded band mask drops it
        assert list(out.band_mask) == [True, True, False]


class TestMix:
    def test_noiseless_linearity(self):
        g = grid(0.4, 0.5, 0.7)
        a = Spectrum("a", g, [1.0, 2.0, 3.0])
        b = Spectrum("b", g, [0.5, 0.5, 0.5])
        out = mix([(a, 0.3), (b, 0.6)])
        np.testing.assert_allclose(out.values, 0.3 * a.values + 0.6 * b.values,
                                   atol=1e-15)

    def test_seeded_noise_is_deterministic(self):
        g = grid(0.4, 0.5, 0.7)
        a = Spectrum("a", g, [1.0, 2.0, 3.0])
        one = mix([(a, 1.0)], noise_sigma=0.05, seed=11)
        two = mix([(a, 1.0)], noise_sigma=0.05, seed=11)
        other = mix([(a, 1.0)], noise_sigma=0.05, seed=12)
        np.testing.assert_array_equal(one.values, two.values)
        assert not np.array_equal(one.values, other.values)

    def test_rejects(self):
        g = grid(0.4, 0.5, 0.7)
        a = Spectrum("a", g, [1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            mix([])
        with pytest.raises(InputError):
            mix([(a, 1.0)], noise_sigma=-0.1)
        b = Spectrum("b", grid(0.4, 0.5), [1.0, 2.0])
        with pytest.raises(AlignmentError):
            mix([(a, 0.5), (b, 0.5)])

    def test_component_masks_fold(self):
        g = grid(0.4, 0.5, 0.7)
        a = Spectrum("a", g, [1, 1, 1], valid=[True, False, True])
        out = mix([(a, 1.0)])
        assert list(out.valid_mask()) == [True, False, True]


def test_extract_and_average_pixels():
    g = grid(0.4, 0.5, 0.7)
    data = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    cube = ImageCube(g, data)
    px = extract_pixel(cube, 1, 2)
    np.testing.assert_array_equal(px.values, data[1, 2])
    with pytest.raises(BoundsError):
        extract_pixel(cube, 2, 0)
    with pytest.raises(BoundsError):
        extract_pixel(cube, 0, -1)
    avg = average_pixels(cube, [(0, 0), (1, 2)])
    np.testing.assert_allclose(avg.values, (data[0, 0] + data[1, 2]) / 2.0)
    with pytest.raises(InputError):
        average_pixels(cube, [])
    with pytest.raises(BoundsError):
        average_pixels(cube, [(0, 0), (5, 5)])
