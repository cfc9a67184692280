import numpy as np
import pytest

from measures import pairwise_distances
from textjscc.analysis import classical_mds, hamming_matrix
from textjscc.errors import DomainError, ShapeError


class TestHammingMatrix:
    def test_identical_pair(self):
        cw = np.array([[1, -1, 1], [1, -1, 1]])
        assert hamming_matrix(cw).tolist() == [[0, 0], [0, 0]]

    def test_complementary_pair(self):
        cw = np.array([[1, 1, 1, 1], [-1, -1, -1, -1]])
        D = hamming_matrix(cw)
        assert D[0, 1] == 4 and D[1, 0] == 4

    def test_single_difference(self):
        cw = np.array([[1, 1, -1], [1, -1, -1]])
        assert hamming_matrix(cw)[0, 1] == 1

    def test_symmetric_zero_diagonal_triangle(self):
        rng = np.random.default_rng(0)
        cw = rng.choice([-1, 1], size=(6, 16))
        D = hamming_matrix(cw)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert D[i, k] <= D[i, j] + D[j, k]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            hamming_matrix(np.array([1, -1, 1]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
    def test_matches_pairwise_comparison(self, dtype):
        rng = np.random.default_rng(3)
        cw = rng.choice([-1, 1], size=(40, 400)).astype(dtype)
        want = (cw[:, None, :] != cw[None, :, :]).sum(axis=2)
        got = hamming_matrix(cw)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [0, 2, -128, 0.5, np.nan])
    def test_entries_other_than_plus_minus_one_rejected(self, bad):
        cw = np.ones((3, 4))
        cw[1, 2] = bad
        with pytest.raises(DomainError):
            hamming_matrix(cw.astype(np.int8) if bad == -128 else cw)


class TestClassicalMds:
    def test_collinear_points(self):
        # points at 0, 3, 7 on a line
        D = np.array([[0.0, 3.0, 7.0], [3.0, 0.0, 4.0], [7.0, 4.0, 0.0]])
        coords = classical_mds(D, dim=2)
        recon = pairwise_distances(coords)
        assert np.allclose(recon, D, atol=1e-8)

    def test_unit_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        D = pairwise_distances(pts)
        coords = classical_mds(D, dim=2)
        assert np.allclose(pairwise_distances(coords), D, atol=1e-8)

    def test_random_planar_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.normal(size=(rng.integers(4, 9), 2)) * 3
            D = pairwise_distances(pts)
            coords = classical_mds(D, dim=2)
            assert np.allclose(pairwise_distances(coords), D, atol=1e-8)

    def test_duplicate_rows_coincide(self):
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 1.0], [5.0, 4.0]])
        D = pairwise_distances(pts)
        coords = classical_mds(D, dim=2)
        assert np.allclose(coords[1], coords[2], atol=1e-8)

    def test_permutation_invariant_error(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(6, 2))
        D = pairwise_distances(pts)
        perm = rng.permutation(6)
        Dp = D[np.ix_(perm, perm)]
        err = np.abs(pairwise_distances(classical_mds(D, 2)) - D).max()
        errp = np.abs(pairwise_distances(classical_mds(Dp, 2)) - Dp).max()
        assert err == pytest.approx(errp, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            classical_mds(np.zeros((2, 2)), dim=2)

    def test_hamming_input_integration(self):
        rng = np.random.default_rng(7)
        cw = rng.choice([-1, 1], size=(5, 32))
        D = hamming_matrix(cw)
        coords = classical_mds(D, dim=2)
        assert coords.shape == (5, 2)
        assert np.all(np.isfinite(coords))
