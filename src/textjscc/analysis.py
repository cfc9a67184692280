"""Codeword geometry: Hamming dissimilarities and classical (Torgerson) MDS."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


def hamming_matrix(codewords) -> np.ndarray:
    """Pairwise Hamming distances between equal-length {-1,+1} codewords C,
    as (bits - C C^T) / 2; float64 holds these integer products exactly."""
    cw = np.asarray(codewords)
    if cw.ndim != 2:
        raise ShapeError("expected a (count, bits) codeword array")
    if not np.all(np.abs(cw) == 1):
        raise DomainError("codeword entries must be -1 or +1")
    c = cw.astype(np.float64)
    return ((cw.shape[1] - c @ c.T) / 2).astype(np.int64)


def classical_mds(D: np.ndarray, dim: int = 2) -> np.ndarray:
    """Embed a dissimilarity matrix into `dim` coordinates.

    Double-centers the squared distances (B = -1/2 J D^2 J), takes the top
    eigenpairs, scales eigenvectors by sqrt(eigenvalue).  Negative
    eigenvalues, and positive ones below 1e-10 of the largest magnitude
    (round-off), clamp to zero.  Output is (n, dim).
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ShapeError(f"dissimilarity matrix must be square, got {D.shape}")
    n = D.shape[0]
    if n <= dim:
        raise DomainError(f"need more than {dim} points, got {n}")
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ (D ** 2) @ J
    evals, evecs = np.linalg.eigh(B)  # ascending
    lam = np.where(evals > 1e-10 * np.abs(evals).max(), evals, 0.0)
    return evecs[:, ::-1][:, :dim] * np.sqrt(lam[::-1][:dim])


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of a (n, d) point set."""
    pts = np.asarray(points, dtype=np.float64)
    delta = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))
