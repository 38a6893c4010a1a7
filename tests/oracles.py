"""Reference computations that the tests compare the library against."""

import numpy as np


def polar_factors(mat):
    """Polar factors (U, P) of mat = U @ P, P = (mat^dag mat)^(1/2), from the
    singular value decomposition mat = W S V^dag: U = W V^dag, P = V S V^dag."""
    w, s, vh = np.linalg.svd(mat)
    return w @ vh, (vh.conj().T * s) @ vh


def min_effect_eigenvalue(op, support_dim):
    """Smallest eigenvalue of op^dag op compressed to the lowest support_dim
    levels, from a dense Hermitian eigensolver."""
    gram = op.conj().T @ op
    return float(np.linalg.eigvalsh(gram[:support_dim, :support_dim])[0])
