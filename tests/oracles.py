"""Reference computations that the tests compare the library against."""

import numpy as np

from photocount import (
    StateVector,
    TrajectoryStats,
    build_counter,
    build_reversing,
    verify_recovery,
)


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


def haar_states(d, n_samples, seed, dim):
    """Dense Haar states on the span of |0>, ..., |d-1>, one row of dim
    amplitudes each: i.i.d. complex Gaussian amplitudes, all real parts
    drawn before all imaginary parts, normalized in blocks of 65,536 rows.
    haar_populations must return |c_n|^2 of these rows bit for bit."""
    rng = np.random.default_rng(seed)
    states = np.zeros((n_samples, dim), dtype=complex)
    support = states[:, :d]
    support.real = rng.standard_normal((n_samples, d))
    support.imag = rng.standard_normal((n_samples, d))
    for start in range(0, n_samples, 65_536):
        block = support[start : start + 65_536]
        block /= np.linalg.norm(block, axis=1)[:, None]
    return states


def trajectory_reference(kind, gamma, ensemble, trials, seed):
    """trajectory_sim with every trial held at once and the nodes drawn by
    Generator.choice, followed by the outcome and reversal uniforms of the
    same Philox stream."""
    model = build_counter(kind, gamma, ensemble.dim)
    one_count_op = model.operator_for("1")
    rev = build_reversing(model, "1", ensemble.support_dim, eta_fraction=1.0)
    cond_one = ensemble.populations @ model.effect_for("1")[: ensemble.support_dim]
    success_given_one = np.minimum(rev.eta_sq / cond_one, 1.0)
    fidelities = np.array(
        [
            verify_recovery(StateVector(state), one_count_op, rev)["recovery_fidelity"]
            for state in ensemble.states
        ]
    )

    rng = np.random.Generator(np.random.Philox(seed))
    nodes = rng.choice(ensemble.n_samples, size=trials, p=ensemble.weights)
    u_outcome = rng.random(trials)
    u_reverse = rng.random(trials)

    one_count_mask = u_outcome < cond_one[nodes]
    success_mask = one_count_mask & (u_reverse < success_given_one[nodes])
    n_one = int(np.count_nonzero(one_count_mask))
    n_success = int(np.count_nonzero(success_mask))
    mean_fid = float(np.mean(fidelities[nodes[success_mask]])) if n_success else float("nan")
    rate = n_success / n_one if n_one else float("nan")
    return TrajectoryStats(
        trials=trials,
        one_counts=n_one,
        successes=n_success,
        mean_recovery_fidelity=mean_fid,
        empirical_success_rate=rate,
        seed=seed,
    )
