"""Independent references for the result checks.

Propagators come from ``scipy.linalg.expm`` and every family quantity from
dense numpy over whole index tensors, so no reference shares code with the
per-history loops in ``qcontour``.

A run computes its references in a child process while it prepares, so
that scipy and the reference tensors stay out of the measured process and
its peak memory:

    python3 perfbench/reference.py WORKLOAD SEED

writes the workload's reference arrays to standard output as one ``.npz``
(see ``workloads.load_references``).
"""

from __future__ import annotations

import io
import sys

import numpy as np
from scipy.linalg import expm

import workloads


def _propagators(model):
    return [expm(-1j * h * (b - a))
            for a, b, h in zip(model.times, model.times[1:], model.hams)]


def _transitions(model):
    """A_i = B_{i+1}^dag U_i B_i, with the pinned first slot as one column."""
    us = _propagators(model)
    cols = [model.prep[:, None]] + list(model.bases[1:])
    return [cols[i + 1].conj().T @ u @ cols[i] for i, u in enumerate(us)]


def _chain_tensor(mats):
    """out[i_1, ..., i_n] = prod_k mats[k][i_k, i_{k-1}], with i_0 = 0."""
    out = mats[0][:, 0]
    for m in mats[1:]:
        out = out[..., None] * m.T
    return out


def transfer_chain(model):
    """Weights of a family with only its first time pinned, and their sum.

    T_i = |B_{i+1}^dag U_i B_i|^2 elementwise; the weight tensor is the
    outer-product chain of the T_i and the normalization the matrix chain
    1^T T_{n} ... T_1 T_0 e_0.
    """
    ts = [np.abs(a) ** 2 for a in _transitions(model)]
    vec = ts[0][:, 0]
    for t in ts[1:]:
        vec = t @ vec
    return _chain_tensor(ts), float(vec.sum())


def max_record_overlap(model):
    """Largest off-diagonal |<record_j|record_i>| of a first-pinned family.

    The record of a history is its Heisenberg projector chain applied to
    the preparation: U_N^dag |b_N> times the product of its segment
    amplitudes, with U_N the propagator from the first to the last time.
    """
    amps = _chain_tensor(_transitions(model)).reshape(-1)
    u_total = np.eye(model.dim, dtype=complex)
    for u in _propagators(model):
        u_total = u @ u_total
    finals = u_total.conj().T @ model.bases[-1]
    last = np.arange(amps.size) % model.dim
    records = finals[:, last] * amps
    gram = np.abs(records.conj().T @ records)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def born_probabilities(h, psi, basis):
    """|<phi_k| exp(-i H) |psi>|^2 for each basis vector phi_k."""
    evolved = expm(-1j * h) @ psi
    return np.abs(np.array(basis).conj() @ evolved) ** 2


def _family_large(seed):
    weights, normalization = transfer_chain(workloads.FamilyLarge.raw(seed))
    return {"weights": weights, "normalization": np.float64(normalization)}


def _family_checks(seed):
    model = workloads.FamilyChecks.raw(seed)
    return {"max_offdiagonal": np.float64(max_record_overlap(model))}


def _small_sweep(seed):
    return {f"born{k}": born_probabilities(m.born_h, m.born_psi, m.born_basis)
            for k, m in enumerate(workloads.sweep_pool(seed))}


#: the reference arrays of each workload that checks against one
COMPUTE = {"family_large": _family_large, "family_checks": _family_checks,
           "small_sweep": _small_sweep}


def main(argv) -> int:
    name, seed = argv
    buffer = io.BytesIO()
    np.savez(buffer, **COMPUTE[name](int(seed)))
    sys.stdout.buffer.write(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
