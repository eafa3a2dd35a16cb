"""The four benchmark workloads: seeded inputs, one timed unit, result checks.

Every workload draws its inputs from the workload seed with the benchmark's
own generator (numpy Philox via ``SeedSequence``), never through
``qcontour.sampling``, so the program receives only raw arrays or a model
file.  Each unit builds its program objects fresh (``HamiltonianSchedule``,
``FamilySpec``, ``FixedPoint`` or ``load_model``): a user pays the
eigendecomposition-cache fill and input validation once per model, and a
cache kept on a schedule object must not win by surviving between units.

Checks run outside the timed region and compare each unit's output with an
independent reference from ``reference.py`` within a tolerance, never with a
bit digest, so a change that alters rounding but not the answer still passes.
The references are computed in a child process (``load_references``), so
the measured process never imports scipy.

Why each workload exists (later changes cite them by name):

``family_large``
    d=8, N_t=5, one pinned time, so H = 8**4 = 4096 histories.  The O(H)
    closed-form path at the largest H: ``propagate`` is called H*(N_t-1) =
    16 384 times over only 4 distinct intervals, so propagator caching,
    index-only families and a transfer-matrix engine show here.  It runs no
    oracle, envariance, CLI or pairwise work.
``verify_cli``
    d=4, N_t=5, both endpoints pinned, so H = 4**3 = 64.  ``qcontour verify
    MODEL --format structured`` in-process with default flags (8 sub-steps,
    100 000 trials, tol 1e-10).  ``measure_of_existence`` re-sums the whole
    family per history (H + H*(H+1) = 4224 ``delta_psi`` calls), then the
    contour walk, the collapse chain with ``condition_on_final`` and 100k
    Monte Carlo draws.  The user-facing L5 path; an O(H**2) -> O(H) verify
    shows here.
``family_checks``
    d=4, N_t=5, one pinned time, so H = 256.  ``enumerate_family``,
    ``validate_family`` and ``decoherence_report``: the pairwise O(H**2)
    paths (H*(H-1)/2 = 32 640 ``history_inner`` calls) that no CLI command
    reaches, using histories in pairs rather than building them.
``small_sweep``
    A stream of tiny models, one per unit: a two-point Born family with d
    cycling through 2..8 (``measure_report``, ``born_probability`` per
    outcome, ``sequential_chain``, ``monte_carlo_sample`` at 10k draws), a
    three-time bundle with d cycling through 2..4 in all four
    ``DecompositionMode``s, and ``check_envariance`` on an equal-amplitude
    pair under a random Schmidt permutation.  The acceptance suite's
    traffic: caches start cold and input validation dominates, so a change
    that buys per-history speed with per-model set-up shows as a loss here.
    The stream cycles through ``SWEEP_POOL`` = 63 models per seed (nine
    rounds of the seven Born dimensions, 21 rounds of the three bundle
    dimensions), so per-unit counts do not depend on the seed.  The pool is
    finite because the 5-sigma Monte Carlo band has a false-alarm rate of
    about 9e-6 per unit at 10k draws (exact binomial tails over Haar-random
    Born probabilities); an unbounded stream of ~5000 units per run would
    flag a few percent of runs by chance alone.  A cache keyed on matrix
    contents would see each model again after 63 units; review such a
    change against that.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: default workload seed, and the hold-out seed a later gain must also hold on
DEFAULT_SEED = 1
HOLDOUT_SEED = 271828

#: models in the small_sweep cycle; a multiple of 7 (Born d) and 3 (bundle d)
SWEEP_POOL = 63
#: Monte Carlo draws per small_sweep unit
SWEEP_DRAWS = 10_000

#: absolute tolerances of the result checks
TOL_EXACT = 1e-12
TOL_CHAIN = 1e-10


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        [int(seed), *stream])))


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def _state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _columns(u):
    return tuple(u[:, k].copy() for k in range(u.shape[1]))


@dataclass(frozen=True)
class RawModel:
    """A seeded multi-time model as plain arrays.

    ``bases[i]`` is a unitary whose columns are the basis at ``times[i]``;
    ``hams[i]`` is the generator on [times[i], times[i+1]].
    """

    times: tuple[float, ...]
    hams: tuple[np.ndarray, ...]
    bases: tuple[np.ndarray, ...]
    prep: np.ndarray
    final: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.prep.size

    @property
    def basis_vectors(self):
        return tuple(_columns(b) for b in self.bases)


def raw_model(seed: int, stream: int, dim: int, n_times: int,
              s_t: int) -> RawModel:
    """Random grid in [0, 2], Gaussian generators, Haar bases and states."""
    rng = _rng(seed, stream)
    times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    while np.min(np.diff(times)) < 1e-2:
        times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    hams = tuple(_hermitian(rng, dim) for _ in range(n_times - 1))
    bases = tuple(_haar_unitary(rng, dim) for _ in range(n_times))
    prep = _state(rng, dim)
    final = _state(rng, dim) if s_t == 2 else None
    return RawModel(tuple(float(t) for t in times), hams, bases, prep, final)


def _pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec)]


def model_document(model: RawModel) -> dict:
    """The model in the JSON model-file schema read by ``qcontour``."""
    doc = {
        "dim": model.dim,
        "grid": list(model.times),
        "hamiltonian": [
            {"t_start": a, "t_end": b, "matrix": [_pairs(row) for row in h]}
            for a, b, h in zip(model.times, model.times[1:], model.hams)],
        "bases": [[_pairs(b[:, k]) for k in range(model.dim)]
                  for b in model.bases],
        "constraints": [{"time": model.times[0], "state": _pairs(model.prep),
                         "label": "prep"}],
    }
    if model.final is not None:
        doc["constraints"].append({"time": model.times[-1],
                                   "state": _pairs(model.final),
                                   "label": "final"})
    return doc


def load_references(workload: str, seed: int) -> dict[str, np.ndarray]:
    """The workload's reference arrays, computed by ``reference.py`` in a
    child process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), workload, str(seed)],
        stdout=subprocess.PIPE, check=True, timeout=120)
    with np.load(io.BytesIO(done.stdout)) as data:
        return {key: data[key] for key in data.files}


def build_schedule(qc, model: RawModel):
    return qc.HamiltonianSchedule(
        [(a, b, h) for a, b, h in zip(model.times, model.times[1:],
                                      model.hams)])


def build_spec(qc, model: RawModel, basis_vectors):
    constraints = [qc.FixedPoint(model.times[0], model.prep, "prep")]
    if model.final is not None:
        constraints.append(qc.FixedPoint(model.times[-1], model.final,
                                         "final"))
    return qc.FamilySpec(times=model.times, bases=basis_vectors,
                         constraints=tuple(constraints))


class Checks:
    """Tally of result checks; a failed check keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def close(self, value: float, ref: float, tol: float, what: str) -> None:
        gap = abs(value - ref)
        self.expect(bool(gap <= tol), f"{what}: |{value!r} - {ref!r}| = "
                    f"{gap:.3e} > {tol:g}")


class Workload:
    """One seeded workload.

    ``prepare`` makes the run's inputs outside the timed region;
    ``unit_input(k)`` gives the raw input of unit k; ``run_unit`` is the
    timed call into the program; ``check`` tallies result checks against
    the independent reference; ``histories(inp)`` is the number of
    histories whose weight or check one unit produces.
    """

    name = ""
    #: units in a traced run; fixed so its counts repeat exactly
    traced_units = 3
    #: shape of the seeded model: generator stream, d, N_t and pinned times
    stream = dim = n_times = s_t = 0

    def __init__(self, qc, seed: int, workdir: Path):
        self.qc = qc
        self.seed = seed
        self.workdir = workdir

    @classmethod
    def raw(cls, seed: int) -> RawModel:
        return raw_model(seed, cls.stream, cls.dim, cls.n_times, cls.s_t)

    def prepare(self) -> None:
        raise NotImplementedError

    def unit_input(self, k: int):
        raise NotImplementedError

    def run_unit(self, inp):
        raise NotImplementedError

    def check(self, inp, out, checks: Checks) -> None:
        raise NotImplementedError

    def histories(self, inp) -> int:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class FamilyLarge(Workload):
    name = "family_large"
    stream, dim, n_times, s_t = 1, 8, 5, 1

    def prepare(self):
        self.model = self.raw(self.seed)
        self.basis_vectors = self.model.basis_vectors
        ref = load_references(self.name, self.seed)
        self.reference = ref["weights"], float(ref["normalization"])

    def unit_input(self, k):
        return self.model

    def run_unit(self, model):
        qc = self.qc
        sched = build_schedule(qc, model)
        spec = build_spec(qc, model, self.basis_vectors)
        fam = qc.enumerate_family(spec)
        return qc.measure_report(fam, sched)

    def check(self, model, report, checks):
        weights, normalization = self.reference
        checks.close(report.normalization, normalization, TOL_EXACT,
                     "normalization")
        choices = np.array([e.choices for e in report.entries])
        ref = weights[tuple(choices.T)]
        got = np.array([e.delta_psi for e in report.entries])
        measures = np.array([e.measure for e in report.entries])
        checks.expect(len(report.entries) == weights.size,
                      f"{len(report.entries)} entries, expected "
                      f"{weights.size}")
        checks.close(float(np.max(np.abs(got - ref))), 0.0, TOL_EXACT,
                     "max weight gap")
        checks.close(float(np.max(np.abs(measures - ref / normalization))),
                     0.0, TOL_EXACT, "max measure gap")

    def histories(self, model):
        return self.dim ** (self.n_times - 1)


class VerifyCli(Workload):
    name = "verify_cli"
    stream, dim, n_times, s_t = 2, 4, 5, 2

    def prepare(self):
        self.path = self.workdir / f"verify_cli-model-{self.seed}.json"
        self.path.write_text(json.dumps(model_document(self.raw(self.seed))),
                             encoding="utf-8")

    def unit_input(self, k):
        return str(self.path)

    def run_unit(self, path):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.qc.cli.main(["verify", path, "--format",
                                     "structured"])
        return code, buffer.getvalue()

    def check(self, path, out, checks):
        code, text = out
        checks.expect(code == 0, f"verify exit code {code}")
        doc = json.loads(text)
        checks.expect(doc.get("all_pass") is True, "verify all_pass")
        rows = doc.get("models", [])
        checks.expect(len(rows) == 1 and rows[0].get("n_histories")
                      == self.histories(path), "verify history count")

    def histories(self, path):
        return self.dim ** (self.n_times - 2)

    def cleanup(self):
        self.path.unlink(missing_ok=True)


class FamilyChecks(Workload):
    name = "family_checks"
    stream, dim, n_times, s_t = 3, 4, 5, 1

    def prepare(self):
        self.model = self.raw(self.seed)
        self.basis_vectors = self.model.basis_vectors
        self.max_offdiagonal = float(load_references(
            self.name, self.seed)["max_offdiagonal"])

    def unit_input(self, k):
        return self.model

    def run_unit(self, model):
        qc = self.qc
        sched = build_schedule(qc, model)
        spec = build_spec(qc, model, self.basis_vectors)
        fam = qc.enumerate_family(spec)
        valid = qc.validate_family(fam)
        deco = qc.decoherence_report(fam, sched, model.prep)
        return len(fam.histories), valid, deco

    def check(self, model, out, checks):
        count, valid, deco = out
        checks.expect(count == self.histories(model),
                      f"{count} histories, expected {self.histories(model)}")
        checks.expect(valid.valid, "validate_family reported violations")
        checks.close(deco.max_offdiagonal, self.max_offdiagonal, TOL_EXACT,
                     "max off-diagonal")

    def histories(self, model):
        return self.dim ** (self.n_times - 1)


@dataclass(frozen=True)
class SweepModel:
    """Raw inputs of one small_sweep unit."""

    born_h: np.ndarray
    born_psi: np.ndarray
    born_basis: tuple[np.ndarray, ...]
    mc_seed: int
    bundle_times: tuple[float, float, float]
    bundle_hams: tuple[np.ndarray, np.ndarray]
    bundle_past: tuple[np.ndarray, ...]
    bundle_pivot: np.ndarray
    bundle_future: tuple[np.ndarray, ...]
    env_dim: int
    env_amplitudes: np.ndarray
    env_perm: tuple[int, ...]
    env_phases: np.ndarray


def sweep_model(seed: int, k: int) -> SweepModel:
    rng = _rng(seed, 4, k)
    d = 2 + k % 7
    born_h = _hermitian(rng, d)
    born_psi = _state(rng, d)
    born_basis = _columns(_haar_unitary(rng, d))
    mc_seed = int(rng.integers(0, 2 ** 31))
    db = 2 + k % 3
    mid, end = sorted(rng.uniform(0.1, 2.0, size=2))
    bundle_times = (0.0, float(mid), float(mid + end))
    bundle_hams = (_hermitian(rng, db), _hermitian(rng, db))
    bundle_past = _columns(_haar_unitary(rng, db))
    bundle_pivot = _state(rng, db)
    bundle_future = _columns(_haar_unitary(rng, db))
    n = 2 + k % 3
    a, b = _haar_unitary(rng, n), _haar_unitary(rng, n)
    phases = rng.uniform(0.0, 2 * np.pi, size=n)
    env = (a * np.exp(1j * phases)) @ b.T / math.sqrt(n)
    return SweepModel(born_h, born_psi, born_basis, mc_seed, bundle_times,
                      bundle_hams, bundle_past, bundle_pivot, bundle_future,
                      n, env.reshape(-1), tuple(int(i) for i in
                                               rng.permutation(n)),
                      rng.uniform(0.0, 2 * np.pi, size=n))


def sweep_pool(seed: int) -> list[SweepModel]:
    return [sweep_model(seed, k) for k in range(SWEEP_POOL)]


class SmallSweep(Workload):
    name = "small_sweep"
    traced_units = SWEEP_POOL

    def prepare(self):
        self.pool = sweep_pool(self.seed)
        ref = load_references(self.name, self.seed)
        self.born_refs = [ref[f"born{k}"] for k in range(SWEEP_POOL)]

    def unit_input(self, k):
        return k % SWEEP_POOL

    def run_unit(self, k):
        qc, m = self.qc, self.pool[k]
        sched = qc.HamiltonianSchedule.constant(m.born_h, 0.0, 1.0)
        basis = m.born_basis
        spec = qc.FamilySpec(times=(0.0, 1.0), bases=(basis, basis),
                             constraints=(qc.FixedPoint(0.0, m.born_psi,
                                                        "prep"),))
        report = qc.measure_report(qc.enumerate_family(spec), sched)
        born = [qc.born_probability(m.born_psi, 0.0, phi, 1.0, sched)
                for phi in basis]
        dist = qc.sequential_chain(m.born_psi, [basis], [1.0], sched,
                                   t_prep=0.0)
        table = qc.monte_carlo_sample(dist, SWEEP_DRAWS, m.mc_seed)

        t1, t, t2 = m.bundle_times
        bsched = qc.HamiltonianSchedule([(t1, t, m.bundle_hams[0]),
                                         (t, t2, m.bundle_hams[1])])
        bundle = qc.ToyBundle(
            past=tuple(qc.FixedPoint(t1, v, str(i))
                       for i, v in enumerate(m.bundle_past)),
            pivot=qc.FixedPoint(t, m.bundle_pivot, "pivot"),
            future=tuple(qc.FixedPoint(t2, v, str(i))
                         for i, v in enumerate(m.bundle_future)))
        totals = [qc.decompose_total_measure(bundle, bsched, mode).total
                  for mode in qc.DecompositionMode]

        psi = qc.BipartiteState(m.env_dim, m.env_dim, m.env_amplitudes)
        form = qc.schmidt_decompose(psi)
        u_a = sum(np.exp(1j * m.env_phases[i]) * np.outer(
            form.basis_a[j], form.basis_a[i].conj())
            for i, j in enumerate(m.env_perm))
        verdict = qc.check_envariance(psi, u_a)
        return report, born, dist, table, totals, verdict

    def check(self, k, out, checks):
        report, born, dist, table, totals, verdict = out
        ref = self.born_refs[k]
        measures = [e.measure for e in report.entries]
        checks.expect(len(measures) == ref.size, "Born family size")
        for i, (mu, p) in enumerate(zip(measures, ref)):
            checks.close(mu, p, TOL_EXACT, f"measure {i} vs Born")
            checks.close(born[i], p, TOL_EXACT, f"born_probability {i}")
        for (seq, p), mu in zip(dist.outcomes, measures):
            checks.close(p, mu, TOL_CHAIN, f"chain {seq} vs measure")
        for row, p in zip(table.rows, ref):
            band = 5.0 * math.sqrt(p * (1.0 - p) / table.n)
            checks.expect(abs(row.count / table.n - p) <= band,
                          f"Monte Carlo row {row.key} outside its band")
        checks.close(max(totals) - min(totals), 0.0, TOL_EXACT,
                     "decomposition total spread")
        checks.expect(verdict.envariant, "equal-amplitude pair not envariant")

    def histories(self, k):
        return (2 + k % 7) + (2 + k % 3) ** 2


WORKLOADS = {cls.name: cls for cls in (FamilyLarge, VerifyCli, FamilyChecks,
                                       SmallSweep)}
