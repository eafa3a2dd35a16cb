"""Cross-checking history weights against independent oracles.

The same model is pushed through three routes: exhaustive enumeration of
history weights, a sequential collapse simulation (evolve, project,
renormalize), and Monte Carlo sampling of the resulting distribution.
All three must tell one story.
"""

from qcontour import (condition_on_final, enumerate_family, measure_report,
                      monte_carlo_sample, sequential_chain)
from qcontour.linalg import complete_basis
from qcontour.oracle import OutcomeDistribution
from qcontour.sampling import random_model, rng_from_seed


def random_family_spec(seed, dim, n_times, s_t):
    """A random model over a random grid of ``n_times`` times in [0, 2]."""
    rng = rng_from_seed(seed)
    times = [float(t) for t in sorted(rng.uniform(0.0, 2.0, n_times))]
    model = random_model(rng, times, dim, s_t)
    return model, model.schedule


def main():
    spec, sched = random_family_spec(seed=11, dim=3, n_times=3, s_t=1)
    fam = enumerate_family(spec)
    report = measure_report(fam, sched)
    print(f"random qutrit model, {len(fam.histories)} histories, "
          f"preparation pinned at t1\n")

    dist = sequential_chain(spec.constraints[0].state, spec.bases[1:],
                            spec.times[1:], sched, t_prep=spec.times[0])
    lookup = report.by_choices()
    worst = max(abs(lookup[seq] - p) for seq, p in dist.outcomes)
    print(f"enumeration vs collapse chain, worst gap: {worst:.2e}")

    measures = OutcomeDistribution(
        tuple((e.choices, e.measure) for e in report.entries))
    table = monte_carlo_sample(measures, n=100_000, seed=5)
    print(f"Monte Carlo at n = {table.n}: all within five-sigma bands = "
          f"{table.all_within_band} (max {table.max_sigma:.2f} sigma)")
    for row in table.rows[:4]:
        print(f"  outcome {row.key}: p = {row.probability:.6f}, "
              f"freq = {row.frequency:.6f}")

    spec, sched = random_family_spec(seed=12, dim=2, n_times=3, s_t=2)
    fam = enumerate_family(spec)
    report = measure_report(fam, sched)
    final = next(fp for fp in spec.constraints if fp.time == spec.times[-1])
    full = sequential_chain(
        spec.constraints[0].state,
        list(spec.bases[1:-1]) + [complete_basis(final.state)],
        spec.times[1:], sched, t_prep=spec.times[0])
    conditioned = condition_on_final(full, 0)
    lookup = report.by_choices()
    worst = max(abs(lookup[seq] - p) for seq, p in conditioned.outcomes)
    print(f"\nboth endpoints pinned: weights match the chain conditioned "
          f"on the final outcome, worst gap {worst:.2e}")


if __name__ == "__main__":
    main()
