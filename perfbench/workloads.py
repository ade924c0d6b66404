"""The benchmark's workloads: the configs one pass runs, built from the seed.

Every workload drives the public CLI entry points on the bundled reference
models.  A step is either a ``simulate`` config (a JSON-ready dict plus the
reference model it reads) or a ``verify`` suite.  Grids mirror the
acceptance criteria in ``tests/test_acceptance.py``, except where a comment
below says why not.
"""

from __future__ import annotations

GRID_AS = [10**3, 10**4, 10**5, 10**6]
GRID_TWO_LIMIT = [1000, 1001, 10_000, 10_001, 50_000, 50_001, 200_000, 200_001,
                  500_000, 500_001, 1_000_000, 1_000_001]
# --seed 7 gives the as-mode seed 7 and the l1 master seed 99 of the reference runs.
L1_MASTER_OFFSET = 92
GRID_ADVERSARIAL = [10**3, 10**4, 3 * 10**4]
ADVERSARIAL_TRAJECTORIES = 4

# Two workloads, so that each run can measure 55 s within the time the
# benchmark may take: on a shared 2-core VM the CPU's speed drifts by tens of
# percent over minutes, and only long runs keep the run-to-run spread inside
# the bounds.
# The HMM scans and block evaluation on long words and the greedy adversary
# run in hmm-adversarial only (markov-pool reaches HMM code and the
# adversary just in the small checks of verify --suite all, about 2 ms), so
# a change to them should leave markov-pool unchanged.
WHY = {
    "markov-pool": "m1 Markov chain: 7 as-mode experiments to 1e6, the m1/uniform mixture "
                   "in l1 mode through the 2-worker pool, verify --suite all; sampler-bound, "
                   "HMM and adversary only in verify's checks",
    "hmm-adversarial": "h1 hidden-Markov as-mode and two-limit counterexample to 1e6, the "
                       "greedy adversary on 4 m1 and 4 h1 trajectories, h1 l1 mode: long "
                       "and short HMM scans dominate",
}
WORKLOADS = tuple(WHY)


def convergence_config(model: str, parser: dict, grid, seeds, mode: str = "as",
                 tolerance: float = 0.01) -> dict:
    return {"schema_version": 1, "experiment": "convergence", "model": f"{model}.json",
            "parser": parser, "n_grid": list(grid), "seeds": seeds, "mode": mode,
            "tolerance": tolerance}


def steps(workload: str, seed: int) -> list:
    """The ordered steps of one pass: ("simulate", name, config) or ("verify", suite)."""
    sqrt = {"family": "growing", "schedule": "sqrt"}
    log2 = {"family": "growing", "schedule": "log2"}
    lz78 = {"family": "lz78"}
    adversarial = {"family": "adversarial", "budget": "sqrt"}
    l1_seeds = {"count": 20, "master_seed": seed + L1_MASTER_OFFSET}
    if workload == "markov-pool":
        return [
            ("simulate", "m1-growing-sqrt", convergence_config("m1", sqrt, GRID_AS, [seed])),
            ("simulate", "m1-growing-log2", convergence_config("m1", log2, GRID_AS, [seed])),
            ("simulate", "m1-lz78", convergence_config("m1", lz78, GRID_AS, [seed])),
            ("simulate", "m1-random-sqrt", convergence_config(
                "m1", {"family": "random_sublinear", "budget": "sqrt", "seed": seed},
                GRID_AS, [seed])),
            ("simulate", "m1-fixed-4", convergence_config(
                "m1", {"family": "fixed", "K": 4}, GRID_AS, [seed])),
            ("simulate", "m1-trim1", {
                "schema_version": 1, "experiment": "perturbation", "model": "m1.json",
                "parser": sqrt, "n_grid": GRID_AS, "seeds": [seed],
                "perturbation": {"plan": "trim1"}, "tolerance": 0.01}),
            ("simulate", "m1-birkhoff", {
                "schema_version": 1, "experiment": "birkhoff", "model": "m1.json",
                "n_grid": GRID_AS[1:], "seeds": [seed],
                "birkhoff": {"observable": "abs_log_z_d", "index_family": "prefix_sqrt",
                             "depth": 8}}),
            ("simulate", "mixture-growing-sqrt-l1", convergence_config(
                "mixture_m1_uniform", sqrt, [10**5], l1_seeds, mode="l1", tolerance=0.02)),
            ("verify", "verify-all", "all"),
        ]
    if workload == "hmm-adversarial":
        # At N = 1e6 a log2 block has 20 symbols, and H(P_20)/20 exceeds the h1
        # rate by 0.0096 nats; over 18 seeds the tail deviation is 0.0087-0.0112
        # (log2) and 0.0078-0.0103 (lz78), a property of the parsers at that N,
        # so the tolerance is 0.02 as for the l1 lz78 run.
        out = [
            ("simulate", "h1-growing-log2", convergence_config(
                "h1", log2, GRID_AS, [seed], tolerance=0.02)),
            ("simulate", "h1-lz78", convergence_config(
                "h1", lz78, GRID_AS, [seed], tolerance=0.02)),
            ("simulate", "h1-two-limit", {
                "schema_version": 1, "experiment": "counterexample", "model": "h1.json",
                "n_grid": GRID_TWO_LIMIT, "seeds": [seed],
                "counterexample": {"K": 4, "epsilon_schedule": [0.1, 0.05, 0.02]}}),
        ]
        # The adversary's cost depends on where float noise puts its cuts: one
        # m1 trajectory at N = 1e6 parses in 4 s at seed 7 and 55-64 s at
        # seeds 1-3 (2-core Xeon VM).  Several trajectories per model at
        # N <= 3e4 keep a pass's cost steady across seeds (over seeds 1-4 the
        # symbols scanned for eight trajectories of one model stay within 6%
        # of their mean) while still running thousands of sub-block scans.
        # At N = 3e4 the sqrt(N) cuts leave tail deviations of up to 0.012
        # (m1) and 0.014 (h1) nats over 40 seeds, a property of the parser at
        # that length, so the tolerance is 0.02.
        for i in range(ADVERSARIAL_TRAJECTORIES):
            for model in ("m1", "h1"):
                out.append(("simulate", f"{model}-adversarial-sqrt-{i}", convergence_config(
                    model, adversarial, GRID_ADVERSARIAL, [seed + 1000 * i], tolerance=0.02)))
        # At N = 1e5, LZ78's l1 deviation on these seeds is about 0.011 nats,
        # a property of the parser, hence tolerance 0.02.
        return out + [("simulate", "h1-lz78-l1", convergence_config(
            "h1", lz78, [10**5], l1_seeds, mode="l1", tolerance=0.02))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
