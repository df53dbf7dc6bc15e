"""Benchmark workloads: the experiment configs each workload runs, per seed.

A workload is a fixed list of `gibbsim run` configs.  The workload seed
becomes the config `seed`, which draws the jump set, the trajectory streams
and the noise placement; it never changes how much work a config does.
Horizons are therefore fixed `t_max` values.  The one `stop_below` config
(CH n=3) is time to a stated accuracy; its step count moves with the jump
set by about 10%, on under a fifth of its workload's time.

Sizes are scaled down from the acceptance-suite configs so that one pass
over a workload takes 1.5-6 s on one core and a 30 s run holds several
passes.  Grid experiments whose points differ a lot in cost (gap-scan over
n, circuit-noise over dt_ev) are split into one config per point, so each
`cli.run` is timed on its own.
"""

from dataclasses import dataclass

EVOLVE = {"jumps.count": 20, "solver.n_traj": 10}


@dataclass(frozen=True)
class Config:
    label: str
    experiment: str
    keys: dict

    def text(self, seed):
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{key} = {value}" for key, value in self.keys.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    # Randomized RK4 at D <= 16: per-step Python overhead and grid recording.
    "evolve-small": [
        Config(
            "evolve-CH-n3",
            "evolve",
            {"point": "CH", "n": 3, **EVOLVE, "solver.t_max": 400, "solver.stop_below": 0.005},
        ),
        Config("evolve-CH-n4", "evolve", {"point": "CH", "n": 4, **EVOLVE, "solver.t_max": 150}),
        Config(
            "evolve-REG-n3",
            "evolve",
            {"point": "REG", "n": 3, **EVOLVE, "solver.t_max": 300, "solver.grid_points": 30},
        ),
        Config(
            "noise-bounds-CH-n3",
            "noise-bounds",
            {"point": "CH", "n": 3, **EVOLVE, "solver.t_max": 250},
        ),
    ],
    # The same dynamics layer at D = 32-64, where batched matmuls dominate.
    "evolve-large": [
        Config("evolve-CH-n5", "evolve", {"point": "CH", "n": 5, **EVOLVE, "solver.t_max": 25}),
        Config("evolve-CH-n6", "evolve", {"point": "CH", "n": 6, **EVOLVE, "solver.t_max": 4}),
    ],
    # Circuit step W-tilde (noiseless) and the depolarizing budget (noisy).
    "circuit": [
        Config(
            "circuit-CH-n5",
            "circuit",
            {"point": "CH", "n": 5, "circuit.dt_ev": 0.25, "circuit.dt_oft": 0.2,
             "circuit.t_max": 40},
        ),
        *(
            Config(
                f"circuit-noise-CH-n5-dt{dt_ev}",
                "circuit-noise",
                {"point": "CH", "n": 5, "circuit.dt_oft": 0.2, "circuit.t_max": 10,
                 "grid.lambda_g": "1e-4", "grid.dt_ev": dt_ev},
            )
            for dt_ev in (1, 5)
        ),
    ],
    # No time stepping: superoperator build, dense eigensolves, spectra.
    "spectral": [
        *(
            Config(f"gap-scan-CH-n{n}", "gap-scan", {"point": "CH", "grid.n": n, "grid.jumps": 20})
            for n in (4, 5)
        ),
        Config(
            "accuracy-scan-CH-n4",
            "accuracy-scan",
            {"point": "CH", "n": 4, "grid.jumps": "10 20 50 100"},
        ),
        Config("spectrum-CH-n8", "spectrum", {"point": "CH", "n": 8}),
        Config("chaos-scan-n8", "chaos-scan", {"n": 8, "grid.h": "0.5 2", "grid.m": "0.3 1.5"}),
    ],
}
