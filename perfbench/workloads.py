"""The benchmark's workloads: the CLI invocations each one makes.

Each workload is one or more ``thermalmimic`` CLI invocations, run through
``thermalmimic.cli.main(argv)``; the harness adds ``--out-dir``. ``tiny``
holds the same commands at a size that runs in about a second, for the
harness self-test. Why each workload exists, and which layers it stresses
and bypasses, is recorded next to its name in ``BENCHMARK.json``.

The tomography workloads pass the CLI's default data seed, ``--seed 1``,
whatever the run seed is. MLE iteration counts depend on the sampled data
far more than on anything else: over 24 consecutive data seeds of the
``tomo-thermal`` record set they ranged from 302 to 1837 (coefficient of
variation 0.48). A run fits two or three tomo-thermal invocations, four to
six reconstructions, so seed-dependent data would make ``solution_s``
differ by about 20% from seed to seed, wider than a regression bound can
tolerate. With the data fixed, the run-to-run spread is timing noise, and a
change in iteration count still shows in ``solution_s`` and in the traced
``tomo.iterations``. The run seed reaches the program as the output
directory name, which enters the hashed configuration and so every output
file, and as ``mimic-sweep --seed``, which the optimized scheme of
``design-sweep`` does not draw from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    tiny: tuple[tuple[str, ...], ...]

    def argv(self, seed: int, out_dir: str, tiny: bool = False) -> list[list[str]]:
        """The commands with ``{seed}`` filled in and ``--out-dir`` added."""
        return [
            [arg.format(seed=seed) for arg in command] + ["--out-dir", out_dir]
            for command in (self.tiny if tiny else self.commands)
        ]


# So few records leave the MLE short of the default stop rule; the self-test
# checks the harness, not the estimator, so it stops at a coarser step.
_TOMO_TINY = ("--phases", "8", "--samples-per-phase", "25", "--cutoff", "6",
              "--source-cutoff", "20", "--runs", "2", "--seed", "1", "--stop-tol", "1e-4")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tomo-thermal",
            commands=((
                "tomo-end2end", "--source", "thermal", "--nbar", "1.35",
                "--phases", "50", "--samples-per-phase", "40", "--cutoff", "12",
                "--runs", "2", "--seed", "1",
            ),),
            tiny=(("tomo-end2end", "--source", "thermal", "--nbar", "1.35", *_TOMO_TINY),),
        ),
        Workload(
            name="tomo-artificial-raw",
            commands=((
                "tomo-end2end", "--source", "artificial", "--nbar", "1.35",
                "--phases", "100", "--samples-per-phase", "10", "--cutoff", "12",
                "--source-cutoff", "20", "--gain", "2.5", "--offset", "0.3",
                "--convention", "quarter", "--runs", "2", "--seed", "1",
            ),),
            tiny=((
                "tomo-end2end", "--source", "artificial", "--nbar", "1.35",
                "--codebook-amplitudes", "4", "--codebook-phases", "4",
                "--gain", "2.5", "--offset", "0.3", "--convention", "quarter", *_TOMO_TINY,
            ),),
        ),
        Workload(
            name="design-sweep",
            commands=(
                ("mimic-sweep", "--scheme", "optimized", "--nbars", "0.5,1.0,1.5,2.0",
                 "--samples", "16,64,144,256,400", "--cutoff", "30", "--seed", "{seed}"),
                ("codebook-export", "--nbar", "2.0", "--codebook-amplitudes", "20",
                 "--codebook-phases", "20"),
            ),
            tiny=(
                ("mimic-sweep", "--scheme", "optimized", "--nbars", "1.0",
                 "--samples", "4,16", "--cutoff", "20", "--seed", "{seed}"),
                ("codebook-export", "--nbar", "2.0", "--codebook-amplitudes", "4",
                 "--codebook-phases", "4"),
            ),
        ),
    )
}
