"""The benchmark's jobs and workloads: seeded inputs, CLI argv and sizes.

A job is one `python -m oscoal ...` run.  Its inputs are built from the
workload seed into a scratch directory; the program only ever sees the
generated files.  The oracle checks for each job live in `oracles.py`.

A workload is a pair of jobs that run alternately:

* `kernel`: the two jobs whose time goes mostly to the P_kl kernel, batch
  (`yields_exact`) and scalar (`prob_table`);
* `no_kernel`: the two jobs where the kernel does at most 2% of the work
  (`yields_sampled_smeared`, `wigner_grid`).

A kernel change should move the first and leave the second where it was.
Each workload is timed for one long run rather than each job for a short
one, because on a shared host the speed of one job drifts by 10 to 30%
within minutes (see README.md).

    python3 perfbench/workloads.py JOB SEED WORKDIR   # write one job's inputs

The module imports numpy only to write inputs, so that `run.py` can import it
and stay small (see `run.run_child`).
"""

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

# Physics set-up shared by both yields jobs: zeta = 2 delta nu = 1.
NU, DELTA, HBAR = 1.0, 0.5, 1.0
PF_BINS = "-10:10:160"
PF_AXIS = 2
SAMPLED_BUDGET = 50_000

# Defaults of `oscoal prob` / `oscoal wigner`, restated so that the checks
# know the expected grids without asking the program: (lo, hi, points).
DEFAULT_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
PROB_AXIS = (0.0, 3.0, 31)
PROB_ZETA = 2.0
PROB_LEVELS = ((0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1))
WIGNER_AXIS = (0.0, 4.0, 400)
WIGNER_STATE = (1, 3)


@dataclass(frozen=True)
class Job:
    name: str
    items: int             # pairs, table rows or grid cells one run produces
    expected_peak_mb: int  # measured peak RSS; the memory guard needs twice this
    species_rows: int = 0  # rows per species in the generated particle list


JOBS = {
    j.name: j
    for j in (
        # 1000 x 1000 particles, all 1e6 pairs held in memory
        Job("yields_exact", items=1000 * 1000, expected_peak_mb=1100, species_rows=1000),
        # 2e5-row (25 MB) CSV, 1e10 candidate pairs, 50k sampled, smeared spectra
        Job("yields_sampled_smeared", items=SAMPLED_BUDGET, expected_peak_mb=450,
            species_rows=100_000),
        # 28830 scalar p_kl calls at zeta = 2, off the matched-scale shortcut
        Job("prob_table", items=len(PROB_LEVELS) * PROB_AXIS[2] ** 2 * len(DEFAULT_THETAS),
            expected_peak_mb=80),
        # cold N = 5 derive_invariant_poly, node lines, 62 MB grid file
        Job("wigner_grid", items=WIGNER_AXIS[2] ** 2 * len(DEFAULT_THETAS),
            expected_peak_mb=100),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernel",
            "1e6-pair exact yields plus the 28830-row prob table at zeta = 2: the batch and "
            "scalar P_kl kernel does most of the work",
            ("yields_exact", "prob_table"),
        ),
        Workload(
            "no_kernel",
            "25 MB CSV with 50k sampled pairs and smeared spectra, plus the N = 5 Wigner grid: "
            "CSV load, erf deposit, exact algebra, 62 MB writer; kernel <= 2%",
            ("yields_sampled_smeared", "wigner_grid"),
        ),
    )
}


@dataclass
class JobSpec:
    """The argv of one job, its result file and what to record."""

    argv: list
    output: str
    record: dict = field(default_factory=dict)


def job_spec(job, seed):
    """CLI argv (relative to the job's work dir), result file name and input record."""
    record = {"job": job.name, "seed": seed}
    if job.name.startswith("yields"):
        n = job.species_rows
        argv = ["yields", "--particles", "particles.csv", "--params", "params.json",
                f"--pf-bins={PF_BINS}", "--out", "yields.json"]
        if job.name == "yields_sampled_smeared":
            argv[-2:-2] = ["--budget", str(SAMPLED_BUDGET), "--seed", str(seed), "--smear"]
        record.update(rows={"u": n, "dbar": n}, candidate_pairs=n * n,
                      inputs=["particles.csv", "params.json"])
        return JobSpec(argv, "yields.json", record)
    if job.name == "prob_table":
        record.update(rows=job.items)
        return JobSpec(["prob", "--zeta", repr(PROB_ZETA), "--out", "prob.csv"],
                       "prob.csv", record)
    record.update(cells=job.items)
    return JobSpec(["wigner", "--k", str(WIGNER_STATE[0]), "--l", str(WIGNER_STATE[1]),
                    "--out", "wigner.dat"], "wigner.dat", record)


def particles(job, seed):
    """The seeded particle list: species -> (r, p) arrays of shape (n, 3).

    Positions follow N(0, 1.5/nu) and momenta N(0, hbar nu) on every axis.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 11])
    n = job.species_rows
    return {
        species: (rng.normal(0.0, 1.5 / NU, (n, 3)), rng.normal(0.0, HBAR * NU, (n, 3)))
        for species in ("u", "dbar")
    }


def write_inputs(job, seed, workdir):
    """Write the files the job reads into `workdir`."""
    import numpy as np

    if not job.name.startswith("yields"):
        return
    with open(workdir / "particles.csv", "w") as fh:
        fh.write("species,rx,ry,rz,px,py,pz\n")
        for species, (r, p) in particles(job, seed).items():
            # repr round-trips exactly, so the checks can regenerate the arrays
            fh.write("".join(
                species + "," + ",".join(map(repr, row)) + "\n"
                for row in np.hstack([r, p]).tolist()
            ))
    (workdir / "params.json").write_text(json.dumps({"nu": NU, "delta": DELTA, "hbar": HBAR}))


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    write_inputs(JOBS[name], int(seed), Path(workdir))
