"""SHA-256 digests of the files that `ramp bench`, `ramp solve` and `ramp se` write.

Two trees that print the same lines wrote the same bytes, so a change that
claims byte-identical reports can be checked by running this script on
both. Every command runs in-process through `ramp.cli.main` with one BLAS
thread, each in its own subdirectory of a temporary directory:

- the five default `ramp bench` studies (convergence, dense, sparse, noise,
  design);
- `bench --study convergence --replications 3 --seed 7` and
  `bench --study design --replications 2 --seed 0`;
- `bench --study convergence --replications 2` and
  `bench --study design --replications 1`, which keep each study's
  default seeds;
- `solve --loss huber`;
- `solve --loss lad --noise laplace --noise-param 1 --max-iter 30`;
- `solve --loss lad --max-iter 20` under `student_t` 4 and under `cauchy` 1,
  so that with the two runs above every noise name reaches a solve;
- `se --losses ls,huber,lad,quantile`;
- `se --losses lad --noise cauchy --noise-param 1`;
- `se --losses ls --noise student_t --noise-param 1.5`, which SE flags
  diverged and which exits 3;
- `se --losses huber --noise normal --noise-param 1e28`, where calibration
  fails, and `solve --alpha -1`, which validation rejects: each exits 1
  and writes nothing.

It prints each command's exit code, then one digest per file it wrote; a
command that exits before it makes its output directory prints no file
line.
The whole run takes about 15 s on one core, most of it in the default
convergence study's 400 solves.

Usage: PYTHONPATH=src python3 tools/report_digest.py
"""

from __future__ import annotations

import os

# set before numpy loads, so that BLAS reads it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib
import tempfile

from ramp import cli

CASES = (
    ("bench_convergence", "bench --study convergence"),
    ("bench_dense", "bench --study dense"),
    ("bench_sparse", "bench --study sparse"),
    ("bench_noise", "bench --study noise"),
    ("bench_design", "bench --study design"),
    ("bench_convergence_r3_s7", "bench --study convergence --replications 3 --seed 7"),
    ("bench_design_r2_s0", "bench --study design --replications 2 --seed 0"),
    ("bench_convergence_r2", "bench --study convergence --replications 2"),
    ("bench_design_r1", "bench --study design --replications 1"),
    ("solve_huber", "solve --loss huber"),
    ("solve_lad_laplace", "solve --loss lad --noise laplace --noise-param 1 --max-iter 30"),
    ("solve_lad_t4", "solve --loss lad --noise student_t --noise-param 4 --max-iter 20"),
    ("solve_lad_cauchy", "solve --loss lad --noise cauchy --noise-param 1 --max-iter 20"),
    ("se_four_losses", "se --losses ls,huber,lad,quantile"),
    ("se_lad_cauchy", "se --losses lad --noise cauchy --noise-param 1"),
    ("se_ls_t1.5", "se --losses ls --noise student_t --noise-param 1.5"),
    ("se_huber_calibration_error", "se --losses huber --noise normal --noise-param 1e28"),
    ("solve_negative_alpha", "solve --alpha -1"),
)


def main():
    with tempfile.TemporaryDirectory() as root:
        for name, command in CASES:
            out = os.path.join(root, name)
            print(f"exit {cli.main(command.split() + ['--out', out])}  {name}")
            for file in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                with open(os.path.join(out, file), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{file}")


if __name__ == "__main__":
    main()
