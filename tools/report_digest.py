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

A change that moves the last bits of a report on purpose cannot keep the
digests. `--save DIR` keeps every file in DIR (which must not exist yet),
one subdirectory per command, with the exit codes in
DIR/exit_codes.json. `--against DIR` compares a run with such a
directory, cell by cell: a cell is a field of a line between commas or
white space, numeric when it parses as a float and text otherwise. It
prints the largest relative difference of the numeric cells of each file,
and exits 1 when an exit code, a file name, a line's text cells or
layout, or a nan or inf differs, or when a numeric cell differs by more
than `se_digest.RTOL` (1e-12). The comparison is `se_digest.compare`,
with one text part and one float part per line.

Usage: PYTHONPATH=src python3 tools/report_digest.py [--save DIR] [--against DIR]
"""

from __future__ import annotations

import os

# set before numpy loads, so that BLAS reads it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import re
import sys
import tempfile

from ramp import cli
from se_digest import RTOL, compare, floats

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


def run_cases(root):
    """Run every case into root/<name>, print its lines; the exit codes."""
    codes = {}
    for name, command in CASES:
        out = os.path.join(root, name)
        codes[name] = cli.main(command.split() + ["--out", out])
        print(f"exit {codes[name]}  {name}")
        for file in written(root, name):
            with open(os.path.join(out, file), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {name}/{file}")
    return codes


def written(root, name):
    out = os.path.join(root, name)
    return sorted(os.listdir(out)) if os.path.isdir(out) else []


def line_parts(path):
    """A file as se_digest parts: per line, its text with each numeric cell
    replaced by '#', then its numeric cells."""
    parts = []
    with open(path) as fh:
        for line in fh:
            fields = re.split(r"([,\s]+)", line)
            numbers = []
            for i in range(0, len(fields), 2):
                try:
                    numbers.append(float(fields[i]))
                except ValueError:
                    continue
                fields[i] = "#"
            parts += [("text", "".join(fields)), ("close", floats(*numbers))]
    return parts


def against(root, codes, old_root):
    """Compare this run's files and exit codes with a --save directory;
    print the largest difference per file and return whether all agree."""
    with open(os.path.join(old_root, "exit_codes.json")) as fh:
        old_codes = json.load(fh)
    ok = True
    if codes != old_codes:
        print(f"MISMATCH exit codes {codes} against {old_codes}")
        ok = False
    for name, _ in CASES:
        files, old_files = written(root, name), written(old_root, name)
        if files != old_files:
            print(f"MISMATCH {name}: files {files} against {old_files}")
            ok = False
        for file in sorted(set(files) & set(old_files)):
            case = f"{name}/{file}"
            worst, _, mismatches = compare(
                [(case, line_parts(os.path.join(root, case)))],
                [(case, line_parts(os.path.join(old_root, case)))])
            print(f"{worst:.3g}  {case}")
            for line in mismatches[:5]:
                print(f"  MISMATCH {line.rstrip()[:200]}")
            ok &= not mismatches and worst <= RTOL
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="DIR",
                        help="keep the files and exit codes in DIR, a new directory")
    parser.add_argument("--against", metavar="DIR",
                        help="compare with a directory written by --save")
    args = parser.parse_args()
    if args.save and os.path.exists(args.save):
        parser.error(f"{args.save} exists; --save writes a new directory")
    with tempfile.TemporaryDirectory() as scratch:
        root = args.save or scratch
        codes = run_cases(root)
        if args.save:
            with open(os.path.join(root, "exit_codes.json"), "w") as fh:
                json.dump(codes, fh, indent=1)
        if args.against and not against(root, codes, args.against):
            sys.exit(1)


if __name__ == "__main__":
    main()
