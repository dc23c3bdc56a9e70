"""The digest tool's comparator, its save/against round trip, the
benchmark constants it copies, and ramp's statement of the benchmark draw.

tools/digest.py is loaded by path (`helpers.load_digest`), as
tests/test_imports.py reads perfbench/tracer.py.
"""

import ast
import json

import numpy as np
import pytest

from helpers import ROOT, load_digest
from ramp import cli
from ramp.experiments import convergence_study_spec

digest = load_digest()


def stream(big=3.0e5, label="label", exact=2.0, tail=(np.nan, np.inf)):
    """Two cases: text, exact and close parts, with a nan and an inf."""
    return [("a", [("text", label), ("exact", np.array([exact])),
                   ("close", np.array([1.0, big, -0.25, *tail]))]),
            ("b", [("close", np.array([0.5]))])]


def mismatches(new, old=None):
    return digest.compare(new, old or stream())[1]


def test_identical_streams_agree():
    worst, found = digest.compare(stream(), stream())
    assert worst == {"a": 0.0, "b": 0.0}
    assert found == []
    assert digest.against({"s": stream()}, {"s": stream()}, per_case=False)


def test_relative_bound():
    # the moved entry is large, so only a relative measure keeps it in bound
    worst, found = digest.compare(stream(big=3.0e5 * (1 + 5e-13)), stream())
    assert found == [] and 4e-13 < worst["a"] <= digest.RTOL
    assert digest.against({"s": stream(big=3.0e5 * (1 + 5e-13))}, {"s": stream()},
                          per_case=False)
    worst, found = digest.compare(stream(big=3.0e5 * (1 + 2e-12)), stream())
    assert found == [] and worst["a"] > digest.RTOL
    assert not digest.against({"s": stream(big=3.0e5 * (1 + 2e-12))}, {"s": stream()},
                              per_case=False)


def test_nonfinite_entries_must_match():
    assert mismatches(stream(tail=(1.0, np.inf)))
    assert mismatches(stream(tail=(np.nan, -np.inf)))


def test_changed_text_part():
    assert mismatches(stream(label="other"))


def test_exact_part_off_by_one_ulp():
    assert mismatches(stream(exact=np.nextafter(2.0, 3.0)))


def test_changed_part_count():
    new = stream()
    new[1] = ("b", new[1][1] + [("close", np.array([1.0]))])
    assert mismatches(new)
    assert mismatches(stream(tail=(np.nan,)))


def test_renamed_or_missing_case():
    new = stream()
    new[1] = ("c", new[1][1])
    assert any("'c'" in line and "'b'" in line for line in mismatches(new))
    assert mismatches(stream()[:1])
    # a stream the saved run has and this run lacks
    assert not digest.against({"s": stream()}, {"s": stream(), "t": stream()},
                              per_case=False)


def test_se_save_and_against_round_trip(tmp_path, capsys):
    path = tmp_path / "se.json"
    assert digest.main(["se", "--save", str(path)]) == 0
    assert digest.main(["se", "--against", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("largest relative difference 0\n") == 2
    # one fixed-point float moved by 1e-11 relative fails and names its case
    saved, moved = json.loads(path.read_text()), json.loads(path.read_text())
    name, parts = moved["fixed-point"][3]
    parts[1][1][0] *= 1 + 1e-11
    assert not digest.against(saved, moved, per_case=False)
    assert f"fixed-point: largest relative difference 1e-11 ({name})" in capsys.readouterr().out


def test_moved_cases_listed_with_their_other_streams(capsys):
    # an oracle fit that moved to another optimal vertex: its x_hat is past
    # the bound, its objective is not, and the run still fails
    x_hat = [("fit a", [("close", np.array([1.0, 0.0]))]),
             ("fit b", [("close", np.array([0.5, 0.5]))])]
    objective = [("fit a", [("close", np.array([3.0]))]),
                 ("fit b", [("close", np.array([2.0]))])]
    moved = [x_hat[0], ("fit b", [("close", np.array([1.0, 0.0]))])]
    nudged = [objective[0], ("fit b", [("close", np.array([2.0 * (1 + 4e-16)]))])]
    assert not digest.against({"x_hat": moved, "objective": nudged},
                              {"x_hat": x_hat, "objective": objective}, per_case=False)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["x_hat: largest relative difference 1 (fit b)",
                     "1  fit b  (objective 4.44e-16)",
                     "objective: largest relative difference 4.44e-16 (fit b)"]


def test_reports_hold_standard_error(tmp_path, capsys, monkeypatch):
    # a rejected run writes nothing but its message, which the stderr
    # stream holds, so that a changed message shows against a save
    monkeypatch.setattr(digest, "COMMANDS", (("solve_negative_alpha", "solve --alpha -1"),))
    path = tmp_path / "reports.json"
    assert digest.main(["reports", "--save", str(path)]) == 0
    saved = json.loads(path.read_text())
    assert saved["stderr"] == [["solve_negative_alpha", [
        ["text", "error: alpha must be positive and finite, got #\n"], ["close", [-1.0]]]]]
    assert digest.main(["reports", "--against", str(path)]) == 0
    saved["stderr"][0][1][0][1] = "error: alpha must be positive, got #\n"
    path.write_text(json.dumps(saved))
    capsys.readouterr()
    assert digest.main(["reports", "--against", str(path)]) == 1
    assert "MISMATCH solve_negative_alpha, part 0" in capsys.readouterr().out


BENCHMARK_CONSTANTS = ("SE_BASE_GRID", "ORACLE_DRAWS", "ORACLE_LAMBDAS")
BENCHMARK_DRAW = ("DELTA", "OMEGA", "NOISE_VAR", "SOLVER_ALPHA")


def workload_constants(names):
    """The values perfbench/workloads.py assigns to names, read as literals."""
    workloads = ROOT / "perfbench" / "workloads.py"
    if not workloads.exists():
        pytest.skip("perfbench/ is not in this checkout")
    tree = ast.parse(workloads.read_text(), filename=str(workloads))
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id in names}


def test_copied_benchmark_constants_match():
    # the tool restates these workload inputs; they must not drift apart
    found = workload_constants(BENCHMARK_CONSTANTS)
    assert found == {name: getattr(digest, name) for name in BENCHMARK_CONSTANTS}
    assert [loss.family for loss in digest.ORACLE_LOSSES] == list(digest.ORACLE_LAMBDAS)
    # the program states the draw once, in convergence_study_spec(), which
    # the CLI defaults and the tool's DRAW read; the CLI's alpha is the
    # solver workloads' alpha
    spec = convergence_study_spec()
    assert workload_constants(BENCHMARK_DRAW) == {
        "DELTA": spec.n / spec.p, "OMEGA": spec.s / spec.p,
        "NOISE_VAR": spec.noise.variance, "SOLVER_ALPHA": cli.SOLVE_OPTIONS["alpha"][1]}
    assert cli.SE_OPTIONS["alpha"][1] == cli.SOLVE_OPTIONS["alpha"][1]
