"""Every output check of the workloads accepts the program's real output and
rejects a corrupted copy of it."""

import copy
import json
import random

import pytest

import run
import workloads

PKG = run._import_package()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(op, results) per workload from one real run of two operations each."""
    got = {}
    for name in workloads.SETUPS:
        root = tmp_path_factory.mktemp(name)
        ops = workloads.SETUPS[name](random.Random(3), root, run.DATA, 4)
        picked = ops[:2] + ops[-1:]  # exhaustive ends with the paper searches
        got[name] = []
        for op in picked:
            _, results, error = run.run_op(PKG.cli.run_cli, op)
            assert error is None
            got[name].append((op, results))
    return got


def corrupt(results, index, edit):
    """A copy of the results with command ``index``'s JSON changed by ``edit``."""
    out = list(results)
    code, text = out[index]
    doc = json.loads(text)
    edit(doc)
    out[index] = (code, json.dumps(doc))
    return out


def problems_after(op, results, index, edit):
    return " | ".join(op.check(corrupt(results, index, edit)))


@pytest.mark.parametrize("name", list(workloads.SETUPS))
def test_real_outputs_pass(outputs, name):
    for op, results in outputs[name]:
        assert op.check(results) == []


@pytest.mark.parametrize("name", list(workloads.SETUPS))
def test_exit_code_and_unparsable_output_are_rejected(outputs, name):
    op, results = outputs[name][0]
    assert "exit code 1" in " ".join(op.check([(1, results[0][1])] + results[1:]))
    assert "not JSON" in " ".join(op.check([(0, "{")] + results[1:]))


def _flip_entry(rows, i=0, j=0):
    rows[i][j] ^= 1


def test_recode_checks_reject_corrupted_outputs(outputs):
    op, results = outputs["recode"][0]
    assert "block pair differs" in problems_after(
        op, results, 0, lambda d: _flip_entry(d["pair"]["A"]))
    assert "block pair differs" in problems_after(
        op, results, 0, lambda d: _flip_entry(d["pair"]["J"], 0, 1))
    assert "higher-block: link 1 is not a splitting step" in problems_after(
        op, results, 0, lambda d: _flip_entry(d["chain"]["links"][1]["R"]))
    assert "higher-block: chain has lag 1" in problems_after(
        op, results, 0, lambda d: (d["chain"]["links"].pop(), d["chain"]["pairs"].pop()))
    assert "higher-block: chain does not start" in problems_after(
        op, results, 0, lambda d: _flip_entry(d["chain"]["pairs"][0]["A"]))
    assert "higher-block: verification report" in problems_after(
        op, results, 0, lambda d: d["verification"].update(passed=False))
    assert "decompose: lag 2" in problems_after(
        op, results, 1, lambda d: d.update(lag=2))
    assert "decompose: link 3 is not a splitting step" in problems_after(
        op, results, 1, lambda d: _flip_entry(d["chain"]["links"][3]["S"]))
    assert "decompose: chain does not end" in problems_after(
        op, results, 1, lambda d: _flip_entry(d["chain"]["pairs"][-1]["A"]))
    assert "decompose: verification report" in problems_after(
        op, results, 1, lambda d: d["verification"]["checks"][0].update(passed=False))


def _bump_coeff(doc, degree):
    coeffs = doc["series"]["coeffs"]
    coeffs[degree] = str(int(coeffs[degree].split("/")[0]) + 1)


def test_invariants_checks_reject_corrupted_outputs(outputs):
    op, results = outputs["invariants"][0]
    assert "Lind zeta" in problems_after(op, results, 0, lambda d: _bump_coeff(d, 4))
    assert "trace recurrence" in problems_after(op, results, 1, lambda d: _bump_coeff(d, 3))
    assert "generating function" in problems_after(op, results, 2, lambda d: _bump_coeff(d, 2))
    assert "charpoly" in problems_after(
        op, results, 3, lambda d: d["coefficients"].__setitem__(-2, 0))
    assert "charpoly" in problems_after(
        op, results, 3, lambda d: d["coefficients"].insert(0, 0))
    assert "multiplicity of 1" in problems_after(
        op, results, 4, lambda d: d["profile"].__setitem__(-1, d["profile"][-1] + 1))


def test_example2_pairs_must_share_one_lind_zeta(outputs):
    # the first two operations are example 2's A and B, the last a seeded pair
    (_, res_a), (op_b, res_b), (_, res_other) = outputs["invariants"]
    assert op_b.check([res_a[0]] + res_b[1:]) == []
    assert "Lind zeta" in " ".join(op_b.check([res_other[0]] + res_b[1:]))


def test_exhaustive_checks_reject_corrupted_outputs(outputs):
    op, results = outputs["exhaustive"][0]

    def set_count(doc, m, n, delta):
        for row in doc["rows"]:
            if row["m"] == m and row["n"] == n:
                row["count"] += delta

    assert "bilinear form gives" in problems_after(
        op, results, 0, lambda d: set_count(d, 4, 1, 1))
    assert "p(6,2) differs from p(6,0)" in problems_after(
        op, results, 0, lambda d: set_count(d, 6, 2, 2))
    assert "p(10,3)" in problems_after(
        op, results, 0, lambda d: d.update(rows=d["rows"][:-1]))
    assert "R = A at lag 2" in problems_after(
        op, results, 1, lambda d: d.update(solutions=[s for s in d["solutions"]
                                                      if s["lag"] != 2]))


def test_paper_searches_must_find_nothing(outputs):
    op, results = outputs["exhaustive"][-1]
    assert not op.sampled and op.check(results) == []
    found = {"kind": "sfe", "lag": 2, "R": [[1]], "S": [[1]]}
    for index in (0, 1):
        assert "found a witness" in problems_after(
            op, results, index, lambda d: d.update(count=1, solutions=[copy.deepcopy(found)]))
