import copy
import hashlib
import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flipshift
from flipshift import constructions, equivalence, jsonio
from flipshift.cli import run_cli
from flipshift.constructions import higher_block
from flipshift.equivalence import he_check
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                example2_pair, golden_mean_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.shifts import blocks, word_center
from flipshift.zeta import p_flip_counts

DATA = Path(__file__).resolve().parent.parent / "src" / "flipshift" / "data"


def _matrix_doc(a: IntMatrix) -> dict:
    return {"labels": list(a.row_labels), "rows": a.to_rows()}


@pytest.fixture()
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return _write


def test_validate_fixture_pair(capsys):
    assert run_cli(["validate", str(DATA / "example1_AJ.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert out["command"] == "validate"


def test_validate_rejects_broken_pair(write, capsys):
    doc = jsonio.pair_to_doc(example1_pair())
    doc["J"][0][0] = 1  # J now fails J*J == I
    assert run_cli(["validate", write("bad.json", doc)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["axiom"] == "J_involution"


def test_zeta_gen_series_matches_expected(capsys):
    code = run_cli(["zeta", "--pair", str(DATA / "example1_AI.json"),
                    "--which", "gen", "--order", "8"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["series"]["coeffs"] == ["0", "0", "4", "0", "8", "0", "16", "0", "32"]


def test_charpoly_example2(capsys):
    assert run_cli(["charpoly", str(DATA / "example2_C.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coefficients"] == [0, 1, -7, 19, -26, 19, -7, 1]


def test_count_csv(capsys):
    code = run_cli(["count", "--pair", str(DATA / "example1_AI.json"),
                    "--m-max", "2", "--n", "0", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,count"
    assert lines[2] == "2,0,8"


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["validate", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate", "{deep}"],
    ["count", "--pair", "{deep}", "--m-max", "2"],
    ["charpoly", "{deep}"],
    ["he-check", "--from", "{gm}", "--to", "{gm}", "--R", "{deep}"],
    ["decompose", "{deep}"],
], ids=["validate", "count", "charpoly", "he-check R", "decompose"])
def test_deeply_nested_json_is_a_usage_error(command, tmp_path, capsys):
    # valid JSON, but deeper than the parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    argv = [a.format(deep=deep, gm=DATA / "golden_mean.json") for a in command]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON nested too deeply in {deep}\n"


def test_schema_violation_is_usage_error(write, capsys):
    path = write("pair.json", {"alphabet": ["a"], "A": [[1]]})
    assert run_cli(["validate", path]) == 2
    assert "J" in capsys.readouterr().err


def test_missing_file(capsys):
    assert run_cli(["validate", "does-not-exist.json"]) == 2


def test_he_check_cli(write, capsys):
    gm = golden_mean_pair()
    hb2, chain = higher_block(gm, 1)
    src = write("src.json", jsonio.pair_to_doc(gm))
    dst = write("dst.json", jsonio.pair_to_doc(hb2))
    r = write("r.json", {"rows": chain.links[0].R.to_rows()})
    assert run_cli(["he-check", "--from", src, "--to", dst, "--R", r]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True

    bad_rows = [row[:] for row in chain.links[0].R.to_rows()]
    bad_rows[0][0] ^= 1
    r_bad = write("rbad.json", {"rows": bad_rows})
    assert run_cli(["he-check", "--from", src, "--to", dst, "--R", r_bad]) == 1


def test_sfe_check_cli(write, capsys):
    src = write("src.json", jsonio.pair_to_doc(example1_pair()))
    dst = write("dst.json", jsonio.pair_to_doc(example1_symmetric_pair()))
    r = write("r.json", {"rows": example1_pair().A.to_rows()})
    assert run_cli(["sfe-check", "--from", src, "--to", dst,
                    "--R", r, "--lag", "2"]) == 0
    capsys.readouterr()
    assert run_cli(["sfe-check", "--from", src, "--to", dst,
                    "--R", r, "--lag", "1"]) == 1


def test_sse_verify_cli(write, capsys):
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 2)
    path = write("chain.json", jsonio.chain_to_doc(chain))
    assert run_cli(["sse-verify", path]) == 0
    capsys.readouterr()

    doc = jsonio.chain_to_doc(chain)
    doc["links"][1]["R"][0][0] ^= 1
    bad = write("bad_chain.json", doc)
    assert run_cli(["sse-verify", bad]) == 1


def test_sfe_search_cli(write, capsys):
    src = write("src.json", jsonio.pair_to_doc(example1_pair()))
    dst = write("dst.json", jsonio.pair_to_doc(example1_symmetric_pair()))
    assert run_cli(["sfe-search", "--from", src, "--to", dst,
                    "--lag-max", "2", "--entry-max", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] >= 1


def test_higher_block_cli(capsys):
    assert run_cli(["higher-block", "--pair", str(DATA / "golden_mean.json"),
                    "--n", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pair"]["alphabet"] == ["1 1", "1 2", "2 1"]
    assert out["verification"]["passed"] is True


def test_build_pair_cli(write, capsys):
    gm = golden_mean_pair()
    rule = [{"block": " ".join(w), "image": w[2]} for w in blocks(gm.A, 3)]
    spec = write("spec.json", {"A": _matrix_doc(gm.A), "window": 1,
                               "phi": rule})
    assert run_cli(["build-pair", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["pair"]["alphabet"]) == 8


def test_decompose_cli(write, capsys):
    gm = golden_mean_pair()
    hb3, _ = higher_block(gm, 2)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb3.alphabet}
    conj = write("conj.json", {"from": jsonio.pair_to_doc(hb3),
                               "to": jsonio.pair_to_doc(gm),
                               "psi": psi, "inverse_window": 1})
    assert run_cli(["decompose", conj]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lag"] == 4
    assert out["verification"]["checks"] == [
        {"name": "blocks of width 5", "passed": True, "detail": ""}]


def test_decompose_refuses_the_full_three_shift_in_little_memory(write):
    # the centre read of the 5-block pair at window 2; the stages of its
    # chain are small, and checking it would walk blocks of width 9
    labels = ("a", "b", "c")
    full = FlipPair(IntMatrix.square(labels, [[1] * 3] * 3), IntMatrix.identity(labels))
    hb5, _ = higher_block(full, 4)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb5.alphabet}
    conj = write("conj.json", {"from": jsonio.pair_to_doc(hb5),
                               "to": jsonio.pair_to_doc(full),
                               "psi": psi, "inverse_window": 2})
    capped = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
              "from flipshift.cli import main\n"
              "main()\n")
    src = str(Path(flipshift.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", capped, "decompose", conj],
                         env={"PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=120)
    assert run.stdout == ""
    assert run.stderr == "error: words of length 9 need more than 1000000 walk prefixes\n"
    assert run.returncode == 2


def test_decompose_refuses_over_budget_before_building_a_stage(write, capsys, monkeypatch):
    # the centre read of example 2's 5-block pair (359 symbols) at window 2,
    # whose lag-8 chain would be checked on 785,683 blocks of width 9
    base = example2_pair("A")
    hb5, _ = higher_block(base, 4)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb5.alphabet}
    conj = write("conj.json", {"from": jsonio.pair_to_doc(hb5),
                               "to": jsonio.pair_to_doc(base),
                               "psi": psi, "inverse_window": 2})

    def build(*args, **kwargs):
        raise AssertionError("a stage was built")
    monkeypatch.setattr(constructions, "_word_pair", build)
    monkeypatch.setattr(constructions, "higher_block", build)
    assert run_cli(["decompose", conj]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: words of length 9 need more than 1000000 walk prefixes\n"


def test_stranded_symbols_leave_stderr_empty(write):
    # blocks reads only bi-infinite points, so a stranded symbol is no warning
    stranded = {"labels": ["a", "b"], "rows": [[1, 0], [0, 0]]}
    pair = write("pair.json", {"alphabet": stranded["labels"], "A": stranded["rows"],
                               "J": [[1, 0], [0, 1]]})
    spec = write("spec.json", {"A": stranded, "window": 0,
                               "phi": [{"block": "a", "image": "a"}]})
    src = str(Path(flipshift.__file__).resolve().parents[1])
    for argv, out in ((["higher-block", "--pair", pair, "--n", "1"], "2-block pair on 1 "),
                      (["build-pair", spec], "built pair on 1 ")):
        run = subprocess.run([sys.executable, "-m", "flipshift", *argv, "--format", "plain"],
                             env={"PYTHONPATH": src}, capture_output=True, text=True,
                             timeout=120)
        assert (run.returncode, run.stderr) == (0, ""), argv[0]
        assert run.stdout.startswith(out), argv[0]


def test_paper_examples_cli(capsys):
    assert run_cli(["paper-examples"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["passed"] is True


def test_paper_examples_detects_corruption(monkeypatch, capsys):
    import flipshift.fixtures as fx
    load = fx._load

    def corrupted(name):
        doc = load(name)
        if name in ("example2_C.json", "example2_CJ.json"):
            # flipping a diagonal entry keeps the flip-pair axioms but changes
            # the polynomial
            rows = doc["rows"] if "rows" in doc else doc["A"]
            rows[0][0] ^= 1
        return doc

    monkeypatch.setattr(fx, "_load", corrupted)
    assert run_cli(["paper-examples"]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in out["report"]["checks"] if not c["passed"]]
    assert any("characteristic polynomial" in name for name in failing)


def test_paper_examples_order_override(capsys):
    assert run_cli(["paper-examples", "--order", "4", "--format", "plain"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_paper_examples_at_order_one(capsys):
    # the two generating functions of example 1 first differ at t^2
    assert run_cli(["paper-examples", "--order", "1", "--format", "plain"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_reports_are_deterministic(capsys):
    run_cli(["paper-examples"])
    first = capsys.readouterr().out
    run_cli(["paper-examples"])
    second = capsys.readouterr().out
    assert first == second


@pytest.fixture()
def every_command(write):
    """One invocation of each subcommand, on the bundled examples."""
    gm = golden_mean_pair()
    hb2, chain2 = higher_block(gm, 1)
    hb3, chain3 = higher_block(gm, 2)
    gm_path = str(DATA / "golden_mean.json")
    ex1, ex1i = str(DATA / "example1_AJ.json"), str(DATA / "example1_AI.json")
    hb2_path = write("hb2.json", jsonio.pair_to_doc(hb2))
    rule = [{"block": " ".join(w), "image": w[2]} for w in blocks(gm.A, 3)]
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb3.alphabet}
    return {
        "validate": [str(DATA / "example2_AJ.json")],
        "count": ["--pair", ex1i, "--m-max", "3"],
        "zeta": ["--pair", str(DATA / "example2_CJ.json"), "--order", "6"],
        "charpoly": [str(DATA / "example2_C.json")],
        "rank-profile": [str(DATA / "example2_B.json")],
        "he-check": ["--from", gm_path, "--to", hb2_path, "--R",
                     write("r.json", {"rows": chain2.links[0].R.to_rows()})],
        "he-search": ["--from", gm_path, "--to", hb2_path],
        "sse-verify": [write("chain.json", jsonio.chain_to_doc(chain3))],
        "sfe-check": ["--from", ex1, "--to", ex1i, "--lag", "2", "--R",
                      write("r1.json", {"rows": example1_pair().A.to_rows()})],
        "sfe-search": ["--from", ex1, "--to", ex1i, "--lag-max", "2",
                       "--entry-max", "1"],
        "higher-block": ["--pair", gm_path, "--n", "2"],
        "build-pair": [write("spec.json", {"A": _matrix_doc(gm.A),
                                           "window": 1, "phi": rule})],
        "decompose": [write("conj.json", {"from": jsonio.pair_to_doc(hb3),
                                          "to": jsonio.pair_to_doc(gm),
                                          "psi": psi, "inverse_window": 1})],
        "paper-examples": ["--order", "4"],
    }


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_every_command_in_every_format(every_command, fmt, capsys):
    from flipshift.cli import _HANDLERS
    assert set(every_command) == set(_HANDLERS)
    for command, args in every_command.items():
        code = run_cli([command, *args, "--format", fmt])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), command
        assert "Traceback" not in err, command
        if code == 2:
            assert err.startswith("error: "), command


# sha256 of "exit code NUL stdout NUL stderr" for each invocation of
# every_command, with the temporary and data directories as placeholders
GOLDEN = {
    "json": {
        "validate": "789dee431675b8a811a3f153f7ab9a4b2fa77b281fb7475e14716048cf7558be",
        "count": "752914a6d65e6076f24d197d887e325d6f932c26a9206affb45bd1fd44e0fae8",
        "zeta": "a99a32754b4962a84325576063121e7930ed82eaa9ce2782a4fd765c5f4b9cc8",
        "charpoly": "113608c73e59ba1ebc72059e63382f32599cf6875f65678bcd5819dfb2fa1dae",
        "rank-profile": "4f92c6cdea76e1c7b0a2a876d9d8dca887548d27fe76c4f573636fae3fcc6a4f",
        "he-check": "9d64bc30543b1ff3595082c7fcc892722aaeb43ec874a1178f7a7396b42611fd",
        "he-search": "da8f5aa5d99d515593cd6a3d6d106b791a3146b50dc42f8fb3a36692e1ce8d6a",
        "sse-verify": "1d30170c755b1e000296d43f24a95def8219dc47834a890f1fa50a844f09fb33",
        "sfe-check": "13fdf42c177008e35a25fbc75fd3c22b08f10b5369718265ec30b451c96e3f93",
        "sfe-search": "9f23d7be0211aeea5be416eb3193adfc319847df4ba718ea96195b5cfdb9e353",
        "higher-block": "9adf6ab952a531858987bb06f0c41bf4bfef6733f8a32a6e08ccee30c389edcd",
        "build-pair": "4af4db00605b91c0568d411235681f0d2b385c3ebceed1eeadb1618d1992ecea",
        "decompose": "315c2fe399c9a8a1c55cff733db4b1f68a83f41847dc39c938e1c44e77012a96",
        "paper-examples": "468fbc1f227e83aabb8d7b24c961c8ca499fd049bec88d226a6093dc90d30ec9",
    },
    "csv": {
        "validate": "3b7e9d45c0609cefc970d90f14cd8ddd40a202df96024d829d5f0edeae039b4b",
        "count": "e8074461cd85edffb311573f838b534319a7c9513cdbf53e31b096971f6e4117",
        "zeta": "1c479a2d2a44fa0f372445ea6096d060174ba4e2bbda5ea2d9edb2bde2b88269",
        "charpoly": "4f8880382a9bf164cc9268ae868e56ea081e9cde512a6390b9af8a77805f7fef",
        "rank-profile": "4b2bdda66d31f243ad730311bb9b639c4e030cc486f6b0a0daf79c5cc90d53e6",
        "he-check": "e56b0589cb9057bad7455fa804b04fcb62fb296d5819f69789a1b5f384566dba",
        "he-search": "ebbeb4997639ee54d136b4fc36c56a3e2579ad74e4035191af6b99b9c2d476fd",
        "sse-verify": "b785a6d445154b18addc0c27deddcf6253ae591b591aa60c1348b32670542538",
        "sfe-check": "adf720d07af147745cacd56b29aa182c897aef89037a197cd9576c31e7dfbbb8",
        "sfe-search": "ebbeb4997639ee54d136b4fc36c56a3e2579ad74e4035191af6b99b9c2d476fd",
        "higher-block": "ebbeb4997639ee54d136b4fc36c56a3e2579ad74e4035191af6b99b9c2d476fd",
        "build-pair": "ebbeb4997639ee54d136b4fc36c56a3e2579ad74e4035191af6b99b9c2d476fd",
        "decompose": "ebbeb4997639ee54d136b4fc36c56a3e2579ad74e4035191af6b99b9c2d476fd",
        "paper-examples": "aceb966e4d8f937b60a69bf392bd314242e9c1a539aef2c66987cdb836f1e326",
    },
    "plain": {
        "validate": "da83c7df74ada8180d22ed1c321a4cf7abf4fdc6efd22e4977c1d0ab36021aef",
        "count": "2ff61ba31c5ceeb84bd5ae865f8bf5edc6617a1deba4bba307a4a2c3bc183b1a",
        "zeta": "6cbe8bda3b6ef7e2809b3bd64f432cef4577fc74cbb7d5ef09bfef9a97966434",
        "charpoly": "fad2451a051969f0c878fdef9b81cf52c15cd6999735b199759a9bbbc09013e7",
        "rank-profile": "efc4dfef2ecdc615b3417ef78acacb863a6e83620d38e3642a33d7967b105704",
        "he-check": "16a858f80d3253868f722c5f5c7fcbd312ef9dc2d7b3e6f197b236ba21acd778",
        "he-search": "68ef1168c5e54c68fc2d3c6de8e28f76eed6168c5ece6aad96b014806b46f8a4",
        "sse-verify": "93defa9e38f11a5683d73b33834d4591fabbe545b1ef4a4bbb8b7e7de52eda3c",
        "sfe-check": "a504df5712fca3f4cd29dbbe347ddd50688a4cd34b31a605ff23a15b4ce2c11b",
        "sfe-search": "25723ee8bebf96e7bd5f591db400447c389c17ff6ba797cc2fbddb9574d3d484",
        "higher-block": "41813ccc91ab424e724a1a54cc20fb7df8335368435d7d9763016d31eb3f0ee8",
        "build-pair": "66fa3be3498d1e7035a2de17c47529211420bcd0ae38d4b19e819c657f71ea8b",
        "decompose": "f023ec371a0f6b5142a7715f28e67fdc5ec5ed412ec30787740a1871f08f7cc9",
        "paper-examples": "c522b5d327b70219a56adeb9e3247465bdeb7f52f9d95f832246fc9e043ee469",
    },
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_cli_bytes_are_pinned(every_command, fmt, tmp_path, capsys):
    got = {}
    for command, args in every_command.items():
        code = run_cli([command, *args, "--format", fmt])
        cap = capsys.readouterr()
        text = f"{code}\0{cap.out}\0{cap.err}"
        for path, name in ((str(tmp_path), "<tmp>"), (str(DATA), "<data>")):
            text = text.replace(path, name)
        got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN[fmt]


@pytest.mark.parametrize("command, calls", [
    ("higher-block", 2), ("sse-verify", 2), ("decompose", 4)])
def test_each_splitting_step_is_checked_once(every_command, command, calls,
                                             monkeypatch, capsys):
    # one he_check per link, where the link is made or read: the 2 links of
    # --n 2 and of the chain file; for the decomposition, the target's 2
    # block-chain links, which the descent reverses, and the 2 links up
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return he_check(*args, **kwargs)

    for module in (equivalence, constructions, jsonio):
        monkeypatch.setattr(module, "he_check", counted)
    assert run_cli([command, *every_command[command]]) == 0
    assert count == calls


@pytest.mark.parametrize("timing", [[], ["--timing"]])
def test_json_reports_are_the_text_of_json_dumps(every_command, timing, capsys):
    for command, args in every_command.items():
        run_cli([command, *args, *timing])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", command


def _full_shift_doc(n: int) -> dict:
    labels = [str(i) for i in range(n)]
    return jsonio.pair_to_doc(FlipPair(IntMatrix.square(labels, [[1] * n] * n),
                                       IntMatrix.identity(labels)))


def test_higher_block_builds_a_million_cells_within_budget(write, capsys):
    full4 = write("full4.json", _full_shift_doc(4))
    assert run_cli(["higher-block", "--pair", full4, "--n", "4", "--format", "plain"]) == 0
    assert capsys.readouterr().out.startswith("5-block pair on 1024 symbols; ")


def test_higher_block_refuses_past_its_budget_before_building(write):
    capped = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))\n"
              "from flipshift.cli import main\n"
              "main()\n")
    src = str(Path(flipshift.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", capped, "higher-block", "--pair",
                          write("full4.json", _full_shift_doc(4)), "--n", "5"],
                         env={"PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=120)
    assert run.stdout == ""
    assert run.stderr == ("error: the 6-block pair has 4096 symbols; its 16777216 "
                          "matrix cells pass the budget of 2097152\n")
    assert run.returncode == 2


def test_csv_without_rows_is_usage_error(capsys):
    code = run_cli(["higher-block", "--pair", str(DATA / "golden_mean.json"),
                    "--n", "1", "--format", "csv"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --format: csv output is not defined for this command\n"


ONE_SYMBOL = {"alphabet": ["a"], "A": [[1]], "J": [[1]]}


def test_long_block_words_do_not_hit_the_recursion_limit(write, capsys):
    path = write("one.json", ONE_SYMBOL)
    assert run_cli(["higher-block", "--pair", path, "--n", "1200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pair"]["alphabet"] == [" ".join(["a"] * 1201)]


def test_long_periods_do_not_hit_the_recursion_limit(write, capsys):
    path = write("one.json", ONE_SYMBOL)
    assert run_cli(["count", "--pair", path, "--m-max", "1100"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 2200 and all(r["count"] == 1 for r in rows)


def test_count_runs_cheap_long_periods(capsys):
    assert run_cli(["count", "--pair", str(DATA / "golden_mean.json"),
                    "--m-max", "20"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    closed = p_flip_counts(golden_mean_pair(), 10)
    assert [r["count"] for r in rows if r["m"] == 20] == [closed.p_even0, closed.p_even1]


def test_count_refuses_a_walk_over_budget(write, capsys):
    # the full 16-symbol shift walks 16 + 16^2 + ... + 16^5 = 1,118,480 prefixes at period 5
    full = {"alphabet": [f"s{i}" for i in range(16)], "A": [[1] * 16] * 16,
            "J": [[int(i == j) for j in range(16)] for i in range(16)]}
    assert run_cli(["count", "--pair", write("full.json", full), "--m-max", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: words of length 5 need more than 1000000 walk prefixes\n"


def test_colliding_block_labels_name_their_words(write, capsys):
    # "a" + "a a" and "a a" + "a" are two 2-blocks with one label
    doc = {"alphabet": ["a", "a a"], "A": [[1, 1], [1, 1]], "J": [[1, 0], [0, 1]]}
    assert run_cli(["higher-block", "--pair", write("spaced.json", doc), "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ('a', 'a a') and ('a a', 'a') both join to 'a a a'\n"


@pytest.mark.parametrize("doc", [
    {"row_labels": ["a", "b"], "col_labels": ["a", "b", "c"],
     "rows": [[1, 0, 1], [0, 1, 1]]},
    {"row_labels": ["a", "b", "c"], "col_labels": ["b", "c", "a"],
     "rows": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]},
], ids=["rectangular", "permuted columns"])
def test_rank_profile_refuses_a_matrix_without_one_label_list(doc, write, capsys):
    assert run_cli(["rank-profile", write("m.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix subtraction requires identical labels\n"


@pytest.mark.parametrize("command, option, value", [
    (["count", "--pair", "golden_mean.json"], "--m-max", "0"),
    (["count", "--pair", "golden_mean.json"], "--m-max", "-3"),
    (["rank-profile", "example2_C.json"], "--max-power", "0"),
    (["rank-profile", "example2_C.json"], "--max-power", "-1"),
    (["he-search", "--from", "golden_mean.json", "--to", "golden_mean.json"],
     "--max-solutions", "-1"),
    (["he-search", "--from", "golden_mean.json", "--to", "golden_mean.json"],
     "--max-solutions", "0"),
    (["sfe-check", "--from", "example1_AJ.json", "--to", "example1_AJ.json",
      "--R", "example1_A.json"], "--lag", "0"),
    (["sfe-check", "--from", "example1_AJ.json", "--to", "example1_AJ.json",
      "--R", "example1_A.json"], "--lag", "-1"),
], ids=["m-max 0", "m-max -3", "max-power 0", "max-power -1", "max-solutions -1",
        "max-solutions 0", "lag 0", "lag -1"])
def test_empty_ranges_are_usage_errors(command, option, value, capsys):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in command]
    assert run_cli([*argv, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be >= 1\n"


@pytest.mark.parametrize("value", ["6", "0", "-2"])
def test_verify_period_is_not_an_option(value, tmp_path, capsys):
    # the decomposition is checked on blocks, so no period is taken
    missing = str(tmp_path / "absent.json")
    with pytest.raises(SystemExit) as e:
        run_cli(["decompose", missing, "--verify-period", value])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --verify-period" in captured.err


@pytest.mark.parametrize("entry", [1.9, True, "1"])
@pytest.mark.parametrize("command", [["he-check"], ["sfe-check", "--lag", "1"]],
                         ids=["he-check", "sfe-check"])
def test_non_integer_r_entries_are_schema_errors(command, entry, write, capsys):
    one = write("one.json", ONE_SYMBOL)
    r = write("r.json", [[entry]])
    assert run_cli([*command, "--from", one, "--to", one, "--R", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: R[0][0]: expected integer")


def _error_cases(tmp_path):
    """Per exception class: argv, exit code and the start of standard error."""
    def put(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    ex1 = str(DATA / "example1_AJ.json")
    not_flip = jsonio.pair_to_doc(example1_pair())
    not_flip["J"][0][0] = 1
    gm = golden_mean_pair()
    bad_rule = [{"block": " ".join(w), "image": "1"} for w in blocks(gm.A, 3)]
    missing = str(tmp_path / "missing.json")
    return {
        "JSONDecodeError": (["validate", put("bad.json", "{")], 2,
                            "error: malformed JSON at line 1, column 2: "),
        "FlipPairError": (["count", "--pair", put("nf.json", not_flip), "--m-max", "1"],
                          2, "error: input is not a flip pair (J_involution): "),
        "SpecError": (["build-pair", put("spec.json", {"A": _matrix_doc(gm.A),
                                                       "window": 1, "phi": bad_rule})],
                      1, "check failed: "),
        "FileNotFoundError": (["validate", missing], 2,
                              f"error: [Errno 2] No such file or directory: {missing!r}\n"),
        "IsADirectoryError": (["validate", str(tmp_path)], 2,
                              f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"),
        "SchemaError": (["validate", put("schema.json", {"alphabet": 3})], 2,
                        "error: pair.alphabet: expected list, got int\n"),
        "BudgetError": (["sfe-search", "--from", ex1, "--to", ex1, "--lag-max", "1",
                         "--entry-max", "3", "--budget", "10"], 2,
                        "error: kernel dimension "),
        "MatrixShapeError": (["charpoly", put("rect.json", {
            "row_labels": ["a"], "col_labels": ["a", "b"], "rows": [[1, 0]]})], 2,
            "error: characteristic polynomial needs a square matrix\n"),
        "ValueError": (["sfe-search", "--from", ex1, "--to", ex1, "--lag-max", "1",
                        "--entry-max", "-1"], 2,
                       "error: need lag_max >= 1 and entry_max >= 0\n"),
    }


@pytest.mark.parametrize("kind", ["JSONDecodeError", "FlipPairError", "SpecError",
                                  "FileNotFoundError", "IsADirectoryError", "SchemaError",
                                  "BudgetError", "MatrixShapeError", "ValueError"])
def test_error_exit_code_and_message(kind, tmp_path, capsys):
    argv, code, prefix = _error_cases(tmp_path)[kind]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


def test_certificate_error_escaping_a_handler_is_a_failed_check(monkeypatch, capsys):
    import flipshift.cli as cli
    from flipshift.errors import CertificateError

    def broken(args, inputs):
        raise CertificateError("chain", "assembled chain failed verification")

    monkeypatch.setitem(cli._HANDLERS, "validate", broken)
    assert run_cli(["validate", str(DATA / "example1_AJ.json")]) == 1
    assert capsys.readouterr().err == "check failed: assembled chain failed verification\n"


# -- fuzz: mutated documents keep the exit-code contract -------------------------


_KEYS = ("alphabet", "A", "J", "labels", "rows", "R", "S", "kind", "lag", "pairs",
         "links", "window", "phi", "block", "image", "from", "to", "psi",
         "inverse_window")
_LEAVES = st.one_of(st.integers(-3, 3), st.sampled_from([10 ** 30, -10 ** 30]),
                    st.booleans(), st.floats(), st.none(),
                    st.text(alphabet="ab1 |", max_size=4))
_NODES = st.one_of(_LEAVES, st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=2), max_leaves=4))


def _node_paths(node, at=()):
    yield at
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, (*at, key))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two nodes replaced, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_node_paths(doc))))
        if not path:
            doc = draw(_NODES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "replace":
            # an int entry becomes 0 or 1 half the time: a new, often valid, matrix
            small = isinstance(parent[key], int) and draw(st.booleans())
            parent[key] = draw(st.sampled_from([0, 1]) if small else _NODES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(_KEYS))] = copy.deepcopy(parent[key])
    return doc


@pytest.fixture(scope="module")
def fuzz_commands(tmp_path_factory):
    """command -> (its arguments, with {i} for document i; its valid documents)."""
    gm = golden_mean_pair()
    hb2, chain2 = higher_block(gm, 1)
    hb3, _ = higher_block(gm, 2)
    gm_doc, hb2_doc = jsonio.pair_to_doc(gm), jsonio.pair_to_doc(hb2)
    r_doc = {"rows": chain2.links[0].R.to_rows()}
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb3.alphabet}
    step = ["--from", "{0}", "--to", "{1}"]
    commands = {
        "validate": (["{0}"], [gm_doc]),
        "count": (["--pair", "{0}", "--m-max", "2"], [gm_doc]),
        "zeta": (["--pair", "{0}", "--order", "4"], [gm_doc]),
        "charpoly": (["{0}"], [_matrix_doc(gm.A)]),
        "rank-profile": (["{0}", "--max-power", "2"], [_matrix_doc(gm.A)]),
        "he-check": ([*step, "--R", "{2}"], [gm_doc, hb2_doc, r_doc]),
        "he-search": (step, [gm_doc, hb2_doc]),
        "sse-verify": (["{0}"], [jsonio.chain_to_doc(chain2)]),
        "sfe-check": ([*step, "--R", "{2}", "--lag", "1"], [gm_doc, hb2_doc, r_doc]),
        "sfe-search": ([*step, "--lag-max", "1", "--entry-max", "1", "--budget", "1000"],
                       [gm_doc, gm_doc]),
        "higher-block": (["--pair", "{0}", "--n", "1"], [gm_doc]),
        "build-pair": (["{0}"], [{"A": _matrix_doc(gm.A), "window": 0,
                                  "phi": [{"block": a, "image": a} for a in gm.alphabet]}]),
        "decompose": (["{0}"], [{"from": jsonio.pair_to_doc(hb3), "to": gm_doc,
                                 "psi": psi, "inverse_window": 1}]),
        "paper-examples": (["--order", "2"], []),
    }
    return tmp_path_factory.mktemp("fuzz"), commands


def test_fuzz_commands_are_every_command_and_valid(fuzz_commands):
    from flipshift.cli import _HANDLERS
    directory, commands = fuzz_commands
    assert set(commands) == set(_HANDLERS)
    for command, (argv, docs) in commands.items():
        paths = []
        for i, doc in enumerate(docs):
            paths.append(str(directory / f"valid{i}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()):
            assert run_cli([command, *(a.format(*paths) for a in argv)]) == 0, command


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(fuzz_commands, data):
    # 0: no stderr; 1: a report, or "check failed: "; 2: only "error: "
    directory, commands = fuzz_commands
    command = data.draw(st.sampled_from(sorted(commands)))
    argv, docs = commands[command]
    docs = list(docs)
    if docs:
        i = data.draw(st.integers(0, len(docs) - 1))
        docs[i] = data.draw(_mutated(docs[i]))
    paths = []
    for i, doc in enumerate(docs):
        paths.append(str(directory / f"{i}.json"))
        Path(paths[-1]).write_text(json.dumps(doc))
    fmt = data.draw(st.sampled_from(["json", "csv", "plain"]))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = run_cli([command, *(a.format(*paths) for a in argv), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    elif code == 1:
        assert (out and not err) or (not out and err.startswith("check failed: "))
    else:
        assert out and not err
