import json
import subprocess
import sys
from pathlib import Path

import pytest

from cyclopair.bernoulli import irregular_indices
from cyclopair.pairing import serialize_pairing_table, synth_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, stdin=b"", env=None):
    return subprocess.run(
        [sys.executable, "-m", "cyclopair", *map(str, args)],
        input=stdin, capture_output=True, env=env,
    )


def test_bern_p7():
    res = run_cli("bern", "7")
    assert res.returncode == 0
    assert res.stdout == b"2\t6\n4\t3\n"


def test_bern_single_k():
    res = run_cli("bern", "1217", "--k", "784")
    assert res.returncode == 0
    assert res.stdout == b"784\t0\n"


def test_bern_nonprime_exits_2():
    res = run_cli("bern", "9", "--k", "2")
    assert res.returncode == 2
    assert b"not an odd prime" in res.stderr


def test_bern_methods_agree():
    outputs = {
        method: run_cli("bern", "37", "--method", method).stdout
        for method in ("naive", "voronoi", "fast")
    }
    assert outputs["naive"] == outputs["voronoi"] == outputs["fast"]


def test_bern_p5_empty():
    res = run_cli("bern", "5")
    assert res.returncode == 0
    assert res.stdout == b""


def test_irregular_40():
    res = run_cli("irregular", "--max-p", 40)
    assert res.returncode == 0
    assert res.stdout == b"37\t32\n"


def test_irregular_8_empty():
    res = run_cli("irregular", "--max-p", 8)
    assert res.returncode == 0
    assert res.stdout == b""


def test_irregular_1300_contains_1217():
    res = run_cli("irregular", "--max-p", 1300)
    lines = dict(
        line.split("\t") for line in res.stdout.decode().splitlines()
    )
    ks = lines["1217"].split(",")
    assert len(ks) == 3
    assert {"784", "866"} <= set(ks)


def test_irregular_cache_reuse(tmp_path):
    first = run_cli("irregular", "--max-p", 100, "--cache", tmp_path)
    cache_file = tmp_path / "irregular.tsv"
    assert cache_file.exists()
    before = cache_file.read_text()
    second = run_cli("irregular", "--max-p", 100, "--cache", tmp_path)
    assert first.stdout == second.stdout
    assert cache_file.read_text() == before


def test_irregular_cache_corruption_warns(tmp_path):
    run_cli("irregular", "--max-p", 60, "--cache", tmp_path)
    (tmp_path / "irregular.tsv").write_text("broken\tdata\tcache\n")
    res = run_cli("irregular", "--max-p", 60, "--cache", tmp_path)
    assert res.returncode == 0
    assert res.stdout == b"37\t32\n59\t44\n"  # (59, 44) is irregular too
    assert b"corrupt" in res.stderr


def test_congruence_sweep_clean():
    res = run_cli("congruence-sweep", "--max-p", 200)
    assert res.returncode == 0
    assert res.stdout == b""


def test_congruence_sweep_injected_violation(tmp_path):
    source = tmp_path / "source.tsv"
    source.write_text("13\t4,10\n37\t32\n")
    res = run_cli("congruence-sweep", "--max-p", 100, "--source", source)
    assert res.returncode == 0
    assert res.stdout == b"13\tsum2\t4\t10\n"


@pytest.mark.parametrize("text, bad_line", [
    pytest.param("13\t4,10\n15\t4\n", 2, id="p-not-prime"),
    pytest.param("12\t3,3\n", 1, id="p-even-k-odd-repeated"),
    pytest.param("37\t31\n", 1, id="k-odd"),
    pytest.param("13\t10,4\n", 1, id="k-unsorted"),
    pytest.param("13\t4,10\n# c\n13\t4,10\n", 3, id="p-repeated"),
])
def test_congruence_sweep_source_rejects_bad_lines(tmp_path, text, bad_line):
    source = tmp_path / "source.tsv"
    source.write_text(text)
    res = run_cli("congruence-sweep", "--max-p", 100, "--source", source)
    assert res.returncode == 2
    assert res.stdout == b""
    assert f"source.tsv:{bad_line}:".encode() in res.stderr


def test_criteria_gk_exceptional_fails():
    res = run_cli("criteria", 1217, "--pairing", FIXTURES / "exceptional.tsv")
    assert res.returncode == 0
    assert json.loads(res.stdout)["gk"] == "FAILS"


def test_criteria_gk_regular_holds():
    res = run_cli("criteria", 11, "--pairing", "/dev/null")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["gk"] == "HOLDS"
    assert obj["greenberg"] == "TRIVIAL"


def test_criteria_height_full_table(tmp_path):
    table = synth_table(37, irregular_indices(37), seed=1)
    path = tmp_path / "synth_full.tsv"
    path.write_text(serialize_pairing_table(table))
    res = run_cli("criteria", 37, "--pairing", path)
    obj = json.loads(res.stdout)
    assert obj["height"]["bound_exact"] == 19
    assert obj["height"]["d"] == 18
    assert obj["greenberg"] == "HOLDS"


def test_criteria_reads_stdin():
    table = synth_table(37, irregular_indices(37), seed=1)
    res = run_cli("criteria", 37, "--pairing", "-",
                  stdin=serialize_pairing_table(table).encode())
    assert json.loads(res.stdout)["height"]["bound_exact"] == 19


def test_criteria_tsv_format():
    res = run_cli("criteria", 11, "--pairing", "/dev/null", "--format", "tsv")
    lines = dict(line.split("\t") for line in res.stdout.decode().splitlines())
    assert lines["gk"] == "HOLDS"
    assert lines["p"] == "11"


def test_criteria_surjective_override():
    # all-nonzero table above 1000: conditional unless told surjective
    irr = irregular_indices(1217)
    from cyclopair.pairing import synth_b_table
    text = serialize_pairing_table(synth_b_table(1217, irr, seed=1))
    auto = run_cli("criteria", 1217, "--pairing", "-", stdin=text.encode())
    forced = run_cli("criteria", 1217, "--pairing", "-", "--surjective", "yes",
                     stdin=text.encode())
    assert json.loads(auto.stdout)["gk"] == "CONDITIONAL"
    assert json.loads(forced.stdout)["gk"] == "HOLDS"


def test_criteria_unreadable_file_exits_2(tmp_path):
    res = run_cli("criteria", 11, "--pairing", tmp_path / "absent.tsv")
    assert res.returncode == 2


def test_criteria_malformed_table_exits_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("B\t37\t2\t4\n")
    res = run_cli("criteria", 37, "--pairing", bad)
    assert res.returncode == 2
    assert b"line 1" in res.stderr


def test_criteria_key_outside_r_exits_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("E\t37\t7\t30\t5\n")
    res = run_cli("criteria", 37, "--pairing", bad)
    assert res.returncode == 2


def test_report_small_deterministic():
    args = ("report", "--max-p", 300, "--pairing", FIXTURES / "exceptional.tsv")
    a = run_cli(*args)
    b = run_cli(*args, "--jobs", 2)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    first = json.loads(a.stdout.splitlines()[0])
    assert first["p"] == 7
    assert first["greenberg"] == "TRIVIAL"


def test_report_includes_exceptional_verdicts():
    res = run_cli("report", "--max-p", 1300, "--pairing", FIXTURES / "exceptional.tsv")
    rows = {json.loads(line)["p"]: json.loads(line)
            for line in res.stdout.splitlines()}
    assert rows[1217]["gk"] == "FAILS"
    assert rows[157]["gk"] == "CONDITIONAL"  # no data for 157 in the fixture
    assert rows[37]["gk"] == "HOLDS"


def test_usage_error_exits_2():
    res = run_cli("report", "--max-p", 100)  # missing --pairing
    assert res.returncode == 2


def test_closed_stdout_is_not_a_usage_error():
    # bern 24989 prints about 140 kB, more than the pipe and both buffers
    # hold, so the CLI is still writing when the reader goes away
    proc = subprocess.Popen([sys.executable, "-m", "cyclopair", "bern", "24989"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"2\t4165\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"error:" not in stderr
