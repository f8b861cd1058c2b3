import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclopair import bernoulli, cli, pairing
from cyclopair.bernoulli import irregular_indices, irregular_sweep
from cyclopair.pairing import serialize_pairing_table, synth_table
from cyclopair.report import table_digest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, stdin=b"", env=None):
    return subprocess.run(
        [sys.executable, "-m", "cyclopair", *map(str, args)],
        input=stdin, capture_output=True, env=env,
    )


# the built-in SHA-256 module: _sha256 up to CPython 3.11, _sha2 from 3.12;
# each version's stdlib_module_names lists only its own name
_BUILTIN_SHA256 = {"_sha2", "_sha256"}


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert (top in sys.stdlib_module_names or top in _BUILTIN_SHA256
                        or top == "cyclopair"), (path.name, name)


# Modules a sweep has no use for: dataclasses (and inspect with it), OpenSSL
# through hashlib, libmpdec through decimal and fractions, traceback, and
# multiprocessing with what it loads: the forked workers need none of it.
_UNUSED_BY_SWEEPS = {"dataclasses", "inspect", "hashlib", "_hashlib", "decimal",
                     "_decimal", "fractions", "traceback", "multiprocessing",
                     "pickle", "socket", "subprocess", "threading"}


def _modules_loaded(*args) -> set[str]:
    """The modules a run loads beyond those of a bare interpreter, from
    -X importtime, with no cache directory in the environment.  Both run
    under -S, with src on PYTHONPATH: a .pth file that site runs may import
    modules (tempfile, pathlib, shutil), which no test could then find
    absent."""
    env = {name: value for name, value in os.environ.items() if name != cli.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])

    def loaded(*argv):
        res = subprocess.run([sys.executable, "-S", "-X", "importtime", *map(str, argv)],
                             capture_output=True, env=env)
        assert res.returncode == 0, res.stderr.decode()
        return {line.rpartition("|")[2].strip()
                for line in res.stderr.decode().splitlines()
                if line.startswith("import time:")}

    return loaded("-m", "cyclopair", *args) - loaded("-c", "pass")


# The modules that read pairing tables and write reports: a sweep loads
# none of them, nor json, which only a report writes with.
_REPORT_ONLY = {"cyclopair.pairing", "cyclopair.packing", "cyclopair.criteria",
                "cyclopair.report", "json"}
# and what each sweep leaves unloaded besides
_UNUSED_BY_COMMAND = {
    "irregular": {"cyclopair.eigenstructure"},
    "bern": {"cyclopair.eigenstructure", "cyclopair.cache"},
    "congruence-sweep": set(),
}


@pytest.mark.parametrize("argv", [
    ["irregular", "--max-p", 50, "--jobs", 1],
    ["irregular", "--max-p", 50, "--jobs", 2],
    ["bern", 37],
    ["congruence-sweep", "--max-p", 50, "--jobs", 1],
    ["congruence-sweep", "--max-p", 50, "--jobs", 2],
])
def test_sweeps_load_no_module_they_do_not_use(argv):
    loaded = _modules_loaded(*argv)
    assert "cyclopair.cli" in loaded
    unused = _UNUSED_BY_SWEEPS | _REPORT_ONLY | _UNUSED_BY_COMMAND[argv[0]]
    assert loaded & unused == set()


# What the package root has re-exported since before its names loaded lazily,
# by defining module.
_PUBLIC_NAMES = {
    "bernoulli": ["IrregularSet", "bernoulli_fast_row", "bernoulli_naive_row",
                  "bernoulli_voronoi", "irregular_indices", "irregular_sweep"],
    "criteria": ["HeightBound", "HypothesisFlags", "Verdict", "gk_verdict",
                 "greenberg_verdict", "height_lower_bound"],
    "eigenstructure": ["CongruenceCheckResult", "check_congruences", "congruence_sweep"],
    "packing": ["PackingInstance", "PackingResult", "brute_force_packing",
                "conflict_diffs", "max_disjoint_translates_exact"],
    "pairing": ["EligibleSet", "PairingFormatError", "PairingTable", "b_to_e",
                "eligible_set", "parse_pairing_file", "serialize_pairing_table",
                "synth_b_table", "synth_table"],
}


def test_package_root_exports_resolve_to_their_modules():
    import importlib

    import cyclopair

    for module, names in _PUBLIC_NAMES.items():
        defining = importlib.import_module(f"cyclopair.{module}")
        for name in names:
            assert name in cyclopair.__all__
            namespace = {}
            exec(f"from cyclopair import {name}", namespace)
            assert namespace[name] is getattr(defining, name), name
    assert "InputError" in cyclopair.__all__
    assert issubclass(cyclopair.PairingFormatError, cyclopair.InputError)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cyclopair.no_such_name
    with pytest.raises(ImportError):
        exec("from cyclopair import no_such_name", {})


def test_package_root_loads_a_module_on_first_use():
    script = ("import sys, cyclopair\n"
              "print(sorted(m for m in sys.modules if m.startswith('cyclopair')))\n"
              "from cyclopair import IrregularSet\n"
              "print(sorted(m for m in sys.modules if m.startswith('cyclopair')))\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "['cyclopair']",
        "['cyclopair', 'cyclopair.bernoulli', 'cyclopair.modmath']",
    ]


def test_runtime_does_not_mention_multiprocessing():
    for path in Path(cli.__file__).parent.glob("*.py"):
        assert "multiprocessing" not in path.read_text(), path.name


# Modules a report on complete data has no use for: the table's digest comes
# from the built-in _sha256, not OpenSSL through hashlib, and the counting
# bound is a pair of ints, not a Fraction (which loads numbers and decimal).
_UNUSED_BY_REPORTS = {"dataclasses", "inspect", "traceback", "hashlib", "_hashlib",
                      "fractions", "numbers", "decimal", "_decimal"}


def test_report_loads_neither_dataclasses_nor_traceback(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_bytes(_synth_e_tables(50))
    loaded = _modules_loaded("report", "--max-p", 50, "--jobs", 1, "--pairing", table)
    assert loaded & _UNUSED_BY_REPORTS == set()
    # without --cache, nothing loads the cache module (nor tempfile and pathlib)
    assert "cyclopair.cache" not in loaded


def test_criteria_loads_neither_openssl_nor_fractions(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_bytes(_synth_e_tables(40))
    loaded = _modules_loaded("criteria", 37, "--pairing", table)
    assert "cyclopair.report" in loaded
    assert loaded & _UNUSED_BY_REPORTS == set()
    assert "cyclopair.cache" not in loaded
    # the table's digest: the built-in module (_sha2 from CPython 3.12 on);
    # -X importtime also lists a name whose import failed
    assert loaded & _BUILTIN_SHA256


@pytest.mark.parametrize("argv", [["criteria", 37], ["report", "--max-p", 40]],
                         ids=["criteria", "report"])
def test_reports_without_a_cache_load_neither_tempfile_nor_pathlib(tmp_path, argv):
    # the cache module writes through both; a run without a cache directory
    # has no use for them
    table = tmp_path / "table.tsv"
    table.write_bytes(_synth_e_tables(40))
    loaded = _modules_loaded(*argv, "--pairing", table)
    assert "cyclopair.report" in loaded
    assert loaded & {"tempfile", "pathlib"} == set()


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


def test_bern_p5_row():
    # B_2 = 1/6 == 1 mod 5, by every method
    for args in (("bern", "5"), ("bern", "5", "--k", "2"),
                 ("bern", "5", "--k", "2", "--method", "voronoi")):
        res = run_cli(*args)
        assert res.returncode == 0
        assert res.stdout == b"2\t1\n"


def test_bern_takes_one_route(monkeypatch, capsys):
    # the default method prints the fast row alone: with the recurrence
    # disabled, each run prints what an unpatched run does
    runs = (["bern", "37"], ["bern", "199"], ["bern", "199", "--k", "2"])
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(p):
        raise AssertionError(f"the recurrence ran at p = {p}")

    monkeypatch.setitem(bernoulli._ROW_METHODS, bernoulli.METHOD_NAIVE, refuse)
    for argv, out in zip(runs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
    assert cli.main(["bern", "37", "--method", "naive"]) == 1  # an internal error
    assert "the recurrence ran at p = 37" in capsys.readouterr().err


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


def test_irregular_cache_from_the_environment(tmp_path):
    env = {**os.environ, cli.CACHE_ENV_VAR: str(tmp_path / "env")}
    res = run_cli("irregular", "--max-p", 100, env=env)
    assert res.returncode == 0
    assert (tmp_path / "env" / "irregular.tsv").exists()


def test_irregular_cache_option_overrides_the_environment(tmp_path):
    env = {**os.environ, cli.CACHE_ENV_VAR: str(tmp_path / "env")}
    res = run_cli("irregular", "--max-p", 100, "--cache", tmp_path / "opt", env=env)
    assert res.returncode == 0
    assert (tmp_path / "opt" / "irregular.tsv").exists()
    assert not (tmp_path / "env").exists()


def test_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout == b"0.1.0\n"


def test_irregular_cache_corruption_warns(tmp_path):
    run_cli("irregular", "--max-p", 60, "--cache", tmp_path)
    (tmp_path / "irregular.tsv").write_text("broken\tdata\tcache\n")
    res = run_cli("irregular", "--max-p", 60, "--cache", tmp_path)
    assert res.returncode == 0
    assert res.stdout == b"37\t32\n59\t44\n"  # (59, 44) is irregular too
    assert b"corrupt" in res.stderr


def test_irregular_cache_not_utf8_recomputed(tmp_path):
    run_cli("irregular", "--max-p", 60, "--cache", tmp_path)
    cache_file = tmp_path / "irregular.tsv"
    good = cache_file.read_bytes()
    cache_file.write_bytes(good.replace(b"\t32\n", b"\t3\xff\n"))
    res = run_cli("irregular", "--max-p", 50, "--cache", tmp_path)
    assert res.returncode == 0
    assert res.stdout == b"37\t32\n"
    assert b"corrupt" in res.stderr and b"not UTF-8" in res.stderr
    assert b"Traceback" not in res.stderr
    # the recomputed entries (every p < 50) replace the undecodable file
    assert good.startswith(cache_file.read_bytes())
    cache_file.read_text(encoding="utf-8")


def test_irregular_cache_unreadable_recomputed(tmp_path):
    # a directory where the cache file belongs: it can be neither read nor replaced
    (tmp_path / "irregular.tsv").mkdir()
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV_VAR}
    res = run_cli("irregular", "--max-p", 300, "--cache", tmp_path, env=env)
    assert res.returncode == 0
    assert res.stdout == run_cli("irregular", "--max-p", 300, env=env).stdout
    assert b"cache unreadable, recomputing" in res.stderr
    assert b"cache not writable, continuing uncached" in res.stderr
    assert not list(tmp_path.glob("irregular.*.tmp"))


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
    pytest.param("13\t4,10\n1_009\t-\n", 2, id="p-underscore"),
    pytest.param("+7\t-\n", 1, id="p-plus-sign"),
    pytest.param("13\t4,10\n\u0667\t-\n", 2, id="p-arabic-indic-digit"),
    pytest.param("37\t4, 10\n", 1, id="k-space"),
    pytest.param("13\t4,10\n2147483659\t-\n", 2, id="p-above-2^31"),
])
def test_congruence_sweep_source_rejects_bad_lines(tmp_path, text, bad_line):
    source = tmp_path / "source.tsv"
    source.write_text(text, encoding="utf-8")
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


@pytest.mark.parametrize("p", [157, 1217, 13_000_000])
def test_flag_options_override_only_the_flag_they_name(p):
    from cyclopair.criteria import HypothesisFlags

    defaults = HypothesisFlags.defaults_for(p)
    surjective_flag = {"auto": defaults.pairing_surjective, "yes": "true", "no": "unknown"}
    for vandiver in ("auto", "true", "assumed", "false-unknown"):
        for procyclic in ("auto", "true", "assumed", "false-unknown"):
            for surjective in ("auto", "yes", "no"):
                args = cli.build_parser().parse_args([
                    "criteria", str(p), "--pairing", "-", "--vandiver", vandiver,
                    "--procyclic", procyclic, "--surjective", surjective])
                assert cli._flags_for(args)(p) == HypothesisFlags(
                    defaults.vandiver if vandiver == "auto" else vandiver,
                    defaults.procyclic if procyclic == "auto" else procyclic,
                    surjective_flag[surjective])


def test_criteria_tsv_format():
    res = run_cli("criteria", 11, "--pairing", "/dev/null", "--format", "tsv")
    lines = dict(line.split("\t") for line in res.stdout.decode().splitlines())
    assert lines["gk"] == "HOLDS"
    assert lines["p"] == "11"


@pytest.mark.parametrize("p, pairing", [(1217, FIXTURES / "exceptional.tsv"),
                                        (11, "/dev/null")])
def test_criteria_without_vandiver_has_no_height_bound(p, pairing):
    argv = ("criteria", p, "--pairing", pairing, "--vandiver", "false-unknown")
    res = run_cli(*argv)
    assert res.returncode == 0
    # no height bound at all, in the bytes the report has always printed
    assert ('"height":{"module_zero":false,"d":null,"bound_exact":null,'
            '"bound_corollary":null,"corollary_ceiling":null,"partial":false}'
            in res.stdout.decode())
    obj = json.loads(res.stdout)
    assert obj["greenberg"] == obj["gk"] == "INCONCLUSIVE"
    assert obj["flags"]["vandiver"] == "false-unknown"
    tsv = run_cli(*argv, "--format", "tsv")
    assert tsv.returncode == 0
    lines = tsv.stdout.decode().splitlines()
    start = lines.index("height.module_zero\tfalse")
    assert lines[start:start + 6] == [
        "height.module_zero\tfalse", "height.d\t-", "height.bound_exact\t-",
        "height.bound_corollary\t-", "height.corollary_ceiling\t-",
        "height.partial\tfalse"]
    assert "greenberg\tINCONCLUSIVE" in lines and "gk\tINCONCLUSIVE" in lines


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


@pytest.mark.parametrize("row", [
    pytest.param("E\t3_7\t5\t32\t5", id="p-underscore"),
    pytest.param("E\t37\t+1\t32\t5", id="i-plus-sign"),
    pytest.param("E\t37\t1\t\u0663\u0662\t5", id="k-arabic-indic-digits"),
    pytest.param("E\t37\t7\t32\t" + "1" * 5000, id="value-over-int-digit-limit"),
])
@pytest.mark.parametrize("argv", [["criteria", "37"], ["report", "--max-p", "40"]],
                         ids=["criteria", "report"])
def test_pairing_rows_accept_ascii_digits_only(tmp_path, capsys, row, argv):
    # int() alone would read each of these rows as a valid E row for p = 37,
    # or fail outside the format check on a value of over 4300 digits
    table = tmp_path / "table.tsv"
    table.write_text("E\t37\t3\t32\t5\n" + row + "\n", encoding="utf-8")
    assert cli.main([*argv, "--pairing", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cyclopair: error: ") and "line 2: " in err


@pytest.mark.parametrize("row, message", [
    pytest.param("E\t1219\t1\t784\t5", "1219 is not an odd prime", id="typo-for-1217"),
    pytest.param("E\t9\t1\t2\t3", "9 is not an odd prime", id="odd-composite"),
    pytest.param("E\t2147483649\t1\t2\t3", "p must be at most 2^31 = 2147483648, got 2147483649",
                 id="composite-above-2^31"),
    pytest.param("E\t2147483659\t1\t2\t3", "p must be at most 2^31 = 2147483648, got 2147483659",
                 id="prime-above-2^31"),
])
@pytest.mark.parametrize("argv", [["criteria", "1217"], ["report", "--max-p", "40"]],
                         ids=["criteria", "report"])
def test_pairing_rows_of_a_non_prime_exit_2(tmp_path, capsys, row, message, argv):
    # rows of primes outside the sweep are skipped, but not rows whose p is no
    # prime or lies above the one bound on p
    table = tmp_path / "table.tsv"
    table.write_text("E\t1217\t1\t784\t5\nE\t37\t3\t32\t5\n" + row + "\n")
    assert cli.main([*argv, "--pairing", str(table)]) == 2
    assert capsys.readouterr().err == f"cyclopair: error: {table}: line 3: {message}\n"


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


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bern", "3"], "no even indices", id="p-3"),
    pytest.param(["bern", "4000000007"], "p must be at most 2^31 = 2147483648, got 4000000007",
                 id="p-far-above-2^31"),
    pytest.param(["bern", "37", "--k", "31"], "k must be even", id="k-odd"),
    pytest.param(["bern", "37", "--k", "36", "--method", "voronoi"], "k must be even",
                 id="k-out-of-range-voronoi"),
    pytest.param(["bern", "5", "--k", "4"], "k must be even", id="k-out-of-range-p5"),
    pytest.param(["criteria", "9", "--pairing", "/dev/null"], "not an odd prime",
                 id="criteria-p"),
    pytest.param(["irregular", "--max-p", "50", "--jobs", "0"], "--jobs", id="jobs"),
    pytest.param(["report", "--max-p", "50", "--jobs", "-1", "--pairing", "/dev/null"],
                 "--jobs", id="report-jobs"),
    # above 2^31, rejected before the sieve allocates; never test a bound
    # just below it, which would allocate gigabytes
    pytest.param(["irregular", "--max-p", "4000000000"], "--max-p", id="irregular-max-p"),
    pytest.param(["congruence-sweep", "--max-p", str(2**31 + 1)], "--max-p",
                 id="congruence-sweep-max-p"),
    pytest.param(["report", "--max-p", "4000000000", "--pairing", "/dev/null"], "--max-p",
                 id="report-max-p"),
    # --source skips the sweep, not the checks of the options it shares
    pytest.param(["congruence-sweep", "--max-p", "40", "--source", "/dev/null", "--jobs", "0"],
                 "--jobs", id="congruence-sweep-source-jobs"),
    pytest.param(["congruence-sweep", "--max-p", str(2**31 + 1), "--source", "/dev/null"],
                 "--max-p", id="congruence-sweep-source-max-p"),
    # primes just above 2^31, refused by the primality test's bound
    pytest.param(["bern", "2147483659"], "at most 2^31", id="bern-p-above-2^31"),
    pytest.param(["criteria", "2147483659", "--pairing", "/dev/null"], "at most 2^31",
                 id="criteria-p-above-2^31"),
])
def test_input_errors_exit_2(monkeypatch, capsys, argv, message):
    # every case fails before a row is computed; one that gets through fails
    # here instead of allocating gigabytes
    def refuse(p, *args):
        raise AssertionError(f"computed a row for p = {p}")

    monkeypatch.setattr(cli, "bernoulli_row", refuse)
    monkeypatch.setattr(cli, "irregular_indices", refuse)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cyclopair: error: ") and message in err


def test_undecodable_inputs_exit_2(tmp_path, monkeypatch, capsys):
    binary = tmp_path / "binary.tsv"
    binary.write_bytes(b"13\t4,10\n\xff\xfe\n")
    assert cli.main(["congruence-sweep", "--max-p", "100", "--source", str(binary)]) == 2
    assert capsys.readouterr().err == (
        f"cyclopair: error: {binary}: not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 8: invalid start byte\n"
    )
    # the pairing reader reports the first bad line in file order
    assert cli.main(["criteria", "37", "--pairing", str(binary)]) == 2
    assert capsys.readouterr().err == (
        f"cyclopair: error: {binary}: line 1: expected 5 fields, got 2\n")
    binary.write_bytes(b"# a comment\n\xff\xfe\n")
    assert cli.main(["criteria", "37", "--pairing", str(binary)]) == 2
    assert capsys.readouterr().err == (
        f"cyclopair: error: {binary}: not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 12: invalid start byte\n"
    )
    # stdin is named as given
    status, out = _main_with_stdin(monkeypatch, capsys, ["criteria", "37", "--pairing", "-"],
                                   binary.read_bytes())
    assert status == 2 and out.err == (
        "cyclopair: error: -: not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 12: invalid start byte\n"
    )


def test_internal_value_error_exits_1(monkeypatch, capsys):
    # a ValueError from inside the program is a bug, not a usage error
    def broken(*args):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "build_report", broken)
    assert cli.main(["criteria", "11", "--pairing", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal inconsistency" in err
    assert "cyclopair: error:" not in err


def test_faulty_packing_witness_exits_1(monkeypatch, capsys, tmp_path):
    # the packing re-check's alarm is a bug, not a usage error
    from cyclopair import packing

    path = tmp_path / "synth_full.tsv"
    path.write_text(serialize_pairing_table(synth_table(157, irregular_indices(157), seed=1)))
    monkeypatch.setattr(packing, "_solve_mask",
                        lambda adj, mask, floor=0: (mask.bit_count(), mask, 0))
    assert cli.main(["criteria", "157", "--pairing", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "exact solver produced overlapping translates" in err
    assert "cyclopair: error:" not in err


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


# -- the streamed --pairing read -------------------------------------------------

def _synth_e_tables(max_p: int) -> bytes:
    return "".join(
        serialize_pairing_table(synth_table(irr.p, irr, zero_keys=set(), seed=irr.p))
        for irr in irregular_sweep(max_p) if irr.indices
    ).encode()


def _main_with_stdin(monkeypatch, capsys, argv, stdin: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    status = cli.main(argv)
    return status, capsys.readouterr()


def test_streamed_report_digest_and_stdin(tmp_path, monkeypatch, capsys):
    # blocks far smaller than the table, after a comment with multibyte
    # characters and a "\r\n"; the digest is that of the whole file
    monkeypatch.setattr(pairing, "READ_CHUNK", 7)
    raw = "# tables – café\r\n".encode() + _synth_e_tables(120)
    path = tmp_path / "table.tsv"
    path.write_bytes(raw)
    argv = ["report", "--max-p", "120", "--pairing"]
    assert cli.main([*argv, str(path)]) == 0
    from_file = capsys.readouterr().out
    reports = [json.loads(line) for line in from_file.splitlines()]
    assert {obj["table_digest"] for obj in reports} == {table_digest(raw)}
    assert any(obj["height"] and obj["height"]["d"] for obj in reports)
    status, out = _main_with_stdin(monkeypatch, capsys, [*argv, "-"], raw)
    assert status == 0 and out.out.encode() == from_file.encode()


def test_bad_pairing_path_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    def no_primes(p):
        raise AssertionError(f"computed p = {p}")

    monkeypatch.setattr(bernoulli, "irregular_indices", no_primes)
    monkeypatch.setattr(cli, "irregular_indices", no_primes)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    for path in (tmp_path / "absent.tsv", tmp_path):
        for argv in (["report", "--max-p", "50"], ["criteria", "37"]):
            assert cli.main([*argv, "--pairing", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("cyclopair: error: ") and str(path) in err


def test_pairing_handle_closed_on_every_exit_path(tmp_path, monkeypatch, capsys):
    handles = []

    def tracked_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(cli, "open", tracked_open, raising=False)
    good = tmp_path / "good.tsv"
    good.write_text("E\t37\t7\t32\t5\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text("E\t37\t7\t32\t5\nE\t37\t7\n")

    def broken(*args):
        raise RuntimeError("internal")

    cases = [
        (["criteria", "37", "--pairing", str(good)], 0, None),
        (["criteria", "37", "--pairing", str(bad)], 2, None),          # bad row
        (["report", "--max-p", "50", "--jobs", "0", "--pairing", str(good)], 2, None),  # sweep
        (["criteria", "37", "--pairing", str(good)], 1, "irregular_indices"),  # before the read
        (["criteria", "37", "--pairing", str(good)], 1, "build_report"),       # after it
    ]
    for argv, status, fail_at in cases:
        with monkeypatch.context() as m:
            if fail_at:
                m.setattr(cli, fail_at, broken)
            assert cli.main(argv) == status
        capsys.readouterr()
    assert len(handles) == len(cases)
    assert all(fh.closed for fh in handles)
