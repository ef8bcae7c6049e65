import contextlib
import hashlib
import io
import json
import time

import pytest

from expanderlab.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse errors exit directly
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- bound -----------------------------------------------------------------------


def test_bound_with_d():
    code, out, err = run_cli("bound", "--field", "13", "--a", "6", "--b", "4",
                             "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == 6 and report["best_k"] == 5
    assert report["admissible_k"] == [3, 4, 5]
    assert report["characteristic"] == 13


def test_bound_with_polynomials():
    code, out, _ = run_cli("bound", "--field", "13", "--a", "6", "--b", "4",
                           "--g", "x^2", "--h", "x")
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_bound_infinite_characteristic():
    code, out, _ = run_cli("bound", "--field", "inf", "--a", "100", "--b", "5",
                           "--d", "3")
    assert code == 0
    report = json.loads(out)
    assert report["characteristic"] == "inf" and report["bound"] == 38


def test_bound_composite_field_exits_2():
    code, _, err = run_cli("bound", "--field", "4", "--a", "2", "--b", "2",
                           "--d", "1")
    assert code == 2
    assert "prime" in err


def test_bound_requires_d_xor_polynomials():
    code, _, err = run_cli("bound", "--field", "13", "--a", "6", "--b", "4")
    assert code == 2 and "--d" in err
    code, _, _ = run_cli("bound", "--field", "13", "--a", "6", "--b", "4",
                         "--d", "2", "--g", "x^2", "--h", "x")
    assert code == 2
    code, _, _ = run_cli("bound", "--field", "inf", "--a", "6", "--b", "4",
                         "--g", "x^2", "--h", "x")
    assert code == 2


def test_bound_extension_field_characteristic():
    code, out, _ = run_cli("bound", "--field", "3^2", "--a", "8", "--b", "3",
                           "--d", "2")
    assert code == 0
    assert json.loads(out)["characteristic"] == 3


# -- image -----------------------------------------------------------------------


def test_image_canonical_output():
    code, out, err = run_cli("image", "--field", "13", "--g", "x^2", "--h", "x",
                             "--A", "3,1,2", "--B", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["A"] == ["1", "2", "3"]
    assert payload["image"] == sorted(payload["image"], key=int)
    assert payload["image_size"] == len(payload["image"])
    assert payload["slack"] == payload["image_size"] - payload["theorem_bound"]
    assert payload["slack"] >= 0


def test_image_violations_exit_2():
    code, _, err = run_cli("image", "--field", "13", "--g", "x^2", "--h", "x",
                           "--A", "0,1", "--B", "0")
    assert code == 2
    assert "A contains root 0 of h" in err
    code, _, err = run_cli("image", "--field", "13", "--g", "x", "--h", "x^2",
                           "--A", "1", "--B", "0")
    assert code == 2 and "deg g" in err


def test_image_parse_error_exit_2():
    code, _, err = run_cli("image", "--field", "13", "--g", "x^2", "--h", "x",
                           "--A", "1,banana", "--B", "0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    "bound --field 3^2/+ --a 2 --b 2 --d 1",
    "image --field 13 --g x^2 --h x --A 1 --B +",
    "image --field 13 --g x^2 --h x --A 1+,2 --B 0",
    "image --field 13 --g *x^2 --h x --A 1 --B 0",
    "image --field 13 --g x^2 --h (+) --A 1 --B 0",
    "image --field 13 --g x^2 --h x --A 1,,2 --B 0",
    "image --field 13 --g x^2 --h x --A 1,2, --B 0",
])
def test_empty_terms_exit_2(argv):
    code, out, err = run_cli(*argv.split())
    assert code == 2 and out == "" and err.startswith("error:")


def test_blank_element_list_is_the_empty_set():
    code, out, err = run_cli("image", "--field", "13", "--g", "x^2", "--h", "x",
                             "--A", "", "--B", "0")
    assert code == 2 and out == "" and "A is empty" in err
    code, out, _ = run_cli("certify", "--field", "13", "--g", "x^2", "--h", "x",
                           "--A", "1,2,3,4,5,6", "--B", "5", "--C", "")
    assert code == 0 and json.loads(out)["C"] == []


@pytest.mark.parametrize("field_text", [
    "2^40", "1000000000000000003", "2^99999999999", "101^4",
])
def test_oversized_field_heads_exit_2_quickly(field_text):
    start = time.perf_counter()
    code, out, err = run_cli("bound", "--field", field_text, "--a", "2", "--b", "2",
                             "--d", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error:") and "limit" in err


# -- certify ---------------------------------------------------------------------


def test_certify_random_c_passes():
    code, out, err = run_cli("certify", "--field", "13", "--g", "x^2",
                             "--h", "x", "--A", "1,2,3,4,5,6",
                             "--B", "0,1,2,3", "--seed", "7")
    assert code == 0
    assert err.startswith("PASS")
    cert = json.loads(out)
    assert cert["identity_holds"] is True
    assert len(cert["C"]) == 5                  # best k for (6, 4, d=2, p=13)
    assert cert["predicted"] == cert["pointwise"] == "10"
    assert list(cert) == ["field", "g", "h", "A", "B", "C", "alpha", "beta",
                          "predicted", "pointwise", "identity_holds"]


def test_certify_same_seed_same_bytes():
    argv = ("certify", "--field", "13", "--g", "x^2", "--h", "x",
            "--A", "1,2,3,4,5,6", "--B", "0,1,2,3", "--seed", "9")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    different = run_cli(*argv[:-1], "10")
    assert different[1] != first[1]


def test_certify_explicit_c():
    code, out, _ = run_cli("certify", "--field", "13", "--g", "x^2", "--h", "x",
                           "--A", "1,2,3,4,5,6", "--B", "0,1,2,3",
                           "--C", "0,1,2,3,4")
    assert code == 0
    assert json.loads(out)["C"] == ["0", "1", "2", "3", "4"]


def test_certify_inadmissible_range_exit_2():
    code, _, err = run_cli("certify", "--field", "5", "--g", "x^2", "--h", "x",
                           "--A", "1,2,3,4", "--B", "0,1", "--k", "4")
    assert code == 2
    assert "range" in err


def test_certify_inadmissible_lucas_exit_2():
    code, _, err = run_cli("certify", "--field", "3", "--g", "x", "--h", "1",
                           "--A", "0,1,2", "--B", "0,1", "--C", "0,1,2")
    assert code == 2
    assert "Lucas" in err


def test_certify_c_and_k_mutually_exclusive():
    code, _, _ = run_cli("certify", "--field", "13", "--g", "x^2", "--h", "x",
                         "--A", "1,2", "--B", "0", "--C", "0", "--k", "1")
    assert code == 2


def test_certify_out_file(tmp_path):
    path = tmp_path / "cert.json"
    code, out, err = run_cli("certify", "--field", "13", "--g", "x^2",
                             "--h", "x", "--A", "1,2,3", "--B", "0,1",
                             "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["identity_holds"] is True


# -- search ----------------------------------------------------------------------


def test_search_csv_and_summary():
    code, out, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                             "--a", "2", "--b", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("field,g,h,a,b,image_size")
    assert len(lines) == 1 + 60
    assert "min slack 0" in err
    assert "A={1,4}" in err and "B={1,4}" in err


def test_search_reruns_are_byte_identical():
    argv = ("search", "--field", "7", "--g", "x^3", "--h", "x+1",
            "--a", "1-3", "--b", "2", "--mode", "random",
            "--sample-count", "20", "--seed", "11", "--format", "json")
    assert run_cli(*argv) == run_cli(*argv)


def test_search_parallelism_does_not_change_bytes():
    base = None
    for workers in ("1", "2", "8"):
        out = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                      "--a", "1-3", "--b", "1-2", "--parallelism", workers)
        assert out[0] == 0
        if base is None:
            base = out[1]
        assert out[1] == base


@pytest.mark.parametrize("argv, sha256", [
    ("search --field 7 --g x^2 --h x --a 2 --b 2",
     "9cc3430f172a4659b8c9a27574956657f80ffc71b091d16e872f6240785ac765"),
    ("subfield --field 5^2 --m 1 --c-fraction 1/2 --theta-count 5 --seed 0",
     "c0c6f56db5b40305f2b6b056899e0c5bffb541bf7d6361b9c2f598ab2ac9e337"),
    ("search --field 3^2 --g x^2 --h x --a 1-3 --b 1-2 --format json",
     "179fdb7bd878fd58e75b1db8f981e5654eedcaf4cd9883fd0b7ce85108eb9c4f"),
    ("subfield --field 2^4 --m 2 --c-fraction 1/2 --format json",
     "fdcbde590acebe712765ed743b41a203092857eed1e35cc67b2d1a053c96ed64"),
    ("search --field 2^4 --g x^2 --h x --a 1 --b 1-2 --format plain",
     "525bd8d269154163fd3250be9f8c00be5806530c8ea1e8572d2e0a10be90de34"),
    ("subfield --field 3^2 --m 1 --c-fraction 1/2 --format plain",
     "f935c7672442af2c8a0459777af300faa1f35a68cdcc43306b2c88450f69d13f"),
    ("search --field 7 --g x^3 --h x+1 --a 1-3 --b 2 --mode random "
     "--sample-count 500 --seed 11 --format json",
     "39da8d9849a2c22c9fed389a3e9351f16eac18cf588ba7ca628738cab9adfd7c"),
    ("certify --field 13 --g x^2 --h x --A 1,2,3,4,5,6 --B 0,1,2,3 --seed 7",
     "41ac5a701fd927d21982e5d751e88c690dd1a403b1ceebe7c547577ea0d9dad7"),
    ("bound --field 2 --a 100000 --b 100 --d 1",
     "00981d659709333daf9df3d6cf69f74376d1ed2a231a65c9bbf54de6d8a2b975"),
    ("subfield --field 2^6 --m 3 --c-fraction 1/2 --random-a --seed 5",
     "b3c9b451a4605566ceb67abc768760bca30a9954341e219410f7c6e53452fa9c"),
    ("search --field 3^2/t^2+t+2 --g x^3−(t+1)*x --h 2*t*x+1 --a 1-2 --b 1 "
     "--format plain",
     "15a1af485891d5bc2cc97dc81824f376e1a2839982db12af6bca8238903453d6"),
    ("image --field 5 --g x^2 --h x --A 1,2,3,4 --B 0,1,2,3,4",
     "1977fe4a5be4e70955a80fd42de259bcda52c31d53f42fbf945087f11c821164"),
    ("certify --field 3^2 --g x^2 --h x --A 1,2,t,t+1,t+2,2*t,2*t+1,2*t+2 "
     "--B 0,1,2 --seed 1",
     "177e81e99014cf49f55b39e05542f5021e147fa4ca9f7478dfa5567ce8293d20"),
    ("certify --field 13 --g x^2 --h x --A 1,2,3,4,5,6 --B 5 --k 0",
     "9b1bea0fe4e9ae2f8bba64af83b5b2f88ad9f953692d991202c16836bc438c9c"),
    ("certify --field 13 --g 2*x^3+x --h x^2+1 --A 1,2,3,4,6,7,9 --B 0,1 --seed 3",
     "2e935e2c2936d67e117f40e1dd893a79563bfd82a6c4f9ec3be8ed5c33b15b36"),
    # Multi-term coefficients, parenthesised in g and h, constant terms included.
    ("image --field 3^2 --g x^2+(t+1) --h t*x+(2*t+1) --A 1,2,t --B 0,1,t+1",
     "58dfa5a1e602da5562a1ef96cf350afb127dda6e76d143ee64bebd6a389a1709"),
    ("certify --field 3^2 --g (2*t+1)*x^2+(t+2) --h x+t --A 1,2,t,t+1,2*t+1 "
     "--B 0,t --seed 4",
     "47858a9b9e27f3b34007026cdac8a990b864ddac97978ef2829957c5b25f82e5"),
    ("search --field 2^3 --g x^3+(t^2+1)*x --h (t+1)*x+(t^2+t) --a 1 --b 1-2 "
     "--format plain",
     "cffe22d9d38f51ee358e56b9de6986408b473001f3a0232be945cfe14409cd6d"),
])
def test_stdout_bytes_are_pinned(argv, sha256):
    # Digests of the stdout these runs have always produced.
    code, out, _ = run_cli(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_search_budget_flag_and_env(monkeypatch):
    code, _, err = run_cli("search", "--field", "13", "--g", "x^2", "--h", "x",
                           "--a", "6", "--b", "6", "--budget", "1000")
    assert code == 2 and "budget" in err
    monkeypatch.setenv("EXPANDER_LAB_BUDGET", "10")
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "2", "--b", "2")
    assert code == 2 and "budget is 10" in err
    # explicit flag wins over the environment
    code, out, _ = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "2", "--b", "2", "--budget", "1000000")
    assert code == 0 and out


def test_search_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nfield=5\ng=x^2\nh=x\na=2\nb=2\n"
                   "format=plain\nseed=3\n")
    code, out, _ = run_cli("search", "--config", str(cfg))
    assert code == 0
    assert out.startswith("slack=0 field=5")
    code, out2, _ = run_cli("search", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out2.startswith("field,g,h,")


def test_search_config_that_is_not_utf8_exit_2(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"field=5\xff\n")
    code, _, err = run_cli("search", "--config", str(cfg))
    assert code == 2 and err.startswith(f"error: cannot read config {cfg}")


def test_search_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run_cli("search", "--config", str(cfg))
    assert code == 2 and "bogus" in err


def test_search_missing_required_options():
    code, _, err = run_cli("search", "--field", "5")
    assert code == 2 and "--g" in err


def test_search_out_file(tmp_path):
    path = tmp_path / "records.csv"
    code, out, _ = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "2", "--b", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("field,g,h,")


def test_search_bad_size_exit_2():
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "two", "--b", "2")
    assert code == 2 and "size" in err


# -- subfield --------------------------------------------------------------------


def test_subfield_run_and_summary():
    code, out, err = run_cli("subfield", "--field", "3^2", "--m", "1",
                             "--c-fraction", "1/2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 7
    assert lines[1].split(",")[8] == ""         # baseline has no threshold
    assert lines[2].split(",")[8] == "2"        # proved threshold
    assert "min slack 0" in err


def test_subfield_improper_divisor_exit_2():
    code, _, err = run_cli("subfield", "--field", "3^2", "--m", "2",
                           "--c-fraction", "1/2")
    assert code == 2
    assert "properly divide" in err


def test_subfield_bad_fraction_exit_2(tmp_path):
    code, _, err = run_cli("subfield", "--field", "3^2", "--m", "1",
                           "--c-fraction", "0")
    assert code == 2
    code, _, err = run_cli("subfield", "--field", "3^2", "--m", "1",
                           "--c-fraction", "5/4")
    assert code == 2
    code, _, err = run_cli("subfield", "--field", "5^2", "--m", "1",
                           "--c-fraction", "1/0")
    assert code == 2 and err.startswith("error: bad numeric option")
    cfg = tmp_path / "sub.cfg"
    cfg.write_text("field=5^2\nm=1\nc_fraction=1/0\n")
    code, _, err = run_cli("subfield", "--config", str(cfg))
    assert code == 2 and err.startswith("error: bad numeric option")


def test_out_under_missing_directory_exit_2(tmp_path):
    out = str(tmp_path / "missing" / "x.csv")
    code, stdout, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                                "--a", "2", "--b", "2", "--out", out)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_subfield_config_with_flags(tmp_path):
    cfg = tmp_path / "sub.cfg"
    cfg.write_text("field=5^2\nm=1\nc_fraction=1/2\ntheta_count=3\nseed=2\n")
    code, out, _ = run_cli("subfield", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 1 + 3
    code, out2, _ = run_cli("subfield", "--config", str(cfg),
                            "--theta-count", "5")
    assert code == 0
    assert len(out2.strip().split("\n")) == 1 + 1 + 5


def test_subfield_random_a_flag():
    argv = ("subfield", "--field", "5^2", "--m", "1", "--c-fraction", "1/2",
            "--random-a", "--seed", "4")
    assert run_cli(*argv) == run_cli(*argv)


def test_subfield_json_format():
    code, out, _ = run_cli("subfield", "--field", "3^2", "--m", "1",
                           "--c-fraction", "1/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["subfield_distance"] == 0
    assert data[1]["proved_threshold"] == 2
    assert data[1]["A"] == ["1", "2"]


# -- selftest --------------------------------------------------------------------


def test_selftest_passes():
    code, out, _ = run_cli("selftest")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_selftest_reports_failures(monkeypatch):
    import expanderlab.cli as cli_mod

    def fake_selftest():
        return [("good", True, "ok"), ("bad", False, "boom")]

    monkeypatch.setattr(cli_mod, "run_selftest", fake_selftest)
    code, out, _ = run_cli("selftest")
    assert code == 1
    assert "FAIL bad (boom)" in out
    assert "1/2 checks passed" in out


# -- top-level behavior ------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_console_script_matches_module_entry():
    import os
    import subprocess
    import sys

    import expanderlab
    # The child imports the package under test, installed or not.
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "expanderlab", "bound", "--field", "7",
         "--a", "3", "--b", "2", "--d", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    code, out, _ = run_cli("bound", "--field", "7", "--a", "3", "--b", "2",
                           "--d", "2")
    assert proc.stdout == out
