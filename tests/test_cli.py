import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import bound as bound_mod
from expanderlab import certificate, cli, explore, selftest
from expanderlab.cli import main
from expanderlab.errors import InvalidParametersError, ValidationError
from expanderlab.field import Field, FieldElem
from expanderlab.poly import parse_poly
from oracles import build_parser


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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


def test_bound_with_too_many_admissible_k_exits_2_quickly():
    start = time.perf_counter()
    code, out, err = run_cli("bound", "--field", "2", "--a", "1000000000000000",
                             "--b", "1", "--d", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "10000000" in err and "a=1000000000000000, b=1, d=1" in err


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


@pytest.mark.parametrize("argv, report", [
    ("--field 13 --a 6 --b 4 --d 2", (6, 4, 2, 13)),
    ("--field 3^2 --a 8 --b 3 --d 2", (8, 3, 2, 3)),
    ("--field inf --a 100 --b 5 --d 3", (100, 5, 3, bound_mod.INF)),
    ("--field 2 --a 1 --b 1 --d 1", (1, 1, 1, 2)),
    ("--field 5 --a 40 --b 1 --d 3", (40, 1, 3, 5)),
    ("--field 7 --a 1 --b 9 --d 2", (1, 9, 2, 7)),
    ("--field 2 --a 1000 --b 37 --d 1", (1000, 37, 1, 2)),
    ("--field 13 --a 6 --b 4 --g x^2 --h x", (6, 4, 2, 13)),
])
def test_bound_output_is_the_indented_json_of_the_report(argv, report):
    # The admissible k are laid out by hand; the bytes are json's own.
    # The list is never empty: k = b - 1 is always admissible.
    code, out, _ = run_cli("bound", *argv.split())
    report = bound_mod.theorem_bound(*report)
    assert code == 0 and report.admissible_k
    assert out == json.dumps(report.to_dict(), indent=2) + "\n"


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


@pytest.mark.parametrize("argv, message", [
    ("image --field 13 --g x^2 --h x --A 1,,2 --B 0", "--A: empty item in '1,,2'"),
    ("image --field 13 --g x^2 --h x --A 1 --B 0,1,", "--B: empty item in '0,1,'"),
    ("certify --field 13 --g x^2 --h x --A 1,2,3 --B 0 --C 1,,2",
     "--C: empty item in '1,,2'"),
])
def test_empty_list_items_name_their_option(argv, message):
    assert run_cli(*argv.split()) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("choice, tested", [
    ((), [13, 13]),                 # the field, then theorem_bound for the best k
    (("--k", "2"), [13]), (("--C", "0,1"), [13])])
def test_certify_tests_the_primality_of_p_once_per_layer(monkeypatch, choice, tested):
    # Field checks p; the admissibility of k reads it from the field unchecked.
    calls, prime = [], bound_mod.is_prime
    monkeypatch.setattr(bound_mod, "is_prime", lambda n: calls.append(n) or prime(n))
    code, _, _ = run_cli("certify", "--field", "13", "--g", "x^2", "--h", "x",
                         "--A", "1,2,3", "--B", "0,1", *choice)
    assert (code, calls) == (0, tested)


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
    # All theta on a 4,096-element field: element names of up to 12 terms.
    ("subfield --field 2^12 --m 6 --c-fraction 1/2",
     "b4102a018ee0aa9f72ea1955261b43f27f0cba0e5ec56788d0dc52c184064741"),
    # A prime field near 10^6, the most the root scan's price admits at deg h = 1.
    ("search --field 999983 --g x^2 --h x --a 20 --b 20 --mode random "
     "--sample-count 200",
     "dd6f4b00a6d9be57e42a4c27ee569e7b9059b4918f2db6a857d8fbec4baba36e"),
    # The benchmark workloads' runs (search-exhaustive is pinned below):
    # subfield-sweep, bound-scan and certify-solve at workload seed 1.
    ("subfield --field 31^2 --m 1 --c-fraction 1/2 --theta-count 200 --seed 0",
     "6d57d984a1213a8ff6ba77be2425b1b1e9f0060973d13029d2c47af643e7cdb3"),
    ("bound --field 2 --a 1000000 --b 1000 --d 1",
     "ab2aea223d14545439dc7c81992b34a58e2b45828c34ad0ce15543cb2e9b0b8f"),
    ("certify --field 251 --g x^2 --h x --A 6,12,13,15,18,23,24,25,27,34,39,40,48,50,55,"
     "57,58,59,66,70,77,78,88,89,90,91,92,93,97,98,99,100,104,106,109,110,123,127,130,132,"
     "135,139,144,147,152,157,161,163,168,186,194,199,204,206,208,210,216,220,224,230,241,"
     "245,247,248 --B 30,47,52,55,137,147,153,182,195,208,221,243 --seed 728508574",
     "ef41d99408c4d18002181fd0dbc23b1b1357e75ba54db3d0cebcddf7f073a154"),
])
def test_stdout_bytes_are_pinned(argv, sha256):
    # Digests of the stdout these runs have always produced.
    code, out, _ = run_cli(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, driver, sha256", [
    pytest.param("search --field 13 --g x^2 --h x --a 2-3 --b 2", "search_extremal",
                 "43a2203e8b7e8b2e61f0fa1ec590310574e6c51da9c186e13941df147d977698",
                 id="search-exhaustive"),
    pytest.param("subfield --field 31^2 --m 1 --c-fraction 1/2 --theta-count 200 --seed 0",
                 "subfield_experiment",
                 "6d57d984a1213a8ff6ba77be2425b1b1e9f0060973d13029d2c47af643e7cdb3",
                 id="subfield-sweep"),
])
def test_cli_runs_the_public_drivers(monkeypatch, argv, driver, sha256):
    # The benchmark's tracer finds the explore layer by these module names,
    # so search and subfield must run through them, once per invocation.
    calls = dict.fromkeys(["search_extremal", "subfield_experiment"], 0)
    for name in calls:
        def counting(*args, _name=name, _run=getattr(explore, name), **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)
        monkeypatch.setattr(explore, name, counting)
    code, out, _ = run_cli(*argv.split())
    assert code == 0 and calls == {**dict.fromkeys(calls, 0), driver: 1}
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_search_budget_flag_and_env(monkeypatch):
    # The flag sets the budget; the environment does not.
    code, _, err = run_cli("search", "--field", "13", "--g", "x^2", "--h", "x",
                           "--a", "6", "--b", "6", "--budget", "1000")
    assert code == 2 and "budget" in err
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "2", "--b", "2", "--budget", "10")
    assert code == 2 and "budget is 10" in err
    monkeypatch.setenv("EXPANDER_LAB_BUDGET", "10")
    code, out, _ = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "2", "--b", "2")
    assert code == 0 and out


def test_search_random_budget_is_refused_quickly():
    # 1000 samples of |A| = |B| = 400 evaluate up to 1.6 * 10^8 values.
    start = time.perf_counter()
    code, out, err = run_cli("search", "--field", "997", "--g", "x^2", "--h", "x",
                             "--a", "400", "--b", "400", "--mode", "random",
                             "--sample-count", "1000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "needs 160000000 value evaluations but the budget is 10000000" in err


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


def test_config_with_a_byte_order_mark(tmp_path):
    # Some editors start a UTF-8 file with U+FEFF; it is no part of the first key.
    text = "field=5\ng=x^2\nh=x\na=2\nb=2\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run_cli("search", "--config", str(plain))
    assert code == 0 and out
    assert run_cli("search", "--config", str(marked)) == (code, out, err)


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


def test_search_refuses_a_field_too_large_to_list_quickly():
    # A non-constant h's roots are scanned; the scan price is the one cap.
    start = time.perf_counter()
    code, out, err = run_cli("search", "--field", "999999999989", "--g", "x^2",
                             "--h", "x", "--a", "1", "--b", "1", "--mode", "random",
                             "--sample-count", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err == (
        "error: the scan for the roots of h needs q*(deg h + 1) = 999999999989*(1 + 1) = "
        "1999999999978 index operations, more than 2000000\n")


@pytest.mark.parametrize("argv, line", [
    # a binomial sure to pass the budget is refused uncomputed
    ("--a 10000000 --b 1", "error: run needs more than 10000000 pairs but the budget is "
     "10000000; narrow the ranges or switch to random mode\n"),
    ("--a 1-1000000000000 --b 1", "error: run needs more than 10000000 pairs but the budget is "
     "10000000; narrow the ranges or switch to random mode\n"),
    # a range of sizes is summed, not listed
    ("--a 1-1000000000000 --b 1 --mode random", "error: run needs 49999999998950000000005500 "
     "value evaluations but the budget is 10000000; narrow the ranges or draw fewer samples\n"),
])
def test_search_prices_a_huge_field_without_listing_it(argv, line):
    start = time.perf_counter()
    code, out, err = run_cli("search", "--field", "999999999989", "--g", "x", "--h", "1",
                             *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", line)


def test_search_refuses_a_binomial_too_long_to_print():
    # binom(999983, 2000) has over 4300 digits, more than str() renders of an int.
    code, out, err = run_cli("search", "--field", "999983", "--g", "x", "--h", "1",
                             "--a", "2000", "--b", "1")
    assert (code, out) == (2, "") and err.startswith("error: run needs more than 10000000 pairs")


def test_random_search_with_a_constant_h_runs_on_any_prime_field():
    # A nonzero constant h has no roots, so nothing scans the field's indices.
    start = time.perf_counter()
    code, out, err = run_cli("search", "--field", "999999999989", "--g", "x", "--h", "1",
                             "--a", "3", "--b", "3", "--mode", "random", "--sample-count", "200")
    assert time.perf_counter() - start < 2
    assert code == 0 and err.startswith("200 records; min slack ")
    assert out.count("\n999999999989,x,1,3,3,9,5,4,,,") == 200


def test_search_refuses_a_root_scan_priced_by_deg_h():
    # q*(deg h + 1) index ops before the budget gate; at deg h = 1 the cap
    # admits a field of 10^6 elements.
    start = time.perf_counter()
    code, out, err = run_cli("search", "--field", "1009", "--g", "x^10001",
                             "--h", "x^10000+1", "--a", "1", "--b", "1", "--mode", "random",
                             "--sample-count", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err == (
        "error: the scan for the roots of h needs q*(deg h + 1) = 1009*(10000 + 1) = "
        "10091009 index operations, more than 2000000\n")


def test_search_summary_breaks_ties_on_element_strings():
    # The first record in output order is A={1,2} B={14}; the summary compares
    # A and B as element strings, where '10' < '2'.
    code, out, err = run_cli("search", "--field", "17", "--g", "x^2", "--h", "x",
                             "--a", "2", "--b", "1", "--format", "plain")
    assert code == 0 and out.split("\n")[0].endswith(" A={1,2} B={14}")
    assert err == "2040 records; min slack 0 at a=2 b=1 A={1,10} B={6}\n"
    code, out, err = run_cli("search", "--field", "17", "--g", "x^2", "--h", "x",
                             "--a", "20", "--b", "1")
    assert (code, err) == (0, "0 records\n") and out.count("\n") == 1


@pytest.mark.parametrize("command, body", [
    ("search", "field=5\ng=x^2\nh=x\na=2\nb=2\n"),
    ("subfield", "field=3^2\nm=1\nc_fraction=1/2\n"),
])
def test_unknown_config_format_leaves_out_alone(tmp_path, command, body):
    out, cfg = tmp_path / "records.txt", tmp_path / "run.cfg"
    cfg.write_text(f"{body}format=xml\nout={out}\n")
    assert run_cli(command, "--config", str(cfg)) == (
        2, "", "error: unknown format 'xml'\n")
    assert not out.exists()
    out.write_text("keep")
    assert run_cli(command, "--config", str(cfg))[0] == 2
    assert out.read_text() == "keep"


@pytest.mark.parametrize("argv", [
    "search --field 13 --g x^2 --h x --a 2 --b 2",
    "subfield --field 3^2 --m 1 --c-fraction 1/2",
])
def test_negative_slack_leaves_out_alone(tmp_path, monkeypatch, argv):
    # Every pair is ranked, and its slack checked, before --out is opened.
    monkeypatch.setattr(explore.bound_mod, "theorem_bound",
                        lambda a, b, d, p: SimpleNamespace(bound=10**6))
    out = tmp_path / "records.csv"
    out.write_text("keep")
    code, stdout, err = run_cli(*argv.split(), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("internal error: negative slack")
    assert out.read_text() == "keep"


def test_search_output_and_summary_build_no_record(monkeypatch):
    # Every format renders each distinct row once and joins in A and B per
    # pair, and the summary reads the least rows' (A, B): no record is built.
    made = []

    class Counted(explore.ExperimentRecord):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            made.append(1)
            return super().__new__(cls, *args, **kwargs)

        @classmethod
        def _make(cls, iterable):
            made.append(1)
            return super()._make(iterable)

    monkeypatch.setattr(explore, "ExperimentRecord", Counted)
    summary = "22308 records; min slack 0 at a=2 b=2 A={1,12} B={1,12}\n"
    for fmt in ("csv", "json", "plain"):
        code, out, err = run_cli("search", "--field", "13", "--g", "x^2", "--h", "x",
                                 "--a", "2-3", "--b", "2", "--format", fmt)
        assert (code, err, made) == (0, summary, [])
    slacks = [int(line.split(",")[7]) for line in run_cli(
        "search", "--field", "13", "--g", "x^2", "--h", "x", "--a", "2-3", "--b", "2")[1]
        .splitlines()[1:]]
    assert (len(slacks), slacks.count(min(slacks)), made) == (22308, 228, [])
    assert not hasattr(explore, "_plain_line")


def test_search_writes_stdout_in_blocks_not_lines():
    # Under PYTHONUNBUFFERED every write to stdout is one system call; the
    # 22,308 records go out in blocks, not one write per line.
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = Counting()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["search", "--field", "13", "--g", "x^2", "--h", "x",
                     "--a", "2-3", "--b", "2"])
    assert code == 0
    assert out.writes <= -(-22308 // explore.WRITE_BLOCK) + 3
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "43a2203e8b7e8b2e61f0fa1ec590310574e6c51da9c186e13941df147d977698")


@pytest.mark.parametrize("argv, thetas, cells", [
    # x -> x^3 is 3-to-1 on F_13*, so A has N(A) = 4 distinct (g(x), h(x)):
    # image 13 + 4 = 17, below the proved threshold 18 (theorem bound 15).
    ("subfield --field 13^2 --m 1 --c-fraction 12/13 --g x^6 --h x^3", 156,
     ["12", "14", "17", "15", "2", "18", "24"]),
    # image 13, below the conjectured threshold 16 (proved 12).
    ("subfield --field 3^4 --m 2 --c-fraction 8/9 --g x^4 --h x^2", 72,
     ["8", "10", "13", "11", "2", "12", "16"]),
    # image 7, below the conjectured threshold 8 (proved 6).
    ("subfield --field 5^2 --m 1 --c-fraction 4/5 --g x^4 --h x^2", 20,
     ["4", "6", "7", "6", "1", "6", "8"]),
])
def test_theta_images_below_a_threshold_are_not_errors(argv, thetas, cells):
    # The thresholds are reported, never raised on: the proved one is
    # asserted only for g = x^2, h = x on F_9 and F_25.
    code, out, err = run_cli(*argv.split())
    assert code == 0 and err.startswith(f"{1 + thetas} records; min slack 0 at ")
    rows = [line.split(",") for line in out.splitlines()[2:]]    # the theta rows
    assert len(rows) == thetas
    assert all(row[3:10] == cells for row in rows)


def test_unknown_config_format_is_refused_before_the_run(tmp_path, monkeypatch):
    # One check covers a format from the flag and from the file, before any
    # work: --budget 1 would refuse the search itself, and no search runs.
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text("field=5\ng=x^2\nh=x\na=3\nb=3\nformat=xml\n")
    monkeypatch.setattr(explore, "search_extremal", lambda **opts: pytest.fail("search ran"))
    for flags in ([], ["--format", "xml"]):
        assert run_cli("search", "--config", str(cfg), "--budget", "1", "--out", str(out),
                       *flags) == (2, "", "error: unknown format 'xml'\n")
    assert not out.exists()


def test_search_bad_size_exit_2():
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "two", "--b", "2")
    assert code == 2 and err == "error: --a: expected an integer or LO-HI range, got 'two'\n"
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           "--a", "1-x", "--b", "2")
    assert err == "error: --a: expected an integer or LO-HI range, got '1-x'\n"


# Sizes as typed: digits, dashes, spaces and junk, with --a=TEXT so that a
# leading dash stays a value.
SIZE_TEXT = st.text("0123456789- x", max_size=6)


def _ends_cleanly(code, err):
    return code == 0 or (code == 2 and err.startswith("error:"))


@settings(max_examples=100, deadline=None)
@given(SIZE_TEXT, SIZE_TEXT, st.sampled_from(["exhaustive", "random"]))
def test_size_text_exits_0_or_2(a, b, mode):
    code, _, err = run_cli("search", "--field", "5", "--g", "x^2", "--h", "x",
                           f"--a={a}", f"--b={b}", "--mode", mode, "--budget", "500")
    assert _ends_cleanly(code, err), err


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
    assert code == 2 and err == "error: --c-fraction: c = '1/0' is not a finite number\n"
    cfg = tmp_path / "sub.cfg"
    cfg.write_text("field=5^2\nm=1\nc_fraction=1/0\n")
    code, _, err = run_cli("subfield", "--config", str(cfg))
    assert code == 2 and err == "error: --c-fraction: c = '1/0' is not a finite number\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_subfield_huge_c_exponent_exits_2_at_once(tmp_path, source):
    # Fraction would build 10^99999999999 first; a child process makes a
    # regression fail on the timeout instead of hanging the suite.
    import os
    import subprocess
    import sys

    import expanderlab
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["subfield", "--field", "3^2", "--m", "1", "--c-fraction", "1e-99999999999"]
    if source == "config":
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("field=3^2\nm=1\nc_fraction=1e-99999999999\n")
        argv = ["subfield", "--config", str(cfg)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "expanderlab", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exponent" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_subfield_reports_huge_c_as_given():
    # 10^4300 has more digits than int-to-text conversion allows.
    code, _, err = run_cli("subfield", "--field", "3^2", "--m", "1",
                           "--c-fraction", "1e4300")
    assert code == 2 and err == "error: c must satisfy 0 < c < 1, got 1e4300\n"


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


def test_every_bool_option_is_a_flag(monkeypatch):
    text, spec = cli.COMMANDS["image"]
    monkeypatch.setitem(cli.COMMANDS, "image", (text, spec + " dry-run:bool"))
    monkeypatch.setitem(cli._NOTES, "dry-run", "evaluate nothing")
    assert cli.parse_args(["image", "--dry-run", "--field", "5"]) == (
        "image", {"dry_run": True, "field": "5"})
    with pytest.raises(InvalidParametersError, match="--dry-run takes no value, got 'no'"):
        cli.parse_args(["image", "--dry-run=no"])
    assert f"  {'--dry-run':<22}evaluate nothing\n" in cli._help("image")


def test_subfield_json_format():
    code, out, _ = run_cli("subfield", "--field", "3^2", "--m", "1",
                           "--c-fraction", "1/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["subfield_distance"] == 0
    assert data[1]["proved_threshold"] == 2
    assert data[1]["A"] == ["1", "2"]


# Config files: a runnable base with a few entries replaced or added (known
# and unknown keys, plausible and junk values) and sometimes a junk line.
# Fields are kept small (the field head has its own fuzz in test_grammar), and
# --budget and --out on the command line bound the work and keep files in
# tmp; flags override the file, so those two keys are merged but not used.
CONFIG_BASES = {"search": {"field": "5", "g": "x^2", "h": "x", "a": "1-2", "b": "1-2"},
                "subfield": {"field": "3^2", "m": "1", "c_fraction": "1/2"}}
# The config keys: each command's are its driver's keywords and the output keys.
SEARCH_KEYS = tuple(inspect.signature(explore.search_extremal).parameters) + ("format", "out")
SUBFIELD_KEYS = tuple(inspect.signature(explore.subfield_experiment).parameters) + (
    "format", "out")
CONFIG_KEYS = sorted(set(SEARCH_KEYS) | set(SUBFIELD_KEYS))
CONFIG_FIELDS = st.one_of(
    st.sampled_from(["5", "7", "3^2", "2^4", "5^2", "2^4/t^4+t+1", "4", "", "x"]),
    st.text("0123456789^/t", max_size=1))
CONFIG_VALUES = st.one_of(
    st.sampled_from(["1", "2", "3", "1-2", "2-3", "x^2", "x", "x^3+1", "t*x",
                     "1/2", "3/4", "random", "exhaustive", "csv", "json", "plain",
                     "true", "no", "-1", "0"]),
    st.text("0123456789-/x^t+,.= #", max_size=4))


@st.composite
def config_text(draw, command):
    entries = dict(CONFIG_BASES[command])
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.one_of(*[st.sampled_from(CONFIG_KEYS)] * 3,
                             st.text("abcdefghijklmnopqrstuvwxyz_-", max_size=8)))
        field = key.strip().replace("-", "_") == "field"
        entries[key] = draw(CONFIG_FIELDS if field else CONFIG_VALUES)
    lines = [f"{key}={value}" for key, value in entries.items()]
    junk = draw(st.one_of(st.none(), st.none(), st.text(" #=abc1", max_size=6)))
    if junk is not None:
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@pytest.mark.parametrize("command", ["search", "subfield"])
def test_config_files_exit_0_or_2(tmp_path_factory, command):
    tmp = tmp_path_factory.mktemp(command)
    cfg, out = tmp / "run.cfg", tmp / "out"
    extra = ["--budget", "500"] if command == "search" else []

    @settings(max_examples=100, deadline=None)
    @given(config_text(command))
    def run(text):
        cfg.write_text(text, encoding="utf-8")
        code, stdout, err = run_cli(command, "--config", str(cfg), "--out", str(out),
                                    *extra)
        assert _ends_cleanly(code, err) and stdout == "", err

    run()


# -- selftest --------------------------------------------------------------------


SELFTEST_LINES = [
    "PASS field-axioms (7, 2^3, 3^2)",
    "PASS lucas-vs-pascal (k < 40, p in {2,3,5,7})",
    "PASS bound-examples (frozen examples and 500 random dominations)",
    "PASS certificate-identities (F_13 and F_9 identities replayed)",
    "PASS refutation-witness (witness x=2 y=1)",
    "PASS soundness-sweep (210 exhaustive instances over F_5)",
    "PASS search-determinism (150 records, workers 1 vs 2)",
    "PASS subfield-baseline (F_9 over its prime subfield)",
    "8/8 checks passed",
]


def test_selftest_passes():
    assert run_cli("selftest") == (0, "\n".join(SELFTEST_LINES) + "\n", "")


# (check, where, name, replacement, the check's detail): each replacement
# breaks a layer the check calls, and no other check.  Names the checks
# import are patched on selftest, the rest on their own module.
SELFTEST_BREAKS = [
    ("field-axioms", FieldElem, "__truediv__", lambda a, b: a,
     "(a * b) / b = a at a = 1, b = 2 in F_7"),
    ("lucas-vs-pascal", bound_mod, "lucas_nonvanishing", lambda k, r, p: True,
     "lucas_nonvanishing(2, 1, 2) = (binom(2, 1) mod 2 != 0)"),
    ("bound-examples", selftest, "theorem_bound",
     lambda *args: bound_mod.theorem_bound(*args)._replace(bound=0),
     "theorem_bound(6, 4, 2, 13).bound = 6"),
    ("certificate-identities", certificate, "_pointwise_sum", lambda g, *_: g.field.zero(),
     "pointwise = predicted: 0 = 10 in F_13"),
    ("refutation-witness", selftest, "refute_cover",
     lambda inst, C: certificate.refute_cover(inst, C)._replace(witness_value=inst.field.zero()),
     "g(2) + 1 * h(2) = 0"),
    ("soundness-sweep", bound_mod, "image", lambda inst: (),
     "|f(A, B)| >= 1 at A = (1,), B = (0,)"),
    ("search-determinism", selftest, "search_extremal",
     lambda parallelism, **cfg: list(explore.search_extremal(**cfg))[parallelism - 1:],
     "CSV at parallelism 1 = CSV at parallelism 2"),
    ("subfield-baseline", selftest, "subfield_experiment",
     lambda *args: [r._replace(image_size=2) for r in explore.subfield_experiment(*args)],
     "(image_size, slack, subfield_distance) = (3, 0, 0) at B = K"),
    # A check that crashes reports the exception, not an equation.
    ("soundness-sweep", bound_mod, "image", lambda inst: 1 / 0,
     "raised ZeroDivisionError: division by zero"),
]


@pytest.mark.parametrize("check, where, name, replacement, detail", SELFTEST_BREAKS,
                         ids=[row[0] + "-crash" * row[4].startswith("raised")
                              for row in SELFTEST_BREAKS])
def test_selftest_names_the_equation_that_failed(monkeypatch, check, where, name,
                                                 replacement, detail):
    monkeypatch.setattr(where, name, replacement)
    lines = [f"FAIL {check} ({detail})" if line.split()[1] == check else line
             for line in SELFTEST_LINES[:-1]]
    assert run_cli("selftest") == (1, "\n".join(lines + ["7/8 checks passed"]) + "\n", "")


def test_selftest_reports_failures(monkeypatch):
    # cmd_selftest imports run_selftest when it runs, so the patch on its
    # home module is what it calls.
    import expanderlab.selftest as selftest_mod

    def fake_selftest():
        return [("good", True, "ok"), ("bad", False, "boom")]

    monkeypatch.setattr(selftest_mod, "run_selftest", fake_selftest)
    code, out, _ = run_cli("selftest")
    assert code == 1
    assert "FAIL bad (boom)" in out
    assert "1/2 checks passed" in out


# -- top-level behavior ------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    "search --field 13 --g x^2 --h x --a 2 --b 2",
    "image --field 13 --g x^2 --h x --A 1,2,3 --B 0,1",
])
def test_negative_slack_exits_1_with_nothing_on_stdout(monkeypatch, argv):
    # A bound above every image is a broken proof: an internal error.
    monkeypatch.setattr(bound_mod, "theorem_bound",
                        lambda a, b, d, p: SimpleNamespace(bound=10**6))
    code, out, err = run_cli(*argv.split())
    assert code == 1 and out == ""
    assert err.startswith("internal error: negative slack")


def test_certify_exits_1_when_the_identity_fails(monkeypatch):
    import expanderlab.certificate as certificate_mod
    build = certificate_mod.build_certificate
    monkeypatch.setattr(certificate_mod, "build_certificate",
                        lambda inst, C: build(inst, C)._replace(
                            pointwise=inst.field.element(0)))
    code, _, err = run_cli("certify", "--field", "13", "--g", "x^2", "--h", "x",
                           "--A", "1,2,3,4,5,6", "--B", "0,1,2,3", "--seed", "7")
    assert code == 1
    assert err.startswith("FAIL: predicted")


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


@pytest.mark.parametrize("argv", [
    "bound --field 7 --a 3 --b 2 --d 2",
    "image --field 13 --g x^2 --h x --A 1,2,3 --B 0,1",
    "certify --field 13 --g x^2 --h x --A 1,2,3 --B 0,1 --seed 1",
    "search --field 5 --g x^2 --h x --a 2 --b 1-2 --format json",
    "search --field 7 --g x^2 --h x --a 2 --b 2 --mode random --sample-count 5 --format plain",
    "subfield --field 3^2 --m 1 --c-fraction 1/2",
    "selftest",
])
def test_an_invocation_depends_on_its_arguments_alone(argv):
    # Two runs of one argv, the second under a budget variable, another hash
    # seed and the C locale, give the same exit code and the same bytes.
    import subprocess
    import sys

    import expanderlab
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    runs = [subprocess.run([sys.executable, "-m", "expanderlab", *argv.split()],
                           capture_output=True, timeout=60, env={"PYTHONPATH": src, **env})
            for env in ({"PYTHONHASHSEED": "0"},
                        {"EXPANDER_LAB_BUDGET": "1", "PYTHONHASHSEED": "12345", "LC_ALL": "C"})]
    first, second = ((run.returncode, run.stdout, run.stderr) for run in runs)
    assert first[0] == 0 and first[1]
    assert first == second


def test_closed_stdout_pipe_exits_141_quietly():
    # About 1 MB of CSV, more than a pipe buffer holds: the writer meets the
    # closed pipe mid-run and stops as a shell's writer does, without a trace.
    import os
    import subprocess
    import sys

    import expanderlab
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "expanderlab", "search", "--field", "13", "--g", "x^2",
         "--h", "x", "--a", "2-3", "--b", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"field,g,h,")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# -- validation paths --------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    # the MAX_EXPONENT memory guard, for a polynomial and for a modulus
    ("bound --field 5 --a 3 --b 2 --g x^1000001 --h x",
     "error: exponent 1000001 in 'x^1000001' exceeds 1000000\n"),
    ("bound --field 3^2/t^1000001+1 --a 3 --b 2 --d 1",
     "error: exponent 1000001 in 't^1000001+1' exceeds 1000000\n"),
    ("search --field 5 --g x^2 --h x --a 2 --b 2 --mode random --sample-count 0",
     "error: sample_count must be >= 1, got 0\n"),
    ("subfield --field 3^2 --m 1 --c-fraction 1/2 --parallelism 0",
     "error: parallelism must be >= 1, got 0\n"),
    # h = x^3 - x vanishes on all of F_3
    ("subfield --field 3^2 --m 1 --c-fraction 1/2 --g x^4 --h x^3-x",
     "error: no usable subfield elements for A\n"),
    ("certify --field 13 --g x^2 --h x --A 0,1,2 --B 0,1",
     "error: invalid instance: A contains root 0 of h\n"),
    ("certify --field 13 --g x^2 --h x --A 1,2,3 --B 0,1 --k 20",
     "error: k = 20 fails the range condition [1, 2]\n"),
    ("bound --field 3^0 --a 3 --b 2 --d 1",
     "error: extension degree must be a positive integer, got 0\n"),
    ("search --field 3^0 --g x^2 --h x --a 2 --b 2",
     "error: extension degree must be a positive integer, got 0\n"),
    # a modulus is refused for a prime field, after the prime check
    ("bound --field 13/t+1 --a 3 --b 2 --d 1",
     "error: modulus 't+1' given for the prime field F_13\n"),
    ("bound --field 4/t+1 --a 3 --b 2 --d 1",
     "error: characteristic 4 is not prime\n"),
    # a zero polynomial is named in words, not by a degree of -inf
    ("search --field 13 --g x^2 --h 0 --a 2 --b 2",
     "error: need deg g > deg h with g non-constant and h nonzero "
     "(got deg g = 2, h is the zero polynomial)\n"),
    ("bound --field 13 --a 3 --b 2 --g 0 --h x",
     "error: need deg g > deg h with g non-constant and h nonzero "
     "(got g is the zero polynomial, deg h = 1)\n"),
    # a modulus that factors, or of the wrong degree
    ("bound --field 3^2/t^2+2 --a 3 --b 2 --d 1", "error: t^2+2 is reducible over F_3\n"),
    ("bound --field 3^2/t^3+t+1 --a 3 --b 2 --d 1",
     "error: modulus must be monic of degree 2, got degree 3\n"),
    ("bound --field 3^2/2*t^2+1 --a 3 --b 2 --d 1", "error: modulus 2*t^2+1 is not monic\n"),
    # the degree is the written one: a leading term 0 mod p still counts
    ("bound --field 3^2/3*t^3+t^2+1 --a 3 --b 2 --d 1",
     "error: modulus must be monic of degree 2, got degree 3\n"),
    ("image --field 13 --g x^2 --h x --A '' --B 0", "error: invalid instance: A is empty\n"),
    # k = |C| outside [b - 1, (a - 1) // d + b - 1], then binom(3, 1) = 0 in F_3
    ("certify --field 5 --g x^2 --h x --A 1,2,3,4 --B 0,1 --k 4",
     "error: k = 4 fails the range condition [1, 2]\n"),
    ("certify --field 3 --g x --h 1 --A 0,1,2 --B 0,1 --C 0,1,2",
     "error: k = 3 fails the Lucas condition: binom(3, 1) vanishes in characteristic 3\n"),
    ("search --field 13 --g x^2 --h x --a 2-3 --b 2 --budget 10",
     "error: run needs 22308 pairs but the budget is 10; "
     "narrow the ranges or switch to random mode\n"),
    ("search --field 5 --g x^2 --h x --a 2 --b 2 --mode random --sample-count 50 --budget 10",
     "error: run needs 200 value evaluations but the budget is 10; "
     "narrow the ranges or draw fewer samples\n"),
    ("subfield --field 13 --m 1 --c-fraction 1/2",
     "error: m = 1 must properly divide the extension degree 1\n"),
    # a characteristic that does not parse, then one that is not prime
    ("bound --field many --a 3 --b 2 --d 1",
     "error: characteristic must be prime or inf, got 'many'\n"),
    ("bound --field 4 --a 3 --b 2 --d 1", "error: characteristic 4 is not prime\n"),
])
def test_validation_paths_exit_2(argv, message):
    assert run_cli(*shlex.split(argv)) == (2, "", message)


def _fault_text(path) -> str:
    """What a path says of a fault: CLI arguments exit 2 with one "error:"
    line, and a library call raises the ValidationError the CLI prints there."""
    if isinstance(path, str):
        code, out, err = run_cli(*shlex.split(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        return err[len("error: "):-1]
    with pytest.raises(ValidationError) as exc:
        path()
    return str(exc.value)


F13 = Field(13)
X2, X = (parse_poly(text, F13) for text in ("x^2", "x"))


@pytest.mark.parametrize("message, paths", [
    ("characteristic 4 is not prime", [
        "bound --field 4 --a 3 --b 2 --d 1", "bound --field 4^2 --a 3 --b 2 --d 1",
        "bound --field 4 --a 3 --b 2 --g x^2 --h x", "image --field 4 --g x^2 --h x --A 1 --B 0",
        "certify --field 4 --g x^2 --h x --A 1 --B 0", "search --field 4 --g x^2 --h x --a 1 --b 1",
        "subfield --field 4^2 --m 1 --c-fraction 1/2", lambda: Field(4), lambda: Field(4, 2),
        lambda: bound_mod.parse_characteristic("4"), lambda: bound_mod.theorem_bound(3, 2, 1, 4),
        lambda: bound_mod.lucas_nonvanishing(2, 1, 4)]),
    # a k beyond q reads like any k outside the range, not as a failed draw
    ("k = 20 fails the range condition [1, 2]",
     ["certify --field 13 --g x^2 --h x --A 1,2,3 --B 0,1 --k 20"]),
    ("k = 5 fails the range condition [1, 2]",
     ["certify --field 13 --g x^2 --h x --A 1,2,3 --B 0,1 --k 5"]),
    ("k = 6 fails the Lucas condition: binom(6, 4) vanishes in characteristic 5",
     ["certify --field 5 --g x --h 1 --A 0,1,2,3,4 --B 0,1,2,3,4 --k 6"]),
    ("a sizes must be >= 1", [
        "search --field 13 --g x^2 --h x --a 0 --b 2",
        "search --field 13 --g x^2 --h x --a -1 --b 2",
        "search --field 13 --g x^2 --h x --a 0-3 --b 2",
        lambda: explore.search_extremal("13", "x^2", "x", (0, 3), 2)]),
    # check_instance lists it after "invalid instance: ", solve_alpha raises it alone
    ("A contains root 0 of h", [
        "certify --field 13 --g x^2 --h x --A 0,1,2 --B 0,1",
        lambda: bound_mod.check_instance(F13, X2, X, [0, 1, 2], [0, 1]),
        lambda: certificate.solve_alpha([F13.element(i) for i in (0, 1, 2)], X, 2, 1)]),
], ids=["characteristic", "k beyond q", "k in q", "Lucas", "sizes", "root of h"])
def test_one_fault_reads_one_way(message, paths):
    for path in paths:
        assert _fault_text(path).removeprefix("invalid instance: ") == message, path


SUBFIELD_RANDOM = ("subfield", "--field", "5^2", "--m", "1", "--c-fraction", "1/2",
                   "--theta-count", "2", "--seed", "2", "--format", "plain")


@pytest.mark.parametrize("value, flag", [
    ("yes", True), ("1", True), ("off", False), ("no", False)])
def test_random_a_from_a_config_file(tmp_path, value, flag):
    # Plain output, since the CSV has no A column; seed 2 draws A={1,3,4},
    # the first elements are A={1,2,3}.
    cfg = tmp_path / "sub.cfg"
    cfg.write_text(f"random_a={value}\n")
    code, out, err = run_cli(*SUBFIELD_RANDOM, "--config", str(cfg))
    assert (code, out, err) == run_cli(*SUBFIELD_RANDOM, *["--random-a"] * flag)
    assert ("A={1,3,4}" if flag else "A={1,2,3}") in out


def test_random_a_config_value_must_be_a_boolean(tmp_path):
    cfg = tmp_path / "sub.cfg"
    cfg.write_text("random_a=maybe\n")
    assert run_cli(*SUBFIELD_RANDOM, "--config", str(cfg)) == (
        2, "", "error: --random-a: expected a boolean, got 'maybe'\n")


# Each subcommand whose options have kinds, as the entries of a valid run, and
# a bad value of each kind.
KIND_BASES = {
    "bound": {"field": "2", "a": "3", "b": "1", "d": "1"},
    "certify": {"field": "13", "g": "x^2", "h": "x", "A": "1,2,3", "B": "0,1"},
    "search": {"field": "5", "g": "x^2", "h": "x", "a": "2", "b": "2"},
    "subfield": {"field": "3^2", "m": "1", "c-fraction": "1/2"},
}
BAD_VALUES = {"int": "x", "sizes": "2-x", "bool": "maybe", "c": "1/0"}
# (command, option, kind, where the bad value comes from): a flag (random-a
# takes none), and a config file where the command reads one.
BAD_VALUE_CASES = [
    (command, name, kind, source) for command in KIND_BASES
    for name, _, kind in cli._specs(command) if kind
    for source in ["flag"] * (kind != "bool") + ["config"] * ("config" in cli._options(command))
]


@pytest.mark.parametrize("command, name, kind, source", BAD_VALUE_CASES)
def test_a_bad_value_is_one_error_line_naming_its_option(tmp_path, command, name, kind, source):
    entries, out = dict(KIND_BASES[command]), tmp_path / "out"
    entries[name] = BAD_VALUES[kind]
    if "out" in cli._options(command):
        entries["out"] = str(out)
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in entries.items()))
        argv = ["--config", str(cfg)]
    else:
        argv = [token for key, value in entries.items() for token in (f"--{key}", value)]
    code, stdout, err = run_cli(command, *argv)
    assert (code, stdout) == (2, "") and not out.exists()
    assert re.fullmatch(f"error: --{name}: [^\n]*\n", err), err


# -- the CLI surface ---------------------------------------------------------------


CLI_OPTIONS = {
    "bound": "--field --a --b --d --g --h",
    "image": "--field --g --h --A --B",
    "certify": "--field --g --h --A --B --C --k --seed --out",
    "search": "--field --g --h --a --b --mode --sample-count --seed --parallelism "
              "--budget --format --out --config",
    "subfield": "--field --m --c-fraction --g --h --theta-count --seed --random-a "
                "--parallelism --format --out --config",
    "selftest": "",
}


def test_cli_surface_is_pinned():
    assert sorted(cli.COMMANDS) == sorted(CLI_OPTIONS)
    for command, options in CLI_OPTIONS.items():
        given = sorted("--" + name for name in cli._options(command))
        assert given == sorted(options.split()), command


@pytest.mark.parametrize("command, keys", [
    ("search", SEARCH_KEYS), ("subfield", SUBFIELD_KEYS)])
def test_config_keys_are_the_flag_destinations(command, keys):
    dests = {name.replace("-", "_") for name in cli._options(command)}
    assert dests - {"config"} == set(keys)
    # Kinds agree with the driver: where it gives a default, the default has
    # the option's type, and sizes and c, which it reads itself, have none.
    driver = {"search": explore.search_extremal, "subfield": explore.subfield_experiment}
    params = inspect.signature(driver[command]).parameters
    empty = inspect.Parameter.empty
    for name, _, kind in cli._specs(command):
        param = params.get(name.replace("-", "_"))     # format, out and config: none
        default = param.default if param else empty
        if kind in ("sizes", "c"):
            assert default is empty, name
        elif default is not empty and default is not None:
            assert type(default) is {"int": int, "bool": bool, "": str}[kind], name


@pytest.mark.parametrize("command", ["", *CLI_OPTIONS])
def test_help_exits_0(command):
    code, out, _ = run_cli(*command.split(), "--help")
    assert code == 0 and out.startswith("usage: expander-lab")
    for name in cli._options(command) if command else cli.COMMANDS:
        assert re.search(rf"^  (--)?{name}\b", out, re.M), name


def test_main_runs_the_cmd_function_the_module_holds(monkeypatch):
    # A wrapper set on the module, as perfbench's tracer sets one, is what runs.
    seen = []
    monkeypatch.setattr(cli, "cmd_bound", lambda opts: seen.append(opts) or 0)
    argv = ["bound", "--fi=2", "--a", "3", "--b", "1", "--d", "1", "--d", "2"]
    assert run_cli(*argv) == (0, "", "")
    assert seen == [{"field": "2", "a": 3, "b": 1, "d": 2}]


def test_a_value_may_begin_with_one_dash():
    # argparse refused "--g -x^2" as a missing value; the table reads it.
    code, out, _ = run_cli("bound", "--field", "7", "--a", "3", "--b", "2", "--g", "-x^2",
                           "--h", "x")
    assert code == 0 and json.loads(out)["d"] == 2
    assert cli.parse_args(["search", "--g", "-x^2", "--seed", "-1"]) == (
        "search", {"g": "-x^2", "seed": "-1"})


@pytest.mark.parametrize("argv, message", [
    ("", "expected a command (bound, image, certify, search, subfield, selftest), got none"),
    ("frobnicate --help", "expected a command (bound, image, certify, search, subfield, "
                          "selftest), got 'frobnicate'"),
    ("search --f 5", "ambiguous option --f: --field, --format"),
    ("search --s 1 --help", "ambiguous option --s: --sample-count, --seed"),
    ("bound --field", "--field needs a value"),
    ("bound --field --a 3", "--field needs a value"),
    ("subfield --random-a=yes", "--random-a takes no value, got 'yes'"),
    ("bound --field 2 --a 3 --b 1 --d 1 --e 2", "unknown option or stray argument '--e'"),
    ("selftest now", "unknown option or stray argument 'now'"),
    ("bound --a 3", "missing required option(s): --field, --b"),
    ("certify --field 13 --g x^2 --h x --A 1 --B 0 --C 0 --k 1",
     "--C and --k cannot be given together"),
    ("bound --field 2 --a three --b 1 --d 1", "--a: expected an integer, got 'three'"),
])
def test_parse_errors_are_one_line_and_exit_2(argv, message):
    assert run_cli(*argv.split()) == (2, "", f"error: {message}\n")


# -- parse_args against the argparse oracle ------------------------------------------


# Values of every kind an option meets: numbers, sizes, polynomials, element
# lists, the formats and modes, junk, an empty string and a negative number.
# argparse refused "-x^2" as a value, and -h after a bare option; the table
# reads both as the value.
VALUES = st.sampled_from(["5", "13", "2-3", "x^2", "x", "1,2", "", "csv", "xml", "random",
                          "walk", "-1", "abc", "0", "1/2", "-x^2"])
ODD_NAMES = ["zzz", "sample_count", "A", "a", "fields", "help"]


@st.composite
def table_argv(draw):
    """A command and tokens built from its options: full names, prefixes and
    "=" values, repeats, the flag, bare options, unknown ones, strays, -h."""
    command = draw(st.sampled_from([*cli.COMMANDS]))
    names = [*cli._options(command)] * 3 + ODD_NAMES
    argv = [command]
    if draw(st.booleans()):     # the required options first, so that argparse may accept
        for name, required in cli._options(command).items():
            argv += [f"--{name}", draw(st.sampled_from(["5", "13", "x"]))] * required
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(names))
        spelled = "--" + name[:draw(st.integers(1, len(name)))] if draw(st.booleans()) else (
            "--" + name)
        form = draw(st.sampled_from(["value"] * 6 + ["equals"] * 2 + ["bare", "stray", "-h"]))
        if form == "value":
            argv += [spelled, draw(VALUES)]
        elif form == "equals":
            argv.append(f"{spelled}={draw(VALUES)}")
        elif form == "bare":
            argv.append(spelled)
        else:
            argv.append(draw(VALUES) if form == "stray" else "-h")
    return argv


def _oracle(parser, argv):
    """("ok", given), ("help", usage line) or ("error", message) from argparse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        return ("help", out.getvalue().partition("\n")[0]) if exc.code == 0 else (
            "error", err.getvalue())
    return "ok", (ns.command, {k: v for k, v in vars(ns).items()
                               if k not in ("func", "command") and v is not None})


def _relaxed(argv):
    """Whether a bare --name precedes a token that begins with one "-" and is
    no negative number: argparse took it for an option, the table for a value."""
    return any(prev.startswith("--") and "=" not in prev and re.match(r"-(?!-|\d+$)", token)
               for prev, token in zip(argv, argv[1:]))


def _last_values(argv):
    """argv without the earlier repeats of an option and their values, or
    None when no option repeats.  A name is exact or a unique prefix, as
    argparse reads it; any other token stays where it stands."""
    if not argv or argv[0] not in cli.COMMANDS:
        return None
    kinds = {n: k for n, _, k in cli._specs(argv[0])} | {"help": "bool"}
    spans, rest = [], argv[1:]
    while rest:
        head, eq, _ = rest[0][2:].partition("=") if rest[0][:2] == "--" else ("", "", "")
        found = [n for n in kinds if n == head] or [n for n in kinds if head and n.startswith(head)]
        name = found[0] if len(found) == 1 else None
        width = 2 if (name and not eq and kinds[name] != "bool" and rest[1:2]
                      and rest[1][:2] != "--") else 1
        spans.append((name, rest[:width]))
        rest = rest[width:]
    last = {name: i for i, (name, _) in enumerate(spans) if name}
    if len(last) == sum(1 for name, _ in spans if name):
        return None
    return [argv[0], *(token for i, (name, span) in enumerate(spans)
                       if name is None or last[name] == i for token in span)]


def test_parse_args_accepts_what_argparse_accepted(tmp_path_factory):
    parser = build_parser()
    workdir = tmp_path_factory.mktemp("argv")       # where an accidental --out would land

    @settings(max_examples=500, deadline=None)
    @given(table_argv())
    @example(["bound", "--field", "5", "--a", "x", "--b", "5", "--a", "5", "--d", "5"])
    def run(argv):
        verdict, detail = _oracle(parser, argv)
        try:
            mine = cli.parse_args(argv)
        except InvalidParametersError:
            mine = None
        last = _last_values(argv)
        if verdict == "error" and mine is not None and mine[1] is not None and last:
            # A repeated option keeps its last value, where argparse converts
            # every one (--a x --a 5): its verdict is on the last repeats.
            verdict, detail = _oracle(parser, last)
        if verdict == "ok":
            # argparse converted these to int, and defaulted certify's seed to 0.
            command, given = mine
            for key in {"bound": ("a", "b", "d"), "certify": ("k", "seed")}.get(command, ()):
                if key in given:
                    given[key] = int(given[key])
            if command == "certify":
                given.setdefault("seed", 0)
            assert (command, given) == detail
        elif verdict == "help":
            assert mine is not None and mine[1] is None, argv
            assert detail.startswith(f"usage: expander-lab {mine[0] or '[-h]'}")
        elif not _relaxed(argv):
            if mine is not None and mine[1] is None:
                # Values are checked after parsing, and options as they come,
                # so --help after a value argparse refused (no int, no choice,
                # --C with --k) or before an ambiguous option gives help.
                assert re.search("invalid int value|invalid choice|not allowed with|"
                                 "ambiguous option", detail), argv
                return
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                code, out, err = run_cli(*argv)
            finally:
                os.chdir(cwd)
            assert (code, out) == (2, "") and re.fullmatch("error: [^\n]*\n", err), (argv, err)

    run()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=6), st.sampled_from(
    ["--", "-", "-h", "--help", "--h", "--=", "--field=", "=", "--f", "search", "bound",
     "subfield", "certify", "--random-a", "--random-a=", "--c", "--s"])), max_size=8))
def test_parse_args_returns_or_refuses_any_tokens(argv):
    try:
        command, given = cli.parse_args(argv)
    except InvalidParametersError:
        return
    assert command is None or command in cli.COMMANDS
    assert given is None or all(isinstance(v, (str, bool)) for v in given.values())
