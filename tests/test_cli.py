import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from msum import campaign, classify, cli, cyclo, engine
from msum.cli import main
from msum.errors import ClassificationOverlap, ModulusTooLarge, NotFoundWithinCap
from msum.store import ResultStore

GOLDEN = Path(__file__).parent / "golden"


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "OPENBLAS_NUM_THREADS": "1"}


def golden(name: str) -> str:
    return (GOLDEN / name).read_text().rstrip("\n")


def test_m_basic():
    res = run("m", "4", "7")
    assert res.exit_code == 0
    assert "m=3" in res.output
    assert "4^0+4^1+4^2" in res.output


def test_m_golden():
    res = run("m", "4", "7")
    assert res.output.rstrip("\n") == golden("m_4_7.txt")


def test_m_congruent_one():
    res = run("m", "1", "9")
    assert res.exit_code == 0
    assert "m=9" in res.output and "q=1 mod e" in res.output


def test_m_golden_of_a_label_range_query():
    # order 3159 mod the prime 277993: the pinned witness (0, 517, 2319)
    res = run("m", "47608", "277993")
    assert res.output.rstrip("\n") == golden("m_47608_277993.txt")


def test_m_golden_of_a_label_range_order_at_a_small_prime():
    # order 2049 mod the prime 4099, where the coset route's estimate keeps
    # the label step: witness 4^0 + 4^0 + 4^1025
    res = run("m", "4", "4099")
    assert res.exit_code == 0
    assert res.output.rstrip("\n") == golden("m_4_4099.txt")


@pytest.mark.parametrize("q, mv", [(1, 4398205895659), (4398205895658, 2)])
def test_m_prints_m_when_the_modulus_cannot_be_factored(q, mv):
    # e = 2097169 * 2097211 has no prime factor below 2^20 and is no prime
    # power: the engine answers (pair route), and factoring e for the order
    # made this exit 2 with "cannot factor"
    e = 4398205895659
    res = run("m", str(q), str(e))
    assert res.exit_code == 0, res.output
    assert f"m={mv}" in res.output and "could not be factored" in res.output
    res = run("m", str(q), str(e), "--format", "json")
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert (out["m"], out["n"], out["e1"], out["ceil_bound"]) == (mv, None, None, None)


def test_m_of_order_two_beyond_the_dense_range():
    # e = 5 * 397 * 2113 > 2^22 is not an odd prime power and -1 is not a
    # power of q: the order-2 scan ended at 2^22, and this exited 2
    res = run("m", "1677721", "4194305")
    assert res.exit_code == 0
    assert "m=10" in res.output


def test_m_from_corollary8_list():
    res = run("m", "9", "26")
    assert res.exit_code == 0
    assert "m=6" in res.output


def test_m_usage_error_names_coprimality():
    res = run("m", "2", "4")
    assert res.exit_code == 2
    assert "coprime" in res.output


def test_m_beyond_engine_range_is_a_usage_error():
    res = run("m", "3", "16777220")  # above 2^24, not an odd prime power
    assert res.exit_code == 2
    assert "beyond dense BFS range" in res.output
    assert "Traceback" not in res.output


def test_m_text_for_q_congruent_one_builds_no_witness():
    # the text form prints no witness for q = 1 (mod e); building the e-long one
    # anyway needed about 8 GB at e = 10^9 + 7 and, under a 1 GiB address-space
    # cap, died with MemoryError
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from msum.cli import main; main(['m', '1', '1000000007'])")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "m=1000000007 (q=1 mod e case)" in proc.stdout


def test_m_of_order_two_with_huge_m_fits_one_gib():
    # m = 2^21: the bitmask BFS kept every level of 512 KiB and ended in a
    # MemoryError traceback under a 1 GiB address-space cap
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from msum.cli import main; main(['m', '2097153', '4194304'])")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "m=2097152, witness 2097151*2097153^0+2097153^1" in proc.stdout


def test_m_json_for_q_congruent_one_builds_no_witness():
    res = run("m", "1", "9", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["m"] == 9 and doc["witness"] is None
    assert "q=1 (mod e)" in doc["closed_forms"]
    # the e-long witness needed about 8 GB here and died with MemoryError under the cap
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from msum.cli import main; main(['m', '1', '1000000007', '--format', 'json'])")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["m"] == 1000000007 and doc["witness"] is None


def test_m_engine_fault_is_one_error_line(monkeypatch):
    # a witness that fails the engine's check is a failed internal check:
    # exit 2 with one line, never a traceback with exit 1 ("violations found")
    monkeypatch.setattr(engine, "_dense_witness", lambda e, pw, m, member: (0,) * m)
    res = run("m", "4", "7")
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output == "Error: the witness of m(4, 7) = 3 fails its check (engine bug)\n"


def test_m_beyond_orbit_range_fails_at_once():
    # 2^60 - 93 is prime; factoring it for its order, or trial division before
    # the orbit engine's range check, went past 10 s
    proc = subprocess.run([sys.executable, "-m", "msum", "m", "2", str(2**60 - 93)],
                          env=src_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "beyond orbit engine range" in proc.stderr


def test_m_large_dense_modulus_within_seconds():
    # 2 generates all of (Z/1000003Z)*: the bitmask BFS shifted the level by
    # each of its 10^6 elements and took about 85 s; the label route takes one level
    proc = subprocess.run([sys.executable, "-m", "msum", "m", "2", "1000003"],
                          env=src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "m(2,1000003): m=2, witness 2^0+2^500001" in proc.stdout


def test_m_two_beyond_dense_range():
    # 2^22 + 1 = 5 * 397 * 2113 is no odd prime power, but 2^22 = -1 mod it;
    # it was refused with exit 2
    res = run("m", "2", "4194305")
    assert res.exit_code == 0, res.output
    assert "m(2,4194305): m=2, witness 2^0+2^22" in res.output
    assert "m=2 criterion" in res.output
    res = run("m", "2", "4194307")  # order 50,940, -1 not a power of 2
    assert res.exit_code == 2 and "not an odd prime power" in res.output


def test_m_json():
    res = run("m", "4", "7", "--format", "json")
    doc = json.loads(res.output)
    assert doc["m"] == 3 and doc["witness"] == [0, 1, 2]
    assert doc["n"] == 3 and doc["e1"] == 1 and doc["ceil_bound"] == 3


def test_m_format_csv_is_usage_error():
    res = run("m", "4", "7", "--format", "csv")
    assert res.exit_code == 2


def test_m_grouped_witness_for_long_sums():
    res = run("m", "8", "63")  # m = 14: witness rendered in grouped form
    assert res.exit_code == 0
    assert "m=14" in res.output
    assert "*8^" in res.output


def test_table_csv():
    res = run("table", "--e-max", "12")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "e,q,n,e1,m"
    assert "7,2,3,1,3" in lines  # m(2,7) = 3
    assert "7,4,3,1,3" in lines  # m(4,7) = 3
    # deterministic ordering: e ascending, q ascending within e
    keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert keys == sorted(keys)


def test_table_golden():
    # the e1 column comes from the divisor table; before it, from np.gcd
    res = run("table", "--e-max", "60")
    assert res.exit_code == 0
    assert res.output.rstrip("\n") == golden("table_60.csv")


def test_table_json_schema():
    res = run("table", "--e-max", "8", "--format", "json")
    doc = json.loads(res.output)
    assert set(doc) == {"rows"}
    for row in doc["rows"]:
        assert set(row) == {"e", "q", "n", "e1", "m"}
        assert all(isinstance(v, int) for v in row.values())


def test_table_format_text_is_usage_error():
    # text would print the same CSV: one behaviour, one spelling
    res = run("table", "--e-max", "6", "--format", "text")
    assert res.exit_code == 2


def test_table_out_file(tmp_path):
    out = tmp_path / "grid.csv"
    res = run("table", "--e-max", "6", "--out", str(out))
    assert res.exit_code == 0
    assert out.read_text().startswith("e,q,n,e1,m")


def test_table_q_range_clamped():
    res = run("table", "--e-max", "10", "--q-min", "2", "--q-max", "3")
    qs = {int(ln.split(",")[1]) for ln in res.output.strip().splitlines()[1:]}
    assert qs <= {2, 3}


def test_table_refuses_modulus_beyond_dense_range():
    res = run("table", "--e-min", str(engine.DENSE_LIMIT + 1),
              "--e-max", str(engine.DENSE_LIMIT + 1))
    assert res.exit_code == 2
    assert str(engine.DENSE_LIMIT) in res.output


@pytest.mark.parametrize("bounds", [("--e-max", "1"), ("--e-min", "9", "--e-max", "8")])
def test_table_refuses_an_empty_range(bounds):
    # a bare CSV header with exit 0 would read as an answer
    res = run("table", *bounds)
    assert res.exit_code == 2
    assert "no modulus" in res.output
    assert "e,q,n,e1,m" not in res.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bounds", [("--e-max", "12", "--q-min", "20"),  # every q > e - 1
                                    ("--e-min", "4", "--e-max", "4", "--q-min", "2",
                                     "--q-max", "2")])  # the one q shares a factor with e
def test_table_refuses_a_q_range_that_selects_no_pair(bounds, fmt):
    res = run("table", *bounds, "--format", fmt)
    assert res.exit_code == 2
    assert "--q-min" in res.output and "--q-max" in res.output
    assert "e,q,n,e1,m" not in res.output and "rows" not in res.output


def test_verify_writes_report_and_exits_zero(tmp_path):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["verify", "corollary8", "--e-max", "30",
                                   "--jobs", "1"])
        assert res.exit_code == 0, res.output
        doc = json.loads(Path("reports/corollary8.json").read_text())
        assert doc["ok"] is True and doc["claim_id"] == "corollary8"


def test_verify_custom_report_path(tmp_path):
    report = tmp_path / "out.json"
    res = run("verify", "lemma3", "--e-max", "40", "--jobs", "1",
              "--report", str(report))
    assert res.exit_code == 0
    assert json.loads(report.read_text())["ok"] is True


def test_verify_jobs_default_is_affinity(tmp_path, monkeypatch):
    seen = []
    real = campaign.run_claim

    def spy(claim_id, params, jobs, store):
        seen.append(jobs)
        return real(claim_id, params, jobs=1, store=store)

    monkeypatch.setattr(campaign, "run_claim", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    args = ("verify", "lemma3", "--e-max", "12", "--report", str(tmp_path / "r.json"))
    assert run(*args).exit_code == 0
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it
    assert run(*args).exit_code == 0
    assert seen == [3, 7]


def test_verify_unknown_claim_usage_error():
    res = run("verify", "nosuch")
    assert res.exit_code == 2
    assert "unknown claim" in res.output


def test_verify_unknown_claim_lists_the_known_ones():
    res = run("verify", "nosuch", "--e-max", "10")
    assert res.exit_code == 2
    known = ", ".join(sorted(campaign.list_claims()))
    assert res.output == f"Error: unknown claim 'nosuch' (known: {known})\n"


def test_verify_flag_the_claim_does_not_take_is_usage_error(tmp_path):
    report = tmp_path / "r.json"
    res = run("verify", "theorem1", "--r", "3", "--k-cap", "2", "--jobs", "1",
              "--report", str(report))
    assert res.exit_code == 2
    assert "takes no parameter ['k_cap', 'r']" in res.output
    assert not report.exists()


def test_verify_refused_store_is_usage_error(tmp_path):
    store = tmp_path / "garbage.bin"
    store.write_bytes(b"not a result store at all")
    out = subprocess.run(
        [sys.executable, "-m", "msum", "verify", "divisibility", "--e-max", "10",
         "--jobs", "1", "--store", str(store), "--report", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=src_env())
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert f"{store}: bad magic" in out.stderr
    assert not (tmp_path / "r.json").exists()


def _verify_in_subprocess(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "-m", "msum", "verify", *args, "--e-max", "10", "--jobs", "1"],
        capture_output=True, text=True, env=src_env(), cwd=tmp_path)


def test_verify_store_that_is_a_directory_is_usage_error(tmp_path):
    # an unreadable store is a usage error: one line, exit 2, no report
    store = tmp_path / "store_dir"
    store.mkdir()
    report = tmp_path / "r.json"
    out = _verify_in_subprocess(tmp_path, "divisibility", "--store", str(store),
                                "--report", str(report))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert f"{store}: Is a directory" in out.stderr
    assert not report.exists() and not (tmp_path / "reports").exists()


def test_verify_version_2_store_is_usage_error(tmp_path):
    # a store of an older format is refused, not rebuilt: one line, exit 2,
    # and the file is left as it was
    body = struct.pack("<QI4I", 7, 4, 7, 3, 2, 2)  # the v2 record of e = 7: its class values
    store = tmp_path / "v2.bin"
    store.write_bytes(struct.pack("<8sI", b"MSUMSTR1", 2) + body
                      + struct.pack("<I", zlib.crc32(body)))
    before = store.read_bytes()
    out = subprocess.run(
        [sys.executable, "-m", "msum", "verify", "theorem1", "--e-max", "10",
         "--store", str(store)], capture_output=True, text=True, env=src_env(), cwd=tmp_path)
    assert out.returncode == 2
    assert out.stderr == f"Error: {store}: unsupported version 2\n"
    assert store.read_bytes() == before
    assert not (tmp_path / "reports").exists()


def test_verify_report_that_is_a_directory_is_usage_error(tmp_path):
    # an unwritable report path is a usage error, never exit 1, the code of
    # "violations found"
    report = tmp_path / "report_dir"
    report.mkdir()
    out = _verify_in_subprocess(tmp_path, "theorem1", "--report", str(report))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert f"cannot write report {report}: Is a directory" in out.stderr
    assert list(report.iterdir()) == [] and not (tmp_path / "reports").exists()


def test_verify_domain_errors_are_usage_errors(tmp_path):
    report = str(tmp_path / "r.json")
    res = run("verify", "prop2", "--r", "1", "--e-min", "8", "--e-max", "100",
              "--jobs", "1", "--report", report)
    assert res.exit_code == 2 and "r >= 2" in res.output
    # prop2's default e_min is 1224: nothing to check at e <= 300
    res = run("verify", "prop2", "--e-max", "300", "--jobs", "1", "--report", report)
    assert res.exit_code == 2 and "no checks" in res.output
    assert not os.path.exists(report)


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
def test_verify_cap_exceeded_exit_3(tmp_path, jobs):
    # k_cap = 1 leaves the (11, 1) tower short of its limit of 5; at jobs 2 a
    # pool worker raises the cap error
    res = run("verify", "prop14", "--p-max", "61", "--k-cap", "1", "--jobs", jobs,
              "--report", str(tmp_path / "r.json"))
    assert res.exit_code == 3


def test_verify_classifier_overlap_is_one_error_line(tmp_path, monkeypatch):
    def overlap(q, e):
        raise ClassificationOverlap(f"(q={q}, e={e}) matched ['i', 'v'] with conflicting m")

    monkeypatch.setattr(classify, "classify_large", overlap)
    report = tmp_path / "r.json"
    res = run("verify", "corollary8", "--e-max", "30", "--jobs", "1", "--report", str(report))
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: (q=") and res.output.count("\n") == 1
    assert "conflicting m" in res.output
    assert not report.exists()


def test_verify_corollary13_without_published_set_is_usage_error(tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise RuntimeError("candidate scan started")

    monkeypatch.setattr(cyclo, "candidate_scan", no_scan)
    res = run("verify", "corollary13", "--n", "11", "--report", str(tmp_path / "r.json"))
    assert res.exit_code == 2
    assert "no published exception set" in res.output


def test_sequence_golden_text():
    res = run("sequence", "23", "11", "5")
    assert res.exit_code == 0
    assert res.output.rstrip("\n") == golden("sequence_23_11_5.txt")


def test_sequence_golden_text_of_a_gated_prime_square():
    # level 2, 1979^2 with order 23, is past the gate of engine._route and
    # takes the orbit engine
    res = run("sequence", "1979", "23", "2")
    assert res.exit_code == 0
    assert res.output.rstrip("\n") == golden("sequence_1979_23_2.txt")


def test_sequence_golden_csv():
    res = run("sequence", "53", "13", "4", "--format", "csv")
    assert res.output.rstrip("\n") == golden("sequence_53_13_4.csv")


def test_sequence_json():
    res = run("sequence", "23", "11", "3", "--format", "json")
    doc = json.loads(res.output)
    assert doc["m_sequence"] == [3, 5, 9]
    assert doc["levels"][0]["modulus"] == 23


def test_sequence_usage_error():
    res = run("sequence", "23", "7", "3")  # 7 does not divide 22
    assert res.exit_code == 2


def test_sequence_order_zero_is_refused():
    # n = 0 divided p - 1 by zero: a traceback with exit 1
    res = run("sequence", "23", "0", "3")
    assert res.exit_code == 2
    assert res.output == "Error: need 1 < n | p-1, got n=0, p=23\n"


def test_sequence_cap_exceeded_exit_3(monkeypatch):
    def capped(p, n, k_max):
        raise NotFoundWithinCap(f"m did not reach 11 for (p={p}, n={n}) within k_cap={k_max}")

    monkeypatch.setattr(cli, "tower_sequence", capped)
    res = run("sequence", "23", "11", "2")
    assert res.exit_code == 3
    assert res.output == "cap exceeded: m did not reach 11 for (p=23, n=11) within k_cap=2\n"


def test_exceptions_golden():
    res = run("exceptions", "5")
    assert res.output.rstrip("\n") == golden("exceptions_5.txt")
    res = run("exceptions", "7")
    assert res.output.rstrip("\n") == golden("exceptions_7.txt")


def test_exceptions_json():
    res = run("exceptions", "5", "--format", "json")
    doc = json.loads(res.output)
    assert doc["threshold"] == [5, 1]
    assert doc["entries"] == [[11, 1, 3], [61, 1, 4]]
    assert doc["complete"] is True


def test_exceptions_out_of_range_sift_is_not_complete(monkeypatch):
    # no prime power is sifted; the 13 published entries go unresolved
    def out_of_range(q, p, k, want_witness=False):
        raise ModulusTooLarge(f"modulus {p}^{k} beyond every route")

    monkeypatch.setattr(cyclo, "m_prime_power", out_of_range)
    res = run("exceptions", "7")
    assert res.exit_code == 0
    assert res.output.rstrip("\n").splitlines()[1:] == [
        "  (none)", "candidates: 28; unresolved: 13; candidates, verified members"]


def test_claims_listing():
    res = run("claims")
    assert res.exit_code == 0
    assert "corollary8" in res.output and "example16" in res.output


def test_store_env_and_flag_precedence(tmp_path):
    env_store = tmp_path / "env.bin"
    flag_store = tmp_path / "flag.bin"
    args = ("verify", "divisibility", "--e-max", "20", "--jobs", "1",
            "--report", str(tmp_path / "r.json"))
    engine.clear_cache()  # tables cached earlier in the session add no records
    res = run(*args, env={"MSUM_STORE": str(env_store)})
    assert res.exit_code == 0
    assert len(ResultStore(env_store)) == 20  # one table per modulus
    written = env_store.read_bytes()
    engine.clear_cache()
    res = run(*args, "--store", str(flag_store), env={"MSUM_STORE": str(env_store)})
    assert res.exit_code == 0
    assert len(ResultStore(flag_store)) == 20
    assert env_store.read_bytes() == written  # flag beat the environment


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "msum", "m", "4", "7"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "m=3" in out.stdout
