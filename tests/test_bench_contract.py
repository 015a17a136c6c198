"""The benchmark's tracer (perfbench/spans.py) rebinds public msum functions by
name. Deleting or renaming one of them breaks `perfbench/run.py --trace 1`;
this test makes that fail here instead."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import os
import tempfile

import spans
from child import copy_store_cut
from msum import campaign, engine, towers

with tempfile.TemporaryDirectory() as tmp:
    # a replay-style store: rows copied from a fuller one, some moduli left out
    master, cut = os.path.join(tmp, "master.bin"), os.path.join(tmp, "cut.bin")
    campaign.run_claim("theorem1", {"e_max": 40}, store=master)
    copy_store_cut(master, cut, set(range(1, 41)) - {7, 29})
    engine.clear_cache()
    tracer = spans.Tracer()
    spans.install(tracer)
    assert campaign.run_claim("divisibility", {"e_max": 40}, store=cut).ok
assert tracer.counters["engine.cache_seeded"] == 38, tracer.counters
assert tracer.counters["store.rows_written"] == 2, tracer.counters
campaign.run_claim("corollary8", {"e_max": 30})
campaign.run_claim("prop2", {"r": 3, "e_min": 8, "e_max": 40})
towers.tower_sequence(11, 5, 3)
assert engine.m(800233, 4194371).value == 5  # order 5 mod a prime past 2^22: orbit route
seen = tracer.summary()
for name in ("campaign.run_claim.divisibility", "store.open", "store.save",
             "campaign.run_claim.corollary8", "classify.corollary8_modulus",
             "classify.prop2_modulus", "engine.m_table_for_modulus",
             "towers.tower_sequence", "engine.m.orbit",
             "modular.order.order_mod_prime_power", "modular.order.element_of_order",
             "modular.order.p_adic_w"):
    assert seen.get(name, {}).get("calls"), name
"""


def test_bench_tracer_installs_and_sees_the_sweeps():
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
