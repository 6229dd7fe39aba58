#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (~1 minute):

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced on shrunken
shapes and checks that
  * every declared metric is printed with its unit, and nothing else;
  * no two workloads run the same solve or serve shapes, check against the
    same oracles, or build prepared graphs of the same size;
  * a deliberately corrupted table is counted as a failed operation;
  * with only BENCHMARK.json and perfbench/ present the runner fails
    without printing a result.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-smoke"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1.5"


def tiny(shapes):
    """n/8 with half the base (at least 8, at most n/2): same benchmarks,
    same tile structure, a few milliseconds per solve."""
    out = []
    for s in shapes.split(","):
        bm, n, base = s.split(":")
        n2 = int(n) // 8
        base2 = min(max(8, int(base) // 2), n2 // 2)
        out.append(f"{bm}:{n2}:{base2}")
    return ",".join(out)


def tiny_config():
    cfg = json.loads((HERE / "config.json").read_text())
    cfg["common"].update(setup_reps=2, warmup_s=0.2, server_warmup_s=0.1)
    for wl in cfg["workloads"].values():
        wl["solve"], wl["serve"] = tiny(wl["solve"]), tiny(wl["serve"])
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(root, workload, trace, *extra):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last)


def run_info(proc):
    """The run's record: shapes, oracle digests, worker counts, steal."""
    for line in proc.stdout.splitlines():
        if line.startswith("run "):
            return json.loads(line[4:])
    raise AssertionError("no run line in:\n" + proc.stdout)


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = tiny_config()
        cls.results = {}
        cls.infos = {}
        for wl in BENCH["workloads"]:
            for trace in (0, 1):
                proc = run(ROOT, wl["name"], trace, "--config", str(cls.config))
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{wl['name']} trace={trace} exited "
                        f"{proc.returncode}:\n{proc.stderr[-3000:]}")
                cls.results[wl["name"], trace] = result(proc)
                cls.infos[wl["name"], trace] = run_info(proc)

    def test_every_metric_printed_with_its_unit(self):
        for (name, trace), res in self.results.items():
            declared = BENCH["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(res["metrics"]),
                                 {m["name"] for m in declared})
                for m in declared:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_zero_failed_operations(self):
        for (name, trace), res in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_workloads_print_their_own_numbers(self):
        # Deterministic records of what each run solved and served: if two
        # workloads shared their solver or server wiring, these would match
        # however different the timings happened to be.
        names = [wl["name"] for wl in BENCH["workloads"]]
        for trace in (0, 1):
            for key in ("solve", "serve", "solve_oracle_digest",
                        "serve_oracle_digest"):
                values = [self.infos[n, trace][key] for n in names]
                with self.subTest(trace=trace, key=key):
                    self.assertEqual(len(set(values)), len(values),
                                     dict(zip(names, values)))
        nodes = [self.results[n, 1]["metrics"]["prepared.nodes"]["value"]
                 for n in names]
        self.assertEqual(len(set(nodes)), len(nodes), dict(zip(names, nodes)))

    def test_same_seed_gives_same_inputs(self):
        for wl in BENCH["workloads"]:
            untraced, traced = (self.infos[wl["name"], t] for t in (0, 1))
            for key in ("solve", "serve", "solve_oracle_digest",
                        "serve_oracle_digest"):
                with self.subTest(workload=wl["name"], key=key):
                    self.assertEqual(untraced[key], traced[key])

    def test_corrupted_table_counts_as_failed(self):
        wl = BENCH["workloads"][0]["name"]
        proc = run(ROOT, wl, 0, "--config", str(self.config), "--corrupt", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_fails_without_the_program_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
