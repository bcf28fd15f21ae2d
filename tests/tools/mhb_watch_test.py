#!/usr/bin/env python3
"""Tests for tools/mhb_watch.py over synthetic run directories.

Covers the renderings the watcher exists for: rounds completed per run and
the sim clock, the accuracy tail, headline counters summed from the
per-round deltas, the per-tier pane, STALLED (before and after round 0) and
finished, plus the --once exit codes.
"""
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
WATCH = ROOT / "tools" / "mhb_watch.py"

spec = importlib.util.spec_from_file_location("mhb_watch", WATCH)
mhb_watch = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mhb_watch)

# rounds.csv as the manifest writer lays it out: run, round, gauges,
# counters (tier-keyed twins included), then histogram quantile columns.
ROUNDS_HEADER = ("run,round,global_acc,round_time_s,sim_time_s,bytes_down,"
                 "bytes_up,bytes_up@cpu,checkpoint_writes,clients_dropped,"
                 "clients_trained,clients_trained@cpu,gemm_flops,"
                 "client_wall_us_count,client_wall_us_p50,client_wall_us_p95,"
                 "client_wall_us_p99")
ROUNDS_ROWS = [
    "fedavg-small,0,,10,10,100,50,50,0,1,3,3,1000,3,5,6,7",
    "fedavg-small,1,0.25,10,20,100,50,50,0,0,4,4,1000,4,5,6,7",
    "sheterofl,0,,12,12,200,70,30,0,1,3,2,2000,3,5,6,7",
    "sheterofl,1,0.3125,12,24,200,70,30,1,0,4,3,2000,4,5,6,7",
    "sheterofl,2,,12,36,200,70,30,0,0,4,3,2000,4,5,6,7",
]
TIERS_HEADER = ("run,round,tier,bytes_up,clients_dropped,clients_offline,"
                "clients_selected,clients_trained")
TIERS_ROWS = [
    "sheterofl,0,cpu,30,1,0,3,2",
    "sheterofl,0,mem4g,40,0,1,2,1",
    "sheterofl,1,cpu,30,0,0,3,3",
    "sheterofl,1,mem4g,40,0,0,1,1",
]


def write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")


def age(path, seconds):
    past = time.time() - seconds
    os.utime(path, (past, past))


class WatchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.run_dir = pathlib.Path(self._tmp.name) / "cifar10-run"
        self.run_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def view(self, stall_sec=60.0):
        return mhb_watch.render(
            mhb_watch.snapshot(str(self.run_dir), stall_sec))

    def fill(self):
        write(self.run_dir / "rounds.csv", ROUNDS_HEADER, ROUNDS_ROWS)
        write(self.run_dir / "tiers.csv", TIERS_HEADER, TIERS_ROWS)

    def test_before_round_zero(self):
        out = self.view()
        self.assertIn("state    waiting for round 0", out)
        self.assertIn("rounds   none completed yet", out)

    def test_progress_per_run_with_sim_clock(self):
        self.fill()
        out = self.view()
        self.assertIn("state    running", out)
        self.assertIn("rounds   fedavg-small   2 completed   sim 20.0 s", out)
        self.assertIn("rounds   sheterofl      3 completed   sim 36.0 s", out)

    def test_runs_sharing_a_label_are_split_where_rounds_restart(self):
        rows = ["fedavg,%d,,1,%d,0,0,0,0,0,0,0,0,0,,," % (r, 10 * (r + 1))
                for r in (0, 1, 2, 0, 1)]
        write(self.run_dir / "rounds.csv", ROUNDS_HEADER, rows)
        out = self.view()
        self.assertIn("rounds   fedavg         3 completed   sim 30.0 s\n"
                      "rounds   fedavg         2 completed   sim 20.0 s", out)

    def test_accuracy_tail_follows_the_latest_run(self):
        self.fill()
        out = self.view()
        self.assertIn("accuracy r1=0.3125\n", out + "\n")
        self.assertNotIn("0.2500", out)
        rows = ["sheterofl,%d,0.%d,1,%d,0,0,0,0,0,0,0,0,0,,," % (r, r, r)
                for r in range(8)]
        write(self.run_dir / "rounds.csv", ROUNDS_HEADER, rows)
        out = self.view()
        self.assertIn(
            "accuracy r3=0.3000, r4=0.4000, r5=0.5000, r6=0.6000, "
            "r7=0.7000", out)

    def test_headline_counters_sum_the_round_deltas(self):
        self.fill()
        out = self.view()
        # Untiered columns only: the @cpu twins are not double-counted.
        self.assertIn(
            "counters clients_trained=18  clients_dropped=2  bytes_up=310  "
            "bytes_down=800  gemm_flops=8,000  checkpoint_writes=1", out)

    def test_tier_pane(self):
        self.fill()
        out = self.view()
        self.assertIn("tier     cpu        trained=5  selected=6  "
                      "drop_rate=0.167  bytes_up=60", out)
        self.assertIn("tier     mem4g      trained=2  selected=3  "
                      "drop_rate=0.333  bytes_up=80", out)

    def test_stalled_when_rounds_csv_stops_changing(self):
        self.fill()
        age(self.run_dir / "rounds.csv", 120)
        out = self.view(stall_sec=30)
        self.assertIn("state    STALLED (rounds.csv unchanged for 12", out)
        self.assertIn("state    running", self.view(stall_sec=600))

    def test_stalled_before_round_zero_watches_the_run_dir(self):
        (self.run_dir / "clients.mhbj").write_bytes(b"MHBJRNL1")
        age(self.run_dir, 90)
        out = self.view(stall_sec=30)
        self.assertIn("state    STALLED (run dir unchanged for 9", out)

    def test_finished_once_the_manifest_exists(self):
        self.fill()
        age(self.run_dir / "rounds.csv", 3600)
        (self.run_dir / "manifest.json").write_text(
            json.dumps({"config": {"rounds": "3"}, "counters": {}}))
        out = self.view(stall_sec=1)
        self.assertIn("state    finished", out)
        self.assertNotIn("STALLED", out)
        self.assertIn("rounds   sheterofl      "
                      "[##############################] 3/3", out)
        self.assertIn("rounds   fedavg-small   "
                      "[####################----------] 2/3", out)

    def test_once_cli(self):
        self.fill()
        res = subprocess.run(
            [sys.executable, str(WATCH), str(self.run_dir), "--once"],
            capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("state    running", res.stdout)

        res = subprocess.run(
            [sys.executable, str(WATCH), str(self.run_dir / "nope"),
             "--once"], capture_output=True, text=True)
        self.assertEqual(res.returncode, 1)
        self.assertIn("not a directory", res.stderr)

        write(self.run_dir / "rounds.csv", ROUNDS_HEADER, ["sheterofl,0,1"])
        res = subprocess.run(
            [sys.executable, str(WATCH), str(self.run_dir), "--once"],
            capture_output=True, text=True)
        self.assertEqual(res.returncode, 1)
        self.assertIn("row width", res.stderr)


if __name__ == "__main__":
    unittest.main()
