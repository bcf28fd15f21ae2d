#!/usr/bin/env python3
"""Terminal progress view of an mhbench run directory.

Usage: mhb_watch.py RUN_DIR [--interval S] [--once] [--stall-sec S]

RUN_DIR is one run's directory under `mhbench run --manifest-dir`
(results/<run-id>/).  The watcher reads only files the run writes anyway:

  rounds.csv     rewritten at every round barrier: one row per completed
                 round (the baseline FedAvg run's rounds first, then the
                 algorithm's), with the sim_time_s/global_acc gauges and the
                 round's counter deltas;
  tiers.csv      the same rounds' per-device-tier counter deltas;
  manifest.json  written last, once the run has finished.

It renders rounds completed per run, the simulated clock, the accuracy
tail, headline counters (sums of the per-round deltas) and a per-tier pane.
The state line says `finished` once manifest.json exists, and `STALLED`
when rounds.csv (or, before round 0, the run directory) has not changed
for --stall-sec seconds.  It only reads, so watching cannot perturb a run.

  mhb_watch.py results/cifar10-computation-sheterofl-seed1
  mhb_watch.py RUN_DIR --once          # print one snapshot and exit

Without --once the view redraws every --interval seconds and exits after
showing `finished`.  Exit status: 0 on a rendered snapshot (or Ctrl-C), 1
when RUN_DIR is not a directory or one of its files does not parse.
"""

import argparse
import csv
import json
import os
import sys
import time

HEADLINE_COUNTERS = ("clients_trained", "clients_dropped", "bytes_up",
                     "bytes_down", "gemm_flops", "checkpoint_writes")
TIER_COUNTERS = ("clients_selected", "clients_trained", "clients_dropped",
                 "clients_offline", "bytes_up")


class RunDirError(Exception):
    pass


def read_csv(path):
    """Rows of a CSV file as dicts, or [] when the file does not exist yet.

    The run replaces its CSVs by rename, so a read sees a whole file."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except FileNotFoundError:
        return []
    for row in rows:
        if None in row or None in row.values():
            raise RunDirError(f"{path}: row width differs from the header")
    return rows


def as_int(row, name, path):
    cell = row.get(name, "")
    try:
        return int(cell) if cell != "" else 0
    except ValueError:
        raise RunDirError(f"{path}: {name}={cell!r} is not an integer")


def as_float(row, name, path):
    """The gauge's value, or None when the round did not set it."""
    cell = row.get(name, "")
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise RunDirError(f"{path}: {name}={cell!r} is not a number")


def snapshot(run_dir, stall_sec, now=None):
    """Everything the view shows, read from the run directory."""
    if not os.path.isdir(run_dir):
        raise RunDirError(f"{run_dir}: not a directory")
    now = time.time() if now is None else now
    rounds_path = os.path.join(run_dir, "rounds.csv")
    tiers_path = os.path.join(run_dir, "tiers.csv")
    manifest_path = os.path.join(run_dir, "manifest.json")

    snap = {"run_dir": run_dir, "runs": [], "accuracy": [], "counters": {},
            "tiers": {}, "rounds_total": None}
    for row in read_csv(rounds_path):
        # The runs of a suite follow one another.  A new run starts at a
        # new label or when the round number stops rising: with
        # --algorithm fedavg, the baseline and the run under test share
        # the label "fedavg".
        rnd = as_int(row, "round", rounds_path)
        run = snap["runs"][-1] if snap["runs"] else None
        if run is None or run["run"] != row["run"] or rnd <= run["last_round"]:
            run = {"run": row["run"], "rounds": 0, "last_round": -1,
                   "sim_time_s": 0.0}
            snap["runs"].append(run)
            snap["accuracy"] = []  # the tail follows the latest run
        run["rounds"] += 1
        run["last_round"] = rnd
        sim = as_float(row, "sim_time_s", rounds_path)
        if sim is not None:
            run["sim_time_s"] = sim
        acc = as_float(row, "global_acc", rounds_path)
        if acc is not None:
            snap["accuracy"].append((run["last_round"], acc))
        for name in HEADLINE_COUNTERS:
            if name in row:
                snap["counters"][name] = (snap["counters"].get(name, 0) +
                                          as_int(row, name, rounds_path))

    for row in read_csv(tiers_path):
        tier = snap["tiers"].setdefault(row["tier"], {})
        for name in TIER_COUNTERS:
            tier[name] = tier.get(name, 0) + as_int(row, name, tiers_path)

    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as f:
                manifest = json.load(f)
        except ValueError as e:
            raise RunDirError(f"{manifest_path}: {e}")
        rounds = (manifest.get("config") or {}).get("rounds")
        if rounds is not None:
            snap["rounds_total"] = int(rounds)
        snap["state"] = "finished"
    else:
        # Before round 0 there is no rounds.csv; the run directory's own
        # mtime moves when the run creates its first files.
        watched = rounds_path if snap["runs"] else run_dir
        idle = now - os.path.getmtime(watched)
        snap["idle_s"] = idle
        if idle >= stall_sec:
            snap["state"] = "STALLED"
        elif snap["runs"]:
            snap["state"] = "running"
        else:
            snap["state"] = "waiting for round 0"
    return snap


def progress_bar(done, total, width=30):
    filled = min(width, width * done // total) if total > 0 else 0
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render(snap):
    lines = [f"run dir  {snap['run_dir']}"]
    state = snap["state"]
    if state == "STALLED":
        what = "rounds.csv" if snap["runs"] else "run dir"
        state += f" ({what} unchanged for {snap['idle_s']:.1f} s)"
    lines.append(f"state    {state}")

    total = snap["rounds_total"]
    for run in snap["runs"]:
        done = run["rounds"]
        count = (f"{progress_bar(done, total)} {done}/{total}"
                 if total else f"{done} completed")
        lines.append(f"rounds   {run['run']:<14} {count}"
                     f"   sim {run['sim_time_s']:.1f} s")
    if not snap["runs"]:
        lines.append("rounds   none completed yet")

    if snap["accuracy"]:
        tail = ", ".join(f"r{r}={a:.4f}" for r, a in snap["accuracy"][-5:])
        lines.append(f"accuracy {tail}")

    if snap["counters"]:
        lines.append("counters " + "  ".join(
            f"{name}={snap['counters'][name]:,}"
            for name in HEADLINE_COUNTERS if name in snap["counters"]))

    for name in sorted(snap["tiers"]):
        t = snap["tiers"][name]
        selected = t.get("clients_selected", 0)
        dropped = t.get("clients_dropped", 0) + t.get("clients_offline", 0)
        drop_rate = dropped / selected if selected else 0.0
        lines.append(
            f"tier     {name:<10} trained={t.get('clients_trained', 0):,}"
            f"  selected={selected:,}  drop_rate={drop_rate:.3f}"
            f"  bytes_up={t.get('bytes_up', 0):,}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(
        description="watch an mhbench run through its run directory")
    ap.add_argument("run_dir", metavar="RUN_DIR",
                    help="the run's directory under --manifest-dir")
    ap.add_argument("--interval", type=float, default=1.0,
                    help="redraw interval in seconds (default 1)")
    ap.add_argument("--once", action="store_true",
                    help="print a single snapshot and exit")
    ap.add_argument("--stall-sec", type=float, default=60.0,
                    help="report STALLED after this many seconds without a "
                         "new round (default 60)")
    args = ap.parse_args()

    try:
        while True:
            snap = snapshot(args.run_dir, args.stall_sec)
            if args.once:
                print(render(snap))
                return 0
            # Clear-screen redraw keeps the view stable without curses.
            sys.stdout.write("\x1b[2J\x1b[H" + render(snap) + "\n")
            sys.stdout.flush()
            if snap["state"] == "finished":
                return 0
            time.sleep(max(0.05, args.interval))
    except RunDirError as e:
        print(f"mhb_watch: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
