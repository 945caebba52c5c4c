#!/usr/bin/env python3
"""Chaos-matrix guard: supervision ledger + checkpointed resume.

Usage:
    check_chaos_matrix.py REFERENCE_JSON RESUMED_JSON ARM=REPORT [ARM=REPORT ...]

REFERENCE is the fault-free in-process batch report; RESUMED is the
report file produced by `--resume` after a run was stopped mid-batch
(`--stop-after-jobs`, the deterministic stand-in for `kill -9`); each
ARM=REPORT names a fault-injected remote run, ARM one of kill, corrupt,
hang, stall, truncate, drop-conn (the link dies with the process, socket
transport) or reconnect (the link dies but the process redials and
rejoins). Asserts the supervision acceptance criteria:

* every fault arm's fronts are **byte-identical** to the reference (the
  reports carry exact objective bit patterns, so `==` is bitwise);
* the resumed report is byte-identical to the reference *as a file* —
  checkpoint replay reconstructs the uninterrupted run exactly;
* each arm's `remote` stats ledger adds up exactly:
  `workers_alive == workers_spawned - worker_deaths + respawns + rejoins`,
  `timeouts <= worker_deaths` (every timeout buries its worker);
* the injected fault demonstrably fired: at least one death and one
  requeued sub-cohort per arm, at least one timeout on the hang/stall
  arms, at least one rejoin on the reconnect arm, and no in-process
  fallback (the healthy majority absorbs the load).
"""

import json
import sys

TIMEOUT_ARMS = {"hang", "stall"}
REJOIN_ARMS = {"reconnect"}
KNOWN_ARMS = {
    "kill",
    "corrupt",
    "hang",
    "stall",
    "truncate",
    "drop-conn",
    "reconnect",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def fronts(doc):
    return [j["front"] for j in doc["jobs"]]


def check_ledger(name, remote):
    alive = remote["workers_alive"]
    spawned = remote["workers_spawned"]
    deaths = remote["worker_deaths"]
    respawns = remote["respawns"]
    rejoins = remote["rejoins"]
    timeouts = remote["timeouts"]
    assert alive == spawned - deaths + respawns + rejoins, (
        f"{name}: ledger violated: alive {alive} != spawned {spawned} "
        f"- deaths {deaths} + respawns {respawns} + rejoins {rejoins}"
    )
    assert timeouts <= deaths, (
        f"{name}: {timeouts} timeouts but only {deaths} deaths "
        f"(every timeout must bury its worker)"
    )


def main() -> None:
    reference_path, resumed_path, arm_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    assert arm_args, "need at least one ARM=REPORT pair"
    reference = load(reference_path)
    reference_fronts = fronts(reference)

    # Resume: byte-identity of the files themselves, not just the fronts
    # — accounting, cache totals and formatting must all reproduce.
    with open(reference_path, "rb") as f:
        reference_bytes = f.read()
    with open(resumed_path, "rb") as f:
        resumed_bytes = f.read()
    assert resumed_bytes == reference_bytes, (
        f"{resumed_path}: resumed report differs from the uninterrupted "
        f"reference {reference_path}"
    )

    for pair in arm_args:
        arm, _, path = pair.partition("=")
        assert arm in KNOWN_ARMS and path, f"bad arm spec `{pair}`"
        doc = load(path)
        assert fronts(doc) == reference_fronts, (
            f"{path}: fronts are not byte-identical to the reference"
        )
        totals = doc["totals"]
        assert totals["evaluations"] == (
            totals["distinct_evaluations"] + totals["cache_hits"]
        ), f"{path}: accounting does not partition: {totals}"
        remote = doc["remote"]
        check_ledger(path, remote)
        assert remote["worker_deaths"] >= 1, (
            f"{path}: the {arm} fault never fired: {remote}"
        )
        assert remote["requeues"] >= 1, (
            f"{path}: the buried worker's shard was never requeued: {remote}"
        )
        if arm in TIMEOUT_ARMS:
            assert remote["timeouts"] >= 1, (
                f"{path}: a {arm} fault must be detected by the deadline: {remote}"
            )
        if arm in REJOIN_ARMS:
            assert remote["rejoins"] >= 1, (
                f"{path}: the dropped worker never rejoined: {remote}"
            )
            assert remote["transport"] != "stdio", (
                f"{path}: rejoining requires a socket transport: {remote}"
            )
        assert remote["fallback_geometries"] == 0, (
            f"{path}: the healthy workers should have absorbed the load: {remote}"
        )
        print(
            f"chaos arm {arm} [{remote['transport']}]: front OK, ledger OK "
            f"({remote['worker_deaths']} deaths, {remote['timeouts']} timeouts, "
            f"{remote['respawns']} respawns, {remote['rejoins']} rejoins, "
            f"{remote['requeues']} requeues)"
        )

    print(
        f"chaos matrix OK: {len(arm_args)} fault arms byte-identical to the "
        f"reference, resumed report byte-identical "
        f"({len(resumed_bytes)} bytes)"
    )


if __name__ == "__main__":
    main()
