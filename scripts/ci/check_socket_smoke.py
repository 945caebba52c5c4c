#!/usr/bin/env python3
"""Socket-smoke guard: warm-daemon determinism across clients.

Usage: check_socket_smoke.py REFERENCE_JSON CLIENT1_JSON CLIENT2_JSON
       check_socket_smoke.py --concurrent REFERENCE_JSON CLIENT_JSON...

REFERENCE is the in-process batch report; CLIENT1 and CLIENT2 are the
reports of two sequential `batch --connect` clients that ran the same
job file against one `sega-dcim serve` daemon. Asserts the networked
acceptance criteria:

* both clients' fronts are **byte-identical** to the in-process
  reference (the reports carry exact objective bit patterns, so `==` is
  bitwise) — moving the computation behind a socket changes nothing;
* the first (cold) client performed real distinct evaluations;
* the second client was answered entirely from the daemon's warm shared
  cache: **0** distinct evaluations, every evaluation a cache hit —
  the one-cache-many-clients multiplexing guarantee;
* both clients' accounting partitions exactly
  (`evaluations == distinct_evaluations + cache_hits`) and agrees with
  the reference on the total evaluation count.

With `--concurrent`, the CLIENT reports come from cold clients that were
started together against one fresh daemon, so their jobs ran at the same
time. Each must match the reference fronts byte for byte, partition
exactly and match the reference evaluation count. The 0-distinct rule
does not apply: two jobs running at once may both miss on a geometry.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def fronts(doc):
    return [j["front"] for j in doc["jobs"]]


def check_clients(reference_path, client_paths):
    """Fronts, partition and evaluation count of every client report."""
    reference = load(reference_path)
    reference_fronts = fronts(reference)
    reference_totals = reference["totals"]
    for path in client_paths:
        doc = load(path)
        assert fronts(doc) == reference_fronts, (
            f"{path}: fronts are not byte-identical to the reference"
        )
        totals = doc["totals"]
        assert totals["evaluations"] == (
            totals["distinct_evaluations"] + totals["cache_hits"]
        ), f"{path}: accounting does not partition: {totals}"
        assert totals["evaluations"] == reference_totals["evaluations"], (
            f"{path}: the GA request stream must be transport-invariant: "
            f"{totals['evaluations']} != {reference_totals['evaluations']}"
        )


def main() -> None:
    if sys.argv[1] == "--concurrent":
        reference_path, client_paths = sys.argv[2], sys.argv[3:]
        assert client_paths, "--concurrent needs at least one client report"
        check_clients(reference_path, client_paths)
        distinct = [load(p)["totals"]["distinct_evaluations"] for p in client_paths]
        print(
            f"concurrent socket smoke OK: {len(client_paths)} clients "
            f"byte-identical to the reference, distinct evaluations {distinct}"
        )
        return

    reference_path, client1_path, client2_path = sys.argv[1], sys.argv[2], sys.argv[3]
    check_clients(reference_path, (client1_path, client2_path))

    cold = load(client1_path)["totals"]
    warm = load(client2_path)["totals"]
    assert cold["distinct_evaluations"] > 0, (
        f"{client1_path}: the cold client should have computed estimates: {cold}"
    )
    assert warm["distinct_evaluations"] == 0, (
        f"{client2_path}: a warm daemon must answer a repeat batch from its "
        f"shared cache alone: {warm}"
    )
    print(
        f"socket smoke OK: both clients byte-identical to the reference, "
        f"cold client {cold['distinct_evaluations']} distinct, warm client 0 "
        f"({warm['cache_hits']} cache hits)"
    )


if __name__ == "__main__":
    main()
