#!/usr/bin/env python3
"""One-screen fleet monitor for moela_serve daemons (stdlib only).

Polls each endpoint's `health` and `metrics` verbs over the line-delimited
JSON protocol (docs/protocol.md) and renders a one-line-per-daemon table:
version, uptime, in-flight load, queue depth per priority class (from
`health`), runs started, cache hit rate, and request throughput (from
`metrics`, the one home of the lifetime counts). One shot by default;
--watch N redraws every N seconds until Ctrl-C.

    scripts/moela_top.py :7313
    scripts/moela_top.py host1:7313 host2:7313 --watch 2

Unreachable daemons render as "down" rows instead of aborting, so the
monitor stays useful while part of the fleet restarts.
"""

import argparse
import json
import socket
import sys
import time


def parse_endpoint(spec):
    """'host:port' / ':port' / 'host' / 'port' -> (host, port)."""
    host, port = "127.0.0.1", 7313
    if spec.isdigit():
        return host, int(spec)
    if ":" in spec:
        head, _, tail = spec.rpartition(":")
        if head:
            host = head
        if tail:
            port = int(tail)
    elif spec:
        host = spec
    return host, port


def ask(host, port, verb, timeout):
    """One verb round-trip on a fresh connection; returns the parsed reply."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps({"id": 1, "verb": verb}) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-reply")
            buf += chunk
    return json.loads(buf.decode())


def counter_total(metrics, family):
    """Sum of a counter family's series values (0 when it never fired)."""
    series = metrics.get(family, {}).get("series", [])
    return sum(int(entry.get("value", 0)) for entry in series)


def histogram_count(metrics, family):
    """Sum of a histogram family's series counts (0 when it never fired)."""
    series = metrics.get(family, {}).get("series", [])
    return sum(int(entry.get("count", 0)) for entry in series)


def cache_hit_rate(metrics):
    lookups = metrics.get("moela_cache_lookups_total", {}).get("series", [])
    hits = misses = 0
    for entry in lookups:
        value = int(entry.get("value", 0))
        if entry.get("labels", {}).get("result") == "miss":
            misses += value
        else:
            hits += value
    total = hits + misses
    return (100.0 * hits / total) if total else None


def format_uptime(seconds):
    seconds = int(seconds)
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, seconds % 3600 // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%ds" % seconds


def sample(host, port, timeout):
    health = ask(host, port, "health", timeout)
    snapshot = ask(host, port, "metrics", timeout)
    metrics = snapshot.get("metrics", {})
    classes = health.get("classes", {})
    queued = "/".join(
        str(classes.get(name, {}).get("queued", 0))
        for name in ("interactive", "normal", "batch"))
    rate = cache_hit_rate(metrics)
    return {
        "version": snapshot.get("version", "?"),
        "uptime": format_uptime(snapshot.get("uptime_seconds", 0)),
        "inflight": "%s/%s" % (health.get("inflight", "?"),
                               health.get("max_inflight", "?")),
        "queued": queued,
        # Every run a worker starts observes its queue wait once.
        "runs": histogram_count(metrics, "moela_sched_queue_wait_seconds"),
        "cache": "%.0f%%" % rate if rate is not None else "-",
        "requests": counter_total(metrics, "moela_requests_total"),
        "accepting": health.get("accepting", False),
    }


COLUMNS = ("endpoint", "state", "version", "uptime", "inflight",
           "queued i/n/b", "runs", "cache", "requests")


def render(rows):
    table = [COLUMNS] + rows
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(COLUMNS))]
    for row in table:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def snapshot_fleet(endpoints, timeout):
    rows = []
    for host, port in endpoints:
        label = "%s:%d" % (host, port)
        try:
            s = sample(host, port, timeout)
            state = "up" if s["accepting"] else "draining"
            rows.append((label, state, s["version"], s["uptime"],
                         s["inflight"], s["queued"], s["runs"], s["cache"],
                         s["requests"]))
        except (OSError, ValueError, KeyError) as error:
            rows.append((label, "down", "-", "-", "-", "-", "-", "-",
                         str(error)[:40] or "unreachable"))
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="one-screen monitor for a moela_serve fleet")
    parser.add_argument("endpoints", nargs="+", metavar="HOST:PORT",
                        help="daemons to poll (':7313', 'host', 'host:port')")
    parser.add_argument("--watch", type=float, metavar="SECONDS",
                        help="redraw every SECONDS instead of one shot")
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="per-verb socket timeout (default 2s)")
    args = parser.parse_args()
    endpoints = [parse_endpoint(spec) for spec in args.endpoints]

    try:
        while True:
            rows = snapshot_fleet(endpoints, args.timeout)
            if args.watch:
                # ANSI clear+home: a redraw, not a scroll.
                sys.stdout.write("\x1b[2J\x1b[H")
                print(time.strftime("moela_top  %Y-%m-%d %H:%M:%S"))
            render(rows)
            if not args.watch:
                return 0 if all(row[1] != "down" for row in rows) else 1
            sys.stdout.flush()
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
