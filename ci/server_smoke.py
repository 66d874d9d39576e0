#!/usr/bin/env python3
"""CI smoke test for `sqlts serve`.

Drives a release-build server over real sockets: three concurrent
subscriptions share one 10k-tuple feed, one client is killed mid-stream
and resumes from its checkpoint on a fresh connection, and every
subscription's final result must be byte-identical to the batch run over
the same tuples.  Also scrapes /metrics and sanity-checks the exposition.

The server runs fully armed (--log span log, --sample-profile sampling
profiler), so the byte-identical assertions double as proof that
observability never perturbs results.  After a graceful SIGTERM drain
the smoke validates the artifacts: the span log is balanced JSONL,
GET /status parses as JSON, the profiler's collapsed stacks are
well-formed, and `sqlts trace-agg` folds the span log into a cost tree.

Usage: python3 ci/server_smoke.py target/release/sqlts
"""

import json
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

QUERY = (
    "SELECT X.name, Z.day AS day FROM quote "
    "CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) "
    "WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price"
)
# Eight standing queries with a common predicate prefix and a
# member-specific tail — the shared-matcher phase subscribes all of them
# on one channel and expects one shared pass over the feed.
SHARED_QUERIES = [
    "SELECT X.name, Z.day AS day FROM quote "
    "CLUSTER BY name SEQUENCE BY day AS (X, Y, Z) "
    f"WHERE X.price > 95 AND Y.price > 90 AND Z.price < {100 + i}"
    for i in range(8)
]
SCHEMA = "name:str,day:int,price:float"
NAMES = ["AAA", "BBB", "CCC", "DDD", "EEE"]
DAYS = 2000  # 5 names x 2000 days = 10k tuples


def workload():
    rows = []
    for day in range(DAYS):
        for i, name in enumerate(NAMES):
            price = 100 + ((day + i) % 7) * 3 - ((day + i) % 3) * 5
            rows.append(f"{name},{day},{price}")
    return rows


class Client:
    """One framed-protocol connection (frame = len SP payload LF)."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.buf = b""

    def _exact(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(65536)
            assert chunk, "server closed the connection"
            self.buf += chunk
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def recv(self):
        head = b""
        while not head.endswith(b" "):
            head += self._exact(1)
        n = int(head[:-1])
        payload = self._exact(n)
        assert self._exact(1) == b"\n", "frame check byte"
        return payload.decode()

    def send(self, payload):
        data = payload.encode()
        self.sock.sendall(str(len(data)).encode() + b" " + data + b"\n")
        return self.recv()

    def kill(self):
        self.sock.close()


def expect(reply, prefix):
    assert reply.startswith(prefix), f"expected {prefix!r}, got {reply!r}"
    return reply


def result_body(reply, sub, code):
    head, _, body = reply.partition("\n")
    assert head.startswith(f"RESULT {sub} {code} "), f"bad result head: {head!r}"
    return body


def check_collapsed(text, what):
    """Every line must be `frame;frame count` with a numeric count."""
    lines = text.splitlines()
    assert lines, f"{what} is empty"
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert ";" in stack and " " not in stack, f"bad {what} stack: {line!r}"
        assert count.isdigit(), f"bad {what} count: {line!r}"
    return lines


def check_span_log(path):
    """The span log must be valid JSONL with balanced begin/end spans."""
    begins, ends, names = 0, 0, set()
    for line in path.read_text().splitlines():
        rec = json.loads(line)  # raises on torn/invalid lines
        assert isinstance(rec, dict) and "ts" in rec and "k" in rec, rec
        names.add(rec["name"])
        if rec["k"] == "b":
            begins += 1
        elif rec["k"] == "e":
            ends += 1
    assert begins == ends > 0, f"unbalanced spans: {begins} begins, {ends} ends"
    for name in ["accept", "dispatch", "fanout", "drain"]:
        assert name in names, f"span log never recorded {name!r}: {sorted(names)}"
    return begins


def metric(text, name):
    """The value of a single unlabelled metric line in an exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return int(line.rsplit(" ", 1)[1])
    raise AssertionError(f"missing {name} in scrape")


def shared_matcher_phase(bin_path, rows):
    """8 prefix-sharing subscriptions on one channel, one shared pass.

    Every subscription's result must be byte-identical to its batch run,
    and /metrics must show cross-query sharing: tests_shared > 0 with
    the physically evaluated total strictly below the 8-query logical
    sum (which equals what 8 solo passes would have cost).
    """
    batches = [
        subprocess.run([bin_path, "--csv", "smoke.csv", "--schema", SCHEMA, q],
                       capture_output=True, text=True, check=True).stdout
        for q in SHARED_QUERIES
    ]
    assert all(b.count("\n") > 1 for b in batches), "shared family found no matches"

    server = subprocess.Popen(
        [bin_path, "serve", "--listen", "127.0.0.1:0", "--shared-matcher", "on"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        announce = server.stdout.readline().strip()
        assert announce.startswith("listening on "), announce
        addr = announce.removeprefix("listening on ")

        conn = Client(addr)
        expect(conn.send(f"OPEN quote {SCHEMA}"), "OK opened quote")
        for i, q in enumerate(SHARED_QUERIES):
            expect(conn.send(f"SUBSCRIBE p{i} quote\n{q}"), f"OK subscribed p{i}")
        for start in range(0, len(rows), 500):
            chunk = rows[start:start + 500]
            expect(conn.send("FEED quote\n" + "\n".join(chunk)),
                   f"OK fed {len(chunk)} subs=8")

        # Scrape while the subscriptions are live: the logical total is
        # summed over live sessions, the savings over the channel registry.
        with urllib.request.urlopen(f"http://{addr}/metrics", timeout=60) as r:
            metrics = r.read().decode()
        logical = metric(metrics, "sqlts_patternset_tests_logical")
        evaluated = metric(metrics, "sqlts_patternset_tests_evaluated")
        saved = metric(metrics, "sqlts_patternset_tests_saved")
        shared = metric(metrics, "sqlts_patternset_tests_shared")
        assert metric(metrics, "sqlts_patternset_queries") == 8, metrics
        assert shared > 0, "no cross-query sharing recorded"
        assert evaluated + saved == logical, f"{evaluated}+{saved} != {logical}"
        assert evaluated < logical, (
            f"shared pass saved nothing: evaluated {evaluated} of {logical}"
        )

        for i, batch in enumerate(batches):
            body = result_body(conn.send(f"UNSUBSCRIBE p{i}"), f"p{i}", 0)
            assert body == batch, (
                f"p{i} diverged from batch under --shared-matcher: "
                f"{len(body.splitlines())} vs {len(batch.splitlines())} lines"
            )
        conn.kill()
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0, "shared server must drain to exit 0"
        return logical, evaluated, shared
    finally:
        server.kill()
        server.wait()


def main():
    bin_path = sys.argv[1]
    rows = workload()

    # Batch reference.
    with open("smoke.csv", "w") as f:
        f.write("name,day,price\n")
        f.write("\n".join(rows) + "\n")
    batch = subprocess.run(
        [bin_path, "--csv", "smoke.csv", "--schema", SCHEMA, QUERY],
        capture_output=True, text=True, check=True,
    ).stdout
    assert batch.count("\n") > 1, "batch produced no matches"

    art = Path(tempfile.mkdtemp(prefix="sqlts-smoke-"))
    span_log = art / "server.log.jsonl"
    profile = art / "profile.folded"
    server = subprocess.Popen(
        [bin_path, "serve", "--listen", "127.0.0.1:0",
         "--log", str(span_log), "--log-level", "debug",
         "--sample-profile", str(profile), "--sample-hz", "200"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        announce = server.stdout.readline().strip()
        assert announce.startswith("listening on "), announce
        addr = announce.removeprefix("listening on ")

        main_conn = Client(addr)
        doomed = Client(addr)
        expect(main_conn.send("PING"), "OK pong")
        # A reply must not wait out Nagle x delayed ACK (44 ms per round
        # trip before accepted sockets got TCP_NODELAY and write_frame
        # became one write); the median keeps one scheduler hiccup from
        # failing the build.
        rtts = []
        for _ in range(50):
            started = time.perf_counter()
            expect(main_conn.send("PING"), "OK pong")
            rtts.append((time.perf_counter() - started) * 1000.0)
        ping_ms = statistics.median(rtts)
        assert ping_ms < 20.0, f"median PING round trip {ping_ms:.2f} ms: reply stall is back"
        expect(main_conn.send(f"OPEN quote {SCHEMA}"), "OK opened quote")
        expect(main_conn.send(f"SUBSCRIBE s1 quote\n{QUERY}"), "OK subscribed s1")
        expect(main_conn.send(f"SUBSCRIBE s3 quote\n{QUERY}"), "OK subscribed s3")
        expect(doomed.send(f"SUBSCRIBE s2 quote\n{QUERY}"), "OK subscribed s2")

        chunks = [rows[i:i + 500] for i in range(0, len(rows), 500)]
        half = len(chunks) // 2
        for chunk in chunks[:half]:
            expect(main_conn.send("FEED quote\n" + "\n".join(chunk)),
                   f"OK fed {len(chunk)} subs=3")

        # Checkpoint s2, then kill its connection without so much as a
        # goodbye; the server reaps it while the feed keeps flowing.
        cp = doomed.send("CHECKPOINT s2")
        assert cp.startswith("CHECKPOINT s2\nsqlts-checkpoint v1\n"), cp[:80]
        checkpoint = cp.partition("\n")[2]
        doomed.kill()

        resumer = Client(addr)
        expect(resumer.send(f"RESUME s2r quote\n{QUERY}\n{checkpoint}"),
               "OK resumed s2r")
        for chunk in chunks[half:]:
            expect(main_conn.send("FEED quote\n" + "\n".join(chunk)),
                   f"OK fed {len(chunk)} subs=3")

        with urllib.request.urlopen(f"http://{addr}/metrics", timeout=60) as r:
            metrics = r.read().decode()
        for needle in ["sqlts_server_connections_total",
                       'sqlts_sub_records{tenant="s1"}',
                       'sqlts_sub_tripped{tenant="s2r"} 0']:
            assert needle in metrics, f"missing {needle} in scrape"

        with urllib.request.urlopen(f"http://{addr}/status", timeout=60) as r:
            status = json.loads(r.read().decode())
        assert status["draining"] is False, status
        live = {sub["id"] for sub in status["subscriptions"]}
        assert {"s1", "s3", "s2r"} <= live, f"/status missing tenants: {live}"

        for conn, sub in [(main_conn, "s1"), (main_conn, "s3"), (resumer, "s2r")]:
            body = result_body(conn.send(f"UNSUBSCRIBE {sub}"), sub, 0)
            assert body == batch, (
                f"{sub} diverged from batch: "
                f"{len(body.splitlines())} vs {len(batch.splitlines())} lines"
            )
        main_conn.kill()
        resumer.kill()

        # Graceful drain flushes the span log and the profiler output.
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0, "drained server must exit 0"

        spans = check_span_log(span_log)
        check_collapsed(profile.read_text(), "profiler")

        agg = subprocess.run(
            [bin_path, "trace-agg", str(span_log),
             "--collapsed", str(art / "spans.folded")],
            capture_output=True, text=True, check=True,
        )
        assert agg.stdout.startswith("span log:"), agg.stdout[:80]
        assert "dispatch" in agg.stdout, agg.stdout
        check_collapsed((art / "spans.folded").read_text(), "trace-agg")

        print(f"server smoke OK: 3 subscriptions x {len(rows)} tuples, "
              f"{batch.count(chr(10)) - 1} matches each, kill+resume "
              f"byte-identical while armed; {spans} spans logged, "
              f"profiler and trace-agg stacks well-formed")
    finally:
        server.kill()
        server.wait()

    logical, evaluated, shared = shared_matcher_phase(bin_path, rows)
    print(f"shared-matcher smoke OK: 8 subscriptions byte-identical to "
          f"batch; {evaluated} of {logical} logical tests evaluated "
          f"({shared} answered across queries)")


if __name__ == "__main__":
    main()
