#!/usr/bin/env python3
"""CI crash-safety smoke test for `sqlts serve --data-dir`.

Drives a release-build server through the full durability story over
real sockets and real signals:

  phase 1  feed part of a 10k-tuple stream, then SIGKILL the server with
           a FEED in flight;
  phase 2  restart on the same --data-dir, confirm recovery re-opened
           the channel and respawned the subscription, resume feeding
           from the durable row count OPEN reports, and require the
           final result to be byte-identical to the batch run;
  phase 3  SIGTERM the server mid-stream and require a graceful drain:
           exit code 0, a parting ERR on the live connection, the LOCK
           released, and a restart that recovers the drained
           subscription and still finishes byte-identical.

Usage: python3 ci/crash_smoke.py target/release/sqlts
"""

import os
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

QUERY = (
    "SELECT X.name, Z.day AS day FROM quote "
    "CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) "
    "WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price"
)
SCHEMA = "name:str,day:int,price:float"
NAMES = ["AAA", "BBB", "CCC", "DDD", "EEE"]
DAYS = 2000  # 5 names x 2000 days = 10k tuples
DATA_DIR = "crash-smoke-data"


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
        self.send_only(payload)
        return self.recv()

    def send_only(self, payload):
        data = payload.encode()
        self.sock.sendall(str(len(data)).encode() + b" " + data + b"\n")


def expect(reply, prefix):
    assert reply.startswith(prefix), f"expected {prefix!r}, got {reply!r}"
    return reply


def result_body(reply, sub, code):
    head, _, body = reply.partition("\n")
    assert head.startswith(f"RESULT {sub} {code} "), f"bad result head: {head!r}"
    return body


def spawn(bin_path, data_dir=DATA_DIR, extra=()):
    """Start a durable server and return (process, addr, recovery line).

    Skips informational startup lines (standby/replication banners)
    between the recovery report and the listen announcement.
    """
    server = subprocess.Popen(
        [bin_path, "serve", "--listen", "127.0.0.1:0", "--data-dir", data_dir,
         "--checkpoint-every-frames", "4", *extra],
        stdout=subprocess.PIPE, text=True,
    )
    recovered = server.stdout.readline().strip()
    assert recovered.startswith("recovered "), recovered
    announce = server.stdout.readline().strip()
    while not announce.startswith("listening on "):
        announce = server.stdout.readline().strip()
        assert announce, "server exited before announcing its address"
    return server, announce.removeprefix("listening on "), recovered


def scrape(addr):
    with urllib.request.urlopen(f"http://{addr}/metrics", timeout=60) as r:
        return r.read().decode()


def metric(exposition, name):
    for line in exposition.splitlines():
        if line.startswith(name + " "):
            return int(float(line.split()[1]))
    raise AssertionError(f"missing {name} in scrape")


def main():
    bin_path = sys.argv[1]
    rows = workload()
    chunks = [rows[i:i + 500] for i in range(0, len(rows), 500)]
    shutil.rmtree(DATA_DIR, ignore_errors=True)

    # Batch reference.
    with open("crash-smoke.csv", "w") as f:
        f.write("name,day,price\n")
        f.write("\n".join(rows) + "\n")
    batch = subprocess.run(
        [bin_path, "--csv", "crash-smoke.csv", "--schema", SCHEMA, QUERY],
        capture_output=True, text=True, check=True,
    ).stdout
    assert batch.count("\n") > 1, "batch produced no matches"

    # Phase 1: feed part of the stream, then SIGKILL with a FEED in
    # flight — the kill can land anywhere inside the append/fan-out path.
    server, addr, recovered = spawn(bin_path)
    expect(recovered, "recovered 0 channel(s), 0 subscription(s)")
    client = Client(addr)
    expect(client.send(f"OPEN quote {SCHEMA}"), "OK opened quote rows=0")
    expect(client.send(f"SUBSCRIBE s1 quote\n{QUERY}"), "OK subscribed s1")
    for chunk in chunks[:6]:
        expect(client.send("FEED quote\n" + "\n".join(chunk)),
               f"OK fed {len(chunk)} subs=1")
    acknowledged = 6 * 500
    client.send_only("FEED quote\n" + "\n".join(chunks[6]))
    server.kill()
    server.wait()
    assert os.path.exists(os.path.join(DATA_DIR, "LOCK")), \
        "SIGKILL leaves the LOCK behind"

    # Phase 2: restart, recover, resume feeding from the durable count.
    server, addr, recovered = spawn(bin_path)
    try:
        expect(recovered, "recovered 1 channel(s), 1 subscription(s)")
        client = Client(addr)
        reply = expect(client.send(f"OPEN quote {SCHEMA}"), "OK opened quote rows=")
        durable = int(reply.rpartition("=")[2])
        assert acknowledged <= durable <= len(rows), \
            f"durable count {durable} lost acknowledged rows ({acknowledged})"
        if durable < len(rows):
            expect(client.send("FEED quote\n" + "\n".join(rows[durable:])),
                   "OK fed ")
        with urllib.request.urlopen(f"http://{addr}/metrics", timeout=60) as r:
            metrics = r.read().decode()
        for needle in ["sqlts_server_recovered_subscriptions_total 1",
                       "sqlts_server_wal_appends_total"]:
            assert needle in metrics, f"missing {needle} in scrape"
        body = result_body(client.send("UNSUBSCRIBE s1"), "s1", 0)
        assert body == batch, (
            f"recovered subscription diverged from batch: "
            f"{len(body.splitlines())} vs {len(batch.splitlines())} lines"
        )
    finally:
        server.kill()
        server.wait()

    # Phase 3: graceful drain under SIGTERM, then recover the drained
    # subscription and finish the stream byte-identically.
    shutil.rmtree(DATA_DIR)
    server, addr, _ = spawn(bin_path)
    client = Client(addr)
    expect(client.send(f"OPEN quote {SCHEMA}"), "OK opened quote rows=0")
    expect(client.send(f"SUBSCRIBE s1 quote\n{QUERY}"), "OK subscribed s1")
    half = len(chunks) // 2
    for chunk in chunks[:half]:
        expect(client.send("FEED quote\n" + "\n".join(chunk)),
               f"OK fed {len(chunk)} subs=1")
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=60) == 0, "drain must exit 0"
    expect(client.recv(), "ERR 4 server draining")
    rest = server.stdout.read()
    assert "drained" in rest, f"missing drain announcement: {rest!r}"
    assert not os.path.exists(os.path.join(DATA_DIR, "LOCK")), \
        "drain must release the LOCK"

    server, addr, recovered = spawn(bin_path)
    try:
        expect(recovered, "recovered 1 channel(s), 1 subscription(s)")
        client = Client(addr)
        reply = expect(client.send(f"OPEN quote {SCHEMA}"), "OK opened quote rows=")
        durable = int(reply.rpartition("=")[2])
        assert durable == half * 500, \
            f"drain must persist every acknowledged row, got {durable}"
        expect(client.send("FEED quote\n" + "\n".join(rows[durable:])), "OK fed ")
        body = result_body(client.send("UNSUBSCRIBE s1"), "s1", 0)
        assert body == batch, "post-drain recovery diverged from batch"
    finally:
        server.kill()
        server.wait()

    # Phase 4: replication failover.  A primary streams its WAL to a warm
    # standby with sync acks; SIGKILL the primary with a FEED in flight,
    # promote the standby via SIGUSR1 (the CLI relay), and require the
    # promoted server to finish the stream byte-identical to batch.
    standby_dir = DATA_DIR + "-standby"
    shutil.rmtree(DATA_DIR, ignore_errors=True)
    shutil.rmtree(standby_dir, ignore_errors=True)
    standby, standby_addr, _ = spawn(bin_path, data_dir=standby_dir,
                                     extra=["--standby"])
    try:
        server, addr, _ = spawn(
            bin_path, extra=["--replicate-to", standby_addr,
                             "--repl-ack", "sync"])
        # The shipper connects in the background; a sync FEED that beats
        # it degrades to async by design, so start once the stream is up.
        for _ in range(300):
            if metric(scrape(addr), "sqlts_repl_connected") == 1:
                break
            time.sleep(0.01)
        else:
            raise AssertionError("primary never connected to the standby")
        client = Client(addr)
        expect(client.send(f"OPEN quote {SCHEMA}"), "OK opened quote rows=0")
        expect(client.send(f"SUBSCRIBE s1 quote\n{QUERY}"), "OK subscribed s1")
        for chunk in chunks[:10]:
            expect(client.send("FEED quote\n" + "\n".join(chunk)),
                   f"OK fed {len(chunk)} subs=1")
        acked = 10 * 500

        # The primary's exposition shows a connected, caught-up stream;
        # the standby's shows the frames landing.
        prom = scrape(addr)
        assert metric(prom, "sqlts_repl_connected") == 1, prom
        assert metric(prom, "sqlts_repl_lag_rows") == 0, prom
        assert metric(prom, "sqlts_repl_frames_sent_total") >= 10, prom
        assert metric(prom, "sqlts_repl_acks_total") >= 10, prom
        sprom = scrape(standby_addr)
        assert metric(sprom, "sqlts_standby") == 1, sprom
        assert metric(sprom, "sqlts_repl_frames_received_total") >= 10, sprom

        # SIGKILL the primary with a FEED in flight, then promote.
        client.send_only("FEED quote\n" + "\n".join(chunks[10]))
        server.kill()
        server.wait()
        standby.send_signal(signal.SIGUSR1)
        sclient = Client(standby_addr)
        for _ in range(300):
            reply = sclient.send(f"OPEN quote {SCHEMA}")
            if reply.startswith("OK opened quote rows="):
                break
            assert reply.startswith("ERR 4 "), reply
            time.sleep(0.1)
        else:
            raise AssertionError("standby never promoted after SIGUSR1")
        durable = int(reply.rpartition("=")[2])
        assert acked <= durable <= acked + 500 and durable % 500 == 0, \
            f"promoted standby lost sync-acked rows: {durable}"
        sprom = scrape(standby_addr)
        assert metric(sprom, "sqlts_standby") == 0, sprom
        assert metric(sprom, "sqlts_repl_promotions_total") == 1, sprom
        if durable < len(rows):
            expect(sclient.send("FEED quote\n" + "\n".join(rows[durable:])),
                   "OK fed ")
        body = result_body(sclient.send("UNSUBSCRIBE s1"), "s1", 0)
        assert body == batch, "promoted standby diverged from batch"
    finally:
        standby.kill()
        standby.wait()
        try:
            server.kill()
            server.wait()
        except OSError:
            pass
    shutil.rmtree(standby_dir, ignore_errors=True)

    print(f"crash smoke OK: SIGKILL mid-feed, SIGTERM drain, and "
          f"replication failover all recovered byte-identical results "
          f"over {len(rows)} tuples ({batch.count(chr(10)) - 1} matches)")


if __name__ == "__main__":
    main()
