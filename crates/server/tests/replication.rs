//! Replication fault suite over real sockets: a primary streaming its
//! WAL to a warm standby must survive standby crashes (resync), reject
//! forged frames without poisoning either side, repair a torn standby
//! WAL tail at promotion, and fail over automatically when armed —
//! always producing byte-identical results for every row the ack mode
//! promised durable.

use sqlts_server::{
    read_frame, write_frame, FrameEvent, FsyncPolicy, ReplAck, Server, ServerConfig,
};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SQL: &str = "SELECT X.name, Z.day AS day FROM q CLUSTER BY name \
                   SEQUENCE BY day AS (X, *Y, Z) \
                   WHERE Y.price > Y.previous.price \
                   AND Z.price < Z.previous.price";

fn frames() -> Vec<String> {
    (0..8)
        .map(|f| {
            let mut body = String::new();
            for r in 0..3 {
                let day = f * 3 + r;
                let wave = (day % 5) as f64;
                body.push_str(&format!("AAA,{day},{}\n", 100.0 + 4.0 * wave));
            }
            body
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlts-repl-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server running `run_until` on a background thread.
struct Rig {
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    addr: String,
}

impl Rig {
    fn spawn(config: ServerConfig) -> Rig {
        // Listener ports are recycled across restarts in these tests;
        // retry briefly in case a just-killed rig's socket lingers.
        let deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            match Server::bind(config.clone()) {
                Ok(server) => break Arc::new(server),
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("bind {}: {e}", config.listen),
            }
        };
        let addr = server.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let _ = server.run_until(&stop);
            })
        };
        Rig {
            server,
            stop,
            handle: Some(handle),
            addr,
        }
    }

    fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn standby_config(root: &Path) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".into(),
        data_dir: Some(root.to_path_buf()),
        fsync: FsyncPolicy::Off,
        checkpoint_every_frames: 1_000,
        standby: true,
        ..ServerConfig::default()
    }
}

fn primary_config(root: &Path, target: &str, ack: ReplAck) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".into(),
        data_dir: Some(root.to_path_buf()),
        fsync: FsyncPolicy::Off,
        checkpoint_every_frames: 1_000,
        replicate_to: Some(target.to_string()),
        repl_ack: ack,
        ..ServerConfig::default()
    }
}

/// A framed-protocol client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn request(&mut self, payload: &str) -> String {
        write_frame(&mut self.stream, payload).unwrap();
        match read_frame(&mut self.reader, 1 << 24).unwrap() {
            FrameEvent::Payload(text) => text,
            other => panic!("unexpected frame event: {other:?}"),
        }
    }
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn metric(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("missing {name} in:\n{exposition}"))
        .trim()
        .parse()
        .unwrap_or_else(|v| panic!("unparsable {name}: {v}"))
}

/// UNSUBSCRIBE output of an uninterrupted, non-replicated run.
fn reference(frames: &[String]) -> String {
    let rig = Rig::spawn(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&rig.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in frames {
        let reply = client.request(&format!("FEED q\n{frame}"));
        assert!(reply.starts_with("OK fed"), "{reply}");
    }
    client.request("UNSUBSCRIBE s")
}

/// A primary whose shipping session to the (already listening) standby
/// is up.  The shipper connects in the background, and a FEED that beats
/// it is — by design — degraded to async rather than held; these tests
/// are about the stream, so they start once there is one.
fn spawn_primary(root: &Path, target: &str, ack: ReplAck) -> Rig {
    let primary = Rig::spawn(primary_config(root, target, ack));
    wait_until("replication session up", || {
        metric(&http_get(&primary.addr, "/metrics"), "sqlts_repl_connected") == 1
    });
    primary
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Same polynomial as the WAL/replication codec; reimplemented here so
/// the forged-frame test can build a frame whose CRC is *valid* but
/// whose ordinal gaps.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

#[test]
fn streams_to_the_standby_and_promotes_byte_identically() {
    let all = frames();
    let reference = reference(&all);
    let sroot = temp_dir("e2e-standby");
    let proot = temp_dir("e2e-primary");
    let standby = Rig::spawn(standby_config(&sroot));
    let primary = spawn_primary(&proot, &standby.addr, ReplAck::Sync);

    let mut client = Client::connect(&primary.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in &all {
        let reply = client.request(&format!("FEED q\n{frame}"));
        assert!(reply.starts_with("OK fed 3"), "{reply}");
    }

    // The primary's exposition reports a healthy, caught-up stream...
    let prom = http_get(&primary.addr, "/metrics");
    assert_eq!(metric(&prom, "sqlts_repl_connected"), 1, "{prom}");
    assert_eq!(metric(&prom, "sqlts_repl_lag_rows"), 0, "{prom}");
    assert!(metric(&prom, "sqlts_repl_frames_sent_total") >= 8, "{prom}");
    assert!(metric(&prom, "sqlts_repl_acks_total") >= 8, "{prom}");
    assert_eq!(metric(&prom, "sqlts_standby"), 0, "{prom}");
    let status = http_get(&primary.addr, "/status");
    assert!(
        status.contains("\"replication\":{\"connected\":true"),
        "{status}"
    );
    assert!(status.contains("\"standby\":false"), "{status}");
    // ...and the standby's shows the frames landing.
    let sprom = http_get(&standby.addr, "/metrics");
    assert_eq!(metric(&sprom, "sqlts_standby"), 1, "{sprom}");
    assert!(
        metric(&sprom, "sqlts_repl_frames_received_total") >= 8,
        "{sprom}"
    );
    let mut sclient = Client::connect(&standby.addr);
    let status = sclient.request("STATUS s");
    assert!(status.contains("durable_rows=24"), "{status}");

    // Primary dies; the standby takes over with everything sync acks
    // promised.
    // Kill the primary while the feeder is still connected: the drain
    // preserves the subscription (a client *disconnect* would reap it
    // and ship REPL REMOVE).
    primary.kill();
    drop(client);
    let reply = sclient.request("PROMOTE");
    assert!(reply.starts_with("OK promoted channels=1"), "{reply}");
    assert_eq!(
        sclient.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=24"
    );
    assert_eq!(sclient.request("UNSUBSCRIBE s"), reference);
    let prom = http_get(&standby.addr, "/metrics");
    assert_eq!(metric(&prom, "sqlts_standby"), 0, "{prom}");
    assert_eq!(metric(&prom, "sqlts_repl_promotions_total"), 1, "{prom}");

    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
    let _ = std::fs::remove_dir_all(&proot);
}

#[test]
fn standby_killed_mid_stream_resyncs_and_catches_up() {
    let all = frames();
    let reference = reference(&all);
    let sroot = temp_dir("resync-standby");
    let proot = temp_dir("resync-primary");
    let standby = Rig::spawn(standby_config(&sroot));
    let standby_addr = standby.addr.clone();
    let primary = spawn_primary(&proot, &standby_addr, ReplAck::Async);

    let mut client = Client::connect(&primary.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in &all[..4] {
        client.request(&format!("FEED q\n{frame}"));
    }
    wait_until("standby caught up", || {
        metric(&http_get(&primary.addr, "/metrics"), "sqlts_repl_lag_rows") == 0
    });

    // Kill the standby mid-stream; the primary keeps accepting feeds and
    // keeps retrying the session.
    standby.kill();
    for frame in &all[4..] {
        let reply = client.request(&format!("FEED q\n{frame}"));
        assert!(reply.starts_with("OK fed 3"), "{reply}");
    }

    // Restart the standby on the same address over the same data dir;
    // the primary's next resync scans its own WAL from the standby's
    // durable row count and re-ships the gap.
    let standby = Rig::spawn(ServerConfig {
        listen: standby_addr,
        ..standby_config(&sroot)
    });
    wait_until("resync after standby restart", || {
        metric(&http_get(&primary.addr, "/metrics"), "sqlts_repl_lag_rows") == 0
    });
    let prom = http_get(&primary.addr, "/metrics");
    assert!(
        metric(&prom, "sqlts_repl_resyncs_total") >= 2,
        "a standby restart must force a second resync: {prom}"
    );

    // Kill the primary while the feeder is still connected: the drain
    // preserves the subscription (a client *disconnect* would reap it
    // and ship REPL REMOVE).
    primary.kill();
    drop(client);
    let mut sclient = Client::connect(&standby.addr);
    assert!(sclient.request("PROMOTE").starts_with("OK promoted"));
    assert_eq!(
        sclient.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=24"
    );
    assert_eq!(sclient.request("UNSUBSCRIBE s"), reference);

    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
    let _ = std::fs::remove_dir_all(&proot);
}

#[test]
fn forged_frames_are_rejected_without_poisoning_either_side() {
    let all = frames();
    let reference = reference(&all[..3]);
    let sroot = temp_dir("forge-standby");
    let proot = temp_dir("forge-primary");
    let standby = Rig::spawn(standby_config(&sroot));
    let primary = spawn_primary(&proot, &standby.addr, ReplAck::Sync);

    let mut client = Client::connect(&primary.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in &all[..2] {
        client.request(&format!("FEED q\n{frame}"));
    }

    // An attacker (or a corrupting middlebox) speaks the protocol at the
    // standby directly.
    let mut attacker = Client::connect(&standby.addr);
    assert!(attacker.request("REPL HELLO v1").starts_with("OK repl v1"));
    // Bit-flipped payload: the CRC no longer matches.
    let reply = attacker.request("REPL FRAME q 6 1 deadbeef\nAAA,99,1.0");
    assert!(reply.starts_with("ERR 3 "), "{reply}");
    // Valid CRC but a gapping ordinal: refused, never appended.
    let payload = "AAA,99,1.0\n";
    let gap = format!(
        "REPL FRAME q 100 1 {:08x}\n{payload}",
        crc32(payload.as_bytes())
    );
    let reply = attacker.request(&gap);
    assert!(reply.starts_with("ERR 4 "), "{reply}");
    // Rows that fail the channel schema are refused even with a good CRC.
    let bad = "not,a,valid,row\n";
    let forged = format!("REPL FRAME q 6 1 {:08x}\n{bad}", crc32(bad.as_bytes()));
    let reply = attacker.request(&forged);
    assert!(reply.starts_with("ERR 3 "), "{reply}");
    let prom = http_get(&standby.addr, "/metrics");
    assert!(
        metric(&prom, "sqlts_repl_rejected_frames_total") >= 3,
        "{prom}"
    );

    // The real stream is unaffected: the primary keeps shipping and the
    // promoted standby holds exactly the fed rows.
    let reply = client.request(&format!("FEED q\n{}", all[2]));
    assert!(reply.starts_with("OK fed 3"), "{reply}");
    // Kill the primary while the feeder is still connected: the drain
    // preserves the subscription (a client *disconnect* would reap it
    // and ship REPL REMOVE).
    primary.kill();
    drop(client);
    let mut sclient = Client::connect(&standby.addr);
    assert!(sclient.request("PROMOTE").starts_with("OK promoted"));
    assert_eq!(
        sclient.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=9"
    );
    assert_eq!(sclient.request("UNSUBSCRIBE s"), reference);

    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
    let _ = std::fs::remove_dir_all(&proot);
}

#[test]
fn promotion_repairs_a_torn_standby_wal_tail() {
    let all = frames();
    let reference = reference(&all);
    let sroot = temp_dir("torn-standby");
    let proot = temp_dir("torn-primary");
    let standby = Rig::spawn(standby_config(&sroot));
    let primary = spawn_primary(&proot, &standby.addr, ReplAck::Sync);

    let mut client = Client::connect(&primary.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in &all[..4] {
        client.request(&format!("FEED q\n{frame}"));
    }
    // Kill the primary while the feeder is still connected: the drain
    // preserves the subscription (a client *disconnect* would reap it
    // and ship REPL REMOVE).
    primary.kill();
    drop(client);
    standby.kill();

    // The standby's own crash tore its newest WAL segment mid-write.
    let chandir = sroot.join("channels");
    let newest = std::fs::read_dir(&chandir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("q.wal"))
        })
        .max()
        .expect("standby has a replicated WAL segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .unwrap();
    file.write_all(b"12 GARBAGE torn tail").unwrap();
    drop(file);

    // Restart over the torn dir and promote: the tolerant scan repairs
    // the tail and promotion replays only intact frames.
    let standby = Rig::spawn(standby_config(&sroot));
    let mut sclient = Client::connect(&standby.addr);
    assert!(sclient.request("PROMOTE").starts_with("OK promoted"));
    assert_eq!(
        sclient.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=12",
        "torn garbage must be discarded, intact frames kept"
    );
    for frame in &all[4..] {
        sclient.request(&format!("FEED q\n{frame}"));
    }
    assert_eq!(sclient.request("UNSUBSCRIBE s"), reference);

    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
    let _ = std::fs::remove_dir_all(&proot);
}

#[test]
fn armed_standby_promotes_itself_when_the_primary_disconnects() {
    let all = frames();
    let reference = reference(&all);
    let sroot = temp_dir("auto-standby");
    let proot = temp_dir("auto-primary");
    let standby = Rig::spawn(ServerConfig {
        promote_on_disconnect: true,
        ..standby_config(&sroot)
    });
    let primary = spawn_primary(&proot, &standby.addr, ReplAck::Sync);

    let mut client = Client::connect(&primary.addr);
    client.request("OPEN q name:str,day:int,price:float");
    client.request(&format!("SUBSCRIBE s q\n{SQL}"));
    for frame in &all[..5] {
        client.request(&format!("FEED q\n{frame}"));
    }
    assert!(standby.server.is_standby());

    // The primary dies; losing its replication connection is the
    // failover trigger.
    // Kill the primary while the feeder is still connected: the drain
    // preserves the subscription (a client *disconnect* would reap it
    // and ship REPL REMOVE).
    primary.kill();
    drop(client);
    wait_until("automatic promotion", || !standby.server.is_standby());
    let mut sclient = Client::connect(&standby.addr);
    assert_eq!(
        sclient.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=15"
    );
    for frame in &all[5..] {
        sclient.request(&format!("FEED q\n{frame}"));
    }
    assert_eq!(sclient.request("UNSUBSCRIBE s"), reference);

    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
    let _ = std::fs::remove_dir_all(&proot);
}

#[test]
fn operator_requested_promotion_flag_is_served_by_the_accept_loop() {
    // The CLI's SIGUSR1 relay calls `request_promotion`; `run_until`'s
    // flag poll must pick it up without any client connected.
    let sroot = temp_dir("sig-standby");
    let standby = Rig::spawn(standby_config(&sroot));
    assert!(standby.server.is_standby());
    standby.server.request_promotion();
    wait_until("flag-driven promotion", || !standby.server.is_standby());
    let mut client = Client::connect(&standby.addr);
    assert_eq!(
        client.request("OPEN q name:str,day:int,price:float"),
        "OK opened q rows=0"
    );
    drop(standby);
    let _ = std::fs::remove_dir_all(&sroot);
}
