//! Pins for the wire's size caps on text the *server* builds.
//!
//! A frame blob is capped at [`MAX_BLOB`], and the encoder asserts it, so
//! any server-built text that can outgrow the cap must be checked before
//! it is encoded on the poller. Two regressions:
//!
//! 1. An out-of-protocol client frame is answered by naming its kind,
//!    never by echoing its (client-sized) contents. Echoing the `Debug`
//!    text of a 400 KiB blob once overran the cap and killed the poller.
//! 2. An epoch whose text exceeds the cap is refused with an error frame
//!    on pull, and the connection keeps serving.
//! 3. A job run under such an epoch has an outcome whose patch table
//!    exceeds the cap: it is refused with an error frame in the
//!    outcome's place (encoding it once panicked a worker and left the
//!    client waiting forever), and the connection keeps serving.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use xt_alloc::SiteHash;
use xt_fleet::frame::{ByteWriter, Frame};
use xt_fleet::{wal, DurabilityConfig, FleetConfig, FleetService, MemStorage, Storage};
use xt_net::proto::{kind, MAX_BLOB};
use xt_net::{Msg, NetClient, NetConfig, NetDurability, NetError, NetFrontend, WireOutcome};
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{EspressoLike, WorkloadInput};

/// Sends one frame on a fresh connection and reads the reply, failing
/// (instead of hanging) if the server does not answer within 10 s.
fn exchange(addr: SocketAddr, frame: &Frame) -> Msg {
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    frame.write_to(&mut raw).expect("write frame");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut BufReader::new(raw))
        .expect("server answered within the timeout")
        .expect("a reply frame before close");
    Msg::from_frame(&reply).expect("decodable reply")
}

#[test]
fn hostile_server_kind_frame_does_not_stop_the_poller() {
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", NetConfig::default())
        .expect("bind localhost");
    let addr = server.local_addr();

    // A server-to-client Outcome whose blob's Debug text is several times
    // the wire cap.
    let hostile = Msg::Outcome(WireOutcome {
        job: 0,
        digest: 0,
        error_observed: false,
        unanimous: true,
        winner: vec![0xFF; 400 << 10],
        agreeing: Vec::new(),
        dissenting: Vec::new(),
        replicas: Vec::new(),
        patches: String::new(),
        isolated: false,
    })
    .to_frame();
    assert_eq!(hostile.kind, kind::OUTCOME);
    match exchange(addr, &hostile) {
        Msg::Error { message } => {
            assert!(message.contains("kind 4"), "reply lost the kind: {message}");
            assert!(message.len() < 128, "reply echoed the frame: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The poller is alive: a health pull on a new connection answers.
    match exchange(addr, &Msg::HealthPull.to_frame()) {
        Msg::Health(health) => assert!(health.healthy),
        other => panic!("expected a health frame, got {other:?}"),
    }
    assert!(server.stats().rejected >= 1);
    server.shutdown();
}

/// A durable server recovered from a snapshot whose published epoch is
/// larger than one frame may carry: ~90k pads at ~15 bytes of text each.
/// Recovery loads the epoch into the server's own pools.
fn over_cap_epoch_server() -> NetFrontend {
    let mut table = PatchTable::new();
    for site in 0..90_000u32 {
        table.add_pad(SiteHash::from_raw(site), 8);
    }
    let epoch = PatchEpoch::genesis().succeed(&table);
    let text = epoch.to_text();
    assert!(text.len() > MAX_BLOB as usize, "epoch fits the cap");
    let fleet = FleetConfig::default();
    let mut snap = FleetService::new(fleet).export_snapshot();
    snap.epoch_text = text;
    let mut envelope = ByteWriter::new();
    envelope.u64(0);
    envelope.bytes(&snap.encode().expect("snapshot encodes"));
    let disk = MemStorage::new();
    disk.put(wal::SNAPSHOT_OBJECT, &envelope.into_bytes())
        .expect("seed snapshot");

    let config = NetConfig {
        fleet,
        durability: Some(NetDurability {
            storage: Arc::new(disk),
            config: DurabilityConfig { snapshot_every: 0 },
        }),
        ..NetConfig::default()
    };
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind durable");
    assert_eq!(server.service().latest().number, 1);
    server
}

/// The named counter in the server's wire metrics.
fn counter(server: &NetFrontend, name: &str) -> Option<u64> {
    server
        .metrics_snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

#[test]
fn over_cap_epoch_pull_is_refused_and_the_connection_serves_on() {
    let server = over_cap_epoch_server();
    let client = NetClient::connect(server.local_addr()).expect("connect");
    match client.pull_epoch(0) {
        Err(NetError::Remote(message)) => {
            assert!(
                message.contains("wire cap"),
                "unexpected refusal: {message}"
            );
        }
        other => panic!("expected a remote refusal, got {other:?}"),
    }
    // Already current: nothing to send, nothing to refuse.
    assert!(client.pull_epoch(1).expect("pull").is_none());
    // The same connection still serves.
    let health = client.pull_health().expect("health after refusal");
    assert_eq!(health.epoch, 1);
    assert_eq!(counter(&server, "net/epochs_oversized"), Some(1));
    drop(client);
    server.shutdown();
}

#[test]
fn over_cap_outcome_is_refused_and_the_connection_serves_on() {
    let server = over_cap_epoch_server();
    let addr = server.local_addr();
    // On its own thread, so a server that never answers fails the test
    // at the timeout instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let client = NetClient::connect(addr).expect("connect");
        let ticket = client
            .submit(&WorkloadInput::with_seed(1), None)
            .expect("submit accepted");
        let verdict = ticket.wait_verdict().map(|v| v.is_some());
        let outcome = ticket.wait();
        let health = client.pull_health().map(|h| h.epoch);
        tx.send((verdict, outcome, health, client.buffered()))
            .expect("test thread is waiting");
    });
    let (verdict, outcome, health, buffered) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the outcome wait returned within the timeout");
    submitter.join().expect("submitter thread");
    // The output was still released by the voter before the refusal.
    assert!(verdict.expect("verdict arrives"), "clean run has a quorum");
    match outcome {
        Err(NetError::Remote(message)) => {
            assert!(
                message.contains("wire cap"),
                "unexpected refusal: {message}"
            );
        }
        other => panic!("expected a remote refusal, got {other:?}"),
    }
    // The same connection still serves, and nothing stays parked.
    assert_eq!(health.expect("health after refusal"), 1);
    assert_eq!(buffered, 0);
    assert_eq!(counter(&server, "net/outcomes_oversized"), Some(1));
    server.shutdown();
}
