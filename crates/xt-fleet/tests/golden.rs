//! Golden vectors: one fixed instance of every byte format this crate
//! owns, pinned as hex. A codec refactor must leave every byte where it
//! is — reports sit in WALs and cross sockets, snapshots sit on disk —
//! so each case checks both directions: the instance encodes to exactly
//! the golden bytes, and the golden bytes decode back to the instance.
//!
//! Formats: the `XTR1` run report, the `XTS1` fleet snapshot, the `XTF1`
//! frame, and the durable layer's on-storage objects (one WAL record of
//! each kind, plus the snapshot envelope), read back from storage after
//! driving a [`DurableFleet`] through a fixed script.

use proptest::golden::{assert_golden, unhex};
use xt_fleet::storage::Storage;
use xt_fleet::wal::{SNAPSHOT_OBJECT, WAL_OBJECT};
use xt_fleet::{
    DurabilityConfig, DurableFleet, FleetConfig, FleetService, FleetSnapshot, Frame, MemStorage,
    RunReport,
};
use xt_isolate::cumulative::CumulativeConfig;

/// Every array non-empty, every scalar distinct from its neighbours.
fn report() -> RunReport {
    RunReport {
        client: 0x0123_4567_89AB_CDEF,
        seq: 7,
        failed: true,
        clock: 1234,
        n_sites: 77,
        overflow_obs: vec![(0xB06, 0.25, true), (0xC1EA, 0.5, false)],
        dangling_obs: vec![(0xD00D, 0.75, true)],
        pad_hints: vec![(0xB06, 36)],
        defer_hints: vec![(0xD00D, 0xF, 42)],
    }
}

/// A small grid keeps the snapshot's evidence records short.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        publish_every: 0,
        isolator: CumulativeConfig {
            integration_steps: 4,
            ..CumulativeConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Two clients, so the replay window carries two entries.
fn reports() -> Vec<RunReport> {
    vec![
        report(),
        RunReport {
            client: 9,
            seq: 0,
            failed: false,
            overflow_obs: vec![(0xB06, 0.5, false)],
            dangling_obs: vec![],
            pad_hints: vec![],
            defer_hints: vec![],
            ..report()
        },
    ]
}

const REPORT: &str = "
    5854523101efcdab896745230107000000d2040000000000004d000000020000
    00010000000100000001000000060b0000000000000000d03f01eac100000000
    00000000e03f000dd00000000000000000e83f01060b0000240000000dd00000
    0f0000002a00000000000000
";

const SNAPSHOT: &str = "
    5854533102000000000000000100000000000000000000000000000000000000
    00000000000000000000000000000000000000004d0000000000000004000000
    2c000000232065706f636820300a232065787465726d696e61746f722072756e
    74696d6520706174636865732076310a02000000090000000000000001000000
    00000000000000000000000000000000efcdab89674523010100000000000000
    00000000000000000700000002000000060b0000020000000000000000000000
    0000c03f05000000000000000000c03f000000000000c53f000000000000c43f
    000000000000ba3f0000000000000000eac10000010000000000000000000000
    0000e03f05000000000000000000e03f000000000000d83f000000000000d03f
    000000000000c03f0000000000000000010000000dd000000100000000000000
    000000000000e83f05000000000000000000e83f000000000000ea3f00000000
    0000ec3f000000000000ee3f000000000000f03f01000000060b000024000000
    010000000dd000000f0000002a00000000000000
";

const FRAME: &str = "
    58544631070b0000007468726565206b696e6473
";

const WAL: &str = "
    0001000000000000006c00000046452fce2fd76b185854523101efcdab896745
    230107000000d2040000000000004d0000000200000001000000010000000100
    0000060b0000000000000000d03f01eac10000000000000000e03f000dd00000
    000000000000e83f01060b0000240000000dd000000f0000002a000000000000
    0001020000000000000000000000ce050dcc65c42bd7
";

const SNAPSHOT_ENVELOPE: &str = "
    0200000000000000585453310100000000000000010000000000000000000000
    000000000000000000000000000000000000000000000000000000004d000000
    00000000040000002c000000232065706f636820300a232065787465726d696e
    61746f722072756e74696d6520706174636865732076310a01000000efcdab89
    67452301010000000000000000000000000000000700000002000000060b0000
    0100000000000000000000000000d03f05000000000000000000d03f00000000
    0000dc3f000000000000e43f000000000000ea3f000000000000f03feac10000
    0100000000000000000000000000e03f05000000000000000000e03f00000000
    0000d83f000000000000d03f000000000000c03f000000000000000001000000
    0dd000000100000000000000000000000000e83f05000000000000000000e83f
    000000000000ea3f000000000000ec3f000000000000ee3f000000000000f03f
    01000000060b000024000000010000000dd000000f0000002a00000000000000
";

#[test]
fn run_report_bytes_are_pinned() {
    let report = report();
    assert_golden("XTR1 report", &report.encode(), REPORT);
    assert_eq!(RunReport::decode(&unhex(REPORT)).unwrap(), report);
}

#[test]
fn fleet_snapshot_bytes_are_pinned() {
    let service = FleetService::new(fleet_config());
    for r in reports() {
        service.ingest_report(&r);
    }
    service.publish();
    let snapshot = service.export_snapshot();
    assert!(snapshot.windows.len() >= 2 && !snapshot.overflow.is_empty());
    assert_golden("XTS1 snapshot", &snapshot.encode().unwrap(), SNAPSHOT);
    assert_eq!(FleetSnapshot::decode(&unhex(SNAPSHOT)).unwrap(), snapshot);
}

#[test]
fn frame_bytes_are_pinned() {
    let frame = Frame::new(7, b"three kinds".to_vec());
    assert_golden("XTF1 frame", &frame.encode(), FRAME);
    assert_eq!(Frame::decode(&unhex(FRAME)).unwrap(), frame);
}

/// One report record (kind 0), one publish record (kind 1), then the
/// snapshot envelope (applied LSN ∥ `XTS1`) a compaction writes.
#[test]
fn durable_objects_are_pinned() {
    let disk = MemStorage::new();
    let fleet = DurableFleet::open(
        disk.clone(),
        fleet_config(),
        DurabilityConfig { snapshot_every: 0 },
    )
    .unwrap();
    fleet.ingest_report(&report()).unwrap();
    fleet.publish().unwrap();
    assert_golden("WAL", &disk.read(WAL_OBJECT).unwrap().unwrap(), WAL);
    fleet.snapshot().unwrap();
    assert_golden(
        "snapshot envelope",
        &disk.read(SNAPSHOT_OBJECT).unwrap().unwrap(),
        SNAPSHOT_ENVELOPE,
    );
    drop(fleet);
    // The golden bytes recover to the same state.
    let golden_disk = MemStorage::new();
    golden_disk.put(WAL_OBJECT, &unhex(WAL)).unwrap();
    let replayed = DurableFleet::open(
        golden_disk.clone(),
        fleet_config(),
        DurabilityConfig::default(),
    )
    .unwrap();
    golden_disk
        .put(SNAPSHOT_OBJECT, &unhex(SNAPSHOT_ENVELOPE))
        .unwrap();
    golden_disk.truncate(WAL_OBJECT, 0).unwrap();
    let restored =
        DurableFleet::open(golden_disk, fleet_config(), DurabilityConfig::default()).unwrap();
    assert_eq!(replayed.state_digest(), restored.state_digest());
    assert_eq!(replayed.metrics().reports, 1);
}
