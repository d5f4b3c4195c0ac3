//! Corruption-injection suite for the durable segment store: flip one
//! byte in every region of every on-disk artifact — base segment
//! header, dictionary, permutation columns, delta segments, WAL records,
//! manifest — and prove the store answers with a *typed*
//! [`StoreError::Corrupt`] naming the damaged region. It must never
//! panic, and it must never serve a silently-wrong KB.

use std::path::PathBuf;
use std::sync::Arc;

use kbkit::kb_store::{
    ntriples, segment_io, DeltaSegment, KbBuilder, KbSnapshot, SegmentRegion, SegmentStore,
    SegmentedSnapshot, StoreError, StoreOptions, Wal,
};

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbkit-corrupt-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but fully-featured KB: confidences, spans, taxonomy edges,
/// sameAs links and labels, so every segment region is non-empty.
fn rich_base() -> Arc<KbSnapshot> {
    let mut b = KbBuilder::new();
    let src = b.register_source("test-source");
    for i in 0..8 {
        let s = b.intern(&format!("person_{i}"));
        let p = b.intern("bornIn");
        let o = b.intern(&format!("city_{}", i % 3));
        b.add_fact(kbkit::kb_store::Fact {
            triple: kbkit::kb_store::Triple::new(s, p, o),
            confidence: 0.5 + 0.05 * i as f64,
            source: src,
            span: kbkit::kb_store::TimeSpan::parse("[1990,2000]"),
        });
    }
    let person = b.intern("person");
    let entity = b.intern("entity");
    b.taxonomy.add_subclass(person, entity).unwrap();
    let a = b.intern("person_0");
    let a2 = b.intern("p0_alias");
    b.sameas.declare(a, a2);
    let en = b.labels.lang("en");
    b.labels.add(a, en, "Person Zero");
    b.freeze().into()
}

fn delta_over(view: &SegmentedSnapshot) -> DeltaSegment {
    let mut b = KbBuilder::new();
    b.assert_str("person_0", "wonPrize", "some_prize");
    b.retract_str("person_1", "bornIn", "city_1");
    b.freeze_delta(view)
}

/// Every single-byte flip in a base segment must surface as `Corrupt`
/// naming the region the byte belongs to.
#[test]
fn base_segment_flips_report_the_damaged_region() {
    let dir = scratch("base-regions");
    let base = rich_base();
    let path = dir.join("base.seg");
    base.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");
    // The map must cover the whole file, so the sweep below visits
    // every region (header included).
    assert_eq!(regions.iter().map(|(_, r)| r.len()).sum::<usize>(), bytes.len());

    for (region, range) in &regions {
        // Flip the first, middle, and last byte of each region.
        for offset in [range.start, (range.start + range.end) / 2, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            match KbSnapshot::open_segment(&path) {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    // Structural preamble damage (magic/version/length
                    // fields) is always attributed to the header.
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(_) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Same sweep for a delta segment (which adds the delta-metadata and
/// fact-kinds regions).
#[test]
fn delta_segment_flips_report_the_damaged_region() {
    let dir = scratch("delta-regions");
    let base = rich_base();
    let view = SegmentedSnapshot::from_base(base);
    let delta = delta_over(&view);
    let path = dir.join("delta.seg");
    delta.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");
    let names: Vec<String> = regions.iter().map(|(r, _)| r.to_string()).collect();
    assert!(names.iter().any(|n| n.contains("delta")), "delta regions present: {names:?}");

    for (region, range) in &regions {
        for offset in [range.start, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            match DeltaSegment::open_segment(&path) {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(_) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in a WAL record is typed damage (`wal record`), and
/// recovery serves the intact prefix rather than failing or lying.
#[test]
fn wal_record_flip_is_typed_and_recovery_degrades_gracefully() {
    let dir = scratch("wal-record");
    let base = rich_base();
    let mut store = SegmentStore::create(&dir, Arc::clone(&base), NO_FSYNC).unwrap();
    let d1 = {
        let mut b = KbBuilder::new();
        b.assert_str("person_2", "wonPrize", "first_prize");
        Arc::new(b.freeze_delta(&store.view()))
    };
    store.install_delta(d1).unwrap();
    let oracle = ntriples::to_string(&store.view()).unwrap();
    let d2 = {
        let mut b = KbBuilder::new();
        b.assert_str("person_3", "wonPrize", "second_prize");
        Arc::new(b.freeze_delta(&store.view()))
    };
    store.install_delta(d2).unwrap();
    drop(store);

    let wal_path = dir.join("wal-0.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0xA5; // inside the second record's payload
    std::fs::write(&wal_path, &bytes).unwrap();

    // The WAL layer reports typed damage...
    let replay = Wal::replay(&wal_path).unwrap();
    let (err, _) = replay.damage.expect("damage reported");
    assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::WalRecord, .. }), "{err}");

    // ...and the store quarantines the damaged tail, serving the prefix.
    let store = SegmentStore::open_with(&dir, NO_FSYNC).unwrap();
    let report = store.recovery_report();
    assert!(report.degraded(), "damage must be reported, not hidden");
    assert_eq!(report.wal_replayed, 1, "intact prefix survives");
    assert_eq!(ntriples::to_string(&store.view()).unwrap(), oracle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every flipped byte in the manifest is caught; the store refuses to
/// open rather than guessing at its file list.
#[test]
fn manifest_flips_are_hard_typed_errors() {
    let dir = scratch("manifest");
    let base = rich_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let path = dir.join("MANIFEST");
    let bytes = std::fs::read(&path).unwrap();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        std::fs::write(&path, &bad).unwrap();
        match SegmentStore::open_with(&dir, NO_FSYNC) {
            Err(StoreError::Corrupt { region: SegmentRegion::Manifest, .. }) => {}
            Err(other) => panic!("manifest flip at byte {i}: wrong error {other}"),
            Ok(_) => panic!("manifest flip at byte {i} was silently accepted"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lazy opens defer region checksums to first access: a flipped byte
/// in a *cold* region must not fail `open_with` (only the preamble,
/// header and manifest are read there) but must surface as the same
/// typed `Corrupt` error — naming the damaged region — the moment the
/// region is faulted via `prefault`. Nothing is ever silently served.
#[test]
fn cold_region_flips_surface_on_first_access_not_open() {
    use kbkit::kb_store::KbRead as _;
    let dir = scratch("cold-regions");
    let base = rich_base();
    drop(SegmentStore::create(&dir, base, NO_FSYNC).unwrap());
    let path = dir.join("base-0.seg");
    let bytes = std::fs::read(&path).unwrap();
    let regions = segment_io::region_map(&bytes).expect("region map");

    for (region, range) in &regions {
        for offset in [range.start, (range.start + range.end) / 2, range.end - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xA5;
            std::fs::write(&path, &bad).unwrap();
            let opened = SegmentStore::open_with(&dir, NO_FSYNC);
            if *region == SegmentRegion::Header {
                // Structural damage is still a hard open error.
                match opened {
                    Err(StoreError::Corrupt { .. }) => continue,
                    Err(other) => panic!("header byte {offset}: untyped error {other}"),
                    Ok(_) => panic!("header byte {offset} was silently accepted"),
                }
            }
            // Data-region damage: the lazy open must succeed (open cost
            // is O(header), the cold bytes were never read) ...
            let store = opened
                .unwrap_or_else(|e| panic!("byte {offset} in {region} failed lazy open: {e}"));
            // ... and the first touch must report the damaged region.
            match store.view().prefault() {
                Err(StoreError::Corrupt { region: reported, .. }) => {
                    assert!(
                        reported == *region || reported == SegmentRegion::Header,
                        "byte {offset} in {region} reported as {reported}"
                    );
                }
                Err(other) => panic!("byte {offset} in {region}: untyped error {other}"),
                Ok(()) => panic!("byte {offset} in {region} was silently accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites fact `dup` of a base segment's fact table to repeat fact
/// 0's triple — with a live or a zero (retracted) confidence — and
/// re-seals the region and header checksums, so only the structural
/// duplicate check stands between the image and a reader. Every fact
/// of the source KB is span-less, so each row is a fixed 25 bytes.
fn repeat_first_triple(bytes: &[u8], dup: usize, retracted: bool) -> Vec<u8> {
    const PREAMBLE: usize = 16;
    const ENTRY: usize = 1 + 8 + 8 + 4;
    const ROW: usize = 12 + 8 + 4 + 1;
    let regions = segment_io::region_map(bytes).expect("region map");
    let slot = regions.iter().position(|(r, _)| *r == SegmentRegion::Facts).unwrap() - 1;
    let facts = regions[slot + 1].1.clone();
    let mut out = bytes.to_vec();
    let row = |i: usize| facts.start + 4 + i * ROW;
    let first = out[row(0)..row(0) + 12].to_vec();
    out[row(dup)..row(dup) + 12].copy_from_slice(&first);
    if retracted {
        out[row(dup) + 12..row(dup) + 20].copy_from_slice(&0f64.to_bits().to_le_bytes());
    }
    let crc = segment_io::crc32(&out[facts.clone()]);
    let entry_crc = PREAMBLE + 4 + slot * ENTRY + 1 + 8 + 8;
    out[entry_crc..entry_crc + 4].copy_from_slice(&crc.to_le_bytes());
    let header_len = u32::from_le_bytes(out[8..12].try_into().unwrap()) as usize;
    let header_crc = segment_io::crc32(&out[PREAMBLE..PREAMBLE + header_len]);
    out[12..16].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// A base segment whose fact table repeats a triple — live/live or
/// live/retracted — is structurally corrupt even though every checksum
/// holds. Both the eager reader and a lazy store's first touch must
/// refuse it as a typed `Corrupt` naming the fact table.
#[test]
fn base_segment_with_a_repeated_triple_is_corrupt() {
    use kbkit::kb_store::KbRead as _;
    let mut b = KbBuilder::new();
    for i in 0..6 {
        b.assert_str(&format!("person_{i}"), "bornIn", &format!("city_{}", i % 2));
    }
    for retracted in [false, true] {
        let dir = scratch(&format!("repeated-triple-{retracted}"));
        drop(SegmentStore::create(&dir, b.clone().freeze().into(), NO_FSYNC).unwrap());
        let path = dir.join("base-0.seg");
        let bad = repeat_first_triple(&std::fs::read(&path).unwrap(), 3, retracted);
        std::fs::write(&path, &bad).unwrap();

        let expect_facts = |what: &str, res: Result<(), StoreError>| match res {
            Err(StoreError::Corrupt { region: SegmentRegion::Facts, detail }) => {
                assert!(detail.contains("duplicate triple"), "{what}: {detail}");
            }
            other => panic!("{what} (retracted: {retracted}): {other:?}"),
        };
        expect_facts("eager open", KbSnapshot::open_segment(&path).map(drop));
        let store =
            SegmentStore::open_with(&dir, NO_FSYNC).expect("lazy open reads only the header");
        expect_facts("lazy first touch", store.view().prefault());
        std::fs::remove_dir_all(&dir).ok();
    }
}
