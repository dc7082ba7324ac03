//! Corruption fuzz for the serialised state containers: any byte
//! mutation of a valid `RMCK` checkpoint or `RMSS` session container —
//! bit flips, truncations, insertions, or arbitrary garbage — must
//! yield a typed [`redmule::DecodeError`], never a panic and never a
//! silently accepted wrong value. A protected (RedMulE-FT) session's
//! payload, damaged inside a well-formed container, must fail to resume
//! with a typed error too, and so must a damaged TCDM section.

use proptest::prelude::*;
use redmule::decode::{decode_container, encode_container, ContainerSpec, DecodeError};
use redmule::{
    stage_gemm_workspace_in, AccelConfig, Engine, EngineError, FaultPlan, FaultSite, FaultSpec,
    Format, FtConfig, SessionState, TransientTarget, SESSION_STATE_VERSION,
};
use redmule_cluster::{ClusterConfig, Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::StuckBit;
use redmule_runtime::{Checkpoint, Limits, Supervisor, CHECKPOINT_VERSION};

fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
    let gen = |len: usize, s: u32| -> Vec<F16> {
        (0..len)
            .map(|i| {
                let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 64;
                F16::from_f32(v as f32 / 16.0 - 2.0)
            })
            .collect()
    };
    (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xABCD))
}

/// A valid checkpoint container, produced by interrupting a real run at
/// a tile boundary.
fn valid_checkpoint_bytes() -> Vec<u8> {
    let shape = GemmShape::new(8, 10, 16);
    let (x, w) = data(shape, 41);
    let supervisor = Supervisor::new(Engine::new(AccelConfig::new(4, 2, 1)))
        .with_limits(Limits::none().with_max_cycles(60));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let run = supervisor.run(job, &mut mem, &mut hci).expect("run");
    run.checkpoint
        .expect("budget-bounded run yields a checkpoint")
        .to_bytes()
}

/// A valid checkpoint of a protected job (Redundancy mode), taken at a
/// verified tile boundary by a budget stop: its session payload carries
/// the fault plan and the FT state after the injector.
fn valid_protected_checkpoint_bytes() -> Vec<u8> {
    let shape = GemmShape::new(8, 10, 16);
    let (x, w) = data(shape, 43);
    let engine = Engine::new(AccelConfig::new(4, 2, 1));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let plan = FaultPlan::new(5)
        .with_random_transients(1, &[TransientTarget::Pipe, TransientTarget::ZStore])
        .with_spec(FaultSpec {
            tile: 6,
            cycle: 3,
            site: FaultSite::XLoad {
                chunk: 0,
                row: 1,
                elem: 2,
                bit: 13,
            },
        })
        .with_hci_drops(3);
    let session = engine
        .start_ft(job, &plan, FtConfig::redundancy(), &mut mem, &mut hci)
        .expect("start");
    let run = Supervisor::new(engine)
        .with_limits(Limits::none().with_max_cycles(200))
        .run_session(session, &mut mem, &mut hci)
        .expect("run");
    assert!(run.tiles_done > 0, "the budget stop lands past tile 0");
    run.checkpoint
        .expect("budget-bounded run yields a checkpoint")
        .to_bytes()
}

fn valid_session_bytes(checkpoint: &[u8]) -> Vec<u8> {
    Checkpoint::from_bytes(checkpoint)
        .expect("valid container")
        .session()
        .to_bytes()
}

/// Exercises one decoder against a mutation of `valid`, checking the
/// malformed-input contract.
fn assert_rejects<T, F>(valid: &[u8], mutated: Vec<u8>, decode: F)
where
    F: Fn(&[u8]) -> Result<T, DecodeError>,
{
    if mutated == valid {
        assert!(decode(&mutated).is_ok(), "identity mutation must decode");
    } else {
        // Any real mutation must surface typed damage: the container is
        // fully covered by magic, version, length and checksum.
        assert!(decode(&mutated).is_err(), "mutation accepted silently");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_decoder_survives_byte_mutations(
        byte in 0usize..4096,
        mask in any::<u8>(),
    ) {
        let valid = valid_checkpoint_bytes();
        let mut m = valid.clone();
        let at = byte % m.len();
        m[at] ^= mask;
        assert_rejects(&valid, m, Checkpoint::from_bytes);
    }

    #[test]
    fn checkpoint_decoder_survives_truncation_and_extension(
        cut in 0usize..4096,
        extra in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        let valid = valid_checkpoint_bytes();
        let cut = cut % valid.len();
        prop_assert!(Checkpoint::from_bytes(&valid[..cut]).is_err());
        if !extra.is_empty() {
            let mut extended = valid.clone();
            extended.extend_from_slice(&extra);
            let trailing = matches!(
                Checkpoint::from_bytes(&extended),
                Err(DecodeError::TrailingBytes { .. })
            );
            prop_assert!(trailing);
        }
    }

    #[test]
    fn session_decoder_survives_byte_mutations(
        byte in 0usize..4096,
        mask in any::<u8>(),
    ) {
        let ckpt = valid_checkpoint_bytes();
        let valid = valid_session_bytes(&ckpt);
        let mut m = valid.clone();
        let at = byte % m.len();
        m[at] ^= mask;
        assert_rejects(&valid, m, SessionState::from_bytes);
    }

    #[test]
    fn protected_checkpoint_decoder_survives_byte_mutations(
        byte in 0usize..8192,
        mask in any::<u8>(),
    ) {
        let valid = valid_protected_checkpoint_bytes();
        let mut m = valid.clone();
        let at = byte % m.len();
        m[at] ^= mask;
        assert_rejects(&valid, m, Checkpoint::from_bytes);
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary byte soup: both decoders must return, not abort. A
        // random accept is practically impossible (64-bit checksum), so
        // any Ok here is itself a bug.
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
        prop_assert!(SessionState::from_bytes(&bytes).is_err());
    }
}

#[test]
fn damage_kinds_are_the_documented_ones() {
    let valid = valid_checkpoint_bytes();

    let mut wrong_magic = valid.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        Checkpoint::from_bytes(&wrong_magic),
        Err(DecodeError::NotAContainer {
            container: "checkpoint"
        })
    );

    let mut wrong_version = valid.clone();
    wrong_version[4] ^= 0x55;
    assert!(matches!(
        Checkpoint::from_bytes(&wrong_version),
        Err(DecodeError::UnsupportedVersion {
            container: "checkpoint",
            expected: redmule_runtime::CHECKPOINT_VERSION,
            ..
        })
    ));

    let mut flipped_payload = valid.clone();
    let mid = flipped_payload.len() / 2;
    flipped_payload[mid] ^= 0x40;
    assert_eq!(
        Checkpoint::from_bytes(&flipped_payload),
        Err(DecodeError::ChecksumMismatch {
            container: "checkpoint"
        })
    );

    assert!(matches!(
        Checkpoint::from_bytes(&valid[..valid.len() - 3]),
        Err(DecodeError::Truncated { .. })
    ));

    let session = valid_session_bytes(&valid);
    let mut wrong_session_magic = session.clone();
    wrong_session_magic[3] = b'Q';
    assert_eq!(
        SessionState::from_bytes(&wrong_session_magic),
        Err(DecodeError::NotAContainer {
            container: "session"
        })
    );

    // Labels are stable and distinct — recovery keys repair events on
    // them.
    let labels: Vec<&str> = [
        DecodeError::NotAContainer { container: "x" },
        DecodeError::UnsupportedVersion {
            container: "x",
            expected: 1,
            got: 2,
        },
        DecodeError::Truncated { container: "x" },
        DecodeError::LengthOverflow {
            container: "x",
            declared: u64::MAX,
        },
        DecodeError::TrailingBytes {
            container: "x",
            extra: 1,
        },
        DecodeError::ChecksumMismatch { container: "x" },
        DecodeError::Corrupt {
            container: "x",
            what: "bad tag".to_owned(),
        },
        DecodeError::Section {
            container: "x",
            section: "session",
            cause: Box::new(DecodeError::Truncated { container: "x" }),
        },
    ]
    .iter()
    .map(DecodeError::label)
    .collect();
    for (i, a) in labels.iter().enumerate() {
        for b in &labels[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn damaged_protected_session_payload_fails_to_resume_with_a_typed_error() {
    // Damage under a valid envelope: the payload is re-wrapped with a
    // fresh checksum, so only the session decoder stands guard.
    const SESSION: ContainerSpec = ContainerSpec {
        name: "session",
        magic: *b"RMSS",
        version: SESSION_STATE_VERSION,
    };
    // The instance, streamer policy and job descriptor lead the payload;
    // a damaged job shape would size the resumed session's buffers before
    // any check, so the flips below start after them.
    const DESCRIPTOR_BYTES: usize = 3 * 8 + 1 + 3 * 4 + 3 * 8 + 1 + 3 * 8 + 1;
    let checkpoint = Checkpoint::from_bytes(&valid_protected_checkpoint_bytes()).expect("valid");
    let payload = decode_container(SESSION, &checkpoint.session().to_bytes()).expect("payload");
    let engine = Engine::new(AccelConfig::new(4, 2, 1));
    let resume = |bytes: &[u8]| {
        let state = SessionState::from_bytes(&encode_container(SESSION, bytes))
            .expect("a re-wrapped payload is a well-formed container");
        engine.resume(&state)
    };
    assert!(resume(&payload).is_ok(), "the intact payload resumes");
    for cut in 0..payload.len() {
        assert!(
            matches!(resume(&payload[..cut]), Err(EngineError::Snapshot(_))),
            "payload cut at {cut} of {} must fail typed",
            payload.len()
        );
    }
    let mut extended = payload.clone();
    extended.push(0);
    assert!(matches!(resume(&extended), Err(EngineError::Snapshot(_))));
    // Every flip past the descriptor either resumes or fails typed.
    for at in DESCRIPTOR_BYTES..payload.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut damaged = payload.clone();
            damaged[at] ^= mask;
            if let Err(e) = resume(&damaged) {
                assert!(matches!(e, EngineError::Snapshot(_)), "byte {at}: {e}");
            }
        }
    }
}

#[test]
fn damaged_tcdm_section_fails_typed_under_a_valid_envelope() {
    // Damage under a valid envelope: the TCDM section is cut, extended or
    // flipped, then the payload is re-wrapped with a fresh checksum, so
    // only the section's decoder and the restore stand guard.
    const CHECKPOINT: ContainerSpec = ContainerSpec {
        name: "checkpoint",
        magic: *b"RMCK",
        version: CHECKPOINT_VERSION,
    };
    let shape = GemmShape::new(8, 10, 16);
    let (x, w) = data(shape, 47);
    let engine = Engine::new(AccelConfig::new(4, 2, 1));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    // Two stuck-at faults, so the section ends in a stuck-at list.
    for (addr, bit) in [(0x20, 3), (0x1_0000, 30)] {
        let fault = StuckBit { bit, value: true };
        mem.set_stuck(addr, fault).expect("stuck-at fault");
    }
    let run = Supervisor::new(engine.clone())
        .with_limits(Limits::none().with_max_cycles(60))
        .run(job, &mut mem, &mut hci)
        .expect("run");
    let valid = run.checkpoint.expect("checkpoint").to_bytes();

    // Split the payload into its three length-prefixed sections.
    let payload = decode_container(CHECKPOINT, &valid).expect("payload");
    let mut sections = Vec::new();
    let mut pos = 0;
    while pos < payload.len() {
        let len = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        sections.push(&payload[pos + 8..pos + 8 + len]);
        pos += 8 + len;
    }
    let [session, tcdm, hci_bytes] = sections[..] else {
        panic!("a checkpoint has three sections");
    };
    let rewrap = |tcdm: &[u8]| {
        let mut p = Vec::new();
        for section in [session, tcdm, hci_bytes] {
            p.extend_from_slice(&(section.len() as u64).to_le_bytes());
            p.extend_from_slice(section);
        }
        encode_container(CHECKPOINT, &p)
    };
    assert_eq!(rewrap(tcdm), valid, "the split is exact");
    let cfg = ClusterConfig::default();
    let resume = |tcdm: &[u8]| -> Result<(), String> {
        let ckpt = Checkpoint::from_bytes(&rewrap(tcdm)).map_err(|e| {
            assert!(
                matches!(
                    &e,
                    DecodeError::Section {
                        section: "tcdm",
                        ..
                    }
                ),
                "{e}"
            );
            e.to_string()
        })?;
        let (mut mem, mut hci) = (Tcdm::new(&cfg), Hci::new(&cfg));
        match ckpt.restore(&engine, &mut mem, &mut hci) {
            Ok(_) => Ok(()),
            Err(e @ EngineError::Snapshot(_)) => Err(e.to_string()),
            Err(e) => panic!("untyped restore failure: {e}"),
        }
    };
    assert_eq!(resume(tcdm), Ok(()), "the intact section resumes");

    // Layout: bank count, word count, the words, the stuck-at count and
    // two 10-byte entries.
    let words_end = tcdm.len() - 8 - 2 * 10;
    assert_eq!(tcdm[words_end..words_end + 8], 2u64.to_le_bytes());
    let header = 0..16;
    let stuck_list = words_end..tcdm.len();
    let sampled_words = (16..words_end).step_by(4093);

    let cuts = header
        .clone()
        .chain(sampled_words.clone())
        .chain(words_end - 8..tcdm.len());
    for cut in cuts {
        assert!(resume(&tcdm[..cut]).is_err(), "cut at {cut} accepted");
    }
    for extra in 1..9 {
        let mut extended = tcdm.to_vec();
        extended.resize(tcdm.len() + extra, 0);
        assert!(resume(&extended).is_err(), "{extra} extra bytes accepted");
    }
    // A flip of any byte either loads or fails typed: a flipped word, or
    // a stuck-at entry flipped to another in-range one, is another valid
    // image, which only the envelope's checksum can tell apart. Flips in
    // the bank count, the word count and the stuck-at count always fail.
    for at in header.clone().chain(sampled_words).chain(stuck_list) {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut damaged = tcdm.to_vec();
            damaged[at] ^= mask;
            let must_fail = header.contains(&at) || (words_end..words_end + 8).contains(&at);
            if must_fail {
                assert!(resume(&damaged).is_err(), "byte {at} ^ {mask:#x} accepted");
            } else {
                let _ = resume(&damaged);
            }
        }
    }
}
