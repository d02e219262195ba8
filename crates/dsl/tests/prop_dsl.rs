//! Property tests for the driver toolchain: image format robustness and
//! compiler totality on hostile input.

use proptest::prelude::*;
use upnp_dsl::ast::Type;
use upnp_dsl::delta::{fnv1a, CHUNK};
use upnp_dsl::image::{BusKind, DriverImage, GlobalSlot, HandlerEntry, ImageError};
use upnp_dsl::isa::disassemble;
use upnp_dsl::{compile_source, lexer, ImageDelta, Op};

/// Strategy for a structurally valid driver image (terminated handlers).
fn arb_image() -> impl Strategy<Value = DriverImage> {
    (
        any::<u32>(),
        prop::collection::vec(0u8..9, 0..6),
        prop::collection::vec((0u8..=255, 0u8..3), 1..6),
    )
        .prop_map(|(device_id, global_tags, handler_specs)| {
            let globals: Vec<GlobalSlot> = global_tags
                .iter()
                .map(|&t| GlobalSlot {
                    ty: Type::from_tag(t).unwrap_or(Type::I32),
                    array_len: if t % 3 == 0 { Some(4) } else { None },
                })
                .collect();
            // Each handler is a single RET at consecutive offsets.
            let mut code = Vec::new();
            let mut handlers = Vec::new();
            for (event_id, n_params) in handler_specs {
                handlers.push(HandlerEntry {
                    event_id,
                    n_params,
                    offset: code.len() as u16,
                });
                code.push(0x63); // RET
            }
            DriverImage {
                device_id,
                bus: BusKind::Adc,
                imports: vec![2],
                globals,
                handlers,
                code,
            }
        })
}

/// Code bytes that mostly decode: seven bytes in eight are known opcodes
/// (operand bytes included), the rest arbitrary, so a walk over them
/// runs long before it stops on a bad opcode or a cut-off operand.
fn arb_code() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((any::<u8>(), 0u8..8), 0..128).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|(b, pick)| match pick {
                0 => b,
                _ => (b..=u8::MAX)
                    .chain(0..b)
                    .find(|&c| Op::from_byte(c).is_some())
                    .expect("opcodes exist"),
            })
            .collect()
    })
}

/// Delta wire bytes: arbitrary, or shaped like the format — a header
/// and a few chunk records with arbitrary fields, full-sized or short —
/// so decoding gets past the header and often succeeds.
fn arb_delta_bytes() -> impl Strategy<Value = Vec<u8>> {
    let record = (
        0u16..12,
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..CHUNK),
    );
    let shaped = (
        0u16..800,
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(record, 0..5),
    )
        .prop_map(|(new_len, base_check, new_check, records)| {
            let mut out = new_len.to_be_bytes().to_vec();
            out.extend_from_slice(&base_check.to_be_bytes());
            out.extend_from_slice(&new_check.to_be_bytes());
            out.extend_from_slice(&(records.len() as u16).to_be_bytes());
            for (idx, full, mut bytes) in records {
                if full {
                    bytes.resize(CHUNK, 0xa5);
                }
                out.extend_from_slice(&idx.to_be_bytes());
                out.push(bytes.len() as u8);
                out.extend_from_slice(&bytes);
            }
            out
        });
    prop_oneof![prop::collection::vec(any::<u8>(), 0..320), shaped]
}

proptest! {
    /// Decoding and then applying a delta never panics, whatever the
    /// bytes and the base: both end in a result or an error. Half the
    /// cases stamp the base's real checksum into the header, so `apply`
    /// gets past its base check and patches.
    #[test]
    fn delta_decode_and_apply_are_total(
        mut bytes in arb_delta_bytes(),
        base in prop::collection::vec(any::<u8>(), 0..700),
        stamp: bool,
    ) {
        if stamp && bytes.len() >= 6 {
            bytes[2..6].copy_from_slice(&fnv1a(&base).to_be_bytes());
        }
        if let Ok(delta) = ImageDelta::from_bytes(&bytes) {
            let _ = delta.apply(&base);
        }
    }

    /// Image serialization round-trips exactly.
    #[test]
    fn image_roundtrip(img in arb_image()) {
        let bytes = img.to_bytes();
        prop_assert_eq!(bytes.len(), img.size_bytes());
        let back = DriverImage::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, img);
    }

    /// The image parser never panics on arbitrary bytes; it either parses
    /// a valid image or reports an error.
    #[test]
    fn image_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = DriverImage::from_bytes(&bytes);
    }

    /// The disassembler never panics on arbitrary code.
    #[test]
    fn disassembler_is_total(code in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = disassemble(&code);
    }

    /// The image parser's code walk accepts exactly the code the
    /// disassembler lists, and stops at the same offset when it does not.
    #[test]
    fn code_walk_agrees_with_disassembler(code in arb_code()) {
        let img = DriverImage {
            device_id: 1,
            bus: BusKind::None,
            imports: vec![],
            globals: vec![],
            handlers: vec![],
            code: code.clone(),
        };
        let walked = DriverImage::from_bytes(&img.to_bytes()).map(|_| ());
        let listed = disassemble(&code).map(|_| ()).map_err(ImageError::BadCode);
        prop_assert_eq!(walked, listed);
    }

    /// The lexer never panics on arbitrary ASCII-ish source.
    #[test]
    fn lexer_is_total(src in "[ -~\n\t]{0,300}") {
        let _ = lexer::lex(&src);
    }

    /// The whole compiler pipeline never panics on arbitrary line soup.
    #[test]
    fn compiler_is_total(lines in prop::collection::vec(
        prop_oneof![
            Just("import uart;".to_string()),
            Just("uint8_t x;".to_string()),
            Just("event init():".to_string()),
            Just("    x = 1;".to_string()),
            Just("    signal uart.read();".to_string()),
            Just("    if x == 1:".to_string()),
            Just("        x = 2;".to_string()),
            Just("    return x;".to_string()),
            Just("error timeOut():".to_string()),
            Just("garbage $$$".to_string()),
        ],
        0..25,
    )) {
        let src = lines.join("\n");
        let _ = compile_source(&src, 1);
    }

    /// Any program the compiler accepts produces an image that re-parses
    /// and whose handler offsets are instruction-aligned.
    #[test]
    fn accepted_programs_produce_wellformed_images(
        n_globals in 1usize..4,
        n_stmts in 1usize..6,
    ) {
        let mut src = String::new();
        for i in 0..n_globals {
            src.push_str(&format!("uint32_t g{i};\n"));
        }
        src.push_str("event init():\n");
        for i in 0..n_stmts {
            src.push_str(&format!("    g{} = {} + g{};\n", i % n_globals, i, (i + 1) % n_globals));
        }
        src.push_str("event destroy():\n    return;\n");
        let img = compile_source(&src, 7).unwrap();
        let back = DriverImage::from_bytes(&img.to_bytes()).unwrap();
        prop_assert_eq!(&back, &img);
        // Every handler offset must fall on an instruction boundary:
        // disassembling from each offset succeeds.
        for h in &img.handlers {
            let tail = &img.code[h.offset as usize..];
            prop_assert!(disassemble(tail).is_ok(), "offset {} misaligned", h.offset);
        }
    }
}
