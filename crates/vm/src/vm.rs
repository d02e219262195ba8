//! The stack-based bytecode interpreter.
//!
//! One [`DriverInstance`] exists per installed driver. Handlers execute
//! run-to-completion on a single operand stack (§4.2); they cannot block —
//! every I/O request leaves the VM as a [`SignalOut`] and completion comes
//! back as a later event. Faults (bad index, stack overflow, division by
//! zero, runaway loops) abort the handler and surface as [`VmError`]s that
//! the runtime converts into prioritized error events, exactly the error
//! model §4.1 describes.

use std::sync::Arc;

use upnp_dsl::ast::Type;
use upnp_dsl::image::{DriverImage, HandlerEntry};
use upnp_dsl::isa::{Op, OPCODES};
use upnp_sim::CpuCost;

use crate::cost::INSTRUCTION_CYCLES;
use crate::value::Cell;

/// Operand stack depth (cells); shared ABI limit (see
/// [`upnp_dsl::vm_limits`]).
pub const STACK_DEPTH: usize = upnp_dsl::vm_limits::STACK_DEPTH;

/// Per-handler instruction budget; exceeding it is a fault (runaway
/// loop). Shared ABI limit.
pub const GAS_LIMIT: u64 = upnp_dsl::vm_limits::GAS_LIMIT;

/// Interpreter faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Operand stack exceeded [`STACK_DEPTH`].
    StackOverflow,
    /// Pop from an empty stack (malformed bytecode).
    StackUnderflow,
    /// Array index out of bounds.
    OutOfRange,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Undecodable opcode.
    BadOpcode(u8),
    /// Jump target outside the code region.
    BadJump,
    /// Reference to a global/local slot that does not exist.
    BadSlot(u8),
    /// The handler exceeded [`GAS_LIMIT`] instructions.
    GasExhausted,
    /// The requested event has no handler in this driver.
    NoHandler(u8),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::StackOverflow => write!(f, "operand stack overflow"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::OutOfRange => write!(f, "array index out of range"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::BadOpcode(b) => write!(f, "bad opcode {b:#04x}"),
            VmError::BadJump => write!(f, "jump out of code region"),
            VmError::BadSlot(s) => write!(f, "bad variable slot {s}"),
            VmError::GasExhausted => write!(f, "instruction budget exhausted"),
            VmError::NoHandler(e) => write!(f, "no handler for event {e}"),
        }
    }
}

impl std::error::Error for VmError {}

/// A `signal` emitted by a handler, to be routed after it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalOut {
    /// Destination library id (`libs::THIS` for driver-local events).
    pub lib: u8,
    /// Event or operation id.
    pub event: u8,
    /// Arguments, in declaration order.
    pub args: Vec<Cell>,
}

/// A value returned with the `return` keyword.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnValue {
    /// A scalar cell (with the producing element type if known).
    Scalar(Cell),
    /// A whole array global (element type + cells).
    Array(Type, Vec<Cell>),
}

/// Everything a handler execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerOutcome {
    /// Total execution cost in MCU cycles.
    pub cost: CpuCost,
    /// Number of instructions retired.
    pub instructions: u64,
    /// Signals emitted, in order.
    pub signals: Vec<SignalOut>,
    /// Value passed to `return`, if any.
    pub returned: Option<ReturnValue>,
    /// The fault that aborted the handler, if any.
    pub error: Option<VmError>,
}

/// One installed driver's execution state.
#[derive(Debug, Clone)]
pub struct DriverInstance {
    image: Arc<DriverImage>,
    scalars: Vec<Cell>,
    scalar_types: Vec<Type>,
    arrays: Vec<Vec<Cell>>,
    array_types: Vec<Type>,
}

impl DriverInstance {
    /// Instantiates a driver from its image; globals are zeroed. The
    /// image is shared with whoever else holds it, not copied.
    pub fn new(image: impl Into<Arc<DriverImage>>) -> Self {
        let image = image.into();
        let mut scalars = Vec::new();
        let mut scalar_types = Vec::new();
        let mut arrays = Vec::new();
        let mut array_types = Vec::new();
        for g in &image.globals {
            match g.array_len {
                None => {
                    scalars.push(Cell::ZERO);
                    scalar_types.push(g.ty);
                }
                Some(len) => {
                    arrays.push(vec![Cell::ZERO; len as usize]);
                    array_types.push(g.ty);
                }
            }
        }
        DriverInstance {
            image,
            scalars,
            scalar_types,
            arrays,
            array_types,
        }
    }

    /// The driver's image.
    pub fn image(&self) -> &DriverImage {
        &self.image
    }

    /// True if the driver declares a handler for `event_id`.
    pub fn has_handler(&self, event_id: u8) -> bool {
        self.image.handler_for(event_id).is_some()
    }

    /// Reads a scalar global (diagnostics/tests).
    pub fn scalar(&self, slot: u8) -> Option<Cell> {
        self.scalars.get(slot as usize).copied()
    }

    /// Approximate RAM occupied by this instance's mutable state
    /// (globals + arrays + the operand stack), for Table 2 accounting.
    pub fn ram_bytes(&self) -> usize {
        self.scalars.len() * 4
            + self.arrays.iter().map(|a| a.len() * 4).sum::<usize>()
            + STACK_DEPTH * 4
    }

    /// Executes the handler for `event_id` with `args`.
    ///
    /// Never panics on malformed bytecode: all faults are reported in
    /// [`HandlerOutcome::error`].
    pub fn run_handler(&mut self, event_id: u8, args: &[Cell]) -> HandlerOutcome {
        let mut outcome = HandlerOutcome {
            cost: CpuCost::ZERO,
            instructions: 0,
            signals: Vec::new(),
            returned: None,
            error: None,
        };
        let result = match self.image.handler_for(event_id) {
            Some(&entry) => self.execute(entry, args, &mut outcome),
            None => Err(VmError::NoHandler(event_id)),
        };
        match result {
            Ok(returned) => outcome.returned = returned,
            Err(e) => outcome.error = Some(e),
        }
        outcome
    }

    /// Runs one handler to completion: its returned value, or the fault
    /// that aborted it. Instructions, cost and signals accrue in `out`.
    ///
    /// An instruction costs one lookup in the opcode table to decode and
    /// one in the cycle table to price; the operand stack and the locals
    /// live in arrays on the host stack.
    fn execute(
        &mut self,
        entry: HandlerEntry,
        args: &[Cell],
        out: &mut HandlerOutcome,
    ) -> Result<Option<ReturnValue>, VmError> {
        let code: &[u8] = &self.image.code;
        let code_len = code.len();
        // Ldl/Stl address locals with a u8, so 256 cells hold every slot;
        // the first `n_locals` exist.
        let mut locals = [Cell::ZERO; 256];
        let n_locals = usize::from(entry.n_params.max(args.len() as u8));
        let given = n_locals.min(args.len());
        locals[..given].copy_from_slice(&args[..given]);
        let mut stack = [Cell::ZERO; STACK_DEPTH];
        let mut sp = 0;
        let mut pc = usize::from(entry.offset);
        let mut instructions = 0u64;
        let mut cycles = 0u64;

        macro_rules! finish {
            ($result:expr) => {{
                out.instructions = instructions;
                out.cost = CpuCost::cycles(cycles);
                return $result;
            }};
        }
        macro_rules! fault {
            ($e:expr) => {
                finish!(Err($e))
            };
        }
        macro_rules! pop {
            () => {{
                if sp == 0 {
                    fault!(VmError::StackUnderflow);
                }
                sp -= 1;
                stack[sp]
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                if sp >= STACK_DEPTH {
                    fault!(VmError::StackOverflow);
                }
                stack[sp] = $v;
                sp += 1;
            }};
        }
        macro_rules! int2 {
            (|$a:ident, $b:ident| $r:expr) => {{
                let $b = pop!().as_i32();
                let $a = pop!().as_i32();
                push!(Cell::from_i32($r));
            }};
        }
        macro_rules! int1 {
            (|$a:ident| $r:expr) => {{
                let $a = pop!().as_i32();
                push!(Cell::from_i32($r));
            }};
        }
        macro_rules! float2 {
            (|$a:ident, $b:ident| $r:expr) => {{
                let $b = pop!().as_f32();
                let $a = pop!().as_f32();
                push!($r);
            }};
        }
        macro_rules! jump_if {
            ($take:expr, $operands:expr) => {{
                if $take {
                    let delta = i16::from_le_bytes([$operands[0], $operands[1]]) as i64;
                    let target = pc as i64 + delta;
                    if target < 0 || target as usize > code_len {
                        fault!(VmError::BadJump);
                    }
                    pc = target as usize;
                }
            }};
        }

        loop {
            if instructions >= GAS_LIMIT {
                fault!(VmError::GasExhausted);
            }
            // Falling off the end terminates like RET (the compiler
            // always emits a terminator, but stay safe).
            let Some(&byte) = code.get(pc) else {
                finish!(Ok(None));
            };
            let Some(info) = OPCODES[usize::from(byte)] else {
                fault!(VmError::BadOpcode(byte));
            };
            let next_pc = pc + 1 + usize::from(info.operands);
            let Some(operands) = code.get(pc + 1..next_pc) else {
                fault!(VmError::BadJump);
            };
            instructions += 1;
            cycles += INSTRUCTION_CYCLES[usize::from(byte)];
            pc = next_pc;

            match info.op {
                Op::Nop => {}
                Op::Push8 => push!(Cell::from_i32(operands[0] as i8 as i32)),
                Op::Push16 => push!(Cell::from_i32(
                    i16::from_le_bytes([operands[0], operands[1]]) as i32
                )),
                Op::Push32 => push!(Cell::from_i32(i32::from_le_bytes(
                    operands.try_into().expect("len 4")
                ))),
                Op::PushF => push!(Cell::from_f32(f32::from_le_bytes(
                    operands.try_into().expect("len 4")
                ))),
                Op::Dup => {
                    let v = pop!();
                    push!(v);
                    push!(v);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Swap => {
                    let b = pop!();
                    let a = pop!();
                    push!(b);
                    push!(a);
                }

                Op::Ldg => {
                    let slot = operands[0];
                    match self.scalars.get(usize::from(slot)) {
                        Some(&v) => push!(v),
                        None => fault!(VmError::BadSlot(slot)),
                    }
                }
                Op::Stg => {
                    let slot = operands[0];
                    let v = pop!();
                    let Some(ty) = self.scalar_types.get(usize::from(slot)).copied() else {
                        fault!(VmError::BadSlot(slot));
                    };
                    self.scalars[usize::from(slot)] = apply_width(ty, v);
                }
                Op::Ldl => {
                    let slot = operands[0];
                    if usize::from(slot) >= n_locals {
                        fault!(VmError::BadSlot(slot));
                    }
                    push!(locals[usize::from(slot)]);
                }
                Op::Stl => {
                    let slot = operands[0];
                    let v = pop!();
                    if usize::from(slot) >= n_locals {
                        fault!(VmError::BadSlot(slot));
                    }
                    locals[usize::from(slot)] = v;
                }
                Op::Lda => {
                    let slot = operands[0];
                    let idx = pop!().as_i32();
                    let Some(arr) = self.arrays.get(usize::from(slot)) else {
                        fault!(VmError::BadSlot(slot));
                    };
                    let Some(&v) = usize::try_from(idx).ok().and_then(|i| arr.get(i)) else {
                        fault!(VmError::OutOfRange);
                    };
                    push!(v);
                }
                Op::Sta => {
                    let slot = operands[0];
                    let v = pop!();
                    let idx = pop!().as_i32();
                    let Some(ty) = self.array_types.get(usize::from(slot)).copied() else {
                        fault!(VmError::BadSlot(slot));
                    };
                    let arr = &mut self.arrays[usize::from(slot)];
                    let Some(cell) = usize::try_from(idx).ok().and_then(|i| arr.get_mut(i)) else {
                        fault!(VmError::OutOfRange);
                    };
                    *cell = apply_width(ty, v);
                }
                Op::Len => {
                    let slot = operands[0];
                    match self.arrays.get(usize::from(slot)) {
                        Some(a) => push!(Cell::from_i32(a.len() as i32)),
                        None => fault!(VmError::BadSlot(slot)),
                    }
                }

                Op::Add => int2!(|a, b| a.wrapping_add(b)),
                Op::Sub => int2!(|a, b| a.wrapping_sub(b)),
                Op::Mul => int2!(|a, b| a.wrapping_mul(b)),
                Op::Div | Op::Mod => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        fault!(VmError::DivideByZero);
                    }
                    push!(Cell::from_i32(if info.op == Op::Div {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    }));
                }
                Op::Neg => int1!(|a| a.wrapping_neg()),
                Op::BAnd => int2!(|a, b| a & b),
                Op::BOr => int2!(|a, b| a | b),
                Op::BXor => int2!(|a, b| a ^ b),
                Op::BNot => int1!(|a| !a),
                Op::Shl => int2!(|a, b| a.wrapping_shl(b as u32 & 31)),
                Op::Shr => int2!(|a, b| a.wrapping_shr(b as u32 & 31)),
                Op::LNot => int1!(|a| (a == 0) as i32),
                Op::Eq => int2!(|a, b| (a == b) as i32),
                Op::Ne => int2!(|a, b| (a != b) as i32),
                Op::Lt => int2!(|a, b| (a < b) as i32),
                Op::Le => int2!(|a, b| (a <= b) as i32),
                Op::Gt => int2!(|a, b| (a > b) as i32),
                Op::Ge => int2!(|a, b| (a >= b) as i32),

                Op::FAdd => float2!(|a, b| Cell::from_f32(a + b)),
                Op::FSub => float2!(|a, b| Cell::from_f32(a - b)),
                Op::FMul => float2!(|a, b| Cell::from_f32(a * b)),
                Op::FDiv => float2!(|a, b| Cell::from_f32(a / b)),
                Op::FEq => float2!(|a, b| Cell::from_i32((a == b) as i32)),
                Op::FNe => float2!(|a, b| Cell::from_i32((a != b) as i32)),
                Op::FLt => float2!(|a, b| Cell::from_i32((a < b) as i32)),
                Op::FLe => float2!(|a, b| Cell::from_i32((a <= b) as i32)),
                Op::FGt => float2!(|a, b| Cell::from_i32((a > b) as i32)),
                Op::FGe => float2!(|a, b| Cell::from_i32((a >= b) as i32)),
                Op::FNeg => {
                    let a = pop!().as_f32();
                    push!(Cell::from_f32(-a));
                }
                Op::I2F => {
                    let a = pop!().as_i32();
                    push!(Cell::from_f32(a as f32));
                }
                Op::F2I => {
                    let a = pop!().as_f32();
                    push!(Cell::from_i32(a as i32));
                }

                Op::Jmp => jump_if!(true, operands),
                Op::Jz => jump_if!(!pop!().truthy(), operands),
                Op::Jnz => jump_if!(pop!().truthy(), operands),

                Op::Sig => {
                    let (lib, event, argc) = (operands[0], operands[1], operands[2]);
                    let mut args = vec![Cell::ZERO; usize::from(argc)];
                    for a in args.iter_mut().rev() {
                        *a = pop!();
                    }
                    out.signals.push(SignalOut { lib, event, args });
                }
                Op::RetV => {
                    let v = pop!();
                    finish!(Ok(Some(ReturnValue::Scalar(v))));
                }
                Op::RetA => {
                    let slot = operands[0];
                    let Some(arr) = self.arrays.get(usize::from(slot)) else {
                        fault!(VmError::BadSlot(slot));
                    };
                    let ty = self.array_types[usize::from(slot)];
                    finish!(Ok(Some(ReturnValue::Array(ty, arr.clone()))));
                }
                Op::Ret => finish!(Ok(None)),
                Op::IncG => {
                    let slot = operands[0];
                    let Some(ty) = self.scalar_types.get(usize::from(slot)).copied() else {
                        fault!(VmError::BadSlot(slot));
                    };
                    let old = self.scalars[usize::from(slot)];
                    push!(old);
                    self.scalars[usize::from(slot)] =
                        apply_width(ty, Cell::from_i32(old.as_i32().wrapping_add(1)));
                }
                Op::Halt => fault!(VmError::BadOpcode(0xff)),
            }
        }
    }
}

/// Emulates the declared storage width on store, like a C assignment to a
/// narrow integer type.
fn apply_width(ty: Type, v: Cell) -> Cell {
    let x = v.as_i32();
    let out = match ty {
        Type::U8 | Type::Char => x & 0xff,
        Type::I8 => x as u8 as i8 as i32,
        Type::U16 => x & 0xffff,
        Type::I16 => x as u16 as i16 as i32,
        Type::Bool => (x != 0) as i32,
        Type::U32 | Type::I32 | Type::Float => return v,
    };
    Cell::from_i32(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_dsl::events::{ids, libs};
    use upnp_dsl::{compile_source_with, OptLevel};

    // These tests observe the VM through channels the optimiser is free
    // to change — direct global-slot introspection (dead globals get
    // eliminated) and per-instruction costs — so they compile without
    // optimisation to pin the literal code shape. Optimised-vs-reference
    // equivalence is `tests/differential.rs`'s job.
    fn instance(src: &str) -> DriverInstance {
        DriverInstance::new(compile_source_with(src, 1, OptLevel::None).expect("compile"))
    }

    const PROLOGUE: &str = "event destroy():\n    return;\n";

    #[test]
    fn init_stores_globals() {
        let mut d = instance(&format!(
            "uint8_t a;\nuint16_t b;\nevent init():\n    a = 300;\n    b = 70000;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, None);
        // u8 truncates 300 → 44; u16 truncates 70000 → 4464.
        assert_eq!(d.scalar(0).unwrap().as_i32(), 300 & 0xff);
        assert_eq!(d.scalar(1).unwrap().as_i32(), 70000 & 0xffff);
    }

    #[test]
    fn signed_widths_sign_extend() {
        let mut d = instance(&format!(
            "int8_t a;\nevent init():\n    a = 200;\n{PROLOGUE}"
        ));
        d.run_handler(ids::INIT, &[]);
        assert_eq!(d.scalar(0).unwrap().as_i32(), -56);
    }

    #[test]
    fn float_pipeline_computes_temperature() {
        // The TMP36 conversion at raw=512: V=1.65156, T=115.156 °C.
        let mut d = instance(&format!(
            "float t;\nuint16_t raw;\nevent sampleDone(uint16_t r):\n    raw = r;\n    t = ((raw * 3.3) / 1023.0 - 0.5) * 100.0;\n    return t;\nevent init():\n    return;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::SAMPLE_DONE, &[Cell::from_i32(512)]);
        assert_eq!(out.error, None);
        let Some(ReturnValue::Scalar(v)) = out.returned else {
            panic!("expected scalar return");
        };
        assert!((v.as_f32() - 115.156).abs() < 0.01, "{}", v.as_f32());
    }

    #[test]
    fn signals_are_collected_in_order() {
        let mut d = instance(&format!(
            "import uart;\nevent init():\n    signal uart.read();\n    signal this.done();\nevent done():\n    return;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.signals.len(), 2);
        assert_eq!(out.signals[0].lib, libs::UART);
        assert_eq!(out.signals[1].lib, libs::THIS);
        assert!(out.signals[1].event >= 128);
    }

    #[test]
    fn signal_args_in_declaration_order() {
        let mut d = instance(&format!(
            "import uart;\nevent init():\n    signal uart.init(9600, 0, 1, 8);\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        let args: Vec<i32> = out.signals[0].args.iter().map(|c| c.as_i32()).collect();
        assert_eq!(args, vec![9600, 0, 1, 8]);
    }

    #[test]
    fn listing1_newdata_collects_card() {
        let mut d = instance(upnp_dsl::drivers::ID20LA);
        d.run_handler(ids::INIT, &[]);
        d.run_handler(ids::READ, &[]);
        // Feed the 16-byte frame; control chars must be filtered.
        let frame = b"\x02DEADBEEF01XY\r\n\x03";
        let mut custom_signal = None;
        for &c in frame {
            let out = d.run_handler(ids::NEWDATA, &[Cell::from_i32(c as i32)]);
            assert_eq!(out.error, None);
            for s in out.signals {
                if s.lib == libs::THIS {
                    custom_signal = Some(s.event);
                }
            }
        }
        // After 12 payload chars the driver signals readDone.
        let read_done = custom_signal.expect("readDone signalled");
        let out = d.run_handler(read_done, &[]);
        let Some(ReturnValue::Array(ty, cells)) = out.returned else {
            panic!("expected array return");
        };
        assert_eq!(ty, Type::U8);
        let bytes: Vec<u8> = cells.iter().map(|c| c.as_i32() as u8).collect();
        assert_eq!(&bytes, b"DEADBEEF01XY");
    }

    #[test]
    fn out_of_range_store_faults() {
        let mut d = instance(&format!(
            "uint8_t a[2];\nuint8_t i;\nevent init():\n    i = 5;\n    a[i] = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::OutOfRange));
    }

    #[test]
    fn division_by_zero_faults() {
        let mut d = instance(&format!(
            "int32_t x, y;\nevent init():\n    x = 10 / y;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::DivideByZero));
    }

    #[test]
    fn runaway_loop_exhausts_gas() {
        let mut d = instance(&format!(
            "uint8_t x;\nevent init():\n    while 1 == 1:\n        x = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::GasExhausted));
        assert!(out.instructions >= GAS_LIMIT);
    }

    #[test]
    fn missing_handler_reports_no_handler() {
        let mut d = instance(&format!("event init():\n    return;\n{PROLOGUE}"));
        let out = d.run_handler(ids::STREAM, &[]);
        assert_eq!(out.error, Some(VmError::NoHandler(ids::STREAM)));
        assert!(d.has_handler(ids::INIT));
        assert!(!d.has_handler(ids::STREAM));
    }

    #[test]
    fn cost_accumulates_per_instruction() {
        let mut d = instance(&format!(
            "uint8_t x;\nevent init():\n    x = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        // PUSH8 + STG + RET = 3 instructions, each costing > dispatch.
        assert_eq!(out.instructions, 3);
        assert!(out.cost.cycles > 3 * crate::cost::DISPATCH_CYCLES);
    }

    /// FNV-1a over every handler outcome of the sweep below, recorded
    /// against the interpreter that decoded each opcode by `match` and
    /// kept its operand stack in a `Vec`: a rewrite must retire the same
    /// instructions at the same cost, with the same signals, return value
    /// and first fault, on well-formed and on hostile code alike.
    const HANDLER_OUTCOMES_DIGEST: u64 = 0xe444_bbd6_b02d_a011;

    #[test]
    fn handler_outcomes_match_the_pinned_digest() {
        const ARGS: [Cell; 4] = [Cell(7), Cell(-3), Cell(1000), Cell(0x4048_f5c3)];
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |case: String| {
            for b in case.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut run_all = |name: &str, label: &str, image: Arc<DriverImage>| {
            for h in &image.handlers {
                let args = &ARGS[..usize::from(h.n_params).min(ARGS.len())];
                let out = DriverInstance::new(Arc::clone(&image)).run_handler(h.event_id, args);
                fold(format!("{name} {label} ev{} {out:?}\n", h.event_id));
            }
        };
        for (i, (name, src)) in upnp_dsl::drivers::ALL.iter().enumerate() {
            let image = upnp_dsl::compile_source(src, i as u32 + 1).expect("compiles");
            for pos in 0..image.code.len() {
                let b = image.code[pos];
                for v in [0x00, 0xff, b ^ 1] {
                    let mut m = image.clone();
                    m.code[pos] = v;
                    run_all(name, &format!("[{pos}]={v}"), Arc::new(m));
                }
            }
            run_all(name, "as compiled", Arc::new(image));
        }
        // The faults no mutation above reaches, and the edges of the code
        // region, as one two-parameter handler over one scalar and one
        // two-cell array.
        let hostile: [&[u8]; 8] = [
            &[0x50, 0xfd, 0xff],             // JMP to itself: gas
            &[0x01, 1, 0x50, 0xfb, 0xff],    // PUSH8 in a loop: stack overflow
            &[0x00, 0x03, 1, 2],             // PUSH32 cut short by the end
            &[0x50, 0x00, 0x00],             // JMP to the end: returns
            &[0x50, 0x01, 0x00],             // JMP past the end
            &[0x12, 1, 0x12, 2, 0x63],       // LDL past the parameters
            &[0x01, 2, 0x01, 1, 0x15, 0],    // STA index 2 of a two-cell array
            &[0x70, 0, 0x70, 0, 0x20, 0x61], // IncG twice, add, return
        ];
        for (i, code) in hostile.iter().enumerate() {
            run_all("hostile", &i.to_string(), Arc::new(raw_image(code)));
        }
        assert_eq!(digest, HANDLER_OUTCOMES_DIGEST, "{digest:#018x}");
    }

    /// An unverified image whose one handler (event 0, two parameters)
    /// runs `code` over a `u8` scalar and a two-cell `u8` array.
    fn raw_image(code: &[u8]) -> DriverImage {
        DriverImage {
            device_id: 0,
            bus: upnp_dsl::image::BusKind::None,
            imports: Vec::new(),
            globals: vec![
                upnp_dsl::image::GlobalSlot {
                    ty: Type::U8,
                    array_len: None,
                },
                upnp_dsl::image::GlobalSlot {
                    ty: Type::U8,
                    array_len: Some(2),
                },
            ],
            handlers: vec![upnp_dsl::image::HandlerEntry {
                event_id: 0,
                n_params: 2,
                offset: 0,
            }],
            code: code.to_vec(),
        }
    }

    /// Where an instruction can fault two ways, the first check wins:
    /// a store pops before it checks its slot, a load checks its slot
    /// before it pushes.
    #[test]
    fn the_first_failing_check_names_the_fault() {
        let fault = |code: &[u8]| {
            DriverInstance::new(raw_image(code))
                .run_handler(0, &[])
                .error
        };
        // Stores into bad slots with nothing to store.
        assert_eq!(fault(&[0x11, 9]), Some(VmError::StackUnderflow));
        assert_eq!(fault(&[0x13, 9]), Some(VmError::StackUnderflow));
        assert_eq!(fault(&[0x01, 0, 0x15, 9]), Some(VmError::StackUnderflow));
        // Loads from bad slots onto a full stack.
        let mut full = [0x01, 0].repeat(STACK_DEPTH);
        for load in [[0x10, 9], [0x12, 9], [0x16, 9], [0x70, 9]] {
            let mut code = full.clone();
            code.extend(load);
            assert_eq!(fault(&code), Some(VmError::BadSlot(9)), "{load:?}");
        }
        // A full stack and a good slot: the push overflows.
        full.extend([0x12, 1]);
        assert_eq!(fault(&full), Some(VmError::StackOverflow));
    }

    #[test]
    fn bmp180_compensation_matches_reference_model() {
        use upnp_bus::peripherals::Calibration;
        // Feed the datasheet example values through the DSL driver's
        // compensate handler and compare with the datasheet worked example.
        let mut d = instance(upnp_dsl::drivers::BMP180);
        d.run_handler(ids::INIT, &[]);

        // Write calibration EEPROM bytes into cal[] via i2cdata events
        // (state is 1 right after init).
        let cal = Calibration::DATASHEET_EXAMPLE.to_eeprom();
        for (i, &b) in cal.iter().enumerate() {
            let out = d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(b as i32), Cell::from_i32(i as i32)],
            );
            assert_eq!(out.error, None);
        }
        // i2cDone in state 1 → parseCalibration.
        let out = d.run_handler(ids::I2C_DONE, &[]);
        let parse_ev = out.signals[0].event;
        let out = d.run_handler(parse_ev, &[]);
        assert_eq!(out.error, None);

        // Inject UT/UP via the driver's own buffers: run read(), then
        // pretend the I²C completions delivered the datasheet bytes.
        d.run_handler(ids::READ, &[]);
        // state 2 → timerFired → state 3 read UT.
        d.run_handler(ids::TIMER_FIRED, &[]);
        let ut: i64 = 27898;
        for (i, b) in [(ut >> 8) as u8, (ut & 0xff) as u8].iter().enumerate() {
            d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(*b as i32), Cell::from_i32(i as i32)],
            );
        }
        d.run_handler(ids::I2C_DONE, &[]); // state 3 → cmd pressure, timer
        d.run_handler(ids::TIMER_FIRED, &[]); // state 4 → read UP
        let up: i64 = 23843;
        let raw24 = (up as u32) << 8;
        for (i, b) in [
            (raw24 >> 16) as u8,
            (raw24 >> 8) as u8,
            (raw24 & 0xff) as u8,
        ]
        .iter()
        .enumerate()
        {
            d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(*b as i32), Cell::from_i32(i as i32)],
            );
        }
        let out = d.run_handler(ids::I2C_DONE, &[]);
        // i2cDone in state 5 signals this.compensate.
        let comp_ev = out
            .signals
            .iter()
            .find(|s| s.lib == libs::THIS)
            .expect("compensate signalled")
            .event;
        let out = d.run_handler(comp_ev, &[]);
        assert_eq!(out.error, None);
        let Some(ReturnValue::Scalar(p)) = out.returned else {
            panic!("expected pressure return");
        };
        // Datasheet worked example: 69964 Pa.
        assert_eq!(p.as_i32(), 69_964);
    }
}
