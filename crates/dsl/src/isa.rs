//! The µPnP bytecode instruction set.
//!
//! "Every bytecode instruction in µPnP is 8-bits in length, followed by
//! zero or more operands" (§4.1). The design is stack-based ("a single
//! operand stack", §4.2), "inspired by the Java Virtual Machine \[but\] less
//! extensive and more tailored towards the domain of IoT driver
//! development": 32-bit cells, typed arithmetic (integer and float
//! variants chosen statically by the compiler), structured control flow via
//! relative jumps, and first-class `signal`/`return` instructions for the
//! event model.

/// A bytecode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// No operation.
    Nop = 0x00,
    /// Push a sign-extended 8-bit immediate.
    Push8 = 0x01,
    /// Push a sign-extended 16-bit immediate (little endian).
    Push16 = 0x02,
    /// Push a 32-bit immediate (little endian).
    Push32 = 0x03,
    /// Push a 32-bit IEEE-754 float immediate.
    PushF = 0x04,
    /// Duplicate the top of stack.
    Dup = 0x05,
    /// Discard the top of stack.
    Pop = 0x06,
    /// Swap the top two cells.
    Swap = 0x07,

    /// Load scalar global `g`.
    Ldg = 0x10,
    /// Store to scalar global `g`.
    Stg = 0x11,
    /// Load handler parameter `n`.
    Ldl = 0x12,
    /// Store to handler parameter `n`.
    Stl = 0x13,
    /// Pop index; push `array g[index]`.
    Lda = 0x14,
    /// Pop value, pop index; `array g[index] = value`.
    Sta = 0x15,
    /// Push the length of array global `g`.
    Len = 0x16,

    /// Integer add.
    Add = 0x20,
    /// Integer subtract.
    Sub = 0x21,
    /// Integer multiply.
    Mul = 0x22,
    /// Integer divide (traps to `divideByZero` on 0).
    Div = 0x23,
    /// Integer remainder (traps to `divideByZero` on 0).
    Mod = 0x24,
    /// Integer negate.
    Neg = 0x25,
    /// Float add.
    FAdd = 0x26,
    /// Float subtract.
    FSub = 0x27,
    /// Float multiply.
    FMul = 0x28,
    /// Float divide.
    FDiv = 0x29,
    /// Float negate.
    FNeg = 0x2a,
    /// Convert integer to float.
    I2F = 0x2b,
    /// Convert float to integer (truncating).
    F2I = 0x2c,

    /// Bitwise and.
    BAnd = 0x30,
    /// Bitwise or.
    BOr = 0x31,
    /// Bitwise xor.
    BXor = 0x32,
    /// Bitwise not.
    BNot = 0x33,
    /// Shift left.
    Shl = 0x34,
    /// Arithmetic shift right.
    Shr = 0x35,
    /// Logical not (0 ↔ 1).
    LNot = 0x38,

    /// Integer equality.
    Eq = 0x40,
    /// Integer inequality.
    Ne = 0x41,
    /// Integer less-than (signed).
    Lt = 0x42,
    /// Integer less-or-equal (signed).
    Le = 0x43,
    /// Integer greater-than (signed).
    Gt = 0x44,
    /// Integer greater-or-equal (signed).
    Ge = 0x45,
    /// Float equality.
    FEq = 0x46,
    /// Float inequality.
    FNe = 0x47,
    /// Float less-than.
    FLt = 0x48,
    /// Float less-or-equal.
    FLe = 0x49,
    /// Float greater-than.
    FGt = 0x4a,
    /// Float greater-or-equal.
    FGe = 0x4b,

    /// Unconditional relative jump (signed 16-bit offset).
    Jmp = 0x50,
    /// Jump if top of stack is zero.
    Jz = 0x51,
    /// Jump if top of stack is non-zero.
    Jnz = 0x52,

    /// `signal lib.event(argc args)`: operands `lib, event, argc`.
    Sig = 0x60,
    /// Return the scalar on top of the stack to the pending operation.
    RetV = 0x61,
    /// Return array global `g` to the pending operation.
    RetA = 0x62,
    /// End the handler without a value.
    Ret = 0x63,

    /// Push the old value of scalar global `g`, then increment it
    /// (the `idx++` peephole).
    IncG = 0x70,

    /// Trap: never valid in a well-formed driver.
    Halt = 0xff,
}

/// What the decoder knows about one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// The operation.
    pub op: Op,
    /// The number of operand bytes following the opcode.
    pub operands: u8,
    /// How many cells the instruction pops (statically known; `Sig`
    /// pops its argc dynamically and is handled separately).
    pub pops: u8,
    /// How many cells the instruction pushes.
    pub pushes: u8,
}

/// Every opcode as `(op, operand bytes, pops, pushes)`.
const OPS: [(Op, u8, u8, u8); 56] = {
    use Op::*;
    [
        (Nop, 0, 0, 0),
        (Push8, 1, 0, 1),
        (Push16, 2, 0, 1),
        (Push32, 4, 0, 1),
        (PushF, 4, 0, 1),
        (Dup, 0, 1, 2),
        (Pop, 0, 1, 0),
        (Swap, 0, 2, 2),
        (Ldg, 1, 0, 1),
        (Stg, 1, 1, 0),
        (Ldl, 1, 0, 1),
        (Stl, 1, 1, 0),
        (Lda, 1, 1, 1),
        (Sta, 1, 2, 0),
        (Len, 1, 0, 1),
        (Add, 0, 2, 1),
        (Sub, 0, 2, 1),
        (Mul, 0, 2, 1),
        (Div, 0, 2, 1),
        (Mod, 0, 2, 1),
        (Neg, 0, 1, 1),
        (FAdd, 0, 2, 1),
        (FSub, 0, 2, 1),
        (FMul, 0, 2, 1),
        (FDiv, 0, 2, 1),
        (FNeg, 0, 1, 1),
        (I2F, 0, 1, 1),
        (F2I, 0, 1, 1),
        (BAnd, 0, 2, 1),
        (BOr, 0, 2, 1),
        (BXor, 0, 2, 1),
        (BNot, 0, 1, 1),
        (Shl, 0, 2, 1),
        (Shr, 0, 2, 1),
        (LNot, 0, 1, 1),
        (Eq, 0, 2, 1),
        (Ne, 0, 2, 1),
        (Lt, 0, 2, 1),
        (Le, 0, 2, 1),
        (Gt, 0, 2, 1),
        (Ge, 0, 2, 1),
        (FEq, 0, 2, 1),
        (FNe, 0, 2, 1),
        (FLt, 0, 2, 1),
        (FLe, 0, 2, 1),
        (FGt, 0, 2, 1),
        (FGe, 0, 2, 1),
        (Jmp, 2, 0, 0),
        (Jz, 2, 1, 0),
        (Jnz, 2, 1, 0),
        (Sig, 3, 0, 0),
        (RetV, 0, 1, 0),
        (RetA, 1, 0, 0),
        (Ret, 0, 0, 0),
        (IncG, 1, 0, 1),
        (Halt, 0, 0, 0),
    ]
};

/// The opcode table: entry `b` describes opcode byte `b`, `None` where
/// `b` is no opcode. The image parser, the verifier, the disassembler and
/// the interpreter all decode through it, one lookup per instruction.
pub static OPCODES: [Option<OpInfo>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < OPS.len() {
        let (op, operands, pops, pushes) = OPS[i];
        table[op as usize] = Some(OpInfo {
            op,
            operands,
            pops,
            pushes,
        });
        i += 1;
    }
    table
};

impl Op {
    /// Decodes an opcode byte.
    pub fn from_byte(b: u8) -> Option<Op> {
        OPCODES[usize::from(b)].map(|info| info.op)
    }

    /// The opcode's table entry.
    const fn info(self) -> OpInfo {
        match OPCODES[self as usize] {
            Some(info) => info,
            None => panic!("every opcode has a table entry"),
        }
    }

    /// The number of operand bytes following the opcode.
    pub fn operand_len(self) -> usize {
        usize::from(self.info().operands)
    }

    /// How many cells the instruction pops (statically known).
    pub fn pops(self) -> usize {
        usize::from(self.info().pops)
    }

    /// How many cells the instruction pushes (statically known; `Sig` pops
    /// its argc dynamically and is handled separately by the verifier).
    pub fn pushes(self) -> usize {
        usize::from(self.info().pushes)
    }
}

/// Decodes the instruction at `pc`: its opcode and its operand bytes.
///
/// The image parser walks a code region with it, the verifier follows
/// control flow with it, and the disassembler formats what it returns.
///
/// # Errors
///
/// Returns `pc` when the byte there is not a known opcode or its
/// operands run past the end of `code`.
pub(crate) fn decode(code: &[u8], pc: usize) -> Result<(Op, &[u8]), usize> {
    let info = code
        .get(pc)
        .and_then(|&b| OPCODES[usize::from(b)])
        .ok_or(pc)?;
    let operands = code
        .get(pc + 1..pc + 1 + usize::from(info.operands))
        .ok_or(pc)?;
    Ok((info.op, operands))
}

/// Disassembles a code region into printable lines (offset, mnemonic,
/// operands), for listings and tests.
///
/// # Errors
///
/// Returns the offset of the first undecodable byte.
pub fn disassemble(code: &[u8]) -> Result<Vec<String>, usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let (op, operands) = decode(code, i)?;
        let text = match (op, operands.len()) {
            (Op::Push8, _) => format!("{:04x}  PUSH8  {}", i, operands[0] as i8),
            (Op::Push16, _) => {
                let v = i16::from_le_bytes([operands[0], operands[1]]);
                format!("{i:04x}  PUSH16 {v}")
            }
            (Op::Push32, _) => {
                let v = i32::from_le_bytes([operands[0], operands[1], operands[2], operands[3]]);
                format!("{i:04x}  PUSH32 {v}")
            }
            (Op::PushF, _) => {
                let v = f32::from_le_bytes([operands[0], operands[1], operands[2], operands[3]]);
                format!("{i:04x}  PUSHF  {v}")
            }
            (Op::Jmp | Op::Jz | Op::Jnz, _) => {
                let d = i16::from_le_bytes([operands[0], operands[1]]);
                let target = (i as i64 + 3 + d as i64) as usize;
                format!("{i:04x}  {op:?}    -> {target:04x}")
            }
            (Op::Sig, _) => format!(
                "{:04x}  SIG    lib={} event={} argc={}",
                i, operands[0], operands[1], operands[2]
            ),
            (_, 0) => format!("{i:04x}  {op:?}"),
            (_, 1) => format!("{:04x}  {:?}    {}", i, op, operands[0]),
            _ => format!("{i:04x}  {op:?}    {operands:?}"),
        };
        out.push(text);
        i += 1 + operands.len();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_roundtrips_through_from_byte() {
        use Op::*;
        let all = [
            Nop, Push8, Push16, Push32, PushF, Dup, Pop, Swap, Ldg, Stg, Ldl, Stl, Lda, Sta, Len,
            Add, Sub, Mul, Div, Mod, Neg, FAdd, FSub, FMul, FDiv, FNeg, I2F, F2I, BAnd, BOr, BXor,
            BNot, Shl, Shr, LNot, Eq, Ne, Lt, Le, Gt, Ge, FEq, FNe, FLt, FLe, FGt, FGe, Jmp, Jz,
            Jnz, Sig, RetV, RetA, Ret, IncG, Halt,
        ];
        for op in all {
            assert_eq!(Op::from_byte(op as u8), Some(op), "{op:?}");
        }
        assert_eq!(Op::from_byte(0x99), None);
    }

    #[test]
    fn operand_lengths() {
        assert_eq!(Op::Nop.operand_len(), 0);
        assert_eq!(Op::Push8.operand_len(), 1);
        assert_eq!(Op::Push16.operand_len(), 2);
        assert_eq!(Op::Push32.operand_len(), 4);
        assert_eq!(Op::Jz.operand_len(), 2);
        assert_eq!(Op::Sig.operand_len(), 3);
        assert_eq!(Op::IncG.operand_len(), 1);
    }

    #[test]
    fn stack_effects_are_consistent() {
        // Binary arithmetic: 2 in, 1 out.
        for op in [Op::Add, Op::FMul, Op::Eq, Op::Shl] {
            assert_eq!(op.pops(), 2);
            assert_eq!(op.pushes(), 1);
        }
        // Pure pushes.
        for op in [Op::Push8, Op::Ldg, Op::IncG] {
            assert_eq!(op.pops(), 0);
            assert_eq!(op.pushes(), 1);
        }
    }

    #[test]
    fn disassembles_a_simple_sequence() {
        // PUSH8 5; LDG 0; ADD; STG 0; RET
        let code = [0x01, 5, 0x10, 0, 0x20, 0x11, 0, 0x63];
        let lines = disassemble(&code).unwrap();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("PUSH8  5"));
        assert!(lines[2].contains("Add"));
        assert!(lines[4].contains("Ret"));
    }

    #[test]
    fn disassembler_rejects_bad_opcode_and_truncation() {
        assert_eq!(disassemble(&[0x99]), Err(0));
        // PUSH32 with only two operand bytes.
        assert_eq!(disassemble(&[0x03, 1, 2]), Err(0));
        // Valid prefix, bad tail.
        assert_eq!(disassemble(&[0x00, 0x99]), Err(1));
    }

    #[test]
    fn decode_returns_opcode_and_operands() {
        // NOP; PUSH16 0x0201; SIG 1 2 0
        let code = [0x00, 0x02, 1, 2, 0x60, 1, 2, 0];
        assert_eq!(decode(&code, 0), Ok((Op::Nop, &[][..])));
        assert_eq!(decode(&code, 1), Ok((Op::Push16, &[1, 2][..])));
        assert_eq!(decode(&code, 4), Ok((Op::Sig, &[1, 2, 0][..])));
        // Past the end, an unknown opcode, operands cut short.
        assert_eq!(decode(&code, 8), Err(8));
        assert_eq!(decode(&[0x99], 0), Err(0));
        assert_eq!(decode(&code[..6], 4), Err(4));
    }

    #[test]
    fn jump_disassembly_shows_target() {
        // JMP +2 over a NOP: target = 0 + 3 + 2 = 5.
        let code = [0x50, 2, 0, 0x00, 0x00, 0x63];
        let lines = disassemble(&code).unwrap();
        assert!(lines[0].contains("-> 0005"), "{}", lines[0]);
    }
}
