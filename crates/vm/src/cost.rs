//! Per-operation cycle costs, calibrated against §6.2.
//!
//! The paper measures on the 16 MHz ATMega128RFA1:
//!
//! * 39.7 µs average per bytecode instruction (635 cycles),
//! * 11.1 µs per operand-stack `push()` (178 cycles),
//! * 8.9 µs per `pop()` (142 cycles),
//! * 77.79 µs per routed event (1245 cycles), scaling linearly.
//!
//! The model decomposes instruction cost as
//! `dispatch + pops·POP + pushes·PUSH + work`, with the work terms chosen
//! so the ISA-wide average lands on the paper's number (asserted by a
//! calibration test). An 8-bit AVR has no hardware float or divide, so
//! float and division work units are an order of magnitude above integer
//! ALU work — this is also what makes native C float drivers big in
//! Table 3.

use upnp_dsl::isa::{Op, OPCODES};
use upnp_sim::CpuCost;

/// Cycle cost of the interpreter's fetch/decode/dispatch per instruction.
pub const DISPATCH_CYCLES: u64 = 150;

/// Cycle cost of one operand-stack push (paper: 11.1 µs ≈ 178 cycles).
pub const PUSH_CYCLES: u64 = 178;

/// Cycle cost of one operand-stack pop (paper: 8.9 µs ≈ 142 cycles).
pub const POP_CYCLES: u64 = 142;

/// Cycle cost of routing one event between drivers, native libraries and
/// the network stack (paper: 77.79 µs ≈ 1245 cycles).
pub const ROUTE_EVENT_CYCLES: u64 = 1245;

/// The full cycle cost of each opcode byte (0 where the byte is no
/// opcode), so the interpreter charges an instruction with one lookup.
pub(crate) static INSTRUCTION_CYCLES: [u64; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        if let Some(info) = OPCODES[b] {
            table[b] = DISPATCH_CYCLES
                + info.pops as u64 * POP_CYCLES
                + info.pushes as u64 * PUSH_CYCLES
                + VmCostModel::work_cycles(info.op);
        }
        b += 1;
    }
    table
};

/// The cycle price of each VM operation: an instruction, a routed event
/// and a native-library call, in the one §6.2 calibration above. The
/// interpreter charges instructions from the same per-opcode table.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmCostModel;

impl VmCostModel {
    /// The work term of an opcode: everything beyond dispatch and stack
    /// traffic.
    const fn work_cycles(op: Op) -> u64 {
        use Op::*;
        match op {
            Nop => 4,
            Push8 | Push16 => 16,
            Push32 | PushF => 32,
            Dup | Pop | Swap => 8,
            Ldg | Stg | Ldl | Stl => 60,
            Lda | Sta | Len => 90,
            Add | Sub | Neg | BAnd | BOr | BXor | BNot | LNot => 40,
            Mul => 80,
            Div | Mod => 300,
            Shl | Shr => 48,
            Eq | Ne | Lt | Le | Gt | Ge => 40,
            FAdd | FSub | FNeg => 320,
            FMul => 360,
            FDiv => 500,
            FEq | FNe | FLt | FLe | FGt | FGe => 180,
            I2F | F2I => 220,
            Jmp | Jz | Jnz => 40,
            Sig => 200,
            RetV | RetA | Ret => 60,
            IncG => 90,
            Halt => 4,
        }
    }

    /// Full cycle cost of executing one instruction.
    pub fn instruction(&self, op: Op) -> CpuCost {
        CpuCost::cycles(INSTRUCTION_CYCLES[op as usize])
    }

    /// Cost of routing one event (queue insert + dispatch + context setup).
    pub fn route_event(&self) -> CpuCost {
        CpuCost::cycles(ROUTE_EVENT_CYCLES)
    }

    /// Cost of one native-library operation entry (argument marshalling and
    /// the platform call, excluding bus wire time).
    pub fn native_call(&self) -> CpuCost {
        CpuCost::cycles(400)
    }

    /// The mean instruction cost across the whole ISA (what §6.2's "39.7 µs
    /// average" corresponds to for a uniform mix).
    pub fn isa_mean(&self) -> CpuCost {
        let all = Self::all_ops();
        let total: u64 = all.iter().map(|&op| self.instruction(op).cycles).sum();
        CpuCost::cycles(total / all.len() as u64)
    }

    /// All real opcodes (excluding the `Halt` trap).
    pub fn all_ops() -> Vec<Op> {
        (0u8..=0xfe)
            .filter_map(Op::from_byte)
            .filter(|&o| o != Op::Halt)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_sim::{AvrCostModel, SimDuration};

    #[test]
    fn push_pop_match_paper_measurements() {
        let avr = AvrCostModel::atmega128rfa1();
        let push_us = avr.duration(CpuCost::cycles(PUSH_CYCLES)).as_micros_f64();
        let pop_us = avr.duration(CpuCost::cycles(POP_CYCLES)).as_micros_f64();
        // Paper: 11.1 µs and 8.9 µs.
        assert!((push_us - 11.1).abs() < 0.1, "push {push_us} µs");
        assert!((pop_us - 8.9).abs() < 0.1, "pop {pop_us} µs");
    }

    #[test]
    fn event_routing_matches_paper() {
        let avr = AvrCostModel::atmega128rfa1();
        let us = avr.duration(VmCostModel.route_event()).as_micros_f64();
        // Paper: 77.79 µs per event.
        assert!((us - 77.79).abs() < 0.5, "route {us} µs");
    }

    #[test]
    fn isa_mean_close_to_39_7_us() {
        let avr = AvrCostModel::atmega128rfa1();
        let mean = avr.duration(VmCostModel.isa_mean()).as_micros_f64();
        assert!(
            (30.0..=50.0).contains(&mean),
            "ISA mean {mean:.1} µs vs paper 39.7 µs"
        );
    }

    #[test]
    fn float_ops_cost_more_than_int_ops() {
        let m = VmCostModel;
        assert!(m.instruction(Op::FAdd).cycles > m.instruction(Op::Add).cycles);
        assert!(m.instruction(Op::FDiv).cycles > m.instruction(Op::Div).cycles);
    }

    #[test]
    fn binary_op_cost_decomposition() {
        // ADD = dispatch + 2 pops + 1 push + work.
        let c = VmCostModel.instruction(Op::Add).cycles;
        assert_eq!(c, 150 + 2 * 142 + 178 + 40);
    }

    #[test]
    fn every_opcode_has_nonzero_cost() {
        for op in VmCostModel::all_ops() {
            assert!(VmCostModel.instruction(op).cycles >= DISPATCH_CYCLES);
        }
    }

    #[test]
    fn a_typical_handler_runs_in_sub_millisecond_scale() {
        // ~20 instructions at the mean is < 1 ms on the AVR: drivers stay
        // responsive, as the paper's "performs well even on embedded
        // devices" conclusion requires.
        let avr = AvrCostModel::atmega128rfa1();
        let t = avr.duration(VmCostModel.isa_mean().times(20));
        assert!(t < SimDuration::from_millis(1), "{t}");
    }
}
