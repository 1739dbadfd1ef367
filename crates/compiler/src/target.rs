//! Simulated native targets.
//!
//! The DVM ran on "x86 and DEC Alpha processors" (abstract of the paper).
//! We model both as cost/size profiles: lowering estimates the encoded
//! size and per-execution cycle count of each optimized `dvm-exec`
//! register-IR instruction for the requested target. The experiments need the *structure* of ahead-of-time
//! compilation — per-target images, caching, amortization — not executable
//! machine code.

use dvm_exec::{Function, RInsn};

/// A compilation target named during the client handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// 32-bit x86: compact variable-length encoding, fewer registers
    /// (extra spill traffic).
    X86,
    /// DEC Alpha: fixed 4-byte instructions, generous register file.
    Alpha,
}

impl Target {
    /// Parses the handshake's native-format string.
    pub fn from_format(s: &str) -> Option<Target> {
        match s {
            "x86" => Some(Target::X86),
            "alpha" => Some(Target::Alpha),
            _ => None,
        }
    }

    /// The handshake string for this target.
    pub fn format_name(&self) -> &'static str {
        match self {
            Target::X86 => "x86",
            Target::Alpha => "alpha",
        }
    }
}

/// A lowered method image.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeMethod {
    /// Method identity `class.name:descriptor`.
    pub name: String,
    /// Target it was compiled for.
    pub target: Target,
    /// Estimated encoded size in bytes.
    pub code_size: u64,
    /// Estimated cycles for one straight-line execution of the body
    /// (loop-free approximation used for speedup accounting).
    pub cycles_estimate: u64,
    /// Number of native instructions emitted.
    pub native_insns: u64,
}

/// Per-IR-instruction lowering estimate for a target:
/// `(native_insns, bytes, cycles)`.
fn lower_cost(insn: &RInsn, target: Target) -> (u64, u64, u64) {
    use RInsn::*;
    let (insns, cycles) = match insn {
        Const { .. }
        | Move { .. }
        | Neg { .. }
        | Arith { .. }
        | ArithImm { .. }
        | Shift { .. }
        | ShiftImm { .. }
        | Logic { .. }
        | LogicImm { .. }
        | Cmp { .. } => (1, 1),
        Convert { .. } => (1, 2),
        If { .. } | IfRef { .. } => (2, 2),
        Goto { .. } => (1, 1),
        TableSwitch { targets, .. } => (2 + targets.len() as u64, 4),
        LookupSwitch { pairs, .. } => (2 + pairs.len() as u64, 4),
        Invoke { args, .. } => (2 + args.len() as u64, 6),
        // Field and array access, allocation, type checks, monitors and
        // inlined service hooks: an address computation plus the access.
        GetStatic { .. }
        | PutStatic { .. }
        | GetField { .. }
        | PutField { .. }
        | New { .. }
        | NewArray { .. }
        | ANewArray { .. }
        | ArrayLoad { .. }
        | ArrayStore { .. }
        | ArrayLength { .. }
        | CheckCast { .. }
        | InstanceOf { .. }
        | Monitor { .. }
        | Service { .. } => (2, 3),
        Return { .. } => (1, 2),
        AThrow { .. } => (3, 10),
    };
    match target {
        // x86: ~3 bytes/insn, plus occasional spill traffic from the small
        // register file (+25% instructions on register-heavy ops).
        Target::X86 => {
            let spill = insns / 4;
            ((insns + spill), (insns + spill) * 3, cycles + spill)
        }
        // Alpha: 4 bytes/insn, no modeled spills.
        Target::Alpha => (insns, insns * 4, cycles),
    }
}

/// Lowers an optimized method of class `class` to a native image for
/// `target`.
pub fn lower(class: &str, func: &Function, target: Target) -> NativeMethod {
    let mut native_insns = 0;
    let mut code_size = 0;
    let mut cycles = 0;
    for insn in &func.insns {
        let (i, b, c) = lower_cost(insn, target);
        native_insns += i;
        code_size += b;
        cycles += c;
    }
    NativeMethod {
        name: format!("{class}.{}:{}", func.name, func.descriptor),
        target,
        code_size,
        cycles_estimate: cycles,
        native_insns,
    }
}

/// Interpreter dispatch overhead per bytecode instruction, used to compute
/// the estimated speedup of compiled code.
pub const INTERP_DISPATCH_CYCLES: u64 = 8;

impl NativeMethod {
    /// Estimated speedup over interpreting a body of `bytecode_insns`
    /// instructions.
    pub fn estimated_speedup(&self, bytecode_insns: u64) -> f64 {
        if self.cycles_estimate == 0 {
            return 1.0;
        }
        let interpreted = bytecode_insns * (INTERP_DISPATCH_CYCLES + 2);
        interpreted as f64 / self.cycles_estimate as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::insn::{ArithOp, NumKind};
    use dvm_exec::{RConst, VReg};

    fn sample() -> Function {
        Function {
            name: "f".into(),
            descriptor: "()I".into(),
            insns: vec![
                RInsn::Const {
                    dst: VReg(0),
                    v: RConst::Int(2),
                },
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(3),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Add,
                    dst: VReg(0),
                    a: VReg(0),
                    b: VReg(1),
                },
                RInsn::Return { src: Some(VReg(0)) },
            ],
            handlers: Vec::new(),
            max_locals: 0,
            num_regs: 2,
        }
    }

    #[test]
    fn targets_differ_in_encoding() {
        let x86 = lower("t", &sample(), Target::X86);
        let alpha = lower("t", &sample(), Target::Alpha);
        assert_eq!(x86.name, "t.f:()I");
        assert_eq!(x86.target, Target::X86);
        assert_eq!(alpha.target, Target::Alpha);
        assert_ne!(x86.code_size, alpha.code_size);
        assert!(x86.native_insns >= alpha.native_insns);
    }

    #[test]
    fn speedup_is_reported_over_interpretation() {
        let m = lower("t", &sample(), Target::Alpha);
        let s = m.estimated_speedup(4);
        assert!(
            s > 1.0,
            "compiled code should beat the interpreter, got {s}"
        );
    }

    #[test]
    fn format_round_trip() {
        assert_eq!(Target::from_format("x86"), Some(Target::X86));
        assert_eq!(Target::from_format("alpha"), Some(Target::Alpha));
        assert_eq!(Target::from_format("sparc"), None);
        assert_eq!(Target::X86.format_name(), "x86");
    }
}
