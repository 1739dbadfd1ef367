//! The executable register IR.
//!
//! Verified stack bytecode has a deterministic operand-stack depth at
//! every instruction, so each stack slot maps to a fixed *virtual
//! register*: register `d` for local slot `d`, register
//! `max_locals + d` for the stack slot at depth `d`. Instructions read
//! and write registers directly — there is no operand stack at run
//! time — and branch targets are IR instruction indices.
//!
//! This is the workspace's only register IR. It is executable: member
//! accesses carry constant-pool indices that the execution tier resolves
//! through the same runtime caches as the interpreter, and the injected
//! dynamic-service stubs are first-class [`RInsn::Service`] intrinsics
//! after inlining. `dvm-compiler`'s simulated §3.4 native targets cost
//! this same optimized IR instruction by instruction.

use dvm_bytecode::insn::{AKind, ArithOp, ICond, LogicOp, NumKind, NumType, ShiftOp};

/// A virtual register. Registers `0..max_locals` mirror the frame's
/// local-variable slots; higher registers are the flattened operand
/// stack (`max_locals + depth`) plus scratch space for `dup` forms.
///
/// Wide values (`long`/`double`) occupy one *register* even though they
/// occupy two *slots*; the tail slot's register is simply unused, which
/// mirrors the interpreter's `Value::Invalid` padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u16);

/// A constant loadable into a register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RConst {
    /// The null reference.
    Null,
    /// An `int`.
    Int(i32),
    /// A `long`.
    Long(i64),
    /// A `float`.
    Float(f32),
    /// A `double`.
    Double(f64),
    /// An interned string: `String` constant-pool index.
    Str(u16),
}

/// The comparison family (`lcmp`, `fcmpl/g`, `dcmpl/g`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `lcmp`.
    Long,
    /// `fcmpl` / `fcmpg` (`true` selects the `g` variant: NaN → +1).
    Float(bool),
    /// `dcmpl` / `dcmpg`.
    Double(bool),
}

/// Which invoke instruction a call lowered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeKind {
    /// `invokevirtual`.
    Virtual,
    /// `invokespecial`.
    Special,
    /// `invokestatic`.
    Static,
    /// `invokeinterface`.
    Interface,
}

/// A dynamic-service intrinsic: the inlined form of the stub calls the
/// proxy's rewriters inject (`dvm/rt/Enforcer.check`, `dvm/rt/Audit.*`,
/// `dvm/rt/Profiler.*`). Executing one performs the service callback
/// directly, without paying an `invokestatic` dispatch per check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// `Enforcer.check(sid, perm)` — security enforcement.
    Security,
    /// `Audit.enter(site)`.
    AuditEnter,
    /// `Audit.exit(site)`.
    AuditExit,
    /// `Audit.event(site)`.
    AuditEvent,
    /// `Profiler.count(site)`.
    ProfileCount,
    /// `Profiler.firstUse(site)`.
    ProfileFirstUse,
}

/// A service operand: a register, or an immediate folded in by the
/// constant-folding pass (the rewriters emit `iconst` site IDs, so
/// after folding most service intrinsics carry pure immediates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SOp {
    /// Read the operand from a register.
    Reg(VReg),
    /// A folded `int` immediate.
    Imm(i32),
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum RInsn {
    /// Load a constant into a register.
    Const {
        /// Destination.
        dst: VReg,
        /// The constant.
        v: RConst,
    },
    /// Register-to-register copy.
    Move {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Binary arithmetic (`Neg` never appears here; see [`RInsn::Neg`]).
    Arith {
        /// Numeric kind.
        kind: NumKind,
        /// The operation (`Add`..`Rem`).
        op: ArithOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `int` arithmetic with a folded immediate right operand.
    ArithImm {
        /// `Add` or `Mul` (subtraction folds to `Add` of the negation).
        op: ArithOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        src: VReg,
        /// Immediate right operand.
        imm: i32,
    },
    /// Unary negation.
    Neg {
        /// Numeric kind.
        kind: NumKind,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// Shift (`int`/`long` only).
    Shift {
        /// Numeric kind (`Int` or `Long`).
        kind: NumKind,
        /// The shift operation.
        op: ShiftOp,
        /// Destination.
        dst: VReg,
        /// Value operand.
        a: VReg,
        /// Amount operand (always `int`).
        b: VReg,
    },
    /// Bitwise logic (`int`/`long` only).
    Logic {
        /// Numeric kind (`Int` or `Long`).
        kind: NumKind,
        /// The logic operation.
        op: LogicOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `int` bitwise logic with a folded immediate right operand.
    LogicImm {
        /// The logic operation.
        op: LogicOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        src: VReg,
        /// Immediate right operand.
        imm: i32,
    },
    /// `int` shift with a folded immediate amount.
    ShiftImm {
        /// The shift operation.
        op: ShiftOp,
        /// Destination.
        dst: VReg,
        /// Value operand.
        src: VReg,
        /// Immediate shift amount.
        imm: i32,
    },
    /// Numeric conversion.
    Convert {
        /// Source type.
        from: NumType,
        /// Target type.
        to: NumType,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// Three-way comparison pushing -1/0/+1.
    Cmp {
        /// Comparison family.
        kind: CmpKind,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Conditional branch on `int` values (`b` of `None` compares
    /// against zero).
    If {
        /// The condition.
        cond: ICond,
        /// Left operand.
        a: VReg,
        /// Right operand, or `None` for compare-with-zero.
        b: Option<VReg>,
        /// Branch target (IR index) when the condition holds.
        target: usize,
    },
    /// Conditional branch on references (`b` of `None` compares against
    /// null; `eq` of `true` branches on equality).
    IfRef {
        /// Branch on equality (`false`: inequality).
        eq: bool,
        /// Left operand.
        a: VReg,
        /// Right operand, or `None` for compare-with-null.
        b: Option<VReg>,
        /// Branch target (IR index).
        target: usize,
    },
    /// Unconditional branch.
    Goto {
        /// Branch target (IR index).
        target: usize,
    },
    /// `tableswitch`.
    TableSwitch {
        /// Scrutinee.
        on: VReg,
        /// Lowest matched key.
        low: i32,
        /// Targets for `low..`.
        targets: Vec<usize>,
        /// Default target.
        default: usize,
    },
    /// `lookupswitch`.
    LookupSwitch {
        /// Scrutinee.
        on: VReg,
        /// `(key, target)` pairs.
        pairs: Vec<(i32, usize)>,
        /// Default target.
        default: usize,
    },
    /// Return from the function.
    Return {
        /// The returned register, or `None` for `void`.
        src: Option<VReg>,
    },
    /// `getstatic` with a `Fieldref` pool index.
    GetStatic {
        /// Pool index.
        idx: u16,
        /// Destination.
        dst: VReg,
    },
    /// `putstatic`.
    PutStatic {
        /// Pool index.
        idx: u16,
        /// Value to store.
        src: VReg,
    },
    /// `getfield`.
    GetField {
        /// Pool index.
        idx: u16,
        /// Receiver.
        obj: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `putfield`.
    PutField {
        /// Pool index.
        idx: u16,
        /// Receiver.
        obj: VReg,
        /// Value to store.
        src: VReg,
    },
    /// A call (any invoke flavor). For instance calls the receiver is
    /// `args[0]`.
    Invoke {
        /// Which invoke instruction this lowered from.
        kind: InvokeKind,
        /// `Methodref` pool index.
        idx: u16,
        /// Argument registers, receiver first for instance calls. Wide
        /// arguments occupy one entry.
        args: Vec<VReg>,
        /// Result register, or `None` for `void`.
        dst: Option<VReg>,
    },
    /// `new` with a `Class` pool index.
    New {
        /// Pool index.
        idx: u16,
        /// Destination.
        dst: VReg,
    },
    /// `newarray` of a primitive element kind.
    NewArray {
        /// Element kind.
        akind: AKind,
        /// Length operand.
        len: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `anewarray` with a `Class` pool index for the element type.
    ANewArray {
        /// Pool index of the element class.
        idx: u16,
        /// Length operand.
        len: VReg,
        /// Destination.
        dst: VReg,
    },
    /// Array element load.
    ArrayLoad {
        /// Element kind.
        akind: AKind,
        /// Array operand.
        arr: VReg,
        /// Index operand.
        index: VReg,
        /// Destination.
        dst: VReg,
    },
    /// Array element store.
    ArrayStore {
        /// Element kind.
        akind: AKind,
        /// Array operand.
        arr: VReg,
        /// Index operand.
        index: VReg,
        /// Value to store.
        src: VReg,
    },
    /// `arraylength`.
    ArrayLength {
        /// Array operand.
        arr: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `athrow`.
    AThrow {
        /// The thrown reference.
        exc: VReg,
    },
    /// `checkcast` (in-place check; the register keeps its value).
    CheckCast {
        /// Pool index of the target class.
        idx: u16,
        /// Checked register.
        obj: VReg,
    },
    /// `instanceof`.
    InstanceOf {
        /// Pool index of the tested class.
        idx: u16,
        /// Tested register.
        obj: VReg,
        /// Destination (`int` 0/1).
        dst: VReg,
    },
    /// `monitorenter` / `monitorexit`.
    Monitor {
        /// `true` for enter.
        enter: bool,
        /// The monitored reference.
        obj: VReg,
    },
    /// An inlined dynamic-service stub; see [`ServiceKind`].
    Service {
        /// Which service.
        kind: ServiceKind,
        /// First operand (site ID / security ID).
        a: SOp,
        /// Second operand (permission for `Security`; unused otherwise).
        b: SOp,
    },
}

impl RInsn {
    /// All registers this instruction reads.
    pub fn reads(&self) -> Vec<VReg> {
        use RInsn::*;
        match self {
            Const { .. } | Goto { .. } | New { .. } | GetStatic { .. } => Vec::new(),
            Move { src, .. }
            | ArithImm { src, .. }
            | LogicImm { src, .. }
            | ShiftImm { src, .. }
            | Neg { src, .. }
            | Convert { src, .. }
            | PutStatic { src, .. }
            | AThrow { exc: src }
            | Monitor { obj: src, .. }
            | CheckCast { obj: src, .. }
            | InstanceOf { obj: src, .. }
            | ArrayLength { arr: src, .. }
            | NewArray { len: src, .. }
            | ANewArray { len: src, .. }
            | TableSwitch { on: src, .. }
            | LookupSwitch { on: src, .. }
            | GetField { obj: src, .. } => vec![*src],
            Arith { a, b, .. } | Shift { a, b, .. } | Logic { a, b, .. } | Cmp { a, b, .. } => {
                vec![*a, *b]
            }
            If { a, b, .. } | IfRef { a, b, .. } => {
                let mut v = vec![*a];
                if let Some(b) = b {
                    v.push(*b);
                }
                v
            }
            Return { src } => src.iter().copied().collect(),
            PutField { obj, src, .. } => vec![*obj, *src],
            Invoke { args, .. } => args.clone(),
            ArrayLoad { arr, index, .. } => vec![*arr, *index],
            ArrayStore {
                arr, index, src, ..
            } => vec![*arr, *index, *src],
            Service { a, b, .. } => {
                let mut v = Vec::new();
                if let SOp::Reg(r) = a {
                    v.push(*r);
                }
                if let SOp::Reg(r) = b {
                    v.push(*r);
                }
                v
            }
        }
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<VReg> {
        use RInsn::*;
        match self {
            Const { dst, .. }
            | Move { dst, .. }
            | Arith { dst, .. }
            | ArithImm { dst, .. }
            | Neg { dst, .. }
            | Shift { dst, .. }
            | Logic { dst, .. }
            | LogicImm { dst, .. }
            | ShiftImm { dst, .. }
            | Convert { dst, .. }
            | Cmp { dst, .. }
            | GetStatic { dst, .. }
            | GetField { dst, .. }
            | New { dst, .. }
            | NewArray { dst, .. }
            | ANewArray { dst, .. }
            | ArrayLoad { dst, .. }
            | ArrayLength { dst, .. }
            | InstanceOf { dst, .. } => Some(*dst),
            Invoke { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Rewrites every read operand through `f` (writes untouched).
    pub fn map_reads(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        use RInsn::*;
        match self {
            Const { .. } | Goto { .. } | New { .. } | GetStatic { .. } => {}
            Move { src, .. }
            | ArithImm { src, .. }
            | LogicImm { src, .. }
            | ShiftImm { src, .. }
            | Neg { src, .. }
            | Convert { src, .. }
            | PutStatic { src, .. }
            | AThrow { exc: src }
            | Monitor { obj: src, .. }
            | CheckCast { obj: src, .. }
            | InstanceOf { obj: src, .. }
            | ArrayLength { arr: src, .. }
            | NewArray { len: src, .. }
            | ANewArray { len: src, .. }
            | TableSwitch { on: src, .. }
            | LookupSwitch { on: src, .. }
            | GetField { obj: src, .. } => *src = f(*src),
            Arith { a, b, .. } | Shift { a, b, .. } | Logic { a, b, .. } | Cmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            If { a, b, .. } | IfRef { a, b, .. } => {
                *a = f(*a);
                if let Some(b) = b {
                    *b = f(*b);
                }
            }
            Return { src } => {
                if let Some(src) = src {
                    *src = f(*src);
                }
            }
            PutField { obj, src, .. } => {
                *obj = f(*obj);
                *src = f(*src);
            }
            Invoke { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            ArrayLoad { arr, index, .. } => {
                *arr = f(*arr);
                *index = f(*index);
            }
            ArrayStore {
                arr, index, src, ..
            } => {
                *arr = f(*arr);
                *index = f(*index);
                *src = f(*src);
            }
            Service { a, b, .. } => {
                if let SOp::Reg(r) = a {
                    *r = f(*r);
                }
                if let SOp::Reg(r) = b {
                    *r = f(*r);
                }
            }
        }
    }

    /// All explicit branch targets (IR indices).
    pub fn branch_targets(&self) -> Vec<usize> {
        use RInsn::*;
        match self {
            If { target, .. } | IfRef { target, .. } | Goto { target } => vec![*target],
            TableSwitch {
                targets, default, ..
            } => {
                let mut v = vec![*default];
                v.extend_from_slice(targets);
                v
            }
            LookupSwitch { pairs, default, .. } => {
                let mut v = vec![*default];
                v.extend(pairs.iter().map(|(_, t)| *t));
                v
            }
            _ => Vec::new(),
        }
    }

    /// Rewrites every branch target through `f`.
    pub fn map_targets(&mut self, mut f: impl FnMut(usize) -> usize) {
        use RInsn::*;
        match self {
            If { target, .. } | IfRef { target, .. } | Goto { target } => *target = f(*target),
            TableSwitch {
                targets, default, ..
            } => {
                *default = f(*default);
                for t in targets {
                    *t = f(*t);
                }
            }
            LookupSwitch { pairs, default, .. } => {
                *default = f(*default);
                for (_, t) in pairs {
                    *t = f(*t);
                }
            }
            _ => {}
        }
    }

    /// Returns `true` when control can continue to the next instruction.
    pub fn can_fall_through(&self) -> bool {
        !matches!(
            self,
            RInsn::Goto { .. }
                | RInsn::TableSwitch { .. }
                | RInsn::LookupSwitch { .. }
                | RInsn::Return { .. }
                | RInsn::AThrow { .. }
        )
    }

    /// Returns `true` when the instruction has no observable effect
    /// other than its register write: it cannot throw, touch the heap,
    /// call out, or invoke a service. Such an instruction may be deleted
    /// if its destination is dead.
    pub fn side_effect_free(&self) -> bool {
        use RInsn::*;
        match self {
            Const { .. }
            | Move { .. }
            | Neg { .. }
            | Shift { .. }
            | Logic { .. }
            | LogicImm { .. }
            | ShiftImm { .. }
            | ArithImm { .. }
            | Convert { .. }
            | Cmp { .. } => true,
            // Integer division and remainder can throw ArithmeticException.
            Arith { kind, op, .. } => {
                !(matches!(kind, NumKind::Int | NumKind::Long)
                    && matches!(op, ArithOp::Div | ArithOp::Rem))
            }
            _ => false,
        }
    }
}

/// An exception handler in IR-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RHandler {
    /// First protected IR instruction (inclusive).
    pub start: usize,
    /// End of the protected range (exclusive; may equal `insns.len()`).
    pub end: usize,
    /// IR index of the handler's first instruction. The unwinder
    /// deposits the thrown reference in register `max_locals` (stack
    /// depth 0) before jumping here.
    pub handler: usize,
    /// Constant-pool index of the caught class, or 0 for catch-all.
    pub catch_type: u16,
}

/// One lowered, optionally optimized method.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Method name.
    pub name: String,
    /// Method descriptor.
    pub descriptor: String,
    /// The instructions.
    pub insns: Vec<RInsn>,
    /// Exception handlers in IR-index form.
    pub handlers: Vec<RHandler>,
    /// Local-variable slot count (registers `0..max_locals`).
    pub max_locals: u16,
    /// Total registers the executor must allocate.
    pub num_regs: u16,
}

/// A whole class's worth of lowered methods — the unit the proxy caches
/// and ships.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassIr {
    /// Internal class name.
    pub class: String,
    /// Lowered methods. Methods that failed to lower are absent; they
    /// stay on the interpreter tier.
    pub methods: Vec<Function>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_cover_operands() {
        let i = RInsn::Arith {
            kind: NumKind::Int,
            op: ArithOp::Add,
            dst: VReg(3),
            a: VReg(1),
            b: VReg(2),
        };
        assert_eq!(i.reads(), vec![VReg(1), VReg(2)]);
        assert_eq!(i.writes(), Some(VReg(3)));
        assert!(i.side_effect_free());
    }

    #[test]
    fn integer_division_is_not_side_effect_free() {
        let div = RInsn::Arith {
            kind: NumKind::Int,
            op: ArithOp::Div,
            dst: VReg(0),
            a: VReg(1),
            b: VReg(2),
        };
        assert!(!div.side_effect_free());
        let fdiv = RInsn::Arith {
            kind: NumKind::Float,
            op: ArithOp::Div,
            dst: VReg(0),
            a: VReg(1),
            b: VReg(2),
        };
        assert!(fdiv.side_effect_free());
    }

    #[test]
    fn target_mapping_round_trips() {
        let mut i = RInsn::TableSwitch {
            on: VReg(0),
            low: 0,
            targets: vec![1, 2],
            default: 9,
        };
        assert_eq!(i.branch_targets(), vec![9, 1, 2]);
        i.map_targets(|t| t + 5);
        assert_eq!(i.branch_targets(), vec![14, 6, 7]);
    }

    #[test]
    fn map_reads_leaves_writes_alone() {
        let mut i = RInsn::Move {
            dst: VReg(7),
            src: VReg(1),
        };
        i.map_reads(|_| VReg(9));
        assert_eq!(
            i,
            RInsn::Move {
                dst: VReg(7),
                src: VReg(9)
            }
        );
    }
}
