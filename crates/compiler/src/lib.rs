//! The DVM's centralized network compiler (§3.4).
//!
//! Client-side JIT compilers work under time and memory pressure and
//! "typically do not perform aggressive optimizations"; the DVM moves
//! compilation into the network, where it is performed ahead of time per
//! client native format (learned from the monitoring handshake) and
//! amortized across the organization via an image cache.
//!
//! Pipeline: [`dvm_exec::compile_class`] lowers verified bytecode to the
//! execution tier's register IR and runs its pass pipeline (service
//! inlining, constant folding, copy propagation, dead-code elimination);
//! [`target::lower`] then costs each optimized method as a simulated x86
//! or Alpha image. [`ExecCompiler`] serves the same optimized IR to
//! clients' portable execution tier.

pub mod exec_service;
pub mod service;
pub mod target;

pub use exec_service::{ExecCompiler, ExecCompilerStats, IrPackage, IR_COMPILE_CYCLES_PER_INSN};
pub use service::{ClassImage, CompilerStats, NetworkCompiler};
pub use target::{lower, NativeMethod, Target};
